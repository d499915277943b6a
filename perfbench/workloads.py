"""The benchmark workloads: inputs made from a seed, one pass, and its checks.

Each workload is one of the paper's experiments, run through the library's
public entry points: ``ofdm_pcs.cli.main(argv)`` in-process for the CLI
experiments, and ``solve_pcs`` for shaping.  A pass returns one output per
operation (the artifact's bytes, or the exception the operation raised);
:meth:`Plan.check` maps every output that exists to ``None`` or a message
saying why it is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Sizes of one pass.  The CLI's default grids are kept and Monte-Carlo draw
# counts are cut, so that a single-thread pass takes about a second.  The
# surface keeps the default 100 trials: the library splits trials into chunks
# of 64 per thread, and with one chunk a thread pool would have nothing to do.
DETECT_TRIALS = 200
DETECT_CALIB_TRIALS = 800  # the fewest that give calibration 100 false alarms
SURFACE_TRIALS = 100
SLICE_TRIALS = 256
RATE_MC = 20_000
SHAPING_ORDERS = (16, 64, 256)
SHAPING_TARGETS = 10  # per order and pass
SHAPING_PASSES = 40  # distinct target sets per seed, 1 200 targets in all
# Targets reach this share of the range width past each end, so clipping runs.
SHAPING_OVERSHOOT = 0.05


@dataclass
class Plan:
    """A workload with its inputs prepared."""

    # (threads, pass index, cli_span) -> outputs; equal indices mean equal inputs
    run: Callable[[int, int, Callable], dict[str, object]]
    check: Callable[[dict[str, bytes]], dict[str, str | None]]
    useful_lags: Callable[[int], int] = lambda lags: lags
    threaded: bool = True  # False: the pass has no thread option and ignores ``threads``
    passes: int = 1  # distinct inputs: timed passes cycle through indices 1..passes


def _run_cli(lib, outdir: Path, commands: dict[str, list[str]]):
    """A pass that runs each labelled CLI command once and reads its artifact."""

    def run(threads: int, index: int, cli_span) -> dict[str, object]:
        outputs = {}
        for label, argv in commands.items():
            out = outdir / f"{label}-t{threads}.csv"
            with cli_span():
                rc = lib.cli.main([*argv, "--threads", str(threads), "--out", str(out)])
            if rc != 0:
                outputs[label] = RuntimeError(f"ofdm-pcs {' '.join(argv[:2])} exited {rc}")
            else:
                outputs[label] = out.read_bytes()
        return outputs

    return run


def _checked(label: str, fn, *args) -> str | None:
    try:
        fn(*args)
    except checks.CheckError as exc:
        return f"{label}: {exc}"
    return None


def _ring8(lib, outdir: Path) -> Path:
    """qam16 shaped at c0 = 1: the eight unit-energy points, uniformly."""
    path = outdir / "ring8.json"
    argv = ["pcs", "solve", "--modulation", "qam16", "--c0", "1.0", "--out", str(path)]
    if lib.cli.main(argv) != 0:
        raise RuntimeError("could not prepare ring8.json")
    return path


def prepare_detect(lib, seed: int, outdir: Path) -> Plan:
    argv = [
        "detect", "pd-sweep", "--modulation", "qam16", "--c0", "1.0,1.32,1.64",
        "--snr=-5:1:20", "--trials", str(DETECT_TRIALS),
        "--calib-trials", str(DETECT_CALIB_TRIALS), "--seed", str(seed),
    ]
    cells = lib.detect.instrumented_range(lib.ofdm.OfdmConfig())
    return Plan(
        run=_run_cli(lib, outdir, {"pd": argv}),
        check=lambda outs: {k: _checked(k, checks.check_pd_sweep, v.decode()) for k, v in outs.items()},
        useful_lags=lambda lags: min(lags, cells),
    )


def prepare_af_surface(lib, seed: int, outdir: Path) -> Plan:
    argv = ["af", "surface", "--modulation", "qam16", "--trials", str(SURFACE_TRIALS), "--seed", str(seed)]
    return Plan(
        run=_run_cli(lib, outdir, {"surface": argv}),
        check=lambda outs: {k: _checked(k, checks.check_af_surface, v.decode()) for k, v in outs.items()},
    )


def prepare_af_slice(lib, seed: int, outdir: Path) -> Plan:
    ring8 = _ring8(lib, outdir)
    common = ["--doppler", "0", "--trials", str(SLICE_TRIALS), "--seed", str(seed)]
    commands = {
        "qam16": ["af", "slice", "--modulation", "qam16", *common],
        "ring8": ["af", "slice", "--modulation", str(ring8), *common],
    }

    def check(outs):
        verdicts, floors = {}, {}
        for label, data in outs.items():
            try:
                floors[label] = checks.check_af_slice(data.decode())
                verdicts[label] = None
            except checks.CheckError as exc:
                verdicts[label] = f"{label}: {exc}"
        if len(floors) == 2:
            verdicts["ring8"] = verdicts["ring8"] or _checked(
                "ring8", checks.check_floor_order, floors["ring8"], floors["qam16"],
                "constant-modulus ring8 vs qam16 off-peak floor",
            )
        return verdicts

    return Plan(run=_run_cli(lib, outdir, commands), check=check)


def prepare_rate(lib, seed: int, outdir: Path) -> Plan:
    ring8 = _ring8(lib, outdir)
    ring8_order = sum(p > 0 for p in lib.constellation.Constellation.from_json(ring8.read_text()).probs)
    orders = {"qam16": 16, "psk16": 16, ring8.stem: int(ring8_order)}
    commands = {
        "snr": ["air", "sweep-snr", "--modulations", f"qam16,psk16,{ring8}", "--mc", str(RATE_MC), "--seed", str(seed)],
        "c0": ["air", "sweep-c0", "--modulation", "qam16", "--mc", str(RATE_MC), "--seed", str(seed)],
    }
    checkers = {
        "snr": lambda text: checks.check_air_snr(text, orders),
        "c0": lambda text: checks.check_air_c0(text, 16),
    }
    return Plan(
        run=_run_cli(lib, outdir, commands),
        check=lambda outs: {k: _checked(k, checkers[k], v.decode()) for k, v in outs.items()},
    )


def shaping_targets(seed: int, index: int, order: int, lo: float, hi: float) -> list[float]:
    """Targets of one pass: seeded draws over [lo, hi] widened by the overshoot."""
    rng = random.Random(f"{seed}/{index}/{order}")
    pad = SHAPING_OVERSHOOT * (hi - lo)
    return [max(0.0, rng.uniform(lo - pad, hi + pad)) for _ in range(SHAPING_TARGETS)]


def prepare_shaping(lib, seed: int, outdir: Path) -> Plan:
    """Each pass index draws its own targets, and a run cycles through
    ``SHAPING_PASSES`` of them: 1 200 targets sample the Newton-cap failures
    at their natural rate instead of one draw's handful of them, and the
    seed alone fixes which targets a run solves."""
    bases = {order: lib.constellation.make_qam(order).amplitudes for order in SHAPING_ORDERS}
    energies = {order: [float(a) ** 2 for a in amps] for order, amps in bases.items()}
    ranges = {order: checks.feasible_m4_range(e) for order, e in energies.items()}

    def solve(order: int, c0: float):
        try:
            sol = lib.pcs.solve_pcs(lib.pcs.PcsProblem(bases[order], c0), "max-entropy")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            return exc
        return np.asarray(sol.probs, dtype=float).tobytes()

    def run(threads: int, index: int, cli_span) -> dict[str, object]:
        return {
            f"{index}/qam{order}/{c0!r}": solve(order, c0)
            for order in SHAPING_ORDERS
            for c0 in shaping_targets(seed, index, order, *ranges[order])
        }

    def check(outs):
        verdicts = {}
        for label, data in outs.items():
            _, name, c0 = label.split("/")
            order = int(name.removeprefix("qam"))
            probs = np.frombuffer(data, dtype=float).tolist()
            verdicts[label] = _checked(label, checks.check_shaping, probs, energies[order], float(c0), ranges[order])
        return verdicts

    return Plan(run=run, check=check, threaded=False, passes=SHAPING_PASSES)


PREPARE = {
    "detect": prepare_detect,
    "af-surface": prepare_af_surface,
    "af-slice": prepare_af_slice,
    "rate": prepare_rate,
    "shaping": prepare_shaping,
}

# Per-layer spans that must fire on each workload in a traced run.
REQUIRED_SPANS = {
    "detect": (
        "constellation.sample_symbols", "ofdm.symbol_signal_batch", "detect.matched_filter",
        "detect.noise", "detect.reference_means", "detect.calibrate_alpha", "detect.pd_experiment",
    ),
    "af-surface": ("ambiguity.af_at_delay", "ambiguity.mc_average_af", "cli", "cli.write"),
    "af-slice": ("ambiguity.af_at_delay", "ambiguity.mc_average_af"),
    "rate": ("air.air_mc",),
    "shaping": ("pcs.solve_pcs", "simplex.solve_lp"),
}
