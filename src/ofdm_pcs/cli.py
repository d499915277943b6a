"""Command-line front end: wires configs to experiments, emits CSV/JSON.

Subcommands: ``constellation dump``, ``pcs solve|sweep``,
``af surface|slice|variance``, ``air sweep-c0|sweep-snr``,
``detect pd-sweep|calibrate``.

Option precedence is defaults < JSON config file (``--config``) < flags.
Every output file starts with comment lines recording the tool version and
the fully resolved parameters, so identical invocations produce byte-identical
artifacts.  Seeds are explicit flags (default 0), never environment state, and
``--threads`` only adds workers; it never changes any output byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .air import AirConfig, air_vs_c0, air_vs_snr
from .ambiguity import (
    default_nu_grid,
    default_tau_grid,
    magnitude_db,
    mc_average_af,
    mean_af_components,
    variance_cross_closed,
    variance_self_closed,
)
from .constellation import Constellation, make_psk, make_qam
from .detect import (
    CfarConfig,
    DetectionScenario,
    calibrate_alpha,
    noise_profile_sampler,
    pd_experiment,
)
from .ofdm import OfdmConfig
from .pcs import PcsProblem, solve_pcs, sweep_c0

# Options that must not influence output bytes (or are the output itself).
_META_EXCLUDE = {"out", "config", "threads"}

_NUMBERISH = re.compile(r"^-(\d|\.\d)[\d.,:eE+-]*$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -5:1:20`` into ``--flag=-5:1:20`` so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and _NUMBERISH.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_grid(value) -> np.ndarray:
    """Parse ``start:step:stop`` (inclusive), comma lists, or a single number."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return np.asarray(value, dtype=float)
    text = str(value).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step == 0 or (stop - start) * step < 0:
            raise ValueError(f"grid {text!r} has inconsistent direction")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(count)
    return np.array([float(p) for p in text.split(",") if p.strip() != ""])


def resolve_modulation(spec: str) -> tuple[str, Constellation]:
    """psk<N>/qam<N> constructors, or a path to a shaped-constellation JSON."""
    lowered = spec.lower()
    match = re.fullmatch(r"(psk|qam)(\d+)", lowered)
    if match:
        order = int(match.group(2))
        c = make_psk(order) if match.group(1) == "psk" else make_qam(order)
        return lowered, c
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return path.stem, Constellation.from_json(path.read_text())
    raise ValueError(
        f"unknown modulation {spec!r}: expected psk<N>, qam<N>, or a JSON file path"
    )


_FLOAT = "{:.12g}".format


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _FLOAT(float(value))
    return str(value)


def _meta_lines(command: str, resolved: dict) -> list[str]:
    lines = [f"# tool = ofdm-pcs {__version__}", f"# command = {command}"]
    for key in sorted(resolved):
        if key in _META_EXCLUDE or resolved[key] is None:
            continue
        lines.append(f"# {key} = {_fmt(resolved[key])}")
    return lines


def write_csv(path: str, command: str, resolved: dict, header: list[str], rows) -> None:
    """Rows are sequences or 1-D arrays.  A float cell prints as ``_fmt``
    would, in one bound ``_FLOAT`` call; pass large float tables as arrays,
    whose ``tolist`` yields Python floats, the fastest input of that call."""
    lines = _meta_lines(command, resolved)
    lines.append(",".join(header))
    for row in rows:
        cells = row.tolist() if isinstance(row, np.ndarray) else row
        lines.append(",".join([_FLOAT(v) if isinstance(v, float) else _fmt(v) for v in cells]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str, command: str, resolved: dict, payload: dict) -> None:
    meta = {"tool": f"ofdm-pcs {__version__}", "command": command}
    meta.update(
        {k: resolved[k] for k in sorted(resolved) if k not in _META_EXCLUDE and resolved[k] is not None}
    )
    Path(path).write_text(json.dumps({"meta": meta, **payload}, indent=2) + "\n")


def _ofdm_config(opts: dict) -> OfdmConfig:
    subcarriers = int(opts["subcarriers"])
    if subcarriers < 1:
        raise ValueError(f"subcarriers must be >= 1, got {subcarriers}")
    return OfdmConfig(
        num_subcarriers=subcarriers,
        subcarrier_spacing=float(opts["bandwidth"]) / subcarriers,
        oversampling=int(opts["oversampling"]),
    )


def _add_common(parser: argparse.ArgumentParser, leaf: bool = False):
    # On leaves SUPPRESS keeps a given flag from clobbering the top-level
    # value when absent, so both positions work.
    default: object = argparse.SUPPRESS if leaf else None
    parser.add_argument("--config", default=default, help="JSON file with option defaults")
    parser.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS if leaf else 1,
        help="worker thread cap (never changes results)",
    )


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per ``_COMMANDS`` entry and one flag per default, typed
    like its default (float where it is None); unset flags stay None."""
    parser = argparse.ArgumentParser(
        prog="ofdm-pcs",
        description="Constellation shaping, ambiguity statistics, rate and detection experiments for OFDM sensing-and-communication waveforms",
    )
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, (_, help_text, defaults) in _COMMANDS.items():
        group, action = command.split()
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="action", required=True)
        leaf = groups[group].add_parser(action, help=help_text)
        for key, default in defaults.items():
            leaf.add_argument(
                "--" + key.replace("_", "-"), default=None,
                type=float if default is None else type(default),
            )
        leaf.add_argument("--out", required=command != "detect calibrate")
        _add_common(leaf, leaf=True)
    return parser


def _resolve(args: argparse.Namespace, command: str) -> dict:
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    defaults = _COMMANDS[command][2]
    from_file = {}
    if args.config:
        try:
            from_file = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable config {args.config!r}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ValueError(f"config {args.config!r} must hold a JSON object")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = from_file.get(key, default)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        resolved[key] = value
    if resolved.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {resolved['seed']}")
    resolved["out"] = args.out
    resolved["threads"] = args.threads
    return resolved


def _run_constellation_dump(opts: dict) -> None:
    _, c = resolve_modulation(opts["modulation"])
    write_json(opts["out"], "constellation dump", opts, c.to_json_dict())


def _solution_payload(base: Constellation, sol) -> dict:
    shaped = base.with_probs(sol.probs)
    return {
        **shaped.to_json_dict(),
        "achieved_m4": sol.achieved_m4,
        "gap": sol.gap,
        "feasible_range": list(sol.feasible_range),
        "entropy_bits": sol.tie_break_entropy,
    }


def _run_pcs_solve(opts: dict) -> None:
    _, base = resolve_modulation(opts["modulation"])
    sol = solve_pcs(PcsProblem(base.amplitudes, float(opts["c0"])))
    write_json(opts["out"], "pcs solve", opts, _solution_payload(base, sol))


def _run_pcs_sweep(opts: dict) -> None:
    _, base = resolve_modulation(opts["modulation"])
    grid = parse_grid(opts["c0"])
    sols = sweep_c0(base.amplitudes, grid)
    header = ["c0", "achieved_m4", "gap", "entropy_bits"] + [
        f"p{q}" for q in range(base.order)
    ]
    rows = [
        [c0, s.achieved_m4, s.gap, s.tie_break_entropy, *s.probs]
        for c0, s in zip(grid, sols)
    ]
    write_csv(opts["out"], "pcs sweep", opts, header, rows)


def _run_af_slice(opts: dict) -> None:
    _, c = resolve_modulation(opts["modulation"])
    cfg = _ofdm_config(opts)
    points = int(opts["points"])
    if opts["delay"] is not None:
        tau_grid = np.array([float(opts["delay"])])
        nu_grid = default_nu_grid(cfg, points)
        axis = "nu"
    else:
        tau_grid = default_tau_grid(cfg, points)
        nu_grid = np.array([float(opts["doppler"])])
        axis = "tau"
    surface = mc_average_af(
        cfg, c, tau_grid, nu_grid, int(opts["trials"]), int(opts["seed"]),
        threads=int(opts["threads"]),
    )
    mags = surface.values[0] if axis == "nu" else surface.values[:, 0]
    grid = nu_grid if axis == "nu" else tau_grid
    rows = np.column_stack([grid, magnitude_db(mags)])
    write_csv(opts["out"], "af slice", opts, [axis, "magnitude_db"], rows)


def _run_af_surface(opts: dict) -> None:
    _, c = resolve_modulation(opts["modulation"])
    cfg = _ofdm_config(opts)
    tau_grid = default_tau_grid(cfg, int(opts["tau_points"]))
    nu_grid = default_nu_grid(cfg, int(opts["nu_points"]))
    surface = mc_average_af(
        cfg, c, tau_grid, nu_grid, int(opts["trials"]), int(opts["seed"]),
        threads=int(opts["threads"]),
    )
    header = ["tau"] + [_fmt(nu) for nu in nu_grid]
    rows = np.column_stack([tau_grid, surface.values])
    write_csv(opts["out"], "af surface", opts, header, rows)


def _run_af_variance(opts: dict) -> None:
    _, c = resolve_modulation(opts["modulation"])
    cfg = _ofdm_config(opts)
    tau_grid = default_tau_grid(cfg, int(opts["points"]))
    nu = float(opts["doppler"])
    mean_self, _ = mean_af_components(cfg, tau_grid)
    rows = [
        [
            tau,
            variance_self_closed(cfg, c, tau, nu),
            variance_cross_closed(cfg, tau, nu),
            mean_self,
        ]
        for tau, mean_self in zip(tau_grid, mean_self)
    ]
    write_csv(
        opts["out"], "af variance", opts,
        ["tau", "sigma2_self", "sigma2_cross", "mean_self_abs"], rows,
    )


def _run_air_sweep_c0(opts: dict) -> None:
    _, base = resolve_modulation(opts["modulation"])
    grid = parse_grid(opts["c0"])
    cfg = AirConfig(float(opts["sigma2"]), int(opts["mc"]), int(opts["seed"]))
    rows = air_vs_c0(base, grid, cfg, threads=int(opts["threads"]))
    write_csv(
        opts["out"], "air sweep-c0", opts,
        ["c0", "rate_bits", "std_error", "gap", "entropy_bits"],
        [[r["c0"], r["rate"], r["std_error"], r["gap"], r["entropy_bits"]] for r in rows],
    )


def _run_air_sweep_snr(opts: dict) -> None:
    names = [s.strip() for s in str(opts["modulations"]).split(",") if s.strip()]
    constellations = [resolve_modulation(n) for n in names]
    grid = parse_grid(opts["snr"])
    cfg = AirConfig(1.0, int(opts["mc"]), int(opts["seed"]))
    rows = air_vs_snr(constellations, grid, cfg, threads=int(opts["threads"]))
    header = ["snr_db"] + [f"rate_{name}" for name, _ in constellations]
    out_rows = [
        [r["snr_db"], *(r[name] for name, _ in constellations)] for r in rows
    ]
    write_csv(opts["out"], "air sweep-snr", opts, header, out_rows)


def _run_detect_pd_sweep(opts: dict) -> None:
    _, base = resolve_modulation(opts["modulation"])
    cfg = _ofdm_config(opts)
    cfar = CfarConfig(window_cells=int(opts["window"]), guard_cells=int(opts["guard"]))
    c0_list = parse_grid(opts["c0"])
    if c0_list.size == 0:
        raise ValueError("c0 is empty: need at least one shaping target")
    snr_grid = parse_grid(opts["snr"])
    rows = []
    for c0 in c0_list:
        sol = solve_pcs(PcsProblem(base.amplitudes, float(c0)), "max-entropy")
        scenario = DetectionScenario(
            cfg=cfg,
            constellation=base.with_probs(sol.probs),
            snr_grid_db=snr_grid,
            si_to_noise_db=float(opts["si_db"]),
            target_cell_offset=int(opts["offset"]),
            pfa_target=float(opts["pfa"]),
            trials=int(opts["trials"]),
            cfar=cfar,
            calib_trials=int(opts["calib_trials"]),
            seed=int(opts["seed"]),
        )
        for r in pd_experiment(scenario, threads=int(opts["threads"])):
            rows.append([float(c0), r["snr_db"], r["pd"], r["trials"]])
    write_csv(opts["out"], "detect pd-sweep", opts, ["c0", "snr_db", "pd", "trials"], rows)


def _run_detect_calibrate(opts: dict) -> None:
    _, c = resolve_modulation(opts["modulation"])
    cfg = _ofdm_config(opts)
    cfar = CfarConfig(window_cells=int(opts["window"]), guard_cells=int(opts["guard"]))
    result = calibrate_alpha(
        cfar,
        noise_profile_sampler(cfg, c),
        float(opts["pfa"]),
        int(opts["calib_trials"]),
        int(opts["seed"]),
    )
    print(
        f"alpha = {result.alpha:.6g} (empirical pfa {result.empirical_pfa:.3g} "
        f"over {result.cells} cells)"
    )
    if opts.get("out"):
        write_json(opts["out"], "detect calibrate", opts, asdict(result))


_OFDM_DEFAULTS = {"subcarriers": 64, "bandwidth": 100e6, "oversampling": 4}
_CFAR_DEFAULTS = {"window": 16, "guard": 2}

# command -> (runner, help, option defaults); the defaults also define the
# command's flags (see build_parser).
_COMMANDS = {
    "constellation dump": (_run_constellation_dump, "write a constellation as JSON", {
        "modulation": "qam16",
    }),
    "pcs solve": (_run_pcs_solve, "shape probabilities for one fourth-moment target", {
        "modulation": "qam16", "c0": 1.0,
    }),
    "pcs sweep": (_run_pcs_sweep, "shape over a grid of targets", {
        "modulation": "qam16", "c0": "1.0:0.02:1.7",
    }),
    "af slice": (_run_af_slice, "mean |AF| over delay, or over Doppler with --delay", {
        "modulation": "qam16", "doppler": 0.0, "delay": None, "trials": 500,
        "points": 257, "seed": 0, **_OFDM_DEFAULTS,
    }),
    "af surface": (_run_af_surface, "mean |AF| over a delay-Doppler grid", {
        "modulation": "qam16", "trials": 100, "tau_points": 257, "nu_points": 257,
        "seed": 0, **_OFDM_DEFAULTS,
    }),
    "af variance": (_run_af_variance, "closed-form AF variances and mean self part", {
        "modulation": "qam16", "doppler": 0.0, "points": 257, **_OFDM_DEFAULTS,
    }),
    "air sweep-c0": (_run_air_sweep_c0, "rate vs fourth-moment target", {
        "modulation": "qam16", "sigma2": 0.01, "c0": "1.0:0.04:1.68", "mc": 200_000, "seed": 0,
    }),
    "air sweep-snr": (_run_air_sweep_snr, "rate vs SNR for several constellations", {
        "modulations": "qam16,psk16", "snr": "0:2:30", "mc": 200_000, "seed": 0,
    }),
    "detect pd-sweep": (_run_detect_pd_sweep, "detection probability vs sensing SNR", {
        "modulation": "qam16", "c0": "1.0,1.32,1.64", "snr": "-5:1:20",
        "trials": 5000, "pfa": 1e-3, "si_db": 10.0, "offset": 8,
        "calib_trials": 1000, "seed": 0, **_OFDM_DEFAULTS, **_CFAR_DEFAULTS,
    }),
    "detect calibrate": (_run_detect_calibrate, "calibrate the CFAR threshold multiplier", {
        "modulation": "qam16", "pfa": 1e-3, "calib_trials": 1000, "seed": 0,
        **_OFDM_DEFAULTS, **_CFAR_DEFAULTS,
    }),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    command = f"{args.command} {args.action}"
    try:
        opts = _resolve(args, command)
        _COMMANDS[command][0](opts)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
