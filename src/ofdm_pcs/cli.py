"""Command-line front end: wires configs to experiments, emits CSV/JSON.

Subcommands: ``constellation dump``, ``pcs solve|sweep``,
``af surface|slice|variance``, ``air sweep-c0|sweep-snr``,
``detect pd-sweep``.

Option precedence is defaults < JSON config file (``--config``) < flags.
A command takes a flag only if the flag can change its artifact, so the AF
commands take ``--bandwidth`` and ``detect pd-sweep`` ``--oversampling``.
``--threads`` is the one exception: it is offered only by the commands that
run a worker pool (``af slice|surface``, ``air sweep-c0|sweep-snr`` and
``detect pd-sweep``), never changes any output byte and is left out of the
header.  Every output file starts with comment lines recording the tool
version and the resolved parameters, so identical invocations produce
byte-identical artifacts.  ``detect pd-sweep``, the one command that
calibrates the CFAR threshold, adds after them each curve's calibrated
alpha, the empirical false-alarm rate it reached, the calibration's cell
count and each curve's null hit count.  The experiments return arrays over
their input grids; the runners alone name the CSV columns and lay out the
rows from their own option grids.  Seeds are explicit flags (default 0),
never environment state.
Each option is declared once, in ``_COMMANDS``: its default gives the
flag's type, and a config-file value must have that type too.  A config
key must be some command's option.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .air import AirConfig, air_vs_c0, air_vs_snr
from .ambiguity import (
    af_statistics,
    default_nu_grid,
    default_tau_grid,
    magnitude_db,
    mc_average_af,
)
from .constellation import Constellation, make_psk, make_qam
from .detect import (
    CfarConfig,
    DetectionScenario,
    check_calibration,
    check_target_cell,
    instrumented_range,
    pd_experiment,
)
from .ofdm import OfdmConfig, check_db
from .pcs import PcsProblem, solve_pcs

# Options that must not influence output bytes (or are the output itself).
_META_EXCLUDE = {"out", "threads"}

# Options read by ``parse_grid``, which also takes a config file's JSON list.
_GRID_KEYS = {"c0", "snr"}

# Least value of each integer option; the grid sizes are left to their grids.
_INT_MIN = {
    "trials": 1, "calib_trials": 1, "mc": 1, "window": 1, "subcarriers": 1,
    "oversampling": 1, "threads": 1, "seed": 0, "guard": 0,
}

# Float options that must be positive; every float option must be finite.
_POSITIVE = {"sigma2", "bandwidth"}

_HELP = {"threads": "worker thread cap (never changes results)"}

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


def parse_grid(value, name: str = "grid") -> np.ndarray:
    """Parse ``start:step:stop`` (inclusive), comma lists, or a single number,
    given as option ``name``, which every error names; entries must be finite
    and there must be at least one."""

    def number(entry) -> float:
        try:
            return float(entry)
        except (TypeError, ValueError):
            raise ValueError(f"{name} entry {entry!r} is not a number") from None

    if isinstance(value, (list, tuple, np.ndarray)):
        grid = np.array([number(v) for v in value], dtype=float)
    else:
        text = str(value).strip()
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"{name} {text!r} must be start:step:stop")
            start, step, stop = (number(p) for p in parts)
            if not np.isfinite([start, step, stop]).all():
                raise ValueError(f"{name} {text!r} must have finite bounds and step")
            if step == 0 or (stop - start) * step < 0:
                raise ValueError(f"{name} {text!r} has inconsistent direction")
            points = np.floor((stop - start) / step + 1e-9) + 1
            try:
                return start + step * np.arange(int(points))
            except (OverflowError, ValueError, MemoryError):
                raise ValueError(f"{name} {text!r} has {points:.3g} points, too many to build") from None
        grid = np.array([number(p) for p in text.split(",") if p.strip() != ""])
    if grid.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} entries must be finite, got {grid.tolist()}")
    return grid


def resolve_modulation(spec: str, name: str = "modulation") -> tuple[str, Constellation]:
    """psk<N>/qam<N> constructors, or a path to a shaped-constellation JSON,
    given as option ``name``, which every error names with ``spec``."""
    lowered, path = spec.lower(), Path(spec)
    match = re.fullmatch(r"(psk|qam)(\d+)", lowered)
    try:
        if match:
            order = int(match.group(2))
            return lowered, make_psk(order) if match.group(1) == "psk" else make_qam(order)
        if path.suffix == ".json" or path.exists():
            return path.stem, Constellation.from_json(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{name} {spec!r}: {exc}") from None
    raise ValueError(f"{name} {spec!r} is not psk<N>, qam<N> or a JSON file path")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _meta(command: str, resolved: dict) -> dict:
    """Provenance of an artifact: tool, command and every resolved option, in
    key order, each of which can change the artifact's bytes (a command takes
    no other); ``threads``, which never does, and unset options are left out."""
    kept = (k for k in sorted(resolved) if k not in _META_EXCLUDE and resolved[k] is not None)
    return {"tool": f"ofdm-pcs {__version__}", "command": command, **{k: resolved[k] for k in kept}}


def write_csv(path: str, command: str, resolved: dict, header: list[str], table, results=None) -> None:
    """``table`` is a 2-D float table, one line per row.  Every cell prints
    with ``%.12g``, as ``_fmt`` prints a float, through one format string
    built from the table's width.  Each line goes to the file as it is
    formatted from its row, so the text is never held whole.  The
    ``results`` (key, value) pairs follow the option lines as ``#`` lines."""
    table = np.asarray(table, dtype=float)
    spec = ",".join(["%.12g"] * table.shape[1]) + "\n"
    lines = {**_meta(command, resolved), **(results or {})}
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {_fmt(value)}\n" for key, value in lines.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(spec % tuple(row.tolist()) for row in table)


def write_json(path: str, command: str, resolved: dict, payload: dict) -> None:
    doc = {"meta": _meta(command, resolved), **payload}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _ofdm_config(opts: dict) -> OfdmConfig:
    """Spacing ``bandwidth / subcarriers`` for the AF commands, oversampling for
    ``detect pd-sweep``; the field a command lacks stays at its default."""
    fields = {"num_subcarriers": opts["subcarriers"]}
    if "bandwidth" in opts:
        fields["subcarrier_spacing"] = opts["bandwidth"] / opts["subcarriers"]
    if "oversampling" in opts:
        fields["oversampling"] = opts["oversampling"]
    return OfdmConfig(**fields)


def _add_common(parser: argparse.ArgumentParser, leaf: bool = False):
    # On leaves SUPPRESS keeps a given flag from clobbering the top-level
    # value when absent, so both positions work.
    default: object = argparse.SUPPRESS if leaf else None
    parser.add_argument("--config", default=default, help="JSON file with option defaults")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per ``_COMMANDS`` entry and one flag per default, typed
    like its default (float where it is None); unset flags stay None.  Built
    once per process: parsing reads the parser and never changes it."""
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
                type=float if default is None else type(default), help=_HELP.get(key),
            )
        leaf.add_argument("--out", required=True)
        _add_common(leaf, leaf=True)
    return parser


def _config_value(key: str, value, default):
    """A config-file value, which must have the type of the flag ``key``:
    an integer for an int default (a bool is not one), a number for a float
    or None default (an integer widens to float), a string for a str default
    or, for a grid option, a list of numbers (no bool or string among them)."""
    if isinstance(default, int):
        kind, ok = "an integer", type(value) is int
    elif isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
        if key in _GRID_KEYS:
            numbers = isinstance(value, list) and all(type(v) in (int, float) for v in value)
            kind, ok = "a string or a list of numbers", ok or numbers
    else:
        kind, ok = "a number", type(value) in (int, float)
        value = float(value) if ok else value
    if not ok:
        raise ValueError(f"config {key} must be {kind}, got {json.dumps(value)}")
    return value


def _resolve(args: argparse.Namespace, command: str) -> dict:
    defaults = _COMMANDS[command][2]
    from_file = {}
    if args.config:
        try:
            from_file = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable config {args.config!r}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ValueError(f"config {args.config!r} must hold a JSON object")
        # One file may serve several commands; a key none takes is a misspelling.
        known = {key for _, _, options in _COMMANDS.values() for key in options}
        for key in from_file:
            if key not in known:
                raise ValueError(f"config {key} must be an option of some command")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = _config_value(key, from_file[key], default) if key in from_file else default
        if key in _POSITIVE and not 0 < value < np.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if key in _INT_MIN and value < _INT_MIN[key]:
            raise ValueError(f"{key} must be >= {_INT_MIN[key]}, got {value}")
        resolved[key] = value
    # Checked here so that a bad path fails before the run, not after it.
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"out {args.out!r} must name a file in an existing directory")
    resolved["out"] = args.out
    return resolved


def _inputs(command: str, opts: dict) -> dict:
    """``opts`` as the runner reads them, each parsed and checked once by its
    option's name before any work: ``modulation`` as its constellation,
    ``modulations`` as (name, constellation) pairs, each grid option whose
    default is a string as its array, and each dB option, and the level of
    ``sigma2``, within range."""
    defaults, inputs = _COMMANDS[command][2], {}
    for key, value in opts.items():
        if key == "modulation":
            value = resolve_modulation(value, key)[1]
        elif key == "modulations":
            specs = [s.strip() for s in value.split(",") if s.strip()]
            if not specs:
                raise ValueError("modulations is empty")
            value = [resolve_modulation(spec, key) for spec in specs]
            names = [name for name, _ in value]
            for name in names:
                if names.count(name) > 1:
                    raise ValueError(f"modulations names {name!r} more than once; each name is one column")
        elif key in _GRID_KEYS and isinstance(defaults[key], str):
            value = parse_grid(value, key)
        if key in ("snr", "si_db"):
            check_db(value, key)
        elif key == "sigma2":
            check_db(10.0 * np.log10(value), "10 log10 sigma2")
        inputs[key] = value
    return inputs


def _run_constellation_dump(opts: dict) -> dict:
    return opts["modulation"].to_json_dict()


def _run_pcs_solve(opts: dict) -> dict:
    base = opts["modulation"]
    sol = solve_pcs(PcsProblem(base.amplitudes, opts["c0"]))
    shaped = base.with_probs(sol.probs)
    return {
        **shaped.to_json_dict(),
        "achieved_m4": sol.achieved_m4,
        "gap": sol.gap,
        "feasible_range": list(sol.feasible_range),
        "entropy_bits": sol.entropy_bits,
    }


def _run_pcs_sweep(opts: dict):
    base, grid = opts["modulation"], opts["c0"]
    header = ["c0", "achieved_m4", "gap", "entropy_bits"] + [f"p{q}" for q in range(base.order)]
    sols = [solve_pcs(PcsProblem(base.amplitudes, float(c0))) for c0 in grid]
    return header, np.array([[c0, s.achieved_m4, s.gap, s.entropy_bits, *s.probs] for c0, s in zip(grid, sols)])


def _grid(make, cfg: OfdmConfig, opts: dict, key: str) -> np.ndarray:
    """``make(cfg, opts[key])``, a default delay or Doppler grid sized by
    option ``key``, whose error names both the grid and the flag."""
    try:
        return make(cfg, opts[key])
    except ValueError as exc:
        raise ValueError(f"--{key.replace('_', '-')}: {exc}") from None


def _run_af_slice(opts: dict):
    cfg, delay, doppler = _ofdm_config(opts), opts["delay"], opts["doppler"]
    if delay is None:
        axis, tau_grid, nu_grid = "tau", _grid(default_tau_grid, cfg, opts, "points"), np.array([doppler])
    elif doppler != 0:
        raise ValueError(f"doppler must be 0 with delay, whose slice spans the Doppler grid, got {doppler}")
    else:
        axis, tau_grid, nu_grid = "nu", np.array([delay]), _grid(default_nu_grid, cfg, opts, "points")
    surface = mc_average_af(
        cfg, opts["modulation"], tau_grid, nu_grid, opts["trials"], opts["seed"], threads=opts["threads"]
    )
    # One of the two grids is a single point, so the surface is one line.
    grid = tau_grid if axis == "tau" else nu_grid
    return [axis, "magnitude_db"], np.column_stack([grid, magnitude_db(surface.ravel())])


def _run_af_surface(opts: dict):
    cfg = _ofdm_config(opts)
    tau_grid = _grid(default_tau_grid, cfg, opts, "tau_points")
    nu_grid = _grid(default_nu_grid, cfg, opts, "nu_points")
    surface = mc_average_af(
        cfg, opts["modulation"], tau_grid, nu_grid, opts["trials"], opts["seed"], threads=opts["threads"]
    )
    return ["tau"] + [_fmt(nu) for nu in nu_grid], np.column_stack([tau_grid, surface])


def _run_af_variance(opts: dict):
    cfg = _ofdm_config(opts)
    tau_grid = _grid(default_tau_grid, cfg, opts, "points")
    stats = af_statistics(cfg, opts["modulation"], tau_grid, opts["doppler"])
    header = ["tau", "sigma2_self", "sigma2_cross", "mean_self_abs"]
    return header, np.column_stack([tau_grid, *stats])


def _run_air_sweep_c0(opts: dict):
    cfg = AirConfig(opts["sigma2"], opts["mc"], opts["seed"])
    sols, est = air_vs_c0(opts["modulation"], opts["c0"], cfg, threads=opts["threads"])
    header = ["c0", "rate_bits", "std_error", "gap", "entropy_bits"]
    return header, np.column_stack(
        [opts["c0"], est.rate, est.std_error, [s.gap for s in sols], [s.entropy_bits for s in sols]]
    )


def _run_air_sweep_snr(opts: dict):
    names, constellations = zip(*opts["modulations"])
    est = air_vs_snr(constellations, opts["snr"], opts["mc"], opts["seed"], threads=opts["threads"])
    return ["snr_db"] + [f"rate_{name}" for name in names], np.column_stack([opts["snr"], est.rate.T])


def _run_detect_pd_sweep(opts: dict):
    base, c0_list = opts["modulation"], opts["c0"]
    cfg = _ofdm_config(opts)
    cfar = CfarConfig(window_cells=opts["window"], guard_cells=opts["guard"])
    check_target_cell(cfg, cfar, opts["offset"], ("offset", "window", "guard", "subcarriers", "oversampling"))
    check_calibration(cfg, opts["calib_trials"], opts["pfa"], ("calib_trials", "pfa"))
    shaped = [base.with_probs(solve_pcs(PcsProblem(base.amplitudes, float(c0))).probs) for c0 in c0_list]
    scenario = DetectionScenario(
        cfg=cfg,
        constellations=shaped,
        snr_grid_db=opts["snr"],
        si_to_noise_db=opts["si_db"],
        target_cell_offset=opts["offset"],
        pfa_target=opts["pfa"],
        trials=opts["trials"],
        cfar=cfar,
        calib_trials=opts["calib_trials"],
        seed=opts["seed"],
    )
    result = pd_experiment(scenario, threads=opts["threads"])
    results = {
        "alpha": ",".join(map(_fmt, result.alpha)),
        "empirical_pfa": ",".join(map(_fmt, result.empirical_pfa)),
        "calib_cells": opts["calib_trials"] * instrumented_range(cfg),
        "null_hits": ",".join(map(_fmt, result.null_hits)),
    }
    # One row per (c0, snr) pair, curve by curve.
    snr, c0 = np.meshgrid(opts["snr"], c0_list)
    return ["c0", "snr_db", "pd", "trials"], np.column_stack(
        [c0.ravel(), snr.ravel(), result.pd.ravel(), np.full(c0.size, opts["trials"])]
    ), results


# command -> (runner, help, option defaults); the defaults also define the
# command's flags and their types (see build_parser and _config_value).  A
# runner returns its artifact: a JSON payload, or a CSV header, a 2-D float
# table and, for ``detect pd-sweep``, its result lines.  Only a command whose
# runner starts a worker pool lists ``threads``.
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
        "points": 257, "seed": 0, "threads": 1, "subcarriers": 64, "bandwidth": 100e6,
    }),
    "af surface": (_run_af_surface, "mean |AF| over a delay-Doppler grid", {
        "modulation": "qam16", "trials": 100, "tau_points": 257, "nu_points": 257,
        "seed": 0, "threads": 1, "subcarriers": 64, "bandwidth": 100e6,
    }),
    "af variance": (_run_af_variance, "closed-form AF variances and mean self part", {
        "modulation": "qam16", "doppler": 0.0, "points": 257, "subcarriers": 64, "bandwidth": 100e6,
    }),
    "air sweep-c0": (_run_air_sweep_c0, "rate vs fourth-moment target", {
        "modulation": "qam16", "sigma2": 0.01, "c0": "1.0:0.04:1.68", "mc": 200_000, "seed": 0,
        "threads": 1,
    }),
    "air sweep-snr": (_run_air_sweep_snr, "rate vs SNR for several constellations", {
        "modulations": "qam16,psk16", "snr": "0:2:30", "mc": 200_000, "seed": 0,
        "threads": 1,
    }),
    "detect pd-sweep": (_run_detect_pd_sweep, "detection probability vs sensing SNR", {
        "modulation": "qam16", "c0": "1.0,1.32,1.64", "snr": "-5:1:20",
        "trials": 5000, "pfa": 1e-3, "si_db": 10.0, "offset": 8,
        "calib_trials": 1000, "seed": 0, "threads": 1, "subcarriers": 64, "oversampling": 4,
        "window": 16, "guard": 2,
    }),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_merge_negative_values(argv))
    command = f"{args.command} {args.action}"
    try:
        opts = _resolve(args, command)
        artifact = _COMMANDS[command][0](_inputs(command, opts))
        if isinstance(artifact, dict):
            write_json(opts["out"], command, opts, artifact)
        else:
            header, table = artifact[0], np.asarray(artifact[1], dtype=float)
            finite = np.isfinite(table).all(axis=0)
            if not finite.all():
                raise ValueError(f"column {header[np.argmin(finite)]!r} has a non-finite cell; no file written")
            write_csv(opts["out"], command, opts, *artifact)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
