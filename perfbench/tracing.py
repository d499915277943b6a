"""Spans and counts recorded around calls into each library module.

Nothing is added inside the library: :meth:`Tracer.install` replaces each
traced function at the place its caller looks it up (a module or class
attribute) with a wrapper that records a span, and :meth:`Tracer.uninstall`
puts the originals back, so untraced passes run the library untouched.

A span records its name, parent span, thread, start and end, and the counts
taken at that boundary.  Spans stay in memory until :meth:`Tracer.dump`.
A span's self time is its duration minus its children's durations; per-layer
``busy_s`` metrics are self times, measured on single-threaded passes where
children nest strictly inside their parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# Span name -> the metrics reported for it, as (suffix, unit).
LAYER_METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "constellation.sample_symbols": (("calls", "count"), ("busy_s", "s"), ("draws", "count")),
    "ofdm.symbol_signal_batch": (("calls", "count"), ("busy_s", "s"), ("rows", "count")),
    "ambiguity.af_at_delay": (("calls", "count"), ("busy_s", "s"), ("cells", "count")),
    "ambiguity.mc_average_af": (("busy_s", "s"),),
    "air.air_mc": (("calls", "count"), ("busy_s", "s"), ("draws", "count")),
    "pcs.solve_pcs": (
        ("calls", "count"), ("busy_s", "s"), ("failed", "count"),
        ("newton_iterations", "count"), ("lp_iterations", "count"),
    ),
    "simplex.solve_lp": (("calls", "count"), ("busy_s", "s"), ("iterations", "count")),
    "detect.matched_filter": (
        ("calls", "count"), ("busy_s", "s"), ("rows", "count"), ("useful_lag_ratio", "ratio"),
    ),
    "detect.noise": (("busy_s", "s"),),
    "detect.reference_means": (("busy_s", "s"), ("cells", "count")),
    "detect.calibrate_alpha": (("busy_s", "s"), ("iterations", "count"), ("cells", "count")),
    "detect.pd_experiment": (("busy_s", "s"),),
    "cli.write": (("busy_s", "s"), ("bytes", "B")),
}

# Metrics not tied to one span.
EXTRA_METRICS: dict[str, str] = {
    "cli.self_s": "s",
    "threads.wall_s": "s",
    "threads.busy_ratio": "ratio",
    "threads.idle_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{suffix}": unit
        for span, metrics in LAYER_METRICS.items()
        for suffix, unit in metrics
    }
    units.update(EXTRA_METRICS)
    return units


def _wrap_table(lib, useful_lags):
    """(owner, attribute, span name, counter) for every traced call site.

    ``useful_lags(lags)`` says how many of the ``lags`` matched-filter lags a
    row computes are ones the detector reads.
    """
    cli, pcs, air, ambiguity, detect, constellation = (
        lib.cli, lib.pcs, lib.air, lib.ambiguity, lib.detect, lib.constellation,
    )

    def pcs_counts(args, kwargs, sol):
        return {
            "newton_iterations": sol.diagnostics.get("newton_iterations", 0),
            "lp_iterations": sol.diagnostics.get("lp_iterations", 0),
        }

    def mf_counts(args, kwargs, out):
        rows, lags = out.shape[0], out.shape[-1]
        return {"rows": rows, "lags": rows * lags, "useful_lags": rows * useful_lags(lags)}

    def write_counts(args, kwargs, _):
        return {"bytes": Path(args[0]).stat().st_size}

    def calib_counts(args, kwargs, res):
        return {"iterations": res.iterations, "cells": res.cells}

    return [
        (constellation.Constellation, "sample_symbols", "constellation.sample_symbols",
         lambda a, k, r: {"draws": int(a[1])}),
        (detect, "symbol_signal_batch", "ofdm.symbol_signal_batch",
         lambda a, k, r: {"rows": r.shape[0]}),
        (ambiguity, "_af_at_delay", "ambiguity.af_at_delay",
         lambda a, k, r: {"cells": r.size}),
        (cli, "mc_average_af", "ambiguity.mc_average_af", None),
        (air, "air_mc", "air.air_mc", lambda a, k, r: {"draws": a[1].mc_trials}),
        (pcs, "solve_pcs", "pcs.solve_pcs", pcs_counts),
        (air, "solve_pcs", "pcs.solve_pcs", pcs_counts),
        (cli, "solve_pcs", "pcs.solve_pcs", pcs_counts),
        (pcs, "solve_lp", "simplex.solve_lp", lambda a, k, r: {"iterations": r.iterations}),
        (detect, "_matched_filter_batch", "detect.matched_filter", mf_counts),
        (detect, "_complex_noise", "detect.noise", None),
        (detect, "reference_means", "detect.reference_means",
         lambda a, k, r: {"cells": r[0].size}),
        (detect, "calibrate_alpha", "detect.calibrate_alpha", calib_counts),
        (cli, "pd_experiment", "detect.pd_experiment", None),
        (cli, "write_csv", "cli.write", write_counts),
        (cli, "write_json", "cli.write", write_counts),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of call-site wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.root: int | None = None  # parent of spans opened on worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its record, whose ``counts`` dict callers fill."""
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else self.root,
            "name": name,
            "thread": threading.get_ident(),
            "counts": {},
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def install(self, lib, useful_lags) -> None:
        for owner, attr, name, counter in _wrap_table(lib, useful_lags):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(original, name, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                counts = record["counts"]
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts["failed"] = 1
                    raise
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
                return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed counts."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "busy_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        for key, value in s["counts"].items():
            t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flatten :func:`layer_totals` into the ``LAYER_METRICS`` names."""
    out = {}
    for span, metrics in LAYER_METRICS.items():
        t = totals.get(span, {})
        for suffix, _ in metrics:
            if suffix == "useful_lag_ratio":
                out[f"{span}.{suffix}"] = t["useful_lags"] / t["lags"] if t.get("lags") else 0.0
            else:
                out[f"{span}.{suffix}"] = t.get(suffix, 0)
    out["cli.self_s"] = totals.get("cli", {}).get("busy_s", 0.0)
    return out
