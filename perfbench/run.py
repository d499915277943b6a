#!/usr/bin/env python3
"""Benchmark of the ofdm-pcs experiments, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Artifacts, span dumps and a result record go to
``.perfbench_out/`` under the repository root.  The exit code is 0 only when
every output checked is correct (and, traced, every mapped span fired).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 11
MIN_PASSES = 3
# The reference work of HostSpeed: a pure-Python loop, small in-cache FFTs and
# exp/log over an in-cache vector, the kinds of work the passes are made of.
# About 3 ms on a 2-vCPU Xeon; the fastest of three repeats is kept.
REF_LOOP = 20_000
REF_FFTS = 4
REF_EXPS = 4
REF_REPEATS = 3
REF_NOMINAL_S = 0.003
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="import the library, prepare the inputs and exit (what setup_s times)",
    )
    return p.parse_args(argv)


def load_library():
    """Import ofdm_pcs from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ofdm_pcs" / "__init__.py").is_file():
        sys.exit(f"error: no ofdm_pcs source tree at {src}")
    sys.path.insert(0, str(src))
    import ofdm_pcs.cli

    if not Path(ofdm_pcs.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported ofdm_pcs from {ofdm_pcs.__file__}, not {src}")
    return ofdm_pcs


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the library and prepares inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    # A blocking wait: waiting with a timeout polls, in steps of up to 50 ms.
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as child:
        returncode = child.wait()
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


class HostSpeed:
    """Scales measured times to a host of fixed speed.

    The host's speed drifts by up to 1.8x under load from other tenants, in
    phases of seconds to minutes, and CPU time follows wall time, so neither
    a median over one run nor CPU time removes a slow phase that lasts the
    whole run.  A fixed reference work slows down with the passes, so it is
    timed after every pass and set-up, and a median time is divided by the
    median reference time of the run and multiplied by ``REF_NOMINAL_S``:
    the result is seconds on a host where the reference takes 3 ms.  One
    reference time is too short to stand for the pass next to it, so the
    run's median is used, not a per-pass ratio.  The reference writes into
    preallocated arrays, and the fastest of ``REF_REPEATS`` is kept, so that
    page faults and interrupts after a pass do not read as a slow host.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.block = rng.standard_normal((16, 1024)) + 1j * rng.standard_normal((16, 1024))
        self.spectrum = np.empty_like(self.block)
        self.vector = rng.standard_normal(32768)
        self.scratch = np.empty_like(self.vector)
        self.refs = [self.reference()]

    def reference(self) -> float:
        np = self.np
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            total = 0.0
            for i in range(REF_LOOP):
                total += i * 0.5
            for _ in range(REF_FFTS):
                np.fft.fft(self.block, axis=1, out=self.spectrum)
            for _ in range(REF_EXPS):
                np.exp(self.vector, out=self.scratch)
                np.log1p(self.scratch, out=self.scratch)
            times.append(time.perf_counter() - t0)
        return min(times)

    def sample(self) -> None:
        self.refs.append(self.reference())

    def scale(self, seconds: float) -> float:
        """``seconds``, measured over the run so far, in seconds of the nominal host."""
        return seconds / statistics.median(self.refs) * REF_NOMINAL_S


class Ledger:
    """Counts operations and failures, each distinct operation once.

    An operation is a label; a pass index always gives the same labels, so a
    seed always gives the same counts however many passes fit in the time.
    The first output seen for a label is the reference: every later pass, at
    any thread count, must reproduce its bytes, or the label counts as
    failed.
    """

    def __init__(self, plan):
        self.plan = plan
        self.reference: dict[str, bytes] = {}
        self.verdicts: dict[tuple, dict] = {}
        self.labels: set[str] = set()
        self.failed_labels: set[str] = set()
        # The first message per label: outputs that exist but are not
        # correct, and operations that raised or exited non-zero.
        self.wrong: dict[str, str] = {}
        self.errors: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def record(self, outputs: dict, threads: int) -> None:
        good = {k: v for k, v in outputs.items() if isinstance(v, bytes)}
        key = tuple(sorted((k, hashlib.sha256(v).digest()) for k, v in good.items()))
        if key not in self.verdicts:
            self.verdicts[key] = self.plan.check(good)
        verdicts = self.verdicts[key]
        for label, out in outputs.items():
            self.labels.add(label)
            if not isinstance(out, bytes):
                self.failed_labels.add(label)
                self.errors.setdefault(label, f"{label}: {type(out).__name__}: {out}")
                continue
            message = verdicts.get(label)
            if message is None and out != self.reference.setdefault(label, out):
                message = f"{label}: bytes at --threads {threads} differ from the first pass"
            if message is not None:
                self.failed_labels.add(label)
                self.wrong.setdefault(label, message)


def run_pass(plan, threads: int, index: int, cli_span=contextlib.nullcontext):
    gc.collect()
    t0 = time.perf_counter()
    outputs = plan.run(threads, index, cli_span)
    return time.perf_counter() - t0, outputs


def pass_index(plan, n: int) -> int:
    """Index of timed pass ``n``: the plan's inputs 1..passes, in a cycle."""
    return 1 + n % plan.passes


def min_passes(plan) -> int:
    """Every timed loop runs each of the plan's inputs at least once."""
    return max(MIN_PASSES, plan.passes)


def warm_up(plan, ledger, threads_n: int) -> None:
    """Run pass 0 untimed at one thread and, if the plan is threaded, at ``threads_n``.

    The first pass in a process is the slowest (lazy imports, allocator and
    FFT warm-up).  The pair also checks that the thread count changes no byte.
    """
    for threads in (1, threads_n) if plan.threaded else (1,):
        ledger.record(run_pass(plan, threads, 0)[1], threads)


def measure_end_to_end(plan, ledger, threads_n: int, seconds: float, setup):
    """Untraced single-thread passes for ``seconds``, with ``SETUP_REPEATS``
    calls of ``setup`` spread evenly between them, so that set-up times see
    the host as the passes do and not at one moment of the run.  The pass
    time is scaled by HostSpeed; the set-up time is not (see README.md).

    Returns (metrics, samples).
    """
    warm_up(plan, ledger, threads_n)
    host = HostSpeed()
    setups, walls = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
        elif elapsed < seconds or len(walls) < min_passes(plan):
            wall, outputs = run_pass(plan, 1, pass_index(plan, len(walls)))
            ledger.record(outputs, 1)
            walls.append(wall)
        else:
            break
        host.sample()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": host.scale(statistics.median(walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"raw_setup_s": setups, "raw_wall_s": walls, "reference_s": host.refs}
    return metrics, samples


def traced_pass(lib, plan, tracer, threads: int, index: int):
    """One pass with the call-site wrappers installed; returns (wall, cpu, outputs, spans)."""
    first = len(tracer.spans)
    tracer.install(lib, plan.useful_lags)
    try:
        with tracer.span("pass") as record:
            record["counts"]["threads"] = threads
            tracer.root = record["id"]  # parent of spans opened on pool threads
            cpu0 = time.process_time()
            wall, outputs = run_pass(plan, threads, index, lambda: tracer.span("cli"))
            cpu = time.process_time() - cpu0
    finally:
        tracer.root = None
        tracer.uninstall()
    return wall, cpu, outputs, tracer.spans[first:]


def measure_per_layer(lib, plan, ledger, threads_n: int, seconds: float, tracer):
    """Cycles of four passes on the same inputs: untraced and traced at one
    thread, then untraced and traced at ``threads_n``.  A plan that is not
    threaded makes only the first two, and its thread-pool figures are 0.

    Per-layer times are medians over the traced single-thread passes and
    counts are means per pass; the thread-pool figures come from the
    ``threads_n`` passes, utilisation from the traced one's CPU time.
    Returns (metrics, samples, totals over every span).
    """
    warm_up(plan, ledger, threads_n)
    samples = {k: [] for k in ("untraced_wall_s", "traced_wall_s", "threads.wall_s", "threads.busy_ratio", "threads.idle_s")}
    layers = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(layers) < min_passes(plan):
        index = pass_index(plan, len(layers))
        wall, outputs = run_pass(plan, 1, index)
        ledger.record(outputs, 1)
        samples["untraced_wall_s"].append(wall)
        wall, _, outputs, spans = traced_pass(lib, plan, tracer, 1, index)
        ledger.record(outputs, 1)
        samples["traced_wall_s"].append(wall)
        layers.append(tracing.layer_metrics(tracing.layer_totals(spans)))
        if not plan.threaded:
            continue
        wall, outputs = run_pass(plan, threads_n, index)
        ledger.record(outputs, threads_n)
        samples["threads.wall_s"].append(wall)
        wall, cpu, outputs, _ = traced_pass(lib, plan, tracer, threads_n, index)
        ledger.record(outputs, threads_n)
        samples["threads.busy_ratio"].append(cpu / (threads_n * wall))
        samples["threads.idle_s"].append(threads_n * wall - cpu)
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        is_time = tracing.per_layer_units()[name] == "s"
        metrics[name] = statistics.median(values) if is_time else statistics.fmean(values)
    for name in ("threads.wall_s", "threads.busy_ratio", "threads.idle_s"):
        metrics[name] = statistics.median(samples[name]) if plan.threaded else 0.0
    metrics["trace.overhead_s"] = statistics.median(samples["traced_wall_s"]) - statistics.median(samples["untraced_wall_s"])
    return metrics, samples, tracing.layer_totals(tracer.spans)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(args, threads_n: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "threads": threads_n,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    # Before numpy loads anywhere: one BLAS thread here and in every child, so
    # --threads N runs on N threads and no more.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads

    args = parse_args(argv, list(workloads.PREPARE))
    lib = load_library()

    outdir = OUT / ("setup" if args.setup_only else args.workload)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        workloads.PREPARE[args.workload](lib, args.seed, outdir)
        return 0

    plan = workloads.PREPARE[args.workload](lib, args.seed, outdir)
    ledger = Ledger(plan)
    threads_n = nproc()
    missing = []
    if args.trace:
        tracer = tracing.Tracer()
        values, samples, totals = measure_per_layer(lib, plan, ledger, threads_n, args.seconds, tracer)
        values["error_rate"] = ledger.failed / ledger.attempted
        units = tracing.per_layer_units()
        missing = [s for s in workloads.REQUIRED_SPANS[args.workload] if not totals.get(s, {}).get("calls")]
        if plan.threaded and not values["threads.busy_ratio"] > 0:
            missing.append("threads")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        setup = functools.partial(time_setup, args.workload, args.seed)
        values, samples = measure_end_to_end(plan, ledger, threads_n, args.seconds, setup)
        units = END_TO_END_UNITS
    correct = not ledger.wrong and not missing
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args, threads_n)
    record = {
        "env": env, "result": result, "samples": samples,
        "wrong": ledger.wrong, "errors": ledger.errors, "missing_spans": missing,
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    for line in [*ledger.wrong.values(), *ledger.errors.values()][:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    for name in missing:
        print(f"perfbench: span {name} never fired on {args.workload}", file=sys.stderr)
    print("perfbench-env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
