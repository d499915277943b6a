"""Tests of the benchmark itself, at a quick scale (about a minute).

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that each correctness check accepts a real artifact and rejects a
corrupted one, that tracing leaves the library as it found it, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ofdm_pcs.cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def cli_artifact(tmp: Path, name: str, *argv: str) -> str:
    out = tmp / name
    rc = ofdm_pcs.cli.main([*argv, "--out", str(out)])
    assert rc == 0, f"ofdm-pcs {' '.join(argv)} exited {rc}"
    return out.read_text()


def edit_rows(text: str, edit) -> str:
    """Apply ``edit(index, fields) -> fields`` to every data row of a CSV."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    for i in range(first, len(lines)):
        lines[i] = ",".join(edit(i - first, lines[i].split(",")))
    return "\n".join(lines) + "\n"


class MetricNames(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, list(workloads.PREPARE))
        self.assertEqual(set(names), set(workloads.REQUIRED_SPANS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = run_benchmark("--workload", "shaping", "--seed", "1", "--seconds", "0.1", "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(emitted, {m["name"]: m["unit"] for m in BENCHMARK[key]})
                for value in result["metrics"].values():
                    self.assertTrue(math.isfinite(value["value"]))

    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark("--workload", "rate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class AmbiguityChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.surface = cli_artifact(
            tmp, "surface.csv", "af", "surface", "--trials", "4", "--tau-points", "33", "--nu-points", "33",
        )
        cls.surface_rows = checks.read_csv(cls.surface)[2]
        ring8 = workloads._ring8(ofdm_pcs, tmp)
        cls.slices = {
            label: cli_artifact(tmp, f"{label}.csv", "af", "slice", "--modulation", mod, "--trials", "64", "--points", "65")
            for label, mod in (("qam16", "qam16"), ("ring8", str(ring8)))
        }

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_surface_accepted(self):
        checks.check_af_surface(self.surface)

    def test_asymmetric_surface_rejected(self):
        def skew(i, fields):
            if i == 3:
                fields[5] = repr(float(fields[5]) * 1.001)
            return fields

        with self.assertRaisesRegex(checks.CheckError, "mirror"):
            checks.check_af_surface(edit_rows(self.surface, skew))

    def test_surface_mirror_allows_for_printing(self):
        def pair(step: str):
            def edit(i, fields):
                if i == 3:
                    fields[5] = "0.5"
                if i == len(self.surface_rows) - 4:
                    fields[-5] = step
                return fields

            return edit_rows(self.surface, edit)

        checks.check_af_surface(pair("0.500000000001"))  # neighbouring printed values
        with self.assertRaisesRegex(checks.CheckError, "mirror"):
            checks.check_af_surface(pair("0.500000000003"))

    def test_slices_accepted_and_ordered(self):
        floors = {k: checks.check_af_slice(v) for k, v in self.slices.items()}
        checks.check_floor_order(floors["ring8"], floors["qam16"], "ring8 vs qam16")
        with self.assertRaises(checks.CheckError):
            checks.check_floor_order(floors["qam16"], floors["ring8"], "swapped")

    def test_asymmetric_slice_rejected(self):
        def skew(i, fields):
            if i == 10:
                fields[1] = repr(float(fields[1]) - 0.5)
            return fields

        with self.assertRaisesRegex(checks.CheckError, "symmetric"):
            checks.check_af_slice(edit_rows(self.slices["qam16"], skew))


class RateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.snr = cli_artifact(
            tmp, "snr.csv", "air", "sweep-snr", "--modulations", "qam16,psk16", "--snr", "0:6:30", "--mc", "20000",
        )
        cls.c0 = cli_artifact(tmp, "c0.csv", "air", "sweep-c0", "--c0", "1.0:0.16:1.64", "--mc", "20000")
        cls.orders = {"qam16": 16, "psk16": 16}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_artifacts_accepted(self):
        checks.check_air_snr(self.snr, self.orders)
        checks.check_air_c0(self.c0, 16)

    def test_rate_above_log2_m_rejected(self):
        above = repr(math.log2(16) + 0.5)
        at_30_db = edit_rows(self.snr, lambda i, f: f if i != 5 else [f[0], above, f[2]])
        with self.assertRaisesRegex(checks.CheckError, "outside"):
            checks.check_air_snr(at_30_db, self.orders)
        with self.assertRaisesRegex(checks.CheckError, "above"):
            checks.check_air_c0(edit_rows(self.c0, lambda i, f: [f[0], above, *f[2:]] if i == 2 else f), 16)

    def test_non_monotone_rate_rejected(self):
        drop = edit_rows(self.snr, lambda i, f: f if i != 3 else [f[0], repr(float(f[1]) - 1.0), f[2]])
        with self.assertRaisesRegex(checks.CheckError, "falls"):
            checks.check_air_snr(drop, self.orders)


class DetectChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.pd = cli_artifact(
            Path(cls.tmp.name), "pd.csv", "detect", "pd-sweep", "--c0", "1.0,1.64", "--snr=-5:5:20",
            "--trials", "100", "--calib-trials", "800", "--seed", "1",
        )

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_artifact_accepted(self):
        checks.check_pd_sweep(self.pd)

    def test_non_monotone_pd_rejected(self):
        dip = edit_rows(self.pd, lambda i, f: f if i != 4 else [f[0], f[1], "0", f[3]])
        with self.assertRaisesRegex(checks.CheckError, "falls"):
            checks.check_pd_sweep(dip)

    def test_pd_at_lowest_snr_must_be_near_zero(self):
        high = edit_rows(self.pd, lambda i, f: f if i != 0 else [f[0], f[1], "0.5", f[3]])
        with self.assertRaisesRegex(checks.CheckError, "lowest SNR"):
            checks.check_pd_sweep(high)


class ShapingChecks(unittest.TestCase):
    def test_ring_pair_range_matches_the_library(self):
        for order in (16, 64):
            amps = ofdm_pcs.make_qam(order).amplitudes
            lo, hi = checks.feasible_m4_range([a * a for a in amps])
            want = ofdm_pcs.pcs.fourth_moment_range(amps)
            self.assertAlmostEqual(lo, want[0], places=12)
            self.assertAlmostEqual(hi, want[1], places=12)

    def test_solution_accepted_and_corruption_rejected(self):
        amps = ofdm_pcs.make_qam(16).amplitudes
        energies = [a * a for a in amps]
        m4_range = checks.feasible_m4_range(energies)
        for c0 in (0.5, 1.2, 3.0):
            probs = list(ofdm_pcs.solve_pcs(ofdm_pcs.PcsProblem(amps, c0)).probs)
            checks.check_shaping(probs, energies, c0, m4_range)
        probs[0] += 1e-3
        probs[1] -= 1e-3
        with self.assertRaises(checks.CheckError):
            checks.check_shaping(probs, energies, 3.0, m4_range)


class TracingAndLedger(unittest.TestCase):
    def test_install_restores_originals_and_nests_spans(self):
        before = {name: getattr(ofdm_pcs.detect, name) for name in ("_complex_noise", "reference_means")}
        tracer = tracing.Tracer()
        tracer.install(ofdm_pcs, lambda lags: lags)
        try:
            with tracer.span("pass"):
                sampler = ofdm_pcs.detect.noise_profile_sampler(ofdm_pcs.OfdmConfig(), ofdm_pcs.make_qam(16))
                with tracer.span("outer"):
                    sampler(np.random.default_rng(0), 4)
        finally:
            tracer.uninstall()
        for name, fn in before.items():
            self.assertIs(getattr(ofdm_pcs.detect, name), fn)
        by_name = {s["name"]: s for s in tracer.spans}
        self.assertEqual(by_name["detect.noise"]["parent"], by_name["outer"]["id"])
        self.assertEqual(by_name["outer"]["parent"], by_name["pass"]["id"])
        totals = tracing.layer_totals(tracer.spans)
        self.assertEqual(totals["detect.matched_filter"]["rows"], 4)
        self.assertEqual(totals["constellation.sample_symbols"]["draws"], 4 * 64)
        for t in totals.values():
            self.assertGreaterEqual(t["busy_s"], 0.0)

    def test_ledger_counts_errors_wrong_and_changed_bytes(self):
        plan = workloads.Plan(run=None, check=lambda outs: {k: ("bad" if v == b"x" else None) for k, v in outs.items()})
        ledger = run.Ledger(plan)
        ledger.record({"a": b"1", "b": b"2"}, 1)
        ledger.record({"a": b"1", "b": b"3"}, 2)  # b's bytes changed
        ledger.record({"a": b"x", "b": RuntimeError("boom")}, 1)
        ledger.record({"c": b"4"}, 1)
        # Each label is one operation, counted once however often it runs.
        self.assertEqual((ledger.attempted, ledger.failed), (3, 2))
        self.assertEqual(len(ledger.errors), 1)
        self.assertEqual(len(ledger.wrong), 2)


if __name__ == "__main__":
    unittest.main()
