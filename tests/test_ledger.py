"""The re-baseline ledger: every command's artifact at a small, fixed argv,
stored under ``tests/ledger/`` and compared with a fresh in-process run.

Header and ``#`` lines (a JSON artifact's ``meta`` and layout) must match
exactly.  Each data column (a JSON artifact's numbers under one key) must
match to 1e-10 of its largest stored magnitude, so that a BLAS or FFT build's
last-digit rounding passes while a moved stream or a flipped decision fails.
A change that moves an artifact on purpose rewrites its entries with

    PYTHONPATH=src python3 tests/test_ledger.py [ENTRY ...]

(every entry when none is named), which prints for each entry it rewrites
"unchanged" or how many cells moved, by how much at most and how many past
the tolerance, and says in its change log what the tool printed.  The
ledger is never rewritten to hide a defect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdm_pcs import cli

LEDGER = Path(__file__).parent / "ledger"
RTOL = 1e-10

ARGVS = {
    "constellation-dump.json": ["constellation", "dump"],
    "pcs-solve.json": ["pcs", "solve", "--c0", "1.2"],
    "pcs-sweep.csv": ["pcs", "sweep"],
    "pcs-sweep-qam256.csv": ["pcs", "sweep", "--modulation", "qam256"],
    "af-slice.csv": ["af", "slice", "--trials", "64"],
    "af-slice-delay.csv": ["af", "slice", "--trials", "64", "--delay", "3.3e-7", "--points", "33"],
    "af-slice-doppler.csv": ["af", "slice", "--doppler", "3e6", "--trials", "130"],
    "af-surface.csv": ["af", "surface", "--trials", "8", "--tau-points", "33", "--nu-points", "17"],
    "af-variance.csv": ["af", "variance"],
    "air-sweep-c0.csv": ["air", "sweep-c0", "--mc", "2000"],
    "air-sweep-snr.csv": ["air", "sweep-snr", "--mc", "2000"],
    "detect-pd-sweep.csv": ["detect", "pd-sweep", "--trials", "600"],
}


def parse(text: str, suffix: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """An artifact's lines that must match exactly, and its numbers by column."""
    if suffix == ".csv":
        exact = [line for line in text.splitlines() if line.startswith("#")]
        header, *rows = (line for line in text.splitlines() if not line.startswith("#"))
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows]).reshape(len(rows), -1)
        return [*exact, header], {name: table[:, j] for j, name in enumerate(header.split(","))}
    doc, numbers = json.loads(text), {}

    def layout(node, key):
        if isinstance(node, dict):
            return {k: layout(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [layout(v, key) for v in node]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.setdefault(key, []).append(node)
            return None
        return node

    shape = layout({k: v for k, v in doc.items() if k != "meta"}, "")
    return [json.dumps(doc["meta"]), json.dumps(shape)], {k: np.array(v, dtype=float) for k, v in numbers.items()}


def moved_cells(
    got: dict[str, np.ndarray], want: dict[str, np.ndarray], rtol: float = RTOL
) -> list[tuple[str, int, float]]:
    """(column, row, |delta|) of every cell off its stored value by more than
    ``rtol`` times its column's largest stored magnitude."""
    moved = []
    for name, stored in want.items():
        delta = np.abs(got[name] - stored)
        for row in np.flatnonzero(~(delta <= rtol * np.abs(stored).max(initial=0.0))):
            moved.append((name, int(row), float(delta[row])))
    return moved


def write(name: str, directory: Path) -> Path:
    out = directory / name
    if cli.main([*ARGVS[name], "--out", str(out)]) != 0:
        raise RuntimeError(f"ofdm-pcs {' '.join(ARGVS[name])} failed")
    return out


def rewrite(name: str) -> str:
    """Rewrite the ledger entry ``name`` and say how it moved."""
    path, suffix = LEDGER / name, Path(name).suffix
    before = path.read_text() if path.exists() else None
    after = write(name, LEDGER).read_text()
    if before is None or before == after:
        return "new" if before is None else "unchanged"
    (want_exact, want), (got_exact, got) = parse(before, suffix), parse(after, suffix)
    if got_exact != want_exact or {k: v.shape for k, v in got.items()} != {k: v.shape for k, v in want.items()}:
        return "header, # lines or layout changed"
    moved, cells = moved_cells(got, want, 0.0), sum(v.size for v in want.values())
    if not moved:
        return "text changed, no cell moved"
    return (
        f"{len(moved)} of {cells} cells moved, largest |delta| {max(d for *_, d in moved):.3g}, "
        f"{len(moved_cells(got, want))} past {RTOL:g} of their column's largest magnitude"
    )


def test_ledger_covers_every_command():
    assert {" ".join(argv[:2]) for argv in ARGVS.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("name", ARGVS)
def test_artifact_matches_its_ledger_entry(tmp_path, name):
    suffix = Path(name).suffix
    want_exact, want = parse((LEDGER / name).read_text(), suffix)
    got_exact, got = parse(write(name, tmp_path).read_text(), suffix)
    differ = [(w, g) for w, g in zip(want_exact, got_exact) if w != g]
    assert got_exact == want_exact, f"{name}: header or # lines differ, (ledger, run): {differ[:3]}"
    assert {k: v.shape for k, v in got.items()} == {k: v.shape for k, v in want.items()}, f"{name}: layout moved"
    moved = moved_cells(got, want)
    assert not moved, (
        f"{name}: {len(moved)} cells moved, largest |delta| {max(d for *_, d in moved):.3g}; "
        f"first (column, row, |delta|): {moved[:8]}"
    )


if __name__ == "__main__":
    LEDGER.mkdir(exist_ok=True)
    for entry in sys.argv[1:] or ARGVS:
        print(f"{entry}: {rewrite(entry)}")
