import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ofdm_pcs.ambiguity import default_nu_grid, magnitude_db, mc_average_af
from ofdm_pcs.cli import (
    _COMMANDS,
    _fmt,
    _merge_negative_values,
    _resolve,
    build_parser,
    main,
    write_csv,
    parse_grid,
    resolve_modulation,
)
import ofdm_pcs
from ofdm_pcs.constellation import Constellation, make_qam
from ofdm_pcs.detect import CfarConfig, calibrate_alpha, noise_profile_sampler
from ofdm_pcs.pcs import PcsProblem, solve_pcs

from af_oracles import af_self_part


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_parse_grid_forms():
    assert parse_grid("1,2,3.5").tolist() == [1.0, 2.0, 3.5]
    assert parse_grid("-5:1:-3").tolist() == [-5.0, -4.0, -3.0]
    assert parse_grid("1.0:0.02:1.1").tolist() == pytest.approx([1.0, 1.02, 1.04, 1.06, 1.08, 1.1])
    assert parse_grid("2").tolist() == [2.0]
    assert parse_grid([1, 2]).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        parse_grid("1:0:2")
    with pytest.raises(ValueError):
        parse_grid("5:1:2")


@pytest.mark.parametrize("value", ["nan", "1,inf", "-inf:1:0", "0:nan:1", [1.0, float("nan")]])
def test_parse_grid_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="snr"):
        parse_grid(value, "snr")


def test_merge_negative_values():
    argv = ["detect", "pd-sweep", "--snr", "-5:1:20", "--out", "x.csv"]
    merged = _merge_negative_values(argv)
    assert "--snr=-5:1:20" in merged
    assert "--out" in merged  # plain paths untouched
    assert _merge_negative_values(["--c0", "1.0,1.32"]) == ["--c0", "1.0,1.32"]


def test_resolve_modulation(tmp_path):
    name, c = resolve_modulation("psk16")
    assert name == "psk16" and c.order == 16
    name, c = resolve_modulation("QAM64")
    assert name == "qam64" and c.order == 64
    path = tmp_path / "shaped.json"
    path.write_text(json.dumps(c.to_json_dict()))
    name, loaded = resolve_modulation(str(path))
    assert name == "shaped" and loaded.order == 64
    with pytest.raises(ValueError):
        resolve_modulation("pam4")


def test_constellation_dump(tmp_path):
    out = tmp_path / "c.json"
    assert main(["constellation", "dump", "--modulation", "qam16", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["modulation"] == "qam16"
    c = Constellation.from_json_dict(doc)
    assert c.order == 16 and np.allclose(c.probs, 1 / 16)


def test_pcs_solve_and_chain_to_af(tmp_path):
    sol_path = tmp_path / "solution.json"
    assert main(["pcs", "solve", "--modulation", "qam16", "--c0", "1.0",
                 "--out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    assert doc["gap"] <= 1e-8
    assert doc["feasible_range"] == pytest.approx([1.0, 1.64])
    shaped = Constellation.from_json_dict(doc)
    assert np.count_nonzero(shaped.probs > 1e-9) == 8
    # The solution file doubles as a modulation spec.
    slice_path = tmp_path / "slice.csv"
    assert main(["af", "slice", "--modulation", str(sol_path), "--trials", "3",
                 "--points", "17", "--subcarriers", "8", "--bandwidth", "8",
                 "--out", str(slice_path)]) == 0
    meta, header, rows = read_csv(slice_path)
    assert header == ["tau", "magnitude_db"]
    assert len(rows) == 17


def test_pcs_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["pcs", "sweep", "--modulation", "qam16", "--c0", "1.0,1.32,2.0",
                 "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header[:4] == ["c0", "achieved_m4", "gap", "entropy_bits"]
    assert header[4:] == [f"p{q}" for q in range(16)]
    achieved = [float(r[1]) for r in rows]
    assert achieved == pytest.approx([1.0, 1.32, 1.64], abs=1e-8)


@pytest.mark.parametrize(("c0", "end"), [("0", 0), ("100", 1)])
def test_pcs_solve_beyond_the_range_lands_on_its_end(tmp_path, c0, end):
    # The range ends are taken in closed form; a target beyond either end lands on it.
    out = tmp_path / "s.json"
    assert main(["pcs", "solve", "--modulation", "qam64", "--c0", c0, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["achieved_m4"] - doc["feasible_range"][end]) <= 1e-12


def test_one_point_support_entropy_reads_zero(tmp_path):
    # The entropy sum of a one-point support is 0, which negated would print "-0".
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"points": [{"re": 1.0, "im": 0.0}], "probs": [1.0]}))
    sweep, solve = tmp_path / "sweep.csv", tmp_path / "solve.json"
    assert main(["pcs", "sweep", "--modulation", str(one), "--c0", "1.7", "--out", str(sweep)]) == 0
    assert main(["pcs", "solve", "--modulation", str(one), "--out", str(solve)]) == 0
    assert read_csv(sweep)[2] == [["1.7", "1", "0.7", "0", "1"]]
    assert repr(json.loads(solve.read_text())["entropy_bits"]) == "0.0"


def test_af_slice_byte_identical_and_thread_invariant(tmp_path):
    args = ["af", "slice", "--modulation", "qam16", "--doppler", "0",
            "--trials", "20", "--points", "33", "--subcarriers", "16",
            "--bandwidth", "16", "--seed", "7"]
    outs = [tmp_path / f"s{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert main(args + ["--threads", "4", "--out", str(outs[2])]) == 0
    data = [p.read_bytes() for p in outs]
    assert data[0] == data[1] == data[2]


def test_af_slice_doppler_axis(tmp_path):
    out = tmp_path / "zd.csv"
    assert main(["af", "slice", "--modulation", "psk16", "--delay", "0",
                 "--trials", "4", "--points", "9", "--subcarriers", "8",
                 "--bandwidth", "8", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["nu", "magnitude_db"]
    assert len(rows) == 9


def test_af_surface_layout(tmp_path):
    out = tmp_path / "surf.csv"
    assert main(["af", "surface", "--modulation", "qam16", "--trials", "2",
                 "--tau-points", "5", "--nu-points", "3", "--subcarriers", "8",
                 "--bandwidth", "8", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[0] == "tau" and len(header) == 4
    assert len(rows) == 5
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    assert values.max() == pytest.approx(1.0)


def test_af_slice_one_doppler_point_is_zero_doppler(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["af", "slice", "--modulation", "qam16", "--delay", "0", "--points", "1",
                 "--trials", "4", *_SMALL_OFDM, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["nu", "magnitude_db"]
    assert [float(v) for v in rows[0]] == [0.0, 0.0] and len(rows) == 1


def test_af_surface_one_delay_point_is_zero_delay(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["af", "surface", "--modulation", "qam16", "--tau-points", "1",
                 "--nu-points", "3", "--trials", "4", *_SMALL_OFDM, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert [float(v) for v in header[1:]] == [-4.0, 0.0, 4.0]
    assert len(rows) == 1 and float(rows[0][0]) == 0.0 and float(rows[0][2]) == 1.0


def test_af_variance_one_point_is_zero_delay(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["af", "variance", "--modulation", "qam16", "--points", "1",
                 *_SMALL_OFDM, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    tau, self_var, cross_var, mean_self = (float(v) for v in rows[0])
    # At tau = 0: T_diff = T_p = 1 s, so 8 (E[A^4] - 1) and |sum_l 1| T_p.
    assert len(rows) == 1 and tau == 0.0
    assert self_var == pytest.approx(8 * 0.32) and mean_self == pytest.approx(8.0)
    assert cross_var == pytest.approx(0.0, abs=1e-12)


def test_af_variance_psk_self_is_zero(tmp_path):
    out = tmp_path / "var.csv"
    assert main(["af", "variance", "--modulation", "psk8", "--points", "21",
                 "--subcarriers", "8", "--bandwidth", "8", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["tau", "sigma2_self", "sigma2_cross", "mean_self_abs"]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_af_variance_mean_self_at_doppler(tmp_path):
    # 16 subcarriers at df = 1 Hz, so T_p = 1 s and the delay grid steps 0.01 s.
    nu = 0.7
    columns = {}
    for doppler in (0.0, nu):
        out = tmp_path / f"var-{doppler}.csv"
        assert main(["af", "variance", "--modulation", "qam16", "--points", "201",
                     "--subcarriers", "16", "--bandwidth", "16", "--doppler", str(doppler),
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        columns[doppler] = np.array([[float(r[0]), float(r[3])] for r in rows])
    taus, mean_self = columns[nu].T
    # The mean self part is the zero-Doppler one under the sinc envelope.
    t_diff = 1.0 - np.abs(taus)
    expected = columns[0.0][:, 1] * np.abs(np.sinc(nu * t_diff))
    assert mean_self == pytest.approx(expected, rel=1e-10, abs=1e-300)
    # At tau = 0.03 the Dirichlet envelope is ~10.6, far above the draws' spread.
    i = 103
    assert taus[i] == pytest.approx(0.03)
    cfg = ofdm_pcs.OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=4)
    draws = ofdm_pcs.make_qam(16).sample_symbols(4000 * 16, 61).reshape(4000, 16)
    values = af_self_part(cfg, draws, taus[i], nu)
    se = np.sqrt(np.var(values) / values.size)
    assert abs(abs(values.mean()) - mean_self[i]) < 3 * se


def test_air_sweep_c0(tmp_path):
    out = tmp_path / "air.csv"
    assert main(["air", "sweep-c0", "--modulation", "qam16", "--sigma2", "0.01",
                 "--c0", "1.0,1.32", "--mc", "5000", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["c0", "rate_bits", "std_error", "gap", "entropy_bits"]
    assert float(rows[1][1]) > float(rows[0][1])
    assert meta["sigma2"] == "0.01"


def test_air_sweep_snr_negative_grid(tmp_path):
    out = tmp_path / "snr.csv"
    assert main(["air", "sweep-snr", "--modulations", "qam16,psk16",
                 "--snr", "-5:10:15", "--mc", "4000", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["snr_db", "rate_qam16", "rate_psk16"]
    assert [float(r[0]) for r in rows] == [-5.0, 5.0, 15.0]


def test_air_sweep_snr_rejects_json_stem_naming_another_column(tmp_path, capsys):
    shaped = tmp_path / "qam16.json"
    shaped.write_text(json.dumps(resolve_modulation("psk4")[1].to_json_dict()))
    out = tmp_path / "snr.csv"
    rc = main(["air", "sweep-snr", "--modulations", f"qam16,{shaped}", "--mc", "10",
               "--out", str(out)])
    assert rc == 1
    assert "modulations names 'qam16'" in capsys.readouterr().err
    assert not out.exists()


def test_detect_pd_sweep(tmp_path):
    out = tmp_path / "pd.csv"
    assert main(["detect", "pd-sweep", "--c0", "1.0", "--snr", "0,15",
                 "--trials", "60", "--pfa", "0.05", "--calib-trials", "20",
                 "--seed", "1", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["c0", "snr_db", "pd", "trials"]
    assert len(rows) == 2
    assert float(rows[1][2]) >= float(rows[0][2])
    assert [row[3] for row in rows] == ["60", "60"]
    assert meta["pfa"] == "0.05"


def test_pd_sweep_records_each_curves_calibration(tmp_path):
    # pd-sweep calibrates every curve from child 0 of --seed, each replaying
    # the same generator state, so its lines hold what calibrate_alpha gives
    # on a one-curve sampler's profiles drawn from that child, at any thread count.
    flags = ["--c0", "1.0,1.64", "--snr", "0", "--trials", "8", "--pfa", "0.01",
             "--calib-trials", "100", "--seed", "3"]
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"pd-t{threads}.csv"
        assert main(["detect", "pd-sweep", *flags, "--threads", threads, "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    # The calibration lines follow the option lines.
    comments = [line.split(" = ")[0] for line in texts[0].splitlines() if line.startswith("#")]
    assert comments[-5:] == ["# window", "# alpha", "# empirical_pfa", "# calib_cells", "# null_hits"]
    meta, _, _ = read_csv(tmp_path / "pd-t1.csv")
    base, cfg = make_qam(16), ofdm_pcs.OfdmConfig()
    calib_seed = np.random.SeedSequence(3).spawn(2)[0]
    results = []
    for c0 in (1.0, 1.64):
        shaped = base.with_probs(solve_pcs(PcsProblem(base.amplitudes, c0)).probs)
        profiles = noise_profile_sampler(cfg, shaped)(np.random.default_rng(calib_seed), 100)
        results.append(calibrate_alpha(CfarConfig(), profiles, 0.01))
    assert meta["alpha"] == ",".join(_fmt(r.alpha) for r in results)
    assert meta["empirical_pfa"] == ",".join(_fmt(r.empirical_pfa) for r in results)
    assert meta["calib_cells"] == str(results[0].cells) == "12800"
    assert all(float(v) <= 0.01 for v in meta["empirical_pfa"].split(","))
    # One null hit count per curve, the same at any thread count.
    assert len(meta["null_hits"].split(",")) == 2 and meta["null_hits"].replace(",", "").isdigit()
    # pd-sweep is the one command that calibrates; detect calibrate is gone.
    with pytest.raises(SystemExit) as exc:
        main(["detect", "calibrate", "--out", str(tmp_path / "alpha.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("offset", ["-1", "2", "128"])
def test_pd_sweep_offset_outside_profile_fails_before_any_solve(tmp_path, capsys, monkeypatch, offset):
    # The default profile instruments 128 cells and guards 2: the target cell
    # must lie in 3..127, checked by the flag's name before the first c0 solve.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ofdm_pcs.cli, "solve_pcs", no_work)
    out = tmp_path / "pd.csv"
    assert main(["detect", "pd-sweep", "--offset", offset, "--out", str(out)]) == 1
    message = (
        "offset must lie in 3..127 (the instrumented profile, clear of the "
        f"interference guard region), got {offset}"
    )
    assert capsys.readouterr().err == f"error: detect pd-sweep: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pd-sweep"])
@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--calib-trials", "10"],
         "calib_trials 10: 1280 cells expect 1.3 false alarms at pfa 0.001; calibration needs >= 100"),
        (["--pfa", "0"], "pfa must be in (0, 1), got 0.0"),
        (["--pfa", "1.5"], "pfa must be in (0, 1), got 1.5"),
    ],
    ids=["calib-trials-10", "pfa-0", "pfa-1.5"],
)
def test_detect_calibration_size_and_pfa_fail_by_flag_before_any_work(
    tmp_path, capsys, monkeypatch, command, flags, message
):
    # The default profile instruments 128 cells per calibration trial; the
    # checks run by the flags' names before the first c0 solve or draw.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for stage in ("solve_pcs", "pd_experiment"):
        monkeypatch.setattr(ofdm_pcs.cli, stage, no_work)
    out = tmp_path / "x.out"
    assert main(["detect", command, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: detect {command}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--subcarriers", "16", "--trials", "10"], ["--subcarriers", "16", "--pfa", "0.01"]],
    ids=["pd-sweep", "pd-sweep-pfa"],
)
def test_detect_cfar_geometry_fails_by_flag_before_any_work(tmp_path, capsys, monkeypatch, flags):
    # 16 subcarriers at 4x oversampling instrument 32 cells, short of the 38
    # that the default windows need; checked by the flags' names before the
    # first c0 solve or draw.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for stage in ("solve_pcs", "pd_experiment"):
        monkeypatch.setattr(ofdm_pcs.cli, stage, no_work)
    out = tmp_path / "x.out"
    assert main(["detect", "pd-sweep", *flags, "--out", str(out)]) == 1
    message = (
        "window 16 and guard 2 need 2*(window + guard) + 2 = 38 cells; "
        "subcarriers 16 at oversampling 4 instrument 32"
    )
    assert capsys.readouterr().err == f"error: detect pd-sweep: {message}\n"
    assert not out.exists()


def test_pd_sweep_calibration_lines_do_not_depend_on_the_trials_or_snr_grid(tmp_path):
    # Calibration draws from child 0 of --seed and the trials from child 1,
    # so the pd trials and the SNR grid change the rows, never the calibration.
    def calibration(extra):
        out = tmp_path / "pd.csv"
        assert main(["detect", "pd-sweep", "--c0", "1.0,1.32", "--pfa", "0.01", "--calib-trials", "100",
                     *extra, "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        return [meta[key] for key in ("alpha", "empirical_pfa", "calib_cells")], rows

    lines, rows = calibration(["--snr", "0", "--trials", "8"])
    other_lines, other_rows = calibration(["--snr", "0,10", "--trials", "16"])
    assert lines == other_lines and rows != other_rows


def test_csv_header_records_tool_and_seed(tmp_path):
    out = tmp_path / "hdr.csv"
    assert main(["af", "slice", "--modulation", "psk8", "--trials", "5", "--points", "9",
                 "--subcarriers", "8", "--bandwidth", "8", "--seed", "5",
                 "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["tool"].startswith("ofdm-pcs ")
    assert meta["command"] == "af slice"
    assert meta["seed"] == "5"
    # the output path and thread count must not appear (they may differ
    # between byte-identical runs)
    assert "out" not in meta and "threads" not in meta


# The commands that draw nothing, which are also those that run no worker pool.
_UNSEEDED = ["constellation dump", "pcs solve", "pcs sweep", "af variance"]


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [
        # These commands draw nothing, so a seed could only decorate the artifact.
        *(pytest.param(c, "--seed", "1", id=c) for c in _UNSEEDED),
        # These run no worker pool, so a thread cap could change nothing.
        *(pytest.param(c, "--threads", "2", id=f"{c} --threads") for c in _UNSEEDED),
        # The closed-form AF depends only on the subcarriers and their spacing,
        # and detection counts range cells in samples, so neither reads the flag.
        *(pytest.param(c, "--oversampling", "16", id=f"{c} --oversampling")
          for c in ("af slice", "af surface", "af variance")),
        pytest.param("detect pd-sweep", "--bandwidth", "3e9", id="detect pd-sweep --bandwidth"),
    ],
)
def test_unseeded_commands_reject_seed(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main(command.split() + [flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_csv_cells_print_alike_from_arrays_and_lists(tmp_path):
    values = np.array([0.1, 1 / 3, -2.5e12, 1e-300, 123456789.123456789, np.inf, np.nan])
    expected = ",".join(f"{v:.12g}" for v in values)
    rows = {"array": [values], "list": [list(values)], "floats": [values.tolist()]}
    for name, rs in rows.items():
        write_csv(str(tmp_path / f"{name}.csv"), "t", {}, ["h"], rs)
        assert (tmp_path / f"{name}.csv").read_text().splitlines()[-1] == expected
    # an integer cell (the pd trials column) prints without a point
    write_csv(str(tmp_path / "mixed.csv"), "t", {}, ["h"], [[0.5, 5000, np.int64(7)]])
    assert (tmp_path / "mixed.csv").read_text().splitlines()[-1] == "0.5,5000,7"
    # Signed zero, exponent form at both ends, a float32 (printed as the float
    # it holds) and a numpy integer, from a list and from arrays.
    odd = [-0.0, 1e16, 1e-5, np.float32(0.1), np.int64(-3)]
    expected = "-0,1e+16,1e-05,0.10000000149,-3"
    typed = [np.array([-0.0, 1e16, 1e-5]), np.array([0.1], dtype=np.float32),
             np.array([-3], dtype=np.int64)]
    cases = [
        ([odd], expected),
        ([np.array(odd, dtype=object)], expected),
        *(([row], line) for row, line in zip(typed, ["-0,1e+16,1e-05", "0.10000000149", "-3"])),
    ]
    for i, (table, line) in enumerate(cases):
        write_csv(str(tmp_path / f"odd{i}.csv"), "t", {}, ["h"], table)
        assert (tmp_path / f"odd{i}.csv").read_text().splitlines()[-1] == line


def test_csv_float_array_rows_print_as_fmt_cell_by_cell(tmp_path):
    # A float array row takes one format string per width; every cell still
    # prints exactly as _fmt prints it, and so does a mixed list row.
    rng = np.random.default_rng(5)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e16, 1 / 3])
    tables = {
        "wide": np.column_stack([rng.standard_normal((4, 257)) * 10.0 ** rng.integers(-9, 9, (4, 257)),
                                 specials[:4]]),
        "narrow": np.column_stack([specials, 20 * np.log10(np.abs(specials) + 1e-4)]),
        "float32": rng.standard_normal((3, 5)).astype(np.float32),
    }
    for name, rows in tables.items():
        write_csv(str(tmp_path / f"{name}.csv"), "t", {}, ["h"], rows)
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()[-len(rows):]
        assert lines == [",".join(_fmt(v) for v in row.tolist()) for row in rows]
    mixed = [[1.32, -5.0, 0.25, 5000], [1.0, 20.0, 1.0, np.int64(4999)]]
    write_csv(str(tmp_path / "mixed.csv"), "t", {}, ["h"], mixed)
    lines = (tmp_path / "mixed.csv").read_text().splitlines()[-2:]
    assert lines == [",".join(_fmt(v) for v in row) for row in mixed]


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "points": 9, "subcarriers": 8, "bandwidth": 8.0}))
    out_a = tmp_path / "a.csv"
    assert main(["--config", str(cfg), "af", "slice", "--modulation", "psk8",
                 "--out", str(out_a)]) == 0
    meta, _, rows = read_csv(out_a)
    assert meta["trials"] == "3" and len(rows) == 9
    out_b = tmp_path / "b.csv"
    assert main(["--config", str(cfg), "af", "slice", "--modulation", "psk8",
                 "--trials", "2", "--out", str(out_b)]) == 0
    meta_b, _, _ = read_csv(out_b)
    assert meta_b["trials"] == "2"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_generated_flags_parse_to_table_defaults(tmp_path, command):
    _, _, defaults = _COMMANDS[command]
    given = {key: default for key, default in defaults.items() if default is not None}
    flags = command.split() + ["--out", "x"]
    for key, default in given.items():
        flags += ["--" + key.replace("_", "-"), str(default)]
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps(given))
    # The same values given as flags and in a config file resolve alike.
    for argv in (flags, command.split() + ["--config", str(config), "--out", "x"]):
        opts = _resolve(build_parser().parse_args(_merge_negative_values(argv)), command)
        for key, default in defaults.items():
            assert (opts[key], type(opts[key])) == (default, type(default)), key


@pytest.mark.parametrize(
    ("command", "config", "key"),
    [
        ("af slice", {"trials": 3.7}, "trials"),
        ("af slice", {"trials": True}, "trials"),
        ("af slice", {"trials": "7"}, "trials"),
        ("af slice", {"seed": 3.7}, "seed"),
        ("af slice", {"seed": True}, "seed"),
        ("af slice", {"seed": "7"}, "seed"),
        ("af slice", {"threads": 0}, "threads"),
        ("detect pd-sweep", {"pfa": "x"}, "pfa"),
        ("air sweep-snr", {"modulations": ["qam16"]}, "modulations"),
        # A key no command takes, such as a misspelling, would run at the default.
        ("af slice", {"trails": 3}, "config trails"),
        # A grid list holds numbers only: the header would record True or '7'.
        ("pcs sweep", {"c0": [True, 1.2]}, "c0"),
        ("air sweep-snr", {"snr": [False, "7"]}, "snr"),
    ],
)
def test_bad_config_value_names_key(tmp_path, capsys, command, config, key):
    # A config value must have its flag's type: the artifact header would
    # otherwise record a value other than the one the run used.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    rc = main(command.split() + ["--config", str(path), "--out", str(out)])
    assert rc == 1
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_af_slice_delay_parses_as_float():
    args = build_parser().parse_args(["af", "slice", "--delay", "1e-7", "--out", "x"])
    delay = _resolve(args, "af slice")["delay"]
    assert delay == 1e-7 and type(delay) is float


def test_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process: a failing argv after a good one
    # still fails by name, and a good one after a failing one still runs, with
    # no flag of an earlier call left behind.
    assert build_parser() is build_parser()
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(["af", "variance", "--points", "5", "--out", str(outs[0])]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["af", "variance", "--points", "x", "--out", str(tmp_path / "bad.csv")])
    assert exc.value.code == 2 and "--points" in capsys.readouterr().err
    assert main(["af", "variance", "--out", str(outs[1])]) == 0
    assert main(["af", "variance", "--points", "5", "--out", str(outs[2])]) == 0
    assert "# points = 257\n" in outs[1].read_text()
    assert outs[2].read_bytes() == outs[0].read_bytes()
    assert "# points = 5\n" in outs[0].read_text()


def test_error_exit_names_stage(tmp_path, capsys):
    rc = main(["af", "slice", "--modulation", "nosuch", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "af slice" in capsys.readouterr().err


_SMALL_OFDM = ["--subcarriers", "8", "--bandwidth", "8"]


@pytest.mark.parametrize(
    ("args", "name"),
    [
        (["af", "surface", "--tau-points", "0", "--trials", "2", *_SMALL_OFDM], "tau_grid"),
        (["af", "surface", "--nu-points", "0", "--trials", "2", *_SMALL_OFDM], "nu_grid"),
        (["af", "slice", "--points", "0", "--trials", "2", *_SMALL_OFDM], "tau_grid"),
        (["af", "variance", "--points", "0", *_SMALL_OFDM], "tau_grid"),
        (["detect", "pd-sweep", "--snr", "", "--trials", "2"], "snr is empty"),
        (["detect", "pd-sweep", "--c0", "", "--trials", "2"], "c0"),
        (["detect", "pd-sweep", "--calib-trials", "0"], "calib_trials"),
        (["air", "sweep-c0", "--c0", "", "--mc", "10"], "c0 is empty"),
        (["air", "sweep-snr", "--snr", "", "--mc", "10"], "snr is empty"),
        (["air", "sweep-snr", "--modulations", "", "--mc", "10"], "modulations is empty"),
        (["air", "sweep-c0", "--c0", "1.0", "--mc", "10", "--sigma2", "inf"], "sigma2"),
        (["af", "slice", "--doppler", "inf", "--trials", "2", *_SMALL_OFDM], "doppler"),
        (["af", "slice", "--doppler", "nan", "--trials", "2", *_SMALL_OFDM], "doppler"),
        (["af", "surface", "--subcarriers", "0", "--trials", "2"], "subcarriers"),
        (["af", "slice", "--seed", "-1", "--trials", "2", *_SMALL_OFDM], "seed"),
        (["af", "slice", "--bandwidth", "-1", "--trials", "2"], "bandwidth must be positive"),
        (["detect", "pd-sweep", "--snr", "nan", "--c0", "1.0", "--trials", "2"], "snr entries"),
        (["detect", "pd-sweep", "--c0", "1.0,inf", "--trials", "2"], "c0 entries"),
        (["air", "sweep-snr", "--snr", "inf", "--mc", "10"], "snr entries"),
        (["air", "sweep-c0", "--c0", "1:0.1:inf", "--mc", "10"], "c0 '1:0.1:inf'"),
        (["pcs", "sweep", "--c0", "1.0,nan"], "c0 entries"),
        (["air", "sweep-snr", "--snr", "abc", "--mc", "10"], "snr entry 'abc'"),
        (["pcs", "sweep", "--c0", "1:x:2"], "c0 entry 'x'"),
        # Both delays sit on the window edges +-T_p, where the AF is zero.
        (["af", "slice", "--points", "2", "--trials", "4", *_SMALL_OFDM], "tau_grid"),
        # Each modulation is one column, keyed by its name.
        (["air", "sweep-snr", "--modulations", "qam16,qam16", "--mc", "10"],
         "modulations names 'qam16'"),
        (["af", "slice", "--points", "-3", "--trials", "2", *_SMALL_OFDM], "tau_grid"),
        (["af", "surface", "--tau-points", "-3", "--trials", "2", *_SMALL_OFDM], "tau_grid"),
        (["af", "surface", "--nu-points", "-2", "--trials", "2", *_SMALL_OFDM], "nu_grid"),
        # Integer options name their flag and fail before any work.
        (["af", "slice", "--trials", "0", *_SMALL_OFDM], "trials must be >= 1, got 0"),
        (["detect", "pd-sweep", "--window", "0"], "window must be >= 1, got 0"),
        (["detect", "pd-sweep", "--guard", "-1"], "guard must be >= 0, got -1"),
        (["air", "sweep-c0", "--mc", "0"], "mc must be >= 1, got 0"),
        # A delay slice spans the Doppler grid, so a Doppler would only decorate it.
        (["af", "slice", "--delay", "1e-8", "--doppler", "5e6"], "doppler must be 0 with delay"),
        # A spacing of 1.6e-320 Hz has no finite symbol duration 1/df.
        (["af", "variance", "--bandwidth", "1e-318"], "bandwidth"),
        # A range of more points than numpy can build, or than a float can count.
        (["pcs", "sweep", "--c0", "1:1e-300:1.7"], "c0 '1:1e-300:1.7' has 7e+299 points"),
        (["pcs", "sweep", "--c0", "1:1e-320:1.7"], "c0 '1:1e-320:1.7' has inf points"),
        (["air", "sweep-snr", "--snr", "0:1e-300:1", "--mc", "10"], "snr '0:1e-300:1' has 1e+300 points"),
    ],
)
def test_af_empty_grid_names_parameter(tmp_path, capsys, args, name):
    rc = main(args + ["--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["af", "slice", "--points", "0"], "--points: tau_grid needs at least one point, got 0"),
        (["af", "surface", "--tau-points", "-1"], "--tau-points: tau_grid needs at least one point, got -1"),
        (["af", "surface", "--nu-points", "0"], "--nu-points: nu_grid needs at least one point, got 0"),
        (["af", "variance", "--points", "0"], "--points: tau_grid needs at least one point, got 0"),
        # A delay slice spans the Doppler grid, which --points sizes too.
        (["af", "slice", "--delay", "1e-7", "--points", "0"],
         "--points: nu_grid needs at least one point, got 0"),
        # 2^30 cycles over T_p = 0.64 us: 1.68e15 Hz at the defaults.
        (["af", "slice", "--doppler", "1e200", "--trials", "64"], "doppler must lie within +-1.67772e+15 Hz"),
        (["af", "slice", "--doppler=-1.7e15"], "doppler must lie within +-1.67772e+15 Hz"),
        (["af", "variance", "--doppler", "1e308"], "doppler must lie within +-1.67772e+15 Hz"),
        # 2 pi bandwidth overflows past 2.86e307 Hz, 2 T_p below 7.1e-307 Hz
        # at 64 subcarriers; 1e-320 Hz rounds to a subnormal spacing.
        (["af", "slice", "--bandwidth", "1e308"], "bandwidth 1e+308 (subcarrier_spacing"),
        (["af", "surface", "--bandwidth", "5e307"], "bandwidth 5e+307 (subcarrier_spacing"),
        (["af", "variance", "--bandwidth", "1e308"], "bandwidth 1e+308 (subcarrier_spacing"),
        (["af", "variance", "--bandwidth", "7e-307"], "bandwidth 7e-307 (subcarrier_spacing"),
        (["af", "slice", "--bandwidth", "1e-320"], "bandwidth 1.012e-320 (subcarrier_spacing"),
        (["af", "slice", "--delay", "1e308"], "--delay must lie inside |delay| < T_p = 6.4e-07 s"),
        (["af", "slice", "--delay=-6.4e-7"], "--delay must lie inside |delay| < T_p = 6.4e-07 s"),
    ],
)
def test_af_grid_size_error_names_flag(tmp_path, capsys, args, message):
    # The grid and the AF's scale rules (OfdmConfig's bandwidth, the AF's
    # Doppler) are checked before any draw, so the default trial count
    # costs nothing.
    rc = main(args + ["--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_af_slice_delay_spans_the_doppler_grid(tmp_path):
    # With or without an explicit zero Doppler, a delay slice is the mean |AF|
    # over the default Doppler grid at that delay.
    args = ["af", "slice", "--delay", "1e-8", "--trials", "4", "--points", "9"]
    cfg = ofdm_pcs.OfdmConfig()
    nu_grid = default_nu_grid(cfg, 9)
    surface = mc_average_af(cfg, make_qam(16), np.array([1e-8]), nu_grid, 4, 0)
    expected = [[_fmt(nu), _fmt(db)] for nu, db in zip(nu_grid, magnitude_db(surface[0]))]
    for i, extra in enumerate([[], ["--doppler", "0"]]):
        out = tmp_path / f"d{i}.csv"
        assert main(args + extra + ["--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["nu", "magnitude_db"] and rows == expected


# A small run of every command, and a second valid value for every option.
_LIVE_BASE = {
    "constellation dump": [],
    "pcs solve": [],
    "pcs sweep": ["--c0", "1.0,1.2"],
    "af slice": ["--trials", "4", "--points", "17", *_SMALL_OFDM],
    "af surface": ["--trials", "2", "--tau-points", "5", "--nu-points", "3", *_SMALL_OFDM],
    "af variance": ["--points", "9", *_SMALL_OFDM],
    "air sweep-c0": ["--c0", "1.0,1.2", "--mc", "200"],
    "air sweep-snr": ["--snr", "0,10", "--mc", "200"],
    "detect pd-sweep": ["--c0", "1.0", "--snr", "0,10", "--trials", "64", "--pfa", "0.01",
                        "--calib-trials", "200"],
}
# 32 subcarriers still fit the CFAR windows and expect 100 calibration false
# alarms; 400 calibration trials move the pd counts of 64 trials, 300 do not.
_LIVE_VALUE = {
    "modulation": "psk8", "modulations": "qam16", "c0": "1.3", "snr": "5", "doppler": "0.3",
    "delay": "0.1", "trials": "5", "points": "11", "tau_points": "7", "nu_points": "5",
    "seed": "1", "subcarriers": "32", "bandwidth": "16", "oversampling": "2", "sigma2": "0.1",
    "mc": "300", "pfa": "0.02", "si_db": "20", "offset": "20", "calib_trials": "400",
    "window": "8", "guard": "1",
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_option_can_change_the_artifact(tmp_path, command):
    # A flag that cannot change its command's data would only decorate the
    # header; --threads alone is taken for speed and never changes a byte.
    def data(extra):
        out = tmp_path / "x.out"
        assert main([*command.split(), *_LIVE_BASE[command], *extra, "--out", str(out)]) == 0, extra
        text = out.read_text()
        if text.startswith("{"):
            return {k: v for k, v in json.loads(text).items() if k != "meta"}
        return [line for line in text.splitlines() if not line.startswith("#")]

    base = data([])
    dead = [
        key for key in _COMMANDS[command][2]
        if key != "threads" and data(["--" + key.replace("_", "-"), _LIVE_VALUE[key]]) == base
    ]
    assert dead == []


# Bad values of each option's type: not finite, zero, negative, past any
# scale, subnormal, empty, or not a grid.
_BAD_VALUES = {
    float: ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "1e200"],
    int: ["0", "-1"],
    str: ["", "nan", ",", "1:0:2", "inf"],
}
# Generated from the table: every option of every command but --threads.
_BAD_CASES = [
    pytest.param(command, key, value, id=f"{command} {key}={value}")
    for command, (_, _, defaults) in sorted(_COMMANDS.items())
    for key, default in defaults.items() if key != "threads"
    for value in _BAD_VALUES[float if default is None else type(default)]
]


def test_every_option_has_bad_value_cases():
    options = {(command, key) for command, (_, _, defaults) in _COMMANDS.items() for key in defaults}
    assert {tuple(case.values[:2]) for case in _BAD_CASES} == {(c, k) for c, k in options if k != "threads"}


@pytest.mark.parametrize(("command", "key", "value"), _BAD_CASES)
def test_bad_value_fails_by_its_flag_or_writes_finite_cells(tmp_path, capsys, command, key, value):
    # A bad value either fails and names its option, writing nothing, or
    # gives an artifact whose every data cell is finite.
    flag, out = "--" + key.replace("_", "-"), tmp_path / "x.out"
    try:
        rc = main([*command.split(), *_LIVE_BASE[command], f"{flag}={value}", "--out", str(out)])
    except SystemExit as exc:
        assert exc.code == 2 and flag in capsys.readouterr().err
        return
    if rc == 1:
        err = capsys.readouterr().err.removeprefix(f"error: {command}: ")
        # Named by its flag, by its key opening the message, or by its key
        # before its value ("at pfa 1e-05") or entries ("10 log10 sigma2
        # entries"); the backstop's column message names no option.
        assert flag in err or re.match(rf"{key}\b", err) or re.search(rf"\b{key} (entries|[-\d.'])", err), err
        assert not out.exists()
        return
    assert rc == 0
    text = out.read_text()
    if text.startswith("{"):
        json.loads(text, parse_constant=pytest.fail)
    else:
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert np.isfinite(np.array(rows, dtype=float)).all()


# Beside each _LIVE_BASE run, the regimes where the units of work differ: the
# default surface, and 64 delays, whose computed half is even; at 32
# subcarriers on- and off-lattice delays alternate; 600 trials are two pd
# chunks, and at cell 120 the lag cut meets the instrumented range; 100001
# draws are three AIR chunks, the last of one draw.
_THREAD_REGIMES = {
    # The 16-subcarrier rows draw 600 trials, three pieces of AF_DRAWS, the
    # last ending in a short chunk.
    "af surface": [["--trials", "4"], ["--trials", "4", "--tau-points", "64", "--nu-points", "33"],
                   ["--subcarriers", "32", "--trials", "200"],
                   ["--subcarriers", "16", "--tau-points", "33", "--nu-points", "9", "--trials", "600"]],
    # At 100 points every delay inside the window is off the lattice, and
    # 130 trials end the three chunks with a short one.  At 3 MHz Doppler
    # the grid is not its own mirror, so every row is computed, at negative
    # lattice shifts too.
    "af slice": [["--trials", "64"], ["--subcarriers", "32", "--trials", "200"],
                 ["--points", "100", "--trials", "130"], ["--doppler", "3e6", "--trials", "130"],
                 ["--subcarriers", "16", "--points", "65", "--trials", "600"]],
    "air sweep-c0": [["--mc", "20000"], ["--mc", "100001", "--c0", "1.0,1.2,1.32"]],
    "air sweep-snr": [["--mc", "20000"], ["--mc", "100001", "--snr", "0,10,20"]],
    "detect pd-sweep": [["--trials", "600"], ["--trials", "600", "--offset", "120"]],
}
# Generated from the table: a command that drops --threads drops its rows.
_THREAD_CASES = [
    pytest.param(command, argv, id=" ".join([command, *argv]))
    for command in sorted(_COMMANDS) if "threads" in _COMMANDS[command][2]
    for argv in [_LIVE_BASE[command], *_THREAD_REGIMES.get(command, [])]
]


def test_every_threads_command_has_a_thread_case():
    threaded = {command for command, (_, _, defaults) in _COMMANDS.items() if "threads" in defaults}
    assert threaded and {case.values[0] for case in _THREAD_CASES} == threaded


@pytest.mark.parametrize(("command", "argv"), _THREAD_CASES)
def test_threads_never_change_a_byte(tmp_path, command, argv):
    data = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.out"
        assert main([*command.split(), *argv, "--threads", threads, "--out", str(out)]) == 0
        data.append(out.read_bytes())
    assert data[0] == data[1]


@pytest.mark.parametrize(
    ("args", "config", "name"),
    [
        (["pcs", "sweep", "--c0", ""], None, "c0"),
        (["air", "sweep-c0", "--c0", ",", "--mc", "10"], None, "c0"),
        (["air", "sweep-snr", "--snr", "", "--mc", "10"], None, "snr"),
        (["pcs", "sweep"], {"c0": []}, "c0"),
        (["air", "sweep-snr", "--modulations", ",", "--mc", "10"], None, "modulations"),
    ],
)
def test_empty_grid_names_option(tmp_path, capsys, args, config, name):
    # An empty grid fails by its flag's name, before the library sees it.
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = args + ["--config", str(path)]
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 1
    assert f"error: {args[0]} {args[1]}: {name} is empty\n" == capsys.readouterr().err
    assert not out.exists()


_CONSTELLATION_ARGS = [
    ["constellation", "dump", "--modulation"],
    ["air", "sweep-snr", "--snr", "10", "--mc", "10", "--modulations"],
    ["af", "slice", "--trials", "2", *_SMALL_OFDM, "--modulation"],
]


@pytest.mark.parametrize("args", _CONSTELLATION_ARGS)
def test_non_finite_constellation_json_fails(tmp_path, capsys, args):
    # NaN passes every comparison; unchecked, it is written out as ``nan``.
    doc = make_qam(16).to_json_dict()
    doc["points"][3]["re"] = float("nan")
    shaped = tmp_path / "nan.json"
    shaped.write_text(json.dumps(doc))
    assert main(args + [str(shaped), "--out", str(tmp_path / "x.csv")]) == 1
    assert "points must be finite, got (nan+" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("content", [None, "", '{"points": [{"re": 1}], "probs": [1]}', "directory"],
                         ids=["missing", "empty", "malformed", "directory"])
@pytest.mark.parametrize("args", _CONSTELLATION_ARGS)
def test_bad_constellation_file_names_option_and_path(tmp_path, capsys, args, content):
    path = tmp_path / "c.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    assert main(args + [str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert f"{args[-1][2:]} {str(path)!r}: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    ("args", "name", "value"),
    [
        (["detect", "pd-sweep", "--snr", "4000", "--c0", "1.0", "--trials", "10"], "snr", 4000.0),
        (["detect", "pd-sweep", "--si-db", "1e308", "--c0", "1.0", "--trials", "10"], "si_db", 1e308),
        (["detect", "pd-sweep", "--snr", "313,-313.5,0", "--c0", "1.0"], "snr", -313.5),
        (["air", "sweep-snr", "--snr", "4000", "--mc", "10"], "snr", 4000.0),
        (["air", "sweep-snr", "--snr=-4000", "--mc", "10"], "snr", -4000.0),
    ],
)
def test_db_out_of_range_names_option(tmp_path, capsys, monkeypatch, args, name, value):
    # Beyond +-313 dB the weaker signal is lost below one ulp of the stronger;
    # such a value fails by its flag's name before any solve, draw or warning.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for stage in ("solve_pcs", "pd_experiment", "air_vs_snr"):
        monkeypatch.setattr(ofdm_pcs.cli, stage, no_work)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--out", str(out)]) == 1
    message = f"{name} entries must lie within +-313.071 dB, got [{value!r}]"
    assert capsys.readouterr().err == f"error: {args[0]} {args[1]}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("args", "column"),
    [
        (["af", "slice"], "magnitude_db"),
        (["af", "surface"], "-5e+307"),
        (["af", "variance"], "sigma2_self"),
    ],
)
def test_non_finite_table_is_refused(tmp_path, capsys, monkeypatch, args, column):
    # The AF's scale-free kernel keeps overflow out of every AF table; a
    # runner that still hands back a NaN or inf cell has its table refused
    # by the first such column, and nothing is written.
    def overflowed(opts):
        return ["tau", column, "next"], np.array([[0.0, 1.0, np.inf], [1.0, np.nan, 2.0]])

    command = " ".join(args)
    monkeypatch.setitem(_COMMANDS, command, (overflowed, *_COMMANDS[command][1:]))
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 1
    message = f"column {column!r} has a non-finite cell; no file written"
    assert capsys.readouterr().err == f"error: {command}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pcs solve", "constellation dump"])
def test_non_finite_json_payload_is_refused(tmp_path, capsys, monkeypatch, command):
    # JSON has no NaN or inf; a payload holding one fails its encoding, so
    # nothing is written.
    def overflowed(opts):
        return {"probs": [1.0, 0.0], "gap": float("nan"), "feasible_range": [1.0, float("inf")]}

    monkeypatch.setitem(_COMMANDS, command, (overflowed, *_COMMANDS[command][1:]))
    out = tmp_path / "x.json"
    assert main([*command.split(), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {command}: Out of range float values")
    assert not out.exists()


@pytest.mark.parametrize("args", _CONSTELLATION_ARGS[:1] + [
    ["pcs", "solve", "--c0", "2", "--modulation"],
    ["af", "variance", "--modulation"],
])
def test_overflowing_fourth_moment_names_option_and_path(tmp_path, capsys, args):
    # Unit power holds, but 1e80^4 overflows: E[A^4] would read inf, and pcs
    # solve would write Infinity into its JSON.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"points": [{"re": 0.0, "im": 0.0}, {"re": 1e80, "im": 0.0}], "probs": [1.0, 1e-160]}))
    out = tmp_path / "x.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + [str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"modulation {str(path)!r}: fourth moment E[A^4] is inf, expected finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["af", "slice", "--doppler", "1.6e15", "--trials", "4"],
        ["af", "slice", "--doppler=-1.3e8", "--trials", "4", *_SMALL_OFDM],
        ["af", "variance", "--doppler", "1.6e15"],
        ["af", "slice", "--bandwidth", "2.8e307", "--trials", "4"],
        ["af", "surface", "--bandwidth", "2.8e307", "--trials", "4", "--tau-points", "9", "--nu-points", "5"],
        ["af", "variance", "--bandwidth", "2.8e307"],
        ["af", "variance", "--bandwidth", "7.2e-307"],
        ["af", "slice", "--delay", "6.39e-7", "--points", "9", "--trials", "4"],
        ["af", "slice", "--bandwidth", "7.2e-307", "--trials", "4"],
    ],
)
def test_af_scale_inside_its_bound_writes_finite_cells(tmp_path, args):
    # Just inside each scale rule the arithmetic still holds: every cell is
    # finite.
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert np.isfinite(np.array(rows, dtype=float)).all()


@pytest.mark.parametrize("bandwidth", ["7.2e-307", "3.1e-151", "1.08e-150", "1.09e-150", "2.8e307"])
def test_heavy_tailed_variance_is_finite_at_any_bandwidth(tmp_path, bandwidth):
    # Two rings at probabilities 0.999 and 0.001, E[A^4] = 810.19: in units
    # of T_p^2 the self variance at tau = 0 is L (E[A^4] - 1) at every
    # bandwidth, where in s^2 it overflowed below 1.09e-150 Hz.
    heavy = Constellation([0.1**0.5, 900.1**0.5], [0.999, 0.001])
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(heavy.to_json_dict()))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["af", "variance", "--modulation", str(path), "--bandwidth", bandwidth, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    table = np.array(rows, dtype=float)
    assert np.isfinite(table).all()
    centre = table[table[:, 0] == 0.0][0, header.index("sigma2_self")]
    assert centre == pytest.approx(64 * (heavy.moment(4) - 1.0), rel=1e-11)


def _af_columns(tmp_path, argv, bandwidth):
    """An AF command's CSV at ``--bandwidth`` (16 subcarriers): its axis
    column and, for af surface, its Doppler header, in units of T_p (delay)
    or 1/T_p (Doppler), and its data columns."""
    out = tmp_path / "x.csv"
    assert main([*argv, "--bandwidth", bandwidth, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    table, span = np.array(rows, dtype=float), 16 / float(bandwidth)
    nus = [float(nu) * span for nu in header[1:]] if argv[1] == "surface" else []
    return np.array([*table[:, 0] * (span if header[0] == "nu" else 1 / span), *nus]), table[:, 1:]


@pytest.mark.parametrize(
    "argv",
    [
        ["af", "slice", "--trials", "8", "--points", "33", "--subcarriers", "16"],
        ["af", "slice", "--trials", "8", "--points", "17", "--subcarriers", "16", "--delay", "0"],
        ["af", "surface", "--trials", "4", "--tau-points", "17", "--nu-points", "9", "--subcarriers", "16"],
        ["af", "variance", "--points", "33", "--subcarriers", "16", "--doppler", "0"],
    ],
    ids=["slice", "slice-delay", "surface", "variance"],
)
def test_af_artifacts_are_scale_free(tmp_path, argv):
    # The kernel is in units of T_p, so every AF artifact is the same at any
    # bandwidth: its data to 1e-12 of each column's largest magnitude, its
    # axes once scaled by T_p.
    axis, data = _af_columns(tmp_path, argv, "1e8")
    for bandwidth in ("1e-300", "1e300"):
        got_axis, got = _af_columns(tmp_path, argv, bandwidth)
        np.testing.assert_allclose(got_axis, axis, rtol=1e-12, atol=0)
        assert np.all(np.abs(got - data) <= 1e-12 * np.abs(data).max(axis=0))


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_sigma2_must_be_positive_before_any_solve(tmp_path, capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ofdm_pcs.cli, "air_vs_c0", no_work)
    out = tmp_path / "x.csv"
    assert main(["air", "sweep-c0", "--sigma2", value, "--out", str(out)]) == 1
    message = f"sigma2 must be positive and finite, got {float(value)}"
    assert capsys.readouterr().err == f"error: air sweep-c0: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e-310", "1e308"])
def test_sigma2_beyond_db_bound_fails_before_any_solve(tmp_path, capsys, monkeypatch, value):
    # Past +-313.07 dB, 1/sigma2 or the squared distances overflow and the
    # rows would read nan; the level is refused by the flag's name.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ofdm_pcs.cli, "air_vs_c0", no_work)
    out = tmp_path / "x.csv"
    assert main(["air", "sweep-c0", "--sigma2", value, "--out", str(out)]) == 1
    levels = (10.0 * np.log10([float(value)])).tolist()
    message = f"10 log10 sigma2 entries must lie within +-313.071 dB, got {levels}"
    assert capsys.readouterr().err == f"error: air sweep-c0: {message}\n"
    assert not out.exists()
    # The same bound as the SNR sweep's, which still runs up to it.
    monkeypatch.undo()
    assert main(["air", "sweep-snr", "--snr", "313.07", "--mc", "10", "--out", str(out)]) == 0
    assert main(["air", "sweep-c0", "--sigma2", "1e-31", "--c0", "1.0", "--mc", "10", "--out", str(out)]) == 0


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "args",
    [
        ["detect", "pd-sweep", "--c0", "1.0", "--snr", "0", "--trials", "2"],
        ["air", "sweep-c0", "--c0", "1.0", "--mc", "10"],
        # every command at its defaults: the check runs before any work
        *(command.split() for command in _COMMANDS),
    ],
)
def test_threads_below_one_exits_nonzero(tmp_path, capsys, args, threads):
    argv = args + ["--threads", threads, "--out", str(tmp_path / "x.csv")]
    if " ".join(args[:2]) in _UNSEEDED:
        # no --threads flag to take the value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 1
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unreadable_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["--config", str(bad), "pcs", "solve", "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "pcs solve" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_bad_out_path_fails_before_the_run(tmp_path, capsys, monkeypatch, command):
    # A missing directory or a directory as --out fails by name, not after the run.
    def no_work(opts):
        raise AssertionError("work started")

    monkeypatch.setitem(_COMMANDS, command, (no_work, *_COMMANDS[command][1:]))
    for out in (tmp_path / "no" / "x.out", tmp_path):
        assert main([*command.split(), "--out", str(out)]) == 1
        assert f"out {str(out)!r}" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["pcs", "solve", "--nope", "1", "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    # The child imports the package this suite imported, set on the path or not.
    src = str(Path(ofdm_pcs.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ofdm_pcs.cli", "constellation", "dump",
         "--modulation", "psk4", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["meta"]["modulation"] == "psk4"
