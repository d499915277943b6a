import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdm_pcs.cli import (
    _COMMANDS,
    _merge_negative_values,
    _resolve,
    build_parser,
    main,
    write_csv,
    parse_grid,
    resolve_modulation,
)
import ofdm_pcs
from ofdm_pcs.constellation import Constellation


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
    path.write_text(c.to_json())
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


def test_af_slice_byte_identical_and_thread_invariant(tmp_path):
    args = ["af", "slice", "--modulation", "qam16", "--doppler", "0",
            "--trials", "20", "--points", "33", "--subcarriers", "16",
            "--bandwidth", "16", "--seed", "7"]
    outs = [tmp_path / f"s{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert main(["--threads", "4"] + args + ["--out", str(outs[2])]) == 0
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


def test_af_variance_psk_self_is_zero(tmp_path):
    out = tmp_path / "var.csv"
    assert main(["af", "variance", "--modulation", "psk8", "--points", "21",
                 "--subcarriers", "8", "--bandwidth", "8", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["tau", "sigma2_self", "sigma2_cross", "mean_self_abs"]
    assert all(float(r[1]) == 0.0 for r in rows)


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


def test_detect_calibrate(tmp_path, capsys):
    out = tmp_path / "alpha.json"
    assert main(["detect", "calibrate", "--pfa", "0.02", "--calib-trials", "60",
                 "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "alpha" in printed
    doc = json.loads(out.read_text())
    assert doc["alpha"] > 0
    assert doc["empirical_pfa"] == pytest.approx(0.02, rel=0.2)


def test_detect_pd_sweep(tmp_path):
    out = tmp_path / "pd.csv"
    assert main(["detect", "pd-sweep", "--c0", "1.0", "--snr", "0,15",
                 "--trials", "60", "--pfa", "0.05", "--calib-trials", "20",
                 "--seed", "1", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["c0", "snr_db", "pd", "trials"]
    assert len(rows) == 2
    assert float(rows[1][2]) >= float(rows[0][2])
    assert meta["pfa"] == "0.05"


def test_threads_flag_accepted_in_both_positions(tmp_path):
    common = ["af", "slice", "--modulation", "psk8", "--trials", "5", "--points", "9",
              "--subcarriers", "8", "--bandwidth", "8", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--threads", "2"] + common + ["--out", str(a)]) == 0
    assert main(common + ["--threads", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize(
    "command", ["constellation dump", "pcs solve", "pcs sweep", "af variance"]
)
def test_unseeded_commands_reject_seed(tmp_path, capsys, command):
    # These commands draw nothing, so a seed could only decorate the artifact.
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_csv_cells_print_alike_from_arrays_and_lists(tmp_path):
    values = np.array([0.1, 1 / 3, -2.5e12, 1e-300, 123456789.123456789, np.inf, np.nan])
    expected = ",".join(f"{v:.12g}" for v in values)
    rows = {"array": [values], "list": [list(values)], "floats": [values.tolist()]}
    for name, rs in rows.items():
        write_csv(str(tmp_path / f"{name}.csv"), "t", {}, ["h"], rs)
        assert (tmp_path / f"{name}.csv").read_text().splitlines()[-1] == expected
    # a non-float cell (the pd trials column) prints through str
    write_csv(str(tmp_path / "mixed.csv"), "t", {}, ["h"], [[0.5, 5000, np.int64(7)]])
    assert (tmp_path / "mixed.csv").read_text().splitlines()[-1] == "0.5,5000,7"


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
def test_generated_flags_parse_to_table_defaults(command):
    _, _, defaults = _COMMANDS[command]
    argv = command.split() + ["--out", "x"]
    for key, default in defaults.items():
        if default is not None:
            argv += ["--" + key.replace("_", "-"), str(default)]
    opts = _resolve(build_parser().parse_args(_merge_negative_values(argv)), command)
    for key, default in defaults.items():
        assert (opts[key], type(opts[key])) == (default, type(default)), key


def test_af_slice_delay_parses_as_float():
    args = build_parser().parse_args(["af", "slice", "--delay", "1e-7", "--out", "x"])
    delay = _resolve(args, "af slice")["delay"]
    assert delay == 1e-7 and type(delay) is float


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
        (["detect", "pd-sweep", "--snr", "", "--trials", "2"], "snr_grid_db"),
        (["detect", "pd-sweep", "--c0", "", "--trials", "2"], "c0"),
        (["detect", "calibrate", "--calib-trials", "0"], "calib_trials"),
        (["air", "sweep-c0", "--c0", "", "--mc", "10"], "c0_grid"),
        (["air", "sweep-snr", "--snr", "", "--mc", "10"], "snr_grid_db"),
        (["air", "sweep-snr", "--modulations", "", "--mc", "10"], "constellations"),
        (["air", "sweep-c0", "--c0", "1.0", "--mc", "10", "--sigma2", "inf"], "sigma2"),
        (["af", "slice", "--doppler", "inf", "--trials", "2", *_SMALL_OFDM], "doppler"),
        (["af", "slice", "--doppler", "nan", "--trials", "2", *_SMALL_OFDM], "doppler"),
        (["af", "surface", "--subcarriers", "0", "--trials", "2"], "subcarriers"),
        (["af", "slice", "--seed", "-1", "--trials", "2", *_SMALL_OFDM], "seed"),
    ],
)
def test_af_empty_grid_names_parameter(tmp_path, capsys, args, name):
    rc = main(args + ["--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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
    rc = main(args + ["--threads", threads, "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unreadable_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["--config", str(bad), "pcs", "solve", "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "pcs solve" in capsys.readouterr().err


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
