"""End-to-end runs of the console entry point.

Each test drives ``main`` with argv and inspects the written file, the
exit code, or stderr.  Physics-level assertions live in the per-module
suites; here we check plumbing: column layout, metadata, exit codes,
format parity, and determinism.
"""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spdcmet
from spdcmet import cli, estimation, timetags
from spdcmet.calibration import model_rate_summary
from spdcmet.cli import _CHUNK_ROWS, _render, build_parser, main
from spdcmet.engine import (
    RotationSpec,
    choose_truncation,
    click_probability_tensor,
    detector_for_source,
    fourfold_family,
    full_pattern_distribution,
    ideal_fisher_information,
)
from spdcmet.estimation import fisher_information
from spdcmet.fock import SourceParams, truncation_tail
from spdcmet.timetags import (
    MODES,
    ChannelMap,
    PatternHistogram,
    TimetagStream,
    count_coincidences,
    generate_synthetic_timetags,
    to_binary,
    to_csv,
)


def run(argv):
    return main(list(argv))


def read_csv(path):
    """Split a CSV artifact into (meta dict, header list, rows of floats-or-str)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if " = " in line:
                key, val = line[1:].split(" = ", 1)
                meta[key.strip()] = val.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# fringes


def test_fringes_default_grid_shape(tmp_path):
    out = tmp_path / "fringes.csv"
    assert run(["fringes", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert meta["command"] == "fringes"
    assert header == ["phi", "p2002", "p2011", "p2020", "p1102", "p1111",
                      "p1120", "p0202", "p0211", "p0220"]
    assert len(rows) == 100
    for row in rows:
        assert len(row) == 10
        total = sum(float(v) for v in row[1:])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_fringes_json_mirrors_csv_content(tmp_path):
    csv_out = tmp_path / "f.csv"
    json_out = tmp_path / "f.json"
    args = ["fringes", "--phi-steps", "12"]
    assert run(args + ["--out", str(csv_out)]) == 0
    assert run(args + ["--format", "json", "--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    assert doc["meta"]["command"] == "fringes"
    assert doc["columns"][0] == "phi"
    _, header, rows = read_csv(csv_out)
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(rows) == 12
    for jrow, crow in zip(doc["rows"], rows):
        np.testing.assert_allclose(jrow, [float(v) for v in crow], atol=1e-12)


def test_fringes_control_phase_translates_rows(tmp_path):
    # 18-step grid over 2 pi: 80 degrees is exactly four grid cells
    theta = math.radians(80.0)
    base_out = tmp_path / "base.csv"
    shift_out = tmp_path / "shift.csv"
    common = ["fringes", "--tau", "0.055", "--eta-a", "0.24", "--eta-b", "0.13",
              "--phi-steps", "18"]
    assert run(common + ["--out", str(base_out)]) == 0
    assert run(common + ["--theta", str(theta), "--out", str(shift_out)]) == 0
    _, _, base_rows = read_csv(base_out)
    _, _, shift_rows = read_csv(shift_out)
    base = np.array([[float(v) for v in row[1:]] for row in base_rows])
    shifted = np.array([[float(v) for v in row[1:]] for row in shift_rows])
    np.testing.assert_allclose(shifted, np.roll(base, 4, axis=0), atol=1e-10)


# ---------------------------------------------------------------------------
# fisher


def test_fisher_summary_metadata(tmp_path):
    out = tmp_path / "fisher.json"
    code = run(["fisher", "--phi-steps", "12", "--bootstrap", "0",
                "--ml-reps", "0", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    meta = doc["meta"]
    assert meta["bootstrap_patched_rows"] == 0
    assert 2.00 <= meta["snl"] <= 2.02
    assert meta["advantage"] == pytest.approx(0.45, abs=0.03)
    assert meta["fisher_max"] > meta["snl"]
    assert 0.0 < meta["advantage_phi"] < 2.0 * math.pi
    assert doc["columns"][:3] == ["phi", "fisher", "clipped"]
    fisher = np.array([row[1] for row in doc["rows"]])
    assert (fisher >= 0.0).all()
    assert fisher.max() <= meta["fisher_max"] + 1e-9


def test_fisher_ideal_reference_is_phase_flat(tmp_path):
    out = tmp_path / "ideal.json"
    code = run(["fisher", "--tau", "0.05", "--eta-a", "1", "--eta-b", "1",
                "--d", "0", "--phi-steps", "8", "--bootstrap", "0",
                "--ml-reps", "0", "--format", "json", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.read_text())["meta"]
    src = SourceParams(0.05)
    for phi in (0.3, 1.7, 2.9):
        assert meta["ideal_information"] == pytest.approx(
            ideal_fisher_information(src, phi), rel=1e-6)
    assert meta["ideal_information"] > 0.0


def test_fisher_band_and_ml_sections(tmp_path):
    out = tmp_path / "full.json"
    code = run(["fisher", "--phi-steps", "8", "--bootstrap", "6",
                "--counts-per-phase", "2000", "--ml-reps", "4",
                "--ml-samples", "200", "--seed", "3",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["phi", "fisher", "clipped", "band_low", "band_high"]
    assert doc["meta"]["bootstrap_patched_rows"] == 0
    for row in doc["rows"]:
        assert row[3] <= row[4] + 1e-12
    points = doc["ml_points"]
    assert len(points) == 3
    for pt in points:
        assert pt["i_ml"] > 0.0 and pt["stderr"] > 0.0
        assert isinstance(pt["edge_hits"], int) and 0 <= pt["edge_hits"] <= 4


def test_fisher_band_misses_counts_the_phases_outside_the_band(tmp_path):
    common = ["fisher", "--phi-steps", "12", "--counts-per-phase", "1000", "--ml-reps", "0",
              "--format", "json"]
    assert run(common + ["--bootstrap", "6", "--seed", "2",
                         "--out", str(tmp_path / "b.json")]) == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    misses = sum(not (low <= fisher <= high) for _, fisher, _, low, high in doc["rows"])
    assert 0 < misses < len(doc["rows"])
    assert doc["meta"]["band_misses"] == misses
    assert run(common + ["--bootstrap", "0", "--out", str(tmp_path / "none.json")]) == 0
    assert json.loads((tmp_path / "none.json").read_text())["meta"]["band_misses"] == 0


@pytest.mark.parametrize("argv", [
    ["fringes", "--phi-steps", "4"],
    ["fisher", "--phi-steps", "4", "--bootstrap", "0", "--ml-reps", "0"],
    ["curve", "--eta-steps", "2"],
])
def test_metadata_reports_the_truncation_tail_it_discards(tmp_path, argv):
    out = tmp_path / "out.json"
    assert run([*argv, "--tau", "0.3", "--eps", "1e-9", "--format", "json",
                "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert 0.0 < meta["truncation_tail"] <= meta["trunc_epsilon"] == 1e-9
    assert meta["truncation_tail"] == truncation_tail(SourceParams(0.3, 1e-9),
                                                      meta["truncation"])


def test_fisher_ml_points_keep_their_mirror_out_of_the_window(tmp_path):
    # p(phi) = p(2 theta - phi): at the defaults the middle point 0.9 pi has
    # its mirror 1.1 pi within pi/4, which collapsed I_ML/I to about 0.004
    out = tmp_path / "ml.json"
    assert run(["fisher", "--phi-steps", "4", "--bootstrap", "0", "--ml-reps", "50",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    src = SourceParams(doc["meta"]["tau"])
    det = detector_for_source(src, 4, doc["meta"]["eta_a"], doc["meta"]["eta_b"])
    family = fourfold_family(src, det)
    assert len(doc["ml_points"]) == 3
    for pt in doc["ml_points"]:
        assert 0.4 <= pt["i_ml"] / fisher_information(family, pt["phi"]) <= 2.5


def test_fisher_advantage_search_scans_its_grid_in_one_call(monkeypatch, tmp_path):
    # 512 phases of 9 patterns fit in one scan block of the fourfold family
    scans = []
    search = estimation.argmax_over_phase

    def spy(fn, *args, **kwargs):
        scans.append([])
        return search(lambda p: scans[-1].append(np.size(p)) or fn(p), *args, **kwargs)

    monkeypatch.setattr(estimation, "argmax_over_phase", spy)
    argv = ["fisher", "--phi-steps", "8", "--bootstrap", "0", "--ml-reps", "0"]
    assert run(argv + ["--out", str(tmp_path / "f.csv")]) == 0
    assert len(scans) == 1 and scans[0][0] == 512


def test_fisher_band_rejects_a_grid_aliased_modulo_two_pi(capsys):
    # ten phases 2 pi apart are one phase: the fringe fit would be rank-deficient
    assert run(["fisher", "--phi-stop", "62.83185307179586", "--phi-steps", "10",
                "--bootstrap", "2", "--ml-reps", "0"]) == 2
    assert "five distinct phases modulo 2 pi" in capsys.readouterr().err


def test_fisher_control_phase_translates_curve(tmp_path):
    theta = math.radians(80.0)
    base_out = tmp_path / "b.json"
    shift_out = tmp_path / "s.json"
    common = ["fisher", "--phi-steps", "18", "--bootstrap", "0",
              "--ml-reps", "0", "--format", "json"]
    assert run(common + ["--out", str(base_out)]) == 0
    assert run(common + ["--theta", str(theta), "--out", str(shift_out)]) == 0
    base = json.loads(base_out.read_text())
    shift = json.loads(shift_out.read_text())
    base_fisher = np.array([row[1] for row in base["rows"]])
    shift_fisher = np.array([row[1] for row in shift["rows"]])
    np.testing.assert_allclose(shift_fisher, np.roll(base_fisher, 4), atol=1e-6)
    assert shift["meta"]["fisher_max"] == pytest.approx(
        base["meta"]["fisher_max"], rel=1e-6)


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_round_trip_from_model_rates(tmp_path):
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    rates = model_rate_summary(src, det)
    rates_file = tmp_path / "rates.csv"
    rates_file.write_text(
        "singles_a,singles_b,twofold\n"
        f"{rates.singles_a:.17g},{rates.singles_b:.17g},{rates.twofold:.17g}\n"
    )
    out = tmp_path / "cal.json"
    code = run(["calibrate", str(rates_file), "--format", "json",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["tau"] == pytest.approx(0.061, rel=0.02)
    assert row["eta_a"] == pytest.approx(0.23, rel=0.02)
    assert row["eta_b"] == pytest.approx(0.12, rel=0.02)
    assert 0.0 < row["pair_probability"] < 8.0 / 27.0
    for key in ("residual_singles_a", "residual_singles_b", "residual_twofold"):
        assert abs(row[key]) < 1e-12


def test_calibrate_malformed_line_reports_position(tmp_path, capsys):
    rates_file = tmp_path / "bad.csv"
    rates_file.write_text("singles_a,singles_b,twofold\n0.1,0.2\n")
    assert run(["calibrate", str(rates_file)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_calibrate_overbright_rates_exit(tmp_path, capsys):
    rates_file = tmp_path / "hot.csv"
    rates_file.write_text("0.0,0.0,0.5\n")
    assert run(["calibrate", str(rates_file)]) == 3
    assert "8/27" in capsys.readouterr().err


def test_calibrate_missing_file_exit(tmp_path, capsys):
    assert run(["calibrate", str(tmp_path / "nope.csv")]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# herald


def test_herald_table_anchor_cells(tmp_path):
    out = tmp_path / "herald.csv"
    code = run(["herald", "--tau", "0.05", "--etas", "0.9,1.0",
                "--k-max", "3", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header == ["k", "eta=0.9", "eta=1"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    cells = {(int(r[0]), j): float(r[1 + j]) for r in rows for j in range(2)}
    assert cells[(0, 1)] == pytest.approx(1.0025, abs=1e-3)
    assert cells[(3, 0)] == pytest.approx(1.35927, abs=1e-3)
    assert meta["tau"] == "0.05"


def test_herald_metadata_reports_the_cutoff_it_used(tmp_path):
    out = tmp_path / "herald.json"
    assert run(["herald", "--tau", "0.1", "--etas", "0.9", "--k-max", "1",
                "--format", "json", "--out", str(out)]) == 0
    # the table carries a margin above the source cutoff (6 at this gain)
    assert json.loads(out.read_text())["meta"]["truncation"] == choose_truncation(
        SourceParams(0.1)) + 4 == 10


def test_herald_metadata_reports_the_tail_of_its_cutoff(tmp_path):
    out = tmp_path / "herald.json"
    assert run(["herald", "--tau", "0.3", "--etas", "0.9", "--k-max", "1",
                "--format", "json", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    # sum_{n > N} q_n = x^(N+1) ((N+2) - (N+1) x), x = tanh(tau)^2
    n, x = meta["truncation"], math.tanh(0.3) ** 2
    assert meta["truncation_tail"] == pytest.approx(x ** (n + 1) * ((n + 2) - (n + 1) * x),
                                                    rel=1e-12)
    assert 0.0 < meta["truncation_tail"] < 1e-12


@pytest.mark.parametrize("argv", [["herald", "--k-max", "-1"],
                                  ["herald", "--tau", "0.05", "--k-max", "40"],
                                  ["herald", "--etas", ""], ["herald", "--etas", ","]])
def test_herald_count_outside_the_support_is_a_usage_error(argv, capsys, tmp_path):
    out = tmp_path / "table.csv"
    assert run(argv) == 2 and run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 2


@pytest.mark.parametrize("argv, message", [
    (["herald", "--tau", "0", "--k-max", "0"], "heralds no photons"),
    (["curve", "--tau", "0"], "no phase information"),
])
def test_zero_gain_is_a_usage_error(argv, message, capsys, tmp_path):
    # the information per heralded photon, and the curve's 1/sqrt(F), divided by zero
    out = tmp_path / "table.csv"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


# ---------------------------------------------------------------------------
# count


def sample_stream():
    src = SourceParams(0.08)
    det = detector_for_source(src, 4, 0.3, 0.25)
    dist = full_pattern_distribution(RotationSpec(1.0), src, det)
    return generate_synthetic_timetags(dist, pulses=30_000, seed=7)


def test_count_binary_end_to_end(tmp_path):
    stream = sample_stream()
    tag_file = tmp_path / "tags.bin"
    tag_file.write_bytes(to_binary(stream))
    out = tmp_path / "counts.json"
    code = run(["count", str(tag_file), "--n-windows", "30000",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["records"] == len(stream)
    assert doc["meta"]["windows"] == 30000
    want = count_coincidences(stream, cmap=ChannelMap.default(),
                              rep_period_ps=12_500, n_windows=30_000)
    got_patterns = {row[1]: row[2] for row in doc["rows"] if row[0] == "pattern"}
    assert got_patterns == {
        ":".join(map(str, key)): n for key, n in want.pattern_counts.items()
    }
    for row in doc["rows"]:
        if row[0] == "mask":
            assert row[1].startswith("0x") and len(row[1]) == 6


def test_count_csv_input_matches_binary(tmp_path):
    stream = sample_stream()
    bin_file = tmp_path / "tags.bin"
    bin_file.write_bytes(to_binary(stream))
    csv_file = tmp_path / "tags.csv"
    csv_file.write_text(to_csv(stream))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(["count", str(bin_file), "--input-format", "binary",
                "--format", "json", "--out", str(out_a)]) == 0
    assert run(["count", str(csv_file), "--input-format", "csv",
                "--format", "json", "--out", str(out_b)]) == 0
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    assert doc_a["rows"] == doc_b["rows"]


def test_count_custom_map_file(tmp_path):
    # interleaved partition instead of the default contiguous blocks
    modes = ("a_h", "a_v", "b_h", "b_v")
    lines = [f"{ch}={modes[ch % 4]}" for ch in range(16)]
    map_file = tmp_path / "map.txt"
    map_file.write_text("# interleaved\n" + "\n".join(lines) + "\n")
    stream = sample_stream()
    tag_file = tmp_path / "tags.bin"
    tag_file.write_bytes(to_binary(stream))
    out = tmp_path / "counts.json"
    code = run(["count", str(tag_file), "--map", str(map_file),
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    cmap = ChannelMap.from_text(map_file.read_text())
    want = count_coincidences(stream, cmap=cmap, rep_period_ps=12_500)
    got_patterns = {row[1]: row[2] for row in doc["rows"] if row[0] == "pattern"}
    assert got_patterns == {
        ":".join(map(str, key)): n for key, n in want.pattern_counts.items()
    }


def test_count_bad_map_file_exit(tmp_path, capsys):
    map_file = tmp_path / "map.txt"
    map_file.write_text("0=a_h\n")  # 15 channels unassigned
    tag_file = tmp_path / "tags.bin"
    tag_file.write_bytes(to_binary(sample_stream()))
    assert run(["count", str(tag_file), "--map", str(map_file)]) == 3
    assert "unassigned" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    (b"70000,60", "line 2: unknown channel 70000"),
    (f"3,{2 ** 64}".encode(), f"line 2: time {2 ** 64} ps does not fit in 64 bits"),
    (b"# caf\xe9", "line 2: not UTF-8 text"),
])
def test_count_out_of_range_text_field_is_located(tmp_path, capsys, line, message):
    tag_file = tmp_path / "tags.csv"
    tag_file.write_bytes(b"3,50\n" + line + b"\n4,60\n")
    assert run(["count", str(tag_file), "--input-format", "csv"]) == 3
    assert message in capsys.readouterr().err


def test_count_auto_takes_a_file_with_nul_bytes_for_binary(tmp_path):
    # channel 9 is a tab and times 49 and 50 start with the digits '1' and
    # '2': UTF-8 that starts with a digit, made binary by its NUL bytes
    tag_file = tmp_path / "tags.dat"
    tag_file.write_bytes(to_binary(TimetagStream.from_records([(9, 49), (9, 50)])))
    outs = []
    for fmt in ("auto", "binary"):
        out = tmp_path / f"{fmt}.json"
        assert run(["count", str(tag_file), "--input-format", fmt, "--format", "json",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["meta"]["records"] == 2


@pytest.mark.parametrize("argv", [
    ["--rep-period", "0", "--window", "inf"],
    *(["--window", w] for w in ("nan", "0", "-5", "0.5", "inf")),
    ["--rep-period", "0", "--n-windows", "99"],
])
def test_count_window_and_pulse_count_outside_their_rule_are_usage_errors(
        tmp_path, capsys, argv):
    tag_file = tmp_path / "tags.csv"
    tag_file.write_text("0,100\n1,200\n2,20000\n3,20100\n")
    assert run(["count", str(tag_file), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert ("--rep-period" if "--n-windows" in argv else "at least 1 ps") in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--rep-period", "-5"], "--rep-period must be >= 0"),
    (["--n-windows", "-1"], "--n-windows must be >= 0"),
])
def test_count_refuses_a_negative_period_or_pulse_count_before_opening_the_file(
        tmp_path, capsys, argv, message):
    # a missing file would exit 3: the settings are checked first
    assert run(["count", str(tmp_path / "nope.bin"), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--window", "0"], "at least 1 ps"),
    (["--rep-period", "0", "--window", "inf"], "at least 1 ps"),
    (["--window", "20000"], "must not exceed the repetition period"),
])
def test_count_refuses_a_bad_window_before_opening_the_file(tmp_path, capsys, argv, message):
    # the window rule of count_coincidences, checked before the missing file is opened
    assert run(["count", str(tmp_path / "nope.bin"), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("rep", ["12500", "0"])
def test_count_fractional_window_keeps_a_click_below_it(tmp_path, rep):
    # 2500 ps into the window: inside a 2500.5 ps window in both modes
    tag_file = tmp_path / "tags.csv"
    tag_file.write_text("0,0\n1,2500\n")
    out = tmp_path / "counts.json"
    assert run(["count", str(tag_file), "--rep-period", rep, "--window", "2500.5",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert ["mask", "0x0003", 1] in doc["rows"] and doc["meta"]["late_clicks"] == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_count_writes_many_mask_rows_alike_to_stdout_and_to_a_file(tmp_path, capsys, fmt):
    # pulse i clicks the channels of mask i + 1: more distinct masks than one chunk of rows
    pulses = _CHUNK_ROWS + 904
    masks = np.arange(1, pulses + 1)
    pulse, ch = np.nonzero((masks[:, None] >> np.arange(16)) & 1)
    tag_file = tmp_path / "many.bin"
    tag_file.write_bytes(to_binary(TimetagStream(channels=ch.astype(np.uint8),
                                                 times=(pulse * 12_500).astype(np.uint64))))
    argv = ["count", str(tag_file), "--format", fmt]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"count.{fmt}"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text() == printed
    mask_rows = [line for line in printed.splitlines() if "mask" in line]
    assert len(mask_rows) == pulses


def test_fisher_refuses_bad_ml_settings_before_the_bootstrap_band(monkeypatch, capsys):
    def band(*args, **kwargs):
        raise AssertionError("bootstrap band reached")

    monkeypatch.setattr(estimation, "bootstrap_fisher_band", band)
    assert run(["fisher", "--ml-reps", "1"]) == 2
    assert "repetitions >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0", "inf", "nan"])
def test_fisher_refuses_a_bad_band_count_before_any_estimate(monkeypatch, capsys, value):
    def reached(*args, **kwargs):
        raise AssertionError("estimation reached")

    monkeypatch.setattr(estimation, "monte_carlo_ml_fisher", reached)
    monkeypatch.setattr(estimation, "bootstrap_fisher_band", reached)
    assert run(["fisher", "--counts-per-phase", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --counts-per-phase") and err.count("\n") == 1


def test_count_missing_file_exit(tmp_path, capsys):
    assert run(["count", str(tmp_path / "nope.bin")]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# table rendering


def _table(n):
    """``n`` rows [i, "k<i>", i / 4]: their one part, and the rows JSON reads."""
    i = np.arange(n)
    return [(("%d", '"k%d"', "%r"), [i, i, 0.25 * i])], [[k, f"k{k}", 0.25 * k] for k in range(n)]


_CHUNK_COUNTS = (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS)
_ML_POINTS = {"ml_points": [{"phi": 0.5, "i_ml": 1.5}]}
_FLOATS = np.array([-0.0, 1e300, 5e-324, 0.1])
_FLOAT32S = np.array([0.1, -0.0, 1.5, 3e38], dtype=np.float32)
_INT64S = np.array([0, 1, -7, 2 ** 62, 2 ** 62 + 1], dtype=np.int64)


@pytest.mark.parametrize("parts, rows, extra, meta", [
    ([(("%r", "%r"), [_FLOATS, _FLOAT32S])],
     [[x, y.item()] for x, y in zip(_FLOATS.tolist(), _FLOAT32S)], None, {}),
    # an all-int64 part stays int64, so 2**62 + 1 is not rounded to a float
    ([(("%d", "%d"), [_INT64S, _INT64S[::-1]])],
     [[a, b] for a, b in zip(_INT64S.tolist(), _INT64S[::-1].tolist())], None, {}),
    ([(('"mask"', '"%#06x"', "%d"), [[1], [3]])], [["mask", "0x0001", 3]], None, {}),
    ([], [], None, {}),
    ([(("%r", "%r"), [[0.1, 0.2], [2.0, 3.0]])], [[0.1, 2.0], [0.2, 3.0]], _ML_POINTS, {}),
    ([(("%d", '"x"'), [[1]]), (("%d", '"y"'), [[2]])], [[1, "x"], [2, "y"]], None,
     {"rows": [[9]], "columns": "c", "n": 2}),
    *[(*_table(n), None, {"n": n}) for n in _CHUNK_COUNTS],
    (*_table(2 * _CHUNK_ROWS + 3), _ML_POINTS, {"n": 1}),
], ids=["numbers", "int64", "one_row", "empty", "extra_section", "meta_rows_key",
        *[f"rows_{n}" for n in _CHUNK_COUNTS], "chunks_and_extra_section"])
def test_json_render_equals_the_indented_encoder(parts, rows, extra, meta):
    doc = {"meta": meta, "columns": ["c1", "c2"], "rows": rows, **(extra or {})}
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "".join(_render(meta, ["c1", "c2"], parts, "json", extra)) == want


@pytest.mark.parametrize("n, extra", [
    *[(n, None) for n in _CHUNK_COUNTS],
    (2 * _CHUNK_ROWS + 3, _ML_POINTS),
], ids=[*[f"rows_{n}" for n in _CHUNK_COUNTS], "chunks_and_extra_section"])
def test_csv_render_lays_out_meta_sections_header_then_rows(n, extra):
    meta = {"command": "t", "x": 0.1, "n": n}
    want = f"# command = t\n# x = 0.1\n# n = {n}\n"
    if extra:
        want += '# ml_points: [{"i_ml": 1.5, "phi": 0.5}]\n'
    want += "c1,c2,c3\n" + "".join(f"{i},k{i},{0.25 * i:.12g}\n" for i in range(n))
    assert "".join(_render(meta, ["c1", "c2", "c3"], _table(n)[0], "csv", extra)) == want


def _shuffled_counts(n, seed=0):
    """Counts of ``n`` distinct masks, 0 and 0xFFFF among them, as a dict in
    shuffled order."""
    rng = np.random.default_rng(seed)
    masks = rng.permutation(np.r_[0, 0xFFFF, rng.choice(np.arange(1, 0xFFFF), n, replace=False)][:n])
    return dict(zip(masks.tolist(), rng.integers(1, 1 << 62, n).tolist()))


def _histogram(n, seed=0):
    """A histogram of ``_shuffled_counts(n, seed)``, built by hand."""
    counts = _shuffled_counts(n, seed)
    return PatternHistogram(counts=counts, windows=sum(counts.values()), window_ps=2500.0)


_COUNT_TABLE_MASKS = (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3)
_PATTERN_COUNTS = {(4, 0, 1, 2): 5, (0, 0, 0, 0): 2 ** 62, (0, 3, 0, 1): 1, (1, 0, 0, 0): 0}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("patterns", [{}, _PATTERN_COUNTS], ids=["masks", "masks_patterns"])
@pytest.mark.parametrize("n", _COUNT_TABLE_MASKS)
def test_count_table_templates_write_the_generic_render(n, patterns, fmt):
    hist = _histogram(n)
    rows = [["mask", f"{mask:#06x}", c] for mask, c in sorted(hist.counts.items())]
    rows += [["pattern", ":".join(map(str, key)), c] for key, c in sorted(patterns.items())]
    meta = {"command": "count", "masks": n}
    if fmt == "json":
        want = json.dumps({"meta": meta, "columns": ["kind", "key", "count"], "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    else:
        want = f"# command = count\n# masks = {n}\nkind,key,count\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows)
    pieces = list(_render(meta, ["kind", "key", "count"], cli._count_parts(hist, patterns), fmt))
    assert "".join(pieces) == want
    # the head, a piece per chunk of each kind of row, the close
    assert len(pieces) == 2 + -(-n // _CHUNK_ROWS) + (1 if patterns else 0)


def test_a_histogram_is_read_alike_in_any_dict_order():
    shuffled_counts = _shuffled_counts(_CHUNK_ROWS + 5, seed=3)
    sorted_counts = dict(sorted(shuffled_counts.items()))
    assert list(shuffled_counts) != list(sorted_counts)
    windows = sum(shuffled_counts.values())
    shuffled, ordered = (PatternHistogram(counts=c, windows=windows, window_ps=2500.0)
                         for c in (shuffled_counts, sorted_counts))
    counter = timetags._WindowCounter(2500.0, timetags.DEFAULT_REP_PERIOD_PS)
    counter.bins[list(shuffled_counts)] = list(shuffled_counts.values())
    counter.occupied = windows
    counted = counter.histogram(windows)
    assert list(shuffled.counts) == list(counted.counts) == list(sorted_counts)
    for fmt in ("json", "csv"):
        tables = {"".join(_render({}, ["kind", "key", "count"],
                                  cli._count_parts(h, h.reduce(ChannelMap.default())), fmt))
                  for h in (shuffled, ordered, counted)}
        assert len(tables) == 1
    for cmap in (ChannelMap.default(), ChannelMap(tuple(MODES[c % 4] for c in range(16)))):
        reduced = [h.reduce(cmap) for h in (shuffled, ordered, counted)]
        assert reduced[0] == reduced[1] == reduced[2]
        assert list(reduced[0]) == sorted(reduced[0])
    assert shuffled.total_clicks() == ordered.total_clicks() == counted.total_clicks()
    assert shuffled == ordered == counted and repr(counted) == repr(ordered)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_memory_does_not_grow_with_the_row_count(tmp_path, fmt):
    def peak(n):
        i = np.arange(n)
        parts = [(('"mask"', '"%#06x"', "%d"), [i, i])]
        with open(tmp_path / f"t{n}.{fmt}", "w") as fh:
            tracemalloc.start()
            try:
                fh.writelines(_render({"n": n}, ["kind", "key", "count"], parts, fmt))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    small, large = peak(8192), peak(65536)
    assert large <= 1.5 * small


def _small_argv(command, tmp_path):
    """``command`` at settings small enough to run in a second or two."""
    if command == "calibrate":
        src = SourceParams(0.061)
        rates = model_rate_summary(src, detector_for_source(src, 4, 0.23, 0.12))
        path = tmp_path / "rates.csv"
        path.write_text(f"{rates.singles_a!r},{rates.singles_b!r},{rates.twofold!r}\n")
        return ["calibrate", str(path)]
    if command == "count":
        path = tmp_path / "tags.csv"
        path.write_text("0,100\n1,200\n2,12600\n3,12700\n5,25000\n")
        return ["count", str(path)]
    return {"fringes": ["fringes", "--phi-steps", "7", "--theta", "0.3"],
            "fisher": ["fisher", "--phi-steps", "8", "--bootstrap", "2", "--ml-reps", "2",
                       "--ml-samples", "100"],
            "herald": ["herald", "--tau", "0.1", "--etas", "0.9,1.0", "--k-max", "2"],
            "curve": ["curve", "--d", "0", "--tau", "0.3", "--eta-steps", "3"]}[command]


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_command_writes_the_json_of_the_stdlib_encoder(command, tmp_path, capsys,
                                                             monkeypatch):
    handed, render = [], cli._render  # the rows each command hands the writer

    def spy(meta, columns, parts, fmt, extra_sections=None):
        handed.extend(row for _, arrays in parts for row in np.stack(arrays, axis=1).tolist())
        return render(meta, columns, parts, fmt, extra_sections)

    monkeypatch.setattr(cli, "_render", spy)
    assert run(_small_argv(command, tmp_path) + ["--format", "json"]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)
    assert doc["meta"]["command"] == command and doc["rows"]
    assert printed == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if command != "count":  # its keys are text; every other cell reads back exactly
        assert doc["rows"] == handed


# ---------------------------------------------------------------------------
# curve


def test_curve_orderings(tmp_path):
    out = tmp_path / "curve.json"
    code = run(["curve", "--tau", "0.05", "--d", "0", "--eta-start", "0.25",
                "--eta-stop", "1.0", "--eta-steps", "4",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["eta", "fisher_max", "phi_opt", "delta_phi",
                              "normalized_uncertainty", "heisenberg_normalized"]
    rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    assert rows[-1]["eta"] == pytest.approx(1.0)
    assert rows[-1]["normalized_uncertainty"] < 1.0  # beats shot noise
    for row in rows:
        assert row["normalized_uncertainty"] >= row["heisenberg_normalized"] - 1e-9
    assert doc["meta"]["heisenberg_limit"] > 0.0


@pytest.mark.parametrize("option", ["--theta", "--eta-a", "--eta-b"])
def test_curve_refuses_the_options_it_never_reads(option, capsys):
    # curve sweeps one balanced transmission with no control rotation
    with pytest.raises(SystemExit) as info:
        main(["curve", option, "0.5"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: spdcmet ")
    assert captured.err.endswith(f"spdcmet: error: unrecognized arguments: {option} 0.5\n")


def test_number_resolving_curve_matches_the_direct_tensor(tmp_path):
    out = tmp_path / "curve.json"
    assert run(["curve", "--d", "0", "--tau", "0.3", "--eta-steps", "2",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    src = SourceParams(0.3)
    for row in doc["rows"]:
        eta, fisher_max, phi_opt = row[:3]
        det = detector_for_source(src, None, eta, eta)
        h = 1e-5  # independent of the compiled series: central differences of the tensor
        p, up, down = (click_probability_tensor(src, RotationSpec(phi_opt + s), det).ravel()
                       for s in (0.0, h, -h))
        dp = (up - down) / (2.0 * h)
        kept = p > 1e-14  # the curve's floor rule: terms of smaller probabilities are dropped
        direct = float(np.where(kept, dp * dp / np.where(kept, p, 1.0), 0.0).sum())
        assert fisher_max == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["fringes", "--phi-steps", "25"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fisher_rerun_identical_with_sampling(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["fisher", "--phi-steps", "8", "--bootstrap", "4",
            "--counts-per-phase", "1000", "--ml-reps", "2",
            "--ml-samples", "100", "--seed", "11", "--format", "json"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_stdout_is_default_sink(capsys):
    assert run(["fringes", "--phi-steps", "5"]) == 0
    captured = capsys.readouterr().out
    assert "phi,p2002" in captured


def test_invalid_gain_is_usage_error(capsys):
    assert run(["fringes", "--tau", "-0.5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["fringes", "--tau", "1.2"]) == 2


@pytest.mark.parametrize("argv", [["fringes", "--tau", "0"], ["fringes", "--eta-a", "0"],
                                  ["fisher", "--eta-b", "0"],
                                  ["curve", "--eta-start", "0", "--eta-steps", "2"]])
def test_configuration_that_measures_nothing_is_a_usage_error(argv, capsys):
    # a class of zero probability, or no transmission, would write nan rows
    # or a perfect 0 uncertainty; nothing but the error line is written
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert ("gain and transmission" in captured.err
            or "transmission must be positive" in captured.err)


@pytest.mark.parametrize("argv, message", [
    (["fringes", "--phi-start", "nan"], "phase grid"),
    (["fringes", "--theta", "nan"], "--theta must be finite"),
    (["fringes", "--theta", "inf"], "--theta must be finite"),
    (["fisher", "--phi-stop", "inf", "--bootstrap", "0", "--ml-reps", "0"], "phase grid"),
    # finite bounds whose step overflows
    (["fringes", "--phi-start", "1e308", "--phi-stop=-1e308"], "phase grid"),
])
def test_a_non_finite_phase_grid_or_theta_is_a_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["fisher", "--ml-reps", "1"], "repetitions >= 2"),
    (["fisher", "--ml-reps", "2", "--ml-samples", "0"], "sample_size >= 1"),
    (["fisher", "--ml-reps", "-1"], "repetitions >= 2"),
    (["fisher", "--bootstrap", "-1"], "at least one replicate"),
    (["fisher", "--d", "-1"], "at least one detector"),
    (["fisher", "--d", "-2"], "at least one detector"),
    (["fringes", "--d", "-1"], "at least one detector"),
    (["curve", "--d", "-1"], "at least one detector"),
    (["fisher", "--d", "1"], "click range"),  # one detector per mode cannot click twice
    (["fringes", "--d", "1"], "click range"),
])
def test_settings_that_measure_nothing_are_usage_errors(argv, message, capsys):
    # these used to raise a traceback, or to skip the stage and exit 0
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("command", ["fringes", "fisher", "curve"])
def test_truncation_bound_below_rounding_is_a_usage_error(command, capsys, monkeypatch):
    # refused before any cutoff is chosen or any series compiled
    def compile_nothing(src):
        raise AssertionError("a cutoff was chosen")

    monkeypatch.setattr("spdcmet.engine.choose_truncation", compile_nothing)
    assert run([command, "--tau", "0.99", "--eps", "1e-30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "trunc_epsilon must lie in [1e-15, 1), got 1e-30" in captured.err


def test_empty_phi_grid_is_usage_error(capsys):
    assert run(["fringes", "--phi-steps", "0"]) == 2
    assert "phi-steps" in capsys.readouterr().err


def test_commands_run_without_importing_scipy():
    # scipy is a test-only dependency, installed wherever the tests run
    script = ("import sys, spdcmet.cli as cli\n"
              "assert cli.main(['herald', '--tau', '0.05', '--etas', '0.9']) == 0\n"
              "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    package_root = str(Path(spdcmet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 2


SUBCOMMANDS = ("fringes", "fisher", "calibrate", "herald", "count", "curve")


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in SUBCOMMANDS),
    *([name, "--bogus"] for name in SUBCOMMANDS),
    ["fringes", "--phi-steps", "x"], ["fisher", "--tau"], ["calibrate"], ["count"],
    ["count", "f", "--input-format", "z"], ["herald", "--format", "xml"], ["herald", "herald"],
    ["curve", "--eta-steps", "2"], ["fisher", "--ml-reps", "3", "--seed", "4"],
    ["calibrate", "r.csv", "--out", "o"], ["count", "t.bin", "--map", "m", "--n-windows", "9"],
])
def test_a_lone_subcommand_parser_reads_like_the_full_one(argv, capsys):
    def parse(parser):
        try:
            outcome = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            outcome = None, exc.code
        return outcome, capsys.readouterr()

    lone = build_parser(argv[0])
    assert [list(a.choices) for a in lone._actions if a.choices and a.dest == "command"] \
        == [[argv[0]]]
    assert parse(lone) == parse(build_parser())


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["frobnicate"], ["heral"],
                                  ["-h", "herald"]])
def test_a_top_level_invocation_builds_every_subcommand(argv, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser(command))
    with pytest.raises(SystemExit):
        main(argv)
    assert built == [argv[0] if argv else None]
    assert [list(a.choices) for a in build_parser(*built)._actions
            if a.choices and a.dest == "command"] == [list(SUBCOMMANDS)]
    captured = capsys.readouterr()
    assert "{" + ",".join(SUBCOMMANDS) + "}" in captured.out + captured.err
