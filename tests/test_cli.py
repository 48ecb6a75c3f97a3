"""End-to-end runs of the console entry point.

Each test drives ``main`` with argv and inspects the written file, the
exit code, or stderr.  Physics-level assertions live in the per-module
suites; here we check plumbing: column layout, metadata, exit codes,
format parity, and determinism.
"""
import json
import math

import numpy as np
import pytest

from spdcmet.calibration import model_rate_summary
from spdcmet.cli import main
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
    ChannelMap,
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
                                  ["herald", "--tau", "0.05", "--k-max", "40"]])
def test_herald_count_outside_the_support_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


def test_count_missing_file_exit(tmp_path, capsys):
    assert run(["count", str(tmp_path / "nope.bin")]) == 3
    assert "error:" in capsys.readouterr().err


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
        direct = float((dp * dp / np.maximum(p, 1e-12)).sum())
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


def test_empty_phi_grid_is_usage_error(capsys):
    assert run(["fringes", "--phi-steps", "0"]) == 2
    assert "phi-steps" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 2
