"""Timetag parsing, coincidence windows, and the synthetic generator."""

from types import SimpleNamespace

import numpy as np
import pytest

from spdcmet.engine import detector_for_source, full_pattern_distribution
from spdcmet.fock import RotationSpec, SourceParams
from spdcmet.timetags import (
    ChannelMap,
    ParseError,
    TimetagFile,
    TimetagStream,
    count_coincidences,
    generate_synthetic_timetags,
    parse_timetags_binary,
    parse_timetags_text,
    to_binary,
    to_csv,
)


def small_distribution(phi=1.0, tau=0.08):
    src = SourceParams(tau)
    det = detector_for_source(src, 4, 0.3, 0.25)
    return full_pattern_distribution(RotationSpec(phi), src, det)


def dense_distribution():
    # bright source and good counters, ~0.07 records per pulse
    src = SourceParams(0.15)
    det = detector_for_source(src, 4, 0.8, 0.7)
    return full_pattern_distribution(RotationSpec(1.0), src, det)


# ---------------------------------------------------------------------------
# parsing


def test_empty_inputs_parse_to_empty_streams():
    assert len(parse_timetags_text("")) == 0
    assert len(parse_timetags_binary(b"")) == 0


def test_text_round_trip_of_large_synthetic_stream():
    stream = generate_synthetic_timetags(dense_distribution(), pulses=1_500_000, seed=4)
    assert len(stream) > 100_000
    again = parse_timetags_text(to_csv(stream))
    assert again == stream


def test_binary_round_trip_of_large_synthetic_stream():
    stream = generate_synthetic_timetags(dense_distribution(), pulses=1_500_000, seed=4)
    again = parse_timetags_binary(to_binary(stream))
    assert again == stream


def test_corrupted_text_line_is_located():
    text = "0,100\n1,200\nbogus\n2,300\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_timetags_text(text)


def test_unknown_channel_rejected_with_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_timetags_text("3,50\n16,60\n")


def test_truncated_binary_record_is_located():
    stream = TimetagStream.from_records([(0, 100), (1, 200), (2, 300)])
    blob = to_binary(stream)[:-4]  # chop mid-record
    with pytest.raises(ParseError, match="byte 18"):
        parse_timetags_binary(blob)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n0,10\n# mid\n1,20\n"
    stream = parse_timetags_text(text)
    assert list(stream.channels) == [0, 1]


def test_reorder_buffer_sorts_small_jitter_but_rejects_big_jumps():
    ok = parse_timetags_text("0,1000\n1,400\n")
    assert list(ok.times) == [400, 1000]
    with pytest.raises(ParseError, match="line 2"):
        parse_timetags_text("0,10000\n1,400\n")


def test_path_and_filelike_dispatch(tmp_path):
    stream = generate_synthetic_timetags(small_distribution(), pulses=200, seed=2)
    csv_file = tmp_path / "tags.csv"
    csv_file.write_text(to_csv(stream))
    bin_file = tmp_path / "tags.bin"
    bin_file.write_bytes(to_binary(stream))
    for path in (csv_file, str(bin_file)):  # "auto" input; one block each
        [block] = TimetagFile(path)
        assert block == stream


# ---------------------------------------------------------------------------
# coincidence counting


def test_two_clicks_form_one_pattern():
    stream = TimetagStream.from_records([(0, 100), (5, 600)])
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500)
    assert res.histogram.counts == {(1 << 0) | (1 << 5): 1}
    assert res.pattern_counts == {(1, 1, 0, 0): 1}


def test_narrow_window_splits_coincidence():
    records = [(0, 0), (5, 800)]
    wide = count_coincidences(TimetagStream.from_records(records), window_ps=1000)
    assert wide.histogram.counts == {(1 << 0) | (1 << 5): 1}
    narrow = count_coincidences(TimetagStream.from_records(records), window_ps=500)
    assert narrow.histogram.counts == {1 << 0: 1, 1 << 5: 1}


def test_duplicate_channel_clicks_collapse():
    stream = TimetagStream.from_records([(3, 10), (3, 40), (3, 90)])
    res = count_coincidences(stream, window_ps=200, rep_period_ps=1000)
    assert res.histogram.counts == {1 << 3: 1}
    assert res.histogram.total_clicks() == 1


def test_empty_windows_enter_the_zero_bin():
    stream = TimetagStream.from_records([(0, 0), (1, 25_000)])
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500, n_windows=5)
    assert res.histogram.counts[0] == 3
    assert res.histogram.windows == 5
    with pytest.raises(ValueError):
        count_coincidences(stream, window_ps=2500, rep_period_ps=12500, n_windows=1)


def test_window_wider_than_period_rejected():
    stream = TimetagStream.from_records([(0, 0)])
    with pytest.raises(ValueError):
        count_coincidences(stream, window_ps=20_000, rep_period_ps=12_500)


def test_late_clicks_fall_outside_the_window():
    stream = TimetagStream.from_records([(0, 100), (1, 5000)])
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500)
    assert res.histogram.counts == {1 << 0: 1}


def test_histogram_conserves_accepted_records():
    dist = small_distribution()
    stream = generate_synthetic_timetags(dist, pulses=30_000, seed=7, jitter_ps=100)
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500,
                             n_windows=30_000)
    # jitter < window, one click per channel: every record is accepted
    assert res.histogram.total_clicks() == len(stream)
    assert sum(res.histogram.counts.values()) == 30_000


def test_reduction_is_consistent_with_histogram():
    stream = generate_synthetic_timetags(small_distribution(), pulses=5000, seed=3)
    cmap = ChannelMap.default()
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500, cmap=cmap)
    assert res.pattern_counts == res.histogram.reduce(cmap)
    total = sum(res.pattern_counts.values())
    assert total == res.histogram.windows


# ---------------------------------------------------------------------------
# synthetic generator


def test_zero_gain_source_emits_nothing():
    src = SourceParams(0.0)
    det = detector_for_source(src, 4, 0.5, 0.5)
    dist = full_pattern_distribution(RotationSpec(0.3), src, det)
    stream = generate_synthetic_timetags(dist, pulses=1000, seed=0)
    assert len(stream) == 0


def one_click_distribution(*extra):
    """Every pulse clicks once in mode a_h, unless ``extra`` patterns take
    some of the probability."""
    return SimpleNamespace(patterns=[(1, 0, 0, 0), *extra],
                           probs=[1.0 - 0.1 * len(extra)] + [0.1] * len(extra))


@pytest.mark.parametrize("pattern", [(5, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0)])
def test_generator_rejects_per_mode_counts_outside_0_to_4(pattern):
    dist = one_click_distribution(pattern)
    with pytest.raises(ValueError, match=r"pattern 1 .*: expected 4 per-mode click "
                                         r"counts, each 0\.\.4"):
        generate_synthetic_timetags(dist, pulses=10)


@pytest.mark.parametrize("probs, message", [
    ([np.nan, 0.5], "non-finite"),
    ([np.inf, 0.5], "non-finite"),
    ([0.5, -np.inf], "non-finite"),
    ([0.5, 0.2, 0.1], r"2 patterns but probabilities of shape \(3,\)"),
    ([[0.5, 0.2]], r"2 patterns but probabilities of shape \(1, 2\)"),
], ids=["nan", "inf", "minus-inf", "too-many", "two-dimensional"])
def test_generator_rejects_probabilities_choice_would_reject(probs, message, monkeypatch):
    dist = SimpleNamespace(patterns=[(1, 0, 0, 0), (0, 1, 0, 0)], probs=probs)
    monkeypatch.setattr(np.random, "default_rng", None)  # raised before any draw
    with pytest.raises(ValueError, match=message):
        generate_synthetic_timetags(dist, pulses=10)


@pytest.mark.parametrize("period", [-5, 0])
def test_generator_rejects_a_period_below_1_ps(period):
    with pytest.raises(ValueError, match="rep_period_ps must be >= 1"):
        generate_synthetic_timetags(one_click_distribution(), pulses=10, rep_period_ps=period)


def test_generator_rejects_times_that_reach_2_60_ps():
    with pytest.raises(ValueError, match=r"= 41505174165846491136 ps reaches .* 2\^60 ps"):
        generate_synthetic_timetags(one_click_distribution(), pulses=10,
                                    rep_period_ps=2**62, jitter_ps=0)
    with pytest.raises(ValueError, match=r"2\^60 ps limit"):  # latest time exactly 2^60 ps
        generate_synthetic_timetags(one_click_distribution(), pulses=2,
                                    rep_period_ps=2**60 - 100, jitter_ps=100)


def test_generator_times_reach_just_below_2_60_ps():
    period = 2**60 - 101
    stream = generate_synthetic_timetags(one_click_distribution(), pulses=2,
                                         rep_period_ps=period, jitter_ps=100, seed=1)
    assert set(stream.channels.tolist()) <= {0, 1, 2, 3}  # mode a_h
    assert len(stream) == 2 and stream.times[0] <= 100
    assert period <= int(stream.times[1]) <= 2**60 - 1


def test_generator_is_seed_deterministic():
    dist = small_distribution()
    a = generate_synthetic_timetags(dist, pulses=20_000, seed=12)
    b = generate_synthetic_timetags(dist, pulses=20_000, seed=12)
    assert to_binary(a) == to_binary(b)
    c = generate_synthetic_timetags(dist, pulses=20_000, seed=13)
    assert to_binary(c) != to_binary(a)


def test_pattern_frequencies_match_the_model():
    dist = small_distribution(phi=1.0)
    pulses = 200_000
    stream = generate_synthetic_timetags(dist, pulses=pulses, seed=21)
    res = count_coincidences(stream, window_ps=2500, rep_period_ps=12500,
                             n_windows=pulses)
    probs = dist.as_dict()
    for pattern, p in probs.items():
        if p < 1e-4:
            continue
        n = res.pattern_counts.get(pattern, 0)
        sigma = np.sqrt(pulses * p * (1 - p))
        assert abs(n - pulses * p) < 6 * sigma


# ---------------------------------------------------------------------------
# channel maps


def test_default_map_blocks_of_four():
    cmap = ChannelMap.default()
    assert cmap.channels_of("a_h") == (0, 1, 2, 3)
    assert cmap.channels_of("b_v") == (12, 13, 14, 15)
    masks = cmap.mode_masks()
    assert masks["a_h"] == 0x000F
    assert masks["b_v"] == 0xF000


def test_map_parses_and_validates_partitions():
    lines = "\n".join(f"{ch}={mode}" for ch, mode in [
        (0, "a_h"), (4, "a_h"), (8, "a_h"), (12, "a_h"),
        (1, "a_v"), (5, "a_v"), (9, "a_v"), (13, "a_v"),
        (2, "b_h"), (6, "b_h"), (10, "b_h"), (14, "b_h"),
        (3, "b_v"), (7, "b_v"), (11, "b_v"), (15, "b_v"),
    ])
    cmap = ChannelMap.from_text(lines)
    assert cmap.channels_of("a_h") == (0, 4, 8, 12)
    with pytest.raises(ParseError):
        ChannelMap.from_text(lines.replace("15=b_v", "15=a_h"))
