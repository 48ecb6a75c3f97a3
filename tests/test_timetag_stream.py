"""Block-streamed timetag counting: block boundaries, the reorder rule,
dropped-record reporting, property checks and bounded memory."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdcmet
from spdcmet import cli, timetags
from spdcmet.engine import detector_for_source, full_pattern_distribution
from spdcmet.fock import RotationSpec, SourceParams
from spdcmet.timetags import (
    MODES,
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

REP = 12_500
WINDOW = 2_500
BLOCKS = (1, 7, 64)


def raw_binary(records):
    """Pack (channel, time) pairs in the given arrival order, unsorted."""
    rec = np.empty(len(records), dtype=timetags._RECORD_DTYPE)
    rec["channel"] = [c for c, _ in records]
    rec["time"] = [t for _, t in records]
    return rec.tobytes()


def raw_csv(records):
    return "".join(f"{c},{t}\n" for c, t in records)


@contextmanager
def block_size(n):
    with mock.patch.object(timetags, "_BLOCK_RECORDS", n):
        yield


def reference_count(records, window_ps, rep_period_ps):
    """Loop-by-loop pattern counts of time-sorted (channel, time) pairs."""
    counts, late = {}, 0
    if rep_period_ps:
        windows = {}
        for c, t in records:
            if t % rep_period_ps < window_ps:
                windows[t // rep_period_ps] = windows.get(t // rep_period_ps, 0) | 1 << c
            else:
                late += 1
        for mask in windows.values():
            counts[mask] = counts.get(mask, 0) + 1
        span = max(windows) + 1 if windows else 0
        if span > len(windows):
            counts[0] = span - len(windows)
        return counts, late
    i = 0
    while i < len(records):
        start, mask = records[i][1], 0
        while i < len(records) and records[i][1] - start < window_ps:
            mask |= 1 << records[i][0]
            i += 1
        counts[mask] = counts.get(mask, 0) + 1
    return counts, late


def crlf_straddles_a_read(data, block):
    """Whether a \\r\\n pair of CSV ``data`` is split between two reads of a
    ``TimetagFile`` at ``block`` records a block."""
    size = block * timetags._RECORD_DTYPE.itemsize
    return any(data[i - 1:i + 1] == b"\r\n" for i in range(size, len(data), size))


def same_result(a, b):
    assert a.histogram == b.histogram
    assert a.pattern_counts == b.pattern_counts
    assert (a.late_clicks, a.reordered) == (b.late_clicks, b.reordered)


def counted(source, rep):
    return count_coincidences(source, window_ps=WINDOW, rep_period_ps=rep)


def by_time(records):
    return sorted(records, key=lambda r: r[1])


def dense_stream(pulses=3000, seed=5):
    src = SourceParams(0.15)
    det = detector_for_source(src, 4, 0.8, 0.7)
    dist = full_pattern_distribution(RotationSpec(1.0), src, det)
    return generate_synthetic_timetags(dist, pulses=pulses, seed=seed, jitter_ps=1500)


def shuffled_within(records, reorder_ps, seed):
    """Arrival order of time-sorted records, each delayed by less than
    reorder_ps / 2, so no record lands beyond the tolerance."""
    rng = np.random.default_rng(seed)
    delayed = [t + int(d) for (_, t), d in
               zip(records, rng.integers(0, reorder_ps // 2, size=len(records)))]
    order = sorted(range(len(records)), key=delayed.__getitem__)
    return [records[i] for i in order]


# ---------------------------------------------------------------------------
# reorder rule


def test_descending_chain_is_measured_against_the_running_maximum():
    chain = "0,3000\n1,2500\n2,2000\n3,1500\n4,1000\n"
    with pytest.raises(ParseError, match="line 4: time goes backwards by 1500 ps"):
        parse_timetags_text(chain)
    with pytest.raises(ParseError, match="record 4: time goes backwards by 1500 ps"):
        parse_timetags_binary(raw_binary([(0, 3000), (1, 2500), (2, 2000),
                                          (3, 1500), (4, 1000)]))


def test_first_offending_record_is_named():
    # a backwards jump on line 2 comes before the unknown channel on line 3
    with pytest.raises(ParseError, match="line 2: time goes backwards"):
        parse_timetags_text("0,9000\n1,10\n16,9000\n")
    with pytest.raises(ParseError, match="line 2: unknown channel 16"):
        parse_timetags_text("0,9000\n16,9000\n1,10\n")


def test_reordered_records_are_counted_and_stably_sorted():
    stream = parse_timetags_text("0,500\n1,900\n2,400\n3,900\n4,850\n")
    assert stream.reordered == 2
    assert list(stream.times) == [400, 500, 850, 900, 900]
    assert list(stream.channels) == [2, 0, 4, 1, 3]


def test_sorted_block_behind_the_running_maximum_is_reordered(tmp_path):
    # every block is in order by itself, but each block from the second on
    # starts up to 1000 ps behind the latest time of the blocks before it
    for block in BLOCKS:
        records, top = [], 10_000
        for b in range(6):
            start = top - (1000 if b % 2 else 300)
            records += [((b + i) % 16, start + 400 * i) for i in range(block)]
            top = max(top, records[-1][1])
        data = raw_binary(records)
        whole = parse_timetags_binary(data)
        assert whole.reordered > 0
        assert whole == TimetagStream.from_records(sorted(records, key=lambda r: r[1]))
        path = tmp_path / f"behind{block}.bin"
        path.write_bytes(data)
        with block_size(block):
            same_result(counted(TimetagFile(path), REP), counted(whole, REP))
        # one further behind, at the first record of the fourth block
        k = 3 * block
        top = max(t for _, t in records[:k])
        late = records[:k] + [(3, top - 1001)] + records[k + 1:]
        path.write_bytes(raw_binary(late))
        with pytest.raises(ParseError, match=f"record {k + 1}: time goes backwards "
                                             f"by 1001 ps") as whole_error:
            parse_timetags_binary(raw_binary(late))
        with block_size(block), pytest.raises(ParseError) as streamed:
            counted(TimetagFile(path), REP)
        assert str(streamed.value) == str(whole_error.value)


def test_sub_picosecond_first_click_window_is_rejected():
    # the window walk cannot advance when int(window_ps) is 0
    stream = TimetagStream.from_records([(0, 100), (1, 200)])
    with pytest.raises(ValueError, match="at least 1 ps"):
        count_coincidences(stream, window_ps=0.5)


@pytest.mark.parametrize("rep", [REP, None], ids=["clocked", "first_click"])
def test_one_window_rule_in_both_modes(rep):
    # a click at integer offset o joins its window iff o < window_ps; the
    # second click sits 2500 ps into the first window, the fourth 2501 ps
    # into the window of the third
    records = [(0, 0), (1, 2500), (2, REP), (3, REP + 2501)]
    stream = TimetagStream.from_records(records)
    cases = {  # window -> (clocked counts and late clicks, first-click counts)
        2500: ({0b1: 1, 0b100: 1}, 2, {0b1: 1, 0b10: 1, 0b100: 1, 0b1000: 1}),
        2500.5: ({0b11: 1, 0b100: 1}, 1, {0b11: 1, 0b100: 1, 0b1000: 1}),
        2501: ({0b11: 1, 0b100: 1}, 1, {0b11: 1, 0b100: 1, 0b1000: 1}),
        2501.25: ({0b11: 1, 0b1100: 1}, 0, {0b11: 1, 0b1100: 1}),
    }
    for window, (clocked, late, first_click) in cases.items():
        res = count_coincidences(stream, window_ps=window, rep_period_ps=rep)
        want = (clocked, late) if rep else (first_click, 0)
        assert (res.histogram.counts, res.late_clicks) == want
        assert reference_count(records, window, rep) == want
    for window in (float("nan"), float("inf"), -float("inf"), 0, 0.5, -5):
        with pytest.raises(ValueError, match="finite number of at least 1 ps"):
            count_coincidences(stream, window_ps=window, rep_period_ps=rep)


def test_n_windows_needs_a_pulse_clock():
    stream = TimetagStream.from_records([(0, 100), (1, 200)])
    with pytest.raises(ValueError, match="pulse clock"):
        count_coincidences(stream, n_windows=99)


def test_records_out_of_time_order_are_rejected():
    # within one stream and across two streams; a pulse clock checks pulse
    # numbers, first-click windows check times
    first = [(0, 3 * REP), (1, 3 * REP + 10)]
    for rep, late in [(REP, (2, 100)), (None, (2, 3 * REP + 5))]:
        for records in ([TimetagStream.from_records(first), TimetagStream.from_records([late])],
                        TimetagStream.from_records(first + [late])):
            with pytest.raises(ValueError, match="time-ordered"):
                count_coincidences(records, rep_period_ps=rep)


# ---------------------------------------------------------------------------
# late clicks and reordered records


def built_records(late, swaps):
    """One click per pulse for 40 pulses, plus ``late`` clicks past the
    window and ``swaps`` second clicks arriving 300 ps ahead of the first."""
    records = []
    for p in range(40):
        click = (p % 16, p * REP + 100)
        if p % 4 == 1 and p // 4 < swaps:
            records += [((p + 5) % 16, p * REP + 400), click]
        else:
            records.append(click)
        if p % 4 == 2 and p // 4 < late:
            records.append(((p + 3) % 16, p * REP + 5000))
    return records


@pytest.mark.parametrize("late,swaps", [(0, 0), (3, 0), (0, 4), (5, 2)])
def test_late_clicks_and_reordered_are_reported_at_every_block_size(
        tmp_path, monkeypatch, late, swaps):
    records = built_records(late, swaps)
    path = tmp_path / "built.bin"
    path.write_bytes(raw_binary(records))
    whole = counted(parse_timetags_text(raw_csv(records)), REP)
    assert (whole.late_clicks, whole.reordered) == (late, swaps)
    for block in BLOCKS:
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        same_result(counted(TimetagFile(path, "binary"), REP), whole)


def test_count_metadata_reports_late_and_reordered(tmp_path):
    path = tmp_path / "built.csv"
    path.write_text(raw_csv(built_records(late=3, swaps=2)))
    out = tmp_path / "out.csv"
    assert cli.main(["count", str(path), "--out", str(out)]) == 0
    meta = dict(line[2:].split(" = ") for line in out.read_text().splitlines()
                if line.startswith("# "))
    assert (meta["late_clicks"], meta["reordered"]) == ("3", "2")
    assert meta["records"] == "45"


# ---------------------------------------------------------------------------
# block boundaries


@pytest.mark.parametrize("rep", [REP, None], ids=["clocked", "first_click"])
def test_streamed_counts_equal_the_whole_stream_count(tmp_path, monkeypatch, rep):
    stream = dense_stream()
    later = [(int(c), int(t) + REP) for c, t in zip(stream.channels, stream.times)]
    arrival = [(0, 200)] + shuffled_within(later, 1000, seed=3)
    data = raw_binary(arrival)
    path = tmp_path / "tags.bin"
    path.write_bytes(data)
    inputs = [(path, "binary"), (path, "auto")]
    for name, newline in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        csv_path = tmp_path / f"tags_{name}.csv"
        csv_path.write_bytes(raw_csv(arrival).replace("\n", newline).encode())
        inputs += [(csv_path, "csv"), (csv_path, "auto")]
    whole = counted(parse_timetags_text(raw_csv(arrival)), rep)
    assert whole.reordered > 0
    assert whole.histogram.counts == reference_count(by_time(arrival), WINDOW, rep)[0]
    crlf = (tmp_path / "tags_crlf.csv").read_bytes()
    assert crlf_straddles_a_read(crlf, 1) and crlf_straddles_a_read(crlf, 7)
    for block in BLOCKS:
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        assert parse_timetags_binary(data) == TimetagStream.from_records(by_time(arrival))
        for src, fmt in inputs:
            tags = TimetagFile(src, fmt)
            assert tags.csv == (src != path)
            same_result(counted(tags, rep), whole)
            assert len(tags) == len(arrival)


@pytest.mark.parametrize("rep", [REP, None], ids=["clocked", "first_click"])
def test_whole_stream_its_slices_and_its_file_count_alike(tmp_path, monkeypatch, rep):
    # a whole in-memory stream is counted in slices of a file block; at 7
    # records a slice, some slice boundaries fall inside a pulse's window
    stream = dense_stream()
    later = [(int(c), int(t) + REP) for c, t in zip(stream.channels, stream.times)]
    arrival = [(0, 200)] + shuffled_within(later, 1000, seed=3)
    data = raw_binary(arrival)
    path = tmp_path / "tags.bin"
    path.write_bytes(data)
    whole = parse_timetags_binary(data)
    assert whole.reordered > 0
    one_block = counted([whole], rep)  # fed as a single block
    assert one_block.histogram.counts == reference_count(by_time(arrival), WINDOW, rep)[0]
    assert one_block.reordered == whole.reordered

    monkeypatch.setattr(timetags, "_BLOCK_RECORDS", 7)
    pulses = whole.times // np.uint64(REP)
    assert np.any(pulses[7::7] == pulses[6:-1:7])  # a window straddles a slice boundary
    fed = []
    feed = timetags._WindowCounter.feed
    monkeypatch.setattr(timetags._WindowCounter, "feed",
                        lambda self, block: fed.append(len(block)) or feed(self, block))
    same_result(counted(whole, rep), one_block)
    assert max(fed) == 7 and sum(fed) == len(whole)
    cuts = [0, 1, 50, 51, len(whole) // 2, len(whole)]
    slices = [TimetagStream(channels=whole.channels[a:b], times=whole.times[a:b])
              for a, b in zip(cuts, cuts[1:])]
    slices[0] = timetags._stream(slices[0].channels, slices[0].times, whole.reordered)
    same_result(counted(slices, rep), one_block)
    same_result(counted(TimetagFile(path, "binary"), rep), one_block)


def test_windows_and_reorders_straddling_a_block_boundary(tmp_path, monkeypatch):
    # at 7 records a block, block 1 ends inside pulse 0 and inside a
    # first-click window; the first record of block 2 sorts before the last
    # record of block 1
    records = [(0, 100), (1, 700), (2, 1200), (3, 1900), (4, 2100), (5, 2300),
               (6, 2400), (7, 2350), (8, 2450), (9, REP + 50)]
    path, csv_path = tmp_path / "straddle.bin", tmp_path / "straddle.csv"
    path.write_bytes(raw_binary(records))
    csv_path.write_text(raw_csv(records))
    for block, src in itertools.product(BLOCKS, (path, csv_path)):
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        for rep in (REP, None):
            res = counted(TimetagFile(src), rep)
            assert res.reordered == 1
            assert res.histogram.counts == reference_count(by_time(records), WINDOW, rep)[0]
        assert counted(TimetagFile(src), REP).histogram.counts == {0x1FF: 1, 1 << 9: 1}
        # one first-click window over every record, spanning all the blocks
        wide = count_coincidences(TimetagFile(src), window_ps=REP)
        assert wide.histogram.counts == {0x3FF: 1}


def test_forty_clicks_of_one_pulse_straddle_block_boundaries(tmp_path, monkeypatch):
    # one click in each of pulses 0-29, forty in pulse 30 (records 31-70,
    # across the block boundaries at 35, 42, ... and 64), one in pulse 31
    records = [(p % 16, p * REP + 300) for p in range(30)]
    records += [(i % 16, 30 * REP + 50 * i) for i in range(40)]
    records.append((5, 31 * REP + 10))
    path = tmp_path / "dense.bin"
    path.write_bytes(raw_binary(records))
    for block, rep in itertools.product(BLOCKS, (REP, None)):
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        res = counted(TimetagFile(path), rep)
        assert res.histogram.counts == reference_count(records, WINDOW, rep)[0]
        assert res.histogram.counts[0xFFFF] == 1


@pytest.mark.parametrize("step, n, windows", [
    (1000, 20_000, 6_667),  # one run of close clicks, three to a window
    (2500, 2_000, 2_000),  # every click is a window past the one before it
    (2499, 2_000, 1_000),  # two clicks to a window
], ids=["one_run", "gap_at_bound", "two_per_window"])
def test_long_first_click_runs_count_like_the_reference(monkeypatch, step, n, windows):
    # in a run of closer clicks every window but the first opens at the
    # first click past the end of the one before; in one block, the doubled
    # jumps take 13 rounds to find one_run's 6,667 windows
    records = [(i % 16, step * i) for i in range(n)]
    want = reference_count(records, WINDOW, None)[0]
    assert sum(want.values()) == windows
    stream = TimetagStream.from_records(records)
    for block in BLOCKS + (1 << 16,):
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        res = counted(stream, None)
        assert (res.histogram.counts, res.histogram.windows) == (want, windows)
    # two blocks of about n / 2 records: the window open at the end of the
    # first is carried into the second, and in a run its clicks join it
    cut = n // 2 + 1
    halves = [TimetagStream(stream.channels[:cut], stream.times[:cut]),
              TimetagStream(stream.channels[cut:], stream.times[cut:])]
    assert counted(halves, None).histogram.counts == want


@pytest.mark.parametrize("times, window", [
    ((18446744073709551000, 18446744073709551100), "2500"),
    # at one record a block the first is released alone, so its open window
    # is carried into the next block
    ((2**64 - 1 - 5000, 2**64 - 1 - 3000, 2**64 - 1), "10000"),
    # a window of 2^64 ps or more, which once overflowed on conversion
    ((0, 5), "2e19"),
], ids=["one_block", "carried", "window_past_2_64"])
def test_first_click_window_ending_past_2_64_ps_holds_every_later_click(tmp_path, times, window):
    # the window end once wrapped in uint64 and the count never ended; each
    # count runs in its own process with a timeout, so a regression fails
    path = tmp_path / "late.csv"
    path.write_text("".join(f"{c},{t}\n" for c, t in enumerate(times)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(spdcmet.__file__)), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from spdcmet import cli, timetags; "
            "timetags._BLOCK_RECORDS = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
    argv = ["count", str(path), "--rep-period", "0", "--window", window, "--format", "json"]
    for block in (1, 1 << 16):
        run = subprocess.run([sys.executable, "-c", code, str(block), *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["meta"]["windows"] == 1
        assert ["mask", f"0x{(1 << len(times)) - 1:04x}", 1] in out["rows"]


def csv_with_comments(records):
    """CSV lines of records with a comment and a blank line after every
    ninth record."""
    lines = []
    for i, (c, t) in enumerate(records):
        lines.append(f"{c},{t}".encode())
        if i % 9 == 4:
            lines += [b"# comment", b""]
    return lines


def test_located_errors_match_the_whole_file_parse(tmp_path):
    good = [(i % 16, 1000 * i) for i in range(30)]
    cases = {
        r"byte 261: truncated record \(5 trailing bytes\)": raw_binary(good)[:-4],
        "record 21: unknown channel 16": raw_binary(good[:20] + [(16, 20_000)] + good[21:]),
        "record 26: time goes backwards by 14000 ps": raw_binary(
            good[:25] + [(3, 10_000)] + good[26:]),
    }
    for k, (message, data) in enumerate(cases.items()):
        with pytest.raises(ParseError, match=message) as whole:
            parse_timetags_binary(data)
        path = tmp_path / f"bad{k}.bin"
        path.write_bytes(data)
        for block, fmt in itertools.product(BLOCKS, ("binary", "auto")):
            with block_size(block), pytest.raises(ParseError) as streamed:
                counted(TimetagFile(path, fmt), REP)
            assert str(streamed.value) == str(whole.value)
    # CSV errors past the first block, with comment and blank lines inside blocks
    lines = csv_with_comments([(i % 16, 1000 * i) for i in range(100)])
    bad = {  # line number -> replacement line and its error
        83: (b"16,90000", "line 83: unknown channel 16"),
        90: (b"3,10000", "line 90: time goes backwards by"),
        98: (b"3,x", "line 98: non-numeric field in '3,x'"),
        101: (b"# caf\xe9", "line 101: not UTF-8 text"),
        120: (b"3", "line 120: expected 'channel,time_ps', got '3'"),
    }
    # line ends \r\n split between two reads, or a lone \r, keep the numbering
    for (k, (lineno, (line, message))), newline in itertools.product(
            enumerate(bad.items()), (b"\n", b"\r\n", b"\r")):
        data = newline.join(lines[:lineno - 1] + [line] + lines[lineno:]) + newline
        if lineno != 101:  # the whole-text parser takes decoded text
            with pytest.raises(ParseError, match=message) as whole:
                parse_timetags_text(data.decode())
            message = str(whole.value)
        path = tmp_path / f"bad{k}.csv"
        path.write_bytes(data)
        for block in BLOCKS:
            with block_size(block), pytest.raises(ParseError) as streamed:
                counted(TimetagFile(path, "csv"), REP)
            assert str(streamed.value) == message


@pytest.mark.parametrize("channel", [16, 255, 256, 65535, 70000])
def test_unknown_channel_after_held_back_records_is_located(tmp_path, channel):
    # the first block is eight records, the last three within the reorder
    # tolerance of its latest time and so held back into the second block,
    # whose first new record is unknown; CSV channels from 256 on must not
    # wrap to a known one
    good = [(i % 16, 10_000 * i) for i in range(5)] + [(5, 70_000), (6, 70_500), (7, 70_900)]
    records = good + [(channel, 71_000)] + [(i % 16, 80_000 + 1000 * i) for i in range(8)]
    order = timetags._Reorderer()
    order.push(np.array([c for c, _ in good], dtype=np.uint8),
               np.array([t for _, t in good], dtype=np.uint64))
    assert order.held_t.size == 3
    text = raw_csv(records).encode()
    assert len(raw_csv(good)) == 60  # a 63-byte read, 7 records' worth, ends after line 8
    cases = [("csv", 7, text, f"line 9: unknown channel {channel}")]
    if channel < 256:
        cases.append(("binary", 8, raw_binary(records), f"record 9: unknown channel {channel}"))
    for fmt, block, data, message in cases:
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(data)
        with block_size(block), pytest.raises(ParseError) as streamed:
            counted(TimetagFile(path, fmt), REP)
        assert str(streamed.value) == message
        parse = parse_timetags_binary if fmt == "binary" else parse_timetags_text
        with pytest.raises(ParseError) as whole:
            parse(data if fmt == "binary" else data.decode())
        assert str(whole.value) == message


def test_cli_count_streams_binary_with_the_same_output(tmp_path, monkeypatch):
    stream = dense_stream(pulses=2000, seed=9)
    path = tmp_path / "tags.bin"
    path.write_bytes(to_binary(stream))
    inputs = [(path, "binary"), (path, "auto")]
    for name, newline in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        csv_path = tmp_path / f"tags_{name}.csv"
        csv_path.write_bytes(to_csv(stream).replace("\n", newline).encode())
        inputs += [(csv_path, "csv"), (csv_path, "auto")]
    outs = set()
    for block, (src, fmt) in itertools.product(BLOCKS + (1 << 16,), inputs):
        monkeypatch.setattr(timetags, "_BLOCK_RECORDS", block)
        out = tmp_path / "out.json"
        assert cli.main(["count", str(src), "--input-format", fmt, "--format", "json",
                         "--out", str(out)]) == 0
        outs.add(out.read_bytes())
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# properties

# time-sorted (channel, time) records, built from (channel, time step) pairs
sorted_records = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 30_000)), max_size=120,
).map(lambda steps: [(c, t) for (c, _), t in
                     zip(steps, itertools.accumulate(d for _, d in steps))])


@settings(max_examples=60, deadline=None)
@given(sorted_records)
def test_csv_and_binary_round_trips_are_the_identity(records):
    stream = TimetagStream.from_records(records)
    assert parse_timetags_text(to_csv(stream)) == stream
    assert parse_timetags_binary(to_binary(stream)) == stream


@settings(max_examples=60, deadline=None)
@given(sorted_records, st.sampled_from(BLOCKS), st.sampled_from([REP, None]),
       st.integers(0, 2**32))
def test_streamed_counts_equal_whole_counts(records, block, rep, seed):
    arrival = shuffled_within(records, 1000, seed)
    data = raw_binary(arrival)
    whole = counted(parse_timetags_binary(data), rep)
    want, late = reference_count(by_time(arrival), WINDOW, rep)
    assert whole.histogram.counts == want and whole.late_clicks == late
    with tempfile.TemporaryDirectory() as tmp, block_size(block):
        path = Path(tmp) / "tags.bin"
        path.write_bytes(data)
        same_result(counted(TimetagFile(path, "binary"), rep), whole)


def dense_records(n, m, seed):
    """n time-sorted records whose time steps are drawn from 0-m ps, but
    one in twenty from 0-20,000 ps: at m up to 200, windows hold from one
    to more than 32 clicks, with repeated channels."""
    rng = np.random.default_rng(seed)
    steps = np.where(rng.random(n) < 0.05, rng.integers(0, 20_001, n), rng.integers(0, m + 1, n))
    return list(zip(rng.integers(0, 16, n).tolist(), np.cumsum(steps).tolist()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400), st.integers(1, 200), st.integers(0, 2**32))
def test_dense_windows_count_like_the_reference(n, m, seed):
    arrival = shuffled_within(dense_records(n, m, seed), 1000, seed)
    data = raw_binary(arrival)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tags.bin"
        path.write_bytes(data)
        for block, rep in itertools.product(BLOCKS, (REP, None)):
            want, late = reference_count(by_time(arrival), WINDOW, rep)
            with block_size(block):
                res = counted(TimetagFile(path, "binary"), rep)
            assert res.histogram.counts == want and res.late_clicks == late
            assert res.reordered == parse_timetags_binary(data).reordered


@settings(max_examples=60, deadline=None)
@given(sorted_records)
def test_accepted_records_and_late_clicks_add_up_to_records_read(records):
    stream = TimetagStream.from_records(records)
    res = counted(stream, REP)
    accepted = sum(1 for _, t in records if t % REP < WINDOW)
    assert accepted + res.late_clicks == len(stream)
    assert counted(stream, None).late_clicks == 0


# ---------------------------------------------------------------------------
# bounded memory and the generator


def peak_count_bytes(tmp_path, n, fmt, options, newline="\n"):
    i = np.arange(n, dtype=np.uint64)
    stream = TimetagStream(channels=((i * 7) % 16).astype(np.uint8), times=i * np.uint64(4100))
    path = tmp_path / f"mem{n}.{fmt}"
    if fmt == "csv":
        path.write_bytes(to_csv(stream).replace("\n", newline).encode())
    else:
        path.write_bytes(to_binary(stream))
    del stream, i
    out = tmp_path / f"mem{n}.json"
    tracemalloc.start()
    try:
        assert cli.main(["count", str(path), "--input-format", fmt, *options,
                         "--format", "json", "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_peak_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    cases = [
        ("binary", [], 200_000, "\n"),
        # one first-click window wider than the whole file's time span
        ("binary", ["--rep-period", "0", "--window", str(4100 * 2_000_000)], 200_000, "\n"),
        # tracemalloc slows the per-line CSV parser about tenfold, so CSV runs
        # a tenth of the records in blocks of a sixteenth of the size
        ("csv", [], 20_000, "\n"),
        ("csv", [], 20_000, "\r"),
    ]
    for fmt, options, n, newline in cases:
        if fmt == "csv":
            monkeypatch.setattr(timetags, "_BLOCK_RECORDS", 1 << 12)
        small = peak_count_bytes(tmp_path, n, fmt, options, newline)
        large = peak_count_bytes(tmp_path, 10 * n, fmt, options, newline)
        assert large < 1.5 * small, (fmt, options, newline, small, large)


def warm_block_peaks(rep):
    """Traced heap peak of feeding each of two 2^16-record blocks to a
    counter that has already counted one, and the block's time bytes."""
    rng = np.random.default_rng(5)
    n = 1 << 16
    pulses = np.cumsum(rng.integers(0, 3, 3 * n)).astype(np.uint64)
    times = np.sort(pulses * np.uint64(REP) + rng.integers(0, WINDOW, 3 * n, dtype=np.uint64))
    channels = rng.integers(0, 16, 3 * n, dtype=np.uint8)
    counter = timetags._WindowCounter(WINDOW, rep)
    counter.feed(TimetagStream(channels[:n], times[:n]))
    peaks = []
    tracemalloc.start()
    try:
        for k in (1, 2):
            block = TimetagStream(channels[k * n:(k + 1) * n], times[k * n:(k + 1) * n])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            counter.feed(block)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert counter.late == 0
    return peaks, block.times.nbytes


def test_pulse_clocked_blocks_allocate_no_block_sized_temporaries():
    # fresh block-sized arrays let the heap shrink and regrow between
    # blocks, with a number of page faults that varies with the data
    peaks, nbytes = warm_block_peaks(REP)
    assert max(peaks) < nbytes // 4


def test_first_click_blocks_allocate_under_three_times_their_time_bytes():
    # the same clicks without a pulse clock; each pulse's clicks span less
    # than a window, so the click gaps alone open every window
    peaks, nbytes = warm_block_peaks(None)
    assert max(peaks) < 3 * nbytes


def test_generator_output_is_frozen():
    src = SourceParams(0.08)
    det = detector_for_source(src, 4, 0.3, 0.25)
    dist = full_pattern_distribution(RotationSpec(1.0), src, det)
    stream = generate_synthetic_timetags(dist, pulses=20_000, seed=12)
    assert hashlib.sha256(to_binary(stream)).hexdigest() == (
        "29f11d16ad47e76ac393281f39f36baee6969344821a5b39a96282494f52e42c")


def ingest_distribution():
    """The ingest benchmark's stream: tau 0.5, d 4, eta 0.9, phi 1.0; about
    an eighth of its mode rows have two or more clicks."""
    src = SourceParams(0.5)
    det = detector_for_source(src, 4, 0.9, 0.9)
    return full_pattern_distribution(RotationSpec(1.0), src, det)


@pytest.mark.parametrize("jitter_ps, digest", [
    (100, "1142deefa18e4b7657dc0507b6dc22ea5d9be9370fccd575351827cb64d71e83"),
    # jitter beyond the 12.5 ns period: records of neighbouring pulses interleave
    (15_000, "bac1ddc28a36338fec89bfeadc93492efde8654bb667510db99b01e47b7022cb"),
    (0, "ec1af5fcd1255c9f0e7a72ea3720c699df687ee0a173d528e301440ddd8d59a5"),
])
def test_multi_click_generator_output_is_frozen(jitter_ps, digest):
    stream = generate_synthetic_timetags(ingest_distribution(), pulses=50_000, seed=8,
                                         jitter_ps=jitter_ps)
    assert hashlib.sha256(to_binary(stream)).hexdigest() == digest


def per_pattern_generator(distribution, pulses, rep_period_ps, jitter_ps, seed, cmap):
    """The generator as one loop per (pattern, mode): an argsort of each
    row's uniforms picks its channels, and a lexsort orders the records."""
    patterns = [tuple(int(v) for v in p) for p in distribution.patterns]
    probs = np.clip(np.asarray(distribution.probs, dtype=float), 0.0, None)
    leftover = max(1.0 - probs.sum(), 0.0)
    zero = (0, 0, 0, 0)
    if zero in patterns:
        probs[patterns.index(zero)] += leftover
    else:
        patterns.append(zero)
        probs = np.append(probs, leftover)
    rng = np.random.default_rng(seed)
    draw = rng.choice(len(patterns), size=pulses, p=probs / probs.sum())
    by_pattern = np.argsort(draw, kind="stable")
    bounds = np.searchsorted(draw[by_pattern], np.arange(len(patterns) + 1))
    mode_channels = [np.array(cmap.channels_of(m), dtype=np.uint8) for m in MODES]
    chunks_ch, chunks_t = [], []
    for k, pat in enumerate(patterns):
        idx = by_pattern[bounds[k]:bounds[k + 1]]
        if sum(pat) == 0 or idx.size == 0:
            continue
        base = idx.astype(np.uint64) * np.uint64(rep_period_ps)
        for mode_i, r in enumerate(pat):
            if r == 0:
                continue
            slots = np.argsort(rng.random((idx.size, 4)), axis=1)[:, :r]
            chs = mode_channels[mode_i][slots]
            jit = (rng.integers(0, jitter_ps + 1, size=chs.shape).astype(np.uint64)
                   if jitter_ps > 0 else np.zeros(chs.shape, dtype=np.uint64))
            chunks_ch.append(chs.ravel())
            chunks_t.append((base[:, None] + jit).ravel())
    ch = np.concatenate(chunks_ch or [np.empty(0, dtype=np.uint8)])
    t = np.concatenate(chunks_t or [np.empty(0, dtype=np.uint64)])
    order = np.lexsort((ch, t))
    return TimetagStream(channels=ch[order], times=t[order])


def few_patterns(patterns, probs):
    return SimpleNamespace(patterns=patterns, probs=probs)


@pytest.mark.parametrize("dist, pulses, seed, jitter_ps, interleaved, block", [
    # about 78k mode rows: more than two of the generator's blocks
    (None, 100_000, 0, 100, False, None),
    (None, 100_000, 1, 15_000, True, None),
    (None, 100_000, 2, 0, False, None),
    # blocks of 1000 rows: most groups straddle a block edge, some span several
    (None, 30_000, 3, 100, False, 1000),
    (few_patterns([(2, 0, 0, 0)], [1.0]), 2_000, 3, 100, False, 1000),  # ends on edges
    (few_patterns([(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (4, 0, 0, 3)],
                  [0.0, 0.6, 0.3, 0.1]), 20_000, 4, 100, False, None),
    # the empty pattern absent: it gets the leftover mass 0.4
    (few_patterns([(1, 0, 0, 0), (0, 2, 1, 0), (1, 1, 1, 1)], [0.3, 0.2, 0.1]),
     20_000, 5, 100, False, None),
    (few_patterns([(0, 0, 0, 0), (1, 0, 0, 0)], [1.0, 0.0]), 1_000, 6, 100, False, None),
    # one group of about 60k rows, almost two blocks
    (few_patterns([(1, 0, 0, 0), (0, 3, 0, 0)], [0.6, 0.1]), 100_000, 7, 100, True, None),
], ids=["0-100-False", "1-15000-True", "2-0-False", "ingest-small-blocks",
        "groups-end-on-block-edges", "empty-at-zero", "empty-absent", "all-empty",
        "group-over-a-block"])
def test_generator_matches_the_per_pattern_loop(dist, pulses, seed, jitter_ps, interleaved,
                                                block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(timetags, "_GEN_BLOCK", block)
    cmap = (ChannelMap(tuple(MODES[c % 4] for c in range(16))) if interleaved
            else ChannelMap.default())
    args = (dist or ingest_distribution(), pulses, REP, jitter_ps, seed, cmap)
    got, want = generate_synthetic_timetags(*args), per_pattern_generator(*args)
    assert len(got) == len(want)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.channels, want.channels)
    if not len(want):
        assert got is timetags._EMPTY


def edge_probs(n_steps):
    """Whole multiples of 1/G with zeros between them: every CDF value is a
    bucket edge."""
    g = timetags._GUIDE_BUCKETS
    probs = np.floor(np.arange(1, n_steps + 1) / n_steps**2 * g) / g
    probs[1::3] = 0.0
    probs[-1] = 1.0 - probs[:-1].sum()
    return probs


@pytest.mark.parametrize("probs", [
    None,  # the ingest stream's 626 patterns
    [1.0],
    [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
    [0.5, 0.25, 0.25],
    [1e-300, 0.25 - 1e-300, 0.75],
    [*([1e-7] * 1000), 1.0 - 1e-4],  # many steps inside one bucket
    edge_probs(40),
], ids=["ingest", "one", "zeros", "halves", "tiny", "crowded", "edges"])
def test_guide_table_draw_equals_choice(probs):
    if probs is None:
        probs = timetags._pattern_probs(ingest_distribution())[1]
    probs = np.asarray(probs) / np.sum(probs)
    want_rng, got_rng = np.random.default_rng(11), np.random.default_rng(11)
    want = want_rng.choice(probs.size, size=100_000, p=probs)
    got = timetags._choice(got_rng, probs, 100_000)
    np.testing.assert_array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # the same generator state after
    # uniforms on and next to every bucket edge, inverted as choice does
    g = timetags._GUIDE_BUCKETS
    edges = np.arange(g) / g
    u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
                        [np.nextafter(1.0, 0.0)]])
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    np.testing.assert_array_equal(timetags._choice(SimpleNamespace(random=lambda n: u.copy()),
                                                   probs, u.size),
                                  cdf.searchsorted(u, side="right"))


def test_stable_ranks_invert_a_stable_argsort():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 3, size=(5000, 4)).astype(float)  # ties in most rows
    order = np.argsort(rows, axis=1, kind="stable")
    rank = timetags._stable_ranks(rows)
    np.testing.assert_array_equal(np.take_along_axis(rank.T, order, axis=1),
                                  np.broadcast_to(np.arange(4), rows.shape))
