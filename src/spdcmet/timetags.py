"""Timetag stream parsing, coincidence counting and synthetic generation.

Wire formats:
  text    CSV lines "channel,time_ps" with '#' comments and blank lines
  binary  packed 9-byte records, 1 byte channel + 8 bytes little-endian
          unsigned time in picoseconds, no header

A ``TimetagFile`` reads either format in fixed blocks: ``_BLOCK_RECORDS``
records of a binary file, or the same number of bytes of a CSV file, cut
after its last line end (``\n``, ``\r\n`` or a lone ``\r``).  Its "auto"
format is decided once, from the first block: binary if the block is not
UTF-8 or holds a NUL byte (every binary record with a time below 2^56 ps
has one), else CSV if the block is blank or its first non-blank character
is '#' or a digit, else binary.

Sixteen channels feed four optical modes, four channels per mode.  A
coincidence window groups clicks into one 16-bit pattern; repeated clicks
on one channel inside a window collapse to a single click (binary
counters).  Windows anchor on the pulse clock when the repetition period
is known, otherwise on the first click after the previous window.  In
both modes the window is a finite number of at least 1 ps, and a click
at integer offset o past its window's opening joins it iff o < window.

Reorder rule: each record is measured against the running maximum of the
times read before it.  A record behind that maximum by at most 1000 ps
is sorted into place (stably, so equal times keep their arrival order)
and counted as reordered; one further behind is a located error.
Because no later record can land more than 1000 ps behind the running
maximum, a block reader releases every record up to that bound and holds
back only the rest, so a file is validated, sorted and counted in fixed
blocks with the same result as a whole-file parse, in memory that does
not grow with the file.  A block that is in order and starts at or after
the running maximum skips the running-maximum scan and the sort, and the
counter does not scan a released block's order again; it still checks
the order across blocks, and scans every block a caller supplies.
"""

from __future__ import annotations

import codecs
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParseError",
    "TimetagStream",
    "TimetagFile",
    "ChannelMap",
    "PatternHistogram",
    "CoincidenceResult",
    "parse_timetags_text",
    "parse_timetags_binary",
    "to_csv",
    "to_binary",
    "check_window",
    "count_coincidences",
    "generate_synthetic_timetags",
]

N_CHANNELS = 16
MODES = ("a_h", "a_v", "b_h", "b_v")
DEFAULT_WINDOW_PS = 2_500
DEFAULT_REP_PERIOD_PS = 12_500  # 80 MHz pulse clock

_RECORD_DTYPE = np.dtype([("channel", "u1"), ("time", "<u8")])
_BLOCK_RECORDS = 1 << 16  # records (binary) or lines (CSV) per block of a streamed file
_REORDER_PS = 1000  # reorder tolerance of every parser
_GEN_BLOCK = 1 << 15  # mode rows per block of the generator's arithmetic
_GUIDE_BUCKETS = 1 << 12  # equal-width buckets of the pattern draw's guide table
_TIME_LIMIT_PS = 1 << 60  # generated times share a uint64 key with a 4-bit channel
_N_MASKS = 1 << N_CHANNELS
_POPCOUNT8 = sum((np.arange(256, dtype=np.uint8) >> k) & 1 for k in range(8))
_POPCOUNT = np.add.outer(_POPCOUNT8, _POPCOUNT8).ravel()  # set bits of each 16-bit mask


class ParseError(ValueError):
    """Malformed timetag input; the message names the line or byte offset."""


@dataclass(frozen=True)
class TimetagStream:
    """Column view of a time-ordered click stream.

    ``reordered`` counts the records the parser sorted back into place.
    """

    channels: np.ndarray  # uint8
    times: np.ndarray  # uint64, non-decreasing
    reordered: int = field(default=0, init=False, compare=False, repr=False)
    # released by a reorderer, so in time order by construction
    _released: bool = field(default=False, init=False, compare=False, repr=False)

    @classmethod
    def from_records(cls, records) -> "TimetagStream":
        records = list(records)
        ch = np.array([r[0] for r in records], dtype=np.uint8)
        t = np.array([r[1] for r in records], dtype=np.uint64)
        return cls(channels=ch, times=t)

    def __len__(self):
        return self.channels.size

    def __eq__(self, other):
        if not isinstance(other, TimetagStream):
            return NotImplemented
        return (np.array_equal(self.channels, other.channels)
                and np.array_equal(self.times, other.times))


_EMPTY = TimetagStream(channels=np.empty(0, dtype=np.uint8),
                       times=np.empty(0, dtype=np.uint64))


class _Reorderer:
    """Validates raw records block by block and releases them time-sorted.

    Applies the module's reorder rule against the running maximum carried
    across blocks; records within ``_REORDER_PS`` of it are held back into
    the next block, since a later record may still sort before them.
    """

    def __init__(self):
        self.seen = 0  # records validated so far
        self.max_time = 0
        self.held_ch, self.held_t = _EMPTY.channels, _EMPTY.times

    def _record_number(self, i):
        return f"record {self.seen + i + 1}"

    def push(self, channels, times, where=None, last=False) -> TimetagStream:
        """Validate one block in arrival order; return the released records.

        ``where`` maps an index into the block to a readable location
        (text line numbers); by default it is the 1-based record number
        counted from the start of the input.
        """
        where = where or self._record_number
        held = self.held_t.size
        # contiguous copies, whatever the layout of the input; CSV's uint16
        # channels are checked before the cast to uint8
        t, ch = np.concatenate((self.held_t, times)), np.concatenate((self.held_ch, channels))
        times, channels = t[held:], ch[held:]
        behind = far = np.empty(0, dtype=np.intp)
        if times.size and (times[0] < self.max_time or np.any(times[1:] < times[:-1])):
            # running maximum of the times read before each record
            prev = np.maximum.accumulate(
                np.concatenate((np.array([self.max_time], dtype=np.uint64), times))[:-1])
            behind = np.flatnonzero(times < prev)
            far = behind[prev[behind] - times[behind] > np.uint64(_REORDER_PS)]
        if far.size or (ch.size and ch.max() >= N_CHANNELS):
            unknown = np.flatnonzero(channels >= N_CHANNELS)
            i = min(far[:1].tolist() + unknown[:1].tolist())
            if channels[i] >= N_CHANNELS:
                raise ParseError(f"{where(i)}: unknown channel {channels[i]}")
            raise ParseError(
                f"{where(i)}: time goes backwards by {int(prev[i] - times[i])} ps "
                f"from the latest time read, beyond the {_REORDER_PS} ps "
                f"reorder tolerance"
            )
        if times.size:
            self.max_time = max(self.max_time, int(times.max() if behind.size else times[-1]))
        self.seen += times.size
        ch = ch.astype(np.uint8, copy=False)
        if behind.size:
            order = np.argsort(t, kind="stable")
            ch, t = ch[order], t[order]
        bound = self.max_time - _REORDER_PS  # no later record can sort below it
        if last:
            cut = t.size
        else:
            cut = int(np.searchsorted(t, np.uint64(bound), side="right")) if bound >= 0 else 0
        self.held_ch, self.held_t = ch[cut:], t[cut:]
        return _stream(ch[:cut], t[:cut], reordered=behind.size)


def _stream(channels, times, reordered) -> TimetagStream:
    out = TimetagStream(channels=channels, times=times)
    object.__setattr__(out, "reordered", int(reordered))
    object.__setattr__(out, "_released", True)
    return out


def _check_whole_records(nbytes: int) -> int:
    full, extra = divmod(nbytes, _RECORD_DTYPE.itemsize)
    if extra:
        raise ParseError(
            f"byte {full * _RECORD_DTYPE.itemsize}: truncated record "
            f"({extra} trailing bytes)"
        )
    return full


def _is_csv(head: bytes) -> bool:
    """The "auto" format rule, applied to a file's first block."""
    try:
        text = codecs.getincrementaldecoder("utf-8")().decode(head).lstrip()
    except UnicodeDecodeError:
        return False
    return b"\0" not in head and (not text or text[0] == "#" or text[0].isdigit())


def _decode(raw: bytes, first_line: int) -> str:
    """Decode a block of CSV lines; an error names the line that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_line + len((raw[:exc.start].decode("utf-8") + "x").splitlines()) - 1
        raise ParseError(f"line {lineno}: not UTF-8 text") from None


def _push_lines(order, lines, first_line, last) -> TimetagStream:
    """Validate CSV lines, numbered from ``first_line``, and push them
    through the reorderer ``order``."""
    channels, times, linenos = [], [], []
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'channel,time_ps', got {raw!r}")
        try:
            ch = int(parts[0])
            t = int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric field in {raw!r}") from None
        if ch < 0 or t < 0:
            raise ParseError(f"line {lineno}: negative value in {raw!r}")
        if ch > 0xFFFF:  # beyond the uint16 channel array built below
            raise ParseError(f"line {lineno}: unknown channel {ch}")
        if t >= 1 << 64:
            raise ParseError(f"line {lineno}: time {t} ps does not fit in 64 bits")
        channels.append(ch)
        times.append(t)
        linenos.append(lineno)
    return order.push(np.array(channels, dtype=np.uint16), np.array(times, dtype=np.uint64),
                      where=lambda i: f"line {linenos[i]}", last=last)


class TimetagFile:
    """A timetag file, read and validated in fixed blocks.

    ``input_format`` is "csv", "binary" or "auto" (the module's format
    rule); ``csv`` tells which one was read.  Iterating reads the file block by block and yields each
    block's released records as a time-ordered ``TimetagStream``, so
    ``count_coincidences`` counts the file in memory bounded by one block.
    ``len()`` is the number of records read so far.  A truncated trailing
    binary record is reported on opening; the other errors name the same
    line or record as a whole-input ``parse_timetags_text`` or
    ``parse_timetags_binary``, and a CSV line that is not UTF-8 is named.
    """

    def __init__(self, path, input_format: str = "auto"):
        self.path = path
        self._records = 0
        if input_format == "auto":
            with open(path, "rb") as fh:
                head = fh.read(_BLOCK_RECORDS * _RECORD_DTYPE.itemsize)
            input_format = "csv" if _is_csv(head) else "binary"
        self.csv = input_format == "csv"
        if not self.csv:
            _check_whole_records(os.path.getsize(path))

    def __len__(self):
        return self._records

    def __iter__(self):
        order, lineno, last, rest = _Reorderer(), 1, False, b""
        size = _BLOCK_RECORDS * _RECORD_DTYPE.itemsize
        buf = None if self.csv else np.empty(_BLOCK_RECORDS, dtype=_RECORD_DTYPE)
        with open(self.path, "rb") as fh:
            while not last:  # a short read ends the file
                if self.csv:
                    raw = rest + fh.read(size)
                    last = len(raw) - len(rest) < size
                    # cut after the last line end, but not between a \r and a \n
                    # that may open the next read
                    cut = len(raw) if last else 1 + max(raw.rfind(b"\n"),
                                                        raw.rfind(b"\r", 0, len(raw) - 1))
                    raw, rest = raw[:cut], raw[cut:]
                    lines = _decode(raw, lineno).splitlines()
                    block = _push_lines(order, lines, lineno, last)
                    lineno += len(lines)
                else:
                    # one buffer for every block: push copies the records out
                    rec = buf[:fh.readinto(buf) // _RECORD_DTYPE.itemsize]
                    last = rec.size < _BLOCK_RECORDS
                    block = order.push(rec["channel"], rec["time"], last=last)
                self._records = order.seen
                yield block


def parse_timetags_text(text: str) -> TimetagStream:
    return _push_lines(_Reorderer(), text.splitlines(), 1, last=True)


def parse_timetags_binary(data: bytes) -> TimetagStream:
    n = _check_whole_records(len(data))
    rec = np.frombuffer(data, dtype=_RECORD_DTYPE, count=n)
    return _Reorderer().push(rec["channel"], rec["time"], last=True)


def to_csv(stream: TimetagStream) -> str:
    lines = [f"{int(c)},{int(t)}" for c, t in zip(stream.channels, stream.times)]
    return "\n".join(lines) + ("\n" if lines else "")


def to_binary(stream: TimetagStream) -> bytes:
    rec = np.empty(len(stream), dtype=_RECORD_DTYPE)
    rec["channel"] = stream.channels
    rec["time"] = stream.times
    return rec.tobytes()


# ---------------------------------------------------------------------------
# channel map


@dataclass(frozen=True)
class ChannelMap:
    """Channel -> mode assignment; exactly four channels per mode."""

    assignment: tuple  # length 16, entries in MODES

    def __post_init__(self):
        if len(self.assignment) != N_CHANNELS:
            raise ValueError("assignment must cover all 16 channels")
        for mode in MODES:
            n = sum(1 for m in self.assignment if m == mode)
            if n != 4:
                raise ValueError(f"mode {mode} has {n} channels, expected 4")

    @classmethod
    def default(cls) -> "ChannelMap":
        return cls(tuple(MODES[c // 4] for c in range(N_CHANNELS)))

    @classmethod
    def from_text(cls, text: str) -> "ChannelMap":
        assign = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected 'channel=mode', got {raw!r}")
            left, right = (s.strip() for s in line.split("=", 1))
            try:
                ch = int(left)
            except ValueError:
                raise ParseError(f"line {lineno}: bad channel {left!r}") from None
            if not 0 <= ch < N_CHANNELS:
                raise ParseError(f"line {lineno}: channel {ch} out of range")
            if right not in MODES:
                raise ParseError(f"line {lineno}: unknown mode {right!r}")
            if ch in assign:
                raise ParseError(f"line {lineno}: duplicate channel {ch}")
            assign[ch] = right
        if len(assign) != N_CHANNELS:
            missing = sorted(set(range(N_CHANNELS)) - set(assign))
            raise ParseError(f"unassigned channels: {missing}")
        try:
            return cls(tuple(assign[c] for c in range(N_CHANNELS)))
        except ValueError as exc:  # unbalanced mode assignment
            raise ParseError(str(exc)) from None

    def channels_of(self, mode: str) -> tuple:
        return tuple(c for c in range(N_CHANNELS) if self.assignment[c] == mode)

    def mode_masks(self) -> dict:
        masks = {m: 0 for m in MODES}
        for c, m in enumerate(self.assignment):
            masks[m] |= 1 << c
        return masks


# ---------------------------------------------------------------------------
# coincidence counting


class PatternHistogram:
    """Counts of 16-bit click patterns over processed windows.

    Built from a ``counts`` dict (pattern mask -> count) in any order, or
    by the window counter from two arrays: the masks with a count, in
    ascending order, and their counts.  ``counts`` is then built from the
    arrays when it is first read.
    """

    def __init__(self, counts: dict, windows: int, window_ps: float):
        self._counts, self._sorted = counts, None
        self.windows, self.window_ps = windows, window_ps

    @classmethod
    def _of_sorted(cls, masks, n, windows, window_ps) -> "PatternHistogram":
        out = cls(None, windows, window_ps)
        out._sorted = masks, n
        return out

    @property
    def counts(self) -> dict:
        if self._counts is None:
            self._counts = dict(zip(*(a.tolist() for a in self._sorted)))
        return self._counts

    def _arrays(self):
        """The masks with a count, ascending, and their counts: integer arrays."""
        if self._sorted is not None:
            return self._sorted
        k = len(self._counts)
        masks = np.fromiter(self._counts, dtype=np.int64, count=k)
        order = np.argsort(masks)
        return masks[order], np.fromiter(self._counts.values(), dtype=np.int64, count=k)[order]

    def __eq__(self, other):
        if not isinstance(other, PatternHistogram):
            return NotImplemented
        return ((self.counts, self.windows, self.window_ps)
                == (other.counts, other.windows, other.window_ps))

    def __repr__(self):
        return (f"PatternHistogram(counts={self.counts!r}, windows={self.windows!r}, "
                f"window_ps={self.window_ps!r})")

    def total_clicks(self) -> int:
        masks, n = self._arrays()
        return int(_POPCOUNT[masks] @ n)

    def reduce(self, cmap: ChannelMap) -> dict:
        """Collapse channel patterns to per-mode click-count 4-tuples, in
        ascending tuple order."""
        masks, n = self._arrays()
        mode_masks = cmap.mode_masks()
        code = np.zeros(masks.size, dtype=np.int64)
        for m in MODES:  # per-mode click counts are base-5 digits of one code
            code = 5 * code + _POPCOUNT[masks & mode_masks[m]]
        total = np.zeros(5 ** len(MODES), dtype=np.int64)
        np.add.at(total, code, n)
        present = np.zeros(total.size, dtype=bool)
        present[code] = True
        codes = np.flatnonzero(present)
        digits = np.unravel_index(codes, (5,) * len(MODES))
        return dict(zip(zip(*(d.tolist() for d in digits)), total[codes].tolist()))


@dataclass(frozen=True)
class CoincidenceResult:
    histogram: PatternHistogram
    pattern_counts: dict  # (r_ah, r_av, r_bh, r_bv) -> count
    modes: tuple = MODES
    late_clicks: int = 0  # clicks past the window of their pulse, discarded
    reordered: int = 0  # records the parser sorted back into time order


def _window_ends(times, opens, bound):
    """Index into sorted ``times`` of the first click ``bound`` ps or more
    past each of ``opens``.  A window whose end passes 2^64 ps holds every
    later click."""
    past = opens > (1 << 64) - 1 - bound  # numpy compares to a Python int of any size exactly
    ends = np.searchsorted(times, opens + np.uint64(min(bound, (1 << 64) - 1)), side="left")
    return np.where(past, times.size, ends)


class _WindowCounter:
    """Coincidence windows of one time-ordered stream, fed block by block.

    A click at integer offset o joins a window iff o < ``window_ps``, that
    is o < ``bound`` = ceil(``window_ps``).  Every window has a key: its
    pulse number with a pulse clock, its first click's time without one.
    Without a clock a window opens at each click ``bound`` ps or more past
    the one before it, and at the first click past each opening's window
    end, found in runs that outlast a window by doubled jumps along the ends.
    A segmented pointer-doubling pass ORs each click's bit into the first
    click of its window, and window masks go into one bin per 16-bit
    pattern; the histogram keeps the nonzero bins as arrays, in mask
    order.  The window open at a block's end is carried into the next
    block as its key and mask; the next block's clicks with the same pulse
    number, or earlier than the key + ``bound``, join it.
    """

    def __init__(self, window_ps, rep_period_ps):
        self.window_ps = window_ps
        self.bound = math.ceil(window_ps)
        self.rep_period_ps = rep_period_ps
        self.bins = np.zeros(_N_MASKS, dtype=np.int64)
        self.late = 0
        self.reordered = 0
        self.occupied = 0
        self.last_key = None  # pulse number or time of the latest click fed
        self.open_key = None  # key and mask of the window left open
        self.open_mask = 0
        self.arrays = {}  # (slot, dtype) -> work array reused from block to block

    def _work(self, slot, n, dtype):
        """An ``n``-item work array kept from block to block; the next call
        with the same slot and dtype overwrites it.  Fresh block-sized
        temporaries let the allocator shrink and regrow the heap between
        blocks, with page faults whose number depends on the data."""
        a = self.arrays.get((slot, dtype))
        if a is None or a.size < n:  # room for the few records a block holds back
            a = self.arrays[(slot, dtype)] = np.empty(n + (n >> 3), dtype=dtype)
        return a[:n]

    def _close_open_window(self):
        if self.open_key is not None:
            self.bins[self.open_mask] += 1
            self.occupied += 1
            self.open_key = None

    def feed(self, block: TimetagStream):
        self.reordered += block.reordered
        key, ch = block.times, block.channels
        if self.rep_period_ps is not None:
            n, period = key.size, np.uint64(self.rep_period_ps)
            # np.divmod takes several times longer
            key = np.floor_divide(block.times, period, out=self._work(0, n, np.uint64))
            off = np.multiply(key, period, out=self._work(1, n, np.uint64))
            keep = np.less(np.subtract(block.times, off, out=off), np.uint64(self.bound),
                           out=self._work(0, n, np.bool_))
            if not keep.all():
                self.late += int(keep.size - np.count_nonzero(keep))
                key, ch = key[keep], ch[keep]
        n = key.size
        if n == 0:
            return
        # a block a reorderer released is in order; the order across blocks is checked
        if ((not block._released
             and np.any(np.less(key[1:], key[:-1], out=self._work(1, n - 1, np.bool_))))
                or (self.last_key is not None and key[0] < self.last_key)):
            raise ValueError("records must be time-ordered; parse with a reorder buffer")
        self.last_key = int(key[-1])
        owner = key  # each click's window key
        if self.rep_period_ps is None:
            opens = np.zeros(n + 1, dtype=bool)  # index n, past the block, is a sink
            opens[1:n] = np.diff(key) >= self.bound
            opens[0 if self.open_key is None else _window_ends(
                key, np.array([self.open_key], dtype=np.uint64), self.bound)[0]] = True
            jump = None
            while True:
                owner = np.maximum.accumulate(np.where(opens[:n], key, self.open_key or 0))
                if not np.any(key - owner >= self.bound):
                    break
                jump = (np.append(_window_ends(key, key, self.bound), n) if jump is None
                        else jump[jump])
                opens[jump[opens]] = True
        same = np.equal(owner[1:], owner[:-1], out=self._work(1, n - 1, np.bool_))
        first = self._work(3, n, np.bool_)  # the first click of each window
        first[0] = True
        np.logical_not(same, out=first[1:])
        masks = np.left_shift(1, ch, dtype=np.uint16, out=self._work(0, n, np.uint16))
        spare, joins = self._work(2, n - 1, np.bool_), self._work(1, n, np.uint16)
        step = 1
        while same.any():  # masks[i] |= masks[i + step] within one window
            m = n - step
            np.bitwise_or(masks[:m], np.multiply(masks[step:], same, out=joins[:m]),
                          out=masks[:m])
            # owner[i + 2 step] == owner[i]
            pairs = max(m - step, 0)
            same, spare = np.logical_and(same[:-step], same[step:], out=spare[:pairs]), same
            step *= 2
        if owner[0] == self.open_key:
            masks[0] |= self.open_mask
        else:
            self._close_open_window()
        last = int(np.searchsorted(owner, owner[-1]))  # the window left open
        self.open_key, self.open_mask = int(owner[-1]), int(masks[last])
        first[last] = False
        # zero except at the first click of a closed window, whose mask is
        # never zero; the zeros are taken back out of bin 0
        np.add.at(self.bins, np.multiply(masks, first, out=self._work(0, n, np.intp)), 1)
        closed = int(np.count_nonzero(first))
        self.bins[0] -= n - closed
        self.occupied += closed

    def histogram(self, n_windows) -> PatternHistogram:
        """Close the open window and return the histogram."""
        self.arrays = {}  # the counter takes no more blocks
        last_key = self.open_key
        self._close_open_window()
        if self.rep_period_ps is None:
            n_windows = self.occupied
        elif n_windows is None:
            n_windows = last_key + 1 if last_key is not None else 0
        if n_windows < self.occupied:
            raise ValueError("n_windows smaller than the number of occupied pulses")
        self.bins[0] += n_windows - self.occupied
        nz = np.flatnonzero(self.bins)
        return PatternHistogram._of_sorted(nz, self.bins[nz], windows=int(n_windows),
                                           window_ps=float(self.window_ps))


def check_window(window_ps: float, rep_period_ps: int | None = None):
    """Refuse a window that is not a finite number of at least 1 ps, or longer than the period."""
    if not (math.isfinite(window_ps) and window_ps >= 1):
        raise ValueError(f"window must be a finite number of at least 1 ps, got {window_ps}")
    if rep_period_ps is not None and window_ps > rep_period_ps:
        raise ValueError("window must not exceed the repetition period")


def count_coincidences(records, window_ps: float = DEFAULT_WINDOW_PS,
                       cmap: ChannelMap | None = None,
                       rep_period_ps: int | None = None,
                       n_windows: int | None = None) -> CoincidenceResult:
    """One-pass coincidence pattern counting.

    A click joins a window iff its offset past the window's opening is
    below ``window_ps``, a finite number of at least 1 ps.  With
    ``rep_period_ps`` windows open at each pulse time; clicks later than
    the window into the period are discarded and counted in
    ``late_clicks``.  ``n_windows`` supplies the number of pulses covered
    so empty windows enter the zero-pattern bin (else the span of observed
    pulse ids is used); it needs a pulse clock.  Without one, each window
    opens at the first click after the previous one ends.  ``records`` is
    a ``TimetagStream`` or an iterable of them in time order, such as a
    ``TimetagFile`` (counted block by block).  A whole stream is counted in
    slices of a file block, so that each pass over it stays in cache.
    """
    if cmap is None:
        cmap = ChannelMap.default()
    check_window(window_ps, rep_period_ps)
    if rep_period_ps is None and n_windows is not None:
        raise ValueError("n_windows counts pulses and needs a pulse clock (rep_period_ps)")
    counter = _WindowCounter(window_ps, rep_period_ps)
    if isinstance(records, TimetagStream):
        ch, t = records.channels, records.times
        counter.reordered += records.reordered
        records = (TimetagStream(channels=ch[i:i + _BLOCK_RECORDS], times=t[i:i + _BLOCK_RECORDS])
                   for i in range(0, t.size, _BLOCK_RECORDS))
    for block in records:
        counter.feed(block)
    hist = counter.histogram(n_windows)
    return CoincidenceResult(histogram=hist, pattern_counts=hist.reduce(cmap),
                             late_clicks=counter.late, reordered=counter.reordered)


# ---------------------------------------------------------------------------
# synthetic streams


def _stable_ranks(rows):
    """Position of each column of a 4-column array in its row's stable sort.

    Column j ranks after every column i with x_i < x_j, or x_i == x_j and
    i < j, so slot p of a row, ``argsort(rows, kind="stable")[p]``, is the
    column of rank p.  Returns the ranks as int8, shape (4, n).
    """
    x = np.ascontiguousarray(rows.T)
    rank = np.repeat(np.arange(3, -1, -1, dtype=np.int8)[:, None], x.shape[1], axis=1)
    for i, j in itertools.combinations(range(4), 2):
        before = x[i] <= x[j]  # column i sorts before column j
        rank[j] += before
        rank[i] -= before
    return rank


def _pattern_probs(distribution):
    """The distribution's patterns and normalized probabilities, with any
    leftover mass on the empty pattern (appended last if absent)."""
    patterns = [tuple(int(v) for v in p) for p in distribution.patterns]
    for k, pat in enumerate(patterns):
        if len(pat) != len(MODES) or not all(0 <= r <= 4 for r in pat):
            raise ValueError(f"pattern {k} {pat}: expected {len(MODES)} per-mode "
                             f"click counts, each 0..4")
    probs = np.asarray(distribution.probs, dtype=float)
    if probs.shape != (len(patterns),):
        raise ValueError(f"distribution has {len(patterns)} patterns but probabilities "
                         f"of shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("distribution has non-finite probabilities")
    if np.any(probs < -1e-15):
        raise ValueError("distribution has negative probabilities")
    probs = np.clip(probs, 0.0, None)
    leftover = 1.0 - probs.sum()
    if leftover < -1e-9:
        raise ValueError("distribution probabilities exceed 1")
    if (0, 0, 0, 0) not in patterns:
        patterns.append((0, 0, 0, 0))
        probs = np.append(probs, 0.0)
    probs[patterns.index((0, 0, 0, 0))] += max(leftover, 0.0)
    return patterns, probs / probs.sum()


def _choice(rng, probs, size):
    """``rng.choice(len(probs), size, p=probs)`` for normalized ``probs``:
    the same indices, as the narrowest signed integer type, and generator
    state.  Like ``choice``, inverts ``rng.random(size)`` through the CDF;
    a guide table gives the answer of each bucket floor(u * G) that no CDF
    step falls strictly inside, so only uniforms in the other buckets are
    searched.  Scaling by the power of two G is exact.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf *= _GUIDE_BUCKETS
    edges = np.arange(_GUIDE_BUCKETS + 1, dtype=float)
    lo = cdf.searchsorted(edges[:-1], side="right")  # the answer at the bucket's floor
    hi = cdf.searchsorted(edges[1:], side="left")  # the answer just below its ceiling
    table = np.where(lo == hi, lo, -1).astype(np.min_scalar_type(-probs.size))
    u = rng.random(size)
    u *= _GUIDE_BUCKETS
    draw = table[u.astype(np.intp)]
    split = np.flatnonzero(draw < 0)  # a CDF step inside the bucket
    draw[split] = cdf.searchsorted(u[split], side="right")
    return draw


def generate_synthetic_timetags(distribution, pulses: int,
                                rep_period_ps: int = DEFAULT_REP_PERIOD_PS,
                                jitter_ps: int = 100, seed: int = 0,
                                cmap: ChannelMap | None = None) -> TimetagStream:
    """Sample a pulsed click stream from a detection-pattern distribution.

    ``distribution`` provides ``patterns`` (4-tuples of per-mode click
    counts, each 0..4) and ``probs``; leftover mass goes to the empty
    pattern.  A pattern's clicks land on channels drawn uniformly without
    replacement within each mode's four, at pulse time plus a uniform
    jitter in [0, jitter_ps].  Times stay below 2^60 ps.

    Same seed, same stream, byte for byte, at a given numpy, because the
    generator draws keep one order: ``random(pulses)``, inverted to all
    pulses' patterns as ``choice(len(patterns), pulses, p=probs)`` does;
    then per pattern (the empty one appended if absent) and per mode with
    r > 0 clicks, over its n pulses in ascending order, the 4n doubles of
    ``random((n, 4))``, whose row-wise stable argsort picks the r channels,
    and, if jitter_ps > 0, ``integers(0, jitter_ps + 1, n * r)``, their
    jitters in slot order.  The doubles are drawn in consecutive calls cut
    at every ``_GEN_BLOCK``-th row of all groups' rows, which draws the same
    doubles as one call.
    """
    if pulses < 1:
        raise ValueError("pulses must be >= 1")
    if jitter_ps < 0:
        raise ValueError("jitter_ps must be >= 0")
    if rep_period_ps < 1:
        raise ValueError("rep_period_ps must be >= 1")
    latest = (int(pulses) - 1) * int(rep_period_ps) + int(jitter_ps)
    if latest >= _TIME_LIMIT_PS:
        raise ValueError(f"latest click time (pulses - 1) * rep_period_ps + jitter_ps "
                         f"= {latest} ps reaches the generator's 2^60 ps limit")
    if cmap is None:
        cmap = ChannelMap.default()
    patterns, probs = _pattern_probs(distribution)

    rng = np.random.default_rng(seed)
    draw = _choice(rng, probs, pulses)
    counts = np.bincount(draw, minlength=len(patterns))
    groups = [(k, m, r) for k, pat in enumerate(patterns) if counts[k]
              for m, r in enumerate(pat) if r]  # one per (pattern, mode) with clicks
    if not groups:
        return _EMPTY
    k_g, m_g, r_g = (np.array(v) for v in zip(*groups))
    n_g = counts[k_g]
    # the pulses that click, each pattern's in ascending order (a radix sort on the narrow key)
    empty = patterns.index((0, 0, 0, 0))
    clicked = np.flatnonzero(draw != empty)
    by_pattern = clicked[np.argsort(draw[clicked], kind="stable")]
    counts[empty] = 0  # its pulses are not in by_pattern
    starts = np.cumsum(counts) - counts
    pulse_t = np.concatenate([by_pattern[s:s + n] for s, n in zip(starts[k_g], n_g)],
                             dtype=np.uint64, casting="unsafe") * np.uint64(rep_period_ps)
    del draw, clicked, by_pattern  # freed before the per-row arrays
    # each full block of uniforms is ranked at once and only its int8 ranks kept
    u, rank = np.empty((_GEN_BLOCK, 4)), np.empty((4, pulse_t.size), dtype=np.int8)
    keys = np.zeros(n_g @ r_g, dtype=np.uint64)
    row = rec = 0
    for n, r in zip(n_g.tolist(), r_g.tolist()):  # the generator calls, and the ranking
        stop = row + n
        while row < stop:  # a call split at the block's edge draws the same doubles
            a = row % _GEN_BLOCK
            b = min(_GEN_BLOCK, a + stop - row)
            rng.random(out=u[a:b])
            row += b - a
            if b == _GEN_BLOCK:
                rank[:, row - b:row] = _stable_ranks(u)
        if jitter_ps > 0:
            keys[rec:rec + n * r] = rng.integers(0, jitter_ps + 1, size=n * r)
        rec += n * r
    if row % _GEN_BLOCK:
        rank[:, row - row % _GEN_BLOCK:] = _stable_ranks(u[:row % _GEN_BLOCK])
    r_row = np.repeat(r_g.astype(np.int8), n_g)
    chan_row = np.repeat((4 * m_g).astype(np.int8), n_g)  # the mode's row of ``table``
    table = np.array([cmap.channels_of(m) for m in MODES], dtype=np.uint64).ravel()
    rec = 0
    for a in range(0, row, _GEN_BLOCK):  # each block's jitters become its records' keys
        rows = slice(a, a + _GEN_BLOCK)
        r, pulse, chan = r_row[rows], pulse_t[rows], chan_row[rows]
        first = np.cumsum(r, dtype=np.int64) - r  # row's first jitter in the block
        block = keys[rec:rec + first[-1] + r[-1]]
        for s in range(4):  # slot s of each row with r > s: its column of rank s
            i = slice(None) if s == 0 else np.flatnonzero(r > s)
            rank_i = rank[:, rows][:, i]
            col = sum(c * (rank_i[c] == s).view(np.int8) for c in range(1, 4))
            at = first[i] + s
            block[at] = ((pulse[i] + block[at]) << 4) | table[chan[i] + col]  # over its jitter
        rec += block.size
    # time << 4 | channel orders records as (time, channel); equal keys are equal records
    keys.sort()
    channels = keys.astype(np.uint8)  # the low byte, whose low 4 bits are the channel
    channels &= 15
    keys >>= 4
    return TimetagStream(channels=channels, times=keys)
