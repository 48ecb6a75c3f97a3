"""The benchmark's workloads: inputs, the timed CLI call and output checks.

Each workload has three parts.  ``prepare`` runs once per benchmark run in
its own process and writes the inputs and check references (it may
import spdcmet).  ``call`` runs inside the timed region of every workload
process and returns the ``spdcmet`` argv; the round-trip workload also
generates and writes its input there.  ``check`` compares the CLI's JSON
output with what must hold at any seed and returns the problems found.

Seed-independent model outputs are compared with ``reference.json``,
recorded from the spdcmet 0.1.0 sources this benchmark was written
against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist
from typing import Callable

HERE = Path(__file__).resolve().parent

# tolerance for outputs that must match the recorded reference
REF_RTOL = 1e-9

# Fisher workload: the experiment point.  Bootstrap and ML repetitions are
# cut from the defaults (100/200, about a minute) so one call takes a few
# seconds while the curve scan, the bootstrap refits and the per-repetition
# ML search each keep a visible share.
FISHER_ARGS = ["--tau", "0.061", "--d", "4", "--eta-a", "0.23", "--eta-b", "0.12",
               "--phi-steps", "100"]
FISHER_BOOTSTRAP = 8
FISHER_ML_REPS = 5
ML_SEARCH_HALFWIDTH = math.pi / 4.0  # monte_carlo_ml_fisher's default window
# |I_ML/I - 1| bound in units of the reported stderr.  With 5 repetitions
# the variance estimate is chi-square with 4 degrees of freedom; 7 stderrs
# leaves about 1e-4 false failures per point.
ML_STDERRS = 7.0
# share of phases at which the bootstrap band must contain its own central
# (noise-free refit) curve; with 8 replicates the observed share is 83-98%
BAND_MIN_COVERAGE = 0.5

# Herald workload: criterion 1's tau and one of its transmissions.
HERALD_TAU = 0.1
HERALD_ETA = 0.9
HERALD_K_MAX = 3
HERALD_CRITERION1_ATOL = 1e-3

# Timetag workloads: a high-gain, high-transmission source so that about
# 0.9 records arrive per pulse, on the 80 MHz clock with 100 ps jitter,
# which is below the 2.5 ns window.
STREAM_TAU = 0.5
STREAM_ETA = 0.9
STREAM_D = 4
STREAM_PHI = 1.0
REP_PERIOD_PS = 12_500
INGEST_CHUNK_PULSES = 1_000_000
INGEST_CHUNKS = 11
ROUNDTRIP_PULSES = 150_000
# Pattern bins are tested like criterion 10 (bins expected below 5 counts
# are pooled), with the per-bin threshold raised from 4 sigma to a
# Bonferroni bound: at 4 sigma over the ~340 tested bins, about 2% of seeds
# would fail.  The family then false-alarms at FREQ_FAMILY_ALPHA per seed in
# the normal approximation, a few times more with the skew of small bins.
FREQ_POOL_BELOW = 5.0
FREQ_FAMILY_ALPHA = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], dict]
    call: Callable[[dict, Path, Path], list]
    check: Callable[[dict, dict], list]
    records: Callable[[dict], int]
    notes: Callable[[dict], list] = lambda doc: []  # reported, never gated


@lru_cache(maxsize=None)
def reference():
    return json.loads((HERE / "reference.json").read_text())


def check_output(workload, text, prepared):
    """Problems with one call's output; unreadable output is one problem."""
    try:
        return workload.check(json.loads(text), prepared)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _close(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= REF_RTOL * max(scale, 1e-300)


# ---------------------------------------------------------------------------
# fisher_pipeline


def _pass_seed(seed, work):
    return {"seed": seed}


def _fisher_call(prepared, work, out):
    return ["fisher", *FISHER_ARGS, "--bootstrap", str(FISHER_BOOTSTRAP),
            "--ml-reps", str(FISHER_ML_REPS), "--seed", str(prepared["seed"]),
            "--format", "json", "--out", str(out)]


def _alias_inside_window(phi):
    """The pattern family is symmetric, p(phi) = p(2 pi - phi); the ML search
    window phi +- pi/4 then holds the mirror estimate when phi is near 0 or pi."""
    mirror_gap = abs(2.0 * math.pi - 2.0 * phi) % (2.0 * math.pi)
    return min(mirror_gap, 2.0 * math.pi - mirror_gap) < ML_SEARCH_HALFWIDTH


def check_fisher(doc, prepared):
    ref = reference()["fisher"]
    problems = []
    if doc.get("columns") != ["phi", "fisher", "clipped", "band_low", "band_high"]:
        return [f"unexpected columns {doc.get('columns')}"]
    rows = doc["rows"]
    if len(rows) != len(ref["fisher"]):
        return [f"{len(rows)} rows, expected {len(ref['fisher'])}"]
    scale = max(ref["fisher"])
    for i, (phi, fisher, clipped, low, high) in enumerate(rows):
        if not _close(phi, ref["phi"][i], 1.0):
            problems.append(f"row {i}: phi {phi} != {ref['phi'][i]}")
        if not _close(fisher, ref["fisher"][i], scale):
            problems.append(f"row {i}: fisher {fisher!r} != {ref['fisher'][i]!r}")
        if clipped != ref["clipped"][i]:
            problems.append(f"row {i}: clipped {clipped} != {ref['clipped'][i]}")
        if not (math.isfinite(low) and math.isfinite(high) and 0.0 <= low <= high):
            problems.append(f"row {i}: band [{low}, {high}] is not an ordered interval")
    meta = doc["meta"]
    for key in ("snl", "fisher_max", "advantage", "ideal_information"):
        if not _close(meta.get(key, math.nan), ref[key]):
            problems.append(f"meta {key} {meta.get(key)!r} != {ref[key]!r}")
    inside = sum(row[3] <= c <= row[4] for row, c in zip(rows, ref["band_central"]))
    if inside < BAND_MIN_COVERAGE * len(rows):
        problems.append(f"bootstrap band holds its central curve at only "
                        f"{inside}/{len(rows)} phases")
    points = doc.get("ml_points", [])
    if len(points) != len(ref["ml_phi"]):
        return problems + [f"{len(points)} ML points, expected {len(ref['ml_phi'])}"]
    spread = math.sqrt(2.0 / (FISHER_ML_REPS - 1))
    for pt, phi, info in zip(points, ref["ml_phi"], ref["ml_fisher"]):
        i_ml, stderr = pt["i_ml"], pt["stderr"]
        if not _close(pt["phi"], phi, 1.0):
            problems.append(f"ML point phi {pt['phi']} != {phi}")
        if not (math.isfinite(i_ml) and i_ml > 0.0 and _close(stderr, i_ml * spread)):
            problems.append(f"ML point {phi:.4f}: i_ml {i_ml!r}, stderr {stderr!r}")
            continue
        if _alias_inside_window(phi):
            continue  # not locally identifiable; fisher_notes reports it
        if abs(i_ml / info - 1.0) > ML_STDERRS * stderr / info:
            problems.append(f"ML point {phi:.4f}: I_ML/I = {i_ml / info:.4f} is more than "
                            f"{ML_STDERRS:g} stderr ({stderr / info:.4f}) from 1")
    return problems


def fisher_notes(doc):
    """Seed-dependent facts that the checks cannot gate on, for the report."""
    ref = reference()["fisher"]
    rows = doc["rows"]
    outside = sum(not (row[3] <= row[1] <= row[4]) for row in rows)
    notes = [f"exact Fisher curve outside the bootstrap band at {outside}/{len(rows)} phases"]
    for pt, phi, info in zip(doc.get("ml_points", []), ref["ml_phi"], ref["ml_fisher"]):
        if _alias_inside_window(phi):
            notes.append(f"ML point phi={phi:.4f} has its mirror 2pi-phi inside the "
                         f"search window; I_ML/I = {pt['i_ml'] / info:.4f} (not gated)")
    return notes


# ---------------------------------------------------------------------------
# herald_table


def _herald_call(prepared, work, out):
    return ["herald", "--tau", str(HERALD_TAU), "--k-max", str(HERALD_K_MAX),
            "--etas", str(HERALD_ETA), "--seed", str(prepared["seed"]),
            "--format", "json", "--out", str(out)]


def check_herald(doc, prepared):
    ref = reference()["herald"]
    if doc.get("columns") != ["k", f"eta={HERALD_ETA:.12g}"]:
        return [f"unexpected columns {doc.get('columns')}"]
    rows = doc["rows"]
    if [row[0] for row in rows] != list(range(HERALD_K_MAX + 1)):
        return [f"unexpected k rows {[row[0] for row in rows]}"]
    problems = []
    for (k, value), want, frozen in zip(rows, ref["cells"], ref["criterion1"]):
        if not _close(value, want):
            problems.append(f"k={k}: {value!r} != recorded {want!r}")
        if not abs(value - frozen) < HERALD_CRITERION1_ATOL:
            problems.append(f"k={k}: {value!r} misses criterion 1's {frozen} by "
                            f">= {HERALD_CRITERION1_ATOL}")
    return problems


# ---------------------------------------------------------------------------
# timetag workloads


def _stream_distribution():
    from spdcmet.engine import detector_for_source, full_pattern_distribution
    from spdcmet.fock import RotationSpec, SourceParams

    src = SourceParams(STREAM_TAU)
    det = detector_for_source(src, STREAM_D, STREAM_ETA, STREAM_ETA)
    return full_pattern_distribution(RotationSpec(STREAM_PHI), src, det)


def _prepare_ingest(seed, work):
    """Write about 10^7 binary records, generated in 10^6-pulse chunks."""
    import numpy as np
    from spdcmet import timetags

    dist = _stream_distribution()
    path = work / "ingest.bin"
    records = 0
    with open(path, "wb") as fh:
        for k in range(INGEST_CHUNKS):
            chunk = timetags.generate_synthetic_timetags(
                dist, pulses=INGEST_CHUNK_PULSES, seed=[seed, k])
            shift = np.uint64(k * INGEST_CHUNK_PULSES * REP_PERIOD_PS)
            chunk = timetags.TimetagStream(chunk.channels, chunk.times + shift)
            fh.write(timetags.to_binary(chunk))
            records += len(chunk)
    return {"path": str(path), "pulses": INGEST_CHUNK_PULSES * INGEST_CHUNKS,
            "records": records,
            "patterns": [list(p) for p in dist.patterns],
            "probs": [float(p) for p in dist.probs]}


def _ingest_call(prepared, work, out):
    return ["count", prepared["path"], "--input-format", "binary",
            "--rep-period", str(REP_PERIOD_PS), "--n-windows", str(prepared["pulses"]),
            "--format", "json", "--out", str(out)]


def _rows_of_kind(doc, kind):
    return {key: n for k, key, n in doc["rows"] if k == kind}


def frequency_problems(observed, patterns, probs, pulses):
    """Criterion 10's per-bin test of pattern counts against the model."""
    expected = {tuple(p): q * pulses for p, q in zip(patterns, probs)}
    zero = (0, 0, 0, 0)
    expected[zero] = expected.get(zero, 0.0) + (1.0 - sum(probs)) * pulses
    bins, small_obs, small_exp = [], 0, 0.0
    for pat, mean in expected.items():
        obs = observed.get(pat, 0)
        if mean < FREQ_POOL_BELOW:
            small_obs += obs
            small_exp += mean
        else:
            bins.append((pat, obs, mean))
    if small_exp > 0.0:
        bins.append(("pooled small bins", small_obs, small_exp))
    z_max = NormalDist().inv_cdf(1.0 - FREQ_FAMILY_ALPHA / (2.0 * len(bins)))
    problems = [f"pattern {pat}: {observed[pat]} observed, none expected"
                for pat in set(observed) - set(expected)]
    for pat, obs, mean in bins:
        p = mean / pulses
        z = abs(obs - mean) / math.sqrt(pulses * p * (1.0 - p))
        if z > z_max:
            problems.append(f"pattern {pat}: {obs} observed, {mean:.1f} expected "
                            f"({z:.2f} sigma > {z_max:.2f})")
    return problems


def check_ingest(doc, prepared):
    meta = doc["meta"]
    problems = []
    if meta.get("windows") != prepared["pulses"]:
        problems.append(f"windows {meta.get('windows')} != pulses {prepared['pulses']}")
    if meta.get("records") != prepared["records"]:
        problems.append(f"records {meta.get('records')} != written {prepared['records']}")
    masks = _rows_of_kind(doc, "mask")
    if sum(masks.values()) != prepared["pulses"]:
        problems.append(f"mask counts sum to {sum(masks.values())}, not the pulse count")
    observed = {tuple(int(v) for v in key.split(":")): n
                for key, n in _rows_of_kind(doc, "pattern").items()}
    return problems + frequency_problems(observed, prepared["patterns"],
                                         prepared["probs"], prepared["pulses"])


def _prepare_roundtrip(seed, work):
    """The model for the timed generator, and the pulse-anchored count of the
    same stream: with jitter < window < period, first-click windows see
    exactly the same nonzero patterns."""
    from spdcmet import timetags

    dist = _stream_distribution()
    stream = timetags.generate_synthetic_timetags(dist, pulses=ROUNDTRIP_PULSES, seed=seed)
    clocked = timetags.count_coincidences(stream, rep_period_ps=REP_PERIOD_PS)
    nonzero = {f"{mask:#06x}": n for mask, n in clocked.histogram.counts.items() if mask}
    return {"seed": seed, "records": len(stream),
            "patterns": [list(p) for p in dist.patterns],
            "probs": [float(p) for p in dist.probs],
            "nonzero_masks": nonzero}


def _roundtrip_call(prepared, work, out):
    """Generate, serialize and write the stream: timed, like the count."""
    from types import SimpleNamespace

    from spdcmet import timetags

    dist = SimpleNamespace(patterns=[tuple(p) for p in prepared["patterns"]],
                           probs=prepared["probs"])
    stream = timetags.generate_synthetic_timetags(dist, pulses=ROUNDTRIP_PULSES,
                                                  seed=prepared["seed"])
    path = work / "roundtrip.csv"
    path.write_text(timetags.to_csv(stream))
    return ["count", str(path), "--rep-period", "0", "--input-format", "csv",
            "--format", "json", "--out", str(out)]


def check_roundtrip(doc, prepared):
    masks = _rows_of_kind(doc, "mask")
    problems = []
    if doc["meta"].get("records") != prepared["records"]:
        problems.append(f"records {doc['meta'].get('records')} != {prepared['records']}")
    if masks != prepared["nonzero_masks"]:
        diff = sorted(set(masks.items()) ^ set(prepared["nonzero_masks"].items()))
        problems.append(f"first-click histogram differs from the pulse-anchored one "
                        f"in {len(diff)} entries, e.g. {diff[:3]}")
    if doc["meta"].get("windows") != sum(prepared["nonzero_masks"].values()):
        problems.append(f"windows {doc['meta'].get('windows')} != occupied pulses")
    return problems


# roundtrip_text_unclocked is not listed in BENCHMARK.json: its run-to-run
# spread on a shared 2-core host exceeded the 25% bound.  It stays runnable
# by name for work on the text parser and first-click windows, and it is
# the only workload on which timetags.generate_s and serialize_s are nonzero.
WORKLOADS = {
    w.name: w for w in (
        Workload("fisher_pipeline", _pass_seed, _fisher_call, check_fisher,
                 lambda prepared: len(reference()["fisher"]["fisher"]), fisher_notes),
        Workload("herald_table", _pass_seed, _herald_call, check_herald,
                 lambda prepared: HERALD_K_MAX + 1),
        Workload("ingest_binary_clocked", _prepare_ingest, _ingest_call, check_ingest,
                 lambda prepared: prepared["records"]),
        Workload("roundtrip_text_unclocked", _prepare_roundtrip, _roundtrip_call,
                 check_roundtrip, lambda prepared: prepared["records"]),
    )
}
