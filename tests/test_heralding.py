"""Reference-path heralding: conditional information per photon."""

import functools
import math

import numpy as np
import pytest

from spdcmet import engine
from spdcmet.detectors import DetectorModel, binomial_thinning_matrix
from spdcmet.engine import (
    _canonical_pairs,
    choose_truncation,
    click_probability_tensor,
    detector_for_source,
)
from spdcmet.estimation import _TERM_FLOOR, OrbitInformation
from spdcmet.fock import RotationSpec, SourceParams, pair_number_weights
from spdcmet.heralding import (
    HeraldError,
    HeraldSpec,
    _herald_points,
    _truncation,
    herald_point,
    herald_table,
)

# spot anchors; the full 40-cell sweep runs in the acceptance suite
ANCHORS = [
    (0.05, 1.0, 0, 1.0025),
    (0.05, 0.9, 3, 1.35927),
    (0.1, 0.7, 0, 0.48964),
    (0.1, 1.0, 3, 1.67226),
]


@pytest.mark.parametrize("tau,eta,k,want", ANCHORS)
def test_frozen_anchor_cells(tau, eta, k, want):
    got = herald_point(HeraldSpec(k=k, eta=eta, tau=tau)).value
    assert got == pytest.approx(want, abs=1e-3)


@pytest.mark.parametrize("tau", [0.05, 0.1])
def test_lossless_zero_and_one_herald_coincide(tau):
    a = herald_point(HeraldSpec(k=0, eta=1.0, tau=tau)).value
    b = herald_point(HeraldSpec(k=1, eta=1.0, tau=tau)).value
    assert a == pytest.approx(b, abs=1e-9)


def test_information_grows_with_transmission():
    for k in range(4):
        vals = [
            herald_point(HeraldSpec(k=k, eta=e, tau=0.05)).value
            for e in (0.7, 0.8, 0.9, 0.95, 1.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_heralding_helps_at_high_transmission():
    for eta in (0.8, 0.9, 1.0):
        vals = [
            herald_point(HeraldSpec(k=k, eta=eta, tau=0.05)).value
            for k in (1, 2, 3)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_herald_point_structure():
    pt = herald_point(HeraldSpec(k=2, eta=0.9, tau=0.05))
    assert pt.value > 0
    assert 0.0 < pt.event_probability < 1.0
    assert pt.mean_heralded_photons > 0
    assert 0.0 < pt.phi < math.pi


@pytest.mark.parametrize("k", [0, 3])
def test_search_reaches_the_top_of_a_nearly_flat_maximum(k):
    # at unit transmission the information is flat in phi to ~1e-9 relative
    # away from a few zeros, so a search that stalls short of the top of its
    # bracket, one 96-grid step either side, shows only at this resolution
    tau, eta = 0.5, 1.0
    pt = herald_point(HeraldSpec(k=k, eta=eta, tau=tau))
    assert 0.0 <= pt.phi <= math.pi
    n_max = choose_truncation(SourceParams(tau)) + 4
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    series, _, pairs_b = engine.click_pair_series(SourceParams(tau), det, n_max=n_max)
    accepted = engine.PhaseSeries(series.harmonics[..., pairs_b.sum(axis=1) >= k])
    scan = []
    for block in np.array_split(np.linspace(pt.phi - np.pi / 48, pt.phi + np.pi / 48, 2000), 250):
        p, dp = accepted.raw(block)
        kept = p > 1e-14
        terms = np.where(kept, dp**2 / np.where(kept, p, 1.0), 0.0)
        scan.append(terms.sum((-2, -1)) / p.sum((-2, -1)) / pt.mean_heralded_photons)
    assert pt.value >= np.concatenate(scan).max() * (1.0 - 1e-12)


def mean_heralded_photons(src, eta, k, n_max):
    """Mean pair number among accepted events: q_n times the chance that at least
    k of the n reference photons survive binomial thinning."""
    weights = pair_number_weights(src, n_max) * binomial_thinning_matrix(n_max, eta)[:, k:].sum(1)
    return float((np.arange(n_max + 1) * weights).sum() / weights.sum())


def accepted_information(src, det, phi, n_max):
    """Per count k <= 3, the information at each of ``phi`` summed over every click
    pattern of the full series whose reference click total reaches k, per accepted
    event: rows of phases, a column per count."""
    series, _, pairs_b = engine.click_pair_series(src, det, n_max=n_max)
    accepted = pairs_b.sum(axis=1)[:, None] >= np.arange(4)
    info = []
    for block in np.array_split(phi, max(1, len(phi) // 16)):
        p, dp = series.raw(block)
        kept = p > 1e-14
        terms = np.where(kept, dp**2 / np.where(kept, p, 1.0), 0.0)
        info.append(terms.sum(-2) @ accepted / (p.sum(-2) @ accepted))
    return np.concatenate(info)


def full_pattern_information(tau, eta, phi, n_max):
    """The herald's accepted information at each of ``phi`` over every click pattern,
    per heralded photon: rows of phases, a column per count k <= 3."""
    src = SourceParams(tau)
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    mean_n = [mean_heralded_photons(src, eta, k, n_max) for k in range(4)]
    return accepted_information(src, det, phi, n_max) / mean_n


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("eta", [0.7, 1.0])
def test_orbit_information_equals_the_full_pattern_sum(tau, eta):
    # each canonical pattern stands for its polarization-swap orbit, read at
    # phi and phi + pi.  The full sum reads the same information at both; near
    # zero probabilities make its two readings differ by up to 1e-12 relative
    # at tau 0.5 and eta 1, so the orbit value is held between them
    src = SourceParams(tau)
    n_max = _truncation(src, 3)
    phis = np.random.default_rng(21).uniform(0.0, 2.0 * np.pi, size=3)
    full = full_pattern_information(tau, eta, np.concatenate([phis, phis + np.pi]), n_max)
    low, high = np.sort(full.reshape(2, 3, 4), axis=0)
    for phi, lo, hi in zip(phis, low, high):
        got = np.array([pt.value for pt in _herald_points(src, eta, range(4), n_max, phi)])
        assert np.all(got >= lo * (1.0 - 1e-13)) and np.all(got <= hi * (1.0 + 1e-13))


@pytest.mark.parametrize("tau", [0.3, 0.5])
@pytest.mark.parametrize("eta", [0.7, 1.0])
def test_orbit_information_of_multiplexed_counters_equals_the_full_pattern_sum(tau, eta):
    # curve reads the orbit kernel at count 0 for d = 4 counters too: the two
    # modes of a path share one table, so their swap orbits hold as well
    src = SourceParams(tau)
    n_max = choose_truncation(src)
    det = detector_for_source(src, 4, eta, eta)
    phis = np.random.default_rng(22).uniform(0.0, 2.0 * np.pi, size=3)
    full = accepted_information(src, det, np.concatenate([phis, phis + np.pi]), n_max)[:, 0]
    low, high = np.sort(full.reshape(2, 3), axis=0)
    got = OrbitInformation(src, det, (0,), n_max)(phis)[:, 0]
    assert np.all(got >= low * (1.0 - 1e-13)) and np.all(got <= high * (1.0 + 1e-13))


def click_marginals(src, table, pairs, n_max):
    """Each pair's click chance: sector n leaves a path in (k, n - k) with chance 1/(n+1)."""
    q = pair_number_weights(src, n_max) / np.arange(1, n_max + 2)
    return sum(q_n * K.sum(axis=1) for q_n, K in zip(q, engine._click_weights(
        table.weights, table.weights, pairs, n_max)))


def herald_setup(tau, eta):
    """The herald's source, cutoff, detector, canonical pairs, their orbit sizes, and
    each pair's click marginal."""
    src = SourceParams(tau)
    n_max = _truncation(src, 3)
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    pairs = _canonical_pairs(det.table_b, n_max)
    w = np.where(pairs[:, 0] < pairs[:, 1], 2.0, 1.0)
    return src, n_max, det, pairs, w, click_marginals(src, det.table_b, pairs, n_max)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("eta", [0.7, 1.0])
def test_every_pattern_of_a_dropped_pair_reads_at_most_the_term_floor(tau, eta):
    # the herald compiles only pairs with a click marginal above half the floor:
    # on a dense grid, and at the shift by pi each evaluation also reads, every
    # pattern of the full canonical compile holding a dropped pair stays at or
    # below the floor, so its term is one the herald always discarded
    src, n_max, det, pairs, _, m = herald_setup(tau, eta)
    dropped = m <= _TERM_FLOOR / 2
    assert dropped.any() and not dropped.all()
    series = engine.PhaseSeries(engine._click_harmonics(src, det, pairs, pairs, n_max))
    phi = np.linspace(0.0, np.pi, 2001)
    for block in np.array_split(np.concatenate([phi, phi + np.pi]), 100):
        P = series.raw(block)[0]
        assert P[:, dropped].max() <= _TERM_FLOOR and P[:, :, dropped].max() <= _TERM_FLOOR


@pytest.mark.parametrize("tau,eta", [(0.1, 0.9), (0.5, 0.7), (0.5, 1.0)])
def test_path_click_marginals_do_not_depend_on_phase(tau, eta):
    # each pair sector leaves a path maximally mixed, so summing the full series
    # over one path's patterns gives the other path's marginals at every phase;
    # the 300-term sums at tau 0.5 round to within 5 ulps of 1 of them
    src, n_max, det, _, _, _ = herald_setup(tau, eta)
    series, pairs_a, pairs_b = engine.click_pair_series(src, det, n_max=n_max)
    P = series.raw(np.linspace(0.0, 2.0 * np.pi, 13))[0]
    for axis, table, pairs in ((-1, det.table_a, pairs_a), (-2, det.table_b, pairs_b)):
        marginals = P.sum(axis)
        assert np.ptp(marginals, axis=0).max() <= 1e-15
        assert np.abs(marginals - click_marginals(src, table, pairs, n_max)).max() <= 4e-15


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("eta", [0.7, 1.0])
def test_acceptance_and_photons_from_the_marginals(tau, eta):
    # the acceptance equals the orbit-weighted harmonic-0 sum over the full
    # canonical compile, summed from the largest click total down, and the mean
    # photon number equals the binomial-thinning count of surviving photons
    src, n_max, det, pairs, w, _ = herald_setup(tau, eta)
    c0 = engine._click_harmonics(src, det, pairs, pairs, n_max)[0]
    totals = pairs.sum(axis=1)
    ends = [np.count_nonzero(totals >= k) - 1 for k in range(4)]
    want = np.cumsum((w @ c0 * w)[np.argsort(-totals, kind="stable")])[ends]
    points = _herald_points(src, eta, range(4), n_max, phi=0.3)
    assert np.abs([pt.event_probability for pt in points] - want).max() <= 1e-15
    for k, pt in enumerate(points):
        assert pt.mean_heralded_photons == pytest.approx(
            mean_heralded_photons(src, eta, k, n_max), rel=1e-14, abs=0)


def test_a_count_no_live_pair_reaches_reads_no_information():
    # at tau 0.05 the cutoff admits counts whose every pattern lies below the
    # floor: they keep their acceptance, and read 0 as every term was dropped
    src, n_max, det, pairs, _, m = herald_setup(0.05, 0.9)
    unreached = np.arange(n_max + 1) > pairs[m > _TERM_FLOOR / 2].sum(axis=1).max()
    assert unreached.any()
    points = _herald_points(src, 0.9, range(n_max + 1), n_max)
    assert all(pt.event_probability > 0.0 for pt in points)
    values = np.array([pt.value for pt in points])
    assert not values[unreached].any() and values[~unreached].min() > 0.0


def test_zero_acceptance_is_refused():
    with pytest.raises(HeraldError, match="zero acceptance"):
        herald_table(0.05, (0.0,), [0, 1])


# the search misses a higher maximum within its bracket at these cells: two
# peaks one grid step apart at eta 0.99, and the term floor's ripples at tau 0.3
# and eta 1 (the information's floored zeros)
KNOWN_MISSES = {(0.3, 0.99, 2), (0.3, 1.0, 0), (0.3, 1.0, 1), (0.3, 1.0, 2), (0.3, 1.0, 3),
                (0.5, 0.99, 2), (0.5, 0.99, 3)}
CELL_ETAS = (0.7, 0.8, 0.9, 0.95, 0.99, 1.0)


@functools.lru_cache(maxsize=None)
def dense_scan_around_cells(tau):
    """Table cells at ``tau`` with their points, and the best full-pattern
    information of a 101-point scan of one 96-grid step either side of each."""
    tab = herald_table(tau, CELL_ETAS, range(4))
    cells = {}
    for j, eta in enumerate(CELL_ETAS):
        points = _herald_points(SourceParams(tau), eta, range(4), tab.truncation)
        assert [pt.value for pt in points] == tab.values[:, j].tolist()
        windows = sorted({pt.phi for pt in points})
        phi = np.concatenate([np.linspace(p - np.pi / 48, p + np.pi / 48, 101) for p in windows])
        info = full_pattern_information(tau, eta, phi, tab.truncation)
        info = info.reshape(len(windows), 101, 4)
        for k, pt in enumerate(points):
            cells[eta, k] = pt.value, info[windows.index(pt.phi), :, k].max()
    return cells


@pytest.mark.parametrize("tau,eta,k", [
    pytest.param(tau, eta, k, marks=pytest.mark.xfail(strict=True, reason="known search miss"))
    if (tau, eta, k) in KNOWN_MISSES else (tau, eta, k)
    for tau in (0.3, 0.5) for eta in CELL_ETAS for k in range(4)])
def test_table_cell_tops_a_dense_scan_of_its_bracket(tau, eta, k):
    value, best = dense_scan_around_cells(tau)[eta, k]
    assert value >= best * (1.0 - 1e-12)


def test_herald_count_beyond_support_rejected():
    with pytest.raises(HeraldError):
        herald_point(HeraldSpec(k=40, eta=0.9, tau=0.05))


def test_spec_validation():
    with pytest.raises(ValueError):
        HeraldSpec(k=-1, eta=0.9, tau=0.05)
    with pytest.raises(ValueError):
        HeraldSpec(k=1, eta=1.2, tau=0.05)


def test_table_layout_and_cell_access():
    tab = herald_table(0.05, eta_list=(0.9, 1.0), k_list=(0, 1))
    assert tab.values.shape == (2, 2)
    assert tab.cell(0, 1.0) == pytest.approx(1.0025, abs=1e-3)
    rows = list(tab.rows())
    assert rows[0][0] == 0 and rows[1][0] == 1


def test_table_compiles_once_per_transmission(monkeypatch):
    compiles = []
    compile_sectors = engine._sector_harmonics

    def counted(*args, **kwargs):
        compiles.append(args)
        return compile_sectors(*args, **kwargs)

    monkeypatch.setattr(engine, "_sector_harmonics", counted)
    tab = herald_table(0.1, eta_list=(0.7, 0.9), k_list=range(4))
    assert len(compiles) == 2
    assert tab.truncation == choose_truncation(SourceParams(0.1)) + 4
    for i, k in enumerate(tab.k_values):
        for j, eta in enumerate(tab.eta_values):
            want = herald_point(HeraldSpec(k=k, eta=eta, tau=0.1)).value
            assert tab.values[i, j] == pytest.approx(want, rel=1e-12, abs=0)


def test_one_phase_search_serves_every_herald_count(monkeypatch):
    evaluations = []
    raw = engine.PhaseSeries.raw
    monkeypatch.setattr(engine.PhaseSeries, "raw",
                        lambda self, phi: evaluations.append(np.size(phi)) or raw(self, phi))

    def evaluations_of(k_list):
        evaluations.clear()
        herald_table(0.1, eta_list=(0.9,), k_list=k_list)
        return len(evaluations)

    # one 25-point scan, then one batched refinement as long as its slowest
    # lane, each lane rounded like its own single-count search; every
    # evaluation reads its phases and their shifts by pi
    shared = evaluations_of(range(4))
    assert evaluations[:2] == [50, 8]
    assert shared == max(evaluations_of([k]) for k in range(4))


@pytest.mark.parametrize("tau,patterns,k_list,block", [(0.1, 16, range(4), 25),
                                                       (0.5, 110, range(4), 4),
                                                       (0.5, 110, [3], 1)])
def test_herald_scan_block_follows_its_pattern_count(monkeypatch, tau, patterns, k_list, block):
    # at eta 0.9 a path's live canonical click pairs (r_h <= r_v, click marginal
    # above half the term floor) number 16 of 36 at tau 0.1 and 110 of 156 at
    # tau 0.5; an evaluation reads each phase and its shift by pi, so a scan
    # block is half the series' scan_block: 32 at tau 0.1, 1 at tau 0.5.  The
    # scan reads the 25-point grid a block at a time, but no fewer phases than
    # the refinement reads, one per count
    evaluations = []
    raw = engine.PhaseSeries.raw

    def counted(self, phi):
        assert self.coefficients.shape[1:] == (patterns, patterns)
        evaluations.append(np.size(phi))
        return raw(self, phi)

    monkeypatch.setattr(engine.PhaseSeries, "raw", counted)
    herald_table(tau, eta_list=(0.9,), k_list=k_list)
    scan = [2 * min(block, 25 - i) for i in range(0, 25, block)]
    assert evaluations[:len(scan)] == scan
    assert evaluations[len(scan)] == 2 * len(k_list)


def test_shared_search_cells_equal_single_count_points():
    # the two-peak cell: its search misses the higher peak, the same way for both
    tab = herald_table(0.5, eta_list=(0.99,), k_list=range(4))
    for k in range(4):
        want = herald_point(HeraldSpec(k=k, eta=0.99, tau=0.5)).value
        assert tab.values[k, 0] == pytest.approx(want, rel=1e-12, abs=0)


def test_event_probability_is_phase_independent():
    # every source sector puts a fixed photon number in the reference path
    spec = HeraldSpec(k=1, eta=0.8, tau=0.05)
    vals = [herald_point(spec, phi=p).event_probability for p in (0.4, 1.3, 2.6)]
    assert max(vals) - min(vals) < 1e-12


def test_conditioning_marginalizes_back_to_the_full_model():
    # Bayes restriction check: summing P(E_K) * P(r_a | E_K) over K must
    # rebuild the unconditional sensing-path marginal
    src = SourceParams(0.05)
    eta = 0.8
    det = detector_for_source(src, None, eta, eta)
    P = click_probability_tensor(src, RotationSpec(0.9), det)
    marginal = P.sum(axis=(2, 3))
    rebuilt = np.zeros_like(marginal)
    n = P.shape[2]
    for k in range(2 * (n - 1) + 1):
        mask = np.add.outer(np.arange(n), np.arange(n)) == k
        slice_k = np.einsum("avhw,hw->av", P, mask.astype(float))
        rebuilt += slice_k
    np.testing.assert_allclose(rebuilt, marginal, atol=1e-10)
