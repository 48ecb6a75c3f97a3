"""Fisher information, fringe fitting, ML estimation, and baselines."""

import math
import tracemalloc

import numpy as np
import pytest

from spdcmet import estimation
from spdcmet.engine import (
    PhaseSeries,
    detector_for_source,
    fourfold_family,
    ideal_fisher_information,
)
from spdcmet.estimation import (
    FringeFit,
    FringeSet,
    argmax_over_phase,
    bootstrap_fisher_band,
    fisher_curve,
    fisher_information,
    fit_fringes,
    heisenberg_limit,
    mean_sensing_photons,
    ml_estimate,
    monte_carlo_ml_fisher,
    performance_curve,
    snl_fisher,
)
from spdcmet.fock import SourceParams, pair_number_weights
from spdcmet.engine import choose_truncation


# two-outcome reference family, cos^2 and sin^2 of phi/2: unit information everywhere
cos2_family = PhaseSeries([[0.5, 0.5], [0.5, -0.5]])


def experiment_family():
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    return fourfold_family(src, det)


# ---------------------------------------------------------------------------
# Fisher information


def test_constant_family_carries_no_information():
    fam = PhaseSeries([[0.3, 0.7]])
    assert fisher_information(fam, 1.2) == 0.0


@pytest.mark.parametrize("phi", [0.4, 1.0, 2.2, 4.5])
def test_two_outcome_cosine_family_has_unit_information(phi):
    assert fisher_information(cos2_family, phi) == pytest.approx(1.0, rel=1e-6)


def test_vanishing_probability_with_live_derivative_is_flagged():
    # (sin(phi) / 2, 1 - sin(phi) / 2): the first vanishes at 0 with slope 1/2
    fam = PhaseSeries([[0.0, 1.0], [-0.5j, 0.5j]])
    values, clipped = fisher_curve(fam, [0.0, 1.0])
    assert clipped.tolist() == [True, False]
    assert np.all(np.isfinite(values))


def test_ideal_family_information_is_flat():
    src = SourceParams(0.05)
    grid = np.linspace(0.0, 2 * np.pi, 33)
    vals = np.array([ideal_fisher_information(src, p) for p in grid])
    assert vals.max() / vals.min() < 1.01


def test_lossy_family_shows_information_troughs():
    fam = experiment_family()
    grid = np.linspace(0.0, 2 * np.pi, 97)
    vals, _ = fisher_curve(fam, grid)
    interior = [
        i for i in range(1, len(grid) - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    assert len(interior) >= 2


# ---------------------------------------------------------------------------
# derivatives


def test_fringe_derivative_closed_form():
    c = 0.42
    fit = FringeFit(c0=0.0, c1=c, c2=0.0, phi0=0.0)
    assert fit.derivative(math.pi / 2) == pytest.approx(-c, abs=1e-14)


def test_analytic_and_finite_difference_derivatives_agree():
    fits = FringeSet(fits=(
        FringeFit(c0=0.4, c1=0.1, c2=-0.05, phi0=0.2),
        FringeFit(c0=0.6, c1=-0.1, c2=0.05, phi0=0.2),
    ))
    h = 1e-4
    for phi in np.linspace(0, 2 * np.pi, 9):
        _, analytic = fits.probabilities_and_derivatives(phi)
        fd = (fits.probabilities(phi + h) - fits.probabilities(phi - h)) / (2 * h)
        assert np.abs(analytic - fd).max() < 1e-6


def test_renormalized_derivatives_sum_to_zero():
    fam = experiment_family()
    for phi in (0.3, 1.7):
        assert fam.derivatives(phi).sum() == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# fringe fitting


TRUTH = FringeSet(fits=(
    FringeFit(c0=0.30, c1=0.12, c2=-0.04, phi0=0.35),
    FringeFit(c0=0.45, c1=-0.20, c2=0.06, phi0=0.35),
    FringeFit(c0=0.25, c1=0.08, c2=-0.02, phi0=0.35),
))


def _truth_samples(n_phi=13, scale=1.0):
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    fracs = np.array([TRUTH.raw(p)[0] for p in phi])
    return phi, fracs * scale


def test_noiseless_fit_recovers_the_model():
    phi, counts = _truth_samples()
    fit = fit_fringes(phi, counts)
    grid = np.linspace(0, 2 * np.pi, 101)
    for got, want in zip(fit, TRUTH):
        assert np.abs(got.value(grid) - want.value(grid)).max() < 1e-8
    offsets = [f.phi0 for f in fit]
    assert max(offsets) - min(offsets) < 1e-6  # shared offset recovered


def test_fit_requires_five_distinct_phases():
    phi, counts = _truth_samples()
    with pytest.raises(ValueError):
        fit_fringes(phi[:4], counts[:4])
    # phases are counted modulo 2 pi
    aliased = np.concatenate([phi[:4], phi[:4] + 2 * np.pi, phi[:4] - 4 * np.pi])
    with pytest.raises(ValueError, match="modulo 2 pi"):
        fit_fringes(aliased, np.tile(counts[:4], (3, 1)))


def test_fitted_curves_stay_non_negative_and_normalized():
    phi, counts = _truth_samples()
    fit = fit_fringes(phi, counts)
    grid = np.linspace(0, 2 * np.pi, 181)
    probs = np.array([fit.probabilities(p) for p in grid])
    assert probs.min() > -1e-9
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def _dense_fringe_fit(phi, y, phi0):
    """Least-squares (c0, c1, c2) and residual sum of squares of one column
    of fractions at a fixed offset, from the full n_phi x 3 design."""
    u = phi + phi0
    X = np.column_stack([np.ones_like(u), np.cos(u), np.cos(2.0 * u)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ coef - y
    return coef, resid @ resid


def test_fitted_offset_is_a_local_residual_minimum_with_least_squares_coefficients():
    rng = np.random.default_rng(42)
    phi, fracs = _truth_samples()
    counts = rng.poisson(fracs * 10_000)
    fit = fit_fringes(phi, counts)
    y = counts / counts.sum(axis=1, keepdims=True)
    for j, f in enumerate(fit):
        coef, ssr = _dense_fringe_fit(phi, y[:, j], f.phi0)
        np.testing.assert_allclose([f.c0, f.c1, f.c2], coef, rtol=0.0, atol=1e-10)
        assert f.residual == pytest.approx(ssr, rel=1e-9)
        for delta in (1e-4, -1e-4):
            assert _dense_fringe_fit(phi, y[:, j], f.phi0 + delta)[1] > ssr


@pytest.mark.parametrize("grid", ["equispaced", "non-uniform", "five distinct"])
def test_span_fit_matches_the_dense_fit_at_its_offset(grid):
    rng = np.random.default_rng(7)
    phi = {
        "equispaced": np.linspace(0.0, 2 * np.pi, 40, endpoint=False),
        "non-uniform": np.sort(rng.uniform(0.0, 2 * np.pi, 23)),
        # repeats, one of them a full turn apart, leave exactly five angles
        "five distinct": np.array([0.1, 0.9, 2.0, 3.7, 5.2, 0.9, 2.0 + 2 * np.pi]),
    }[grid]
    counts = rng.poisson(np.array([TRUTH.raw(p)[0] for p in phi]) * 5e3)
    y = counts / counts.sum(axis=1, keepdims=True)
    for j, f in enumerate(fit_fringes(phi, counts)):
        coef, ssr = _dense_fringe_fit(phi, y[:, j], f.phi0)
        np.testing.assert_allclose([f.c0, f.c1, f.c2], coef, rtol=0.0, atol=1e-10)
        assert f.residual == pytest.approx(ssr, rel=1e-9)


def test_poisson_noised_fit_tracks_truth_within_three_sigma():
    rng = np.random.default_rng(42)
    n_per_phi = 10_000
    phi, fracs = _truth_samples()
    counts = rng.poisson(fracs * n_per_phi)
    fit = fit_fringes(phi, counts)
    for j, want in enumerate(TRUTH):
        truth = want.value(phi)
        sigma = np.sqrt(truth / n_per_phi)
        got = fit.fits[j].value(phi)
        assert np.all(np.abs(got - truth) < 3.0 * sigma)


def test_shared_offset_on_shifted_theory_curves():
    # a reference-path rotation shifts every pattern by the same offset
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    theta = math.radians(80.0)
    fam = fourfold_family(src, det, theta=theta)
    phi = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
    counts = np.array([fam.probabilities(p) for p in phi])
    fit = fit_fringes(phi, counts)
    strong = [f for f in fit if abs(f.c1) > 0.01]
    assert len(strong) >= 4
    for f in strong:
        assert f.phi0 == pytest.approx(-theta, abs=5e-3)


# ---------------------------------------------------------------------------
# maximum likelihood


def test_ml_recovers_exact_proportions():
    fam = experiment_family()
    phi_star = 1.0
    counts = fam.probabilities(phi_star) * 1e6
    est = ml_estimate(counts, fam, (0.2, 1.8))
    assert est.phi_hat == pytest.approx(phi_star, abs=1e-6)
    assert not est.ambiguous


def test_ml_flags_mirror_ambiguity():
    phi_star = 1.0
    counts = cos2_family(phi_star) * 1e5
    est = ml_estimate(counts, cos2_family, (0.0, 2 * math.pi))
    assert est.ambiguous
    cands = sorted(c[0] for c in est.candidates)
    assert cands[0] == pytest.approx(phi_star, abs=1e-5)
    assert cands[-1] == pytest.approx(2 * math.pi - phi_star, abs=1e-5)


def test_ml_estimate_is_deterministic():
    fam = experiment_family()
    counts = fam.probabilities(0.8) * 1000
    a = ml_estimate(counts, fam, (0.2, 1.5))
    b = ml_estimate(counts, fam, (0.2, 1.5))
    assert a.phi_hat == b.phi_hat


def test_monte_carlo_information_on_unit_family():
    res = monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=1000,
                                sample_size=1000, seed=1)
    assert abs(res.i_ml - 1.0) < 0.05
    assert res.stderr > 0


class CountingSeries(PhaseSeries):
    """A phase series that counts its evaluations."""

    evaluations = 0

    def raw(self, phi):
        self.evaluations += 1
        return super().raw(phi)


def test_ml_repetitions_share_every_family_evaluation():
    # the likelihood table and the refinement are batched over repetitions
    evaluations = []
    for reps in (5, 60):
        family = CountingSeries(cos2_family.harmonics)
        monte_carlo_ml_fisher(family, 1.0, repetitions=reps, sample_size=200, seed=4)
        evaluations.append(family.evaluations)
    assert evaluations[0] == evaluations[1] < 100


def test_batched_ml_repetitions_match_one_search_per_repetition():
    reps, n, phi_true, halfwidth = 40, 300, 1.0, 0.6
    family = experiment_family()
    res = monte_carlo_ml_fisher(family, phi_true, repetitions=reps,
                                sample_size=n, seed=21, search_halfwidth=halfwidth)
    rng = np.random.default_rng(21)
    grid = np.linspace(phi_true - halfwidth, phi_true + halfwidth,
                       round(1000 * 2 * halfwidth / (2 * math.pi)))
    log_grid = np.log(np.maximum([family.probabilities(g) for g in grid], 1e-12))
    estimates = []
    for _ in range(reps):
        counts = rng.multinomial(n, family.probabilities(phi_true))
        loglik = lambda p: counts @ np.log(np.maximum(family.probabilities(p), 1e-12))
        estimates.append(argmax_over_phase(loglik, grid, values=log_grid @ counts,
                                           tol=1e-10)[0])
    # rounding of a log-likelihood near 700 locates its flat maximum only to
    # about sqrt(eps * 700 / (n I)) ~ 1e-8, whichever way it is evaluated
    assert res.mean_estimate == pytest.approx(np.mean(estimates), rel=0.0, abs=1e-7)
    assert res.variance == pytest.approx(np.var(estimates, ddof=1), rel=1e-5)


def test_ml_window_far_narrower_than_the_spread_puts_every_scan_peak_on_an_edge():
    # at N = 100 the estimates spread by about 0.1; the maximum-likelihood
    # phase, 2 acos(sqrt(n_1 / N)), misses 1.0 by far more than the window
    res = monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=200, sample_size=100,
                                seed=3, search_halfwidth=1e-6)
    assert res.edge_hits == 200


def test_ml_huge_sample_keeps_every_scan_peak_inside_the_window():
    # at N = 1e10 the estimates spread by 1e-5 in a window of half-width 0.5
    res = monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=200, sample_size=10**10,
                                seed=3, search_halfwidth=0.5)
    assert res.edge_hits == 0


def test_monte_carlo_is_seed_deterministic():
    a = monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=50, sample_size=200, seed=9)
    b = monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=50, sample_size=200, seed=9)
    assert a.i_ml == b.i_ml


def test_estimator_bias_shrinks_with_sample_size():
    # 5-sigma bound on the mean estimate tightens tenfold from N=100 to 1e4
    phi_star = 1.0
    for n, reps in ((100, 400), (1000, 400), (10_000, 400)):
        res = monte_carlo_ml_fisher(cos2_family, phi_star, repetitions=reps,
                                    sample_size=n, seed=13)
        bound = 5.0 / math.sqrt(reps * n)  # I = 1 for this family
        assert abs(res.mean_estimate - phi_star) < bound


# ---------------------------------------------------------------------------
# bootstrap band


def test_noise_free_bootstrap_collapses_to_central_curve():
    phi, counts = _truth_samples(scale=1e4)
    band = bootstrap_fisher_band(phi, counts, replicates=16, seed=3, noise="none")
    np.testing.assert_allclose(band.low, band.central, atol=1e-12)
    np.testing.assert_allclose(band.high, band.central, atol=1e-12)


def test_bootstrap_band_covers_the_truth():
    rng = np.random.default_rng(5)
    phi, fracs = _truth_samples(n_phi=17)
    counts = rng.poisson(fracs * 2e4)
    eval_grid = np.linspace(0.3, 2 * np.pi - 0.3, 21)
    band = bootstrap_fisher_band(phi, counts, replicates=1000, seed=6,
                                 eval_grid=eval_grid)
    truth, _ = fisher_curve(TRUTH, eval_grid)
    covered = np.mean((band.low <= truth) & (truth <= band.high))
    assert covered >= 0.9
    assert np.all(band.low <= band.central + 1e-12)
    assert np.all(band.central <= band.high + 1e-12)


def _per_replicate_band(phi, counts, replicates, seed, eval_grid):
    """The band as one Poisson draw, fit and curve per replicate in turn."""
    rng = np.random.default_rng(seed)
    central, _ = fisher_curve(fit_fringes(phi, counts), eval_grid)
    curves = []
    for _ in range(replicates):
        sample = rng.poisson(counts)
        bad = sample.sum(axis=1) <= 0
        sample = np.where(bad[:, None], counts, sample)
        curves.append(fisher_curve(fit_fringes(phi, sample), eval_grid)[0])
    low, high = np.percentile(curves, (2.5, 97.5), axis=0)
    return central, low, high


@pytest.mark.parametrize("block_columns", [None, 15])  # default: one block; 15: 5 sets a block
@pytest.mark.parametrize("replicates", [1, 8, 37])
def test_batched_band_matches_per_replicate_fits(monkeypatch, replicates, block_columns):
    if block_columns:
        monkeypatch.setattr(estimation, "_BAND_COLUMNS", block_columns)
    rng = np.random.default_rng(21)
    phi, fracs = _truth_samples(n_phi=17)
    counts = rng.poisson(fracs * 3e3)
    eval_grid = np.linspace(0.2, 2 * np.pi - 0.2, 23)
    band = bootstrap_fisher_band(phi, counts, replicates=replicates, seed=4,
                                 eval_grid=eval_grid)
    central, low, high = _per_replicate_band(phi, counts, replicates, 4, eval_grid)
    # within the golden-search tolerance of the offset refinement
    np.testing.assert_allclose(band.central, central, rtol=1e-6)
    np.testing.assert_allclose(band.low, low, rtol=1e-6)
    np.testing.assert_allclose(band.high, high, rtol=1e-6)
    assert band.patched_rows == 0


def test_band_fit_work_does_not_grow_with_replicates(monkeypatch):
    calls = []
    offset_fit = estimation._offset_fit

    def counted(*args):
        calls.append(1)
        return offset_fit(*args)

    monkeypatch.setattr(estimation, "_offset_fit", counted)
    rng = np.random.default_rng(2)
    phi, fracs = _truth_samples(n_phi=17)
    counts = rng.poisson(fracs * 2e3)
    work = []
    for replicates in (2, 16):  # both within one replicate block
        calls.clear()
        bootstrap_fisher_band(phi, counts, replicates=replicates, seed=9)
        work.append(len(calls))
    assert work[0] == work[1] > 0


def test_band_memory_stays_bounded():
    # 100 replicates of 100 phases x 9 patterns: 909 fitted columns in one block
    family = experiment_family()
    phi = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    counts = family.probabilities(phi) * 1e4
    bootstrap_fisher_band(phi, counts, replicates=2, seed=0)  # first-call allocations
    tracemalloc.start()
    try:
        bootstrap_fisher_band(phi, counts, replicates=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_band_counts_the_rows_it_patches():
    # two phases carry a total rate of 3e-300 per replicate: Poisson draws
    # them all-zero in every replicate, so exactly 2 rows per replicate are patched
    phi, counts = _truth_samples(n_phi=17, scale=5e3)
    counts[[3, 11]] = 1e-300
    band = bootstrap_fisher_band(phi, counts, replicates=12, seed=1)
    assert band.patched_rows == 24
    assert np.all(np.isfinite(band.low)) and np.all(np.isfinite(band.high))
    assert bootstrap_fisher_band(phi, counts, replicates=12, seed=1,
                                 noise="none").patched_rows == 0


def test_band_width_shrinks_with_count_volume():
    rng = np.random.default_rng(8)
    phi, fracs = _truth_samples(n_phi=17)
    eval_grid = np.linspace(0.3, 2 * np.pi - 0.3, 11)
    widths = []
    for scale in (1e3, 1e5):
        counts = rng.poisson(fracs * scale)
        band = bootstrap_fisher_band(phi, counts, replicates=200, seed=11,
                                     eval_grid=eval_grid)
        widths.append(np.mean(band.high - band.low))
    ratio = widths[0] / widths[1]
    assert 5.0 < ratio < 20.0  # ~sqrt(100) from the count scale


# ---------------------------------------------------------------------------
# baselines


def test_snl_approaches_two_pairs_at_small_gain():
    # only the two-pair sector feeds 2+2 coincidences as the gain vanishes
    src = SourceParams(1e-3)
    det = detector_for_source(src, 4, 0.23, 0.12)
    assert snl_fisher(src, det) == pytest.approx(2.0, abs=1e-5)


def test_snl_anchor_at_experiment_gain():
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    assert abs(snl_fisher(src, det) - 2.01) <= 0.01


def test_snl_is_monotone_in_gain():
    vals = []
    for tau in (0.02, 0.04, 0.06, 0.08, 0.1):
        src = SourceParams(tau)
        det = detector_for_source(src, 4, 0.23, 0.12)
        vals.append(snl_fisher(src, det))
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_heisenberg_limit_diverges_at_zero_gain():
    assert heisenberg_limit(SourceParams(0.0)) == math.inf


def test_heisenberg_limit_against_direct_second_moment():
    for tau in (0.061, 0.2, 0.4):
        src = SourceParams(tau)
        n_max = choose_truncation(src)
        q = pair_number_weights(src, n_max)
        direct = sum(n * n * q[n] for n in range(n_max + 1))
        closed = 2 * math.sinh(tau) ** 2 * (1 + 3 * math.sinh(tau) ** 2)
        assert direct == pytest.approx(closed, rel=1e-9)
        assert heisenberg_limit(src) == pytest.approx(1 / math.sqrt(closed), rel=1e-9)


def test_heisenberg_limit_decreases_with_gain():
    vals = [heisenberg_limit(SourceParams(t)) for t in (0.02, 0.05, 0.1, 0.3)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mean_sensing_photons_closed_form():
    tau = 0.3
    assert mean_sensing_photons(SourceParams(tau)) == pytest.approx(
        2 * math.sinh(tau) ** 2, abs=1e-10
    )


# ---------------------------------------------------------------------------
# performance curve


def test_performance_curve_shape():
    src = SourceParams(0.05)
    etas = np.linspace(0.05, 1.0, 8)
    points = performance_curve(src, etas, d=4, coarse=48)
    norm = np.array([p.normalized_uncertainty for p in points])
    hl = np.array([p.heisenberg_normalized for p in points])
    # unit transmission beats the shot-noise line but not the ultimate bound
    assert norm[-1] < 1.0
    assert np.all(norm >= hl - 1e-9)
    crossings = np.sum(np.diff(np.sign(norm - 1.0)) != 0)
    assert crossings == 1


@pytest.mark.parametrize("eta", [0.0, -0.2])
def test_performance_curve_rejects_a_transmission_that_measures_nothing(eta):
    # at eta = 0 the information is rounding noise, and delta_phi * sqrt(eta)
    # would report a perfect 0
    with pytest.raises(ValueError, match=f"got {eta}"):
        performance_curve(SourceParams(0.05), [eta, 0.5], d=4, coarse=48)


# ---------------------------------------------------------------------------
# phase search


def trig_bump(phi0):
    """A two-harmonic fringe whose only maximum over the period is at phi0."""
    return lambda p: np.cos(p - phi0) + 0.3 * np.cos(2.0 * (p - phi0))


def test_phase_search_finds_a_maximum_across_the_wrap():
    # the maximum sits between the last grid point and grid point 0
    step = 2.0 * math.pi / 96
    fn = trig_bump(-0.4 * step)
    phi, value = argmax_over_phase(fn)
    assert math.remainder(phi + 0.4 * step, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-7)
    assert value == pytest.approx(1.3, abs=1e-14)


def test_phase_search_agrees_with_a_dense_scan():
    rng = np.random.default_rng(11)
    dense = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    k = np.arange(6)
    for _ in range(5):
        a, b = rng.normal(size=(2, 6))
        fn = lambda p: np.cos(np.multiply.outer(p, k)) @ a + np.sin(np.multiply.outer(p, k)) @ b
        values = np.cos(np.outer(dense, k)) @ a + np.sin(np.outer(dense, k)) @ b
        # a grid point misses the peak by at most max|f''| h^2 / 8
        miss = float(k**2 @ (np.abs(a) + np.abs(b))) * (dense[1] ** 2) / 8.0
        phi, value = argmax_over_phase(fn, 48)
        assert values.max() - 1e-12 <= value <= values.max() + miss
        gap = math.remainder(phi - dense[int(np.argmax(values))], 2.0 * math.pi)
        assert abs(gap) < 1e-4


def test_phase_search_scans_the_grid_a_few_phases_per_call():
    # large outputs (a click tensor per phase) must not be held for the whole grid
    seen = []

    def fn(p):
        seen.append(np.array(p, ndmin=1))
        return trig_bump(2.0)(p)

    phi, _ = argmax_over_phase(fn, 96)
    scan_calls = int(np.searchsorted(np.cumsum([s.size for s in seen]), 96)) + 1
    assert scan_calls <= 48 and max(s.size for s in seen) <= 8
    np.testing.assert_array_equal(np.concatenate(seen)[:96],
                                  np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False))
    assert phi == pytest.approx(2.0, abs=1e-7)


def test_batched_phase_search_equals_one_search_per_column():
    centers = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, size=6)
    grid = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    values = trig_bump(centers)(grid[:, None])
    phi, value = argmax_over_phase(trig_bump(centers), grid, values=values)
    assert phi.shape == value.shape == (6,)
    for b, center in enumerate(centers):
        want = argmax_over_phase(trig_bump(center), grid, values=values[:, b])
        assert (phi[b], value[b]) == pytest.approx(want, rel=0.0, abs=1e-15)


def test_phase_search_on_a_window_refines_past_its_end():
    # the grid ends 0.03 short of the maximum; the bracket is not clipped
    fn = trig_bump(1.03)
    grid = np.linspace(0.5, 1.0, 11)
    phi, value = argmax_over_phase(fn, grid, values=[fn(g) for g in grid], tol=1e-11)
    assert phi == pytest.approx(1.03, abs=1e-7)
    assert value == pytest.approx(1.3, abs=1e-14)


def test_ml_search_window_must_be_positive():
    with pytest.raises(ValueError):
        monte_carlo_ml_fisher(cos2_family, 1.0, repetitions=3, search_halfwidth=0.0)

