"""Full pattern probabilities: loss, multiplexing, conditioning, symmetries."""

import math
import sys

import numpy as np
import pytest

from oracles import (
    occupation_probabilities,
    oracle_click_tensor,
    oracle_click_tensor_loss_first,
    wigner_d_squared,
)
from spdcmet.detectors import DetectorModel, binomial_thinning_matrix
from spdcmet.engine import (
    _occupations,
    _sector_harmonics,
    PatternFamily,
    PhaseSeries,
    choose_truncation,
    click_pair_series,
    click_probability_tensor,
    detection_probability,
    detector_for_source,
    fourfold_conditional_means,
    fourfold_family,
    fourfold_patterns,
    full_pattern_distribution,
    ideal_fisher_information,
    mean_photon_numbers,
)
from spdcmet.estimation import fit_fringes
from spdcmet.fock import (
    GainRangeError,
    RotationSpec,
    SourceParams,
    pair_number_weights,
    rotation_generator,
    rotation_matrices,
)
from spdcmet.heralding import herald_table

EXPERIMENT = dict(tau=0.061, eta_a=0.23, eta_b=0.12)

NINE = (
    (2, 0, 0, 2), (2, 0, 1, 1), (2, 0, 2, 0),
    (1, 1, 0, 2), (1, 1, 1, 1), (1, 1, 2, 0),
    (0, 2, 0, 2), (0, 2, 1, 1), (0, 2, 2, 0),
)


def experiment_model(d=4):
    src = SourceParams(EXPERIMENT["tau"])
    det = detector_for_source(src, d, EXPERIMENT["eta_a"], EXPERIMENT["eta_b"])
    return src, det


# ---------------------------------------------------------------------------
# truncation


def test_truncation_zero_gain():
    assert choose_truncation(SourceParams(0.0)) == 0


def test_truncation_tail_against_direct_summation():
    src = SourceParams(0.1)
    n_max = choose_truncation(src)
    x = src.x
    # sum far enough that the remainder is negligible at double precision
    direct_tail = sum((n + 1) * x**n for n in range(n_max + 1, 400)) * (1 - x) ** 2
    assert direct_tail < src.trunc_epsilon
    assert sum((n + 1) * x**n for n in range(n_max, 400)) * (1 - x) ** 2 >= src.trunc_epsilon


def test_truncation_depth_at_experiment_gain():
    assert choose_truncation(SourceParams(0.061)) == 5


def test_unsupported_gain_regime():
    with pytest.raises(GainRangeError):
        SourceParams(1.2)


# ---------------------------------------------------------------------------
# detection probabilities


def test_perfect_counting_reduces_to_ideal_patterns():
    src = SourceParams(0.1)
    det = detector_for_source(src, None, 1.0, 1.0)
    rot = RotationSpec(0.9, 0.3)
    oracle = occupation_probabilities(src, rot.phi, rot.theta, 2)
    for occ in [(0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1), (2, 0, 1, 1)]:
        assert detection_probability(occ, rot, src, det) == pytest.approx(
            oracle[occ], abs=1e-13
        )


@pytest.mark.parametrize("tau", [0.05, 0.15, 0.5])
@pytest.mark.parametrize("d", [4, None, 1, 8])
def test_click_tensor_is_a_distribution(tau, d):
    src = SourceParams(tau)
    rng = np.random.default_rng(2)
    for _ in range(3):
        det = detector_for_source(src, d, *rng.uniform(0.05, 1.0, size=2))
        rot = RotationSpec(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 2 * np.pi)))
        P = click_probability_tensor(src, rot, det)
        assert P.min() >= -1e-15
        assert P.sum() == pytest.approx(1.0, abs=src.trunc_epsilon * 100)


def test_pattern_against_propagation_oracle():
    src = SourceParams(0.1)
    det = detector_for_source(src, 4, 0.5, 0.5)
    rot = RotationSpec(1.0, 0.0)
    n_max = choose_truncation(src)
    got = detection_probability((1, 0, 0, 1), rot, src, det)
    want = oracle_click_tensor(src, 1.0, 0.0, 0.5, 0.5, 4, n_max)[1, 0, 0, 1]
    assert got == pytest.approx(want, abs=1e-10)


def test_pattern_exceeding_arity_rejected():
    src, det = experiment_model()
    with pytest.raises(ValueError):
        detection_probability((5, 0, 0, 0), RotationSpec(0.1), src, det)


def test_loss_order_does_not_matter():
    # thinning the source first, branch by branch, gives the same clicks
    src = SourceParams(0.1)
    A = oracle_click_tensor(src, 0.9, 1.4, 0.6, 0.35, 4, 3)
    B = oracle_click_tensor_loss_first(src, 0.9, 1.4, 0.6, 0.35, 4, 3)
    np.testing.assert_allclose(A, B, atol=1e-12)
    det = detector_for_source(src, 4, 0.6, 0.35)
    P = click_probability_tensor(src, RotationSpec(0.9, 1.4), det, n_max=3)
    np.testing.assert_allclose(P[:5, :5, :5, :5], B, atol=1e-12)


# ---------------------------------------------------------------------------
# fourfold conditioning


def test_fourfold_pattern_roster_and_order():
    assert fourfold_patterns() == NINE


def test_fourfold_distribution_normalizes_exactly():
    src, det = experiment_model()
    fam = fourfold_family(src, det)
    probs = fam.probabilities(0.7)
    assert fam.patterns == NINE
    assert probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert probs.min() >= 0.0


def test_fourfold_family_matches_distribution():
    # the nine patterns of the full distribution, renormalized
    src, det = experiment_model()
    full = full_pattern_distribution(RotationSpec(1.3), src, det)
    patterns = [tuple(p) for p in full.patterns]
    probs = np.array([full.probs[patterns.index(p)] for p in NINE])
    fam = fourfold_family(src, det)
    np.testing.assert_allclose(fam.probabilities(1.3), probs / probs.sum(), atol=1e-14)


def test_fourfold_curves_have_no_harmonics_above_two():
    src, det = experiment_model()
    fam = fourfold_family(src, det)
    grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    curves = np.array([fam.probabilities(p) for p in grid])  # (128, 9)
    spec = np.abs(np.fft.rfft(curves, axis=0)) / grid.size
    # conditioning renormalizes per phase, which leaks a little power into
    # the third harmonic; it stays three orders below the fringe signal
    leading = spec[:3].max()
    assert spec[3:].max() < 5e-3 * leading


def test_reference_rotation_translates_the_fringes():
    src, det = experiment_model()
    delta = math.radians(80.0)
    for phi in (0.3, 1.1, 2.5, 4.0):
        shifted = fourfold_family(src, det, theta=delta).probabilities(phi)
        base = fourfold_family(src, det).probabilities(phi - delta)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_reference_rotation_delays_the_harmonics_the_way_the_oracle_rotates():
    # the oracle rotates the reference path itself, so it fixes the sign of
    # theta that a translation test alone cannot see
    src, det = experiment_model()
    fam = fourfold_family(src, det, theta=0.7)
    for phi in (0.3, 1.1, 2.5, 4.0):
        want = oracle_click_tensor(src, phi, 0.7, EXPERIMENT["eta_a"], EXPERIMENT["eta_b"], 4,
                                   fam.n_max)[tuple(np.transpose(NINE))]
        np.testing.assert_allclose(fam.raw(phi)[0], want, rtol=0, atol=1e-14 * want.max())


def test_family_derivatives_sum_to_zero():
    src, det = experiment_model()
    fam = fourfold_family(src, det)
    p, dp = fam.probabilities_and_derivatives(0.9)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert dp.sum() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau, eta_a, eta_b", [(0.0, 0.23, 0.12), (0.061, 0.0, 0.12),
                                               (0.061, 0.23, 0.0)])
def test_a_class_of_zero_probability_is_refused_at_compile(tau, eta_a, eta_b):
    src = SourceParams(tau)
    det = detector_for_source(src, 4, eta_a, eta_b)
    with pytest.raises(ValueError, match="gain and transmission"):
        fourfold_family(src, det)


def test_subset_probability_is_small_but_positive():
    src, det = experiment_model()
    fam = fourfold_family(src, det)
    w = fam.subset_probability(1.0)
    assert 0.0 < w < 1e-3  # heavy loss makes fourfolds rare


# ---------------------------------------------------------------------------
# symmetry and means


def test_path_swap_symmetry_at_balanced_loss():
    # swapping paths together with h<->v is a symmetry of the source
    src = SourceParams(0.08)
    det = detector_for_source(src, 4, 0.4, 0.4)
    P = click_probability_tensor(src, RotationSpec(0.0, 0.0), det)
    np.testing.assert_allclose(P, np.transpose(P, (3, 2, 1, 0)), atol=1e-12)


def test_mean_photons_zero_gain():
    m = mean_photon_numbers(SourceParams(0.0))
    assert m.per_path == 0.0
    assert m.total == 0.0


def test_mean_photons_match_pair_statistics():
    # each path's mean photon number equals the mean pair number 2 sinh^2
    tau = 0.3
    m = mean_photon_numbers(SourceParams(tau))
    assert m.per_path == pytest.approx(2 * math.sinh(tau) ** 2, abs=1e-10)
    assert m.total == pytest.approx(2 * m.per_path, abs=1e-12)


def test_conditional_means_exceed_two_pairs_worth():
    src, det = experiment_model()
    m = mean_photon_numbers(src, det)
    # accepted fourfolds come from n >= 2 sectors, so both conditional
    # means sit just above 2; survivors are fewer than emitted
    assert 2.0 < m.fourfold_surviving < m.fourfold_emitted < 2.1


def _loop_path_click_stats(table, occ_h, occ_v, clicks):
    """P(path total = clicks | occupation) and survivor-weighted sum, by
    thinning each occupation and summing every survivor split in turn."""
    W0, eta = table.base_weights, table.eta
    p_event = surv_sum = 0.0
    bh = binomial_thinning_matrix(occ_h, eta)[occ_h]
    bv = binomial_thinning_matrix(occ_v, eta)[occ_v]
    for jh in range(occ_h + 1):
        for jv in range(occ_v + 1):
            w = sum(W0[rh, jh] * W0[clicks - rh, jv] for rh in range(clicks + 1)
                    if rh <= table.max_clicks and clicks - rh <= table.max_clicks)
            pj = bh[jh] * bv[jv] * w
            p_event += pj
            surv_sum += pj * (jh + jv)
    return p_event, surv_sum


@pytest.mark.parametrize("d", [4, None])
@pytest.mark.parametrize("tau", [0.061, 0.5])
def test_conditional_means_match_the_per_occupation_loop(tau, d):
    src = SourceParams(tau)
    det = detector_for_source(src, d, 0.23, 0.12)
    n_max = choose_truncation(src)
    a = [np.array([_loop_path_click_stats(det.table_a, k, n - k, 2) for k in range(n + 1)])
         for n in range(n_max + 1)]
    b = [np.array([_loop_path_click_stats(det.table_b, k, n - k, 2)[0] for k in range(n + 1)])
         for n in range(n_max + 1)]
    weights_a = [np.stack([x[:, 0], n * x[:, 0], x[:, 1]]) for n, x in enumerate(a)]
    den, emitted, surviving = _sector_harmonics(
        src, weights_a, [x[None] for x in b], degree=0)[0, :, 0].real
    np.testing.assert_allclose(fourfold_conditional_means(src, det),
                               (emitted / den, surviving / den), rtol=1e-13)


@pytest.mark.parametrize("phi, theta", [(1.1, 0.4), (4.0, 1.3)])
@pytest.mark.parametrize("tau", [0.3, 0.9])
@pytest.mark.parametrize("n", [12, 24, 40])
def test_sector_probabilities_match_the_wigner_d_closed_form(n, tau, phi, theta):
    # a joint rotation leaves every sector unchanged, so p_n depends on
    # phi - theta alone: x^n (1 - x)^2 d^{n/2}_{k - n/2, n/2 - l}(phi - theta)^2.
    # Near |phi - theta| = pi/2 the float oracle itself is off by up to 3e-11
    # of the sector maximum at n = 40 (against a 50-digit reference), and so
    # is the rotation recursion; at these differences the oracle holds 5e-13.
    src = SourceParams(tau)
    weight = math.tanh(tau) ** (2 * n) / math.cosh(tau) ** 4
    want = weight * np.array([[wigner_d_squared(n, 2 * k - n, n - 2 * l, phi - theta)
                               for l in range(n + 1)] for k in range(n + 1)])
    *_, got = _occupations(src, phi - theta, n)
    assert np.abs(got - want).max() <= 2e-12 * want.max()


def test_full_distribution_object():
    src, det = experiment_model()
    dist = full_pattern_distribution(RotationSpec(0.4), src, det)
    assert dist.total == pytest.approx(1.0, abs=1e-10)
    d = dist.as_dict()
    assert d[(0, 0, 0, 0)] > 0.9  # mostly vacuum at this gain and loss


def test_number_resolving_tables_stop_at_the_pair_cutoff():
    # no mode holds more photons than the n_max = 12 pairs emitted at this gain
    src = SourceParams(0.3)
    det = detector_for_source(src, None, 0.8, 0.7)
    assert det.table_a.max_clicks == det.table_b.max_clicks == choose_truncation(src) == 12
    dist = full_pattern_distribution(RotationSpec(1.1), src, det)
    assert len(dist.patterns) == 13**4
    assert dist.total == pytest.approx(1.0, abs=src.trunc_epsilon)


def test_ideal_information_is_phase_flat():
    src = SourceParams(0.05)
    vals = [ideal_fisher_information(src, p) for p in np.linspace(0, 2 * np.pi, 17)]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


@pytest.mark.parametrize("tau", [0.061, 0.3, 0.9])
def test_ideal_information_is_a_pair_number_moment(tau):
    # A_n A_n^T = x^n (1 - x)^2 times the identity, so sector n gives
    # 4 |K_n A_n|^2 = q_n n (n + 2) / 3 at every phase
    src = SourceParams(tau)
    n = np.arange(choose_truncation(src) + 1)
    want = pair_number_weights(src, n[-1]) @ (n * (n + 2) / 3.0)
    for phi in (0.0, 0.7, 2.3, 5.1):
        assert ideal_fisher_information(src, phi) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# compiled phase series


def direct_pattern_sum(src, det, patterns, phi, theta, n_max):
    """Unrenormalized probabilities and exact phi-derivatives, sector by sector."""
    Wa, Wb = det.table_a.weights, det.table_b.weights
    f = np.zeros(len(patterns))
    df = np.zeros(len(patterns))
    G, R = rotation_matrices(n_max, phi), rotation_matrices(n_max, theta)
    for n in range(n_max + 1):
        pref = math.tanh(src.tau) ** n / math.cosh(src.tau) ** 2 * (-1.0) ** np.arange(n + 1)
        A = (G[n][:, ::-1] * pref) @ R[n].T
        dA = rotation_generator(n) @ A
        for i, (r_ah, r_av, r_bh, r_bv) in enumerate(patterns):
            va = Wa[r_ah, : n + 1] * Wa[r_av, : n + 1][::-1]
            vb = Wb[r_bh, : n + 1] * Wb[r_bv, : n + 1][::-1]
            f[i] += va @ (A * A) @ vb
            df[i] += va @ (2.0 * A * dA) @ vb
    return f, df


@pytest.mark.parametrize("tau, d, theta", [(0.061, 4, 0.0), (0.3, None, 0.0), (0.061, 4, 0.7)])
def test_compiled_family_matches_direct_sector_sum(tau, d, theta):
    src = SourceParams(tau)
    det = detector_for_source(src, d, 0.23, 0.12)
    fam = PatternFamily(src, det, NINE + ((1, 0, 0, 1), (0, 0, 0, 0)), theta=theta)
    # rounding in each pattern is relative to that pattern's own size
    scale = np.abs(fam.harmonics).sum(axis=0)
    rng = np.random.default_rng(5)
    for phi in rng.uniform(-2 * np.pi, 4 * np.pi, size=6):
        want, dwant = direct_pattern_sum(src, det, fam.patterns, phi, theta, fam.n_max)
        got, dgot = fam.raw(phi)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.all(np.abs(dgot - dwant) <= 1e-12 * scale)


def test_compiled_herald_tensor_matches_direct_sector_sum():
    # compiled the way heralding compiles it, with the truncation margin
    src = SourceParams(0.1)
    n_max = choose_truncation(src) + 4
    det = DetectorModel.perfect_counting(eta_a=0.9, eta_b=0.9, c_max=n_max)
    series, pairs_a, pairs_b = click_pair_series(src, det, n_max=n_max)
    assert series.harmonics.shape == (n_max + 1, len(pairs_a), len(pairs_b))
    assert all(h + v <= n_max for h, v in pairs_a) and len(pairs_a) == (n_max + 1) * (n_max + 2) // 2
    patterns = [(*a, *b) for a in pairs_a for b in pairs_b]
    for phi in np.random.default_rng(8).uniform(0.0, 2 * np.pi, size=3):
        want, dwant = direct_pattern_sum(src, det, patterns, phi, 0.0, n_max)
        got, dgot = series.raw(phi)
        np.testing.assert_allclose(got.reshape(-1), want, atol=1e-15)
        np.testing.assert_allclose(dgot.reshape(-1), dwant, atol=1e-14)
        P = click_probability_tensor(src, RotationSpec(phi), det, n_max)
        np.testing.assert_allclose(got, P[pairs_a[:, :1], pairs_a[:, 1:], pairs_b[:, 0], pairs_b[:, 1]],
                                   atol=1e-15)
        # every pattern left out is one no path can produce
        np.testing.assert_allclose(got.sum(), P.sum(), atol=1e-15)


@pytest.mark.parametrize("tau, d", [(0.061, 4), (0.3, None)])
def test_zeroth_harmonic_is_the_phase_average(tau, d):
    src = SourceParams(tau)
    det = detector_for_source(src, d, 0.23, 0.12)
    fam = PatternFamily(src, det, NINE, theta=0.4)
    grid = np.linspace(0.0, 2 * np.pi, 4 * fam.n_max + 3, endpoint=False)
    dense = np.mean([direct_pattern_sum(src, det, NINE, g, 0.4, fam.n_max)[0] for g in grid],
                    axis=0)
    np.testing.assert_allclose(fam.mean(), dense, rtol=1e-12)


@pytest.mark.parametrize("d", [4, None])
def test_click_series_matches_the_tensor_it_compiles(d):
    # against the propagation oracle, since the tensor is read from the series
    src = SourceParams(0.061)
    n_max = choose_truncation(src)
    det = detector_for_source(src, d, 0.23, 0.12)
    series, pairs_a, pairs_b = click_pair_series(src, det)
    for phi in (0.3, 2.2, 5.0):
        P = oracle_click_tensor(src, phi, 0.0, 0.23, 0.12, d, n_max)
        kept = (pairs_a[:, :1], pairs_a[:, 1:], pairs_b[:, 0], pairs_b[:, 1])
        np.testing.assert_allclose(series.raw(phi)[0], P[kept], atol=1e-15)
        P[kept] = 0.0
        assert not P.any()  # the patterns left out hold only zeros


# one matrix element, one sector or one phase at a time: none of these may
# serve a compile, which builds every sector over every sample phase at once
SCALAR_PATHS = (
    ("fock", "sensing_transition_matrix"),
    ("engine", "click_probability_tensor"),
)


def test_compiles_never_take_a_scalar_path(monkeypatch):
    for module_name, name in SCALAR_PATHS:
        original = getattr(sys.modules[f"spdcmet.{module_name}"], name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called from a compile")

        for module in [m for key, m in sys.modules.items() if key.startswith("spdcmet")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    herald_table(0.05, (0.9,), range(3))
    fourfold_family(src, det)
    click_pair_series(src, det)
    fourfold_conditional_means(src, det)


def complex_definition(c, phi):
    """Re sum_k c_k e^{i k phi} and its phi-derivative, from the definition."""
    k = np.arange(len(c))
    e = np.exp(1j * np.multiply.outer(phi, k))
    return np.tensordot(e, c, axes=1).real, np.tensordot(1j * k * e, c, axes=1).real


def fitted_fringes():
    rng = np.random.default_rng(4)
    phi = np.linspace(0.0, 2 * np.pi, 23, endpoint=False)
    src = SourceParams(0.061)
    counts = rng.poisson(fourfold_family(src, detector_for_source(src, 4, 0.23, 0.12))(phi) * 1e4)
    fits = fit_fringes(phi, counts)
    c = np.array([(f.c0, f.c1 * np.exp(1j * f.phi1), f.c2 * np.exp(1j * f.phi2)) for f in fits]).T
    return fits, c


def shifted_family():
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    cosine = fourfold_family(src, det)
    assert cosine.coefficients.shape[0] == cosine.n_max + 1  # even at theta 0: no sine part
    c = cosine.coefficients * np.exp(-0.7j * np.arange(cosine.n_max + 1))[:, None]
    return fourfold_family(src, det, theta=0.7), c


def random_series():
    rng = np.random.default_rng(12)
    c = rng.normal(size=(7, 3, 4)) + 1j * rng.normal(size=(7, 3, 4))
    return PhaseSeries(c), c


@pytest.mark.parametrize("build", [random_series, fitted_fringes, shifted_family])
def test_real_series_equals_the_complex_definition(build):
    series, c = build()
    assert series.coefficients.dtype == float and series.coefficients.shape[0] == 2 * len(c)
    k = np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    for phi in (np.random.default_rng(3).uniform(-2 * np.pi, 4 * np.pi, size=9), 1.25):
        f, df = series.raw(phi)
        want, dwant = complex_definition(c, phi)
        assert np.all(np.abs(f - want) <= 1e-14 * np.abs(c).sum(axis=0))
        assert np.all(np.abs(df - dwant) <= 1e-14 * (k * np.abs(c)).sum(axis=0))


@pytest.mark.parametrize("tau", [0.061, 0.5, 0.9])
def test_click_probabilities_are_even_in_phase(tau):
    # why a click series compiled at theta 0 is a pure cosine series: every
    # sector's occupations, and so every click weight summed over them, are even
    src = SourceParams(tau)
    n_max = choose_truncation(src)
    for phi in (0.3, 1.4, np.pi / 2, 2.9, 4.0):
        for p, mirrored in zip(_occupations(src, phi, n_max), _occupations(src, -phi, n_max)):
            assert np.abs(p - mirrored).max() <= 1e-15 * p.max()
