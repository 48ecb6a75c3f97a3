"""Amplitude-level tests: source terms, mode rotations, ideal patterns."""

import math

import numpy as np
import pytest

from oracles import (
    fock_rotation_matrix,
    occupation_probabilities,
    rotation_amplitude_by_expm,
    wigner_d_squared,
)
from spdcmet.detectors import DetectorModel
from spdcmet.fock import (
    RotationSpec,
    SourceParams,
    pair_number_weights,
    pdc_term_amplitude,
    rotation_generator,
    rotation_matrices,
    sensing_transition_matrix,
    truncation_tail,
)
from spdcmet.engine import choose_truncation, click_probability_tensor


def sector_matrix(n, ang):
    """G_n alone: rows k and columns p index the kets |k, n-k> and |p, n-p>."""
    return rotation_matrices(n, ang)[-1]


def ideal_patterns(src, rot, n_max=None):
    """Occupation probabilities P[c_ah, c_av, c_bh, c_bv] behind lossless
    number-resolving counters, up to the source cutoff or ``n_max``."""
    if n_max is None:
        n_max = choose_truncation(src)
    det = DetectorModel.perfect_counting(1.0, 1.0, n_max)
    return click_probability_tensor(src, rot, det, n_max)


# ---------------------------------------------------------------------------
# source amplitudes


def test_vacuum_amplitude_at_zero_gain():
    assert pdc_term_amplitude(0, 0, SourceParams(0.0)) == 1.0


def test_sign_rule_on_second_partition():
    tau = 0.37
    expect = -math.tanh(tau) / math.cosh(tau) ** 2
    assert pdc_term_amplitude(1, 1, SourceParams(tau)) == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("n,m", [(2, 3), (-1, 0)])
def test_term_amplitude_domain_errors(n, m):
    with pytest.raises(ValueError):
        pdc_term_amplitude(n, m, SourceParams(0.1))


def test_pair_weight_partial_sums_against_direct_summation():
    # closed-form tail vs brute summation of (n+1) x^n (1-x)^2
    src = SourceParams(0.1)
    x = src.x
    for n_max in range(8):
        direct = sum((n + 1) * x**n for n in range(n_max + 1)) * (1 - x) ** 2
        assert pair_number_weights(src, n_max).sum() == pytest.approx(direct, abs=1e-15)
        assert truncation_tail(src, n_max) == pytest.approx(1.0 - direct, abs=1e-13)


def test_chosen_truncation_meets_mass_budget():
    src = SourceParams(0.1)
    n_max = choose_truncation(src)
    assert pair_number_weights(src, n_max).sum() == pytest.approx(1.0, abs=src.trunc_epsilon)
    assert truncation_tail(src, n_max) < src.trunc_epsilon


# ---------------------------------------------------------------------------
# rotations


def test_zero_angle_rotation_is_signed_identity():
    for n in range(4):
        np.testing.assert_allclose(np.abs(sector_matrix(n, 0.0)), np.eye(n + 1),
                                   rtol=0, atol=1e-14)


def test_single_photon_diagonal_is_half_angle_cosine():
    for phi in (0.0, 0.3, 1.2, 3.0):
        assert sector_matrix(1, phi)[1, 1] == pytest.approx(
            math.cos(phi / 2), abs=1e-14
        )


def test_rotation_columns_are_normalized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        total = int(rng.integers(0, 8))
        p = int(rng.integers(0, total + 1))
        ang = float(rng.uniform(0, 2 * np.pi))
        mass = (sector_matrix(total, ang)[:, p] ** 2).sum()
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_squared_amplitudes_match_wigner_d_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(40):
        total = int(rng.integers(0, 7))
        p = int(rng.integers(0, total + 1))
        pp = int(rng.integers(0, total + 1))
        ang = float(rng.uniform(0, 2 * np.pi))
        lib = sector_matrix(total, ang)[pp, p] ** 2
        oracle = wigner_d_squared(total, 2 * pp - total, 2 * p - total, ang)
        assert lib == pytest.approx(oracle, abs=1e-12)


def test_signed_amplitudes_match_matrix_exponential():
    # includes the sign structure, not just magnitudes
    rng = np.random.default_rng(5)
    for _ in range(20):
        total = int(rng.integers(0, 6))
        p = int(rng.integers(0, total + 1))
        pp = int(rng.integers(0, total + 1))
        ang = float(rng.uniform(0, 2 * np.pi))
        lib = sector_matrix(total, ang)[pp, p]
        oracle = rotation_amplitude_by_expm((pp, total - pp), (p, total - p), ang)
        assert lib == pytest.approx(oracle, abs=1e-12)


def test_rotation_derivative_matches_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(9)
    for _ in range(20):
        total = int(rng.integers(1, 6))
        p = int(rng.integers(0, total + 1))
        pp = int(rng.integers(0, total + 1))
        ang = float(rng.uniform(0.1, 2 * np.pi))
        fd = (
            sector_matrix(total, ang + h)[pp, p]
            - sector_matrix(total, ang - h)[pp, p]
        ) / (2 * h)
        derivative = rotation_generator(total) @ sector_matrix(total, ang)
        assert derivative[pp, p] == pytest.approx(fd, abs=1e-7)


ORACLE_ANGLES = (0.0, 0.3, np.pi / 2, np.pi, 2 * np.pi - 0.1)


def test_all_sector_matrices_match_expm_and_wigner_d():
    n_cut = 12
    G = rotation_matrices(n_cut, np.array(ORACLE_ANGLES))
    dim = n_cut + 1
    for i, ang in enumerate(ORACLE_ANGLES):
        U = fock_rotation_matrix(ang, n_cut)
        for n in range(n_cut + 1):
            idx = [k * dim + n - k for k in range(n + 1)]
            np.testing.assert_allclose(G[n][i], U[np.ix_(idx, idx)], rtol=0, atol=1e-12)
            d2 = [[wigner_d_squared(n, 2 * k - n, 2 * p - n, ang) for p in range(n + 1)]
                  for k in range(n + 1)]
            np.testing.assert_allclose(G[n][i] ** 2, d2, rtol=0, atol=1e-12)


def test_all_sector_derivatives_match_central_differences():
    # dG_n/dang = K_n G_n up to the cutoff of tau = 0.9, by a fourth-order
    # central difference; above n = 12 the recursion's rounding, divided by
    # the step, sets the tolerance (measured 1e-10 up to 12, 1e-7 at 46)
    h = 1e-3
    ang = np.array([0.3, 1.7, 4.0])
    G = rotation_matrices(46, ang)
    far_plus, plus, minus, far_minus = (rotation_matrices(46, ang + d * h) for d in (2, 1, -1, -2))
    for n in range(47):
        fd = (8 * (plus[n] - minus[n]) - (far_plus[n] - far_minus[n])) / (12 * h)
        np.testing.assert_allclose(rotation_generator(n) @ G[n], fd, rtol=0,
                                   atol=1e-8 if n <= 12 else 1e-6)


def test_all_sector_matrices_are_orthogonal_to_rounding():
    G = rotation_matrices(20, np.array(ORACLE_ANGLES + (1.1, 2.5)))
    for n, g in enumerate(G):
        err = np.abs(g @ np.swapaxes(g, -1, -2) - np.eye(n + 1)).max()
        assert err <= 1e-13, (n, err)


def test_transition_matrices_are_views_of_the_sector_builder():
    G = rotation_matrices(7, 0.8)
    np.testing.assert_array_equal(sensing_transition_matrix(7, 0.8), G[7][:, ::-1])
    assert rotation_matrices(0, 0.3)[0].shape == (1, 1)


# ---------------------------------------------------------------------------
# ideal pattern probabilities


def test_vacuum_pattern_certain_at_zero_gain():
    for phi in (0.0, 1.0):
        p = ideal_patterns(SourceParams(0.0), RotationSpec(phi))[0, 0, 0, 0]
        assert p == 1.0


def test_path_imbalanced_patterns_are_impossible():
    src = SourceParams(0.1)
    P = ideal_patterns(src, RotationSpec(0.8, 0.2))
    assert P[1, 0, 0, 0] == 0.0
    assert P[2, 1, 1, 0] == 0.0


def test_single_pair_transmission_value():
    src = SourceParams(0.1)
    expect = math.tanh(0.1) ** 2 / math.cosh(0.1) ** 4
    got = ideal_patterns(src, RotationSpec(0.0))[1, 0, 0, 1]
    assert got == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("phi,theta", [(0.0, 0.0), (1.3, 0.0), (0.7, 2.1)])
def test_pattern_mass_sums_to_one(tau, phi, theta):
    src = SourceParams(tau)
    n_max = choose_truncation(src)
    P = ideal_patterns(src, RotationSpec(phi, theta))
    total = 0.0
    for ca in range(n_max + 1):
        for k in range(ca + 1):
            for l in range(ca + 1):
                total += P[k, ca - k, l, ca - l]
    assert total == pytest.approx(1.0, abs=src.trunc_epsilon * 10)


def test_equal_rotations_cancel():
    # applying the same rotation to both paths leaves the state invariant;
    # the engine reads only phi - theta, so the propagation oracle, which
    # rotates each path on its own, is what shows the invariance
    src = SourceParams(0.12)
    base = ideal_patterns(src, RotationSpec(0.0, 0.0))
    for ang in (0.4, 1.1, 2.9):
        P = ideal_patterns(src, RotationSpec(ang, ang))
        oracle = occupation_probabilities(src, ang, ang, 2)
        for occ in [(1, 0, 0, 1), (1, 1, 1, 1), (2, 0, 1, 1), (0, 2, 2, 0)]:
            assert P[occ] == pytest.approx(base[occ], abs=1e-12)
            assert oracle[occ] == pytest.approx(base[occ], abs=1e-12)


def test_patterns_match_polynomial_propagation_oracle():
    # brute-force expansion of the rotated creation-operator polynomial
    src = SourceParams(0.1)
    n_max = 6
    rng = np.random.default_rng(17)
    for _ in range(4):
        phi = float(rng.uniform(0, 2 * np.pi))
        theta = float(rng.uniform(0, 2 * np.pi))
        oracle = occupation_probabilities(src, phi, theta, n_max)
        P = ideal_patterns(src, RotationSpec(phi, theta), n_max)
        for ca in range(n_max + 1):
            for k in range(ca + 1):
                for l in range(ca + 1):
                    occ = (k, ca - k, l, ca - l)
                    assert P[occ] == pytest.approx(oracle[occ], abs=1e-10)


def test_rotation_spec_reduction():
    rot = RotationSpec(2 * math.pi + 0.5, -2 * math.pi + 0.25)
    red = rot.reduced()
    assert red.phi == pytest.approx(0.5)
    assert red.theta == pytest.approx(0.25)
    # stored values stay as given
    assert rot.phi == pytest.approx(2 * math.pi + 0.5)


def test_gain_range_rejected():
    with pytest.raises(ValueError):
        SourceParams(-0.1)
    with pytest.raises(ValueError):
        SourceParams(0.1, trunc_epsilon=0.0)
