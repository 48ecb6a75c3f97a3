"""Click-weight tables: exact combinatorics, loss transform, completeness."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    click_weights_by_enumeration,
    stirling2_by_enumeration,
    stirling2_closed_form,
)
from spdcmet.detectors import (
    DetectorModel,
    PovmTable,
    apply_loss,
    binomial_thinning_matrix,
    lossless_weight_table,
    lossless_weights,
    stirling2,
)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling_singleton_and_one_block():
    for c in range(9):
        assert stirling2(c, c) == 1
    for c in range(1, 9):
        assert stirling2(c, 1) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0


def test_stirling_four_into_two_by_enumeration():
    assert stirling2(4, 2) == 7
    assert stirling2_by_enumeration(4, 2) == 7


def test_stirling_against_closed_form_up_to_32_objects():
    for c in (5, 12, 20, 32):
        for r in (1, 2, 3, c // 2, c):
            assert stirling2(c, r) == stirling2_closed_form(c, r)


# ---------------------------------------------------------------------------
# lossless weights


def test_two_photon_anchor_weights():
    assert lossless_weights(4, 1, 2) == pytest.approx(0.25, abs=0)
    assert lossless_weights(4, 2, 2) == pytest.approx(0.75, abs=0)


def test_four_photon_full_click_weight_by_enumeration():
    exact = click_weights_by_enumeration(4, 4)[4]
    assert exact == Fraction(24, 256)
    assert lossless_weights(4, 4, 4) == pytest.approx(float(exact), abs=1e-15)


def test_clicks_exceeding_arity_rejected():
    with pytest.raises(ValueError):
        lossless_weights(4, 5, 3)


def test_weights_match_exhaustive_assignment_counting():
    for d in (2, 3):
        for c in range(7):
            exact = click_weights_by_enumeration(d, c)
            for r in range(d + 1):
                want = float(exact.get(r, Fraction(0)))
                assert lossless_weights(d, r, c) == pytest.approx(want, abs=1e-14)


def test_weight_table_matches_scalar_entries():
    W = lossless_weight_table(4, 6)
    for c in range(7):
        for r in range(5):
            assert W[r, c] == lossless_weights(4, r, c)


@pytest.mark.parametrize("d", [0, -1, -2])
def test_weight_table_needs_a_detector(d):
    # d = -1 used to build an empty table, and d = -2 to fail in numpy
    with pytest.raises(ValueError, match="at least one detector"):
        lossless_weight_table(d, 4)


def test_zero_below_diagonal_and_click_probability_bound():
    W = lossless_weight_table(5, 8)
    for c in range(9):
        for r in range(6):
            if c < r:
                assert W[r, c] == 0.0
            elif c > r:
                # tail bound that drives the large-d projector limit
                assert W[r, c] <= stirling2(c, r) / 5 ** (c - r) + 1e-15


def test_large_arity_approaches_number_resolution():
    W = lossless_weight_table(64, 4)[:5]
    assert np.abs(W - PovmTable.perfect_counting(4).weights).max() < 0.1


def test_perfect_counting_is_kronecker_delta():
    W = PovmTable.perfect_counting(2).weights
    assert W[2, 2] == 1.0
    assert W[1, 2] == 0.0
    assert W[0, 0] == 1.0


# ---------------------------------------------------------------------------
# loss


def test_unit_transmission_keeps_table():
    base = lossless_weight_table(4, 8)
    np.testing.assert_allclose(apply_loss(base, 1.0), base, atol=0)


def test_zero_transmission_sends_everything_to_no_click():
    lossy = apply_loss(lossless_weight_table(4, 8), 0.0)
    assert np.allclose(lossy[0], 1.0)
    assert np.allclose(lossy[1:], 0.0)


def test_single_photon_no_click_weight_is_loss_probability():
    eta = 0.37
    lossy = apply_loss(lossless_weight_table(4, 4), eta)
    assert lossy[0, 1] == pytest.approx(1.0 - eta, abs=1e-15)


def test_thinning_matrix_columns_are_binomial():
    import math

    # row c' = 4 holds the survivor distribution of four input photons
    B = binomial_thinning_matrix(5, 0.3)
    want = [math.comb(4, k) * 0.3**k * 0.7 ** (4 - k) if k <= 4 else 0.0
            for k in range(6)]
    np.testing.assert_allclose(B[4, :], want, atol=1e-15)


def test_completeness_survives_loss():
    for eta in (1.0, 0.62, 0.11, 0.0):
        table = PovmTable.multiplexed(4, c_max=12, eta=eta)
        np.testing.assert_allclose(table.weights.sum(axis=0), 1.0, atol=1e-12)
        assert table.weights.min() >= -1e-15
        assert table.weights.max() <= 1.0 + 1e-15


def test_loss_composition_multiplies_transmissions():
    t1 = apply_loss(PovmTable.multiplexed(4, c_max=10, eta=0.8).weights, 0.5)
    t2 = PovmTable.multiplexed(4, c_max=10, eta=0.4)
    np.testing.assert_allclose(t1, t2.weights, atol=1e-12)


def test_transmission_domain_checked():
    with pytest.raises(ValueError):
        PovmTable.multiplexed(4, c_max=4, eta=1.2)
    with pytest.raises(ValueError):
        apply_loss(lossless_weight_table(2, 2), -0.1)


# ---------------------------------------------------------------------------
# assembled models


def test_detector_model_paths_carry_their_own_transmission():
    det = DetectorModel.multiplexed(4, eta_a=0.23, eta_b=0.12, c_max=8)
    assert det.table_a.eta == 0.23
    assert det.table_b.eta == 0.12
    assert det.c_max == 8
    assert det.table_a.max_clicks == 4


def test_perfect_counting_model_tracks_photon_number():
    det = DetectorModel.perfect_counting(1.0, 1.0, c_max=6)
    W = det.table_a.weights
    np.testing.assert_allclose(W, np.eye(7), atol=0)
