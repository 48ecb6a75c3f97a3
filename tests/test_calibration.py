"""Efficiency and gain recovery from singles and twofold rates."""

import math

import numpy as np
import pytest

from spdcmet.calibration import (
    CalibrationError,
    CalibrationResult,
    RateSummary,
    efficiencies_from_rates,
    model_rate_summary,
    pair_probability_from_tau,
    tau_from_pair_probability,
)
from spdcmet.engine import click_probability_tensor, detector_for_source
from spdcmet.fock import RotationSpec, SourceParams


def synthetic_rates(eta_a, eta_b, p):
    return RateSummary(
        singles_a=p * eta_a * (1.0 - eta_b),
        singles_b=p * eta_b * (1.0 - eta_a),
        twofold=p * eta_a * eta_b,
    )


# ---------------------------------------------------------------------------
# rate inversion


def test_symmetric_rates_invert_exactly():
    res = efficiencies_from_rates(synthetic_rates(0.5, 0.5, 0.01))
    eta_a, eta_b, p = res
    assert eta_a == pytest.approx(0.5, abs=1e-12)
    assert eta_b == pytest.approx(0.5, abs=1e-12)
    assert p == pytest.approx(0.01, abs=1e-12)
    assert res.residuals == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_asymmetric_rates_invert_exactly():
    res = efficiencies_from_rates(synthetic_rates(0.23, 0.12, 0.007))
    assert res.eta_a == pytest.approx(0.23, abs=1e-12)
    assert res.eta_b == pytest.approx(0.12, abs=1e-12)
    assert res.pair_probability == pytest.approx(0.007, abs=1e-12)


def test_near_unit_efficiency_recovered_from_twofolds():
    # lone-click rates collapse; the twofold rate still pins p
    res = efficiencies_from_rates(synthetic_rates(1.0 - 1e-9, 1.0 - 1e-9, 0.02))
    assert res.eta_a == pytest.approx(1.0, abs=1e-6)
    assert res.eta_b == pytest.approx(1.0, abs=1e-6)
    assert res.pair_probability == pytest.approx(0.02, rel=1e-6)


def test_round_trip_through_the_full_model():
    # simulated rates include multi-pair events the one-pair inversion
    # neglects, so the tolerance is the first-order model error
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    rates = model_rate_summary(src, det)
    res = efficiencies_from_rates(rates)
    assert res.eta_a == pytest.approx(0.23, rel=0.02)
    assert res.eta_b == pytest.approx(0.12, rel=0.02)
    assert res.tau == pytest.approx(0.061, rel=0.02)


def test_rates_validated():
    with pytest.raises(CalibrationError):
        RateSummary(singles_a=-0.1, singles_b=0.1, twofold=0.01)
    with pytest.raises(CalibrationError):
        efficiencies_from_rates(RateSummary(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# cubic gain inversion


def test_zero_pair_probability_gives_zero_gain():
    assert tau_from_pair_probability(0.0) == 0.0


@pytest.mark.parametrize("tau", [0.02, 0.061, 0.1, 0.3])
def test_gain_round_trip_is_identity(tau):
    p = pair_probability_from_tau(tau)
    assert p == pytest.approx(2 * math.tanh(tau) ** 2 / math.cosh(tau) ** 4, abs=1e-15)
    assert tau_from_pair_probability(p) == pytest.approx(tau, abs=1e-10)


def test_forward_map_increases_on_physical_branch():
    taus = np.linspace(0.0, 0.6, 25)
    ps = [pair_probability_from_tau(t) for t in taus]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_branch_maximum_is_boundary_root():
    t = tau_from_pair_probability(8.0 / 27.0)
    assert math.tanh(t) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_pair_probability_beyond_branch_maximum_rejected():
    with pytest.raises(CalibrationError):
        tau_from_pair_probability(8.0 / 27.0 + 1e-6)


# ---------------------------------------------------------------------------
# model-rate properties


def test_simulated_rates_are_phase_independent():
    # with number-resolving counters the lone-click and twofold sums carry
    # no phase dependence at all
    src = SourceParams(0.08)
    det = detector_for_source(src, None, 0.4, 0.7)
    import itertools

    def rates_at(phi):
        P = click_probability_tensor(src, RotationSpec(phi), det)
        n = P.shape[0]
        sa = sb = tf = 0.0
        for idx in itertools.product(range(n), repeat=4):
            ca, cb = idx[0] + idx[1], idx[2] + idx[3]
            if ca == 1 and cb == 0:
                sa += P[idx]
            elif ca == 0 and cb == 1:
                sb += P[idx]
            elif ca == 1 and cb == 1:
                tf += P[idx]
        return sa, sb, tf

    base = rates_at(0.0)
    for phi in (0.7, 1.9, 3.4, 5.1):
        got = rates_at(phi)
        np.testing.assert_allclose(got, base, atol=1e-10)


def test_model_rate_summary_matches_one_pair_relations_at_low_gain():
    src = SourceParams(0.01)
    det = detector_for_source(src, 4, 0.3, 0.6)
    rates = model_rate_summary(src, det)
    p = pair_probability_from_tau(0.01)
    want = synthetic_rates(0.3, 0.6, p)
    assert rates.singles_a == pytest.approx(want.singles_a, rel=1e-3)
    assert rates.singles_b == pytest.approx(want.singles_b, rel=1e-3)
    assert rates.twofold == pytest.approx(want.twofold, rel=1e-3)


def test_result_reports_pair_probability_consistent_with_gain():
    src = SourceParams(0.061)
    det = detector_for_source(src, 4, 0.23, 0.12)
    res = efficiencies_from_rates(model_rate_summary(src, det))
    assert isinstance(res, CalibrationResult)
    assert pair_probability_from_tau(res.tau) == pytest.approx(
        res.pair_probability, abs=1e-10
    )
