"""Invariants of the full click model at high gain, where the pair cutoff
is deep: normalization against the certified truncation tail, and the
polarization swap on one path as a half-turn of the phase."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmet.engine import choose_truncation, click_probability_tensor, detector_for_source
from spdcmet.fock import RotationSpec, SourceParams, truncation_tail

PHI = 0.7
GRID = [(tau, 4, eta) for tau in (0.3, 0.7, 0.9) for eta in (0.5, 0.99)]
GRID += [(0.3, None, eta) for eta in (0.5, 0.99)]  # number-resolving counters


@pytest.fixture(scope="module", params=GRID, ids=lambda p: f"tau{p[0]}-d{p[1]}-eta{p[2]}")
def model(request):
    tau, d, eta = request.param
    src = SourceParams(tau)
    det = detector_for_source(src, d, eta, eta)
    return src, click_probability_tensor(src, RotationSpec(PHI), det), det


def test_missing_mass_is_the_truncation_tail(model):
    # every pattern of the sectors up to the cutoff is kept, so the mass
    # the tensor lacks is exactly the mass of the sectors above it
    src, P, _ = model
    assert abs((1.0 - P.sum()) - truncation_tail(src, choose_truncation(src))) <= 1e-14


def test_swapping_h_and_v_on_path_a_is_a_half_turn_of_phi(model):
    src, P, det = model
    turned = click_probability_tensor(src, RotationSpec(PHI + math.pi), det)
    assert abs(P.transpose(1, 0, 2, 3) - turned).max() <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([None, *range(1, 9)]), st.floats(0.01, 0.3),
       st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_invariants_hold_for_every_counter_at_moderate_gain(d, tau, eta_a, eta_b, phi):
    # d = 1 and 2 clip the click pairs a path can register, below the cutoff
    src = SourceParams(tau)
    det = detector_for_source(src, d, eta_a, eta_b)
    P = click_probability_tensor(src, RotationSpec(phi), det)
    assert abs((1.0 - P.sum()) - truncation_tail(src, choose_truncation(src))) <= 1e-14
    turned = click_probability_tensor(src, RotationSpec(phi + math.pi), det)
    assert abs(P.transpose(1, 0, 2, 3) - turned).max() <= 1e-15
