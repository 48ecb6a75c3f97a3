"""Transmission and gain calibration from singles and coincidence rates.

At low gain the source emits at most one pair per pulse to good accuracy,
so per-pulse lone-click and cross-path twofold rates pin down both
transmissions and the pair probability without an external reference: a
lone click on one path means the partner photon on the other path was
lost.  The relations are first order in the pair probability; multi-pair
emission perturbs them at relative order of the pair probability itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .fock import SourceParams

__all__ = [
    "CalibrationError",
    "RateSummary",
    "CalibrationResult",
    "efficiencies_from_rates",
    "pair_probability_from_tau",
    "tau_from_pair_probability",
    "model_rate_summary",
]


class CalibrationError(ValueError):
    """Raised when observed rates admit no physical calibration."""


@dataclass(frozen=True)
class RateSummary:
    """Per-pulse rates entering calibration.

    singles_a / singles_b: probability of exactly one click on that path
    and none on the other (both polarization patterns summed).
    twofold: probability of exactly one click on each path (all four
    cross-path combinations summed).
    """

    singles_a: float
    singles_b: float
    twofold: float

    def __post_init__(self):
        for name in ("singles_a", "singles_b", "twofold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise CalibrationError(f"{name} must be a probability, got {v}")


@dataclass(frozen=True)
class CalibrationResult:
    eta_a: float
    eta_b: float
    pair_probability: float
    tau: float
    residuals: tuple = (0.0, 0.0, 0.0)  # one-pair model minus input rates

    def __iter__(self):
        return iter((self.eta_a, self.eta_b, self.pair_probability))


def _one_pair_rates(eta_a, eta_b, p):
    return (
        p * eta_a * (1.0 - eta_b),
        p * eta_b * (1.0 - eta_a),
        p * eta_a * eta_b,
    )


def efficiencies_from_rates(rates: RateSummary) -> CalibrationResult:
    """Invert the one-pair rate equations for transmissions, pair rate, gain.

    With pair probability p per pulse, a lone click on path a requires
    the a photon to survive and the b photon to be lost, and vice versa,
    while a twofold requires both to survive:

        singles_a = p eta_a (1 - eta_b)
        singles_b = p eta_b (1 - eta_a)
        twofold   = p eta_a eta_b

    so eta_a = twofold / (twofold + singles_b), eta_b symmetrically, then
    p from the twofold rate and the gain from p.
    """
    s_a, s_b, c = rates.singles_a, rates.singles_b, rates.twofold
    if c <= 0.0:
        raise CalibrationError("twofold rate must be positive")
    eta_a = c / (c + s_b)
    eta_b = c / (c + s_a)
    p = c / (eta_a * eta_b)
    tau = tau_from_pair_probability(p)
    model = _one_pair_rates(eta_a, eta_b, p)
    residuals = tuple(m - o for m, o in zip(model, (s_a, s_b, c)))
    return CalibrationResult(eta_a=eta_a, eta_b=eta_b, pair_probability=p,
                             tau=tau, residuals=residuals)


def pair_probability_from_tau(tau: float) -> float:
    """Single-pair emission probability q_1 = 2 t (1 - t)^2, t = tanh(tau)^2."""
    t = math.tanh(tau) ** 2
    return 2.0 * t * (1.0 - t) ** 2


def tau_from_pair_probability(p: float) -> float:
    """Invert q_1(tau) = p on the low-gain branch.

    q_1 = 2 t (1 - t)^2 with t = tanh(tau)^2 increases from 0 to its peak
    8/27 at t = 1/3; only that rising branch corresponds to a low-gain
    source, so t is the smallest real root in [0, 1/3].
    """
    if p < 0.0:
        raise CalibrationError("pair probability must be nonnegative")
    if p == 0.0:
        return 0.0
    if p > 8.0 / 27.0 + 1e-12:
        raise CalibrationError(
            f"pair probability {p:.6g} exceeds the low-gain maximum 8/27"
        )
    # 2 t^3 - 4 t^2 + 2 t - p = 0
    roots = np.roots([2.0, -4.0, 2.0, -p])
    real = [float(r.real) for r in roots
            if abs(r.imag) < 1e-9 and -1e-12 <= r.real <= 1.0 / 3.0 + 1e-9]
    if not real:
        raise CalibrationError(f"no low-gain solution for pair probability {p:.6g}")
    t = min(max(min(real), 0.0), 1.0 / 3.0)
    return math.atanh(math.sqrt(t))


def model_rate_summary(src: SourceParams, det) -> RateSummary:
    """Phase-averaged lone-click and twofold rates predicted by the model.

    Generates synthetic calibration inputs and closes the loop in tests.
    Path totals carry no phase dependence for number-resolving counters;
    multiplexed counters pick up a tiny phase wiggle through collision
    statistics, which the average (the exact zeroth harmonic) removes.
    """
    series, pairs_a, pairs_b = engine.click_pair_series(src, det)
    P = series.mean()
    clicks_a, clicks_b = pairs_a.sum(axis=1), pairs_b.sum(axis=1)
    one_a, zero_a = clicks_a == 1, clicks_a == 0
    one_b, zero_b = clicks_b == 1, clicks_b == 0
    return RateSummary(
        singles_a=float(P[one_a][:, zero_b].sum()),
        singles_b=float(P[zero_a][:, one_b].sum()),
        twofold=float(P[one_a][:, one_b].sum()),
    )
