"""Heralded Fisher information per photon in the sensing path.

Conditioning on the reference path: an event is accepted when the total
click count across the two reference modes reaches the herald threshold.
Detectors are perfect counters (the large-d limit of multiplexing) with
one uniform transmission over all four modes.  The figure of merit is the
Fisher information of the accepted joint outcome distribution, per photon
sent down the sensing path among accepted events, at the best phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .detectors import DetectorModel, binomial_thinning_matrix
from .estimation import argmax_over_phase
from .fock import SourceParams, pair_number_weights

__all__ = [
    "HeraldError",
    "HeraldSpec",
    "HeraldPoint",
    "HeraldTable",
    "herald_point",
    "herald_table",
]

_TERM_FLOOR = 1e-14
_TRUNC_MARGIN = 4  # conditioning divides by small acceptance probabilities


class HeraldError(ValueError):
    """Raised for herald thresholds outside the truncated support."""


@dataclass(frozen=True)
class HeraldSpec:
    """Herald condition: at least ``k`` clicks on the reference path.

    ``eta`` is the one transmission shared by all four modes; ``tau`` the
    source gain.  The same-count-or-more convention is what makes the
    zero and one thresholds agree at unit transmission, where every pair
    always produces exactly one reference photon per pair.
    """

    k: int
    eta: float
    tau: float

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise HeraldError(f"herald count must be a nonnegative integer, got {self.k}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.eta}")
        SourceParams(self.tau)  # reuse gain validation


@dataclass(frozen=True)
class HeraldPoint:
    value: float  # Fisher information per sensing-path photon
    phi: float
    event_probability: float
    mean_heralded_photons: float


def _truncation(src: SourceParams, k: int) -> int:
    n_max = engine.choose_truncation(src) + _TRUNC_MARGIN
    if k > n_max:
        raise HeraldError(
            f"herald count {k} exceeds the truncated photon-number support {n_max}"
        )
    return n_max


def _mean_heralded_photons(src: SourceParams, eta: float, k: int, n_max: int) -> float:
    """Mean pair number among accepted events (photons addressing the phase)."""
    # q_n times the chance that at least k of the n reference photons arrive
    weights = pair_number_weights(src, n_max) * binomial_thinning_matrix(n_max, eta)[:, k:].sum(1)
    total = weights.sum()
    if total <= 0.0:
        raise HeraldError(f"herald condition k={k} has zero acceptance probability")
    return float((np.arange(n_max + 1) * weights).sum() / total)


def _herald_compile(src: SourceParams, eta: float, n_max: int):
    """Heralded information at one transmission for any herald count: the
    click series of both paths is compiled once and shared by every k."""
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    series, _, pairs_b = engine.click_pair_series(src, det, n_max=n_max)

    def point(spec: HeraldSpec, phi=None) -> HeraldPoint:
        accepted = pairs_b.sum(axis=1) >= spec.k
        mean_n = _mean_heralded_photons(src, eta, spec.k, n_max)
        joint = series if accepted.all() else engine.PhaseSeries(series.harmonics[..., accepted])

        def joint_fisher(p):  # at a phase or an array of phases
            Pm, dPm = joint.raw(p)
            p_event = Pm.sum((-2, -1))
            ok = Pm > _TERM_FLOOR
            info = np.where(ok, dPm**2 / np.where(ok, Pm, 1.0), 0.0).sum((-2, -1))
            return info / p_event, p_event

        if phi is None:
            phi, _ = argmax_over_phase(lambda p: joint_fisher(p)[0], np.linspace(0.0, np.pi, 49))
            phi = abs(math.remainder(phi, 2.0 * math.pi))
        info, p_event = joint_fisher(phi)
        return HeraldPoint(value=float(info) / mean_n, phi=float(phi),
                           event_probability=float(p_event), mean_heralded_photons=mean_n)

    return point


def herald_point(spec: HeraldSpec, phi=None) -> HeraldPoint:
    """Heralded Fisher information per photon, with diagnostics.

    The click tensor is compiled once to its phase series over the patterns
    a path can produce, and cut to the accepted reference-path patterns
    before any evaluation.  With ``phi=None`` the information is maximized
    over phase; the acceptance probability itself carries no phase
    dependence (each emission sector puts a fixed photon number into the
    reference path), so the optimum is a plain 1-D search.  The information
    is even in phi, so [0, pi] is scanned on the 96-point grid's 49 points
    there, and the optimum is reported in [0, pi].
    """
    src = SourceParams(spec.tau)
    n_max = _truncation(src, spec.k)
    return _herald_compile(src, spec.eta, n_max)(spec, phi)


@dataclass(frozen=True)
class HeraldTable:
    k_values: tuple
    eta_values: tuple
    values: np.ndarray  # shape (len(k_values), len(eta_values))
    tau: float
    truncation: int  # pair-number cutoff the table was computed at

    def cell(self, k: int, eta: float) -> float:
        i = self.k_values.index(k)
        j = self.eta_values.index(eta)
        return float(self.values[i, j])

    def rows(self):
        for i, k in enumerate(self.k_values):
            yield k, self.values[i]


def herald_table(tau, eta_list, k_list) -> HeraldTable:
    """Grid of heralded Fisher information per photon over (k, eta).

    The cutoff does not depend on k, so each transmission is compiled once
    and shared by every herald count.
    """
    k_values = tuple(int(k) for k in k_list)
    eta_values = tuple(float(e) for e in eta_list)
    src = SourceParams(tau)
    n_max = _truncation(src, max(k_values, default=0))
    values = np.empty((len(k_values), len(eta_values)))
    for j, eta in enumerate(eta_values):
        point = _herald_compile(src, eta, n_max)
        for i, k in enumerate(k_values):
            values[i, j] = point(HeraldSpec(k=k, eta=eta, tau=tau)).value
    return HeraldTable(k_values=k_values, eta_values=eta_values, values=values, tau=tau,
                       truncation=n_max)
