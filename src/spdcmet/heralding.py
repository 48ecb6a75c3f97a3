"""Heralded Fisher information per photon in the sensing path.

Conditioning on the reference path: an event is accepted when the total
click count across the two reference modes reaches the herald threshold.
Detectors are perfect counters (the large-d limit of multiplexing) with
one uniform transmission over all four modes.  The figure of merit is the
Fisher information of the accepted joint outcome distribution, per photon
sent down the sensing path among accepted events, at the best phase.
Every herald count at one transmission shares one compiled click series,
one pattern per polarization-swap orbit, and one quarter-period search.
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


def _herald_points(src: SourceParams, eta: float, k_values, n_max: int, phi=None) -> list:
    """Heralded points at one transmission for every herald count in ``k_values``.

    One series over the canonical click pairs and one search serve every count.  A sum
    over all patterns is the sum over canonical ones of w_a w_b / 2 [t(phi) + t(phi + pi)],
    w 2 for a pair r_h < r_v and 1 for r_h = r_v: the information is even with period pi,
    so the scan covers [0, pi/2] at the 96-grid step, no fewer phases per call than the
    refinement reads, one per count.  Sums over the reference patterns run from the largest
    click total down; count k reads them where totals below k begin, so its column rounds
    the same however many counts share it.  The phase-free acceptance is read from harmonic 0.
    """
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    series, pairs_a, pairs_b = engine.click_pair_series(src, det, n_max=n_max, canonical=True)
    w_a, w_b = (np.where(p[:, 0] < p[:, 1], 2.0, 1.0) for p in (pairs_a, pairs_b))
    totals = pairs_b.sum(axis=1)
    order = np.argsort(-totals, kind="stable")
    ends = [np.count_nonzero(totals >= k) - 1 for k in k_values]
    mean_n = [_mean_heralded_photons(src, eta, k, n_max) for k in k_values]

    def accepted(x):  # per-orbit values [..., i, j] -> sums over accepted patterns, per count
        return np.cumsum((w_a @ x * w_b)[..., order], axis=-1)[..., ends]

    p_event = accepted(series.mean())

    def information(p):  # one column per count; an array of phases leads the axes
        P, dP = series.raw(np.stack([p, p + np.pi]))
        terms = np.divide(dP * dP, P, out=np.zeros_like(P), where=P > _TERM_FLOOR)
        return accepted(terms[0] + terms[1]) / (2.0 * p_event)

    if phi is None:
        phi, info = argmax_over_phase(information, np.linspace(0.0, np.pi / 2.0, 25),
                                      max(-(-series.scan_block // 2), len(ends)))
        phi = [abs(math.remainder(p, np.pi)) for p in phi]
    else:
        info, phi = information(phi), [phi] * len(k_values)
    return [HeraldPoint(value=float(v) / m, phi=float(p), event_probability=float(e),
                        mean_heralded_photons=m)
            for v, p, e, m in zip(info, phi, p_event, mean_n)]


def herald_point(spec: HeraldSpec, phi=None) -> HeraldPoint:
    """Heralded Fisher information per photon, with diagnostics.

    The one-count case of the table's search.  The click tensor is compiled
    once to its phase series over the canonical patterns, r_h <= r_v on each
    path, which stand for every pattern by the polarization-swap symmetry.
    With ``phi=None`` the information is maximized over phase; the acceptance
    probability itself carries no phase dependence (each emission sector
    puts a fixed photon number into the reference path), so the optimum is a
    plain 1-D search.  The information is even in phi with period pi, so the
    96-point grid's 25 points on [0, pi/2] are scanned, and the optimum is
    reported in [0, pi/2].
    """
    src = SourceParams(spec.tau)
    return _herald_points(src, spec.eta, (spec.k,), _truncation(src, spec.k), phi)[0]


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
    and searched once for every herald count.
    """
    k_values = tuple(int(k) for k in k_list)
    eta_values = tuple(float(e) for e in eta_list)
    src = SourceParams(tau)
    n_max = _truncation(src, max(k_values, default=0))
    values = np.empty((len(k_values), len(eta_values)))
    for j, eta in enumerate(eta_values):
        values[:, j] = [pt.value for pt in _herald_points(src, eta, k_values, n_max)]
    return HeraldTable(k_values=k_values, eta_values=eta_values, values=values, tau=tau,
                       truncation=n_max)
