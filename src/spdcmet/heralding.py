"""Heralded Fisher information per photon in the sensing path.

Conditioning on the reference path: an event is accepted when the total
click count across the two reference modes reaches the herald threshold.
Detectors are perfect counters (the large-d limit of multiplexing) with
one uniform transmission over all four modes.  The figure of merit is the
Fisher information of the accepted joint outcome distribution, per photon
sent down the sensing path among accepted events, at the best phase.
Every herald count at one transmission shares one compiled click series,
one pattern per polarization-swap orbit over the click pairs whose
phase-free marginal clears the term floor, and one quarter-period search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .detectors import DetectorModel
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


def _canonical_pairs(table, n_max):
    """A path's click pairs (r_h, r_v) with r_h <= r_v and r_h + r_v <= n_max, one of each
    polarization-swap orbit, the largest click total first."""
    r = np.arange(min(table.max_clicks, n_max) + 1)
    pairs = np.argwhere(np.triu(np.add.outer(r, r) <= n_max))
    return pairs[np.argsort(-pairs.sum(axis=1), kind="stable")]


def _herald_points(src: SourceParams, eta: float, k_values, n_max: int, phi=None) -> list:
    """Heralded points at one transmission for every herald count in ``k_values``.

    One series over the canonical click pairs and one search serve every count.  A sum
    over all patterns is the sum over canonical ones of w_a w_b / 2 [t(phi) + t(phi + pi)],
    w 2 for a pair r_h < r_v and 1 for r_h = r_v: the information is even with period pi,
    so the scan covers [0, pi/2] at the 96-grid step, no fewer phases per call than the
    refinement reads, one per count.  A path is maximally mixed in each pair sector, so a
    pair's click marginal m does not depend on phase and bounds every pattern holding it:
    only pairs with m > _TERM_FLOOR / 2 (2 for rounding) can add a term above the floor,
    and only they are compiled.  The acceptance and the mean photon number are read from
    the marginals of every pair.  Sums over the reference patterns run from the largest
    click total down; count k reads them where totals below k begin, so its column rounds
    the same however many counts share it.
    """
    det = DetectorModel.perfect_counting(eta_a=eta, eta_b=eta, c_max=n_max)
    pairs = _canonical_pairs(det.table_b, n_max)  # both paths alike
    q = pair_number_weights(src, n_max)
    chances = [K.sum(axis=1) / (n + 1)  # of each pair, per sector
               for n, K in enumerate(engine._click_weights(det.table_b, pairs, n_max))]
    marginals = np.stack([q, np.arange(n_max + 1) * q]) @ chances  # and photon-weighted
    w = np.where(pairs[:, 0] < pairs[:, 1], 2.0, 1.0)
    reach = pairs.sum(axis=1) >= np.array(k_values)[:, None]  # [count, pair]
    p_event, photons = np.cumsum(w * marginals, axis=1)[:, reach.sum(axis=1) - 1]
    for k, p, n in zip(k_values, p_event, photons):
        if not p > 0.0:
            raise HeraldError(f"herald condition k={k} has zero acceptance probability")
        if not n > 0.0:  # the information is per heralded photon
            raise HeraldError(f"herald condition k={k} heralds no photons at tau={src.tau}")
    live = marginals[0] > _TERM_FLOOR / 2
    pairs, w, ends = pairs[live], w[live], reach[:, live].sum(axis=1) - 1
    series = engine.PhaseSeries(engine._click_harmonics(src, det, pairs, pairs, n_max))

    def information(p):  # one column per count; an array of phases leads the axes
        P, dP = series.raw(np.stack([p, p + np.pi]))
        terms = np.divide(dP * dP, P, out=np.zeros_like(P), where=P > _TERM_FLOOR)
        info = np.cumsum(w @ (terms[0] + terms[1]) * w, axis=-1)[..., ends]
        return np.where(ends >= 0, info, 0.0) / (2.0 * p_event)  # no live pair: no term

    if phi is None:
        phi, info = argmax_over_phase(information, np.linspace(0.0, np.pi / 2.0, 25),
                                      max(-(-series.scan_block // 2), len(ends)))
        phi = [abs(math.remainder(p, np.pi)) for p in phi]
    else:
        info, phi = information(phi), [phi] * len(k_values)
    return [HeraldPoint(value=float(v) / m, phi=float(p), event_probability=float(e),
                        mean_heralded_photons=m)
            for v, p, e, m in zip(info, phi, p_event, (photons / p_event).tolist())]


def herald_point(spec: HeraldSpec, phi=None) -> HeraldPoint:
    """Heralded Fisher information per photon, with diagnostics.

    The one-count case of the table's search.  The click tensor is compiled
    once to its phase series over the canonical patterns, r_h <= r_v on each
    path, which stand for every pattern by the polarization-swap symmetry;
    pairs whose click marginal lies below half the term floor are left out.
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
