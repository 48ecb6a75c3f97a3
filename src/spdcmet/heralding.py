"""Heralded Fisher information per photon in the sensing path.

Conditioning on the reference path: an event is accepted when the total
click count across the two reference modes reaches the herald threshold.
Detectors are perfect counters (the large-d limit of multiplexing) with
one uniform transmission over all four modes.  The figure of merit is the
Fisher information of the accepted joint outcome distribution, per photon
sent down the sensing path among accepted events, at the best phase.
Every herald count at one transmission shares one orbit kernel and search,
:class:`~spdcmet.estimation.OrbitInformation` (``curve`` reads it at count
0); this module adds the cutoff, the refusals and the division per photon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .detectors import DetectorModel
from .estimation import OrbitInformation
from .fock import SourceParams

__all__ = [
    "HeraldError",
    "HeraldSpec",
    "HeraldPoint",
    "HeraldTable",
    "herald_point",
    "herald_table",
]

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
        raise HeraldError(f"herald count {k} exceeds the truncated photon-number support {n_max}")
    return n_max


def _herald_points(src: SourceParams, eta: float, k_values, n_max: int, phi=None) -> list:
    """Heralded points at one transmission for every herald count in ``k_values``; a
    count that accepts nothing or heralds no photons is refused before the search."""
    kernel = OrbitInformation(src, DetectorModel.perfect_counting(eta, eta, n_max), k_values, n_max)
    for k, p, n in zip(k_values, kernel.p_event, kernel.photons):
        if not p > 0.0:
            raise HeraldError(f"herald condition k={k} has zero acceptance probability")
        if not n > 0.0:  # the information is per heralded photon
            raise HeraldError(f"herald condition k={k} heralds no photons at tau={src.tau}")
    phi, info = kernel.maximize() if phi is None else ([phi] * len(k_values), kernel(phi))
    mean_photons = (kernel.photons / kernel.p_event).tolist()
    return [HeraldPoint(value=float(v) / m, phi=float(p), event_probability=float(e),
                        mean_heralded_photons=m)
            for v, p, e, m in zip(info, phi, kernel.p_event, mean_photons)]


def herald_point(spec: HeraldSpec, phi=None) -> HeraldPoint:
    """Heralded Fisher information per photon, with diagnostics.

    The one-count case of the table's search; with ``phi=None`` the best
    phase, reported in [0, pi/2].  The acceptance does not depend on phase.
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
        return float(self.values[self.k_values.index(k), self.eta_values.index(eta)])

    def rows(self):
        return zip(self.k_values, self.values)


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
