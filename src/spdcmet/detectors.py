"""Click-counting detector models for single polarization modes.

Each mode is measured either by a balanced multiplexed counter that splits
the light over d equal on/off detectors, or by an idealized
photon-number-resolving counter.  Both are diagonal in photon number, so a
detector is fully described by the weight table

    W[r, c] = P(r clicks | c photons at the detector input)

For the balanced d-way splitter the lossless weights follow from counting
surjections of photons onto click subsets,

    w_r(c) = d! S(c, r) / ((d - r)! d^c)

with S(c, r) the Stirling number of the second kind.  Loss with
transmission eta commutes with the splitter and folds into the table by
binomial thinning of the input photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "stirling2",
    "lossless_weights",
    "lossless_weight_table",
    "apply_loss",
    "binomial_thinning_matrix",
    "PovmTable",
    "DetectorModel",
]


@lru_cache(maxsize=None)
def stirling2(c: int, r: int) -> int:
    """Stirling number of the second kind S(c, r), exact integer."""
    if c < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    if c == r:
        return 1
    if r == 0 or r > c:
        return 0
    return r * stirling2(c - 1, r) + stirling2(c - 1, r - 1)


def lossless_weights(d: int, clicks: int, photons: int) -> float:
    """P(exactly ``clicks`` detectors fire | ``photons`` arrive), lossless.

    The probability that ``photons`` balls thrown uniformly into ``d`` bins
    occupy exactly ``clicks`` distinct bins: d! S(c, r) / ((d - r)! d^c).
    Computed in exact integer arithmetic up to the single final division.
    """
    if d < 1:
        raise ValueError("need at least one detector")
    if clicks < 0 or photons < 0:
        raise ValueError("clicks and photons must be non-negative")
    if clicks > d:
        raise ValueError(f"clicks {clicks} exceeds detector count {d}")
    num = math.factorial(d) // math.factorial(d - clicks) * stirling2(photons, clicks)
    return num / d**photons


def lossless_weight_table(d: int, c_max: int) -> np.ndarray:
    """Full weight table of a lossless balanced d-way multiplexed counter.

    Returns W with shape (d+1, c_max+1); W[r, c] = lossless_weights(d, r, c).
    """
    if d < 1:
        raise ValueError(f"need at least one detector per mode, got {d}")
    if c_max < 0:
        raise ValueError("c_max must be non-negative")
    W = np.zeros((d + 1, c_max + 1))
    for c in range(c_max + 1):
        for r in range(min(c, d) + 1):
            W[r, c] = lossless_weights(d, r, c)
    return W


def binomial_thinning_matrix(c_max: int, eta: float) -> np.ndarray:
    """Matrix B[c', c] = C(c', c) eta^c (1-eta)^(c'-c) for c <= c'."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    B = np.zeros((c_max + 1, c_max + 1))
    for cp in range(c_max + 1):
        for c in range(cp + 1):
            B[cp, c] = math.comb(cp, c) * eta**c * (1.0 - eta) ** (cp - c)
    return B


def apply_loss(weights: np.ndarray, eta: float) -> np.ndarray:
    """Fold transmission eta into a weight table.

    W'[r, c'] = sum_c W[r, c] C(c', c) eta^c (1-eta)^(c'-c).  Column sums
    (completeness) are preserved exactly.
    """
    c_max = weights.shape[1] - 1
    B = binomial_thinning_matrix(c_max, eta)
    return weights @ B.T


@dataclass(frozen=True)
class PovmTable:
    """Weight table of one mode's counter, with loss folded in.

    base_weights holds the lossless counting structure; weights the
    composed lossy table actually used for probabilities.  max_clicks is
    d for a multiplexed counter and c_max for number resolution.
    """

    base_weights: np.ndarray
    eta: float
    d: int | None  # None marks an idealized number-resolving counter
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", apply_loss(self.base_weights, self.eta))

    @classmethod
    def multiplexed(cls, d: int, c_max: int, eta: float = 1.0) -> "PovmTable":
        return cls(base_weights=lossless_weight_table(d, c_max), eta=eta, d=d)

    @classmethod
    def perfect_counting(cls, c_max: int, eta: float = 1.0) -> "PovmTable":
        """Number-resolving counter: r = c exactly when eta = 1."""
        return cls(base_weights=np.eye(c_max + 1), eta=eta, d=None)

    @property
    def c_max(self) -> int:
        return self.base_weights.shape[1] - 1

    @property
    def max_clicks(self) -> int:
        return self.base_weights.shape[0] - 1


@dataclass(frozen=True)
class DetectorModel:
    """Counters on all four modes.

    The two modes of a path share one table: transmission is assumed
    polarization independent within a path, while the two paths may have
    different transmissions.
    """

    table_a: PovmTable
    table_b: PovmTable

    @classmethod
    def multiplexed(cls, d: int, eta_a: float, eta_b: float, c_max: int) -> "DetectorModel":
        return cls(
            table_a=PovmTable.multiplexed(d, c_max, eta_a),
            table_b=PovmTable.multiplexed(d, c_max, eta_b),
        )

    @classmethod
    def perfect_counting(cls, eta_a: float, eta_b: float, c_max: int) -> "DetectorModel":
        return cls(
            table_a=PovmTable.perfect_counting(c_max, eta_a),
            table_b=PovmTable.perfect_counting(c_max, eta_b),
        )

    @property
    def c_max(self) -> int:
        return min(self.table_a.c_max, self.table_b.c_max)
