"""Photon-pair source state and polarization rotations in the Fock basis.

The source emits photon pairs into two spatial paths, each carrying a
horizontal and a vertical polarization mode.  Mode order throughout the
package is (a_h, a_v, b_h, b_v), where path a is the sensing path and
path b the reference path.  Within the 2n-photon sector the normalized
amplitude of the basis ket |n-m, m, m, n-m> is

    (-1)^m tanh(tau)^n / cosh(tau)^2

which makes the pair-number distribution q_n = (n+1) x^n (1-x)^2 with
x = tanh(tau)^2.  A half-wave rotation by angle ``ang`` acts on a single
path as the 2x2 map

    h ->  cos(ang/2) h + sin(ang/2) v
    v ->  sin(ang/2) h - cos(ang/2) v

and its two-mode Fock amplitudes are built for all photon-number sectors
at once, each sector from the previous one by applying one transformed
creation operator (:func:`rotation_matrices`).  The map is a rotation
exp(ang K) times a fixed reflection, so every angle derivative follows
from the generator K (:func:`rotation_generator`).  This module holds the
amplitudes only; every pattern probability is compiled from them in
:mod:`spdcmet.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GainRangeError",
    "SourceParams",
    "RotationSpec",
    "pdc_term_amplitude",
    "pair_number_weights",
    "truncation_tail",
    "rotation_matrices",
    "rotation_generator",
]


class GainRangeError(ValueError):
    """Raised for source gains outside the supported range 0 <= tau < 1."""


@dataclass(frozen=True)
class SourceParams:
    """Pair source settings.

    tau: collective gain of the source. Dimensionless, 0 <= tau < 1.
    trunc_epsilon: probability mass allowed beyond the pair-number cutoff, >= 1e-15.
    """

    tau: float
    trunc_epsilon: float = 1e-12

    def __post_init__(self):
        if not (0.0 <= self.tau):
            raise GainRangeError(f"tau must be non-negative, got {self.tau}")
        if self.tau >= 1.0:
            # high-gain regime: truncated expansion no longer certified
            raise GainRangeError(f"tau >= 1 is not supported, got {self.tau}")
        if not (1e-15 <= self.trunc_epsilon < 1.0):  # a smaller tail is below rounding
            raise ValueError(f"trunc_epsilon must lie in [1e-15, 1), got {self.trunc_epsilon}")

    @property
    def x(self) -> float:
        """Shorthand for tanh(tau)^2, the pair-number decay ratio."""
        return math.tanh(self.tau) ** 2


@dataclass(frozen=True)
class RotationSpec:
    """Waveplate settings: phi on the sensing path, theta on the reference path.

    Both angles are phase angles in radians (a physical waveplate set at
    angle w applies a phase rotation of 4*w).
    """

    phi: float
    theta: float = 0.0

    def reduced(self) -> "RotationSpec":
        """Angles folded into [0, 2 pi) for reporting; values stored as given."""
        two_pi = 2.0 * math.pi
        return RotationSpec(phi=self.phi % two_pi, theta=self.theta % two_pi)


def pdc_term_amplitude(n: int, m: int, src: SourceParams) -> float:
    """Normalized amplitude of the ket |n-m, m, m, n-m> of the source state."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"invalid term indices n={n}, m={m}")
    sign = -1.0 if m % 2 else 1.0
    return sign * math.tanh(src.tau) ** n / math.cosh(src.tau) ** 2


def pair_number_weights(src: SourceParams, n_max: int) -> np.ndarray:
    """Probabilities q_n of emitting exactly n pairs, for n = 0..n_max."""
    x = src.x
    n = np.arange(n_max + 1)
    return (n + 1) * x**n * (1.0 - x) ** 2


def truncation_tail(src: SourceParams, n_max: int) -> float:
    """Probability mass in pair sectors above n_max.

    Closed form of sum_{n>N} (n+1) x^n (1-x)^2, used to certify cutoffs.
    """
    x = src.x
    return x ** (n_max + 1) * ((n_max + 2) - (n_max + 1) * x)


def rotation_matrices(n_max: int, ang):
    """Every sector matrix G_n[..., k, p] = <k, n-k| U(ang) |p, n-p>, n = 0..n_max.

    ``ang`` may be an array of angles; its shape leads the axes of each G_n.
    Sector n follows from sector n-1 by the creation-operator recursion

        U|p, q> = (c a_h^+ + s a_v^+) U|p-1, q> / sqrt(p)
        U|0, q> = (s a_h^+ - c a_v^+) U|0, q-1> / sqrt(q)

    with c = cos(ang/2), s = sin(ang/2), in O(n^2) array operations.
    """
    ang = np.asarray(ang, dtype=float)[..., None, None]
    c, s = np.cos(ang / 2.0), np.sin(ang / 2.0)
    G = [np.ones(ang.shape)]
    for n in range(1, n_max + 1):
        p = np.arange(n + 1)
        first = p == 0
        # the creation operator x a_h^+ + y a_v^+ that makes column p
        x, y = np.where(first, s, c), np.where(first, -c, s)
        g = G[-1][..., np.maximum(p - 1, 0)]  # the column of sector n-1 it acts on
        zero = np.zeros(g.shape[:-2] + (1, n + 1))
        h = np.sqrt(p[:, None]) * np.concatenate([zero, g], axis=-2)  # a_h^+, rows k
        v = np.sqrt(n - p[:, None]) * np.concatenate([g, zero], axis=-2)  # a_v^+
        G.append((x * h + y * v) / np.sqrt(np.where(first, n, p)))
    return G


def rotation_generator(n: int) -> np.ndarray:
    """Generator K_n = (a_v^+ a_h - a_h^+ a_v) / 2 on the kets |k, n-k>, k = 0..n.

    The half-wave map is exp(ang K) times a fixed reflection, so
    dG_n/dang = K_n G_n exactly for the G_n of :func:`rotation_matrices`.
    K_n is tridiagonal and antisymmetric, K[k, k+1] = sqrt((k+1)(n-k)) / 2.
    """
    k = np.arange(n)
    K = np.zeros((n + 1, n + 1))
    K[k, k + 1] = np.sqrt((k + 1) * (n - k)) / 2.0
    return K - K.T


def sensing_transition_matrix(n: int, phi) -> np.ndarray:
    """Matrix M[k, m] = <k, n-k| U(phi) |n-m, m> on the sensing path.

    Column m corresponds to the sensing-path part |n-m, m> of the m-th
    source term in the 2n-photon sector; row k to the occupation
    (k, n-k) after the rotation.  It is G_n of :func:`rotation_matrices`
    with its columns reversed.  The model itself never builds one sector
    alone, so this is not public API: it is kept only as the single-sector
    target of ``bench/probes.py``'s rotation-matrix probes, until a change
    to the benchmark points them at :func:`rotation_matrices`.
    """
    return rotation_matrices(n, phi)[-1][..., ::-1]
