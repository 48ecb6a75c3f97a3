"""Detection-pattern probabilities for the full source through lossy counters.

Everything observable in the experiment is a joint click pattern
r = (r_ah, r_av, r_bh, r_bv).  Its probability composes three layers:

    P_r(phi, theta) = sum_c prod_mode W_mode[r_mode, c_mode] p_c(phi - theta)

where p_c is the ideal occupation probability of the rotated source state
and W are the per-mode counter tables from :mod:`spdcmet.detectors`.
Because each emitted pair puts one photon in each path, only occupations
with equal path totals contribute, and the sum organizes naturally per
pair sector n.  Each sector is unchanged by a joint rotation of both
paths, so only phi - theta matters: sensing occupation (k, n-k) and
reference occupation (l, n-l) have probability

    p_n[k, l](phi) = q_n / (n+1) * G_n(phi)[k, n-l]^2

with the pair-number weights q_n and rotation matrices G_n of
:mod:`spdcmet.fock`.  Each P_r is a trigonometric polynomial in phi of
degree n_max, compiled once at theta = 0 to its :class:`PhaseSeries`, which
serves probabilities, exact phi-derivatives and the exact phase average.
The dense tensor, single patterns and full distributions read the same
compiled series, at phi - theta.

One rule, :func:`_click_pairs`, gives the click pairs a path can register,
and one builder, :func:`_click_weights`, their per-sector weights, for the
series and the 2+2 conditional means alike; the means' survivor table is
apply_loss of the lossless table with each photon counted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorModel, apply_loss
from .fock import (
    RotationSpec,  # noqa: F401  (re-exported)
    SourceParams,
    pair_number_weights,
    rotation_generator,
    rotation_matrices,
    truncation_tail,
)

__all__ = [
    "choose_truncation",
    "detector_for_source",
    "click_probability_tensor",
    "PhaseSeries",
    "click_pair_series",
    "detection_probability",
    "PatternDistribution",
    "full_pattern_distribution",
    "fourfold_patterns",
    "PatternFamily",
    "fourfold_family",
    "MeanPhotons",
    "mean_photon_numbers",
    "fourfold_conditional_means",
    "ideal_fisher_information",
]


def choose_truncation(src: SourceParams) -> int:
    """Smallest pair-number cutoff whose discarded mass is below trunc_epsilon."""
    n = 0
    while truncation_tail(src, n) >= src.trunc_epsilon:
        n += 1
        if n > 10_000:  # x < 1 guarantees termination long before this
            raise RuntimeError("truncation search did not converge")
    return n


def detector_for_source(
    src: SourceParams,
    d: int | None,
    eta_a: float,
    eta_b: float,
) -> DetectorModel:
    """Detector tables sized for the source truncation.

    Tables are allocated with photon capacity equal to the pair cutoff: a
    mode never holds more photons than the pairs emitted, so capacity never
    limits the certified probability mass.  ``d=None`` selects number
    resolution.
    """
    c_max = max(choose_truncation(src), 1)
    if d is None:
        return DetectorModel.perfect_counting(eta_a, eta_b, c_max)
    return DetectorModel.multiplexed(d, eta_a, eta_b, c_max)


def _occupations(src, phi, n_max):
    """Occupation probabilities p_n[..., k, l] of sectors n = 0..n_max at
    theta = 0, one at a time, from one all-sector build; an array of phases
    ``phi`` leads the axes."""
    weights = pair_number_weights(src, n_max) / np.arange(1, n_max + 2)
    for w, g in zip(weights, rotation_matrices(n_max, phi)):
        yield w * np.square(g[..., ::-1])


def _check_capacity(det: DetectorModel, n_max: int):
    if det.c_max < n_max:
        raise ValueError(
            f"detector tables support at most {det.c_max} photons per mode, "
            f"need {n_max} for the requested truncation"
        )


class PhaseSeries:
    """Exact trigonometric series of phase-dependent values,

        f(phi) = Re sum_{k=0}^{degree} c_k exp(i k phi)
               = sum_k a_k cos(k phi) + b_k sin(k phi),

    with harmonics ``c`` = a - i b of shape (degree+1, *output shape), kept
    as one real array: the cosine rows a, then sine rows b only if some c_k
    is complex (a series even in phi, like every click series compiled at
    theta = 0, has none).  Values and exact derivatives cost one real
    matrix product for a phase or a whole array of phases; the phase
    average is a_0.  With ``renormalize`` the values are divided by their
    sum over the last output axis at each phase, the way coincidence counts
    are normalized per setting; leading output axes then hold independent
    distributions.  A phase scan reads ``scan_block`` phases, ~2^14 values, per evaluation.
    """

    def __init__(self, harmonics, renormalize=False):
        c = np.asarray(harmonics)
        self._k = np.arange(c.shape[0])
        if np.iscomplexobj(c) and c.imag.any():
            c = np.concatenate([c.real, -c.imag])
        self.coefficients = np.ascontiguousarray(c.real, dtype=float)
        self.renormalize = renormalize
        self.scan_block = -(-2**14 // self.coefficients[0].size)

    @property
    def harmonics(self):
        """The complex harmonics c_k = a_k - i b_k."""
        a, b = self.coefficients[: self._k.size], self.coefficients[self._k.size:]
        return a - 1j * b if b.size else a.astype(complex)

    def raw(self, phi):
        """Unrenormalized values and exact phi-derivatives, from one 2-D product of the
        cos/sin basis and the coefficients; an array of phases leads the axes."""
        ang = np.multiply.outer(phi, self._k)
        cos, sin = np.cos(ang), np.sin(ang)
        basis = np.stack([cos, -self._k * sin])
        if len(self.coefficients) > self._k.size:  # the sine rows
            basis = np.concatenate([basis, np.stack([sin, self._k * cos])], axis=-1)
        c = self.coefficients
        f, df = (basis.reshape(-1, len(c)) @ c.reshape(len(c), -1)).reshape(
            basis.shape[:-1] + c.shape[1:])
        return f, df

    def mean(self):
        """Phase average of the unrenormalized values (harmonic 0)."""
        return self.coefficients[0]

    def probabilities_and_derivatives(self, phi):
        f, df = self.raw(phi)
        if not self.renormalize:
            return f, df
        s, ds = f.sum(-1, keepdims=True), df.sum(-1, keepdims=True)
        return f / s, (df * s - f * ds) / (s * s)

    def probabilities(self, phi) -> np.ndarray:
        return self.probabilities_and_derivatives(phi)[0]

    def derivatives(self, phi) -> np.ndarray:
        """Exact d/dphi of :meth:`probabilities`."""
        return self.probabilities_and_derivatives(phi)[1]

    def __call__(self, phi) -> np.ndarray:
        return self.probabilities(phi)


def _sector_harmonics(src, weights_a, weights_b, degree):
    """Harmonics c[j, i, i'], j <= degree, of sum_n weights_a[n] @ p_n(phi) @ weights_b[n].T
    for phi-independent per-path weights over the occupations of sectors
    n = 0..n_max, at theta = 0.  Each p_n, of degree n in phi, is evaluated
    at 2 n_max + 1 equispaced phases from one all-sector rotation build,
    transformed to harmonics and contracted once with the weights.  Every
    p_n is even in phi (G_n(-phi)^2 = G_n(phi)^2), so its harmonics are the
    real cosine coefficients.
    """
    n_max = len(weights_a) - 1
    samples = 2 * n_max + 1
    phases = 2.0 * np.pi * np.arange(samples) / samples
    dft = np.cos(np.outer(np.arange(degree + 1), phases)) * (2.0 / samples)
    dft[0] /= 2.0
    c = np.zeros((degree + 1, len(weights_a[0]), len(weights_b[0])))
    for n, p in enumerate(_occupations(src, phases, n_max)):
        h = np.tensordot(dft[: min(n, degree) + 1], p, axes=1)
        for j, h_j in enumerate(h):  # one harmonic at a time keeps temporaries small
            c[j] += weights_a[n] @ h_j @ weights_b[n].T
    return c


def _click_pairs(table, n_max):
    """The click pairs (r_h, r_v) a path's counters can register, r_h major: r <= max_clicks
    on each mode and r_h + r_v <= n_max.  Every other pair has probability zero."""
    r = np.arange(min(table.max_clicks, n_max) + 1)
    return np.argwhere(np.add.outer(r, r) <= n_max)


def _check_patterns(det, *patterns):
    """Refuse click patterns (r_ah, r_av, r_bh, r_bv) outside the counters' click range."""
    for pattern in patterns:
        if min(pattern) < 0:
            raise ValueError("click counts must be non-negative")
        if max(pattern[:2]) > det.table_a.max_clicks or max(pattern[2:]) > det.table_b.max_clicks:
            raise ValueError(f"pattern {pattern} exceeds the detector click range")


def _click_weights(W_h, W_v, pairs, n_max):
    """K_n[i, k] = W_h[r_h, k] W_v[r_v, n - k] for pairs[i] = (r_h, r_v), n = 0..n_max: with
    a path's table as both, the chance that it clicks that pair holding (k, n - k) photons."""
    h, v = np.transpose(pairs)
    return [W_h[h, : n + 1] * W_v[v, n::-1] for n in range(n_max + 1)]


def _click_harmonics(src, det, pairs_a, pairs_b, n_max):
    _check_capacity(det, n_max)
    W_a, W_b = det.table_a.weights, det.table_b.weights
    return _sector_harmonics(src, _click_weights(W_a, W_a, pairs_a, n_max),
                             _click_weights(W_b, W_b, pairs_b, n_max), n_max)


def click_pair_series(src, det, n_max=None):
    """Click probabilities over phi, at theta = 0, of every pattern the cutoff allows.

    Returns (series, pairs_a, pairs_b); output [i, j] is the pattern
    (*pairs_a[i], *pairs_b[j]), over each path's :func:`_click_pairs`.
    """
    if n_max is None:
        n_max = choose_truncation(src)
    pairs = [_click_pairs(t, n_max) for t in (det.table_a, det.table_b)]
    return (PhaseSeries(_click_harmonics(src, det, *pairs, n_max)), *pairs)


def _canonical_pairs(table, n_max):
    """A path's click pairs with r_h <= r_v, one of each polarization-swap orbit, the
    largest click total first."""
    pairs = _click_pairs(table, n_max)
    pairs = pairs[pairs[:, 0] <= pairs[:, 1]]
    return pairs[np.argsort(-pairs.sum(axis=1), kind="stable")]


def click_probability_tensor(src, rot, det, n_max=None):
    """Joint click-pattern probabilities P[r_ah, r_av, r_bh, r_bv].

    Axes run to each table's maximum click number.  The compiled series of
    :func:`click_pair_series`, read at phi - theta, fills every pattern the
    cutoff allows; the others are zero.
    """
    series, pairs_a, pairs_b = click_pair_series(src, det, n_max)
    ra, rb = det.table_a.max_clicks + 1, det.table_b.max_clicks + 1
    P = np.zeros((ra, ra, rb, rb))
    kept = pairs_a[:, :1], pairs_a[:, 1:], pairs_b[:, 0], pairs_b[:, 1]
    P[kept] = series.raw(rot.phi - rot.theta)[0]
    return P


def detection_probability(pattern, rot, src, det) -> float:
    """Probability of one click pattern (r_ah, r_av, r_bh, r_bv).

    Each call compiles the whole click series to read one entry: 0.4-0.5 ms
    at tau 0.1, d 4 on a 2-core VM (Python 3.11, numpy 2.4), so criterion
    4's 3,800 calls spend about 1.5 s on it.  A caller that reads many
    patterns should call ``click_probability_tensor`` once.
    """
    _check_patterns(det, pattern)
    return float(click_probability_tensor(src, rot, det)[tuple(pattern)])


@dataclass(frozen=True)
class PatternDistribution:
    """Probabilities over an ordered set of click patterns."""

    patterns: tuple
    probs: np.ndarray

    def as_dict(self) -> dict:
        return {pat: float(p) for pat, p in zip(self.patterns, self.probs)}

    def __getitem__(self, pattern) -> float:
        return self.as_dict()[tuple(pattern)]

    @property
    def total(self) -> float:
        return float(self.probs.sum())


def full_pattern_distribution(rot, src, det) -> PatternDistribution:
    """Distribution over every representable click pattern."""
    P = click_probability_tensor(src, rot, det)
    patterns = tuple(itertools.product(*map(range, P.shape)))  # in the order of P.reshape(-1)
    return PatternDistribution(patterns=patterns, probs=P.reshape(-1))


def fourfold_patterns() -> tuple:
    """The 2+2 click patterns, two clicks on each path.

    The order is (2002, 2011, 2020, 1102, 1111, 1120, 0202, 0211, 0220),
    reading each code as r_ah r_av r_bh r_bv.
    """
    return tuple((r_ah, 2 - r_ah, r_bh, 2 - r_bh) for r_ah in (2, 1, 0) for r_bh in (0, 1, 2))


class PatternFamily(PhaseSeries):
    """phi-parametrized distribution over a fixed pattern subset.

    Compiled once per source and detector to its phase series, so
    probabilities and exact derivatives cost one small contraction per
    phase; theta only delays the harmonics.  Probabilities are renormalized
    within the subset pattern class per phi (the way coincidence counts are
    normalized per setting); :meth:`raw` gives them unrenormalized.
    """

    def __init__(self, src, det, patterns, theta=0.0):
        self.src = src
        self.det = det
        self.patterns = tuple(tuple(p) for p in patterns)
        _check_patterns(det, *self.patterns)
        self.theta = theta
        self.n_max = choose_truncation(src)
        rows_a = sorted({p[:2] for p in self.patterns})
        rows_b = sorted({p[2:] for p in self.patterns})
        c = _click_harmonics(src, det, rows_a, rows_b, self.n_max)
        c = c[:, [rows_a.index(p[:2]) for p in self.patterns],
              [rows_b.index(p[2:]) for p in self.patterns]]
        if not c[0].sum() > 0.0:
            raise ValueError("pattern class has zero probability at this gain and transmission")
        # each pair sector is invariant under a joint rotation: P(phi, theta) = P(phi - theta, 0)
        super().__init__(c * np.exp(-1j * theta * np.arange(len(c)))[:, None], renormalize=True)

    def subset_probability(self, phi) -> float:
        """Total unrenormalized probability of the pattern subset."""
        return float(self.raw(phi)[0].sum())


def fourfold_family(src, det, theta=0.0) -> PatternFamily:
    """Family over the 2+2 coincidence class."""
    return PatternFamily(src, det, fourfold_patterns(), theta=theta)


def fourfold_conditional_means(src, det):
    """Mean sensing-path photons per accepted 2+2 coincidence event.

    Returns (emitted, surviving): the first counts all photons the source
    put into the sensing path on accepted events, the second only those
    that survive transmission and reach the counters.  Both are averaged
    over phase, weighted by the event rate; the averages are the exact
    zeroth harmonics, the same at every theta.
    """
    n_max = choose_truncation(src)
    _check_capacity(det, n_max)
    a, b = det.table_a, det.table_b
    pairs_a, pairs_b = (p[p.sum(axis=1) == 2] for p in (_click_pairs(t, n_max) for t in (a, b)))
    rate_a, rate_b = ([K.sum(axis=0) for K in _click_weights(t.weights, t.weights, pairs, n_max)]
                      for t, pairs in ((a, pairs_a), (b, pairs_b)))
    S = apply_loss(a.base_weights * np.arange(a.c_max + 1), a.eta)  # surviving photons counted
    surviving_a = [(K_h + K_v).sum(axis=0) for K_h, K_v in zip(
        _click_weights(S, a.weights, pairs_a, n_max), _click_weights(a.weights, S, pairs_a, n_max))]
    # rows: event rate, emitted and surviving photons on events
    weights_a = [np.stack([p, n * p, s]) for n, (p, s) in enumerate(zip(rate_a, surviving_a))]
    weights_b = [p[None] for p in rate_b]
    den, num_emitted, num_surviving = _sector_harmonics(
        src, weights_a, weights_b, degree=0)[0, :, 0]
    if den <= 0.0:
        raise ValueError("conditioning class has zero probability at this gain")
    return num_emitted / den, num_surviving / den


@dataclass(frozen=True)
class MeanPhotons:
    """Photon-number summary of the source through a detector model."""

    per_path: float
    total: float
    fourfold_emitted: float | None = None
    fourfold_surviving: float | None = None


def mean_photon_numbers(src: SourceParams, det: DetectorModel | None = None) -> MeanPhotons:
    """Unconditional per-path means plus coincidence-conditioned sensing means.

    The per-path mean is sum_n n q_n = 2 sinh(tau)^2; each path carries
    the same mean because pairs are emitted symmetrically.  The
    conditioned means are phase averages and hold at every theta.
    """
    n_max = choose_truncation(src)
    q = pair_number_weights(src, n_max)
    per_path = float(np.arange(n_max + 1) @ q)
    if det is None:
        return MeanPhotons(per_path=per_path, total=2.0 * per_path)
    emitted, surviving = fourfold_conditional_means(src, det)
    return MeanPhotons(
        per_path=per_path,
        total=2.0 * per_path,
        fourfold_emitted=float(emitted),
        fourfold_surviving=float(surviving),
    )


def ideal_fisher_information(src: SourceParams, phi: float) -> float:
    """Fisher information of the full pattern family at unit efficiency
    with number-resolving counters, at theta = 0.

    In this limit every pattern probability is the square of a single real
    amplitude, sqrt(q_n / (n+1)) G_n[k, n-l], so the information reduces to
    4 sum (dA/dphi)^2 = 4 sum_n q_n / (n+1) |K_n G_n|^2 with the rotation
    generator K_n, including the correct finite limits where amplitudes
    cross zero: no floored probability quotient, so no 0/0 at any phase.
    """
    n_max = choose_truncation(src)
    weights = pair_number_weights(src, n_max) / np.arange(1, n_max + 2)
    return sum(4.0 * w * float(np.square(rotation_generator(n) @ g).sum())
               for n, (w, g) in enumerate(zip(weights, rotation_matrices(n_max, phi))))
