"""Fisher information, fringe fitting, ML estimation and precision baselines.

Every family of phase-parametrized distributions is a compiled phase
series (:class:`spdcmet.engine.PhaseSeries`) with exact derivatives;
fitted fringes are the same series truncated to harmonics 0-2.  Each
estimator evaluates whole arrays of phases at once, and every best phase,
fringe offset and likelihood maximum is found by :func:`argmax_over_phase`,
which refines a batch of independent searches together; the bootstrap band
fits and evaluates blocks of replicates, drawn as one random stream, at once.

A fringe c0 + c1 cos(phi + phi0) + c2 cos 2(phi + phi0) lies in the span of
{1, cos phi, sin phi, cos 2 phi, sin 2 phi} whatever its offset.  The fit
takes one QR factorization F = QR of that basis at the sample phases and
projects every column of fractions once, z = Q^T y, keeping the
out-of-span residual.  At an offset the design is R T(phi0), so the offset
scan and its refinement work on the five coordinates z alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .fock import SourceParams, pair_number_weights

__all__ = [
    "argmax_over_phase",
    "fisher_information",
    "fisher_curve",
    "FringeFit",
    "FringeSet",
    "fit_fringes",
    "MLEstimate",
    "ml_estimate",
    "MLFisherResult",
    "monte_carlo_ml_fisher",
    "BootstrapBand",
    "bootstrap_fisher_band",
    "snl_fisher",
    "heisenberg_limit",
    "PerformancePoint",
    "performance_curve",
]

PROB_FLOOR = 1e-12
_SCAN_BLOCK = 4  # phases per evaluation of a phase scan; bounds its temporaries
_GRID_DENSITY = 1000  # likelihood-scan points per 2 pi
_TIE_TOL = 1e-6  # log-likelihood gap below which distinct maxima tie
_PHI0_GRID = 181  # fringe offsets scanned over one period of the residual
_BAND_COLUMNS = 1024  # fitted pattern columns per bootstrap block; bounds the fit temporaries
_BAND_PERCENTILES = (2.5, 97.5)


def _information(p, dp, phase_axes):
    """sum dp^2 / max(p, floor) over the axes after the leading phase axes."""
    info = (dp * dp / np.maximum(p, PROB_FLOOR)).sum(axis=tuple(range(phase_axes, np.ndim(p))))
    return float(info) if phase_axes == 0 else info


def fisher_information(family, phi):
    """Fisher information at ``phi``; an array of phases gives an array,
    evaluated in one contraction."""
    return _information(*family.probabilities_and_derivatives(phi), np.ndim(phi))


def fisher_curve(family, phi_grid):
    """I(phi) over a grid; returns (values, clipped_flags).

    Output axes before the last (pattern) axis give one curve each.
    Probabilities below the floor are floored before the quotient; a
    point is flagged when such a floored term still carries a
    non-vanishing derivative, i.e. when the true information diverges there.
    """
    p, dp = family.probabilities_and_derivatives(np.asarray(phi_grid, dtype=float))
    clipped = ((p < PROB_FLOOR) & (np.abs(dp) > math.sqrt(PROB_FLOOR))).any(axis=-1)
    return _information(p, dp, p.ndim - 1), clipped


# ---------------------------------------------------------------------------
# fringe model


@dataclass(frozen=True)
class FringeFit:
    """One pattern's fringe: c0 + c1 cos(phi + phi0) + c2 cos(2 (phi + phi0))."""

    c0: float
    c1: float
    c2: float
    phi0: float
    residual: float = 0.0

    def value(self, phi):
        u = np.asarray(phi, dtype=float) + self.phi0
        return self.c0 + self.c1 * np.cos(u) + self.c2 * np.cos(2.0 * u)

    def derivative(self, phi):
        u = np.asarray(phi, dtype=float) + self.phi0
        return -self.c1 * np.sin(u) - 2.0 * self.c2 * np.sin(2.0 * u)


def _fringe_harmonics(coef, phi0):
    """Harmonics (c0, c1 e^{i phi0}, c2 e^{2 i phi0}), shape (3, ...), of coef[..., 3]."""
    return np.moveaxis(coef * np.exp(1j * np.multiply.outer(phi0, np.arange(3))), -1, 0)


class FringeSet(engine.PhaseSeries):
    """Jointly renormalized collection of fitted fringes: the phase series
    whose harmonics 0-2 per fit are (c0, c1 e^{i phi0}, c2 e^{2 i phi0})."""

    def __init__(self, fits):
        self.fits = tuple(fits)
        coef = np.reshape([(f.c0, f.c1, f.c2) for f in self.fits], (-1, 3))
        super().__init__(_fringe_harmonics(coef, np.array([f.phi0 for f in self.fits])),
                         renormalize=True)

    def __iter__(self):
        return iter(self.fits)


def _golden_min(f, a, b, tol=1e-12, max_iter=200):
    """Golden-section minimum of a unimodal function on [a, b].

    Arrays of brackets are refined together, ``f`` mapping an array of
    points to their values; each bracket stops once narrower than ``tol``,
    so every entry equals its own scalar search.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        live = b - a >= tol
        if not np.any(live):
            break
        left = live & (f1 <= f2)  # the minimum is in [a, x2]
        right = live ^ left  # ... or in [x1, b]
        a, b = np.where(right, x1, a), np.where(left, x2, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        x1, f1, x2, f2 = (np.where(left, x, np.where(right, x2, x1)),
                          np.where(left, fx, np.where(right, f2, f1)),
                          np.where(right, x, np.where(left, x1, x2)),
                          np.where(right, fx, np.where(left, f1, f2)))
    return (a + b) / 2.0


def _grid_peak(values):
    """Per column of ``values[grid, ...]``, the first grid point within 1e-12
    (relative) of the column's best."""
    top = values.max(axis=0)
    return np.argmax(values >= top - 1e-12 * np.abs(top), axis=0)


def argmax_over_phase(fn, grid=96, values=None, tol=1e-9):
    """Maximum of a 2 pi-periodic function: the best point of an equispaced
    grid, refined by golden section over one grid step either side.

    ``fn`` takes a phase or an array of phases.  ``grid`` is a point count
    over [0, 2 pi) or an increasing equispaced array of phases, scanned a
    few phases per call of ``fn`` so that large outputs stay small in
    memory; ``values`` are ``fn`` on that grid when the caller already has
    them.  A ``values`` table of shape (grid, B) runs B independent
    searches together: ``fn`` then maps B phases to the B functions'
    values, the b-th function at the b-th phase.  Symmetric images of one
    maximum tie up to rounding, so the first grid point within 1e-12
    (relative) of the best is taken.  The bracket is never clipped to the
    grid, which is safe because ``fn`` is periodic.  Returns (phi, fn(phi));
    phi may lie up to one grid step outside the grid.
    """
    if np.ndim(grid) == 0:
        grid = np.linspace(0.0, 2.0 * np.pi, int(grid), endpoint=False)
    if values is None:
        blocks = np.split(grid, range(_SCAN_BLOCK, len(grid), _SCAN_BLOCK))
        values = np.concatenate([fn(block) for block in blocks])
    i = _grid_peak(np.asarray(values))
    step = grid[1] - grid[0]
    phi = _golden_min(lambda p: -fn(p), grid[i] - step, grid[i] + step, tol=tol)
    return phi, fn(phi)


def _offset_fit(r, z, r0, offset):
    """Fringe coefficients, shape (3, ...), and residual sums of squares at
    ``offset`` of columns with span coordinates ``z[5, ...]``: the design is
    R T(offset), c0 fits the first coordinate and Gram-Schmidt the rest."""
    e = np.exp(1j * offset)  # cos h(phi + o) = Re(e^{i h phi} e^{i h o})
    m1, m2 = (np.multiply.outer(r[:, 2 * h - 1] + 1j * r[:, 2 * h], e**h).real for h in (1, 2))
    a, b, w = m1[1:], m2[1:], z[1:]
    k1, ab = ((a * x).sum(axis=0) / (a * a).sum(axis=0) for x in (w, b))
    b = b - ab * a  # the cos 2 column with its cos part taken out
    k2 = (b * w).sum(axis=0) / (b * b).sum(axis=0)
    ssr = r0 + ((w - k1 * a - k2 * b) ** 2).sum(axis=0)  # from the residual vector
    k1 = k1 - ab * k2
    return np.stack([(z[0] - m1[0] * k1 - m2[0] * k2) / r[0, 0], k1, k2]), ssr


def _fit_fringe_columns(phi, counts):
    """Fringe fits of every pattern of count sets ``counts[sets, n_phi, k]``
    in one search; returns coef (sets, k, 3), phi0 and residuals (sets, k)."""
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3 or counts.shape[1] != phi.size:
        raise ValueError("counts must have shape (n_phi, n_patterns)")
    distinct = np.unique(np.round(phi / (2.0 * np.pi) % 1.0, 9) % 1.0).size  # in turns
    if distinct < 5:
        # four parameters per pattern; fewer angles leave the fit rank-deficient
        raise ValueError(f"need at least five distinct phases modulo 2 pi to fit the "
                         f"fringe model, got {distinct}")
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("every phase sample needs a positive total count")
    y = np.moveaxis(counts / totals, 1, 0).reshape(phi.size, -1)  # one column per fit
    q, r = np.linalg.qr(np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi),
                                  np.cos(2.0 * phi), np.sin(2.0 * phi)], axis=-1))
    z = q.T @ y  # span coordinates; r0 is the out-of-span residual
    r0 = ((q @ z - y) ** 2).sum(axis=0)
    offsets = np.linspace(-np.pi / 2.0, np.pi / 2.0, _PHI0_GRID, endpoint=False)
    # a few offsets at a time, so the residuals are never held for the whole grid
    ssr = np.concatenate([_offset_fit(r, z[:, None], r0, block[:, None])[1]
                          for block in np.array_split(offsets, _PHI0_GRID // 16)])
    phi0, _ = argmax_over_phase(lambda o: -_offset_fit(r, z, r0, o)[1], offsets,
                                values=-ssr, tol=1e-12)
    coef, ssr = _offset_fit(r, z, r0, phi0)
    return tuple(x.reshape(counts.shape[::2] + x.shape[1:]) for x in (coef.T, phi0, ssr))


def fit_fringes(phi, counts) -> FringeSet:
    """Least-squares cosine-series fit to per-phase pattern fractions.

    Args:
        phi: sample phases, shape (n_phi,).
        counts: counts or fractions per pattern, shape (n_phi, n_patterns).
            Rows are normalized to fractions before fitting.

    The fitted curves are renormalized jointly, so they sum to one at every
    phase when evaluated as a distribution; ``raw`` gives them as fitted.

    The offset enters both harmonics as a shared shift, so the fit is
    linear at fixed phi0 and the residual over phi0 is minimized directly:
    every pattern's residual is scanned over one grid of offsets and all
    patterns' offsets are refined together.  The residual has period pi
    in phi0 (c1 changes sign), which the grid spans.
    """
    coef, phi0, ssr = (x[0] for x in _fit_fringe_columns(phi, np.expand_dims(counts, 0)))
    return FringeSet(fits=[FringeFit(*c.tolist(), phi0=float(p), residual=float(s))
                           for c, p, s in zip(coef, phi0, ssr)])


# ---------------------------------------------------------------------------
# maximum likelihood


@dataclass(frozen=True)
class MLEstimate:
    phi_hat: float
    log_likelihood: float
    candidates: tuple  # (phi, logL) of refined local maxima
    ambiguous: bool  # True when distinct maxima tie within tolerance


def _log_probs(family, phi):
    return np.log(np.maximum(family.probabilities(phi), PROB_FLOOR))


def _likelihood_grid(a, b):
    """The likelihood scan of [a, b]: about 1000 points per 2 pi."""
    return np.linspace(a, b, max(8, int(round(_GRID_DENSITY * (b - a) / (2.0 * np.pi)))))


def ml_estimate(counts, family, interval) -> MLEstimate:
    """Maximum-likelihood phase from multinomial pattern counts.

    A coarse likelihood scan brackets local maxima, all refined together
    by golden section.  All refined maxima are reported; the estimate is
    ambiguous when two distinct phases tie in log-likelihood within 1e-6.
    """
    counts = np.asarray(counts, dtype=float)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must be increasing")
    grid = _likelihood_grid(a, b)
    ll = _log_probs(family, grid) @ counts
    padded = np.concatenate([[-np.inf], ll, [-np.inf]])
    peaks = np.flatnonzero((ll >= padded[:-2]) & (ll >= padded[2:]))
    lo = grid[np.maximum(peaks - 1, 0)]
    hi = grid[np.minimum(peaks + 1, grid.size - 1)]
    phi_c = _golden_min(lambda p: -(_log_probs(family, p) @ counts), lo, hi)
    ll_c = _log_probs(family, phi_c) @ counts
    candidates = sorted(zip(phi_c.tolist(), ll_c.tolist()), key=lambda t: -t[1])
    # drop duplicates that refined into the same point
    unique = []
    for phi_k, l in candidates:
        if all(abs(phi_k - u[0]) > 1e-8 for u in unique):
            unique.append((phi_k, l))
    best_phi, best_ll = unique[0]
    ambiguous = len(unique) > 1 and (best_ll - unique[1][1]) < _TIE_TOL
    return MLEstimate(
        phi_hat=best_phi, log_likelihood=best_ll,
        candidates=tuple(unique), ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class MLFisherResult:
    i_ml: float
    stderr: float
    variance: float
    mean_estimate: float
    phi_true: float
    repetitions: int
    sample_size: int
    edge_hits: int  # repetitions whose likelihood-scan maximum is a window end


def monte_carlo_ml_fisher(family, phi_true, repetitions=10_000, sample_size=1000,
                          seed=0, search_halfwidth=np.pi / 4.0) -> MLFisherResult:
    """Empirical information of the ML estimator, I_ML = 1 / (N Var(phi_hat)).

    Every repetition draws one multinomial sample of ``sample_size``
    events at the true phase and estimates it back by likelihood search
    restricted to ``phi_true +- search_halfwidth``, refined up to one grid
    step beyond it (local estimation; keeps mirror-symmetric aliases of
    the fringe period out of the window).  ``edge_hits`` counts the
    repetitions whose scan maximum is the first or last grid point, whose
    estimates the window may have cut short.  All repetitions share one
    likelihood table and one batched search, so the family is evaluated
    the same number of times for any repetition count.  The quoted
    standard error is the large-M normal-theory error of a variance
    estimate, Var * sqrt(2 / (M - 1)), propagated to the information.
    """
    if not search_halfwidth > 0.0:
        raise ValueError("search_halfwidth must be positive")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(sample_size, family.probabilities(phi_true), size=repetitions)
    grid = _likelihood_grid(phi_true - search_halfwidth, phi_true + search_halfwidth)
    ll = _log_probs(family, grid) @ counts.T
    estimates, _ = argmax_over_phase(
        lambda p: (_log_probs(family, p) * counts).sum(axis=1), grid, values=ll, tol=1e-10)
    edge_hits = np.isin(_grid_peak(ll), (0, grid.size - 1)).sum()
    variance = float(np.var(estimates, ddof=1))
    i_ml = 1.0 / (sample_size * variance)
    stderr = i_ml * math.sqrt(2.0 / (repetitions - 1))
    return MLFisherResult(
        i_ml=i_ml, stderr=stderr, variance=variance,
        mean_estimate=float(estimates.mean()), phi_true=float(phi_true),
        repetitions=repetitions, sample_size=sample_size, edge_hits=int(edge_hits),
    )


# ---------------------------------------------------------------------------
# bootstrap band


@dataclass(frozen=True)
class BootstrapBand:
    phi_grid: np.ndarray
    central: np.ndarray
    low: np.ndarray
    high: np.ndarray
    replicates: int
    patched_rows: int  # (replicate, phase) rows drawn all-zero, replaced by the central counts


def bootstrap_fisher_band(phi, counts, replicates=1000, seed=0,
                          eval_grid=None, noise="poisson") -> BootstrapBand:
    """Central 95% percentile band of I(phi) under count-level resampling.

    Each replicate perturbs the per-pattern counts (Poisson by default,
    ``noise='none'`` reproduces the central curve exactly and collapses
    the band), refits the fringes, and re-evaluates the information.
    Replicates come in blocks, drawn as one random stream (the same as one
    draw per replicate in turn); a block's fringes, with the central fit in
    the first block, are fitted in one search and its curves, each replicate
    renormalized on its own, evaluated at once.  A row drawn all-zero, as
    Poisson can at tiny rates, takes the central counts and is counted in
    ``patched_rows``.
    """
    if noise not in ("poisson", "none"):
        raise ValueError("noise must be 'poisson' or 'none'")
    counts = np.asarray(counts, dtype=float)
    eval_grid = np.asarray(phi if eval_grid is None else eval_grid, dtype=float)
    rng = np.random.default_rng(seed)

    per_block = max(1, _BAND_COLUMNS // max(1, counts.shape[-1]))
    curves, patched = [], 0
    for start in range(0, replicates + 1, per_block):  # count set 0 is the central one
        size = (min(start + per_block, replicates + 1) - max(start, 1),) + counts.shape
        sample = rng.poisson(counts, size) if noise == "poisson" else np.broadcast_to(counts, size)
        bad = sample.sum(axis=-1, keepdims=True) <= 0
        patched += int(bad.sum())
        sets = np.where(bad, counts, sample)
        if start == 0:
            sets = np.concatenate([counts[None], sets])
        coef, phi0, _ = _fit_fringe_columns(phi, sets)
        series = engine.PhaseSeries(_fringe_harmonics(coef, phi0), renormalize=True)
        curves.append(fisher_curve(series, eval_grid)[0].T)
    curves = np.concatenate(curves)
    central, curves = curves[0], curves[1:]
    low, high = np.percentile(curves, _BAND_PERCENTILES, axis=0)
    return BootstrapBand(
        phi_grid=eval_grid, central=central, low=low, high=high,
        replicates=replicates, patched_rows=patched,
    )


# ---------------------------------------------------------------------------
# baselines


def snl_fisher(src, det) -> float:
    """Shot-noise baseline: Fisher information of an ideal classical probe
    using the same number of sensing-path photons per accepted event.

    At the shot-noise limit the information is one per photon, so the
    baseline equals the mean number of sensing-path photons reaching the
    counters per accepted coincidence (loss commutes with the phase, so
    these are the photons that actually probe it).
    """
    _, surviving = engine.fourfold_conditional_means(src, det)
    return float(surviving)


def heisenberg_limit(src: SourceParams) -> float:
    """Per-event Heisenberg bound 1 / sqrt(<N_a^2>) on the phase deviation.

    Returns inf at zero gain where the sensing path is empty.
    """
    if src.tau == 0.0:
        return math.inf
    n_max = engine.choose_truncation(src)
    q = pair_number_weights(src, n_max)
    n = np.arange(n_max + 1)
    second_moment = float((n * n) @ q)
    return 1.0 / math.sqrt(second_moment)


@dataclass(frozen=True)
class PerformancePoint:
    eta: float
    fisher_max: float
    phi_opt: float
    delta_phi: float
    normalized_uncertainty: float  # delta_phi * sqrt(eta * mean sensing photons)
    heisenberg_normalized: float


def performance_curve(src, etas, d=4, coarse=96) -> list:
    """Normalized uncertainty against balanced transmission.

    For each eta the full unconditioned pattern family (both paths at the
    same transmission) is scanned for its best phase; the returned figure
    of merit is delta_phi * sqrt(eta * N_a) with N_a the mean photon
    number sent down the sensing path, directly comparable to a unit
    shot-noise line.  ``d=None`` uses number-resolving counters.
    """
    nbar = mean_sensing_photons(src)
    hl = heisenberg_limit(src)
    points = []
    for eta in etas:
        if not eta > 0.0:  # no photon reaches a counter, so no information
            raise ValueError(f"transmission must be positive, got {eta}")
        det = engine.detector_for_source(src, d, eta, eta)
        fam, _, _ = engine.click_pair_series(src, det)
        phi_opt, fisher = argmax_over_phase(lambda p: fisher_information(fam, p), coarse)
        delta = 1.0 / math.sqrt(fisher)
        scale = math.sqrt(eta * nbar)
        points.append(PerformancePoint(
            eta=float(eta), fisher_max=float(fisher), phi_opt=float(phi_opt),
            delta_phi=float(delta),
            normalized_uncertainty=float(delta * scale),
            heisenberg_normalized=float(hl * scale) if math.isfinite(hl) else math.inf,
        ))
    return points


def mean_sensing_photons(src: SourceParams) -> float:
    """Unconditional mean photon number in one path, 2 sinh(tau)^2."""
    return engine.mean_photon_numbers(src).per_path
