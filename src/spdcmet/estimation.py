"""Fisher information, fringe fitting, ML estimation and precision baselines.

Families of phase-parametrized distributions enter either as model objects
exposing ``probabilities_and_derivatives(phi)`` (exact derivatives) or as
plain callables ``phi -> probs`` (differentiated by central differences).
Model families are compiled phase series (:class:`spdcmet.engine.PhaseSeries`);
fitted fringes are the same series truncated to harmonics 0-2.  Best phases
are found by :func:`argmax_over_phase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .fock import SourceParams, pair_number_weights

__all__ = [
    "argmax_over_phase",
    "derivative",
    "fisher_information",
    "fisher_point",
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


def _probs_and_derivs(family, phi, h=1e-5):
    if hasattr(family, "probabilities_and_derivatives"):
        return family.probabilities_and_derivatives(phi)
    p = np.asarray(family(phi), dtype=float)
    dp = (np.asarray(family(phi + h), dtype=float)
          - np.asarray(family(phi - h), dtype=float)) / (2.0 * h)
    return p, dp


def derivative(family, phi, h=1e-5) -> np.ndarray:
    """dp/dphi of a family; analytic when the family provides it."""
    return _probs_and_derivs(family, phi, h)[1]


@dataclass(frozen=True)
class FisherPoint:
    phi: float
    value: float
    clipped: bool  # True when a near-zero probability was floored


def fisher_point(family, phi, h=1e-5, floor=PROB_FLOOR) -> FisherPoint:
    """Classical Fisher information at one phase, with divergence flagging.

    Probabilities below ``floor`` are floored before the quotient; a point
    is flagged when such a floored term still carries a non-vanishing
    derivative, i.e. when the true information diverges there.
    """
    p, dp = _probs_and_derivs(family, phi, h)
    tiny = p < floor
    clipped = bool(np.any(tiny & (np.abs(dp) > math.sqrt(floor))))
    return FisherPoint(phi=float(phi), value=_information(p, dp, floor, 0), clipped=clipped)


def _information(p, dp, floor, phase_axes):
    """sum dp^2 / max(p, floor) over the axes after the leading phase axes."""
    info = (dp * dp / np.maximum(p, floor)).sum(axis=tuple(range(phase_axes, np.ndim(p))))
    return float(info) if phase_axes == 0 else info


def fisher_information(family, phi, h=1e-5, floor=PROB_FLOOR):
    """Fisher information at ``phi``; an array of phases (for a compiled
    family) gives an array, evaluated in one contraction."""
    return _information(*_probs_and_derivs(family, phi, h), floor, np.ndim(phi))


def fisher_curve(family, phi_grid, h=1e-5, floor=PROB_FLOOR):
    """I(phi) over a grid; returns (values, clipped_flags)."""
    pts = [fisher_point(family, phi, h, floor) for phi in np.asarray(phi_grid)]
    return np.array([p.value for p in pts]), np.array([p.clipped for p in pts])


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


class FringeSet(engine.PhaseSeries):
    """Jointly renormalized collection of fitted fringes: the phase series
    whose harmonics 0-2 per fit are (c0, c1 e^{i phi0}, c2 e^{2 i phi0})."""

    def __init__(self, fits, renormalize=True):
        self.fits = tuple(fits)
        harmonics = [[f.c0, f.c1 * np.exp(1j * f.phi0), f.c2 * np.exp(2j * f.phi0)]
                     for f in self.fits]
        super().__init__(np.reshape(harmonics, (-1, 3)).T, renormalize)

    def __iter__(self):
        return iter(self.fits)


def _design(phi, phi0):
    u = phi + phi0
    return np.column_stack([np.ones_like(u), np.cos(u), np.cos(2.0 * u)])


def _fit_at_phi0(phi, y, phi0):
    X = _design(phi, phi0)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ coef - y
    if y.ndim == 1:
        return coef, float(resid @ resid)
    return coef, (resid * resid).sum(axis=0)


def _golden_min(f, a, b, tol=1e-12, max_iter=200):
    """Golden-section minimum of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def argmax_over_phase(fn, grid=96, values=None, tol=1e-9):
    """Maximum of a 2 pi-periodic function: the best point of an equispaced
    grid, refined by golden section over one grid step either side.

    ``fn`` takes a phase or an array of phases.  ``grid`` is a point count
    over [0, 2 pi) or an increasing equispaced array of phases, scanned a
    few phases per call of ``fn`` so that large outputs stay small in
    memory; ``values`` are ``fn`` on that grid when the caller already has
    them.  Symmetric images of one maximum tie up to rounding, so the first
    grid point within 1e-12 (relative) of the best is taken.
    The bracket is never clipped to the grid, which is safe because ``fn``
    is periodic.  Returns (phi, fn(phi)); phi may lie up to one grid step
    outside the grid.
    """
    if np.ndim(grid) == 0:
        grid = np.linspace(0.0, 2.0 * np.pi, int(grid), endpoint=False)
    if values is None:
        blocks = np.split(grid, range(_SCAN_BLOCK, len(grid), _SCAN_BLOCK))
        values = np.concatenate([fn(block) for block in blocks])
    values = np.asarray(values)
    top = values.max()
    i = int(np.argmax(values >= top - 1e-12 * abs(top)))
    step = grid[1] - grid[0]
    phi = _golden_min(lambda p: -fn(p), grid[i] - step, grid[i] + step, tol=tol)
    return phi, fn(phi)


def fit_fringes(phi, counts, renormalize=True, phi0_grid=181) -> FringeSet:
    """Least-squares cosine-series fit to per-phase pattern fractions.

    Args:
        phi: sample phases, shape (n_phi,).
        counts: counts or fractions per pattern, shape (n_phi, n_patterns).
            Rows are normalized to fractions before fitting.
        renormalize: renormalize the fitted curves jointly so they sum to
            one at every phase when evaluated as a distribution.
        phi0_grid: offsets scanned for the nonlinear phase parameter; the
            best bracket is then refined by golden section.

    The offset enters both harmonics as a shared shift, so the fit is
    linear at fixed phi0 and the profile over phi0 is minimized directly.
    """
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] != phi.size:
        raise ValueError("counts must have shape (n_phi, n_patterns)")
    if np.unique(phi).size < 5:
        # four parameters per pattern; fewer angles leave the fit rank-deficient
        raise ValueError("need at least five distinct phases to fit the fringe model")
    totals = counts.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("every phase sample needs a positive total count")
    y_all = counts / totals

    offsets = np.linspace(-np.pi / 2.0, np.pi / 2.0, phi0_grid, endpoint=False)
    ssr_grid = np.empty((phi0_grid, y_all.shape[1]))
    for i, off in enumerate(offsets):
        _, ssr = _fit_at_phi0(phi, y_all, off)
        ssr_grid[i] = ssr

    fits = []
    step = offsets[1] - offsets[0]
    for j in range(y_all.shape[1]):
        y = y_all[:, j]
        i_best = int(np.argmin(ssr_grid[:, j]))
        lo, hi = offsets[i_best] - step, offsets[i_best] + step
        phi0 = _golden_min(lambda o: _fit_at_phi0(phi, y, o)[1], lo, hi)
        coef, ssr = _fit_at_phi0(phi, y, phi0)
        fits.append(FringeFit(
            c0=float(coef[0]), c1=float(coef[1]), c2=float(coef[2]),
            phi0=float(phi0), residual=float(ssr),
        ))
    return FringeSet(fits=tuple(fits), renormalize=renormalize)


# ---------------------------------------------------------------------------
# maximum likelihood


@dataclass(frozen=True)
class MLEstimate:
    phi_hat: float
    log_likelihood: float
    candidates: tuple  # (phi, logL) of refined local maxima
    ambiguous: bool  # True when distinct maxima tie within tolerance


def _log_likelihood(counts, family, phi, floor=PROB_FLOOR):
    p = np.asarray(family(phi) if callable(family) else family.probabilities(phi))
    return float(counts @ np.log(np.maximum(p, floor)))


def ml_estimate(counts, family, interval, grid_density=1000,
                tie_tol=1e-6, floor=PROB_FLOOR) -> MLEstimate:
    """Maximum-likelihood phase from multinomial pattern counts.

    A coarse likelihood scan (``grid_density`` points per 2 pi) brackets
    local maxima, each refined by golden section.  All refined maxima are
    reported; the estimate is ambiguous when two distinct phases tie in
    likelihood within ``tie_tol``.
    """
    counts = np.asarray(counts, dtype=float)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must be increasing")
    n_grid = max(8, int(round(grid_density * (b - a) / (2.0 * np.pi))))
    grid = np.linspace(a, b, n_grid)
    ll = np.array([_log_likelihood(counts, family, g, floor) for g in grid])

    peaks = [i for i in range(n_grid)
             if (i == 0 or ll[i] >= ll[i - 1]) and (i == n_grid - 1 or ll[i] >= ll[i + 1])]
    candidates = []
    for i in peaks:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, n_grid - 1)]
        phi_c = _golden_min(lambda p: -_log_likelihood(counts, family, p, floor), lo, hi)
        candidates.append((float(phi_c), _log_likelihood(counts, family, phi_c, floor)))
    candidates.sort(key=lambda t: -t[1])
    # drop duplicates that refined into the same point
    unique = []
    for phi_c, l in candidates:
        if all(abs(phi_c - u[0]) > 1e-8 for u in unique):
            unique.append((phi_c, l))
    best_phi, best_ll = unique[0]
    ambiguous = len(unique) > 1 and (best_ll - unique[1][1]) < tie_tol
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


def monte_carlo_ml_fisher(family, phi_true, repetitions=10_000, sample_size=1000,
                          seed=0, search_halfwidth=np.pi / 4.0,
                          grid_density=1000) -> MLFisherResult:
    """Empirical information of the ML estimator, I_ML = 1 / (N Var(phi_hat)).

    Every repetition draws one multinomial sample of ``sample_size``
    events at the true phase and estimates it back by likelihood search
    restricted to ``phi_true +- search_halfwidth``, refined up to one grid
    step beyond it (local estimation; keeps mirror-symmetric aliases of
    the fringe period out of the window).  The quoted standard error is the large-M normal-theory
    error of a variance estimate, Var * sqrt(2 / (M - 1)), propagated to
    the information.
    """
    if not search_halfwidth > 0.0:
        raise ValueError("search_halfwidth must be positive")
    rng = np.random.default_rng(seed)
    p_true = np.asarray(family(phi_true) if callable(family) else family.probabilities(phi_true))
    a = phi_true - search_halfwidth
    b = phi_true + search_halfwidth
    n_grid = max(8, int(round(grid_density * (b - a) / (2.0 * np.pi))))
    grid = np.linspace(a, b, n_grid)
    probs_grid = np.array([
        family(g) if callable(family) else family.probabilities(g) for g in grid
    ])
    log_grid = np.log(np.maximum(probs_grid, PROB_FLOOR))

    estimates = np.empty(repetitions)
    for m in range(repetitions):
        counts = rng.multinomial(sample_size, p_true)
        estimates[m], _ = argmax_over_phase(
            lambda p: _log_likelihood(counts, family, p), grid,
            values=log_grid @ counts, tol=1e-10,
        )
    variance = float(np.var(estimates, ddof=1))
    i_ml = 1.0 / (sample_size * variance)
    stderr = i_ml * math.sqrt(2.0 / (repetitions - 1))
    return MLFisherResult(
        i_ml=i_ml, stderr=stderr, variance=variance,
        mean_estimate=float(estimates.mean()), phi_true=float(phi_true),
        repetitions=repetitions, sample_size=sample_size,
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


def bootstrap_fisher_band(phi, counts, replicates=1000, seed=0,
                          eval_grid=None, percentiles=(2.5, 97.5),
                          noise="poisson") -> BootstrapBand:
    """Percentile band of I(phi) under count-level resampling.

    Each replicate perturbs the per-pattern counts (Poisson by default,
    ``noise='none'`` reproduces the central curve exactly and collapses
    the band), refits the fringes, and re-evaluates the information.
    """
    if noise not in ("poisson", "none"):
        raise ValueError("noise must be 'poisson' or 'none'")
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if eval_grid is None:
        eval_grid = phi
    eval_grid = np.asarray(eval_grid, dtype=float)
    rng = np.random.default_rng(seed)

    central_fit = fit_fringes(phi, counts)
    central, _ = fisher_curve(central_fit, eval_grid)

    curves = np.empty((replicates, eval_grid.size))
    for bidx in range(replicates):
        sample = rng.poisson(counts) if noise == "poisson" else counts
        # guard degenerate all-zero rows that poisson can produce at tiny rates
        bad = sample.sum(axis=1) <= 0
        if np.any(bad):
            sample = sample.astype(float)
            sample[bad] = counts[bad]
        refit = fit_fringes(phi, sample)
        curves[bidx], _ = fisher_curve(refit, eval_grid)
    low, high = np.percentile(curves, percentiles, axis=0)
    return BootstrapBand(
        phi_grid=eval_grid, central=central, low=low, high=high,
        replicates=replicates,
    )


# ---------------------------------------------------------------------------
# baselines


def snl_fisher(src, det, theta=0.0) -> float:
    """Shot-noise baseline: Fisher information of an ideal classical probe
    using the same number of sensing-path photons per accepted event.

    At the shot-noise limit the information is one per photon, so the
    baseline equals the mean number of sensing-path photons reaching the
    counters per accepted coincidence (loss commutes with the phase, so
    these are the photons that actually probe it).
    """
    _, surviving = engine.fourfold_conditional_means(src, det, theta=theta)
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
