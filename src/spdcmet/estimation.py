"""Fisher information, fringe fitting, ML estimation and precision baselines.

Every family of phase-parametrized distributions is a compiled phase
series (:class:`spdcmet.engine.PhaseSeries`) with exact derivatives;
fitted fringes are the same series truncated to harmonics 0-2.  Each
estimator evaluates whole arrays of phases at once: a series' phase scan
reads ``scan_block`` phases per evaluation, Brent's method refines each
best phase (:func:`argmax_over_phase`), one bisection every ML estimate,
and the bootstrap band fits and evaluates blocks of replicates at once.

A fringe c0 + c1 cos(phi + phi1) + c2 cos(2 phi + phi2) lies in the span
of {1, cos phi, sin phi, cos 2 phi, sin 2 phi}, so its least-squares fit
is linear: one QR factorization F = QR of that basis at the sample phases
fits every column of fractions y at once, b = R^-1 Q^T y, with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .fock import SourceParams, pair_number_weights

__all__ = [
    "argmax_over_phase",
    "OrbitInformation",
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
_TERM_FLOOR = 1e-14  # OrbitInformation drops the terms of patterns at or below it
_SCAN_BLOCK = 4  # phases per call of an opaque phase scan; bounds its temporaries
_GRID_DENSITY = 1000  # likelihood-scan points per 2 pi
_TIE_TOL = 1e-6  # log-likelihood gap below which distinct maxima tie
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
    """One pattern's fringe: c0 + c1 cos(phi + phi1) + c2 cos(2 phi + phi2).

    Fits return the harmonic amplitudes c1, c2 >= 0 and their phases."""

    c0: float
    c1: float
    c2: float
    phi1: float
    phi2: float
    residual: float = 0.0

    def value(self, phi):
        phi = np.asarray(phi, dtype=float)
        return (self.c0 + self.c1 * np.cos(phi + self.phi1)
                + self.c2 * np.cos(2.0 * phi + self.phi2))

    def derivative(self, phi):
        phi = np.asarray(phi, dtype=float)
        return -self.c1 * np.sin(phi + self.phi1) - 2.0 * self.c2 * np.sin(2.0 * phi + self.phi2)


class FringeSet(engine.PhaseSeries):
    """Jointly renormalized collection of fitted fringes: the phase series
    whose harmonics 0-2 per fit are (c0, c1 e^{i phi1}, c2 e^{i phi2})."""

    def __init__(self, fits):
        self.fits = tuple(fits)
        harmonics = [(f.c0, f.c1 * np.exp(1j * f.phi1), f.c2 * np.exp(1j * f.phi2))
                     for f in self.fits]
        super().__init__(np.reshape(harmonics, (-1, 3)).T, renormalize=True)

    def __iter__(self):
        return iter(self.fits)


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # Brent's relative position tolerance


def _brent_lane(a, b, tol):
    """One lane of :func:`_brent_min`, the textbook scalar steps on floats, stopping
    when |x - m| <= 2 tol1 - (b - a)/2, tol1 = tol + sqrt(eps) |x|: yields each point
    to evaluate, is sent its value, and returns (x, f(x))."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = yield x
    d = e = 0.0  # the last step and the one before it
    for _ in range(200):
        m, tol1 = (a + b) / 2.0, tol + _SQRT_EPS * abs(x)
        if not abs(x - m) > 2.0 * tol1 - (b - a) / 2.0:
            break
        # vertex x + p/q of the parabola through (x, fx), (w, fw), (v, fv)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = -p if q > 0.0 else p, abs(q)
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol1 or b - x - d < 2.0 * tol1:
                d = math.copysign(tol1, m - x)
        else:
            e = a - x if x >= m else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = yield u
        if fu <= fx:  # the worse of x and u becomes the bracket end on its side
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _brent_min(f, a, b, tol):
    """(x, f(x)) at the minimum of a unimodal function on [a, b] by Brent's
    method (1973, ch. 5): parabolic steps, golden section where they fail.
    Arrays of brackets are refined together, each lane by its own scalar steps
    and stopping test (:func:`_brent_lane`), so each equals its own search;
    each step calls ``f``, which maps an array of points to their values, once
    for every lane, a finished one at its minimum."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lanes = [_brent_lane(lo, hi, tol) for lo, hi in zip(a.ravel().tolist(), b.ravel().tolist())]
    points, found = [next(lane) for lane in lanes], [None] * len(lanes)
    while None in found:
        values = np.ravel(f(np.reshape(points, a.shape))).tolist()
        for i in [i for i, done in enumerate(found) if done is None]:
            try:
                points[i] = lanes[i].send(values[i])
            except StopIteration as stop:  # a finished lane is evaluated at its minimum
                points[i], found[i] = stop.value[0], stop.value
    x, fx = np.moveaxis(np.reshape(found, (*a.shape, 2)), -1, 0)
    return x[()], fx[()]


def _grid_peak(values):
    """Per column of ``values[grid, ...]``, the first grid point within 1e-12
    (relative) of the column's best."""
    top = values.max(axis=0)
    return np.argmax(values >= top - 1e-12 * np.abs(top), axis=0)


def argmax_over_phase(fn, grid=96, block=_SCAN_BLOCK):
    """Maximum of a 2 pi-periodic function, or of each of a stack of them:
    the best point of an equispaced grid, refined by Brent's method over
    one grid step either side.

    ``fn`` takes a phase or an array of phases and returns a value per
    phase, or for a stack a row of B values per phase, one per function.
    ``grid`` is a point count over [0, 2 pi) or an increasing equispaced
    array of at least two phases, scanned ``block`` phases per call of ``fn``
    (by default a few, so that large outputs stay small).  Symmetric images of one
    maximum tie up to rounding, so the first grid point within 1e-12
    (relative) of the best is taken.  The bracket is never clipped to the
    grid, which is safe because ``fn`` is periodic.  The maximum is located
    to about 1e-9 + sqrt(eps) |phi|; rounding of ``fn`` hides a flat
    maximum's position below that.  Returns (phi, fn(phi)); phi may lie up
    to one grid step outside the grid.  A stack shares the grid scan and
    one batched Brent search, whose lane b reads column b at its own phase,
    and returns arrays of its B maxima.
    """
    n = int(grid) if np.ndim(grid) == 0 else len(grid)
    if n < 2:
        raise ValueError(f"phase search needs at least two grid points, got {n}")
    if np.ndim(grid) == 0:
        grid = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = np.concatenate([fn(grid[i:i + block]) for i in range(0, len(grid), block)])
    i, step = _grid_peak(values), grid[1] - grid[0]
    lanes = (lambda v: v) if values.ndim == 1 else np.diagonal
    phi, f_min = _brent_min(lambda p: -lanes(fn(p)), grid[i] - step, grid[i] + step, 1e-9)
    return phi, -f_min


class OrbitInformation:
    """Fisher information per accepted event, at theta = 0, of the click patterns whose
    reference-path click total reaches each count of ``k_values``; count 0 accepts all.
    A call at a phase, or an array of phases leading the axes, gives a column per count;
    ``p_event`` is each count's acceptance and ``photons`` that times its mean pair number.

    A path's two modes share one table, so swapping H and V on one path maps phi to
    phi + pi, and on both changes nothing: the sum over all patterns is the sum over the
    canonical ones (:func:`engine._canonical_pairs`) of w_a w_b / 2 [t(phi) + t(phi + pi)],
    w 2 for a pair r_h < r_v and 1 for r_h = r_v, even with period pi.  A pair's click
    marginal does not depend on phase and bounds every pattern holding it, and terms of
    P <= _TERM_FLOOR are dropped, so only pairs with a marginal above _TERM_FLOOR / 2
    (2 for rounding) are compiled.  Reference sums run from the largest click total down,
    so a count's column rounds the same however many counts share it.
    """

    def __init__(self, src, det, k_values, n_max):
        q = pair_number_weights(src, n_max)
        weights = np.stack([q, np.arange(n_max + 1) * q])  # per sector, and photon-weighted
        paths = []  # per path: canonical pairs, orbit sizes, click marginals by those weights
        for table in (det.table_a, det.table_b):
            pairs = engine._canonical_pairs(table, n_max)
            chances = [K.sum(axis=1) / (n + 1) for n, K in enumerate(  # of each pair, per sector
                engine._click_weights(table.weights, table.weights, pairs, n_max))]
            paths.append((pairs, np.where(pairs[:, 0] < pairs[:, 1], 2.0, 1.0), weights @ chances))
        (pairs_a, w_a, m_a), (pairs_b, w_b, m_b) = paths
        reach = pairs_b.sum(axis=1) >= np.array(k_values)[:, None]  # [count, reference pair]
        self.p_event, self.photons = np.cumsum(w_b * m_b, axis=1)[:, reach.sum(axis=1) - 1]
        live_a, live_b = m_a[0] > _TERM_FLOOR / 2, m_b[0] > _TERM_FLOOR / 2
        self._w, self._ends = (w_a[live_a], w_b[live_b]), reach[:, live_b].sum(axis=1) - 1
        self._series = engine.PhaseSeries(engine._click_harmonics(
            src, det, pairs_a[live_a], pairs_b[live_b], n_max))

    def __call__(self, phi):
        P, dP = self._series.raw(np.stack([phi, phi + np.pi]))
        terms = np.divide(dP * dP, P, out=np.zeros_like(P), where=P > _TERM_FLOOR)
        info = np.cumsum(self._w[0] @ (terms[0] + terms[1]) * self._w[1], axis=-1)[..., self._ends]
        return np.where(self._ends >= 0, info, 0.0) / (2.0 * self.p_event)  # no live pair: no term

    def maximize(self):
        """(phi in [0, pi/2], information) at each count's best phase, from one shared search."""
        phi, info = argmax_over_phase(self, np.linspace(0.0, np.pi / 2.0, 25),
                                      max(-(-self._series.scan_block // 2), len(self._ends)))
        return [abs(math.remainder(p, np.pi)) for p in phi], info


def _fit_fringe_columns(phi, counts):
    """Least-squares fringes of every pattern of count sets ``counts[sets, n_phi, k]``:
    harmonics (c0, c1 e^{i phi1}, c2 e^{i phi2}), shape (3, sets, k), and the
    residual sums of squares, shape (sets, k)."""
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3 or counts.shape[1] != phi.size:
        raise ValueError("counts must have shape (n_phi, n_patterns)")
    turns = np.sort(np.round(phi / (2.0 * np.pi) % 1.0, 9) % 1.0)
    distinct = np.count_nonzero(turns[1:] != turns[:-1]) + (turns.size > 0)
    if distinct < 5:
        # five coefficients per pattern; fewer angles leave the fit rank-deficient
        raise ValueError(f"need at least five distinct phases modulo 2 pi to fit the "
                         f"fringe model, got {distinct}")
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("every phase sample needs a positive total count")
    y = np.moveaxis(counts / totals, 1, 0).reshape(phi.size, -1)  # one column per fit
    q, r = np.linalg.qr(np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi),
                                  np.cos(2.0 * phi), np.sin(2.0 * phi)], axis=-1))
    z = q.T @ y
    ssr = ((q @ z - y) ** 2).sum(axis=0)
    b = np.linalg.solve(r, z)  # b1 cos + b2 sin = Re((b1 - i b2) e^{i phi})
    harmonics = np.stack([b[0], b[1] - 1j * b[2], b[3] - 1j * b[4]])
    return harmonics.reshape((3,) + counts.shape[::2]), ssr.reshape(counts.shape[::2])


def fit_fringes(phi, counts) -> FringeSet:
    """Least-squares cosine-series fit to per-phase pattern fractions.

    Args:
        phi: sample phases, shape (n_phi,).
        counts: counts or fractions per pattern, shape (n_phi, n_patterns).
            Rows are normalized to fractions before fitting.

    Each pattern's fringe c0 + c1 cos(phi + phi1) + c2 cos(2 phi + phi2) is
    fitted as the linear combination of 1, cos phi, sin phi, cos 2 phi and
    sin 2 phi, so the two harmonics carry independent offsets.  The fitted
    curves are renormalized jointly, so they sum to one at every phase when
    evaluated as a distribution; ``raw`` gives them as fitted.
    """
    harmonics, ssr = _fit_fringe_columns(phi, np.expand_dims(counts, 0))
    return FringeSet(fits=[
        FringeFit(c0=float(h0.real), c1=float(abs(h1)), c2=float(abs(h2)),
                  phi1=float(np.angle(h1)), phi2=float(np.angle(h2)), residual=float(s))
        for (h0, h1, h2), s in zip(harmonics[:, 0].T, ssr[0])])


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
    by Brent's method.  All refined maxima are reported; the estimate is
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
    phi_c, nll = _brent_min(lambda p: -(_log_probs(family, p) @ counts), lo, hi, tol=1e-12)
    candidates = sorted(zip(phi_c.tolist(), (-nll).tolist()), key=lambda t: -t[1])
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
                          seed=0, search_halfwidth=np.pi / 4.0):
    """Empirical information of the ML estimator, I_ML = 1 / (N Var(phi_hat)).

    Every repetition draws one multinomial sample of ``sample_size``
    events at the true phase and estimates it back by likelihood search
    restricted to ``phi_true +- search_halfwidth``, refined up to one grid
    step beyond it (local estimation; keeps mirror-symmetric aliases of
    the fringe period out of the window).  ``edge_hits`` counts the
    repetitions whose scan maximum is the first or last grid point, whose
    estimates the window may have cut short.  The quoted standard error is
    the large-M normal-theory error of a variance estimate,
    Var * sqrt(2 / (M - 1)), propagated to the information.

    An array of true phases, against which ``seed`` and
    ``search_halfwidth`` broadcast, gives a tuple of results, each equal to
    its own scalar call.  Every repetition of every point shares one
    likelihood evaluation and one refinement: bisection of its scan
    maximum's bracket (a grid step either side) on the sign of the exact
    score, each lane stopping after its own point's step count.  So the
    family is evaluated as often as for the widest window alone.
    """
    if repetitions < 2 or sample_size < 1:
        raise ValueError("ML analysis needs repetitions >= 2 and sample_size >= 1")
    phis, halfwidths, seeds = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(phi_true, dtype=float), search_halfwidth, np.array(seed, dtype=object)))
    if not np.all(halfwidths > 0.0):
        raise ValueError("search_halfwidth must be positive")
    counts = np.concatenate([np.random.default_rng(s).multinomial(sample_size, p, size=repetitions)
                             for s, p in zip(seeds, family.probabilities(phis))])
    grids = [_likelihood_grid(phi - w, phi + w) for phi, w in zip(phis, halfwidths)]
    tables = np.split(_log_probs(family, np.concatenate(grids)), np.cumsum(list(map(len, grids))))
    peaks = [_grid_peak(t @ c.T) for t, c in zip(tables, np.split(counts, phis.size))]
    steps = np.repeat([g[1] - g[0] for g in grids], repetitions)
    centre = np.concatenate([g[k] for g, k in zip(grids, peaks)])
    lo, hi, bisections = centre - steps, centre + steps, np.ceil(np.log2(2.0 * steps / 1e-10))
    for i in range(int(bisections.max())):
        mid = (lo + hi) / 2.0
        p, dp = family.probabilities_and_derivatives(mid)
        # d/dphi of each repetition's log-likelihood, counts @ log max(p, floor)
        score = (counts * np.where(p > PROB_FLOOR, dp, 0.0) / np.maximum(p, PROB_FLOOR)).sum(1)
        up, live = score > 0.0, i < bisections
        lo, hi = np.where(live & up, mid, lo), np.where(live & ~up, mid, hi)
    results = []
    for phi, grid, peak, est in zip(phis, grids, peaks, np.split((lo + hi) / 2.0, phis.size)):
        variance = float(np.var(est, ddof=1))
        i_ml = 1.0 / (sample_size * variance)
        results.append(MLFisherResult(
            i_ml=i_ml, stderr=i_ml * math.sqrt(2.0 / (repetitions - 1)), variance=variance,
            mean_estimate=float(est.mean()), phi_true=float(phi), repetitions=repetitions,
            sample_size=sample_size, edge_hits=int(np.isin(peak, (0, grid.size - 1)).sum())))
    return results[0] if np.ndim(phi_true) == 0 else tuple(results)


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


def _percentiles(x, q):
    """np.percentile's linear rule along axis 0, by one sort: np.percentile
    imports numpy.ma on its first call."""
    x = np.sort(x, axis=0)
    pos = np.asarray(q) / 100.0 * (len(x) - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(x) - 1)
    return x[lo] + (x[hi] - x[lo]) * (pos - lo)[:, None]


def bootstrap_fisher_band(phi, counts, replicates=1000, seed=0,
                          eval_grid=None, noise="poisson") -> BootstrapBand:
    """Central 95% percentile band of I(phi) under count-level resampling.

    Each replicate perturbs the per-pattern counts (Poisson by default,
    ``noise='none'`` reproduces the central curve exactly and collapses
    the band), refits the fringes, and re-evaluates the information.
    Replicates come in blocks, drawn as one random stream (the same as one
    draw per replicate in turn); a block's fringes, with the central fit in
    the first block, are fitted by one linear solve and its curves, each
    replicate renormalized on its own, evaluated at once.  A row drawn all-zero, as
    Poisson can at tiny rates, takes the central counts and is counted in
    ``patched_rows``.
    """
    if noise not in ("poisson", "none"):
        raise ValueError("noise must be 'poisson' or 'none'")
    if replicates < 1:
        raise ValueError(f"bootstrap needs at least one replicate, got {replicates}")
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
        series = engine.PhaseSeries(_fit_fringe_columns(phi, sets)[0], renormalize=True)
        curves.append(fisher_curve(series, eval_grid)[0].T)
    curves = np.concatenate(curves)
    central, curves = curves[0], curves[1:]
    low, high = _percentiles(curves, _BAND_PERCENTILES)
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


def performance_curve(src, etas, d=4) -> list:
    """Normalized uncertainty against balanced transmission.

    For each eta the Fisher information of all patterns (both paths at the
    same transmission) is maximized over phase by :class:`OrbitInformation`
    at count 0, as information per event times the event probability.  The
    figure of merit is delta_phi * sqrt(eta * N_a) with N_a the mean photon
    number sent down the sensing path, directly comparable to a unit
    shot-noise line.  ``d=None`` uses number-resolving counters.
    """
    nbar = mean_sensing_photons(src)
    hl = heisenberg_limit(src)
    n_max = engine.choose_truncation(src)
    points = []
    for eta in etas:
        if not eta > 0.0:  # no photon reaches a counter, so no information
            raise ValueError(f"transmission must be positive, got {eta}")
        kernel = OrbitInformation(src, engine.detector_for_source(src, d, eta, eta), (0,), n_max)
        (phi_opt,), (info,) = kernel.maximize()
        fisher = info * kernel.p_event[0]
        if not fisher > 0.0:  # as at tau 0: no phase can be read, at any precision
            raise ValueError(f"no phase information at tau={src.tau} and transmission {eta}")
        delta, scale = 1.0 / math.sqrt(fisher), math.sqrt(eta * nbar)  # hl is finite at tau > 0
        points.append(PerformancePoint(
            eta=float(eta), fisher_max=float(fisher), phi_opt=phi_opt, delta_phi=delta,
            normalized_uncertainty=delta * scale, heisenberg_normalized=hl * scale))
    return points


def mean_sensing_photons(src: SourceParams) -> float:
    """Unconditional mean photon number in one path, 2 sinh(tau)^2."""
    return engine.mean_photon_numbers(src).per_path
