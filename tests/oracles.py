"""Independent oracles for the test suite.

Every function here reaches the target quantity by a different route than
the library: exact rational enumeration, closed-form special functions,
matrix exponentials, or brute-force propagation of the truncated state.
The tests freeze expected values computed by these oracles and compare the
library against them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from spdcmet.fock import SourceParams, pdc_term_amplitude


# ---------------------------------------------------------------------------
# combinatorics


def set_partitions(items):
    """All partitions of a list into non-empty blocks (recursive)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def stirling2_by_enumeration(c: int, r: int) -> int:
    """S(c, r) by listing every set partition of c labeled items."""
    if c == 0:
        return 1 if r == 0 else 0
    return sum(1 for part in set_partitions(list(range(c))) if len(part) == r)


def stirling2_closed_form(c: int, r: int) -> Fraction:
    """S(c, r) = (1/r!) sum_i (-1)^i C(r, i) (r - i)^c, exact."""
    if r == 0:
        return Fraction(1 if c == 0 else 0)
    total = sum((-1) ** i * math.comb(r, i) * (r - i) ** c for i in range(r + 1))
    return Fraction(total, math.factorial(r))


def click_weights_by_enumeration(d: int, c: int) -> dict:
    """Exact click-count weights by walking every photon-to-detector map.

    Throws c labeled photons into d labeled detectors in all d^c ways and
    tallies how many distinct detectors fire.  Returns {r: Fraction}.
    """
    counts = {}
    for assignment in itertools.product(range(d), repeat=c):
        r = len(set(assignment))
        counts[r] = counts.get(r, 0) + 1
    total = d**c
    return {r: Fraction(n, total) for r, n in sorted(counts.items())}


# ---------------------------------------------------------------------------
# special functions


def wigner_d_squared(two_j: int, two_mp: int, two_m: int, beta: float) -> float:
    """Squared Wigner small-d element, by the factorial-sum closed form.

    Arguments are doubled so half-integer labels stay exact integers.  The
    square is convention-free, which is all the cross-check needs.
    """
    jm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jmp = (two_j + two_mp) // 2
    jmmp = (two_j - two_mp) // 2
    if min(jm, jmm, jmp, jmmp) < 0:
        return 0.0
    pref = math.sqrt(
        math.factorial(jm) * math.factorial(jmm)
        * math.factorial(jmp) * math.factorial(jmmp)
    )
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    mpm = (two_mp - two_m) // 2  # m' - m, always an integer
    total = 0.0
    for k in range(max(0, -mpm), min(jm, jmmp) + 1):
        den = (
            math.factorial(jm - k) * math.factorial(k)
            * math.factorial(mpm + k) * math.factorial(jmmp - k)
        )
        e_c = two_j - 2 * k - mpm
        e_s = mpm + 2 * k
        total += ((-1) ** (mpm + k)) * (c**e_c) * (s**e_s) / den
    val = pref * total
    return val * val


def fock_rotation_matrix(angle: float, n_cut: int) -> np.ndarray:
    """Two-mode rotation as an explicit matrix exponential on Fock space.

    The target single-photon map is h -> cos(a/2) h + sin(a/2) v,
    v -> sin(a/2) h - cos(a/2) v.  With K = h_dag v - v_dag h one has
    exp(bK) h_dag exp(-bK) = cos(b) h_dag - sin(b) v_dag, so the map is
    exp(-(a/2) K) composed with the v-mode parity flip.  K conserves total
    photon number, so blocks with total <= n_cut are exact despite the
    truncation.  Basis index: (p, q) -> p * (n_cut + 1) + q.
    """
    dim = n_cut + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)  # annihilation
    adag = a.T
    eye = np.eye(dim)
    K = np.kron(adag, a) - np.kron(a, adag)  # h_dag v - v_dag h
    U_rot = expm(-(angle / 2.0) * K)
    parity_v = np.kron(eye, np.diag([(-1.0) ** q for q in range(dim)]))
    return U_rot @ parity_v


def rotation_amplitude_by_expm(out_pair, in_pair, angle: float) -> float:
    n_cut = max(sum(out_pair), sum(in_pair))
    U = fock_rotation_matrix(angle, n_cut)
    dim = n_cut + 1
    i_out = out_pair[0] * dim + out_pair[1]
    i_in = in_pair[0] * dim + in_pair[1]
    return float(U[i_out, i_in])


# ---------------------------------------------------------------------------
# brute-force state propagation


def source_state(src: SourceParams, n_max: int) -> dict:
    """Truncated source amplitudes keyed by (k_ah, k_av, k_bh, k_bv)."""
    state = {}
    for n in range(n_max + 1):
        for m in range(n + 1):
            state[(n - m, m, m, n - m)] = pdc_term_amplitude(n, m, src)
    return state


def _rotate_mode_pair(state: dict, angle: float, axes) -> dict:
    """Expand the creation-operator polynomial of a two-mode rotation.

    Each ket's pair (p, q) on the given axes maps through
    (c x + s y)^p (s x - c y)^q with c = cos(angle/2), s = sin(angle/2);
    the coefficient of x^p' y^q' carries sqrt(p'! q'! / (p! q!)).
    """
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    i, j = axes
    out: dict = {}
    for ket, amp in state.items():
        p, q = ket[i], ket[j]
        norm_in = math.sqrt(math.factorial(p) * math.factorial(q))
        coeffs = {}
        for k in range(p + 1):
            base_k = math.comb(p, k) * c**k * s ** (p - k)
            for l in range(q + 1):
                term = base_k * math.comb(q, l) * s**l * (-c) ** (q - l)
                pp = k + l
                coeffs[pp] = coeffs.get(pp, 0.0) + term
        for pp, coef in coeffs.items():
            qq = p + q - pp
            norm_out = math.sqrt(math.factorial(pp) * math.factorial(qq))
            new = list(ket)
            new[i], new[j] = pp, qq
            key = tuple(new)
            out[key] = out.get(key, 0.0) + amp * coef * norm_out / norm_in
    return out


def propagate_state(src: SourceParams, phi: float, theta: float, n_max: int) -> dict:
    state = source_state(src, n_max)
    state = _rotate_mode_pair(state, phi, (0, 1))
    state = _rotate_mode_pair(state, theta, (2, 3))
    return state


def occupation_probabilities(src, phi, theta, n_max) -> np.ndarray:
    """4-index tensor of photon-number probabilities after both rotations."""
    P = np.zeros((n_max + 1,) * 4)
    for ket, amp in propagate_state(src, phi, theta, n_max).items():
        P[ket] += amp * amp
    return P


def thinning_matrix(n_max: int, eta: float) -> np.ndarray:
    T = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max + 1):
        for j in range(k + 1):
            T[j, k] = math.comb(k, j) * eta**j * (1.0 - eta) ** (k - j)
    return T


def apply_mode_loss(P: np.ndarray, eta_a: float, eta_b: float) -> np.ndarray:
    n_max = P.shape[0] - 1
    Ta = thinning_matrix(n_max, eta_a)
    Tb = thinning_matrix(n_max, eta_b)
    for axis, T in ((0, Ta), (1, Ta), (2, Tb), (3, Tb)):
        P = np.tensordot(T, P, axes=(1, axis))
        P = np.moveaxis(P, 0, axis)
    return P


def click_table(d, n_max: int) -> np.ndarray:
    """Oracle weight table; d=None means number-resolving counters."""
    if d is None:
        return np.eye(n_max + 1)
    W = np.zeros((d + 1, n_max + 1))
    for c in range(n_max + 1):
        for r, frac in click_weights_by_enumeration(d, c).items():
            W[r, c] = float(frac)
    return W


def oracle_click_tensor(src, phi, theta, eta_a, eta_b, d, n_max) -> np.ndarray:
    """Click-pattern probabilities by the long way around.

    Propagate the truncated state through explicit mode rotations, thin
    the occupation tensor mode by mode, then fold in click weights built
    by exhaustive assignment counting.
    """
    P = occupation_probabilities(src, phi, theta, n_max)
    P = apply_mode_loss(P, eta_a, eta_b)
    W = click_table(d, n_max)
    return np.einsum("ak,vl,hm,wn,klmn->avhw", W, W, W, W, P)


def oracle_click_tensor_loss_first(src, phi, theta, eta_a, eta_b, d, n_max) -> np.ndarray:
    """Same pipeline with loss applied to the source before the rotations.

    Loss on a pure state branches into one (sub-normalized) pure state per
    per-mode loss count; each branch rotates independently and the click
    statistics add.  Agreement with the loss-last tensor demonstrates that
    balanced-per-path loss commutes with the rotations.
    """
    branches: dict = {}
    for ket, amp in source_state(src, n_max).items():
        for losses in itertools.product(*(range(k + 1) for k in ket)):
            w = amp
            new = []
            for k, l, eta in zip(ket, losses, (eta_a, eta_a, eta_b, eta_b)):
                w *= math.sqrt(math.comb(k, l) * eta ** (k - l) * (1.0 - eta) ** l)
                new.append(k - l)
            key = tuple(losses)
            if w != 0.0:
                branch = branches.setdefault(key, {})
                branch[tuple(new)] = branch.get(tuple(new), 0.0) + w
    W = click_table(d, n_max)
    out = np.zeros((W.shape[0],) * 4)
    for branch in branches.values():
        branch = _rotate_mode_pair(branch, phi, (0, 1))
        branch = _rotate_mode_pair(branch, theta, (2, 3))
        P = np.zeros((n_max + 1,) * 4)
        for ket, amp in branch.items():
            P[ket] += amp * amp
        out += np.einsum("ak,vl,hm,wn,klmn->avhw", W, W, W, W, P)
    return out


# ---------------------------------------------------------------------------
# phase search


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def batched_brent_min(f, a, b, tol):
    """Brent's minimizer (1973, ch. 5) with every lane's state held in numpy
    arrays and each branch taken by masks: one ``f`` call per step, a finished
    lane evaluated at its minimum.  The same float64 operations as the scalar
    steps, so every lane's iterates are the same bits."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = np.zeros_like(x)
    for _ in range(200):
        m = (a + b) / 2.0
        tol1 = tol + _SQRT_EPS * np.abs(x)
        live = np.abs(x - m) > 2.0 * tol1 - (b - a) / 2.0
        if not np.any(live):
            break
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = np.where(q > 0.0, -p, p), np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        golden = np.where(x >= m, a - x, b - x)
        step = np.where(parabolic, p / np.where(parabolic, q, 1.0), _GOLDEN * golden)
        near_end = parabolic & ((x + step - a < 2.0 * tol1) | (b - x - step < 2.0 * tol1))
        e = np.where(parabolic, d, golden)
        d = np.where(near_end, np.copysign(tol1, m - x), step)
        u = np.where(live, x + np.where(np.abs(d) >= tol1, d, np.copysign(tol1, d)), x)
        fu = f(u)
        better = live & (fu <= fx)
        worse = live ^ better
        a = np.where(live & (better == (u >= x)), np.where(better, x, u), a)
        b = np.where(live & (better != (u >= x)), np.where(better, x, u), b)
        to_w = worse & ((fu <= fw) | (w == x))
        to_v = worse & ~to_w & ((fu <= fv) | (v == x) | (v == w))
        v, fv = (np.where(better | to_w, w, np.where(to_v, u, v)),
                 np.where(better | to_w, fw, np.where(to_v, fu, fv)))
        w, fw = (np.where(better, x, np.where(to_w, u, w)),
                 np.where(better, fx, np.where(to_w, fu, fw)))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    return x[()], np.asarray(fx)[()]
