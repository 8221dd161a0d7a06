"""High-precision references shared across the test modules.

Everything here is recomputed from scratch, on purpose: mpmath for the
classical zeta and theta functions, exact integer binomials for sphere
multiplicities, a rational expansion of the multiplicity in the shifted
variable u = k + (n-1)/2 that turns both sphere zetas into short
combinations of Hurwitz values at 40-digit working precision, and exact
Rodrigues-formula Legendre polynomials.  None of it shares a code path
with the library, except the former forms of two library loops, of the
one-call certified sum and the zeta driver on it, and of the positivity
check at the end, kept as references for their replacements.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 40


def ref_riemann(s: float) -> float:
    with mp.workdps(DPS):
        return float(mp.zeta(s))


def ref_hurwitz(s: float, a: float) -> float:
    with mp.workdps(DPS):
        return float(mp.zeta(s, a))


def ref_circle_heat(t: float, gamma: float) -> float:
    """Heat kernel on S^1 via the Jacobi theta function.

    (1/2pi) theta_3(gamma/2, e^{-t}) = (1/2pi)(1 + 2 sum e^{-k^2 t} cos k gamma).
    """
    with mp.workdps(DPS):
        q = mp.e ** (-mp.mpf(t))
        return float(mp.jtheta(3, mp.mpf(gamma) / 2, q) / (2 * mp.pi))


def ref_circle_zeta_kernel(s: float, cos_gamma: float) -> float:
    """Zeta kernel on S^1 as its Fourier cosine series, for s > 1/2.

    (1/2pi) sum_{k>=1} 2 k^(-2s) cos k gamma, summed by mpmath ``nsum``.
    """
    with mp.workdps(DPS):
        gamma = mp.acos(mp.mpf(cos_gamma))
        total = mp.nsum(lambda k: 2 * k ** (-2 * mp.mpf(s)) * mp.cos(k * gamma), [1, mp.inf])
        return float(total / (2 * mp.pi))


def ref_mult(k: int, n: int) -> int:
    """Multiplicity of the k-th sphere eigenvalue as a sum of two binomials.

    C(k+n-1, n-1) + C(k+n-2, n-1); a third formula, distinct from both the
    binomial-difference and the factorial-quotient routes in the library.
    """
    first = math.comb(k + n - 1, n - 1)
    second = math.comb(k + n - 2, n - 1) if k + n - 2 >= 0 else 0
    return first + second


def mult_u_poly(n: int) -> list[Fraction]:
    """Exact coefficients of d_k as a polynomial in u = k + (n-1)/2.

    d_k = 2u / (n-1)! * prod_{i=1}^{n-2} (u + i - rho) for n >= 2; the
    circle multiplicity is the constant 2.  Returned low degree first.
    Valid for k >= 1 (and for k = 0 except when n = 1).
    """
    if n == 1:
        return [Fraction(2)]
    rho = Fraction(n - 1, 2)
    poly = [Fraction(0), Fraction(2)]
    for i in range(1, n - 1):
        shift = Fraction(i) - rho
        out = [Fraction(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            out[j] += c * shift
            out[j + 1] += c
        poly = out
    fact = math.factorial(n - 1)
    return [c / fact for c in poly]


def _reg_zeta_mp(s, n: int):
    # sum_{k>=1} d_k (k+rho)^(-2s) termwise through the u-polynomial:
    # each power of u contributes a Hurwitz zeta starting at u_1 = 1 + rho.
    rho = mp.mpf(n - 1) / 2
    total = mp.mpf(0)
    for j, c in enumerate(mult_u_poly(n)):
        if c == 0:
            continue
        cj = mp.mpf(c.numerator) / c.denominator
        total += cj * mp.zeta(2 * s - j, 1 + rho)
    return total


def ref_regularized_zeta(s: float, n: int) -> float:
    """sum_{k>=1} d_k (k + (n-1)/2)^(-2s) to 40 digits, for s > n/2."""
    with mp.workdps(DPS):
        return float(_reg_zeta_mp(mp.mpf(s), n))


def ref_spectral_zeta(s: float, n: int, jmax: int = 160) -> float:
    """sum_{k>=1} d_k [k(k+n-1)]^(-s) to high precision, for s > n/2.

    Expands lambda^(-s) = sum_j C(s+j-1, j) c^j mu^(-s-j) with c = rho^2,
    so every term is again a shifted sum; the ratio c/mu_1 = (rho/(1+rho))^2
    is at most 9/25 for n <= 4 but tends to 1 as n grows.  Stops when a term
    drops below 10^-DPS of the running total (an absolute threshold would
    stop at once on values as small as the n = 40 ones); raises
    ArithmeticError if that has not happened by j = jmax, rather than
    return an unconverged partial sum.
    """
    if n == 1:
        return ref_regularized_zeta(s, 1)
    with mp.workdps(DPS):
        sv = mp.mpf(s)
        c = (mp.mpf(n - 1) / 2) ** 2
        total = mp.mpf(0)
        coef = mp.mpf(1)
        for j in range(jmax + 1):
            if j > 0:
                coef *= (sv + j - 1) / j
            term = coef * c**j * _reg_zeta_mp(sv + j, n)
            total += term
            if abs(term) < mp.mpf(10) ** (-DPS) * abs(total):
                return float(total)
        raise ArithmeticError(
            f"j-expansion of the (s, n) = ({s}, {n}) zeta not converged by "
            f"jmax={jmax}: last term {float(term):.1e}"
        )


def _legendre_coeffs(m: int) -> list[Fraction]:
    # P_m = (1/(2^m m!)) d^m/dx^m (x^2-1)^m, expanded with exact rational
    # coefficients, low degree first
    # (x^2 - 1)^m expanded: coefficient of x^(2j) is C(m, j) (-1)^(m-j)
    deg = 2 * m
    poly = [0] * (deg + 1)
    for j in range(m + 1):
        poly[2 * j] = math.comb(m, j) * (-1) ** (m - j)
    # differentiate m times
    for _ in range(m):
        poly = [i * poly[i] for i in range(1, len(poly))]
        if not poly:
            poly = [0]
    scale = Fraction(1, 2**m * math.factorial(m))
    return [Fraction(c) * scale for c in poly]


def legendre_rodrigues_oracle(m: int, x: float) -> float:
    """Legendre P_m(x) from the Rodrigues formula, exact expansion.

    Deliberately slow and independent of the library's Gegenbauer
    recurrence; supported only for m <= 8 where the integer arithmetic is
    immediate.
    """
    if not (0 <= m <= 8):
        raise ValueError("rodrigues oracle supports degrees 0..8 only")
    coeffs = _legendre_coeffs(m)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def legendre_ode_residual(m: int, x: float) -> float:
    """Residual (1-x^2) P'' - 2x P' + m(m+1) P at x, from the exact expansion."""
    if not (0 <= m <= 8):
        raise ValueError("rodrigues oracle supports degrees 0..8 only")
    coeffs = _legendre_coeffs(m)

    def horner(cs):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + float(c)
        return acc

    d1 = [i * c for i, c in enumerate(coeffs)][1:] or [0]
    d2 = [i * c for i, c in enumerate(d1)][1:] or [0]
    p, dp, ddp = horner(coeffs), horner(d1), horner(d2)
    return (1.0 - x * x) * ddp - 2.0 * x * dp + m * (m + 1) * p


def tail_bracket(p: float, a: float, k_next: int) -> tuple[float, float]:
    """Rigorous [lo, hi] enclosure of sum_{k >= k_next} (k+a)^(-p), p > 1.

    Integral comparison for a decreasing positive summand; used to keep
    brute-force partial sums honest without trusting anybody's estimate.
    """
    lo = (k_next + a) ** (1.0 - p) / (p - 1.0)
    hi = (k_next - 1 + a) ** (1.0 - p) / (p - 1.0)
    return lo, hi


def chunked_recurrence(n: int, t: float, kmax: int) -> list[float]:
    """[r_0, ..., r_kmax] of the normalized Gegenbauer recurrence for n >= 2,
    by the library's former loop: the factors 2j + n - 3, j - 1 and j + n - 2
    come from numpy per 1024-step chunk, and (2j + n - 3) t is rounded first."""
    r, prev, cur = [1.0, t], 1.0, t
    for lo in range(2, kmax + 1, 1024):
        j = np.arange(lo, min(lo + 1024, kmax + 1))
        for a, b, c in zip(((2 * j + n - 3) * t).tolist(), (j - 1.0).tolist(),
                           (j + n - 2.0).tolist()):
            prev, cur = cur, (a * cur - b * prev) / c
            r.append(cur)
    return r[:kmax + 1]


def per_exponent_power_sums(ps, a: float, policy) -> list:
    """The library's former ``shifted_power_sums``: every exponent walks
    ``smallest_k`` through a ``power_tail`` partial, and every row of a rung's
    np.power block is certified by its own ``_certify`` call.  Returns the
    EvalResults, or raises what the first failing exponent raises."""
    from functools import partial

    from spherezeta.truncation import (
        _BLOCK_ENTRIES,
        AccuracyError,
        TruncationError,
        _certify,
        power_tail,
        smallest_k,
    )

    ps = [float(p) for p in ps]
    if any(p <= 1.0 for p in ps):
        raise ValueError("exponent must exceed 1 for convergence")
    if a <= 0.0:
        raise ValueError("shift must be positive")
    tol, max_k = policy.tol, policy.max_k
    rungs: dict[int, list[int]] = {}
    out: list = [None] * len(ps)
    for i, p in enumerate(ps):
        try:
            out[i] = smallest_k(partial(power_tail, p, a), 0.5 * tol, 16, max_k)
        except TruncationError as exc:
            out[i] = exc
        else:
            rungs.setdefault(out[i][0], []).append(i)
    for k, rows in rungs.items():
        base = np.arange(k, dtype=float)[None, :] + a
        step = max(1, _BLOCK_ENTRIES // k)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            block = np.power(base, -np.array([ps[i] for i in chunk])[:, None])
            for i, head_sum, abs_sum in zip(chunk, np.sum(block, axis=1).tolist(),
                                            np.sum(np.abs(block), axis=1).tolist()):
                _, est, bound = out[i]
                try:
                    out[i] = _certify(head_sum, abs_sum, est, bound, k, tol, None)
                except AccuracyError as exc:
                    out[i] = exc
    for r in out:
        if isinstance(r, Exception):
            raise r
    return out


def certified_sum(terms, tail, policy, k_min: int, offset: float | None = None):
    """The library's former one-call certified sum: offset + sum(terms(K)) +
    the tail estimate, where K is the first ``smallest_k`` rung whose
    tail(K) = (estimate, bound) has bound within tol/2, certified by
    ``_certify`` over the sum and the absolute sum of the K terms."""
    from spherezeta.truncation import _certify, smallest_k

    k, est, bound = smallest_k(tail, 0.5 * policy.tol, k_min, policy.max_k)
    head = terms(k)
    return _certify(float(np.sum(head)), float(np.sum(np.abs(head))), est, bound, k,
                    policy.tol, offset)


def summed_series(s: float, n: int, policy, tail_fn, weight):
    """The library's former driver of both sphere zetas: the terms
    d_k weight(lambda_k, k + rho), k = 1..K, and tail_fn(n, s, K) through
    ``certified_sum`` from K = 16, after ``zeta._require_exponent``."""
    from spherezeta.spectrum import _spectral_arrays
    from spherezeta.zeta import _require_exponent

    _require_exponent(s, n)

    def terms(k):
        lam, u, d = _spectral_arrays(n, k)
        return d * weight(lam, u)

    return certified_sum(terms, lambda k: tail_fn(n, s, k), policy, 16)


def formed_semigroup_positivity(op, t: float, psi, tol: float = 1e-12):
    """The library's former ``positivity_domination_check``: e^{-tL} formed as
    the m x m matrix (u e^{-tw}) u^T from L's kept eigh, re-symmetrized as
    ``semigroup`` does, then applied to [Re psi | Im psi | |psi|] by one real
    product.  Returns the EntrywiseReport."""
    from spherezeta import kato

    v = kato._states(op, psi, tol, "domination")
    w, u = op.eigh
    e = (u * np.exp(-t * w)) @ u.T
    ev, e_abs = kato._apply(0.5 * (e + e.T), v, np.abs(v))
    return kato._entrywise(e_abs, np.abs(ev), tol)
