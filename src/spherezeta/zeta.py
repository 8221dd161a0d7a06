"""Spectral zeta functions of the unit n-sphere.

Two distinct objects, never conflated:

  spectral_zeta     zeta_{S^n}(s)  = sum_{k>=1} d_k(n) lambda_k^(-s)
  regularized_zeta  Z_{S^n}(s)     = sum_{k>=1} d_k(n) (k + rho_n)^(-2s)

with rho_n = (n-1)/2, both for s > n/2.  The additive shift rho_n^2 turns
lambda_k into the exact square (k + rho_n)^2, so Z is a multiplicity-
weighted Hurwitz-type sum.  ``hurwitz_style_Z`` is the multiplicity-free
cousin sum_{k>=0} (k + c)^(-2s) = zeta_H(2s, c).

Each is one ``specfun._zonal_sum`` from K = 16 on the diagonal, where every
Gegenbauer ratio is 1, at volume 1 (spectral_zeta = V_n zeta_s(x, x)), in
the kernels' store of rungs.  Tails are certified by decomposing d_k exactly
as a polynomial in u = k + rho_n (see ``spectrum.mult_poly_coeffs``) and
closing each monomial sum with the midpoint-integral correction, which is
added to the value; spectral_zeta additionally expands
(u^2 - rho^2)^(-s) = u^(-2s) sum_j C(s+j-1, j) (rho/u)^(2j), whose
truncation error is controlled by a geometric-ratio bound.

``closed_form_Z`` reduces Z to Riemann zeta values for n <= 4, one term
per coefficient of the multiplicity polynomial, all rows of one
``truncation._power_rows`` call; a bound over tol raises.  Note for n = 3: the
reduction often quoted as zeta_R(2s-1) - 1 does not match the defining
series; the series is
sum_{k>=1} (k+1)^2 (k+1)^(-2s) = zeta_R(2s-2) - 1, and that is what is
implemented (the grid tests against the direct summation pin this down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .majorize import partial_sum_domination
from .specfun import _zonal_sum
from .spectrum import (
    _require_int,
    _spectral_arrays,
    mult_poly_coeffs,
    sphere_spec,
)
from .truncation import (
    _TIGHT,
    DEFAULT_POLICY,
    AccuracyError,
    EvalResult,
    TruncationPolicy,
    _power_rows,
    power_tail,
    shifted_power_sum,
)

_JMAX = 4  # binomial expansion depth for the unshifted tail


@dataclass(frozen=True)
class ZetaPair:
    """Side-by-side evaluation of the shifted and unshifted sphere zetas."""

    s: float
    n: int
    zeta_laplace: EvalResult   # sum d_k lambda_k^(-s)
    zeta_shifted: EvalResult   # sum d_k (k+rho)^(-2s)
    dominated: bool
    first_violation: int | None


def _poly_tail(n: int, k_last: int, powers) -> tuple[float, float, float]:
    """Tails over k > k_last of sum_(w, p) w d_k (k+rho)^(-p), closed monomial
    by monomial of d_k = sum_m a_m u^m, u = k + rho: the estimate, its error
    bound, and sum w |a_m| (estimate + bound), a bound on the sum itself."""
    rho = (n - 1) / 2.0
    coeffs = mult_poly_coeffs(n)
    est = bound = size = 0.0
    for w, p in powers:
        for m, a_m in enumerate(coeffs):
            if a_m == 0.0:
                continue
            e, b = power_tail(p - m, rho, k_last + 1)
            est += w * a_m * e
            w_abs = w * abs(a_m)
            bound += w_abs * b
            size += w_abs * (e + b)
    return est, bound, size


def _regularized_tail(n: int, s: float, k_last: int) -> tuple[float, float]:
    """Estimate and bound for sum_{k > k_last} d_k (k+rho)^(-2s)."""
    return _poly_tail(n, k_last, [(1.0, 2.0 * s)])[:2]


def _spectral_tail(n: int, s: float, k_last: int) -> tuple[float, float]:
    """Estimate and bound for sum_{k > k_last} d_k lambda_k^(-s)."""
    rho = (n - 1) / 2.0
    powers = []
    g = 1.0
    for j in range(_JMAX + 1):
        if j > 0:
            g *= (s + j - 1.0) / j
        w = g * rho ** (2 * j)
        if w == 0.0:
            break
        if w == math.inf:
            # times an underflowed monomial tail it would give nan; it needs
            # s rho^2 > 1e77, where the ratio below is >= 1 for every K < 1e38
            return 0.0, math.inf
        powers.append((w, 2.0 * s + 2 * j))
    est, bound, _ = _poly_tail(n, k_last, powers)
    if rho > 0.0:
        # remainder of the j-expansion: next term over a geometric ratio
        z = k_last + 0.5 + rho
        ratio = rho * rho * (s + _JMAX + 1.0) / ((_JMAX + 2.0) * z * z)
        if ratio >= 1.0:
            return est, math.inf  # not contracting yet: the K ladder moves on
        w_next = g * (s + _JMAX) / (_JMAX + 1.0) * rho ** (2 * (_JMAX + 1))
        rem = _poly_tail(n, k_last, [(1.0, 2.0 * s + 2 * (_JMAX + 1))])[2]
        bound += w_next * rem / (1.0 - ratio)
    return est, bound


def _require_exponent(s: float, n: int) -> None:
    """Refuse, before any summing, an n that is not a sphere dimension of at
    most 342 (``sphere_spec``) and an s that is not a number above n/2 with
    2s finite."""
    sphere_spec(n)
    if not (s > n / 2.0):
        raise ValueError("need s > n/2 for convergence")
    if not math.isfinite(2.0 * s):
        raise ValueError("s must be finite" if s == math.inf else
                         f"the exponent 2s overflows a double at s = {s!r}")


def _zeta_decay(lam, u, s: float):
    return np.power(lam, -s)


def _regularized_decay(lam, u, s: float):
    return np.power(u, -2.0 * s)


def spectral_zeta(s: float, n: int,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> EvalResult:
    """zeta_{S^n}(s) = sum_{k>=1} d_k(n) [k(k+n-1)]^(-s), s > n/2."""
    _require_exponent(s, n)
    return _zonal_sum(n, 1.0, policy, _zeta_decay, _spectral_tail, s, 16, 1.0)


def regularized_zeta(s: float, n: int,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> EvalResult:
    """Z_{S^n}(s) = sum_{k>=1} d_k(n) (k + (n-1)/2)^(-2s), s > n/2."""
    _require_exponent(s, n)
    return _zonal_sum(n, 1.0, policy, _regularized_decay, _regularized_tail, s, 16, 1.0)


def hurwitz_style_Z(s: float, c: float,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> EvalResult:
    """Multiplicity-free shifted sum: sum_{k>=0} (k+c)^(-2s) = zeta_H(2s, c).

    Defined for c > 0 and 2s > 1.  At c = 1 this is zeta_R(2s); it carries
    no sphere multiplicities and must not be compared termwise with
    regularized_zeta.
    """
    if not (c > 0.0):
        raise ValueError("shift c must be positive")
    if not (2.0 * s > 1.0):
        raise ValueError("need 2s > 1 for convergence")
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    return shifted_power_sum(2.0 * s, c, policy)


def _closed_form_terms(s: float, n: int, tol: float) -> EvalResult:
    """Certified n <= 4 reduction; terms_used counts the zeta terms summed.

    Z = sum_m a_m sum_{k>=1} u^(-p), p = 2s - m, over d_k = sum_m a_m u^m,
    u = k + rho (``mult_poly_coeffs``); the inner sum is zeta_R(p) less its
    first rho terms, or (2^p - 1) zeta_R(p) less (j + 1/2)^(-p), j < rho,
    for half-integer rho.  Raises AccuracyError when the bound exceeds tol."""
    _require_exponent(s, n)
    if n not in (1, 2, 3, 4):
        # beyond n = 4 the a_m alternate in sign and cancel
        raise ValueError("closed forms implemented for n in {1, 2, 3, 4}")
    rho = (n - 1) / 2.0
    value, bound, terms = 0.0, 0.0, 0
    monomials = [(m, a_m) for m, a_m in enumerate(mult_poly_coeffs(n)) if a_m != 0.0]
    rows = _power_rows([2.0 * s - m for m, _ in monomials], 1.0, _TIGHT)
    for (m, a_m), z, z_bound, z_terms in zip(monomials, *rows):
        p = 2.0 * s - m
        scale = math.pow(2.0, p) - 1.0 if n % 2 == 0 else 1.0
        first = sum(math.pow(rho - i, -p) for i in range(math.ceil(rho)))
        value += a_m * (scale * z - first)
        bound += abs(a_m) * scale * z_bound
        terms += z_terms
    if not bound <= tol:
        raise AccuracyError(f"certified bound {bound:.3e} exceeds tol {tol:.3e}")
    return EvalResult(value, terms, bound)


def closed_form_Z(s: float, n: int) -> float:
    """Z_{S^n}(s) from Riemann zeta values, n <= 4, certified to 1e-10 or refused."""
    return _closed_form_terms(s, n, DEFAULT_POLICY.tol).value


def compare_zeta_pair(s: float, n: int, kmax: int,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> ZetaPair:
    """Evaluate both zetas and check the shifted one is dominated.

    Since (k+rho)^2 = lambda_k + rho^2 >= lambda_k, each shifted term is at
    most the matching unshifted term; the report checks all partial sums of
    the first kmax terms (natural order) and the certified full sums.  For
    n = 1 the two series coincide exactly.  kmax may not exceed the term
    budget policy.max_k.
    """
    kmax = _require_int(kmax, 1, "kmax must be an integer >= 1")
    if kmax > policy.max_k:
        raise ValueError(f"kmax={kmax} exceeds the term budget max_k={policy.max_k}")
    zl = spectral_zeta(s, n, policy)
    zs = regularized_zeta(s, n, policy)
    lam, u, d = _spectral_arrays(n, kmax)
    shifted_terms = d * np.power(u, -2.0 * s)
    laplace_terms = d * np.power(lam, -s)
    dom = partial_sum_domination(shifted_terms, laplace_terms)
    full_ok = zs.value <= zl.value + zl.tail_bound + zs.tail_bound
    return ZetaPair(
        s=s,
        n=n,
        zeta_laplace=zl,
        zeta_shifted=zs,
        dominated=bool(dom.ok and full_ok),
        first_violation=dom.first_violation,
    )
