"""Laplace-Beltrami spectrum of the unit n-sphere.

Eigenvalues lambda_k = k(k + n - 1) with multiplicities

    d_k(n) = (2k + n - 1) (k + n - 2)! / (k! (n-1)!)
           = C(k + n, n) - C(k + n - 2, n),

both computed in exact integer arithmetic.  The additive shift
c_n = ((n-1)/2)^2 completes the square: lambda_k + c_n = (k + (n-1)/2)^2,
exactly, which is what makes the shifted zeta functions collapse to
Hurwitz-type sums.

The exact-integer functions (``eigenvalue``, ``multiplicity``,
``spectrum_slice``) take any n >= 1; the zetas, kernels and heat trace take
n through ``sphere_spec``, which refuses n > 342 (the volume overflows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .truncation import _require_int


@dataclass(frozen=True)
class SphereSpec:
    """Dimension-dependent constants of the unit n-sphere."""

    n: int
    rho: float        # (n - 1) / 2
    shift: float      # rho^2, the square-completing constant
    volume: float     # 2 pi^((n+1)/2) / Gamma((n+1)/2)


class SpectrumEntry(NamedTuple):
    k: int
    lam: float        # k (k + n - 1)
    mu: float         # lam + shift = (k + rho)^2
    d: int            # multiplicity, exact


# Gamma((n + 1)/2) in the volume overflows a double from n = 343 on
_MAX_SPEC_N = 342


def _require_dimension(n) -> int:
    return _require_int(n, 1, "sphere dimension n must be a positive integer")


# only n = 1.._MAX_SPEC_N pass the checks (a raise is not cached), so the
# cache holds at most that many entries
@lru_cache(maxsize=None)
def sphere_spec(n: int) -> SphereSpec:
    n = _require_dimension(n)
    if n > _MAX_SPEC_N:
        raise ValueError(f"sphere dimension n = {n} exceeds {_MAX_SPEC_N}: "
                         "Gamma((n+1)/2) in the volume overflows a double")
    rho = (n - 1) / 2.0
    vol = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return SphereSpec(n=n, rho=rho, shift=rho * rho, volume=vol)


def eigenvalue(k: int, n: int) -> int:
    n = _require_dimension(n)
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    return k * (k + n - 1)


def shifted_eigenvalue(k: int, n: int) -> float:
    """(k + (n-1)/2)^2, exact in binary floating point for moderate k."""
    n = _require_dimension(n)
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    # (2k + n - 1)^2 is an exact int; dividing by 4 is exact in binary.
    return (2 * k + n - 1) ** 2 / 4.0


def multiplicity(k: int, n: int) -> int:
    """Multiplicity of lambda_k on S^n, via the exact binomial difference."""
    n = _require_dimension(n)
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    return math.comb(k + n, n) - (math.comb(k + n - 2, n) if k >= 2 else 0)


def multiplicity_product_form(k: int, n: int) -> int:
    """Same multiplicity from (2k+n-1)(k+n-2)!/(k!(n-1)!), exact integers.

    At k = 0 the factorial form degenerates for n = 1; the value there is 1
    for every n, which is what the expression gives wherever it is defined.
    """
    n = _require_dimension(n)
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    if k == 0:
        return 1
    num = (2 * k + n - 1) * math.factorial(k + n - 2)
    den = math.factorial(k) * math.factorial(n - 1)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("multiplicity formula did not divide evenly")
    return q


def spectrum_slice(n: int, kmax: int) -> list[SpectrumEntry]:
    """Entries k = 0..kmax; d_k = C(k + n, n) - C(k + n - 2, n), with C(k + n, n)
    advanced by exact integer steps C(m, n) = C(m - 1, n) m / (m - n)."""
    n = _require_dimension(n)
    kmax = _require_int(kmax, 0, "kmax must be a nonnegative integer")
    # up[k] = C(k + n, n), and C(k + n - 2, n) = up[k - 2] (0 for k < 2)
    up = list(accumulate(range(1, kmax + 1), lambda c, k: c * (k + n) // k, initial=1))
    d = list(map(int.__sub__, up, [0, 0] + up[:-2]))
    # lambda_k and (2k + n - 1)^2 as exact integers, each rounded once to a
    # float as float(int) rounds it; int64 holds them while 2 kmax + n < 2^31
    k = np.arange(kmax + 1, dtype=np.int64 if 2 * kmax + n < 1 << 31 else object)
    lam = (k * (k + (n - 1))).astype(float).tolist()
    mu = ((2 * k + (n - 1)) ** 2).astype(float) / 4.0
    return list(map(tuple.__new__, repeat(SpectrumEntry),
                    zip(range(kmax + 1), lam, mu.tolist(), d)))


@lru_cache(maxsize=64)
def mult_poly_coeffs(n: int) -> tuple[float, ...]:
    """Coefficients a_m with d_k(n) = sum_m a_m (k + rho)^m, valid for k >= 1.

    Derived exactly: for n >= 2,

        d_k = 2u / (n-1)! * prod_{i=1}^{n-2} (u + i - rho),   u = k + rho,

    and the product's roots come in +/- pairs about zero, so the polynomial
    is odd or even in u.  For n = 1 the factorials cancel to the constant 2.
    In v = 2u the roots are integers: d_k = c(v) / ((n-1)! 2^(n-2)) with
    c(v) = v prod_{i=1}^{n-2} (v + 2i - n + 1) expanded in exact integers,
    and a_m = c_m 2^m / ((n-1)! 2^(n-2)) is one correctly rounded quotient.
    """
    n = _require_dimension(n)
    if n == 1:
        return (2.0,)
    c = [0, 1]  # c(v) = v, lowest degree first
    for i in range(1, n - 1):
        root = 2 * i - n + 1
        c = [a * root + b for a, b in zip(c + [0], [0] + c)]
    den = math.factorial(n - 1) << (n - 2)
    return tuple((c_m << m) / den for m, c_m in enumerate(c))


# (n, (lam, u, d)) for k = 1..2^j of the last n built.  The arrays are
# read-only and the tuple is replaced whole, so a view stays valid and a
# concurrent reader sees the old arrays or the new ones.
_last_arrays: tuple = (0, (np.empty(0), np.empty(0), np.empty(0)))


def _spectral_arrays(n: int, kmax: int):
    """Read-only float arrays (lam, mu_sqrt, d) for k = 1..kmax.

    Views into the kept arrays when they are for n and reach kmax, else into
    arrays built for k = 1..kmax rounded up to a power of two, which replace
    them, so a ladder of nearby K and a later shorter request reuse one build.
    Raises OverflowError when d_kmax overflows a double (d_k grows with k
    for n >= 2, so it is the largest asked for; the padding is not looked at).
    """
    global _last_arrays
    held_n, arrays = _last_arrays
    if held_n != n or len(arrays[0]) < kmax:
        arrays = _spectral_range(n, 1, 1 << (max(kmax, 1) - 1).bit_length())
        for arr in arrays:
            arr.setflags(write=False)
        _last_arrays = (n, arrays)
    d = arrays[2]
    if kmax > 0 and not math.isfinite(d[kmax - 1]):
        first = int(np.argmin(np.isfinite(d[:kmax]))) + 1
        raise OverflowError(f"multiplicity d_k of S^{n} overflows a double from "
                            f"k = {first} on, below the K = {kmax} asked for")
    return tuple(a[:kmax] for a in arrays)


def _spectral_range(n: int, k_lo: int, k_hi: int):
    """Float arrays (lam, mu_sqrt, d) for k = k_lo..k_hi, each entry a function of k alone."""
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    lam = k * (k + n - 1)
    u = k + (n - 1) / 2.0
    # d_k = (2k + n - 1) C(k + n - 2, n - 2) / (n - 1) from the integer
    # partial products C(k + i, i): exact while they stay below 2^53, a few
    # eps off beyond; Horner on mult_poly_coeffs cancels (1.6e-11 at n = 40)
    d = np.full_like(k, 2.0)
    if n > 1:
        d = np.ones_like(k)
        # d_k past a double is inf; _spectral_arrays names it if it is asked for
        with np.errstate(over="ignore"):
            for i in range(1, n - 1):
                d = d * (k + i) / i
            d = d * (2.0 * k + n - 1) / (n - 1)
    return lam, u, d
