"""Laplace-Beltrami spectrum of the unit n-sphere.

Eigenvalues lambda_k = k(k + n - 1) with multiplicities

    d_k(n) = (2k + n - 1) (k + n - 2)! / (k! (n-1)!)
           = C(k + n, n) - C(k + n - 2, n),

both computed in exact integer arithmetic.  The additive shift
c_n = ((n-1)/2)^2 completes the square: lambda_k + c_n = (k + (n-1)/2)^2,
exactly, which is what makes the shifted zeta functions collapse to
Hurwitz-type sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np


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


def _require_int(x, least: int, message: str) -> int:
    """x as an int, refused with ValueError(message) before any summing unless
    it is an integer >= least (a bool or a float such as 2.0 is refused; a
    numpy integer is converted, so exact integer steps stay exact)."""
    if type(x) is not int:  # the common case skips the slower ABC check
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            raise ValueError(message)
        x = int(x)
    if x < least:
        raise ValueError(message)
    return x


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


def _comb0(m: int, r: int) -> int:
    # binomial with the usual convention C(m, r) = 0 for m < 0
    if m < 0:
        return 0
    return math.comb(m, r)


def multiplicity(k: int, n: int) -> int:
    """Multiplicity of lambda_k on S^n, via the exact binomial difference."""
    n = _require_dimension(n)
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    return _comb0(k + n, n) - _comb0(k + n - 2, n)


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
    Coefficients are computed in exact rational arithmetic and rounded once.
    """
    n = _require_dimension(n)
    if n == 1:
        return (2.0,)
    rho = Fraction(n - 1, 2)
    poly = [Fraction(1)]
    for i in range(1, n - 1):
        shift = Fraction(i) - rho
        nxt = [Fraction(0)] * (len(poly) + 1)
        for j, cj in enumerate(poly):
            nxt[j] += cj * shift
            nxt[j + 1] += cj
        poly = nxt
    fact = math.factorial(n - 1)
    coeffs = [Fraction(0)] + [2 * c / fact for c in poly]
    return tuple(float(c) for c in coeffs)


# (n, (lam, u, d)) for k = 1..2^j of the last n asked for.  A longer request
# computes only the new k, with the same elementwise formulas, so every entry
# is that of a fresh build.  The arrays are never written once kept and the
# tuple is replaced whole, so a view stays valid and a concurrent reader sees
# the old arrays or the new ones.
_last_arrays: tuple = (0, (np.empty(0), np.empty(0), np.empty(0)))


def _spectral_arrays(n: int, kmax: int):
    """Read-only float arrays (lam, mu_sqrt, d) for k = 1..kmax.

    Views into the kept arrays of n, grown to kmax rounded up to a power of
    two, so a ladder of nearby K and a later shorter request reuse them.
    """
    global _last_arrays
    held_n, arrays = _last_arrays
    if held_n != n:
        arrays = None
    if arrays is None or len(arrays[0]) < kmax:
        lo = 0 if arrays is None else len(arrays[0])
        new = _spectral_range(n, lo + 1, 1 << (max(kmax, 1) - 1).bit_length())
        arrays = new if arrays is None else tuple(map(np.concatenate, zip(arrays, new)))
        for arr in arrays:
            arr.setflags(write=False)
        _last_arrays = (n, arrays)
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
        for i in range(1, n - 1):
            d = d * (k + i) / i
        d = d * (2.0 * k + n - 1) / (n - 1)
    return lam, u, d
