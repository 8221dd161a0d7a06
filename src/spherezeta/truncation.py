"""Truncation policies and certified series evaluation.

Every infinite sum in this package is reported as an ``EvalResult``: the
computed value together with the number of terms actually summed and a
rigorous bound on everything that was left out (plus a crude allowance for
floating-point accumulation).  Callers state their accuracy demands through
a ``TruncationPolicy``; if the demand cannot be certified within the term
budget the evaluator raises instead of silently returning a bad number.

All certified sums go through one core of two steps.  ``smallest_k`` walks
the single K ladder k_min, 2 k_min, 4 k_min, ... up to max_k, evaluating the
tail once per rung, until its bound meets a target, and returns that K with
the tail's (estimate, bound).  ``_certify`` adds the roundoff allowance over
the K head terms to the truncation bound and raises ``AccuracyError`` when
that total exceeds tol.  The sphere series take the rung at target tol/2 in
``specfun._zonal_sum`` and certify each sum on it.  ``_power_rows`` takes
one rung per exponent, sums the exponents that share a rung as the rows of
one power block, and gives each row the value and bound ``_certify`` would
give it, as plain (values, bounds, terms) lists that ``shifted_power_sum``,
the binomial Hurwitz route and the closed forms read without building a
result per exponent.

The workhorse tail is the midpoint-rule estimate for sums of decreasing
convex terms f(k) = (k + a)^(-p):

    sum_{k >= K} f(k)  =  integral_{K-1/2}^{inf} f(x) dx  +  err,

    |err| <= ( f''(K-1/2) + |f'(K-1/2)| ) / 24,

which follows from the classical midpoint error on each unit interval and
telescoping the convexity bound.  The correction term is kept (added to the
value), so the certified error decays two orders faster than the raw tail
and sums that would naively need 1e10 terms close at a few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectrum import _require_int

_EPS = float(np.finfo(float).eps)


class TruncationError(RuntimeError):
    """Tail could not be certified below the requested tolerance."""


class AccuracyError(RuntimeError):
    """A composite evaluation blew its certified error budget."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Term budget and accuracy demand for series evaluation.

    max_k : largest term index the evaluator may use.
    tol   : absolute accuracy the certified tail bound must reach.
    """

    max_k: int = 200_000
    tol: float = 1e-10

    def __post_init__(self):
        # a numpy integer is kept as the int it equals
        object.__setattr__(self, "max_k",
                           _require_int(self.max_k, 1, "max_k must be a positive integer"))
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series with a certified remainder bound."""

    value: float
    terms_used: int
    tail_bound: float


DEFAULT_POLICY = TruncationPolicy()
# entries of one power block of _power_rows (a single row may exceed it)
_BLOCK_ENTRIES = 1 << 16
# tight inner sums of the closed forms and the binomial Hurwitz route
_TIGHT = TruncationPolicy(max_k=400_000, tol=1e-13)


def power_tail(p: float, a: float, k_from: int) -> tuple[float, float]:
    """Midpoint estimate of sum_{k >= k_from} (k + a)^(-p) with error bound.

    Requires a finite p > 1 and k_from + a > 1/2 so the terms are
    positive, decreasing and convex on the tail.  Returns (estimate, bound).
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"power tail needs a finite exponent p > 1, not p = {p!r}")
    z = k_from - 0.5 + a
    if z <= 0.0:
        raise ValueError("tail start must satisfy k_from + a > 1/2")
    est = z ** (1.0 - p) / (p - 1.0)
    if z > 1.0 and p * (p + 1.0) == math.inf:
        # p > 1.3e154 and log z >= eps, so z^(-p) < e^(-1e138): the bound is
        # below the least double, where the formula gives inf * 0.0 = nan
        return est, 0.0
    bound = (p * (p + 1.0) * z ** (-p - 2.0) + p * z ** (-p - 1.0)) / 24.0
    return est, bound


def _roundoff_allowance(abs_sum: float, nterms: int) -> float:
    # pairwise summation in numpy keeps the error near eps * log2(n)
    return (math.log2(max(nterms, 2)) + 2.0) * _EPS * abs_sum


def smallest_k(tail, target: float, k_min: int, max_k: int) -> tuple[int, float, float]:
    """First K on the ladder k_min, 2 k_min, 4 k_min, ... (capped at max_k)
    whose tail(K) = (estimate, bound) has bound <= target, as (K, estimate,
    bound); tail is evaluated once per rung.  Raises TruncationError if max_k
    misses the target."""
    k = min(k_min, max_k)
    while True:
        est, bound = tail(k)
        if bound <= target:
            return k, est, bound
        if k >= max_k:
            raise TruncationError(f"tail bound {bound:.3e} still exceeds {target:.3e} "
                                  f"at the term budget max_k={max_k}")
        k = min(2 * k, max_k)


def _certify(head_sum: float, abs_sum: float, est: float, bound: float, k: int,
             tol: float, offset: float | None) -> EvalResult:
    """Certified offset + head_sum + est, offset an exactly known leading term
    (counted in terms_used); the bound adds the roundoff allowance over
    abs_sum + |offset| to the truncation bound, and a total over tol raises."""
    lead = 0.0 if offset is None else offset
    total = bound + _roundoff_allowance(abs_sum + abs(lead), k)
    if not total <= tol:
        raise _over_tol(total, bound, tol)
    return EvalResult(lead + head_sum + est, k + (offset is not None), total)


def _over_tol(total: float, bound: float, tol: float) -> AccuracyError:
    return AccuracyError(f"certified bound {total:.3e} (truncation {bound:.3e} plus roundoff) "
                         f"exceeds tol {tol:.3e}")


def _power_rows(ps, a: float, policy: TruncationPolicy) -> tuple[list, list, list]:
    """Certified sum_{k >= 0} (k + a)^(-p), a > 0, for every p > 1 in ps, as
    (values, bounds, terms) lists of Python numbers.

    Every exponent takes its ``smallest_k`` rung from 16 over ``power_tail``;
    the first rung is tried here and the ladder walked only past it.  The
    exponents on one rung are the rows of one np.power block, and each row
    gets the value and bound ``_certify`` gives it, by the same float
    operations without building a result: the terms are positive, so the
    absolute sum is the sum, and adding the zero offset changes no bit.  A
    head that overflows is refused; a failure raises what the first failing
    exponent, taken in order, raises on its own.
    """
    ps = [float(p) for p in ps]
    if any(p <= 1.0 for p in ps):
        raise ValueError("exponent must exceed 1 for convergence")
    if a <= 0.0:
        raise ValueError("shift must be positive")
    tol, max_k = policy.tol, policy.max_k
    target, k0 = 0.5 * tol, min(16, max_k)
    ests, bounds, terms = [0.0] * len(ps), [0.0] * len(ps), [k0] * len(ps)
    errors, rungs = {}, {}
    for i, p in enumerate(ps):
        est, bound = power_tail(p, a, k0)
        k = k0
        if not bound <= target:
            try:
                k, est, bound = smallest_k(partial(power_tail, p, a), target, k0, max_k)
            except TruncationError as exc:
                errors[i] = exc
                continue
        ests[i], bounds[i], terms[i] = est, bound, k
        rungs.setdefault(k, []).append(i)
    values = [0.0] * len(ps)
    for k, rows in rungs.items():
        base = np.arange(k, dtype=float)[None, :] + a
        # the allowance is its factor (log2 K + 2) eps times the sum
        per_unit = _roundoff_allowance(1.0, k)
        step = max(1, _BLOCK_ENTRIES // k)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            with np.errstate(over="ignore"):
                block = np.power(base, -np.array([ps[i] for i in chunk])[:, None])
            for i, head in zip(chunk, block.sum(axis=1).tolist()):
                total = bounds[i] + per_unit * head
                if total <= tol:
                    values[i], bounds[i] = head + ests[i], total
                else:
                    errors[i] = _over_tol(total, bounds[i], tol)
    if errors:
        raise errors[min(errors)]
    return values, bounds, terms


def shifted_power_sum(p: float, a: float, policy: TruncationPolicy) -> EvalResult:
    """Certified evaluation of sum_{k >= 0} (k + a)^(-p) for p > 1, a > 0."""
    values, bounds, terms = _power_rows([p], a, policy)
    return EvalResult(values[0], terms[0], bounds[0])
