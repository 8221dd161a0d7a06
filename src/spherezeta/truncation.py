"""Truncation policies and certified series evaluation.

Every infinite sum in this package is reported as an ``EvalResult``: the
computed value together with the number of terms actually summed and a
rigorous bound on everything that was left out (plus a crude allowance for
floating-point accumulation).  Callers state their accuracy demands through
a ``TruncationPolicy``; if the demand cannot be certified within the term
budget the evaluator raises instead of silently returning a bad number.

All certified sums go through one core.  ``smallest_k`` walks the single
K ladder k_min, 2 k_min, 4 k_min, ... up to max_k until a tail bound meets
its target; ``certified_rung`` takes the first K with truncation bound
<= tol/2, and ``certified_sum`` sums to that K, adds the roundoff allowance,
and raises ``AccuracyError`` when that total exceeds tol (``_certify``).  The
two halves are separate so that a caller whose tail does not depend on the
terms, such as a kernel swept over angles, can pick the rung once and
certify each sum on its own.  ``shifted_power_sums`` certifies several
exponents over one shift at once: each exponent takes its own rung, and the
exponents that share a rung are summed as the rows of one power block, each
row certified as ``certified_sum`` certifies a single sum.

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
# entries of one power block of shifted_power_sums (a single row may exceed it)
_BLOCK_ENTRIES = 1 << 16
# tight inner sums of the closed forms and the binomial Hurwitz route
_TIGHT = TruncationPolicy(max_k=400_000, tol=1e-13)


def power_tail(p: float, a: float, k_from: int) -> tuple[float, float]:
    """Midpoint estimate of sum_{k >= k_from} (k + a)^(-p) with error bound.

    Requires p > 1 and k_from + a > 1/2 so the terms are positive,
    decreasing and convex on the tail.  Returns (estimate, bound).
    """
    if p <= 1.0:
        raise ValueError("power tail needs exponent p > 1")
    z = k_from - 0.5 + a
    if z <= 0.0:
        raise ValueError("tail start must satisfy k_from + a > 1/2")
    return _power_tail(p, z)


def _power_tail(p: float, z: float) -> tuple[float, float]:
    # the unchecked formula of power_tail at z = k_from - 1/2 + a
    est = z ** (1.0 - p) / (p - 1.0)
    bound = (p * (p + 1.0) * z ** (-p - 2.0) + p * z ** (-p - 1.0)) / 24.0
    return est, bound


def _roundoff_allowance(abs_sum: float, nterms: int) -> float:
    # pairwise summation in numpy keeps the error near eps * log2(n)
    return (math.log2(max(nterms, 2)) + 2.0) * _EPS * abs_sum


def smallest_k(bound, target: float, k_min: int, max_k: int) -> int:
    """First K on the ladder k_min, 2 k_min, 4 k_min, ... (capped at max_k)
    with bound(K) <= target; raises TruncationError if max_k misses it."""
    k = min(k_min, max_k)
    while not bound(k) <= target:
        if k >= max_k:
            raise _budget_error(bound(k), target, max_k)
        k = min(2 * k, max_k)
    return k


def _budget_error(bound: float, target: float, max_k: int) -> TruncationError:
    return TruncationError(f"tail bound {bound:.3e} still exceeds {target:.3e} "
                           f"at the term budget max_k={max_k}")


def _certify(head_sum: float, abs_sum: float, est: float, bound: float, k: int,
             tol: float, offset: float | None) -> EvalResult:
    """The result of ``certified_sum`` from the sum and the absolute sum of
    its K head terms."""
    lead = 0.0 if offset is None else offset
    total = bound + _roundoff_allowance(abs_sum + abs(lead), k)
    if not total <= tol:
        raise AccuracyError(
            f"certified bound {total:.3e} (truncation {bound:.3e} plus roundoff) "
            f"exceeds tol {tol:.3e}"
        )
    return EvalResult(value=lead + head_sum + est,
                      terms_used=k + (offset is not None), tail_bound=total)


def certified_rung(tail, policy: TruncationPolicy, k_min: int) -> tuple[int, float, float]:
    """The K of ``certified_sum`` and its tail: the first rung of ``smallest_k``
    whose bound tail(K)[1] is within tol/2, as (K, estimate, bound)."""
    k = smallest_k(lambda j: tail(j)[1], 0.5 * policy.tol, k_min, policy.max_k)
    return (k, *tail(k))


def certified_sum(terms, tail, policy: TruncationPolicy, k_min: int,
                  offset: float | None = None) -> EvalResult:
    """Certified value of offset + sum(terms(K)) + the tail estimate.

    terms(K) returns the first K terms and tail(K) an (estimate, bound)
    pair for everything after them; K is ``certified_rung``'s.  offset is
    an exactly known leading term (counted in terms_used).  The returned
    bound is the truncation bound plus the roundoff allowance over
    sum|terms| + |offset|; if that total exceeds tol, AccuracyError is
    raised.
    """
    k, est, bound = certified_rung(tail, policy, k_min)
    head = terms(k)
    return _certify(float(np.sum(head)), float(np.sum(np.abs(head))), est, bound, k,
                    policy.tol, offset)


def shifted_power_sums(ps, a: float, policy: TruncationPolicy) -> list[EvalResult]:
    """Certified sum_{k >= 0} (k + a)^(-p) for every p in ps (each p > 1), a > 0.

    Each result equals what ``certified_sum`` gives for that exponent alone,
    bit for bit: every exponent walks the ``smallest_k`` ladder from 16 over
    ``power_tail``, and the exponents on one rung are the rows of one np.power
    block, each certified as ``_certify`` certifies it.  A failure raises what
    the first failing exponent, taken in order, raises on its own.
    """
    ps = [float(p) for p in ps]
    if any(p <= 1.0 for p in ps):
        raise ValueError("exponent must exceed 1 for convergence")
    if a <= 0.0:
        raise ValueError("shift must be positive")
    tol, max_k = policy.tol, policy.max_k
    target = 0.5 * tol
    rungs: dict[int, list[int]] = {}
    out: list = [None] * len(ps)
    for i, p in enumerate(ps):
        # smallest_k's ladder, inline: z = k - 1/2 + a > 0 as k >= 1
        k = min(16, max_k)
        while not (bound := _power_tail(p, k - 0.5 + a)[1]) <= target:
            if k >= max_k:
                out[i] = _budget_error(bound, target, max_k)
                break
            k = min(2 * k, max_k)
        else:
            rungs.setdefault(k, []).append(i)
    for k, rows in rungs.items():
        base = np.arange(k, dtype=float)[None, :] + a
        z = k - 0.5 + a
        # _certify's roundoff allowance per unit of sum|terms|, for no offset
        allowance = _roundoff_allowance(1.0, k)
        step = max(1, _BLOCK_ENTRIES // k)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            block = np.power(base, -np.array([ps[i] for i in chunk])[:, None])
            for i, head_sum, abs_sum in zip(chunk, np.sum(block, axis=1).tolist(),
                                            np.sum(np.abs(block), axis=1).tolist()):
                est, bound = _power_tail(ps[i], z)
                total = bound + allowance * abs_sum
                if total <= tol:
                    out[i] = EvalResult(head_sum + est, k, total)
                    continue
                try:
                    out[i] = _certify(head_sum, abs_sum, est, bound, k, tol, None)
                except AccuracyError as exc:
                    out[i] = exc
    for r in out:
        if isinstance(r, Exception):
            raise r
    return out


def shifted_power_sum(p: float, a: float, policy: TruncationPolicy) -> EvalResult:
    """Certified evaluation of sum_{k >= 0} (k + a)^(-p) for p > 1, a > 0."""
    return shifted_power_sums([p], a, policy)[0]
