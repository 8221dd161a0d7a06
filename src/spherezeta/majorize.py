"""Majorization primitives on finite real sequences.

Conventions: sequences are compared through prefix sums of their
decreasingly sorted rearrangements; ties are broken by original index
(numpy's stable sort on the negated array).  Tolerances are absolute but
default to 1e-12 relative to the larger total, so reports stay meaningful
for sequences that are not O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MajorizationReport:
    verdict: str                 # "majorizes" | "weakly_majorizes" | "fails"
    x_sorted: np.ndarray
    y_sorted: np.ndarray
    prefix_gaps: np.ndarray      # partial-sum differences, x minus y
    total_gap: float
    first_violation: int | None  # 1-based prefix length, None if ok
    tol: float


@dataclass(frozen=True)
class DominationReport:
    ok: bool
    prefix_gaps: np.ndarray      # partial sums of b minus partial sums of a
    first_violation: int | None
    tol: float


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _resolve_tol(tol: float | None, x: np.ndarray, y: np.ndarray) -> float:
    if tol is None:
        return 1e-12 * max(1.0, abs(float(np.sum(x))), abs(float(np.sum(y))))
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")
    return float(tol)


def _sort_desc(arr: np.ndarray) -> np.ndarray:
    # stable descending order, ties kept in original index order
    idx = np.argsort(-arr, kind="stable")
    return arr[idx]


def weak_majorizes(x, y, tol: float | None = None) -> MajorizationReport:
    """Report on sum-prefix domination of sorted x over sorted y.

    verdict is "weakly_majorizes" when every prefix sum of x (sorted
    decreasingly) is at least the matching prefix sum of y up to tol,
    "majorizes" when additionally the totals agree within tol, and "fails"
    otherwise.
    """
    xv, yv = _as_vector(x, "x"), _as_vector(y, "y")
    if xv.size != yv.size:
        raise ValueError("sequences must have equal length")
    t = _resolve_tol(tol, xv, yv)
    xs, ys = _sort_desc(xv), _sort_desc(yv)
    gaps = np.cumsum(xs) - np.cumsum(ys)
    bad = np.nonzero(gaps < -t)[0]
    first = int(bad[0]) + 1 if bad.size else None
    total = float(gaps[-1])
    if first is not None:
        verdict = "fails"
    elif abs(total) <= t:
        verdict = "majorizes"
    else:
        verdict = "weakly_majorizes"
    return MajorizationReport(
        verdict=verdict,
        x_sorted=xs,
        y_sorted=ys,
        prefix_gaps=gaps,
        total_gap=total,
        first_violation=first,
        tol=t,
    )


def partial_sum_domination(a, b, tol: float | None = None) -> DominationReport:
    """Check sum_{i<=K} a_i <= sum_{i<=K} b_i for every K, in natural order.

    No sorting: the sequences are compared as given, which is the form the
    zeta-term comparisons need.  Entries must be positive.
    """
    av, bv = _as_vector(a, "a"), _as_vector(b, "b")
    if av.size != bv.size:
        raise ValueError("sequences must have equal length")
    if np.any(av <= 0.0) or np.any(bv <= 0.0):
        raise ValueError("entries must be positive")
    t = _resolve_tol(tol, av, bv)
    gaps = np.cumsum(bv) - np.cumsum(av)
    bad = np.nonzero(gaps < -t)[0]
    first = int(bad[0]) + 1 if bad.size else None
    return DominationReport(ok=first is None, prefix_gaps=gaps,
                            first_violation=first, tol=t)
