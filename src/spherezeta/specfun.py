"""Special functions with certified error reporting.

The Riemann and Hurwitz zeta evaluators are direct summations closed with
a midpoint-integral tail correction (see ``truncation``), so their
certificates hold down to the 1e-12 range at a few hundred terms.  ``hurwitz_via_binomial`` is an
independent route to the same values, kept as a cross-check of
``hurwitz_zeta``: it rebuilds zeta_H(2s, rho) for rho < 1 from Riemann
zeta values through the binomial series

    zeta_H(2s, rho) = rho^(-2s)
        + sum_{m >= 0} (-1)^m Gamma(2s+m)/(m! Gamma(2s)) rho^m zeta_R(2s+m),

truncated with an alternating-series remainder bound.  Its Riemann values
zeta_R(2s+m), m = 0..m_max+1, are the rows of one ``truncation._power_rows``
call, the core of ``shifted_power_sum``.

Gegenbauer ratios r_k = C_k^{alpha}(t) / C_k^{alpha}(1) with alpha =
(n-1)/2 are generated by a three-term recurrence that is uniform in n >= 2;
the n = 1 boundary case is the Chebyshev limit cos(k arccos t).  The last
(n, t) table built is kept read-only for the requests it reaches, so the
kernels at one angle share it; any other request builds a fresh one whole.
A step's factors j - 1 and j + n - 2 are Python floats read from one small
store shared by every n, and (2j + n - 3) t is one numpy product per
table, rounded as the scalar step rounds it, so every table has the bits
of the plain loop; a table longer than the store reaches is built in chunks.
On the diagonal and at the antipode, t = +-1, the table is r_k = t^k, which
is what the recurrence gives there: it is built without it, fresh on every
call, and returned without a copy.

Every certified sphere series is one ``_zonal_sum`` over that table,
(1/vol) [offset + sum_{k>=1} d_k r_k decay(lambda_k, k + rho, x)] at a heat
time or exponent x: the kernels at volume V_n, and the heat trace and both
zetas on the diagonal at volume 1.  ``_zonal_rung`` keeps what the angle
never changes for the last few profiles: the K rung at tol/2, the tail's
(estimate, bound) there, the decay vector and d_k.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectrum import _require_dimension, _spectral_arrays
from .truncation import (
    _EPS,
    _TIGHT,
    DEFAULT_POLICY,
    EvalResult,
    TruncationError,
    TruncationPolicy,
    _certify,
    _power_rows,
    _require_int,
    shifted_power_sum,
    smallest_k,
)


def riemann_zeta(s: float, policy: TruncationPolicy = DEFAULT_POLICY) -> EvalResult:
    """zeta_R(s) = sum_{k >= 1} k^(-s) for s > 1, with certified tail."""
    if not (s > 1.0):
        raise ValueError("riemann_zeta requires s > 1")
    return shifted_power_sum(s, 1.0, policy)


def hurwitz_zeta(
    s: float, a: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> EvalResult:
    """zeta_H(s, a) = sum_{k >= 0} (k + a)^(-s) for s > 1, 0 < a <= 1."""
    if not (s > 1.0):
        raise ValueError("hurwitz_zeta requires s > 1")
    if not (0.0 < a <= 1.0):
        raise ValueError("hurwitz_zeta requires 0 < a <= 1")
    return shifted_power_sum(s, a, policy)


def hurwitz_via_binomial(s: float, rho: float, m_max: int) -> EvalResult:
    """zeta_H(2s, rho) assembled from Riemann zeta values, for 0 < rho < 1.

    The expansion alternates; the remainder after m_max is bounded by the
    first omitted term once the terms are decreasing, which is checked
    explicitly (it holds from m > (2 s rho - 1)/(1 - rho) on).  If the
    Leibniz regime has not been reached by m_max the certificate would be
    invalid and a truncation error is raised instead.
    """
    if not (s > 1.0):
        raise ValueError("hurwitz_via_binomial requires s > 1")
    if not (0.0 < rho < 1.0):
        raise ValueError("hurwitz_via_binomial requires 0 < rho < 1")
    m_max = _require_int(m_max, 0, "m_max must be a nonnegative integer")

    p = 2.0 * s
    try:
        value = rho ** (-p)
    except OverflowError:
        raise OverflowError(f"zeta_H(2s, rho) >= rho^(-2s) overflows a double at "
                            f"s = {s!r}") from None
    inner_tails = 0.0
    coef = 1.0  # Gamma(2s+m) / (m! Gamma(2s)), built by recurrence
    abs_accum = abs(value)
    zeta_r, zeta_bounds, _ = _power_rows([p + m for m in range(m_max + 2)], 1.0, _TIGHT)
    for m in range(m_max + 1):
        if m > 0:
            coef *= (p + m - 1.0) / m
        weight = coef * rho**m
        term = weight * zeta_r[m]
        if not math.isfinite(term) or abs(term) > 1e300:
            raise OverflowError("binomial expansion term overflowed")
        value += term if m % 2 == 0 else -term
        inner_tails += weight * zeta_bounds[m]
        abs_accum += abs(term)

    m1 = m_max + 1
    # decreasing-terms condition for the Leibniz bound, monotone in m
    if rho * (p + m1 - 1.0) / (m1 + 1.0) >= 1.0:
        raise TruncationError(
            "alternating remainder not certifiable: increase m_max"
        )
    coef *= (p + m1 - 1.0) / m1
    first_omitted = coef * rho**m1 * zeta_r[m1]
    tail = first_omitted + inner_tails + 4.0 * _EPS * abs_accum * math.log2(m_max + 2)
    return EvalResult(value=value, terms_used=m_max + 1, tail_bound=tail)


def gegenbauer_ratio(k: int, n: int, t: float) -> float:
    """r_k = C_k^{(n-1)/2}(t) / C_k^{(n-1)/2}(1), the zonal profile on S^n;
    |r_k| <= 1 throughout [-1, 1]."""
    k = _require_int(k, 0, "degree k must be a nonnegative integer")
    return float(gegenbauer_ratio_series(n, t, k)[k])


def gegenbauer_ratio_series(n: int, t: float, kmax: int) -> np.ndarray:
    """Array [r_0, ..., r_kmax] of normalized Gegenbauer values at t: r_0 = 1,
    r_1 = t and (k + n - 2) r_k = (2k + n - 3) t r_{k-1} - (k - 1) r_{k-2}
    for n >= 2; n = 1 degenerates to cos(k arccos t).  The array is the
    caller's own: writing to it leaves later calls unchanged."""
    kmax = _require_int(kmax, 0, "kmax must be a nonnegative integer")
    n = _require_dimension(n)
    if not (-1.0 <= t <= 1.0):
        raise ValueError("argument t must lie in [-1, 1]")
    if n == 1:
        theta = math.acos(t)
        return np.cos(theta * np.arange(kmax + 1))
    t = float(t)
    if t == 1.0 or t == -1.0:
        # every factor of a step is an integer-valued float here, so the
        # recurrence gives r_k = t^k exactly: a fresh table, not kept
        r = np.ones(kmax + 1)
        r[1::2] = t
        return r
    return _recurrence_table(n, t, kmax)[:kmax + 1].copy()


# ((n, t.hex()), [r_0, ..., r_K]) of the last n >= 2 table built: read-only and
# replaced whole, so a concurrent reader sees the old table or the new one.
_last_table: tuple = ((0, ""), np.empty(0))
# [0.0, 1.0, 2.0, ...]: the step factors j - 1 and j + n - 2 of every n are
# slices of it.  Grown by powers of two up to _FACTOR_CAP entries and replaced
# whole; a table that reaches past it is built in _CHUNK-step batches, so
# the Python floats alive at once stay few.
_float_ints: list = []
_FACTOR_CAP = 1 << 14
_CHUNK = 1024


def _step_factors(n: int, t: float, lo: int, hi: int) -> tuple[list, list, list]:
    """(2j + n - 3) t, j - 1 and j + n - 2 as Python floats for j = lo..hi-1;
    the product is the one float64 rounding the scalar step makes."""
    global _float_ints
    a = (np.arange(2 * lo + n - 3, 2 * hi + n - 3, 2) * t).tolist()
    end = hi + n - 2
    if end > _FACTOR_CAP:
        j = np.arange(lo, hi)
        return a, (j - 1.0).tolist(), (j + n - 2.0).tolist()
    if len(_float_ints) < end:
        _float_ints = np.arange(1 << (end - 1).bit_length(), dtype=float).tolist()
    ints = _float_ints
    return a, ints[lo - 1:hi - 1], ints[lo + n - 2:end]


def _recurrence_table(n: int, t: float, kmax: int) -> np.ndarray:
    """[r_0, ..., r_K], K >= kmax, for n >= 2 and -1 < t < 1: the kept table
    if it is for (n, t) and reaches kmax, else a fresh read-only one, run from
    r_0 = 1 by the steps ((2j + n - 3) t r_{j-1} - (j - 1) r_{j-2}) / (j + n - 2)."""
    global _last_table
    key, r = _last_table
    if key == (n, t.hex()) and len(r) > kmax:
        return r
    r = np.empty(max(kmax, 1) + 1)
    r[:2] = prev, cur = 1.0, t
    step = kmax + 1 if kmax + n - 1 <= _FACTOR_CAP else _CHUNK
    for lo in range(2, kmax + 1, step):
        hi = min(lo + step, kmax + 1)
        vals = []
        append = vals.append
        for a, b, c in zip(*_step_factors(n, t, lo, hi)):
            prev, cur = cur, (a * cur - b * prev) / c
            append(cur)
        r[lo:hi] = vals
    r.setflags(write=False)
    _last_table = ((n, t.hex()), r)
    return r


# One sweep visits the few profiles of one (n, t or s) at many angles, so a
# handful of entries serve it; a pass over other profiles evicts them.
_RUNG_ENTRIES = 8


@lru_cache(maxsize=_RUNG_ENTRIES)
def _zonal_rung(tail, decay, n: int, x: float, vol: float, policy: TruncationPolicy,
                k_min: int) -> tuple[int, float, float, np.ndarray, np.ndarray]:
    """(K, tail estimate, truncation bound, decay(lambda_k, k + rho, x), d_k),
    k = 1..K, of the zonal sum whose tail past K is tail(n, x, K) = (estimate,
    bound), over vol; kept for the next angle, keyed on the module-level tail
    and decay.  Both vectors are new read-only arrays, no views into the
    spectral arrays.  A refusal is not kept, so it raises again."""
    def scaled(j):
        est, bound = tail(n, x, j)
        return est / vol, bound / vol

    k, est, bound = smallest_k(scaled, 0.5 * policy.tol, k_min, policy.max_k)
    lam, u, d = _spectral_arrays(n, k)
    dec, d = decay(lam, u, x), d.copy()
    dec.setflags(write=False)
    d.setflags(write=False)
    return k, est, bound, dec, d


def _zonal_sum(n: int, cos_gamma: float, policy: TruncationPolicy, decay, tail, x: float,
               k_min: int, vol: float, offset: float | None = None) -> EvalResult:
    """Certified (1/vol) [offset + sum_{k>=1} d_k r_k decay(lambda_k, k + rho, x)]
    at cos_gamma: the head to the rung's K plus the tail estimate."""
    k, est, bound, dec, d = _zonal_rung(tail, decay, n, x, vol, policy, k_min)
    head = d * gegenbauer_ratio_series(n, cos_gamma, k)[1:]
    head *= dec
    head /= vol
    return _certify(float(head.sum()), float(np.abs(head, out=head).sum()), est, bound, k,
                    policy.tol, None if offset is None else offset / vol)
