"""Independent references and the failure classification of task outputs.

References never run inside a timed region: the parent computes them after
the workers finish.  Riemann, Hurwitz and sphere zetas are summed in
extended precision (x87 long double) with an Euler-Maclaurin tail, over an
exact multiplicity polynomial rebuilt here by interpolation; the
self-tests tie them to mpmath.  The S^1 heat kernel is mpmath's Jacobi
theta function; heat traces and off-diagonal kernels are long-double sums,
and the diagonal of every kernel is tied to the trace by the identity
volume * K(x, x) = trace.

A task output is a list of items, one per certified result; an item fails as

  raised          the call raised, was refused, or the CLI exited with 1
  bound_over_tol  the reported bound exceeds the requested tolerance
  ref_mismatch    |value - reference| exceeds bound + reference error + 16 ulps
                  (an item may carry its own absolute ``slack``)
  wrong_value     ... and also exceeds float64 evaluation error of the terms
  verdict_false   a verdict that is a theorem came out false
  nondeterministic  a rerun produced different output

Every failure makes a run incorrect unless ``known_defect`` explains it as
one of the library defects listed in KNOWN_DEFECTS; those are still
counted as failed and reported.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

mp.mp.dps = 24

EPS = float(np.finfo(float).eps)
EPS_LD = float(np.finfo(np.longdouble).eps)
CATEGORIES = ("raised", "bound_over_tol", "ref_mismatch", "wrong_value",
              "verdict_false", "nondeterministic")

# defaults of the CLI subcommands, the tolerance each record must meet
CLI_TOL = {"zeta": 1e-10, "heat-trace": 1e-10, "kernel": 1e-8, "dominate": 1e-10,
           "specfun": 1e-10}
MELLIN_POLICY_TOL = 1e-7


def _multiplicity(k: int, n: int) -> int:
    # product form (2k + n - 1) (k + n - 2)! / (k! (n - 1)!), exact
    if k == 0:
        return 1
    if n == 1:
        return 2
    return (2 * k + n - 1) * math.comb(k + n - 2, n - 2) // (n - 1)


@lru_cache(maxsize=None)
def mult_poly_u(n: int) -> tuple:
    """Coefficients a_m (exact) of d_k = sum_m a_m u^m, u = k + (n-1)/2, k >= 1.

    Lagrange interpolation of the product-form multiplicity at k = 1..n,
    then the shift k = u - rho, all in rationals.
    """
    pts = list(range(1, n + 1))
    coeffs_k = [Fraction(0)] * n
    for i, ki in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, kj in enumerate(pts):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for p in range(len(basis) - 1):
                basis[p] -= kj * basis[p + 1]
            denom *= ki - kj
        for p, c in enumerate(basis):
            coeffs_k[p] += c * _multiplicity(ki, n) / denom
    rho = Fraction(n - 1, 2)
    out = [Fraction(0)] * n
    for p, c in enumerate(coeffs_k):
        # (u - rho)^p expanded
        for q in range(p + 1):
            out[q] += c * math.comb(p, q) * (-rho) ** (p - q)
    return tuple(out)


@lru_cache(maxsize=None)
def volume(n: int):
    return 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)


LD = np.longdouble
EM_TERMS = 12
# B_2j / (2j)! of the Euler-Maclaurin tail, j = 1 .. EM_TERMS + 1
_EM_COEF = [LD(mp.nstr(mp.bernoulli(2 * j) / mp.factorial(2 * j), 30))
            for j in range(1, EM_TERMS + 2)]


def _ld(c: Fraction) -> np.longdouble:
    return LD(mp.nstr(mp.mpf(c.numerator) / c.denominator, 30))


@lru_cache(maxsize=None)
def _mult_poly_ld(n: int) -> tuple:
    return tuple(_ld(c) for c in mult_poly_u(n))


def _em_tail(q, x):
    """sum_{k >= 0} (k + x)^(-q) by Euler-Maclaurin at x >= 2q + 8, q > 1,
    elementwise over arrays of q and x: (values, error bounds).

    x^(-q) is completely monotone, so the remainder after EM_TERMS
    corrections is below the first omitted one; twice that is returned.
    """
    q, x = np.asarray(q, dtype=LD), np.asarray(x, dtype=LD)
    xq = x ** -q
    total = x * xq / (q - 1) + xq / 2
    rising, power = q.copy(), xq / x  # (q)_(2j-1) and x^(-q-2j+1) at j = 1
    for j in range(1, EM_TERMS + 1):
        total += _EM_COEF[j - 1] * rising * power
        rising *= (q + 2 * j - 1) * (q + 2 * j)
        power /= x * x
    omitted = np.abs(_EM_COEF[EM_TERMS] * rising * power)
    return total, 2.0 * omitted.astype(float) + 4 * EPS_LD * np.abs(total).astype(float)


def hurwitz_ld(q, a) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) of zeta_H(q, a) = sum_{k >= 0} (k + a)^(-q), q > 1,
    a > 0, elementwise over arrays, in long double: a direct head, then the
    Euler-Maclaurin tail."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    head = max(0, math.ceil(max(32.0, 2.0 * float(q.max()) + 8.0) - float(a.min())))
    k = np.arange(head, dtype=LD)[:, None]
    total = np.sum((k + a.astype(LD)) ** -q.astype(LD), axis=0)
    tail, err = _em_tail(q, a.astype(LD) + head)
    total += tail
    return total, err + (head + 8) * EPS_LD * total.astype(float)


@lru_cache(maxsize=4096)
def _multiplicities_ld(n: int, k_first: int, count: int) -> np.ndarray:
    return _to_ld([_multiplicity(k, n) for k in range(k_first, k_first + count)])


def shifted_sum_ld(n: int, p, k_last: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) of sum_{k > k_last} d_k (k + rho)^(-p) in long double,
    elementwise over an array of exponents p.

    A direct head with exact multiplicities, then sum_m a_m zeta_H(p - m, x)
    over the multiplicity polynomial d = sum_m a_m u^m, u = k + rho, at an x
    beyond the head where only the Euler-Maclaurin tail is needed.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    rho = (n - 1) / 2.0
    head = max(64, math.ceil(2.0 * float(p.max()) + 8.0))
    d = _multiplicities_ld(n, k_last + 1, head)
    u = np.arange(k_last + 1, k_last + 1 + head, dtype=LD) + LD(rho)
    total = np.sum(d[:, None] * u[:, None] ** -p.astype(LD)[None, :], axis=0)
    err = (head + 8) * EPS_LD * total.astype(float)
    coef = np.array(_mult_poly_ld(n), dtype=LD)
    vals, errs = _em_tail(p[:, None] - np.arange(n)[None, :], k_last + 1 + head + rho)
    total += np.sum(coef * vals, axis=1)
    err += np.sum(np.abs(coef).astype(float) * (errs + 8 * EPS_LD * np.abs(vals).astype(float)),
                  axis=1)
    return total, err


def Z_ld(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) of sum_{k>=1} d_k (k + rho)^(-2s) over an array of s."""
    return shifted_sum_ld(n, 2.0 * np.atleast_1d(np.asarray(s, dtype=float)), 0)


def spectral_tail_bounds(n: int, s, k_last: int) -> np.ndarray:
    """Upper bounds on sum_{k > k_last} d_k lambda_k^(-s) over an array of s.

    lambda = u^2 (1 - rho^2/u^2) with u = k + rho, and (1 - rho^2/u^2)^(-s)
    decreases in u, so its value at the first omitted u bounds every term.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    rho = (n - 1) / 2.0
    a = k_last + 1 + rho
    val, err = shifted_sum_ld(n, 2.0 * s, k_last)
    return (1 - rho * rho / (a * a)) ** -s * (val.astype(float) + err) * (1 + 1e-12)


def spec_zeta_ld(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) of sum_{k>=1} d_k lambda_k^(-s) over an array of s: a
    direct head, then the binomial series (1 - rho^2/u^2)^(-s) = sum_j
    C(s+j-1, j) (rho/u)^(2j) over the tail, whose j-th term is below
    (rho / (head + rho))^(2j) times the first; enough terms are taken for
    1e-24 of it, and the rest is bounded by a geometric series."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    head = 400
    rho = (n - 1) / 2.0
    d, lam = _spectrum_ld(n, head)
    total = np.sum(d[1:, None] * lam[1:, None] ** -s.astype(LD)[None, :], axis=0)
    err = (head + 8) * EPS_LD * total.astype(float)
    ratio = (rho / (head + 1 + rho)) ** 2
    count = 1 if rho == 0 else math.ceil(24 * math.log(10) / -math.log(ratio)) + 1
    coef = np.ones((count, len(s)), dtype=LD)
    for j in range(1, count):
        coef[j] = coef[j - 1] * (s.astype(LD) + j - 1) / j * LD(rho) ** 2
    vals, errs = shifted_sum_ld(n, (2.0 * s[None, :] + 2.0 * np.arange(count)[:, None]).ravel(),
                                head)
    vals, errs = vals.reshape(count, len(s)), errs.reshape(count, len(s))
    total += np.sum(coef * vals, axis=0)
    err += np.sum(coef.astype(float) * errs, axis=0)
    g = np.maximum(1.0, (s + count - 1) / count) * ratio
    omitted = (coef[-1] * vals[-1]).astype(float) * g / (1 - g)
    return total, err + omitted + 4 * EPS_LD * total.astype(float)


def _to_ld(values) -> np.ndarray:
    # exact integers to long double via a two-float split
    hi = np.array([float(v) for v in values], dtype=np.longdouble)
    lo = np.array([float(v - int(float(v))) if isinstance(v, int) else 0.0 for v in values],
                  dtype=np.longdouble)
    return hi + lo


_SPECTRA: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _spectrum_ld(n: int, kmax: int):
    """(d_k, lambda_k) for k = 0..kmax in long double; grown by doubling per n."""
    have = _SPECTRA.get(n)
    if have is None or len(have[0]) <= kmax:
        size = max(kmax + 1, 2 * len(have[0]) if have else 1024)
        ks = range(size)
        have = (_to_ld([_multiplicity(k, n) for k in ks]), _to_ld([k * (k + n - 1) for k in ks]))
        _SPECTRA[n] = have
    return have[0][:kmax + 1], have[1][:kmax + 1]


@lru_cache(maxsize=None)
def heat_trace_ref(n: int, t: float) -> tuple[float, float]:
    """(value, error) of sum_k d_k e^{-lambda_k t}."""
    if n == 1:
        return float(mp.jtheta(3, 0, mp.exp(-mp.mpf(t)))), 0.0
    kmax = _heat_cutoff(n, t)
    d, lam = _spectrum_ld(n, kmax)
    terms = d * np.exp(-lam * np.longdouble(t))
    total = np.sum(terms)
    err = (math.log2(kmax + 2) + 4) * EPS_LD * float(total)
    return float(total), err


def _heat_cutoff(n: int, t: float) -> int:
    # past the peak of d_k e^{-k^2 t} and far enough that the rest is < 1e-40
    k = max(8, int(math.sqrt((n - 1) / (2 * t))) + 8)
    while k * k * t < 95.0 + (n - 1) * math.log(k + 1.0):
        k = int(k * 1.25) + 1
    return k


def _gegenbauer_blocks(n: int, cgs: list[float], kmax: int, block: int = 2048):
    """Rows r_k = C_k^{(n-1)/2}(x) / C_k^{(n-1)/2}(1), k = 0..kmax, one column
    per x in ``cgs``, in long double, as (k0, rows k0..k0+block-1) blocks."""
    x = np.array(cgs, dtype=LD)
    theta = np.arccos(x)
    prev2 = prev1 = None
    for k0 in range(0, kmax + 1, block):
        k1 = min(k0 + block, kmax + 1)
        if n == 1:
            rows = np.cos(np.arange(k0, k1, dtype=LD)[:, None] * theta[None, :])
        elif n == 3:
            # closed form sin((k+1) theta) / ((k+1) sin theta), away from x = +-1
            kk = np.arange(k0 + 1, k1 + 1, dtype=LD)[:, None]
            rows = np.sin(kk * theta[None, :]) / (kk * np.sin(theta)[None, :])
        else:
            rows = np.empty((k1 - k0, len(cgs)), dtype=LD)
            for j in range(k0, k1):
                if j < 2:
                    row = x if j else np.ones_like(x)
                else:
                    row = ((2 * j + n - 3) * x * prev1 - (j - 1) * prev2) / (j + n - 2)
                rows[j - k0] = row
                prev2, prev1 = prev1, row
        yield k0, rows


class References:
    """Reference values for item keys; off-diagonal kernels are batched per n."""

    def __init__(self):
        # key -> (value, error of the reference, magnitude of the summed terms)
        self.cache: dict[tuple, tuple[float, float, float]] = {}

    def prefetch(self, keys) -> None:
        keys = {tuple(k) for k in keys}
        self._zetas([k for k in keys if k[0] in ("Z", "spec_zeta", "hurwitz")]
                    + [("spec_zeta", k[1], k[2]) for k in keys
                       if k[0] == "zeta_kernel" and k[3] == 1.0])
        groups: dict[int, list[tuple]] = {}
        for key in keys:
            if key[0] in ("heat_kernel", "zeta_kernel") and key[3] != 1.0 and key not in self.cache:
                if key[0] == "heat_kernel" and key[1] == 1:
                    continue
                groups.setdefault(key[1], []).append(key)
        for n, group in groups.items():
            self._kernels(n, group)

    def _zetas(self, keys: list[tuple]) -> None:
        """Zeta keys, batched: Hurwitz all at once, sphere zetas per n."""
        keys = sorted({k for k in keys if k not in self.cache})
        batches: dict[tuple, list[tuple]] = {}
        for key in keys:
            batches.setdefault(key[:1] if key[0] == "hurwitz" else key[:2], []).append(key)
        for (kind, *n), group in batches.items():
            if kind == "hurwitz":
                vals, errs = hurwitz_ld([k[1] for k in group], [k[2] for k in group])
            else:
                fn = Z_ld if kind == "Z" else spec_zeta_ld
                vals, errs = fn(n[0], [k[2] for k in group])
            for key, val, err in zip(group, vals, errs):
                self.cache[key] = (float(val), float(err), abs(float(val)))

    def _kernels(self, n: int, keys: list[tuple]) -> None:
        """Off-diagonal kernels of one n, one Gegenbauer recurrence for all.

        Keys sharing (kind, t or s, cutoff) form a group whose weights
        d_k e^{-lambda_k t} or d_k lambda_k^{-s} are applied to the rows of
        every x of the group at once; heat sums run to a cutoff past 1e-40,
        zeta sums to twice the library's terms, plus a certified tail.
        """
        cgs = sorted({k[3] for k in keys})
        col = {c: i for i, c in enumerate(cgs)}
        groups: dict[tuple, list[tuple]] = {}
        for key in keys:
            if key[0] == "heat_kernel":
                g = ("heat", key[2], _heat_cutoff(n, key[2]))
            else:
                g = ("zeta", key[2], 2 * key[4])
            groups.setdefault(g, []).append(key)
        kmax = max(g[2] for g in groups)
        d, lam = _spectrum_ld(n, kmax)
        cols = {g: [col[k[3]] for k in ks] for g, ks in groups.items()}
        sums = {g: np.zeros(len(ks), dtype=LD) for g, ks in groups.items()}
        mags = {g: np.zeros(len(ks), dtype=LD) for g, ks in groups.items()}
        for k0, rows in _gegenbauer_blocks(n, cgs, kmax):
            for g in groups:
                kind, param, k_last = g
                lo, hi = (k0 if kind == "heat" else max(k0, 1)), min(k0 + len(rows), k_last + 1)
                if hi <= lo:
                    continue
                if kind == "heat":
                    w = d[lo:hi] * np.exp(-lam[lo:hi] * LD(param))
                else:
                    w = d[lo:hi] * lam[lo:hi] ** -LD(param)
                block = rows[lo - k0:hi - k0][:, cols[g]]
                sums[g] += w @ block
                mags[g] += np.abs(w) @ np.abs(block)
        vol = float(volume(n))
        # |r_k| <= 1, so the omitted zeta tail is at most the spectral zeta tail
        tails = {}
        for k_last in {g[2] for g in groups if g[0] == "zeta"}:
            zgs = [g for g in groups if g[0] == "zeta" and g[2] == k_last]
            tails.update(zip(zgs, spectral_tail_bounds(n, [g[1] for g in zgs], k_last) / vol))
        for g, ks in groups.items():
            kind, param, k_last = g
            tail = tails.get(g, 0.0)
            for key, total, mag in zip(ks, sums[g], mags[g]):
                scale = float(mag) / vol
                # the recurrence loses at most O(k) ulps of long double per term
                self.cache[key] = (float(total) / vol, tail + (k_last + 8) * EPS_LD * scale, scale)

    def get(self, key) -> tuple[float, float, float]:
        key = tuple(key)
        if key in self.cache:
            return self.cache[key]
        kind = key[0]
        if kind in ("Z", "spec_zeta", "hurwitz"):
            self._zetas([key])
            return self.cache[key]
        elif kind == "heat_trace":
            out = heat_trace_ref(key[1], key[2])
        elif kind == "heat_kernel":
            n, t, cg = key[1:4]
            vol = float(volume(n))
            if cg == 1.0:
                val, err = heat_trace_ref(n, t)
                out = val / vol, err / vol
            elif n == 1:
                theta = mp.jtheta(3, mp.acos(cg) / 2, mp.exp(-mp.mpf(t))) / (2 * mp.pi)
                # the terms are e^{-k^2 t} cos(k gamma), summing in modulus to the trace
                out = float(theta), 0.0, heat_trace_ref(1, t)[0] / (2 * math.pi)
            else:
                self._kernels(n, [key])
                return self.cache[key]
        elif kind == "zeta_kernel":
            n, s, cg = key[1:4]
            if cg == 1.0:
                val, err, _ = self.get(("spec_zeta", n, s))
                vol = float(volume(n))
                out = val / vol, err / vol
            else:
                self._kernels(n, [key])
                return self.cache[key]
        elif kind == "gegenbauer":
            k, n, t = key[1:4]
            if n == 1:
                out = float(mp.cos(k * mp.acos(t))), 0.0
            else:
                alpha = mp.mpf(n - 1) / 2
                out = float(mp.gegenbauer(k, alpha, t) / mp.gegenbauer(k, alpha, 1)), 0.0, 1.0
        else:
            raise KeyError(f"no reference for {key!r}")
        if len(out) == 2:
            out = out + (abs(out[0]),)
        self.cache[key] = out
        return out


def ref_key(item: dict):
    ref = item.get("ref")
    if ref is None:
        return None
    if ref[0] == "zeta_kernel":
        return tuple(ref) + (item["terms"],)
    return tuple(ref)


def classify_item(item: dict, refs: References) -> set[str]:
    """Failure categories of one certified result (empty when it passes).

    ``wrong_value`` marks a miss beyond what float64 evaluation of the
    summed terms can explain, (terms + 8) eps sum|terms|, on top of the
    bound; it implies ``ref_mismatch``.
    """
    if "raised" in item:
        return {"raised"}
    if "verdict" in item:
        return set() if item["verdict"] else {"verdict_false"}
    if "spectrum" in item:
        n, rows = item["spectrum"]
        for k, lam, mu, d in rows:
            if lam != k * (k + n - 1) or mu != (k + (n - 1) / 2) ** 2 or d != _multiplicity(k, n):
                return {"ref_mismatch", "wrong_value"}
        return set()
    if "volume" in item:
        n, vol = item["volume"]
        ok = abs(vol - float(volume(n))) <= 8 * EPS * float(volume(n))
        return set() if ok else {"ref_mismatch", "wrong_value"}
    bad = set()
    value, bound, tol = item["value"], item.get("bound"), item.get("tol")
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return {"ref_mismatch", "wrong_value"}
    if bound is not None and tol is not None and not bound <= tol:
        bad.add("bound_over_tol")
    key = ref_key(item)
    if key is None:
        return bad
    ref, ref_err, scale = refs.get(key)
    # closed forms carry no bound; they must meet the series tolerance
    allowed = tol * max(1.0, abs(ref)) if bound is None else bound
    miss = abs(value - ref) - allowed - ref_err
    if not miss <= item.get("slack", 16 * EPS * max(abs(ref), abs(value))):
        bad.add("ref_mismatch")
        if not miss <= (item.get("terms", 1) + 8) * EPS * max(scale, abs(value)):
            bad.add("wrong_value")
    return bad


KNOWN_DEFECTS = {
    "roundoff_unchecked": "the certified sums (shifted_power_sum, the zeta series, heat_kernel, "
                          "zeta_kernel, heat_trace) check the truncation tail against tol and then "
                          "add a float64 roundoff allowance without checking the total, so near "
                          "the roundoff floor they return a bound over tol (e.g. "
                          "heat_kernel(1e-4, n=20, cos_gamma=0.5) at tol 1e-8: bound 1.06; "
                          "heat_trace(1e-4, 4) at tol 1e-10: bound 4.4e-8; hurwitz_zeta(4.94, "
                          "0.053) at tol 1e-10: bound 3.4e-9); refusing there is the fix",
    "kernel_recurrence_roundoff": "the roundoff allowance of heat_kernel and zeta_kernel "
                                  "leaves out the error of the Gegenbauer recurrence, so off "
                                  "the diagonal the value can miss its bound by a few ulps "
                                  "of the summed terms",
}
SUM_KINDS = ("Z", "spec_zeta", "hurwitz", "heat_kernel", "heat_trace", "zeta_kernel")
# the library's default term budget, an upper bound on terms_used where a record omits it
DEFAULT_MAX_K = 200_000


def known_defect(item: dict, cats: set[str], refs: References) -> str | None:
    """The KNOWN_DEFECTS entries that together explain every failure of
    ``item`` ("+"-joined), or None.

    roundoff_unchecked explains ``bound_over_tol`` of a certified sum whose
    bound meets tol once the library's roundoff allowance, (log2(terms) +
    2) eps sum|terms|, is taken off (so the truncation itself was
    certified), and ``raised`` of one whose float64 roundoff floor, 64 eps
    sum|terms|, reaches tol (where refusing is the fix).
    kernel_recurrence_roundoff explains ``ref_mismatch`` without
    ``wrong_value`` of an off-diagonal kernel value.
    """
    ref = item.get("ref")
    if not cats or ref is None:
        return None
    found, left = [], set(cats)
    if ref[0] in SUM_KINDS and left & {"raised", "bound_over_tol"} and (
            "raised" not in left or ref[0] != "zeta_kernel"):
        _, _, scale = refs.get(ref_key(item))
        if "raised" in left:
            explained = 64 * EPS * scale >= item["tol"]
        else:
            allowance = (math.log2(item.get("terms", DEFAULT_MAX_K)) + 2) * EPS * scale
            explained = item["bound"] - allowance <= item["tol"]
        if explained:
            found.append("roundoff_unchecked")
            left -= {"raised", "bound_over_tol"}
    if ref[0] in ("heat_kernel", "zeta_kernel") and ref[3] != 1.0 and left == {"ref_mismatch"}:
        found.append("kernel_recurrence_roundoff")
        left.clear()
    return "+".join(found) if not left else None


def cli_items(rc: int, stdout: str, expect: dict | None = None) -> list[dict]:
    """Items of one CLI invocation from its exit code and JSON records.

    ``expect`` holds the ``--tol`` the call passed, if any, and the result
    a refused call was asked for (its smallest t), so that a refusal can be
    matched against KNOWN_DEFECTS.
    """
    expect = expect or {}
    if rc == 1:
        return [dict(expect, raised="exit code 1")]
    items = []
    if rc not in (0, 2):
        items.append({"raised": f"exit code {rc}"})
    for line in stdout.splitlines():
        rec = json.loads(line)
        items.extend(_record_items(rec, expect.get("tol")))
    if rc == 2 and not any("verdict" in i and not i["verdict"] for i in items):
        items.append({"verdict": False, "what": "exit code 2"})
    return items


def _record_items(rec: dict, tol: float | None = None) -> list[dict]:
    """Items of one CLI record; ``tol`` is the ``--tol`` passed, else the default."""
    cmd = rec["command"]
    tol = CLI_TOL.get(cmd) if tol is None else tol
    if cmd == "spectrum":
        n = rec["n"]
        return [{"spectrum": [n, [[rec["k"], rec["lambda"], rec["mu"], rec["d"]]]]}]
    if cmd == "zeta":
        n, s = rec["n"], rec["s"]
        if rec["form"] == "hurwitz":
            ref = ["hurwitz", 2.0 * s, (n - 1) / 2.0]
        else:
            ref = ["Z", n, s]
        return [{"ref": ref, "value": rec["value"], "bound": rec["tail_bound"],
                 "tol": tol, "terms": rec["terms_used"]}]
    if cmd == "kernel":
        n, cg = rec["n"], rec["cos_gamma"]
        if rec["kind"] == "heat":
            ref = ["heat_kernel", n, rec["t"], cg]
        else:
            ref = ["zeta_kernel", n, rec["s"], cg]
        return [{"ref": ref, "value": rec["value"], "bound": rec["tail_bound"],
                 "tol": tol, "terms": rec["terms_used"]}]
    if cmd == "heat-trace":
        return [{"ref": ["heat_trace", rec["n"], rec["t"]], "value": rec["value"],
                 "bound": rec["tail_bound"], "tol": tol,
                 "terms": rec["terms_used"]}]
    if cmd == "mellin-check":
        return [
            {"verdict": rec["verdict"], "what": "mellin == direct"},
            {"ref": None, "value": rec["mellin"], "bound": rec["mellin_bound"],
             "tol": MELLIN_POLICY_TOL},
            {"ref": None, "value": rec["direct"], "bound": rec["direct_bound"],
             "tol": MELLIN_POLICY_TOL},
        ]
    if cmd == "dominate":
        n, s = rec["n"], rec["s"]
        return [
            {"ref": ["spec_zeta", n, s], "value": rec["zeta_laplace"],
             "bound": rec["laplace_bound"], "tol": tol},
            {"ref": ["Z", n, s], "value": rec["zeta_shifted"],
             "bound": rec["shifted_bound"], "tol": tol},
            {"verdict": rec["dominated"], "what": "dominate"},
        ]
    if cmd == "majorize":
        # the deck builds y from x by Robin Hood transfers, so x majorizes y
        return [{"verdict": rec["ok"], "what": "majorize"}]
    if cmd == "specfun":
        fn = rec["fn"]
        if fn == "zeta":
            ref = ["hurwitz", rec["s"], 1.0]
        elif fn == "hurwitz":
            ref = ["hurwitz", rec["s"], rec["a"]]
        else:
            # no bound is reported for the recurrence on |r_k| <= 1; allow O(k) ulps
            return [{"ref": ["gegenbauer", rec["k"], rec["n"], rec["t"]],
                     "value": rec["value"], "bound": rec["tail_bound"], "tol": None,
                     "slack": (rec["k"] + 1) * 16 * EPS}]
        return [{"ref": ref, "value": rec["value"], "bound": rec["tail_bound"],
                 "tol": tol, "terms": rec["terms_used"]}]
    if cmd == "kato":
        return [{"verdict": rec["verdict"], "what": f"kato {rec['check']}"}]
    raise ValueError(f"unknown record command {cmd!r}")


def classify_outputs(outputs: dict, refs: References, expects: dict | None = None) -> dict:
    """Per output key, (failure categories, known defect or None) of each result.

    ``expects`` maps an output key to the CLI task's ``expect``, if any.
    """
    items_by_key = {}
    for key, out in outputs.items():
        if isinstance(out, dict) and "stdout" in out:
            items_by_key[key] = cli_items(out["rc"], out["stdout"], (expects or {}).get(key))
        else:
            items_by_key[key] = out
    refs.prefetch(k for items in items_by_key.values() for i in items
                  if "raised" not in i and (k := ref_key(i)) is not None)
    out = {}
    for key, items in items_by_key.items():
        results = []
        for item in items:
            cats = classify_item(item, refs)
            results.append((cats, known_defect(item, cats, refs)))
        out[key] = results
    return out
