"""Heat and zeta kernels on the unit n-sphere, and the Mellin bridge.

All kernels are zonal: they depend on the points x, y only through
cos(gamma) = <x, y>, and are expanded in normalized Gegenbauer ratios r_k,

    heat:  K_t(x, y)      = (1/V_n) sum_{k>=0} d_k e^{-lambda_k t} r_k,
    zeta:  zeta_s(x, y)   = (1/V_n) sum_{k>=1} d_k lambda_k^(-s) r_k,

with V_n the sphere volume.  Both sum d_k r_k / V_n, with the k = 0 heat
term 1/V_n as the offset, by one ``specfun._zonal_sum`` call each; the heat
trace Tr e^{t Delta} = V_n K_t(x, x) is the same sum on the diagonal, where
every r_k is exactly 1, at volume 1.  A tail's sign is unknown off the
diagonal, so the kernel tails give estimate 0 and rest on |r_k| <= 1: the
heat family bounds d_k(n) <= 2 (k+1)^(n-1) and closes with an
incomplete-Gaussian integral; the zeta family takes the spectral zeta
tail's estimate plus its error bound (``zeta``).

``mellin_zeta_kernel`` reproduces the zeta kernel from the heat kernel via

    zeta_s(x, y) = (1/Gamma(s)) int_0^inf t^(s-1) (K_t(x, y) - 1/V_n) dt,

split into a head near t = 0, Gauss-Legendre panels in u = log t from the
head cut up to a cutoff T, and a far tail.  One envelope
E(t) >= Tr e^(t Delta) - 1 (``_log_trace_envelope``) bounds the head by its
integral, the panel error by its values on Bernstein ellipses
(``_quadrature_bound``) and, as it decays like e^(-n t) past t = 1/2, the far
tail by E(T) e^(nT) n^(-s) Gamma(s, nT), where Gamma(s, x) <= x^(s-1) e^(-x)
for s <= 1 and x^(s-1) e^(-x) / (1 - (s-1)/x) for s > 1, x > s - 1 (integrate
t^(s-1) <= x^(s-1) e^((s-1)(t-x)/x), from log t <= log x + (t-x)/x), both
capped at Gamma(s).  The node series and floating-point roundoff are certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import zeta  # read at call time, so a heat call leaves a lazy zeta unrun
from .specfun import _zonal_sum, gegenbauer_ratio_series
from .spectrum import _spectral_arrays, sphere_spec
from .truncation import (
    _EPS,
    DEFAULT_POLICY,
    AccuracyError,
    EvalResult,
    TruncationPolicy,
    _roundoff_allowance,
    smallest_k,
)


@dataclass(frozen=True)
class KernelQuery:
    """Zonal kernel evaluation request: dimension n <= 342, cos(gamma), accuracy."""

    n: int
    cos_gamma: float
    policy: TruncationPolicy = DEFAULT_POLICY

    def __post_init__(self):
        # a numpy integer is kept as the int it equals
        object.__setattr__(self, "n", sphere_spec(self.n).n)
        if not (-1.0 <= self.cos_gamma <= 1.0):
            raise ValueError("cos_gamma must lie in [-1, 1]")


_MAX_PANELS = 1 << 10  # of 16 Mellin nodes each; bounds CPU time and memory


def _heat_tail_bound(n: int, t: float, k_last: int) -> float:
    """Certified bound on sum_{k > k_last} d_k exp(-lambda_k t).

    Uses d_k <= 2 (k+1)^(n-1) <= 2^n k^(n-1) and lambda_k >= k^2; valid
    once the summand is decreasing, i.e. k_last + 1 >= sqrt((n-1)/(2t)).
    Returns inf when the monotonicity threshold has not been reached, and
    when the bound itself exceeds the float range.
    """
    c = float(k_last + 1)
    if n > 1 and c * c < (n - 1) / (2.0 * t):
        return math.inf
    ect = math.exp(-t * c * c)
    # I_m = int_c^inf x^(m-1) e^(-t x^2) dx by the standard recursion
    try:
        vals = [0.5 * math.sqrt(math.pi / t) * math.erfc(c * math.sqrt(t)), ect / (2.0 * t)]
        for m in range(3, n + 1):
            vals.append(c ** (m - 2) * ect / (2.0 * t) + (m - 2) / (2.0 * t) * vals[m - 3])
        return 2.0**n * (c ** (n - 1) * ect + vals[n - 1])
    except OverflowError:
        pass
    if 2.0 * t == math.inf:
        # log(2t) overflows, and the tail, at most 2^n sum_{k > k_last}
        # k^(n-1) e^(-t k^2), is far below the least subnormal; 0 at t = inf
        return 0.0 if t == math.inf else math.ulp(0.0)
    # the same recursion on logs, where a power of c or of 2 overflows; the
    # erfc underflows first, so its log uses erfc(x) <= e^(-x^2) / (x sqrt(pi))
    x, log_2t = c * math.sqrt(t), math.log(2.0 * t)
    erfc = math.erfc(x)
    log_erfc = math.log(erfc) if erfc > 1e-300 else -x * x - math.log(x * math.sqrt(math.pi))
    logs = [math.log(0.5 * math.sqrt(math.pi / t)) + log_erfc, -t * c * c - log_2t]
    for m in range(3, n + 1):
        logs.append(np.logaddexp((m - 2) * math.log(c) - t * c * c - log_2t,
                                 math.log((m - 2) / (2.0 * t)) + logs[m - 3]))
    log_b = n * math.log(2.0) + np.logaddexp((n - 1) * math.log(c) - t * c * c, logs[n - 1])
    return math.exp(log_b) if log_b < 709.0 else math.inf


def _heat_k_min(n: int, t: float) -> int:
    # first K past the monotonicity threshold of _heat_tail_bound; finite even
    # where (n-1)/(2t) overflows, so smallest_k refuses at the term budget
    return max(8, math.ceil(min(math.sqrt((n - 1) / (2.0 * t)), 2.0**62)))


def _heat_tail(n: int, t: float, k_last: int) -> tuple[float, float]:
    return 0.0, _heat_tail_bound(n, t, k_last)


def _zeta_tail(n: int, s: float, k_last: int) -> tuple[float, float]:
    # |sum_{k > k_last} d_k lambda_k^(-s) r_k| is at most the sum without r_k
    return 0.0, sum(zeta._spectral_tail(n, s, k_last))


def _heat_decay(lam, u, t: float):
    # lambda_k >= 1, so e^(-lambda_k t) is 0.0 in floats for every t past 746;
    # the cap keeps -lambda_k t finite there
    return np.exp(-lam * min(t, 1e3))


def heat_kernel(t: float, q: KernelQuery) -> EvalResult:
    """Zonal heat kernel K_t at cos(gamma), certified to q.policy.tol."""
    if not (t > 0.0):
        raise ValueError("time t must be positive")
    return _zonal_sum(q.n, q.cos_gamma, q.policy, _heat_decay, _heat_tail, t,
                      _heat_k_min(q.n, t), sphere_spec(q.n).volume, 1.0)


def zeta_kernel(s: float, q: KernelQuery) -> EvalResult:
    """Zonal zeta kernel at cos(gamma) for finite s > n/2, certified to q.policy.tol."""
    zeta._require_exponent(s, q.n)
    return _zonal_sum(q.n, q.cos_gamma, q.policy, zeta._zeta_decay, _zeta_tail, s, 8,
                      sphere_spec(q.n).volume)


def heat_trace(t: float, n: int,
               policy: TruncationPolicy = DEFAULT_POLICY) -> EvalResult:
    """Tr e^{t Delta} = sum_{k>=0} d_k e^{-lambda_k t}, certified: the heat
    kernel's sum on the diagonal, where every r_k is 1, at unit volume."""
    if not (t > 0.0):
        raise ValueError("time t must be positive")
    n = sphere_spec(n).n
    return _zonal_sum(n, 1.0, policy, _heat_decay, _heat_tail, t, _heat_k_min(n, t),
                      1.0, 1.0)


def circle_heat_oracle(t: float, gamma: float) -> float:
    """Independent S^1 heat kernel: classical Fourier cosine series.

    (1/2pi) (1 + 2 sum_{k>=1} e^{-k^2 t} cos k gamma), summed to machine
    tail; shares nothing with the Gegenbauer machinery above.
    """
    if not (t > 0.0):
        raise ValueError("time t must be positive")
    kcut = int(math.ceil(math.sqrt(45.0 / t))) + 3
    acc = 0.0
    for k in range(kcut, 0, -1):
        acc += math.exp(-(k * k) * t) * math.cos(k * gamma)
    return (1.0 + 2.0 * acc) / (2.0 * math.pi)


def _log_upper_gamma(s: float, x: float) -> float:
    """Log of the module docstring's upper bound on Gamma(s, x), for x > 0."""
    if s > 1.0 and x <= s - 1.0:
        return math.lgamma(s)
    log_b = (s - 1.0) * math.log(x) - x - math.log1p(-max(s - 1.0, 0.0) / x)
    return min(log_b, math.lgamma(s))


def _log_trace_envelope(n: int, log_tau, s: float | None = None):
    """Log of E(tau) >= Tr e^(tau Delta) - 1, which bounds V_n |K_t - 1/V_n| for
    Re t >= tau as |r_k| <= 1: 2^n (e^(-tau) + Gamma(n/2) tau^(-n/2) / 2), from
    tau = 1/2 on capped by E(1/2) e^(-n (tau - 1/2)), as every excited mode has
    lambda_k >= n; E is non-increasing.  Given s, the log of the integral of the
    uncapped form against t^(s-1) over (0, tau] once e^(-t) <= 1."""
    lg_half = math.lgamma(n / 2.0) - math.log(2.0)
    if s is not None:
        return n * math.log(2.0) + s * log_tau + np.logaddexp(
            -math.log(s), lg_half - 0.5 * n * log_tau - math.log(s - n / 2.0))
    tau = np.exp(log_tau)
    log_e = np.logaddexp(-tau, lg_half - 0.5 * n * log_tau)
    # tau0 = 1/2 minimises e^(n tau) tau^(-n/2), the term of E that dominates at large n
    log_cap = np.logaddexp(-0.5, lg_half + 0.5 * n * math.log(2.0)) - n * (tau - 0.5)
    return n * math.log(2.0) + np.where(tau < 0.5, log_e, np.minimum(log_e, log_cap))


def _gl_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss-Legendre on equal panels of [a, b]."""
    from numpy.polynomial.legendre import leggauss  # the Mellin route only

    x16, w16 = leggauss(16)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x16).ravel(), (w16 * half).ravel()


def _quadrature_bound(n: int, s: float, log_scale: float, u_lo: float, u_hi: float,
                      panels: int) -> float:
    """Error bound of ``_gl_nodes(u_lo, u_hi, panels)`` on the Mellin integrand
    e^(s u) (K_{e^u} - 1/V_n) / Gamma(s), log_scale = log(Gamma(s) V_n).

    On [c - h, c + h] the Bernstein ellipse of semi-minor axis b = pi/4 has
    rho = (b + sqrt(b^2 + h^2))/h and semi-major axis a = h (rho + 1/rho)/2,
    and there |integrand| <= M = e^(s (c + a) - log_scale) envelope(e^(c - a)
    cos b).  16-point Gauss is exact to degree 31; summing |a_k| |I(T_k) -
    I_16(T_k)| <= 2 M rho^-k 32/15 over even k >= 32 bounds the panel error by
    (64/15) h M rho^-32 / (1 - rho^-2) (Trefethen, SIAM Rev. 50 (2008) Thm 4.5)."""
    b = math.pi / 4.0
    h = 0.5 * (u_hi - u_lo) / panels
    rho = (b + math.hypot(b, h)) / h
    a = 0.5 * h * (rho + 1.0 / rho)
    c = u_lo + h * (2.0 * np.arange(panels) + 1.0)
    log_m = s * (c + a) - log_scale + _log_trace_envelope(n, c - a + math.log(math.cos(b)))
    log_err = (float(np.logaddexp.reduce(log_m)) + math.log(64.0 / 15.0 * h)
               - 32.0 * math.log(rho) - math.log1p(-rho**-2))
    return math.exp(log_err) if log_err < 709.0 else math.inf


def mellin_zeta_kernel(s: float, q: KernelQuery) -> EvalResult:
    """Zeta kernel recovered from the heat kernel by Mellin transform.  Head,
    far tail, node series and panel quadrature each get a certified quarter
    of q.policy.tol, roundoff comes on top, and a total over tol raises."""
    n, vol = q.n, sphere_spec(q.n).volume
    zeta._require_exponent(s, n)
    tol = q.policy.tol
    # every budget and weight below is divided by Gamma(s), carried as its
    # log so that no intermediate overflows however large s is
    try:
        lg_s = math.lgamma(s)
    except OverflowError:
        raise AccuracyError(f"log Gamma(s) overflows a double at s = {s!r}") from None

    def head_bound(log_tau: float) -> float:
        # a float, not a numpy scalar: past s ~ 1.8e305 the log is below
        # -DBL_MAX, and -inf is its limit
        return math.exp(float(_log_trace_envelope(n, log_tau, s)) - lg_s) / vol

    target = 0.25 * tol
    lo, hi = -300.0, 0.0
    if head_bound(lo) > target:
        raise AccuracyError("head budget unreachable at any positive cutoff")
    if head_bound(hi) <= target:
        lo = hi  # the head may be cut as late as t = 1
    else:
        # head_bound is increasing in tau: keep lo feasible, hi infeasible
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if head_bound(mid) > target:
                hi = mid
            else:
                lo = mid
    t_min = math.exp(lo)
    head = head_bound(lo)

    def far_bound(t_cut: float) -> float:
        # int_T^inf t^(s-1) E(T) e^(-n (t - T)) dt = E(T) e^(nT) n^(-s) Gamma(s, nT)
        return math.exp(_log_trace_envelope(n, math.log(t_cut)) + n * t_cut
                        + _log_upper_gamma(s, n * t_cut) - s * math.log(n) - lg_s) / vol

    # the cutoff doubles from 30 while the far tail misses its share and the
    # node weights e^(s u - lgamma(s)) stay finite; past that the final check refuses
    t_cut = 30.0
    while (far := far_bound(t_cut)) > target and s * math.log(2.0 * t_cut) - lg_s < 700.0:
        t_cut *= 2.0

    # Gauss-Legendre panels in u = log t on [t_min, t_cut], from one per 1.25
    u_lo, u_hi = math.log(t_min), math.log(t_cut)
    panels = max(2, math.ceil((u_hi - u_lo) / 1.25))
    while ((quad := _quadrature_bound(n, s, lg_s + math.log(vol), u_lo, u_hi, panels))
           > target and 2 * panels <= _MAX_PANELS):
        panels *= 2
    if not (bound := head + far + quad) <= tol:
        # the node series and roundoff only add to this: refuse before them
        raise AccuracyError(f"certified error {bound:.3e} exceeds budget {tol:.3e}")

    # per-node series accuracy target, so that the node errors add up to at
    # most tol/4; capping its log near 700 keeps it finite and only lowers it
    node_tol = target * s * math.exp(min(lg_s - s * math.log(t_cut),
                                         700.0 - math.log(max(target * s, 1.0))))

    k_cap = smallest_k(lambda k: (0.0, _heat_tail_bound(n, t_min, k) / vol), node_tol,
                       _heat_k_min(n, t_min), q.policy.max_k)[0]
    lam, _, d = _spectral_arrays(n, k_cap)
    w = d * gegenbauer_ratio_series(n, q.cos_gamma, k_cap)[1:]

    def series_node(t: float) -> tuple[float, float]:
        # the heat tail bound falls with t, so t >= t_min meets node_tol by k_cap
        k, _, bound = smallest_k(lambda j: (0.0, _heat_tail_bound(n, t, j) / vol), node_tol,
                                 min(_heat_k_min(n, t), k_cap), k_cap)
        e = np.exp(-lam[:k] * t)
        return (float(np.dot(w[:k], e)) / vol,
                bound + _roundoff_allowance(float(np.dot(np.abs(w[:k]), e)) / vol, k))

    # jac carries the weights of t^(s-1) dt = e^(s u) du, divided by Gamma(s)
    u, w_u = _gl_nodes(u_lo, u_hi, panels)
    jac = w_u * np.exp(s * u - lg_s)
    f, berr = np.array([series_node(t) for t in np.exp(u).tolist()]).T
    # roundoff: the exponent s u - lgamma(s) of each weight is off by about
    # (2 |s u| + |lgamma(s)|) eps, and the sum by its allowance; eps scales
    # each part first (exactly, a power of two), so the sum cannot overflow
    mag = np.abs(jac * f)
    # an underflowed weight is below the least subnormal, and its node's value below |f| + berr
    lost = math.ulp(0.0) * float(np.sum((np.abs(f) + berr)[jac == 0.0]))
    if not math.isfinite(lost):
        raise AccuracyError(f"node values overflow where weights underflow at s = {s!r}")
    err = float(head + far + np.abs(jac) @ berr + lost + quad
                + (2.0 * _EPS * np.abs(s * u) + _EPS * abs(lg_s) + 4.0 * _EPS) @ mag
                + _roundoff_allowance(float(np.sum(mag)), len(u)))
    if not err <= tol:
        raise AccuracyError(f"certified error {err:.3e} exceeds budget {tol:.3e}")
    return EvalResult(value=float(jac @ f), terms_used=len(u), tail_bound=err)
