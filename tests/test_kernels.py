"""Heat and zeta kernels on spheres, plus the Mellin reconstruction."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from spherezeta import kernels, specfun, spectrum, zeta
from spherezeta.kernels import (
    KernelQuery,
    _heat_k_min,
    _heat_tail_bound,
    _log_trace_envelope,
    _log_upper_gamma,
    circle_heat_oracle,
    heat_kernel,
    heat_trace,
    mellin_zeta_kernel,
    zeta_kernel,
)
from spherezeta.specfun import gegenbauer_ratio_series
from spherezeta.spectrum import _spectral_arrays, sphere_spec
from spherezeta.truncation import AccuracyError, TruncationError, TruncationPolicy
from spherezeta.zeta import _spectral_tail, spectral_zeta
from _oracles import certified_sum, ref_circle_heat, ref_circle_zeta_kernel, ref_mult

TIGHT = TruncationPolicy(max_k=400_000, tol=1e-13)


def q(n, cg, policy=TIGHT):
    return KernelQuery(n=n, cos_gamma=cg, policy=policy)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("gamma", [0.0, 1.3, math.pi])
def test_circle_oracle_matches_theta_function(t, gamma):
    assert circle_heat_oracle(t, gamma) == pytest.approx(
        ref_circle_heat(t, gamma), abs=1e-13
    )


def test_circle_oracle_integrates_to_one():
    # stochastic completeness: trapezoid over the full circle is spectrally
    # accurate for this trigonometric series
    for t in (0.15, 1.0):
        grid = np.linspace(0.0, 2.0 * math.pi, 513)
        vals = [circle_heat_oracle(t, g) for g in grid]
        integral = np.trapezoid(vals, grid)
        assert integral == pytest.approx(1.0, abs=1e-10)


def test_circle_oracle_long_time_limit():
    assert circle_heat_oracle(60.0, 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-15
    )
    with pytest.raises(ValueError):
        circle_heat_oracle(0.0, 1.0)


def test_heat_kernel_matches_circle_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.0, math.pi))
        r = heat_kernel(t, q(1, math.cos(gamma)))
        assert abs(r.value - circle_heat_oracle(t, gamma)) <= 1e-12


def test_heat_kernel_certificates():
    for n, t, cg in ((2, 0.3, 0.5), (3, 1.0, -0.7), (4, 0.25, 0.9)):
        r = heat_kernel(t, q(n, cg))
        assert r.tail_bound <= 1e-13
        # diagonal value dominates and the kernel stays positive here
        diag = heat_kernel(t, q(n, 1.0))
        assert r.value <= diag.value + 1e-12


def test_heat_kernel_long_time_limit():
    spec = sphere_spec(2)
    r = heat_kernel(50.0, q(2, -0.3))
    assert abs(r.value - 1.0 / spec.volume) <= 1e-12
    assert abs(r.value - 1.0 / (4.0 * math.pi)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_trace_consistency(n, t):
    spec = sphere_spec(n)
    k = heat_kernel(t, q(n, 1.0))
    tr = heat_trace(t, n, TIGHT)
    combined = spec.volume * k.tail_bound + tr.tail_bound
    assert abs(spec.volume * k.value - tr.value) <= max(combined, 1e-12)


def test_heat_kernel_diagonal_maximum():
    for n, t in ((2, 0.3), (3, 1.0)):
        diag = heat_kernel(t, q(n, 1.0)).value
        for cg in np.linspace(-1.0, 0.95, 14):
            assert heat_kernel(t, q(n, float(cg))).value <= diag + 1e-12


def test_heat_trace_values():
    # S^1: 1 + 2 sum e^{-k^2}
    want = 1.0 + 2.0 * sum(math.exp(-k * k) for k in range(1, 30))
    assert heat_trace(1.0, 1, TIGHT).value == pytest.approx(want, abs=1e-13)
    # S^3: sum (k+1)^2 e^{-k(k+2)t} = e^t sum_{m>=1} m^2 e^{-m^2 t}
    want3 = math.e * sum(m * m * math.exp(-m * m) for m in range(1, 30))
    assert heat_trace(1.0, 3, TIGHT).value == pytest.approx(want3, abs=1e-12)


def test_heat_trace_monotone_and_normalized():
    for n in (1, 2, 3, 4):
        assert heat_trace(100.0, n).value == pytest.approx(1.0, abs=1e-12)
        vals = [heat_trace(t, n).value for t in (0.2, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        heat_trace(-1.0, 2)
    with pytest.raises(ValueError):
        heat_trace(1.0, 0)


def test_zeta_kernel_alternating_anchor():
    # n=1, s=1, gamma=pi/2: (1/pi) sum cos(k pi/2)/k^2 = -pi/48.
    # The certificate cannot see the alternating cancellation (it bounds
    # absolute tails, ~1/K here), but the value converges much faster.
    pol = TruncationPolicy(max_k=200_000, tol=1e-5)
    r = zeta_kernel(1.0, KernelQuery(n=1, cos_gamma=math.cos(math.pi / 2.0),
                                     policy=pol))
    want = -math.pi / 48.0
    assert abs(r.value - want) <= r.tail_bound
    assert abs(r.value - want) <= 1e-6


def test_zeta_kernel_diagonal_is_trace():
    # slow 1/K tails at (n, s) = (1, 1) force a loose but honest budget
    for n, s, tol in ((1, 1.0, 1e-4), (2, 2.0, 1e-9)):
        spec = sphere_spec(n)
        pol = TruncationPolicy(max_k=400_000, tol=tol)
        k = zeta_kernel(s, KernelQuery(n=n, cos_gamma=1.0, policy=pol))
        z = spectral_zeta(s, n, pol)
        combined = spec.volume * k.tail_bound + z.tail_bound
        assert abs(spec.volume * k.value - z.value) <= combined


def test_zeta_kernel_diagonal_dominates():
    pol = TruncationPolicy(max_k=200_000, tol=1e-9)
    diag = zeta_kernel(2.0, KernelQuery(n=2, cos_gamma=1.0, policy=pol)).value
    for cg in (-1.0, -0.4, 0.0, 0.6, 0.99):
        r = zeta_kernel(2.0, KernelQuery(n=2, cos_gamma=cg, policy=pol))
        assert abs(r.value) <= diag + 1e-12


def test_zeta_kernel_domain():
    with pytest.raises(ValueError):
        zeta_kernel(1.0, q(2, 0.5))  # needs s > n/2
    with pytest.raises(ValueError):
        heat_kernel(0.0, q(2, 0.5))


def test_query_and_policy_validation():
    with pytest.raises(ValueError):
        KernelQuery(n=0, cos_gamma=0.5)
    with pytest.raises(ValueError):
        KernelQuery(n=2, cos_gamma=1.5)


def test_small_time_budget_refusal():
    tiny = TruncationPolicy(max_k=100, tol=1e-10)
    with pytest.raises(TruncationError):
        heat_kernel(1e-3, KernelQuery(n=4, cos_gamma=0.5, policy=tiny))


MELLIN_POLICY = TruncationPolicy(max_k=2_000_000, tol=1e-7)


@pytest.mark.parametrize("n,s,cg", [
    (2, 2.0, 1.0),
    (1, 1.5, 0.5),
    (2, 1.75, -0.5),
])
def test_mellin_matches_direct_kernel(n, s, cg):
    qq = KernelQuery(n=n, cos_gamma=cg, policy=MELLIN_POLICY)
    direct = zeta_kernel(s, qq)
    bridged = mellin_zeta_kernel(s, qq)
    assert abs(direct.value - bridged.value) <= 1e-6
    assert bridged.tail_bound <= 1e-7


def test_mellin_stable_under_node_doubling(monkeypatch):
    qq = KernelQuery(n=2, cos_gamma=0.5, policy=MELLIN_POLICY)
    base = mellin_zeta_kernel(2.0, qq)
    gl_nodes = kernels._gl_nodes
    monkeypatch.setattr(kernels, "_gl_nodes", lambda a, b, panels: gl_nodes(a, b, 2 * panels))
    fine = mellin_zeta_kernel(2.0, qq)
    assert fine.terms_used == 2 * base.terms_used
    assert abs(base.value - fine.value) <= 1e-9
    assert abs(base.value - fine.value) <= base.tail_bound + fine.tail_bound


@pytest.mark.parametrize("s", [10.0, 30.0, 60.0])
def test_mellin_circle_large_s_certifies(s):
    # the lambda_1 = 1 mode of S^1 keeps mass far out, so the cutoff must
    # grow past 30 before the far tail fits its share
    qq = KernelQuery(n=1, cos_gamma=0.5, policy=MELLIN_POLICY)
    bridged = mellin_zeta_kernel(s, qq)
    assert bridged.tail_bound <= MELLIN_POLICY.tol
    assert abs(bridged.value - ref_circle_zeta_kernel(s, 0.5)) <= bridged.tail_bound


@pytest.mark.parametrize("cg", [-0.6, 0.3, 0.5, 0.9])
def test_mellin_bound_counts_roundoff(cg):
    # the weights e^(s u - lgamma(s)) and the node sum carry a few 1e-16 of
    # float64 roundoff here, over 60 times a bound that leaves roundoff out
    qq = KernelQuery(n=1, cos_gamma=cg, policy=TruncationPolicy(max_k=2_000_000, tol=1e-10))
    bridged = mellin_zeta_kernel(25.5, qq)
    assert abs(bridged.value - ref_circle_zeta_kernel(25.5, cg)) <= bridged.tail_bound


def test_mellin_refuses_where_weights_would_overflow():
    # S^1 at s = 1e4 needs T > s for the far tail, but the cutoff stops
    # doubling once e^(s log 2T - lgamma(s)) would overflow; the refusal must
    # be an AccuracyError, never a NaN value
    with pytest.raises(AccuracyError, match="exceeds budget"):
        mellin_zeta_kernel(1e4, KernelQuery(n=1, cos_gamma=0.5, policy=MELLIN_POLICY))


@pytest.mark.parametrize("s", [100.0, 1e4])
def test_mellin_refuses_before_the_node_series(monkeypatch, s):
    # on S^1 head + far tail + quadrature alone exceed tol here, so the
    # bridge refuses without building the spectrum for the node series
    def unreachable(*args):
        raise AssertionError("node series built for a refused query")

    monkeypatch.setattr(kernels, "_spectral_arrays", unreachable)
    with pytest.raises(AccuracyError, match="exceeds budget"):
        mellin_zeta_kernel(s, KernelQuery(n=1, cos_gamma=0.5, policy=MELLIN_POLICY))


@pytest.mark.parametrize("s", [4.4e17, 1e100, 1e300])
@pytest.mark.parametrize("n", [100, 200, 342])
def test_mellin_huge_s_certifies_or_refuses_naming_s(n, s):
    # every weight e^(s u - lgamma(s)) underflows to 0.0 here, and at n >= 200
    # the node tolerance used to overflow, so 0 x inf made the bound nan; the
    # kernel itself is about (n + 1) n^-s / V_n, far below the least double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = mellin_zeta_kernel(s, KernelQuery(n=n, cos_gamma=0.5))
        except AccuracyError as exc:
            assert f"s = {s!r}" in str(exc) and "nan" not in str(exc)
        else:
            assert math.isfinite(r.tail_bound) and r.tail_bound <= 1e-10
            assert abs(r.value) <= r.tail_bound


def test_heat_kernel_decay_rate_is_spectral_gap():
    # the k >= 1 remainder of the heat kernel decays like e^{-lambda_1 t}
    for n in (1, 2):
        spec = sphere_spec(n)
        f5 = heat_kernel(5.0, q(n, 0.6)).value - 1.0 / spec.volume
        f10 = heat_kernel(10.0, q(n, 0.6)).value - 1.0 / spec.volume
        rate = math.log(f5 / f10) / 5.0
        lam1 = float(n)
        assert abs(rate - lam1) <= 0.05 * lam1


def test_mellin_guard_rails():
    qq = KernelQuery(n=4, cos_gamma=0.5, policy=MELLIN_POLICY)
    with pytest.raises(ValueError):
        mellin_zeta_kernel(1.0, qq)  # needs s > n/2
    hopeless = KernelQuery(n=2, cos_gamma=0.5,
                           policy=TruncationPolicy(tol=1e-300))
    with pytest.raises(AccuracyError):
        mellin_zeta_kernel(2.0, hopeless)
    capped = KernelQuery(n=2, cos_gamma=0.5,
                         policy=TruncationPolicy(max_k=64, tol=1e-7))
    with pytest.raises(TruncationError):
        mellin_zeta_kernel(2.0, capped)


def test_mellin_head_cut_past_the_term_budget_is_a_truncation_error(monkeypatch):
    # t_min ~ 4.8e-15 puts the heat tail's monotonicity threshold at ~1e7 > max_k;
    # the refusal comes before the spectrum for the node series is built
    def unreachable(*args):
        raise AssertionError("node series built for a refused query")

    monkeypatch.setattr(kernels, "_spectral_arrays", unreachable)
    qq = KernelQuery(n=2, cos_gamma=0.5, policy=TruncationPolicy(max_k=2_000_000, tol=1e-7))
    with pytest.raises(TruncationError, match=r"t_min = 4\.845e-15 .* = 1\.016e\+07 on, "
                                              r"past the term budget max_k=2000000"):
        mellin_zeta_kernel(1.5, qq)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_zeta_kernel_high_dimension_certifies(n):
    # the zeta tail uses the exact multiplicity polynomial, so s = n/2 + 1
    # closes within a few terms (the old 2^n d_k bound needed ~2e5 at n = 12)
    s = n / 2.0 + 1.0
    pol = TruncationPolicy(tol=1e-8)
    r = zeta_kernel(s, KernelQuery(n=n, cos_gamma=0.3, policy=pol))
    assert r.tail_bound <= 1e-8
    # brute force to K = 4096: the omitted terms fall like 2/(n-1)! k^-3
    big = 4096
    k = np.arange(1, big + 1)
    d = np.array([float(ref_mult(j, n)) for j in k])
    terms = d * gegenbauer_ratio_series(n, 0.3, big)[1:] * (k * (k + n - 1.0)) ** -s
    brute = math.fsum(terms) / sphere_spec(n).volume
    assert abs(r.value - brute) <= r.tail_bound + 1e-15
    # on the diagonal V_n zeta_s(x, x) is the spectral zeta
    diag = zeta_kernel(s, KernelQuery(n=n, cos_gamma=1.0, policy=pol))
    z = spectral_zeta(s, n, pol)
    vol = sphere_spec(n).volume
    assert abs(vol * diag.value - z.value) <= vol * diag.tail_bound + z.tail_bound


@pytest.mark.parametrize("t,n,tol", [(1e-4, 20, 1e-8), (1e-6, 60, 1e-8)])
def test_heat_kernel_roundoff_floor_refuses(t, n, tol):
    # sum |terms| is ~1e14 (n = 20) and ~6e63 (n = 60), so float64 roundoff
    # alone exceeds tol (these used to return bounds of 1.06 and 4e65)
    with pytest.raises(AccuracyError):
        heat_kernel(t, KernelQuery(n=n, cos_gamma=0.5, policy=TruncationPolicy(tol=tol)))


def test_heat_trace_roundoff_floor_refuses():
    # trace ~1.7e7 at t = 1e-4 on S^4: tol 1e-10 is below its roundoff
    with pytest.raises(AccuracyError):
        heat_trace(1e-4, 4, TruncationPolicy(tol=1e-10))


@pytest.mark.parametrize("t", [1e-320, 5e-324])
@pytest.mark.parametrize("n", [2, 3])
def test_tiny_time_refuses_at_term_budget(t, n):
    # (n-1)/(2t) overflows to inf here; the start rung must stay finite so the
    # ladder refuses at max_k instead of failing to convert inf to an integer
    with pytest.raises(TruncationError, match="term budget"):
        heat_kernel(t, q(n, 0.5))
    with pytest.raises(TruncationError, match="term budget"):
        heat_trace(t, n)


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0, 1.5, 2.5, 5.0, 10.6, 30.5, 60.0])
def test_upper_gamma_bound_against_gammaincc(s):
    # the grid covers x <= s - 1 (capped at Gamma(s)) for s >= 2.5, and
    # x = lambda_1 T past 600 (n = 40 starts the Mellin cutoff at x = 1200);
    # mpmath stands in where gammaincc underflows
    for x in (0.05, 0.3, 1.0, 2.0, 4.5, 10.0, 30.0, 31.0, 60.0, 90.0, 300.0, 600.0,
              1200.0, 2400.0):
        q = gammaincc(s, x)
        if q > 1e-290:
            log_exact = math.log(q) + math.lgamma(s)
        else:
            with mp.workdps(30):
                log_exact = float(mp.log(mp.gammainc(s, x)))
        log_bound = _log_upper_gamma(s, x)
        assert log_bound >= log_exact + math.log1p(-1e-12), (s, x)
        if x > s:
            assert log_bound <= log_exact + math.log(3.0), (s, x)


@pytest.mark.parametrize("s", [172.0, 200.0])
def test_mellin_large_s_certifies_or_refuses(s):
    # Gamma(s) overflows float64 past s = 171.6; the bridge carries its log.
    # On S^1 the lambda_1 = 1 mode puts the integrand's mass near t = s,
    # where the panel bound needs more than the 1024-panel cap; for n >= 2
    # the far tail falls like n^-s.
    with pytest.raises(AccuracyError, match="exceeds budget"):
        mellin_zeta_kernel(s, KernelQuery(n=1, cos_gamma=0.5, policy=MELLIN_POLICY))
    for n in (2, 3):
        qq = KernelQuery(n=n, cos_gamma=0.5, policy=MELLIN_POLICY)
        bridged, direct = mellin_zeta_kernel(s, qq), zeta_kernel(s, qq)
        assert bridged.tail_bound <= MELLIN_POLICY.tol
        assert abs(bridged.value - direct.value) <= bridged.tail_bound + direct.tail_bound


def _exact_heat_tail(n, t, k_last):
    # sum_{k > k_last} d_k e^{-lambda_k t} with exact multiplicities; the
    # summand decreases from k_last + 1 on, so stop once it is negligible
    with mp.workdps(30):
        tt, acc, k = mp.mpf(t), mp.mpf(0), k_last + 1
        while True:
            term = ref_mult(k, n) * mp.exp(-k * (k + n - 1) * tt)
            acc += term
            if term < acc * mp.mpf(10) ** -25:
                return float(acc)
            k += 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
def test_heat_tail_bound_dominates_exact_tail(n):
    # compared after rounding the exact tail to float64: below about 1e-308
    # the bound underflows to 0.0 along with the rounded tail
    for t in (1e-4, 1e-3, 0.01, 0.1, 1.0, 5.0):
        k_min = _heat_k_min(n, t)
        for k_last in (k_min, 2 * k_min, 4 * k_min):
            assert _heat_tail_bound(n, t, k_last) >= _exact_heat_tail(n, t, k_last), (t, k_last)


def _heat_tail_formula(n, t, k_last):
    # the bound _heat_tail_bound evaluates, in 40-digit arithmetic with no
    # overflow: 2^n (c^(n-1) e^(-t c^2) + I_n), I_m by the same recursion
    with mp.workdps(40):
        c, tt = mp.mpf(k_last + 1), mp.mpf(t)
        ect = mp.exp(-tt * c * c)
        vals = [mp.sqrt(mp.pi / tt) / 2 * mp.erfc(c * mp.sqrt(tt)), ect / (2 * tt)]
        for m in range(3, n + 1):
            vals.append(c ** (m - 2) * ect / (2 * tt) + (m - 2) / (2 * tt) * vals[m - 3])
        return 2 ** n * (c ** (n - 1) * ect + vals[n - 1])


@pytest.mark.parametrize("n", [20, 200, 342])
@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_heat_tail_bound_past_the_float_range_of_its_powers(n, t):
    # c^(n-1) and 2^n overflow a double at n = 200 and 342 (a bare
    # OverflowError from the CLI once); the bound is then evaluated on logs
    k_min = _heat_k_min(n, t)
    for k_last in (k_min, 2 * k_min, 4 * k_min, 8 * k_min, 64 * k_min):
        want = _heat_tail_formula(n, t, k_last)
        got = _heat_tail_bound(n, t, k_last)
        if want > 1e308:
            assert got == math.inf, (k_last, want)
        else:
            assert got == pytest.approx(float(want), rel=1e-9, abs=1e-300), k_last
    if n == 200 and t == 0.5:
        for k_last in (2 * k_min, 4 * k_min):
            assert _heat_tail_bound(n, t, k_last) >= _exact_heat_tail(n, t, k_last)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
def test_trace_envelope_dominates_exact_trace(n):
    # the Mellin head, quadrature and far-tail bounds all rest on this envelope
    g, s = math.gamma(n / 2.0), n / 2.0 + 0.75

    def uncapped(tau):
        return 2.0**n * (math.exp(-tau) + g * tau ** (-n / 2.0) / 2.0)

    for tau in (1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 30.0):
        envelope = uncapped(tau)
        if tau >= 0.5:  # lambda_k >= n caps it from tau = 1/2 on
            envelope = min(envelope, uncapped(0.5) * math.exp(-n * (tau - 0.5)))
        assert math.exp(_log_trace_envelope(n, math.log(tau))) == pytest.approx(envelope)
        assert envelope >= _exact_heat_tail(n, tau, 0), tau
        # its integral against t^(s-1) over (0, tau], with e^(-t) <= 1
        head = 2.0**n * (tau**s / s + g * tau ** (s - n / 2.0) / (2.0 * s - n))
        assert math.exp(_log_trace_envelope(n, math.log(tau), s)) == pytest.approx(head)
    # _quadrature_bound takes its maximum at the smallest Re t of each ellipse
    log_env = _log_trace_envelope(n, np.linspace(-10.0, 5.0, 3001))
    assert np.all(np.diff(log_env) <= 0.0)


# --- one K rung per (kind, n, t or s, policy), shared by every angle ---

def _outcome(fn, x, qq):
    # (value, terms_used, tail_bound) in float hex, or (error type, message)
    try:
        r = fn(x, qq)
    except (TruncationError, AccuracyError) as exc:
        return type(exc).__name__, str(exc)
    return r.value.hex(), r.terms_used, r.tail_bound.hex()


_SHARED_POLICIES = [TruncationPolicy(tol=1e-8), TruncationPolicy(tol=1e-12),
                    TruncationPolicy(max_k=64, tol=1e-10)]
_SHARED_ANGLES = [-1.0, -0.6, 0.0, 0.45, 0.9, 1.0]


@st.composite
def _kernel_calls(draw):
    n = draw(st.sampled_from([1, 2, 3, 5]))
    if draw(st.booleans()):
        fn, x = heat_kernel, draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
    else:
        fn, x = zeta_kernel, n / 2.0 + draw(st.sampled_from([1.0, 2.5]))
    return fn, x, q(n, draw(st.sampled_from(_SHARED_ANGLES)),
                    draw(st.sampled_from(_SHARED_POLICIES)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_kernel_calls(), min_size=1, max_size=12))
def test_shared_rungs_match_calls_with_the_store_cleared(calls):
    # interleaved kinds, times, exponents, policies and angles: every result,
    # refusals included, is that of a call made with an empty store
    fresh = []
    for fn, x, qq in calls:
        specfun._zonal_rung.cache_clear()
        fresh.append(_outcome(fn, x, qq))
    specfun._zonal_rung.cache_clear()
    assert [_outcome(fn, x, qq) for fn, x, qq in calls] == fresh


def _unshared_kernel(kind, x, qq):
    # the kernel as one certified_sum call (the oracle) with its own K ladder
    n, vol = qq.n, sphere_spec(qq.n).volume
    if kind == "heat":
        decay, offset = (lambda lam: np.exp(-lam * x)), 1.0 / vol
        tail, k_min = (lambda k: _heat_tail_bound(n, x, k)), _heat_k_min(n, x)
    else:
        decay, offset = (lambda lam: np.power(lam, -x)), None
        tail, k_min = (lambda k: sum(_spectral_tail(n, x, k))), 8

    def terms(k):
        lam, _, d = _spectral_arrays(n, k)
        return d * gegenbauer_ratio_series(n, qq.cos_gamma, k)[1:] * decay(lam) / vol

    return _outcome(lambda _x, _q: certified_sum(terms, lambda k: (0.0, tail(k) / vol),
                                                 qq.policy, k_min, offset), x, qq)


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_shared_rungs_match_one_certified_sum_per_call(n):
    specfun._zonal_rung.cache_clear()
    pol = TruncationPolicy(tol=1e-9)
    for cg in (0.3, -0.8, 1.0, 0.3, 0.0):
        qq = q(n, cg, pol)
        for t in (2e-3, 0.2):
            assert _outcome(heat_kernel, t, qq) == _unshared_kernel("heat", t, qq)
        s = n / 2.0 + 1.25
        assert _outcome(zeta_kernel, s, qq) == _unshared_kernel("zeta", s, qq)


def _trace_outcome(fn, t, n, policy):
    try:
        r = fn(t, n, policy)
    except (TruncationError, AccuracyError, OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return r.value.hex(), r.terms_used, r.tail_bound.hex()


def _certified_sum_trace(t, n, policy):
    # the heat trace as one certified_sum call (the oracle), no r_k and no volume
    def terms(k):
        lam, _, d = _spectral_arrays(n, k)
        return d * np.exp(-lam * t)

    return certified_sum(terms, lambda k: (0.0, _heat_tail_bound(n, t, k)), policy,
                         _heat_k_min(n, t), offset=1.0)


@pytest.mark.parametrize("n", [*range(1, 21), 100, 340, 342])
def test_heat_trace_is_its_certified_sum_form(n):
    # on the diagonal every r_k is exactly 1 and division by the unit volume
    # is exact, so the zonal sum gives the trace's bits, refusals included
    for pol in _SHARED_POLICIES:
        for t in (1e-320, 1e-6, 0.02, 0.7, 50.0, math.inf):
            assert (_trace_outcome(heat_trace, t, n, pol)
                    == _trace_outcome(_certified_sum_trace, t, n, pol))


@pytest.mark.parametrize("n", [1, 300, 340, 342])
@pytest.mark.parametrize("t", [1e300, 1e308, 1.7e308, math.inf])
def test_heat_at_huge_times_is_the_constant_mode(n, t):
    # every excited mode has decayed to 0.0: the trace is 1 and the kernel
    # 1/V_n, with no log of 0 in the tail bound and no overflow in -lambda t
    assert heat_trace(t, n).value == 1.0
    vol = sphere_spec(n).volume
    r = heat_kernel(t, q(n, 0.5, TruncationPolicy(tol=1e-6 / vol)))
    assert r.value == 1.0 / vol
    for k_last in (8, 100):
        bound = _heat_tail_bound(n, t, k_last)
        assert bound == 0.0 if t == math.inf else 0.0 <= bound <= 1e-300


def test_a_refusal_raises_again_at_every_angle():
    specfun._zonal_rung.cache_clear()
    tiny = TruncationPolicy(max_k=100, tol=1e-10)
    msgs = set()
    for cg in (0.5, -0.3, 1.0, 0.5):
        with pytest.raises(TruncationError) as exc:
            heat_kernel(1e-3, q(4, cg, tiny))
        msgs.add(str(exc.value))
    assert len(msgs) == 1 and "term budget" in msgs.pop()
    assert specfun._zonal_rung.cache_info().currsize == 0  # refusals are not kept
    # the roundoff allowance depends on the angle: on S^3 at t = 1e-3 and
    # tol 1e-12 only the diagonal, where |r_k| = 1, blows the budget
    tight = TruncationPolicy(tol=1e-12)
    msgs = set()
    for cg in (0.5, 1.0, -0.5, 1.0, 0.9):
        qq = q(3, cg, tight)
        if cg == 1.0:
            with pytest.raises(AccuracyError) as exc:
                heat_kernel(1e-3, qq)
            msgs.add(str(exc.value))
        else:
            assert _outcome(heat_kernel, 1e-3, qq) == _unshared_kernel("heat", 1e-3, qq)
    assert len(msgs) == 1


def test_kept_decay_vectors_give_the_values_of_a_cleared_store():
    # each rung keeps decay(lambda_k) and d_k for k = 1..K: a sweep with the
    # store warm gives the bits of calls made with it cleared, and each kept
    # vector is a read-only array of its own, no view into the spectral arrays
    pol = TruncationPolicy(tol=1e-9)
    profiles = [(heat_kernel, 2e-3), (heat_kernel, 0.2), (zeta_kernel, 4.25)]
    calls = [(fn, x, q(6, cg, pol)) for cg in (0.3, -1.0, 0.8, 1.0) for fn, x in profiles]
    fresh = []
    for fn, x, qq in calls:
        specfun._zonal_rung.cache_clear()
        fresh.append(_outcome(fn, x, qq))
    specfun._zonal_rung.cache_clear()
    assert [_outcome(fn, x, qq) for fn, x, qq in calls] == fresh
    assert specfun._zonal_rung.cache_info().currsize == len(profiles)
    for tail, decay, x, k_min in (
            (kernels._heat_tail, kernels._heat_decay, 2e-3, _heat_k_min(6, 2e-3)),
            (kernels._zeta_tail, zeta._zeta_decay, 4.25, 8)):
        k, _, _, dec, d = specfun._zonal_rung(tail, decay, 6, x, sphere_spec(6).volume, pol,
                                              k_min)
        lam, u, want_d = spectrum._spectral_range(6, 1, k)
        assert dec.tobytes() == decay(lam, u, x).tobytes()
        assert d.tobytes() == want_d.tobytes()
        for kept in (dec, d):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 1.0
            assert not any(np.shares_memory(kept, a) for a in spectrum._last_arrays[1])
    assert specfun._zonal_rung.cache_info().currsize == len(profiles)


def test_rung_store_is_bounded():
    assert specfun._zonal_rung.cache_info().maxsize == specfun._RUNG_ENTRIES
    for n in (1, 2, 3):
        for t in (0.01, 0.02, 0.04, 0.08, 0.16):
            heat_kernel(t, q(n, 0.5, TruncationPolicy(tol=1e-8)))
            assert specfun._zonal_rung.cache_info().currsize <= specfun._RUNG_ENTRIES


@pytest.mark.parametrize("kind", ["heat", "zeta"])
def test_an_angle_sweep_walks_one_ladder_per_profile(monkeypatch, kind):
    owner, name = (kernels, "_heat_tail_bound") if kind == "heat" else (zeta, "_spectral_tail")
    inner, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    fn, x = (heat_kernel, 1e-3) if kind == "heat" else (zeta_kernel, 3.0)
    pol = TruncationPolicy(tol=1e-8)
    specfun._zonal_rung.cache_clear()
    fn(x, q(3, 0.5, pol))
    one = len(calls)
    assert one >= 2  # at least one rung test and the tail at the chosen K
    specfun._zonal_rung.cache_clear()
    calls.clear()
    for cg in np.linspace(-0.9, 1.0, 8).tolist():
        fn(x, q(3, cg, pol))
    assert len(calls) == one


def test_inputs_are_checked_before_any_summing():
    with pytest.raises(ValueError, match="positive integer"):
        heat_trace(0.5, 2.0)
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            zeta_kernel(s, q(2, 0.5))
        with pytest.raises(ValueError):
            mellin_zeta_kernel(s, q(2, 0.5))
    with pytest.raises(ValueError, match="finite"):
        zeta_kernel(math.inf, q(2, 0.5))
    # every float series takes n through sphere_spec, the trace included
    with pytest.raises(ValueError, match="sphere dimension n = 400 exceeds 342"):
        heat_trace(0.5, 400)
