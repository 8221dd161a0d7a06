"""Sphere zeta functions: certificates, closed forms, and domination."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from spherezeta import specfun
from spherezeta.kernels import KernelQuery, zeta_kernel
from spherezeta.specfun import hurwitz_zeta, riemann_zeta
from spherezeta.truncation import DEFAULT_POLICY, TruncationPolicy
from spherezeta.zeta import (
    _regularized_tail,
    _spectral_tail,
    closed_form_Z,
    compare_zeta_pair,
    hurwitz_style_Z,
    regularized_zeta,
    spectral_zeta,
)
from _oracles import (
    ref_hurwitz,
    ref_mult,
    ref_regularized_zeta,
    ref_riemann,
    ref_spectral_zeta,
    summed_series,
)

TIGHT = TruncationPolicy(max_k=400_000, tol=1e-12)

SGRID = [
    (n, n / 2.0 + ds) for n in (1, 2, 3, 4) for ds in (0.75, 1.5, 2.5)
]


@pytest.mark.parametrize("n,s", SGRID)
def test_spectral_zeta_certificate(n, s):
    r = spectral_zeta(s, n)
    assert r.tail_bound <= 1e-10
    assert abs(r.value - ref_spectral_zeta(s, n)) <= r.tail_bound


@pytest.mark.parametrize("n,s", SGRID)
def test_regularized_zeta_certificate(n, s):
    r = regularized_zeta(s, n)
    assert r.tail_bound <= 1e-10
    assert abs(r.value - ref_regularized_zeta(s, n)) <= r.tail_bound


def test_spectral_zeta_anchors():
    # circle: sum 2 k^-2s, so s = 1 gives pi^2 / 3
    r = spectral_zeta(1.0, 1, TIGHT)
    assert abs(r.value - math.pi**2 / 3) <= r.tail_bound
    # S^2 at s = 2 telescopes: sum (2k+1)/[k(k+1)]^2 = sum 1/k^2 - 1/(k+1)^2 = 1
    r = spectral_zeta(2.0, 2, TIGHT)
    assert abs(r.value - 1.0) <= r.tail_bound
    assert r.value == pytest.approx(1.0, abs=5e-13)


def test_regularized_zeta_anchors():
    tight = TIGHT
    # circle: shift is zero, so this is again 2 zeta_R(2s)
    r = regularized_zeta(1.0, 1, tight)
    assert abs(r.value - math.pi**2 / 3) <= r.tail_bound
    # S^2: sum (2k+1)(k+1/2)^-4 = 2 sum (k+1/2)^-3 = 14 zeta_R(3) - 16
    r = regularized_zeta(2.0, 2, tight)
    assert r.value == pytest.approx(14 * ref_riemann(3.0) - 16.0, abs=1e-11)
    # S^3: sum (k+1)^2 (k+1)^-4 = zeta_R(2) - 1
    r = regularized_zeta(2.0, 3, tight)
    assert r.value == pytest.approx(math.pi**2 / 6 - 1.0, abs=1e-12)


def test_zeta_domain_errors():
    for n in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            spectral_zeta(n / 2.0, n)
        with pytest.raises(ValueError):
            regularized_zeta(n / 2.0, n)
    with pytest.raises(ValueError):
        spectral_zeta(2.0, 0)


@pytest.mark.parametrize("n,s", SGRID)
def test_closed_form_matches_high_precision(n, s):
    assert closed_form_Z(s, n) == pytest.approx(
        ref_regularized_zeta(s, n), abs=1e-10
    )


@pytest.mark.parametrize("n,s", SGRID)
def test_closed_form_matches_series(n, s):
    r = regularized_zeta(s, n)
    assert abs(closed_form_Z(s, n) - r.value) <= 1e-8


def test_closed_form_domain():
    with pytest.raises(ValueError):
        closed_form_Z(3.0, 5)
    with pytest.raises(ValueError):
        closed_form_Z(1.0, 2)


@pytest.mark.parametrize("s", [0.75, 1.0, 1.5, 2.0, 3.0])
def test_hurwitz_style_Z_at_unit_shift(s):
    r = hurwitz_style_Z(s, 1.0, TIGHT)
    assert abs(r.value - ref_riemann(2.0 * s)) <= r.tail_bound
    assert r.tail_bound <= 1e-12


@pytest.mark.parametrize("s,c", [(1.0, 0.5), (1.5, 0.25), (2.0, 0.9), (3.0, 2.5)])
def test_hurwitz_style_Z_general_shift(s, c):
    r = hurwitz_style_Z(s, c)
    assert abs(r.value - ref_hurwitz(2.0 * s, c)) <= r.tail_bound


def test_hurwitz_style_Z_domain():
    with pytest.raises(ValueError):
        hurwitz_style_Z(0.5, 1.0)
    with pytest.raises(ValueError):
        hurwitz_style_Z(2.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ds", [0.5, 1.0, 2.0])
def test_shifted_series_dominated(n, ds):
    s = n / 2.0 + ds if ds == 0.5 else (float(n) if ds == 1.0 else n + 1.0)
    pair = compare_zeta_pair(s, n, kmax=200)
    assert pair.dominated
    assert pair.first_violation is None
    # strict gap: the shift strictly enlarges every eigenvalue for n >= 2
    assert pair.zeta_shifted.value < pair.zeta_laplace.value


def test_circle_series_coincide():
    pair = compare_zeta_pair(1.5, 1, kmax=200)
    assert pair.dominated
    combined = pair.zeta_laplace.tail_bound + pair.zeta_shifted.tail_bound
    assert abs(pair.zeta_laplace.value - pair.zeta_shifted.value) <= combined


def test_compare_zeta_pair_domain():
    with pytest.raises(ValueError):
        compare_zeta_pair(2.0, 2, kmax=0)


def test_compare_zeta_pair_kmax_within_term_budget(monkeypatch):
    import spherezeta.zeta as zeta_mod

    def no_arrays(*args):
        raise AssertionError("spectral arrays built for an over-budget kmax")

    monkeypatch.setattr(zeta_mod, "_spectral_arrays", no_arrays)
    with pytest.raises(ValueError, match="term budget"):
        compare_zeta_pair(2.0, 2, kmax=100_000_000)
    with pytest.raises(ValueError, match="max_k=50"):
        compare_zeta_pair(2.0, 2, kmax=51, policy=TruncationPolicy(max_k=50))


def test_loose_policy_is_still_honest():
    loose = TruncationPolicy(max_k=200_000, tol=1e-6)
    for n, s in ((2, 2.0), (4, 3.25)):
        r = spectral_zeta(s, n, loose)
        assert abs(r.value - ref_spectral_zeta(s, n)) <= r.tail_bound
        assert r.tail_bound <= 1e-6


def test_spectral_tail_not_yet_contracting_raises_k():
    # at K = 16 the binomial expansion of the n = 40 tail is not contracting
    # yet; the bound is infinite there, so the ladder doubles K
    r = spectral_zeta(20.5, 40)
    assert r.terms_used == 32
    assert r.tail_bound <= 1e-10
    # terms fall like 2/39! k^-2, so the sum past k = 400 is below 3e-49,
    # far under the returned bound (~9e-47); exact multiplicities
    with mp.workdps(30):
        ref = mp.fsum(ref_mult(k, 40) * mp.mpf(k * (k + 39)) ** mp.mpf(-20.5)
                      for k in range(1, 401))
    assert abs(r.value - float(ref)) <= r.tail_bound
    assert regularized_zeta(20.5, 40).terms_used == 16


@pytest.mark.parametrize("s,n", [(10.6, 20), (20.5, 40)])
def test_oracle_refuses_unconverged_expansion(s, n):
    # the expansion ratio (rho/(1+rho))^2 is 0.82 at n = 20 and 0.90 at
    # n = 40; by j = 160 the terms are still far above 1e-40 of the total
    # (at n = 40 the j = 0 term is ~2e-48, where an absolute 1e-40 cutoff
    # used to stop and return it against the true 5.9e-32)
    with pytest.raises(ArithmeticError, match="not converged"):
        ref_spectral_zeta(s, n)


def _looped_tails(s, n, k_last, jmax=4):
    # the tails written out as separate loops over the multiplicity
    # polynomial, one per expansion term, as zeta._poly_tail replaces them
    from spherezeta.spectrum import mult_poly_coeffs
    from spherezeta.truncation import power_tail

    rho, coeffs = (n - 1) / 2.0, mult_poly_coeffs(n)
    reg_est = reg_bound = est = bound = 0.0
    for m, a_m in enumerate(coeffs):
        if a_m != 0.0:
            e, b = power_tail(2.0 * s - m, rho, k_last + 1)
            reg_est += a_m * e
            reg_bound += abs(a_m) * b
    g = 1.0
    for j in range(jmax + 1):
        if j > 0:
            g *= (s + j - 1.0) / j
        w = g * rho ** (2 * j)
        if w == 0.0:
            break
        for m, a_m in enumerate(coeffs):
            if a_m != 0.0:
                e, b = power_tail(2.0 * s + 2 * j - m, rho, k_last + 1)
                est += w * a_m * e
                bound += w * abs(a_m) * b
    if rho > 0.0:
        w_next = g * (s + jmax) / (jmax + 1.0) * rho ** (2 * (jmax + 1))
        rem = 0.0
        for m, a_m in enumerate(coeffs):
            if a_m != 0.0:
                e, b = power_tail(2.0 * s + 2 * (jmax + 1) - m, rho, k_last + 1)
                rem += abs(a_m) * (e + b)
        z = k_last + 0.5 + rho
        ratio = rho * rho * (s + jmax + 1.0) / ((jmax + 2.0) * z * z)
        bound = math.inf if ratio >= 1.0 else bound + w_next * rem / (1.0 - ratio)
    return (reg_est, reg_bound), (est, bound)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20, 40])
def test_tails_equal_looped_reference(n):
    from spherezeta.zeta import _JMAX

    for ds in (0.3, 1.7, 6.0):
        s = n / 2.0 + ds
        for k_last in (8, 16, 64, 1024):
            regularized, spectral = _looped_tails(s, n, k_last, _JMAX)
            assert _regularized_tail(n, s, k_last) == regularized
            assert _spectral_tail(n, s, k_last) == spectral


@pytest.mark.parametrize("call", [
    lambda: spectral_zeta(3.0, 2.5), lambda: regularized_zeta(3.0, 2.0),
    lambda: compare_zeta_pair(3.0, 2.0, 10), lambda: closed_form_Z(3.0, 2.0),
])
def test_a_float_dimension_is_refused_before_any_summing(call):
    # these raised a bare TypeError from inside the sums
    with pytest.raises(ValueError, match="sphere dimension n must be a positive integer"):
        call()


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fn", [regularized_zeta, spectral_zeta, closed_form_Z,
                                lambda s, n: hurwitz_style_Z(s, 1.0),
                                lambda s, n: compare_zeta_pair(s, n, 10)])
def test_a_nonfinite_exponent_is_refused_up_front(fn, s):
    # s = inf used to walk the K ladder to max_k and fail on a nan tail bound
    with pytest.raises(ValueError):
        fn(s, 2)


def _bits(fn, *args):
    # (value, terms_used, tail_bound) in hex, or the refusal's type and message
    try:
        r = fn(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)
    return r.value.hex(), r.terms_used, r.tail_bound.hex()


_ORACLE_POLICIES = [DEFAULT_POLICY, TruncationPolicy(tol=1e-6), TruncationPolicy(tol=1e-13),
                    TruncationPolicy(max_k=64), TruncationPolicy(max_k=400_000, tol=1e-14)]


def _former_spectral(s, n, policy):
    return summed_series(s, n, policy, _spectral_tail, lambda lam, u: np.power(lam, -s))


def _former_regularized(s, n, policy):
    return summed_series(s, n, policy, _regularized_tail, lambda lam, u: np.power(u, -2.0 * s))


@pytest.mark.parametrize("n", [*range(1, 21), 40, 100, 200, 342])
def test_zetas_are_their_former_certified_sums_bit_for_bit(n):
    # on the diagonal every r_k is exactly 1 and division by the unit volume
    # is exact, so the zonal sum gives the former driver's bits, refusals
    # (the term budget, the total bound, an overflowing d_k) included
    for ds in (0.51, 0.75, 1.0, 2.5, 6.0, 40.0):
        s = n / 2.0 + ds
        for pol in _ORACLE_POLICIES:
            assert _bits(spectral_zeta, s, n, pol) == _bits(_former_spectral, s, n, pol)
            assert _bits(regularized_zeta, s, n, pol) == _bits(_former_regularized, s, n, pol)


@pytest.mark.parametrize("n,s", [(0, 2.0), (-1, 2.0), (2.5, 3.0), (343, 200.0), (400, 250.0),
                                 (2, 1.0), (2, 0.5), (3, -1.0), (2, math.nan), (2, math.inf),
                                 (2, -math.inf), (2, 1e308)])
def test_zetas_refuse_what_their_former_driver_refused(n, s):
    assert _bits(spectral_zeta, s, n, DEFAULT_POLICY)[0] is ValueError
    assert _bits(spectral_zeta, s, n, DEFAULT_POLICY) == _bits(_former_spectral, s, n,
                                                               DEFAULT_POLICY)
    assert _bits(regularized_zeta, s, n, DEFAULT_POLICY) == _bits(_former_regularized, s, n,
                                                                  DEFAULT_POLICY)


@pytest.mark.parametrize("fn", [spectral_zeta, regularized_zeta])
def test_a_repeated_zeta_call_is_a_rung_store_hit(fn):
    specfun._zonal_rung.cache_clear()
    first = fn(3.25, 4)
    before = specfun._zonal_rung.cache_info()
    assert (before.misses, before.currsize) == (1, 1)
    assert fn(3.25, 4) == first
    after = specfun._zonal_rung.cache_info()
    assert after.hits == before.hits + 1
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def _mp_sphere_head(n, s, kind, cos_gamma=1.0):
    # the first three terms at 40 digits: past them these huge-s sums add
    # less than 4^(-s) times a power of k, far under the least double
    with mp.workdps(40):
        sv, rho, total = mp.mpf(s), mp.mpf(n - 1) / 2, mp.mpf(0)
        gamma = mp.acos(cos_gamma)
        for k in range(1, 4):
            lam = mp.mpf(k * (k + n - 1))
            term = lam ** -sv if kind == "spectral" else (k + rho) ** (-2 * sv)
            total += ref_mult(k, n) * term * (mp.cos(k * gamma) if kind == "kernel" else 1)
        return float(total / (2 * mp.pi) if kind == "kernel" else total)


@pytest.mark.parametrize("s", [1e155, 1e300, 8e307])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_huge_exponents_certify_or_refuse_by_name(n, s):
    # p (p + 1) in the midpoint bound overflowed while z^(-p-2) underflowed,
    # a binomial weight of the spectral tail overflowed against a tail of 0,
    # and a head term 0.5^(-s) overflowed in np.power: each gave a nan bound
    # (a refusal "tail bound nan") or a numpy warning
    calls = [
        (lambda: riemann_zeta(s), lambda: ref_riemann(s)),
        (lambda: hurwitz_zeta(s, 1.0), lambda: ref_hurwitz(s, 1.0)),
        (lambda: hurwitz_zeta(s, 0.5), None),
        (lambda: hurwitz_style_Z(s, 1.0), lambda: ref_riemann(2.0 * s)),
        (lambda: regularized_zeta(s, n), lambda: _mp_sphere_head(n, s, "regularized")),
        (lambda: spectral_zeta(s, n), lambda: _mp_sphere_head(n, s, "spectral")),
    ] + [(lambda cg=cg: zeta_kernel(s, KernelQuery(n, cg)),
          lambda cg=cg: _mp_sphere_head(n, s, "kernel", cg)) for cg in (1.0, 0.5, -0.7)]
    certified = 0
    for call, ref in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                r = call()
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                assert "nan" not in str(exc).lower()
                continue
        assert abs(r.value - ref()) <= r.tail_bound
        certified += 1
    # the sums at shift 1 are 1, the regularized zeta 2 (n = 1) or 0.0, and
    # for n = 1 the spectral zeta 2 and the kernel cos(gamma) / pi
    assert certified == (8 if n == 1 else 4)


def test_an_overflowing_exponent_is_refused_by_name():
    for fn in (riemann_zeta, lambda s: hurwitz_zeta(s, 0.5)):
        with pytest.raises(ValueError, match="finite exponent p > 1, not p = inf"):
            fn(math.inf)
    with pytest.raises(ValueError, match="finite exponent p > 1, not p = inf"):
        hurwitz_style_Z(1e308, 1.0)
    for fn in (spectral_zeta, regularized_zeta, lambda s, n: zeta_kernel(s, KernelQuery(n, 0.5))):
        with pytest.raises(ValueError, match="exponent 2s overflows a double at s = 1e\\+308"):
            fn(1e308, 2)
