"""Sphere zeta functions: certificates, closed forms, and domination."""

import math

import mpmath as mp
import pytest

from spherezeta.truncation import TruncationPolicy
from spherezeta.zeta import (
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
    from spherezeta.zeta import _JMAX, _regularized_tail, _spectral_tail

    for ds in (0.3, 1.7, 6.0):
        s = n / 2.0 + ds
        for k_last in (8, 16, 64, 1024):
            regularized, spectral = _looped_tails(s, n, k_last, _JMAX)
            assert _regularized_tail(s, n, k_last) == regularized
            assert _spectral_tail(s, n, k_last) == spectral


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
