"""Sphere spectrum: eigenvalues, multiplicities, and the exact shift."""

import math
import sys
import threading

import numpy as np
import pytest

from spherezeta import spectrum, zeta
from spherezeta.kernels import heat_trace
from spherezeta.specfun import gegenbauer_ratio, gegenbauer_ratio_series, hurwitz_via_binomial
from spherezeta.spectrum import (
    SpectrumEntry,
    SphereSpec,
    _spectral_arrays,
    eigenvalue,
    mult_poly_coeffs,
    multiplicity,
    multiplicity_product_form,
    shifted_eigenvalue,
    spectrum_slice,
    sphere_spec,
)
from spherezeta.truncation import TruncationPolicy
from spherezeta.zeta import compare_zeta_pair, regularized_zeta, spectral_zeta
from _oracles import mult_u_poly, ref_mult


def _loop_slice(n, kmax):
    # spectrum_slice as one row per k, with C(k + n, n) and C(k + n - 2, n)
    # each stepped on its own
    rows, up, down = [], 1, 0
    for k in range(kmax + 1):
        if k > 0:
            up = up * (k + n) // k
        if k == 2:
            down = 1
        elif k > 2:
            down = down * (k + n - 2) // (k - 2)
        rows.append((k, float(k * (k + n - 1)), (2 * k + n - 1) ** 2 / 4.0, up - down))
    return rows


def _typed_bits(rows):
    return [tuple((type(x), x.hex() if isinstance(x, float) else x) for x in r) for r in rows]


@pytest.mark.parametrize("n,vol", [
    (1, 2 * math.pi),
    (2, 4 * math.pi),
    (3, 2 * math.pi**2),
    (4, 8 * math.pi**2 / 3),
])
def test_sphere_volumes(n, vol):
    assert sphere_spec(n).volume == pytest.approx(vol, rel=1e-15)


def test_sphere_spec_constants():
    for n in range(1, 9):
        spec = sphere_spec(n)
        assert spec.rho == (n - 1) / 2.0
        assert spec.shift == spec.rho * spec.rho


def test_sphere_spec_domain():
    with pytest.raises(ValueError):
        sphere_spec(0)
    with pytest.raises(ValueError):
        sphere_spec(2.0)  # ints only; 2.0 would silently break lru caches


def test_eigenvalues():
    assert eigenvalue(0, 5) == 0
    for n in range(1, 7):
        assert eigenvalue(1, n) == n
        for k in range(0, 50):
            assert eigenvalue(k, n) == k * (k + n - 1)
    with pytest.raises(ValueError):
        eigenvalue(-1, 2)


def test_shift_completes_the_square_exactly():
    # both sides are exactly representable, so demand bitwise equality
    for n in range(1, 7):
        spec = sphere_spec(n)
        for k in range(0, 1001):
            assert shifted_eigenvalue(k, n) == eigenvalue(k, n) + spec.shift


def test_multiplicity_against_binomial_sum():
    for n in range(1, 7):
        for k in range(0, 201):
            assert multiplicity(k, n) == ref_mult(k, n)


def test_multiplicity_two_routes_agree_exactly():
    for n in range(1, 7):
        for k in range(0, 201):
            assert multiplicity(k, n) == multiplicity_product_form(k, n)


def test_multiplicity_closed_families():
    assert multiplicity(0, 1) == 1
    for k in range(1, 61):
        assert multiplicity(k, 1) == 2
    for k in range(0, 61):
        assert multiplicity(k, 2) == 2 * k + 1
        assert multiplicity(k, 3) == (k + 1) ** 2


def test_multiplicity_domain():
    with pytest.raises(ValueError):
        multiplicity(-1, 3)
    with pytest.raises(ValueError):
        multiplicity_product_form(2, 0)


def test_spectrum_slice_structure():
    entries = spectrum_slice(3, 10)
    assert len(entries) == 11
    for e in entries:
        assert e.lam == float(eigenvalue(e.k, 3))
        assert e.mu == shifted_eigenvalue(e.k, 3)
        assert e.d == multiplicity(e.k, 3)
    with pytest.raises(ValueError):
        spectrum_slice(2, -1)


def test_spectrum_slice_multiplicities_are_exact():
    # the integer steps of spectrum_slice against both library formulas
    for n in range(1, 31):
        entries = spectrum_slice(n, 400)
        assert [e.k for e in entries] == list(range(401))
        for e in entries:
            assert type(e.d) is int
            assert e.d == multiplicity(e.k, n) == multiplicity_product_form(e.k, n)
    with pytest.raises(ValueError):
        spectrum_slice(0, 3)


def test_mult_poly_matches_exact_expansion():
    # the integer expansion in v = 2u rounds each a_m as float(Fraction) does,
    # bit for bit, up to the largest dimension the float series accept
    for n in [*range(1, 61), 100, 200, 342]:
        got = mult_poly_coeffs(n)
        want = tuple(float(c) for c in mult_u_poly(n))
        assert got == want


def test_mult_poly_evaluates_to_integer_multiplicities():
    # Horner in u = k + rho must reproduce the exact integers to rounding
    for n in range(1, 7):
        coeffs = mult_poly_coeffs(n)
        rho = (n - 1) / 2.0
        for k in range(1, 2001, 97):
            u = k + rho
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * u + c
            want = multiplicity(k, n)
            assert acc == pytest.approx(want, rel=5e-13)


@pytest.mark.parametrize("n", range(1, 31))
def test_spectrum_rows_equal_the_loop_form(n):
    # the bulk rows have the values and the types of the loop, row by row
    want = _typed_bits(_loop_slice(n, 2000))
    for kmax in (0, 1, 2, 3, 61, 2000):
        assert _typed_bits(spectrum_slice(n, kmax)) == want[:kmax + 1]


@pytest.mark.parametrize("n,kmax", [(2**31 - 5, 0), (2**31 - 5, 4), (2**40 + 3, 6),
                                    (3**45, 5)])
def test_spectrum_rows_past_int64_equal_the_loop_form(n, kmax):
    # lambda_k and (2k + n - 1)^2 leave int64 here, and are still rounded once
    assert _typed_bits(spectrum_slice(n, kmax)) == _typed_bits(_loop_slice(n, kmax))


def test_spectrum_entries_are_named_tuples():
    e = spectrum_slice(3, 4)[2]
    assert type(e) is SpectrumEntry and e._fields == ("k", "lam", "mu", "d")
    assert e == (2, 8.0, 9.0, 9)
    k, lam, mu, d = e
    assert (k, lam, mu, d) == (e.k, e.lam, e.mu, e.d)
    with pytest.raises(AttributeError):
        e.d = 10


@pytest.mark.parametrize("call,name", [
    (lambda: eigenvalue(2.5, 3), "degree k"), (lambda: eigenvalue(-1, 3), "degree k"),
    (lambda: shifted_eigenvalue(1.5, 3), "degree k"),
    (lambda: multiplicity(2.5, 3), "degree k"),
    (lambda: multiplicity_product_form(True, 3), "degree k"),
    (lambda: spectrum_slice(3, 2.5), "kmax"), (lambda: spectrum_slice(3, True), "kmax"),
    (lambda: gegenbauer_ratio(2.5, 3, 0.1), "degree k"),
    (lambda: gegenbauer_ratio_series(3, 0.1, 2.5), "kmax"),
    (lambda: hurwitz_via_binomial(2.3, 0.3, 80.0), "m_max"),
    (lambda: compare_zeta_pair(3.0, 2, 10.5), "kmax"),
    (lambda: compare_zeta_pair(3.0, 2, False), "kmax"),
    (lambda: TruncationPolicy(max_k=20.5), "max_k"),
    (lambda: TruncationPolicy(max_k=True), "max_k"),
])
def test_a_nonintegral_index_is_refused_before_any_summing(monkeypatch, call, name):
    # eigenvalue(2.5, 3) returned 11.25 and compare_zeta_pair summed both
    # zetas before a bare TypeError; TruncationPolicy took max_k = 20.5
    def no_sums(*args):
        raise AssertionError("summed before the index was checked")

    monkeypatch.setattr(zeta, "spectral_zeta", no_sums)
    monkeypatch.setattr(zeta, "regularized_zeta", no_sums)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("call", [
    lambda i: eigenvalue(i, 3), lambda i: shifted_eigenvalue(i, 3),
    lambda i: multiplicity(i, 3), lambda i: spectrum_slice(3, i),
    lambda i: gegenbauer_ratio(i, 3, 0.1), lambda i: gegenbauer_ratio_series(3, 0.1, i).tolist(),
    lambda i: hurwitz_via_binomial(2.3, 0.3, 8 * i),
    lambda i: compare_zeta_pair(3.0, 2, i).zeta_laplace,
    lambda i: (TruncationPolicy(max_k=i), type(TruncationPolicy(max_k=i).max_k)),
])
def test_a_numpy_integer_index_is_taken_as_an_int(call):
    assert call(np.int64(6)) == call(6)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40, 100])
@pytest.mark.parametrize("kmax", [1, 7, 300])
def test_spectral_arrays_exact_length_and_multiplicities(n, kmax):
    lam, u, d = _spectral_arrays(n, kmax)
    assert len(lam) == len(u) == len(d) == kmax
    for k in range(1, kmax + 1):
        assert lam[k - 1] == k * (k + n - 1)
        assert u[k - 1] == k + (n - 1) / 2
        exact = ref_mult(k, n)
        # the running binomial product rounds at most twice per factor, and
        # not at all while its partial products stay below 2^53 (n <= 8 here)
        assert abs(d[k - 1] - exact) <= 2 * n * 2.0**-52 * exact
        if n <= 8:
            assert d[k - 1] == exact


def test_sphere_spec_refuses_an_overflowing_volume():
    # Gamma(171.5) is the last half-integer Gamma below the double range
    assert sphere_spec(342).volume == 2.0 * math.pi**171.5 / math.gamma(171.5)
    assert 0.0 < sphere_spec(342).volume < 1e-200
    with pytest.raises(ValueError, match="n = 343 exceeds 342"):
        sphere_spec(343)


def test_spectral_arrays_name_an_overflowing_multiplicity():
    # d_k of S^300 first leaves the double range at k = 1025: a request up to
    # 1024 is finite whatever its power-of-two padding holds, one past it is
    # refused by name instead of summing inf into a NaN bound
    assert np.all(np.isfinite(_spectral_arrays(300, 1024)[2]))
    with pytest.raises(OverflowError, match="S\\^300 overflows a double from k = 1025 on, "
                                            "below the K = 1025 asked for"):
        _spectral_arrays(300, 1025)
    assert np.all(np.isfinite(_spectral_arrays(300, 1024)[2]))
    with pytest.raises(OverflowError, match="S\\^340 overflows a double from k = 840 on"):
        heat_trace(1e-4, 340)


def test_sphere_spec_is_computed_once_per_dimension():
    assert sphere_spec(7) is sphere_spec(7)
    for n in (1, 2, 3, 16, 341):
        rho = (n - 1) / 2.0
        vol = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        assert sphere_spec(n) == SphereSpec(n=n, rho=rho, shift=rho * rho, volume=vol)
    for bad in (343, 0):
        with pytest.raises(ValueError):
            sphere_spec(bad)
    assert sphere_spec.cache_info().currsize <= 342


@pytest.mark.parametrize("call", [
    lambda: spectrum_slice(2.5, 3), lambda: spectrum_slice(2.0, 3),
    lambda: multiplicity(2, 2.5), lambda: multiplicity_product_form(2, 3.0),
    lambda: eigenvalue(2, 1.5), lambda: shifted_eigenvalue(1, 0),
    lambda: mult_poly_coeffs(3.0), lambda: sphere_spec(2.0), lambda: sphere_spec(True),
])
def test_a_fractional_or_nonpositive_dimension_is_refused(call):
    # spectrum_slice(2.5, 3) used to return fractional "multiplicities"
    with pytest.raises(ValueError, match="sphere dimension n must be a positive integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda n: spectral_zeta(3.0, n), lambda n: regularized_zeta(3.0, n),
    lambda n: heat_trace(0.5, n), lambda n: spectrum_slice(n, 6),
    lambda n: multiplicity(4, n), lambda n: eigenvalue(4, n), lambda n: mult_poly_coeffs(n),
    lambda n: gegenbauer_ratio_series(n, 0.3, 40).tolist(), lambda n: sphere_spec(n),
    lambda n: spectrum_slice(n + 57, 80), lambda n: multiplicity_product_form(80, n + 57),
])
def test_a_numpy_integer_dimension_is_accepted(call):
    # an integral n of another integer type gives the result of the int, also
    # where the exact multiplicities leave the int64 range (n = 60, k = 80)
    assert call(np.int64(3)) == call(3)


def test_spectral_arrays_grow_in_place_of_a_rebuild():
    # interleaved n with growing and shrinking K: every view has the bits of
    # a fresh build from k = 1, only the last n is kept, whole, and no view
    # can be written
    calls = [(3, 10), (3, 300), (5, 40), (3, 17), (3, 1025), (8, 2), (2, 70), (9, 5),
             (40, 600), (3, 64), (3, 2000), (5, 4096), (1, 1), (5, 100), (40, 1200)]
    for n, kmax in calls:
        got = _spectral_arrays(n, kmax)
        want = spectrum._spectral_range(n, 1, kmax)
        for g, w in zip(got, want):
            assert len(g) == kmax and g.tobytes() == w.tobytes()
            with pytest.raises(ValueError):
                g[0] = 1.0
        held_n, held = spectrum._last_arrays
        assert held_n == n
        assert kmax <= len(held[0]) and len(held[0]) & (len(held[0]) - 1) == 0


def test_a_kept_n_serves_a_shorter_request_without_a_build(monkeypatch):
    _spectral_arrays(6, 700)
    held = spectrum._last_arrays

    def no_build(*args):
        raise AssertionError("spectral arrays rebuilt for a kept n")

    monkeypatch.setattr(spectrum, "_spectral_range", no_build)
    for kmax in (0, 1, 300, 700, 1024):
        got = _spectral_arrays(6, kmax)
        assert [len(g) for g in got] == [kmax] * 3
        assert all(g.base is h for g, h in zip(got, held[1]))
    assert spectrum._last_arrays is held


def test_spectral_arrays_under_concurrent_callers():
    # more threads than cores, each rebuilding and reading several n: every
    # view must still have the bits of a fresh build
    calls = [(n, kmax) for n in (2, 3, 5, 7, 11, 13) for kmax in (9, 130, 33, 1500, 260)]
    errors = []

    def work(offset):
        try:
            for i in range(len(calls)):
                n, kmax = calls[(i + offset) % len(calls)]
                got = _spectral_arrays(n, kmax)
                want = spectrum._spectral_range(n, 1, kmax)
                if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                    errors.append((n, kmax))
        except Exception as exc:  # noqa: BLE001 -- reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
