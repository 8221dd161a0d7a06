"""Zetas, the binomial Hurwitz route, and Gegenbauer ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyt, eval_gegenbauer, eval_legendre

from spherezeta import specfun
from spherezeta.specfun import (
    gegenbauer_ratio,
    gegenbauer_ratio_series,
    hurwitz_via_binomial,
    hurwitz_zeta,
    riemann_zeta,
)
from spherezeta.truncation import AccuracyError, TruncationError, TruncationPolicy
from _oracles import (
    chunked_recurrence,
    legendre_ode_residual,
    legendre_rodrigues_oracle,
    ref_hurwitz,
    ref_riemann,
)

GRID21 = np.linspace(-1.0, 1.0, 21)


@pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0, 4.0, 7.5])
def test_riemann_zeta_certificate(s):
    r = riemann_zeta(s)
    assert abs(r.value - ref_riemann(s)) <= r.tail_bound


def test_riemann_zeta_anchors():
    tight = TruncationPolicy(max_k=400_000, tol=1e-13)
    assert riemann_zeta(2.0, tight).value == pytest.approx(math.pi**2 / 6, abs=1e-13)
    assert riemann_zeta(4.0, tight).value == pytest.approx(math.pi**4 / 90, abs=1e-13)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)


@pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.9, 1.0])
def test_hurwitz_zeta_certificate(s, a):
    r = hurwitz_zeta(s, a)
    assert abs(r.value - ref_hurwitz(s, a)) <= r.tail_bound


def test_hurwitz_zeta_half_anchor():
    # sum (k + 1/2)^-2 = 4 sum odd^-2 = pi^2 / 2
    assert hurwitz_zeta(2.0, 0.5).value == pytest.approx(math.pi**2 / 2, abs=1e-10)


def test_hurwitz_zeta_near_roundoff_floor_refuses():
    # 0.053^-4.94 ~ 2e6, so the float64 roundoff of the sum alone exceeds
    # 1e-10; the truncation fits, the total bound does not
    with pytest.raises(AccuracyError):
        hurwitz_zeta(4.94, 0.053, TruncationPolicy(tol=1e-10))


def test_hurwitz_zeta_domain():
    for bad in ((1.0, 0.5), (2.0, 0.0), (2.0, 1.5)):
        with pytest.raises(ValueError):
            hurwitz_zeta(*bad)


@pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 0.9])
def test_hurwitz_via_binomial_grid(s, rho):
    m_max = 600 if rho > 0.8 else 80
    r = hurwitz_via_binomial(s, rho, m_max)
    true = ref_hurwitz(2.0 * s, rho)
    assert abs(r.value - true) <= r.tail_bound
    assert abs(r.value - true) <= 1e-9


def test_hurwitz_via_binomial_certificate_midrange():
    # modest depth: the certificate must still enclose the true error
    r = hurwitz_via_binomial(1.5, 0.5, 40)
    assert abs(r.value - ref_hurwitz(3.0, 0.5)) <= r.tail_bound
    assert r.tail_bound < 1e-9


def test_hurwitz_via_binomial_leibniz_guard():
    # rho (2s + m) / (m + 1) stays >= 1 at this depth: no valid remainder
    with pytest.raises(TruncationError):
        hurwitz_via_binomial(3.0, 0.9, 5)


def test_hurwitz_via_binomial_domain():
    for bad in ((1.0, 0.5, 10), (2.0, 0.0, 10), (2.0, 1.0, 10), (2.0, 0.5, -1)):
        with pytest.raises(ValueError):
            hurwitz_via_binomial(*bad)


def test_gegenbauer_endpoints_exact():
    for n in range(1, 6):
        for k in range(0, 41):
            assert gegenbauer_ratio(k, n, 1.0) == 1.0
            assert gegenbauer_ratio(k, n, -1.0) == pytest.approx((-1.0) ** k, abs=1e-12)
        assert gegenbauer_ratio(0, n, 0.37) == 1.0
        # the circle path goes through cos(acos t), exact only to the ulp
        if n == 1:
            assert gegenbauer_ratio(1, n, 0.37) == pytest.approx(0.37, abs=1e-15)
        else:
            assert gegenbauer_ratio(1, n, 0.37) == 0.37


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 200),
    n=st.integers(1, 6),
    t=st.floats(-1.0, 1.0),
)
def test_gegenbauer_ratio_bounded(k, n, t):
    assert abs(gegenbauer_ratio(k, n, t)) <= 1.0 + 1e-13


def test_gegenbauer_n2_is_legendre():
    for k in range(0, 51):
        for t in GRID21:
            assert gegenbauer_ratio(k, 2, t) == pytest.approx(
                eval_legendre(k, t), abs=1e-12
            )


def test_gegenbauer_n2_matches_rodrigues():
    for k in range(0, 9):
        for t in GRID21:
            assert gegenbauer_ratio(k, 2, t) == pytest.approx(
                legendre_rodrigues_oracle(k, t), abs=1e-12
            )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gegenbauer_higher_dimensions(n):
    alpha = (n - 1) / 2.0
    for k in range(0, 31):
        norm = eval_gegenbauer(k, alpha, 1.0)
        for t in GRID21[::2]:
            want = eval_gegenbauer(k, alpha, t) / norm
            assert gegenbauer_ratio(k, n, t) == pytest.approx(want, abs=1e-11)


def test_gegenbauer_circle_is_chebyshev():
    for k in range(0, 31):
        for t in GRID21:
            assert gegenbauer_ratio(k, 1, t) == pytest.approx(
                eval_chebyt(k, t), abs=1e-12
            )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gegenbauer_series_consistent_with_scalar(n):
    # gegenbauer_ratio reads this series, so both are held to scipy
    alpha = (n - 1) / 2.0
    for t in (-0.8, -0.3, 0.0, 0.4, 0.99):
        series = gegenbauer_ratio_series(n, t, 60)
        for k in (0, 1, 2, 7, 33, 60):
            if n == 1:
                want = eval_chebyt(k, t)
            else:
                want = eval_gegenbauer(k, alpha, t) / eval_gegenbauer(k, alpha, 1.0)
            assert series[k] == pytest.approx(want, abs=1e-12)
            assert gegenbauer_ratio(k, n, t) == series[k]


def _fresh_recurrence(n, t, kmax):
    # the three-term recurrence run from k = 0, one float at a time
    r, prev, cur = [1.0, t], 1.0, t
    for j in range(2, kmax + 1):
        prev, cur = cur, ((2 * j + n - 3) * t * cur - (j - 1) * prev) / (j + n - 2)
        r.append(cur)
    return r[:kmax + 1]


def test_gegenbauer_table_is_kept_per_angle_and_bit_identical():
    # angles interleave and K grows and shrinks; every table must equal a
    # fresh recurrence bit for bit, and only the last (n, t) table is kept
    calls = [(3, 0.3, 10), (3, 0.3, 700), (3, 0.3, 40), (5, 0.3, 300), (3, 0.3, 900),
             (3, -0.7, 5), (3, 0.3, 0), (3, 0.3, 1), (5, 0.3, 1200), (2, 0.0, 64),
             (2, -0.0, 64), (2, 0.0, 65), (1, 0.3, 50), (5, 0.3, 1300), (5, 0.3, 1200)]
    for n, t, kmax in calls:
        got = gegenbauer_ratio_series(n, t, kmax)
        assert len(got) == kmax + 1
        if n == 1:
            assert got.tolist() == np.cos(math.acos(t) * np.arange(kmax + 1)).tolist()
        else:
            want = _fresh_recurrence(n, t, kmax)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
            (kept_n, kept_t), kept = specfun._last_table
            assert (kept_n, kept_t) == (n, t.hex())
            assert kmax + 1 <= len(kept) <= 1301
    gegenbauer_ratio_series(4, 0.5, 3)
    assert len(specfun._last_table[1]) == 4  # the 1301-entry table is gone


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_diagonal_and_antipodal_tables_equal_the_recurrence(t):
    # at t = +-1 the table r_k = t^k is built without the loop: it has the
    # bits of the recurrence, and the kept table of another angle stays
    gegenbauer_ratio_series(6, 0.3, 50)
    kept = specfun._last_table
    for n in range(2, 41):
        want = np.array(_fresh_recurrence(n, t, 4096))
        for kmax in (0, 1, 2, 77, 4096):
            assert gegenbauer_ratio_series(n, t, kmax).tobytes() == want[:kmax + 1].tobytes()
    assert specfun._last_table is kept


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 7, 40, 342]),
                          st.sampled_from([-1.0, -0.999, -0.3, 0.0, 0.5, 0.91, 1.0]),
                          st.integers(0, 3000)), min_size=1, max_size=8))
def test_gegenbauer_tables_match_a_fresh_recurrence(calls):
    # random interleavings of a few angles: a kept table is reused or
    # replaced, and every returned array has the bits of a run from k = 0
    for n, t, kmax in calls:
        got = gegenbauer_ratio_series(n, t, kmax).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in _fresh_recurrence(n, t, kmax)]


_CAP = specfun._FACTOR_CAP


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 7, 40, 342]),
                          st.sampled_from([0.999, -0.999, -0.3, 0.0, 0.91]),
                          st.one_of(st.integers(0, 3000), st.integers(_CAP - 400, _CAP + 400),
                                    st.integers((1 << 17) - 3, (1 << 17) + 2100))),
                min_size=1, max_size=6))
def test_gegenbauer_tables_match_the_chunked_loop(calls):
    # interleaved angles whose K crosses the factor store's cap and 2^17: a
    # table from the store, from chunks past it, or cut from a kept one has
    # the bits of the former chunked loop
    for n, t, kmax in calls:
        got = gegenbauer_ratio_series(n, t, kmax)
        assert got.tobytes() == np.array(chunked_recurrence(n, t, kmax)).tobytes()


def test_a_table_grown_across_the_factor_cap_keeps_its_bits():
    for n in (2, 342):
        for kmax in (5, _CAP - n, _CAP - n + 2, _CAP + 1500, (1 << 17) + 9):
            got = gegenbauer_ratio_series(n, -0.3, kmax)
            assert got.tobytes() == np.array(chunked_recurrence(n, -0.3, kmax)).tobytes()
            assert len(specfun._float_ints) <= _CAP


def test_factor_store_stays_bounded():
    # a table at the Mellin route's reach, K = 2^21 on S^2, is built in chunks
    # past the store; the store keeps at most its cap of Python floats
    r = gegenbauer_ratio_series(2, 0.37, 1 << 21)
    assert len(r) == (1 << 21) + 1 and np.all(np.abs(r) <= 1.0)
    assert 0 < len(specfun._float_ints) <= _CAP


def test_a_shorter_request_at_a_kept_angle_runs_no_step(monkeypatch):
    kept = gegenbauer_ratio_series(7, 0.4, 500)

    def no_step(*args):
        raise AssertionError("recurrence step run for a kept table")

    monkeypatch.setattr(specfun, "_step_factors", no_step)
    for kmax in (0, 1, 2, 133, 500):
        assert gegenbauer_ratio_series(7, 0.4, kmax).tobytes() == kept[:kmax + 1].tobytes()


def test_a_longer_request_rebuilds_the_table_from_k_2(monkeypatch):
    gegenbauer_ratio_series(7, 0.4, 500)
    step_factors, starts = specfun._step_factors, []

    def counted(n, t, lo, hi):
        starts.append(lo)
        return step_factors(n, t, lo, hi)

    monkeypatch.setattr(specfun, "_step_factors", counted)
    got = gegenbauer_ratio_series(7, 0.4, 900)
    assert starts == [2]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in _fresh_recurrence(7, 0.4, 900)]
    assert len(specfun._last_table[1]) == 901


def test_the_kept_table_cannot_be_written():
    gegenbauer_ratio_series(5, -0.35, 300)
    key, kept = specfun._last_table
    assert key == (5, (-0.35).hex()) and not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[3] = 0.0
    assert specfun._recurrence_table(5, -0.35, 100) is kept


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_diagonal_table_is_fresh_and_writable(t):
    first = gegenbauer_ratio_series(5, t, 40)
    assert first.flags.writeable and first.flags.owndata
    first[:] = 0.0
    assert gegenbauer_ratio_series(5, t, 40).tolist() == [t ** k for k in range(41)]


def test_gegenbauer_series_is_the_callers_own():
    first = gegenbauer_ratio_series(4, 0.25, 200)
    want = first.copy()
    first[:] = 7.0
    again = gegenbauer_ratio_series(4, 0.25, 300)
    assert again[:201].tolist() == want.tolist()
    again[5] = -3.0
    assert gegenbauer_ratio_series(4, 0.25, 100).tolist() == want[:101].tolist()
    assert gegenbauer_ratio(5, 4, 0.25) == want[5]


def test_gegenbauer_domain():
    with pytest.raises(ValueError):
        gegenbauer_ratio(-1, 2, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_ratio(3, 0, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_ratio(3, 2, 1.0001)
    with pytest.raises(ValueError):
        gegenbauer_ratio_series(2, 0.5, -1)


def test_rodrigues_exact_values():
    # P2 = (3x^2 - 1)/2 and P3 = (5x^3 - 3x)/2 at x = 1/2, exactly
    assert legendre_rodrigues_oracle(2, 0.5) == -0.125
    assert legendre_rodrigues_oracle(3, 0.5) == -0.4375
    assert legendre_rodrigues_oracle(0, -0.7) == 1.0
    with pytest.raises(ValueError):
        legendre_rodrigues_oracle(9, 0.5)


def test_rodrigues_matches_scipy():
    for m in range(0, 9):
        for x in GRID21:
            assert legendre_rodrigues_oracle(m, x) == pytest.approx(
                eval_legendre(m, x), abs=1e-13
            )


def test_legendre_ode_residual_small():
    for m in range(0, 9):
        for x in GRID21:
            assert abs(legendre_ode_residual(m, x)) <= 1e-11
