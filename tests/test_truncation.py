"""Certified-tail machinery: the midpoint estimate must stay honest."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherezeta import kernels, specfun, zeta
from spherezeta.kernels import KernelQuery, heat_trace, zeta_kernel
from spherezeta.truncation import (
    DEFAULT_POLICY,
    AccuracyError,
    EvalResult,
    TruncationError,
    TruncationPolicy,
    _power_rows,
    power_tail,
    shifted_power_sum,
    smallest_k,
)
from _oracles import certified_sum, per_exponent_power_sums, ref_hurwitz


def _power_sums(ps, a, policy):
    # the (values, bounds, terms) rows of _power_rows as one result per exponent
    values, bounds, terms = _power_rows(ps, a, policy)
    return list(map(EvalResult, values, terms, bounds))


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(max_k=0)
    with pytest.raises(ValueError):
        TruncationPolicy(tol=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(tol=-1e-9)
    assert DEFAULT_POLICY.max_k == 200_000
    assert DEFAULT_POLICY.tol == 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.25, 7.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("k_from", [1, 4, 40])
def test_power_tail_encloses_true_tail(p, a, k_from):
    est, bound = power_tail(p, a, k_from)
    true = ref_hurwitz(p, k_from + a)  # sum_{k >= k_from} (k+a)^(-p)
    assert bound > 0.0
    # small multiplicative slack for the float evaluation of est itself
    assert abs(est - true) <= bound * (1.0 + 1e-9)


def test_power_tail_bound_decays_with_start():
    bounds = [power_tail(2.0, 1.0, k)[1] for k in (4, 8, 16, 32)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


@settings(max_examples=120, deadline=None)
@given(
    p=st.floats(1.1, 10.0),
    a=st.floats(0.02, 5.0),
    k_from=st.integers(1, 400),
)
def test_power_tail_certificate_property(p, a, k_from):
    est, bound = power_tail(p, a, k_from)
    with mp.workdps(35):
        true = mp.zeta(p, k_from + a)
        err = abs(mp.mpf(est) - true)
        # bound/est >= p(p-1) z^-2 / 24 >> float rounding, so the small
        # slack factor only absorbs the estimate's own last-bit noise
        assert err <= mp.mpf(bound) * (1 + mp.mpf("1e-6"))


@pytest.mark.parametrize("p", [1e154, 1.4e154, 1e200, 1e300, 1.7e308])
def test_power_tail_past_the_float_range_of_p_squared(p):
    # from p ~ 1.3e154 on p (p + 1) overflows while z^(-p-2) underflows, and
    # their product gave a nan bound; the bound is below the least double
    for a, k_from in ((1.0, 16), (1e-3, 2), (0.5 + 2.0**-52, 1), (3.0, 10**6)):
        est, bound = power_tail(p, a, k_from)
        assert (est, bound) == (0.0, 0.0)
        with mp.workdps(30):
            z = mp.mpf(k_from - 0.5 + a)
            true = mp.mpf(p) * (p + 1) * z ** (-p - 2) + mp.mpf(p) * z ** (-p - 1)
            assert true / 24 < 5e-324
    # at z = 1 the formula is kept, an infinite bound once p (p + 1) overflows
    assert power_tail(p, 0.5, 1) == (1.0 / (p - 1.0), (p * (p + 1.0) + p) / 24.0)


def test_power_tail_domain():
    with pytest.raises(ValueError):
        power_tail(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        power_tail(2.0, -0.6, 1)
    with pytest.raises(ValueError, match="finite exponent p > 1, not p = inf"):
        power_tail(math.inf, 1.0, 16)
    with pytest.raises(ValueError, match="finite exponent"):
        power_tail(math.nan, 1.0, 16)


@pytest.mark.parametrize("p,a", [
    (1.2, 0.3), (1.5, 0.5), (2.0, 1.0), (3.0, 0.25), (6.5, 0.9), (2.0, 4.5),
])
def test_shifted_power_sum_matches_hurwitz(p, a):
    r = shifted_power_sum(p, a, DEFAULT_POLICY)
    assert r.tail_bound <= DEFAULT_POLICY.tol
    assert r.terms_used <= DEFAULT_POLICY.max_k
    assert abs(r.value - ref_hurwitz(p, a)) <= r.tail_bound


def test_shifted_power_sum_respects_tolerance_knob():
    loose = shifted_power_sum(1.5, 1.0, TruncationPolicy(tol=1e-6))
    tight = shifted_power_sum(1.5, 1.0, TruncationPolicy(tol=1e-12))
    assert loose.terms_used <= tight.terms_used
    assert tight.tail_bound <= 1e-12
    # both still honest
    true = ref_hurwitz(1.5, 1.0)
    assert abs(loose.value - true) <= loose.tail_bound
    assert abs(tight.value - true) <= tight.tail_bound


def test_shifted_power_sum_budget_exhaustion():
    with pytest.raises(TruncationError):
        shifted_power_sum(1.05, 1.0, TruncationPolicy(max_k=32, tol=1e-12))


def test_shifted_power_sum_domain():
    with pytest.raises(ValueError):
        shifted_power_sum(0.9, 1.0, DEFAULT_POLICY)
    with pytest.raises(ValueError):
        shifted_power_sum(2.0, 0.0, DEFAULT_POLICY)


def test_smallest_k_walks_one_ladder():
    seen = []

    def tail(k):
        seen.append(k)
        return 0.0, 1.0 / k

    assert smallest_k(tail, 1.0 / 40, 5, 1000) == (40, 0.0, 1.0 / 40)
    assert seen[:4] == [5, 10, 20, 40]
    seen.clear()
    # the ladder is capped at max_k, which is tried last
    assert smallest_k(tail, 1.0 / 90, 8, 90)[0] == 90
    assert seen == [8, 16, 32, 64, 90]
    assert smallest_k(tail, 1.0, 50, 20)[0] == 20
    with pytest.raises(TruncationError):
        smallest_k(tail, 1e-3, 8, 100)


def test_smallest_k_never_accepts_nan_or_inf():
    with pytest.raises(TruncationError):
        smallest_k(lambda k: (0.0, math.nan), 1.0, 8, 64)
    # an infinite bound (not yet valid) moves the ladder on
    assert smallest_k(lambda k: (0.0, math.inf if k < 30 else 0.0), 1.0, 8, 64)[0] == 32


def test_smallest_k_evaluates_each_rung_once():
    # the accepted rung and the rung that exhausts max_k are not evaluated again
    seen = []

    def tail(k):
        seen.append(k)
        return 2.0, 1.0 / k

    assert smallest_k(tail, 1.0 / 40, 5, 1000) == (40, 2.0, 1.0 / 40)
    assert seen == [5, 10, 20, 40]
    seen.clear()
    with pytest.raises(TruncationError, match=r"tail bound 1\.000e-02 still exceeds "
                                              r"1\.000e-03 at the term budget max_k=100"):
        smallest_k(tail, 1e-3, 8, 100)
    assert seen == [8, 16, 32, 64, 100]
    seen.clear()
    certified_sum(lambda k: np.zeros(k), tail, TruncationPolicy(max_k=64, tol=0.1), 8)
    assert seen == [8, 16, 32]


def test_certified_sum_checks_the_total_bound():
    policy = TruncationPolicy(max_k=64, tol=1e-10)
    ok = certified_sum(lambda k: np.ones(k), lambda k: (0.5, 1e-12), policy, 8,
                       offset=2.0)
    assert ok.value == 8.0 + 2.0 + 0.5
    assert ok.terms_used == 9  # the offset counts as a term
    assert 1e-12 < ok.tail_bound <= policy.tol
    # truncation within tol/2 but the roundoff allowance over sum|terms| is not
    with pytest.raises(AccuracyError):
        certified_sum(lambda k: np.full(k, 1e6), lambda k: (0.0, 1e-12), policy, 8)
    # truncation above tol/2 at max_k is a truncation failure
    with pytest.raises(TruncationError):
        certified_sum(lambda k: np.ones(k), lambda k: (0.0, 0.6e-10), policy, 8)


_CERTIFIED = st.one_of(
    st.tuples(st.just("shifted_power_sum"), st.floats(1.2, 8.0), st.floats(0.05, 4.0)),
    st.tuples(st.just("heat_trace"), st.floats(1e-4, 5.0), st.integers(1, 12)),
    st.tuples(st.just("zeta_kernel"), st.floats(0.05, 3.0), st.integers(1, 12),
              st.floats(-1.0, 1.0)),
)


@settings(max_examples=80, deadline=None)
@given(call=_CERTIFIED, tol=st.sampled_from([1e-6, 1e-9, 1e-11, 1e-13]))
def test_returned_bound_never_exceeds_tol(call, tol):
    policy = TruncationPolicy(max_k=20_000, tol=tol)
    kind, x, *rest = call
    try:
        if kind == "shifted_power_sum":
            r = shifted_power_sum(x, rest[0], policy)
        elif kind == "heat_trace":
            r = heat_trace(x, rest[0], policy)
        else:
            n, cg = rest
            r = zeta_kernel(n / 2.0 + x, KernelQuery(n=n, cos_gamma=cg, policy=policy))
    except (TruncationError, AccuracyError):
        return
    assert r.tail_bound <= tol


def _one_exponent(p, a, policy):
    # the single-sum form of shifted_power_sum: one 1-D power row through
    # certified_sum; (value, terms_used, tail_bound) or (error type, message)
    try:
        r = certified_sum(lambda k: np.power(np.arange(k, dtype=float) + a, -p),
                          lambda k: power_tail(p, a, k), policy, 16)
    except (TruncationError, AccuracyError) as exc:
        return type(exc), str(exc)
    return r.value, r.terms_used, r.tail_bound


@settings(max_examples=150, deadline=None)
@given(
    s=st.floats(0.55, 6.0),
    count=st.integers(1, 90),
    a=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13, 3e-15, 1e-15, 4e-16]),
    max_k=st.sampled_from([1, 5, 15, 64, 1024, 400_000]),
)
def test_power_sums_match_single_sums_bit_for_bit(s, count, a, tol, max_k):
    # exponents 2s + m as in the binomial Hurwitz route, plus repeats; several
    # share a rung and are summed as rows of one block.  Budgets below the
    # first rung 16 and tols near the roundoff floor make both refusals, and
    # each must carry the message of the single sum
    ps = [2.0 * s + m for m in range(count)] + [2.0 * s, 2.0 * s + 0.5]
    policy = TruncationPolicy(max_k=max_k, tol=tol)
    want = [_one_exponent(p, a, policy) for p in ps]
    first_error = next((w for w in want if isinstance(w[0], type)), None)
    if first_error is not None:
        with pytest.raises(first_error[0]) as info:
            _power_sums(ps, a, policy)
        assert str(info.value) == first_error[1]
    else:
        got = _power_sums(ps, a, policy)
        assert [(r.value, r.terms_used, r.tail_bound) for r in got] == want
    for p, w in zip(ps[:3], want):
        try:
            r = shifted_power_sum(p, a, policy)
        except (TruncationError, AccuracyError) as exc:
            assert (type(exc), str(exc)) == w
        else:
            assert (r.value, r.terms_used, r.tail_bound) == w


def _rows_outcome(fn, *args):
    try:
        return [(r.value, r.terms_used, r.tail_bound) for r in fn(*args)]
    except (TruncationError, AccuracyError) as exc:
        return type(exc), str(exc)


def _oracle_rows(ps, a, policy):
    # the row core's (values, bounds, terms) from the former per-exponent path
    rows = per_exponent_power_sums(ps, a, policy)
    return ([r.value for r in rows], [r.tail_bound for r in rows],
            [r.terms_used for r in rows])


@settings(max_examples=150, deadline=None)
@given(
    p0=st.floats(1.01, 12.0),
    count=st.integers(1, 90),
    a=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13, 3e-15, 1e-15, 4e-16]),
    max_k=st.sampled_from([1, 5, 15, 16, 17, 64, 1024, 400_000]),
)
def test_power_sums_match_the_per_exponent_path(p0, count, a, tol, max_k):
    # values, bounds, terms, and the refusal's type and message
    ps = [p0 + 0.5 * m for m in range(count)] + [p0]
    policy = TruncationPolicy(max_k=max_k, tol=tol)
    assert (_rows_outcome(_power_sums, ps, a, policy)
            == _rows_outcome(per_exponent_power_sums, ps, a, policy))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(s=st.floats(1.001, 80.0), rho=st.floats(0.001, 0.999),
       m_max=st.sampled_from([0, 1, 5, 40, 80, 200]))
def test_binomial_hurwitz_matches_the_per_exponent_path(s, rho, m_max):
    got = _outcome(specfun.hurwitz_via_binomial, s, rho, m_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_power_rows", _oracle_rows)
        assert got == _outcome(specfun.hurwitz_via_binomial, s, rho, m_max)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_match_the_per_exponent_path(monkeypatch, n):
    ss = [n / 2.0 + x for x in (0.51, 0.6, 1.0, 2.25, 5.0, 8.0, 12.0, 30.0, 120.0)]
    got = [(_outcome(zeta.closed_form_Z, s, n),
            _outcome(zeta._closed_form_terms, s, n, 1e-6)) for s in ss]
    monkeypatch.setattr(zeta, "_power_rows", _oracle_rows)
    assert got == [(_outcome(zeta.closed_form_Z, s, n),
                    _outcome(zeta._closed_form_terms, s, n, 1e-6)) for s in ss]


@pytest.mark.parametrize("ps,a,policy,error", [
    ([40.0, 2.0], 1.0, TruncationPolicy(max_k=5, tol=1e-10), TruncationError),
    ([40.0, 30.0], 0.5, TruncationPolicy(tol=4e-16), AccuracyError),
    ([2.0, 40.0], 1.0, TruncationPolicy(max_k=64, tol=1e-15), TruncationError),
    ([40.0, 1.1], 1.0, TruncationPolicy(max_k=64, tol=1e-15), AccuracyError),
])
def test_power_sums_raise_what_the_first_failing_exponent_raises(ps, a, policy, error):
    want = [_one_exponent(p, a, policy) for p in ps]
    first = next(w for w in want if isinstance(w[0], type))
    assert first[0] is error
    with pytest.raises(error) as info:
        _power_sums(ps, a, policy)
    assert str(info.value) == first[1]


def test_power_sums_split_a_rung_into_bounded_blocks(monkeypatch):
    # 50 entries a block: 3 rows at rung 16, and one row (over the budget) from
    # rung 32 on; the results keep their bits
    from spherezeta import truncation

    ps = [2.4 + m for m in range(82)]
    want = [_one_exponent(p, 1.0, truncation._TIGHT) for p in ps]
    monkeypatch.setattr(truncation, "_BLOCK_ENTRIES", 50)
    got = _power_sums(ps, 1.0, truncation._TIGHT)
    assert [(r.value, r.terms_used, r.tail_bound) for r in got] == want


@pytest.mark.parametrize("s,a", [(400.0, 0.1), (3.0, 1e-300)])
def test_an_overflowing_head_term_is_refused_without_a_warning(s, a):
    # (k + a)^(-s) overflows at k = 0, where np.power used to warn before
    # the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="certified bound inf"):
            specfun.hurwitz_zeta(s, a)


def test_power_sums_domain():
    with pytest.raises(ValueError):
        _power_sums([2.0, 1.0], 1.0, DEFAULT_POLICY)
    with pytest.raises(ValueError):
        _power_sums([2.0], -0.5, DEFAULT_POLICY)
    assert _power_sums([], 1.0, DEFAULT_POLICY) == []


_PRODUCERS = {
    "shifted_power_sum": lambda: [shifted_power_sum(2.5, 0.5, DEFAULT_POLICY)],
    "shifted_power_sums": lambda: _power_sums([2.5, 3.0, 9.0], 1.0, DEFAULT_POLICY),
    "certified_sum": lambda: [certified_sum(lambda k: np.ones(k) * 1e-3,
                                            lambda k: (0.0, 0.0), DEFAULT_POLICY, 8, 1.0)],
    "riemann_zeta": lambda: [specfun.riemann_zeta(3.0)],
    "hurwitz_zeta": lambda: [specfun.hurwitz_zeta(3.0, 0.25)],
    "hurwitz_via_binomial": lambda: [specfun.hurwitz_via_binomial(2.0, 0.3, 80)],
    "regularized_zeta": lambda: [zeta.regularized_zeta(2.5, 3)],
    "spectral_zeta": lambda: [zeta.spectral_zeta(2.5, 3)],
    "hurwitz_style_Z": lambda: [zeta.hurwitz_style_Z(2.0, 1.5)],
    "_closed_form_terms": lambda: [zeta._closed_form_terms(3.0, n, DEFAULT_POLICY.tol)
                                   for n in (1, 2, 3, 4)],
    "compare_zeta_pair": lambda: [getattr(zeta.compare_zeta_pair(2.5, 3, 50), f)
                                  for f in ("zeta_laplace", "zeta_shifted")],
    "heat_kernel": lambda: [kernels.heat_kernel(0.3, KernelQuery(n=3, cos_gamma=0.2))],
    "zeta_kernel": lambda: [zeta_kernel(3.0, KernelQuery(n=3, cos_gamma=0.2))],
    "heat_trace": lambda: [heat_trace(0.3, 3)],
    "mellin_zeta_kernel": lambda: [kernels.mellin_zeta_kernel(
        2.25, KernelQuery(n=2, cos_gamma=0.3, policy=TruncationPolicy(tol=1e-7)))],
}


@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_every_eval_result_carries_python_numbers(producer):
    # numpy scalars once leaked out (hurwitz_via_binomial's tail_bound was a
    # np.float64); results are documented and compared as plain floats
    for r in _PRODUCERS[producer]():
        assert type(r.value) is float
        assert type(r.tail_bound) is float
        assert type(r.terms_used) is int
