"""Majorization primitives: verdicts, order conventions, and classic facts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherezeta.majorize import partial_sum_domination, weak_majorizes

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=12)


def test_classic_pair():
    rep = weak_majorizes([3.0, 1.0], [2.0, 2.0])
    assert rep.verdict == "majorizes"
    assert rep.first_violation is None
    rev = weak_majorizes([2.0, 2.0], [3.0, 1.0])
    assert rev.verdict == "fails"
    assert rev.first_violation == 1


def test_weak_but_not_full():
    rep = weak_majorizes([3.0, 2.0], [2.0, 2.0])
    assert rep.verdict == "weakly_majorizes"
    assert rep.total_gap == pytest.approx(1.0)


def test_sorting_is_descending_and_stable():
    rep = weak_majorizes([1.0, 3.0, 2.0], [2.0, 2.0, 2.0])
    assert rep.x_sorted.tolist() == [3.0, 2.0, 1.0]
    assert rep.y_sorted.tolist() == [2.0, 2.0, 2.0]


@settings(max_examples=150, deadline=None)
@given(x=vectors)
def test_self_majorization(x):
    rep = weak_majorizes(x, x)
    assert rep.verdict == "majorizes"
    assert rep.first_violation is None


@settings(max_examples=150, deadline=None)
@given(x=st.lists(finite, min_size=2, max_size=10), data=st.data())
def test_permutation_invariance(x, data):
    xp = data.draw(st.permutations(x))
    y = [sum(x) / len(x)] * len(x)  # mean vector: always majorized by x
    a = weak_majorizes(x, y)
    b = weak_majorizes(list(xp), y)
    assert a.verdict == b.verdict
    assert np.allclose(a.prefix_gaps, b.prefix_gaps)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(finite, min_size=2, max_size=10),
    lam=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_averaging_is_majorized(x, lam, data):
    # y = lam x + (1 - lam) P x is an average of permutations, so x >= y
    perm = data.draw(st.permutations(x))
    y = [lam * a + (1.0 - lam) * b for a, b in zip(x, perm)]
    rep = weak_majorizes(x, y)
    assert rep.verdict == "majorizes"


@settings(max_examples=100, deadline=None)
@given(
    x=st.lists(finite, min_size=2, max_size=8),
    lam=st.floats(0.0, 1.0),
    mu=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_majorization_chain(x, lam, mu, data):
    # two averaging steps compose: x >= y >= z, and x >= z directly
    p1 = data.draw(st.permutations(x))
    y = [lam * a + (1.0 - lam) * b for a, b in zip(x, p1)]
    p2 = data.draw(st.permutations(y))
    z = [mu * a + (1.0 - mu) * b for a, b in zip(y, p2)]
    assert weak_majorizes(y, z).verdict == "majorizes"
    assert weak_majorizes(x, z).verdict == "majorizes"


def test_tolerance_override():
    # a violation of 1e-6 passes only with an explicit loose tolerance
    x = [2.0 - 1e-6, 2.0]
    y = [2.0, 2.0 - 1e-6]
    assert weak_majorizes(x, y, tol=1e-12).verdict == "majorizes"
    x = [1.0, 1.0 + 1e-6]
    y = [1.0 + 1e-6, 1.0 + 1e-6]
    assert weak_majorizes(x, y).verdict == "fails"
    assert weak_majorizes(x, y, tol=1e-3).verdict == "majorizes"


def test_majorize_input_validation():
    with pytest.raises(ValueError):
        weak_majorizes([], [])
    with pytest.raises(ValueError):
        weak_majorizes([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        weak_majorizes([np.nan, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        weak_majorizes([[1.0, 2.0]], [[1.0, 2.0]])


def test_partial_sum_domination_natural_order():
    rep = partial_sum_domination([1.0, 5.0], [2.0, 3.0])
    assert not rep.ok
    assert rep.first_violation == 2
    ok = partial_sum_domination([1.0, 1.0, 1.0], [1.0, 2.0, 1.0])
    assert ok.ok and ok.first_violation is None


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=20),
    bumps=st.data(),
)
def test_termwise_implies_prefix_domination(a, bumps):
    extra = bumps.draw(
        st.lists(st.floats(0.0, 5.0), min_size=len(a), max_size=len(a))
    )
    b = [ai + e for ai, e in zip(a, extra)]
    assert partial_sum_domination(a, b).ok


def test_partial_sum_domination_rejects_nonpositive():
    with pytest.raises(ValueError):
        partial_sum_domination([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        partial_sum_domination([1.0], [-1.0])


def test_schur_convex_functions_rise_along_majorization():
    # max and the sum of squares are Schur-convex, min is Schur-concave
    for x, y in [([3.0, 1.0], [2.0, 2.0]), ([5.0, 0.0, 1.0], [2.0, 2.0, 2.0])]:
        assert weak_majorizes(x, y).verdict == "majorizes"
        assert max(x) >= max(y)
        assert sum(v * v for v in x) >= sum(v * v for v in y)
        assert min(x) <= min(y)


def test_reciprocals_need_not_reorder():
    # x majorizes y does not make 1/y weakly majorize 1/x: (3, 1) vs (2, 2)
    assert weak_majorizes([3.0, 1.0], [2.0, 2.0]).verdict == "majorizes"
    assert weak_majorizes([0.5, 0.5], [1.0 / 3.0, 1.0]).verdict == "fails"


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_bad_tol_is_refused(tol):
    # with tol = nan, gaps < -tol is never true and every pair would pass
    with pytest.raises(ValueError, match="tol"):
        weak_majorizes([1.0, 0.0], [0.0, 5.0], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        partial_sum_domination([1.0, 5.0], [2.0, 3.0], tol=tol)
