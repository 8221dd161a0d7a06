"""Matrix models: sign vectors, pointwise and pairing inequalities,
semigroup positivity, trace domination, and the Duhamel defect."""

import re
from pathlib import Path

import numpy as np
import pytest
from _oracles import formed_semigroup_positivity

from spherezeta import kato
from spherezeta.kato import (
    commute_residual,
    complete_laplacian,
    cycle_laplacian,
    duhamel_residual,
    generator_pairing_check,
    is_graph_laplacian,
    kato_pointwise_check,
    positivity_domination_check,
    potential,
    random_graph_laplacian,
    random_state,
    semigroup,
    sign_vector,
    symmetric_operator,
    trace_domination_check,
)


def builder_set():
    return [
        cycle_laplacian(8),
        cycle_laplacian(16),
        complete_laplacian(8),
        random_graph_laplacian(12, 0.3, seed=5),
        random_graph_laplacian(9, 0.6, seed=11),
    ]


def test_symmetric_operator_validation():
    with pytest.raises(ValueError):
        symmetric_operator([[0.0, 1.0], [1.0 + 1e-15, 0.0]])
    with pytest.raises(ValueError):
        symmetric_operator(np.ones((2, 3)))
    op = symmetric_operator([[2.0, -1.0], [-1.0, 2.0]])
    assert op.spectrum[0] >= -1e-10
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0  # read-only


def test_every_constructor_returns_read_only_entries():
    ops = builder_set() + [symmetric_operator([[2.0, -1.0], [-1.0, 2.0]])]
    for op in ops + [semigroup(op, 0.5) for op in ops]:
        assert not op.entries.flags.writeable
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0
    assert not potential([1.0, 2.0]).diagonal.flags.writeable


def test_symmetric_operator_copies_its_input():
    mat = np.array([[2.0, -1.0], [-1.0, 2.0]])
    op = symmetric_operator(mat)
    mat[0, 0] = 5.0
    assert mat.flags.writeable and op.entries[0, 0] == 2.0


def test_only_outside_input_is_checked_for_symmetry(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an internally built operator was re-validated")

    rng = np.random.default_rng(10)
    monkeypatch.setattr(kato.np, "array_equal", fail)
    for op in (cycle_laplacian(8), cycle_laplacian(9), complete_laplacian(5),
               random_graph_laplacian(12, 0.3, 5)):
        psi, v = random_state(op.dim, rng), potential(rng.uniform(0.0, 1.0, op.dim))
        assert kato_pointwise_check(op, psi).ok
        assert generator_pairing_check(op, psi, np.abs(psi)).ok
        assert positivity_domination_check(op, 0.5, psi).ok
        assert trace_domination_check(op, v, 0.5).ok
        assert duhamel_residual(op, v, 0.5, 64) <= 1e-6
        assert commute_residual(op, 0.5) <= 1e-12
        assert semigroup(op, 0.5).dim == op.dim
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not exactly symmetric"):
        symmetric_operator([[0.0, 1.0], [1.0 + 1e-15, 0.0]])


def _old_is_graph_laplacian(entries):
    # the formula is_graph_laplacian evaluated on every call before it was kept
    off = entries - np.diag(np.diag(entries))
    return bool(np.all(off <= 0.0))


@pytest.mark.parametrize("mat, expected", [
    ([[5.0]], True), ([[-3.0]], True),
    ([[1.0, -0.0], [-0.0, 1.0]], True), ([[1.0, 0.0], [0.0, 1.0]], True),
    ([[1.0, 0.5], [0.5, 1.0]], False), ([[1.0, -1e-300], [-1e-300, 1.0]], True),
    ([[2.0, -1.0, 1e-300], [-1.0, 2.0, -1.0], [1e-300, -1.0, 2.0]], False),
])
def test_is_laplacian_matches_the_old_formula(mat, expected):
    op = symmetric_operator(mat)
    assert op.is_laplacian is is_graph_laplacian(op) is expected
    assert _old_is_graph_laplacian(op.entries) is expected


def test_is_laplacian_is_computed_once(monkeypatch):
    op = random_graph_laplacian(12, 0.3, 5)
    psi = random_state(12, np.random.default_rng(11))
    assert kato_pointwise_check(op, psi).ok

    def fail(*args, **kwargs):
        raise AssertionError("the Laplacian class was computed again")

    monkeypatch.setattr(kato.np, "diag", fail)
    assert is_graph_laplacian(op) and op.is_laplacian
    assert kato_pointwise_check(op, psi).ok
    assert generator_pairing_check(op, psi, np.abs(psi)).ok
    assert positivity_domination_check(op, 0.5, psi).ok


@pytest.mark.parametrize("make", [
    lambda: symmetric_operator([[2, -1j], [1j, 2]]),
    lambda: symmetric_operator(np.eye(2, dtype=complex)),
    lambda: potential([1 + 1j, 2]),
])
def test_complex_input_is_refused(make):
    # a complex array was once cast to its real part with only a numpy
    # warning, so a check ran on a different operator and could report ok
    with pytest.raises(ValueError, match="entries must be real"):
        make()


@pytest.mark.parametrize("build, message", [
    (cycle_laplacian, "cycle needs at least 3 vertices"),
    (complete_laplacian, "complete graph needs at least 2 vertices"),
    (lambda m: random_graph_laplacian(m, 0.3, 1), "need at least 2 vertices"),
])
@pytest.mark.parametrize("m", [8.0, np.float64(8.0), 8.5, True, 1])
def test_builder_sizes_must_be_integers(build, message, m):
    with pytest.raises(ValueError, match=message):
        build(m)


def test_builders_take_a_numpy_integer_size():
    assert np.array_equal(cycle_laplacian(np.int64(8)).entries, cycle_laplacian(8).entries)
    assert complete_laplacian(np.int64(5)).dim == 5
    assert random_graph_laplacian(np.int64(6), 0.3, 1).dim == 6


def test_cycle_laplacian_structure():
    op = cycle_laplacian(8)
    mat = op.entries
    assert np.all(np.diag(mat) == 2.0)
    assert np.all(mat.sum(axis=1) == 0.0)
    assert is_graph_laplacian(op)
    assert op.spectrum[0] >= -1e-10
    with pytest.raises(ValueError):
        cycle_laplacian(2)


def test_complete_laplacian_structure():
    op = complete_laplacian(8)
    assert np.all(np.diag(op.entries) == 7.0)
    assert np.all(op.entries.sum(axis=1) == 0.0)
    assert is_graph_laplacian(op)
    # nonzero spectrum of K_m collapses to m
    w = np.linalg.eigvalsh(op.entries)
    assert np.allclose(w[1:], 8.0, atol=1e-12)


def test_random_graph_laplacian_connected():
    for seed in (0, 1, 2, 3):
        op = random_graph_laplacian(10, 0.2, seed=seed)
        assert is_graph_laplacian(op)
        assert np.all(op.entries.sum(axis=1) == 0.0)
        w = np.linalg.eigvalsh(op.entries)
        assert w[1] > 1e-9  # spectral gap: the path backbone keeps it connected
    assert np.array_equal(
        random_graph_laplacian(7, 1.0, seed=0).entries,
        complete_laplacian(7).entries,
    )
    with pytest.raises(ValueError):
        random_graph_laplacian(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_graph_laplacian(5, 1.5, seed=0)


def test_is_graph_laplacian_rejects_positive_coupling():
    mat = cycle_laplacian(5).entries.copy()
    mat[0, 2] = mat[2, 0] = 0.5
    assert not is_graph_laplacian(symmetric_operator(mat))


def test_sign_vector_exact_identities():
    rng = np.random.default_rng(3)
    for _ in range(50):
        psi = random_state(9, rng)
        psi[rng.integers(0, 9)] = 0.0
        s = sign_vector(psi)
        assert np.allclose(s * psi, np.abs(psi), atol=1e-14)
        mags = np.abs(s)
        assert np.all((np.abs(mags - 1.0) < 1e-14) | (mags == 0.0))
        assert s[np.abs(psi) == 0.0].sum() == 0.0
        phi = random_state(9, rng)
        assert np.all(np.abs(s * phi) <= np.abs(phi) + 1e-14)


def test_pointwise_inequality_on_builders():
    rng = np.random.default_rng(17)
    for op in builder_set():
        for _ in range(50):
            rep = kato_pointwise_check(op, random_state(op.dim, rng))
            assert rep.ok
            assert rep.min_slack >= -1e-12


def test_pointwise_refuses_positive_coupling():
    mat = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        kato_pointwise_check(symmetric_operator(mat), np.array([1.0, 1.0j]))
    with pytest.raises(ValueError):
        kato_pointwise_check(cycle_laplacian(4), np.ones(3))


def test_pairing_inequality_on_builders():
    rng = np.random.default_rng(23)
    for op in builder_set():
        for _ in range(50):
            psi = random_state(op.dim, rng)
            phi = rng.uniform(0.0, 2.0, size=op.dim)
            rep = generator_pairing_check(op, psi, phi)
            assert rep.ok
            assert rep.slack >= -1e-12


def test_pairing_equality_for_positive_states():
    # real positive psi: sgn is 1, both sides reduce to <-L psi, phi>
    op = cycle_laplacian(8)
    rng = np.random.default_rng(2)
    psi = rng.uniform(0.5, 2.0, size=8)
    phi = rng.uniform(0.0, 1.0, size=8)
    rep = generator_pairing_check(op, psi, phi)
    assert rep.ok
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_pairing_with_disjoint_supports():
    # psi and phi living on separated vertices; the inequality still holds
    op = cycle_laplacian(8)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[1] = 1.0 + 2.0j, -3.0
    phi = np.zeros(8)
    phi[4], phi[5] = 1.0, 2.0
    rep = generator_pairing_check(op, psi, phi)
    assert rep.ok
    # sgn(psi) kills the off-support rows, so the left side vanishes here
    assert rep.lhs == 0.0
    kc = complete_laplacian(8)
    assert generator_pairing_check(kc, psi, phi).ok


def test_pairing_with_matching_state():
    op = cycle_laplacian(8)
    rng = np.random.default_rng(4)
    psi = random_state(8, rng)
    rep = generator_pairing_check(op, psi, np.abs(psi))
    assert rep.ok


def test_pairing_input_validation():
    op = cycle_laplacian(5)
    with pytest.raises(ValueError):
        generator_pairing_check(op, np.ones(5), -np.ones(5))
    with pytest.raises(ValueError):
        generator_pairing_check(op, np.ones(4), np.ones(5))


def test_semigroup_properties():
    op = cycle_laplacian(8)
    e0 = semigroup(op, 0.0).entries
    assert np.allclose(e0, np.eye(8), atol=1e-14)
    e1 = semigroup(op, 1.0).entries
    # symmetric, positivity-preserving, stochastic for a Laplacian
    assert np.array_equal(e1, e1.T)
    assert np.all(e1 > -1e-15)
    assert np.allclose(e1.sum(axis=1), 1.0, atol=1e-13)
    e2 = semigroup(op, 2.0).entries
    assert np.allclose(e1 @ e1, e2, atol=1e-13)
    with pytest.raises(ValueError):
        semigroup(op, -0.5)


def test_semigroup_refuses_an_overflowing_exponential():
    # e^{-tL} is not finite by construction: a computed eigenvalue below zero,
    # here exact or a rounding of a graph's zero mode, overflows at a large t,
    # and semigroup refuses the result naming t and the cause
    cases = [(symmetric_operator([[-1.0]]), 1000.0)]
    graph = next((op for op in (random_graph_laplacian(24, 0.2, seed) for seed in range(1, 65))
                  if op.eigh[0][0] < 0.0), None)
    if graph is not None:  # which seed rounds below zero depends on LAPACK
        cases.append((graph, 1e300))
    for op, t in cases:
        refusal = re.escape(f"e^(-tL) overflows at t = {t:g}: L has the computed eigenvalue -")
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(np.exp(-t * op.eigh[0])))
            with pytest.raises(ValueError, match=refusal):
                semigroup(op, t)
            with pytest.raises(ValueError, match=refusal):
                positivity_domination_check(op, t, np.ones(op.dim))


def test_positivity_refuses_an_overflowing_product():
    # e^{-tw} finite but near the float range, and a state whose norm passes
    # it: the products overflow, and a NaN slack must not read as a pass
    for op, t, psi in ((symmetric_operator([[-1.0]]), 709.5, np.array([2.0])),
                       (cycle_laplacian(8), 0.5, np.full((8, 2), 1e308))):
        refusal = re.escape(f"e^(-tL) psi overflows at t = {t:g}")
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=refusal):
            positivity_domination_check(op, t, psi)


def test_positivity_domination_on_builders():
    rng = np.random.default_rng(31)
    for op in builder_set():
        for t in (0.1, 1.0, 10.0):
            rep = positivity_domination_check(op, t, random_state(op.dim, rng))
            assert rep.ok
            assert rep.min_slack >= -1e-12


def test_trace_domination():
    rng = np.random.default_rng(37)
    op = cycle_laplacian(8)
    for t in (0.1, 1.0, 10.0):
        for _ in range(25):
            v = potential(rng.uniform(0.0, 3.0, size=8))
            rep = trace_domination_check(op, v, t)
            assert rep.ok
            assert rep.trace_gap >= -1e-10
            assert rep.eig_min_gap >= -1e-10


def test_trace_domination_uniform_shift():
    # adding c I shifts every eigenvalue by exactly c
    op = cycle_laplacian(6)
    rep = trace_domination_check(op, potential(np.full(6, 0.7)), t=1.0)
    assert rep.ok
    assert rep.eig_min_gap == pytest.approx(0.7, abs=1e-12)
    assert rep.trace_gap > 0.0


def test_potential_validation():
    with pytest.raises(ValueError):
        potential([-0.1, 1.0])
    with pytest.raises(ValueError):
        potential([])
    v = potential([1.0, 2.0])
    with pytest.raises(ValueError):
        v.diagonal[0] = 9.0
    with pytest.raises(ValueError):
        trace_domination_check(cycle_laplacian(5), v, 1.0)


def test_duhamel_residual_small_at_fine_resolution():
    rng = np.random.default_rng(41)
    op = random_graph_laplacian(8, 0.4, seed=41)
    v = potential(rng.uniform(0.0, 2.0, size=8))
    assert duhamel_residual(op, v, t=1.0, steps=256) <= 1e-9
    # at t = 0 only eigendecomposition round-off remains
    assert duhamel_residual(op, v, t=0.0, steps=4) <= 1e-13


def test_duhamel_residual_validation():
    op = cycle_laplacian(4)
    v = potential(np.ones(4))
    with pytest.raises(ValueError):
        duhamel_residual(op, v, t=1.0, steps=7)
    with pytest.raises(ValueError):
        duhamel_residual(op, v, t=-1.0, steps=8)
    with pytest.raises(ValueError):
        duhamel_residual(op, potential(np.ones(5)), t=1.0, steps=8)


@pytest.mark.parametrize("steps", [4.0, np.float64(4.0), 4.5, True, 0, -2, 7, np.int64(7)])
def test_duhamel_steps_refused_before_any_decomposition(monkeypatch, steps):
    # a float steps such as 4.0 once passed the parity test, then failed in
    # np.linspace with a bare TypeError after both eigendecompositions
    def fail(*args, **kwargs):
        raise AssertionError("decomposed before steps was checked")

    monkeypatch.setattr(kato.np.linalg, "eigh", fail)
    op = random_graph_laplacian(8, 0.4, seed=41)
    with pytest.raises(ValueError, match="steps must be a positive even integer"):
        duhamel_residual(op, potential(np.ones(8)), 0.5, steps)


def test_duhamel_takes_a_numpy_integer_steps():
    op = random_graph_laplacian(8, 0.4, seed=41)
    v = potential(np.ones(8))
    assert duhamel_residual(op, v, 0.5, np.int64(4)) == duhamel_residual(op, v, 0.5, 4)


def test_commute_residual():
    for op in (cycle_laplacian(8), complete_laplacian(8)):
        assert commute_residual(op, 1.0) <= 1e-12


def test_random_state_deterministic():
    a = random_state(6, np.random.default_rng(99))
    b = random_state(6, np.random.default_rng(99))
    assert a.shape == (6,)
    assert np.iscomplexobj(a)
    assert np.array_equal(a, b)


def _looped_random_graph_laplacian(m, p, seed):
    # the scalar-draw construction the vectorized builder must reproduce
    rng = np.random.default_rng(seed)
    adj = np.zeros((m, m))
    for i in range(m - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    for i in range(m):
        for j in range(i + 2, m):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


@pytest.mark.parametrize("m, p, seed", [(2, 0.5, 0), (3, 0.3, 1), (50, 0.2, 7),
                                        (256, 0.05, 12345), (300, 1.0, 3),
                                        (100, 0.0, 2)])
def test_random_graph_laplacian_matches_scalar_draws(m, p, seed):
    assert np.array_equal(random_graph_laplacian(m, p, seed).entries,
                          _looped_random_graph_laplacian(m, p, seed))


def test_symmetric_operator_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        symmetric_operator(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        symmetric_operator([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetric_operator([[np.nan]])


def test_eigendecomposition_is_cached():
    op = cycle_laplacian(6)
    w, u = op.eigh
    assert op.eigh[0] is w and op.eigh[1] is u
    assert np.allclose((u * w) @ u.T, op.entries, atol=1e-13)
    assert op.spectrum[0] >= -1e-10
    assert symmetric_operator([[-1.0, 0.0], [0.0, 1.0]]).spectrum[0] == -1.0
    with pytest.raises(ValueError):
        w[0] = 1.0  # read-only, so the cache cannot be corrupted


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_times_must_be_finite(t):
    op = cycle_laplacian(5)
    v = potential(np.ones(5))
    with pytest.raises(ValueError):
        semigroup(op, t)
    with pytest.raises(ValueError):
        positivity_domination_check(op, t, np.ones(5))
    with pytest.raises(ValueError):
        trace_domination_check(op, v, t)
    with pytest.raises(ValueError):
        duhamel_residual(op, v, t, steps=8)
    with pytest.raises(ValueError):
        commute_residual(op, t)


def _duhamel_setups():
    rng = np.random.default_rng(8)
    return [(op, potential(rng.uniform(0.0, 1.0, size=op.dim)))
            for op in (cycle_laplacian(64), complete_laplacian(32),
                       random_graph_laplacian(48, 0.2, seed=48))]


def _exact_duhamel_kernel(wh, wx, t):
    # int_0^t e^{-(t-s)a} e^{-sb} ds as a divided difference of e^{-t x}
    a, b = wh[:, None], wx[None, :]
    diff = b - a
    near = np.abs(diff) <= 1e-8 * (1.0 + np.abs(a))
    safe = np.where(near, 1.0, diff)
    divided = (np.exp(-t * a) - np.exp(-t * b)) / safe
    # a ~ b: t e^{-t m} with the first correction of the divided difference
    mid = 0.5 * (a + b)
    confluent = t * np.exp(-t * mid) * (1.0 + (t * diff) ** 2 / 24.0)
    return np.where(near, confluent, divided)


def test_duhamel_identity_with_exact_integral():
    # Van Loan 1978; Higham, Functions of Matrices, sec. 10: in the
    # eigenbases of H = X + Y and X the Duhamel integral is exact
    t = 1.0
    for op, v in _duhamel_setups():
        wx, ux = np.linalg.eigh(op.entries)
        wh, uh = np.linalg.eigh(op.entries + np.diag(v.diagonal))
        inner = (uh.T * v.diagonal) @ ux
        exact = uh @ (_exact_duhamel_kernel(wh, wx, t) * inner) @ ux.T
        resid = (uh * np.exp(-t * wh)) @ uh.T - (ux * np.exp(-t * wx)) @ ux.T + exact
        assert np.linalg.norm(resid, 2) <= 1e-12
        # the Simpson integral converges to it at fourth order
        errs = [np.linalg.norm(_simpson_integral((wh, uh), (wx, ux), v.diagonal,
                                                 t, s) - exact, 2)
                for s in (32, 64)]
        assert 12.0 <= errs[0] / errs[1] <= 20.0
        assert duhamel_residual(op, v, t, 64) == pytest.approx(errs[1], rel=1e-3)


def _simpson_integral(h_eig, x_eig, ydiag, t, steps):
    # composite Simpson sum_j omega_j e^{-(t-s_j)H} Y e^{-s_j X}, collapsed
    # into the two eigenbases as U_H [M o (U_H^T Y U_X)] U_X^T
    (wh, uh), (wx, ux) = h_eig, x_eig
    return uh @ (kato._simpson_kernel(wh, wx, t, steps) * ((uh.T * ydiag) @ ux)) @ ux.T


def _looped_simpson_integral(x, ydiag, t, steps):
    # node-by-node composite Simpson, one pair of matrix exponentials per node
    wx, ux = np.linalg.eigh(x)
    wh, uh = np.linalg.eigh(x + np.diag(ydiag))
    grid = np.linspace(0.0, t, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t / steps) / 3.0
    integral = np.zeros_like(x)
    for s_val, w in zip(grid, weights):
        eh = (uh * np.exp(-(t - s_val) * wh)) @ uh.T
        ex = (ux * np.exp(-s_val * wx)) @ ux.T
        integral += w * (eh * ydiag) @ ex
    return integral


@pytest.mark.parametrize("steps", [8, 64])
def test_collapsed_simpson_matches_looped(steps):
    for op, v in _duhamel_setups():
        h = op.entries + np.diag(v.diagonal)
        collapsed = _simpson_integral(np.linalg.eigh(h), op.eigh,
                                      v.diagonal, 1.3, steps)
        looped = _looped_simpson_integral(op.entries, v.diagonal, 1.3, steps)
        assert np.linalg.norm(collapsed - looped, 2) <= 1e-12


def _block_and_states(op, rng, trials=12):
    psi = np.column_stack([random_state(op.dim, rng) for _ in range(trials)])
    psi[0, 1] = 0.0  # a zero entry exercises sgn(0) = 0
    phi = np.abs(rng.standard_normal((op.dim, trials)))
    return psi, phi


def test_block_checks_match_per_state_checks():
    rng = np.random.default_rng(51)
    for op in builder_set():
        psi, phi = _block_and_states(op, rng)
        cols = range(psi.shape[1])
        for check in (lambda p, tol: kato_pointwise_check(op, p, tol),
                      lambda p, tol: positivity_domination_check(op, 0.7, p, tol)):
            block = check(psi, 1e-12)
            single = [check(psi[:, j], 1e-12) for j in cols]
            assert block.slack.shape == psi.shape
            assert np.allclose(block.slack, np.column_stack([r.slack for r in single]),
                               rtol=0.0, atol=1e-12)
            assert block.ok == all(r.ok for r in single)
            assert block.min_slack == pytest.approx(min(r.min_slack for r in single),
                                                    abs=1e-12)
            # a cut between the per-state minima: the block's verdict names the
            # first state whose minimum falls below it
            cut = float(np.median([r.min_slack for r in single]))
            below = kato._entrywise(block.slack - cut, 0.0, 0.0)
            assert not below.ok
            assert below.first_violation == next(j for j, r in enumerate(single)
                                                 if r.min_slack < cut)
        block = generator_pairing_check(op, psi, phi)
        single = [generator_pairing_check(op, psi[:, j], phi[:, j]) for j in cols]
        assert np.allclose(block.slack, [r.slack for r in single], rtol=0.0, atol=1e-12)
        assert np.allclose(block.lhs, [r.lhs for r in single], rtol=0.0, atol=1e-12)
        assert block.ok == all(r.ok for r in single)


def test_block_input_validation():
    op = cycle_laplacian(5)
    with pytest.raises(ValueError):
        kato_pointwise_check(op, np.ones((5, 0)))
    with pytest.raises(ValueError):
        positivity_domination_check(op, 1.0, np.ones((4, 3)))
    with pytest.raises(ValueError):
        kato_pointwise_check(op, np.ones((5, 2, 2)))
    with pytest.raises(ValueError):
        generator_pairing_check(op, np.ones((5, 3)), np.ones((5, 2)))
    with pytest.raises(ValueError):
        generator_pairing_check(op, np.ones((5, 3)), -np.ones((5, 3)))


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    linalg = kato.np.linalg
    for name in ("eigh", "eigvalsh"):
        real = getattr(linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.array(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    return calls


def test_positivity_block_decomposes_once(eig_calls):
    op = random_graph_laplacian(16, 0.3, seed=16)
    assert eig_calls == []  # construction does not probe the spectrum
    rng = np.random.default_rng(5)
    psi, _ = _block_and_states(op, rng, trials=10)
    assert positivity_domination_check(op, 1.0, psi).ok
    # the semigroup reuses L's decomposition for every state of the block
    assert len(eig_calls) == 1
    name, mat = eig_calls[0]
    assert name == "eigh" and np.array_equal(mat, op.entries)
    assert commute_residual(op, 2.0) <= 1e-12
    # the commutator's norm needs only the eigenvalues of its Gram matrix
    assert [name for name, _ in eig_calls] == ["eigh", "eigvalsh"]


@pytest.mark.parametrize("op", [cycle_laplacian(16), cycle_laplacian(17),
                                complete_laplacian(16)])
def test_named_graphs_take_no_eigh(eig_calls, op):
    psi, _ = _block_and_states(op, np.random.default_rng(6), trials=10)
    assert positivity_domination_check(op, 1.0, psi).ok
    assert commute_residual(op, 2.0) <= 1e-12
    assert op.spectrum[0] >= -1e-10
    assert "eigh" not in [name for name, _ in eig_calls]


def test_duhamel_and_trace_decomposition_counts(eig_calls):
    op = random_graph_laplacian(12, 0.3, seed=12)
    v = potential(np.linspace(0.0, 1.0, 12))
    duhamel_residual(op, v, 1.0, steps=16)
    # X and X + Y once each, then the Gram matrix of the residual
    assert [name for name, _ in eig_calls] == ["eigh", "eigh", "eigvalsh"]
    del eig_calls[:]
    for t in (0.5, 1.0, 2.0):
        fresh = random_graph_laplacian(12, 0.3, seed=12)
        assert trace_domination_check(fresh, v, t).ok
        # the free side of a fresh operator takes eigenvalues only
        assert eig_calls[-2][0] == "eigvalsh"
        assert np.array_equal(eig_calls[-2][1], fresh.entries)
        # the free spectrum is the operator's cached one for every potential
        assert trace_domination_check(op, potential(np.full(12, t)), t).ok
    # op's spectrum is eigvalsh of L, taken once on its first trace check: the
    # eigh its Duhamel residual read is not reused for it
    assert [name for name, _ in eig_calls] == ["eigvalsh"] * 10
    assert np.array_equal(eig_calls[2][1], op.entries)
    del eig_calls[:]
    assert trace_domination_check(cycle_laplacian(12), v, 1.0).ok
    assert [name for name, _ in eig_calls] == ["eigvalsh"]  # L + V only


def test_kept_file_graph_decomposes_once_across_checks(eig_calls, capsys, monkeypatch):
    from spherezeta import cli

    path = Path(__file__).with_name("graph12.mat")
    entries = random_graph_laplacian(12, 0.3, seed=12).entries
    monkeypatch.setattr(cli, "_kept_graph", ("", None))
    for check, *flags in (["positivity", "--trials", "5"], ["duhamel", "--steps", "256"],
                          ["commute"]):
        assert cli.main(["kato", check, "--graph", f"file:{path}", *flags]) == 0
    capsys.readouterr()
    # each call reads the file, but L is parsed and decomposed once
    assert [name for name, mat in eig_calls if np.array_equal(mat, entries)] == ["eigh"]


@pytest.mark.parametrize("seed", range(1, 6))
def test_lapack_spectrum_is_eigvalsh_whatever_was_read_first(seed):
    # eigh's eigenvalues differ from eigvalsh's in the last bits; a kept
    # operator's trace check must not depend on which was read first
    ref = np.linalg.eigvalsh(random_graph_laplacian(256, 0.05, seed).entries)
    spectrum_first = random_graph_laplacian(256, 0.05, seed)
    eigh_first = random_graph_laplacian(256, 0.05, seed)
    eigh_first.eigh
    for op in (spectrum_first, eigh_first):
        assert np.array_equal(op.spectrum, ref)


@pytest.mark.parametrize("builder, m",
                         [(cycle_laplacian, m) for m in (3, 4, 5, 8, 12, 64, 255, 256)]
                         + [(complete_laplacian, m) for m in (2, 3, 8, 64, 256)])
def test_closed_form_spectra(builder, m):
    op = builder(m)
    scale = float(np.max(np.abs(op.entries)))
    w, u = op.eigh
    assert np.max(np.abs(u.T @ u - np.eye(m))) <= 1e-14
    assert np.max(np.abs((u * w) @ u.T - op.entries)) <= 1e-15 * m * scale
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(op.entries))) <= 1e-13 * scale


def _norm_cases():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((24, 24))
    cases = [base * scale for scale in (1e-310, 1e-300, 1.0, 1e200, 1e300)]
    return cases + [base - base.T, np.outer(rng.standard_normal(24), rng.standard_normal(24))]


@pytest.mark.parametrize("a", _norm_cases())
def test_spectral_norm_matches_svd(a):
    ref = np.linalg.norm(a, 2)
    assert abs(kato._spectral_norm(a.copy()) - ref) <= 1e-13 * ref
    assert kato._spectral_norm(np.zeros((5, 5))) == 0.0


@pytest.mark.parametrize("t, steps", [(1.0, 16), (0.3, 64)])
def test_mixed_basis_duhamel_matches_full_basis(t, steps):
    for op, v in _duhamel_setups():
        wx, ux = op.eigh
        wh, uh = np.linalg.eigh(op.entries + np.diag(v.diagonal))
        integral = _simpson_integral((wh, uh), (wx, ux), v.diagonal, t, steps)
        full = (uh * np.exp(-t * wh)) @ uh.T - (ux * np.exp(-t * wx)) @ ux.T + integral
        assert abs(duhamel_residual(op, v, t, steps) - np.linalg.norm(full, 2)) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_potential_rejects_nonfinite(bad):
    diag = np.ones(8)
    diag[3] = bad
    with pytest.raises(ValueError, match="finite"):
        potential(diag)
    with pytest.raises(ValueError, match="finite"):
        potential(np.full(8, bad))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_checks_refuse_a_bad_tol(tol):
    op = cycle_laplacian(6)
    psi = random_state(6, np.random.default_rng(2))
    with pytest.raises(ValueError, match="tol"):
        kato_pointwise_check(op, psi, tol)
    with pytest.raises(ValueError, match="tol"):
        generator_pairing_check(op, psi, np.ones(6), tol)
    with pytest.raises(ValueError, match="tol"):
        positivity_domination_check(op, 1.0, psi, tol)
    with pytest.raises(ValueError, match="tol"):
        trace_domination_check(op, potential(np.ones(6)), 1.0, tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
def test_states_must_be_finite(bad):
    # a NaN compares false against the tolerance, so a NaN state once passed
    # the pointwise check and an inf state the positivity check
    op = cycle_laplacian(5)
    psi = np.ones(5, dtype=complex)
    psi[0] = bad
    block = np.ones((5, 3), dtype=complex)
    block[2, 1] = bad
    for states in (psi, block):
        with pytest.raises(ValueError, match="state entries must be finite"):
            kato_pointwise_check(op, states)
        with pytest.raises(ValueError, match="state entries must be finite"):
            generator_pairing_check(op, states, np.ones(states.shape))
        with pytest.raises(ValueError, match="state entries must be finite"):
            positivity_domination_check(op, 1.0, states)


def test_pairing_refuses_a_complex_test_vector():
    # a complex phi was once cast to its real part with only a ComplexWarning
    op = cycle_laplacian(5)
    with pytest.raises(ValueError, match="test vector entries must be real"):
        generator_pairing_check(op, np.ones(5), (1 + 1j) * np.ones(5))
    with pytest.raises(ValueError, match="test vector entries must be real"):
        generator_pairing_check(op, np.ones((5, 2)), np.ones((5, 2), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pairing_refuses_a_nonfinite_test_vector(bad):
    # a NaN phi once gave ok=False, a "fails" verdict on no test vector at all
    op = cycle_laplacian(5)
    phi = np.ones(5)
    phi[3] = bad
    with pytest.raises(ValueError, match="phi must be finite and nonnegative"):
        generator_pairing_check(op, np.ones(5), phi)
    with pytest.raises(ValueError, match="phi must be finite and nonnegative"):
        generator_pairing_check(op, np.ones((5, 2)), np.stack([np.ones(5), phi], axis=1))


def _positivity_cases():
    for m in (8, 64, 256):
        for make in (cycle_laplacian, complete_laplacian,
                     lambda m: random_graph_laplacian(m, 0.1, seed=m)):
            yield make(m)


def test_positivity_matches_the_formed_semigroup(monkeypatch):
    # the eigenbasis route and the former formed-matrix route differ only by
    # rounding, of order m eps max|psi| per route (measured at most 0.22 m eps
    # max|psi|): the bound below is 2 m eps max|psi|
    def fail(*args, **kwargs):
        raise AssertionError("the positivity check formed e^(-tL)")

    monkeypatch.setattr(kato, "semigroup", fail)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(22)
    for op in _positivity_cases():
        m = op.dim
        for t in (0.0, 0.5, 2.0):
            for scale in (1.0, 1e2, 1e4):
                for shape in ((m,), (m, 5)):
                    psi = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                    bound = 2.0 * m * eps * float(np.max(np.abs(psi)))
                    for tol in (1e-12, bound):
                        new = positivity_domination_check(op, t, psi, tol)
                        old = formed_semigroup_positivity(op, t, psi, tol)
                        assert new.slack.shape == old.slack.shape == shape
                        assert np.max(np.abs(new.slack - old.slack)) <= bound
                        # a verdict is decided by rounding only where a slack
                        # lies within the bound of -tol; none does here
                        if abs(old.min_slack + tol) > bound:
                            assert (new.ok, new.first_violation) == (old.ok, old.first_violation)
                    # at tol = bound, past its own rounding, every state passes
                    assert new.ok


@pytest.mark.parametrize("builder, m",
                         [(cycle_laplacian, m) for m in (3, 4, 5, 8, 255, 256, 512)]
                         + [(complete_laplacian, m) for m in (2, 3, 8, 257, 512)])
def test_named_spectrum_is_the_eigh_eigenvalues(builder, m):
    spectrum_first, eigh_first = builder(m), builder(m)
    w = spectrum_first.spectrum
    assert "eigh" not in spectrum_first.__dict__  # no eigenvectors were built
    assert spectrum_first.eigh[0] is w
    assert eigh_first.eigh[0] is eigh_first.spectrum
    assert w.tobytes() == eigh_first.spectrum.tobytes()
    assert not w.flags.writeable


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
def test_trace_check_on_a_named_graph_builds_no_eigenvectors(monkeypatch, builder):
    def fail(m):
        raise AssertionError("an eigenvector matrix was built")

    monkeypatch.setattr(kato, "_cycle_vectors", fail)
    monkeypatch.setattr(kato, "_complete_vectors", fail)
    op = builder(64)
    assert trace_domination_check(op, potential(np.linspace(0.0, 1.0, 64)), 0.5).ok
    assert "eigh" not in op.__dict__
    with pytest.raises(AssertionError, match="eigenvector matrix"):
        op.eigh


@pytest.mark.parametrize("m", [2, 3, 8, 64, 257, 512])
def test_named_graph_entries_keep_their_bits(m):
    # the former builds: m eye - ones for K_m, 2 eye plus two -1 diagonals for C_m
    assert complete_laplacian(m).entries.tobytes() == (m * np.eye(m) - np.ones((m, m))).tobytes()
    if m >= 3:
        mat = 2.0 * np.eye(m)
        idx = np.arange(m)
        mat[idx, (idx + 1) % m] = -1.0
        mat[idx, (idx - 1) % m] = -1.0
        assert cycle_laplacian(m).entries.tobytes() == mat.tobytes()


def test_built_graphs_know_they_are_laplacians(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Laplacian class was tested")

    graph = random_graph_laplacian(40, 0.2, seed=3)
    monkeypatch.setattr(kato.SymmetricOperator.is_laplacian, "func", fail)
    for op in (cycle_laplacian(40), complete_laplacian(40), graph):
        assert op.is_laplacian and is_graph_laplacian(op)
        assert kato_pointwise_check(op, random_state(40, np.random.default_rng(4))).ok
    with pytest.raises(AssertionError, match="class was tested"):
        symmetric_operator(graph.entries).is_laplacian


# Memory contracts at m = 512, read with tracemalloc, which sees the arrays
# numpy allocates but not LAPACK's workspace.  The allowance covers numpy's
# ufunc iteration buffers (about 128 KiB for a broadcast or transposed
# operand) and vectors of length m; it does not grow with m^2.
_MEMORY_M = 512
_SQUARE = 8 * _MEMORY_M * _MEMORY_M  # bytes of one m x m float64 array
_ALLOWANCE = 1 << 18


def _peak_bytes(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _file_text(op, fmt="{!r}") -> bytes:
    rows = (" ".join(fmt.format(float(v)) for v in row) for row in op.entries)
    return (f"{op.dim}\n" + "\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("fmt", ["{!r}", "{:.17e}"])
def test_file_parse_peaks_at_four_operators(fmt):
    from spherezeta import cli

    # short spellings (a graph's integers) and 24-byte ones, 3x the operator
    data = _file_text(random_graph_laplacian(_MEMORY_M, 0.05, 7), fmt)
    peak = _peak_bytes(lambda: cli._parse_matrix(data))
    assert peak <= 4 * _SQUARE + _ALLOWANCE  # 13.9 operators with a str and float per entry


def test_laplacian_class_test_holds_no_float_square():
    op = symmetric_operator(random_graph_laplacian(_MEMORY_M, 0.05, 7).entries)
    assert _peak_bytes(lambda: op.is_laplacian) <= _SQUARE // 2 + _ALLOWANCE
    assert op.is_laplacian


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
def test_commute_holds_two_squares(builder):
    op = builder(_MEMORY_M)
    op.eigh, op.entries  # kept by the operator: a named graph builds L on first read
    # the formed semigroup and its product, then the product and its transpose's difference
    assert _peak_bytes(lambda: commute_residual(op, 0.5)) <= 2 * _SQUARE + _ALLOWANCE


def test_duhamel_holds_four_squares_and_the_simpson_tables():
    op = symmetric_operator(random_graph_laplacian(_MEMORY_M, 0.05, 7).entries)
    pot = potential(np.random.default_rng(1).random(_MEMORY_M))
    steps = 8
    # U_H and U_X (decomposed here), then the two product buffers beside them;
    # the two m x (steps + 1) node tables and M after U_H is dropped
    tables = 2 * 8 * (steps + 1) * _MEMORY_M
    peak = _peak_bytes(lambda: duhamel_residual(op, pot, 0.5, steps))
    assert peak <= 4 * _SQUARE + tables + _ALLOWANCE


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
def test_positivity_on_a_named_graph_holds_its_eigenvectors_alone(builder):
    rng = np.random.default_rng(2)
    psi = np.array([random_state(_MEMORY_M, rng) for _ in range(4)]).T
    # the graph is built inside the call: its eigenvectors, never L
    peak = _peak_bytes(lambda: positivity_domination_check(builder(_MEMORY_M), 0.5, psi))
    assert peak <= _SQUARE + _ALLOWANCE


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
def test_trace_on_a_named_graph_holds_one_square(builder):
    pot = potential(np.random.default_rng(3).random(_MEMORY_M))
    # L + V in the builder's array, and no L beside it
    peak = _peak_bytes(lambda: trace_domination_check(builder(_MEMORY_M), pot, 0.5))
    assert peak <= _SQUARE + _ALLOWANCE


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
def test_duhamel_on_a_named_graph_holds_four_squares_and_the_simpson_tables(builder):
    pot = potential(np.random.default_rng(4).random(_MEMORY_M))
    steps = 8
    tables = 2 * 8 * (steps + 1) * _MEMORY_M
    peak = _peak_bytes(lambda: duhamel_residual(builder(_MEMORY_M), pot, 0.5, steps))
    assert peak <= 4 * _SQUARE + tables + _ALLOWANCE


@pytest.mark.parametrize("builder", [cycle_laplacian, complete_laplacian])
@pytest.mark.parametrize("m", [3, 4, 5, 8, 255, 256, 257, 512])
def test_named_graph_plus_potential_keeps_the_bits_of_the_full_sum(builder, m):
    v = np.random.default_rng(m).random(m)
    v[:2] = -0.0, 0.0
    pot = potential(v)
    op = builder(m)
    ref = symmetric_operator(op.entries)
    # the same free decomposition on both sides, so only L + V can differ
    ref.__dict__.update(spectrum=op.spectrum, eigh=op.eigh)
    assert kato._plus_diagonal(op, v).tobytes() == (op.entries + np.diag(v)).tobytes()
    for t in (0.0, 0.5, 2.0, 1e3):
        assert repr(trace_domination_check(op, pot, t)) == repr(trace_domination_check(ref, pot, t))
        assert (duhamel_residual(op, pot, t, 8).hex()
                == duhamel_residual(ref, pot, t, 8).hex())
