"""End-to-end acceptance suite.

One test per advertised guarantee; each prints a single PASS/FAIL summary
line (run with ``pytest -s`` to see them inline) and then asserts at the
stated tolerance.  The closed-form line (a01) pins the corrected S^3
reduction Z(s) = zeta_R(2s-2) - 1 against an mpmath value and asserts
that the often-misquoted zeta_R(2s-1) - 1 is rejected by the defining
series.
"""

import math

import numpy as np
import pytest

from spherezeta.kato import (
    complete_laplacian,
    cycle_laplacian,
    duhamel_residual,
    generator_pairing_check,
    kato_pointwise_check,
    positivity_domination_check,
    potential,
    random_graph_laplacian,
    random_state,
    sign_vector,
    trace_domination_check,
)
from spherezeta.kernels import (
    KernelQuery,
    circle_heat_oracle,
    heat_kernel,
    heat_trace,
    mellin_zeta_kernel,
    zeta_kernel,
)
from spherezeta.majorize import partial_sum_domination
from spherezeta.specfun import (
    gegenbauer_ratio,
    hurwitz_via_binomial,
    hurwitz_zeta,
    riemann_zeta,
)
from spherezeta.spectrum import (
    multiplicity,
    multiplicity_product_form,
    sphere_spec,
    spectrum_slice,
)
from spherezeta.truncation import AccuracyError, TruncationPolicy
from spherezeta.zeta import closed_form_Z, compare_zeta_pair, regularized_zeta, spectral_zeta
from _oracles import (
    legendre_ode_residual,
    legendre_rodrigues_oracle,
    ref_hurwitz,
    ref_riemann,
)

TIGHT = TruncationPolicy(max_k=400_000, tol=1e-12)


def _line(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {name:<34s} {status}  ({detail})")


def test_a01_closed_forms_and_quoted_reductions():
    worst_grid = 0.0
    for n in (1, 2, 3, 4):
        for ds in (0.75, 1.5, 2.5):
            s = n / 2.0 + ds
            diff = abs(closed_form_Z(s, n) - regularized_zeta(s, n).value)
            worst_grid = max(worst_grid, diff)

    s3_series = regularized_zeta(2.0, 3, TIGHT).value
    quoted = [
        ("Z_S1(1) = 2 zeta_R(2)",
         2.0 * ref_riemann(2.0), regularized_zeta(1.0, 1, TIGHT).value),
        ("Z_S3(2) = zeta_R(2) - 1", ref_riemann(2.0) - 1.0, s3_series),
        ("Z_S2(2) = 14 zeta_R(3) - 16",
         14.0 * ref_riemann(3.0) - 16.0, regularized_zeta(2.0, 2, TIGHT).value),
    ]
    worst_quoted = max(abs(q - s) for _, q, s in quoted)
    # The misquoted S^3 form zeta_R(2s-1) - 1 at s = 2.  Termwise
    # j^-2 > j^-3, and the first term alone gives 2^-2 - 2^-3 = 0.125.
    misquote = ref_riemann(3.0) - 1.0
    misquote_gap = s3_series - misquote
    ok = (worst_grid <= 1e-8 and worst_quoted <= 1e-10
          and misquote_gap >= 0.125)
    _line("closed-form reductions",
          ok,
          f"grid worst {worst_grid:.2e} <= 1e-8; "
          f"quoted identities worst {worst_quoted:.2e} vs 1e-10; "
          f"S^3 misquote rejected by {misquote_gap:.4f} >= 0.125")
    assert worst_grid <= 1e-8
    for label, q, s in quoted:
        assert abs(q - s) <= 1e-10, (
            f"{label}: quoted value {q:.12f}, defining series {s:.12f}, "
            f"gap {abs(q - s):.3e}. The S^3 series "
            "sum_{k>=1} (k+1)^(2-2s) equals zeta_R(2s-2) - 1."
        )
    assert misquote_gap >= 0.125, (
        f"S^3 series at s=2 is {s3_series:.12f}; the misquoted reduction "
        f"zeta_R(2s-1) - 1 = {misquote:.12f} must fall short of it by at "
        f"least 2^-2 - 2^-3 = 0.125, gap {misquote_gap:.3e}."
    )


def test_a02_shifted_series_domination():
    worst_gap = math.inf
    for n in (2, 3, 4):
        for s in (n / 2.0 + 0.5, float(n), n + 1.0):
            entries = spectrum_slice(n, 200)[1:]
            shifted = [e.d * e.mu ** (-s) for e in entries]
            laplace = [e.d * e.lam ** (-s) for e in entries]
            rep = partial_sum_domination(shifted, laplace)
            assert rep.ok and rep.first_violation is None
            pair = compare_zeta_pair(s, n, 200)
            assert pair.dominated
            gap = pair.zeta_laplace.value - pair.zeta_shifted.value
            worst_gap = min(worst_gap, gap)
            assert gap > 0.0
    for s in (1.0, 1.5, 2.0):
        entries = spectrum_slice(1, 200)[1:]
        a = np.array([e.d * e.mu ** (-s) for e in entries])
        b = np.array([e.d * e.lam ** (-s) for e in entries])
        assert np.array_equal(a, b)  # circle terms are bitwise identical
        pair = compare_zeta_pair(s, 1, 200)
        assert pair.zeta_shifted.value == pair.zeta_laplace.value
        assert pair.dominated
    _line("shifted-series domination", True,
          f"all prefixes ordered, smallest full-sum gap {worst_gap:.2e}; "
          "circle series coincide bitwise")


def test_a03_mellin_bridge():
    pol = TruncationPolicy(max_k=2_000_000, tol=1e-7)
    worst = 0.0
    for n in (1, 2):
        for ds in (0.75, 1.5):
            s = n / 2.0 + ds
            for cg in (-0.5, 0.0, 0.5, 1.0):
                q = KernelQuery(n=n, cos_gamma=cg, policy=pol)
                direct = zeta_kernel(s, q).value
                bridged = mellin_zeta_kernel(s, q).value
                worst = max(worst, abs(direct - bridged))
    ok = worst <= 1e-6
    _line("Mellin bridge", ok, f"worst |direct - bridged| = {worst:.2e} <= 1e-6")
    assert ok


def test_a04_trace_identities():
    worst_heat = 0.0
    for n in (1, 2, 3, 4):
        spec = sphere_spec(n)
        for t in (0.25, 1.0, 4.0):
            k = heat_kernel(t, KernelQuery(n=n, cos_gamma=1.0))
            tr = heat_trace(t, n)
            worst_heat = max(worst_heat, abs(spec.volume * k.value - tr.value))
    assert worst_heat <= 1e-10

    # zeta side: slow 1/K tails at (n, s) = (1, 1) need a loose budget,
    # and the assertion is against the certified combined tails
    zeta_ok = True
    details = []
    for n, tol in ((1, 1e-4), (2, 1e-9)):
        s = float(n)
        spec = sphere_spec(n)
        pol = TruncationPolicy(max_k=400_000, tol=tol)
        k = zeta_kernel(s, KernelQuery(n=n, cos_gamma=1.0, policy=pol))
        z = spectral_zeta(s, n, pol)
        combined = spec.volume * k.tail_bound + z.tail_bound
        diff = abs(spec.volume * k.value - z.value)
        zeta_ok = zeta_ok and diff <= combined
        details.append(f"n={n}: {diff:.1e} <= {combined:.1e}")
    _line("trace identities", worst_heat <= 1e-10 and zeta_ok,
          f"heat worst {worst_heat:.2e} <= 1e-10; zeta " + "; ".join(details))
    assert zeta_ok


def test_a05_circle_oracle_and_semigroup():
    rng = np.random.default_rng(12345)
    pol = TruncationPolicy(max_k=400_000, tol=1e-13)
    worst = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.1, 6.0))
        gamma = float(rng.uniform(0.0, 2.0 * math.pi))
        mine = heat_kernel(t, KernelQuery(n=1, cos_gamma=math.cos(gamma),
                                          policy=pol)).value
        worst = max(worst, abs(mine - circle_heat_oracle(t, gamma)))
    assert worst <= 1e-12

    # convolution over the circle reproduces the kernel at the summed time
    def k1(t, gamma):
        return heat_kernel(t, KernelQuery(n=1, cos_gamma=math.cos(gamma),
                                          policy=pol)).value

    alpha, beta = 0.3, 1.7
    zgrid = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
    worst_semi = 0.0
    for t, s in ((0.5, 0.5), (1.0, 2.0)):
        conv = np.mean([k1(t, alpha - z) * k1(s, z - beta) for z in zgrid])
        conv *= 2.0 * math.pi
        direct = k1(t + s, alpha - beta)
        worst_semi = max(worst_semi, abs(conv - direct))
    ok = worst <= 1e-12 and worst_semi <= 1e-8
    _line("circle oracle + semigroup", ok,
          f"oracle worst {worst:.2e} <= 1e-12; "
          f"convolution worst {worst_semi:.2e} <= 1e-8")
    assert worst_semi <= 1e-8


# Direct sums that reach 1e4 to 1e6 (rho^(-2s)): one ulp there is above
# 1e-12, so the certified direct route must refuse tol 1e-12.
_A06_UNCERTIFIABLE = {(1.5, 0.1), (2.0, 0.1), (3.0, 0.1), (3.0, 0.25)}


def test_a06_binomial_hurwitz_route():
    worst_ref = worst = 0.0
    for s in (1.1, 1.5, 2.0, 3.0):
        for rho in (0.1, 0.25, 0.5, 0.9):
            m_max = 600 if rho > 0.8 else 80
            via = hurwitz_via_binomial(s, rho, m_max).value
            worst_ref = max(worst_ref, abs(via - ref_hurwitz(2.0 * s, rho)))
            if (s, rho) in _A06_UNCERTIFIABLE:
                with pytest.raises(AccuracyError):
                    hurwitz_zeta(2.0 * s, rho, TIGHT)
                continue
            direct = hurwitz_zeta(2.0 * s, rho, TIGHT).value
            worst = max(worst, abs(via - direct))
    assert worst_ref <= 1e-9
    assert worst <= 1e-9
    worst_unit = 0.0
    for s in (2.0, 3.0, 4.0):
        worst_unit = max(worst_unit, abs(hurwitz_zeta(s, 1.0, TIGHT).value
                                         - riemann_zeta(s, TIGHT).value))
    ok = worst_ref <= 1e-9 and worst <= 1e-9 and worst_unit <= 1e-12
    _line("binomial Hurwitz route", ok,
          f"mpmath worst {worst_ref:.2e} <= 1e-9; "
          f"direct worst {worst:.2e} <= 1e-9 at 12 certifiable points; "
          f"unit-shift worst {worst_unit:.2e} <= 1e-12")
    assert worst_unit <= 1e-12


def _builder_set():
    return [
        cycle_laplacian(8),
        cycle_laplacian(16),
        cycle_laplacian(64),
        complete_laplacian(8),
        random_graph_laplacian(12, 0.3, seed=7),
        random_graph_laplacian(20, 0.15, seed=19),
    ]


def test_a07_matrix_inequality_suite():
    trials = 1000
    worst = math.inf
    rng = np.random.default_rng(2024)
    for op in _builder_set():
        for _ in range(trials):
            psi = random_state(op.dim, rng)
            phi = np.abs(rng.standard_normal(op.dim))

            rep = kato_pointwise_check(op, psi)
            assert rep.ok
            worst = min(worst, rep.min_slack)

            pre = generator_pairing_check(op, psi, phi)
            assert pre.ok
            worst = min(worst, pre.slack)

            rep = positivity_domination_check(op, 1.0, psi)
            assert rep.ok
            worst = min(worst, rep.min_slack)

            sgn = sign_vector(psi)
            recovered = sgn * psi
            assert np.all(np.abs(recovered - np.abs(psi)) <= 1e-12)
            assert np.all(np.abs(sgn * phi) <= phi + 1e-12)
    assert worst >= -1e-12

    worst_eig = math.inf
    for op in (cycle_laplacian(16), random_graph_laplacian(12, 0.3, seed=3)):
        for _ in range(100):
            v = potential(rng.uniform(0.0, 2.0, size=op.dim))
            for t in (0.1, 1.0, 10.0):
                rep = trace_domination_check(op, v, t)
                assert rep.ok
                assert rep.trace_gap >= -1e-10
                worst_eig = min(worst_eig, rep.eig_min_gap)
    ok = worst >= -1e-12 and worst_eig >= -1e-10
    _line("matrix inequality suite", ok,
          f"{trials} trials/operator, min slack {worst:.2e} >= -1e-12; "
          f"200 potentials, min eigenvalue gap {worst_eig:.2e}")
    assert worst_eig >= -1e-10


def test_a08_duhamel_defect():
    worst_resid = 0.0
    ratios = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        op = random_graph_laplacian(8, 0.4, seed=seed)
        v = potential(rng.uniform(0.0, 2.0, size=8))
        r64 = duhamel_residual(op, v, 1.0, 64)
        r128 = duhamel_residual(op, v, 1.0, 128)
        r256 = duhamel_residual(op, v, 1.0, 256)
        worst_resid = max(worst_resid, r256)
        ratios.append(r64 / r128)
    ok = worst_resid <= 1e-9 and all(8.0 <= r <= 32.0 for r in ratios)
    _line("Duhamel defect", ok,
          f"residual at 256 panels {worst_resid:.2e} <= 1e-9; "
          f"64/128 ratios {[f'{r:.1f}' for r in ratios]} in [8, 32]")
    assert worst_resid <= 1e-9
    for r in ratios:
        assert 8.0 <= r <= 32.0


def test_a09_multiplicity_formulas():
    for n in range(1, 7):
        for k in range(0, 61):
            assert multiplicity(k, n) == multiplicity_product_form(k, n)
    # closed families; the circle identity is for the doubly degenerate
    # modes k >= 1 (the constant mode is simple)
    for k in range(1, 61):
        assert multiplicity(k, 1) == 2
    for k in range(0, 61):
        assert multiplicity(k, 2) == 2 * k + 1
        assert multiplicity(k, 3) == (k + 1) ** 2
    _line("multiplicity formulas", True,
          "binomial == product exactly, n <= 6, k <= 60; "
          "closed families for n = 1, 2, 3 exact")


def test_a10_gegenbauer_cross_checks():
    grid = np.linspace(-1.0, 1.0, 21)
    worst = 0.0
    for k in range(0, 9):
        for t in grid:
            diff = abs(gegenbauer_ratio(k, 2, float(t))
                       - legendre_rodrigues_oracle(k, float(t)))
            worst = max(worst, diff)
    worst_ode = 0.0
    for m in range(0, 9):
        for t in grid:
            worst_ode = max(worst_ode, abs(legendre_ode_residual(m, float(t))))
    ok = worst <= 1e-12 and worst_ode <= 1e-11
    _line("Gegenbauer cross-checks", ok,
          f"recurrence vs Rodrigues worst {worst:.2e} <= 1e-12; "
          f"ODE residual worst {worst_ode:.2e} <= 1e-11")
    assert worst <= 1e-12
    assert worst_ode <= 1e-11
