"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import decks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_seed_fixes_the_deck(workload):
    assert decks.deck(workload, 7) == decks.deck(workload, 7)
    assert decks.deck(workload, 7, 3) == decks.deck(workload, 7, 3)
    assert decks.deck(workload, 7) != decks.deck(workload, 8)


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_deck_shape_does_not_depend_on_seed_or_pass(workload):
    def shape(d):
        return sorted((t["slot"], t["kind"], t.get("n", 0), t.get("check", ""), t.get("m", 0))
                      for t in d)

    assert shape(decks.deck(workload, 1)) == shape(decks.deck(workload, 2)) \
        == shape(decks.deck(workload, 1, 5))
    slots = {t["slot"] for t in decks.deck(workload, 1)}
    assert slots == set(range(len(slots)))


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_passes_do_not_repeat_arguments(workload):
    def calls(d):
        return [json.dumps({k: v for k, v in t.items() if k != "slot"}, sort_keys=True)
                for t in d]

    first, second = calls(decks.deck(workload, 4, 0)), calls(decks.deck(workload, 4, 1))
    assert len(set(first)) == len(first)
    assert not set(first) & set(second)


def test_signed_arguments_reach_the_cli():
    # a separate "-4.7e-05" would be taken for an option name
    from spherezeta import cli as sz_cli

    cli = [t["argv"] for t in decks.deck("cli-cold", 1) if t["kind"] == "cli"]
    assert sum(a.startswith("--cos-gamma=") for argv in cli for a in argv) == 3
    rc, out = worker.CliRunner(lambda argv: argv).run(
        ["specfun", "gegenbauer", "--k", "5", "--n", "3", decks._signed("--t", -3e-06)])
    assert rc == 0 and json.loads(out)["t"] == -3e-06
    assert sz_cli.main(["specfun", "gegenbauer", "--k", "5", "--n", "3", "--t", "-3e-06"]) != 0


def test_defect_probes_show_the_known_defects():
    outputs = worker.run_defect_probes(worker.CliRunner(lambda argv: argv))
    counts = run.defect_probe_counts(outputs, verify.References())
    assert (counts["correct"], counts["failed"], counts["known_defect"]) == (True, 4, 4)
    assert counts["defects"] == ["kernel_recurrence_roundoff", "roundoff_unchecked"]


def test_heat_and_hurwitz_tolerances_stay_above_the_roundoff_floor():
    for n in (1, 4, 20):
        assert decks.heat_tol(n, 1.0, 1.0) == 1.0
        for t in (1e-4, 3e-3, 0.5):
            # a few ulps below, where t is on the grid and float64 sums the trace
            floor = decks.REL_TOL * verify.heat_trace_ref(n, t)[0] * (1 - 1e-12)
            assert decks.heat_tol(n, t, 1e-10) >= floor
            vol = float(verify.volume(n))
            assert decks.heat_tol(n, t, 1e-10, kernel=True) >= floor / vol
    z = float(verify.hurwitz_ld(4.9375, 0.0534)[0][0])
    assert decks.hurwitz_tol(4.9375, 0.0534, 1e-10) >= decks.REL_TOL * z
    # the --tol a CLI task passes is the tolerance its records are held to
    rec = {"command": "kernel", "kind": "heat", "n": 3, "t": 0.1, "cos_gamma": 0.5,
           "value": 1.0, "tail_bound": 1e-7, "terms_used": 8}
    assert verify.cli_items(0, json.dumps(rec))[0]["tol"] == 1e-8
    assert verify.cli_items(0, json.dumps(rec), {"tol": 1e-6})[0]["tol"] == 1e-6


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),      # overlaps a: union [1, 5] covers 4
        ("c", 8.0, 12.0, 0, 0),     # clipped to the parent: covers 2
        ("leaf", 2.5, 3.0, 2, 0),   # child of b only
        ("a", 20.0, 21.0, -1, 1),
    ]
    st = tracing.self_times(spans)
    assert st["root"] == (1, pytest.approx(4.0))
    assert st["a"] == (2, pytest.approx(3.0))
    assert st["b"] == (1, pytest.approx(2.5))
    assert st["c"] == (1, pytest.approx(4.0))
    assert st["leaf"] == (1, pytest.approx(0.5))


def test_install_wraps_from_imports_and_restore_puts_all_back():
    import spherezeta as sz
    from spherezeta import kato, kernels, specfun, zeta

    originals = (kernels.gegenbauer_ratio_series, zeta.partial_sum_domination,
                 kato.np, sz.heat_kernel)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert kernels.gegenbauer_ratio_series.perfbench_span == "specfun.gegenbauer_ratio_series"
        assert specfun.gegenbauer_ratio_series.__wrapped__ is originals[0]
        assert zeta.partial_sum_domination.perfbench_span == "majorize.partial_sum_domination"
        assert tracing.wrapped_bindings()
        sz.heat_kernel(0.1, sz.KernelQuery(n=3, cos_gamma=0.2))
        kato.semigroup(kato.cycle_laplacian(8), 0.5)
        with pytest.raises(RuntimeError):
            worker.measure(None, None, 1.0, "unused")
    finally:
        tr.restore()
    assert (kernels.gegenbauer_ratio_series, zeta.partial_sum_domination,
            kato.np, sz.heat_kernel) == originals
    assert tracing.wrapped_bindings() == []
    names = [sp[0] for sp in tr.spans]
    heat = names.index("kernels.heat_kernel")
    geg = names.index("specfun.gegenbauer_ratio_series")
    assert tr.spans[geg][3] == heat
    # cycle_laplacian probes with eigvalsh, semigroup with eigh and the probe
    assert names.count(tracing.EIG_SPAN) == 3
    assert tr.work[tracing.EIG_SPAN] == 3 * 8**3


class _FakeRunner:
    """Returns each task's x; the rerun of pass 0's slot 1 differs."""

    def __init__(self):
        self.calls = 0

    def prepare(self, deck):
        return deck

    def run(self, task):
        self.calls += 1
        return task["x"] + (1 if task.get("flaky") and self.calls > 4 else 0)

    @staticmethod
    def items(raw):
        return [{"verdict": True, "what": str(raw)}]


def test_measure_draws_a_deck_per_pass_and_reruns_pass_zero(tmp_path):
    def deck_of(p):
        return [{"slot": 0, "x": p}, {"slot": 1, "x": 10 + p, "flaky": True}]

    path = str(tmp_path / "out.jsonl")
    runner = _FakeRunner()
    m = worker.measure(runner, deck_of, 0.0, path, min_passes=2)
    assert m["passes"] == 2
    assert [(slot, p) for slot, _, p in m["durations"]] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert m["nondet"] == [1]
    assert worker.read_outputs(path) == {
        "0:0": [{"verdict": True, "what": "0"}], "0:1": [{"verdict": True, "what": "10"}],
        "1:0": [{"verdict": True, "what": "1"}], "1:1": [{"verdict": True, "what": "11"}]}


def _gate(items, nondet=()):
    refs = verify.References()
    cats = verify.classify_outputs({"0:0": items}, refs)
    return run.failure_counts(cats, set(nondet))


def test_correct_is_false_on_any_failure_but_a_known_defect():
    import spherezeta as sz

    z = float(verify.hurwitz_ld(3.0, 1.0)[0][0])
    good = {"ref": ["hurwitz", 3.0, 1.0], "value": z, "bound": 1e-12, "tol": 1e-10, "terms": 64}
    assert _gate([good])["correct"]
    assert not _gate([good], nondet=["0:0"])["correct"]
    assert not _gate([{"raised": "TruncationError", "ref": good["ref"], "tol": 1e-10}])["correct"]
    assert not _gate([dict(good, bound=1e-9)])["correct"]
    assert not _gate([dict(good, value=z + 1e-9)])["correct"]
    assert not _gate([{"verdict": False, "what": "x"}])["correct"]
    # the two confirmed silent-bound defects are failed but known
    res = sz.heat_trace(1e-4, 4, sz.TruncationPolicy(tol=1e-10))
    trace = {"ref": ["heat_trace", 4, 1e-4], "value": res.value, "bound": res.tail_bound,
             "tol": 1e-10, "terms": res.terms_used}
    res = sz.heat_kernel(1e-4, sz.KernelQuery(n=20, cos_gamma=0.5,
                                              policy=sz.TruncationPolicy(tol=1e-8)))
    kernel = {"ref": ["heat_kernel", 20, 1e-4, 0.5], "value": res.value,
              "bound": res.tail_bound, "tol": 1e-8, "terms": res.terms_used}
    for item in (trace, kernel):
        fails = _gate([item])
        assert (fails["correct"], fails["failed"], fails["known_defect"]) == (True, 1, 1)
        # refusing there is the fix; a refusal where float64 can reach tol is not
        refusal = {"raised": "AccuracyError", "ref": item["ref"], "tol": item["tol"]}
        assert _gate([refusal])["correct"]
        assert not _gate([{"raised": "AccuracyError", "ref": item["ref"], "tol": 1e3}])["correct"]
        # a bound over tol beyond the roundoff allowance is an uncertified truncation
        assert not _gate([dict(item, bound=100 * item["bound"])])["correct"]
    # a refused CLI heat call is matched through what its task expected
    expect = {"ref": ["heat_trace", 4, 1e-4], "tol": 1e-10}
    cats = verify.classify_outputs({"0:0": {"rc": 1, "stdout": ""}}, verify.References(),
                                   {"0:0": expect})
    assert run.failure_counts(cats, set())["correct"]
    cats = verify.classify_outputs({"0:0": {"rc": 1, "stdout": ""}}, verify.References())
    assert not run.failure_counts(cats, set())["correct"]


def test_classify_flags_each_failure_kind():
    refs = verify.References()
    z = float(verify.hurwitz_ld(3.0, 1.0)[0][0])
    good = {"ref": ["hurwitz", 3.0, 1.0], "value": z, "bound": 1e-12, "tol": 1e-10, "terms": 64}
    assert verify.classify_item(good, refs) == set()
    assert verify.classify_item(dict(good, bound=1e-9), refs) == {"bound_over_tol"}
    # a few ulps over the bound is a broken certificate but not a wrong value
    assert verify.classify_item(dict(good, value=z + 1e-12 + 1e-14), refs) == {"ref_mismatch"}
    assert verify.classify_item(dict(good, value=z + 1e-9), refs) == {"ref_mismatch", "wrong_value"}
    assert verify.classify_item({"verdict": False, "what": "x"}, refs) == {"verdict_false"}
    assert verify.classify_item({"raised": "TruncationError: no"}, refs) == {"raised"}


def test_references_agree_with_mpmath():
    import mpmath as mp

    def first(pair):
        return float(pair[0][0])

    for s in (1.3, 2.7):
        assert first(verify.Z_ld(1, s)) == pytest.approx(2 * float(mp.zeta(2 * s)), rel=1e-15)
        assert first(verify.spec_zeta_ld(1, s)) == pytest.approx(2 * float(mp.zeta(2 * s)),
                                                                 rel=1e-15)
        # S^3: d_k = (k+1)^2 and (k+1)^2 = lambda_k + 1, so Z = zeta(2s-2) - 1
        assert first(verify.Z_ld(3, s + 1)) == pytest.approx(float(mp.zeta(2 * s)) - 1, rel=1e-15)
    q, a = [1.2, 3.0, 16.0, 2.1], [0.05, 1.0, 0.3, 4.5]
    vals, errs = verify.hurwitz_ld(q, a)
    for qi, ai, v, e in zip(q, a, vals, errs):
        assert abs(float(v) - float(mp.zeta(qi, ai))) <= e + 1e-16 * float(v)
    for n, s in ((2, 2.5), (5, 3.1), (8, 4.56)):
        # direct head in mpmath, then the polynomial-in-u tail by mpmath Hurwitz zetas
        head, rho = 2000, mp.mpf(n - 1) / 2
        direct = mp.fsum(verify._multiplicity(k, n) * mp.mpf(k * (k + n - 1)) ** -mp.mpf(s)
                         for k in range(1, head + 1))
        coef = mp.mpf(1)
        for j in range(8):
            coef = coef * (s + j - 1) / j if j else coef
            direct += coef * rho ** (2 * j) * mp.fsum(
                mp.mpf(c.numerator) / c.denominator * mp.zeta(2 * s + 2 * j - m, 1 + rho + head)
                for m, c in enumerate(verify.mult_poly_u(n)) if c)
        val, err = verify.spec_zeta_ld(n, s)
        assert abs(float(val[0]) - float(direct)) <= float(err[0]) + 1e-16 * float(direct)
    val, err = verify.heat_trace_ref(2, 0.01)
    assert err < 1e-12 * val
    assert val == pytest.approx(float(mp.nsum(lambda k: (2 * k + 1) * mp.exp(-k * (k + 1) * mp.mpf(0.01)),
                                              [0, mp.inf])), rel=1e-14)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace), "--deck-limit", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert (result["correct"], result["failed"]) == (True, 0)
        expected = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_outside_a_checkout():
    empty = os.path.join(HERE, "out", "empty-dir")
    os.makedirs(empty, exist_ok=True)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=empty, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
