"""Benchmark worker: one fresh process that sets up, warms up and runs tasks.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count pinned in its environment.  It prints ``READY`` once
set-up (imports, input generation, one warm-up task of each kind) is done,
then, depending on ``--mode``:

  setup   exit at once (a set-up time sample only)
  run     measure whole deck passes for at least ``--seconds``, then run
          the defect probes once
  trace   traced deck passes, restore every binding, then as ``run``
  t1      traced deck passes (run with single-threaded BLAS by the parent)

and finally one JSON line with timings and trace aggregates.  Task outputs
go to files in ``--out-dir``; correctness is judged by the parent, so no
reference code is imported here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import decks
import tracer as tracing

HARD_STOP_FACTOR = 3.0
WARM_UP_PASS = -1


class SeriesRunner:
    """In-process certified tables, called the way the README quick start does."""

    def __init__(self):
        import spherezeta as sz

        self.sz = sz

    def prepare(self, deck: list[dict]) -> list[tuple]:
        """(task, majorization inputs or None) per task, built outside the timed part."""
        import numpy as np

        sz = self.sz
        jobs = []
        for task in deck:
            inputs = None
            if "majorize" in task:
                # d_k lambda_k^(-s) >= d_k (k + rho)^(-2s) termwise, so the first
                # weakly majorizes the second whatever the weights d_k are
                n, s, length = task["n"], task["majorize"]["s"], task["majorize"]["length"]
                k = np.arange(1, length + 1, dtype=float)
                d = np.array([sz.multiplicity(j, n) for j in range(1, length + 1)], dtype=float)
                lam = k * (k + n - 1)
                u = k + (n - 1) / 2.0
                inputs = (d * lam ** (-s), d * u ** (-2.0 * s))
            jobs.append((task, inputs))
        return jobs

    def run(self, job: tuple) -> list[tuple]:
        """Raw results as (reference key, tolerance, result or {"raised": text})."""
        sz = self.sz
        task, majorize_inputs = job
        out: list[tuple] = []
        n = task["n"]
        zpol = sz.TruncationPolicy(tol=task["tol_zeta"])
        kpol = sz.TruncationPolicy(tol=task["tol_kernel"])

        def call(ref, tol, fn, *args):
            try:
                out.append((ref, tol, fn(*args)))
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                out.append((ref, tol, {"raised": f"{type(exc).__name__}: {exc}"}))

        for s in task.get("s_zeta", ()):
            call(["Z", n, s], zpol.tol, sz.regularized_zeta, s, n, zpol)
            call(["spec_zeta", n, s], zpol.tol, sz.spectral_zeta, s, n, zpol)
            c = (n - 1) / 2.0 if n > 1 else 1.0
            call(["hurwitz", 2.0 * s, c], zpol.tol, sz.hurwitz_style_Z, s, c, zpol)
            if n <= 4:
                call(["Z", n, s], zpol.tol, sz.closed_form_Z, s, n)
            if s > 1.0:
                # no tolerance argument: only the value is checked against its bound
                call(["hurwitz", 2.0 * s, task["rho"]], None,
                     sz.hurwitz_via_binomial, s, task["rho"], 80)
        heat_pols = [sz.TruncationPolicy(tol=tol) for tol in task["tol_t"]]
        for cg in task["cos_gamma"]:
            for t, pol in zip(task["t"], heat_pols):
                call(["heat_kernel", n, t, cg], pol.tol, sz.heat_kernel, t,
                     sz.KernelQuery(n=n, cos_gamma=cg, policy=pol))
            q = sz.KernelQuery(n=n, cos_gamma=cg, policy=kpol)
            for s in task["s_kernel"]:
                call(["zeta_kernel", n, s, cg], kpol.tol, sz.zeta_kernel, s, q)
        for t, tol in zip(task["trace_t"], task["tol_trace"]):
            pol = sz.TruncationPolicy(tol=tol)
            call(["heat_trace", n, t], pol.tol, sz.heat_trace, t, n, pol)
        if "pair" in task:
            s = task["pair"]["s"]
            call(["pair", n, s], zpol.tol, sz.compare_zeta_pair, s, n, task["pair"]["kmax"], zpol)
        call(["spectrum", n], None, sz.spectrum_slice, n, task["spectrum_kmax"])
        call(["volume", n], None, sz.sphere_spec, n)
        if majorize_inputs is not None:
            call(["weak_majorizes"], None,
                 lambda x, y: sz.weak_majorizes(x, y).verdict, *majorize_inputs)
        return out

    @staticmethod
    def items(raw: list[tuple]) -> list[dict]:
        """JSON items for the parent's checks, built after the timed part."""
        items = []
        for ref, tol, res in raw:
            if isinstance(res, dict):
                # a refused heat result keeps its key, to be matched to a known defect
                items.append(dict(res, ref=ref, tol=tol))
            elif ref[0] == "pair":
                _, n, s = ref
                for key, r in ((["spec_zeta", n, s], res.zeta_laplace),
                               (["Z", n, s], res.zeta_shifted)):
                    items.append({"ref": key, "value": r.value, "bound": r.tail_bound,
                                  "tol": tol, "terms": r.terms_used})
                items.append({"verdict": bool(res.dominated), "what": "compare_zeta_pair"})
            elif ref[0] == "spectrum":
                items.append({"spectrum": [ref[1], [[e.k, e.lam, e.mu, e.d] for e in res]]})
            elif ref[0] == "volume":
                items.append({"volume": [ref[1], res.volume]})
            elif ref[0] == "weak_majorizes":
                items.append({"verdict": res in ("majorizes", "weakly_majorizes"),
                              "what": f"weak_majorizes: {res}"})
            elif isinstance(res, float):
                # closed forms return a bare value; they must meet the series tolerance
                items.append({"ref": ref, "value": res, "bound": None, "tol": tol})
            else:
                items.append({"ref": ref, "value": res.value, "bound": res.tail_bound,
                              "tol": tol, "terms": res.terms_used})
        return items


class CliRunner:
    """In-process ``cli.main`` calls with stdout captured; ``argv_of`` maps a task
    to its arguments."""

    def __init__(self, argv_of):
        from spherezeta import cli

        self.cli = cli
        self.argv_of = argv_of

    def prepare(self, deck: list[dict]) -> list[list[str]]:
        return [self.argv_of(t) for t in deck]

    def run(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    @staticmethod
    def items(raw: tuple[int, str]) -> dict:
        return {"rc": raw[0], "stdout": raw[1]}


def run_cli(argv: list[str], env: dict, root: str, launcher: list[str] | None = None):
    """One fresh ``python -m spherezeta.cli`` process: (exit code, stdout)."""
    cmd = [sys.executable] + (launcher or ["-m", "spherezeta.cli"]) + argv
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, timeout=170)
    return proc.returncode, proc.stdout.decode()


class ColdRunner:
    """Fresh-process CLI calls, one at a time, from the parent."""

    items = staticmethod(CliRunner.items)

    def __init__(self, env: dict, root: str):
        self.env, self.root = env, root

    @staticmethod
    def prepare(deck: list[dict]) -> list[list[str]]:
        return [t["argv"] if t["kind"] == "cli" else
                decks.kato_argv(t, "", decks.graph_norm_bound(t["family"], t["m"]))
                for t in deck]

    def run(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(argv, self.env, self.root)


def kato_argv_of(seed: int, out_dir: str):
    """Write the seeded file graph; return the task -> CLI arguments map."""
    from spherezeta import kato

    op = kato.random_graph_laplacian(decks.FILE_GRAPH_M, decks.FILE_GRAPH_P, seed)
    path = os.path.join(out_dir, f"graph-{seed}.txt")
    with open(path, "w") as fh:
        fh.write(f"{op.dim}\n")
        for row in op.entries:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    max_degree = float(max(op.entries[i, i] for i in range(op.dim)))
    return lambda t: decks.kato_argv(t, path, decks.graph_norm_bound(t["family"], t["m"],
                                                                      max_degree))


def make_runner(workload: str, seed: int, out_dir: str):
    if workload == "series":
        return SeriesRunner()
    if workload == "kato":
        return CliRunner(kato_argv_of(seed, out_dir))
    raise ValueError(f"workload {workload!r} does not run in a worker")


def warm_up_indices(workload: str, deck: list[dict]) -> list[int]:
    """One deck task of each kind; for kato the smallest graph of each check."""
    seen, out = set(), []
    order = range(len(deck))
    if workload == "kato":
        order = sorted(order, key=lambda i: deck[i]["m"])
    for idx in order:
        task = deck[idx]
        if workload == "kato":
            kind = task["check"]
        else:
            kind = "s_zeta" in task  # sweeps with and without the n <= 8 tables
        if kind not in seen:
            seen.add(kind)
            out.append(idx)
    return out


def _write_pass(fh, pass_no: int, runner, raws: list) -> None:
    for idx, raw in enumerate(raws):
        fh.write(json.dumps([f"{pass_no}:{idx}", runner.items(raw)]) + "\n")


def measure(runner, deck_of, seconds: float, outputs_path: str, min_passes: int = 1) -> dict:
    """Whole deck passes, a fresh deck ``deck_of(pass)`` each, until ``seconds``
    have elapsed and ``min_passes`` are done (past those, a hard stop at 3x).

    Durations are [slot, seconds, pass]; every task's outputs go to
    ``outputs_path``, one JSON line per task, outside the timed part.  At
    the end pass 0's deck is run once more, untimed, and the indices whose
    outputs differ are returned as ``nondet``.
    """
    tracing.assert_no_wrappers()
    durations, first = [], None
    passes = 0
    start = time.perf_counter()
    stop = False
    with open(outputs_path, "w") as fh:
        while not stop:
            deck = deck_of(passes)
            jobs = runner.prepare(deck)
            raws = []
            for task, job in zip(deck, jobs):
                t0 = time.perf_counter()
                raws.append(runner.run(job))
                durations.append([task["slot"], time.perf_counter() - t0, passes])
                overdue = time.perf_counter() - start > HARD_STOP_FACTOR * seconds
                if overdue and passes >= min_passes:
                    stop = True
                    break
            _write_pass(fh, passes, runner, raws)
            if first is None:
                first = raws
            if not stop:
                passes += 1
                elapsed = time.perf_counter() - start
                stop = passes >= min_passes and elapsed >= seconds
    elapsed = time.perf_counter() - start
    rerun = runner.prepare(deck_of(0))
    nondet = [i for i, raw in enumerate(first) if runner.run(rerun[i]) != raw]
    return {"durations": durations, "elapsed": elapsed, "passes": passes, "nondet": nondet}


def traced_passes(runner, deck_of, passes: int, spans_path: str, outputs_path: str) -> dict:
    """``passes`` traced deck passes (the decks of passes 0, 1, ...); every
    binding is restored afterwards."""
    tr = tracing.Tracer()
    tr.install()
    durations, results = [], []
    start = time.perf_counter()
    try:
        for pass_no in range(passes):
            deck = deck_of(pass_no)
            jobs = runner.prepare(deck)
            raws = []
            for idx, (task, job) in enumerate(zip(deck, jobs)):
                tr.task = idx
                t0 = time.perf_counter()
                with tr.span("task"):
                    raws.append(runner.run(job))
                durations.append([task["slot"], time.perf_counter() - t0, pass_no])
            results.append(raws)
    finally:
        elapsed = time.perf_counter() - start
        tr.restore()
    with open(outputs_path, "w") as fh:
        for pass_no, raws in enumerate(results):
            _write_pass(fh, pass_no, runner, raws)
    tracing.write_spans(spans_path, tr.spans)
    return {"durations": durations, "elapsed": elapsed,
            "self_times": tracing.self_times(tr.spans), "work": dict(tr.work)}


def run_defect_probes(runner) -> list[dict]:
    """decks.DEFECT_PROBES, each once and untimed, through a CLI runner."""
    return [runner.items(runner.run(list(probe["argv"]))) for probe in decks.DEFECT_PROBES]


def read_outputs(path: str) -> dict:
    """Task outputs written by ``measure``, keyed "pass:index"."""
    with open(path) as fh:
        return dict(json.loads(line) for line in fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "t1"), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-passes", type=int, default=1)
    ap.add_argument("--deck-limit", type=int, default=0)
    args = ap.parse_args(argv)

    import spherezeta.cli  # noqa: F401  (the whole package, as the CLI loads it)

    def deck_of(pass_no):
        return decks.deck(args.workload, args.seed, pass_no, args.deck_limit)

    runner = make_runner(args.workload, args.seed, args.out_dir)
    # the warm-up deck is drawn apart from every measured pass
    warm = deck_of(WARM_UP_PASS)
    jobs = runner.prepare(warm)
    for idx in warm_up_indices(args.workload, warm):
        runner.run(jobs[idx])
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {}
    stem = os.path.join(args.out_dir, f"{args.workload}-{args.seed}-{args.mode}")
    if args.mode in ("trace", "t1"):
        result["traced"] = traced_passes(runner, deck_of, args.trace_passes,
                                         stem + "-spans.jsonl", stem + "-traced.jsonl")
    if args.mode in ("run", "trace"):
        result["measured"] = measure(runner, deck_of, args.seconds, stem + "-outputs.jsonl")
        result["defect_probes"] = run_defect_probes(CliRunner(lambda argv: argv))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
