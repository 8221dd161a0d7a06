"""Time two spherezeta source trees on one workload's decks, alternating.

    python tools/inproc_ab.py BASE_SRC NEW_SRC [--workload series|kato|cli-cold]
                              [--seeds 41 42 43] [--rounds 12] [--deck-limit N]

BASE_SRC and NEW_SRC are ``src`` directories, each holding a ``spherezeta``
package (for example two ``git archive`` checkouts).  Both packages are
loaded under their own module names into this one interpreter, so a round
sees one host speed: two whole processes can land on different speeds of a
shared machine, a round inside one process does not.

Every round runs the deck of (seed, round) once per side, after one warm-up
deck each; the side that goes first alternates.  ``series`` runs through
perfbench's ``SeriesRunner``, ``kato`` through in-process ``cli.main`` calls
on perfbench's kato argv, with the seeded file graph written to a temporary
directory.  Each task is timed with ``time.process_time``.  A slot's cost is
the median of its task times over all rounds, and, as in perfbench,
task_p50_s is the median slot cost and tasks_per_s the slot count over the
summed slot costs.  The script prints one JSON line: per side the pass
times, their median, the rounds won, the slot costs, task_p50_s and
tasks_per_s.  BLAS runs on one thread unless the environment already says
otherwise.

Outputs are compared task by task.  A series task must give the same
outputs on both sides.  A kato task must give the same exit code and the
same stdout, except that a positivity record's ``min_slack`` may differ
(the largest difference is printed); every other field, the verdict
included, must match.  The exit code is 1 when any task differs beyond
that, else 0.

``cli-cold`` times fresh processes instead, as perfbench's cli-cold
workload does: each round runs ``python -c "import spherezeta.cli"`` and
then ``python -m spherezeta.cli ARGV`` for every task of the deck of
(seed, round), once per side back to back, the side that goes first
alternating from one command to the next.  Each side runs from a copy of
its tree without ``__pycache__``, with PYTHONDONTWRITEBYTECODE=1, so every
process compiles the package as a fresh checkout does; each process is
timed by wall clock.  The JSON line gives per side the median and quartiles
of the import-only times and of the task times, the pairs each side won,
and the pass times (the sum of a round's task times) with the rounds won.
Every command must give the same exit code, stdout and stderr on both
sides.  ``--deck-limit N`` keeps the first N tasks of every deck.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, _PERFBENCH)

import decks  # noqa: E402
import worker  # noqa: E402


def load_package(alias: str, src: str):
    """The ``spherezeta`` package under ``src``, imported as module ``alias``."""
    pkg = os.path.join(os.path.abspath(src), "spherezeta")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def series_runner(package, seeds, out_dir):
    runner = worker.SeriesRunner.__new__(worker.SeriesRunner)
    runner.sz = package
    return runner


def kato_runner(package, seeds, out_dir):
    """A ``worker.CliRunner`` on the package's ``cli``; a task carries its
    seed, which picks the file graph (``worker.kato_argv_of``, written here
    with the package's own builder)."""
    kato = importlib.import_module(package.__name__ + ".kato")
    paths, max_degree = {}, {}
    for seed in seeds:
        op = kato.random_graph_laplacian(decks.FILE_GRAPH_M, decks.FILE_GRAPH_P, seed)
        paths[seed] = os.path.join(out_dir, f"graph-{seed}.txt")
        with open(paths[seed], "w") as fh:
            fh.write(f"{op.dim}\n")
            for row in op.entries:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        max_degree[seed] = float(op.entries.diagonal().max())

    def argv_of(task):
        seed = task["seed"]
        return decks.kato_argv(task, paths[seed], decks.graph_norm_bound(
            task["family"], task["m"], max_degree[seed]))

    runner = worker.CliRunner.__new__(worker.CliRunner)
    runner.cli = importlib.import_module(package.__name__ + ".cli")
    runner.argv_of = argv_of
    return runner


RUNNERS = {"series": series_runner, "kato": kato_runner}
IMPORT_ONLY = None


def deck_of(workload: str, seed: int, pass_no: int, limit: int = 0) -> list[dict]:
    return [dict(task, seed=seed) for task in decks.deck(workload, seed, pass_no, limit)]


def timed_pass(runner, deck):
    """Per task (slot, process seconds), and the task outputs."""
    times, outputs = [], []
    for task, job in zip(deck, runner.prepare(deck)):
        start = time.process_time()
        raw = runner.run(job)
        times.append((task["slot"], time.process_time() - start))
        outputs.append(runner.items(raw))
    return times, outputs


def _kato_records(item: dict) -> list[dict]:
    return [json.loads(line) for line in item["stdout"].splitlines()]


def kato_difference(base: dict, new: dict) -> float | None:
    """|min_slack| difference of two kato outputs that agree in all else,
    0.0 for identical ones, None when anything besides a positivity
    min_slack differs."""
    if base == new:
        return 0.0
    if base["rc"] != new["rc"]:
        return None
    a, b = _kato_records(base), _kato_records(new)
    if len(a) != len(b):
        return None
    worst = 0.0
    for ra, rb in zip(a, b):
        if ra.get("check") != "positivity" or ra.keys() != rb.keys():
            return None
        if {k: v for k, v in ra.items() if k != "min_slack"} != \
                {k: v for k, v in rb.items() if k != "min_slack"}:
            return None
        worst = max(worst, abs(ra["min_slack"] - rb["min_slack"]))
    return worst


def slot_summary(times: list[tuple[int, float]]) -> dict:
    by_slot: dict[int, list[float]] = {}
    for slot, dt in times:
        by_slot.setdefault(slot, []).append(dt)
    cost = {slot: statistics.median(v) for slot, v in sorted(by_slot.items())}
    return {"slot_median_s": cost,
            "task_p50_s": statistics.median(cost.values()),
            "tasks_per_s": len(cost) / sum(cost.values())}


def quartiles(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def cold_process(argv, env: dict, cwd: str) -> tuple[float, tuple]:
    """Wall seconds and (exit code, stdout, stderr) of one fresh process."""
    cmd = ([sys.executable, "-c", "import spherezeta.cli"] if argv is IMPORT_ONLY
           else [sys.executable, "-m", "spherezeta.cli", *argv])
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=170)
    return time.perf_counter() - start, (proc.returncode, proc.stdout, proc.stderr)


def cold_ab(args, out_dir: str) -> dict:
    envs = {}
    for side, src in (("base", args.base_src), ("new", args.new_src)):
        copy = os.path.join(out_dir, side)
        shutil.copytree(os.path.join(src, "spherezeta"), os.path.join(copy, "spherezeta"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONSTARTUP", None)
        envs[side] = env
    times = {kind: {side: [] for side in envs} for kind in ("import", "task")}
    won = {kind: dict.fromkeys(envs, 0) for kind in ("import", "task", "round")}
    pass_s = {side: [] for side in envs}
    mismatched = []
    for rnd in range(args.rounds):
        seed = args.seeds[rnd % len(args.seeds)]
        deck = deck_of("cli-cold", seed, rnd // len(args.seeds), args.deck_limit)
        argvs = [IMPORT_ONLY] + worker.ColdRunner.prepare(deck)
        round_s = dict.fromkeys(envs, 0.0)
        for idx, argv in enumerate(argvs):
            order = ("base", "new") if (rnd + idx) % 2 == 0 else ("new", "base")
            dt, out = {}, {}
            for side in order:
                dt[side], out[side] = cold_process(argv, envs[side], out_dir)
            kind = "import" if argv is IMPORT_ONLY else "task"
            for side in envs:
                times[kind][side].append(dt[side])
                if kind == "task":
                    round_s[side] += dt[side]
            won[kind][min(dt, key=dt.get)] += 1
            if out["base"] != out["new"]:
                mismatched.append([rnd, idx - 1])
        for side in envs:
            pass_s[side].append(round_s[side])
        won["round"][min(round_s, key=round_s.get)] += 1
    return {
        "workload": "cli-cold", "seeds": args.seeds, "rounds": args.rounds,
        "clock": "time.perf_counter, one process",
        "import_s": {side: quartiles(t) for side, t in times["import"].items()},
        "import_pairs_won": won["import"],
        "task_s": {side: quartiles(t) for side, t in times["task"].items()},
        "task_pairs_won": won["task"],
        "pass_s": pass_s,
        "median_pass_s": {side: statistics.median(t) for side, t in pass_s.items()},
        "rounds_won": won["round"],
        # [round, task index]; index -1 is the import-only process
        "tasks_with_different_outputs": mismatched}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", choices=sorted(RUNNERS) + ["cli-cold"], default="series")
    ap.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43])
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--deck-limit", type=int, default=0,
                    help="keep only the first N tasks of every deck (0 keeps all)")
    args = ap.parse_args(argv)

    out_dir = tempfile.mkdtemp(prefix="inproc-ab-")
    if args.workload == "cli-cold":
        try:
            report = cold_ab(args, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(json.dumps(report))
        return 1 if report["tasks_with_different_outputs"] else 0
    try:
        make = RUNNERS[args.workload]
        runners = {side: make(load_package(f"spherezeta_{side}", src), args.seeds, out_dir)
                   for side, src in (("base", args.base_src), ("new", args.new_src))}
        for runner in runners.values():
            timed_pass(runner, deck_of(args.workload, args.seeds[0], worker.WARM_UP_PASS,
                                       args.deck_limit))
        pass_s = {side: [] for side in runners}
        times = {side: [] for side in runners}
        wins = dict.fromkeys(runners, 0)
        mismatched, slack_diff = [], 0.0
        for rnd in range(args.rounds):
            seed = args.seeds[rnd % len(args.seeds)]
            deck = deck_of(args.workload, seed, rnd // len(args.seeds), args.deck_limit)
            order = ("base", "new") if rnd % 2 == 0 else ("new", "base")
            outputs = {}
            for side in order:
                task_times, outputs[side] = timed_pass(runners[side], deck)
                times[side] += task_times
                pass_s[side].append(sum(dt for _, dt in task_times))
            wins[min(runners, key=lambda side: pass_s[side][-1])] += 1
            for idx, (base, new) in enumerate(zip(outputs["base"], outputs["new"])):
                diff = (kato_difference(base, new) if args.workload == "kato"
                        else 0.0 if json.dumps(base) == json.dumps(new) else None)
                if diff is None:
                    mismatched.append([rnd, idx])
                else:
                    slack_diff = max(slack_diff, diff)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report = {
        "workload": args.workload, "seeds": args.seeds, "rounds": args.rounds,
        "clock": "time.process_time", "pass_s": pass_s,
        "median_pass_s": {side: statistics.median(t) for side, t in pass_s.items()},
        "rounds_won": wins,
        **{side: slot_summary(t) for side, t in times.items()},
        "tasks_with_different_outputs": mismatched}
    if args.workload == "kato":
        report["max_positivity_min_slack_diff"] = slack_diff
    print(json.dumps(report))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
