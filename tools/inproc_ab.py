"""Time two spherezeta source trees on the series decks, alternating in one process.

    python tools/inproc_ab.py BASE_SRC NEW_SRC [--seeds 41 42 43] [--rounds 12]

BASE_SRC and NEW_SRC are ``src`` directories, each holding a ``spherezeta``
package (for example two ``git archive`` checkouts).  Both packages are
loaded under their own module names into this one interpreter, so a round
sees one host speed: two whole processes can land on different speeds of a
shared machine, a round inside one process does not.

Every round runs the series deck of (seed, round) once per side, through
perfbench's ``SeriesRunner`` after one warm-up deck each; the side that goes
first alternates.  A pass is timed with ``time.process_time``.  The script
checks that both sides give the same task outputs and prints one JSON line:
per side the pass times, their median and the rounds won.  BLAS runs on one
thread unless the environment already says otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
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


def series_runner(package):
    runner = worker.SeriesRunner.__new__(worker.SeriesRunner)
    runner.sz = package
    return runner


def timed_pass(runner, deck):
    jobs = runner.prepare(deck)
    start = time.process_time()
    raws = [runner.run(job) for job in jobs]
    return time.process_time() - start, [runner.items(raw) for raw in raws]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src")
    ap.add_argument("new_src")
    ap.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43])
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args(argv)

    runners = {"base": series_runner(load_package("spherezeta_base", args.base_src)),
               "new": series_runner(load_package("spherezeta_new", args.new_src))}
    for runner in runners.values():
        timed_pass(runner, decks.deck("series", args.seeds[0], worker.WARM_UP_PASS))
    times = {side: [] for side in runners}
    wins = dict.fromkeys(runners, 0)
    mismatched = []
    for rnd in range(args.rounds):
        seed = args.seeds[rnd % len(args.seeds)]
        deck = decks.deck("series", seed, rnd // len(args.seeds))
        order = ("base", "new") if rnd % 2 == 0 else ("new", "base")
        outputs = {}
        for side in order:
            elapsed, outputs[side] = timed_pass(runners[side], deck)
            times[side].append(elapsed)
        if json.dumps(outputs["base"]) != json.dumps(outputs["new"]):
            mismatched.append(rnd)
        wins[min(runners, key=lambda side: times[side][-1])] += 1
    print(json.dumps({
        "seeds": args.seeds, "rounds": args.rounds, "clock": "time.process_time",
        "pass_s": times,
        "median_pass_s": {side: statistics.median(t) for side, t in times.items()},
        "rounds_won": wins, "rounds_with_different_outputs": mismatched}))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
