"""tools/inproc_ab.py: two identical trees agree, a one-ulp change is listed,
in process and in fresh cli-cold processes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# appended to a copy's zeta.py: every regularized_zeta value one ulp up
_ONE_ULP_UP = '''

_exact_regularized_zeta = regularized_zeta


def regularized_zeta(s, n, policy=DEFAULT_POLICY):
    r = _exact_regularized_zeta(s, n, policy)
    return EvalResult(math.nextafter(r.value, math.inf), r.terms_used, r.tail_bound)
'''


def _copy_src(dest: Path, zeta_suffix: str = "") -> Path:
    shutil.copytree(ROOT / "src" / "spherezeta", dest / "spherezeta",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(dest / "spherezeta" / "zeta.py", "a") as fh:
        fh.write(zeta_suffix)
    return dest


def _inproc_ab(base: Path, new: Path, *options: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inproc_ab.py"), str(base), str(new),
         "--rounds", "1", "--seeds", "41", *(options or ("--workload", "series"))],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_identical_trees_give_no_differing_task(tmp_path):
    code, report = _inproc_ab(_copy_src(tmp_path / "base"), _copy_src(tmp_path / "new"))
    assert code == 0
    assert report["tasks_with_different_outputs"] == []
    assert report["rounds"] == 1 and report["seeds"] == [41]


def test_a_value_one_ulp_off_is_listed_and_exits_1(tmp_path):
    code, report = _inproc_ab(_copy_src(tmp_path / "base"),
                              _copy_src(tmp_path / "new", _ONE_ULP_UP))
    assert code == 1
    differing = report["tasks_with_different_outputs"]
    assert differing
    # [round, task index] pairs of the one round, each task listed once
    assert all(rnd == 0 for rnd, _ in differing)
    assert len({idx for _, idx in differing}) == len(differing)


# the spectrum task, then a series zeta grid, of the cli-cold deck of seed 41
_COLD = ("--workload", "cli-cold", "--deck-limit", "2")


def test_cold_processes_of_identical_trees_agree(tmp_path):
    code, report = _inproc_ab(_copy_src(tmp_path / "base"), _copy_src(tmp_path / "new"), *_COLD)
    assert code == 0
    assert report["tasks_with_different_outputs"] == []
    for kind, count in (("import", 1), ("task", 2)):
        assert sum(report[f"{kind}_pairs_won"].values()) == count
        for side in ("base", "new"):
            q = report[f"{kind}_s"][side]
            assert 0.0 < q["q1_s"] <= q["median_s"] <= q["q3_s"]
    assert sum(report["rounds_won"].values()) == 1


def test_a_cold_process_printing_one_ulp_off_is_listed(tmp_path):
    code, report = _inproc_ab(_copy_src(tmp_path / "base"),
                              _copy_src(tmp_path / "new", _ONE_ULP_UP), *_COLD)
    assert code == 1
    assert report["tasks_with_different_outputs"] == [[0, 1]]
