"""tools/inproc_ab.py: two identical trees agree, a one-ulp change is listed."""

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


def _inproc_ab(base: Path, new: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inproc_ab.py"), str(base), str(new),
         "--workload", "series", "--rounds", "1", "--seeds", "41"],
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
