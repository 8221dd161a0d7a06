"""Packaging: numpy is the only runtime dependency; scipy is test-only.

The import contract: ``import spherezeta.cli`` registers every library
module but runs only ``truncation``, and a CLI call runs only the modules its
subcommand reads.  Each check runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spherezeta

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(spherezeta.__file__).resolve().parents[1])
LIBRARY = ("truncation", "spectrum", "specfun", "zeta", "kernels", "majorize", "kato")

# Runs ``python -m spherezeta.cli ARGV...`` (or, with no ARGV, only imports
# spherezeta) in this interpreter and prints, as the last line of stdout,
# the package modules whose code ran: an "exec" audit event per module body.
_RUN = """
import json, os, runpy, sys
src, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
pkg = os.path.join(src, "spherezeta")
ran = []
sys.addaudithook(lambda event, args: event == "exec"
                 and os.path.dirname(getattr(args[0], "co_filename", "")) == pkg
                 and ran.append(os.path.basename(args[0].co_filename)[:-3]))
code = 0
if argv:
    sys.argv = ["spherezeta", *argv]
    try:
        runpy.run_module("spherezeta.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import spherezeta
print(json.dumps({"code": code, "ran": ran}))
"""


def _modules_run(*argv):
    proc = subprocess.run([sys.executable, "-c", _RUN, SRC, *argv],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_cli_import_loads_no_scipy():
    # nor the modules that only some calls use: Legendre nodes (Mellin),
    # decimal (grids) and csv (--format csv)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spherezeta.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('numpy.polynomial', 'decimal', 'csv')))")
    proc = subprocess.run([sys.executable, "-c", code, SRC],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_registers_every_library_module():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spherezeta.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('spherezeta.')))")
    proc = subprocess.run([sys.executable, "-c", code, SRC],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(sorted(f"spherezeta.{m}" for m in ("cli",) + LIBRARY))


def test_package_import_runs_no_library_module():
    assert _modules_run() == ([], {"code": 0, "ran": ["__init__"]})


def test_kato_call_runs_no_series_module():
    out, result = _modules_run("kato", "pointwise", "--graph", "cycle:8", "--trials", "2")
    assert result["code"] == 0 and json.loads(out[0])["verdict"] is True
    assert result["ran"] == ["__init__", "cli", "truncation", "kato"]


def test_heat_kernel_call_runs_no_kato():
    out, result = _modules_run("kernel", "--kind", "heat", "--n", "3", "--t", "0.5",
                               "--cos-gamma", "0.5")
    assert result["code"] == 0 and json.loads(out[0])["kind"] == "heat"
    assert "kernels" in result["ran"] and "kato" not in result["ran"]


@pytest.mark.parametrize("argv", [
    ("kernel", "--kind", "heat", "--n", "3", "--t", "0.5", "--cos-gamma", "0.5"),
    ("heat-trace", "--n", "3", "--t", "0.5"),
])
def test_a_heat_call_runs_neither_zeta_nor_majorize(argv):
    out, result = _modules_run(*argv)
    assert result["code"] == 0 and len(out) == 1
    assert sorted(result["ran"]) == sorted(["__init__", "cli", "truncation", "kernels",
                                            "specfun", "spectrum"])


@pytest.mark.parametrize("argv", [
    ("kernel", "--kind", "zeta", "--n", "3", "--s", "2.5", "--cos-gamma", "0.5"),
    ("mellin-check", "--n", "1", "--s", "1.5", "--cos-gamma", "0.5"),
    ("zeta", "--n", "2", "--s", "2"),
])
def test_a_zeta_call_runs_no_majorize(argv):
    out, result = _modules_run(*argv)
    assert result["code"] == 0 and len(out) == 1
    assert "zeta" in result["ran"] and "majorize" not in result["ran"]


def test_dominate_runs_majorize():
    out, result = _modules_run("dominate", "--n", "2", "--s", "2")
    assert result["code"] == 0 and json.loads(out[0])["dominated"] is True
    assert "majorize" in result["ran"]


def test_public_names_bind_at_once_to_their_defining_objects():
    code = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import spherezeta
listed = [name for name in dir(spherezeta) if not name.startswith("_")]
unbound = [name for name in spherezeta.__all__ if name in vars(spherezeta)]
star = {}
exec("from spherezeta import *", star)
star.pop("__builtins__")
same = all(getattr(spherezeta, name) is star[name] is
           getattr(importlib.import_module(f"spherezeta.{module}"), name)
           for module, names in spherezeta._EXPORTS.items() for name in names)
print(json.dumps({"all": spherezeta.__all__, "dir": listed, "star": sorted(star),
                  "unbound": unbound, "same": same}))
"""
    proc = subprocess.run([sys.executable, "-c", code, SRC],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert len(got["all"]) == len(set(got["all"])) == 54
    assert got["dir"] == got["star"] == sorted(got["all"])
    assert got["unbound"] == [] and got["same"] is True


def test_pyproject_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
