"""Packaging: numpy is the only runtime dependency; scipy is test-only."""

import subprocess
import sys
from pathlib import Path

import pytest

import spherezeta

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    src = str(Path(spherezeta.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spherezeta.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_pyproject_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
