"""Golden CLI outputs: every subcommand and kato check, stdout pinned byte for byte.

``golden_cli.txt`` holds blocks of a ``$ spherezeta ...`` line followed by
the exact stdout of that command.  A change that moves any of these
outputs, even in the last digit, has to regenerate the file and say why:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import pathlib
import shlex
import sys

import pytest

from spherezeta import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.txt")
# file: paths in COMMANDS are relative to the repository root
ROOT = GOLDEN.parents[1]

# the README examples, with a cycle graph in place of the file graph, then
# the remaining kato checks, majorize --weak and the other kernel/zeta forms,
# then the series paths that share work: the spectrum multiplicities, the
# closed form's Riemann values, two kernels at one angle and a long
# Gegenbauer table, then kernels on the diagonal and at the antipode and a
# spectrum whose multiplicities outgrow 2^53, then every kato check on one
# graph file (random_graph_laplacian(12, 0.3, 12)), run one after another in
# one process and with the checks that read L's eigenvectors first
COMMANDS = [
    "spectrum --n 3 --kmax 10",
    "zeta --n 2 --s 2.0 --form closed",
    "zeta --n 2 --s-grid 1.5:3.5:0.5",
    "kernel --n 2 --kind heat --t 0.25 --cos-gamma 0.5",
    "heat-trace --n 3 --t-grid 0.5:4.0:0.5",
    "mellin-check --n 2 --s 2.25 --cos-gamma 0.3",
    "dominate --n 3 --s 2.0 --kmax 400",
    "majorize --x 3,1 --y 2,2",
    "kato pointwise --graph cycle:12 --trials 50 --seed 7",
    "kato duhamel --graph cycle:12 --steps 256",
    "specfun gegenbauer --k 3 --n 2 --t 0.5",
    "kato pairing --graph cycle:12 --trials 20 --seed 3",
    "kato positivity --graph complete:8 --trials 10 --seed 2 --t 0.5",
    "kato trace --graph cycle:10 --trials 5 --seed 1",
    "kato trace --graph complete:6 --trials 5 --seed 4",
    "kato commute --graph cycle:16",
    "kato commute --graph complete:8",
    "majorize --x 3,2 --y 2,2 --weak",
    "kernel --n 3 --kind zeta --s 3.0 --cos-gamma 0.25",
    "zeta --n 3 --s 2.5 --form hurwitz",
    "specfun hurwitz --s 2.5 --a 0.5",
    "spectrum --n 12 --kmax 40",
    "zeta --n 4 --s 3.0 --form closed",
    "kernel --kind heat --n 5 --t 0.001 --cos-gamma 0.3",
    "kernel --kind zeta --n 5 --s 4.0 --cos-gamma 0.3",
    "specfun gegenbauer --k 150 --n 7 --t 0.3",
    "kernel --kind heat --n 6 --t 0.01 --cos-gamma 1",
    "kernel --kind zeta --n 4 --s 4.0 --cos-gamma=-1",
    "spectrum --n 20 --kmax 60",
    "kato positivity --graph file:tests/graph12.mat --trials 10 --seed 2 --t 0.5",
    "kato duhamel --graph file:tests/graph12.mat --steps 256",
    "kato trace --graph file:tests/graph12.mat --trials 5 --seed 1",
    "kato commute --graph file:tests/graph12.mat",
    "kato pointwise --graph file:tests/graph12.mat --trials 50 --seed 7",
    "kato pairing --graph file:tests/graph12.mat --trials 20 --seed 3",
]


def _stdout(command: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(buf):
        code = cli.main(shlex.split(command))
    return code, buf.getvalue()


def _golden() -> dict[str, str]:
    blocks = {}
    for block in GOLDEN.read_text().split("$ spherezeta ")[1:]:
        command, _, out = block.partition("\n")
        blocks[command] = out
    return blocks


def test_golden_file_lists_every_command():
    assert list(_golden()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_stdout(command):
    assert _stdout(command) == (0, _golden()[command])


if __name__ == "__main__":
    with GOLDEN.open("w") as fh:
        for command in COMMANDS:
            code, out = _stdout(command)
            if code != 0:
                sys.exit(f"{command!r} exited {code}")
            fh.write(f"$ spherezeta {command}\n{out}")
