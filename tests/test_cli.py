"""Command-line interface: records, formats, exit codes, config handling."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spherezeta
from spherezeta import cli, kato
from spherezeta.kernels import circle_heat_oracle
from spherezeta.spectrum import multiplicity
from spherezeta.truncation import TruncationPolicy
from spherezeta.zeta import regularized_zeta


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_spectrum_records(capsys):
    code, out = run(capsys, ["spectrum", "--n", "3", "--kmax", "5"])
    assert code == 0
    recs = records(out)
    assert len(recs) == 6
    for rec in recs:
        k = rec["k"]
        assert rec["command"] == "spectrum"
        assert rec["lambda"] == k * (k + 2)
        assert rec["d"] == multiplicity(k, 3)
        assert rec["mu"] == rec["lambda"] + 1.0


def test_zeta_series_roundtrip(capsys):
    code, out = run(capsys, ["zeta", "--n", "2", "--s", "2"])
    assert code == 0
    rec = records(out)[0]
    want = regularized_zeta(2.0, 2, TruncationPolicy())
    # 17 significant digits: the printed value round-trips bit-exactly
    assert rec["value"] == want.value
    assert rec["tail_bound"] == want.tail_bound
    assert rec["terms_used"] == want.terms_used


def test_zeta_forms_agree(capsys):
    _, out_series = run(capsys, ["zeta", "--n", "3", "--s", "2.5"])
    _, out_closed = run(capsys, ["zeta", "--n", "3", "--s", "2.5",
                                 "--form", "closed"])
    v1 = records(out_series)[0]["value"]
    v2 = records(out_closed)[0]["value"]
    assert abs(v1 - v2) <= 1e-8


def test_zeta_hurwitz_form_is_multiplicity_free(capsys):
    code, out = run(capsys, ["zeta", "--n", "3", "--s", "2", "--form",
                             "hurwitz"])
    assert code == 0
    # sum_{k>=0} (k+1)^{-4} = pi^4/90, no multiplicities involved
    assert records(out)[0]["value"] == pytest.approx(math.pi**4 / 90, abs=1e-10)
    assert cli.main(["zeta", "--n", "1", "--s", "2", "--form", "hurwitz"]) == 1


def test_zeta_grid(capsys):
    code, out = run(capsys, ["zeta", "--n", "2", "--s-grid", "1.5:3.5:1"])
    assert code == 0
    recs = records(out)
    assert [r["s"] for r in recs] == [1.5, 2.5, 3.5]


def test_zeta_requires_exactly_one_s(capsys):
    assert cli.main(["zeta", "--n", "2"]) == 1
    assert cli.main(["zeta", "--n", "2", "--s", "2",
                     "--s-grid", "1:2:1"]) == 1
    capsys.readouterr()


def test_kernel_heat_matches_oracle(capsys):
    code, out = run(capsys, ["kernel", "--n", "1", "--kind", "heat",
                             "--t", "1", "--cos-gamma", "1",
                             "--tol", "1e-12"])
    assert code == 0
    rec = records(out)[0]
    assert rec["value"] == pytest.approx(circle_heat_oracle(1.0, 0.0),
                                         abs=1e-11)


def test_kernel_zeta_needs_s(capsys):
    assert cli.main(["kernel", "--n", "2", "--kind", "zeta",
                     "--cos-gamma", "0.5"]) == 1
    capsys.readouterr()
    code, out = run(capsys, ["kernel", "--n", "2", "--kind", "zeta",
                             "--s", "2", "--cos-gamma", "0.5"])
    assert code == 0
    assert records(out)[0]["tail_bound"] <= 1e-8


def test_heat_trace_grid(capsys):
    code, out = run(capsys, ["heat-trace", "--n", "2",
                             "--t-grid", "0.5:2.0:0.5"])
    assert code == 0
    vals = [r["value"] for r in records(out)]
    assert len(vals) == 4
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in t


def test_dominate_verdict(capsys):
    code, out = run(capsys, ["dominate", "--n", "3", "--s", "3"])
    assert code == 0
    rec = records(out)[0]
    assert rec["dominated"] is True
    assert rec["first_violation"] is None
    assert rec["zeta_shifted"] < rec["zeta_laplace"]


def test_majorize_exit_codes(capsys):
    code, out = run(capsys, ["majorize", "--x", "3,1", "--y", "2,2"])
    assert code == 0
    assert records(out)[0]["verdict"] == "majorizes"
    code, out = run(capsys, ["majorize", "--x", "2,2", "--y", "3,1"])
    assert code == 2
    assert records(out)[0]["verdict"] == "fails"
    # weak mode passes when only the totals disagree
    code, _ = run(capsys, ["majorize", "--x", "3,2", "--y", "2,2"])
    assert code == 2
    code, _ = run(capsys, ["majorize", "--x", "3,2", "--y", "2,2", "--weak"])
    assert code == 0
    assert cli.main(["majorize", "--x", "3,oops", "--y", "2,2"]) == 1
    capsys.readouterr()


def test_mellin_check_verdict(capsys):
    code, out = run(capsys, ["mellin-check", "--n", "1", "--s", "1.5",
                             "--cos-gamma", "0.5"])
    assert code == 0
    rec = records(out)[0]
    assert rec["verdict"] is True
    assert abs(rec["diff"]) <= 1e-6


def test_kato_checks(capsys):
    for check in ("pointwise", "pairing", "positivity"):
        code, out = run(capsys, ["kato", check, "--graph", "cycle:8",
                                 "--trials", "10", "--seed", "3"])
        assert code == 0
        rec = records(out)[0]
        assert rec["verdict"] is True
        assert rec["min_slack"] >= -1e-12
    code, out = run(capsys, ["kato", "trace", "--graph", "complete:6",
                             "--trials", "5"])
    assert code == 0
    code, out = run(capsys, ["kato", "commute", "--graph", "cycle:8"])
    assert code == 0


def test_kato_duhamel_coarse_steps_flagged(capsys):
    fine, out = run(capsys, ["kato", "duhamel", "--graph", "cycle:8",
                             "--steps", "256"])
    assert fine == 0
    assert records(out)[0]["residual"] <= 1e-9
    coarse, out = run(capsys, ["kato", "duhamel", "--graph", "cycle:8",
                               "--steps", "4", "--t", "10"])
    assert coarse == 2  # defect detected, reported as an inequality failure
    assert records(out)[0]["verdict"] is False


def test_kato_graph_file(capsys, tmp_path):
    good = tmp_path / "tri.mat"
    good.write_text("3\n2 -1 -1\n-1 2 -1\n-1 -1 2\n")
    code, out = run(capsys, ["kato", "pointwise", "--graph",
                             f"file:{good}", "--trials", "5"])
    assert code == 0
    bad = tmp_path / "asym.mat"
    bad.write_text("2\n0 1\n2 0\n")
    assert cli.main(["kato", "pointwise", "--graph", f"file:{bad}"]) == 1
    assert cli.main(["kato", "pointwise", "--graph", "file:/no/such"]) == 1
    assert cli.main(["kato", "pointwise", "--graph", "moebius:7"]) == 1
    capsys.readouterr()
    # a size that is not an integer was refused with Python's int() message
    for spec in ("cycle:abc", "cycle:", "complete:8.0"):
        assert cli.main(["kato", "pointwise", "--graph", spec]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"usage error: graph spec {spec!r} needs an integer "
                                     "size m; use cycle:m, complete:m or file:PATH\n")
    empty = tmp_path / "empty.mat"
    empty.write_text("0\n")
    for check in ("pointwise", "positivity", "trace", "duhamel", "commute"):
        code, out = run(capsys, ["kato", check, "--graph", f"file:{empty}"])
        assert (code, out) == (1, "")


@pytest.mark.parametrize("check", ["pointwise", "pairing", "positivity", "trace"])
def test_kato_rejects_zero_trials(capsys, check):
    for trials in ("0", "-3"):
        code, out = run(capsys, ["kato", check, "--graph", "cycle:8",
                                 "--trials", trials])
        assert (code, out) == (1, "")


@pytest.mark.parametrize("check", ["pointwise", "pairing", "positivity",
                                   "trace", "duhamel", "commute"])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "-0.5"])
def test_kato_rejects_bad_time(capsys, check, t):
    code, out = run(capsys, ["kato", check, "--graph", "cycle:8", "--t", t])
    assert (code, out) == (1, "")


def test_kato_block_matches_trial_by_trial(capsys):
    import numpy as np

    from spherezeta import kato

    op = kato.cycle_laplacian(20)
    for check in ("pointwise", "pairing", "positivity"):
        code, out = run(capsys, ["kato", check, "--graph", "cycle:20",
                                 "--trials", "7", "--seed", "11", "--t", "0.5"])
        assert code == 0
        rec = records(out)[0]
        rng = np.random.default_rng(11)
        worst = math.inf
        for _ in range(7):
            psi = kato.random_state(20, rng)
            if check == "pointwise":
                worst = min(worst, kato.kato_pointwise_check(op, psi).min_slack)
            elif check == "pairing":
                phi = np.abs(rng.standard_normal(20))
                worst = min(worst, kato.generator_pairing_check(op, psi, phi).slack)
            else:
                worst = min(worst, kato.positivity_domination_check(op, 0.5, psi).min_slack)
        assert rec["min_slack"] == pytest.approx(worst, rel=0.0, abs=1e-12)
        assert rec["verdict"] is True


def test_kato_trials_split_into_blocks(capsys, monkeypatch):
    argvs = [["kato", check, "--graph", "cycle:16", "--trials", "9", "--seed", "5"]
             for check in ("pointwise", "pairing", "positivity")]
    whole = [run(capsys, argv) for argv in argvs]
    # 16-vertex states, 2 per block: blocks of 2, 2, 2, 2 and 1 trials
    monkeypatch.setattr(cli, "_KATO_BLOCK_ENTRIES", 32)
    for (code, out), argv in zip(whole, argvs):
        split_code, split_out = run(capsys, argv)
        assert split_code == code == 0
        a, b = records(out)[0], records(split_out)[0]
        assert a.pop("min_slack") == pytest.approx(b.pop("min_slack"), rel=0.0, abs=1e-12)
        assert a == b


def test_specfun_commands(capsys):
    code, out = run(capsys, ["specfun", "zeta", "--s", "2", "--tol", "1e-12"])
    assert code == 0
    assert records(out)[0]["value"] == pytest.approx(math.pi**2 / 6,
                                                     abs=1e-11)
    code, out = run(capsys, ["specfun", "gegenbauer", "--k", "3", "--n", "2",
                             "--t", "0.5"])
    assert code == 0
    assert records(out)[0]["value"] == pytest.approx(-0.4375, abs=1e-15)
    assert cli.main(["specfun", "hurwitz", "--s", "2"]) == 1
    capsys.readouterr()


def test_specfun_zeta_at_a_huge_exponent(capsys):
    # the midpoint tail bound was nan from s ~ 1.3e154 on, and the call
    # failed with "tail bound nan" at the term budget
    code, out = run(capsys, ["specfun", "zeta", "--s", "1e300"])
    assert code == 0
    rec = records(out)[0]
    assert rec["value"] == 1.0 and rec["terms_used"] == 16 and rec["tail_bound"] <= 1e-10


def test_global_flags_both_positions(capsys):
    _, out_a = run(capsys, ["--tol", "1e-6", "zeta", "--n", "2", "--s", "2"])
    _, out_b = run(capsys, ["zeta", "--n", "2", "--s", "2", "--tol", "1e-6"])
    assert out_a == out_b
    assert records(out_a)[0]["tail_bound"] <= 1e-6


def test_output_is_deterministic(capsys):
    argv = ["zeta", "--n", "4", "--s-grid", "2.5:4.5:0.5"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_csv_format(capsys):
    code, out = run(capsys, ["spectrum", "--n", "2", "--kmax", "3",
                             "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["command", "n", "k", "lambda", "mu", "d",
                                   "tail_bound"]
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "spectrum"


def _strict_records(out):
    # json.loads alone would accept Infinity and NaN, which no JSON reader must
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return [json.loads(line, parse_constant=refuse) for line in out.strip().splitlines()]


@pytest.mark.parametrize("argv, field", [
    (["heat-trace", "--n", "340", "--t", "inf"], "t"),
    (["heat-trace", "--n", "2", "--t", "inf"], "t"),
    (["kernel", "--kind", "heat", "--t", "inf", "--n", "3", "--cos-gamma", "0.5"], "t"),
    (["kernel", "--kind", "heat", "--t", "inf", "--n", "1", "--cos-gamma", "1"], "t"),
])
def test_json_writes_a_nonfinite_float_as_null(capsys, argv, field):
    code, out = run(capsys, argv)
    assert code == 0
    for rec in _strict_records(out):
        assert rec[field] is None
        assert all(v is None or not isinstance(v, float) or math.isfinite(v)
                   for v in rec.values())
    # CSV keeps the float's own spelling
    code, out = run(capsys, argv + ["--format", "csv"])
    header, row = out.strip().splitlines()
    assert code == 0 and row.split(",")[header.split(",").index(field)] == "inf"


def test_out_file(capsys, tmp_path):
    dest = tmp_path / "z.ndjson"
    code, _ = run(capsys, ["zeta", "--n", "2", "--s", "2",
                           "--out", str(dest)])
    assert code == 0
    rec = json.loads(dest.read_text().strip())
    assert rec["command"] == "zeta"


@pytest.mark.parametrize("dest", ["missing/z.ndjson", "."])
def test_unwritable_out_file_is_a_usage_error(capsys, tmp_path, dest):
    # a missing directory, and a path that is a directory
    err = failure(capsys, ["zeta", "--n", "2", "--s", "3", "--out", str(tmp_path / dest)])
    assert err.startswith("usage error: cannot write output: ")


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-5\nformat = csv\n")
    code, out = run(capsys, ["zeta", "--n", "2", "--s", "2",
                             "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0].startswith("command,")  # csv from config
    # explicit flag wins over the config value
    code, out = run(capsys, ["zeta", "--n", "2", "--s", "2",
                             "--config", str(cfg), "--format", "json"])
    assert records(out)[0]["tail_bound"] <= 1e-5
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 12\n")
    assert cli.main(["zeta", "--n", "2", "--s", "2",
                     "--config", str(bad)]) == 1
    capsys.readouterr()


def test_domain_errors_exit_one(capsys):
    assert cli.main(["zeta", "--n", "2", "--s", "0.5"]) == 1
    assert cli.main(["heat-trace", "--n", "2", "--t", "-1"]) == 1
    assert cli.main(["zeta", "--n", "2", "--s-grid", "3:1:1"]) == 1
    capsys.readouterr()


def fresh_process(argv):
    """``python -m spherezeta.cli argv`` in a new interpreter."""
    # the package may be importable only through the test path, not installed
    src = str(Path(spherezeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "spherezeta.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_installed():
    proc = fresh_process(["spectrum", "--n", "1", "--kmax", "2"])
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 3


def test_grid_points_do_not_drift(capsys):
    code, out = run(capsys, ["heat-trace", "--n", "2", "--t-grid", "0.1:0.5:0.1"])
    assert code == 0
    assert [r["t"] for r in records(out)] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert '"t": 0.30000000000000004' not in out


@pytest.mark.parametrize("grid", ["1:inf:0.5", "2:nan:0.5", "-inf:3:1", "2:3:inf",
                                  "1e999:1e999:1", "2:3:0", "3:2:1", "2:3",
                                  "2:x:1", "0:1e9:1", "0:1e30:1e-30"])
def test_bad_grids_are_usage_errors(capsys, grid):
    # non-finite parts, empty ranges, malformed text, and grids over the
    # point budget all exit 1 before any evaluation, with nothing on stdout
    assert cli.main(["zeta", "--n", "2", "--s-grid", grid]) == 1
    assert capsys.readouterr().out == ""


def test_grid_point_budget(capsys):
    top = cli._GRID_MAX_POINTS
    assert len(cli._parse_grid(f"0:{top - 1}:1")) == top
    assert cli.main(["heat-trace", "--n", "1", "--t-grid", f"1:{top + 1}:1"]) == 1
    assert capsys.readouterr().out == ""


def test_dominate_high_dimension(capsys):
    # the unshifted zeta tail at n = 40 needs K = 32, past the first rung
    code, out = run(capsys, ["dominate", "--n", "40", "--s", "20.5"])
    assert code == 0
    rec = records(out)[0]
    assert rec["dominated"] is True
    assert rec["laplace_bound"] <= 1e-10


def test_dominate_with_underflowed_terms(capsys):
    # (1000.5)^(-120) underflows to 0.0; this exited 1 with "error: entries
    # must be positive"
    code, out = run(capsys, ["dominate", "--n", "2", "--s", "60", "--kmax", "1000"])
    assert code == 0
    rec = records(out)[0]
    assert rec["dominated"] is True and rec["first_violation"] is None
    assert 0.0 < rec["zeta_shifted"] < rec["zeta_laplace"]


def test_kernel_over_roundoff_floor_exits_one(capsys):
    # bound 4e65 at tol 1e-8 used to be printed with exit 0
    assert cli.main(["kernel", "--kind", "heat", "--n", "60", "--t", "1e-6",
                     "--cos-gamma", "0.5"]) == 1
    assert capsys.readouterr().out == ""


def test_every_subcommand_has_a_handler():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", [
    ["kernel", "--kind", "heat", "--n", "3", "--t", "1e-320", "--cos-gamma", "0.5"],
    ["heat-trace", "--n", "3", "--t", "1e-320"],
])
def test_tiny_time_refuses_at_term_budget(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "term budget" in captured.err


MELLIN_ARGV = ["mellin-check", "--n", "2", "--s", "2.25", "--cos-gamma", "0.3"]


@pytest.mark.parametrize("line", [
    "tol = 1e-5", "max_k = 300000", "format = csv",
])
def test_mellin_config_keys_accepted(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out = run(capsys, MELLIN_ARGV + ["--config", str(cfg)])
    assert code == 0
    if line.startswith("format"):
        assert out.splitlines()[0].startswith("command,")
        return
    rec = records(out)[0]
    assert rec["verdict"] is True
    _, default = run(capsys, MELLIN_ARGV)
    assert rec["quad_nodes"] == records(default)[0]["quad_nodes"]


def test_config_format_must_be_known(capsys, monkeypatch, tmp_path):
    # refused where the config file is read, before the command runs
    called = []
    monkeypatch.setitem(cli._COMMANDS, "majorize", called.append)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-9\nformat = xml\n")
    err = failure(capsys, ["majorize", "--x", "3,1", "--y", "2,2", "--config", str(cfg)])
    assert f"{cfg}:2: unknown format 'xml'" in err
    assert called == []


@pytest.mark.parametrize("key", ["split_point", "nodes_small", "nodes_large",
                                 "nodes", "t_cutoff"])
def test_removed_quadrature_keys_are_unknown(capsys, tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 256\n")
    assert cli.main(MELLIN_ARGV + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key" in captured.err


def test_quad_nodes_flag_is_removed(capsys):
    # the bridge sizes its own panels from its error certificate
    assert cli.main(MELLIN_ARGV + ["--quad-nodes", "512"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--s", "21", "--tol", "1e-10"],
    ["--n", "4", "--s", "15"],
])
def test_closed_form_held_to_tol(capsys, argv):
    # for even n, (2^p - 1) zeta_R(p) less 2^p cancels; the bound (0.0059
    # and 1.2e-7 here) used to be printed with value 0 and exit 0
    assert cli.main(["zeta", "--form", "closed"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds tol" in captured.err


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def fail():
        raise AssertionError("build_parser called from main")

    monkeypatch.setattr(cli, "build_parser", fail)
    assert cli.main(["majorize", "--x", "3,1", "--y", "2,2"]) == 0
    capsys.readouterr()


def test_underflowing_zeta_record_is_pinned(capsys):
    # every term of Z(101) on S^200 underflows; a change to underflow
    # handling must move this record on purpose
    code, out = run(capsys, ["zeta", "--n", "200", "--s", "101"])
    assert code == 0
    assert records(out) == [{"command": "zeta", "form": "series", "n": 200, "s": 101,
                             "value": 0, "tail_bound": 0, "terms_used": 16}]


@pytest.mark.parametrize("s", ["172", "200"])
def test_mellin_large_s_refuses_cleanly(capsys, s):
    code = cli.main(["mellin-check", "--n", "1", "--s", s, "--cos-gamma", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "exceeds budget" in captured.err
    assert "range error" not in captured.err
    code, out = run(capsys, ["mellin-check", "--n", "2", "--s", s, "--cos-gamma", "0.5"])
    assert code == 0
    assert records(out)[0]["verdict"] is True


@pytest.mark.parametrize("n, s, threshold", [("2", "1.5", "1.016e+07"), ("3", "2", "1.437e+07")])
def test_mellin_head_cut_past_the_term_budget_names_it(capsys, n, s, threshold):
    # the heat tail bound was inf below its monotonicity threshold, and the
    # refusal read "tail bound inf still exceeds ... at the term budget"
    err = failure(capsys, ["mellin-check", "--n", n, "--s", s, "--cos-gamma", "0.5"])
    assert err == ("error: the heat tail bound at the head cut t_min = 4.845e-15 holds "
                   f"only from k = sqrt((n-1)/(2 t_min)) = {threshold} on, past the term "
                   "budget max_k=2000000\n")


@pytest.mark.parametrize("argv, message", [
    (["dominate", "--n", "2", "--s", "2", "--kmax", "100000000"], "term budget"),
    (["dominate", "--n", "2", "--s", "2", "--kmax", "65", "--max-k", "64"], "term budget"),
    (["specfun", "gegenbauer", "--k", "100000000", "--n", "3", "--t", "0.5"], "--max-k"),
    (["specfun", "gegenbauer", "--k", "11", "--n", "3", "--t", "0.5", "--max-k", "10"],
     "--max-k"),
    (["spectrum", "--n", "3", "--kmax", "100000000"], "--max-k"),
    (["spectrum", "--n", "3", "--kmax", "11", "--max-k", "10"], "--max-k"),
])
def test_term_budget_caps_inputs(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("graph, trials, seed", [("cycle:24", 13, 3), ("complete:64", 20, 1)])
@pytest.mark.parametrize("check", ["pointwise", "pairing"])
def test_kato_block_draw_matches_random_state(capsys, check, graph, trials, seed):
    # states drawn column by column with kato.random_state, as one C-ordered
    # block; pointwise on complete:64 with seed 1 moves in the last digit
    # when the block is a transposed view instead
    import numpy as np

    from spherezeta import kato

    op = cli._parse_graph(graph)
    rng = np.random.default_rng(seed)
    psi = np.empty((op.dim, trials), dtype=complex)
    phi = np.empty((op.dim, trials))
    for j in range(trials):
        psi[:, j] = kato.random_state(op.dim, rng)
        if check == "pairing":
            phi[:, j] = np.abs(rng.standard_normal(op.dim))
    if check == "pointwise":
        rep = kato.kato_pointwise_check(op, psi, 1e-12)
        slack = rep.min_slack
    else:
        rep = kato.generator_pairing_check(op, psi, phi, 1e-12)
        slack = float(np.min(rep.slack))
    want = io.StringIO()
    cli._emit([{"command": "kato", "check": check, "graph": graph, "seed": seed,
                "t": 1.0, "trials": trials, "min_slack": slack, "tol": 1e-12,
                "verdict": rep.ok}], "json", want)
    code, out = run(capsys, ["kato", check, "--graph", graph,
                             "--trials", str(trials), "--seed", str(seed)])
    assert (code, out) == (0, want.getvalue())


def failure(capsys, argv) -> str:
    """Exit code 1 with nothing on stdout; returns stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    return captured.err


@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    ["majorize", "--x", "1,0", "--y", "0,5", "--weak"],
    ["kato", "pointwise", "--graph", "cycle:8", "--trials", "3"],
])
def test_bad_tol_is_a_usage_error(capsys, tmp_path, argv, bad):
    # a NaN tol once made every comparison pass: x = (1, 0) does not weakly
    # majorize y = (0, 5), yet the verdict was weakly_majorizes with exit 0
    assert "tol must be finite and nonnegative" in failure(capsys, argv + [f"--tol={bad}"])
    cfg = tmp_path / "bad-tol.cfg"
    cfg.write_text(f"tol = {bad}\n")
    assert "tol must be finite" in failure(capsys, argv + ["--config", str(cfg)])


@pytest.mark.parametrize("argv, limit", [
    (["kato", "pointwise", "--graph", "cycle:100000"],
     "graph dimension 100000 exceeds the budget of 2048"),
    (["kato", "commute", "--graph", "complete:4096"],
     "graph dimension 4096 exceeds the budget of 2048"),
    (["kato", "trace", "--graph", "cycle:1024"], "trace budget of 2^34"),
    (["kato", "duhamel", "--graph", "cycle:1024", "--steps", "2048"],
     "Duhamel budget of 2^20"),
    # a trial below 64 vertices is priced as one on 64
    (["kato", "trace", "--graph", "cycle:3", "--trials", "65537"],
     "--trials 65537 x max(m, 64)^3 at m = 3 exceeds the trace budget of 2^34"),
])
def test_kato_budgets_refuse_before_the_work(capsys, argv, limit):
    start = time.perf_counter()
    assert limit in failure(capsys, argv)
    assert time.perf_counter() - start < 1.0


def test_kato_file_header_is_held_to_the_dimension_budget(capsys, tmp_path):
    big = tmp_path / "big.mat"
    big.write_text("100000\n1.0\n")
    assert ("graph dimension 100000 exceeds the budget of 2048"
            in failure(capsys, ["kato", "pointwise", "--graph", f"file:{big}"]))


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("graph, m", [("cycle:2048", 2048), ("complete:8", 8)])
@pytest.mark.parametrize("check", ["pointwise", "pairing", "positivity"])
def test_state_checks_hold_trials_to_the_budget(capsys, monkeypatch, check, graph, m):
    def draw(seed):
        raise _Drawn

    monkeypatch.setattr(cli.np.random, "default_rng", draw)
    limit = (1 << 34) // max(m, 64)**2
    with pytest.raises(_Drawn):  # at the limit the states are drawn
        cli.main(["kato", check, "--graph", graph, "--trials", str(limit)])
    # one past it the call is refused before any state is drawn
    err = failure(capsys, ["kato", check, "--graph", graph, "--trials", str(limit + 1)])
    assert (f"--trials {limit + 1} x max(m, 64)^2 at m = {m} exceeds the state budget of 2^34"
            in err)


KATO_FILE_FLAGS = {
    "pointwise": ["--trials", "7", "--seed", "1"],
    "pairing": ["--trials", "7", "--seed", "2"],
    "positivity": ["--trials", "7", "--seed", "3", "--t", "0.5"],
    "trace": ["--trials", "3", "--seed", "4"],
    "duhamel": ["--steps", "256", "--seed", "5"],
    "commute": ["--t", "2.0"],
}


def _write_graph(path, op, fmt="{!r}"):
    rows = (" ".join(fmt.format(float(v)) for v in row) for row in op.entries)
    path.write_text(f"{op.dim}\n" + "\n".join(rows) + "\n")


def _kato_on(capsys, path, check):
    return run(capsys, ["kato", check, "--graph", f"file:{path}", *KATO_FILE_FLAGS[check]])


def _forget_graph(monkeypatch):
    monkeypatch.setattr(cli, "_kept_graph", ("", None))


@pytest.fixture
def parses(monkeypatch):
    """The sizes of the files parsed from here on, none kept at the start."""
    sizes = []
    parse = cli._parse_matrix

    def counted(data):
        sizes.append(len(data))
        return parse(data)

    monkeypatch.setattr(cli, "_parse_matrix", counted)
    _forget_graph(monkeypatch)
    return sizes


def test_kept_file_graph_prints_what_a_fresh_process_prints(capsys, monkeypatch, tmp_path,
                                                            parses):
    path = tmp_path / "g.mat"
    _write_graph(path, kato.random_graph_laplacian(24, 0.2, 3))
    fresh = {}
    for check in KATO_FILE_FLAGS:
        _forget_graph(monkeypatch)
        fresh[check] = _kato_on(capsys, path, check)
    for check in KATO_FILE_FLAGS:
        for before in KATO_FILE_FLAGS.keys() - {check}:
            _forget_graph(monkeypatch)
            _kato_on(capsys, path, before)
            assert _kato_on(capsys, path, check) == fresh[check], (before, check)
    for order in (list(KATO_FILE_FLAGS), list(KATO_FILE_FLAGS)[::-1]):
        _forget_graph(monkeypatch)
        del parses[:]
        assert [_kato_on(capsys, path, check) for check in order] == [fresh[c] for c in order]
    # the whole order ran on one operator, parsed once and decomposed by its
    # first eigh reader
    assert len(parses) == 1
    op = cli._kept_graph[1]
    assert cli._parse_graph(f"file:{path}") is op and "eigh" in vars(op)
    assert len(parses) == 1


def test_kept_file_graph_holds_no_bytes(capsys, tmp_path, parses):
    import gc
    import hashlib

    path = tmp_path / "g.mat"
    _write_graph(path, kato.random_graph_laplacian(24, 0.2, 3))
    data = path.read_bytes()
    refs = sys.getrefcount(data)
    cli._parse_matrix(data)
    assert sys.getrefcount(data) == refs  # the parse keeps no reference to the text
    op = cli._load_matrix(str(path))
    digest, kept = cli._kept_graph
    assert kept is op and digest == hashlib.sha256(data).hexdigest()
    held = gc.get_referents(cli._kept_graph) + gc.get_referents(vars(op))
    assert not any(isinstance(x, (bytes, bytearray, memoryview)) for x in held)
    # the same bytes, read again, find the kept operator by their digest
    del parses[:]
    assert cli._load_matrix(str(path)) is op
    assert run(capsys, ["kato", "commute", "--graph", f"file:{path}"])[0] == 0
    assert parses == []


def test_rewritten_graph_file_is_parsed_again(capsys, monkeypatch, tmp_path, parses):
    path = tmp_path / "g.mat"
    outs = []
    for seed in (3, 4):
        # fixed-width entries, so the rewrite keeps the size; the mtime is set back
        _write_graph(path, kato.random_graph_laplacian(24, 0.2, seed), "{:5.1f}")
        if not outs:
            first = path.stat()
        os.utime(path, ns=(first.st_atime_ns, first.st_mtime_ns))
        assert path.stat().st_size == first.st_size
        outs.append({check: _kato_on(capsys, path, check) for check in KATO_FILE_FLAGS})
    assert len(parses) == 2
    _forget_graph(monkeypatch)
    assert {check: _kato_on(capsys, path, check) for check in KATO_FILE_FLAGS} == outs[1]
    assert all(outs[0][check] != outs[1][check] for check in KATO_FILE_FLAGS)


# spellings that float() and numpy's C parser must read to the same bits
_SPELLINGS = ("{!r}", "{:.25g}", "{:.17e}", "{:E}", "{:.3g}", "{:.0f}")
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e5, -2.5, 0.5)
_EDGE_TOKENS = (".5", "5.", "1E5", "+1.5", "-0", "0e0", "1e-320", "4.9406564584124654e-324",
                "+.25e+2", "00012")


@pytest.mark.parametrize("layout", ["lines", "tabs", "crlf", "header line", "ragged"])
def test_decimal_parse_gives_float_bits(layout):
    import struct

    import numpy as np

    rng = np.random.default_rng(len(layout))
    m = 47
    doubles = rng.integers(0, 1 << 64, size=m * m, dtype=np.uint64).view(np.float64)
    vals = list(_EDGE_VALUES) * 5 + [float(v) for v in doubles if math.isfinite(v)]
    tokens = [_SPELLINGS[i % len(_SPELLINGS)].format(v) for i, v in enumerate(vals)]
    tokens = tokens[:m * m - len(_EDGE_TOKENS)] + list(_EDGE_TOKENS)
    seps = {"lines": ["\n"], "tabs": ["\t"], "crlf": ["\r\n"], "header line": [" "],
            "ragged": [" ", "  ", "\t", "\n", "\r\n", " \x0b", "\x0c\n"]}[layout]
    text = f"{m}" + ("\n" if layout != "header line" else " ")
    text += "".join(tok + seps[i % len(seps)] for i, tok in enumerate(tokens))
    data = text.encode()
    fast = cli._decimal_entries(data)
    assert fast is not None, "the file fell back to the token path"
    want = b"".join(struct.pack("d", float(tok)) for tok in text.split()[1:])
    assert fast.tobytes() == want == cli._token_entries(data).tobytes()


@pytest.mark.parametrize("text, message", [
    ("", "matrix file is empty"),
    ("3\n2 -1 -1\n-1 2 -1\n", "promises 3x3 entries, found 6"),
    ("2\n0 1\n2 0\n", "not exactly symmetric"),
    ("2\n0 x\nx 0\n", "could not convert"),
    ("2.5\n", "invalid literal"),
    ("100000\n1.0\n", "exceeds the budget of 2048"),
    ("0\n", "at least 1x1"),
    ("2\nnan 0\n0 0\n", "must be finite"),
    (None, "cannot read matrix file"),
    ("-2\n1 0 0 1\n", "matrix file header -2 is below 1"),
    # decimal text that numpy's parser stops on: the token path names the token
    ("2\n1 0 0 e\n", "could not convert string to float: 'e'"),
    ("2\n1 0 0 1-1\n", "could not convert string to float: '1-1'"),
])
def test_failing_graph_file_is_never_kept(capsys, tmp_path, parses, text, message):
    good = tmp_path / "good.mat"
    good.write_text("3\n2 -1 -1\n-1 2 -1\n-1 -1 2\n")
    assert run(capsys, ["kato", "commute", "--graph", f"file:{good}"])[0] == 0
    kept = cli._kept_graph
    bad = tmp_path / "bad.mat"
    if text is not None:
        bad.write_text(text)
    errs = [failure(capsys, ["kato", "commute", "--graph", f"file:{bad}"]) for _ in range(3)]
    assert message in errs[0] and errs[0] == errs[1] == errs[2]
    # the good graph is still the one kept: it is not parsed again
    assert cli._kept_graph is kept
    del parses[:]
    assert cli._load_matrix(str(good)) is kept[1]
    assert parses == []


@pytest.mark.parametrize("check", ["pointwise", "pairing", "positivity"])
def test_state_check_on_a_non_laplacian_names_itself(capsys, tmp_path, check):
    path = tmp_path / "g.mat"
    path.write_text("2\n1 1\n1 1\n")
    err = failure(capsys, ["kato", check, "--graph", f"file:{path}", "--trials", "2"])
    assert f"error: {check} check requires nonpositive off-diagonals" in err


def _negative_ground_graph():
    # a graph whose computed lowest eigenvalue rounds below zero, so that
    # e^{-tL} overflows at a huge t; which seed gives one depends on LAPACK
    for seed in range(1, 65):
        op = kato.random_graph_laplacian(24, 0.2, seed)
        if op.eigh[0][0] < 0.0:
            return op
    pytest.skip("no random graph with a negative computed eigenvalue")


@pytest.mark.parametrize("argv, message", [
    (["specfun", "hurwitz", "--s", "300", "--a", "0.05"], "certified bound inf"),
    (["heat-trace", "--n", "340", "--t", "1e-4"],
     "multiplicity d_k of S^340 overflows a double from k = 840 on"),
    (["kato", "positivity", "--t", "1e300"], "e^(-tL) overflows at t = 1e+300"),
    # each was a bare "error: math range error"
    (["zeta", "--form", "closed", "--n", "2", "--s", "520"],
     "the closed form's scale 2^(2s - 1) overflows a double at s = 520.0"),
    (["mellin-check", "--n", "2", "--s", "8e307", "--cos-gamma", "0.5"],
     "log Gamma(s) overflows a double at s = 8e+307"),
])
def test_overflow_on_the_way_to_a_refusal_prints_only_the_refusal(tmp_path, argv, message):
    if argv[0] == "kato":
        path = tmp_path / "g.mat"
        _write_graph(path, _negative_ground_graph())
        argv = argv + ["--graph", f"file:{path}"]
    proc = fresh_process(argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_kernel_refuses_an_overflowing_sphere_volume(capsys):
    argv = ["kernel", "--n", "343", "--kind", "heat", "--t", "0.5", "--cos-gamma", "0.5"]
    assert "sphere dimension n = 343 exceeds 342" in failure(capsys, argv)


@pytest.mark.parametrize("n", ["200", "342"])
@pytest.mark.parametrize("argv", [
    ["kernel", "--kind", "heat", "--t", "0.5", "--cos-gamma", "0.5"],
    ["heat-trace", "--t", "0.5"],
])
def test_high_dimensional_heat_certifies_or_names_the_refusal(capsys, argv, n):
    # the heat tail bound's powers c^(n-1) and 2^n overflow a double here;
    # this once ended in a bare "(34, 'Numerical result out of range')"
    code = cli.main(argv + ["--n", n])
    captured = capsys.readouterr()
    assert "out of range" not in captured.err
    if code == 0:
        (rec,) = records(captured.out)
        assert rec["tail_bound"] <= (1e-8 if argv[0] == "kernel" else 1e-10)
    else:
        assert (code, captured.out) == (1, "")
        assert "exceeds tol" in captured.err
