"""Command-line front end.

Subcommands map one-to-one onto the library: spectrum tables, zeta values
(series / closed / hurwitz forms), kernel evaluation, heat traces, the
Mellin consistency check, zeta-pair domination, majorization verdicts,
matrix Kato checks, and raw special functions.

Records are emitted as JSON (one object per line) or CSV; every numeric
record carries its certified error field, floats are printed with 17
significant digits so they round-trip exactly (a non-finite float, such as
``--t inf``, is null in JSON and inf or nan in CSV), and output is byte-stable
for a fixed (argv, seed).  Exit codes: 0 on success, 2 when a checked
inequality fails, 1 on usage or domain errors.

A kato ``file:`` graph is read on every call, and the last one that parsed
and validated is kept with its decompositions, so repeated checks on one
file in a process parse and decompose it once; a call prints what a fresh
process prints for the same argv.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import locale
import math
import sys

import numpy as np

from .truncation import (
    DEFAULT_POLICY,
    AccuracyError,
    EvalResult,
    TruncationError,
    TruncationPolicy,
)


def _lazy_module(name: str):
    """The package's module ``name``, put in ``sys.modules`` (and on the
    package) now but executed on its first attribute read, through
    ``importlib.util.LazyLoader``; a module already imported is returned as is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# a call runs only the modules its subcommand reads (kato none of the others,
# a heat call neither zeta nor majorize); truncation, which every series
# command and the error handling of main use, is imported as usual above
kato, kernels, majorize, spectrum, specfun, zeta = map(
    _lazy_module, ("kato", "kernels", "majorize", "spectrum", "specfun", "zeta"))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; this tool reserves 2
    # for violated inequalities, so route usage failures through code 1.
    def error(self, message):
        raise UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return json.dumps(v)


def _json_value(v) -> str:
    # JSON has no inf or nan (json.loads reads only its own extension)
    if isinstance(v, (float, np.floating)) and not math.isfinite(v):
        return "null"
    return _fmt(v)


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            body = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in rec.items())
            out.write("{" + body + "}\n")
        return
    if fmt == "csv":
        if not records:
            return
        import csv  # CSV output only

        keys = list(records[0].keys())
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            writer.writerow(
                ["" if rec.get(k) is None else _fmt(rec.get(k)).strip('"')
                 for k in keys]
            )
        return
    raise UsageError(f"unknown format {fmt!r}")


# most points a --s-grid / --t-grid may expand to
_GRID_MAX_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    # decimal arithmetic, so a + i*step does not drift (0.1:0.5:0.1 gives 0.3)
    from decimal import Decimal

    try:
        a, b, step = (Decimal(p) for p in text.split(":"))
        if not all(math.isfinite(float(x)) for x in (a, b, step)):
            raise UsageError(f"grid {text!r} needs finite a, b and step")
        if step <= 0 or b < a:
            raise UsageError("grid needs a <= b and step > 0")
        if b - a >= step * _GRID_MAX_POINTS:
            raise UsageError(f"grid {text!r} has more than {_GRID_MAX_POINTS} points")
        count = int((b - a) // step) + 1
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(f"bad grid {text!r}, expected a:b:step") from exc
    return [float(a + i * step) for i in range(count)]


def _parse_csv_floats(text: str, name: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {name}: expected comma-separated reals") from exc


def _load_config(path: str) -> dict:
    known = {"tol": float, "max_k": int, "format": str}
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in known:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = known[key](val)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad value in config: {exc}") from exc
    return cfg


# kato budgets, each refused before the work it bounds is allocated: the
# dense m x m graph, one O(m^2) product per state of the pointwise, pairing
# and positivity checks, one O(m^3) eigvalsh of L + V per trace trial, and
# the two m x (steps + 1) Simpson node tables of the Duhamel check
_KATO_MAX_DIM = 2048
_KATO_MAX_WORK = 1 << 34
_KATO_MAX_DUHAMEL_ENTRIES = 1 << 20


def _check_dim(m: int) -> int:
    if m > _KATO_MAX_DIM:
        raise UsageError(f"graph dimension {m} exceeds the budget of {_KATO_MAX_DIM}")
    return m


def _parse_graph(text: str) -> kato.SymmetricOperator:
    kind, _, arg = text.partition(":")
    if kind == "cycle":
        return kato.cycle_laplacian(_check_dim(int(arg)))
    if kind == "complete":
        return kato.complete_laplacian(_check_dim(int(arg)))
    if kind == "file":
        return _load_matrix(arg)
    raise UsageError(f"unknown graph spec {text!r}; use cycle:m, complete:m or file:PATH")


def _load_matrix(path: str) -> kato.SymmetricOperator:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read matrix file: {exc}") from exc
    return _parse_matrix(data)


# Keeps the operator of the last file graph that parsed and validated, keyed
# by the file's full bytes, and with it the eigendecomposition and spectrum
# its earlier checks cached; any other file is parsed afresh, and a parse
# that raises is never kept and leaves the kept one in place.  It holds one
# operator of at most _KATO_MAX_DIM^2 entries, its eigenvectors (as many
# again) and the file's bytes.
@functools.lru_cache(maxsize=1)
def _parse_matrix(data: bytes) -> kato.SymmetricOperator:
    # decoded as open() in text mode would
    tokens = data.decode(locale.getpreferredencoding(False)).split()
    if not tokens:
        raise ValueError("matrix file is empty")
    dim = _check_dim(int(tokens[0]))
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != dim * dim:
        raise ValueError(
            f"matrix file promises {dim}x{dim} entries, found {len(vals)}"
        )
    return kato.symmetric_operator(np.array(vals).reshape(dim, dim))


def _global_flags() -> argparse.ArgumentParser:
    # shared by the main parser and every subparser so they may appear on
    # either side of the subcommand; SUPPRESS keeps a subparser from
    # clobbering a value parsed at the top level
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--format", choices=("json", "csv"),
                   default=argparse.SUPPRESS)
    g.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="accuracy target / verdict tolerance")
    g.add_argument("--max-k", type=int, default=argparse.SUPPRESS,
                   dest="max_k", help="series term budget")
    g.add_argument("--config", default=argparse.SUPPRESS,
                   help="key=value defaults file")
    g.add_argument("--out", default=argparse.SUPPRESS,
                   help="write records to a file")
    return g


def build_parser() -> _Parser:
    flags = _global_flags()

    class _SubParser(_Parser):
        def __init__(self, **kw):
            kw.setdefault("parents", [flags])
            super().__init__(**kw)

    p = _Parser(prog="spherezeta", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter,
                parents=[flags])
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_SubParser)

    q = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--kmax", type=int, required=True)

    q = sub.add_parser("zeta", help="shifted sphere zeta Z(s)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=float)
    q.add_argument("--s-grid", dest="s_grid")
    q.add_argument("--form", choices=("series", "closed", "hurwitz"),
                   default="series",
                   help="series: direct summation; closed: Riemann-zeta "
                        "reduction (n<=4); hurwitz: multiplicity-free "
                        "shifted sum at c=(n-1)/2")

    q = sub.add_parser("kernel", help="zonal heat or zeta kernel")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--kind", choices=("heat", "zeta"), required=True)
    q.add_argument("--s", type=float)
    q.add_argument("--t", type=float)
    q.add_argument("--cos-gamma", dest="cos_gamma", type=float, required=True)

    q = sub.add_parser("heat-trace", help="heat trace on S^n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", type=float)
    q.add_argument("--t-grid", dest="t_grid")

    q = sub.add_parser("mellin-check",
                       help="zeta kernel via Mellin transform vs direct sum")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--cos-gamma", dest="cos_gamma", type=float, required=True)

    q = sub.add_parser("dominate",
                       help="shifted vs unshifted zeta partial-sum domination")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--kmax", type=int, default=200)

    q = sub.add_parser("majorize", help="majorization verdict for two vectors")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--weak", action="store_true")

    q = sub.add_parser("kato", help="matrix semigroup inequality checks")
    q.add_argument("check", choices=("pointwise", "pairing", "positivity",
                                     "trace", "duhamel", "commute"))
    q.add_argument("--graph", required=True,
                   help="cycle:m | complete:m | file:PATH")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--t", type=float, default=1.0)
    q.add_argument("--steps", type=int, default=128)

    q = sub.add_parser("specfun", help="raw special function values")
    q.add_argument("fn", choices=("zeta", "hurwitz", "gegenbauer"))
    q.add_argument("--s", type=float)
    q.add_argument("--a", type=float)
    q.add_argument("--k", type=int)
    q.add_argument("--n", type=int)
    q.add_argument("--t", type=float)
    return p


def _policy(args, default_tol=1e-10) -> TruncationPolicy:
    return TruncationPolicy(max_k=DEFAULT_POLICY.max_k if args.max_k is None else args.max_k,
                            tol=default_tol if args.tol is None else args.tol)


def _values(args, name: str) -> list[float]:
    one, grid = getattr(args, name), getattr(args, f"{name}_grid")
    if (one is None) == (grid is None):
        raise UsageError(f"{args.command} needs exactly one of --{name} or --{name}-grid")
    return [one] if one is not None else _parse_grid(grid)


def _record(command: str, r: EvalResult, **fields) -> dict:
    return {"command": command, **fields, "value": r.value,
            "tail_bound": r.tail_bound, "terms_used": r.terms_used}


def _cmd_spectrum(args):
    if args.kmax > (max_k := _policy(args).max_k):
        raise UsageError(f"--kmax {args.kmax} exceeds the term budget --max-k {max_k}")
    rows = spectrum.spectrum_slice(args.n, args.kmax)
    recs = [
        {"command": "spectrum", "n": args.n, "k": e.k, "lambda": e.lam,
         "mu": e.mu, "d": e.d, "tail_bound": 0.0}
        for e in rows
    ]
    return recs, True


def _cmd_zeta(args):
    pol = _policy(args)
    recs = []
    for s in _values(args, "s"):
        if args.form == "series":
            r = zeta.regularized_zeta(s, args.n, pol)
        elif args.form == "closed":
            r = zeta._closed_form_terms(s, args.n, pol.tol)
        else:
            c = (args.n - 1) / 2.0
            if c <= 0.0:
                raise ValueError("hurwitz form needs n >= 2 (positive shift)")
            r = zeta.hurwitz_style_Z(s, c, pol)
        recs.append(_record("zeta", r, form=args.form, n=args.n, s=s))
    return recs, True


def _cmd_kernel(args):
    pol = _policy(args, default_tol=1e-8)
    q = kernels.KernelQuery(n=args.n, cos_gamma=args.cos_gamma, policy=pol)
    key = "t" if args.kind == "heat" else "s"
    param = getattr(args, key)
    if param is None:
        raise UsageError(f"{args.kind} kernel needs --{key}")
    r = (kernels.heat_kernel if args.kind == "heat" else kernels.zeta_kernel)(param, q)
    return [_record("kernel", r, kind=args.kind, n=args.n, **{key: param},
                    cos_gamma=args.cos_gamma)], True


def _cmd_heat_trace(args):
    pol = _policy(args)
    recs = []
    for t in _values(args, "t"):
        r = kernels.heat_trace(t, args.n, pol)
        recs.append(_record("heat-trace", r, n=args.n, t=t))
    return recs, True


def _cmd_mellin_check(args):
    verdict_tol = args.tol if args.tol is not None else 1e-6
    pol = TruncationPolicy(max_k=2_000_000 if args.max_k is None else args.max_k,
                           tol=min(1e-7, verdict_tol / 10.0))
    q = kernels.KernelQuery(n=args.n, cos_gamma=args.cos_gamma, policy=pol)
    mz = kernels.mellin_zeta_kernel(args.s, q)
    dz = kernels.zeta_kernel(args.s, q)
    diff = mz.value - dz.value
    ok = abs(diff) <= verdict_tol
    rec = {"command": "mellin-check", "n": args.n, "s": args.s,
           "cos_gamma": args.cos_gamma, "mellin": mz.value,
           "direct": dz.value, "diff": diff,
           "mellin_bound": mz.tail_bound, "direct_bound": dz.tail_bound,
           "quad_nodes": mz.terms_used, "verdict": ok}
    return [rec], ok


def _cmd_dominate(args):
    pol = _policy(args)
    pair = zeta.compare_zeta_pair(args.s, args.n, args.kmax, pol)
    rec = {"command": "dominate", "n": args.n, "s": args.s,
           "kmax": args.kmax,
           "zeta_laplace": pair.zeta_laplace.value,
           "laplace_bound": pair.zeta_laplace.tail_bound,
           "zeta_shifted": pair.zeta_shifted.value,
           "shifted_bound": pair.zeta_shifted.tail_bound,
           "dominated": pair.dominated,
           "first_violation": pair.first_violation}
    return [rec], pair.dominated


def _cmd_majorize(args):
    x = _parse_csv_floats(args.x, "--x")
    y = _parse_csv_floats(args.y, "--y")
    rep = majorize.weak_majorizes(x, y, tol=args.tol)
    ok = (rep.verdict != "fails") if args.weak else (rep.verdict == "majorizes")
    rec = {"command": "majorize", "weak": bool(args.weak),
           "verdict": rep.verdict, "total_gap": rep.total_gap,
           "first_violation": rep.first_violation, "tol": rep.tol,
           "ok": ok}
    return [rec], ok


# entries of one block of kato trial states (columns of length m)
_KATO_BLOCK_ENTRIES = 1 << 18


def _cmd_kato(args):
    if not 0.0 <= args.t < math.inf:
        raise UsageError("--t must be finite and nonnegative")
    if args.check in ("pointwise", "pairing", "positivity", "trace") and args.trials < 1:
        raise UsageError("--trials must be at least 1")
    op = _parse_graph(args.graph)
    m = op.dim
    if args.check in ("pointwise", "pairing", "positivity", "trace"):
        power, budget = (3, "trace") if args.check == "trace" else (2, "state")
        if args.trials * m**power > _KATO_MAX_WORK:
            raise UsageError(f"--trials {args.trials} x m^{power} at m = {m} exceeds the "
                             f"{budget} budget of 2^34")
    if args.check == "duhamel" and (args.steps + 1) * m > _KATO_MAX_DUHAMEL_ENTRIES:
        raise UsageError(f"(--steps {args.steps} + 1) x m at m = {m} exceeds the "
                         "Duhamel budget of 2^20")
    tol = args.tol if args.tol is not None else 1e-12
    rng = np.random.default_rng(args.seed)
    rec = {"command": "kato", "check": args.check, "graph": args.graph,
           "seed": args.seed, "t": args.t}
    if args.check in ("pointwise", "pairing", "positivity"):
        # trials are checked as blocks of columns, each column drawn as by
        # kato.random_state (then |N(0, 1)| for the pairing's phi), so the
        # result does not depend on the block width, which caps memory
        worst, ok = math.inf, True
        width = max(1, _KATO_BLOCK_ENTRIES // op.dim)
        for start in range(0, args.trials, width):
            cols = min(width, args.trials - start)
            z = rng.standard_normal((cols, 3 if args.check == "pairing" else 2, op.dim))
            # C order: a transposed view changes the product's summation order
            psi = np.ascontiguousarray((z[:, 0] + 1j * z[:, 1]).T)
            if args.check == "pointwise":
                rep = kato.kato_pointwise_check(op, psi, tol)
                slack = rep.min_slack
            elif args.check == "pairing":
                phi = np.ascontiguousarray(np.abs(z[:, 2]).T)
                rep = kato.generator_pairing_check(op, psi, phi, tol)
                slack = float(np.min(rep.slack))
            else:
                rep = kato.positivity_domination_check(op, args.t, psi, tol)
                slack = rep.min_slack
            worst, ok = min(worst, slack), ok and rep.ok
        rec.update(trials=args.trials, min_slack=worst, tol=tol, verdict=ok)
        return [rec], ok
    if args.check == "trace":
        worst_gap, worst_eig, ok = math.inf, math.inf, True
        for _ in range(args.trials):
            pot = kato.potential(rng.random(op.dim))
            rep = kato.trace_domination_check(op, pot, args.t, max(tol, 1e-10))
            worst_gap = min(worst_gap, rep.trace_gap)
            worst_eig = min(worst_eig, rep.eig_min_gap)
            ok = ok and rep.ok
        rec.update(trials=args.trials, min_trace_gap=worst_gap,
                   min_eig_gap=worst_eig, tol=max(tol, 1e-10), verdict=ok)
        return [rec], ok
    if args.check == "duhamel":
        thresh = args.tol if args.tol is not None else 1e-8
        pot = kato.potential(rng.random(op.dim))
        resid = kato.duhamel_residual(op, pot, args.t, args.steps)
        ok = resid <= thresh
        rec.update(steps=args.steps, residual=resid, tol=thresh, verdict=ok)
        return [rec], ok
    thresh = args.tol if args.tol is not None else 1e-10
    resid = kato.commute_residual(op, args.t)
    ok = resid <= thresh
    rec.update(residual=resid, tol=thresh, verdict=ok)
    return [rec], ok


def _cmd_specfun(args):
    pol = _policy(args)
    if args.fn == "zeta":
        if args.s is None:
            raise UsageError("specfun zeta needs --s")
        rec = _record("specfun", specfun.riemann_zeta(args.s, pol), fn="zeta", s=args.s)
    elif args.fn == "hurwitz":
        if args.s is None or args.a is None:
            raise UsageError("specfun hurwitz needs --s and --a")
        r = specfun.hurwitz_zeta(args.s, args.a, pol)
        rec = _record("specfun", r, fn="hurwitz", s=args.s, a=args.a)
    else:
        if args.k is None or args.n is None or args.t is None:
            raise UsageError("specfun gegenbauer needs --k, --n and --t")
        if args.k > pol.max_k:
            raise UsageError(f"--k {args.k} exceeds the term budget --max-k {pol.max_k}")
        val = specfun.gegenbauer_ratio(args.k, args.n, args.t)
        rec = {"command": "specfun", "fn": "gegenbauer", "k": args.k,
               "n": args.n, "t": args.t, "value": val, "tail_bound": 0.0}
    return [rec], True


_COMMANDS = {
    "spectrum": _cmd_spectrum, "zeta": _cmd_zeta, "kernel": _cmd_kernel,
    "heat-trace": _cmd_heat_trace, "mellin-check": _cmd_mellin_check,
    "dominate": _cmd_dominate, "majorize": _cmd_majorize, "kato": _cmd_kato,
    "specfun": _cmd_specfun,
}


# built once per process: building costs far more than a parse
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = _load_config(args.config) if hasattr(args, "config") else {}
        # an explicit flag wins over the config file; out has no config key
        for name in ("format", "tol", "max_k", "out"):
            setattr(args, name, getattr(args, name, cfg.get(name)))
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise UsageError(f"tol must be finite and nonnegative, got {args.tol!r}")
        # an overflow or NaN on the way to a refusal is reported by the
        # refusal alone, not also by a numpy warning on stderr
        with np.errstate(all="ignore"):
            records, ok = _COMMANDS[args.command](args)
        buf = io.StringIO()
        _emit(records, args.format or "json", buf)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TruncationError, AccuracyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
