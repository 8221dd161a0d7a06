"""Seeded task decks for the four benchmark workloads.

A deck is the list of tasks one measured pass runs.  Every pass of a run
draws a fresh deck from (seed, pass), so no call repeats the arguments of
an earlier one and caching whole results by argument gains nothing that a
sweep would not see.  Decks are stratified: the number of tasks of each
kind and their size classes are fixed, and (seed, pass) draws only the
parameters inside each class, so every deck costs nearly the same.  Each
task's ``slot`` names its class; it is the same in every pass.  Only the
standard library is used here, so the same seed yields the same decks on
any machine.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

# A fourth workload, warm mellin-check calls, was dropped: its ten-seed
# spread stayed at 0.10-0.19 of the median (see spec.json, dropped).
WORKLOADS = ("cli-cold", "series", "kato")

KATO_CHECKS = ("pointwise", "pairing", "positivity", "trace", "duhamel", "commute")

# Matrix file generated per seed for the `file:` graph of the kato deck.
FILE_GRAPH_M = 256
FILE_GRAPH_P = 0.05

# The certified sums check their truncation against tol and then add a
# float64 roundoff allowance of about 20 eps times the summed magnitude
# without checking the total (verify.KNOWN_DEFECTS, roundoff_unchecked), so
# a tolerance under that floor comes back with a bound over it, and so
# does one whose truncation tail lands within the allowance of tol.  Heat
# and Hurwitz tasks therefore ask for an absolute tolerance no finer than
# REL_TOL times the summed magnitude, as a user asking for an absolute
# tolerance on a large value must; at 1e-12 a heat trace still came back
# over tol about once in 70000 results.  The defects themselves run in
# every run as DEFECT_PROBES, untimed, and are reported there.
REL_TOL = 1e-8

# Fixed CLI calls that hit the library defects confirmed at the parent
# commit: ``ref`` and ``tol`` name the result and the tolerance the call
# asks for, so that a refusal (the fix) can be matched as well.
DEFECT_PROBES = (
    {"argv": ["kernel", "--kind", "heat", "--n", "20", "--t", "0.0001", "--cos-gamma", "0.5"],
     "expect": {"ref": ["heat_kernel", 20, 1e-4, 0.5], "tol": 1e-8}},
    {"argv": ["heat-trace", "--n", "4", "--t", "0.0001"],
     "expect": {"ref": ["heat_trace", 4, 1e-4], "tol": 1e-10}},
    {"argv": ["specfun", "hurwitz", "--s", "4.9375", "--a", "0.0534"],
     "expect": {"ref": ["hurwitz", 4.9375, 0.0534], "tol": 1e-10}},
    # kernel_recurrence_roundoff: misses its bound by about 15 eps sum|terms|
    {"argv": ["kernel", "--kind", "heat", "--n", "20", "--t", "0.1", "--cos-gamma", "-0.36"],
     "expect": {"ref": ["heat_kernel", 20, 0.1, -0.36], "tol": 1e-8}},
)

# The largest graphs: at m = 1024 a pass took 4 s, too few passes in a run
# for a steady best time; m = 512 keeps the O(m^3) eigendecompositions
# dominant at an eighth of the cost.
KATO_M_MAX = 512
# Trials of the state-drawing checks and Duhamel steps per graph size.
_KATO_SIZE = {
    m: {"trials": dict(zip(("pointwise", "pairing", "positivity", "trace"), trials)),
        "steps": steps}
    for m, trials, steps in ((64, (50, 50, 10, 10), 64), (256, (20, 20, 4, 4), 32),
                             (KATO_M_MAX, (10, 10, 1, 1), 8))
}
# Calls per pass of a slot, by graph size: a cheap slot runs several times,
# so that its best time is taken over about as many calls as the costly
# ones average over inside a single call.
KATO_REPS = {64: 6, 256: 2, KATO_M_MAX: 2}

# Heat times of a kernel profile: the domain's smallest t, where K ~
# sqrt(n / t) is largest, is fixed so that the costliest part of a sweep
# does not jump with the seed (K is rounded up to a power of two); the
# other two are drawn log-uniformly from these bands.
# The upper band starts at 0.3: for n >= 19 and t in about [0.04, 0.2] the
# float64 Gegenbauer recurrence off the diagonal misses the returned bound
# (verify.KNOWN_DEFECTS, kernel_recurrence_roundoff; one of DEFECT_PROBES).
HEAT_T_MIN = 1e-4
HEAT_T_BANDS = ((3e-3, 1e-2), (0.3, 1.0))
# Off-diagonal points stay below 0.9: nearer the diagonal, at t around 1e-3
# and n >= 12, the same recurrence error reaches about 20 eps sum|terms|.
COS_GAMMA_OFF_DIAGONAL = (-0.99, 0.9)
# a heat tolerance is set from the trace at the grid point 10^(i/8) at or below t
_TRACE_GRID = 8


def _multiplicity(k: int, n: int) -> int:
    # as verify._multiplicity; this module keeps to the standard library
    if k == 0:
        return 1
    if n == 1:
        return 2
    return (2 * k + n - 1) * math.comb(k + n - 2, n - 2) // (n - 1)


@lru_cache(maxsize=None)
def _heat_trace_at(n: int, i: int) -> float:
    """sum_k d_k e^{-k(k+n-1)t} at t = 10^(i/_TRACE_GRID), summed past its peak."""
    t = 10.0 ** (i / _TRACE_GRID)
    peak = math.sqrt((n - 1) / (2.0 * t))
    total, k = 0.0, 0
    while True:
        term = _multiplicity(k, n) * math.exp(-k * (k + n - 1) * t)
        total += term
        if k > peak and term < 1e-18 * total:
            return total
        k += 1


def _volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def heat_tol(n: int, t: float, base: float, kernel: bool = False) -> float:
    """``base``, or REL_TOL times the summed magnitude of the heat trace
    (over the volume for a kernel value) if that is larger.  The trace
    decreases in t, so its value at the grid point below t bounds it."""
    trace = _heat_trace_at(n, math.floor(_TRACE_GRID * math.log10(t)))
    return max(base, REL_TOL * trace / (_volume(n) if kernel else 1.0))


def hurwitz_tol(s: float, a: float, base: float) -> float:
    """As ``heat_tol`` for sum_{k>=0} (k + a)^(-s) <= a^(-s) + 1 + 1/(s - 1), a <= 1."""
    return max(base, REL_TOL * (a ** -s + 1.0 + 1.0 / (s - 1.0)))


def _r(x: float) -> float:
    # 12 significant digits keep CLI arguments short and exactly reproducible
    return float(f"{x:.12g}")


def _signed(option: str, x: float) -> str:
    # "--opt=-4.7e-05": argparse takes a separate "-4.7e-05" for an option name
    return f"{option}={x!r}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _r(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    # one draw inside each of k equal sub-intervals, in shuffled order
    vals = [_r(lo + (hi - lo) * (i + rng.random()) / k) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _cos_grid(rng: random.Random, points: int) -> list[float]:
    inner = sorted(_r(rng.uniform(*COS_GAMMA_OFF_DIAGONAL)) for _ in range(points - 1))
    return inner + [1.0]


def _zeta_kernel_lo(n: int) -> float:
    # closer to n/2 the tail certificate needs K beyond the budget, and for
    # n >= 12 the crude 2^n multiplicity bound refuses below n/2 + 2
    return 1.5 if n < 12 else 2.0


def _kato_task(rng: random.Random, check: str, family: str, m: int) -> dict:
    size = _KATO_SIZE[m]
    # e^{-tL} on K_m decays like e^{-tm}: scale t so the check is not
    # trivially satisfied by an all-but-constant semigroup
    t = _r(rng.uniform(0.5, 2.0) / (m if family == "complete" else 1))
    task = {"kind": "kato", "check": check, "family": family, "m": m, "t": t,
            "kseed": rng.randrange(1 << 30)}
    if check in size["trials"]:
        task["trials"] = size["trials"][check]
    if check == "duhamel":
        task["steps"] = size["steps"]
    return task


def _slots(deck: list[dict]) -> list[dict]:
    for slot, task in enumerate(deck):
        task["slot"] = slot
    return deck


def series_deck(rng: random.Random) -> list[dict]:
    """One sweep per n = 1..20, each a set of certified tables at that n.

    Every sweep has a kernel profile (shared cos_gamma grid, three heat
    times, two zeta exponents), a heat-trace grid and a spectrum table; for
    n <= 8 also a zeta table, a zeta pair with partial-sum domination and a
    majorization check (the mpmath references of sphere zetas get slow
    beyond that).  Sweeps are seed-independent in n, so a pass costs about
    the same for every seed.
    """
    deck = []
    for n in range(1, 21):
        t0 = _log_uniform(rng, 1e-4, 1e-2)
        heat_t = [HEAT_T_MIN] + [_log_uniform(rng, lo, hi) for lo, hi in HEAT_T_BANDS]
        trace_t = [_r(t0 * 10 ** (i / 2.0)) for i in range(8)]
        task = {
            "kind": "sweep", "n": n, "tol_zeta": 1e-10, "tol_kernel": 1e-8,
            "cos_gamma": _cos_grid(rng, 8),
            "t": heat_t,
            "tol_t": [heat_tol(n, t, 1e-8, kernel=True) for t in heat_t],
            # the lower exponent sets K for the zeta kernel; fixed for the same reason
            "s_kernel": [n / 2.0 + _zeta_kernel_lo(n) + 0.25,
                         _r(n / 2.0 + rng.uniform(2.5, 4.0))],
            "trace_t": trace_t,
            "tol_trace": [heat_tol(n, t, 1e-10) for t in trace_t],
            # 16 .. 2000 rows, growing with n so that a sweep's cost is a function of n
            "spectrum_kmax": int(16 * 125 ** ((n - 1) / 19)),
        }
        if n <= 8:
            task["s_zeta"] = sorted(_r(n / 2.0 + x) for x in _strata(rng, 0.55, 4.0, 6))
            task["rho"] = _r(rng.uniform(0.1, 0.5))
            task["pair"] = {"s": _r(n / 2.0 + rng.uniform(0.6, 3.0)),
                            "kmax": int(_log_uniform(rng, 16, 1e4))}
            task["majorize"] = {"s": _r(n / 2.0 + rng.uniform(0.6, 3.0)),
                                "length": int(_log_uniform(rng, 16, 4096))}
        deck.append(task)
    _slots(deck)
    rng.shuffle(deck)
    return deck


def kato_deck(rng: random.Random) -> list[dict]:
    """Six checks on cycle/complete graphs at m = 64, 256, KATO_M_MAX plus a file graph.

    Each check has a slot on cycle:64, complete:64, cycle:256, complete:256
    and the seeded file graph; at m = KATO_M_MAX the even-indexed checks use
    the cycle and the odd-indexed ones the complete graph, so one pass stays
    a few seconds long.  A slot runs KATO_REPS[m] times per pass, each call
    with fresh inputs.
    """
    deck = []
    for ci, check in enumerate(KATO_CHECKS):
        graphs = [("cycle", 64), ("complete", 64), ("cycle", 256),
                  ("complete", 256), ("file", FILE_GRAPH_M),
                  ("cycle" if ci % 2 == 0 else "complete", KATO_M_MAX)]
        for family, m in graphs:
            slot = len({t["slot"] for t in deck})
            deck.extend(dict(_kato_task(rng, check, family, m), slot=slot)
                        for _ in range(KATO_REPS[m]))
    rng.shuffle(deck)
    return deck


def cli_deck(rng: random.Random) -> list[dict]:
    """One fresh-process command per subcommand form, small sizes.

    Heat and Hurwitz commands pass ``--tol`` (see REL_TOL) and carry it as
    ``expect``, with the heat result at their smallest t against which a
    refusal is matched.
    """
    n_k = rng.randint(1, 20)
    # below HEAT_T_BANDS' upper band, for the reason given there
    t_k = _log_uniform(rng, 1e-4, 1e-2)
    cg_k = _r(rng.uniform(*COS_GAMMA_OFF_DIAGONAL))
    n_t = rng.randint(1, 20)
    n_z = rng.randint(1, 8)
    s_z = n_z / 2.0 + rng.uniform(0.6, 2.0)
    n_c = rng.randint(1, 4)
    n_h = rng.randint(2, 8)
    n_kz = rng.randint(1, 20)
    n_d = rng.randint(1, 8)
    x = [rng.randint(1, 50) for _ in range(8)]
    y = list(x)
    for _ in range(6):
        # a Robin Hood transfer from a richer to a poorer entry keeps the
        # total and leaves x majorizing y, exactly in integers
        i, j = rng.sample(range(8), 2)
        if y[i] < y[j]:
            i, j = j, i
        move = rng.randint(0, (y[i] - y[j]) // 2)
        y[i] -= move
        y[j] += move
    t0 = _log_uniform(rng, 1e-4, 1e-2)
    s_hz, a_hz = _r(rng.uniform(1.2, 6.0)), _r(rng.uniform(0.05, 1.0))
    tol_k = heat_tol(n_k, t_k, 1e-8, kernel=True)
    tol_t = heat_tol(n_t, t0, 1e-10)
    tol_hz = hurwitz_tol(s_hz, a_hz, 1e-10)
    cmds = [
        ["spectrum", "--n", str(rng.randint(1, 20)), "--kmax", str(rng.randint(16, 200))],
        ["zeta", "--n", str(n_z), "--s-grid", f"{_r(s_z)!r}:{_r(s_z + 1.5)!r}:0.5"],
        ["zeta", "--form", "closed", "--n", str(n_c),
         "--s", repr(_r(n_c / 2.0 + rng.uniform(0.6, 3.0)))],
        ["zeta", "--form", "hurwitz", "--n", str(n_h),
         "--s", repr(_r(n_h / 2.0 + rng.uniform(0.6, 3.0)))],
        ["kernel", "--kind", "heat", "--n", str(n_k), "--t", repr(t_k),
         _signed("--cos-gamma", cg_k), "--tol", repr(tol_k)],
        ["kernel", "--kind", "zeta", "--n", str(n_kz),
         "--s", repr(_r(n_kz / 2.0 + rng.uniform(_zeta_kernel_lo(n_kz), 4.0))),
         _signed("--cos-gamma", _r(rng.uniform(*COS_GAMMA_OFF_DIAGONAL)))],
        ["heat-trace", "--n", str(n_t),
         "--t-grid", f"{t0!r}:{_r(t0 * 50)!r}:{_r(t0 * 7)!r}", "--tol", repr(tol_t)],
        ["mellin-check", "--n", "2", "--s", repr(_r(1.0 + rng.uniform(0.9, 1.1))),
         _signed("--cos-gamma", _r(rng.uniform(-0.95, 0.95)))],
        ["dominate", "--n", str(n_d), "--s", repr(_r(n_d / 2.0 + rng.uniform(0.6, 3.0))),
         "--kmax", str(int(_log_uniform(rng, 16, 2000)))],
        ["majorize", "--x", ",".join(map(str, x)), "--y", ",".join(map(str, y))],
        ["specfun", "zeta", "--s", repr(_r(rng.uniform(1.2, 6.0)))],
        ["specfun", "hurwitz", "--s", repr(s_hz), "--a", repr(a_hz), "--tol", repr(tol_hz)],
        ["specfun", "gegenbauer", "--k", str(rng.randint(0, 200)),
         "--n", str(rng.randint(1, 20)), _signed("--t", _r(rng.uniform(-1.0, 1.0)))],
    ]
    deck = [{"kind": "cli", "argv": c} for c in cmds]
    deck[4]["expect"] = {"ref": ["heat_kernel", n_k, t_k, cg_k], "tol": tol_k}
    deck[6]["expect"] = {"ref": ["heat_trace", n_t, t0], "tol": tol_t}
    deck[11]["expect"] = {"ref": ["hurwitz", s_hz, a_hz], "tol": tol_hz}
    deck += [_kato_task(rng, check, "cycle", 64) for check in KATO_CHECKS]
    return _slots(deck)


def duhamel_tol(t: float, steps: int, norm_x: float) -> float:
    """Tolerance from the composite Simpson error bound of the Duhamel integral.

    With f(s) = e^{-(t-s)H} Y e^{-sX}, H = X + Y and 0 <= Y <= 1, the fourth
    derivative obeys ||f''''|| <= (||X|| + ||H||)^4 ||Y||, so the residual is
    at most t h^4 (2 ||X|| + 1)^4 / 180 with h = t / steps, plus roundoff.
    """
    h = t / steps
    return t * h**4 * (2.0 * norm_x + 1.0) ** 4 / 180.0 + 1e-12


def kato_argv(task: dict, file_graph: str, norm_x: float) -> list[str]:
    """CLI arguments of a kato task; ``norm_x`` bounds the graph's norm."""
    graph = f"file:{file_graph}" if task["family"] == "file" else f"{task['family']}:{task['m']}"
    argv = ["kato", task["check"], "--graph", graph, "--seed", str(task["kseed"]),
            "--t", repr(task["t"])]
    if "trials" in task:
        argv += ["--trials", str(task["trials"])]
    if "steps" in task:
        argv += ["--steps", str(task["steps"]),
                 "--tol", repr(duhamel_tol(task["t"], task["steps"], norm_x))]
    return argv


def graph_norm_bound(family: str, m: int, max_degree: float | None = None) -> float:
    """Upper bound on the spectral norm of a graph Laplacian (exact for
    cycles and complete graphs, Gershgorin's 2 * max degree otherwise)."""
    if family == "cycle":
        return 4.0
    if family == "complete":
        return float(m)
    return 2.0 * float(max_degree)


_BUILDERS = {"cli-cold": cli_deck, "series": series_deck, "kato": kato_deck}


def deck(workload: str, seed: int, pass_no: int = 0, limit: int = 0) -> list[dict]:
    """The workload's deck for pass ``pass_no`` of a run with ``seed``;
    ``limit > 0`` keeps the first tasks."""
    tasks = _BUILDERS[workload](random.Random(f"{workload}:{seed}:{pass_no}"))
    return tasks[:limit] if limit > 0 else tasks
