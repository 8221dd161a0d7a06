"""Exact finite-dimensional verification of Kato-type inequalities.

Everything here lives on real symmetric matrices, mostly graph Laplacians
(nonnegative diagonal, nonpositive off-diagonal, zero row sums), where the
distributional inequalities of the continuum theory become entrywise
statements that can be checked to machine precision:

  pointwise    Re( sgn(psi) * (L psi) ) >= L |psi|           entrywise
  pairing      < Re( sgn(psi) * (-L psi) ), phi >  <=  < |psi|, -L phi >
               for every phi >= 0
  positivity   |e^{-tL} psi|  <=  e^{-tL} |psi|              entrywise
  trace        Tr e^{-t(L+V)} <=  Tr e^{-tL}   for diagonal V >= 0,
               via eigenvalue-by-eigenvalue domination

together with the Duhamel identity

  e^{-t(X+Y)} = e^{-tX} - int_0^t e^{-(t-s)(X+Y)} Y e^{-sX} ds,

whose integral is evaluated by composite Simpson so the residual shrinks
at fourth order in the step.  sgn acts entrywise as conj(psi)/|psi| with
sgn(0) = 0.

Each operator takes its eigendecomposition L = U diag(w) U^T once, on
first use, and keeps it (``SymmetricOperator.eigh``); the positivity check,
``semigroup`` and the X side of the Duhamel integral read it.  Named graphs
have it in closed form: real Fourier modes with eigenvalues 4 sin^2(pi k/m)
for the cycle, the constant vector and a Helmert basis with eigenvalue m
for K_m (Chung, Spectral Graph Theory, 1997, sec. 1.2); other operators
call LAPACK.  The trace check needs only eigenvalues
(``SymmetricOperator.spectrum``): a named graph's closed-form ones, the
very array its eigh reads, with no eigenvector built; eigvalsh's for a
LAPACK operator whether or not eigh was read, so an operator kept across
calls gives the same verdicts in any call order.

A matrix from outside (``symmetric_operator``) is validated once: square,
nonempty, real, finite and exactly symmetric.  The graph builders and
``semigroup`` construct ``SymmetricOperator`` directly, since their output
is symmetric by construction.  Every operator keeps its entries read-only
and answers once whether it is a graph Laplacian
(``SymmetricOperator.is_laplacian``); a builder's graph knows it without a
test.  An explicit matrix is the operator's entries from the start; a named
graph builds them on their first read, which only the checks that multiply
by L make (pointwise, pairing, commute), so positivity, ``semigroup``, trace
and Duhamel never build L for it.  Trace and Duhamel take L + V in one array
(``_plus_diagonal``): a named graph's builder output with V added to its
diagonal in place, any other operator's entries + diag(V).

The pointwise, pairing and positivity checks take one finite state of
length m or an m x T block of them as columns, and pairing a real, finite,
nonnegative phi of that shape.  A block is pushed through L by a single
real matrix product on [Re psi | Im psi | r].  The positivity check never
forms e^{-tL}: it pushes [Re psi | Im psi | |psi|] (one state or a block)
through U (e^{-tw} o (U^T X)), two products of O(m^2 T) for T states in
place of the O(m^3) matrix.  e^{-tL} is refused when it is not finite,
which a computed eigenvalue below zero can cause at a large t, and so is a
product that overflows; ``semigroup``
forms the matrix, re-symmetrized exactly, for ``commute_residual`` and
callers of the API.

The Simpson sum  sum_j omega_j e^{-(t-s_j)H} Y e^{-s_j X},  H = X + Y, is
collapsed into the two eigenbases:  with M[a,b] = sum_j omega_j
e^{-(t-s_j) w_H[a]} e^{-s_j w_X[b]} it equals U_H [M o (U_H^T Y U_X)] U_X^T
(o the entrywise product), O(m^3 + S m^2) for S steps.  The Duhamel
residual is normed in that mixed basis, where with G = U_H^T U_X it is
G o (e^{-t w_H[a]} - e^{-t w_X[b]}) + M o (U_H^T Y U_X): two products.
Spectral norms are c sqrt(lambda_max(B^T B)) with c = max|R| and B = R / c,
no SVD; the Frobenius norm would overstate them by up to sqrt(m).

Besides the operator, its kept entries and its kept eigenvectors, each call
holds a fixed few m x m arrays (numpy's own; LAPACK's workspace comes on
top), every result bit for bit what the plain expressions give: the
Laplacian class test one boolean mask; positivity none beyond its states;
``trace_domination_check`` one, L + V; ``semigroup`` its product and one
factor, symmetrized in place a block of rows at a time;
``commute_residual`` two, the semigroup dropped before the norm;
``duhamel_residual`` four, U_H, U_X and two product buffers (L + V dropped
after eigh, U_H^T Y formed in U_H's storage, U_X read after eigh(H)), plus
its two m x (steps + 1) node tables.  A named graph's eigenvectors are
built a block of rows at a time, a cycle's gathered from one length-m
table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .truncation import _require_int

# entries per block of rows where an m x m array is filled or rewritten in
# place, so the temporaries of a block hold about that many numbers whatever m
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(m: int) -> list[tuple[int, int]]:
    """(lo, hi) of the blocks of rows of an m x m array, about _BLOCK_ENTRIES
    entries each; hi may pass m."""
    step = max(1, _BLOCK_ENTRIES // m)
    return [(lo, lo + step) for lo in range(0, m, step)]


class _ClosedForm(NamedTuple):
    """A named graph's builders, each called on the first read that needs
    it: its dense Laplacian, its ascending eigenvalues, its eigenvectors."""
    entries: Callable[[], np.ndarray]
    spectrum: Callable[[], np.ndarray]
    vectors: Callable[[], np.ndarray]


@dataclass(frozen=True)
class SymmetricOperator:
    dim: int
    # the matrix itself, kept as ``entries``; or a named graph's closed form,
    # which builds entries on their first read
    _source: np.ndarray | _ClosedForm = field(repr=False)

    def __post_init__(self):
        if isinstance(self._source, np.ndarray):
            self._source.setflags(write=False)
            self.__dict__["entries"] = self._source

    @cached_property
    def entries(self) -> np.ndarray:
        """The m x m matrix, read-only; a named graph builds it once, on the
        first read, since only a check that multiplies by L reads it."""
        mat = self._source.entries()
        mat.setflags(write=False)
        return mat

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, u) with entries = u diag(w) u^T, w ascending; computed once."""
        if isinstance(self._source, _ClosedForm):
            w, u = self.spectrum, self._source.vectors()
        else:
            w, u = np.linalg.eigh(self.entries)
            w.setflags(write=False)
        u.setflags(write=False)
        return w, u

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, computed once: for a named graph the closed
        form, the very array eigh reads, without building eigenvectors; else
        eigvalsh's, never eigh's (they differ in the last bits), so the values
        do not depend on whether eigh was read first."""
        w = (self._source.spectrum() if isinstance(self._source, _ClosedForm)
             else np.linalg.eigvalsh(self.entries))
        w.setflags(write=False)
        return w

    @cached_property
    def is_laplacian(self) -> bool:
        """Nonpositive off-diagonal entries, the class the pointwise bound
        needs; computed once, and known without a test for a built graph."""
        nonpositive = self.entries <= 0.0
        nonpositive.flat[::self.dim + 1] = True
        return bool(nonpositive.all())


@dataclass(frozen=True)
class Potential:
    dim: int
    diagonal: np.ndarray


@dataclass(frozen=True)
class EntrywiseReport:
    """Entrywise verdict; for a block of states ``slack`` is m x T and
    ``first_violation`` is the column of the first failing state."""
    ok: bool
    min_slack: float
    first_violation: int | None
    slack: np.ndarray
    tol: float


@dataclass(frozen=True)
class PairingReport:
    """Pairing verdict; for a block of states lhs, rhs and slack are
    length-T arrays, one entry per column, and ok holds for all of them."""
    ok: bool
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray
    tol: float


@dataclass(frozen=True)
class TraceReport:
    ok: bool
    trace_full: float       # Tr e^{-t(L+V)}
    trace_free: float       # Tr e^{-tL}
    trace_gap: float        # trace_free - trace_full
    eig_min_gap: float      # min_k lambda_k(L+V) - lambda_k(L)
    tol: float


def _real(values, what: str) -> np.ndarray:
    """A float copy of values; complex input is refused, not cast to its real part."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError(f"{what} entries must be real")
    return arr.astype(float)


def symmetric_operator(entries) -> SymmetricOperator:
    """Wrap a matrix from outside after validating it: square, nonempty,
    real, finite and exactly symmetric.  The eigendecomposition waits for
    its first use."""
    mat = _real(entries, "operator")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    if mat.size == 0:
        raise ValueError("operator must be at least 1x1")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator entries must be finite")
    if not np.array_equal(mat, mat.T):
        raise ValueError("operator entries are not exactly symmetric")
    return SymmetricOperator(mat.shape[0], mat)


def potential(diagonal) -> Potential:
    diag = _real(diagonal, "potential")
    if diag.ndim != 1 or diag.size == 0:
        raise ValueError("potential must be a nonempty vector")
    if not np.all(np.isfinite(diag)):
        raise ValueError("potential entries must be finite")
    if np.any(diag < 0.0):
        raise ValueError("potential entries must be nonnegative")
    diag.setflags(write=False)
    return Potential(dim=diag.size, diagonal=diag)


def _graph(m: int, source: np.ndarray | _ClosedForm) -> SymmetricOperator:
    """A builder's Laplacian: its class is known by construction, so it is
    stored where ``is_laplacian`` keeps its answer instead of being tested."""
    op = SymmetricOperator(m, source)
    op.__dict__["is_laplacian"] = True
    return op


def cycle_laplacian(m: int) -> SymmetricOperator:
    """Laplacian of the m-cycle: 2 on the diagonal, -1 to both neighbours."""
    m = _require_int(m, 3, "cycle needs at least 3 vertices")
    return _graph(m, _ClosedForm(partial(_cycle_entries, m), partial(_cycle_spectrum, m),
                                 partial(_cycle_vectors, m)))


def _cycle_entries(m: int) -> np.ndarray:
    mat = np.zeros((m, m))
    mat.flat[::m + 1] = 2.0
    idx = np.arange(m)
    mat[idx, (idx + 1) % m] = -1.0
    mat[idx, (idx - 1) % m] = -1.0
    return mat


def _cycle_spectrum(m: int) -> np.ndarray:
    """4 sin^2(pi k/m) for the modes of _cycle_vectors, ascending."""
    return 4.0 * np.sin(np.pi * ((np.arange(m) + 1) // 2) / m) ** 2


def _cycle_vectors(m: int) -> np.ndarray:
    """Real Fourier modes 1/sqrt(m); sqrt(2/m) cos, sin of 2 pi k j/m for
    0 < k < m/2; (-1)^j/sqrt(m) for even m."""
    j, k = np.arange(m), np.arange(1, (m + 1) // 2)
    wave = math.sqrt(2.0 / m) * np.exp(2j * np.pi * j / m)
    u = np.empty((m, m))
    u[:, 0] = 1.0 / math.sqrt(m)
    # k j mod m is exact, so the parts of one length-m table serve every mode;
    # gathered a block of rows at a time, no m x m/2 array is made
    for lo, hi in _row_blocks(m):
        kj = np.outer(j[lo:hi], k)
        kj %= m
        u[lo:hi, 1:2 * k.size + 1:2] = wave.real[kj]
        u[lo:hi, 2:2 * k.size + 1:2] = wave.imag[kj]
        del kj  # before the next block's product, which takes a ufunc buffer
    if m % 2 == 0:
        u[:, -1] = (1 - 2 * (j % 2)) / math.sqrt(m)
    return u


def complete_laplacian(m: int) -> SymmetricOperator:
    """Laplacian of the complete graph K_m: m - 1 on the diagonal, -1 elsewhere."""
    m = _require_int(m, 2, "complete graph needs at least 2 vertices")
    return _graph(m, _ClosedForm(partial(_complete_entries, m), partial(_complete_spectrum, m),
                                 partial(_complete_vectors, m)))


def _complete_entries(m: int) -> np.ndarray:
    mat = np.full((m, m), -1.0)
    mat.flat[::m + 1] = m - 1.0
    return mat


def _complete_spectrum(m: int) -> np.ndarray:
    """0 for the constant vector, then m for each Helmert column."""
    w = np.full(m, float(m))
    w[0] = 0.0
    return w


def _complete_vectors(m: int) -> np.ndarray:
    """The constant vector, then the Helmert columns
    (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1))."""
    k = np.arange(1, m)
    c = 1.0 / np.sqrt(k * (k + 1.0))
    u = np.empty((m, m))
    u[:, 0] = 1.0 / math.sqrt(m)
    # a block of rows at a time: row lo + i keeps c from column lo + i on
    for lo, hi in _row_blocks(m):
        rows = u[lo:hi, 1:]
        rows[...] = np.triu(np.broadcast_to(c, rows.shape), lo)
    u[k, k] = -k * c
    return u


def random_graph_laplacian(m: int, p: float, seed: int) -> SymmetricOperator:
    """Laplacian of a random connected graph: a path plus density-p edges.

    Each pair i < j - 1 gets an edge when its uniform draw is below p; the
    draws run over the pairs row by row.
    """
    m = _require_int(m, 2, "need at least 2 vertices")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    adj = np.zeros((m, m))
    idx = np.arange(m - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
    rows, cols = np.triu_indices(m, k=2)
    hit = rng.random(rows.size) < p
    adj[rows[hit], cols[hit]] = adj[cols[hit], rows[hit]] = 1.0
    return _graph(m, np.diag(adj.sum(axis=1)) - adj)


def is_graph_laplacian(op: SymmetricOperator) -> bool:
    """Nonpositive off-diagonal entries; the class the pointwise bound needs."""
    return op.is_laplacian


def sign_vector(psi) -> np.ndarray:
    """Entrywise sgn: conj(psi)/|psi| with sgn(0) = 0."""
    v = np.asarray(psi, dtype=complex)
    mag = np.abs(v)
    out = np.zeros_like(v)
    nz = mag > 0.0
    out[nz] = np.conj(v[nz]) / mag[nz]
    return out


def _require_nonneg(value: float, name: str) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative")


def _states(op: SymmetricOperator, psi, tol: float, check: str) -> np.ndarray:
    """One finite state of length dim, or a dim x T block of them as columns,
    for the ``check`` named, which needs a graph Laplacian and a valid tol."""
    if not op.is_laplacian:
        raise ValueError(f"{check} check requires nonpositive off-diagonals")
    _require_nonneg(tol, "tol")
    v = np.asarray(psi, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[0] != op.dim:
        raise ValueError("vector length does not match operator dimension")
    if v.size == 0:
        raise ValueError("a block of states needs at least one column")
    if not np.all(np.isfinite(v)):
        raise ValueError("state entries must be finite")
    return v


def _apply(mat: np.ndarray, v: np.ndarray, r: np.ndarray):
    """(mat @ v, mat @ r) for complex v and real r of the same shape.

    A block goes through one real product on [Re v | Im v | r].
    """
    if v.ndim == 1:
        return mat @ v, mat @ r
    return _stacked(mat.__matmul__, v, r)


def _stacked(apply: Callable[[np.ndarray], np.ndarray], v: np.ndarray, r: np.ndarray):
    """(A v, A r) for complex v and real r of the same shape, from one call of
    ``apply``, which maps a real m x k block to A times it, on [Re v | Im v | r]."""
    k = 1 if v.ndim == 1 else v.shape[1]
    out = apply(np.column_stack([v.real, v.imag, r]))
    return ((out[:, :k] + 1j * out[:, k:2 * k]).reshape(v.shape),
            out[:, 2 * k:].reshape(v.shape))


def _entrywise(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> EntrywiseReport:
    slack = lhs - rhs
    bad = slack < -tol
    if bad.ndim == 2:
        bad = bad.any(axis=0)
    bad = np.nonzero(bad)[0]
    first = int(bad[0]) if bad.size else None
    return EntrywiseReport(
        ok=first is None,
        min_slack=float(np.min(slack)),
        first_violation=first,
        slack=slack,
        tol=tol,
    )


def kato_pointwise_check(op: SymmetricOperator, psi,
                         tol: float = 1e-12) -> EntrywiseReport:
    """Check Re(sgn(psi) * L psi) >= L |psi| entrywise.

    Requires L in the graph-Laplacian class (nonpositive off-diagonals);
    outside that class the inequality has no reason to hold and the check
    refuses to run rather than report a meaningless verdict.
    """
    v = _states(op, psi, tol, "pointwise")
    lv, l_abs = _apply(op.entries, v, np.abs(v))
    return _entrywise(np.real(sign_vector(v) * lv), l_abs, tol)


def _column_dots(a: np.ndarray, b: np.ndarray):
    return float(np.dot(a, b)) if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def generator_pairing_check(op: SymmetricOperator, psi, phi,
                            tol: float = 1e-12) -> PairingReport:
    """Check <Re(sgn(psi) * A psi), phi> <= <|psi|, A phi> for A = -L.

    phi must be entrywise nonnegative (it plays the test-function role)
    and have the shape of psi: one vector, or one column per state.
    """
    v = _states(op, psi, tol, "pairing")
    f = _real(phi, "test vector")
    if f.shape != v.shape:
        raise ValueError("vector length does not match operator dimension")
    if not np.all(np.isfinite(f) & (f >= 0.0)):
        raise ValueError("test vector phi must be finite and nonnegative")
    lv, lf = _apply(op.entries, v, f)
    lhs = _column_dots(np.real(sign_vector(v) * -lv), f)
    rhs = _column_dots(np.abs(v), -lf)
    return PairingReport(ok=bool(np.all(lhs <= rhs + tol)), lhs=lhs, rhs=rhs,
                         slack=rhs - lhs, tol=tol)


def _finite(values: np.ndarray, t: float, w: np.ndarray) -> np.ndarray:
    """e^{-tw} or e^{-tL}, refused when not finite: a computed eigenvalue
    w[0] below zero, exact or a rounding of a graph's zero mode, overflows
    the exponential at a large t."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"e^(-tL) overflows at t = {t:.6g}: "
                         f"L has the computed eigenvalue {w[0]:.3e} below zero")
    return values


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """a <- (a + a^T)/2 in place, each entry 0.5 * (a_ij + a_ji): a block of
    rows is formed, then written to those rows and, transposed, below them."""
    for lo, hi in _row_blocks(a.shape[0]):
        rows = a[lo:hi, lo:] + a[lo:, lo:hi].T
        rows *= 0.5
        a[lo:hi, lo:] = rows
        a[hi:, lo:hi] = rows[:, hi - lo:].T
    return a


def semigroup(op: SymmetricOperator, t: float) -> SymmetricOperator:
    """e^{-t L} by spectral calculus, re-symmetrized exactly in place, and
    refused when not finite (``_finite``)."""
    _require_nonneg(t, "time")
    w, u = op.eigh
    e = (u * np.exp(-t * w)) @ u.T
    return SymmetricOperator(op.dim, _finite(_symmetrize(e), t, w))


def positivity_domination_check(op: SymmetricOperator, t: float, psi,
                                tol: float = 1e-12) -> EntrywiseReport:
    """Check |e^{-tL} psi| <= e^{-tL} |psi| entrywise.

    Positivity preservation of the semigroup is what makes this valid, so
    the operator must again be of graph-Laplacian type.  e^{-tL} acts as
    u (e^{-tw} (u^T x)) in L's kept eigenbasis, never formed as a matrix.
    """
    v = _states(op, psi, tol, "positivity")
    _require_nonneg(t, "time")
    w, u = op.eigh
    decay = _finite(np.exp(-t * w), t, w)[:, None]
    ev, e_abs = _stacked(lambda x: u @ (decay * (u.T @ x)), v, np.abs(v))
    # the products overflow for a state whose norm passes the float range,
    # or for a finite e^{-tw} near it; a NaN slack would read as a pass
    if not (np.all(np.isfinite(ev)) and np.all(np.isfinite(e_abs))):
        raise ValueError(f"e^(-tL) psi overflows at t = {t:.6g}")
    return _entrywise(e_abs, np.abs(ev), tol)


def _plus_diagonal(op: SymmetricOperator, v: np.ndarray) -> np.ndarray:
    """L + diag(v) in one fresh array, bit for bit entries + np.diag(v).  A
    named graph's builder gives an array that takes v on its diagonal in
    place, since it has no -0.0 entry; any other operator is summed whole,
    so that a -0.0 off-diagonal comes out as +0.0."""
    if isinstance(op._source, _ClosedForm):
        h = op._source.entries()
        h.flat[::op.dim + 1] += v
        return h
    return op.entries + np.diag(v)


def trace_domination_check(op: SymmetricOperator, pot: Potential, t: float,
                           tol: float = 1e-10) -> TraceReport:
    """Check Tr e^{-t(L+V)} <= Tr e^{-tL} and per-index eigenvalue domination."""
    if pot.dim != op.dim:
        raise ValueError("potential length does not match operator dimension")
    _require_nonneg(t, "time")
    _require_nonneg(tol, "tol")
    w_free = op.spectrum
    w_full = np.linalg.eigvalsh(_plus_diagonal(op, pot.diagonal))
    tr_free = float(np.sum(np.exp(-t * w_free)))
    tr_full = float(np.sum(np.exp(-t * w_full)))
    eig_gap = float(np.min(w_full - w_free))
    ok = (tr_full <= tr_free + tol) and (eig_gap >= -tol)
    return TraceReport(ok=ok, trace_full=tr_full, trace_free=tr_free,
                       trace_gap=tr_free - tr_full, eig_min_gap=eig_gap, tol=tol)


def _decay_table(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """e^{-w[a] s[j]} as one m x len(s) array, computed in place."""
    table = np.outer(w, s)
    np.negative(table, out=table)
    return np.exp(table, out=table)


def _simpson_kernel(wh: np.ndarray, wx: np.ndarray, t: float, steps: int) -> np.ndarray:
    """M[a, b] = sum_j omega_j e^{-(t-s_j) w_H[a]} e^{-s_j w_X[b]}, composite Simpson."""
    grid = np.linspace(0.0, t, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t / steps) / 3.0
    head = _decay_table(wh, t - grid)
    head *= weights
    return head @ _decay_table(wx, grid).T


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value c sqrt(lambda_max(b^T b)), b = a / c, c = max|a|;
    the scaling keeps the Gram matrix clear of under- and overflow.  Overwrites a."""
    c = float(max(a.max(), -a.min()))
    if c == 0.0:
        return 0.0
    a /= c
    return c * math.sqrt(max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0))


def duhamel_residual(x_op: SymmetricOperator, y_pot: Potential, t: float,
                     steps: int = 128) -> float:
    """Spectral norm of the Duhamel defect at Simpson resolution ``steps``.

    R = e^{-t(X+Y)} - e^{-tX} + int_0^t e^{-(t-s)(X+Y)} Y e^{-sX} ds.
    steps must be even; the residual decays like steps^(-4).
    """
    if y_pot.dim != x_op.dim:
        raise ValueError("potential length does not match operator dimension")
    _require_nonneg(t, "time")
    steps = _require_int(steps, 2, "steps must be a positive even integer")
    if steps % 2:
        raise ValueError("steps must be a positive even integer")
    wh, uh = np.linalg.eigh(_plus_diagonal(x_op, y_pot.diagonal))
    # read after eigh(H), so a first decomposition of X never meets H
    wx, ux = x_op.eigh
    # ||R|| = ||U_H^T R U_X|| = ||G o (e^{-t w_H} - e^{-t w_X}) + M o (U_H^T Y U_X)||
    # with G = U_H^T U_X, the differences taken over all pairs (a, b); the
    # products go to two buffers, and uh.T * y is formed in uh's own storage
    overlap = uh.T @ ux
    buf = np.subtract.outer(np.exp(-t * wh), np.exp(-t * wx))
    overlap *= buf
    uh *= y_pot.diagonal[:, None]
    resid = np.matmul(uh.T, ux, out=buf)
    del uh
    resid *= _simpson_kernel(wh, wx, t, steps)
    resid += overlap
    del overlap
    return _spectral_norm(resid)


def commute_residual(op: SymmetricOperator, t: float) -> float:
    """Spectral norm of L e^{-tL} - e^{-tL} L; zero in exact arithmetic.

    L and e^{-tL} are both exactly symmetric, so e^{-tL} L = (L e^{-tL})^T.
    """
    p = op.entries @ semigroup(op, t).entries
    skew = p - p.T
    del p  # so the norm holds two m x m arrays, not three
    return _spectral_norm(skew)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian vector, the generic test state for the checks above."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
