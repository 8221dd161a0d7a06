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
first use, and keeps it (``SymmetricOperator.eigh``); semigroups and the
X side of the Duhamel integral read it.  Named graphs have it in closed
form: real Fourier modes with eigenvalues 4 sin^2(pi k/m) for the cycle,
the constant vector and a Helmert basis with eigenvalue m for K_m (Chung,
Spectral Graph Theory, 1997, sec. 1.2); other operators call LAPACK.
The trace check needs only eigenvalues (``SymmetricOperator.spectrum``),
which are eigvalsh's for a LAPACK operator whether or not eigh was read, so
an operator kept across calls gives the same verdicts in any call order.
Semigroups are re-symmetrized exactly.

The pointwise, pairing and positivity checks take either one state of
length m or an m x T block of states as columns; a block is pushed through
L or e^{-tL} by a single real matrix product on [Re psi | Im psi | r].

The Simpson sum  sum_j omega_j e^{-(t-s_j)H} Y e^{-s_j X},  H = X + Y, is
collapsed into the two eigenbases:  with M[a,b] = sum_j omega_j
e^{-(t-s_j) w_H[a]} e^{-s_j w_X[b]} it equals U_H [M o (U_H^T Y U_X)] U_X^T
(o the entrywise product), O(m^3 + S m^2) for S steps.  The Duhamel
residual is normed in that mixed basis, where with G = U_H^T U_X it is
G o (e^{-t w_H[a]} - e^{-t w_X[b]}) + M o (U_H^T Y U_X): two products.
Spectral norms are c sqrt(lambda_max(B^T B)) with c = max|R| and B = R / c,
no SVD; the Frobenius norm would overstate them by up to sqrt(m).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .spectrum import _require_int


@dataclass(frozen=True)
class SymmetricOperator:
    dim: int
    entries: np.ndarray
    # (w, u) of a named graph, built on the first read of eigh
    closed_eigh: Callable[[], tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, u) with entries = u diag(w) u^T, w ascending; computed once."""
        w, u = self.closed_eigh() if self.closed_eigh else np.linalg.eigh(self.entries)
        w.setflags(write=False)
        u.setflags(write=False)
        return w, u

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, computed once: closed-form for a named
        graph, else eigvalsh's, never eigh's (they differ in the last bits),
        so the values do not depend on whether eigh was read first."""
        if self.closed_eigh:
            return self.eigh[0]
        w = np.linalg.eigvalsh(self.entries)
        w.setflags(write=False)
        return w


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


def symmetric_operator(entries) -> SymmetricOperator:
    """Wrap a matrix after validating exact symmetry; the eigendecomposition
    waits for its first use."""
    mat = np.asarray(entries, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    if mat.size == 0:
        raise ValueError("operator must be at least 1x1")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator entries must be finite")
    if not np.array_equal(mat, mat.T):
        raise ValueError("operator entries are not exactly symmetric")
    out = mat.copy()
    out.setflags(write=False)
    return SymmetricOperator(dim=mat.shape[0], entries=out)


def potential(diagonal) -> Potential:
    diag = np.asarray(diagonal, dtype=float)
    if diag.ndim != 1 or diag.size == 0:
        raise ValueError("potential must be a nonempty vector")
    if not np.all(np.isfinite(diag)):
        raise ValueError("potential entries must be finite")
    if np.any(diag < 0.0):
        raise ValueError("potential entries must be nonnegative")
    out = diag.copy()
    out.setflags(write=False)
    return Potential(dim=diag.size, diagonal=out)


def cycle_laplacian(m: int) -> SymmetricOperator:
    """Laplacian of the m-cycle: 2 on the diagonal, -1 to both neighbours."""
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    mat = 2.0 * np.eye(m)
    idx = np.arange(m)
    mat[idx, (idx + 1) % m] = -1.0
    mat[idx, (idx - 1) % m] = -1.0
    return replace(symmetric_operator(mat), closed_eigh=partial(_cycle_eigh, m))


def _cycle_eigh(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Real Fourier modes 1/sqrt(m); sqrt(2/m) cos, sin of 2 pi k j/m for
    0 < k < m/2; (-1)^j/sqrt(m) for even m; eigenvalues 4 sin^2(pi k/m)."""
    j, k = np.arange(m), np.arange(1, (m + 1) // 2)
    # k j mod m is exact, so one cos/sin table serves every mode
    wave = (math.sqrt(2.0 / m) * np.exp(2j * np.pi * j / m))[np.outer(j, k) % m]
    u = np.empty((m, m))
    u[:, 0] = 1.0 / math.sqrt(m)
    u[:, 1:2 * k.size + 1:2], u[:, 2:2 * k.size + 1:2] = wave.real, wave.imag
    if m % 2 == 0:
        u[:, -1] = (1 - 2 * (j % 2)) / math.sqrt(m)
    return 4.0 * np.sin(np.pi * ((j + 1) // 2) / m) ** 2, u


def complete_laplacian(m: int) -> SymmetricOperator:
    """Laplacian of the complete graph K_m."""
    if m < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    mat = m * np.eye(m) - np.ones((m, m))
    return replace(symmetric_operator(mat), closed_eigh=partial(_complete_eigh, m))


def _complete_eigh(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant vector (eigenvalue 0), then the Helmert columns
    (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1)), each with eigenvalue m."""
    k = np.arange(1, m)
    c = 1.0 / np.sqrt(k * (k + 1.0))
    u = np.empty((m, m))
    u[:, 0] = 1.0 / math.sqrt(m)
    u[:, 1:] = np.triu(np.broadcast_to(c, (m, m - 1)))
    u[k, k] = -k * c
    return np.concatenate(([0.0], np.full(m - 1, float(m)))), u


def random_graph_laplacian(m: int, p: float, seed: int) -> SymmetricOperator:
    """Laplacian of a random connected graph: a path plus density-p edges.

    Each pair i < j - 1 gets an edge when its uniform draw is below p; the
    draws run over the pairs row by row.
    """
    if m < 2:
        raise ValueError("need at least 2 vertices")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    adj = np.zeros((m, m))
    idx = np.arange(m - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
    rows, cols = np.triu_indices(m, k=2)
    hit = rng.random(rows.size) < p
    adj[rows[hit], cols[hit]] = adj[cols[hit], rows[hit]] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    return symmetric_operator(lap)


def is_graph_laplacian(op: SymmetricOperator) -> bool:
    """Nonpositive off-diagonal entries; the class the pointwise bound needs."""
    off = op.entries - np.diag(np.diag(op.entries))
    return bool(np.all(off <= 0.0))


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


def _states(op: SymmetricOperator, psi) -> np.ndarray:
    """One state of length dim, or a dim x T block of states as columns."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[0] != op.dim:
        raise ValueError("vector length does not match operator dimension")
    if v.size == 0:
        raise ValueError("a block of states needs at least one column")
    return v


def _apply(mat: np.ndarray, v: np.ndarray, r: np.ndarray):
    """(mat @ v, mat @ r) for complex v and real r of the same shape.

    A block goes through one real product on [Re v | Im v | r].
    """
    if v.ndim == 1:
        return mat @ v, mat @ r
    k = v.shape[1]
    out = mat @ np.hstack([v.real, v.imag, r])
    return out[:, :k] + 1j * out[:, k:2 * k], out[:, 2 * k:]


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
    if not is_graph_laplacian(op):
        raise ValueError("pointwise check requires nonpositive off-diagonals")
    _require_nonneg(tol, "tol")
    v = _states(op, psi)
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
    if not is_graph_laplacian(op):
        raise ValueError("pairing check requires nonpositive off-diagonals")
    _require_nonneg(tol, "tol")
    v = _states(op, psi)
    f = np.asarray(phi, dtype=float)
    if f.shape != v.shape:
        raise ValueError("vector length does not match operator dimension")
    if np.any(f < 0.0):
        raise ValueError("test vector phi must be nonnegative")
    lv, lf = _apply(op.entries, v, f)
    lhs = _column_dots(np.real(sign_vector(v) * -lv), f)
    rhs = _column_dots(np.abs(v), -lf)
    return PairingReport(ok=bool(np.all(lhs <= rhs + tol)), lhs=lhs, rhs=rhs,
                         slack=rhs - lhs, tol=tol)


def semigroup(op: SymmetricOperator, t: float) -> SymmetricOperator:
    """e^{-t L} by spectral calculus, re-symmetrized exactly."""
    _require_nonneg(t, "time")
    w, u = op.eigh
    e = (u * np.exp(-t * w)) @ u.T
    e = 0.5 * (e + e.T)
    return symmetric_operator(e)


def positivity_domination_check(op: SymmetricOperator, t: float, psi,
                                tol: float = 1e-12) -> EntrywiseReport:
    """Check |e^{-tL} psi| <= e^{-tL} |psi| entrywise.

    Positivity preservation of the semigroup is what makes this valid, so
    the operator must again be of graph-Laplacian type.
    """
    if not is_graph_laplacian(op):
        raise ValueError("domination check requires nonpositive off-diagonals")
    _require_nonneg(tol, "tol")
    v = _states(op, psi)
    ev, e_abs = _apply(semigroup(op, t).entries, v, np.abs(v))
    return _entrywise(e_abs, np.abs(ev), tol)


def trace_domination_check(op: SymmetricOperator, pot: Potential, t: float,
                           tol: float = 1e-10) -> TraceReport:
    """Check Tr e^{-t(L+V)} <= Tr e^{-tL} and per-index eigenvalue domination."""
    if pot.dim != op.dim:
        raise ValueError("potential length does not match operator dimension")
    _require_nonneg(t, "time")
    _require_nonneg(tol, "tol")
    w_free = op.spectrum
    w_full = np.linalg.eigvalsh(op.entries + np.diag(pot.diagonal))
    tr_free = float(np.sum(np.exp(-t * w_free)))
    tr_full = float(np.sum(np.exp(-t * w_full)))
    eig_gap = float(np.min(w_full - w_free))
    ok = (tr_full <= tr_free + tol) and (eig_gap >= -tol)
    return TraceReport(ok=ok, trace_full=tr_full, trace_free=tr_free,
                       trace_gap=tr_free - tr_full, eig_min_gap=eig_gap, tol=tol)


def _simpson_kernel(wh: np.ndarray, wx: np.ndarray, t: float, steps: int) -> np.ndarray:
    """M[a, b] = sum_j omega_j e^{-(t-s_j) w_H[a]} e^{-s_j w_X[b]}, composite Simpson."""
    grid = np.linspace(0.0, t, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t / steps) / 3.0
    return (np.exp(-np.outer(wh, t - grid)) * weights) @ np.exp(-np.outer(wx, grid)).T


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
    wx, ux = x_op.eigh
    wh, uh = np.linalg.eigh(x_op.entries + np.diag(y_pot.diagonal))
    # ||R|| = ||U_H^T R U_X|| = ||G o (e^{-t w_H} - e^{-t w_X}) + M o (U_H^T Y U_X)||
    # with G = U_H^T U_X, the differences taken over all pairs (a, b)
    resid = _simpson_kernel(wh, wx, t, steps)
    resid *= (uh.T * y_pot.diagonal) @ ux
    overlap = uh.T @ ux
    overlap *= np.subtract.outer(np.exp(-t * wh), np.exp(-t * wx))
    resid += overlap
    return _spectral_norm(resid)


def commute_residual(op: SymmetricOperator, t: float) -> float:
    """Spectral norm of L e^{-tL} - e^{-tL} L; zero in exact arithmetic.

    L and e^{-tL} are both exactly symmetric, so e^{-tL} L = (L e^{-tL})^T.
    """
    p = op.entries @ semigroup(op, t).entries
    return _spectral_norm(p - p.T)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian vector, the generic test state for the checks above."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
