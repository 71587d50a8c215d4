"""Batched restarted GMRES.

Each of the b right-hand sides is solved independently but in lockstep: one
Arnoldi basis, Hessenberg matrix, Givens rotation pair, and residual norm
per rhs, advanced together so every operator apply works on the whole
block at once, while the Gram-Schmidt kernels run per column.  The batch
stops as one, and only on an explicit residual: every restart recomputes
the true residual eta - op(psi) (from a zero initial guess the first one
is eta, with no operator call), and the solve ends when its max over rhs
of the relative norm is at or below the tolerance.  The rotation estimate
inside a cycle only ends the cycle; the next restart residual decides, and
the last one is returned as the final residual.

Mixed precision (defect correction with reliable updates: Clark et al.,
Comput. Phys. Commun. 181 (2010) 1517).  The Arnoldi steps may apply an
``inner`` operator instead of ``op``; the Krylov basis is allocated in the
inner operator's precision.  :func:`solve_dirac` passes the complex64 twin
of its operator, so the stencil sweep and all Gram-Schmidt traffic run in
single precision at half the bytes, while psi, every restart residual and
the final residual stay complex128.  Each cycle's single-precision
correction V y is added to the complex128 psi, so rounding in one cycle
only limits how far that cycle gets, never the accuracy the solve reports.
Such a cycle ends once every column's estimate has fallen
``RELIABLE_UPDATE_DELTA`` below its restart residual, before the estimate
reaches the single-precision rounding of the correction; the next
restart residual then measures the solve, not that rounding.  The basis
stores the residual normalized in complex128, and the correction is
formed from y / ||r0|| and scaled back in complex128, so the solve works
at any scale of eta that complex128 holds.

A NaN or infinite residual norm in any rhs stops the solve at once with a
:class:`NonFiniteResidualError`, checked after every restart residual and
every Arnoldi step.

The Krylov basis is one (restart_len + 1, b, n_sites*s) array in the
inner operator's precision whose rows are the operator's fields:
``basis[p]`` is the storage of ``SolverWorkspace.fields[p]``, basis
vector p as a Layout-3 field (see :mod:`lqcdlab.fields`), and for rhs i
the rows ``basis[:j+1, i]`` are one matrix with leading dimension
b*n_sites*s.  Each Arnoldi step applies the operator from field j
straight into field j+1, ``inner(v, out=w)`` (every operator takes an
optional ``out`` field), and orthogonalizes every column by classical
Gram-Schmidt: h = Q^H w, w -= Q h, each pass one multi-vector
``block_dot`` and one ``block_axpy`` on that column's rows, i.e. two gemv
calls.  A cycle that ends at the reliable-update threshold (a basis of
lower precision than the solution, without ``fixed_iterations``: every
cycle of :func:`solve_dirac` unless its iteration count is fixed) makes
one pass per column.  Such a cycle needs its basis orthogonal only well
below its RELIABLE_UPDATE_DELTA target, not to rounding level, and it
stops before one pass loses that much (see ``_SECOND_PASS_BELOW``).  A
column whose pass left ||w'|| < 0.1 ||w|| (||w||^2 taken as ||w'||^2 +
||h||^2, so without another read) gets a second pass.  Every other cycle,
a complex128 basis in particular, runs classical Gram-Schmidt twice
(CGS2, "twice is enough": Giraud, Langou and Rozloznik, Numer. Math. 101
(2005) 87), with the two h summed, and keeps its basis orthonormal to
rounding level.  When the operator runs on a rank grid (its ``comm`` is a
:class:`lqcdlab.halo.MultiRankExecutor`), the columns are split over the
executor's shares, columns i = s (mod n) to share s, share 0 on the
calling thread and the others on the rank workers, which sit idle
between applies.  Each column runs the same kernels on the same rows
either way, so the step is bitwise the same as on one thread.  The
restart update psi += V y (one gemv per column) is formed in the last
basis row, which it does not read.  The solver thus holds restart_len + 1
field-sized buffers and no more.

The per-rhs recurrence is the textbook one.  With Gram-Schmidt
coefficients h and rotation pairs (c real, s complex),

    gamma[j+1] = -conj(s_j) gamma[j],   gamma[j] = c_j gamma[j],

so |gamma[j+1]| tracks the true residual norm of that rhs without forming
it.  A subdiagonal norm at or below 1e-14 * ||op v_j|| is a happy
breakdown: the affected rhs is exactly solved in the basis built so far
(to the basis' precision); its basis rows are zeroed for the rest of the
cycle and the lockstep continues unharmed.  The next cycle starts that rhs
afresh, so a column solved only to single precision gets a full cycle
again.  ``GmresResult.breakdown`` marks the columns that broke down in any
cycle.

A benchmark mode runs exactly restarts * restart_len iterations with the
tolerance check disabled, which keeps runs branch-free and comparable
across layouts and block sizes; its final residual is one more explicit
restart residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .blas import block_axpy, block_dot, block_norms, block_scale
from .dirac import DiracOperator, DiracParams, _check_field
from .dirac import apply_dirac  # noqa: F401  # unused here; the benchmark traces and calls it as gmres.apply_dirac
from .fields import BlockSpinorField, CloverField, GaugeField, Layout, check_matching, result_field
from .oddeven import SchurOperator

log = logging.getLogger(__name__)

_TINY = 1e-300

# A cycle whose basis has lower precision than the solution ends once every
# column's estimate has fallen by this factor below its restart residual (or
# below tol): the reliable-update threshold of defect correction.  A complex64
# cycle's correction carries rounding of about 1e-8 of that residual, so the
# next restart residual stays some 1e5 times above it.  (At 1e-6 the 4^4
# even/odd system's restart residuals were up to 1.5e-2 apart between a batch
# and its single columns, at 1e-3 6e-5; no iteration count moved.)
RELIABLE_UPDATE_DELTA = 1e-3

# a subdiagonal norm at or below this fraction of ||op v_j|| is a happy breakdown
_BREAKDOWN_REL = 1e-14

# In a cycle that ends at the reliable-update threshold, a column whose one
# Gram-Schmidt pass left ||w'|| below this fraction of ||w|| gets a second
# pass.  Each single pass multiplies the basis' loss of orthogonality by
# about ||w|| / ||w'||, and on the test and benchmark systems the cycle's
# estimate fell about as fast, so a cycle that stops once its estimate fell
# by RELIABLE_UPDATE_DELTA keeps the loss below that: on the three benchmark
# systems (seeds 5, 11 and 23) the smallest ratio ||w'|| / ||w|| was 0.16,
# no column took the second pass, and the worst loss was 5.4e-4.  A cycle
# run to its full length past that point would lose far more (0.95 on the
# 4^4 even/odd system at m0 = 1.0), so fixed-length cycles keep CGS2.
_SECOND_PASS_BELOW = 0.1


class NonFiniteResidualError(np.linalg.LinAlgError):
    """The residual norm of some rhs columns became NaN or infinite."""

    def __init__(self, iteration: int, columns: list[int]):
        self.iteration = iteration
        self.columns = columns
        where = f"after iteration {iteration}" if iteration else "before the first iteration"
        super().__init__(f"non-finite residual norm {where} in rhs columns {columns}")


def _check_finite(ws: "SolverWorkspace", iteration: int) -> None:
    bad = ~np.isfinite(ws.relnorm)
    if bad.any():
        raise NonFiniteResidualError(iteration, np.flatnonzero(bad).tolist())


@dataclass
class GmresConfig:
    restart_len: int = 10
    restarts: int = 10
    tol: float = 1e-8
    fixed_iterations: bool = False

    def __post_init__(self) -> None:
        if self.restart_len < 1 or self.restarts < 1:
            raise ValueError("restart_len and restarts must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class SolverWorkspace:
    """State of one restart cycle; every array but the basis leads with the rhs axis."""

    basis: np.ndarray           # (rl+1, b, n_sites*s) basis vectors, one rhs per row
    fields: list                # rl+1 Layout-3 fields, fields[p] over basis[p]'s storage
    h: np.ndarray               # (b, rl+1, rl) rotated Hessenberg
    h_raw: np.ndarray           # (b, rl+1, rl) pre-rotation coefficients
    gamma: np.ndarray           # (b, rl+1)
    cs: np.ndarray              # (b, rl) rotation cosines, real
    sn: np.ndarray              # (b, rl) rotation sines, complex
    relnorm: np.ndarray         # (b,)
    eta_norms: np.ndarray       # (b,)
    start_norms: np.ndarray     # (b,) norms of the cycle's restart residual
    breakdown: np.ndarray       # (b,) bool, this cycle
    reliable: bool = False      # the cycle ends at the reliable-update threshold
    j_done: int = 0

    @classmethod
    def allocate(cls, template: BlockSpinorField, restart_len: int, eta_norms: np.ndarray,
                 dtype=np.complex128) -> "SolverWorkspace":
        """Workspace for ``template``'s shape with the basis in precision ``dtype``."""
        b = template.b
        basis = np.zeros((restart_len + 1, b, template.n_sites * template.s), dtype=dtype)
        return cls(
            basis=basis,
            fields=[BlockSpinorField(template.n_sites, b, Layout.COLUMN, row.reshape(-1), template.geom)
                    for row in basis],
            h=np.zeros((b, restart_len + 1, restart_len), dtype=np.complex128),
            h_raw=np.zeros((b, restart_len + 1, restart_len), dtype=np.complex128),
            gamma=np.zeros((b, restart_len + 1), dtype=np.complex128),
            cs=np.zeros((b, restart_len)),
            sn=np.zeros((b, restart_len), dtype=np.complex128),
            relnorm=np.zeros(b),
            eta_norms=eta_norms,
            start_norms=np.zeros(b),
            breakdown=np.zeros(b, dtype=bool),
        )


@dataclass
class GmresResult:
    psi: BlockSpinorField
    history: list[np.ndarray]        # per iteration, (b,) relative norms
    iterations: int
    converged: np.ndarray            # (b,) bool, from explicit final residuals
    final_relnorms: np.ndarray       # (b,), explicit
    stagnated: bool = False
    breakdown: np.ndarray | None = None  # (b,) bool, a breakdown in any cycle


def _residual_norms(r: BlockSpinorField, eta: BlockSpinorField) -> np.ndarray:
    """Turn ``r`` = op(psi) into the residual eta - r in place; returns its (b,) norms."""
    rv = r.ksi()
    rv *= -1.0
    rv += eta.ksi()
    return block_norms(r)


def _relative(norms: np.ndarray, eta_norms: np.ndarray) -> np.ndarray:
    """Per-rhs norms relative to ||eta||; 0 for a vanishing eta column."""
    return np.where(eta_norms > 0, norms / np.maximum(eta_norms, _TINY), 0.0)


def _inverse(norms: np.ndarray) -> np.ndarray:
    """1/norms, and 0 for a vanishing norm."""
    return np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)


def _givens(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized complex Givens pairs (c real, s) zeroing b under [c s; -s^H c]."""
    rho = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    nz = rho != 0  # also True for NaN, so a non-finite column poisons the rotation
    az = np.abs(a) > 0
    both = nz & az
    # a non-finite column divides inf or NaN by inf; its NaN rotation is caught
    # by the caller's residual check, so the floating-point warning is noise
    with np.errstate(invalid="ignore"):
        c = np.where(both, np.abs(a) / np.where(nz, rho, 1.0), np.where(nz, 0.0, 1.0))
        phase = np.where(az, a / np.where(az, np.abs(a), 1.0), 1.0)
        s = np.where(nz, phase * b.conj() / np.where(nz, rho, 1.0), 0.0)
    return c, s


def arnoldi_step(op, ws: SolverWorkspace, j: int) -> None:
    """Extend the basis by one vector and fold it into the rotated system."""
    op(ws.fields[j], out=ws.fields[j + 1])
    w = ws.basis[j + 1]
    hnext = np.empty(w.shape[0])

    # Gram-Schmidt one rhs column at a time: the column's basis rows, read
    # twice per pass, stay partly in cache between reads (with CGS2, about
    # 10% less time at b = 16 than four passes over every column's rows).
    # A cycle that ends at the reliable-update threshold runs one classical
    # pass per column, and a second only where the first left less than
    # _SECOND_PASS_BELOW of the column's norm; every other cycle runs CGS2
    def orthogonalize(share: int, n: int) -> None:
        for i in range(share, w.shape[0], n):
            qi, wi = ws.basis[: j + 1, i : i + 1], w[i : i + 1]
            h = block_dot(qi, wi)
            block_axpy(-h, qi, wi)
            again = True
            if ws.reliable:
                # ||w||^2 = ||w'||^2 + ||h||^2, so the test reads w' only once
                hnext[i] = block_norms(wi)[0]
                again = hnext[i] < _SECOND_PASS_BELOW * np.sqrt(hnext[i] ** 2 + np.vdot(h, h).real)
            if again:
                h2 = block_dot(qi, wi)
                block_axpy(-h2, qi, wi)
                h += h2
                hnext[i] = block_norms(wi)[0]
            ws.h_raw[i, : j + 1, j] = h[0]

    # on a rank grid the columns i = share (mod n) go to the executor's
    # rank workers, share 0 staying on this thread; each column runs the
    # same kernels either way and writes only its own rows
    comm = getattr(op, "comm", None)
    if comm is None:
        orthogonalize(0, 1)
    else:
        comm.share(orthogonalize)

    # ||op v_j||, from the orthogonal split of the column: the test is scale-free
    wnorm = np.sqrt((np.abs(ws.h_raw[:, : j + 1, j]) ** 2).sum(axis=1) + hnext**2)
    ws.breakdown |= hnext <= _BREAKDOWN_REL * wnorm
    ws.h_raw[:, j + 1, j] = np.where(ws.breakdown, 0.0, hnext)
    inv = np.where(ws.breakdown | (hnext <= 0), 0.0, 1.0 / np.where(hnext > 0, hnext, 1.0))
    block_scale(inv, w)

    # fold the new column through the stored rotations, then make one more
    col = ws.h_raw[:, : j + 2, j].copy()
    for p in range(j):
        a, bb = col[:, p].copy(), col[:, p + 1].copy()
        col[:, p] = ws.cs[:, p] * a + ws.sn[:, p] * bb
        col[:, p + 1] = -ws.sn[:, p].conj() * a + ws.cs[:, p] * bb
    c, s = _givens(col[:, j], col[:, j + 1])
    ws.cs[:, j], ws.sn[:, j] = c, s
    col[:, j] = c * col[:, j] + s * col[:, j + 1]
    col[:, j + 1] = 0.0
    ws.h[:, : j + 2, j] = col
    ws.gamma[:, j + 1] = -s.conj() * ws.gamma[:, j]
    ws.gamma[:, j] = c * ws.gamma[:, j]
    ws.relnorm = _relative(np.abs(ws.gamma[:, j + 1]), ws.eta_norms)
    ws.j_done = j + 1


def least_squares_update(ws: SolverWorkspace, j_done: int | None = None) -> np.ndarray:
    """(b, j_done) minimizer of the rotated triangular system by back substitution.

    Columns whose triangular diagonal vanished (post-breakdown lockstep
    columns) get coefficient zero; they carry no residual.
    """
    m = ws.j_done if j_done is None else j_done
    b = ws.gamma.shape[0]
    y = np.zeros((b, m), dtype=np.complex128)
    for row in range(m - 1, -1, -1):
        acc = ws.gamma[:, row].copy()
        if row + 1 < m:
            acc -= np.einsum("bc,bc->b", ws.h[:, row, row + 1 : m], y[:, row + 1 :])
        diag = ws.h[:, row, row]
        ok = np.abs(diag) > 0
        y[:, row] = np.where(ok, acc / np.where(ok, diag, 1.0), 0.0)
    return y


def update_solution(ws: SolverWorkspace, y: np.ndarray, psi: BlockSpinorField) -> None:
    """psi += V y for (b, m) coefficients y: one gemv per column, one scaled add.

    The sum is formed in the last basis row, which the update does not read
    (m <= restart_len) and no later step of the cycle needs.  It is V
    (y / ||r0||), whose size does not depend on the residual's, and psi
    adds it times ||r0|| in its own precision, so with a basis of any
    precision, the same as psi's or lower, a residual far outside the
    basis' range neither overflows nor sinks into its subnormals.
    """
    ws.basis[-1] = 0.0
    r0 = ws.start_norms
    block_axpy(y * _inverse(r0)[:, None], ws.basis[: y.shape[1]], ws.basis[-1])
    psi.add_scaled(ws.fields[-1], r0)


def _start_cycle(op, eta: BlockSpinorField, psi: BlockSpinorField | None, ws: SolverWorkspace) -> np.ndarray:
    """True-residual restart: V[0] = (eta - op psi)/||.||, gamma = ||.|| e1.

    A ``psi`` of None stands for the zero field, whose residual is eta
    itself: it is taken without an operator call.  The residual is
    normalized in its own precision before the basis, which may be of
    lower precision, stores it.
    """
    if psi is None:
        r = eta.copy()
        norms = block_norms(r)
    else:
        r = op(psi)
        norms = _residual_norms(r, eta)
    block_scale(_inverse(norms), r)
    ws.fields[0].set_ksi(r.ksi())
    ws.start_norms = norms
    ws.breakdown[:] = False
    ws.h[:] = 0.0
    ws.h_raw[:] = 0.0
    ws.gamma[:] = 0.0
    ws.gamma[:, 0] = norms
    ws.cs[:] = 0.0
    ws.sn[:] = 0.0
    ws.j_done = 0
    ws.relnorm = _relative(norms, ws.eta_norms)
    return norms


def gmres_solve(op, eta: BlockSpinorField, psi0: BlockSpinorField | None, cfg: GmresConfig,
                inner=None) -> GmresResult:
    """Restarted batched GMRES for op(psi) = eta; returns solution and history.

    Every restart residual is an explicit eta - op(psi), and the solve ends
    only when one of them is at or below ``tol`` in every column (or when
    the restarts run out); the rotation estimate ends a cycle, not the
    solve.  The last restart residual is the final residual, so a solve
    whose estimate is right makes no extra operator call.  Without
    ``psi0`` the first restart residual is eta itself, taken without
    applying ``op`` to the zero field, so such a solve calls ``op`` once
    per cycle.

    ``inner`` (default ``op``) is the operator the Arnoldi steps apply, for
    instance a lower-precision twin of ``op``; its ``dtype`` attribute
    (default eta's) is the precision of the Krylov basis.  The solution
    stays in eta's precision, and each cycle's correction is added to it;
    with a basis of lower precision a cycle also ends at the
    reliable-update threshold (except under ``fixed_iterations``).

    A ``psi0`` whose site count, rhs count, layout or lattice differs
    from ``eta``'s raises ``ValueError`` before the operator is called.
    """
    if psi0 is not None:
        check_matching(psi0, eta, "psi0", "eta")
    if inner is None:
        inner = op
    psi = BlockSpinorField.zeros_like(eta) if psi0 is None else psi0.copy()
    eta_norms = block_norms(eta)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, eta_norms, getattr(inner, "dtype", eta.dtype))
    ws.reliable = ws.basis.dtype != psi.dtype and not cfg.fixed_iterations

    breakdown = np.zeros(eta.b, dtype=bool)
    history: list[np.ndarray] = []
    iterations = 0
    stagnated = False
    for cycle in range(cfg.restarts + 1):
        start_norms = _start_cycle(op, eta, None if cycle == 0 and psi0 is None else psi, ws)
        _check_finite(ws, iterations)
        final_relnorms = ws.relnorm
        if cycle == cfg.restarts or (not cfg.fixed_iterations and final_relnorms.max() <= cfg.tol):
            break
        start_rel = ws.relnorm.copy()
        for j in range(cfg.restart_len):
            arnoldi_step(inner, ws, j)
            iterations += 1
            _check_finite(ws, iterations)
            history.append(ws.relnorm.copy())
            if cfg.fixed_iterations:
                continue
            done = ws.relnorm < cfg.tol
            if ws.reliable:
                done |= ws.relnorm <= RELIABLE_UPDATE_DELTA * start_rel
            if done.all():
                break
        breakdown |= ws.breakdown
        update_solution(ws, least_squares_update(ws), psi)
        if ws.j_done == cfg.restart_len and np.all(ws.relnorm >= start_rel) and start_norms.max() > 0:
            stagnated = True
            log.warning("gmres cycle made no progress (max relnorm %.3e)", ws.relnorm.max())

    return GmresResult(
        psi=psi,
        history=history,
        iterations=iterations,
        converged=final_relnorms <= max(cfg.tol, 1e-300),
        final_relnorms=final_relnorms,
        stagnated=stagnated,
        breakdown=breakdown,
    )


def batched_vs_independent_audit(op, eta: BlockSpinorField, psi0: BlockSpinorField | None, cfg: GmresConfig,
                                 inner=None) -> float:
    """Max relative gap between batched and per-rhs residual histories.

    The batched run and b single-rhs runs execute the same mathematics;
    differences are pure floating-point summation order, so the gap stays
    tiny (at the rounding level of ``inner``'s precision when one is given;
    every run passes it to :func:`gmres_solve`).  Histories are compared
    over their common prefix (a single rhs may stop earlier once its own
    residual passes the tolerance).
    """
    batched = gmres_solve(op, eta, psi0, cfg, inner)
    worst = 0.0
    # rhs i of a field is row i of its Layout-3 copy, and a b = 1 field is stored alike in every layout
    rows = [None if f is None else f.convert(Layout.COLUMN).storage_view() for f in (eta, psi0)]
    for i in range(eta.b):
        eta_i, psi_i = (None if r is None else BlockSpinorField(eta.n_sites, 1, eta.layout, r[i].reshape(-1), eta.geom)
                        for r in rows)
        single = gmres_solve(op, eta_i, psi_i, cfg, inner)
        for it in range(min(len(batched.history), len(single.history))):
            ref = single.history[it][0]
            gap = abs(batched.history[it][i] - ref) / max(ref, 1e-30)
            worst = max(worst, gap)
    return worst


def gamma_residual_audit(op, eta: BlockSpinorField, psi0: BlockSpinorField | None, cfg: GmresConfig) -> float:
    """Max relative gap between |gamma[j+1]| and the explicit residual norm.

    Runs the fixed-iteration protocol; at every step the current minimizer is
    expanded and the true residual formed, which is exactly what the rotation
    recurrence claims to track.
    """
    psi = BlockSpinorField.zeros_like(eta) if psi0 is None else psi0.copy()
    eta_norms = block_norms(eta)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, eta_norms)
    worst = 0.0
    for _cycle in range(cfg.restarts):
        _start_cycle(op, eta, psi, ws)
        for j in range(cfg.restart_len):
            arnoldi_step(op, ws, j)
            probe = psi.copy()
            update_solution(ws, least_squares_update(ws, j + 1), probe)
            explicit = _residual_norms(op(probe), eta)
            gap = np.abs(np.abs(ws.gamma[:, j + 1]) - explicit) / np.maximum(explicit, 1e-30)
            worst = max(worst, float(gap.max()))
        update_solution(ws, least_squares_update(ws), psi)
    return worst


# -- operator adapters and the top-level solve ------------------------------


def matrix_op(a: np.ndarray):
    """Wrap a dense matrix as a field operator (test and oracle plumbing).

    Its ``dtype`` is complex64 for a complex64 matrix and complex128
    otherwise; it takes ``out`` as the stencil operators do.
    """
    a = np.asarray(a)

    def apply(v: BlockSpinorField, out: BlockSpinorField | None = None) -> BlockSpinorField:
        out = result_field(v, out)
        out.set_columns(a @ v.columns())
        return out

    apply.dtype = np.result_type(a.dtype, np.complex64)
    return apply


@dataclass
class SolveReport:
    """Outcome of a full-system solve, either path."""

    psi: BlockSpinorField
    result: GmresResult
    odd_even: bool
    full_relnorms: np.ndarray
    iterations: int


def solve_dirac(
    params: DiracParams,
    gauge: GaugeField,
    clover: CloverField,
    eta: BlockSpinorField,
    cfg: GmresConfig,
    odd_even: bool = False,
    comm=None,
) -> SolveReport:
    """Solve D psi = eta directly or through the even-site Schur system.

    Each path builds its operator once, before the first iteration: the
    full path one :class:`lqcdlab.dirac.DiracOperator`, the even/odd path
    one :class:`lqcdlab.oddeven.SchurOperator`, whose
    :meth:`~lqcdlab.oddeven.SchurOperator.apply_full` also gives the final
    full-system residual.  The even/odd path runs single-rank throughout;
    only the full path reads ``comm``.

    Precision: eta and psi are complex128.  The Arnoldi steps apply the
    operator's complex64 twin to a complex64 Krylov basis, and every
    restart residual is an explicit complex128 apply of the operator, so a
    solve that reports convergence has an explicit float64 residual at or
    below ``tol`` in every column (on the even/odd path, of the Schur
    system; ``full_relnorms`` is always the full system's).
    """
    _check_field(eta, gauge.geom.n_sites, "gauge lattice", np.complex128)
    if eta.geom is not None and eta.geom.dims != gauge.geom.dims:
        raise ValueError(f"eta lattice {eta.geom.dims} is not the gauge lattice {gauge.geom.dims}")
    if not odd_even:
        op = DiracOperator(params, gauge, clover, comm)
        result = gmres_solve(op, eta, None, cfg, inner=op.astype(np.complex64))
        return SolveReport(result.psi, result, False, result.final_relnorms, result.iterations)

    schur = SchurOperator(params, gauge, clover)
    reduced, eta_elim = schur.reduce_rhs(eta)
    result = gmres_solve(schur, reduced, None, cfg, inner=schur.astype(np.complex64))
    psi = schur.merge(result.psi, schur.reconstruct(result.psi, eta_elim))
    full = _relative(_residual_norms(schur.apply_full(psi), eta), block_norms(eta))
    return SolveReport(psi, result, True, full, result.iterations)
