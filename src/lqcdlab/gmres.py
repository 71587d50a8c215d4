"""Batched restarted GMRES.

Each of the b right-hand sides is solved independently but in lockstep: one
Arnoldi basis, Hessenberg matrix, Givens rotation pair, and residual norm
per rhs, advanced together so every kernel call (operator apply, dots,
axpys) works on the whole block at once.  The batch stops as one: iteration
continues until max over rhs of the relative residual drops below the
tolerance, and every restart recomputes true residuals.

A NaN or infinite residual norm in any rhs stops the solve at once with a
:class:`NonFiniteResidualError`, checked after every restart residual and
every Arnoldi step.

The per-rhs recurrence is the textbook one.  With modified Gram-Schmidt
coefficients h and rotation pairs (c real, s complex),

    gamma[j+1] = -conj(s_j) gamma[j],   gamma[j] = c_j gamma[j],

so |gamma[j+1]| tracks the true residual norm of that rhs without forming
it.  A subdiagonal norm at or below 1e-14 * ||eta|| is a happy breakdown:
the affected rhs is exactly solved in the basis built so far; its basis
column is zeroed and the lockstep continues unharmed.

A benchmark mode runs exactly restarts * restart_len iterations with the
tolerance check disabled, which keeps runs branch-free and comparable
across layouts and block sizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .blas import block_axpy, block_dot, block_norms, block_scale
from .dirac import DiracParams, apply_dirac
from .fields import BlockSpinorField, CloverField, GaugeField
from .oddeven import SchurOperator

log = logging.getLogger(__name__)

_TINY = 1e-300


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
    dot_strategy: str = "deferred"
    reorthogonalize: bool = False
    breakdown_rel: float = 1e-14

    def __post_init__(self) -> None:
        if self.restart_len < 1 or self.restarts < 1:
            raise ValueError("restart_len and restarts must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class SolverWorkspace:
    """State of one restart cycle, all arrays carrying a leading rhs axis."""

    v: list[BlockSpinorField]   # restart_len + 1 basis fields
    h: np.ndarray               # (b, rl+1, rl) rotated Hessenberg
    h_raw: np.ndarray           # (b, rl+1, rl) pre-rotation coefficients
    gamma: np.ndarray           # (b, rl+1)
    cs: np.ndarray              # (b, rl) rotation cosines, real
    sn: np.ndarray              # (b, rl) rotation sines, complex
    relnorm: np.ndarray         # (b,)
    eta_norms: np.ndarray       # (b,)
    breakdown: np.ndarray       # (b,) bool
    j_done: int = 0

    @classmethod
    def allocate(cls, template: BlockSpinorField, restart_len: int, eta_norms: np.ndarray) -> "SolverWorkspace":
        b = template.b
        return cls(
            v=[BlockSpinorField.zeros_like(template) for _ in range(restart_len + 1)],
            h=np.zeros((b, restart_len + 1, restart_len), dtype=np.complex128),
            h_raw=np.zeros((b, restart_len + 1, restart_len), dtype=np.complex128),
            gamma=np.zeros((b, restart_len + 1), dtype=np.complex128),
            cs=np.zeros((b, restart_len)),
            sn=np.zeros((b, restart_len), dtype=np.complex128),
            relnorm=np.zeros(b),
            eta_norms=eta_norms,
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
    breakdown: np.ndarray | None = None


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


def arnoldi_step(op, ws: SolverWorkspace, j: int, cfg: GmresConfig) -> None:
    """Extend the basis by one column and fold it into the rotated system."""
    w = op(ws.v[j])
    for p in range(j + 1):
        hp = block_dot(ws.v[p], w, cfg.dot_strategy)
        ws.h_raw[:, p, j] = hp
        block_axpy(-hp, ws.v[p], w)
    if cfg.reorthogonalize:
        wnorm = block_norms(w)
        defect = np.zeros(w.b)
        corr = []
        for p in range(j + 1):
            cp = block_dot(ws.v[p], w, cfg.dot_strategy)
            corr.append(cp)
            defect = np.maximum(defect, np.abs(cp) / np.maximum(wnorm, _TINY))
        if defect.max() > 1e-8:
            for p, cp in enumerate(corr):
                ws.h_raw[:, p, j] += cp
                block_axpy(-cp, ws.v[p], w)

    hnext = block_norms(w)
    ws.breakdown |= hnext <= cfg.breakdown_rel * ws.eta_norms
    ws.h_raw[:, j + 1, j] = np.where(ws.breakdown, 0.0, hnext)
    inv = np.where(ws.breakdown | (hnext <= 0), 0.0, 1.0 / np.where(hnext > 0, hnext, 1.0))
    ws.v[j + 1].data[:] = w.data
    block_scale(inv, ws.v[j + 1])

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
    ws.relnorm = np.where(
        ws.eta_norms > 0, np.abs(ws.gamma[:, j + 1]) / np.maximum(ws.eta_norms, _TINY), 0.0
    )
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


def _start_cycle(op, eta: BlockSpinorField, psi: BlockSpinorField, ws: SolverWorkspace) -> np.ndarray:
    """True-residual restart: V[0] = (eta - op psi)/||.||, gamma = ||.|| e1."""
    r = op(psi)
    rv = r.ksi()
    rv *= -1.0
    rv += eta.ksi()
    norms = block_norms(r)
    ws.v[0].data[:] = r.data
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    block_scale(inv, ws.v[0])
    ws.h[:] = 0.0
    ws.h_raw[:] = 0.0
    ws.gamma[:] = 0.0
    ws.gamma[:, 0] = norms
    ws.cs[:] = 0.0
    ws.sn[:] = 0.0
    ws.j_done = 0
    ws.relnorm = np.where(ws.eta_norms > 0, norms / np.maximum(ws.eta_norms, _TINY), 0.0)
    return norms


def gmres_solve(op, eta: BlockSpinorField, psi0: BlockSpinorField | None, cfg: GmresConfig) -> GmresResult:
    """Restarted batched GMRES for op(psi) = eta; returns solution and history."""
    psi = BlockSpinorField.zeros_like(eta) if psi0 is None else psi0.copy()
    eta_norms = block_norms(eta)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, eta_norms)

    history: list[np.ndarray] = []
    iterations = 0
    finish = False
    stagnated = False
    for _cycle in range(cfg.restarts):
        start_norms = _start_cycle(op, eta, psi, ws)
        _check_finite(ws, iterations)
        start_rel = ws.relnorm.copy()
        if not cfg.fixed_iterations and ws.relnorm.max() < cfg.tol:
            finish = True
        j_done = 0
        if not finish:
            for j in range(cfg.restart_len):
                arnoldi_step(op, ws, j, cfg)
                iterations += 1
                _check_finite(ws, iterations)
                history.append(ws.relnorm.copy())
                j_done = j + 1
                if not cfg.fixed_iterations and ws.relnorm.max() < cfg.tol:
                    finish = True
                    break
        if j_done:
            y = least_squares_update(ws, j_done)
            for p in range(j_done):
                block_axpy(y[:, p], ws.v[p], psi)
        if j_done == cfg.restart_len and np.all(ws.relnorm >= start_rel) and start_norms.max() > 0:
            stagnated = True
            log.warning("gmres cycle made no progress (max relnorm %.3e)", ws.relnorm.max())
        if finish:
            break

    final = op(psi)
    fv = final.ksi()
    fv *= -1.0
    fv += eta.ksi()
    final_relnorms = np.where(
        eta_norms > 0, block_norms(final) / np.maximum(eta_norms, _TINY), 0.0
    )
    return GmresResult(
        psi=psi,
        history=history,
        iterations=iterations,
        converged=final_relnorms <= max(cfg.tol, 1e-300),
        final_relnorms=final_relnorms,
        stagnated=stagnated,
        breakdown=ws.breakdown.copy(),
    )


def batched_vs_independent_audit(op, eta: BlockSpinorField, psi0: BlockSpinorField | None, cfg: GmresConfig) -> float:
    """Max relative gap between batched and per-rhs residual histories.

    The batched run and b single-rhs runs execute the same mathematics;
    differences are pure floating-point summation order, so the gap stays
    tiny.  Histories are compared over their common prefix (a single rhs may
    stop earlier once its own residual passes the tolerance).
    """
    batched = gmres_solve(op, eta, psi0, cfg)
    worst = 0.0
    cols = eta.ksi()
    psi_cols = psi0.ksi() if psi0 is not None else None
    for i in range(eta.b):
        eta_i = BlockSpinorField.zeros(eta.n_sites, 1, eta.layout, eta.s, eta.geom)
        eta_i.set_ksi(cols[:, :, i : i + 1])
        psi_i = None
        if psi_cols is not None:
            psi_i = BlockSpinorField.zeros(eta.n_sites, 1, eta.layout, eta.s, eta.geom)
            psi_i.set_ksi(psi_cols[:, :, i : i + 1])
        single = gmres_solve(op, eta_i, psi_i, cfg)
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
    cfg = replace(cfg, fixed_iterations=True)
    psi = BlockSpinorField.zeros_like(eta) if psi0 is None else psi0.copy()
    eta_norms = block_norms(eta)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, eta_norms)
    worst = 0.0
    for _cycle in range(cfg.restarts):
        _start_cycle(op, eta, psi, ws)
        for j in range(cfg.restart_len):
            arnoldi_step(op, ws, j, cfg)
            y = least_squares_update(ws, j + 1)
            probe = psi.copy()
            for p in range(j + 1):
                block_axpy(y[:, p], ws.v[p], probe)
            r = op(probe)
            rv = r.ksi()
            rv *= -1.0
            rv += eta.ksi()
            explicit = block_norms(r)
            gap = np.abs(np.abs(ws.gamma[:, j + 1]) - explicit) / np.maximum(explicit, 1e-30)
            worst = max(worst, float(gap.max()))
        y = least_squares_update(ws)
        for p in range(ws.j_done):
            block_axpy(y[:, p], ws.v[p], psi)
    return worst


# -- operator adapters and the top-level solve ------------------------------


def matrix_op(a: np.ndarray):
    """Wrap a dense matrix as a field operator (test and oracle plumbing)."""

    def apply(v: BlockSpinorField) -> BlockSpinorField:
        out = BlockSpinorField.zeros_like(v)
        out.set_columns(np.asarray(a) @ v.columns())
        return out

    return apply


def dirac_op(params: DiracParams, gauge: GaugeField, clover: CloverField, comm=None):
    def apply(v: BlockSpinorField) -> BlockSpinorField:
        return apply_dirac(params, gauge, clover, v, comm=comm)

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
    psi0: BlockSpinorField | None = None,
    comm=None,
) -> SolveReport:
    """Solve D psi = eta directly or through the even-site Schur system.

    On the even/odd path the Schur solve runs single-rank; ``comm`` is used
    only for the final full-system residual.
    """
    if not odd_even:
        result = gmres_solve(dirac_op(params, gauge, clover, comm), eta, psi0, cfg)
        full = result.final_relnorms
        return SolveReport(result.psi, result, False, full, result.iterations)

    schur = SchurOperator(params, gauge, clover)
    reduced, eta_elim = schur.reduce_rhs(eta)
    x0 = None
    if psi0 is not None:
        x0 = BlockSpinorField.zeros(schur.n_sites, psi0.b, psi0.layout, psi0.s)
        x0.set_ksi(psi0.ksi()[schur.keep_sites])
    result = gmres_solve(schur.apply, reduced, x0, cfg)
    x_elim = schur.reconstruct(result.psi, eta_elim)
    psi = schur.merge(result.psi, x_elim)

    r = apply_dirac(params, gauge, clover, psi, comm=comm)
    rv = r.ksi()
    rv *= -1.0
    rv += eta.ksi()
    eta_norms = block_norms(eta)
    full = np.where(eta_norms > 0, block_norms(r) / np.maximum(eta_norms, _TINY), 0.0)
    return SolveReport(psi, result, True, full, result.iterations)
