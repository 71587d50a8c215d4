import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lqcdlab import dirac, gmres, oddeven
from lqcdlab.blas import block_norms
from lqcdlab.dirac import DiracOperator, DiracParams
from lqcdlab.fields import BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry, RankGrid
from lqcdlab.halo import MultiRankExecutor
from lqcdlab.gmres import (
    GmresConfig,
    NonFiniteResidualError,
    SolverWorkspace,
    arnoldi_step,
    batched_vs_independent_audit,
    gamma_residual_audit,
    gmres_solve,
    _start_cycle,
    least_squares_update,
    matrix_op,
    solve_dirac,
)
from lqcdlab.oracle import assemble_dirac_dense, dense_lstsq, dense_solve


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=81)
    clover = gen_clover(geom, "random", scale=0.1, seed=82)
    return geom, gauge, clover


def test_config_validation():
    with pytest.raises(ValueError):
        GmresConfig(restart_len=0)
    with pytest.raises(ValueError):
        GmresConfig(tol=0.0)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            GmresConfig(tol=tol)


def test_identity_converges_in_one_iteration():
    eta = gen_spinor(16, 3, Layout.COMPONENT_MAJOR, seed=1)
    res = gmres_solve(matrix_op(np.eye(16 * 12)), eta, None, GmresConfig(tol=1e-10))
    assert res.iterations == 1
    assert res.converged.all()
    assert np.abs(res.psi.ksi() - eta.ksi()).max() < 1e-12
    assert res.breakdown.all()  # exactly solved, subdiagonal vanished


def test_scaled_identity():
    eta = gen_spinor(16, 2, Layout.RHS_MAJOR, seed=2)
    res = gmres_solve(matrix_op(2.0 * np.eye(16 * 12)), eta, None, GmresConfig(tol=1e-10))
    assert np.abs(res.psi.ksi() - 0.5 * eta.ksi()).max() < 1e-12


def test_zero_rhs_is_clean():
    eta = BlockSpinorField.zeros(16, 2, Layout.RHS_MAJOR)
    res = gmres_solve(matrix_op(np.eye(16 * 12)), eta, None, GmresConfig())
    assert np.isfinite(res.psi.data).all()
    assert not res.psi.data.any()
    assert res.converged.all()


def test_initial_guess_respected():
    rng = np.random.default_rng(3)
    a = np.diag(rng.uniform(1.0, 2.0, 4 * 12)).astype(np.complex128)
    eta = gen_spinor(4, 2, Layout.RHS_MAJOR, seed=4)
    exact = BlockSpinorField.zeros_like(eta)
    exact.set_columns(dense_solve(a, eta.columns()))
    res = gmres_solve(matrix_op(a), eta, exact, GmresConfig(tol=1e-10))
    assert res.iterations == 0
    assert np.abs(res.psi.ksi() - exact.ksi()).max() < 1e-12


def test_matches_dense_solver(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=5, geom=geom)
    res = gmres_solve(DiracOperator(params, gauge, clover), eta, None,
                      GmresConfig(tol=1e-10, restarts=40))
    assert res.converged.all()
    ref = dense_solve(assemble_dirac_dense(params, gauge, clover), eta.columns())
    rel = np.linalg.norm(res.psi.columns() - ref) / np.linalg.norm(ref)
    assert rel < 1e-8


def test_residual_history_monotone_within_cycle(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=6, geom=geom)
    res = gmres_solve(DiracOperator(params, gauge, clover), eta, None, GmresConfig(tol=1e-8, restarts=40))
    hist = np.array(res.history)
    for j in range(1, len(hist)):
        if j % 10 == 0:
            continue  # restart boundary
        assert np.all(hist[j] <= hist[j - 1] + 1e-14)


def test_fixed_iteration_protocol(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=7, geom=geom)
    cfg = GmresConfig(restart_len=10, restarts=10, fixed_iterations=True)
    res = gmres_solve(DiracOperator(params, gauge, clover), eta, None, cfg)
    assert res.iterations == 100
    assert len(res.history) == 100


def test_least_squares_matches_dense_lstsq():
    rng = np.random.default_rng(8)
    n = 6 * 12
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4 * np.eye(n)
    eta = gen_spinor(6, 2, Layout.RHS_MAJOR, seed=9)
    cfg = GmresConfig(restart_len=5, restarts=1, fixed_iterations=True)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, block_norms(eta))
    psi = BlockSpinorField.zeros_like(eta)
    op = matrix_op(a)
    norms0 = _start_cycle(op, eta, psi, ws)
    for j in range(cfg.restart_len):
        arnoldi_step(op, ws, j)
    y = least_squares_update(ws)
    m = cfg.restart_len
    for i in range(eta.b):
        beta = np.zeros(m + 1, dtype=np.complex128)
        beta[0] = norms0[i]
        y_ref = dense_lstsq(ws.h_raw[i, : m + 1, :m], beta)
        assert np.abs(y[i] - y_ref).max() < 1e-10
        # Givens identity: least-squares residual equals |gamma[m]|
        resid = np.linalg.norm(beta - ws.h_raw[i, : m + 1, :m] @ y[i])
        assert abs(resid - abs(ws.gamma[i, m])) < 1e-12 * max(resid, 1.0)


def test_batched_vs_independent(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=10, geom=geom)
    dev = batched_vs_independent_audit(DiracOperator(params, gauge, clover), eta, None,
                                       GmresConfig(tol=1e-8, restarts=40))
    assert dev <= 1e-8


def test_replicated_rhs_identical_histories(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    col = gen_spinor(geom.n_sites, 1, Layout.COMPONENT_MAJOR, seed=11, geom=geom)
    rep = BlockSpinorField.zeros(geom.n_sites, 4, Layout.COMPONENT_MAJOR, geom=geom)
    rep.set_ksi(np.repeat(col.ksi(), 4, axis=2))
    res = gmres_solve(DiracOperator(params, gauge, clover), rep, None, GmresConfig(tol=1e-8, restarts=40))
    for h in res.history:
        assert np.ptp(h) == 0.0
    cols = res.psi.ksi()
    assert np.abs(cols - cols[:, :, :1]).max() == 0.0


def test_gamma_tracks_explicit_residual(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=-2.0)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=12, geom=geom)
    dev = gamma_residual_audit(DiracOperator(params, gauge, clover), eta, None,
                               GmresConfig(restart_len=5, restarts=3))
    assert dev <= 1e-8


def test_gamma_audit_keeps_config_fields(problem, monkeypatch):
    geom, gauge, clover = problem
    seen = []

    def spy(op, ws, j):
        seen.append(j)
        return arnoldi_step(op, ws, j)

    monkeypatch.setattr(gmres, "arnoldi_step", spy)
    eta = gen_spinor(geom.n_sites, 1, Layout.RHS_MAJOR, seed=13, geom=geom)
    cfg = GmresConfig(restart_len=2, restarts=1, tol=1e-3)
    gamma_residual_audit(DiracOperator(DiracParams(m0=-0.5), gauge, clover), eta, None, cfg)
    assert len(seen) == 2


def test_stagnation_flagged():
    # For a cyclic shift P and rhs e0 the Krylov images P^k e0 stay orthogonal
    # to e0 until the cycle closes, so short restarts make exactly no progress.
    n = 16 * 12
    perm = np.roll(np.eye(n), 1, axis=0)
    eta = BlockSpinorField.zeros(16, 1, Layout.RHS_MAJOR)
    eta.data[0] = 1.0
    res = gmres_solve(matrix_op(perm), eta, None, GmresConfig(restart_len=5, restarts=2))
    assert res.stagnated
    assert not res.converged.any()


def test_solve_dirac_schur_path_agrees(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=14, geom=geom)
    cfg = GmresConfig(tol=1e-8, restarts=40)
    direct = solve_dirac(params, gauge, clover, eta, cfg, odd_even=False)
    schur = solve_dirac(params, gauge, clover, eta, cfg, odd_even=True)
    assert np.all(direct.full_relnorms <= 1e-8)
    assert np.all(schur.full_relnorms <= 1e-8)
    assert schur.iterations < direct.iterations
    diff = np.abs(direct.psi.ksi() - schur.psi.ksi()).max() / np.abs(direct.psi.ksi()).max()
    assert diff < 1e-6


@pytest.mark.parametrize("first_bad, iteration", [(1, 0), (3, 2), (12, 10)])
def test_non_finite_residual_stops_at_once(first_bad, iteration):
    # with a nonzero initial guess call 1 is the first restart residual,
    # calls 2..11 the Arnoldi steps of cycle one, call 12 the restart
    # residual after iteration 10
    n = 16
    rng = np.random.default_rng(5)
    a = 4.0 * np.eye(12 * n) + 0.1 * rng.standard_normal((12 * n, 12 * n))
    base = matrix_op(a)
    calls = []

    def op(v, out=None):
        calls.append(1)
        out = base(v, out=out)
        if len(calls) >= first_bad:
            out.ksi()[0, 0, 1] = np.nan
        return out

    eta = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=4)
    psi0 = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=6)
    cfg = GmresConfig(restart_len=10, restarts=3, fixed_iterations=True)
    with pytest.raises(NonFiniteResidualError) as err:
        gmres_solve(op, eta, psi0, cfg)
    assert len(calls) == first_bad
    assert err.value.iteration == iteration
    assert err.value.columns == [1]


def test_zero_guess_takes_eta_as_first_residual_and_a_nan_operator_stops_at_its_first_apply():
    # without psi0 the first restart residual is eta itself, so the first
    # operator call is the first Arnoldi step; a NaN it returns stops the
    # solve there, as iteration 1, naming the column
    n = 16
    rng = np.random.default_rng(5)
    base = matrix_op(4.0 * np.eye(12 * n) + 0.1 * rng.standard_normal((12 * n, 12 * n)))
    calls = []

    def op(v, out=None):
        calls.append(v.data.copy())
        out = base(v, out=out)
        out.ksi()[0, 0, 2] = np.nan
        return out

    eta = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=4)
    with pytest.raises(NonFiniteResidualError) as err:
        gmres_solve(op, eta, None, GmresConfig(restart_len=10, restarts=3))
    assert len(calls) == 1
    assert (err.value.iteration, err.value.columns) == (1, [2])
    assert "after iteration 1 in rhs columns [2]" in str(err.value)
    # that one call already applied the operator to the normalized eta, not to a zero field
    assert np.abs(calls[0]).max() > 0


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
def test_cgs2_basis_orthonormal_after_full_cycle(problem, layout):
    geom, gauge, clover = problem
    eta = gen_spinor(geom.n_sites, 3, layout, seed=15, geom=geom)
    cfg = GmresConfig(restart_len=10, restarts=1, fixed_iterations=True)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, block_norms(eta))
    op = DiracOperator(DiracParams(m0=1.0), gauge, clover)
    _start_cycle(op, eta, BlockSpinorField.zeros_like(eta), ws)
    for j in range(cfg.restart_len):
        arnoldi_step(op, ws, j)
    assert not ws.breakdown.any()
    eye = np.eye(cfg.restart_len + 1)
    for i in range(eta.b):
        q = ws.basis[:, i]
        assert np.linalg.norm(q.conj() @ q.T - eye, 2) <= 1e-12


def _spy_on_steps(monkeypatch, after=None) -> list:
    """Per Arnoldi step of the solves that follow, its ``block_dot`` and ``block_axpy`` calls as (name, rhs column).

    ``after(ws, j)``, if given, runs after every step.
    """
    steps = []
    current = {}

    def spy(name):
        real = getattr(gmres, name)

        def call(*args):
            if current:
                columns = current["ws"].basis[current["j"] + 1]
                steps[-1].append((name, next(i for i in range(len(columns)) if np.shares_memory(args[-1], columns[i]))))
            return real(*args)

        return call

    real_step = gmres.arnoldi_step

    def step(op, ws, j):
        steps.append([])
        current.update(ws=ws, j=j)
        try:
            real_step(op, ws, j)
        finally:
            current.clear()
        if after is not None:
            after(ws, j)

    for name in ("block_dot", "block_axpy"):
        monkeypatch.setattr(gmres, name, spy(name))
    monkeypatch.setattr(gmres, "arnoldi_step", step)
    return steps


@pytest.mark.parametrize("odd_even", [False, True])
@pytest.mark.parametrize("mixed, fixed, passes", [(True, False, 1), (False, False, 2), (True, True, 2)])
def test_gram_schmidt_passes_per_step(problem, monkeypatch, odd_even, mixed, fixed, passes):
    # a complex64 cycle under a complex128 solution, which ends at the
    # reliable-update threshold, makes one block_dot/block_axpy pair per
    # column and step; a complex128 cycle, and a complex64 one that runs its
    # fixed length, make two (CGS2)
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 3, Layout.RHS_MAJOR, seed=17, geom=geom)
    op = DiracOperator(params, gauge, clover)
    if odd_even:
        op = oddeven.SchurOperator(params, gauge, clover)
        eta, _ = op.reduce_rhs(eta)
    cfg = GmresConfig(tol=1e-8, restarts=40 if not fixed else 1, fixed_iterations=fixed)
    steps = _spy_on_steps(monkeypatch)
    res = gmres_solve(op, eta, None, cfg, inner=op.astype(np.complex64) if mixed else None)
    assert len(steps) == res.iterations > 0
    for calls in steps:
        assert calls == [(name, i) for i in range(eta.b) for _ in range(passes) for name in ("block_dot", "block_axpy")]


def test_near_dependent_column_takes_a_second_pass(monkeypatch):
    # span(e0, e1) is invariant under a, and rhs column 0 starts 1e-4 off
    # it: its second step's image lies in the basis but for about 1e-4 of
    # its norm, so one classical pass would leave the basis 6e-6 off
    # orthogonal in complex64 (1.2e-7 with two); that column takes the
    # second pass, column 1 (a generic start) does not
    n = 8
    a = np.diag(np.linspace(1.0, 3.0, 12 * n)).astype(np.complex128)
    a[:2, :2] = [[0.0, 0.3], [0.3, 0.0]]
    eta = gen_spinor(n, 2, Layout.RHS_MAJOR, seed=25)
    near = np.zeros((n, 12))
    near[0, 0] = 1.0
    eta.ksi()[:, :, 0] = near + 1e-4 * eta.ksi()[:, :, 0] / np.linalg.norm(eta.ksi()[:, :, 0])
    losses = []

    def orthogonality(ws, j):
        q = ws.basis[: j + 2, 0].astype(np.complex128)
        losses.append(np.abs(q.conj() @ q.T - np.eye(j + 2)).max())

    steps = _spy_on_steps(monkeypatch, orthogonality)
    cfg = GmresConfig(restart_len=4, restarts=1, tol=1e-10)
    gmres_solve(matrix_op(a), eta, None, cfg, inner=matrix_op(a.astype(np.complex64)))
    assert [[i for name, i in calls if name == "block_dot"] for calls in steps[:2]] == [[0, 1], [0, 0, 1]]
    assert losses[1] <= 1e-6


@pytest.mark.parametrize("m0", [1.0, -0.5])
@pytest.mark.parametrize("odd_even", [False, True])
def test_single_pass_basis_stays_within_the_reliable_update_threshold(problem, monkeypatch, m0, odd_even):
    # every complex64 cycle of a mixed solve runs one Gram-Schmidt pass per
    # column until its estimate fell RELIABLE_UPDATE_DELTA below its restart
    # residual: its basis loses orthogonality beyond CGS2's rounding level,
    # but stays below that threshold
    geom, gauge, clover = problem
    losses = []

    def orthogonality(ws, j):
        for i in range(ws.basis.shape[1]):
            q = ws.basis[: j + 2, i].astype(np.complex128)
            losses.append(np.abs(q.conj() @ q.T - np.eye(j + 2)).max())

    steps = _spy_on_steps(monkeypatch, orthogonality)
    eta = gen_spinor(geom.n_sites, 3, Layout.RHS_MAJOR, seed=18, geom=geom)
    rep = solve_dirac(DiracParams(m0=m0), gauge, clover, eta, GmresConfig(tol=1e-8, restarts=40), odd_even=odd_even)
    assert all(len(calls) == 2 * eta.b for calls in steps)
    assert (rep.full_relnorms <= 1e-8).all()
    assert 1e-6 < max(losses) <= gmres.RELIABLE_UPDATE_DELTA


def test_broken_down_column_basis_stays_zero():
    # column 1 starts on an eigenvector of a diagonal operator, so its first
    # Arnoldi vector vanishes exactly; the lockstep carries it as zeros
    n = 8
    a = np.diag(np.linspace(1.0, 3.0, 12 * n)).astype(np.complex128)
    eta = gen_spinor(n, 2, Layout.COMPONENT_MAJOR, seed=16)
    unit = np.zeros((n, 12))
    unit[0, 0] = 1.0
    eta.ksi()[:, :, 1] = unit
    cfg = GmresConfig(restart_len=6, restarts=1, fixed_iterations=True)
    ws = SolverWorkspace.allocate(eta, cfg.restart_len, block_norms(eta))
    op = matrix_op(a)
    _start_cycle(op, eta, BlockSpinorField.zeros_like(eta), ws)
    for j in range(cfg.restart_len):
        arnoldi_step(op, ws, j)
    assert ws.breakdown.tolist() == [False, True]
    assert not ws.basis[1:, 1].any()
    q = ws.basis[:, 0]
    assert np.abs(q.conj() @ q.T - np.eye(cfg.restart_len + 1)).max() <= 1e-12


@pytest.mark.parametrize("bad", ["b", "n_sites", "layout"])
def test_mismatched_initial_guess_raises_before_any_apply(bad):
    eta = gen_spinor(16, 3, Layout.RHS_MAJOR, seed=17)
    psi0 = {
        "b": BlockSpinorField.zeros(16, 2, Layout.RHS_MAJOR),
        "n_sites": BlockSpinorField.zeros(8, 3, Layout.RHS_MAJOR),
        "layout": BlockSpinorField.zeros(16, 3, Layout.COMPONENT_MAJOR),
    }[bad]
    base = matrix_op(np.eye(16 * 12))
    calls = []

    def op(v, out=None):
        calls.append(1)
        return base(v, out=out)

    with pytest.raises(ValueError, match="psi0") as err:
        gmres_solve(op, eta, psi0, GmresConfig())
    assert calls == []
    message = str(err.value)
    assert "RHS_MAJOR" in message and f"b={psi0.b}" in message and f"n_sites={psi0.n_sites}" in message
    if bad == "layout":
        assert "COMPONENT_MAJOR" in message


@pytest.mark.parametrize("odd_even", [False, True])
@pytest.mark.parametrize("field, dims", [("eta", (4, 4, 4, 2)), ("eta", (4, 4, 4, 8)),
                                         ("clover", (4, 4, 4, 2)), ("clover", (4, 4, 4, 8)),
                                         ("eta", (2, 4, 4, 8)), ("clover", (2, 4, 4, 8)),
                                         ("psi", (2, 4, 4, 8)), ("psi0", (2, 4, 4, 8))])
def test_lattice_mismatch_fails_before_any_build(problem, monkeypatch, odd_even, field, dims):
    # a smaller eta or clover used to raise a bare IndexError or a broadcast
    # error after the Schur build, and a larger clover was silently sliced
    # until the final residual; an eta, clover, operator input or initial
    # guess on another lattice of as many sites was used with its values
    # misplaced; every case now fails before anything is built or any rank
    # runs
    geom, gauge, clover = problem
    other = LatticeGeometry(dims)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=93, geom=geom)
    wrong = gen_spinor(other.n_sites, 2, Layout.RHS_MAJOR, seed=93, geom=other)
    if field == "psi":
        # the operators themselves: D through a rank grid, and S's whole-lattice D
        params = DiracParams(m0=1.0)
        if odd_even:
            op = oddeven.SchurOperator(params, gauge, clover).apply_full
        else:
            op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid((1, 1, 1, 2))))
        runs = []
        for module in (dirac, oddeven):
            monkeypatch.setattr(module, "apply_self_coupling", lambda *args, **kwargs: runs.append("stage"))
        monkeypatch.setattr(MultiRankExecutor, "run_ranks", lambda *args: runs.append("ranks"))
        with pytest.raises(ValueError, match=re.escape(f"field lattice {dims} is not the gauge lattice {geom.dims}")):
            op(wrong)
        assert runs == []
        return
    if field == "psi0":
        # the initial guess, checked by gmres_solve before any apply of either full-lattice operator
        message = re.escape(f"psi0 (n_sites={other.n_sites}, b=2) in RHS_MAJOR on lattice {dims} does not match eta")
        params = DiracParams(m0=1.0)
        full = (oddeven.SchurOperator(params, gauge, clover).apply_full if odd_even
                else DiracOperator(params, gauge, clover))
        calls = []
        with pytest.raises(ValueError, match=message):
            gmres_solve(_counted(full, calls, "op"), eta, wrong, GmresConfig())
        assert calls == []
        return
    if field == "eta":
        eta = gen_spinor(other.n_sites, 2, Layout.RHS_MAJOR, seed=93, geom=other)
        message = f"field has {other.n_sites} sites, gauge lattice has {geom.n_sites}"
    else:
        clover = gen_clover(other, "random", scale=0.1, seed=94)
        message = f"clover field has {other.n_sites} sites, gauge field has {geom.n_sites}"
    if other.n_sites == geom.n_sites:
        message = re.escape(f"{field} lattice {other.dims} is not the gauge lattice {geom.dims}")
    builds = []
    for module in (dirac, oddeven):
        monkeypatch.setattr(module, "site_blocks", lambda *args: builds.append("site blocks"))
        monkeypatch.setattr(module, "hop_matrices", lambda *args: builds.append("hop matrices"))
    with pytest.raises(ValueError, match=message):
        solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, GmresConfig(), odd_even=odd_even)
    assert builds == []


def _operator_case(problem, which: str, dtype):
    """(operator, psi) of one out= contract case: D on one rank or a rank grid, S, or a dense matrix."""
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    if which == "schur":
        op = oddeven.SchurOperator(params, gauge, clover).astype(dtype)
        return op, gen_spinor(op.n_sites, 3, Layout.RHS_MAJOR, seed=98).astype(dtype)
    if which == "matrix":
        a = np.random.default_rng(98).standard_normal((8 * 12, 8 * 12)) + 4.0 * np.eye(8 * 12)
        return matrix_op(a.astype(dtype)), gen_spinor(8, 3, Layout.COMPONENT_MAJOR, seed=98).astype(dtype)
    grid = {"dirac": None, "dirac (1,1,1,2)": (1, 1, 1, 2), "dirac (2,2,2,2)": (2, 2, 2, 2)}[which]
    op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None).astype(dtype)
    return op, gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=98, geom=geom).astype(dtype)


@pytest.mark.parametrize("which", ["dirac", "dirac (1,1,1,2)", "dirac (2,2,2,2)", "schur", "matrix"])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_out_field_contract(problem, monkeypatch, which, dtype):
    # an operator writes every row of out, in any layout, bitwise what it
    # returns without one, and returns out; an out it cannot fill raises
    # before any stage or rank runs and is left as it was
    op, psi = _operator_case(problem, which, dtype)
    ref = op(psi)
    for layout in Layout:
        out = BlockSpinorField.zeros(psi.n_sites, psi.b, layout, psi.geom, dtype)
        out.data[:] = np.nan
        assert op(psi, out=out) is out
        assert np.array_equal(out.ksi(), ref.ksi())
    other = np.complex64 if dtype == np.complex128 else np.complex128
    bad = {
        "sites": BlockSpinorField.zeros(psi.n_sites // 2, psi.b, dtype=dtype),
        "b": BlockSpinorField.zeros(psi.n_sites, psi.b - 1, dtype=dtype),
        "dtype": BlockSpinorField.zeros(psi.n_sites, psi.b, dtype=other),
        "psi itself": psi,
        "a view of psi": BlockSpinorField(psi.n_sites, psi.b, Layout.COLUMN, psi.data, psi.geom),
    }
    runs = []
    for module in (dirac, oddeven):
        for stage in ("apply_self_coupling", "subtract_hops"):
            monkeypatch.setattr(module, stage, lambda *args, **kwargs: runs.append("stage"))
    monkeypatch.setattr(MultiRankExecutor, "run_ranks", lambda *args: runs.append("ranks"))
    before = psi.data.copy()
    for case, out in bad.items():
        kept = out.data.copy()
        message = "shares memory with psi" if case in ("psi itself", "a view of psi") else "does not fit psi"
        with pytest.raises(ValueError, match=message):
            op(psi, out=out)
        assert np.array_equal(out.data, kept, equal_nan=True), case
    assert runs == [] and np.array_equal(psi.data, before)


def test_arnoldi_step_applies_the_operator_from_one_basis_row_into_the_next():
    # the basis rows are the operator's fields (Layout 3, no copy), so one
    # step holds no eta and no staged input: at 8^4, b=16, complex64 its
    # peak is the sweep's contiguous copy of row j plus chunk buffers, 1.22
    # rows; a step that allocated eta and copied it into the basis held 2.22
    # rows with a Layout-2 eta
    geom = LatticeGeometry((8, 8, 8, 8))
    op = DiracOperator(DiracParams(m0=1.0), gen_gauge(geom, "random", seed=99),
                       gen_clover(geom, "random", scale=0.1, seed=100)).astype(np.complex64)
    eta = gen_spinor(geom.n_sites, 16, Layout.COMPONENT_MAJOR, seed=101, geom=geom)
    ws = SolverWorkspace.allocate(eta, 3, block_norms(eta), np.complex64)
    assert all(f.layout == Layout.COLUMN and np.shares_memory(f.data, row) for f, row in zip(ws.fields, ws.basis))
    _start_cycle(op, eta, None, ws)
    arnoldi_step(op, ws, 0)
    tracemalloc.start()
    try:
        arnoldi_step(op, ws, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ws.basis[0].nbytes
    # row 2 is the operator applied to row 1, orthogonalized against rows 0 and 1
    w = op(ws.fields[1]).data.reshape(ws.basis[2].shape)
    for i in range(eta.b):
        q = ws.basis[:3, i]
        expect = w[i] - q[:2].T @ (q[:2].conj() @ w[i])
        assert np.abs(ws.basis[2, i] * np.linalg.norm(expect) - expect).max() <= 1e-5 * np.linalg.norm(expect)


@pytest.mark.parametrize("reliable", [True, False])
def test_shared_gram_schmidt_keeps_the_step_bitwise(problem, monkeypatch, reliable):
    # on a rank grid the step splits its columns over the executor's shares,
    # each column running the kernels it runs on one rank: from the same
    # basis, the (1,1,1,2) twin's steps leave the single-rank twin's rows,
    # coefficients and breakdown flags bit for bit
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 5, Layout.COMPONENT_MAJOR, seed=19, geom=geom)
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    shares = []
    real_share = ex.share
    monkeypatch.setattr(ex, "share", lambda work: shares.append(1) or real_share(work))
    runs = []
    for comm in (None, ex):
        op = DiracOperator(params, gauge, clover, comm).astype(np.complex64)
        ws = SolverWorkspace.allocate(eta, 4, block_norms(eta), np.complex64)
        ws.reliable = reliable
        _start_cycle(op, eta, None, ws)
        for j in range(4):
            arnoldi_step(op, ws, j)
        runs.append(ws)
    assert len(shares) == 4
    single, shared = runs
    assert np.array_equal(shared.basis, single.basis)
    assert np.array_equal(shared.h_raw, single.h_raw)
    assert np.array_equal(shared.breakdown, single.breakdown)


def _count_row_builds(monkeypatch, modules) -> dict:
    """Count the calls of both row builders and record the sites of every call, by builder name."""
    builds = {"site_blocks": [], "hop_matrices": []}
    for name, sites in builds.items():
        real = getattr(dirac, name)

        def counted(*args, _real=real, _sites=sites):
            _sites.append(np.array(args[-1]))
            return _real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return builds


def _assert_each_site_built_once(builds, geom, calls):
    for name, sites in builds.items():
        assert len(sites) == calls, name
        assert np.array_equal(np.sort(np.concatenate(sites)), np.arange(geom.n_sites)), name


@pytest.mark.parametrize("grid", [None, (1, 1, 1, 2)])
def test_one_operator_build_per_solve(problem, monkeypatch, grid):
    # one build of each site's block rows and hop rows per solve (per rank
    # on an executor, each rank its own sites), not one per operator call
    geom, gauge, clover = problem
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=95, geom=geom)
    comm = MultiRankExecutor(RankGrid(grid)) if grid else None
    builds = _count_row_builds(monkeypatch, (dirac,))
    report = solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, GmresConfig(tol=1e-8), comm=comm)
    assert report.iterations > 2 and (report.full_relnorms <= 1e-8).all()
    _assert_each_site_built_once(builds, geom, comm.grid.n_ranks if comm else 1)
    if comm:
        ranks = {tuple(dom.global_sites) for dom in comm.domains(geom)}
        assert {tuple(sites) for sites in builds["hop_matrices"]} == ranks


def test_one_operator_build_per_odd_even_solve(problem, monkeypatch):
    # the Schur operator's one build also serves the final full-system
    # residual: each site's block rows and hop rows are built once, one call
    # per builder over all sites in parity order, and no DiracOperator
    # (oddeven imports both builders by name)
    geom, gauge, clover = problem
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=96, geom=geom)
    builds = _count_row_builds(monkeypatch, (dirac, oddeven))
    monkeypatch.setattr(dirac.DiracOperator, "__init__", lambda *args, **kwargs: pytest.fail("DiracOperator built"))
    report = solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, GmresConfig(tol=1e-8), odd_even=True)
    assert report.iterations > 2 and (report.full_relnorms <= 1e-8).all()
    _assert_each_site_built_once(builds, geom, 1)
    parity_order = np.concatenate([geom.even_sites, geom.odd_sites])
    assert all(np.array_equal(sites[0], parity_order) for sites in builds.values())


def test_odd_even_solve_ignores_the_executor(problem):
    # the even/odd path, final residual included, runs single-rank: an
    # executor changes no bit of the result and runs no epoch
    geom, gauge, clover = problem
    eta = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=97, geom=geom)
    comm = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    epoch = comm.commset.epoch
    runs = [solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, GmresConfig(tol=1e-8), odd_even=True, comm=c)
            for c in (None, comm)]
    assert comm.commset.epoch == epoch
    assert np.array_equal(runs[0].psi.data, runs[1].psi.data)
    assert runs[0].iterations == runs[1].iterations
    assert np.array_equal(runs[0].full_relnorms, runs[1].full_relnorms)


def test_solve_path_does_not_import_scipy():
    # scipy alone adds ~20 MB of resident memory; only the dense oracle may load it
    script = """
import sys
import lqcdlab
from lqcdlab import DiracParams, GmresConfig, LatticeGeometry, gen_clover, gen_gauge, gen_spinor, solve_dirac
geom = LatticeGeometry((4, 4, 4, 4))
gauge, clover = gen_gauge(geom, "random", seed=1), gen_clover(geom, "random", seed=2)
eta = gen_spinor(geom.n_sites, 2, 2, seed=3, geom=geom)
for odd_even in (False, True):
    report = solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, GmresConfig(restarts=40), odd_even=odd_even)
    assert (report.full_relnorms <= 1e-8).all(), report.full_relnorms
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _counted(op, calls: list, tag: str):
    def apply(v, out=None):
        calls.append(tag)
        return op(v, out=out)

    apply.dtype = getattr(op, "dtype", np.dtype(np.complex128))
    return apply


def test_rotation_estimate_ends_only_the_cycle():
    # the Arnoldi steps apply op perturbed by 1e-6 relative: each cycle's
    # rotation estimate falls below tol while its explicit residual cannot,
    # so the solve must go on to further cycles and end on an explicit
    # residual at or below tol
    n = 16
    rng = np.random.default_rng(18)
    a = 4.0 * np.eye(12 * n) + 0.01 * rng.standard_normal((12 * n, 12 * n))
    e = rng.standard_normal(a.shape)
    perturbed = a + 1e-6 * np.linalg.norm(a, 2) / np.linalg.norm(e, 2) * e
    eta = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=19)
    cfg = GmresConfig(restart_len=10, restarts=10, tol=1e-10)
    calls = []
    res = gmres_solve(_counted(matrix_op(a), calls, "op"), eta, None, cfg,
                      inner=_counted(matrix_op(perturbed), calls, "inner"))
    first_estimate_below = next(it for it, h in enumerate(res.history, 1) if h.max() < cfg.tol)
    assert first_estimate_below < res.iterations
    # the first restart residual is eta (zero guess, no call); the one after
    # cycle one is above tol, then the final one
    assert calls.count("op") >= 2
    assert res.converged.all() and (res.final_relnorms <= cfg.tol).all()
    explicit = np.linalg.norm(eta.columns() - a @ res.psi.columns(), axis=0) / np.linalg.norm(eta.columns(), axis=0)
    assert (explicit <= cfg.tol).all()


@pytest.mark.parametrize("odd_even", [False, True])
def test_exact_inner_makes_the_same_op_calls(problem, odd_even):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=20, geom=geom)
    op = DiracOperator(params, gauge, clover)
    if odd_even:
        op = oddeven.SchurOperator(params, gauge, clover)
        eta, _ = op.reduce_rhs(eta)
    cfg = GmresConfig(tol=1e-8)
    plain, split = [], []
    alone = gmres_solve(_counted(op, plain, "op"), eta, None, cfg)
    paired = gmres_solve(_counted(op, split, "op"), eta, None, cfg, inner=_counted(op, split, "inner"))
    # from a zero guess the first restart residual is eta, with no call:
    # op runs once per cycle, after it, and inner once per iteration
    cycles = -(-alone.iterations // cfg.restart_len)
    assert len(plain) == len(split) == alone.iterations + cycles
    assert split.count("inner") == alone.iterations
    assert split.count("op") == cycles
    assert np.array_equal(paired.psi.data, alone.psi.data)
    assert np.array_equal(paired.final_relnorms, alone.final_relnorms)


@pytest.mark.parametrize("m0", [1.0, 0.0, -0.5, -1.0])
@pytest.mark.parametrize("odd_even", [False, True])
def test_mixed_solve_reaches_tol_in_float64_iterations(problem, m0, odd_even):
    # with one Gram-Schmidt pass in its complex64 cycles, the mixed solve
    # takes exactly as many iterations as the float64 one
    geom, gauge, clover = problem
    params = DiracParams(m0=m0)
    layout = Layout.RHS_MAJOR if odd_even else Layout.COMPONENT_MAJOR
    eta = gen_spinor(geom.n_sites, 3, layout, seed=96, geom=geom)
    cfg = GmresConfig(tol=1e-8, restarts=40)
    mixed = solve_dirac(params, gauge, clover, eta, cfg, odd_even=odd_even)
    if odd_even:
        schur = oddeven.SchurOperator(params, gauge, clover)
        float64 = gmres_solve(schur, schur.reduce_rhs(eta)[0], None, cfg)
    else:
        float64 = gmres_solve(DiracOperator(params, gauge, clover), eta, None, cfg)
    assert mixed.psi.dtype == np.complex128
    assert mixed.iterations == float64.iterations
    assert (mixed.result.final_relnorms <= cfg.tol).all()
    explicit = gmres._residual_norms(DiracOperator(params, gauge, clover)(mixed.psi), eta) / block_norms(eta)
    assert np.array_equal(explicit, mixed.full_relnorms)
    assert (explicit <= 1e-8).all()


def test_mixed_solve_zero_and_eigenvector_columns():
    # a zero rhs column stays exactly zero, and a column that starts on an
    # eigenvector breaks down at once, in the complex64 basis as in complex128
    n = 8
    diag = np.linspace(1.0, 3.0, 12 * n)
    a = np.diag(diag).astype(np.complex128)
    eta = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=21)
    eta.ksi()[:, :, 1] = 0.0
    eta.ksi()[:, :, 2] = 0.0
    eta.ksi()[0, 0, 2] = 1.0
    inner = matrix_op(a.astype(np.complex64))
    assert inner.dtype == np.complex64
    res = gmres_solve(matrix_op(a), eta, None, GmresConfig(tol=1e-10, restarts=40), inner=inner)
    assert res.psi.dtype == np.complex128
    assert not res.psi.ksi()[:, :, 1].any()
    assert res.breakdown.tolist() == [False, True, True]
    assert res.psi.ksi()[0, 0, 2] == 1.0 / diag[0]
    assert res.converged.all()


@pytest.mark.parametrize("m0", [1.0, 0.0, -0.5])
@pytest.mark.parametrize("odd_even", [False, True])
def test_mixed_batched_vs_independent(problem, m0, odd_even):
    # a single-precision cycle ends at the reliable-update threshold, so no
    # restart residual sinks into float32 rounding, which differs between a
    # batch and a single column (the even/odd system converges fast enough
    # to get there within one cycle)
    geom, gauge, clover = problem
    params = DiracParams(m0=m0)
    cfg = GmresConfig(tol=1e-8, restarts=40)
    eta = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=22, geom=geom)
    col = gen_spinor(geom.n_sites, 1, Layout.COMPONENT_MAJOR, seed=23, geom=geom)
    rep = BlockSpinorField.zeros(geom.n_sites, 4, Layout.COMPONENT_MAJOR, geom=geom)
    rep.set_ksi(np.repeat(col.ksi(), 4, axis=2))
    op = DiracOperator(params, gauge, clover)
    if odd_even:
        op = oddeven.SchurOperator(params, gauge, clover)
        eta, rep = op.reduce_rhs(eta)[0], op.reduce_rhs(rep)[0]
    twin = op.astype(np.complex64)
    assert batched_vs_independent_audit(op, eta, None, cfg, inner=twin) <= 1e-3
    res = gmres_solve(op, rep, None, cfg, inner=twin)
    assert max(float(np.ptp(h)) for h in res.history) == 0.0
    assert (res.final_relnorms <= 1e-8).all()


@pytest.mark.parametrize("odd_even", [False, True])
def test_mixed_solve_layout_invariance(problem, odd_even):
    # the mixed-precision counterpart of acceptance criterion 03's solve
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    cfg = GmresConfig(restart_len=10, restarts=10, fixed_iterations=True)
    eta = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=2045, geom=geom)
    one = solve_dirac(params, gauge, clover, eta, cfg, odd_even=odd_even)
    two = solve_dirac(params, gauge, clover, eta.convert(Layout.COMPONENT_MAJOR), cfg, odd_even=odd_even)
    diff = np.abs(one.psi.ksi() - two.psi.ksi()).max() / np.abs(one.psi.ksi()).max()
    assert diff <= 1e-8


@pytest.mark.parametrize("odd_even", [False, True])
def test_mixed_solve_at_any_scale(problem, odd_even):
    # the basis holds the normalized residual and psi adds the correction
    # times ||r0|| in complex128, so an eta far outside float32's range
    # (or deep in its subnormals) solves like eta itself
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    cfg = GmresConfig(tol=1e-8, restarts=40)
    eta = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=97, geom=geom)
    base = solve_dirac(params, gauge, clover, eta, cfg, odd_even=odd_even)
    for scale in (1e-32, 1e40):
        scaled = eta.copy()
        scaled.ksi()[...] *= scale
        rep = solve_dirac(params, gauge, clover, scaled, cfg, odd_even=odd_even)
        assert rep.result.converged.all()
        assert rep.iterations == base.iterations
        assert (rep.full_relnorms <= 1e-8).all()
        assert not rep.result.breakdown.any()
        if not odd_even:
            # the breakdown test is scale-free on the float64 path as well
            plain = gmres_solve(DiracOperator(params, gauge, clover), scaled, None, cfg)
            assert plain.converged.all() and not plain.breakdown.any()


def test_breakdown_holds_for_one_cycle_only():
    # rhs column 0 starts in a 2-dimensional invariant subspace of [[0, c],
    # [c, 0]] with c = 0.3: its complex64 cycle breaks down exactly after
    # two steps, with a solution only as exact as float32 (2.4e-8 relative
    # residual), so the column needs a second cycle, which must run both steps again (a breakdown
    # carried over would zero it after one step, where the Hessenberg
    # diagonal is 0, and it would never move again)
    n = 8
    a = np.diag(np.linspace(1.0, 3.0, 12 * n)).astype(np.complex128)
    a[:2, :2] = [[0.0, 0.3], [0.3, 0.0]]
    eta = gen_spinor(n, 3, Layout.RHS_MAJOR, seed=24)
    eta.ksi()[:, :, 0] = 0.0
    eta.ksi()[0, 0, 0] = 1.0
    cfg = GmresConfig(tol=1e-10, restarts=40)
    res = gmres_solve(matrix_op(a), eta, None, cfg, inner=matrix_op(a.astype(np.complex64)))
    assert res.breakdown.tolist() == [True, False, False]
    assert res.converged.all()
    explicit = np.linalg.norm(eta.columns() - a @ res.psi.columns(), axis=0) / np.linalg.norm(eta.columns(), axis=0)
    assert (explicit <= cfg.tol).all()
