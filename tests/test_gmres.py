import numpy as np
import pytest

from lqcdlab import gmres
from lqcdlab.blas import block_norms
from lqcdlab.dirac import DiracParams
from lqcdlab.fields import BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry
from lqcdlab.gmres import (
    GmresConfig,
    SolverWorkspace,
    arnoldi_step,
    batched_vs_independent_audit,
    dirac_op,
    gamma_residual_audit,
    gmres_solve,
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
    res = gmres_solve(dirac_op(params, gauge, clover), eta, None,
                      GmresConfig(tol=1e-10, restarts=40))
    assert res.converged.all()
    ref = dense_solve(assemble_dirac_dense(params, gauge, clover), eta.columns())
    rel = np.linalg.norm(res.psi.columns() - ref) / np.linalg.norm(ref)
    assert rel < 1e-8


def test_residual_history_monotone_within_cycle(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=6, geom=geom)
    res = gmres_solve(dirac_op(params, gauge, clover), eta, None, GmresConfig(tol=1e-8, restarts=40))
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
    res = gmres_solve(dirac_op(params, gauge, clover), eta, None, cfg)
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
    from lqcdlab.gmres import _start_cycle

    op = matrix_op(a)
    norms0 = _start_cycle(op, eta, psi, ws)
    for j in range(cfg.restart_len):
        arnoldi_step(op, ws, j, cfg)
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
    dev = batched_vs_independent_audit(dirac_op(params, gauge, clover), eta, None,
                                       GmresConfig(tol=1e-8, restarts=40))
    assert dev <= 1e-8


def test_replicated_rhs_identical_histories(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=1.0)
    col = gen_spinor(geom.n_sites, 1, Layout.COMPONENT_MAJOR, seed=11, geom=geom)
    rep = BlockSpinorField.zeros(geom.n_sites, 4, Layout.COMPONENT_MAJOR, geom=geom)
    rep.set_ksi(np.repeat(col.ksi(), 4, axis=2))
    res = gmres_solve(dirac_op(params, gauge, clover), rep, None, GmresConfig(tol=1e-8, restarts=40))
    for h in res.history:
        assert np.ptp(h) == 0.0
    cols = res.psi.ksi()
    assert np.abs(cols - cols[:, :, :1]).max() == 0.0


def test_gamma_tracks_explicit_residual(problem):
    geom, gauge, clover = problem
    params = DiracParams(m0=-2.0)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=12, geom=geom)
    dev = gamma_residual_audit(dirac_op(params, gauge, clover), eta, None,
                               GmresConfig(restart_len=5, restarts=3))
    assert dev <= 1e-8


def test_gamma_audit_keeps_config_fields(problem, monkeypatch):
    geom, gauge, clover = problem
    seen = []

    def spy(op, ws, j, cfg):
        seen.append(cfg)
        return arnoldi_step(op, ws, j, cfg)

    monkeypatch.setattr(gmres, "arnoldi_step", spy)
    eta = gen_spinor(geom.n_sites, 1, Layout.RHS_MAJOR, seed=13, geom=geom)
    cfg = GmresConfig(restart_len=2, restarts=1, breakdown_rel=1e-3, reorthogonalize=True)
    gamma_residual_audit(dirac_op(DiracParams(m0=-0.5), gauge, clover), eta, None, cfg)
    assert len(seen) == 2
    for used in seen:
        assert used.fixed_iterations and used.breakdown_rel == 1e-3 and used.reorthogonalize


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
