import numpy as np
import pytest

from lqcdlab.blas import block_norms
from lqcdlab.dirac import DiracParams, apply_dirac
from lqcdlab.fields import BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry
from lqcdlab.oddeven import (
    OeSplit,
    SchurOperator,
    SingularBlockError,
    merge_fields,
    split_fields,
)
from lqcdlab.oracle import assemble_schur_dense, dense_solve


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=61)
    clover = gen_clover(geom, "random", scale=0.1, seed=62)
    params = DiracParams(m0=-0.5)
    return geom, gauge, clover, params


def test_split_merge_roundtrip(problem):
    geom, *_ = problem
    v = gen_spinor(geom.n_sites, 3, Layout.RHS_MAJOR, seed=70, geom=geom)
    split = OeSplit.from_geom(geom)
    ve, vo = split_fields(v, split)
    assert ve.n_sites == vo.n_sites == geom.n_sites // 2
    back = merge_fields(ve, vo, split)
    assert np.array_equal(back.data, v.data)
    # energy splits exactly across parities
    tot = block_norms(v) ** 2
    parts = block_norms(ve) ** 2 + block_norms(vo) ** 2
    assert np.abs(tot - parts).max() <= 1e-12 * tot.max()


def test_split_ordering_is_site_ascending(problem):
    geom, *_ = problem
    v = gen_spinor(geom.n_sites, 1, Layout.COMPONENT_MAJOR, seed=71, geom=geom)
    ve, _ = split_fields(v)
    split = OeSplit.from_geom(geom)
    assert np.array_equal(ve.ksi(), v.ksi()[split.even])
    assert np.array_equal(split.even, np.sort(split.even))


def test_schur_matches_dense(problem):
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    dense = assemble_schur_dense(params, gauge, clover)
    for layout in (Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR):
        v = gen_spinor(schur.n_sites, 2, layout, seed=72)
        got = schur.apply(v).columns()
        ref = dense @ v.columns()
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12


def test_schur_constant_field_identity():
    # with U=I, C=0 a constant field sees S = (4+m0) - 16/(4+m0)
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "unit")
    clover = gen_clover(geom, "zero")
    params = DiracParams(m0=0.5)
    schur = SchurOperator(params, gauge, clover)
    v = BlockSpinorField.zeros(schur.n_sites, 2, Layout.RHS_MAJOR)
    v.set_ksi(np.full((schur.n_sites, 12, 2), 1.0 + 0.0j))
    out = schur.apply(v)
    factor = (4 + params.m0) - 16.0 / (4 + params.m0)
    assert np.abs(out.ksi() - factor * v.ksi()).max() < 1e-12


def test_reduce_solve_reconstruct_solves_full_system(problem):
    geom, gauge, clover, params = problem
    eta = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=73, geom=geom)
    schur = SchurOperator(params, gauge, clover)
    reduced, eta_elim = schur.reduce_rhs(eta)
    dense = assemble_schur_dense(params, gauge, clover)
    x_kept = BlockSpinorField.zeros_like(reduced)
    x_kept.set_columns(dense_solve(dense, reduced.columns()))
    x_elim = schur.reconstruct(x_kept, eta_elim)
    psi = schur.merge(x_kept, x_elim)
    r = apply_dirac(params, gauge, clover, psi)
    res = np.linalg.norm(r.columns() - eta.columns()) / np.linalg.norm(eta.columns())
    assert res < 1e-12


def test_singular_elimination_block_rejected():
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "unit")
    clover = gen_clover(geom, "zero")
    params = DiracParams(m0=-4.0)  # self-coupling (4+m0) = 0, blocks singular
    with pytest.raises(SingularBlockError) as err:
        SchurOperator(params, gauge, clover)
    assert "site" in str(err.value)


def test_keep_parity_odd(problem):
    geom, gauge, clover, params = problem
    schur_odd = SchurOperator(params, gauge, clover, keep_parity=1)
    assert schur_odd.n_sites == geom.n_sites // 2
    v = gen_spinor(schur_odd.n_sites, 1, Layout.RHS_MAJOR, seed=76)
    out = schur_odd.apply(v)
    assert np.isfinite(out.data).all()
