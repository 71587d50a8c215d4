import numpy as np
import pytest

from lqcdlab import dirac
from lqcdlab.dirac import (
    BYTES_PER_VALUE,
    FLOPS_PER_SITE_RHS,
    VALUES_PER_SITE_FIXED,
    VALUES_PER_SITE_RHS,
    DiracParams,
    FlopCounter,
    account_traffic,
    apply_dirac,
)
from lqcdlab.fields import BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry
from lqcdlab.oddeven import SchurOperator, split_fields
from lqcdlab.oracle import assemble_dirac_dense


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=21)
    clover = gen_clover(geom, "random", scale=0.1, seed=22)
    params = DiracParams(m0=-0.5)
    dense = assemble_dirac_dense(params, gauge, clover)
    return geom, gauge, clover, params, dense


def test_traffic_ledger_frozen():
    assert FLOPS_PER_SITE_RHS == 2574
    assert (VALUES_PER_SITE_RHS, VALUES_PER_SITE_FIXED, BYTES_PER_VALUE) == (168, 114, 16)
    assert account_traffic(1) == {"flops_per_site": 2574, "bytes_per_site": 4512}
    assert account_traffic(16) == {"flops_per_site": 41184, "bytes_per_site": 44832}
    with pytest.raises(ValueError):
        account_traffic(0)


def test_flop_counter_weights():
    c = FlopCounter(cmul=2, cadd=3, rmul=4)
    assert c.total_flops == 12 + 6 + 8


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
@pytest.mark.parametrize("b", [1, 3])
def test_matches_dense_oracle(problem, layout, b):
    geom, gauge, clover, params, dense = problem
    psi = gen_spinor(geom.n_sites, b, layout, seed=30 + b, geom=geom)
    eta = apply_dirac(params, gauge, clover, psi)
    ref = dense @ psi.columns()
    err = np.linalg.norm(eta.columns() - ref) / np.linalg.norm(ref)
    assert err < 1e-13
    assert eta.layout == layout and eta.b == b


def test_free_field_identity():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "unit")
    clover = gen_clover(geom, "zero")
    params = DiracParams(m0=-0.5)
    psi = BlockSpinorField.zeros(geom.n_sites, 2, Layout.RHS_MAJOR, geom=geom)
    psi.set_ksi(np.full((geom.n_sites, 12, 2), 1.0 + 0.5j, dtype=np.complex128))
    eta = apply_dirac(params, gauge, clover, psi)
    assert np.abs(eta.ksi() - params.m0 * psi.ksi()).max() < 1e-14


def test_layout_invariance(problem):
    geom, gauge, clover, params, _ = problem
    psi1 = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=40, geom=geom)
    psi2 = psi1.convert(Layout.COMPONENT_MAJOR)
    eta1 = apply_dirac(params, gauge, clover, psi1)
    eta2 = apply_dirac(params, gauge, clover, psi2)
    scale = np.abs(eta1.ksi()).max()
    assert np.abs(eta1.ksi() - eta2.ksi()).max() <= 1e-13 * scale


def test_instrumented_flops_match_ledger(problem):
    geom, gauge, clover, params, _ = problem
    b = 3
    psi = gen_spinor(geom.n_sites, b, Layout.COMPONENT_MAJOR, seed=41, geom=geom)
    flops = FlopCounter()
    apply_dirac(params, gauge, clover, psi, flops=flops)
    # per site and rhs: self coupling 552 + hop sweep 4 * 468 + final
    # subtraction 24; per site: 12 for the mass on the clover diagonal.  The
    # analytic ledger's 2574 is explained in the dirac module docstring
    assert flops.total_flops == (2448 * b + 12) * geom.n_sites


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
def test_sweep_bitwise_independent_of_chunk_size(monkeypatch, layout):
    # 288 sites (144 per parity): neither 7 nor 64 divides either count,
    # so every tested chunking leaves a short last chunk
    geom = LatticeGeometry((6, 6, 4, 2))
    gauge = gen_gauge(geom, "random", seed=45)
    clover = gen_clover(geom, "random", scale=0.1, seed=46)
    params = DiracParams(m0=-0.5)
    b = 3
    psi = gen_spinor(geom.n_sites, b, layout, seed=47, geom=geom)
    half = split_fields(psi)[0]
    outs = []
    monkeypatch.setattr(dirac, "_MIN_CHUNK_SITES", 1)
    for chunk in (1, 7, 64, geom.n_sites):
        monkeypatch.setattr(dirac, "_CHUNK_SITE_RHS", chunk * b)
        eta = apply_dirac(params, gauge, clover, psi)
        schur = SchurOperator(params, gauge, clover).apply(half)
        outs.append((eta.data, schur.data))
    for eta, schur in outs[1:]:
        assert np.array_equal(eta, outs[0][0])
        assert np.array_equal(schur, outs[0][1])


def test_linearity(problem):
    geom, gauge, clover, params, _ = problem
    a = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=43, geom=geom)
    c = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=44, geom=geom)
    summed = BlockSpinorField.zeros_like(a)
    summed.set_ksi(a.ksi() + 2.0 * c.ksi())
    lhs = apply_dirac(params, gauge, clover, summed).ksi()
    rhs = apply_dirac(params, gauge, clover, a).ksi() + 2.0 * apply_dirac(params, gauge, clover, c).ksi()
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
