import tracemalloc

import numpy as np
import pytest

from lqcdlab import oddeven
from lqcdlab.blas import block_norms
from lqcdlab.dirac import DiracParams, apply_dirac
from lqcdlab.fields import (
    BlockSpinorField,
    CloverField,
    GaugeField,
    Layout,
    gen_clover,
    gen_gauge,
    gen_spinor,
)
from lqcdlab.geometry import LatticeGeometry
from lqcdlab.oddeven import SchurOperator, SingularBlockError
from lqcdlab.oracle import assemble_dirac_dense, assemble_schur_dense, dense_solve


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=61)
    clover = gen_clover(geom, "random", scale=0.1, seed=62)
    params = DiracParams(m0=-0.5)
    return geom, gauge, clover, params


def test_split_merge_roundtrip(problem):
    geom, gauge, clover, params = problem
    v = gen_spinor(geom.n_sites, 3, Layout.RHS_MAJOR, seed=70, geom=geom)
    ve, vo = v.take_sites(geom.even_sites), v.take_sites(geom.odd_sites)
    assert ve.n_sites == vo.n_sites == geom.n_sites // 2
    back = SchurOperator(params, gauge, clover).merge(ve, vo)
    assert np.array_equal(back.data, v.data)
    # energy splits exactly across parities
    tot = block_norms(v) ** 2
    parts = block_norms(ve) ** 2 + block_norms(vo) ** 2
    assert np.abs(tot - parts).max() <= 1e-12 * tot.max()


@pytest.fixture(scope="module")
def noncubic():
    geom = LatticeGeometry((4, 4, 2, 6))
    gauge = gen_gauge(geom, "random", seed=66)
    clover = gen_clover(geom, "random", scale=0.1, seed=67)
    return geom, gauge, clover, DiracParams(m0=1.0)


def test_merge_keeps_the_halves_precision(problem):
    # merging two complex64 halves used to allocate a complex128 field and fail
    geom, gauge, clover, params = problem
    v = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=74, geom=geom).astype(np.complex64)
    ve, vo = v.take_sites(geom.even_sites), v.take_sites(geom.odd_sites)
    schur = SchurOperator(params, gauge, clover)
    for merge in (schur.merge, schur.astype(np.complex64).merge):
        back = merge(ve, vo)
        assert back.dtype == np.complex64 and np.array_equal(back.data, v.data)
    for halves in ((ve, vo.astype(np.complex128)), (ve.astype(np.complex128), vo)):
        with pytest.raises(ValueError, match="complex64.*complex128|complex128.*complex64"):
            schur.merge(*halves)


def test_split_ordering_is_site_ascending(problem):
    geom, *_ = problem
    v = gen_spinor(geom.n_sites, 1, Layout.COMPONENT_MAJOR, seed=71, geom=geom)
    ve = v.take_sites(geom.even_sites)
    assert np.array_equal(ve.ksi(), v.ksi()[geom.even_sites])
    assert np.array_equal(geom.even_sites, np.sort(geom.even_sites))


def test_schur_matches_dense(problem):
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    dense = assemble_schur_dense(params, gauge, clover)
    dense_full = assemble_dirac_dense(params, gauge, clover)
    for layout in (Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR):
        v = gen_spinor(schur.n_sites, 2, layout, seed=72)
        got = schur.apply(v).columns()
        ref = dense @ v.columns()
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12
        psi = gen_spinor(geom.n_sites, 2, layout, seed=75, geom=geom)
        assert _rel(schur.apply_full(psi).columns(), dense_full @ psi.columns()) < 1e-12


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


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("b", [3, 16])
def test_layout_two_and_its_conversion_give_bitwise_equal_schur_pieces(problem, dtype, b):
    # every sweep reads one contiguous spinor-row array, so a Layout-2 field
    # and its Layout-1 conversion see the same values at every site; the
    # final residual's apply_full runs on the complex128 operator only
    geom, gauge, clover, params = problem
    full = SchurOperator(params, gauge, clover)
    schur = full.astype(dtype)
    psi2 = gen_spinor(geom.n_sites, b, Layout.COMPONENT_MAJOR, seed=75, geom=geom).astype(dtype)
    psi1 = psi2.convert(Layout.RHS_MAJOR)
    v2 = psi2.take_sites(geom.even_sites)
    v1 = v2.convert(Layout.RHS_MAJOR)
    pieces = []
    for psi, v in ((psi2, v2), (psi1, v1)):
        reduced, eta_elim = schur.reduce_rhs(psi)
        pieces.append((schur.apply(v), reduced, eta_elim, schur.reconstruct(v, eta_elim),
                       full.apply_full(psi.astype(np.complex128))))
    for got, ref in zip(*pieces):
        assert (got.layout, ref.layout) == (Layout.COMPONENT_MAJOR, Layout.RHS_MAJOR)
        assert np.array_equal(got.ksi(), ref.ksi())


def test_singular_elimination_block_rejected():
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "unit")
    clover = gen_clover(geom, "zero")
    params = DiracParams(m0=-4.0)  # self-coupling (4+m0) = 0, blocks singular
    with pytest.raises(SingularBlockError) as err:
        SchurOperator(params, gauge, clover)
    assert "site" in str(err.value)


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("fault", ["singular", "nan"])
def test_bad_eliminated_block_is_attributed(problem, block, fault):
    geom, gauge, clover, params = problem
    site = int(geom.odd_sites[5])
    if fault == "singular":
        blocks = clover.blocks()
        blocks[site, block] = (4.0 + params.m0) * np.eye(6)  # diagonal block (4+m0)I - C = 0
        bad = CloverField.from_blocks(geom, blocks)
    else:
        bad = CloverField(geom, clover.data.copy())
        bad.data[site, block, 3] = np.nan
    with pytest.raises(SingularBlockError) as err:
        SchurOperator(params, gauge, bad)
    assert (err.value.site, err.value.block) == (site, block)
    assert f"at site {site}" in str(err.value)
    assert np.isnan(err.value.cond) == (fault == "nan")


def _clover_with_block(geom, site, block, kappa, shift):
    """Clover whose diagonal block (site, block) shift*I - C has 2-norm condition number kappa."""
    rng = np.random.default_rng(65)
    blocks = np.zeros((geom.n_sites, 2, 6, 6), dtype=np.complex128)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    target = (q * np.geomspace(1.0, 1.0 / kappa, 6)) @ q.conj().T
    c = shift * np.eye(6) - target
    blocks[site, block] = 0.5 * (c + c.conj().T)
    return CloverField.from_blocks(geom, blocks)


@pytest.mark.parametrize("kappa", [1.02e12, 0.98e12])
def test_condition_limit_classifies_as_the_exact_check(monkeypatch, kappa):
    # the 1-norm screen sends a block near the limit to the exact 2-norm check,
    # which rejects it just above 1e12 and accepts it just below
    geom = LatticeGeometry((2, 2, 2, 2))
    params = DiracParams(m0=-3.0)
    site = int(geom.odd_sites[3])
    clover = _clover_with_block(geom, site, 1, kappa, 4.0 + params.m0)
    from lqcdlab.dirac import site_blocks

    exact = np.linalg.cond(site_blocks(params, clover, np.array([site]))[0, 1])
    assert (exact > 1e12) == (kappa > 1e12)
    checked = []
    real_cond = np.linalg.cond

    def cond(blocks):
        checked.append(len(blocks))
        return real_cond(blocks)

    monkeypatch.setattr(np.linalg, "cond", cond)
    if kappa > 1e12:
        with pytest.raises(SingularBlockError) as err:
            SchurOperator(params, gen_gauge(geom, "unit"), clover)
        assert (err.value.site, err.value.block) == (site, 1)
        assert err.value.cond > 1e12
    else:
        SchurOperator(params, gen_gauge(geom, "unit"), clover)
    # only the ill-conditioned block went to the SVD; the other 15 were cleared by the screen
    assert checked == [1]


def test_well_conditioned_blocks_skip_the_svd(problem, monkeypatch):
    geom, gauge, clover, params = problem
    checked = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda blocks: checked.append(len(blocks)) or real_cond(blocks))
    SchurOperator(params, gauge, clover)
    assert checked in ([], [0])


def test_operator_is_a_build_time_snapshot(problem):
    geom, gauge0, clover0, params = problem
    gauge = GaugeField(geom, gauge0.data.copy())
    clover = CloverField(geom, clover0.data.copy())
    schur = SchurOperator(params, gauge, clover)
    dense_built = assemble_schur_dense(params, gauge, clover)
    gauge.data[...] = gen_gauge(geom, "random", seed=63).data
    clover.data[...] = gen_clover(geom, "random", scale=0.1, seed=64).data
    v = gen_spinor(schur.n_sites, 2, Layout.RHS_MAJOR, seed=77)
    assert _rel(schur.apply(v).columns(), dense_built @ v.columns()) < 1e-12
    rebuilt = SchurOperator(params, gauge, clover)
    dense_now = assemble_schur_dense(params, gauge, clover)
    assert _rel(rebuilt.apply(v).columns(), dense_now @ v.columns()) < 1e-12


@pytest.mark.parametrize("case", ["eta larger lattice", "eta smaller lattice",
                                  "apply full lattice", "apply_full half lattice", "reconstruct b",
                                  "reconstruct layout", "reconstruct sites"])
def test_schur_rejects_mismatched_fields(problem, case):
    # every mismatch raises a ValueError naming both shapes; unchecked, a
    # larger eta would be sliced by the site lists into a wrong reduced rhs
    # and a b=1 eta_elim would broadcast against a b=2 x_kept
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=79, geom=geom)
    reduced, eta_elim = schur.reduce_rhs(eta)
    larger, smaller = LatticeGeometry((4, 4, 4, 8)), LatticeGeometry((4, 4, 4, 2))
    calls = {
        "eta larger lattice": (
            lambda: schur.reduce_rhs(gen_spinor(larger.n_sites, 2, Layout.RHS_MAJOR, seed=79, geom=larger)),
            "field has 512 sites, gauge lattice has 256"),
        "eta smaller lattice": (
            lambda: schur.reduce_rhs(gen_spinor(smaller.n_sites, 2, Layout.RHS_MAJOR, seed=79, geom=smaller)),
            "field has 128 sites, gauge lattice has 256"),
        "apply full lattice": (lambda: schur.apply(eta), "field has 256 sites, Schur system has 128"),
        "apply_full half lattice": (lambda: schur.apply_full(reduced), "field has 128 sites, gauge lattice has 256"),
        "reconstruct b": (
            lambda: schur.reconstruct(reduced, BlockSpinorField.zeros(schur.n_sites, 1)),
            r"eta_elim \(n_sites=128, b=1\) in RHS_MAJOR does not match x_kept \(n_sites=128, b=2\)"),
        "reconstruct layout": (
            lambda: schur.reconstruct(reduced, eta_elim.convert(Layout.COMPONENT_MAJOR)),
            "eta_elim .* in COMPONENT_MAJOR does not match x_kept .* in RHS_MAJOR"),
        "reconstruct sites": (
            lambda: schur.reconstruct(reduced, eta_elim.take_sites(np.arange(64))),
            r"eta_elim \(n_sites=64, .* does not match x_kept \(n_sites=128,"),
    }
    call, message = calls[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
def test_schur_apply_peak_temporaries(layout):
    # the hop sweeps subtract straight into their destination fields, so one
    # apply holds only N t, its output and the sweep's chunk buffers: about
    # 3 half fields at 8^4, b=4; an extra field-sized temporary per block
    # (a fresh field for each hop, then a subtraction) reaches 4.1
    geom = LatticeGeometry((8, 8, 8, 8))
    schur = SchurOperator(DiracParams(m0=1.0), gen_gauge(geom, "random", seed=41),
                          gen_clover(geom, "random", scale=0.1, seed=42))
    v = gen_spinor(schur.n_sites, 4, layout, seed=43)
    schur.apply(v)
    tracemalloc.start()
    try:
        schur.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * v.data.nbytes


@pytest.mark.parametrize("lattice", [0, 1])  # index into (problem, noncubic)
@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR, Layout.COLUMN])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_single_precision_twin_matches_float64_apply(problem, noncubic, monkeypatch, lattice, layout, b):
    geom, gauge, clover, params = (problem, noncubic)[lattice]
    schur = SchurOperator(params, gauge, clover)
    for name in ("site_blocks", "hop_matrices", "_invert_blocks"):
        monkeypatch.setattr(oddeven, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
    twin = schur.astype(np.complex64)
    assert (schur.dtype, twin.dtype) == (np.complex128, np.complex64)
    assert schur.astype(np.complex128) is schur
    # each parity record of the twin holds its own hop matrices, float32 copies of the operator's
    for rows, ref in ((twin._kept, schur._kept), (twin._elim, schur._elim)):
        assert rows.hops.dtype == np.float32 and np.array_equal(rows.hops, ref.hops.astype(np.float32))
    # the eliminated blocks are read only by apply_full, at complex128: the
    # twin shares the whole-lattice record that holds them, uncast
    assert twin._full is schur._full
    assert twin._full.blocks.dtype == np.float64
    v = gen_spinor(schur.n_sites, b, layout, seed=79)
    ref = schur(v)
    got = twin(v.astype(np.complex64))
    assert got.dtype == np.complex64
    assert np.linalg.norm(got.data - ref.data) <= 1e-6 * np.linalg.norm(ref.data)
    # the whole-lattice D from the parity blocks is bitwise the full operator's apply
    psi = gen_spinor(geom.n_sites, b, layout, seed=82, geom=geom)
    assert np.array_equal(schur.apply_full(psi).data, apply_dirac(params, gauge, clover, psi).data)


def test_parity_records_are_views_of_the_one_row_build(problem):
    # the rows are built once, over all sites in parity order: the parity
    # records' hop matrices and the kept blocks D_ee are views of them
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    full, kept, elim, h = schur._full, schur._kept, schur._elim, schur.n_sites
    assert np.array_equal(full.sites, np.concatenate([geom.even_sites, geom.odd_sites]))
    assert np.shares_memory(kept.hops, full.hops) and np.shares_memory(elim.hops, full.hops)
    assert np.shares_memory(kept.blocks, full.blocks)
    assert np.array_equal(kept.hops, full.hops[:, :h]) and np.array_equal(elim.hops, full.hops[:, h:])
    assert np.array_equal(kept.blocks, full.blocks[:h])
    # N is the one block array of its own
    assert not np.shares_memory(elim.blocks, full.blocks)


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR, Layout.COLUMN])
def test_apply_full_result_is_on_the_operator_lattice(problem, layout):
    # a psi without a geometry, as the solver's fields are, still gives a D psi
    # on the operator's lattice, in psi's layout and precision
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    psi = gen_spinor(geom.n_sites, 2, layout, seed=83)
    assert psi.geom is None
    out = schur.apply_full(psi)
    assert out.geom is schur.geom and (out.layout, out.dtype) == (psi.layout, psi.dtype)
    assert np.array_equal(out.data, apply_dirac(params, gauge, clover, psi).data)


def test_schur_rejects_a_field_of_the_other_precision(problem):
    geom, gauge, clover, params = problem
    schur = SchurOperator(params, gauge, clover)
    v = gen_spinor(schur.n_sites, 2, Layout.RHS_MAJOR, seed=80)
    eta = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=81, geom=geom)
    with pytest.raises(ValueError, match="dtype complex64 given to an operator of dtype complex128"):
        schur.apply(v.astype(np.complex64))
    with pytest.raises(ValueError, match="dtype complex64 given to an operator of dtype complex128"):
        schur.apply_full(eta.astype(np.complex64))
    twin = schur.astype(np.complex64)
    for call in (lambda: twin.apply(v), lambda: twin.reduce_rhs(eta),
                 lambda: twin.reconstruct(v, v), lambda: twin.apply_full(eta)):
        with pytest.raises(ValueError, match="dtype complex128 given to an operator of dtype complex64"):
            call()
