import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lqcdlab import dirac, fields
from lqcdlab.dirac import (
    BYTES_PER_VALUE,
    FLOPS_PER_SITE_RHS,
    VALUES_PER_SITE_FIXED,
    VALUES_PER_SITE_RHS,
    DiracOperator,
    DiracParams,
    account_traffic,
    apply_dirac,
    apply_self_coupling,
    left_real_form,
    hop_matrices,
    site_blocks,
)
from lqcdlab.fields import BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import NDIM, LatticeGeometry, RankGrid
from lqcdlab.halo import MultiRankExecutor
from lqcdlab.oddeven import SchurOperator
from lqcdlab.oracle import assemble_dirac_dense, assemble_schur_dense, parity_component_indices


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=21)
    clover = gen_clover(geom, "random", scale=0.1, seed=22)
    params = DiracParams(m0=-0.5)
    dense = assemble_dirac_dense(params, gauge, clover)
    return geom, gauge, clover, params, dense


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def test_traffic_ledger_frozen():
    assert FLOPS_PER_SITE_RHS == 2574
    assert (VALUES_PER_SITE_RHS, VALUES_PER_SITE_FIXED, BYTES_PER_VALUE) == (168, 114, 16)
    assert account_traffic(1) == {"flops_per_site": 2574, "bytes_per_site": 4512}
    assert account_traffic(16) == {"flops_per_site": 41184, "bytes_per_site": 44832}
    with pytest.raises(ValueError):
        account_traffic(0)


def test_traffic_ledger_counts_bytes_at_the_precision():
    assert account_traffic(4, np.complex128) == account_traffic(4)
    assert account_traffic(16, np.complex64) == {"flops_per_site": 41184, "bytes_per_site": 44832 // 2}
    with pytest.raises(ValueError, match="complex128 or complex64"):
        account_traffic(4, np.float64)


def test_left_real_form_is_made_in_place(problem):
    # L = [Re B | Im B] row by row, in the bytes of the complex blocks it replaces
    geom, _, clover, params, _ = problem
    blocks = site_blocks(params, clover, np.arange(geom.n_sites))
    ref = blocks.copy()
    for dtype in (np.complex128, np.complex64):
        b = ref.astype(dtype)
        form = left_real_form(b)
        assert form.shape == ref.shape[:-1] + (12,) and form.dtype == np.finfo(dtype).dtype
        assert np.shares_memory(form, b) and form.nbytes == b.nbytes
        assert np.array_equal(form[..., :6], ref.real.astype(form.dtype))
        assert np.array_equal(form[..., 6:], ref.imag.astype(form.dtype))


@pytest.fixture(scope="module")
def schur_dense(problem):
    _, gauge, clover, params, _ = problem
    return assemble_schur_dense(params, gauge, clover)


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("b", [1, 3, 16])
def test_real_self_coupling_operators_match_dense_oracle(problem, schur_dense, layout, b):
    # every public apply against the dense oracle: D on one rank and through
    # two rank grids, S with its right-hand-side reduction and its
    # reconstruction, and the whole-lattice D from the Schur operator's
    # parity blocks; the complex64 twins within float32 rounding
    geom, gauge, clover, params, dense = problem
    psi = gen_spinor(geom.n_sites, b, layout, seed=60 + b, geom=geom)
    single = psi.astype(np.complex64)
    ref = dense @ psi.columns()
    for grid in (None, (1, 1, 1, 2), (2, 2, 2, 2)):
        op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None)
        assert _rel(op(psi).columns(), ref) < 1e-12
        assert _rel(op.astype(np.complex64)(single).columns(), ref) < 1e-6
    schur = SchurOperator(params, gauge, clover)
    assert _rel(schur.apply_full(psi).columns(), ref) < 1e-12
    # psi's halves serve as x_e and as eta_o
    even, odd = (parity_component_indices(geom, parity) for parity in (0, 1))
    d_eo, d_oe, d_oo = (dense[np.ix_(rows, cols)] for rows, cols in ((even, odd), (odd, even), (odd, odd)))
    x_kept, eta_elim = (psi.take_sites(sites).columns() for sites in (geom.even_sites, geom.odd_sites))
    schur_ref = schur_dense @ x_kept
    reduced_ref = x_kept - d_eo @ np.linalg.solve(d_oo, eta_elim)
    elim_ref = np.linalg.solve(d_oo, eta_elim - d_oe @ x_kept)
    for op, field, tol in ((schur, psi, 1e-12), (schur.astype(np.complex64), single, 1e-6)):
        half = field.take_sites(geom.even_sites)
        reduced, elim = op.reduce_rhs(field)
        assert _rel(op.apply(half).columns(), schur_ref) < tol
        assert _rel(reduced.columns(), reduced_ref) < tol
        assert _rel(op.reconstruct(half, elim).columns(), elim_ref) < tol


def test_self_coupling_holds_no_field_sized_temporary():
    # the [x ; i x] stack and the product are chunk buffers: one apply holds
    # its output and 1.5 chunks of 512 sites, 1.375 fields at 8^4, b=4; a
    # whole-field stack would add 2 fields
    geom = LatticeGeometry((8, 8, 8, 8))
    clover = gen_clover(geom, "random", scale=0.1, seed=61)
    blocks = left_real_form(site_blocks(DiracParams(m0=1.0), clover, np.arange(geom.n_sites)))
    psi = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=62, geom=geom)
    ref = apply_self_coupling(blocks, psi)
    tracemalloc.start()
    try:
        apply_self_coupling(blocks, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * psi.data.nbytes
    assert np.array_equal(apply_self_coupling(blocks, psi).data, ref.data)


@pytest.mark.parametrize("grid", [None, (1, 1, 1, 2)])
def test_site_block_arrays_keep_the_complex_bytes(problem, grid):
    # every operator and twin holds its site blocks in left real form, in
    # exactly the bytes of the complex (n, 2, 6, 6) blocks they replace, and
    # its hop matrices as n * 8 * 36 floats, all at its real dtype
    geom, gauge, clover, params, _ = problem
    complex_bytes = {dtype: geom.n_sites * 72 * np.dtype(dtype).itemsize for dtype in (np.complex128, np.complex64)}
    hop_floats = geom.n_sites * 8 * 36
    op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None)
    for dtype, nbytes in complex_bytes.items():
        o = op.astype(dtype)
        blocks = [rows.blocks for rows in o._rows]
        assert all(a.dtype == np.finfo(dtype).dtype and a.shape[1:] == (2, 6, 12) for a in blocks)
        assert sum(a.nbytes for a in blocks) == nbytes
        hops = [rows.hops for rows in o._rows]
        assert all(a.dtype == np.finfo(dtype).dtype and a.shape[0] == 8 and a.shape[2:] == (6, 6) for a in hops)
        assert sum(a.size for a in hops) == hop_floats
    schur = SchurOperator(params, gauge, clover)
    for dtype, nbytes in complex_bytes.items():
        s = schur.astype(dtype)
        for a in (s._kept.blocks, s._elim.blocks):
            assert a.dtype == np.finfo(dtype).dtype and a.nbytes == nbytes // 2
        hops = (s._kept.hops, s._elim.hops)
        assert all(a.dtype == np.finfo(dtype).dtype for a in hops)
        assert sum(a.size for a in hops) == hop_floats
    # the eliminated blocks D_oo, the odd half of the whole-lattice record's
    # blocks, are read only at complex128, and the twin shares that record
    assert all(schur.astype(dtype)._full is schur._full for dtype in complex_bytes)
    assert schur._full.blocks[schur.n_sites:].nbytes == complex_bytes[np.complex128] // 2


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


@pytest.mark.parametrize("b", [1, 16])
def test_matches_dense_oracle_component_major(problem, b):
    # b = 1 makes each site's link product a (2, 6) @ (6, 6) float64 matrix
    # product, b = 16 a (32, 6) @ (6, 6) one
    geom, gauge, clover, params, dense = problem
    psi = gen_spinor(geom.n_sites, b, Layout.COMPONENT_MAJOR, seed=33 + b, geom=geom)
    eta = apply_dirac(params, gauge, clover, psi)
    ref = dense @ psi.columns()
    assert np.linalg.norm(eta.columns() - ref) / np.linalg.norm(ref) < 1e-13


def test_hop_matrix_slots_reproduce_link_products(problem):
    # float64 rows of 3 colors times slot 2mu give U_mu(x) h / 2, times
    # slot 2mu + 1 give U_mu^H(x - mu^) h / 2
    geom, gauge, _, _, _ = problem
    sites = np.arange(7, 57)
    back = geom.neighbor_tables[1::2, sites]
    links = gauge.data[sites].swapaxes(0, 1)  # (4, 50, 3, 3) random SU(3) at x
    back_links = gauge.data[back, np.arange(NDIM)[:, None]]  # (4, 50, 3, 3) at x - mu^
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 50, 5, 3)) + 1j * rng.standard_normal((4, 50, 5, 3))
    hops = hop_matrices(gauge, sites)
    assert hops.shape == (8, 50, 6, 6) and hops.dtype == np.float64 and hops.flags.c_contiguous
    rows = h.view(np.float64)
    forward = (rows @ hops[0::2]).view(np.complex128)
    adjoint = (rows @ hops[1::2]).view(np.complex128)
    assert np.abs(forward - 0.5 * np.einsum("dxca,dxra->dxrc", links, h)).max() < 1e-15
    assert np.abs(adjoint - 0.5 * np.einsum("dxac,dxra->dxrc", back_links.conj(), h)).max() < 1e-15
    # the 2x2 block (a, c) of slot 2mu is [[Re U_ca, Im U_ca], [-Im U_ca, Re U_ca]] / 2
    # of U = U_mu(x), the one of slot 2mu + 1 its transpose for U = U_mu(x - mu^), exactly
    for mu in range(NDIM):
        for i in (0, 31):
            for slot, u in ((2 * mu, links[mu, i]), (2 * mu + 1, back_links[mu, i])):
                blocks = hops[slot, i].reshape(3, 2, 3, 2)
                for a in range(3):
                    for c in range(3):
                        re, im = u[c, a].real, u[c, a].imag
                        block = 0.5 * np.array([[re, im], [-im, re]])
                        got = blocks[a, :, c] if slot % 2 == 0 else blocks[c, :, a].T
                        assert np.array_equal(got, block)


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
    eta1 = apply_dirac(params, gauge, clover, psi1)
    scale = np.abs(eta1.ksi()).max()
    for layout in (Layout.COMPONENT_MAJOR, Layout.COLUMN):
        eta2 = apply_dirac(params, gauge, clover, psi1.convert(layout))
        assert eta2.layout == layout
        assert np.abs(eta1.ksi() - eta2.ksi()).max() <= 1e-13 * scale


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
    half = psi.take_sites(geom.even_sites)
    outs = []
    monkeypatch.setattr(fields, "_MIN_CHUNK_SITES", 1)
    for chunk in (1, 7, 64, geom.n_sites):
        monkeypatch.setattr(fields, "_CHUNK_SITE_RHS", chunk * b)
        eta = apply_dirac(params, gauge, clover, psi)
        schur = SchurOperator(params, gauge, clover).apply(half)
        outs.append((eta.data, schur.data))
    for eta, schur in outs[1:]:
        assert np.array_equal(eta, outs[0][0])
        assert np.array_equal(schur, outs[0][1])


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_products_past_the_blas_bound_split_bitwise(dtype):
    # 8192 rows take both the projection (24 x 12) and A^H (12 x 12) past
    # M*N*K = 10^6, so each runs in row blocks; every output is one input or
    # the rounded sum of two, so the blocks change no bit
    rng = np.random.default_rng(3)
    rows = (rng.standard_normal((8192, 12)) + 1j * rng.standard_normal((8192, 12))).astype(dtype)
    for r, width in ((dirac._PROJECT_AT[np.dtype(dtype)][1, 0], 12), (dirac._ADJOINT_AT[np.dtype(dtype)][2], 6)):
        x = rows[:, :width].copy()
        whole = x.view(r.dtype).reshape(-1, r.shape[0]) @ r
        assert len(whole) * r.size > dirac._BLAS_SMALL_MNK
        assert np.array_equal(dirac._times(x, r), whole.view(dtype))
    # up to b = 8 a chunk's projection stays one product
    assert fields.chunk_sites(8) * 8 * dirac._PROJECT.shape[-1] * dirac._PROJECT.shape[-2] <= dirac._BLAS_SMALL_MNK
    # direction 0 starts the accumulators without an A^H product: A_0 = I
    assert np.array_equal(dirac._ADJOINT[0], np.eye(12))


def test_linearity(problem):
    geom, gauge, clover, params, _ = problem
    a = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=43, geom=geom)
    c = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=44, geom=geom)
    summed = BlockSpinorField.zeros_like(a)
    summed.set_ksi(a.ksi() + 2.0 * c.ksi())
    lhs = apply_dirac(params, gauge, clover, summed).ksi()
    rhs = apply_dirac(params, gauge, clover, a).ksi() + 2.0 * apply_dirac(params, gauge, clover, c).ksi()
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


@pytest.mark.parametrize("grid", [None, (1, 1, 1, 2)])
def test_operator_is_a_snapshot_of_its_fields(grid):
    # the operator copies what it needs at build time: editing the fields in
    # place afterwards reaches a new operator but not the one already built
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=23)
    clover = gen_clover(geom, "random", scale=0.1, seed=24)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=25, geom=geom)
    comm = MultiRankExecutor(RankGrid(grid)) if grid else None
    op = DiracOperator(params, gauge, clover, comm)
    before = op(psi)
    gauge.data[...] = gen_gauge(geom, "random", seed=26).data
    clover.data[...] = gen_clover(geom, "random", scale=0.1, seed=27).data
    assert np.array_equal(op(psi).data, before.data)
    assert not np.array_equal(apply_dirac(params, gauge, clover, psi).data, before.data)


@pytest.mark.parametrize("dims", [(4, 4, 4, 2), (4, 4, 4, 8)])
def test_operator_rejects_clover_of_another_lattice(problem, dims):
    _, gauge, _, params, _ = problem
    other = LatticeGeometry(dims)
    with pytest.raises(ValueError, match=f"clover field has {other.n_sites} sites, gauge field has 256"):
        DiracOperator(params, gauge, gen_clover(other, "random", scale=0.1, seed=28))


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_single_precision_twin_matches_float64_apply(problem, monkeypatch, layout, b):
    geom, gauge, clover, params, _ = problem
    op = DiracOperator(params, gauge, clover)
    twin = op.astype(np.complex64)
    assert (op.dtype, twin.dtype) == (np.complex128, np.complex64)
    assert op.astype(np.complex128) is op and twin.astype(np.complex64) is twin
    psi = gen_spinor(geom.n_sites, b, layout, seed=48, geom=geom)
    ref = op(psi)
    got = twin(psi.astype(np.complex64))
    assert got.dtype == np.complex64 and got.layout == layout
    assert np.linalg.norm(got.data - ref.data) <= 1e-6 * np.linalg.norm(ref.data)
    # the twin's sweep gives the same values for any chunking, as the float64 one does
    monkeypatch.setattr(fields, "_MIN_CHUNK_SITES", 1)
    for chunk in (1, 64):
        monkeypatch.setattr(fields, "_CHUNK_SITE_RHS", chunk * b)
        assert np.array_equal(twin(psi.astype(np.complex64)).data, got.data)


@pytest.mark.parametrize("grid", [None, (1, 1, 1, 2)])
def test_twin_builds_nothing(problem, monkeypatch, grid):
    # a twin casts the operator's arrays; it makes no second site-block or
    # hop-matrix build
    geom, gauge, clover, params, _ = problem
    op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None)
    for name in ("site_blocks", "hop_matrices"):
        monkeypatch.setattr(dirac, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
    twin = op.astype(np.complex64)
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=49, geom=geom)
    assert twin(psi.astype(np.complex64)).dtype == np.complex64


def test_hop_matrices_are_destination_ordered(problem):
    # slot 2mu holds W_mu at each destination site, slot 2mu + 1 the
    # transposed W_mu of its -mu neighbor on the global lattice: on the
    # full lattice, on both parity hops, and on every row of every rank,
    # its -mu face rows included
    geom, gauge, clover, params, _ = problem
    # W = the real form of U^T / 2, made without the build's embedding map
    w = dirac._real_form(0.5 * gauge.data.swapaxes(-1, -2))

    def check(hops, dst):
        # dst: the global site of each hop row
        assert hops.shape == (8, len(dst), 6, 6)
        for mu in range(NDIM):
            back = geom.neighbor_tables[2 * mu + 1, dst]
            assert np.array_equal(hops[2 * mu], w[dst, mu])
            assert np.array_equal(hops[2 * mu + 1], w[back, mu].swapaxes(1, 2))

    (rows,) = DiracOperator(params, gauge, clover)._rows
    check(rows.hops, np.arange(geom.n_sites))
    schur = SchurOperator(params, gauge, clover)
    check(schur._kept.hops, geom.even_sites)
    check(schur._elim.hops, geom.odd_sites)
    for grid in ((1, 1, 1, 2), (2, 2, 2, 2)):
        multi = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)))
        for rows in multi._rows:
            check(rows.hops, rows.sites)


def test_operators_keep_one_site_rows_record(problem, monkeypatch):
    # the single-rank operator, every rank and both Schur parities hold
    # their rows as one SiteRows record each, with the periodic, the
    # rank-local periodic and the cross-parity tables; a twin shares all
    # but its cast blocks and hops, and no apply looks a table up again
    geom, gauge, clover, params, _ = problem
    single = DiracOperator(params, gauge, clover)
    (rows,) = single._rows
    assert isinstance(rows, dirac.SiteRows) and rows.boundary is None
    assert np.array_equal(rows.sites, np.arange(geom.n_sites)) and rows.tables is geom.neighbor_tables
    operators = [single]
    for grid in ((1, 1, 1, 2), (2, 2, 2, 2)):
        executor = MultiRankExecutor(RankGrid(grid))
        multi = DiracOperator(params, gauge, clover, executor)
        domains = executor.domains(geom)
        assert len(multi._rows) == len(domains)
        for rows, dom in zip(multi._rows, domains):
            assert isinstance(rows, dirac.SiteRows)
            assert rows.sites is dom.global_sites and rows.boundary is dom.boundary
            assert np.array_equal(rows.tables, dom.local_geom.neighbor_tables)
        operators.append(multi)
    schur = SchurOperator(params, gauge, clover)
    parities = ((schur._kept, geom.even_sites, geom.odd_sites), (schur._elim, geom.odd_sites, geom.even_sites),
                (schur._full, schur._full.sites, schur._full.sites))
    for rows, dst, src in parities:
        assert isinstance(rows, dirac.SiteRows) and rows.sites is dst and rows.boundary is None
        # each table entry is the source-half row of the destination site's global neighbor
        for slot in range(2 * NDIM):
            assert np.array_equal(src[rows.tables[slot]], geom.neighbor_tables[slot, dst])
    twin_schur = schur.astype(np.complex64)
    pairs = [(t, r) for op in operators for t, r in zip(op.astype(np.complex64)._rows, op._rows)]
    pairs += [(twin_schur._kept, schur._kept), (twin_schur._elim, schur._elim)]
    for twin, ref in pairs:
        assert twin.sites is ref.sites and twin.tables is ref.tables and twin.boundary is ref.boundary
        for a, b in ((twin.blocks, ref.blocks), (twin.hops, ref.hops)):
            assert a.dtype == np.float32 and np.array_equal(a, b.astype(np.float32))

    def looked_up(self):
        raise AssertionError("LatticeGeometry.neighbor_tables read after the build")

    # a property outranks the cached value in the instance, so every read raises
    monkeypatch.setattr(LatticeGeometry, "neighbor_tables", property(looked_up))
    psi = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=52, geom=geom)
    v = gen_spinor(schur.n_sites, 2, Layout.COMPONENT_MAJOR, seed=53)
    for op in operators:
        op(psi)
        op.astype(np.complex64)(psi.astype(np.complex64))
    reduced, eta_elim = schur.reduce_rhs(psi)
    schur.reconstruct(schur(reduced), eta_elim)
    schur.apply_full(psi)
    twin_schur(v.astype(np.complex64))


def test_operator_array_of_another_precision_raises(problem):
    # a float64 array read against complex64 data once viewed the field's
    # bytes as float64 and returned NaN without an error; the self coupling
    # and the sweep now raise, naming both dtypes
    geom, gauge, clover, params, _ = problem
    op = DiracOperator(params, gauge, clover)
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=51, geom=geom).astype(np.complex64)
    message = "operator array of dtype float64 given a field of dtype complex64"
    for name in ("blocks", "hops"):
        twin = copy.copy(op.astype(np.complex64))
        twin._rows = [replace(twin._rows[0], **{name: getattr(op._rows[0], name)})]
        with pytest.raises(ValueError, match=message):
            twin(psi)
    # the Schur twin shares the float64 D_oo, read only by apply_full
    with pytest.raises(ValueError, match=message):
        SchurOperator(params, gauge, clover).astype(np.complex64).apply_full(psi)


def test_operator_rejects_a_field_of_the_other_precision(problem):
    geom, gauge, clover, params, _ = problem
    op = DiracOperator(params, gauge, clover)
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=50, geom=geom)
    with pytest.raises(ValueError, match="dtype complex64 given to an operator of dtype complex128"):
        op(psi.astype(np.complex64))
    with pytest.raises(ValueError, match="dtype complex128 given to an operator of dtype complex64"):
        op.astype(np.complex64)(psi)
    with pytest.raises(ValueError, match="complex128 or complex64"):
        op.astype(np.float32)
