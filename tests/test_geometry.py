import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqcdlab.geometry import LatticeGeometry, RankGrid, decompose


@pytest.fixture(scope="module")
def geom44():
    return LatticeGeometry((4, 4, 4, 4))


def test_dims_validation():
    with pytest.raises(ValueError):
        LatticeGeometry((4, 4, 4))
    with pytest.raises(ValueError):
        LatticeGeometry((4, 3, 4, 4))
    with pytest.raises(ValueError):
        LatticeGeometry((4, 0, 4, 4))


def _sites(geom, *coords):
    return geom.site_indices(np.array(coords))


def test_site_index_frozen(geom44):
    # mixed radix with the last direction fastest
    got = _sites(geom44, (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (1, 2, 3, 0), (3, 3, 3, 3))
    assert got.tolist() == [0, 1, 4, 108, 255]


def test_site_coord_roundtrip(geom44):
    # row i of coords is the coordinate of site i, in any order of rows
    assert geom44.coords[108].tolist() == [1, 2, 3, 0]
    perm = np.random.default_rng(0).permutation(geom44.n_sites)
    assert np.array_equal(geom44.site_indices(geom44.coords[perm]), perm)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*(st.integers(1, 4) for _ in range(4))))
def test_site_index_roundtrip_any_lattice(halves):
    geom = LatticeGeometry(tuple(2 * h for h in halves))
    idx = np.arange(geom.n_sites)
    coords = geom.coords
    assert np.array_equal(geom.site_indices(coords), idx)


def test_parity(geom44):
    assert geom44.parities[_sites(geom44, (0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0))].tolist() == [0, 1, 0]
    assert len(geom44.even_sites) == len(geom44.odd_sites) == geom44.n_sites // 2


def test_neighbor_wraps(geom44):
    tables = geom44.neighbor_tables
    assert tables[0, _sites(geom44, (3, 0, 0, 0))] == _sites(geom44, (0, 0, 0, 0))
    assert tables[1, _sites(geom44, (0, 0, 0, 0))] == _sites(geom44, (3, 0, 0, 0))
    assert tables[4, _sites(geom44, (1, 2, 3, 0))] == _sites(geom44, (1, 2, 0, 0))


def test_neighbor_table_is_permutation(geom44):
    for table in geom44.neighbor_tables:
        assert sorted(table) == list(range(geom44.n_sites))
    # row 2mu + 1 (step -1) inverts row 2mu (step +1)
    fwd, back = geom44.neighbor_tables[2], geom44.neighbor_tables[3]
    assert np.array_equal(back[fwd], np.arange(geom44.n_sites))


def test_neighbor_table_cached_read_only(geom44):
    tables = geom44.neighbor_tables
    assert geom44.neighbor_tables is tables
    assert tables.shape == (8, 256) and not tables.flags.writeable
    with pytest.raises(ValueError):
        tables[5, 0] = 1


def test_neighbor_parity_flips(geom44):
    par = geom44.parities
    for table in geom44.neighbor_tables:
        assert np.array_equal(par[table], 1 - par)


def test_rank_grid_roundtrip():
    grid = RankGrid((2, 2, 1, 2))
    assert grid.n_ranks == 8
    for r in range(grid.n_ranks):
        assert grid.rank_index(grid.rank_coord(r)) == r
    assert grid.neighbor_rank(0, 0, -1) == grid.rank_index((1, 0, 0, 0))


def test_decompose_partitions_sites():
    geom = LatticeGeometry((8, 4, 4, 4))
    grid = RankGrid((2, 2, 1, 1))
    domains = decompose(geom, grid)
    assert len(domains) == 4
    seen = np.sort(np.concatenate([d.global_sites for d in domains]))
    assert np.array_equal(seen, np.arange(geom.n_sites))
    for d in domains:
        assert d.local_geom.dims == (4, 2, 4, 4)


def test_decompose_boundary_sets():
    geom = LatticeGeometry((8, 4, 4, 4))
    domains = decompose(geom, RankGrid((2, 1, 1, 1)))
    d = domains[0]
    # split direction has 4*4*4 boundary sites each way; undivided directions have none
    assert len(d.boundary[(0, 1)]) == 64
    assert len(d.boundary[(0, -1)]) == 64
    assert len(d.boundary[(1, 1)]) == 0


def test_decompose_rejects_bad_grid():
    geom = LatticeGeometry((4, 4, 4, 4))
    with pytest.raises(ValueError):
        decompose(geom, RankGrid((3, 1, 1, 1)))
    with pytest.raises(ValueError):
        decompose(geom, RankGrid((4, 1, 1, 1)))  # local extent would be 1
    with pytest.raises(ValueError, match="grid factor 2 leaves an odd local extent 3 in direction 0"):
        decompose(LatticeGeometry((6, 4, 4, 4)), RankGrid((2, 1, 1, 1)))
