"""Periodic 4-d lattice geometry.

Sites are numbered by a mixed-radix rule that matches the storage order of
every field in this package: coordinate ``(x0, x1, x2, x3)`` on a lattice of
extents ``(N0, N1, N2, N3)`` maps to

    ((x0 * N1 + x1) * N2 + x2) * N3 + x3

so ``x3`` is the fastest-running direction.  The same rule, applied to the
local extents, numbers the sites owned by one rank of a decomposed lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NDIM = 4

Coord = tuple[int, int, int, int]


@dataclass(frozen=True)
class LatticeGeometry:
    """A periodic 4-d lattice with even extents.

    Parameters
    ----------
    dims : tuple of int
        Extents ``(N0, N1, N2, N3)``.  Each must be even and at least 2 so
        that the even/odd site split is exact and a site never neighbors
        itself.
    """

    dims: Coord

    def __post_init__(self) -> None:
        if len(self.dims) != NDIM:
            raise ValueError(f"expected {NDIM} extents, got {len(self.dims)}")
        for d, n in enumerate(self.dims):
            if n < 2 or n % 2 != 0:
                raise ValueError(f"extent {n} in direction {d} is not an even number >= 2")

    @property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def coords(self) -> np.ndarray:
        """(n_sites, 4) int array; row i is the coordinate of site i."""
        grids = np.meshgrid(*[np.arange(n) for n in self.dims], indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    @cached_property
    def parities(self) -> np.ndarray:
        """(n_sites,) int array of site parities in site order."""
        return self.coords.sum(axis=1) % 2

    def site_indices(self, coords: np.ndarray) -> np.ndarray:
        """Mixed-radix site numbers of an (n, 4) coordinate array, x3 fastest."""
        idx = np.zeros(len(coords), dtype=np.int64)
        for d in range(NDIM):
            idx = idx * self.dims[d] + coords[:, d]
        return idx

    @cached_property
    def neighbor_tables(self) -> np.ndarray:
        """(8, n_sites) read-only periodic neighbor tables in the hop sweep's slot order.

        Row 2mu maps each site to its +mu neighbor, row 2mu + 1 to its -mu
        neighbor.  Built on first use and shared afterwards.
        """
        tables = np.empty((2 * NDIM, self.n_sites), dtype=np.int64)
        for mu in range(NDIM):
            for side, step in enumerate((1, -1)):
                c = self.coords.copy()
                c[:, mu] = (c[:, mu] + step) % self.dims[mu]
                tables[2 * mu + side] = self.site_indices(c)
        tables.flags.writeable = False
        return tables

    @cached_property
    def even_sites(self) -> np.ndarray:
        return np.nonzero(self.parities == 0)[0]

    @cached_property
    def odd_sites(self) -> np.ndarray:
        return np.nonzero(self.parities == 1)[0]


@dataclass(frozen=True)
class RankGrid:
    """Process-grid shape for domain decomposition, one factor per direction."""

    grid: Coord

    def __post_init__(self) -> None:
        if len(self.grid) != NDIM:
            raise ValueError(f"expected {NDIM} grid factors, got {len(self.grid)}")
        for d, r in enumerate(self.grid):
            if r < 1:
                raise ValueError(f"grid factor {r} in direction {d} must be >= 1")

    @property
    def n_ranks(self) -> int:
        return math.prod(self.grid)

    def rank_index(self, rank_coord: Coord) -> int:
        idx = 0
        for d in range(NDIM):
            idx = idx * self.grid[d] + rank_coord[d]
        return idx

    def rank_coord(self, rank: int) -> Coord:
        out = [0] * NDIM
        for d in reversed(range(NDIM)):
            rank, out[d] = divmod(rank, self.grid[d])
        return tuple(out)

    def neighbor_rank(self, rank: int, mu: int, step: int) -> int:
        """Rank one step away in the process grid; wraps periodically."""
        rc = list(self.rank_coord(rank))
        rc[mu] = (rc[mu] + step) % self.grid[mu]
        return self.rank_index(tuple(rc))


@dataclass(frozen=True)
class RankDomain:
    """One rank's share of a decomposed lattice.

    Attributes
    ----------
    rank : int
        Linear rank number in the process grid.
    local_geom : LatticeGeometry
        Geometry of the locally owned block (local extents).
    global_sites : np.ndarray
        (n_local,) global site numbers owned by this rank, in local site
        order.  Concatenating these arrays over ranks partitions the lattice.
    boundary : dict
        Maps ``(mu, step)`` to the sorted local site numbers whose
        ``step``-direction ``mu`` neighbor lives on another rank.  Empty when
        the grid has a single rank in that direction.
    """

    rank: int
    local_geom: LatticeGeometry
    global_sites: np.ndarray
    boundary: dict[tuple[int, int], np.ndarray]


def decompose(geom: LatticeGeometry, grid: RankGrid) -> list[RankDomain]:
    """Split a lattice into per-rank blocks of equal shape.

    Each grid factor must divide the matching extent and leave an even local
    extent, so local and global site parity agree and halo traffic in a
    direction never carries two messages for the same site.
    """
    local_dims = []
    for d in range(NDIM):
        n, r = geom.dims[d], grid.grid[d]
        if n % r != 0:
            raise ValueError(f"grid factor {r} does not divide extent {n} in direction {d}")
        if (n // r) % 2:
            raise ValueError(f"grid factor {r} leaves an odd local extent {n // r} in direction {d}")
        local_dims.append(n // r)

    local_geom = LatticeGeometry(tuple(local_dims))
    domains = []
    for rank in range(grid.n_ranks):
        rc = grid.rank_coord(rank)
        origin = np.array([rc[d] * local_dims[d] for d in range(NDIM)], dtype=np.int64)
        global_sites = geom.site_indices(local_geom.coords + origin)
        boundary: dict[tuple[int, int], np.ndarray] = {}
        for mu in range(NDIM):
            for step in (1, -1):
                if grid.grid[mu] == 1:
                    edge = np.empty(0, dtype=np.int64)
                else:
                    face = local_dims[mu] - 1 if step == 1 else 0
                    edge = np.nonzero(local_geom.coords[:, mu] == face)[0]
                boundary[(mu, step)] = edge
        domains.append(RankDomain(rank, local_geom, global_sites, boundary))
    return domains
