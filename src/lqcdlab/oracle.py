"""Dense ground truth for the lattice operator.

Assembles the clover Wilson-Dirac operator as an explicit matrix on tiny
lattices by walking the stencil definition directly:

    D[x, x]         = (4 + m0) I12 - C(x)
    D[x, x + mu^]  -= P-_mu (x) U_mu(x)        (spin (x) color Kronecker product)
    D[x, x - mu^]  -= P+_mu (x) U_mu(x-mu^)^H

with P-+_mu = (I -+ gamma_mu)/2 as full 4x4 matrices (``projector``).  This
path never uses the half-spinor compression or the real-form matrices of
the production kernel, so the two implementations only share the A blocks
the gamma matrices are built from; everything else is independent, which
is what makes the dense comparison a real check.

Intended for lattices up to 6^4; the guard keeps dense storage within a few
gigabytes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .fields import CloverField, GaugeField
from .geometry import NDIM, LatticeGeometry
from .projectors import SPINOR_LEN, projector

MAX_DENSE_DIM = 20736  # 12 * 6^4


def _check_dense_dim(n: int) -> None:
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dense operator dimension {n} exceeds the guard {MAX_DENSE_DIM} (6^4 lattice)")


def assemble_dirac_dense(params, gauge: GaugeField, clover: CloverField) -> np.ndarray:
    """Explicit (12 N_L, 12 N_L) matrix of the operator, row-major site blocks."""
    geom = gauge.geom
    n = SPINOR_LEN * geom.n_sites
    _check_dense_dim(n)
    blocks = clover.blocks()

    a = np.zeros((n, n), dtype=np.complex128)
    eye = np.eye(SPINOR_LEN, dtype=np.complex128)
    for x in range(geom.n_sites):
        r = x * SPINOR_LEN
        a[r : r + 12, r : r + 12] = (4.0 + params.m0) * eye
        a[r : r + 6, r : r + 6] -= blocks[x, 0]
        a[r + 6 : r + 12, r + 6 : r + 12] -= blocks[x, 1]

    for mu in range(NDIM):
        fwd = geom.neighbor_tables[2 * mu]
        back = geom.neighbor_tables[2 * mu + 1]
        links = gauge.data[:, mu]
        p_minus, p_plus = projector(mu, -1), projector(mu, 1)
        for x in range(geom.n_sites):
            r = x * SPINOR_LEN
            cf = fwd[x] * SPINOR_LEN
            cb = back[x] * SPINOR_LEN
            a[r : r + 12, cf : cf + 12] -= np.kron(p_minus, links[x])
            a[r : r + 12, cb : cb + 12] -= np.kron(p_plus, links[back[x]].conj().T)
    return a


def parity_component_indices(geom: LatticeGeometry, parity: int) -> np.ndarray:
    """Flat component indices (site*12 + k) of all sites with the given parity."""
    sites = geom.even_sites if parity == 0 else geom.odd_sites
    return (sites[:, None] * SPINOR_LEN + np.arange(SPINOR_LEN)).ravel()


def assemble_schur_dense(params, gauge: GaugeField, clover: CloverField) -> np.ndarray:
    """Dense Schur complement S = D_ee - D_eo D_oo^-1 D_oe over the even sites."""
    geom = gauge.geom
    full = assemble_dirac_dense(params, gauge, clover)
    ev = parity_component_indices(geom, 0)
    od = parity_component_indices(geom, 1)
    d_ee = full[np.ix_(ev, ev)]
    d_eo = full[np.ix_(ev, od)]
    d_oe = full[np.ix_(od, ev)]
    d_oo = full[np.ix_(od, od)]
    return d_ee - d_eo @ np.linalg.solve(d_oo, d_oe)


def _rcond_estimate(lu: np.ndarray, a_norm: float) -> float:
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, a_norm, norm="1")
    if info != 0:
        raise RuntimeError(f"condition estimate failed with LAPACK info={info}")
    return float(rcond)


def dense_solve(a: np.ndarray, rhs: np.ndarray, rcond_floor: float = 1e-12) -> np.ndarray:
    """Direct solve via LU with partial pivoting; rejects near-singular systems."""
    a = np.asarray(a, dtype=np.complex128)
    lu, piv = scipy.linalg.lu_factor(a)
    rcond = _rcond_estimate(lu, np.linalg.norm(a, 1))
    if rcond < rcond_floor:
        raise np.linalg.LinAlgError(
            f"matrix is numerically singular: condition estimate {1.0 / max(rcond, 1e-300):.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs)


def dense_lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares minimizer of ||a y - rhs||; thin wrapper for small systems."""
    y, *_ = np.linalg.lstsq(np.asarray(a, dtype=np.complex128), rhs, rcond=None)
    return y
