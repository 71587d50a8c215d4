"""Spin algebra for the Wilson hopping term.

The four Euclidean gamma matrices are taken in a chiral basis where each is
block anti-diagonal,

    gamma_mu = [[0,      A_mu],
                [A_mu^H, 0   ]],

with unitary 2x2 blocks whose entries lie in {0, +-1, +-i}:

    A_0 = [[ 1, 0], [ 0,  1]]
    A_1 = [[ 0, i], [ i,  0]]
    A_2 = [[ 0, 1], [-1,  0]]
    A_3 = [[ i, 0], [ 0, -i]]

Every hop projector (I -+ gamma_mu)/2 then has rank 2, and its action on a
spinor is fixed by the two upper spin components alone: with psi = (u, l)
split into upper/lower spin doublets,

    (I - s*gamma_mu)/2 psi = (h, -s * A_mu^H h) / 2,   h = u - s * A_mu l

for sign s = +-1.  :func:`compression` is the (2, 4) spin matrix that maps
psi to the half spinor h; the hop kernel (dirac module) builds its fixed
projection and reconstruction matrices from it and from ``A_BLOCKS``.  The
dense oracle uses the full 4x4 :func:`projector` instead.
"""

from __future__ import annotations

import numpy as np

from .geometry import NDIM

N_SPIN = 4
N_COLOR = 3
SPINOR_LEN = N_SPIN * N_COLOR      # 12 complex numbers per site per rhs
HALF_SPINOR_LEN = SPINOR_LEN // 2  # 6 after projector compression

A_BLOCKS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1j], [1j, 0]],
        [[0, 1], [-1, 0]],
        [[1j, 0], [0, -1j]],
    ],
    dtype=np.complex128,
)


def _gamma_from_block(a: np.ndarray) -> np.ndarray:
    g = np.zeros((4, 4), dtype=np.complex128)
    g[:2, 2:] = a
    g[2:, :2] = a.conj().T
    return g


GAMMA = np.stack([_gamma_from_block(a) for a in A_BLOCKS])

_ALGEBRA_ATOL = 1e-15  # absolute tolerance of every identity check_algebra tests


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def projector(mu: int, sign: int) -> np.ndarray:
    """4x4 matrix (I - sign*gamma_mu)/2 for sign = +-1."""
    _check_sign(sign)
    return (np.eye(4, dtype=np.complex128) - sign * GAMMA[mu]) / 2


def compression(mu: int, sign: int) -> np.ndarray:
    """(2, 4) spin matrix [I, -sign*A_mu]: applied to psi = (u, l) it gives h = u - sign*A_mu l."""
    _check_sign(sign)
    return np.concatenate([np.eye(2, dtype=np.complex128), -sign * A_BLOCKS[mu]], axis=1)


def check_algebra() -> None:
    """Sanity checks of the basis: Clifford algebra, projector identities, compression."""
    eye = np.eye(4)
    for mu in range(NDIM):
        g = GAMMA[mu]
        if not np.allclose(g, g.conj().T, atol=_ALGEBRA_ATOL):
            raise AssertionError(f"gamma_{mu} not Hermitian")
        for nu in range(NDIM):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            if not np.allclose(anti, 2 * (mu == nu) * eye, atol=_ALGEBRA_ATOL):
                raise AssertionError(f"gamma_{mu}, gamma_{nu} anticommutator wrong")
        for sign in (1, -1):
            p, k = projector(mu, sign), compression(mu, sign)
            if not np.allclose(p @ p, p, atol=_ALGEBRA_ATOL):
                raise AssertionError(f"projector for direction {mu} not idempotent")
            rebuilt = np.concatenate([k, -sign * A_BLOCKS[mu].conj().T @ k]) / 2
            if not np.allclose(rebuilt, p, atol=_ALGEBRA_ATOL):
                raise AssertionError(f"compression for direction {mu}, sign {sign} loses the projection")
        if not np.allclose(projector(mu, 1) + projector(mu, -1), eye, atol=_ALGEBRA_ATOL):
            raise AssertionError(f"projectors for direction {mu} do not sum to identity")
