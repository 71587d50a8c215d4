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

    (I - s*gamma_mu)/2 psi = (h, -s * A_mu^H h),   h = (u - s * A_mu l) / 2

for sign s = +-1.  ``compress`` returns h (a half spinor, 6 complex numbers
per color triplet pair), ``reconstruct`` rebuilds the full projected spinor.
Color indices are untouched by all of this and broadcast through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NDIM

N_SPIN = 4
N_COLOR = 3
SPINOR_LEN = N_SPIN * N_COLOR      # 12 complex numbers per site per rhs
HALF_SPINOR_LEN = SPINOR_LEN // 2  # 6 after projector compression

_A_BLOCKS = np.array(
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


@dataclass(frozen=True)
class ProjectorTable:
    """Gamma matrices and hop projectors for all four directions.

    ``plus[mu]`` is (I - gamma_mu)/2 and acts on the hop that applies the
    adjoint link; ``minus[mu]`` is (I + gamma_mu)/2 and acts on the hop that
    applies the link itself.  ``blocks[mu]`` holds the 2x2 A blocks used by
    the compressed code path.

    Each A block is monomial (one nonzero entry per row and column), so its
    action is a permutation plus a unit-modulus coefficient; ``perm``/``coef``
    tabulate that for A, ``adj_perm``/``adj_coef`` for A^H.  The compressed
    kernel works entirely off these tables.
    """

    gamma: np.ndarray   # (4, 4, 4)
    plus: np.ndarray    # (4, 4, 4)
    minus: np.ndarray   # (4, 4, 4)
    blocks: np.ndarray  # (4, 2, 2)
    perm: np.ndarray      # (4, 2) int: column of the nonzero in each A row
    coef: np.ndarray      # (4, 2) complex: that entry
    adj_perm: np.ndarray  # (4, 2) int, same for A^H
    adj_coef: np.ndarray  # (4, 2) complex

    @classmethod
    def make(cls) -> "ProjectorTable":
        gamma = np.stack([_gamma_from_block(a) for a in _A_BLOCKS])
        eye = np.eye(4, dtype=np.complex128)
        plus = np.stack([(eye - g) / 2 for g in gamma])
        minus = np.stack([(eye + g) / 2 for g in gamma])
        perm = np.argmax(np.abs(_A_BLOCKS), axis=2)
        coef = np.take_along_axis(_A_BLOCKS, perm[:, :, None], axis=2)[:, :, 0]
        adj = _A_BLOCKS.conj().transpose(0, 2, 1)
        adj_perm = np.argmax(np.abs(adj), axis=2)
        adj_coef = np.take_along_axis(adj, adj_perm[:, :, None], axis=2)[:, :, 0]
        return cls(
            gamma=gamma,
            plus=plus,
            minus=minus,
            blocks=_A_BLOCKS.copy(),
            perm=perm,
            coef=coef,
            adj_perm=adj_perm,
            adj_coef=adj_coef,
        )

    def projector(self, mu: int, sign: int) -> np.ndarray:
        """4x4 matrix (I - sign*gamma_mu)/2 for sign = +-1."""
        if sign == 1:
            return self.plus[mu]
        if sign == -1:
            return self.minus[mu]
        raise ValueError(f"sign must be +1 or -1, got {sign}")


_TABLE = ProjectorTable.make()


def table() -> ProjectorTable:
    """The shared projector table; immutable, safe to reuse everywhere."""
    return _TABLE


def projector(mu: int, sign: int) -> np.ndarray:
    """4x4 matrix (I - sign*gamma_mu)/2 from the shared table."""
    return _TABLE.projector(mu, sign)


def _spin_index(index, spin_axis: int) -> tuple:
    """Index tuple selecting ``index`` on the (negative) ``spin_axis``."""
    return (Ellipsis, index) + (slice(None),) * (-spin_axis - 1)


def _spin_coef(coef: np.ndarray, spin_axis: int) -> np.ndarray:
    """Per-spin coefficients shaped to broadcast along the (negative) ``spin_axis``."""
    return coef.reshape((2,) + (1,) * (-spin_axis - 1))


def compress(psi: np.ndarray, mu: int, sign: int, spin_axis: int = -3) -> np.ndarray:
    """Half-spinor h with (I - sign*gamma_mu)/2 psi = (h, -sign*A_mu^H h).

    ``psi`` has its 4 spin components on ``spin_axis`` (a negative axis,
    default -3 for (..., 4, 3, b) spinors; the hop kernel passes -2 for its
    color-outer (..., 3, 4, b) gathers); every other axis passes through.
    Uses the monomial form of A_mu: a spin swap and one unit-modulus
    coefficient per row.  The result is a new C-contiguous array, whatever
    the strides of ``psi``.
    """
    upper = psi[_spin_index(slice(0, 2), spin_axis)]
    swapped = psi[_spin_index(2 + _TABLE.perm[mu], spin_axis)]
    swapped *= _spin_coef(_TABLE.coef[mu], spin_axis)
    half = (np.subtract if sign == 1 else np.add)(upper, swapped, order="C")
    half *= 0.5
    return half


def apply_block_adjoint(half: np.ndarray, mu: int, spin_axis: int = -3) -> np.ndarray:
    """A_mu^H applied to the 2 spin components on ``spin_axis`` of a half spinor."""
    return half[_spin_index(_TABLE.adj_perm[mu], spin_axis)] * _spin_coef(_TABLE.adj_coef[mu], spin_axis)


def reconstruct(half: np.ndarray, mu: int, sign: int) -> np.ndarray:
    """Full 4-spin projected spinor from its upper half ``half``."""
    lower = -sign * apply_block_adjoint(half, mu)
    return np.concatenate([half, lower], axis=-3)


def check_algebra(atol: float = 1e-15) -> None:
    """Sanity checks of the basis: Clifford algebra and projector identities."""
    t = _TABLE
    eye = np.eye(4)
    for mu in range(NDIM):
        g = t.gamma[mu]
        if not np.allclose(g, g.conj().T, atol=atol):
            raise AssertionError(f"gamma_{mu} not Hermitian")
        for nu in range(NDIM):
            anti = t.gamma[mu] @ t.gamma[nu] + t.gamma[nu] @ t.gamma[mu]
            if not np.allclose(anti, 2 * (mu == nu) * eye, atol=atol):
                raise AssertionError(f"gamma_{mu}, gamma_{nu} anticommutator wrong")
        for p in (t.plus[mu], t.minus[mu]):
            if not np.allclose(p @ p, p, atol=atol):
                raise AssertionError(f"projector for direction {mu} not idempotent")
        if not np.allclose(t.plus[mu] + t.minus[mu], eye, atol=atol):
            raise AssertionError(f"projectors for direction {mu} do not sum to identity")
