import numpy as np
import pytest

from lqcdlab.projectors import (
    apply_block_adjoint,
    check_algebra,
    compress,
    projector,
    reconstruct,
    table,
)


def test_algebra_identities():
    check_algebra()


def test_gamma_blocks_monomial():
    t = table()
    for mu in range(4):
        a = t.blocks[mu]
        assert np.allclose(np.abs(a) @ np.abs(a).T, np.eye(2))
        for row in a:
            assert np.count_nonzero(row) == 1
            assert abs(abs(row[np.nonzero(row)][0]) - 1.0) < 1e-15


def test_projectors_rank_two():
    for mu in range(4):
        for sign in (-1, 1):
            p = projector(mu, sign)
            assert np.linalg.matrix_rank(p) == 2
            assert np.allclose(p @ p, p)


def test_projector_pair_sums_to_identity():
    for mu in range(4):
        assert np.allclose(projector(mu, -1) + projector(mu, 1), np.eye(4))


def _random_field(n, b, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, 3, b)) + 1j * rng.normal(size=(n, 4, 3, b))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("mu", range(4))
def test_compress_matches_dense_projection(mu, sign):
    psi = _random_field(10, 3, seed=mu * 10 + sign + 1)
    half = compress(psi, mu, sign)
    full = reconstruct(half, mu, sign)
    p = projector(mu, sign)
    expect = np.einsum("st,xtcb->xscb", p, psi)
    assert np.abs(full - expect).max() < 1e-14
    # color-outer input (spin on axis -2, a strided view): same values, C-contiguous result
    outer = compress(psi.swapaxes(-3, -2), mu, sign, spin_axis=-2)
    assert outer.flags.c_contiguous
    assert np.array_equal(outer, half.swapaxes(-3, -2))


@pytest.mark.parametrize("mu", range(4))
def test_block_adjoint(mu):
    h = _random_field(6, 2, seed=mu)[:, :2]
    t = table()
    expect = np.einsum("st,xtcb->xscb", t.blocks[mu].conj().T, h)
    assert np.abs(apply_block_adjoint(h, mu) - expect).max() < 1e-15
    outer = apply_block_adjoint(h.swapaxes(-3, -2), mu, spin_axis=-2)
    assert np.array_equal(outer, apply_block_adjoint(h, mu).swapaxes(-3, -2))


def test_compress_idempotent_through_projector():
    # compressing an already-projected spinor loses nothing
    psi = _random_field(5, 2, seed=42)
    for mu in range(4):
        for sign in (-1, 1):
            proj = np.einsum("st,xtcb->xscb", projector(mu, sign), psi)
            again = reconstruct(compress(proj, mu, sign), mu, sign)
            assert np.abs(again - proj).max() < 1e-14
