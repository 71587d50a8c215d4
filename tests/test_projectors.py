import numpy as np
import pytest

from lqcdlab import dirac
from lqcdlab.projectors import A_BLOCKS, check_algebra, compression, projector


def test_algebra_identities():
    check_algebra()


def test_gamma_blocks_monomial():
    for a in A_BLOCKS:
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


def _random_spinors(n, n_spin, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n_spin, 3)) + 1j * rng.normal(size=(n, n_spin, 3))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("mu", range(4))
def test_compress_matches_dense_projection(mu, sign):
    # (h, -sign A_mu^H h) / 2 with h = K psi is (I - sign gamma_mu)/2 psi
    psi = _random_spinors(30, 4, seed=mu * 10 + sign + 1)
    k = compression(mu, sign)
    h = np.einsum("st,xtc->xsc", k, psi)
    rebuilt = np.concatenate([h, -sign * np.einsum("st,xtc->xsc", A_BLOCKS[mu].conj().T, h)], axis=1) / 2
    assert np.abs(rebuilt - np.einsum("st,xtc->xsc", projector(mu, sign), psi)).max() < 1e-14
    # the sweep's real matrix gives h bitwise on spin-major float64 rows
    # (the +mu side projects with sign -1, the -mu side with sign +1)
    side = (1 + sign) // 2
    rows = psi.reshape(30, 12).view(np.float64) @ dirac._PROJECT[mu, side]
    assert np.array_equal(rows.view(np.complex128).reshape(30, 2, 3), h)


@pytest.mark.parametrize("mu", range(4))
def test_block_adjoint(mu):
    # the sweep's A_mu^H matrix acts on half spinor rows bitwise as A_mu^H
    h = _random_spinors(20, 2, seed=mu)
    expect = np.einsum("st,xtc->xsc", A_BLOCKS[mu].conj().T, h)
    got = (h.reshape(20, 6).view(np.float64) @ dirac._ADJOINT[mu]).view(np.complex128)
    assert np.array_equal(got.reshape(20, 2, 3), expect)


def test_compress_idempotent_through_projector():
    # compressing an already-projected spinor loses nothing: K P = K
    for mu in range(4):
        for sign in (-1, 1):
            k = compression(mu, sign)
            assert np.abs(k @ projector(mu, sign) - k).max() < 1e-15


def test_sweep_spin_matrices_are_signed_selections():
    # every output of a projection or of A_mu^H is one input or the sum of
    # two, up to sign, so BLAS rounds it as the structured operation would
    for m in (dirac._PROJECT, dirac._ADJOINT):
        assert np.isin(m, (0.0, 1.0, -1.0)).all()
        assert (np.count_nonzero(m, axis=-2) <= 2).all()
    assert dirac._PROJECT.shape == (4, 2, 24, 12) and dirac._ADJOINT.shape == (4, 12, 12)
