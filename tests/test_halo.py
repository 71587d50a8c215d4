import time

import numpy as np
import pytest

from lqcdlab import dirac
from lqcdlab.dirac import DiracParams, apply_dirac
from lqcdlab.fields import Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry, RankGrid
from lqcdlab.halo import (
    DEFAULT_TIMEOUT,
    CommunicatorSet,
    HaloTimeoutError,
    MultiRankExecutor,
    RankFaultError,
    apply_dirac_multirank,
)

GRIDS = [(2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1), (2, 2, 2, 2)]


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((8, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=51)
    clover = gen_clover(geom, "random", scale=0.1, seed=52)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=53, geom=geom)
    eta_single = apply_dirac(params, gauge, clover, psi)
    return geom, gauge, clover, params, psi, eta_single


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("mode", ["sequential", "threads"])
def test_multirank_matches_single_rank_bitwise(problem, grid, mode):
    _, gauge, clover, params, psi, eta_single = problem
    eta, _ = apply_dirac_multirank(params, gauge, clover, psi, RankGrid(grid), mode=mode)
    assert np.array_equal(eta.data, eta_single.data)


@pytest.mark.parametrize("mode", ["sequential", "threads"])
def test_executor_sees_in_place_field_refresh(mode):
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=54)
    clover = gen_clover(geom, "random", scale=0.1, seed=55)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=56, geom=geom)
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)), mode=mode)
    ex.apply_dirac(params, gauge, clover, psi)
    gauge.data[...] = gen_gauge(geom, "random", seed=57).data
    clover.data[...] = gen_clover(geom, "random", scale=0.1, seed=58).data
    eta = ex.apply_dirac(params, gauge, clover, psi)
    assert np.array_equal(eta.data, apply_dirac(params, gauge, clover, psi).data)


def test_executor_reusable_and_stats(problem):
    _, gauge, clover, params, psi, eta_single = problem
    ex = MultiRankExecutor(RankGrid((2, 2, 1, 1)))
    for _ in range(2):
        eta = ex.apply_dirac(params, gauge, clover, psi)
        assert np.array_equal(eta.data, eta_single.data)
    assert len(ex.last_stats) == 4
    epochs = {s.epoch for s in ex.last_stats}
    assert len(epochs) == 1
    for s in ex.last_stats:
        assert s.wait_seconds >= 0 and s.compute_seconds >= 0
        d = s.as_dict()
        assert set(d) == {"epoch", "rank", "wait_seconds", "compute_seconds"}


def test_channel_audit_balances(problem):
    _, gauge, clover, params, psi, _ = problem
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)))
    ex.apply_dirac(params, gauge, clover, psi)
    for (rank, mu, step), (posted, consumed) in ex.commset.audit().items():
        assert posted == consumed == 1, (rank, mu, step)


def test_epoch_stats_exchange():
    grid = RankGrid((2, 1, 1, 1))
    cs = CommunicatorSet(grid)
    comm = cs.rank_comm(0)
    assert comm.exchange_epoch_stats() is None
    cs.begin_epoch()
    cs.rank_comm(1).post_send(0, 1, np.zeros((1, 2, 3, 1), dtype=np.complex128))
    comm.complete_recv(0, 1)
    stats = comm.end_epoch()
    assert comm.exchange_epoch_stats() == stats
    assert stats.rank == 0 and stats.epoch == 1


def test_recv_timeout_names_channel():
    cs = CommunicatorSet(RankGrid((2, 1, 1, 1)), timeout=0.05)
    cs.begin_epoch()
    with pytest.raises(HaloTimeoutError) as err:
        cs.rank_comm(1).complete_recv(2, -1)
    msg = str(err.value)
    assert "rank 1" in msg and "mu=2" in msg


def test_duplicate_post_rejected():
    cs = CommunicatorSet(RankGrid((2, 1, 1, 1)))
    cs.begin_epoch()
    payload = np.zeros((1, 2, 3, 1), dtype=np.complex128)
    cs.rank_comm(0).post_send(1, 1, payload)
    with pytest.raises(RuntimeError, match="duplicate post"):
        cs.rank_comm(0).post_send(1, 1, payload)


def test_payload_shape(problem):
    # boundary messages carry (n_boundary, 2, 3, b) half-spinor values;
    # undivided directions still post, with empty payloads
    _, gauge, clover, params, psi, _ = problem
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)))
    seen = []
    orig_post = ex.commset.rank_comm(0).post_send

    def spy(mu, step, payload):
        seen.append((mu, step, payload.shape))
        return orig_post(mu, step, payload)

    ex.commset.rank_comm(0).post_send = spy
    ex.apply_dirac(params, gauge, clover, psi)
    assert len(seen) == 8
    for mu, step, shape in seen:
        expected_rows = 64 if mu == 0 else 0
        assert shape == (expected_rows, 2, 3, 3), (mu, step, shape)


def test_executor_rejects_mode():
    with pytest.raises(ValueError):
        MultiRankExecutor(RankGrid((2, 1, 1, 1)), mode="mpi")


def test_small_grid_layout1(problem):
    _, gauge, clover, params, _, _ = problem
    geom = gauge.geom
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=60, geom=geom)
    eta_single = apply_dirac(params, gauge, clover, psi)
    eta, _ = apply_dirac_multirank(params, gauge, clover, psi, RankGrid((2, 2, 2, 2)), mode="threads")
    assert np.array_equal(eta.data, eta_single.data)


@pytest.mark.parametrize("mode", ["sequential", "threads"])
def test_rank_fault_is_attributed_at_once(problem, monkeypatch, mode):
    # rank 1 raises before posting anything; rank 0 would otherwise wait out
    # the halo timeout and report a starving channel instead of the cause
    _, gauge, clover, params, psi, eta_single = problem
    real = dirac.hop_stages

    def faulty(gauge, psi, eta, fwd, back, comm=None, *args, **kwargs):
        if comm is not None and comm.rank == 1:
            raise ValueError("injected fault")
        return (yield from real(gauge, psi, eta, fwd, back, comm, *args, **kwargs))

    monkeypatch.setattr(dirac, "hop_stages", faulty)
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)), mode=mode)
    t0 = time.perf_counter()
    with pytest.raises(RankFaultError, match="rank 1 failed: ValueError: injected fault") as err:
        ex.apply_dirac(params, gauge, clover, psi)
    assert time.perf_counter() - t0 < DEFAULT_TIMEOUT / 10
    assert err.value.rank == 1
    assert isinstance(err.value.__cause__, ValueError)
    # the poison lasts one epoch: the next apply runs clean
    monkeypatch.setattr(dirac, "hop_stages", real)
    assert np.array_equal(ex.apply_dirac(params, gauge, clover, psi).data, eta_single.data)
