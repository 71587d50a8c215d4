"""Tests of the benchmark itself: smoke runs, dense-oracle agreement, the gate.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lqcdlab import gmres
from lqcdlab.oddeven import SchurOperator
from lqcdlab.oracle import assemble_dirac_dense, assemble_schur_dense
from ttsbench import workloads
from ttsbench.layers import solve_breakdown
from ttsbench.spans import Tracer, layer_self_times, self_times
from ttsbench.workloads import WORKLOADS, Tally, failed_columns, run, set_up

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = (4, 4, 4, 4)
MIB = 1024 * 1024


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_4x4(name, trace, tmp_path):
    out = run(WORKLOADS[name], seed=5, seconds=0, trace=trace, root=ROOT, dims=SMALL, l3=MIB,
              trace_path=tmp_path / "t.jsonl" if trace else None)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= WORKLOADS[name].b
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        value = res["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and np.isfinite(value["value"])
    if trace:
        assert out["info"]["trace_reproduces"]
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert "summary" in json.loads(lines[-1])
        assert all("t0" in json.loads(line) for line in lines[:-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_applies_match_dense_oracles(name):
    p = set_up(WORKLOADS[name], seed=11, dims=SMALL)
    dense = assemble_dirac_dense(p.params, p.gauge, p.clover)
    applied = gmres.apply_dirac(p.params, p.gauge, p.clover, p.eta, comm=p.comm)
    assert _rel_gap(applied.columns(), dense @ p.eta.columns()) < 1e-12

    schur = SchurOperator(p.params, p.gauge, p.clover)
    reduced, _ = schur.reduce_rhs(p.eta)
    s_dense = assemble_schur_dense(p.params, p.gauge, p.clover)
    assert _rel_gap(schur.apply(reduced).columns(), s_dense @ reduced.columns()) < 1e-12


def test_gate_counts_corrupted_column():
    p = set_up(WORKLOADS["full-b4"], seed=2, dims=SMALL)
    tally = Tally()
    _, report = tally.solve(p)
    assert not failed_columns(p, report.psi).any()
    report.psi.ksi()[7, 3, 2] += 1e-3
    assert failed_columns(p, report.psi).tolist() == [False, False, True, False]
    tally.gate(p, report)
    assert (tally.attempted, tally.failed) == (4, 1)


def test_gate_fails_non_finite_column():
    p = set_up(WORKLOADS["full-b4"], seed=2, dims=SMALL)
    _, report = Tally().solve(p)
    report.psi.ksi()[0, 0, 1] = np.nan
    assert failed_columns(p, report.psi).tolist() == [False, True, False, False]


def test_raising_solve_fails_every_column(monkeypatch):
    p = set_up(WORKLOADS["tworank-b16"], seed=2, dims=SMALL)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(gmres, "solve_dirac", broken)
    tally = Tally()
    _, report = tally.solve(p)
    assert report is None
    tally.gate(p, report)
    assert (tally.attempted, tally.failed) == (16, 16)


def test_traced_mismatch_is_a_failure(monkeypatch):
    """A traced solve that does not reproduce the untraced one fails its run."""
    real = gmres.solve_dirac
    calls = []

    def drifting(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # the first traced solve
            report.psi.data[0] += 1e-15
        return report

    monkeypatch.setattr(gmres, "solve_dirac", drifting)
    out = run(WORKLOADS["full-b4"], seed=5, seconds=0, trace=True, root=ROOT, dims=SMALL, l3=MIB)
    assert not out["info"]["trace_reproduces"]
    assert not out["result"]["correct"] and out["result"]["failed"] == 4


def test_bitwise_multirank_check_detects_difference(monkeypatch):
    real = workloads.MultiRankExecutor.apply_dirac

    def skewed(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        out.data[0] *= 1 + 2**-50
        return out

    monkeypatch.setattr(workloads.MultiRankExecutor, "apply_dirac", skewed)
    assert not set_up(WORKLOADS["tworank-b16"], seed=1, dims=SMALL).bitwise_ok
    assert set_up(WORKLOADS["full-b4"], seed=1, dims=SMALL).bitwise_ok
    out = run(WORKLOADS["tworank-b16"], seed=1, seconds=0, trace=False, root=ROOT, dims=SMALL, l3=MIB)
    assert out["info"]["bitwise_multirank"] is False and not out["result"]["correct"]


def test_self_time_subtracts_same_thread_children_only():
    def span(i, parent, t0, t1, thread="main", layer="a"):
        return {"id": i, "parent": parent, "t0": t0, "t1": t1, "thread": thread, "layer": layer}

    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0, layer="b"),
        span(3, 1, 3.0, 5.0, layer="b"),
        span(4, 1, 2.0, 9.0, thread="rank-0", layer="c"),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 2.0, 4: 7.0}
    assert layer_self_times(spans) == {"a": 6.0, "b": 4.0}
    assert layer_self_times(spans, thread=None) == {"a": 6.0, "b": 4.0, "c": 7.0}


def _traced_solve(tracer, untraced_s):
    """One fake solve: ``untraced_s`` inside solve_dirac under no traced call, 40 ms in gmres_solve."""
    with tracer.in_phase("solve-0"):
        t0 = time.perf_counter()
        with tracer.span("solve_dirac", "gmres"):
            time.sleep(untraced_s)
            with tracer.span("gmres_solve", "gmres"):
                time.sleep(0.04)
        return {"solve-0": time.perf_counter() - t0}


def test_untraced_call_inside_solve_is_unaccounted():
    tracer = Tracer()
    walls = _traced_solve(tracer, 0.04)
    per_solve, unaccounted = solve_breakdown(tracer.spans, walls)
    assert 0.3 < unaccounted < 0.7
    assert per_solve["gmres"] == pytest.approx(0.04, abs=0.02)

    tracer = Tracer()
    _, covered = solve_breakdown(tracer.spans, _traced_solve(tracer, 0.0))
    assert 0.0 <= covered < 0.1


def test_tracer_restores_patched_entry_points():
    before = (gmres.solve_dirac, SchurOperator.apply)
    tracer = Tracer()
    with tracer.installed():
        assert gmres.solve_dirac is not before[0]
    assert (gmres.solve_dirac, SchurOperator.apply) == before


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-b4", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
