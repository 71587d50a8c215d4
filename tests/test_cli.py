import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from lqcdlab.cli import main
from lqcdlab.config import RunConfig, config_hash, set_key
from lqcdlab.fields import Layout, gen_spinor, read_spinor
from lqcdlab.geometry import LatticeGeometry


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_header(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[0])


def test_header_fields(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 2")
    assert code == 0
    header = parse_header(out)
    assert set(header) == {"version", "config_hash", "seed", "rng"}
    assert header["rng"] == "pcg64"
    cfg = RunConfig()
    set_key(cfg, "lattice.dims", "2 2 2 2")
    assert header["config_hash"] == config_hash(cfg)


def test_oracle_check_passes_and_names_suites(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "seed=5")
    assert code == 0
    for suite in ("gauge-unitarity", "dense-vs-kernel-b1", "dense-vs-kernel-b8",
                  "free-field-identity", "schur-dense-equivalence"):
        assert f"{suite}: PASS" in out


def test_oracle_check_single_precision_suite(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4", "--set", "block.layout=2")
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("single-precision-dense:"))
    assert line.startswith("single-precision-dense: PASS (D and S twins, rel err ")
    assert float(line.rstrip(")").split()[-1]) <= 1e-6
    # a twin that is not complex64 is reported as a failing suite
    from lqcdlab import dirac

    monkeypatch.setattr(dirac.DiracOperator, "astype", lambda self, dtype: self)
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4")
    assert code == 2
    assert "single-precision-dense: FAIL" in out and "schur-dense-equivalence: PASS" in out


def test_oracle_check_single_precision_suite_checks_the_schur_twin(capsys, monkeypatch):
    # the complex64 S twin's reduce_rhs and reconstruct are held to 1e-6 of the
    # complex128 operator's, and its apply_full must raise for the float64 D_oo
    from lqcdlab.oddeven import SchurOperator

    real_reconstruct, real_astype = SchurOperator.reconstruct, SchurOperator.astype

    def off(self, x_kept, eta_elim):  # the twin's reconstruction off by 1e-4
        x = real_reconstruct(self, x_kept, eta_elim)
        return x if self.dtype == np.complex128 else replace(x, data=x.data * np.complex64(1 + 1e-4))

    monkeypatch.setattr(SchurOperator, "reconstruct", off)
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4")
    assert code == 2
    assert "single-precision-dense: FAIL (rel err " in out and "> 1e-6" in out
    monkeypatch.setattr(SchurOperator, "reconstruct", real_reconstruct)

    def casting_full(self, dtype):  # a twin whose D_oo is cast: apply_full no longer raises
        twin = real_astype(self, dtype)
        twin._full = self._full.astype(dtype)
        return twin

    monkeypatch.setattr(SchurOperator, "astype", casting_full)
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4")
    assert code == 2
    assert "single-precision-dense: FAIL (the complex64 S twin's apply_full did not raise" in out


def test_oracle_check_schur_suite_checks_apply_full(capsys, monkeypatch):
    # the whole-lattice D that gives an even/odd solve's full residual is
    # checked against the dense oracle beside S, and the line reports both
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4")
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("schur-dense-equivalence:"))
    assert line.startswith("schur-dense-equivalence: PASS (S rel err ")
    s_err, full_err = (float(part.split()[-1]) for part in line[line.index("(") + 1:-1].split(", "))
    assert ", apply_full rel err " in line and s_err <= 1e-12 and full_err <= 1e-12
    from lqcdlab.oddeven import SchurOperator

    real = SchurOperator.apply_full

    def rounded(self, psi):  # D applied to psi rounded to single precision: off by ~1e-8
        return real(self, psi.astype(np.complex64).astype(np.complex128))

    monkeypatch.setattr(SchurOperator, "apply_full", rounded)
    code, out, _ = run_cli(capsys, "oracle-check", "--set", "lattice.dims=2 2 2 4")
    assert code == 2
    assert "schur-dense-equivalence: FAIL (S rel err " in out and "above 1e-12" in out


def test_oracle_check_applies_through_the_rank_grid(capsys, monkeypatch):
    # with ranks.grid set, the dense suites also apply D through the ranks,
    # so a corrupted halo payload fails them
    args = ("oracle-check", "--set", "lattice.dims=2 2 2 4", "--set", "ranks.grid=1 1 1 2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "dense-vs-kernel-b1: PASS (1 and 2 ranks, rel err " in out
    from lqcdlab.halo import Communicator

    real = Communicator.post_send

    def corrupted(self, mu, step, payload):  # the upward stream off by 1e-3
        real(self, mu, step, payload * (1 + 1e-3) if step == 1 else payload)

    monkeypatch.setattr(Communicator, "post_send", corrupted)
    code, out, _ = run_cli(capsys, *args)
    assert code == 2
    for suite in ("dense-vs-kernel-b1", "dense-vs-kernel-b8", "single-precision-dense"):
        assert f"{suite}: FAIL" in out
    assert "schur-dense-equivalence: PASS" in out and "free-field-identity: PASS" in out


def test_oracle_check_corrupted_gauge_fails(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--corrupt-gauge")
    assert code == 2
    assert "gauge-unitarity: FAIL" in out
    assert "unitar" in out


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--set", "block.layout=5")
    assert code == 1 and "layout" in err
    code, _, err = run_cli(capsys, "solve", "--set", "lattice.antiperiodic_time=yes")
    assert code == 1 and "unknown key" in err
    code, _, err = run_cli(capsys, "bogus-command")
    assert code == 1
    # a negative seed is a validation error before the header, not numpy's after it
    code, out, err = run_cli(capsys, "solve", "--set", "seed=-3")
    assert code == 1 and "seed must be >= 0, got -3" in err
    assert out == ""


@pytest.mark.parametrize("setting", ["solver.tol=inf", "solver.tol=nan", "dirac.m0=nan", "clover.scale=inf"])
def test_non_finite_setting_is_a_validation_error(capsys, setting):
    # rejected before the header, not a solve that "converges" at tol=inf
    # after 0 iterations or runs a non-finite operator until it fails
    code, out, err = run_cli(capsys, "solve", "--set", setting)
    assert code == 1 and f"{setting.split('=')[0]} must be finite" in err
    assert out == ""


def test_solve_writes_outputs(capsys, tmp_path):
    prefix = str(tmp_path) + os.sep
    code, out, _ = run_cli(
        capsys, "solve",
        "--set", "dirac.m0=1.0", "--set", "block.b=2", "--set", "seed=2",
        "--set", "solver.restarts=40", "--set", f"output.path={prefix}",
    )
    assert code == 0
    assert "final explicit relnorm" in out
    psi = read_spinor(tmp_path / "psi.snap")
    assert psi.b == 2
    lines = (tmp_path / "history.csv").read_text().splitlines()
    assert lines[0] == "iter,rhs,relnorm"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    rel = [float(l.split(",")[2]) for l in lines[1:] if l.split(",")[1] == "0"]
    assert rel[-1] < 1e-7


def test_solve_odd_even_converges_faster(capsys, tmp_path):
    base = ["solve", "--set", "dirac.m0=1.0", "--set", "seed=2",
            "--set", "solver.restarts=40", "--set", f"output.path={tmp_path}{os.sep}"]
    code, out_d, _ = run_cli(capsys, *base)
    assert code == 0
    code, out_s, _ = run_cli(capsys, *base, "--set", "solver.odd_even=true")
    assert code == 0
    iters_d = json.loads(out_d.splitlines()[-1])["iterations"]
    iters_s = json.loads(out_s.splitlines()[-1])["iterations"]
    assert iters_s < iters_d


def test_solve_on_rank_grids_writes_identical_psi(capsys, tmp_path):
    snaps = []
    for grid in ("1 1 1 1", "2 1 1 1", "1 2 2 1"):
        prefix = tmp_path / grid.replace(" ", "")
        code, _, _ = run_cli(
            capsys, "solve",
            "--set", "dirac.m0=1.0", "--set", "block.b=2", "--set", "seed=2",
            "--set", f"ranks.grid={grid}", "--set", f"output.path={prefix}{os.sep}",
        )
        assert code == 0, grid
        snaps.append((prefix / "psi.snap").read_bytes())
    assert snaps[1] == snaps[0] and snaps[2] == snaps[0]


def test_odd_even_solve_builds_no_executor(capsys, tmp_path, monkeypatch):
    # the even/odd solve runs single-rank, so its rank grid is validated but
    # no executor is built for it; a grid the lattice cannot take still fails
    from lqcdlab import cli

    monkeypatch.setattr(cli, "MultiRankExecutor", lambda grid: pytest.fail("executor built"))
    base = ["solve", "--set", "dirac.m0=1.0", "--set", "solver.odd_even=true",
            "--set", f"output.path={tmp_path}{os.sep}"]
    code, out, _ = run_cli(capsys, *base, "--set", "ranks.grid=2 2 1 1")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["odd_even"] is True
    code, _, err = run_cli(capsys, *base, "--set", "ranks.grid=3 1 1 1")
    assert code == 1
    assert "ranks.grid" in err


def test_solve_fixed_iterations(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve",
        "--set", "dirac.m0=1.0", "--set", "solver.fixed_iterations=true",
        "--set", f"output.path={tmp_path}{os.sep}",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["iterations"] == 100


def test_solve_non_finite_residual_exit_code(capsys, tmp_path, monkeypatch):
    from lqcdlab import dirac

    real = dirac.DiracOperator.__call__
    calls = []

    def poisoned(*args, **kwargs):
        # the solve starts from a zero guess, so call j is Arnoldi step j
        calls.append(1)
        out = real(*args, **kwargs)
        if len(calls) >= 2:
            out.data[0] = np.nan
        return out

    monkeypatch.setattr(dirac.DiracOperator, "__call__", poisoned)
    code, _, err = run_cli(
        capsys, "solve", "--set", "dirac.m0=1.0", "--set", f"output.path={tmp_path}{os.sep}",
    )
    assert code == 2
    assert "non-finite residual norm after iteration 2" in err
    assert len(calls) == 2


def test_bench_roofline_pipeline(capsys, tmp_path):
    runs = tmp_path / "runs.json"
    code, out, _ = run_cli(
        capsys, "bench-dirac",
        "--set", "lattice.dims=4 4 4 4", "--set", f"output.path={runs}",
        "--b-list", "1,2", "--layout-list", "1,2", "--reps", "1",
    )
    assert code == 0
    records = json.loads(runs.read_text())["records"]
    # each (b, layout) is timed on the complex128 operator and on its complex64 twin
    assert len(records) == 8
    assert [r["dtype"] for r in records[:2]] == ["complex128", "complex64"]
    assert records[0]["ai"] == pytest.approx(2574 / 4512)
    assert records[1]["ai"] == pytest.approx(2574 / 2256)
    assert records[1]["bytes"] * 2 == records[0]["bytes"] and records[1]["flops"] == records[0]["flops"]
    assert {r["layout"] for r in records} == {1, 2}
    assert {r["ranks"] for r in records} == {1}

    roof = tmp_path / "roof.csv"
    code, out, _ = run_cli(capsys, "roofline", "--in", str(runs),
                           "--triad-bw", "155", "--out", str(roof))
    assert code == 0
    lines = roof.read_text().splitlines()
    assert lines[0] == "b,layout,ai,gflops,theor_gflops,arch_eff"
    assert len(lines) == 9
    # a complex64 record moves half the bytes, so its ceiling is twice as high
    ceilings = [float(line.split(",")[4]) for line in lines[1:3]]
    assert ceilings[1] == pytest.approx(2 * ceilings[0])


def test_bench_dirac_honours_the_rank_grid(capsys, monkeypatch):
    # the records of a (1,1,1,2) grid come from executor applies of both precisions
    from lqcdlab import halo

    epochs = []
    real = halo.MultiRankExecutor.run_ranks
    monkeypatch.setattr(halo.MultiRankExecutor, "run_ranks",
                        lambda self, work: epochs.append(1) or real(self, work))
    code, out, _ = run_cli(capsys, "bench-dirac", "--set", "lattice.dims=4 4 4 4",
                           "--set", "ranks.grid=1 1 1 2", "--b-list", "2", "--reps", "2")
    assert code == 0
    records = json.loads("\n".join(out.splitlines()[1:]))["records"]
    assert [(r["dtype"], r["ranks"]) for r in records] == [("complex128", 2), ("complex64", 2)]
    assert len(epochs) == 1 + 2 * 3  # the rank build, then a warm-up and 2 reps per precision


_RECORD = {"b": 1, "layout": 1, "gflops": 1.0}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"records": [_RECORD, {"b": 2, "layout": 1}]},
         "record 1 lacks key 'gflops'"),
        ([1.5, 2.5], "record 0 is not an object"),
        ({"runs": []}, "without a 'records' list"),
        # a NaN or infinite gflops printed NaN or Infinity rows and exited 0, b = true
        # read as b = 1, and an unknown dtype raised without naming its record
        ({"records": [_RECORD, {**_RECORD, "gflops": float("nan")}]}, "record 1 has gflops nan"),
        ({"records": [_RECORD, {**_RECORD, "gflops": float("inf")}]}, "record 1 has gflops inf"),
        ({"records": [_RECORD, {**_RECORD, "gflops": -1.0}]}, "record 1 has gflops -1.0"),
        ({"records": [_RECORD, {**_RECORD, "b": True}]}, "record 1 has b True"),
        ({"records": [_RECORD, {**_RECORD, "b": 0}]}, "record 1 has b 0"),
        ({"records": [_RECORD, {**_RECORD, "dtype": "float32"}]}, "record 1 has dtype 'float32'"),
    ],
)
def test_roofline_malformed_input_is_a_usage_error(capsys, tmp_path, data, message):
    runs = tmp_path / "runs.json"
    runs.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "roofline", "--in", str(runs), "--triad-bw", "100")
    assert code == 1
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("bw", ["nan", "inf", "0", "-100"])
def test_roofline_rejects_a_bad_triad_bandwidth(capsys, tmp_path, bw):
    runs = tmp_path / "runs.json"
    runs.write_text(json.dumps({"records": [_RECORD]}))
    code, _, err = run_cli(capsys, "roofline", "--in", str(runs), f"--triad-bw={bw}")
    assert code == 1
    assert "triad bandwidth must be positive and finite" in err


def test_bench_dirac_rejects_zero_reps(capsys):
    code, out, err = run_cli(capsys, "bench-dirac", "--set", "lattice.dims=2 2 2 2", "--reps", "0")
    assert code == 1
    assert "--reps must be >= 1, got 0" in err
    assert out == ""


@pytest.mark.parametrize("option,value,message", [
    ("--b-list", "2,0", "--b-list entries must be >= 1, got [2, 0]"),
    ("--layout-list", "1 3", "--layout-list entries must be 1 or 2, got [1, 3]"),
    ("--b-list", ",", "--b-list names no values"),
    ("--layout-list", " ", "--layout-list names no values"),
])
def test_bench_dirac_rejects_bad_sweep_entries_before_the_header(capsys, option, value, message):
    code, out, err = run_cli(capsys, "bench-dirac", "--set", "lattice.dims=2 2 2 2", option, value)
    assert code == 1
    assert message in err
    assert out == ""


def test_bench_dirac_builds_once_per_record(capsys, monkeypatch):
    # the timed reps apply one prebuilt operator and its twin, so GF/s
    # counts applies only; a build per apply would make 16 here (a warm-up
    # and 3 reps, per precision, twice)
    from lqcdlab import dirac

    builds = []
    for name in ("site_blocks", "hop_matrices"):
        real = getattr(dirac, name)
        monkeypatch.setattr(dirac, name, lambda *args, _name=name, _real=real: builds.append(_name) or _real(*args))
    code, out, _ = run_cli(capsys, "bench-dirac", "--set", "lattice.dims=2 2 2 2",
                           "--b-list", "1,2", "--reps", "3")
    assert code == 0
    assert len(json.loads("\n".join(out.splitlines()[1:]))["records"]) == 4
    assert sorted(builds) == ["hop_matrices"] * 2 + ["site_blocks"] * 2


def test_bench_checksums_deterministic(capsys, tmp_path):
    args = ["bench-dirac", "--set", "lattice.dims=2 2 2 2", "--set", "seed=9", "--reps", "1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    c1 = json.loads("\n".join(out1.splitlines()[1:]))["records"][0]["checksums"]
    c2 = json.loads("\n".join(out2.splitlines()[1:]))["records"][0]["checksums"]
    assert c1 == c2


def test_gen_fields(capsys, tmp_path):
    prefix = str(tmp_path) + os.sep
    code, out, _ = run_cli(
        capsys, "gen-fields",
        "--set", "lattice.dims=2 2 2 2", "--set", f"output.path={prefix}",
    )
    assert code == 0
    payload = json.loads("\n".join(out.splitlines()[1:]))
    for path in payload["files"].values():
        assert os.path.exists(path)


def test_gen_fields_rhs_survives_a_solve_under_the_same_prefix(capsys, tmp_path):
    settings = ["--set", "lattice.dims=2 2 2 4", "--set", "block.b=2", "--set", "seed=6",
                "--set", "dirac.m0=1.0", "--set", f"output.path={tmp_path}{os.sep}"]
    code, out, _ = run_cli(capsys, "gen-fields", *settings)
    assert code == 0
    payload = json.loads("\n".join(out.splitlines()[1:]))
    assert payload["files"]["eta"] == f"{tmp_path}{os.sep}eta.snap"
    code, _, _ = run_cli(capsys, "solve", *settings)
    assert code == 0 and (tmp_path / "psi.snap").exists()
    eta = read_spinor(tmp_path / "eta.snap")
    geom = LatticeGeometry((2, 2, 2, 4))
    assert np.array_equal(eta.data, gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=6 + 2, geom=geom).data)
    assert hashlib.sha256(eta.data.tobytes()).hexdigest()[:16] == payload["checksums"]["eta"]


def test_cost_model_json(capsys, tmp_path):
    out_path = tmp_path / "hist.json"
    code, out, _ = run_cli(
        capsys, "cost-model", "--strategy", "neg-a", "--b", "8", "--b2", "16",
        "--weights", "uniform", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["FMOPA"] == 6
    assert payload["total_cost"] == 28
    assert payload["delta_cost"] == (47 - 28) * 100


def test_cost_model_bad_strategy(capsys):
    code, _, err = run_cli(capsys, "cost-model", "--strategy", "neg-q")
    assert code == 1


def test_stream_small(capsys):
    code, out, _ = run_cli(capsys, "stream", "--kind", "copy", "--mb", "8",
                           "--llc-mb", "2", "--reps", "2", "--threads", "2")
    assert code == 0
    payload = json.loads("\n".join(out.splitlines()[1:]))
    assert payload["verified"] is True
    assert payload["bytes_per_rep"] == 2 * 8 * 1024 * 1024


def test_stream_cache_guard(capsys):
    code, _, err = run_cli(capsys, "stream", "--mb", "2", "--llc-mb", "32")
    assert code == 1 and "cache" in err


def test_config_file_loading(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lattice.dims = 2 2 2 2\nblock.b = 2\nseed = 4\n")
    code, out, _ = run_cli(capsys, "gen-fields", "--config", str(cfg),
                           "--set", f"output.path={tmp_path}{os.sep}")
    assert code == 0
    assert parse_header(out)["seed"] == 4
