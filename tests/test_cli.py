import json
import os

import numpy as np
import pytest

from lqcdlab.cli import main
from lqcdlab.config import RunConfig, config_hash, set_key
from lqcdlab.fields import read_spinor


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


def test_oracle_check_corrupted_gauge_fails(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--corrupt-gauge")
    assert code == 2
    assert "gauge-unitarity: FAIL" in out
    assert "unitar" in out


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--set", "block.layout=5")
    assert code == 1 and "layout" in err
    code, _, err = run_cli(capsys, "solve", "--set", "lattice.antiperiodic_time=yes")
    assert code == 1 and "not implemented" in err
    code, _, err = run_cli(capsys, "bogus-command")
    assert code == 1


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


def test_solve_fixed_iterations(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve",
        "--set", "dirac.m0=1.0", "--set", "solver.fixed_iterations=true",
        "--set", f"output.path={tmp_path}{os.sep}",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["iterations"] == 100


def test_solve_non_finite_residual_exit_code(capsys, tmp_path, monkeypatch):
    from lqcdlab import gmres

    real = gmres.apply_dirac
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        if len(calls) >= 3:
            out.data[0] = np.nan
        return out

    monkeypatch.setattr(gmres, "apply_dirac", poisoned)
    code, _, err = run_cli(
        capsys, "solve", "--set", "dirac.m0=1.0", "--set", f"output.path={tmp_path}{os.sep}",
    )
    assert code == 2
    assert "non-finite residual norm after iteration 2" in err
    assert len(calls) == 3


def test_bench_roofline_pipeline(capsys, tmp_path):
    runs = tmp_path / "runs.json"
    code, out, _ = run_cli(
        capsys, "bench-dirac",
        "--set", "lattice.dims=4 4 4 4", "--set", f"output.path={runs}",
        "--b-list", "1,2", "--layout-list", "1,2", "--reps", "1",
    )
    assert code == 0
    records = json.loads(runs.read_text())["records"]
    assert len(records) == 4
    assert records[0]["ai"] == pytest.approx(2574 / 4512)
    assert {r["layout"] for r in records} == {1, 2}

    roof = tmp_path / "roof.csv"
    code, out, _ = run_cli(capsys, "roofline", "--in", str(runs),
                           "--triad-bw", "155", "--out", str(roof))
    assert code == 0
    lines = roof.read_text().splitlines()
    assert lines[0] == "b,layout,ai,gflops,theor_gflops,arch_eff"
    assert len(lines) == 5


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
