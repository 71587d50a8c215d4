import re
from pathlib import Path

import pytest

from lqcdlab.config import (
    KEY_MAP,
    ConfigError,
    RunConfig,
    canonical,
    config_hash,
    parse_config,
    set_key,
    validate,
)


def test_defaults():
    cfg = RunConfig()
    assert cfg.restart_len == 10 and cfg.restarts == 10
    assert cfg.layout == 1 and cfg.b == 1
    assert cfg.m0 == -0.5
    validate(cfg)


def test_parse_and_comments():
    cfg = parse_config(
        """
        # test problem
        lattice.dims = 8 4 4 4
        block.b = 4          # four rhs
        block.layout = 2
        dirac.m0 = 1.0
        solver.odd_even = true
        ranks.grid = 2,1,1,1
        """
    )
    assert cfg.dims == (8, 4, 4, 4)
    assert cfg.b == 4 and cfg.layout == 2
    assert cfg.m0 == 1.0
    assert cfg.odd_even is True
    assert cfg.grid == (2, 1, 1, 1)


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("volume = 16")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("output.format = yaml")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("block.b 4")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("solver.odd_even = maybe")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("block.b = four")


def test_antiperiodic_time_is_an_unknown_key():
    # Periodic time is the only boundary there is, so the key does not exist.
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("lattice.antiperiodic_time = true")


def test_canonical_roundtrip():
    text = "block.b = 8\ndirac.m0 = 1.5\nlattice.dims = 4 4 4 4\n"
    cfg = parse_config(text)
    canon = canonical(cfg)
    again = parse_config(canon)
    assert canonical(again) == canon
    assert config_hash(cfg) == config_hash(again)
    assert len(config_hash(cfg)) == 12


def test_hash_tracks_content():
    a = parse_config("block.b = 8")
    b = parse_config("block.b = 8  # comment and   spacing differ")
    c = parse_config("block.b = 4")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_set_key():
    cfg = RunConfig()
    set_key(cfg, "solver.tol", "1e-10")
    assert cfg.tol == 1e-10
    with pytest.raises(ConfigError):
        set_key(cfg, "solver.speed", "11")


@pytest.mark.parametrize(
    "line,match",
    [
        ("lattice.dims = 4 4 4", "4 extents"),
        ("lattice.dims = 4 3 4 4", "even"),
        ("ranks.grid = 3 1 1 1", "divide"),
        pytest.param(
            "lattice.dims = 6 4 4 4\nranks.grid = 2 1 1 1",
            "ranks.grid .* odd local extent of lattice.dims",
            id="ranks.grid = 2 1 1 1 on 6 4 4 4-odd local extent",
        ),
        ("block.b = 0", "block.b"),
        ("block.layout = 3", "layout"),
        ("clover.mode = identity", "clover.mode"),
        ("gauge.mode = cold", "gauge.mode"),
        ("solver.tol = 0", "tol"),
        ("solver.restart_len = 0", "restart"),
        ("seed = -3", "seed must be >= 0"),
        ("dirac.m0 = nan", "dirac.m0 must be finite"),
        ("clover.scale = inf", "clover.scale must be finite"),
        ("solver.tol = inf", "solver.tol must be finite"),
        ("solver.tol = nan", "solver.tol must be finite"),
    ],
)
def test_validate_rejects(line, match):
    cfg = parse_config(line)
    with pytest.raises(ConfigError, match=match):
        validate(cfg)


def test_readme_key_table_matches_the_config_keys():
    # the README's key table names every config key and no other; a row
    # such as `gauge.mode` / `clover.mode` names two
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| key | default | meaning |"):].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines()[2:] if line.startswith("|")]
    documented = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert documented == set(KEY_MAP)
