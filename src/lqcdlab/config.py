"""Flat key-value run configuration.

One `key = value` per line, `#` starts a comment, keys are dotted paths.
Parsing and serialization round-trip through a canonical form (fixed key
order, single-space separators) so configs diff cleanly and hash stably.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields as dc_fields


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dims: tuple = (4, 4, 4, 4)
    grid: tuple = (1, 1, 1, 1)
    b: int = 1
    layout: int = 1
    m0: float = -0.5
    clover_mode: str = "random"
    clover_scale: float = 0.1
    gauge_mode: str = "random"
    seed: int = 0
    tol: float = 1e-8
    restart_len: int = 10
    restarts: int = 10
    odd_even: bool = False
    fixed_iterations: bool = False
    out_path: str = ""


# dotted config key -> dataclass attribute, in canonical emission order
KEY_MAP = {
    "lattice.dims": "dims",
    "ranks.grid": "grid",
    "block.b": "b",
    "block.layout": "layout",
    "dirac.m0": "m0",
    "clover.mode": "clover_mode",
    "clover.scale": "clover_scale",
    "gauge.mode": "gauge_mode",
    "seed": "seed",
    "solver.tol": "tol",
    "solver.restart_len": "restart_len",
    "solver.restarts": "restarts",
    "solver.odd_even": "odd_even",
    "solver.fixed_iterations": "fixed_iterations",
    "output.path": "out_path",
}

_ATTR_TO_KEY = {v: k for k, v in KEY_MAP.items()}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_tuple(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("empty tuple value")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad integer in tuple: {text!r}") from exc


def _parse_value(attr: str, text: str, kind):
    text = text.strip()
    if kind is tuple:
        return _parse_tuple(text)
    if kind is bool:
        word = text.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"bad boolean {text!r} for {_ATTR_TO_KEY[attr]}")
        return _BOOL_WORDS[word]
    if kind is int:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"bad integer {text!r} for {_ATTR_TO_KEY[attr]}") from exc
    if kind is float:
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"bad number {text!r} for {_ATTR_TO_KEY[attr]}") from exc
    return text


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    kinds = {f.name: type(getattr(cfg, f.name)) for f in dc_fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr = KEY_MAP[key]
        setattr(cfg, attr, _parse_value(attr, value, kinds[attr]))
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def canonical(cfg: RunConfig) -> str:
    lines = [f"{key} = {_format_value(getattr(cfg, attr))}" for key, attr in KEY_MAP.items()]
    return "\n".join(lines) + "\n"


def text_hash(text: str) -> str:
    """12-hex-digit sha256 prefix of a canonical text."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_hash(cfg: RunConfig) -> str:
    return text_hash(canonical(cfg))


def set_key(cfg: RunConfig, key: str, value: str) -> None:
    if key not in KEY_MAP:
        raise ConfigError(f"unknown key {key!r}")
    attr = KEY_MAP[key]
    setattr(cfg, attr, _parse_value(attr, value, type(getattr(RunConfig(), attr))))


def validate(cfg: RunConfig) -> None:
    """Check everything the modules would reject, with config-keyed messages."""
    if len(cfg.dims) != 4:
        raise ConfigError(f"lattice.dims needs 4 extents, got {len(cfg.dims)}")
    for n in cfg.dims:
        if n < 2 or n % 2:
            raise ConfigError(f"lattice.dims extents must be even and >= 2, got {cfg.dims}")
    if len(cfg.grid) != 4:
        raise ConfigError(f"ranks.grid needs 4 factors, got {len(cfg.grid)}")
    for g, n in zip(cfg.grid, cfg.dims):
        if g < 1 or n % g:
            raise ConfigError(f"ranks.grid {cfg.grid} does not divide lattice.dims {cfg.dims}")
        if (n // g) % 2:
            raise ConfigError(f"ranks.grid {cfg.grid} leaves an odd local extent of lattice.dims {cfg.dims}")
    if cfg.b < 1:
        raise ConfigError(f"block.b must be >= 1, got {cfg.b}")
    if cfg.layout not in (1, 2):
        raise ConfigError(f"block.layout must be 1 or 2, got {cfg.layout}")
    if cfg.clover_mode not in ("zero", "random"):
        raise ConfigError(f"clover.mode must be zero or random, got {cfg.clover_mode!r}")
    if cfg.gauge_mode not in ("unit", "random"):
        raise ConfigError(f"gauge.mode must be unit or random, got {cfg.gauge_mode!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    for key in ("dirac.m0", "clover.scale", "solver.tol"):
        value = getattr(cfg, KEY_MAP[key])
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg.clover_scale < 0:
        raise ConfigError("clover.scale must be nonnegative")
    if not cfg.tol > 0:
        raise ConfigError("solver.tol must be positive")
    if cfg.restart_len < 1 or cfg.restarts < 1:
        raise ConfigError("solver.restart_len and solver.restarts must be >= 1")
