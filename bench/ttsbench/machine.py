"""Machine and provenance record, working sets, and the STREAM ceiling."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from lqcdlab.dirac import BYTES_PER_VALUE
from lqcdlab.perf import DEFAULT_LLC_BYTES, stream_bench
from lqcdlab.projectors import SPINOR_LEN

from . import THREAD_POOL_VARS

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
STREAM_REPS = 5


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def l3_bytes() -> tuple[int, str]:
    """Size of the level-3 cache of cpu0 and where the number came from."""
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return _parse_size((index / "size").read_text()), str(index / "size")
        except (OSError, ValueError):
            continue
    return DEFAULT_LLC_BYTES, "lqcdlab.perf.DEFAULT_LLC_BYTES (no readable L3 entry)"


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest(root: Path) -> str:
    """sha256 over the library's sources, so runs outside git still name their code."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lqcdlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, seed: int) -> dict:
    l3, l3_source = l3_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "l3_source": l3_source,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seeds": {"gauge": seed, "clover": seed + 1, "rhs": seed + 2},
        "thread_pools": {var: os.environ.get(var) for var in THREAD_POOL_VARS},
    }


def working_set(n_sites: int, b: int, odd_even: bool, restart_len: int, l3: int) -> dict:
    """Bytes of the fields and of the GMRES basis of one solve, and their share of L3."""
    gauge = n_sites * 4 * 9 * BYTES_PER_VALUE
    clover = n_sites * 2 * 21 * BYTES_PER_VALUE
    rhs = n_sites * SPINOR_LEN * b * BYTES_PER_VALUE
    solve_sites = n_sites // 2 if odd_even else n_sites
    basis = (restart_len + 1) * solve_sites * SPINOR_LEN * b * BYTES_PER_VALUE
    fields = gauge + clover + rhs
    return {
        "fields_bytes": fields,
        "basis_bytes": basis,
        "fields_over_l3": fields / l3,
        "basis_over_l3": basis / l3,
        "total_over_l3": (fields + basis) / l3,
    }


def stream_triad(l3: int) -> dict:
    """Single-thread STREAM triad on arrays of 4x L3 each; best-of-N bandwidth."""
    array_bytes = 4 * l3
    res = stream_bench("triad", array_bytes, repetitions=STREAM_REPS, threads=1, llc_bytes=l3)
    return {
        "triad_gbs": res.bandwidth / 1e9,
        "array_bytes": array_bytes,
        "l3_bytes": l3,
        "repetitions": STREAM_REPS,
    }
