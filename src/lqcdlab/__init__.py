"""Lattice QCD kernel laboratory for multiple right-hand-side solves.

The package bundles a clover Wilson-Dirac stencil over two block-vector
layouts, a batched restarted GMRES, odd-even (Schur) preconditioning, an
in-process halo communicator, a dense reference oracle, roofline-style
performance accounting, and an instruction-level cost model for complex
matrix-multiply strategies on an SME-like abstract machine.
"""

__version__ = "0.1.0"

from .config import RunConfig, canonical, config_hash, load_config, parse_config
from .dirac import DiracParams, FlopCounter, account_traffic, apply_dirac
from .fields import (
    BlockSpinorField,
    CloverField,
    GaugeField,
    Layout,
    element_offset,
    gen_clover,
    gen_gauge,
    gen_spinor,
    make_rng,
)
from .geometry import LatticeGeometry, RankGrid, decompose
from .gmres import GmresConfig, GmresResult, gmres_solve, solve_dirac
from .halo import MultiRankExecutor, apply_dirac_multirank
from .oddeven import SchurOperator
from .perf import arithmetic_intensity, effective_bandwidth, read_write_ratio, theoretical_perf

__all__ = [
    "BlockSpinorField",
    "CloverField",
    "DiracParams",
    "FlopCounter",
    "GaugeField",
    "GmresConfig",
    "GmresResult",
    "LatticeGeometry",
    "Layout",
    "MultiRankExecutor",
    "RankGrid",
    "RunConfig",
    "SchurOperator",
    "account_traffic",
    "apply_dirac",
    "apply_dirac_multirank",
    "arithmetic_intensity",
    "canonical",
    "config_hash",
    "decompose",
    "effective_bandwidth",
    "element_offset",
    "gen_clover",
    "gen_gauge",
    "gen_spinor",
    "gmres_solve",
    "load_config",
    "make_rng",
    "parse_config",
    "read_write_ratio",
    "solve_dirac",
    "theoretical_perf",
]
