"""Executable cost model for 3xb complex matmul micro-kernels.

A small abstract machine with vector registers, a two-dimensional
accumulator tile, and a 14-opcode instruction set runs four strategies for
O = A*M (A 3x3, M 3xb complex):

  neg-A              tile outer products; A columns stay interleaved and get
                     the swap-and-negate treatment once per column
  neg-M              tile outer products; M rows stay interleaved and get
                     swap-and-negate per row per chunk, results leave the
                     tile directly with plain stores
  deinterleave-both  no tile; structured loads split Re/Im of both operands
                     and vector FMAs form the four real products
  scalar             plain triple loop in scalar opcodes

Every strategy really computes its values through machine state, so a wrong
instruction sequence produces wrong numbers, and every executed instruction
lands in a histogram.  Costs are histogram dot weights; masked (partial)
vector operations cost the same as full ones.  Structured loads and stores
(LD2/ST2) count as one instruction each.  FMLA stands for the fused
multiply-add/subtract family; the sign is free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

OPCODES = (
    "LD1", "LD2", "ST1", "ST2",
    "FMOPA", "FMLA", "REVD", "FNEG",
    "MOVA", "ZERO",
    "SCALAR_FMA", "SCALAR_LD", "SCALAR_ST",
    "MOV",
)

STRATEGIES = ("neg-A", "neg-M", "deinterleave-both", "scalar")
_TILE_STRATEGIES = ("neg-A", "neg-M")
VALID_SVL = (128, 256, 512, 1024, 2048)
_DELTA_COST_SEED = 0  # seed of the operands delta_cost runs at both block sizes


class UnsupportedConfigError(ValueError):
    pass


def _canon_strategy(name: str) -> str:
    for s in STRATEGIES:
        if name.lower() == s.lower():
            return s
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")


@dataclass(frozen=True)
class InstructionHistogram:
    counts: dict

    def __post_init__(self) -> None:
        for op, n in self.counts.items():
            if op not in OPCODES:
                raise ValueError(f"unknown opcode {op!r}")
            if n < 0:
                raise ValueError(f"negative count for {op}")

    def __getitem__(self, op: str) -> int:
        return self.counts.get(op, 0)

    def as_dict(self) -> dict:
        return {op: self.counts.get(op, 0) for op in OPCODES}


@dataclass(frozen=True)
class CostWeights:
    weights: dict

    def __post_init__(self) -> None:
        missing = [op for op in OPCODES if op not in self.weights]
        if missing:
            raise ValueError(f"missing weights for {missing}")
        for op, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {op}")

    @classmethod
    def uniform(cls) -> "CostWeights":
        return cls({op: 1.0 for op in OPCODES})

    @classmethod
    def override(cls) -> "CostWeights":
        """Stores and outer products cost 2, plain moves are register renames."""
        w = {op: 1.0 for op in OPCODES}
        w["MOV"] = 0.0
        w["ST1"] = w["ST2"] = w["SCALAR_ST"] = 2.0
        w["FMOPA"] = 2.0
        return cls(w)

    @classmethod
    def preset(cls, name: str) -> "CostWeights":
        if name == "uniform":
            return cls.uniform()
        if name == "override":
            return cls.override()
        raise ValueError(f"unknown weight preset {name!r}")


def cost(trace, weights: CostWeights) -> float:
    counts = trace.counts if isinstance(trace, InstructionHistogram) else trace
    for op in counts:
        if op not in weights.weights:
            raise ValueError(f"no weight for opcode {op}")
    return float(sum(n * weights.weights[op] for op, n in counts.items()))


class AbstractMachine:
    """Register file, accumulator tile, and traced instruction semantics.

    Vector registers hold svl/64 doubles; the tile is (svl/64) x (svl/64).
    The tile must be cleared before an accumulation sequence and is disarmed
    once results are read out, which catches missing-ZERO bugs.
    """

    def __init__(self, svl_bits: int = 512):
        if svl_bits not in VALID_SVL:
            raise ValueError(f"svl_bits must be one of {VALID_SVL}, got {svl_bits}")
        self.svl_bits = svl_bits
        self.lanes64 = svl_bits // 64
        self.regs: dict[str, np.ndarray] = {}
        self.za = np.zeros((self.lanes64, self.lanes64))
        self.trace: Counter = Counter()
        self._za_armed = False

    def reset(self) -> None:
        self.regs.clear()
        self.za[:] = 0.0
        self.trace = Counter()
        self._za_armed = False

    def _reg(self, name: str) -> np.ndarray:
        if name not in self.regs:
            self.regs[name] = np.zeros(self.lanes64)
        return self.regs[name]

    # -- loads and stores --

    def ld1(self, dst: str, mem: np.ndarray, offset: int, count: int) -> None:
        r = self._reg(dst)
        r[:] = 0.0
        r[:count] = mem[offset : offset + count]
        self.trace["LD1"] += 1

    def ld1_broadcast(self, dst: str, mem: np.ndarray, offset: int) -> None:
        self._reg(dst)[:] = mem[offset]
        self.trace["LD1"] += 1

    def ld2(self, dst_even: str, dst_odd: str, mem: np.ndarray, offset: int, pairs: int) -> None:
        re, im = self._reg(dst_even), self._reg(dst_odd)
        re[:] = 0.0
        im[:] = 0.0
        chunk = mem[offset : offset + 2 * pairs]
        re[:pairs] = chunk[0::2]
        im[:pairs] = chunk[1::2]
        self.trace["LD2"] += 1

    def st1_tile_row(self, row: int, mem: np.ndarray, offset: int, count: int) -> None:
        mem[offset : offset + count] = self.za[row, :count]
        self._za_armed = False
        self.trace["ST1"] += 1

    def st2(self, src_even: str, src_odd: str, mem: np.ndarray, offset: int, pairs: int) -> None:
        out = mem[offset : offset + 2 * pairs]
        out[0::2] = self.regs[src_even][:pairs]
        out[1::2] = self.regs[src_odd][:pairs]
        self.trace["ST2"] += 1

    # -- vector arithmetic --

    def revd(self, dst: str, src: str) -> None:
        """Swap the two 64-bit halves of each 128-bit granule."""
        s = self.regs[src]
        r = self._reg(dst)
        r[0::2], r[1::2] = s[1::2].copy(), s[0::2].copy()
        self.trace["REVD"] += 1

    def fneg_even(self, dst: str, src: str) -> None:
        """Negate even lanes, pass odd lanes through (merging predicate)."""
        s = self.regs[src]
        r = self._reg(dst)
        r[:] = s
        r[0::2] = -s[0::2]
        self.trace["FNEG"] += 1

    def zero_za(self) -> None:
        self.za[:] = 0.0
        self._za_armed = True
        self.trace["ZERO"] += 1

    def fmopa(self, zn: str, zm: str, rows: int, cols: int) -> None:
        if not self._za_armed:
            raise RuntimeError("tile not cleared before accumulation")
        self.za[:rows, :cols] += np.outer(self.regs[zn][:rows], self.regs[zm][:cols])
        self.trace["FMOPA"] += 1

    def mova(self, dst: str, row: int) -> None:
        self._reg(dst)[:] = self.za[row]
        self._za_armed = False
        self.trace["MOVA"] += 1

    def fmla(self, acc: str, vec: str, bcast: str, sign: float = 1.0) -> None:
        self._reg(acc)[:] += sign * self.regs[vec] * self.regs[bcast]
        self.trace["FMLA"] += 1

    def mov_zero(self, dst: str) -> None:
        self._reg(dst)[:] = 0.0
        self.trace["MOV"] += 1

    # -- scalar arithmetic --

    def scalar_ld(self, mem: np.ndarray, offset: int) -> float:
        self.trace["SCALAR_LD"] += 1
        return float(mem[offset])

    def scalar_fma(self, acc: float, x: float, y: float, sign: float = 1.0) -> float:
        self.trace["SCALAR_FMA"] += 1
        return acc + sign * x * y

    def scalar_st(self, mem: np.ndarray, offset: int, value: float) -> None:
        mem[offset] = value
        self.trace["SCALAR_ST"] += 1

    def scalar_zero(self) -> float:
        self.trace["MOV"] += 1
        return 0.0


def _interleave(z: np.ndarray) -> np.ndarray:
    flat = np.empty(2 * z.size)
    flat[0::2] = z.real.ravel()
    flat[1::2] = z.imag.ravel()
    return flat


def direct_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Triple-loop complex matmul, the value oracle for every strategy."""
    rows, inner = a.shape
    cols = m.shape[1]
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for k in range(inner):
                acc += a[i, k] * m[k, j]
            out[i, j] = acc
    return out


def _run_neg_a(mch: AbstractMachine, a_mem, m_mem, o_mem, b: int) -> None:
    chunk = mch.lanes64
    for k in range(3):
        mch.ld1(f"a{k}", a_mem, 6 * k, 6)
        mch.revd(f"t{k}", f"a{k}")
        mch.fneg_even(f"an{k}", f"t{k}")
    for c0 in range(0, b, chunk):
        w = min(chunk, b - c0)
        mch.zero_za()
        for k in range(3):
            mch.ld2("mre", "mim", m_mem, 2 * (b * k + c0), w)
            mch.fmopa(f"a{k}", "mre", 6, w)
            mch.fmopa(f"an{k}", "mim", 6, w)
        for i in range(3):
            mch.mova("ore", 2 * i)
            mch.mova("oim", 2 * i + 1)
            mch.st2("ore", "oim", o_mem, 2 * (b * i + c0), w)


def _run_neg_m(mch: AbstractMachine, a_mem, m_mem, o_mem, b: int) -> None:
    chunk = mch.lanes64 // 2
    for k in range(3):
        mch.ld2(f"are{k}", f"aim{k}", a_mem, 6 * k, 3)
    for c0 in range(0, b, chunk):
        w = min(chunk, b - c0)
        mch.zero_za()
        for k in range(3):
            mch.ld1("mk", m_mem, 2 * (b * k + c0), 2 * w)
            mch.revd("mt", "mk")
            mch.fneg_even("mn", "mt")
            mch.fmopa(f"are{k}", "mk", 3, 2 * w)
            mch.fmopa(f"aim{k}", "mn", 3, 2 * w)
        for i in range(3):
            mch.st1_tile_row(i, o_mem, 2 * (b * i + c0), 2 * w)


def _run_deinterleave(mch: AbstractMachine, a_mem, m_mem, o_mem, b: int) -> None:
    chunk = mch.lanes64
    for c0 in range(0, b, chunk):
        w = min(chunk, b - c0)
        for i in range(3):
            mch.mov_zero(f"ore{i}")
            mch.mov_zero(f"oim{i}")
        for k in range(3):
            mch.ld2(f"mre{k}", f"mim{k}", m_mem, 2 * (b * k + c0), w)
        for i in range(3):
            for k in range(3):
                mch.ld1_broadcast("bre", a_mem, 6 * k + 2 * i)
                mch.ld1_broadcast("bim", a_mem, 6 * k + 2 * i + 1)
                mch.fmla(f"ore{i}", f"mre{k}", "bre")
                mch.fmla(f"ore{i}", f"mim{k}", "bim", sign=-1.0)
                mch.fmla(f"oim{i}", f"mim{k}", "bre")
                mch.fmla(f"oim{i}", f"mre{k}", "bim")
        for i in range(3):
            mch.st2(f"ore{i}", f"oim{i}", o_mem, 2 * (b * i + c0), w)


def _run_scalar(mch: AbstractMachine, a_mem, m_mem, o_mem, b: int) -> None:
    for i in range(3):
        for j in range(b):
            acc_re = mch.scalar_zero()
            acc_im = mch.scalar_zero()
            for k in range(3):
                are = mch.scalar_ld(a_mem, 6 * k + 2 * i)
                aim = mch.scalar_ld(a_mem, 6 * k + 2 * i + 1)
                mre = mch.scalar_ld(m_mem, 2 * (b * k + j))
                mim = mch.scalar_ld(m_mem, 2 * (b * k + j) + 1)
                acc_re = mch.scalar_fma(acc_re, are, mre)
                acc_re = mch.scalar_fma(acc_re, aim, mim, sign=-1.0)
                acc_im = mch.scalar_fma(acc_im, are, mim)
                acc_im = mch.scalar_fma(acc_im, aim, mre)
            mch.scalar_st(o_mem, 2 * (b * i + j), acc_re)
            mch.scalar_st(o_mem, 2 * (b * i + j) + 1, acc_im)


_RUNNERS = {
    "neg-A": _run_neg_a,
    "neg-M": _run_neg_m,
    "deinterleave-both": _run_deinterleave,
    "scalar": _run_scalar,
}


def run_kernel(
    strategy: str,
    a: np.ndarray,
    m: np.ndarray,
    machine: AbstractMachine | None = None,
) -> tuple[np.ndarray, InstructionHistogram]:
    """Execute one strategy on the machine; returns (O, histogram)."""
    strategy = _canon_strategy(strategy)
    a = np.asarray(a, dtype=np.complex128)
    m = np.asarray(m, dtype=np.complex128)
    if a.shape != (3, 3):
        raise ValueError(f"A must be 3x3, got {a.shape}")
    if m.ndim != 2 or m.shape[0] != 3 or m.shape[1] < 1:
        raise ValueError(f"M must be 3xb with b >= 1, got {m.shape}")
    b = m.shape[1]
    mch = machine if machine is not None else AbstractMachine()
    if strategy in _TILE_STRATEGIES and mch.svl_bits < 384:
        raise UnsupportedConfigError(
            f"svl={mch.svl_bits} cannot hold 3 interleaved complex values; "
            f"{strategy} needs svl_bits >= 384"
        )
    mch.reset()
    # column-major interleaved A so a column is contiguous; row-major interleaved M and O
    a_mem = _interleave(a.T)
    m_mem = _interleave(m)
    o_mem = np.zeros(6 * b)
    _RUNNERS[strategy](mch, a_mem, m_mem, o_mem, b)
    out = o_mem[0::2].reshape(3, b) + 1j * o_mem[1::2].reshape(3, b)
    return out, InstructionHistogram(dict(mch.trace))


def delta_cost(
    strategy: str,
    b1: int,
    b2: int,
    iterations: int,
    machine: AbstractMachine | None = None,
    weights: CostWeights | None = None,
) -> float:
    """Incremental cost of growing the block from b1 to b2, scaled by iterations.

    Both runs execute for real and are value-checked, so the difference is a
    difference of genuine instruction streams, not of formulas.
    """
    if b1 < 1 or b2 < b1:
        raise ValueError("need 1 <= b1 <= b2")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    mch = machine if machine is not None else AbstractMachine()
    weights = weights if weights is not None else CostWeights.uniform()
    rng = np.random.default_rng(_DELTA_COST_SEED)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = rng.normal(size=(3, b2)) + 1j * rng.normal(size=(3, b2))
    costs = []
    for bb in (b1, b2):
        out, hist = run_kernel(strategy, a, m[:, :bb], mch)
        ref = direct_product(a, m[:, :bb])
        err = np.abs(out - ref).max() / max(np.abs(ref).max(), 1e-300)
        if err > 1e-13:
            raise RuntimeError(f"{strategy} produced wrong values (rel err {err:.2e})")
        costs.append(cost(hist, weights))
    return (costs[1] - costs[0]) * iterations
