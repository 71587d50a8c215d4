import numpy as np
import pytest

from lqcdlab.costmodel import (
    OPCODES,
    STRATEGIES,
    AbstractMachine,
    CostWeights,
    InstructionHistogram,
    UnsupportedConfigError,
    cost,
    delta_cost,
    direct_product,
    run_kernel,
)


def _rand(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("b", [1, 5, 8, 16])
def test_value_correctness(strategy, b):
    a = _rand((3, 3), seed=b)
    m = _rand((3, b), seed=b + 100)
    out, _ = run_kernel(strategy, a, m)
    ref = direct_product(a, m)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_identity_passthrough(strategy):
    m = _rand((3, 8), seed=7)
    out, _ = run_kernel(strategy, np.eye(3), m)
    assert np.abs(out - m).max() < 1e-14


@pytest.mark.parametrize("svl", [512, 1024, 2048])
def test_value_correctness_other_svl(svl):
    a, m = _rand((3, 3), 1), _rand((3, 11), 2)
    ref = direct_product(a, m)
    for strategy in STRATEGIES:
        out, _ = run_kernel(strategy, a, m, AbstractMachine(svl))
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_small_svl_vector_strategies_only():
    a, m = _rand((3, 3), 3), _rand((3, 4), 4)
    ref = direct_product(a, m)
    for svl in (128, 256):
        for strategy in ("deinterleave-both", "scalar"):
            out, _ = run_kernel(strategy, a, m, AbstractMachine(svl))
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        for strategy in ("neg-A", "neg-M"):
            with pytest.raises(UnsupportedConfigError):
                run_kernel(strategy, a, m, AbstractMachine(svl))


def test_machine_validation():
    with pytest.raises(ValueError):
        AbstractMachine(192)
    with pytest.raises(ValueError):
        run_kernel("neg-X", np.eye(3), np.ones((3, 2)))
    with pytest.raises(ValueError):
        run_kernel("scalar", np.eye(4), np.ones((4, 2)))


def test_neg_a_fmopa_count_frozen():
    _, hist = run_kernel("neg-A", _rand((3, 3), 5), _rand((3, 8), 6))
    assert hist["FMOPA"] == 6  # 2 per column x 3 columns, one chunk at svl=512


def test_histograms_frozen_b8():
    expected = {
        "neg-A": {"LD1": 3, "REVD": 3, "FNEG": 3, "ZERO": 1, "LD2": 3,
                  "FMOPA": 6, "MOVA": 6, "ST2": 3},
        "neg-M": {"LD2": 3, "ZERO": 2, "LD1": 6, "REVD": 6, "FNEG": 6,
                  "FMOPA": 12, "ST1": 6},
        "deinterleave-both": {"MOV": 6, "LD2": 3, "LD1": 18, "FMLA": 36, "ST2": 3},
        "scalar": {"MOV": 48, "SCALAR_LD": 288, "SCALAR_FMA": 288, "SCALAR_ST": 48},
    }
    a, m = _rand((3, 3), 8), _rand((3, 8), 9)
    for strategy, want in expected.items():
        _, hist = run_kernel(strategy, a, m)
        got = {op: n for op, n in hist.as_dict().items() if n}
        assert got == want, strategy


def test_costs_frozen_and_ordering():
    uniform = CostWeights.uniform()
    override = CostWeights.override()
    expected_uniform = {8: [28, 41, 66, 672], 16: [47, 79, 132, 1344]}
    expected_override = {8: [37, 59, 63, 672], 16: [65, 115, 126, 1344]}
    order = ["neg-A", "neg-M", "deinterleave-both", "scalar"]
    for b in (8, 16):
        a, m = _rand((3, 3), b), _rand((3, b), b + 1)
        cu, co = [], []
        for strategy in order:
            _, hist = run_kernel(strategy, a, m)
            cu.append(cost(hist, uniform))
            co.append(cost(hist, override))
        assert cu == expected_uniform[b]
        assert co == expected_override[b]
        assert cu == sorted(cu) and len(set(cu)) == 4
        assert co == sorted(co) and len(set(co)) == 4


def test_ratio_bands_uniform():
    uniform = CostWeights.uniform()
    for b in (8, 16):
        a, m = _rand((3, 3), b), _rand((3, b), b + 2)
        costs = {}
        for strategy in STRATEGIES:
            _, hist = run_kernel(strategy, a, m)
            costs[strategy] = cost(hist, uniform)
        r_sve = costs["deinterleave-both"] / costs["neg-A"]
        r_negm = costs["deinterleave-both"] / costs["neg-M"]
        assert 2.73 * 0.65 <= r_sve <= 2.73 * 1.35
        assert 1.42 * 0.65 <= r_negm <= 1.42 * 1.35


def test_cost_monotone_in_b():
    uniform = CostWeights.uniform()
    for strategy in STRATEGIES:
        prev = -1.0
        for b in range(1, 25):
            _, hist = run_kernel(strategy, _rand((3, 3), 1), _rand((3, b), b))
            c = cost(hist, uniform)
            assert c >= prev, (strategy, b)
            prev = c


def test_missing_zero_caught():
    mch = AbstractMachine()
    mch._reg("x")[:] = 1.0
    mch._reg("y")[:] = 1.0
    with pytest.raises(RuntimeError, match="cleared"):
        mch.fmopa("x", "y", 2, 2)


def test_delta_cost():
    assert delta_cost("scalar", 8, 8, 100) == 0.0
    assert delta_cost("neg-A", 8, 16, 100) == (47 - 28) * 100
    assert delta_cost("neg-A", 8, 16, 1, weights=CostWeights.override()) == 65 - 37
    with pytest.raises(ValueError):
        delta_cost("neg-A", 16, 8, 1)


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights({"LD1": 1.0})
    with pytest.raises(ValueError):
        CostWeights({op: -1.0 for op in OPCODES})
    with pytest.raises(ValueError):
        CostWeights.preset("fancy")
    w = CostWeights.override()
    assert w.weights["MOV"] == 0.0 and w.weights["ST2"] == 2.0 and w.weights["FMOPA"] == 2.0


def test_histogram_validation():
    with pytest.raises(ValueError):
        InstructionHistogram({"BOGUS": 1})
    with pytest.raises(ValueError):
        InstructionHistogram({"LD1": -1})
    h = InstructionHistogram({"LD1": 2})
    assert h["LD1"] == 2 and h["ST1"] == 0
    assert cost(h, CostWeights.uniform()) == 2.0
