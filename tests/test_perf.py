from fractions import Fraction

import numpy as np
import pytest

from lqcdlab.perf import (
    ROOFLINE_COLUMNS,
    CounterSample,
    arch_efficiency,
    arithmetic_intensity,
    effective_bandwidth,
    read_write_ratio,
    roofline_report,
    stream_bench,
    theoretical_perf,
)

MB = 1024 * 1024


def test_arithmetic_intensity_frozen():
    assert arithmetic_intensity(1) == Fraction(2574, 4512)
    assert arithmetic_intensity(16) == Fraction(41184, 44832)
    with pytest.raises(ValueError):
        arithmetic_intensity(0)


def test_arithmetic_intensity_monotone_with_asymptote():
    limit = Fraction(2574, 168 * 16)
    prev = arithmetic_intensity(1)
    for b in range(2, 200):
        cur = arithmetic_intensity(b)
        assert cur > prev
        assert cur < limit
        prev = cur
    assert float(limit) == pytest.approx(0.9576, abs=1e-4)


def test_theoretical_perf_and_efficiency():
    assert theoretical_perf(155e9, 1) / 1e9 == pytest.approx(88.4, abs=0.05)
    assert arch_efficiency(50.0, 100.0) == 0.5
    assert arch_efficiency(0.0, 100.0) == 0.0
    assert arch_efficiency(100.0, 100.0) == 1.0
    with pytest.raises(ValueError):
        arch_efficiency(1.0, 0.0)


def test_effective_bandwidth_frozen():
    sample = CounterSample(l2_refill=392270, l2_writeback=165508, cycles=32_000_000,
                           frequency=1.8e9, ranks=16)
    bw = effective_bandwidth(sample)
    assert 125e9 <= bw <= 131e9
    # linearity in cycles
    half = CounterSample(l2_refill=392270, l2_writeback=165508, cycles=64_000_000,
                         frequency=1.8e9, ranks=16)
    assert effective_bandwidth(half) == pytest.approx(bw / 2)
    zero = CounterSample(l2_refill=0, l2_writeback=0, cycles=1, frequency=1.0)
    assert effective_bandwidth(zero) == 0.0


def test_counter_sample_validation():
    with pytest.raises(ValueError):
        CounterSample(l2_refill=-1, l2_writeback=0, cycles=1, frequency=1.0)
    with pytest.raises(ValueError):
        CounterSample(l2_refill=0, l2_writeback=0, cycles=0, frequency=1.0)


# NaN compares False with everything, so a `bw <= 0`-style check let it
# through and the model returned nan; infinity is no measurement either
_NON_FINITE = (float("nan"), float("inf"))


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_theoretical_perf_rejects_a_non_finite_bandwidth(bad):
    with pytest.raises(ValueError, match="bandwidth"):
        theoretical_perf(bad, 1)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_arch_efficiency_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="theoretical"):
        arch_efficiency(1.0, bad)
    with pytest.raises(ValueError, match="measured"):
        arch_efficiency(bad, 1.0)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("name", ["l2_refill", "l2_writeback", "cycles", "frequency", "cache_line", "ranks"])
def test_counter_sample_rejects_non_finite_values(name, bad):
    fields = dict(l2_refill=1, l2_writeback=1, cycles=10, frequency=1.0)
    with pytest.raises(ValueError, match=name.split("_")[0]):
        CounterSample(**{**fields, name: bad})


def test_read_write_ratio():
    assert read_write_ratio(1) == Fraction(534, 204)
    assert float(read_write_ratio(1)) == pytest.approx(2.618, abs=1e-3)
    prev = read_write_ratio(1)
    for b in range(2, 100):
        cur = read_write_ratio(b)
        assert cur < prev
        assert cur > 1
        prev = cur


@pytest.mark.parametrize("kind,arrays", [("copy", 2), ("scale", 2), ("add", 3), ("triad", 3)])
def test_stream_kinds(kind, arrays):
    res = stream_bench(kind, array_bytes=4 * MB, repetitions=2, llc_bytes=MB)
    assert res.verified
    assert res.bytes_per_rep == arrays * 4 * MB
    assert res.bandwidth > 0
    assert res.best_seconds == min(res.times)


def test_stream_threads_give_same_values():
    res = stream_bench("triad", array_bytes=4 * MB, repetitions=2, threads=4, llc_bytes=MB)
    assert res.verified and res.threads == 4


def test_stream_rejects_cache_sized_arrays():
    with pytest.raises(ValueError, match="cache"):
        stream_bench("triad", array_bytes=MB, llc_bytes=MB)
    with pytest.raises(ValueError):
        stream_bench("blast", array_bytes=8 * MB, llc_bytes=MB)


def test_roofline_report_rows_and_warnings():
    theor1 = theoretical_perf(155e9, 1) / 1e9
    runs = [
        {"b": 1, "layout": 1, "gflops": theor1 / 2},
        {"b": 1, "layout": 2, "gflops": theor1 * 1.5},
    ]
    rep = roofline_report(runs, 155e9)
    assert rep.rows[0].arch_eff == pytest.approx(0.5)
    assert len(rep.warnings) == 1 and "layout=2" in rep.warnings[0]

    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == ",".join(ROOFLINE_COLUMNS)
    assert len(csv_text.splitlines()) == 3

    empty = roofline_report([], 155e9)
    assert empty.to_csv().splitlines() == [",".join(ROOFLINE_COLUMNS)]


def test_roofline_inputs_validation():
    for bw in (0.0, -1e9, np.nan, np.inf):
        with pytest.raises(ValueError, match="triad bandwidth must be positive and finite"):
            roofline_report([], bw)
