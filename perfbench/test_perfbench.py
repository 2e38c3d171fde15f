"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import parse_importtime
from tracing import Span, compare_sets, corrected, latencies, self_time, spread, tail, wall

METRICS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "better": "lower", "bound": 0.1},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]


def test_tail_has_ten_samples_beyond_it():
    value, percentile = tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0
    assert sum(x > value for x in range(1, 31)) == 10
    assert percentile == pytest.approx(200 / 3)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(x) for x in range(11)]) == (0.0, 100 / 11)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, None, "a"),
        Span("x", 1.0, 3.0, 0, "a"),
        Span("y", 2.0, 4.0, 0, "a"),  # overlaps x: 1..4 is covered once
        Span("z", 5.0, 6.0, 0, "a"),
        Span("w", 5.2, 5.5, 3, "a"),  # grandchild: counts against z only
    ]
    assert self_time(spans) == pytest.approx([10 - 3 - 1, 2, 2, 1 - 0.3, 0.3])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("op", 0.0, 2.0, None, "a"), Span("late", 1.5, 3.0, 0, "a")]
    assert self_time(spans)[0] == pytest.approx(1.5)


def test_wall_sums_each_ops_best_time():
    passes = [{"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 3.0}, {"b": 2.5}]
    assert wall(passes) == 2.5


def test_corrected_divides_out_each_pass_slowdown():
    fast = {"a": 1.0, "b": 2.0, "c": 5.0}
    slow = {"a": 1.5, "b": 4.0, "c": 10.5}  # 16 s against a best of 8 s: slowdown 2
    assert corrected([fast, slow]) == pytest.approx([1.0, 2.0, 5.0, 0.75, 2.0, 5.25])


def test_latencies_of_a_long_op_list_are_best_times():
    passes = [{f"op{i}": float(i) for i in range(20)}, {f"op{i}": 2.0 * i for i in range(20)}]
    values, basis = latencies(passes)
    assert (sorted(values), basis) == ([float(i) for i in range(20)], "per-op best times")
    assert tail(values) == (9.0, 50.0)


def test_latencies_of_a_short_op_list_are_corrected_samples():
    passes = [{f"op{i}": 1.0 for i in range(10)}, {f"op{i}": 2.0 for i in range(10)}]
    assert latencies(passes) == ([1.0] * 20, "slowdown-corrected samples")


def test_spread_is_the_interquartile_range_over_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_equal_sets_agree():
    values = {"setup_s": [1.0, 1.1, 0.9, 1.0], "wall_s": [2.0, 2.01, 1.99, 2.0], "ok_ratio": [1.0] * 4}
    assert compare_sets(values, values, METRICS) == []


def test_a_worse_median_beyond_the_bound_is_reported():
    first = {"setup_s": [1.0] * 4, "wall_s": [2.0] * 4, "ok_ratio": [1.0] * 4}
    second = {"setup_s": [1.2] * 4, "wall_s": [2.3] * 4, "ok_ratio": [0.98] * 4}
    problems = compare_sets(first, second, METRICS)
    assert [p.split(":")[0] for p in problems] == ["wall_s", "ok_ratio"]


def test_a_better_median_is_not_a_problem():
    first = {"setup_s": [1.0] * 4, "wall_s": [2.0] * 4, "ok_ratio": [0.9] * 4}
    second = {"setup_s": [0.5] * 4, "wall_s": [1.0] * 4, "ok_ratio": [1.0] * 4}
    assert compare_sets(first, second, METRICS) == []


def test_a_wide_spread_is_reported_for_every_metric():
    wide = {"setup_s": [1.0, 2.0, 3.0, 4.0], "wall_s": [1.0, 2.0, 3.0, 4.0], "ok_ratio": [1.0] * 4}
    problems = compare_sets(wide, wide, METRICS)
    assert sorted({p.split(":")[0] for p in problems}) == ["setup_s", "wall_s"]


def test_importtime_counts_outermost_entries_of_each_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |         scipy._lib",
            "import time:        20 |         20 |             numpy.linalg.lapack",
            "import time:        10 |         30 |           numpy.linalg",
            "import time:         5 |         35 |         scipy.linalg",
            "import time:       400 |        485 |       scipy.stats",
            "import time:        10 |        495 |     spinstat.beam",
            "import time:        40 |        835 |   spinstat",
        ]
    )
    # numpy.linalg sits inside scipy, so it counts under scipy only.
    assert parse_importtime(text) == {"import.total_ms": 0.835, "import.scipy_ms": 0.485, "import.numpy_ms": 0.3}


def test_importtime_looks_past_the_immediate_parent():
    text = "\n".join(
        [
            "import time:        30 |         30 |       numpy._core",
            "import time:        10 |         40 |     _helper",
            "import time:        60 |        100 |   numpy",
            "import time:        50 |        150 | spinstat",
        ]
    )
    assert parse_importtime(text)["import.numpy_ms"] == 0.1


def test_determinant_oracle():
    from workloads import det, perm_sign

    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert det(rows) == 5
    assert det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert [perm_sign(p) for p in ((0, 1, 2), (1, 0, 2), (1, 2, 0))] == [1, -1, 1]
