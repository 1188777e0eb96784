import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(side, step_us, correct=True):
    metrics = {"step_us": {"value": step_us, "unit": "us"}} if correct \
        else {}
    return {"side": side, "result": {"correct": correct, "metrics": metrics}}


def test_seed_ranges_are_inclusive():
    assert bench_pairs.parse_seeds("501-510") == range(501, 511)
    assert bench_pairs.parse_seeds("7") == range(7, 8)
    for bad in ("3-1", "a-b", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_seeds(bad)


def test_pairs_are_summarised_by_median_quartiles_and_wins():
    parent = [100.0, 104.0, 102.0, 110.0, 98.0]
    change = [95.0, 105.0, 96.0, 99.0, 94.0]
    runs = [run(side, v) for p, c in zip(parent, change)
            for side, v in (("parent", p), ("change", c))]
    step = bench_pairs.compare(runs)["step_us"]
    assert step["parent_median"] == 102.0 and step["change_median"] == 96.0
    assert step["change_over_parent"] == 96.0 / 102.0
    assert step["change_lower_in_pairs"] == "4/5"
    # inclusive quartiles: linear between the sorted runs
    assert step["parent_quartiles"] == [100.0, 104.0]
    assert step["parent_iqr"] == 4.0
    assert step["change_quartiles"] == [95.0, 99.0]


def test_a_failed_run_leaves_no_metric_to_compare():
    runs = [run("parent", 100.0), run("change", 0.0, correct=False)]
    assert bench_pairs.compare(runs) == {}
    one_pair = bench_pairs.compare([run("parent", 100.0), run("change", 90.0)])
    assert one_pair["step_us"]["parent_quartiles"] == [100.0, 100.0]


def test_sign_test_is_exact_and_two_sided():
    assert bench_pairs.sign_test_p(10, 0) == pytest.approx(0.001953125)
    assert round(bench_pairs.sign_test_p(0, 10), 5) == 0.00195
    assert bench_pairs.sign_test_p(5, 5) == 1.0
    assert bench_pairs.sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert bench_pairs.sign_test_p(0, 0) == 1.0


def test_the_sign_test_drops_tied_pairs():
    # 10 of 10 lower, and 5 of 10 lower with 5 higher
    def step(parent, change):
        runs = [run(side, v) for p, c in zip(parent, change)
                for side, v in (("parent", p), ("change", c))]
        return bench_pairs.compare(runs)["step_us"]
    assert round(step([100.0] * 10, [90.0] * 10)["sign_test_p"], 5) == \
        0.00195
    assert step([100.0] * 10, [90.0] * 5 + [110.0] * 5)["sign_test_p"] == 1.0
    # two ties leave 8 pairs, all lower
    tied = step([100.0] * 10, [90.0] * 8 + [100.0] * 2)
    assert tied["change_lower_in_pairs"] == "8/10"
    assert tied["sign_test_p"] == pytest.approx(2 / 256)
