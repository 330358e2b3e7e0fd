"""The summary maths of scripts/bench_compare.py on fixed, hand-written run
records; no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bc)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _run(setup_s, op_ms, raw_op_ms, speed_factor):
    return {"metrics": {"setup_s": setup_s, "op_ms": op_ms},
            "raw": {"op_ms": raw_op_ms, "setup_s": setup_s / speed_factor,
                    "speed_factor": speed_factor}}


def test_quartiles_inclusive():
    assert bc.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bc.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bc.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_wins_count_strict_improvements_only():
    parent, change = [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0]
    assert bc.wins(parent, change, "lower") == 2
    assert bc.wins(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        bc.wins(parent, change[:3], "lower")


def test_worsening_is_positive_when_worse():
    assert bc.worsening(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert bc.worsening(100.0, 110.0, "higher") == pytest.approx(-0.1)
    assert bc.worsening(200.0, 150.0, "lower") == pytest.approx(-0.25)


def test_verdicts():
    parent = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 / 106.75
    assert bc.verdict(parent, [p - 50.0 for p in parent], "lower", 0.25) == "better"
    assert bc.verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) == "worse"
    assert bc.verdict(parent, [p * 1.2 for p in parent], "lower", 0.25) == "within bound"
    # 8 of 10 wins is short of nine tenths, however large the gap
    eight = [p - 50.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert bc.verdict(parent, eight, "lower", 0.25) == "within bound"
    # every pair won, but by less than the parent's interquartile range (4.5)
    assert bc.verdict(parent, [p - 4.0 for p in parent], "lower", 0.25) == "within bound"


def test_a_parent_that_spreads_wider_than_the_bound_is_unresolved():
    # quartiles 100 / 200, median 150: an interquartile range of 0.67 medians
    parent = [100.0] * 5 + [200.0] * 5
    assert bc.verdict(parent, parent[::-1], "lower", 0.25) == "unresolved"
    assert bc.verdict(parent, [p * 1.1 for p in parent], "lower", 0.25) == "unresolved"
    assert bc.verdict(parent, parent[::-1], "higher", 0.25) == "unresolved"
    # every change run beats every parent run, by less than the range
    assert bc.verdict(parent, [99.0] * 10, "lower", 0.25) == "within bound"
    assert bc.verdict(parent, [201.0] * 10, "higher", 0.25) == "within bound"
    # 'worse' and 'better' keep their rules
    assert bc.verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) == "worse"
    assert bc.verdict(parent, [p * 0.3 for p in parent], "lower", 0.25) == "better"
    # a range of exactly the bound is resolved: 25 / 100
    even = [87.5, 87.5, 100.0, 112.5, 112.5]
    assert bc.quartiles(even) == {"q1": 87.5, "median": 100.0, "q3": 112.5}
    assert bc.verdict(even, even, "lower", 0.25) == "within bound"
    assert bc.verdict(even, even, "lower", 0.24) == "unresolved"


def test_summarize_fixed_records():
    pairs = [
        {"parent": _run(1.70, 480.0, 600.0, 0.80), "change": _run(0.55, 330.0, 400.0, 0.825)},
        {"parent": _run(1.80, 440.0, 550.0, 0.80), "change": _run(0.50, 320.0, 380.0, 0.84)},
        {"parent": _run(1.75, 470.0, 580.0, 0.81), "change": _run(0.60, 500.0, 600.0, 0.83)},
    ]
    s = bc.summarize(pairs, END_TO_END)
    setup = s["setup_s"]
    assert setup["parent"] == {"q1": 1.725, "median": 1.75, "q3": 1.775}
    assert setup["change"] == {"q1": 0.525, "median": 0.55, "q3": 0.575}
    assert setup["wins"] == 3 and setup["pairs"] == 3
    assert setup["relative_change"] == pytest.approx(0.55 / 1.75 - 1.0)
    assert setup["verdict"] == "better"
    op = s["op_ms"]
    assert op["parent"]["median"] == 470.0 and op["change"]["median"] == 330.0
    assert op["wins"] == 2
    assert op["relative_change"] == pytest.approx(330.0 / 470.0 - 1.0)
    assert op["verdict"] == "within bound"
    assert (op["unit"], op["better"], op["bound"]) == ("ms", "lower", 0.25)
    raw = s["raw.op_ms"]
    assert raw["parent"]["median"] == 580.0 and raw["change"]["median"] == 400.0
    assert raw["median_ratio"] == pytest.approx(380.0 / 550.0)
    assert s["raw.speed_factor"]["median_ratio"] == pytest.approx(0.825 / 0.80)
