"""The summary rule of ``tools/pairs.py``; its runs are not tested here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_use_the_inclusive_method():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_wins_nine_pairs_and_beats_the_spread():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [p + 10.0 for p in parent]
    change[3] = 95.0  # one lost pair of ten
    s = pairs.summarize(parent, change, "higher", 0.2)
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["verdict"] == "gain"
    assert s["parent"]["median"] == 100.0 and s["change"]["median"] == 110.0
    assert s["spread"] == s["parent"]["q3"] - s["parent"]["q1"] == 101.0 - 99.25


def test_lower_is_better_turns_the_comparison_round():
    parent = [10.0, 11.0, 10.5, 10.2]
    change = [8.0, 8.5, 8.2, 8.1]
    assert pairs.summarize(parent, change, "lower", 0.2)["verdict"] == "gain"
    assert pairs.summarize(change, parent, "lower", 0.2)["verdict"] == "worse"


def test_eight_wins_of_ten_is_no_gain():
    parent = [100.0] * 10
    change = [120.0] * 8 + [100.0, 90.0]
    s = pairs.summarize(parent, change, "higher", 0.2)
    assert (s["wins"], s["losses"]) == (8, 1)
    assert s["verdict"] == "same"


def test_a_win_inside_the_parent_spread_is_no_gain():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0]
    change = [p + 1.0 for p in parent]
    s = pairs.summarize(parent, change, "higher", 0.5)
    assert s["wins"] == 5 and s["verdict"] == "same"


def test_worse_beyond_the_bound_and_unresolved_spread():
    assert pairs.summarize([100.0] * 4, [70.0] * 4, "higher", 0.2)["verdict"] == "worse"
    assert pairs.summarize([100.0] * 4, [85.0] * 4, "higher", 0.2)["verdict"] == "same"
    wide = [50.0, 150.0, 60.0, 140.0]
    assert pairs.summarize(wide, [95.0] * 4, "higher", 0.2)["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    s = pairs.summarize([10.0, 10.5, 10.0], [10.0, 10.5, 10.0], "higher", 0.1)
    assert (s["wins"], s["losses"], s["verdict"]) == (0, 0, "same")


@pytest.mark.parametrize("parent, change, better", [
    ([], [], "higher"),
    ([1.0], [1.0, 2.0], "higher"),
    ([1.0], [1.0], "faster"),
])
def test_bad_input_raises(parent, change, better):
    with pytest.raises(ValueError):
        pairs.summarize(parent, change, better, 0.1)
