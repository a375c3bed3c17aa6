"""The gain rule of the A/B runner in tools/ab_pairs.py."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_pairs)

LOWER = [{"name": "frame_s_p50", "better": "lower"}]
HIGHER = [{"name": "frames_per_s", "better": "higher"}]


def pairs(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_gain_needs_nine_tenths_of_pairs_and_medians_apart_by_the_quartile_distance():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    summary = ab_pairs.summarize(pairs("frame_s_p50", parent, [p - 0.5 for p in parent]), LOWER)
    entry = summary["frame_s_p50"]
    assert (entry["change_wins"], entry["pairs"], entry["gain"]) == (10, 10, True)
    assert entry["parent_median"] == pytest.approx(1.1)
    assert entry["rel_change"] == pytest.approx(-0.5 / 1.1)
    # two ties count for neither side: 8 of 10 wins is no gain
    change = [p - 0.5 for p in parent[:8]] + parent[8:]
    entry = ab_pairs.summarize(pairs("frame_s_p50", parent, change), LOWER)["frame_s_p50"]
    assert (entry["change_wins"], entry["gain"]) == (8, False)
    # every pair won, but by less than the parent's quartile distance
    change = [p - 0.01 for p in parent]
    entry = ab_pairs.summarize(pairs("frame_s_p50", parent, change), LOWER)["frame_s_p50"]
    assert entry["change_wins"] == 10 and entry["parent_iqr"] > 0.01
    assert not entry["gain"]


def test_higher_is_better_where_the_benchmark_says_so():
    entry = ab_pairs.summarize(pairs("frames_per_s", [10.0] * 10, [12.0] * 10),
                               HIGHER)["frames_per_s"]
    assert (entry["change_wins"], entry["parent_iqr"], entry["gain"]) == (10, 0.0, True)
