"""The gain rule, the seeds and the resource usage of the A/B runner in
tools/ab_pairs.py."""
import importlib.util
import json
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


def test_several_seeds_go_into_one_file(tmp_path, monkeypatch):
    # ``run`` is faked, so no benchmark runs: the change side is 10% faster
    # and takes half the parent's page faults and system time over its 4
    # attempted frames
    calls = []
    children = {"faults": 0, "sys_s": 0.0}

    def fake_run(side, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        share = 0.5 if side == ab_pairs.ROOT else 1.0
        children["faults"] += int(800 * share)
        children["sys_s"] += 0.2 * share
        frame_s = (0.9 if side == ab_pairs.ROOT else 1.0) * (1 + seed / 100)
        metrics = {"frame_s_p50": frame_s, "frames_per_s": 1 / frame_s,
                   "setup_s": 2.0, "peak_rss_mb": 150.0}
        report = {"digest": f"d{seed}", "saturated_words": 0,
                  "host": dict.fromkeys(ab_pairs.HOST_KEYS, "x")}
        result = {"metrics": {k: {"value": v} for k, v in metrics.items()},
                  "correct": True, "failed": 0, "attempted": 4}
        return report, result

    monkeypatch.setattr(ab_pairs, "run", fake_run)
    monkeypatch.setattr(ab_pairs, "child_usage",
                        lambda: (children["faults"], children["sys_s"]))
    monkeypatch.setattr(ab_pairs, "export", lambda commit, dest: "f" * 40)
    out = tmp_path / "ab.json"
    assert ab_pairs.main(["--parent", "HEAD", "--pairs", "2", "--out", str(out),
                          "--change", "c", "--workload", "hw80_float", "--seed", "0", "7"]) == 0
    doc = json.loads(out.read_text())
    entries = doc["workloads"]["hw80_float"]
    assert sorted(entries) == ["0", "7"]
    for seed, entry in entries.items():
        assert entry["seed"] == int(seed)
        assert [p["order"] for p in entry["pairs"]] == ["parent first", "change first"]
        assert entry["digests_equal"]
        summary = entry["summary"]["frame_s_p50"]
        assert (summary["change_wins"], summary["pairs"]) == (2, 2)
        assert summary["change_median"] == pytest.approx(0.9 * (1 + int(seed) / 100))
        for p in entry["pairs"]:
            assert p["faults_per_frame"] == [200, 100]
            assert p["sys_s_per_frame"] == pytest.approx([0.05, 0.025])
        # medians per side, kept out of the gain rule's summary
        assert entry["usage"]["faults_per_frame"] == {"parent": 200, "change": 100}
        assert entry["usage"]["sys_s_per_frame"] == pytest.approx(
            {"parent": 0.05, "change": 0.025})
        assert set(entry["summary"]) == {"frame_s_p50", "frames_per_s", "setup_s",
                                         "peak_rss_mb"}
    # two pairs of one run a side for each seed, untraced, seed 0 first
    assert calls == [("hw80_float", 0, 0)] * 4 + [("hw80_float", 7, 0)] * 4
    assert "seeds S: 0, 7" in doc["protocol"]
