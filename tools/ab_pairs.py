"""Alternating A/B runs of the benchmark: a parent commit against this checkout.

    python3 tools/ab_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_N.json \\
        --change "what the change does" [--workload hw112_fixed ...] [--seed 0 7] \\
        [--seconds 25] [--traced]

The parent commit is exported with ``git archive`` into a temporary
directory (under $TMPDIR), which is removed at the end.  The change side
is this checkout's working tree.  For each seed given (0 by default) and
each workload, each pair runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` from both sides, one process at a time, which
starts that side's ``bench/child.py`` with BLAS threads pinned to 1; the
parent goes first in even pairs and the change in odd ones.
``--traced`` adds one traced run a side per workload and seed.

The output is one JSON file, rewritten each time a workload's pairs of
one seed are done.  Under ``workloads``, per workload and per seed (keys
"0", "7", ...), it holds the pairs (the four end-to-end metrics of each
side, correctness, failures, attempts, map digests and saturated words)
and, per metric, each side's median and quartiles
(``statistics.quantiles(n=4)``, as in ``bench/scoring.summary``), the
parent's quartile distance, the pairs the change wins (better by the
direction BENCHMARK.json gives; ties count for neither side) and
``gain``: the change won at least nine tenths of the pairs and the
medians differ by more than the parent's quartile distance, the rule
under which a gain may be claimed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Host facts copied from the change side's report.
HOST_KEYS = ("nproc", "affinity_cpus", "python", "numpy", "scipy")


def export(commit: str, dest: Path) -> str:
    """Write ``commit``'s tree into ``dest``; returns its full hash."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           f"{commit}^{{commit}}"],
                          check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", full],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return full


def run(side: Path, workload: str, seed: int, seconds: float, trace: int):
    """(report, result) of one ``bench/run.py`` process from checkout ``side``."""
    cmd = [sys.executable, str(side / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{side}: {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def pair(sides: dict, order: tuple, workload: str, seed: int, seconds: float):
    """One untraced run a side, in ``order``: (the record of BENCH_*.json's
    pairs, the change side's host facts)."""
    runs = {name: run(sides[name], workload, seed, seconds, 0) for name in order}
    record = {"order": f"{order[0]} first"}
    for name in ("parent", "change"):
        record[name] = {k: v["value"] for k, v in runs[name][1]["metrics"].items()}
    for key in ("correct", "failed", "attempted"):
        record[key] = [runs[name][1][key] for name in ("parent", "change")]
    record["digest"] = {name: runs[name][0]["digest"] for name in ("parent", "change")}
    record["saturated_words"] = [runs[name][0].get("saturated_words")
                                 for name in ("parent", "change")]
    return record, {k: runs["change"][0]["host"][k] for k in HOST_KEYS}


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs, metrics) -> dict:
    """Per end-to-end metric: medians, quartiles, wins and the gain rule."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q = quartiles(parent)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        gained = (p_med - c_med) if lower else (c_med - p_med)
        iqr = p_q[1] - p_q[0]
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "rel_change": c_med / p_med - 1.0,
            "parent_quartiles": p_q,
            "change_quartiles": quartiles(change),
            "parent_iqr": iqr,
            "change_wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and gained > iqr,
        }
    return out


def workload_entry(sides: dict, workload: str, seed: int, args, metrics):
    """One workload's pairs at one seed, their summary and, with
    ``--traced``, one traced run a side: (the entry, the change side's
    host facts)."""
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        record, host = pair(sides, order, workload, seed, args.seconds)
        pairs.append(record)
        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} {record[name]['frame_s_p50']:.4f}" for name in order), file=sys.stderr)
    digests = {d for p in pairs for d in p["digest"].values()}
    entry = {"seed": seed, "pairs": pairs, "digests_equal": len(digests) == 1,
             "summary": summarize(pairs, metrics)}
    if args.traced:
        entry["traced"] = {}
        for name, side in sides.items():
            report, result = run(side, workload, seed, args.seconds, 1)
            entry["traced"][name] = {
                "correct": result["correct"], "digest": report["digest"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "quality": {k: v["value"] for k, v in report.get("quality", {}).items()},
                "layers": report["layers"],
            }
    return entry, host


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable); default every workload")
    parser.add_argument("--seed", type=int, nargs="+", default=[0],
                        help="the benchmark seeds to run, each with --pairs pairs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run a side per workload and seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    doc = {
        "change": args.change,
        "protocol": (f"python3 bench/run.py --workload W --seed S --seconds "
                     f"{args.seconds:g} --trace 0, run from two checkouts (parent commit, "
                     "change) one at a time, alternating which side goes first in each pair; "
                     "times in wall seconds on ref640_float and reference-host seconds on the "
                     "hw workloads; quartiles are statistics.quantiles(n=4) as in "
                     f"bench/scoring.summary; seeds S: {', '.join(map(str, args.seed))}"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        doc["parent_commit"] = export(args.parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for seed in args.seed:
            for workload in args.workload or names:
                entry, doc["host"] = workload_entry(sides, workload, seed, args, spec["end_to_end"])
                doc["workloads"].setdefault(workload, {})[str(seed)] = entry
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
