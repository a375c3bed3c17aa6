"""Check that the benchmark is steady, and record a trajectory point.

    python3 bench/steadiness.py --runs 10 --out bench/trajectory/<name>.json

Runs `bench/run.py` untraced once per seed for every workload (seeds
first-seed .. first-seed+runs-1, workloads interleaved), then once
traced at the first seed. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as
a share of the median, against the metric's bound in BENCHMARK.json:
a spread should stay below a third of the bound (set-up time is
reported but not held to this). It also projects the wall time of the
4 + 22 x workloads runs a full comparison makes. Exits 1 when a run
fails or a spread reaches its bound.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import scoring

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    """(result, report, wall seconds) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=all_names,
                        help="repeatable; default every workload")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    names = args.workload or all_names
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result, report, wall = run(name, seed, spec["run_seconds"], 0)
            runs[name].append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                               "failed": result["failed"], "metrics": result["metrics"],
                               "report": report})
            print(f"{name} seed={seed} wall={wall:.1f}s " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    traced = {}
    for name in names:
        result, report, wall = run(name, args.first_seed, spec["run_seconds"], 1)
        traced[name] = {"seed": args.first_seed, "wall_s": wall, "correct": result["correct"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                        **{k: report[k] for k in ("problems", "digest", "quality",
                                                  "fidelity_pcc_per_clip") if k in report}}
        print(f"{name} traced wall={wall:.1f}s correct={result['correct']} "
              f"coverage={traced[name]['metrics']['trace.coverage']:.4f} "
              f"overhead={traced[name]['metrics']['trace.overhead']:+.4f}", flush=True)

    ok = all(r["correct"] for rs in runs.values() for r in rs)
    ok = ok and all(t["correct"] for t in traced.values())
    summary = {}
    print(f"\n{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        summary[name] = {"metrics": {}, "quality": {}}
        for m in spec["end_to_end"]:
            s = scoring.summary([r["metrics"][m["name"]]["value"] for r in runs[name]])
            s.update(unit=m["unit"], bound=m["bound"])
            summary[name]["metrics"][m["name"]] = s
            steady = s["spread"] < m["bound"] / 3
            if m["name"] != "setup_s" and s["spread"] >= m["bound"]:
                ok = False
            flag = "" if steady else ("  (setup, not held)" if m["name"] == "setup_s"
                                      else "  NOT STEADY")
            print(f"{name:<14} {m['name']:<14} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {m['bound']:>6}{flag}")
        for q in runs[name][0]["report"]["quality"]:
            summary[name]["quality"][q] = {
                r["seed"]: r["report"]["quality"][q]["value"] for r in runs[name]}
        summary[name]["digest_by_seed"] = {r["seed"]: r["report"]["digest"] for r in runs[name]}
        summary[name]["wall_s"] = scoring.summary([r["wall_s"] for r in runs[name]])
        summary[name]["traced"] = traced[name]

    walls = {n: summary[n]["wall_s"]["median"] for n in names}
    projected = 22 * sum(walls.values()) + 4 * max(walls.values())
    print(f"\nmedian wall per run: " + ", ".join(f"{n} {w:.1f}s" for n, w in walls.items()))
    print(f"projected 4 + 22 x {len(names)} runs: {projected:.0f} s")
    if args.out:
        doc = {
            "seeds": seeds,
            "host": runs[names[0]][0]["report"]["host"],
            "projected_comparison_s": projected,
            "workloads": summary,
            "runs": runs,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
