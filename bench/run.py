"""The podvs benchmark.

    python3 bench/run.py --workload hw80_float --seed 0 --seconds 25 --trace 0
    python3 bench/run.py                     # every workload, untraced and traced

Each workload runs in its own fresh process (bench/child.py) with
OPENBLAS/OMP/MKL threads and PODVS_THREADS pinned to 1. With --workload
the child's report line and result line are passed through; the last
line of standard output is the result. Without --workload every workload
runs in turn, untraced and then traced unless --trace picks one, and
each metric is printed by name and unit. The program
runs from this checkout's src/, never from an installed copy.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within 180 s; the child is stopped a little before.
CHILD_TIMEOUT_S = 175

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PODVS_THREADS": "1",
}


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """(exit code, standard output) of one workload's process."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"{workload}: stopped after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, exc.stdout or ""
    return proc.returncode, proc.stdout


def parse_output(stdout: str):
    """(report, result) from a child's last two lines."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def print_table(name: str, report: dict, result: dict) -> None:
    print(f"== {name}  seed={report['seed']}  trace={report['trace']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    rows = dict(result["metrics"])
    rows.update(report.get("quality", {}))
    for metric, entry in rows.items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>14} {entry['unit']}")
    for key in ("digest", "popout_hits", "saturated_words", "problems"):
        if key in report:
            print(f"  {key:<40} {report[key]}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 feeds the synth frames unchanged; others add seeded noise")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 for per-layer metrics; default 0 with --workload, "
                             "both without")
    args = parser.parse_args(argv)

    if args.workload:
        code, stdout = run_child(args.workload, args.seed, args.seconds, args.trace or 0)
        if code != 0:
            sys.stderr.write(stdout)
            return code or 1
        sys.stdout.write(stdout)
        return 0

    status = 0
    for name in names:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            code, stdout = run_child(name, args.seed, args.seconds, trace)
            if code != 0:
                sys.stderr.write(stdout)
                print(f"== {name} trace={trace}: failed with exit code {code}")
                status = 1
                continue
            report, result = parse_output(stdout)
            print_table(name, report, result)
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
