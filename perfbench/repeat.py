#!/usr/bin/env python3
"""Run the same code twice and compare the two sets with the bounds.

    python3 perfbench/repeat.py [--runs N] [--seconds S] [--workload NAME ...]

Two sets of ``N`` untraced runs per workload, run ``k`` of either set with
seed ``7 + k``.  Per end-to-end metric x workload it prints the two
medians, their relative difference in the metric's worse direction
beside its bound, and (``N`` >= 4) the spread of each set: the distance
between the quartiles over the median.  Exits non-zero if a difference
or a spread (``setup_s`` excepted) exceeds the bound, if any operation
failed, or if a seed's ``proof_sha256`` differs between the sets.
``--runs 10`` is the acceptance check of this benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASE_SEED = 7


def run_once(workload: str, seed: int, seconds, out_file: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_file)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if done.returncode:
        sys.stderr.write(done.stderr)
    with open(out_file) as f:
        report = json.load(f)["reports"][0]
    report["wall_s"] = wall
    report["exit"] = done.returncode
    return report


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, sets, workloads) -> int:
    """Print the table of the two sets; returns 1 if anything is over."""
    runs = len(sets[0][workloads[0]])
    worst = 0
    print(f"{'workload':<14}{'metric':<16}{'set 1':>12}{'set 2':>12}{'worse by':>10}"
          f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
    for w in workloads:
        first, second = sets[0][w], sets[1][w]
        for r1, r2 in zip(first, second):
            if r1["notes"]["proof_sha256"] != r2["notes"]["proof_sha256"]:
                print(f"{w}: proof_sha256 differs between the sets at seed {r1['seed']}")
                worst = 1
        failed = sum(r["failed"] for r in first + second)
        if failed or any(r["exit"] for r in first + second):
            print(f"{w}: {failed} failed operations")
            worst = 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in first]
            b = [r["metrics"][name]["value"] for r in second]
            m1, m2 = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (m2 - m1) / m1
            spreads = [spread(a), spread(b)] if runs >= 4 else [float("nan")] * 2
            over = worse_by > bound or (
                name != "setup_s" and any(x > bound for x in spreads)
            )
            worst |= over
            print(f"{w:<14}{name:<16}{m1:>12.5g}{m2:>12.5g}{worse_by:>+10.2%}"
                  f"{spreads[0]:>10.2%}{spreads[1]:>10.2%}{bound:>8.0%}"
                  + ("  OVER" if over else ""))
        walls = [r["wall_s"] for r in first + second]
        print(f"{w:<14}{'(wall per run)':<16}{statistics.median(walls):>12.1f} s")
    return int(worst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per set and workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--dump", help="also write every run's report as JSON to this file")
    args = parser.parse_args(argv)

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets = []
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="repeat-") as tmp:
        for _ in range(2):
            reports = {
                w: [
                    run_once(w, BASE_SEED + k, args.seconds, Path(tmp) / "report.json")
                    for k in range(args.runs)
                ]
                for w in workloads
            }
            sets.append(reports)

    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(sets, f, indent=1)

    return compare(spec, sets, workloads)


if __name__ == "__main__":
    sys.exit(main())
