#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the real CPU prover.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1 | --traced] [--smoke] [--out FILE]

Each workload is measured in a fresh interpreter that this process
launches (one at a time); set-up is repeated in further fresh
interpreters and reported as the median.  Without ``--workload`` every
workload runs in turn.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The exit
code is non-zero when any correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT_DIR = HERE / "out"
SETUP_SAMPLES = 3
QUICK_SETUP_S = 1.0  # a set-up this short is noisier and cheap: sample it more
QUICK_SETUP_SAMPLES = 5
SMOKE_SECONDS = 2


def load_spec() -> dict:
    with open(SPEC_FILE) as f:
        return json.load(f)


def fingerprint() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
    }


# -- the workload's own interpreter ------------------------------------------


def emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def child_main(args) -> int:
    """Set up, signal, measure, report: runs in a fresh interpreter."""
    sys.path.insert(0, str(SRC))
    import resource

    import workloads as wl

    env = wl.setup(args.workload, args.seed, args.smoke)
    emit({"event": "setup_done"})
    if args.setup_only:
        return 0

    cfg = env.cfg
    seconds = float(args.seconds)
    if not args.trace:
        if cfg["kind"] == "serve":
            events, tasks = wl.serve_inputs(env, seconds)
            out = wl.measure_serve(env, events, tasks)
        else:
            tasks = wl.make_tasks(env, cfg["tasks"])
            ref = wl.reference_bytes(env, tasks)
            measure = wl.measure_single if cfg["kind"] == "single" else wl.measure_batch
            out = measure(env, tasks, ref, seconds)
            out.notes["proof_sha256"] = wl.digest_of(ref)
        out.metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    else:
        import layers
        from spans import Spans

        spans = Spans()
        out = wl.Outcome()
        notes = out.notes
        if cfg["kind"] == "serve":
            # Half the run traced, half plain, over the same arrivals.
            events, tasks = wl.serve_inputs(env, seconds / 2)
            proving_tasks = tasks[:16]
            proving_seconds = seconds / 8
        else:
            proving_tasks = wl.make_tasks(env, cfg["tasks"])
            proving_seconds = seconds / 2
        ref = wl.reference_bytes(env, proving_tasks)
        notes["proof_sha256"] = wl.digest_of(ref)
        scalar_s = layers.trace_proofs(
            env, proving_tasks, ref, proving_seconds, spans, out
        )
        layers.probe_layers(env, proving_tasks[0], spans, out)
        layers.probe_lanes(env, proving_tasks, ref, scalar_s, spans, out)
        if cfg.get("grid"):
            layers.probe_execution(env, proving_tasks, ref, spans, out)
        if cfg.get("wrappers"):
            layers.probe_wrappers(env, proving_tasks, ref, spans, out)
        if cfg["kind"] == "serve":
            # Last: on a serving workload the tracing overhead is that of
            # the timing wrapper on request latency, not of stage spans.
            layers.trace_service(env, events, tasks, seconds / 4, spans, out)
        if out.metrics["core.stage_sum_over_wall"] < layers.STAGE_SUM_FLOOR:
            out.failed += 1
            notes["stage_sum_below_floor"] = True
        span_file = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        spans.write(span_file)
        notes["span_file"] = str(span_file)
        notes["spans"] = len(spans.rows)
        notes["self_seconds"] = spans.self_seconds()
    emit(
        {
            "event": "result",
            "metrics": out.metrics,
            "attempted": out.attempted,
            "failed": out.failed,
            "notes": out.notes,
        }
    )
    return 0


# -- the launching process -----------------------------------------------------


def launch(args, workload: str, setup_only: bool, out_dir: Path) -> Tuple[float, Optional[dict]]:
    """Run one fresh interpreter; returns (set-up seconds, its result).

    Set-up time runs from the spawn to the child's ``setup_done`` line, so
    it includes interpreter start and imports.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    setup_s = None
    result = None
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            for line in proc.stdout:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(event, dict):
                    continue
                if event.get("event") == "setup_done":
                    setup_s = time.perf_counter() - start
                elif event.get("event") == "result":
                    result = event
        except BaseException:
            proc.kill()
            raise
    code = proc.returncode
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"workload {workload!r} interpreter failed (exit {code})")
    return setup_s, result


def run_workload(args, spec: dict, workload: str, out_dir: Path) -> dict:
    """All interpreters of one workload; returns its report."""
    setups: List[float] = []
    wanted = 1 if args.smoke or args.trace else SETUP_SAMPLES
    while len(setups) < wanted - 1:
        setups.append(launch(args, workload, True, out_dir)[0])
        if setups[0] < QUICK_SETUP_S:
            wanted = QUICK_SETUP_SAMPLES
    setup_s, result = launch(args, workload, False, out_dir)
    setups.append(setup_s)
    measured: Dict[str, float] = dict(result["metrics"])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    missing = [] if args.trace else [m["name"] for m in listed if m["name"] not in measured]
    unlisted = sorted(set(measured) - {m["name"] for m in listed})
    if missing or unlisted:
        raise RuntimeError(
            f"{workload}: metrics out of step with BENCHMARK.json "
            f"(missing {missing}, unlisted {unlisted})"
        )
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in listed
            if m["name"] in measured
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "setup_samples_s": setups,
        "notes": result["notes"],
    }


def print_report(report: dict) -> None:
    mode = "traced, per layer" if report["trace"] else "untraced, end to end"
    print(f"== {report['workload']}  ({mode}; seed {report['seed']}, {report['seconds']} s)")
    for name, entry in report["metrics"].items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'operations attempted':<40} {report['attempted']:>16d}")
    print(f"  {'operations failed':<40} {report['failed']:>16d}")
    for key, value in report["notes"].items():
        if key != "self_seconds":
            print(f"  note {key}: {value}")
    sys.stdout.flush()


def contract_line(spec: dict, reports: List[dict], trace: int) -> dict:
    """The driver's result object.  It wants every listed metric on every
    run: a layer metric of a layer the workload never enters is 0 there
    (and absent from the table above)."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}/" if len(reports) > 1 else ""
        for m in listed:
            entry = report["metrics"].get(m["name"], {"value": 0.0, "unit": m["unit"]})
            metrics[prefix + m["name"]] = entry
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="2^6-gate circuits and 2 s runs: checks the harness, not the prover")
    parser.add_argument("--out", help="write the full report as JSON to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC_FILE.is_file():
        print(f"perfbench: no prover source at {SRC} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    out_dir = Path(args.out).resolve().parent if args.out else DEFAULT_OUT_DIR

    host = fingerprint()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if host["loadavg_1m"] > 1.0:
        print(f"perfbench: warning: load average {host['loadavg_1m']:.2f} > 1, "
              "timings will be noisy", file=sys.stderr)

    reports = []
    for workload in [args.workload] if args.workload else names:
        report = run_workload(args, spec, workload, out_dir)
        print_report(report)
        reports.append(report)
    if args.out:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"host": host, "smoke": args.smoke, "reports": reports}, f, indent=1)
    line = contract_line(spec, reports, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
