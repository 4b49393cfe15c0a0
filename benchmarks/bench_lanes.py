"""Lane-vectorized prover: fused same-circuit batches vs serial proving.

Thin CLI shim (S29): the measurement core lives in
:func:`repro.experiments.benches.run_lanes` and is registered as the
``bench_lanes`` experiment — ``python -m repro experiment run
bench_lanes`` is the canonical entry point (artifact dir + ledger).
This script keeps the legacy interface: the ``--min-speedup`` guard
(default 2.0x, exits nonzero below it), ``--quick`` CI sizes, and a
JSON dump in the normalized ExperimentResult schema.

Run directly for a report:  PYTHONPATH=src python benchmarks/bench_lanes.py
Quick mode (CI smoke):      PYTHONPATH=src python benchmarks/bench_lanes.py --quick
"""

import argparse
import json

from repro.experiments import default_bench_json, execute_spec, get_experiment
from repro.experiments.benches import run_lanes  # noqa: F401  (back-compat)


def _report(row: dict) -> None:
    print(
        f"[lanes]     {row['gates']} gates x {row['lanes']} lanes | serial "
        f"{row['serial_seconds'] * 1e3:7.1f} ms | laned "
        f"{row['laned_seconds'] * 1e3:7.1f} ms | speedup "
        f"{row['lane_speedup']:.2f}x | bytes identical: "
        f"{row['byte_identical']}"
    )
    print(
        f"[lanes]     throughput: serial {row['serial_throughput']:.1f} "
        f"proofs/s -> laned {row['laned_throughput']:.1f} proofs/s"
    )
    print(
        f"[lanes]     default prove_all, {row['default_gates']} gates x "
        f"{row['default_tasks']} tasks: serial "
        f"{row['default_serial_throughput']:.1f} proofs/s -> default "
        f"{row['default_throughput']:.1f} proofs/s "
        f"({row['default_over_serial']:.2f}x)"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--gates", type=int, default=None, help="circuit size override"
    )
    parser.add_argument(
        "--lanes", type=int, default=None, help="lane width override"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when laned/serial speedup drops below this "
        "(default: the registered guard's 2.0)",
    )
    parser.add_argument(
        "--out",
        default=str(default_bench_json("BENCH_lanes.json")),
        help="where to write the JSON results",
    )
    args = parser.parse_args()

    overrides = {}
    if args.gates:
        overrides["gates"] = args.gates
    if args.lanes:
        overrides["lanes"] = args.lanes
    spec = get_experiment("bench_lanes")
    result = execute_spec(
        spec,
        quick=args.quick,
        param_overrides=overrides or None,
        guard_overrides=(
            {"lane_speedup": args.min_speedup}
            if args.min_speedup is not None
            else None
        ),
    )
    if result.status == "error":
        raise SystemExit(result.error)
    _report(result.data)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[lanes]     wrote {args.out}")

    failures = result.guard_failures
    if failures:
        raise SystemExit(f"perf regression: {failures[0].detail}")
