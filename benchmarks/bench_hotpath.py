"""Hot-path kernels: end-to-end prover speedup vs the reference path.

Thin CLI shim (S29): the measurement core lives in
:func:`repro.experiments.benches.run_hotpath` and is registered as the
``bench_hotpath`` experiment — ``python -m repro experiment run
bench_hotpath`` is the canonical entry point (artifact dir + ledger).
This script keeps the legacy interface: the ``--min-speedup`` guard
(default 1.2x, exits nonzero below it), ``--quick`` CI sizes, and a
JSON dump (now the normalized ExperimentResult schema, written to the
repo root by default rather than the shell's cwd).

Run directly for a report:  PYTHONPATH=src python benchmarks/bench_hotpath.py
Quick mode (CI smoke):      PYTHONPATH=src python benchmarks/bench_hotpath.py --quick
"""

import argparse
import json

from repro.experiments import default_bench_json, execute_spec, get_experiment
from repro.experiments.benches import run_hotpath  # noqa: F401  (back-compat)

GATES = 1 << 16
REPS = 3
QUICK_GATES = 1024
QUICK_REPS = 2


def _report(row: dict) -> None:
    print(
        f"[hotpath]   {row['gates']} gates ({row['hasher']}) | reference "
        f"{row['reference_seconds'] * 1e3:7.1f} ms | fast "
        f"{row['warm_proof_ms']:7.1f} ms (warm_proof_ms) | speedup "
        f"{row['speedup']:.2f}x | bytes identical: {row['byte_identical']}"
    )
    for mode in ("reference", "fast"):
        stages = row[f"{mode}_stages"]
        split = "  ".join(
            f"{name} {seconds * 1e3:.1f}ms" for name, seconds in stages.items()
        )
        print(f"[stages]    {mode:9s} {split}")
    print(
        f"[hashing]   compress_layer per node: "
        f"{row['compress_us_per_node_64']:.2f} us at 64 blocks (SWAR), "
        f"{row['compress_us_per_node_4096']:.2f} us at 4096 (wide)"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--gates", type=int, default=None, help="circuit size override"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when fast/reference speedup drops below this "
        "(default: the registered guard's 1.2)",
    )
    parser.add_argument(
        "--out",
        default=str(default_bench_json("BENCH_hotpath.json")),
        help="where to write the JSON results",
    )
    args = parser.parse_args()

    spec = get_experiment("bench_hotpath")
    result = execute_spec(
        spec,
        quick=args.quick,
        param_overrides={"gates": args.gates} if args.gates else None,
        guard_overrides=(
            {"min_speedup": args.min_speedup}
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
    print(f"[hotpath]   wrote {args.out}")

    failures = result.guard_failures
    if failures:
        raise SystemExit(f"perf regression: {failures[0].detail}")
