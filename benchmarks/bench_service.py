"""Streaming service sweep over arrival rates.

Thin CLI shim (S29): the measurement cores live in
:mod:`repro.experiments.benches` (``service_setup``,
``run_service_cell``, ``run_service_sweep``) and are registered as the
``bench_service`` experiment — ``python -m repro experiment run
bench_service`` is the canonical entry point (artifact dir + ledger).
The pytest entry points below stay here so ``pytest benchmarks/``
keeps exercising the service exactly as before.

Not a paper table, but the paper's thesis made operational: batch
proving only pays if the front-end can *form* batches from an online
stream.  The sweep replays synthetic Poisson traffic through
:class:`repro.service.ProofService` across a set of arrival rates and
reports, per rate, the achieved throughput, mean batch size, cache
absorption, and p95 end-to-end latency.  The batcher is work-conserving,
so the mean batch size follows the load.

Run directly for a report:  PYTHONPATH=src python benchmarks/bench_service.py
Quick mode (CI smoke):      PYTHONPATH=src python benchmarks/bench_service.py --quick
"""

import sys

from repro.experiments.benches import (
    run_service_cell,
    run_service_sweep,
    service_setup,
)

GATES = 96
REQUESTS = 64
RATES = (100.0, 400.0)
MAX_BATCH = 16

QUICK_REQUESTS = 16
QUICK_RATES = (100.0, 400.0)

# Back-compat aliases for the pre-S29 module-level names.
_setup = service_setup


def run_cell(cc, spec, key, *, rate, requests=REQUESTS, verify_sample=4):
    """One arrival-rate cell of the sweep."""
    return run_service_cell(
        cc, spec, key, rate=rate, requests=requests,
        max_batch=MAX_BATCH, verify_sample=verify_sample,
    )


def run_sweep(rates=RATES, requests: int = REQUESTS) -> list:
    return run_service_sweep(
        rates=rates, requests=requests, gates=GATES
    )["cells"]


def _format(rows) -> str:
    lines = [
        f"{'rate':>6} {'batches':>8} {'mean sz':>8} "
        f"{'thpt p/s':>9} {'p95 ms':>8} {'cached':>7} {'ok':>3}"
    ]
    for r in rows:
        lines.append(
            f"{r['rate']:6.0f} {r['batches']:8d} "
            f"{r['mean_batch']:8.1f} {r['throughput']:9.1f} "
            f"{r['p95_ms']:8.1f} {r['cache_absorbed']:7d} "
            f"{'y' if r['verified'] else 'N':>3}"
        )
    return "\n".join(lines)


# -- pytest entry points (quick, CI-safe) -------------------------------------

def test_bench_service_quick_cells(show):
    """Quick sweep: every cell completes, verifies, and forms batches."""
    rows = run_sweep(rates=QUICK_RATES, requests=QUICK_REQUESTS)
    show("service sweep (quick):\n" + _format(rows))
    for row in rows:
        assert row["verified"], row
        assert row["completed"] >= QUICK_REQUESTS
        assert row["batches"] >= 1


def test_bench_batch_size_follows_load(show):
    """Work-conserving batching: light traffic is proved one request at a
    time, and a 20x heavier stream of the same requests forms larger
    batches."""
    cc, spec, key = _setup()
    light = run_cell(cc, spec, key, rate=20.0, requests=QUICK_REQUESTS // 2)
    heavy = run_cell(cc, spec, key, rate=400.0, requests=QUICK_REQUESTS * 2)
    show(
        f"20/s → {light['batches']} batches (mean {light['mean_batch']:.1f}); "
        f"400/s → {heavy['batches']} batches (mean {heavy['mean_batch']:.1f})"
    )
    assert heavy["mean_batch"] >= light["mean_batch"]


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        rows = run_sweep(rates=QUICK_RATES, requests=QUICK_REQUESTS)
    else:
        rows = run_sweep()
    print(f"service sweep over {len(rows)} cells "
          f"({'quick' if quick else 'full'} mode, {GATES} gates):")
    print(_format(rows))
    if not all(r["verified"] for r in rows):
        sys.exit(1)
