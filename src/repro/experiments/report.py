"""Report rendering: per-run ``report.md`` and the EXPERIMENTS.md body.

This is the one home of the markdown-table helpers (``md_table`` /
``fmt``): the per-run artifact report and the repo-level EXPERIMENTS.md
render through the same functions, from the same normalized
:class:`~repro.experiments.spec.ExperimentResult` payloads — no bespoke
table code per consumer.
"""

from __future__ import annotations

import io
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ExperimentError
from .registry import get_experiment
from .spec import ExperimentResult

# -- shared markdown helpers ---------------------------------------------------


def md_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A GitHub-flavored markdown table."""
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "---|" * len(headers)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fmt(v: Optional[float], digits: int = 4) -> str:
    """Compact numeric cell; ``None`` renders as an em dash."""
    if v is None:
        return "—"
    return f"{v:.{digits}g}"


# -- per-run report ------------------------------------------------------------


def _guard_cell(result: ExperimentResult) -> str:
    if not result.guards:
        return "—"
    parts = []
    for v in result.guards:
        if not v.enforced:
            mark = "skipped"
        elif v.passed:
            mark = "ok"
        else:
            mark = "**FAIL**"
        parts.append(
            f"{v.guard} ({v.metric} {v.op} {fmt(v.threshold)}: "
            f"{fmt(v.value)}) {mark}"
        )
    return "; ".join(parts)


def render_run_report(
    run_id: str,
    results: Sequence[ExperimentResult],
    *,
    git_rev: str = "unknown",
    host: Optional[Mapping[str, Any]] = None,
    quick: bool = False,
    label: str = "",
) -> str:
    """The ``report.md`` body for one run's artifact directory."""
    buf = io.StringIO()
    buf.write(f"# Experiment run `{run_id}`\n\n")
    if label:
        buf.write(f"**Label:** {label}\n\n")
    started = min(
        (r.started_at for r in results), default=time.time()
    )
    buf.write(
        f"- **git rev:** `{git_rev}`\n"
        f"- **mode:** {'quick' if quick else 'full'}\n"
        f"- **started:** "
        f"{time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime(started))}\n"
    )
    if host:
        buf.write(
            f"- **host:** {host.get('platform', '?')} · "
            f"python {host.get('python', '?')} · "
            f"{host.get('cpu_count', '?')} cores\n"
        )
    buf.write("\n## Experiments\n\n")
    buf.write(
        md_table(
            ["experiment", "status", "duration", "guards"],
            [
                [
                    f"[`{r.name}`]({r.name}.json)",
                    r.status if r.ok else f"**{r.status}**",
                    f"{r.duration_seconds:.2f}s",
                    _guard_cell(r),
                ]
                for r in results
            ],
        )
    )
    buf.write("\n")
    failures = [r for r in results if not r.ok]
    if failures:
        buf.write("\n## Failures\n\n")
        for r in failures:
            buf.write(f"### `{r.name}` — {r.status}\n\n")
            if r.error:
                buf.write(f"```\n{r.error}\n```\n\n")
            for v in r.guard_failures:
                buf.write(f"- guard `{v.guard}`: {v.detail}\n")
            buf.write("\n")
    buf.write("\n## Headline metrics\n\n")
    rows = []
    for r in results:
        watched = {v.metric for v in r.guards}
        for metric in sorted(r.metrics):
            if watched and metric not in watched:
                continue
            if not watched and len(r.metrics) > 8:
                continue
            rows.append([f"`{r.name}`", f"`{metric}`", fmt(r.metrics[metric])])
    if rows:
        buf.write(md_table(["experiment", "metric", "value"], rows))
    else:
        buf.write("(no guard-covered metrics in this run)")
    buf.write(
        "\n\nFull numbers: the per-experiment `<name>.json` files beside "
        "this report; cross-run history: `python -m repro experiment "
        "history <name> <metric>`.\n"
    )
    return buf.getvalue()


# -- EXPERIMENTS.md ------------------------------------------------------------

#: The experiments EXPERIMENTS.md is rendered from: the paper's
#: artifacts, then the reproduction's own analyses of its design.
PAPER_EXPERIMENTS = (
    "table3", "table4", "table5", "table6", "fig9", "table7", "breakdown",
    "table8", "table9", "table10", "table11",
    "ablations", "frontier", "sensitivity",
)


def _rows(result: ExperimentResult) -> List[Dict[str, Any]]:
    return list(result.data["rows"])


def _module_section(buf: io.StringIO, title: str, rows, unit: str) -> None:
    buf.write(f"\n### {title}\n\n")
    buf.write(
        md_table(
            ["size", f"CPU baseline {unit}", "paper", f"GPU baseline {unit}",
             "paper", f"ours {unit}", "paper", "ours/CPU", "ours/GPU"],
            [
                [
                    r["label"],
                    fmt(r["values"]["cpu"]), fmt(r["values"].get("cpu_paper")),
                    fmt(r["values"]["gpu_baseline"]),
                    fmt(r["values"].get("gpu_baseline_paper")),
                    fmt(r["values"]["ours"]), fmt(r["values"].get("ours_paper")),
                    fmt(r["values"]["speedup_vs_cpu"], 4) + "x",
                    fmt(r["values"]["speedup_vs_gpu"], 3) + "x",
                ]
                for r in rows
            ],
        )
    )
    buf.write("\n")


def _claims_table(result: ExperimentResult) -> str:
    """One row per guard: the claim it encodes, its bound, the value."""
    claims = {g.name: g.description for g in get_experiment(result.name).guards}
    return md_table(["claim", "guard", "measured"], [
        [claims[v.guard], f"`{v.metric}` {v.op} {fmt(v.threshold)}", fmt(v.value)]
        for v in result.guards
    ])


def render_experiments_md(
    results: Mapping[str, ExperimentResult]
) -> str:
    """The full EXPERIMENTS.md body from the catalog's results.

    ``results`` must hold every name in :data:`PAPER_EXPERIMENTS`
    (a ``reproduce-all`` run provides them all).
    """
    missing = [n for n in PAPER_EXPERIMENTS if n not in results]
    if missing:
        raise ExperimentError(
            "cannot render EXPERIMENTS.md: missing results for "
            + ", ".join(missing)
        )
    buf = io.StringIO()
    buf.write(
        """# EXPERIMENTS — paper vs. measured

Every evaluation artifact of the BatchZK paper (Tables 3–11, Figure 9),
regenerated by this repository's calibrated simulator and functional code.
Regenerate this file with `python -m repro experiment reproduce-all`
(which also re-runs every extension bench into a per-run artifact
directory and appends the cross-run perf ledger); `python -m repro
experiment run NAME` reruns one section, and the guards of `ablations`,
`frontier` and `sensitivity` check the claims of the last three.

**Reading guide.** "paper" columns are the published values; "measured"
columns are this reproduction. Per-operation GPU/CPU costs were calibrated
once against a handful of anchor cells (documented in
`src/repro/gpu/costs.py`); everything else — scalings across sizes,
baselines, devices, speedup factors, crossovers — is produced by the
scheduling/cost model. Expect the *shape* to match (orderings, factors
within ~±30%); absolute cells the paper's own tables disagree on
(its CPU baselines differ between Tables 3–5 and Table 7) match their own
table's calibration.
"""
    )

    _module_section(
        buf, "Table 3 — Merkle tree throughput (trees/ms, GH200)",
        _rows(results["table3"]), "(trees/ms)")
    _module_section(
        buf, "Table 4 — sum-check throughput (proofs/ms, GH200)",
        _rows(results["table4"]), "(proofs/ms)")
    _module_section(
        buf, "Table 5 — linear-time encoder throughput (codes/ms, GH200)",
        _rows(results["table5"]), "(codes/ms)")

    buf.write("\n### Table 6 — module latency (ms): pipelining's honest cost\n\n")
    buf.write(
        md_table(
            ["size/module", "baseline ms", "paper", "ours ms", "paper",
             "baseline/ours"],
            [
                [r["label"], fmt(r["values"]["baseline_ms"]),
                 fmt(r["values"]["baseline_paper"]),
                 fmt(r["values"]["ours_ms"]), fmt(r["values"]["ours_paper"]),
                 fmt(r["values"]["ratio"], 3)]
                for r in _rows(results["table6"])
            ],
        )
    )
    buf.write(
        "\n\nThe pipelined modules trade latency for throughput exactly as the "
        "paper reports (ours is slower *per item* in every row).\n"
    )

    buf.write("\n### Figure 9 — GPU core utilization (3090Ti, 10,752 cores)\n\n")
    fig9 = results["fig9"].data["modules"]
    buf.write(
        md_table(
            ["module", "pipelined mean util", "baseline mean util"],
            [
                [m, fmt(t["ours_mean"], 3), fmt(t["baseline_mean"], 3)]
                for m, t in fig9.items()
            ],
        )
    )
    buf.write(
        "\n\nPipelined modules hold near-peak *useful-work* utilization through "
        "the batch (means include fill/drain ramps); the kernel-per-task "
        "baselines decay as stage work shrinks, matching Figure 9's profiles. "
        "Full time-series traces: `repro.bench.compute_fig9()` or the "
        "sparklines in `examples/module_pipelines.py`.\n"
    )

    buf.write("\n### Table 7 — amortized per-proof time (ms, GH200)\n\n")
    buf.write(
        md_table(
            ["scale", "Libsnark", "Bellperson", "Orion&Arkworks",
             "ours merkle (paper)", "ours sumcheck (paper)",
             "ours encoder (paper)", "ours total (paper)",
             "vs Bellperson", "vs Orion&Ark"],
            [
                [
                    r["label"],
                    fmt(r["values"]["libsnark_ms"], 5),
                    fmt(r["values"]["bellperson_ms"], 5),
                    fmt(r["values"]["orion_ark_ms"], 5),
                    f"{fmt(r['values']['ours_merkle_ms'])} "
                    f"({fmt(r['values']['ours_merkle_paper'])})",
                    f"{fmt(r['values']['ours_sumcheck_ms'])} "
                    f"({fmt(r['values']['ours_sumcheck_paper'])})",
                    f"{fmt(r['values']['ours_encoder_ms'])} "
                    f"({fmt(r['values']['ours_encoder_paper'])})",
                    f"{fmt(r['values']['ours_ms'])} "
                    f"({fmt(r['values']['ours_paper'])})",
                    fmt(r["values"]["speedup_vs_bellperson"], 4) + "x",
                    fmt(r["values"]["speedup_vs_orion_ark"], 4) + "x",
                ]
                for r in _rows(results["table7"])
            ],
        )
    )
    bd = results["breakdown"].data
    buf.write(
        f"\n\n**§6.3 speedup decomposition @ S=2^20:** protocol "
        f"{fmt(bd['protocol_speedup'], 3)}x (paper {bd['paper_protocol_speedup']}x), "
        f"pipeline {fmt(bd['pipeline_speedup'], 3)}x (paper "
        f"{bd['paper_pipeline_speedup']}x).\n"
    )

    buf.write("\n### Table 8 — across GPUs @ S = 2^20\n\n")
    buf.write(
        md_table(
            ["GPU", "Bell latency s (paper)", "ours latency s (paper)",
             "Bell thpt /s (paper)", "ours thpt /s (paper)", "thpt speedup"],
            [
                [
                    r["label"],
                    f"{fmt(r['values']['bell_latency_s'])} "
                    f"({fmt(r['values']['bell_latency_paper'])})",
                    f"{fmt(r['values']['ours_latency_s'])} "
                    f"({fmt(r['values']['ours_latency_paper'])})",
                    f"{fmt(r['values']['bell_throughput'])} "
                    f"({fmt(r['values']['bell_throughput_paper'])})",
                    f"{fmt(r['values']['ours_throughput'])} "
                    f"({fmt(r['values']['ours_throughput_paper'])})",
                    fmt(r["values"]["throughput_speedup"], 4) + "x",
                ]
                for r in _rows(results["table8"])
            ],
        )
    )
    buf.write(
        "\n\nThe paper's headline '259.5x on V100' corresponds to the V100 row's "
        "throughput speedup.\n"
    )

    buf.write("\n### Table 9 — communication/computation overlap per beat\n\n")
    buf.write(
        md_table(
            ["GPU", "comm MB", "comm ms (paper)", "comp ms (paper)",
             "overall ms (paper)"],
            [
                [
                    r["label"],
                    fmt(r["values"]["comm_mb"], 4),
                    f"{fmt(r['values']['comm_ms'])} "
                    f"({fmt(r['values']['comm_paper'])})",
                    f"{fmt(r['values']['comp_ms'])} "
                    f"({fmt(r['values']['comp_paper'])})",
                    f"{fmt(r['values']['overall_ms'])} "
                    f"({fmt(r['values']['overall_paper'])})",
                ]
                for r in _rows(results["table9"])
            ],
        )
    )

    buf.write("\n### Table 10 — device memory per in-flight proof (GB)\n\n")
    buf.write(
        md_table(
            ["scale", "Bellperson (paper values)", "ours (paper)", "reduction"],
            [
                [
                    r["label"],
                    fmt(r["values"]["bellperson_gb"]),
                    f"{fmt(r['values']['ours_gb'])} "
                    f"({fmt(r['values']['ours_paper'])})",
                    fmt(r["values"]["reduction"], 3) + "x",
                ]
                for r in _rows(results["table10"])
            ],
        )
    )
    buf.write(
        "\n\nOur footprint model is linear in S (the §3.1 ≈2N-blocks "
        "discipline); the paper's own column grows sublinearly, so the match "
        "is exact at the 2^20 calibration point and drifts to ~30% at the "
        "ends — the 3–10x advantage over Bellperson holds everywhere.\n"
    )

    buf.write("\n### Table 11 — verifiable ML (VGG-16 / CIFAR-10, GH200)\n\n")
    rows11 = _rows(results["table11"])
    buf.write(
        md_table(
            ["system", "throughput /s", "latency s", "accuracy %"],
            [
                [
                    r["label"],
                    fmt(r["values"]["throughput"])
                    + (
                        f" (paper {fmt(r['values']['throughput_paper'])})"
                        if "throughput_paper" in r["values"]
                        else ""
                    ),
                    fmt(r["values"]["latency_s"])
                    + (
                        f" (paper {fmt(r['values']['latency_paper'])})"
                        if "latency_paper" in r["values"]
                        else ""
                    ),
                    fmt(r["values"]["accuracy"]),
                ]
                for r in rows11
            ],
        )
    )
    ours11 = next(r for r in rows11 if r["label"] == "Ours")
    amort = 1e3 / ours11["values"]["throughput"]
    buf.write(
        f"\n\nVGG-16 circuit: {ours11['values']['gates'] / 1e6:.1f} M gates "
        f"(zkCNN-style accounting). Amortized generation {amort:.0f} ms → the "
        "paper's 'first sub-second proof generation' claim reproduces. "
        "Baseline rows are the paper's published measurements (CPU systems "
        "we do not re-run); accuracy values are the published model "
        "accuracies — our reproduction does not retrain VGG-16 (no data/GPU), "
        "see DESIGN.md substitutions.\n"
    )

    buf.write(
        "\n### Ablations (this reproduction's additions)\n\n"
        "`python -m repro experiment run ablations` exercises each design\n"
        "choice in isolation; each row is one of its guards.\n\n"
    )
    buf.write(_claims_table(results["ablations"]))
    buf.write(
        """

Every PCS opening covers all points of its commitment and authenticates
its columns with one shared Merkle multiproof (DESIGN decision 25); that
it is strictly smaller than per-column paths is checked by
`tests/test_merkle_multiproof.py`, and than one opening per point by
`tests/test_commitment.py::TestOpenMany`.

### Future work implemented (§6.2's closing direction)

`python -m repro experiment run frontier` sweeps **stage fusion** and an
**express-lane hybrid** over the latency–throughput plane (GH200):

"""
    )
    buf.write(_claims_table(results["frontier"]))
    buf.write(
        """

At module scale fusion is a real trade: each fusion step past four
stages costs Merkle 2^18 more throughput. At system scale every stage's
work dwarfs the thread count, so intra-group idling is negligible and
fusion is nearly free — suggesting the paper's deep per-round pipelines
buy little at large scales and the latency gap of Table 6 is mostly
avoidable there.

### Calibration sensitivity

`python -m repro experiment run sensitivity` perturbs every calibrated
cost constant (hash/entry/MAC cycles, launch overhead, baseline penalty)
across 0.5x–2x and re-checks the headline claims at every grid point:

"""
    )
    buf.write(_claims_table(results["sensitivity"]))
    buf.write(
        "\n\nThe reproduction's conclusions are properties of the scheduling\n"
        "model, not of the calibration choices.\n"
    )
    return buf.getvalue()


__all__ = [
    "md_table",
    "fmt",
    "render_run_report",
    "render_experiments_md",
    "PAPER_EXPERIMENTS",
]
