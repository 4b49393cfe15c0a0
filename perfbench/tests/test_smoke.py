"""Smoke test of the benchmark harness (2^6-gate circuits, 2 s runs).

Run with ``python -m pytest perfbench/tests``.  It checks the harness and
the contract of its output, not the speed of the prover.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
SPEC_FILE = PERFBENCH.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_FILE.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "report.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke",
         "--trace", str(request.param), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {
        "trace": request.param,
        "stdout": done.stdout,
        "line": json.loads(done.stdout.strip().splitlines()[-1]),
        "reports": json.loads(out.read_text())["reports"],
        "out_dir": out.parent,
    }


def listed(run):
    return SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_result_line_has_the_contract_shape(run):
    line = run["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    units = {m["name"]: m["unit"] for m in listed(run)}
    assert set(line["metrics"]) == {f"{w}/{n}" for w in WORKLOADS for n in units}
    for key, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[key.split("/", 1)[1]]
        assert math.isfinite(entry["value"])


def test_every_workload_ran_without_a_failed_operation(run):
    assert [r["workload"] for r in run["reports"]] == WORKLOADS
    for report in run["reports"]:
        assert report["attempted"] >= 1 and report["failed"] == 0, report["workload"]
        assert f"== {report['workload']} " in run["stdout"]
        assert re.fullmatch(r"[0-9a-f]{64}", report["notes"]["proof_sha256"])


def test_every_metric_is_measured_and_printed_with_its_unit(run):
    measured = set()
    for report in run["reports"]:
        for name, entry in report["metrics"].items():
            assert math.isfinite(entry["value"]), (report["workload"], name)
            measured.add(name)
    for metric in listed(run):
        assert metric["name"] in measured
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            run["stdout"], re.M,
        )
    if not run["trace"]:
        for report in run["reports"]:  # end to end: all of them, never 0
            assert set(report["metrics"]) == {m["name"] for m in listed(run)}
            assert all(e["value"] > 0 for e in report["metrics"].values())


def test_traced_run_writes_spans_and_stages_partition_the_proof(run):
    if not run["trace"]:
        pytest.skip("untraced run records no spans")
    for report in run["reports"]:
        assert report["metrics"]["core.stage_sum_over_wall"]["value"] >= 0.95
        rows = [
            json.loads(line)
            for line in Path(report["notes"]["span_file"]).read_text().splitlines()
        ]
        assert rows and report["notes"]["spans"] == len(rows)
        assert set(rows[0]) == {"id", "name", "start", "end", "parent", "op"}
        assert Path(report["notes"]["span_file"]).parent == run["out_dir"]


def test_fails_without_the_prover_source(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SPEC_FILE, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
