"""Experiment-runner tests (S29): registry, guards, result schema,
artifact dirs, the cross-run ledger, and the `repro experiment` CLI."""

import json
import math

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    Guard,
    Ledger,
    RunSession,
    available_experiments,
    execute_spec,
    get_experiment,
    register_experiment,
    select_experiments,
    validate_result,
)
from repro.experiments.cli import main as experiment_cli
from repro.experiments.registry import (
    KNOWN_SUITES,
    _REGISTRY,
    _reset_registry_for_tests,
)
from repro.experiments.report import (
    PAPER_EXPERIMENTS,
    md_table,
    render_experiments_md,
    render_run_report,
)


@pytest.fixture
def clean_registry():
    """An empty registry; the catalog is restored afterwards."""
    snapshot = _reset_registry_for_tests()
    try:
        yield
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(snapshot)


def _toy_spec(name="toy", value=2.0, threshold=1.5, **kw):
    return ExperimentSpec(
        name=name,
        description="toy experiment",
        runner=lambda params: {"value": value, "extra": params.get("extra", 0)},
        tags=kw.pop("tags", ("extension",)),
        guards=kw.pop(
            "guards",
            (Guard(name="floor", metric="value", op=">=",
                   threshold=threshold),),
        ),
        **kw,
    )


# -- registry -----------------------------------------------------------------


def test_registry_round_trip(clean_registry):
    spec = _toy_spec()
    register_experiment(spec)
    assert available_experiments() == ["toy"]
    assert get_experiment("toy") is spec
    assert get_experiment("  TOY ") is spec  # normalized lookup


def test_duplicate_registration_rejected(clean_registry):
    register_experiment(_toy_spec())
    with pytest.raises(ExperimentError, match="already registered"):
        register_experiment(_toy_spec())
    register_experiment(_toy_spec(), replace=True)  # explicit replace ok


def test_unknown_experiment_lists_names_and_suggests(clean_registry):
    register_experiment(_toy_spec("bench_hotpath"))
    register_experiment(_toy_spec("bench_pipeline"))
    with pytest.raises(ExperimentError) as err:
        get_experiment("bench_hotpat")
    message = str(err.value)
    assert "bench_hotpath" in message and "bench_pipeline" in message
    assert "did you mean 'bench_hotpath'?" in message


def test_select_experiments_by_suite_and_tags(clean_registry):
    register_experiment(_toy_spec("a", tags=("extension", "ci")))
    register_experiment(_toy_spec("b", tags=("paper", "paper-table", "ci")))
    register_experiment(_toy_spec("c", tags=("extension", "chaos")))
    assert [s.name for s in select_experiments(suite="all")] == ["a", "b", "c"]
    assert [s.name for s in select_experiments(suite="ci")] == ["a", "b"]
    assert [s.name for s in select_experiments(suite="chaos")] == ["c"]
    assert [s.name for s in select_experiments(tags=["extension"])] == [
        "a", "c"
    ]
    # explicit names + suite compose as a dedup'd union
    assert [s.name for s in select_experiments(names=["c"], suite="ci")] == [
        "c", "a", "b"
    ]
    with pytest.raises(ExperimentError, match="matches no experiments"):
        select_experiments(suite="nope")


def test_builtin_catalog_registers_everything():
    names = set(available_experiments())
    assert set(PAPER_EXPERIMENTS) <= names
    for bench in (
        "bench_hotpath", "bench_pipeline", "bench_cluster",
        "bench_resilience", "bench_service", "bench_backends",
        "bench_parallel_runtime", "bench_fleet",
    ):
        assert bench in names
    assert {s.name for s in select_experiments(suite="chaos")} == {
        "bench_resilience", "bench_fleet"
    }
    for suite in KNOWN_SUITES:
        assert select_experiments(suite=suite)
    assert {"ablations", "frontier", "sensitivity"} <= {
        s.name for s in select_experiments(suite="ci")
    }


# -- guards & execution -------------------------------------------------------


def test_guard_evaluation_directions():
    higher = Guard(name="hi", metric="m", op=">=", threshold=2.0)
    assert higher.evaluate({"m": 2.5}).passed
    assert not higher.evaluate({"m": 1.5}).passed
    assert higher.direction == "higher"
    lower = Guard(name="lo", metric="m", op="<=", threshold=2.0)
    assert lower.evaluate({"m": 1.5}).passed
    assert not lower.evaluate({"m": 2.5}).passed
    assert lower.direction == "lower"
    with pytest.raises(ExperimentError, match="op must be"):
        Guard(name="bad", metric="m", op="==", threshold=1.0)


def test_guard_missing_metric_fails_closed():
    guard = Guard(name="g", metric="missing", op=">=", threshold=1.0)
    verdict = guard.evaluate({})
    assert verdict.enforced and not verdict.passed
    assert "missing" in verdict.detail


def test_guard_precondition_gates_enforcement():
    guard = Guard(
        name="scaling", metric="ratio", op=">=", threshold=1.6,
        precondition=("host_cores", ">=", 2),
    )
    single = guard.evaluate({"ratio": 0.5, "host_cores": 1})
    assert single.passed and not single.enforced
    multi = guard.evaluate({"ratio": 0.5, "host_cores": 4})
    assert not multi.passed and multi.enforced


def test_execute_spec_statuses_and_overrides(clean_registry):
    spec = _toy_spec(value=2.0, threshold=1.5)
    ok = execute_spec(spec, git_rev="aaa111")
    assert ok.status == "ok" and ok.ok
    assert ok.metrics["value"] == 2.0
    assert ok.git_rev == "aaa111"

    failed = execute_spec(spec, guard_overrides={"floor": 3.0})
    assert failed.status == "guard_failed"
    assert failed.guard_failures[0].threshold == 3.0

    with pytest.raises(ExperimentError, match="no guard named"):
        execute_spec(spec, guard_overrides={"flor": 3.0})

    def boom(params):
        raise RuntimeError("kaput")

    err = execute_spec(
        ExperimentSpec(name="boom", description="x", runner=boom)
    )
    assert err.status == "error" and "kaput" in err.error


def test_quick_params_overlay_and_param_overrides():
    spec = ExperimentSpec(
        name="p",
        description="params",
        runner=lambda params: dict(params),
        full_params={"gates": 100, "reps": 3},
        quick_params={"gates": 10},
    )
    assert spec.params_for(quick=False) == {"gates": 100, "reps": 3}
    assert spec.params_for(quick=True) == {"gates": 10, "reps": 3}
    assert spec.params_for(quick=True, overrides={"reps": 1}) == {
        "gates": 10, "reps": 1,
    }


def test_metric_extraction_filters_non_numeric():
    spec = ExperimentSpec(
        name="m",
        description="metrics",
        runner=lambda params: {},
    )
    payload = {
        "speedup": 2.0, "count": 3, "flag": True, "label": "x",
        "inf": float("inf"), "rows": [1, 2], "none": None,
    }
    assert spec.extract_metrics(payload) == {"speedup": 2.0, "count": 3.0}


# -- result schema ------------------------------------------------------------


def test_result_schema_round_trip(clean_registry):
    result = execute_spec(_toy_spec(), git_rev="cafe12")
    data = result.to_dict()
    validate_result(data)  # no raise
    back = ExperimentResult.from_dict(json.loads(json.dumps(data)))
    assert back.name == result.name
    assert back.metrics == result.metrics
    assert back.guards[0].passed == result.guards[0].passed


def test_validate_result_rejects_malformed():
    good = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "name": "x", "status": "ok", "params": {}, "metrics": {},
        "data": {}, "guards": [], "git_rev": "r", "host": {},
        "started_at": 0.0, "duration_seconds": 0.0,
    }
    validate_result(good)
    for mutation, match in (
        ({"schema_version": 99}, "schema_version"),
        ({"status": "meh"}, "status"),
        ({"metrics": {"m": "fast"}}, "must be numeric"),
        ({"guards": [{"nope": 1}]}, "guard verdict"),
    ):
        bad = dict(good, **mutation)
        with pytest.raises(ExperimentError, match=match):
            validate_result(bad)
    with pytest.raises(ExperimentError, match="missing required key"):
        validate_result({k: v for k, v in good.items() if k != "metrics"})


# -- run session / artifact dir ----------------------------------------------


def test_run_session_writes_artifacts(clean_registry, tmp_path):
    register_experiment(_toy_spec())
    session = RunSession(
        quick=True,
        artifact_root=tmp_path / "artifacts",
        ledger_path=tmp_path / "ledger.sqlite",
        git_rev="abc123",
    )
    session.run_all(select_experiments(names=["toy"]))
    directory = session.finalize()

    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["git_rev"] == "abc123"
    assert manifest["quick"] is True
    assert manifest["experiments"][0]["name"] == "toy"
    assert manifest["experiments"][0]["result_file"] == "toy.json"

    stored = json.loads((directory / "toy.json").read_text())
    validate_result(stored)

    report = (directory / "report.md").read_text()
    assert "toy" in report and "floor" in report

    with Ledger(tmp_path / "ledger.sqlite") as ledger:
        assert ledger.run_ids() == [session.run_id]
        points = ledger.metrics_for_run(session.run_id)
        assert {p.metric for p in points} == {"value", "extra"}
        (value_point,) = [p for p in points if p.metric == "value"]
        assert value_point.direction == "higher"  # from the >= guard
    assert session.exit_code() == 0


def test_run_session_exit_codes(clean_registry, tmp_path):
    register_experiment(_toy_spec("fails", value=1.0, threshold=5.0))
    session = RunSession(
        artifact_root=tmp_path, use_ledger=False, git_rev="abc"
    )
    session.run_all(select_experiments(names=["fails"]))
    session.finalize()
    assert session.guard_failed and session.exit_code() == 2

    def boom(params):
        raise RuntimeError("dead")

    register_experiment(
        ExperimentSpec(name="dies", description="x", runner=boom)
    )
    session2 = RunSession(
        artifact_root=tmp_path, use_ledger=False, git_rev="abc"
    )
    session2.run_all(select_experiments(names=["dies"]))
    assert session2.errored and session2.exit_code() == 1


# -- ledger -------------------------------------------------------------------


def _fake_result(name, metrics, rev, directions_guarded=True, t=0.0):
    guards = []
    if directions_guarded:
        guards = [
            Guard(name=f"g_{m}", metric=m, op=">=", threshold=0.0).evaluate(
                metrics
            )
            for m in metrics
        ]
    return ExperimentResult(
        name=name, status="ok", params={}, metrics=dict(metrics), data={},
        guards=guards, git_rev=rev, host={}, started_at=t,
        duration_seconds=0.1,
    )


def _seed_ledger(path):
    """Three synthetic runs across fake revs; speedup dips in the third."""
    ledger = Ledger(path)
    runs = [
        ("run-1", "rev-aaa", {"speedup": 2.0, "throughput": 100.0}, 100.0),
        ("run-2", "rev-bbb", {"speedup": 2.2, "throughput": 110.0}, 200.0),
        ("run-3", "rev-ccc", {"speedup": 1.5, "throughput": 112.0}, 300.0),
    ]
    for run_id, rev, metrics, t in runs:
        ledger.record_run(run_id, git_rev=rev, quick=False, started_at=t)
        ledger.record_result(
            run_id, _fake_result("bench_x", metrics, rev, t=t)
        )
    return ledger


def test_ledger_history_and_compare(tmp_path):
    with _seed_ledger(tmp_path / "ledger.sqlite") as ledger:
        history = ledger.history("bench_x", "speedup")
        assert [p.value for p in history] == [2.0, 2.2, 1.5]
        assert [p.git_rev for p in history] == ["rev-aaa", "rev-bbb",
                                                "rev-ccc"]
        assert ledger.history("bench_x", "speedup", limit=2)[0].value == 2.2
        assert ledger.latest_run_id() == "run-3"
        assert ledger.run_for_rev("rev-b") == "run-2"  # prefix match

        deltas = ledger.compare()  # run-2 → run-3
        by_metric = {d.metric: d for d in deltas}
        assert math.isclose(
            by_metric["speedup"].change_fraction, (1.5 - 2.2) / 2.2
        )
        assert by_metric["speedup"].is_regression(0.05)
        assert not by_metric["throughput"].is_regression(0.05)


def test_ledger_regressions_since_rev(tmp_path):
    with _seed_ledger(tmp_path / "ledger.sqlite") as ledger:
        regressed = ledger.regressions(since_rev="rev-aaa")
        assert [d.metric for d in regressed] == ["speedup"]
        assert regressed[0].baseline_value == 2.0
        assert regressed[0].latest_value == 1.5
        # generous tolerance absorbs the dip
        assert ledger.regressions(since_rev="rev-aaa", tolerance=0.5) == []
        with pytest.raises(ExperimentError, match="no recorded run"):
            ledger.regressions(since_rev="rev-zzz")


def test_ledger_direction_awareness(tmp_path):
    with Ledger(tmp_path / "ledger.sqlite") as ledger:
        for run_id, rev, latency, t in (
            ("r1", "a", 10.0, 1.0), ("r2", "b", 20.0, 2.0)
        ):
            ledger.record_run(run_id, git_rev=rev, started_at=t)
            result = _fake_result(
                "svc", {"latency": latency}, rev, directions_guarded=False,
                t=t,
            )
            ledger.record_result(
                run_id, result, directions={"latency": "lower"}
            )
        (delta,) = ledger.compare()
        assert delta.direction == "lower"
        assert delta.is_regression(0.05)  # latency doubled = worse


def test_ledger_requires_recorded_run(tmp_path):
    with Ledger(tmp_path / "ledger.sqlite") as ledger:
        with pytest.raises(ExperimentError, match="record_run first"):
            ledger.record_result(
                "ghost", _fake_result("x", {"m": 1.0}, "rev")
            )


# -- report rendering ---------------------------------------------------------


def test_md_table_shape():
    table = md_table(["a", "b"], [[1, 2], ["x", "y"]])
    lines = table.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert lines[3] == "| x | y |"


def test_render_run_report_flags_failures(clean_registry):
    register_experiment(_toy_spec("fails", value=1.0, threshold=5.0))
    result = execute_spec(get_experiment("fails"), git_rev="r1")
    report = render_run_report("run-x", [result], git_rev="r1")
    assert "**guard_failed**" in report
    assert "## Failures" in report
    assert "violates >= 5" in report


def test_render_experiments_md_requires_all_paper_results():
    with pytest.raises(ExperimentError, match="missing results"):
        render_experiments_md({})


def test_render_experiments_md_from_live_tables():
    results = {
        name: execute_spec(get_experiment(name), git_rev="test")
        for name in PAPER_EXPERIMENTS
    }
    assert [n for n, r in results.items() if not r.ok] == []
    body = render_experiments_md(results)
    assert body.startswith("# EXPERIMENTS — paper vs. measured")
    for heading in ("Table 3", "Table 7", "Table 11", "Figure 9",
                    "Ablations", "Calibration sensitivity"):
        assert heading in body
    assert "python -m repro experiment reproduce-all" in body


# -- CLI ----------------------------------------------------------------------


def test_cli_list_smoke(capsys):
    assert experiment_cli(["list"]) == 0
    out = capsys.readouterr().out
    assert "bench_hotpath" in out and "table3" in out


def test_cli_run_quick_paper_table(tmp_path, capsys):
    code = experiment_cli([
        "run", "table3", "--quick",
        "--out-dir", str(tmp_path / "artifacts"),
        "--ledger", str(tmp_path / "ledger.sqlite"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "table3" in out and "artifacts:" in out
    run_dirs = [p for p in (tmp_path / "artifacts").iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    stored = json.loads((run_dirs[0] / "table3.json").read_text())
    validate_result(stored)
    assert stored["data"]["rows"]  # paper table rows present


def test_cli_guard_failure_exit_code(tmp_path):
    # An impossible threshold must exit 2 (guard regression).
    code = experiment_cli([
        "run", "bench_hotpath", "--quick",
        "--out-dir", str(tmp_path),
        "--no-ledger",
        "--guard", "min_speedup=1e9",
        "--param", "gates=256",
    ])
    assert code == 2


def test_cli_unknown_name_did_you_mean(tmp_path, capsys):
    code = experiment_cli([
        "run", "bench_hotpat", "--quick", "--out-dir", str(tmp_path),
        "--no-ledger",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "did you mean 'bench_hotpath'?" in err


def test_cli_compare_detects_injected_regression(tmp_path, capsys):
    _seed_ledger(tmp_path / "ledger.sqlite").close()
    code = experiment_cli(
        ["compare", "--ledger", str(tmp_path / "ledger.sqlite")]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "speedup" in out

    code = experiment_cli([
        "compare", "--ledger", str(tmp_path / "ledger.sqlite"),
        "--baseline", "run-1", "--latest", "run-2",
    ])
    assert code == 0


def test_cli_history(tmp_path, capsys):
    _seed_ledger(tmp_path / "ledger.sqlite").close()
    code = experiment_cli([
        "history", "bench_x", "speedup",
        "--ledger", str(tmp_path / "ledger.sqlite"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rev-aaa" in out and "rev-ccc" in out

    assert experiment_cli(
        ["history", "bench_x", "nope",
         "--ledger", str(tmp_path / "ledger.sqlite")]
    ) == 1


def test_cli_missing_ledger_is_helpful(tmp_path, capsys):
    code = experiment_cli(
        ["compare", "--ledger", str(tmp_path / "missing.sqlite")]
    )
    assert code == 1
    assert "no ledger" in capsys.readouterr().err
