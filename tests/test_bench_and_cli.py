"""Tests for the bench harness (table runners) and the CLI."""

import pytest

from repro.__main__ import main as cli_main
from repro.bench import (
    TableRow,
    compute_breakdown,
    compute_fig9,
    compute_table3,
    compute_table7,
    compute_table8,
    compute_table9,
    compute_table10,
    compute_table11,
    format_rows,
)


class TestTableRunners:
    def test_table3_rows_and_keys(self):
        rows = compute_table3(sizes=(14, 16))
        assert [r.label for r in rows] == ["2^16", "2^14"]
        for r in rows:
            assert {"cpu", "gpu_baseline", "ours"} <= set(r.values)

    def test_table7_has_paper_columns(self):
        rows = compute_table7()
        assert len(rows) == 5
        for r in rows:
            assert "ours_paper" in r.values
            assert r.values["ours_ms"] > 0

    def test_table7_within_2x_of_paper(self):
        """Every 'ours' cell lands within 2x of the published value."""
        for r in compute_table7():
            ratio = r.values["ours_ms"] / r.values["ours_paper"]
            assert 0.5 < ratio < 2.0, r.label

    def test_table8_within_30pct_of_paper(self):
        for r in compute_table8():
            ratio = r.values["ours_throughput"] / r.values["ours_throughput_paper"]
            assert 0.7 < ratio < 1.3, r.label

    def test_table9_within_15pct_of_paper(self):
        for r in compute_table9():
            for key in ("comm", "comp", "overall"):
                ratio = r.values[f"{key}_ms"] / r.values[f"{key}_paper"]
                assert 0.85 < ratio < 1.15, (r.label, key)

    def test_table10_monotone(self):
        rows = compute_table10()
        ours = [r.values["ours_gb"] for r in rows]
        assert ours == sorted(ours)

    def test_table11_has_all_systems(self):
        labels = {r.label for r in compute_table11()}
        assert labels == {"zkCNN", "ZKML", "ZENO", "Ours"}

    def test_breakdown_multiplies_up(self):
        bd = compute_breakdown()
        assert bd["protocol_speedup"] * bd["pipeline_speedup"] == pytest.approx(
            bd["total_speedup_vs_bellperson"], rel=1e-9
        )

    def test_fig9_traces_nonempty(self):
        data = compute_fig9(lg=14)
        for module, traces in data.items():
            assert traces["ours"] and traces["baseline"]
            assert 0 < traces["ours_mean"] <= 1


class TestFormatRows:
    def test_includes_all_keys_across_rows(self):
        rows = [
            TableRow(label="a", values={"x": 1.0}),
            TableRow(label="b", values={"x": 2.0, "y": 3.0}),
        ]
        text = format_rows("T", rows)
        assert "y" in text and "T" in text

    def test_missing_cells_blank(self):
        rows = [
            TableRow(label="a", values={"x": 1.0}),
            TableRow(label="b", values={"y": 3.0}),
        ]
        text = format_rows("T", rows)
        assert text.count("\n") == 3

    def test_empty(self):
        assert "(no rows)" in format_rows("T", [])


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig9" in out

    def test_single_table(self, capsys):
        assert cli_main(["table9"]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out and "V100" in out

    def test_breakdown(self, capsys):
        assert cli_main(["breakdown"]) == 0
        out = capsys.readouterr().out
        assert "pipeline speedup" in out

    def test_fig9(self, capsys):
        assert cli_main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out

    def test_device_override(self, capsys):
        assert cli_main(["table10", "--device", "V100"]) == 0

    @pytest.mark.parametrize("artifact, device, error", [
        ("table3", "NOPE", "error: unknown GPU 'NOPE'"),
        ("table8", "V100", "takes no --device"),
        ("table9", "V100", "takes no --device"),
        ("fig9", "V100", "takes no --device"),
        ("breakdown", "V100", "takes no --device"),
    ])
    def test_bad_device_fails_typed(self, capsys, artifact, device, error):
        assert cli_main([artifact, "--device", device]) == 1
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["prove", "--gates", "1"], "error: need at least two gates"),
        (["serve", "--gates", "1"], "error: need at least two gates"),
        (["node", "--listen", "127.0.0.1:99999"],
         "error: --listen wants HOST:PORT"),
        (["prove", "--tasks", "0"], "error: --tasks must be at least 1"),
        (["prove", "--tasks", "-1"], "error: --tasks must be at least 1"),
        (["serve", "--requests", "0"], "error: --requests must be at least 1"),
        (["serve", "--requests", "-2"], "error: --requests must be at least 1"),
        (["serve", "--verify-sample", "0"],
         "error: --verify-sample must be at least 1"),
        (["serve", "--verify-sample", "-1"],
         "error: --verify-sample must be at least 1"),
    ])
    def test_bad_input_fails_typed(self, capsys, argv, error):
        assert cli_main(argv) == 1
        assert error in capsys.readouterr().err

    def test_prove_serial(self, capsys):
        assert cli_main(["prove", "--tasks", "2", "--gates", "32"]) == 0
        out = capsys.readouterr().out
        assert "all 2 returned proofs verify: True" in out
        assert "throughput" in out

    def test_prove_parallel_with_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert cli_main([
            "prove", "--tasks", "3", "--gates", "32",
            "--backend", "pool:2", "--trace", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "all 3 returned proofs verify: True" in out
        import json

        events = [json.loads(line) for line in open(trace)]
        assert any(e["event"] == "complete" for e in events)

    def test_serve_replays_a_trace(self, capsys):
        assert cli_main([
            "serve", "--requests", "16", "--rate", "800",
            "--gates", "32", "--batch-size", "4",
            "--verify-sample", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "batches" in out
        assert "verified sample of 4: ok" in out

    def test_serve_bursty_with_trace_file(self, capsys, tmp_path):
        import json

        trace = str(tmp_path / "serve.jsonl")
        assert cli_main([
            "serve", "--requests", "12", "--rate", "800", "--gates", "32",
            "--pattern", "bursty", "--trace", trace, "--verify-sample", "2",
        ]) == 0
        events = [json.loads(line) for line in open(trace)]
        kinds = {e["event"] for e in events}
        assert {"svc_submit", "batch_form", "batch_done"} <= kinds

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["table99"])
