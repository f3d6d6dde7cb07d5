"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

COMMON = ["--scale", "tiny", "--dim", "16", "--epochs", "1",
          "--batch-size", "64"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "books"])

    def test_defaults(self):
        args = build_parser().parse_args(["reks"])
        assert args.dataset == "beauty"
        assert args.model == "narm"
        assert args.final_beam == 4


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "beauty"] + COMMON) == 0
        out = capsys.readouterr().out
        assert "co_occur" in out
        assert "#sessions" in out

    def test_stats_movielens(self, capsys):
        assert main(["stats", "--dataset", "movielens"] + COMMON) == 0
        assert "directed_by" in capsys.readouterr().out

    def test_baseline(self, capsys):
        assert main(["baseline", "--model", "gru4rec"] + COMMON) == 0
        assert "HR@10" in capsys.readouterr().out

    def test_reks(self, capsys):
        assert main(["reks", "--model", "gru4rec"] + COMMON) == 0
        assert "REKS_gru4rec" in capsys.readouterr().out

    def test_explain(self, capsys):
        code = main(["explain", "--model", "gru4rec", "--cases", "2",
                     "--top-k", "2"] + COMMON)
        assert code == 0
        out = capsys.readouterr().out
        assert "session:" in out

    def test_reks_no_users(self, capsys):
        assert main(["reks", "--model", "gru4rec", "--no-users"]
                    + COMMON) == 0

    def test_compare(self, capsys):
        assert main(["compare", "--model", "gru4rec"] + COMMON) == 0
        out = capsys.readouterr().out
        assert "REKS_gru4rec" in out and "HR@5" in out

    def test_ingest(self, capsys, tmp_path):
        code = main(["ingest", "--rounds", "1", "--chunk", "8",
                     "--max-steps", "1",
                     "--checkpoints", str(tmp_path / "registry")]
                    + COMMON)
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-start checkpoint v1" in out
        assert "published" in out
        assert (tmp_path / "registry" / "manifest.json").exists()

    def test_metrics_fleet_snapshot(self, capsys, tmp_path):
        """The whole fleet — two ring workers, the subprocess updater —
        lands in one merged snapshot."""
        out = tmp_path / "fleet.json"
        trace = tmp_path / "fleet.trace.jsonl"
        code = main(["metrics", "--scale", "tiny", "--dim", "16",
                     "--epochs", "1", "--workers", "2",
                     "--trace-sample", "1.0",
                     "--requests", "32", "--out", str(out),
                     "--prom-out", str(tmp_path / "fleet.prom"),
                     "--trace-out", str(trace)])
        assert code == 0
        roles = set(json.loads(out.read_text())["roles"])
        assert roles >= {"server", "updater", "worker0", "worker1"}
        assert "per-hop walk timings: " in capsys.readouterr().out
        assert "# TYPE" in (tmp_path / "fleet.prom").read_text()
        assert json.loads(
            trace.with_suffix(".chrome.json").read_text())["traceEvents"]

    def test_metrics_requires_out(self):
        """No default path: the tool used to rewrite a tracked-looking
        file in the source checkout."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics"])

    def test_top_demo_fleet(self, capsys):
        assert main(["top", "--frames", "2", "--no-clear", "--scale",
                     "tiny", "--dim", "16", "--epochs", "1"]) == 0
        assert "worker0" in capsys.readouterr().out
