"""Direct tests for the datapath modules and the CLI entry point."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main
from repro.hardware.energy import MAC_PJ, SOFTMAX_ELEMENT_PJ
from repro.hardware.modules import ProbVModule, QKModule, SoftmaxUnit


class TestQKModule:
    def test_keys_per_cycle_packing(self):
        qk = QKModule(512)
        assert qk.keys_per_cycle(64) == 8  # the paper's 512/D packing
        assert qk.keys_per_cycle(128) == 4

    def test_wide_head_multi_cycle(self):
        qk = QKModule(64)
        assert qk.keys_per_cycle(128) == 0.5
        assert qk.query_cycles(4, 128) == 8

    def test_query_cycles(self):
        qk = QKModule(512)
        assert qk.query_cycles(64, 64) == 8
        assert qk.query_cycles(0, 64) == 0

    def test_accounting(self):
        qk = QKModule(512)
        qk.account(n_queries=2, n_keys=64, head_dim=64)
        assert qk.stats.operations == 2 * 64 * 64
        assert qk.stats.energy_pj == pytest.approx(
            2 * 64 * 64 * MAC_PJ
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QKModule(0)


class TestSoftmaxUnit:
    def test_parallelism(self):
        unit = SoftmaxUnit(8)
        assert unit.query_cycles(64) == 8
        assert unit.query_cycles(65) == 9

    def test_energy(self):
        unit = SoftmaxUnit(8)
        unit.account(n_rows=3, n_keys=10)
        assert unit.stats.operations == 30
        assert unit.stats.energy_pj == pytest.approx(30 * SOFTMAX_ELEMENT_PJ)


class TestProbVModule:
    def test_value_pruning_shrinks_cycles(self):
        pv = ProbVModule(512)
        assert pv.query_cycles(32, 64) < pv.query_cycles(64, 64)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "table4" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Architectural setup" in out

    def test_run_chart_experiment(self, capsys):
        assert main(["run", "fig19"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "*" in out  # table + chart

    def test_serve_stats_json_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main([
            "serve", "--requests", "3", "--rate", "500", "--mode", "dense",
            "--prompt-len", "12", "--max-new", "2", "4", "--layers", "2",
            "--pool-kib", "256", "--stats-json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"dense"}
        assert payload["dense"]["n_requests"] == 3
        assert "ttft_p99" in payload["dense"]

    def test_serve_cluster_end_to_end(self, capsys, tmp_path):
        import json

        path = tmp_path / "cluster.json"
        base = [
            "serve-cluster", "--replicas", "2", "--requests", "6",
            "--rate", "800", "--prompt-len", "12", "--max-new", "2", "4",
            "--layers", "2", "--pool-kib", "1024",
        ]
        assert main(base + [
            "--policy", "pruning_aware", "--drain-at", "0.01:0",
            "--stats-json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster report" in out
        assert "pruning_aware" in out
        payload = json.loads(path.read_text())
        assert payload["n_replicas"] == 2
        assert payload["n_drained"] == 1
        assert payload["fleet"]["n_requests"] == 6

    def test_serve_cluster_rejects_bad_flags(self, capsys):
        base = ["serve-cluster", "--requests", "2", "--layers", "2"]
        assert main(base + ["--drain-at", "banana"]) == 2
        assert "TIME:REPLICA" in capsys.readouterr().err
        assert main(base + ["--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(base + ["--policy", "fastest"])

    def test_serve_cluster_single_replica_matches_serve(self, capsys,
                                                        tmp_path):
        """CLI-level acceptance: serve-cluster x1 == plain serve."""
        import json

        serve_json = tmp_path / "serve.json"
        cluster_json = tmp_path / "cluster.json"
        common = [
            "--requests", "4", "--rate", "600", "--prompt-len", "12",
            "--max-new", "2", "4", "--layers", "2", "--pool-kib", "256",
        ]
        assert main(["serve", "--mode", "spatten", "--stats-json",
                     str(serve_json)] + common) == 0
        assert main(
            ["serve-cluster", "--replicas", "1", "--traffic", "uniform",
             "--mode", "spatten", "--policy", "round_robin",
             "--stats-json", str(cluster_json)] + common
        ) == 0
        capsys.readouterr()
        plain = json.loads(serve_json.read_text())["spatten"]
        replica = json.loads(cluster_json.read_text())["replicas"][0]
        assert replica == plain

    def test_registry_covers_all_figures(self):
        expected = {
            "headline", "fig01", "fig02", "fig07", "table1", "table2",
            "fig13", "fig14", "table3", "table4", "fig15", "fig16",
            "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
            "topk", "ablation", "gpu-pruning",
        }
        assert set(EXPERIMENTS) == expected
