"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.cli import SCENARIO_NAMES, _scenario_registry, build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_scenario_names_resolve(self):
        registry = _scenario_registry()
        assert set(SCENARIO_NAMES) == set(registry)
        for run_fn, format_fn in registry.values():
            assert callable(run_fn) and callable(format_fn)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "fig99"])

    def test_bench_is_not_a_command(self):
        # Performance lives in benchmarks/ (d3bench and overhead.py).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "engine"])


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--model", "alexnet", "--edge-nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out and "alexnet" in out

    def test_serve_command(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "5",
                    "--rate",
                    "10",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plans computed" in out and "latency p50" in out

    def test_bad_inputs_fail_cleanly(self, capsys):
        assert main(["serve", "--model", "nope"]) == 1
        assert "unknown model" in capsys.readouterr().err
        assert main(["serve", "--model", "alexnet", "--rate", "0"]) == 1
        assert "rate must be positive" in capsys.readouterr().err
        assert (
            main(["serve", "--model", "alexnet", "--rate", "0", "--arrival", "constant"]) == 1
        )
        assert "rate must be positive" in capsys.readouterr().err

    def test_serve_constant_arrival_uncontended(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "3",
                    "--rate",
                    "1",
                    "--arrival",
                    "constant",
                    "--uncontended-links",
                ]
            )
            == 0
        )
        assert "3 requests" in capsys.readouterr().out


class TestTopologyFlag:
    def test_run_with_preset_topology(self, capsys):
        assert main(["run", "--model", "alexnet", "--topology", "device_gateway"]) == 0
        assert "end-to-end" in capsys.readouterr().out

    def test_serve_spreads_over_fleet_devices(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--topology",
                    "multi_device",
                    "--requests",
                    "6",
                    "--rate",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "device-1" in out and "device-2" in out  # utilisation rows

    def test_serve_with_topology_json_file(self, capsys, tmp_path):
        from repro.network.topology import get_topology

        path = tmp_path / "rack.json"
        path.write_text(get_topology("hetero_edge").to_json())
        assert (
            main(
                ["serve", "--model", "alexnet", "--topology", str(path), "--requests", "3"]
            )
            == 0
        )
        assert "plans computed" in capsys.readouterr().out

    def test_unknown_topology_fails_cleanly(self, capsys):
        assert main(["run", "--model", "alexnet", "--topology", "moebius"]) == 1
        assert "unknown topology" in capsys.readouterr().err


class TestFaultsFlag:
    def test_serve_with_chaos_spec(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--faults",
                    "chaos:7",
                    "--requests",
                    "10",
                    "--rate",
                    "8",
                ]
            )
            == 0
        )
        assert "plans computed" in capsys.readouterr().out

    def test_serve_with_schedule_file(self, capsys, tmp_path):
        from repro.network.faults import FaultSchedule, NodeDown, NodeUp

        path = tmp_path / "faults.json"
        path.write_text(
            FaultSchedule([NodeDown(0.2, "edge-0"), NodeUp(1.0, "edge-0")]).to_json()
        )
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--faults",
                    str(path),
                    "--requests",
                    "8",
                    "--rate",
                    "10",
                    "--max-retries",
                    "2",
                ]
            )
            == 0
        )
        assert "plans computed" in capsys.readouterr().out

    def test_bad_chaos_spec_fails_cleanly(self, capsys):
        assert main(["serve", "--model", "alexnet", "--faults", "chaos:banana"]) == 1
        assert "chaos" in capsys.readouterr().err

    def test_schedule_targeting_unknown_node_fails_cleanly(self, capsys, tmp_path):
        from repro.network.faults import FaultSchedule, NodeDown

        path = tmp_path / "faults.json"
        path.write_text(FaultSchedule([NodeDown(0.5, "edge-42")]).to_json())
        assert main(["serve", "--model", "alexnet", "--faults", str(path)]) == 1
        assert "unknown node" in capsys.readouterr().err


class TestSchedulerFlag:
    def test_serve_with_batch_scheduler_and_slo(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--method",
                    "device_only",
                    "--scheduler",
                    "batch",
                    "--slo-ms",
                    "500",
                    "--requests",
                    "20",
                    "--rate",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[batch]" in out
        assert "goodput" in out and "SLO attainment" in out
        assert "batching:" in out

    def test_serve_with_edf_sheds_under_overload(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--method",
                    "device_only",
                    "--scheduler",
                    "edf",
                    "--slo-ms",
                    "500",
                    "--requests",
                    "20",
                    "--rate",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[edf]" in out and "shed" in out

    def test_default_scheduler_output_unchanged(self, capsys):
        assert main(["serve", "--model", "alexnet", "--requests", "5", "--rate", "10"]) == 0
        out = capsys.readouterr().out
        assert "[fifo]" not in out and "goodput" not in out

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheduler", "lifo"])

    def test_bad_slo_fails_cleanly(self, capsys):
        assert main(["serve", "--model", "alexnet", "--slo-ms", "0"]) == 1
        assert "--slo-ms must be positive" in capsys.readouterr().err

class TestElasticFlags:
    def test_serve_with_autoscaler_and_balancer(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "20",
                    "--rate",
                    "8",
                    "--autoscale",
                    "target-util",
                    "--balancer",
                    "p2c",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "latency p50" in out and "20 requests" in out

    def test_serve_with_elasticity_schedule_file(self, capsys, tmp_path):
        schedule = tmp_path / "fleet.json"
        schedule.write_text(
            '{"name": "cli-fleet", "events": ['
            '{"at": 0.2, "kind": "node_join", "target": "edge-2", "provision_s": 0.1},'
            '{"at": 1.0, "kind": "node_drain", "target": "edge-1"}]}'
        )
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "10",
                    "--rate",
                    "10",
                    "--elasticity",
                    str(schedule),
                    "--balancer",
                    "jsq",
                ]
            )
            == 0
        )
        assert "10 requests" in capsys.readouterr().out

    def test_unknown_autoscaler_policy_fails_cleanly(self, capsys):
        assert (
            main(["serve", "--model", "alexnet", "--autoscale", "bogus"]) == 1
        )
        assert "unknown autoscaler policy" in capsys.readouterr().err

    def test_unknown_balancer_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            # --balancer validates through argparse choices.
            build_parser().parse_args(
                ["serve", "--model", "alexnet", "--balancer", "bogus"]
            )

    def test_elasticity_schedule_for_unknown_node_fails_cleanly(
        self, capsys, tmp_path
    ):
        schedule = tmp_path / "bad.json"
        schedule.write_text(
            '{"events": [{"at": 0.5, "kind": "node_drain", "target": "edge-99"}]}'
        )
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "5",
                    "--elasticity",
                    str(schedule),
                ]
            )
            == 1
        )
        assert "edge-99" in capsys.readouterr().err


class TestEconomicsFlags:
    def test_serve_with_economics_prints_the_summary_line(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "5",
                    "--rate",
                    "10",
                    "--economics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "economics:" in out
        assert "J/request" in out and "/1k requests" in out

    def test_serve_with_weights_implies_economics(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--model",
                    "alexnet",
                    "--requests",
                    "5",
                    "--rate",
                    "10",
                    "--weights",
                    "0,1,0",
                ]
            )
            == 0
        )
        assert "economics:" in capsys.readouterr().out

    def test_default_serve_output_has_no_economics_line(self, capsys):
        assert main(["serve", "--model", "alexnet", "--requests", "3", "--rate", "10"]) == 0
        assert "economics:" not in capsys.readouterr().out

    def test_malformed_weights_fail_cleanly(self, capsys):
        assert main(["serve", "--model", "alexnet", "--weights", "1,2"]) == 1
        assert "three comma-separated" in capsys.readouterr().err
        assert main(["serve", "--model", "alexnet", "--weights", "a,b,c"]) == 1
        assert "could not be parsed" in capsys.readouterr().err

    def test_all_zero_weights_fail_cleanly(self, capsys):
        assert main(["serve", "--model", "alexnet", "--weights", "0,0,0"]) == 1
        assert "cannot all be zero" in capsys.readouterr().err
