"""Integration tests for the per-figure/table experiment harnesses.

These use the reduced :meth:`ExperimentConfig.small` configuration so the whole
module runs in seconds; the benchmarks exercise the full paper configuration.
"""

import pytest

from repro.experiments import (
    fig01_layer_profile,
    fig04_regression,
    fig09_hpa_speedup,
    fig10_vs_baselines,
    fig11_bandwidth_sweep,
    fig12_hpa_vsm,
    fig13_communication,
    table01_pair_latency,
    table02_tier_times,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_speedup, format_table
from repro.experiments.runners import ScenarioRunner


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig.small()


@pytest.fixture(scope="module")
def runner(small_config):
    return ScenarioRunner(small_config)


class TestReporting:
    def test_format_table_alignment_and_na(self):
        text = format_table(["a", "b"], [[1.234, None], [10.0, "x"]], title="T")
        assert "T" in text and "n/a" in text and "1.23" in text

    def test_format_speedup(self):
        assert format_speedup(2.5) == "2.50x"
        assert format_speedup(None) == "n/a"


class TestFig01:
    def test_rows_and_shapes(self):
        rows = fig01_layer_profile.run_layer_profile(models=("resnet18",))
        assert rows
        summary = fig01_layer_profile.summarise(rows)
        assert summary["resnet18"]["conv_latency_s"] / summary["resnet18"]["total_latency_s"] > 0.7
        assert summary["resnet18"]["max_output_mb"] > 1.0
        assert "resnet18" in fig01_layer_profile.format_layer_profile(rows)


class TestFig04:
    def test_regression_tracks_measurements(self):
        results = fig04_regression.run_regression_experiment(calibration_models=("vgg16", "resnet18"))
        assert len(results) == 2
        cpu = results[0]
        assert cpu.mape < 0.25
        assert cpu.r_squared > 0.9
        assert "Fig. 4" in fig04_regression.format_regression(results)


class TestTable01:
    def test_six_rows_and_device_device_cheapest_for_small_conv(self):
        rows = table01_pair_latency.run_pair_latency()
        assert len(rows) == 6
        table = table01_pair_latency.format_pair_latency(rows)
        assert "Table I" in table


class TestTable02:
    def test_edge_is_bottleneck(self):
        rows = table02_tier_times.run_tier_times(models=["resnet18"])
        assert rows[0].bottleneck_tier.value == "edge"
        assert "Table II" in table02_tier_times.format_tier_times(rows)


class TestFig09:
    def test_speedups_relative_to_device(self, small_config, runner):
        cells = fig09_hpa_speedup.run_hpa_speedup(small_config, runner)
        assert len(cells) == len(small_config.models) * len(small_config.networks)
        for cell in cells:
            assert cell.speedups["device_only"] == pytest.approx(1.0)
            assert cell.speedups["hpa"] >= 1.0
        assert fig09_hpa_speedup.max_speedup(cells) > 2.0
        assert "Fig. 9" in fig09_hpa_speedup.format_hpa_speedup(cells)


class TestFig10:
    def test_hpa_at_least_matches_baselines(self, small_config, runner):
        cells = fig10_vs_baselines.run_vs_baselines(small_config, runner)
        for cell in cells:
            dads_speedup = cell.hpa_speedup_over("dads")
            assert dads_speedup is None or dads_speedup >= 0.99
        assert fig10_vs_baselines.max_speedup_over(cells, "dads") >= 1.0
        assert "Fig. 10" in fig10_vs_baselines.format_vs_baselines(cells)

    def test_neurosurgeon_only_for_chains(self, small_config, runner):
        cells = fig10_vs_baselines.run_vs_baselines(small_config, runner)
        for cell in cells:
            if cell.model == "resnet18":
                assert cell.latency_s["neurosurgeon"] is None
            if cell.model == "alexnet":
                assert cell.latency_s["neurosurgeon"] is not None


class TestFig11:
    def test_sweep_monotonicity(self):
        points = fig11_bandwidth_sweep.run_bandwidth_sweep(
            model="resnet18", bandwidths_mbps=(10, 50, 100)
        )
        assert len(points) == 3
        cloud = [p.latency_s["cloud_only"] for p in points]
        assert cloud[0] > cloud[-1]  # cloud-only improves with bandwidth
        for point in points:
            assert point.latency_s["hpa"] <= min(
                point.latency_s["edge_only"], point.latency_s["cloud_only"]
            ) * 1.01
        assert "Fig. 11" in fig11_bandwidth_sweep.format_bandwidth_sweep(points)


class TestFig12:
    def test_vsm_improves_on_hpa(self, small_config, runner):
        cells = fig12_hpa_vsm.run_hpa_vsm("wifi", small_config, runner)
        for cell in cells:
            assert cell.speedups_over_device["hpa_vsm"] >= cell.speedups_over_device["hpa"] * 0.999
            if cell.vsm_redundancy_factor is not None:
                assert cell.vsm_redundancy_factor >= 1.0
        assert "Fig. 12" in fig12_hpa_vsm.format_hpa_vsm(cells)


class TestFig13:
    def test_d3_never_ships_more_than_cloud_only(self, small_config, runner):
        cells = fig13_communication.run_communication(small_config, runner)
        for cell in cells:
            d3 = cell.megabits_to_cloud["hpa_vsm"]
            cloud_only = cell.megabits_to_cloud["cloud_only"]
            assert d3 is not None and cloud_only is not None
            assert d3 <= cloud_only + 1e-9
            fraction = cell.d3_fraction_of("cloud_only")
            assert fraction is None or fraction <= 1.0
        assert "Fig. 13" in fig13_communication.format_communication(cells)


class TestTopologyComparison:
    def test_method_by_topology_table(self):
        from repro.experiments.serving import ServingScenario
        from repro.experiments.topologies import (
            format_topology_comparison,
            run_topology_comparison,
        )

        scenario = ServingScenario(
            models=("alexnet",), num_requests=6, rate_rps=8.0, sources=("@devices",)
        )
        results = run_topology_comparison(
            methods=("cloud_only", "hpa_vsm"),
            topologies=("three_tier", "multi_device"),
            scenario=scenario,
        )
        assert [name for name, _ in results] == ["three_tier", "multi_device"]
        for _, per_method in results:
            assert set(per_method) == {"cloud_only", "hpa_vsm"}
            for report in per_method.values():
                assert report is not None and report.num_requests == 6
        table = format_topology_comparison(results)
        assert "multi_device" in table and "hpa_vsm p95 ms" in table

    def test_unsupported_method_reports_none(self):
        from repro.experiments.serving import ServingScenario
        from repro.experiments.topologies import run_topology_comparison

        # Neurosurgeon declines DAGs: resnet18 is not a chain.
        scenario = ServingScenario(models=("resnet18",), num_requests=2, rate_rps=5.0)
        results = run_topology_comparison(
            methods=("neurosurgeon",), topologies=("three_tier",), scenario=scenario
        )
        assert results[0][1]["neurosurgeon"] is None

    def test_devices_sentinel_expands_anywhere(self):
        from repro.experiments.serving import ServingScenario

        scenario = ServingScenario(topology="multi_device", sources="@devices")
        system = scenario.build_system()
        assert scenario.resolve_sources(system) == ["device-0", "device-1", "device-2"]
        mixed = ServingScenario(topology="multi_device", sources=("device-1", "@devices"))
        assert mixed.resolve_sources(system) == [
            "device-1",
            "device-0",
            "device-1",
            "device-2",
        ]


class TestAutoscaleComparison:
    @pytest.fixture(scope="class")
    def results(self):
        from repro.experiments.autoscale import run_autoscale_comparison

        # One balancer keeps the harness test fast; the CI smoke job runs
        # the full three-balancer table.
        return run_autoscale_comparison(balancers=("rr",))

    def test_rows_and_identical_offered_load(self, results):
        assert [(fleet, balancer) for fleet, balancer, _ in results] == [
            ("static", "rr"),
            ("elastic", "rr"),
        ]
        static, elastic = results[0][2], results[1][2]
        assert static.num_requests == elastic.num_requests > 0
        assert static.num_failed == 0 and elastic.num_failed == 0

    def test_elastic_saves_node_hours_at_equal_or_better_p99(self, results):
        """The headline trade: fewer node-hours, no p99 regression."""
        from repro.experiments.autoscale import node_hour_savings

        static, elastic = results[0][2], results[1][2]
        assert elastic.node_hours < static.node_hours
        assert (
            elastic.latency_percentiles()["p99"]
            <= static.latency_percentiles()["p99"] + 1e-9
        )
        assert node_hour_savings(results) > 0.0

    def test_only_the_elastic_fleet_scales(self, results):
        static, elastic = results[0][2], results[1][2]
        assert static.scale_up_events == static.scale_down_events == 0
        assert elastic.scale_up_events >= 1
        assert elastic.scale_down_events >= 1

    def test_table_renders(self, results):
        from repro.experiments.autoscale import format_autoscale_comparison

        table = format_autoscale_comparison(results)
        assert "node-hrs" in table and "elastic" in table and "static" in table
        assert "diurnal load" in table

    def test_table_states_node_hours_and_the_saving(self, results):
        """Node-hours print to three decimals, so the two fleets' 0.099 and
        0.081 stay distinguishable, and the saving is printed, not implied."""
        from repro.experiments.autoscale import (
            format_autoscale_comparison,
            node_hour_savings,
        )

        table = format_autoscale_comparison(results)
        for _, _, report in results:
            assert f"  {report.node_hours:.3f}  " in table
        saving = node_hour_savings(results)
        assert saving > 0.0
        assert table.splitlines()[-1] == (
            f"node-hours saved (elastic vs static): {saving:.1%}"
        )
        # A table without both fleets has no saving to state.
        assert "saved" not in format_autoscale_comparison(results[:1])

    def test_scenario_validation(self):
        from repro.experiments.autoscale import (
            AutoscaleScenario,
            run_autoscale_comparison,
        )

        with pytest.raises(ValueError):
            AutoscaleScenario(duration_s=0.0)
        with pytest.raises(ValueError):
            AutoscaleScenario(trough_rps=20.0, peak_rps=10.0)
        with pytest.raises(ValueError):
            AutoscaleScenario(num_edge_nodes=1)
        with pytest.raises(ValueError):
            run_autoscale_comparison(balancers=())
