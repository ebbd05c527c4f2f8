"""Unit tests for the online cost calibrator and bandwidth forecaster."""

import pytest

from repro.core.d3 import D3Config, D3System
from repro.core.placement import Tier
from repro.network.conditions import BandwidthTrace, get_condition
from repro.runtime.calibration import (
    AdaptationTracker,
    BandwidthForecaster,
    CalibrationConfig,
    EwmaEstimator,
    OnlineCostCalibrator,
    resolve_calibration,
)
from repro.runtime.workload import Workload


class TestCalibrationConfig:
    def test_defaults_are_valid(self):
        config = CalibrationConfig()
        assert 0 < config.alpha <= 1
        assert config.horizon_s > 0

    def test_zero_horizon_means_reactive(self):
        assert CalibrationConfig(horizon_s=0.0).horizon_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"trend_beta": -0.1},
            {"horizon_s": -1.0},
            {"rel_epsilon": -1e-9},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)


class TestEwmaEstimator:
    def test_seeds_at_first_observation(self):
        est = EwmaEstimator(alpha=0.3)
        assert est.observe(2.0, 1e-6) is True
        assert est.mean == 2.0

    def test_moves_toward_new_values(self):
        est = EwmaEstimator(alpha=0.5)
        est.observe(1.0, 1e-6)
        est.observe(2.0, 1e-6)
        assert est.mean == pytest.approx(1.5)

    def test_tiny_move_does_not_report_change(self):
        est = EwmaEstimator(alpha=0.5)
        est.observe(1.0, 1e-6)
        assert est.observe(1.0 + 1e-9, 0.1) is False


class TestOnlineCostCalibrator:
    def test_revision_bumps_only_on_update(self):
        cal = OnlineCostCalibrator()
        rev0 = cal.revision
        cal.observe_task("edge-0", "conv1", "edge", 0.010)
        assert cal.revision > rev0
        rev1 = cal.revision
        # An identical observation moves nothing: revision must hold still.
        cal.observe_task("edge-0", "conv1", "edge", 0.010)
        assert cal.revision == rev1

    def test_layer_seconds_prefers_observations(self):
        cal = OnlineCostCalibrator()
        cal.observe_task("edge-0", "conv1", "edge", 0.010)
        assert cal.layer_seconds("conv1", "edge", 0.5) == pytest.approx(0.010)
        assert cal.layer_seconds("conv1", "cloud", 0.5) == 0.5  # unseen tier

    def test_transfer_observations_feed_pair_estimates(self):
        cal = OnlineCostCalibrator()
        # 1 MB in 1 s = 8 Mbps observed on the edge->cloud route.
        cal.observe_route("edge", "cloud", 1_000_000, 1.0)
        assert cal.pair_transfer_seconds(2_000_000, "edge", "cloud", 0.1) == pytest.approx(2.0)
        # The orientation must not matter (links are symmetric).
        assert cal.pair_transfer_seconds(2_000_000, "cloud", "edge", 0.1) == pytest.approx(2.0)

    def test_same_tier_and_degenerate_observations_ignored(self):
        cal = OnlineCostCalibrator()
        rev = cal.revision
        cal.observe_route("edge", "edge", 1_000_000, 1.0)
        cal.observe_transfer("l0", 1_000_000, 0.0)
        cal.observe_task("edge-0", "conv1", "edge", -1.0)
        assert cal.revision == rev

    def test_latency_factor_clamped(self):
        cal = OnlineCostCalibrator()
        cal.observe_request("alexnet", 10.0, 0.1)  # ratio 100, way past clamp
        assert cal.latency_factor("alexnet") == 4.0
        assert cal.latency_factor("unseen") == 1.0

    def test_degenerate_request_observations_ignored(self):
        cal = OnlineCostCalibrator()
        cal.observe_request("alexnet", 0.0, 0.1)
        cal.observe_request("alexnet", 0.1, 0.0)
        assert cal.latency_factor("alexnet") == 1.0

    def test_per_node_and_per_link_tables_stay_queryable(self):
        cal = OnlineCostCalibrator()
        cal.observe_task("edge-0", "conv1", "edge", 0.010)
        cal.observe_transfer("edge-0-cloud-0", 1_000_000, 1.0)  # 8 Mbps
        assert cal.node_layer_seconds("edge-0", "conv1", 0.5) == pytest.approx(0.010)
        assert cal.node_layer_seconds("edge-1", "conv1", 0.5) == 0.5
        assert cal.link_mbps("edge-0-cloud-0", 100.0) == pytest.approx(8.0)
        assert cal.link_mbps("unseen", 100.0) == 100.0


class TestModelKeyedLayerEstimates:
    """Layer labels repeat across graphs, so estimates are keyed by model."""

    def test_other_models_observations_do_not_move_an_estimate(self):
        cal = OnlineCostCalibrator()
        cal.observe_task("edge-0", "fc1", "edge", 0.020, model="vgg16")
        for _ in range(5):
            cal.observe_task("edge-0", "fc1", "edge", 0.001, model="alexnet")
        assert cal.layer_seconds("fc1", "edge", 0.5, model="vgg16") == 0.020
        assert cal.node_layer_seconds("edge-0", "fc1", 0.5, model="vgg16") == 0.020
        assert cal.layer_seconds("fc1", "edge", 0.5, model="alexnet") == 0.001
        # Unnamed observations share one bucket, apart from every model.
        assert cal.layer_seconds("fc1", "edge", 0.5) == 0.5

    def test_served_estimates_equal_each_models_priced_duration(self):
        # On wifi with one edge node both models run fc1 on edge-0, so a
        # model-blind key would mix alexnet's and vgg16's fc1 times.
        system = D3System(
            D3Config(
                network="wifi",
                num_edge_nodes=1,
                use_regression=False,
                profiler_noise_std=0.0,
            )
        )
        workload = Workload.merge(
            Workload.poisson("alexnet", num_requests=6, rate_rps=4.0, seed=3),
            Workload.poisson("vgg16", num_requests=6, rate_rps=4.0, seed=4),
        )
        calibrator = OnlineCostCalibrator()
        report = system.serve(workload, calibration=calibrator)
        assert report.num_completed == report.num_requests
        edge = system.cluster.edge_nodes[0]
        for model in ("alexnet", "vgg16"):
            graph = system.graph_for(model)
            fc1 = next(vertex for vertex in graph if vertex.name == "fc1")
            profile = system.build_profile(graph)
            priced = profile.get(fc1.index, Tier.EDGE) / edge.speed_factor
            assert calibrator.layer_seconds("fc1", "edge", -1.0, model=model) == priced
            node_estimate = calibrator.node_layer_seconds(edge.name, "fc1", -1.0, model=model)
            assert node_estimate == priced

    def test_stationary_estimates_let_the_task_gate_widen(self):
        # Two models alternating on one label: each keyed estimate is
        # constant, so admitted batches stop moving anything and the gate
        # decimates as its docstring promises.
        cal = OnlineCostCalibrator()
        for _ in range(200):
            cal.observe_tasks([("edge-0", 0.001, "fc1")], "edge", "alexnet")
            cal.observe_tasks([("edge-0", 0.020, "fc1")], "edge", "vgg16")
        assert cal.task_gate.stride > 1


class TestBandwidthForecaster:
    def test_unseeded_forecast_is_unity(self):
        assert BandwidthForecaster().forecast(1.0) == 1.0

    def test_constant_signal_forecasts_itself(self):
        fc = BandwidthForecaster()
        for t in range(10):
            fc.observe(float(t), 0.8)
        assert fc.forecast(5.0) == pytest.approx(0.8)

    def test_declining_signal_forecasts_below_last_sample(self):
        fc = BandwidthForecaster(alpha=0.6, beta=0.6)
        for t, v in [(0.0, 1.0), (1.0, 0.8), (2.0, 0.6), (3.0, 0.4)]:
            fc.observe(t, v)
        assert fc.forecast(1.0) < 0.4

    def test_forecast_is_floored_above_zero(self):
        fc = BandwidthForecaster(alpha=1.0, beta=1.0)
        fc.observe(0.0, 1.0)
        fc.observe(1.0, 0.1)
        assert fc.forecast(100.0) > 0.0

    def test_same_instant_reobservation_refreshes_level_only(self):
        fc = BandwidthForecaster(alpha=0.5, beta=0.5)
        fc.observe(0.0, 1.0)
        fc.observe(1.0, 0.8)
        trend_before = fc.trend
        fc.observe(1.0, 0.4)  # zero dt: slope undefined, level moves
        assert fc.trend == trend_before
        assert fc.level < 0.8

    @pytest.mark.parametrize("kwargs", [{"alpha": 0.0}, {"alpha": 1.5}, {"beta": 0.0}, {"beta": 2.0}])
    def test_invalid_gains_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BandwidthForecaster(**kwargs)


class TestAdaptationTracker:
    def test_confirmed_prediction_is_not_a_mispredict(self):
        tracker = AdaptationTracker()
        tracker.record_proactive(1.0, horizon_s=1.0, reference=1.0)
        tracker.observe_sample(1.5, 0.5)  # breach materialised inside horizon
        tracker.finish(10.0)
        assert tracker.proactive == 1
        assert tracker.mispredicts == 0

    def test_expired_prediction_is_a_mispredict(self):
        tracker = AdaptationTracker()
        tracker.record_proactive(1.0, horizon_s=1.0, reference=1.0)
        tracker.observe_sample(3.0, 1.0)  # in band, past the deadline
        assert tracker.mispredicts == 1

    def test_finish_expires_pending_predictions(self):
        tracker = AdaptationTracker()
        tracker.record_proactive(1.0, horizon_s=1.0, reference=1.0)
        tracker.finish(5.0)
        assert tracker.mispredicts == 1

    def test_events_record_order_and_kind(self):
        tracker = AdaptationTracker()
        tracker.record_proactive(1.0, horizon_s=1.0, reference=1.0)
        tracker.record_reactive(2.0)
        assert tracker.events == [(1.0, "proactive"), (2.0, "reactive")]


class TestResolveCalibration:
    def test_none_and_false_disable(self):
        assert resolve_calibration(None) is None
        assert resolve_calibration(False) is None

    def test_true_and_config_build_fresh_calibrators(self):
        assert isinstance(resolve_calibration(True), OnlineCostCalibrator)
        config = CalibrationConfig(horizon_s=0.3)
        cal = resolve_calibration(config)
        assert cal.config is config

    def test_calibrator_passes_through(self):
        cal = OnlineCostCalibrator()
        assert resolve_calibration(cal) is cal

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_calibration(42)


class TestServeWithCalibration:
    @pytest.fixture(scope="class")
    def system(self):
        return D3System(
            D3Config(
                network="optical",
                num_edge_nodes=2,
                use_regression=False,
                profiler_noise_std=0.0,
            )
        )

    @pytest.fixture(scope="class")
    def workload(self):
        return Workload.poisson("alexnet", num_requests=12, rate_rps=8.0, seed=3)

    def test_calibration_off_reports_zero_counters(self, system, workload):
        report = system.serve(workload)
        assert report.calibration_updates == 0
        assert report.proactive_repartitions == 0
        assert report.first_adaptation_s is None

    def test_calibration_on_absorbs_updates(self, system, workload):
        calibrator = OnlineCostCalibrator()
        report = system.serve(workload, calibration=calibrator)
        assert report.calibration_updates == calibrator.updates > 0
        # Steady bandwidth: learning costs must not trigger adaptation churn.
        assert report.proactive_repartitions == 0

    def test_calibrated_run_serves_every_request(self, system, workload):
        report = system.serve(workload, calibration=True)
        assert report.num_completed == report.num_requests

    def test_forecast_fires_proactively_under_drift(self, system):
        trace = BandwidthTrace(
            get_condition("optical"),
            [(0.0, 1.0), (0.6, 0.8), (1.0, 0.55), (1.4, 0.4), (2.0, 0.35)],
        )
        workload = Workload.poisson("alexnet", num_requests=20, rate_rps=10.0, seed=17)
        report = system.serve(
            workload,
            trace=trace,
            calibration=CalibrationConfig(alpha=0.6, trend_beta=0.6, horizon_s=0.8),
        )
        assert report.proactive_repartitions > 0
        assert report.first_adaptation_s is not None

    def test_summary_mentions_calibration_only_when_active(self, system, workload):
        plain = system.serve(workload).summary()
        calibrated = system.serve(workload, calibration=True).summary()
        assert "calibration" not in plain
        assert "calibration" in calibrated
