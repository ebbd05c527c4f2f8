"""Tests for threshold-guarded dynamic re-partitioning."""

import pytest

from hpa_reference import BACKBONE_CYCLE, MODELS, ReferencePartitioner, ReferenceRepartitioner
from repro.core.dynamic import DynamicRepartitioner, RepartitionThresholds
from repro.core.hpa import LOOKAHEAD_MODES, HPAConfig
from repro.core.placement import PlanEvaluator, Tier
from repro.network.conditions import get_condition
from repro.runtime.calibration import OnlineCostCalibrator


class TestThresholds:
    def test_inside_band_not_exceeded(self):
        thresholds = RepartitionThresholds(lower=0.8, upper=1.25)
        assert not thresholds.exceeded(100.0, 110.0)
        assert not thresholds.exceeded(100.0, 85.0)

    def test_outside_band_exceeded(self):
        thresholds = RepartitionThresholds(lower=0.8, upper=1.25)
        assert thresholds.exceeded(100.0, 130.0)
        assert thresholds.exceeded(100.0, 70.0)

    def test_zero_reference_breaches_on_any_positive_value(self):
        thresholds = RepartitionThresholds()
        assert thresholds.exceeded(0.0, 1e-9)
        assert not thresholds.exceeded(0.0, 0.0)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            RepartitionThresholds(lower=0.0)
        with pytest.raises(ValueError):
            RepartitionThresholds(upper=0.9)


class TestDynamicRepartitioner:
    @pytest.fixture()
    def repartitioner(self, alexnet, alexnet_profile, wifi):
        return DynamicRepartitioner(alexnet, alexnet_profile, wifi)

    def test_initial_plan_is_valid(self, repartitioner):
        repartitioner.plan.validate()

    def test_no_drift_no_trigger(self, repartitioner):
        event = repartitioner.observe()
        assert not event.triggered
        assert event.changed_vertices == []
        assert event.latency_before_s == pytest.approx(event.latency_after_s)

    def test_small_drift_stays_quiet(self, repartitioner, alexnet_profile):
        event = repartitioner.observe(profile=alexnet_profile.scaled(Tier.EDGE, 1.1))
        assert not event.triggered

    def test_large_latency_drift_triggers_local_update(self, repartitioner, alexnet_profile):
        event = repartitioner.observe(profile=alexnet_profile.scaled(Tier.EDGE, 3.0))
        assert event.triggered
        assert 0 < event.reevaluated_vertices <= len(repartitioner.graph)
        repartitioner.plan.validate()

    def test_bandwidth_drift_triggers(self, repartitioner):
        congested = get_condition("wifi").scaled_backbone(0.3)
        event = repartitioner.observe(network=congested)
        assert event.triggered
        repartitioner.plan.validate()

    def test_local_update_touches_fewer_vertices_than_full(self, resnet18, resnet_profile, wifi):
        repartitioner = DynamicRepartitioner(resnet18, resnet_profile, wifi)
        # Perturb only the device latencies: the scope should stay local.
        event = repartitioner.observe(profile=resnet_profile.scaled(Tier.DEVICE, 5.0))
        assert event.triggered
        assert event.reevaluated_vertices < len(resnet18)

    def test_forecast_breach_follows_the_band(self, repartitioner, wifi):
        assert not repartitioner.forecast_breach(wifi.scaled_backbone(1.1))
        assert repartitioner.forecast_breach(wifi.scaled_backbone(0.3))

    def test_full_repartition_reevaluates_everything(self, repartitioner):
        event = repartitioner.full_repartition()
        assert event.reevaluated_vertices == len(repartitioner.graph)
        repartitioner.plan.validate()

    def test_adaptation_never_hurts_much(self, repartitioner, alexnet_profile, wifi):
        """After adapting, the plan is no worse than before under new conditions."""
        slowed = alexnet_profile.scaled(Tier.EDGE, 4.0)
        event = repartitioner.observe(profile=slowed)
        assert event.latency_after_s <= event.latency_before_s * 1.01

    def test_reference_updates_after_trigger(self, repartitioner, alexnet_profile):
        slowed = alexnet_profile.scaled(Tier.EDGE, 3.0)
        repartitioner.observe(profile=slowed)
        # The same conditions observed again should no longer trigger.
        event = repartitioner.observe(profile=slowed)
        assert not event.triggered


class TestPerLinkDrift:
    """Topology-aware drift: every physical wire is watched individually."""

    def _multi_hop_topology(self, trunk_mbps):
        from repro.network.topology import LinkSpec, NodeSpec, Topology
        from repro.profiling.hardware import CLOUD_SERVER, EDGE_DESKTOP, RASPBERRY_PI_4

        return Topology(
            "watched",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("gw", "relay"),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("uplink", "d0", "gw", 10.0),
                LinkSpec("trunk", "gw", "e0", trunk_mbps),
                LinkSpec("backbone", "e0", "c0", 30.0),
            ],
        )

    def test_invisible_per_link_drift_still_triggers(self, alexnet, alexnet_profile):
        """A congested fast hop barely moves the harmonic tier-pair rate, but
        the per-link watch catches it."""
        before = self._multi_hop_topology(trunk_mbps=1000.0)
        after = self._multi_hop_topology(trunk_mbps=300.0)  # -70% on one wire
        condition_before = before.planning_condition()
        condition_after = after.planning_condition()
        # The tier-pair view moved by far less than the 25% band...
        ratio = condition_after.device_edge_mbps / condition_before.device_edge_mbps
        assert 0.95 < ratio < 1.0
        repartitioner = DynamicRepartitioner(alexnet, alexnet_profile, condition_before)
        seed = repartitioner.observe_topology(before)
        assert not seed.triggered  # first observation records the reference
        # ...yet the link-level drift is detected.
        event = repartitioner.observe_topology(after)
        assert event.triggered

    def test_within_band_links_do_not_trigger(self, alexnet, alexnet_profile):
        before = self._multi_hop_topology(trunk_mbps=1000.0)
        after = self._multi_hop_topology(trunk_mbps=900.0)  # -10%: inside band
        repartitioner = DynamicRepartitioner(
            alexnet, alexnet_profile, before.planning_condition()
        )
        repartitioner.observe_topology(before)
        assert not repartitioner.observe_topology(after).triggered

    def test_reference_links_update_after_trigger(self, alexnet, alexnet_profile):
        before = self._multi_hop_topology(trunk_mbps=1000.0)
        after = self._multi_hop_topology(trunk_mbps=300.0)
        repartitioner = DynamicRepartitioner(
            alexnet, alexnet_profile, before.planning_condition()
        )
        repartitioner.observe_topology(before)
        assert repartitioner.observe_topology(after).triggered
        # The drifted rates are the new reference: observing them again is calm.
        assert not repartitioner.observe_topology(after).triggered

    def test_inherited_links_drift_with_their_base_condition(
        self, alexnet, alexnet_profile, wifi
    ):
        """An all-inherited topology whose base condition collapses must
        trigger: inherited links are priced against the observed topology's
        own base, not against the stale reference."""
        from repro.network.topology import Topology

        before = Topology.three_tier(num_edge_nodes=4, network=wifi)
        after = Topology.three_tier(num_edge_nodes=4, network=wifi.scaled_backbone(0.3))
        repartitioner = DynamicRepartitioner(alexnet, alexnet_profile, wifi)
        assert not repartitioner.observe_topology(before).triggered  # seed
        assert repartitioner.observe_topology(after).triggered


class TestLocalUpdateDifferential:
    """Local updates against the memo-free, full-scan reference."""

    @staticmethod
    def _assert_same(event, expected):
        assert event.triggered == expected.triggered
        assert event.changed_vertices == expected.changed_vertices
        assert event.reevaluated_vertices == expected.reevaluated_vertices
        assert event.latency_before_s == expected.latency_before_s
        assert event.latency_after_s == expected.latency_after_s
        assert event.plan.signature() == expected.plan.signature()

    @pytest.mark.parametrize("mode", LOOKAHEAD_MODES)
    @pytest.mark.parametrize("model", MODELS)
    def test_backbone_cycle_matches_reference(self, model, mode, zoo_profiles, wifi):
        graph, profile = zoo_profiles[model]
        config = HPAConfig(lookahead=mode)
        repartitioner = DynamicRepartitioner(graph, profile, wifi, config=config)
        reference = ReferenceRepartitioner(graph, profile, wifi, config=config)
        triggered = 0
        for _ in range(2):
            for multiplier in BACKBONE_CYCLE:
                network = wifi.scaled_backbone(multiplier)
                event = repartitioner.observe(network=network)
                self._assert_same(event, reference.observe(network=network))
                triggered += event.triggered
        assert triggered >= len(BACKBONE_CYCLE)

    @pytest.mark.parametrize("model", ["resnet18", "inception_v4"])
    def test_profile_drift_matches_reference(self, model, zoo_profiles, wifi):
        """Profile changes drop the remaining-work memo; events stay exact."""
        graph, profile = zoo_profiles[model]
        repartitioner = DynamicRepartitioner(graph, profile, wifi)
        reference = ReferenceRepartitioner(graph, profile, wifi)
        steps = [
            (profile.scaled(Tier.EDGE, 4.0), wifi),
            (None, wifi.scaled_backbone(0.25)),
            (profile.scaled(Tier.DEVICE, 0.2), None),
            (profile, wifi.scaled_backbone(4.0)),
        ]
        for new_profile, network in steps:
            event = repartitioner.observe(profile=new_profile, network=network)
            self._assert_same(event, reference.observe(profile=new_profile, network=network))

    def test_remaining_memo_follows_the_profile(self, resnet18, resnet_profile, wifi):
        repartitioner = DynamicRepartitioner(resnet18, resnet_profile, wifi)
        vertex = resnet18.vertex(5)
        for profile in (resnet_profile, resnet_profile.scaled(Tier.CLOUD, 3.0)):
            partitioner = repartitioner._partitioner(profile, wifi)
            expected = ReferencePartitioner(profile, wifi)._default_remaining(resnet18, vertex)
            first = repartitioner._remaining_after(partitioner, vertex)
            assert first == expected
            first[Tier.CLOUD] = -1.0  # callers get a copy, never the memo
            assert repartitioner._remaining_after(partitioner, vertex) == expected

    def test_unchanged_profile_is_not_scanned(self, repartitioner_on_alexnet):
        repartitioner = repartitioner_on_alexnet
        repartitioner.plan = None  # a scan would need the plan
        assert repartitioner._drifted_vertices(repartitioner.reference_profile) == []

    def test_equal_profile_copy_finds_no_drift(self, alexnet, alexnet_profile, wifi):
        repartitioner = DynamicRepartitioner(alexnet, alexnet_profile, wifi)
        assert repartitioner._drifted_vertices(alexnet_profile.scaled(Tier.EDGE, 1.0)) == []

    @pytest.fixture()
    def repartitioner_on_alexnet(self, alexnet, alexnet_profile, wifi):
        return DynamicRepartitioner(alexnet, alexnet_profile, wifi)


class TestCalibratedPricing:
    def test_full_repartition_prices_with_the_calibration(self, resnet18, resnet_profile, wifi):
        """Local and full adaptations report latencies under one cost model."""
        calibration = OnlineCostCalibrator()
        for vertex in resnet18:
            for tier in Tier:
                skewed = 7.0 * resnet_profile.get(vertex.index, tier) + 1e-3
                calibration.record_tasks(
                    [("node", skewed, vertex.name)], tier.value, resnet_profile.model_name
                )
        repartitioner = DynamicRepartitioner(resnet18, resnet_profile, wifi)
        repartitioner.calibration = calibration
        before = repartitioner.plan.copy()
        event = repartitioner.full_repartition()
        calibrated = PlanEvaluator(resnet_profile, wifi, calibration=calibration)
        analytic = PlanEvaluator(resnet_profile, wifi)
        assert event.latency_before_s == calibrated.objective(before)
        assert event.latency_after_s == calibrated.objective(event.plan)
        assert event.latency_before_s != analytic.objective(before)
