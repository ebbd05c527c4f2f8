"""Tests for the tier model, placement plans and the plan evaluator."""

import pytest

from repro.core.placement import (
    PlacementError,
    PlacementPlan,
    PlanEvaluator,
    Tier,
    TIER_ORDER,
    earliest_tier,
    latest_tier,
    tiers_at_or_after,
)


class TestTierModel:
    def test_order_matches_data_flow(self):
        assert TIER_ORDER == (Tier.DEVICE, Tier.EDGE, Tier.CLOUD)
        assert Tier.DEVICE.position < Tier.EDGE.position < Tier.CLOUD.position

    def test_tiers_at_or_after(self):
        assert tiers_at_or_after(Tier.DEVICE) == [Tier.DEVICE, Tier.EDGE, Tier.CLOUD]
        assert tiers_at_or_after(Tier.EDGE) == [Tier.EDGE, Tier.CLOUD]
        assert tiers_at_or_after(Tier.CLOUD) == [Tier.CLOUD]

    def test_earliest_and_latest(self):
        assert earliest_tier([Tier.CLOUD, Tier.EDGE]) == Tier.EDGE
        assert latest_tier([Tier.DEVICE, Tier.EDGE]) == Tier.EDGE
        with pytest.raises(ValueError):
            earliest_tier([])

    def test_tier_is_string_enum(self):
        assert Tier("edge") == Tier.EDGE
        assert Tier.EDGE.value == "edge"


class TestPlacementPlan:
    def test_single_tier_plan_keeps_input_on_device(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.CLOUD)
        assert plan.tier_of(alexnet.input_vertex.index) == Tier.DEVICE
        assert plan.tier_of(alexnet.vertex("conv1").index) == Tier.CLOUD
        plan.validate()

    def test_tier_counts(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        counts = plan.tier_counts()
        assert counts[Tier.EDGE] == len(alexnet) - 1
        assert counts[Tier.DEVICE] == 1

    def test_cut_edges_single_tier(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        cuts = plan.cut_edges()
        assert len(cuts) == 1  # the raw-input upload
        assert cuts[0][0].name == "input"

    def test_incomplete_plan_fails_validation(self, alexnet):
        plan = PlacementPlan(alexnet)
        plan.assign(0, Tier.DEVICE)
        with pytest.raises(PlacementError):
            plan.validate()

    def test_proposition1_violation_detected(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        # Put a late layer back on the device: its predecessor is on the edge.
        plan.assign(alexnet.vertex("fc1").index, Tier.DEVICE)
        with pytest.raises(PlacementError):
            plan.validate()

    def test_vertices_on(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        assert [v.name for v in plan.vertices_on(Tier.DEVICE)] == ["input"]

    def test_from_mapping_and_copy(self, alexnet):
        mapping = {v.index: Tier.EDGE for v in alexnet}
        mapping[0] = Tier.DEVICE
        plan = PlacementPlan.from_mapping(alexnet, mapping)
        clone = plan.copy()
        clone.assign(alexnet.vertex("fc3").index, Tier.CLOUD)
        assert plan.tier_of(alexnet.vertex("fc3").index) == Tier.EDGE

    def test_describe_mentions_counts(self, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        assert "edge=" in plan.describe()

    def test_validation_messages(self, resnet18):
        plan = PlacementPlan.single_tier(resnet18, Tier.EDGE)
        add = resnet18.vertex("layer1_block1_add")
        plan.assign(add.index, Tier.DEVICE)
        with pytest.raises(PlacementError, match=(
            r"^vertex 'layer1_block1_add' on device violates Proposition 1 "
            r"\(earliest predecessor tier is edge\)$"
        )):
            plan.validate()
        # A full-size table with a stray key: the first gap read is named.
        for missing in (3, 0):
            plan = PlacementPlan.single_tier(resnet18, Tier.CLOUD)
            del plan.assignments[missing]
            plan.assignments[999] = Tier.EDGE
            with pytest.raises(PlacementError, match=f"^vertex {missing} has no tier assignment$"):
                plan.validate()
        with pytest.raises(PlacementError, match=r"^unassigned vertices: \['conv1', "):
            PlacementPlan.from_mapping(resnet18, {0: Tier.DEVICE}).validate()

    def test_tier_of_unassigned_raises(self, alexnet):
        with pytest.raises(PlacementError):
            PlacementPlan(alexnet).tier_of(3)


class TestPlanEvaluator:
    def test_objective_of_incomplete_plan_names_the_gap(self, alexnet, alexnet_profile, wifi):
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        del plan.assignments[4]
        with pytest.raises(PlacementError, match="^vertex 4 has no tier assignment$"):
            PlanEvaluator(alexnet_profile, wifi).objective(plan)

    def test_device_only_has_no_transfer(self, alexnet, alexnet_profile, wifi):
        evaluator = PlanEvaluator(alexnet_profile, wifi)
        metrics = evaluator.metrics(PlacementPlan.single_tier(alexnet, Tier.DEVICE))
        assert metrics.transfer_latency_s == 0.0
        assert metrics.bytes_to_cloud == 0
        assert metrics.cut_edge_count == 0

    def test_cloud_only_ships_raw_input(self, alexnet, alexnet_profile, wifi):
        evaluator = PlanEvaluator(alexnet_profile, wifi)
        metrics = evaluator.metrics(PlacementPlan.single_tier(alexnet, Tier.CLOUD))
        assert metrics.bytes_to_cloud == alexnet.input_vertex.output_bytes
        assert metrics.transfer_latency_s == pytest.approx(
            wifi.transfer_seconds(alexnet.input_vertex.output_bytes, "device", "cloud")
        )

    def test_objective_equals_metrics_latency(self, alexnet, alexnet_profile, wifi):
        evaluator = PlanEvaluator(alexnet_profile, wifi)
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        assert evaluator.objective(plan) == pytest.approx(
            evaluator.metrics(plan).end_to_end_latency_s
        )

    def test_compute_time_split_by_tier(self, alexnet, alexnet_profile, wifi):
        evaluator = PlanEvaluator(alexnet_profile, wifi)
        plan = PlacementPlan.single_tier(alexnet, Tier.EDGE)
        metrics = evaluator.metrics(plan)
        assert metrics.compute_latency_s[Tier.EDGE] > 0
        assert metrics.compute_latency_s[Tier.CLOUD] == 0.0

    def test_faster_backbone_reduces_cloud_latency(self, alexnet, alexnet_profile):
        from repro.network.conditions import get_condition

        plan = PlacementPlan.single_tier(alexnet, Tier.CLOUD)
        slow = PlanEvaluator(alexnet_profile, get_condition("4g")).objective(plan)
        fast = PlanEvaluator(alexnet_profile, get_condition("optical")).objective(plan)
        assert fast < slow

    def test_megabits_property(self, alexnet, alexnet_profile, wifi):
        evaluator = PlanEvaluator(alexnet_profile, wifi)
        metrics = evaluator.metrics(PlacementPlan.single_tier(alexnet, Tier.CLOUD))
        assert metrics.megabits_to_cloud == pytest.approx(metrics.bytes_to_cloud * 8 / 1e6)
