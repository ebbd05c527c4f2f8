"""Tests for the Horizontal Partition Algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hpa_reference import (
    BACKBONE_CYCLE,
    MODELS,
    ReferencePartitioner,
    reference_live_tensor_transfer,
)
from repro.core.hpa import LOOKAHEAD_MODES, HPAConfig, HorizontalPartitioner, LiveFrontier
from repro.core.placement import TIER_ORDER, PlacementPlan, PlanEvaluator, Tier
from repro.baselines.single_tier import SingleTierBaseline
from repro.graph.builder import GraphBuilder
from repro.network.conditions import get_condition
from repro.profiling.profiler import LatencyProfile


@pytest.fixture(scope="module")
def partitioner(alexnet_profile, wifi):
    return HorizontalPartitioner(alexnet_profile, wifi)


class TestConfig:
    def test_invalid_lookahead_rejected(self):
        with pytest.raises(ValueError):
            HPAConfig(lookahead="psychic")

    def test_modes_accepted(self):
        for mode in ("none", "successor", "cumulative"):
            assert HPAConfig(lookahead=mode).lookahead == mode


class TestWeightHelpers:
    def test_transfer_zero_within_tier(self, partitioner):
        assert partitioner.transfer_latency(10**6, Tier.EDGE, Tier.EDGE) == 0.0

    def test_transfer_matches_condition(self, partitioner, wifi):
        expected = wifi.transfer_seconds(10**6, "device", "edge")
        assert partitioner.transfer_latency(10**6, Tier.DEVICE, Tier.EDGE) == pytest.approx(expected)

    def test_vertex_latency_reads_profile(self, partitioner, alexnet, alexnet_profile):
        vertex = alexnet.vertex("conv1")
        assert partitioner.vertex_latency(vertex, Tier.CLOUD) == alexnet_profile.get(
            vertex.index, Tier.CLOUD
        )


    def test_weighted_scores_compose_the_three_axes(self, alexnet, alexnet_profile, wifi):
        from repro.core.economics import ObjectiveWeights, TierEconomics
        from repro.network.topology import Topology

        economics = TierEconomics.from_topology(Topology.three_tier(num_edge_nodes=1))
        weights = ObjectiveWeights(latency=1.0, energy=0.5, cost=2.0)
        weighted = HorizontalPartitioner(
            alexnet_profile, wifi, economics=economics, weights=weights
        )
        vertex = alexnet.vertex("conv1")
        seconds = alexnet_profile.get(vertex.index, Tier.DEVICE)
        assert weighted.vertex_latency(vertex, Tier.DEVICE) == (
            seconds
            + 0.5 * economics.compute_joules(vertex.flops, Tier.DEVICE)
            + 2.0 * economics.compute_cost_usd(seconds, Tier.DEVICE)
        )
        payload = 10**6
        assert weighted.transfer_latency(payload, Tier.DEVICE, Tier.EDGE) == (
            wifi.transfer_seconds(payload, "device", "edge")
            + 0.5 * economics.transfer_joules(payload, Tier.DEVICE, Tier.EDGE)
        )
        weighted.partition(alexnet).validate()


class TestProposition1:
    def test_potential_tiers_follow_predecessors(self, partitioner, alexnet):
        plan = PlacementPlan(alexnet)
        plan.assign(0, Tier.DEVICE)
        conv1 = alexnet.vertex("conv1")
        assert partitioner.potential_tiers(alexnet, plan, conv1) == [
            Tier.DEVICE,
            Tier.EDGE,
            Tier.CLOUD,
        ]
        plan.assign(0, Tier.EDGE)
        assert partitioner.potential_tiers(alexnet, plan, conv1) == [Tier.EDGE, Tier.CLOUD]
        plan.assign(0, Tier.CLOUD)
        assert partitioner.potential_tiers(alexnet, plan, conv1) == [Tier.CLOUD]

    @pytest.mark.parametrize("model_fixture", ["alexnet", "resnet18", "small_inception"])
    def test_partition_respects_proposition1(self, model_fixture, request, clean_profiler,
                                              cluster_one_edge, wifi):
        graph = request.getfixturevalue(model_fixture)
        profile = clean_profiler.build_profile_from_measurements(
            graph, cluster_one_edge.tier_hardware(), repeats=1
        )
        plan = HorizontalPartitioner(profile, wifi).partition(graph)
        plan.validate()  # raises on any Proposition-1 violation

    def test_input_vertex_has_only_the_device(self, partitioner, alexnet):
        plan = PlacementPlan(alexnet)
        assert partitioner.potential_tiers(alexnet, plan, alexnet.input_vertex) == [Tier.DEVICE]

    def test_cloud_bound_vertex_stays_on_cloud(self, partitioner, alexnet):
        plan = PlacementPlan.single_tier(alexnet, Tier.CLOUD)
        plan.assign(0, Tier.CLOUD)
        assert partitioner.optimal_tier(alexnet, plan, alexnet.vertex("conv1")) == Tier.CLOUD

    def test_input_vertex_always_on_device(self, partitioner, alexnet):
        plan = partitioner.partition(alexnet)
        assert plan.tier_of(alexnet.input_vertex.index) == Tier.DEVICE


class TestPartitionQuality:
    @pytest.mark.parametrize("network", ["wifi", "4g", "5g", "optical"])
    def test_hpa_not_worse_than_best_single_tier(self, alexnet, alexnet_profile, network):
        condition = get_condition(network)
        plan = HorizontalPartitioner(alexnet_profile, condition).partition(alexnet)
        hpa_latency = PlanEvaluator(alexnet_profile, condition).objective(plan)
        single = SingleTierBaseline(alexnet_profile, condition)
        best_single = min(single.all_latencies_s(alexnet).values())
        assert hpa_latency <= best_single * 1.01

    def test_hpa_much_faster_than_device_only(self, resnet18, resnet_profile, wifi):
        plan = HorizontalPartitioner(resnet_profile, wifi).partition(resnet18)
        hpa_latency = PlanEvaluator(resnet_profile, wifi).objective(plan)
        device_only = SingleTierBaseline(resnet_profile, wifi).latency_s(resnet18, Tier.DEVICE)
        assert device_only / hpa_latency > 3.0

    def test_lookahead_modes_produce_valid_plans(self, alexnet, alexnet_profile, wifi):
        for mode in ("none", "successor", "cumulative"):
            config = HPAConfig(lookahead=mode)
            plan = HorizontalPartitioner(alexnet_profile, wifi, config).partition(alexnet)
            plan.validate()

    def test_cumulative_not_worse_than_pure_greedy(self, resnet18, resnet_profile, wifi):
        evaluator = PlanEvaluator(resnet_profile, wifi)
        greedy = HorizontalPartitioner(resnet_profile, wifi, HPAConfig(lookahead="none"))
        cumulative = HorizontalPartitioner(resnet_profile, wifi, HPAConfig(lookahead="cumulative"))
        assert evaluator.objective(cumulative.partition(resnet18)) <= evaluator.objective(
            greedy.partition(resnet18)
        ) * 1.01

    def test_sis_update_counts_changes(self, small_inception, clean_profiler, cluster_one_edge, wifi):
        profile = clean_profiler.build_profile_from_measurements(
            small_inception, cluster_one_edge.tier_hardware(), repeats=1
        )
        partitioner = HorizontalPartitioner(profile, wifi)
        plan = partitioner.partition(small_inception)
        plan.validate()

    def test_largest_direct_successor(self, partitioner, alexnet):
        conv1 = alexnet.vertex("conv1")
        successor = partitioner.largest_direct_successor(alexnet, conv1)
        assert successor is not None
        assert successor.index in {s.index for s in alexnet.successors(conv1.index)}

    def test_no_successor_returns_none(self, partitioner, alexnet):
        last = alexnet.output_vertices()[-1]
        assert partitioner.largest_direct_successor(alexnet, last) is None


# ---------------------------------------------------------------------- #
# Differential tests: the live frontier against the full-scan reference
# ---------------------------------------------------------------------- #
def _checked_partition(partitioner, graph):
    """``partition()``, asserting at every decision that the live-transfer
    cost for each target equals the full-scan reference exactly.

    Both the frontier ``partition()`` maintains and one rebuilt from the plan
    are checked.  Returns the plan and the number of decisions checked.
    """
    decide = partitioner.optimal_tier
    decisions = []

    def checked(graph, plan, vertex, remaining=None, frontier=None):
        incremental = frontier.live_for(vertex)
        rebuilt = LiveFrontier.of_plan(graph, plan).live_for(vertex)
        for target in TIER_ORDER:
            expected = reference_live_tensor_transfer(partitioner, graph, plan, vertex, target)
            assert partitioner._live_tensor_transfer(plan, incremental, target) == expected
            assert partitioner._live_tensor_transfer(plan, rebuilt, target) == expected
        decisions.append(vertex.index)
        return decide(graph, plan, vertex, remaining=remaining, frontier=frontier)

    partitioner.optimal_tier = checked
    return partitioner.partition(graph), len(decisions)


class TestLiveFrontierDifferential:
    @pytest.mark.parametrize("mode", LOOKAHEAD_MODES)
    @pytest.mark.parametrize("model", MODELS)
    def test_every_decision_and_plan_match_reference(self, model, mode, zoo_profiles, wifi):
        graph, profile = zoo_profiles[model]
        config = HPAConfig(lookahead=mode)
        for multiplier in BACKBONE_CYCLE:
            network = wifi.scaled_backbone(multiplier)
            plan, decisions = _checked_partition(
                HorizontalPartitioner(profile, network, config), graph
            )
            assert decisions == len(graph) - 1  # every vertex but v0
            reference = ReferencePartitioner(profile, network, config).partition(graph)
            assert plan.signature() == reference.signature()

    @pytest.mark.parametrize("model", MODELS)
    def test_live_term_is_zero_on_complete_plans(self, model, zoo_profiles, wifi):
        graph, profile = zoo_profiles[model]
        partitioner = HorizontalPartitioner(profile, wifi)
        plan = partitioner.partition(graph)
        for vertex in graph:
            live = LiveFrontier.of_plan(graph, plan).live_for(vertex)
            assert live == []
            for target in TIER_ORDER:
                assert partitioner._live_tensor_transfer(plan, live, target) == 0.0
                expected = reference_live_tensor_transfer(partitioner, graph, plan, vertex, target)
                assert expected == 0.0

    def test_default_remaining_matches_reference(self, zoo_profiles, wifi):
        graph, profile = zoo_profiles["inception_v4"]
        partitioner = HorizontalPartitioner(profile, wifi)
        reference = ReferencePartitioner(profile, wifi)
        for vertex in graph:
            assert partitioner._default_remaining(graph, vertex) == reference._default_remaining(
                graph, vertex
            )

    @pytest.mark.parametrize("model", ["resnet18", "inception_v4"])
    def test_optimal_tier_derives_missing_bookkeeping(self, model, zoo_profiles, wifi):
        """Without ``remaining`` and ``frontier`` a decision derives both
        from the graph and the plan (the local-update entry point)."""
        graph, profile = zoo_profiles[model]
        partitioner = HorizontalPartitioner(profile, wifi)
        plan = partitioner.partition(graph)
        for vertex in graph.vertices[1:]:
            assert partitioner.optimal_tier(graph, plan, vertex) == partitioner.optimal_tier(
                graph,
                plan,
                vertex,
                remaining=partitioner._default_remaining(graph, vertex),
                frontier=LiveFrontier.of_plan(graph, plan),
            )

    def test_frontier_of_a_hand_built_plan(self, resnet18):
        """A residual block's skip tensor stays live until its add is assigned."""
        plan = PlacementPlan(resnet18)
        add = next(v for v in resnet18 if len(resnet18.predecessors(v.index)) > 1)
        skip, branch = resnet18.predecessors(add.index)
        for vertex in resnet18:
            if vertex.index >= add.index:
                break
            plan.assign(vertex.index, Tier.DEVICE)
        frontier = LiveFrontier.of_plan(resnet18, plan)
        assert skip.index in {v.index for v in frontier.live_for(branch)}
        assert frontier.live_for(add) == []  # both inputs are add's own


@st.composite
def random_dags(draw):
    """A random DAG of same-padding convolutions, ReLUs, concats and adds."""
    ops = []
    for position in range(draw(st.integers(min_value=2, max_value=14))):
        kind = draw(st.sampled_from(["conv", "relu", "concat", "add"]))
        first = draw(st.integers(min_value=0, max_value=position))
        second = draw(st.integers(min_value=0, max_value=position))
        channels = draw(st.integers(min_value=1, max_value=8))
        ops.append((kind, first, second, channels))
    builder = GraphBuilder("random", input_shape=(3, 8, 8))
    names, channel_of = ["input"], [3]
    for position, (kind, first, second, channels) in enumerate(ops):
        name = f"v{position + 1}"
        pair = [names[first], names[second]]
        if kind == "conv":
            builder.conv(name, channels, kernel=3, inputs=pair[:1])
        elif kind == "relu":
            builder.relu(name, inputs=pair[:1])
            channels = channel_of[first]
        elif kind == "add" and channel_of[first] == channel_of[second]:
            builder.residual_add(name, inputs=pair)
            channels = channel_of[first]
        else:  # concat, also of one tensor with itself (a duplicate edge)
            builder.concat(name, inputs=pair)
            channels = channel_of[first] + channel_of[second]
        names.append(name)
        channel_of.append(channels)
    return builder.build()


def _random_profile(graph, rng):
    profile = LatencyProfile("random")
    for vertex in graph:
        for tier in TIER_ORDER:
            profile.set(vertex.index, tier.value, float(rng.uniform(1e-4, 5e-2)))
    return profile


@settings(max_examples=60, deadline=None)
@given(graph=random_dags(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_random_dags_match_reference(graph, seed):
    """Property: on any DAG, profile and bandwidth, every decision's live
    term and the final plan equal the full-scan reference's, and the frontier
    of an arbitrary partial plan (assigned in random order) prices its live
    tensors exactly like the scan."""
    rng = np.random.default_rng(seed)
    profile = _random_profile(graph, rng)
    network = get_condition("wifi").scaled_backbone(float(rng.uniform(0.05, 20.0)))
    for mode in LOOKAHEAD_MODES:
        config = HPAConfig(lookahead=mode)
        plan, _ = _checked_partition(HorizontalPartitioner(profile, network, config), graph)
        reference = ReferencePartitioner(profile, network, config).partition(graph)
        assert plan.signature() == reference.signature()

    partitioner = HorizontalPartitioner(profile, network)
    partial = PlacementPlan(graph)
    order = rng.permutation(len(graph))[: rng.integers(1, len(graph) + 1)]
    for index in order:
        partial.assign(int(index), TIER_ORDER[int(rng.integers(0, 3))])
    frontier = LiveFrontier.of_plan(graph, partial)
    for vertex in graph:
        live = frontier.live_for(vertex)
        for target in TIER_ORDER:
            assert partitioner._live_tensor_transfer(
                partial, live, target
            ) == reference_live_tensor_transfer(partitioner, graph, partial, vertex, target)
