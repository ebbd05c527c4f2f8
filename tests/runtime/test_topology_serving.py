"""Integration tests: topology-driven clusters under the serving engine."""

import pytest

from repro.core.d3 import D3Config, D3System
from repro.network.conditions import BandwidthTrace
from repro.network.topology import LinkSpec, NodeSpec, Topology, get_topology
from repro.profiling.hardware import CLOUD_SERVER, EDGE_DESKTOP, RASPBERRY_PI_4
from repro.runtime.cluster import Cluster
from repro.runtime.workload import Request, Workload


def _system(topology=None, **overrides):
    config = dict(use_regression=False, profiler_noise_std=0.0)
    config.update(overrides)
    return D3System(D3Config(topology=topology, **config))


class TestCanonicalEquivalence:
    def test_three_tier_topology_is_bit_identical_to_shim(self):
        """The declarative canonical topology reproduces the fixed-shape API."""
        shim = _system(num_edge_nodes=4, network="wifi")
        topo = _system(Topology.three_tier(num_edge_nodes=4, network="wifi"))
        graph_a = shim.graph_for("alexnet")
        graph_b = topo.graph_for("alexnet")
        result_a = shim.run(graph_a)
        result_b = topo.run(graph_b)
        assert result_a.end_to_end_latency_s == result_b.end_to_end_latency_s
        assert result_a.bytes_to_cloud == result_b.bytes_to_cloud
        assert result_a.placement.assignments == result_b.placement.assignments

    def test_three_tier_serving_is_bit_identical_to_shim(self):
        workload = Workload.poisson("alexnet", num_requests=12, rate_rps=6.0, seed=3)
        report_a = _system(num_edge_nodes=2).serve(workload)
        report_b = _system(Topology.three_tier(num_edge_nodes=2, network="wifi")).serve(
            workload
        )
        assert report_a.latencies_s == report_b.latencies_s
        assert report_a.link_busy_s == report_b.link_busy_s


class TestMultiDeviceFleet:
    def test_sources_spread_over_per_device_links(self):
        system = _system("multi_device")
        sources = [node.name for node in system.cluster.devices]
        assert len(sources) == 3
        workload = Workload.constant_rate(
            "alexnet", num_requests=6, interval_s=0.3, sources=sources
        )
        report = system.serve(workload)
        assert report.num_requests == 6
        # Every device's own LAN wire carried traffic (keys are link ids).
        for i in range(3):
            assert report.link_busy_s[f"device-{i}-lan"] > 0.0

    def test_unpinned_requests_use_primary_device_only(self):
        system = _system("multi_device")
        report = system.serve(Workload.constant_rate("alexnet", 4, interval_s=0.3))
        busy = {k: v for k, v in report.link_busy_s.items() if v > 0}
        assert any("device-0" in key for key in busy)
        assert not any("device-1" in key or "device-2" in key for key in busy)

    def test_unknown_source_rejected(self):
        system = _system("multi_device")
        with pytest.raises(ValueError, match="not a device node"):
            system.serve(Workload.single("alexnet", source="device-99"))

    def test_non_device_source_rejected(self):
        system = _system("multi_device")
        with pytest.raises(ValueError, match="not a device"):
            system.serve(Workload.single("alexnet", source="edge-0"))


class TestHeterogeneousEdge:
    def test_slower_rack_is_no_faster_than_homogeneous(self):
        homogeneous = _system(
            get_topology("hetero_edge", speed_factors=(1.0, 1.0, 1.0, 1.0))
        )
        hetero = _system(
            get_topology("hetero_edge", speed_factors=(1.0, 0.25, 0.25, 0.25))
        )
        fast = homogeneous.run(homogeneous.graph_for("resnet18"))
        slow = hetero.run(hetero.graph_for("resnet18"))
        assert slow.end_to_end_latency_s >= fast.end_to_end_latency_s

    def test_speed_factors_realized_on_nodes(self):
        system = _system(get_topology("hetero_edge", speed_factors=(1.0, 0.5)))
        factors = [node.speed_factor for node in system.cluster.edge_nodes]
        assert factors == [1.0, pytest.approx(0.5)]


class TestGatewayChain:
    def test_transfers_cross_every_hop(self):
        system = _system("device_gateway")
        result = system.run(system.graph_for("alexnet"), method="cloud_only")
        report = system.serve(Workload.single("alexnet"), method="cloud_only")
        # The raw input crosses device->gateway, gateway->edge and edge->cloud.
        busy = {k: v for k, v in report.link_busy_s.items() if v > 0}
        assert set(busy) == {"device-gateway", "gateway-edge", "edge-cloud"}
        assert result.bytes_to_cloud > 0

    def test_transfer_duration_is_the_sum_of_hop_times(self):
        """Store-and-forward: the recorded transfer spans all three wires."""
        system = _system("device_gateway")
        result = system.run(system.graph_for("alexnet"), method="cloud_only")
        transfer = result.report.transfers[0]
        topology = system.topology
        expected = sum(
            transfer.payload_bytes
            / (topology.hop_mbps(topology.links[hop]) * 1e6 / 8.0)
            for hop in topology.route("device-0", "cloud-0")
        )
        assert transfer.duration_s == pytest.approx(expected, rel=1e-9)


class TestTracedLinks:
    def test_link_trace_prices_transfers_at_their_start_time(self):
        """A traced wire charges each hop the rate in effect when it starts."""
        slowdown = BandwidthTrace(samples=[(0.0, 80.0), (1.0, 8.0)])
        topology = Topology(
            "traced",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", slowdown),
                LinkSpec("bb", "e0", "c0", 30.0),
                LinkSpec("up", "d0", "c0", 18.0),
            ],
        )
        system = _system(topology, enable_vsm=False)
        early = system.serve(Workload.single("alexnet", at_s=0.0), method="edge_only")
        late = system.serve(Workload.single("alexnet", at_s=2.0), method="edge_only")
        assert late.latencies_s[0] > early.latencies_s[0] * 2


class TestClusterFromTopology:
    def test_with_network_preserves_topology(self):
        cluster = Cluster.from_topology(get_topology("multi_device", num_devices=2))
        clone = cluster.with_network(cluster.network.scaled_backbone(0.5))
        assert len(clone.devices) == 2
        assert clone.topology.fingerprint() == cluster.topology.fingerprint()

    def test_node_lookup(self):
        cluster = Cluster.from_topology(get_topology("multi_device", num_devices=2))
        assert cluster.node("device-1").tier.value == "device"
        with pytest.raises(KeyError):
            cluster.node("gateway-0")

    def test_plan_cache_key_separates_topologies(self):
        """Identical config/network/model but a different shape never shares plans."""
        canonical = _system(num_edge_nodes=4)
        hetero = _system(get_topology("hetero_edge", speed_factors=(1.0, 1.0, 0.5, 0.5)))
        entry_a = canonical._plan_for(canonical.graph_for("alexnet"), canonical.network)
        entry_b = hetero._plan_for(hetero.graph_for("alexnet"), hetero.network)
        assert entry_a.key != entry_b.key
        assert entry_a.key.topology != entry_b.key.topology
        # The other system's cache has no entry under the foreign key.
        assert hetero.plan_cache.get(entry_a.key) is None


class TestJsonNetworkPrecedence:
    def test_document_network_wins_over_config_default(self, tmp_path):
        """A JSON topology declaring 4g must not be silently re-priced at wifi."""
        import json

        document = {
            "name": "site",
            "network": "4g",
            "nodes": [
                {"name": "d0", "tier": "device", "hardware": "raspberry_pi_4"},
                {"name": "e0", "tier": "edge", "hardware": "edge_desktop"},
                {"name": "c0", "tier": "cloud", "hardware": "cloud_server"},
            ],
            "links": [
                {"name": "lan", "between": ["d0", "e0"]},
                {"name": "bb", "between": ["e0", "c0"]},
                {"name": "up", "between": ["d0", "c0"]},
            ],
        }
        path = tmp_path / "site.json"
        path.write_text(json.dumps(document))
        system = _system(str(path))  # D3Config's network default is "wifi"
        assert system.network.name == "4g"
        assert system.network.edge_cloud_mbps == pytest.approx(13.79)

    def test_fallback_to_passed_network_when_document_is_silent(self, tmp_path):
        import json

        from repro.network.topology import load_topology

        document = {
            "name": "bare",
            "nodes": [
                {"name": "d0", "tier": "device", "hardware": "raspberry_pi_4"},
                {"name": "e0", "tier": "edge", "hardware": "edge_desktop"},
                {"name": "c0", "tier": "cloud", "hardware": "cloud_server"},
            ],
            "links": [
                {"name": "lan", "between": ["d0", "e0"]},
                {"name": "bb", "between": ["e0", "c0"]},
                {"name": "up", "between": ["d0", "c0"]},
            ],
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(document))
        topology = load_topology(str(path), network="5g")
        assert topology.base_network.name == "5g"


class TestTracedLinkBacklogPricing:
    def test_queued_transfer_pays_the_rate_at_its_start_time(self):
        """A hop delayed behind a backlog is priced when the wire frees."""
        from repro.network.link import SharedLink

        trace = BandwidthTrace(samples=[(0.0, 80.0), (1.0, 8.0)])
        topology = Topology(
            "backlogged",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", trace),
                LinkSpec("bb", "e0", "c0", 30.0),
                LinkSpec("up", "d0", "c0", 18.0),
            ],
        )
        cluster = Cluster.from_topology(topology)
        link = cluster.shared_links["lan"]
        # Occupy the wire until t=2.0: a transfer requested at t=0.5 starts at
        # t=2.0, when the trace has already dropped to 8 Mbps.
        link.reserve(0.0, 2.0)
        payload = 1_000_000  # 1 MB: 0.1 s at 80 Mbps, 1.0 s at 8 Mbps
        expected = cluster.hop_seconds(link, payload, cluster.network, 2.0)
        assert expected == pytest.approx(1.0)
        # The engine's pricing rule: rate sampled at max(ready, available_at).
        starts_at = max(0.5, link.available_at)
        duration = cluster.hop_seconds(link, payload, cluster.network, starts_at)
        assert duration == pytest.approx(1.0)  # not 0.1 s


class TestThreeTierPresetShim:
    def test_preset_name_honours_num_edge_nodes(self):
        """--topology three_tier must describe the same testbed as the default."""
        named = D3Config(topology="three_tier", num_edge_nodes=4).resolve_topology()
        default = D3Config(num_edge_nodes=4).resolve_topology()
        assert named.fingerprint() == default.fingerprint()
        assert len(named.nodes_of_tier("edge")) == 4


class TestTracedTopologyAdaptation:
    def _drifting_topology(self):
        """LAN collapses 84.95 -> 12 Mbps at t=5s (well beyond the band)."""
        return Topology(
            "degrading-lan",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", BandwidthTrace(samples=[(0.0, 84.95), (5.0, 12.0)])),
                LinkSpec("bb", "e0", "c0", 31.53),
                LinkSpec("up", "d0", "c0", 18.75),
            ],
        )

    def test_serve_repartitions_when_a_traced_link_drifts(self):
        """No explicit trace= needed: the topology's own links drive adaptation."""
        system = _system(self._drifting_topology())
        workload = Workload.constant_rate("alexnet", num_requests=10, interval_s=1.0)
        report = system.serve(workload)
        assert report.cache_misses == 1
        assert report.repartitions >= 1
        assert system.plan_cache.invalidations >= 1

    def test_failover_retry_with_nothing_down_plans_like_an_arrival(self):
        """A retry after everything recovered sees the traced LAN at its own
        instant (12 Mbps at t=6s), not the healthy t=0 view (84.95 Mbps)."""
        system = _system(self._drifting_topology())
        workload = Workload(requests=[Request(0, "alexnet", 6.0)])
        [arrival] = system.plan_requests(workload)
        replan = system._make_replanner(system._strategy_for(), None)
        retry = replan(arrival, 6.0, frozenset(), frozenset())
        assert retry.condition == arrival.condition
        assert retry.condition.device_edge_mbps == pytest.approx(12.0)
        assert retry.plan.assignments == arrival.plan.assignments

    def test_stable_traced_topology_stays_cached(self):
        """In-band wobble on a traced link is a cache hit, not a repartition."""
        wobble = BandwidthTrace(samples=[(0.0, 84.95), (5.0, 80.0)])
        topology = Topology(
            "stable-lan",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", wobble),
                LinkSpec("bb", "e0", "c0", 31.53),
                LinkSpec("up", "d0", "c0", 18.75),
            ],
        )
        system = _system(topology)
        report = system.serve(Workload.constant_rate("alexnet", 8, interval_s=1.0))
        assert report.cache_misses == 1
        assert report.repartitions == 0
        assert report.cache_hits == 7


class TestTopologyFingerprintGuard:
    def test_executor_rejects_plan_from_another_topology(self, alexnet, alexnet_profile):
        from repro.core.strategy import ClusterSpec, get_strategy
        from repro.runtime.executor import DistributedExecutor

        hetero = Cluster.from_topology(get_topology("hetero_edge"))
        canonical = Cluster.build(network="wifi", num_edge_nodes=4)
        plan = get_strategy("hpa_vsm").plan(
            alexnet,
            alexnet_profile,
            hetero.network,
            ClusterSpec.from_cluster(hetero),
        )
        with pytest.raises(ValueError, match="different topology"):
            DistributedExecutor.from_partition_plan(plan, alexnet_profile, canonical)
        # On its own cluster the stamped plan runs fine.
        report = DistributedExecutor.from_partition_plan(
            plan, alexnet_profile, hetero
        ).execute()
        assert report.end_to_end_latency_s > 0

    def test_unstamped_plans_run_anywhere(self, alexnet, alexnet_profile):
        from repro.core.strategy import get_strategy
        from repro.runtime.executor import DistributedExecutor

        cluster = Cluster.build(network="wifi", num_edge_nodes=2)
        plan = get_strategy("cloud_only").plan(alexnet, alexnet_profile, cluster.network)
        report = DistributedExecutor.from_partition_plan(
            plan, alexnet_profile, cluster
        ).execute()
        assert report.end_to_end_latency_s > 0


class TestOffPrimaryDrift:
    def _fleet_with_traced_second_uplink(self):
        """device-1's own LAN collapses 80 -> 8 Mbps at t=2s; device-0's wires
        (the primary planning routes) never move."""
        return Topology(
            "fleet-traced",
            nodes=[
                NodeSpec("device-0", "device", RASPBERRY_PI_4),
                NodeSpec("device-1", "device", RASPBERRY_PI_4),
                NodeSpec("edge-0", "edge", EDGE_DESKTOP),
                NodeSpec("cloud-0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("d0-lan", "device-0", "edge-0", 80.0),
                LinkSpec("d0-cloud", "device-0", "cloud-0", 18.75),
                LinkSpec(
                    "d1-lan",
                    "device-1",
                    "edge-0",
                    BandwidthTrace(samples=[(0.0, 80.0), (2.0, 8.0)]),
                ),
                LinkSpec("d1-cloud", "device-1", "cloud-0", 18.75),
                LinkSpec("bb", "edge-0", "cloud-0", 31.53),
            ],
        )

    def test_drift_off_the_primary_routes_still_adapts(self):
        """An exact plan-key hit must re-validate the per-link band: device-1's
        wire collapses without moving the primary tier-pair rates."""
        system = _system(self._fleet_with_traced_second_uplink())
        workload = Workload.constant_rate(
            "alexnet", num_requests=6, interval_s=1.0, sources=["device-0"]
        )
        report = system.serve(workload)
        # Primary-only stream: its wires are static, nothing should adapt...
        assert report.repartitions + report.cache_misses >= 1
        invalidations_before = system.plan_cache.invalidations
        # ...but a stream that crosses the collapsing wire must.
        fleet = Workload.constant_rate(
            "alexnet", num_requests=6, interval_s=1.0, sources=["device-1"]
        )
        fleet_report = system.serve(fleet)
        assert fleet_report.repartitions >= 1
        assert system.plan_cache.invalidations > invalidations_before


class TestIdealLatencyOnTracedTopologies:
    def test_idle_late_request_has_near_zero_queueing_delay(self):
        """The ideal baseline freezes traced wires at the arrival's rates, so
        an uncontended request arriving after a collapse is not charged its
        whole slow transfer as 'queueing'."""
        topology = Topology(
            "collapsing-lan",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec(
                    "lan", "d0", "e0", BandwidthTrace(samples=[(0.0, 84.95), (5.0, 2.0)])
                ),
                LinkSpec("bb", "e0", "c0", 31.53),
                LinkSpec("up", "d0", "c0", 18.75),
            ],
        )
        system = _system(topology, enable_vsm=False)
        report = system.serve(Workload.single("alexnet", at_s=6.0), method="edge_only")
        delay = report.records[0].queueing_delay_s
        assert delay is not None
        assert abs(delay) < 1e-6  # idle cluster: latency == the (slow) ideal


class TestPerSourcePlanning:
    def test_fleet_member_is_planned_against_its_own_uplink(self):
        """A device on a crippled uplink must not inherit the primary's plan."""
        topology = get_topology("multi_device", num_devices=2, device_mbps=(84.95, 0.5))
        system = _system(topology, enable_vsm=False)
        fast = system.serve(Workload.single("alexnet", source="device-0"))
        slow = system.serve(Workload.single("alexnet", source="device-1"))
        # Distinct planning conditions -> a fresh plan per source (the second
        # arrives through the drift path: an adaptation, not a shared hit).
        assert fast.plans_computed == 1 and slow.plans_computed == 1
        assert slow.cache_hits == 0
        # The slow device's plan keeps more work local than the fast one's
        # offload, and its idle latency reflects its own 0.5 Mbps wire.
        assert slow.latencies_s[0] != fast.latencies_s[0]
        delay = slow.records[0].queueing_delay_s
        assert delay is not None and abs(delay) < 1e-6
