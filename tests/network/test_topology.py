"""Tests for the declarative topology API: presets, validation, routing, JSON."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.network.conditions import BandwidthTrace, get_condition
from repro.network.topology import (
    DEFAULT_TIER_PRICES,
    InsufficientMemoryError,
    LinkSpec,
    NodeSpec,
    Topology,
    TopologyError,
    get_topology,
    hardware_from_json,
    hardware_to_json,
    list_topologies,
    load_topology,
)
from repro.profiling.hardware import (
    CLOUD_SERVER,
    EDGE_DESKTOP,
    EnergyModel,
    HardwareSpec,
    RASPBERRY_PI_4,
)


def _chain_topology(edge_cloud=None):
    """A small explicit topology: device -> relay -> edge -> cloud."""
    return Topology(
        "chain",
        nodes=[
            NodeSpec("d0", "device", RASPBERRY_PI_4),
            NodeSpec("gw", "relay"),
            NodeSpec("e0", "edge", EDGE_DESKTOP),
            NodeSpec("c0", "cloud", CLOUD_SERVER),
        ],
        links=[
            LinkSpec("uplink", "d0", "gw", 50.0),
            LinkSpec("trunk", "gw", "e0", 100.0),
            LinkSpec("backbone", "e0", "c0", edge_cloud or 25.0),
        ],
    )


class TestPresets:
    def test_registry_lists_all_presets(self):
        assert list_topologies() == [
            "three_tier",
            "multi_device",
            "hetero_edge",
            "device_gateway",
        ]

    def test_three_tier_matches_canonical_testbed(self):
        topology = Topology.three_tier(num_edge_nodes=4, network="wifi")
        assert [n.name for n in topology.nodes_of_tier("edge")] == [
            "edge-0",
            "edge-1",
            "edge-2",
            "edge-3",
        ]
        assert set(topology.links) == {"device-edge", "edge-cloud", "device-cloud"}
        assert all(link.is_inherited for link in topology.links.values())
        # The planning view of an all-inherited topology IS the base condition.
        assert topology.planning_condition() is get_condition("wifi")

    def test_multi_device_owns_per_device_wires(self):
        topology = get_topology("multi_device", num_devices=3)
        assert len(topology.nodes_of_tier("device")) == 3
        assert "device-2-lan" in topology.links and "device-2-cloud" in topology.links

    def test_hetero_edge_scales_hardware(self):
        topology = get_topology("hetero_edge", speed_factors=(1.0, 0.5))
        edges = topology.nodes_of_tier("edge")
        assert edges[0].hardware.cpu_gflops == EDGE_DESKTOP.cpu_gflops
        assert edges[1].hardware.cpu_gflops == pytest.approx(EDGE_DESKTOP.cpu_gflops * 0.5)

    def test_device_gateway_is_multi_hop(self):
        topology = get_topology("device_gateway")
        hops = topology.route("device-0", "cloud-0")
        assert hops == ["device-gateway", "gateway-edge", "edge-cloud"]

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_topology("does_not_exist")
        with pytest.raises(KeyError):
            load_topology("also_not_a_preset_or_file")


class TestValidation:
    def test_dangling_link_endpoint(self):
        with pytest.raises(TopologyError, match="dangling"):
            Topology(
                "bad",
                nodes=[
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("e0", "edge", EDGE_DESKTOP),
                    NodeSpec("c0", "cloud", CLOUD_SERVER),
                ],
                links=[
                    LinkSpec("lan", "d0", "e0", 50.0),
                    LinkSpec("bb", "e0", "c0", 20.0),
                    LinkSpec("ghost", "d0", "no-such-node", 10.0),
                ],
            )

    def test_unreachable_cloud(self):
        with pytest.raises(TopologyError, match="unreachable"):
            Topology(
                "island",
                nodes=[
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("e0", "edge", EDGE_DESKTOP),
                    NodeSpec("c0", "cloud", CLOUD_SERVER),
                ],
                links=[LinkSpec("lan", "d0", "e0", 50.0)],  # cloud has no wire
            )

    def test_zero_bandwidth_link(self):
        with pytest.raises(TopologyError, match="non-positive"):
            LinkSpec("dead", "a", "b", 0.0)

    def test_missing_tier(self):
        with pytest.raises(TopologyError, match="at least one cloud"):
            Topology(
                "no-cloud",
                nodes=[
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("e0", "edge", EDGE_DESKTOP),
                ],
                links=[LinkSpec("lan", "d0", "e0", 50.0)],
            )

    def test_compute_node_requires_hardware(self):
        with pytest.raises(TopologyError, match="hardware"):
            NodeSpec("e0", "edge")

    def test_memory_feasibility_rejects_oversized_models(self):
        topology = Topology(
            "tiny",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", 50.0),
                LinkSpec("bb", "e0", "c0", 20.0),
            ],
        )
        roomiest = max(
            node.hardware.memory_gb for node in topology.nodes.values()
        )
        fits = int(roomiest * 1024**3) - 1
        topology.validate(min_model_bytes=fits)  # roomiest node holds it
        with pytest.raises(InsufficientMemoryError, match="roomiest"):
            topology.validate(min_model_bytes=fits + 2)
        # The typed error is still a TopologyError for broad handlers.
        assert issubclass(InsufficientMemoryError, TopologyError)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="itself"):
            LinkSpec("loop", "d0", "d0", 10.0)

    def test_inherited_link_needs_compute_tier_pair(self):
        with pytest.raises(TopologyError, match="inherits"):
            Topology(
                "bad-inherit",
                nodes=[
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("gw", "relay"),
                    NodeSpec("e0", "edge", EDGE_DESKTOP),
                    NodeSpec("c0", "cloud", CLOUD_SERVER),
                ],
                links=[
                    LinkSpec("uplink", "d0", "gw"),  # inherit over a relay hop
                    LinkSpec("trunk", "gw", "e0", 100.0),
                    LinkSpec("bb", "e0", "c0", 20.0),
                ],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node"):
            Topology(
                "dup",
                nodes=[
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("d0", "device", RASPBERRY_PI_4),
                    NodeSpec("e0", "edge", EDGE_DESKTOP),
                    NodeSpec("c0", "cloud", CLOUD_SERVER),
                ],
                links=[],
            )


class TestRoutingAndPlanning:
    def test_route_is_deterministic_and_cached(self):
        topology = _chain_topology()
        assert topology.route("d0", "c0") == ["uplink", "trunk", "backbone"]
        assert topology.route("d0", "c0") is topology.route("d0", "c0")

    def test_route_same_node_is_empty(self):
        assert _chain_topology().route("d0", "d0") == []

    def test_planning_condition_harmonic_rates(self):
        topology = _chain_topology()
        condition = topology.planning_condition()
        # device->edge: 50 and 100 Mbps in series.
        assert condition.device_edge_mbps == pytest.approx(1.0 / (1 / 50 + 1 / 100))
        # device->cloud adds the 25 Mbps backbone hop.
        assert condition.device_cloud_mbps == pytest.approx(
            1.0 / (1 / 50 + 1 / 100 + 1 / 25)
        )
        assert condition.edge_cloud_mbps == pytest.approx(25.0)

    def test_traced_link_moves_the_planning_view(self):
        topology = _chain_topology(
            edge_cloud=BandwidthTrace(samples=[(0.0, 25.0), (10.0, 5.0)])
        )
        before = topology.planning_condition(at_s=0.0)
        after = topology.planning_condition(at_s=12.0)
        assert before.edge_cloud_mbps == pytest.approx(25.0)
        assert after.edge_cloud_mbps == pytest.approx(5.0)

    @pytest.mark.parametrize("device_mbps", [None, (84.95, 40.0, 10.0)])
    def test_static_planning_condition_is_memoized_per_source(self, device_mbps):
        def build():
            return get_topology("multi_device", device_mbps=device_mbps)

        topology = build()
        assert not topology.has_traced_links
        conditions = set()
        for device in topology.nodes_of_tier("device"):
            fresh = build().planning_condition(at_s=3.0, source=device.name)
            memoized = topology.planning_condition(source=device.name)
            assert memoized == fresh
            # Time-invariant: any at_s reads the same entry.
            assert topology.planning_condition(at_s=7.5, source=device.name) is memoized
            # An explicit base is priced on its own and leaves the entry alone.
            fourg_base = get_condition("4g")
            fourg = topology.planning_condition(base=fourg_base, source=device.name)
            assert fourg == build().planning_condition(base=fourg_base, source=device.name)
            assert fourg != memoized
            assert topology.planning_condition(source=device.name) is memoized
            conditions.add(memoized)
        if device_mbps is not None:
            assert len(conditions) == len(device_mbps)  # uplinks differ per source
        assert topology.planning_condition() == build().planning_condition()

    def test_traced_planning_condition_is_not_memoized(self):
        topology = _chain_topology(
            edge_cloud=BandwidthTrace(samples=[(0.0, 25.0), (10.0, 5.0)])
        )
        late = topology.planning_condition(at_s=12.0)
        early = topology.planning_condition(at_s=0.0)
        assert late.edge_cloud_mbps == pytest.approx(5.0)
        assert early.edge_cloud_mbps == pytest.approx(25.0)
        assert topology.planning_condition(at_s=12.0) == late
        assert topology.has_traced_links is True
        assert topology.has_traced_links is True  # memoized, still True
        assert _chain_topology().has_traced_links is False

    def test_inherited_link_without_base_raises(self):
        topology = Topology(
            "no-base",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "device", "edge"),
                LinkSpec("bb", "edge", "cloud"),
                LinkSpec("up", "device", "cloud"),
            ],
        )
        with pytest.raises(TopologyError, match="no base"):
            topology.planning_condition()


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["three_tier", "multi_device", "hetero_edge", "device_gateway"])
    def test_presets_round_trip(self, name):
        topology = get_topology(name, network="4g")
        clone = Topology.from_json(topology.to_json())
        assert clone == topology  # fingerprint equality
        assert clone.base_network == topology.base_network

    def test_trace_and_custom_hardware_round_trip(self):
        custom = EDGE_DESKTOP.scaled(0.5)
        topology = Topology(
            "custom",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", custom),
                NodeSpec("c0", "cloud", CLOUD_SERVER),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", 42.0),
                LinkSpec(
                    "bb", "e0", "c0", BandwidthTrace(samples=[(0.0, 30.0), (5.0, 10.0)])
                ),
                LinkSpec("up", "d0", "c0", 11.5),
            ],
        )
        clone = Topology.from_json(topology.to_json())
        assert clone == topology
        assert clone.nodes["e0"].hardware == custom
        assert isinstance(clone.links["bb"].bandwidth, BandwidthTrace)

    def test_load_topology_from_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        topology = get_topology("multi_device", num_devices=2)
        path.write_text(topology.to_json())
        loaded = load_topology(str(path))
        assert loaded == topology

    def test_invalid_json_rejected(self):
        with pytest.raises(TopologyError, match="invalid topology JSON"):
            Topology.from_json("{not json")

    def test_fingerprint_distinguishes_shapes(self):
        a = Topology.three_tier(num_edge_nodes=2)
        b = Topology.three_tier(num_edge_nodes=3)
        c = get_topology("hetero_edge", speed_factors=(1.0, 0.5))
        assert a.fingerprint() != b.fingerprint() != c.fingerprint()
        assert a.fingerprint() == Topology.three_tier(num_edge_nodes=2).fingerprint()


class TestBandwidthTraceValidation:
    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BandwidthTrace(samples=[(0.0, 1.0), (1.0, 2.0), (1.0, 3.0)])

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            BandwidthTrace(samples=[(2.0, 1.0), (1.0, 2.0)])

    def test_non_positive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BandwidthTrace(samples=[(0.0, 0.0)])

    def test_condition_at_requires_base(self):
        trace = BandwidthTrace(samples=[(0.0, 10.0)])
        with pytest.raises(ValueError, match="no base"):
            trace.condition_at(0.0)
        assert trace.sample_at(5.0) == 10.0

    def test_sample_before_first_timestamp(self):
        trace = BandwidthTrace(samples=[(5.0, 2.0), (10.0, 3.0)])
        assert trace.sample_at(0.0) == 2.0
        assert trace.sample_at(7.0) == 2.0
        assert trace.sample_at(10.0) == 3.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda sample: sample[0],
        )
    )
    def test_sample_at_round_trips_every_timestamp(self, samples):
        """Sampling at each timestamp recovers exactly the declared value."""
        samples = sorted(samples)
        trace = BandwidthTrace(samples=samples)
        for time_s, value in samples:
            assert trace.sample_at(time_s) == value
        # Between two timestamps the earlier value holds (piecewise-constant).
        for (t0, v0), (t1, _) in zip(samples, samples[1:]):
            midpoint = t0 + (t1 - t0) / 2.0
            if t0 < midpoint < t1:
                assert trace.sample_at(midpoint) == v0


class TestHardwareSerialization:
    """The lossy-serialization bug this PR fixes: the old round-trip rebuilt
    HardwareSpec from an explicit field list, silently dropping any field not
    on the list.  The codec is now driven by ``dataclasses.fields`` and pinned
    by a hypothesis round-trip property, so a future field cannot regress."""

    finite = {"allow_nan": False, "allow_infinity": False}

    @given(
        cpu=st.floats(min_value=1e-3, max_value=1e5, **finite),
        gpu=st.floats(min_value=0.0, max_value=1e6, **finite),
        bandwidth=st.floats(min_value=1e-3, max_value=1e4, **finite),
        memory=st.floats(min_value=1e-3, max_value=1e4, **finite),
        overhead=st.floats(min_value=0.0, max_value=1e-2, **finite),
        jpf=st.floats(min_value=0.0, max_value=1e-6, **finite),
        radio=st.floats(min_value=0.0, max_value=1e-3, **finite),
        idle=st.floats(min_value=0.0, max_value=1e3, **finite),
    )
    def test_round_trip_is_lossless(
        self, cpu, gpu, bandwidth, memory, overhead, jpf, radio, idle
    ):
        spec = HardwareSpec(
            name="prop",
            cpu_gflops=cpu,
            gpu_gflops=gpu,
            memory_bandwidth_gbps=bandwidth,
            memory_gb=memory,
            per_layer_overhead_s=overhead,
            energy=EnergyModel(
                joules_per_flop=jpf,
                radio_joules_per_byte=radio,
                idle_watts=idle,
            ),
        )
        assert hardware_from_json(hardware_to_json(spec)) == spec

    def test_round_trip_covers_every_declared_field(self):
        """No HardwareSpec field may be absent from the serialized form
        (non-default values only: the unmetered energy default is implied)."""
        spec = RASPBERRY_PI_4
        payload = hardware_to_json(spec)
        declared = {spec_field.name for spec_field in dataclasses.fields(HardwareSpec)}
        assert set(payload) == declared  # RASPBERRY_PI_4 meters energy

    def test_unmetered_energy_is_omitted(self):
        """Pre-energy documents must stay byte-stable."""
        bare = HardwareSpec(
            "bare", cpu_gflops=1, gpu_gflops=0, memory_bandwidth_gbps=1, memory_gb=1
        )
        payload = hardware_to_json(bare)
        assert "energy" not in payload
        assert hardware_from_json(payload) == bare

    def test_unknown_keys_rejected(self):
        with pytest.raises(TopologyError, match="unknown hardware field"):
            hardware_from_json({"cpu_gflops": 1.0, "cpu_gflop": 2.0})
        with pytest.raises(TopologyError, match="unknown energy field"):
            hardware_from_json(
                {
                    "cpu_gflops": 1.0,
                    "gpu_gflops": 0.0,
                    "memory_bandwidth_gbps": 1.0,
                    "memory_gb": 1.0,
                    "energy": {"idle_wats": 3.0},
                }
            )

    def test_preset_energy_survives_topology_round_trip(self):
        topology = Topology.three_tier(num_edge_nodes=2)
        clone = Topology.from_json(topology.to_json())
        for name, node in topology.nodes.items():
            assert clone.nodes[name].hardware == node.hardware
            if node.hardware is not None:
                assert clone.nodes[name].hardware.energy == node.hardware.energy


class TestNodePricing:
    def test_tier_defaults_resolve(self):
        topology = Topology.three_tier(num_edge_nodes=1)
        assert topology.tier_price_per_s("device") == DEFAULT_TIER_PRICES["device"]
        assert topology.tier_price_per_s("edge") == DEFAULT_TIER_PRICES["edge"]
        assert topology.tier_price_per_s("cloud") == DEFAULT_TIER_PRICES["cloud"]

    def test_explicit_price_round_trips(self):
        topology = Topology(
            "priced",
            nodes=[
                NodeSpec("d0", "device", RASPBERRY_PI_4),
                NodeSpec("e0", "edge", EDGE_DESKTOP, price_per_s=1.5e-5),
                NodeSpec("c0", "cloud", CLOUD_SERVER, price_per_s=2.2e-3),
            ],
            links=[
                LinkSpec("lan", "d0", "e0", 42.0),
                LinkSpec("bb", "e0", "c0", 30.0),
                LinkSpec("up", "d0", "c0", 11.5),
            ],
        )
        clone = Topology.from_json(topology.to_json())
        assert clone == topology
        assert clone.nodes["e0"].price_per_s == 1.5e-5
        assert clone.nodes["e0"].resolved_price_per_s == 1.5e-5
        # Undeclared prices fall back to the tier default.
        assert clone.nodes["d0"].price_per_s is None
        assert clone.nodes["d0"].resolved_price_per_s == DEFAULT_TIER_PRICES["device"]

    def test_negative_price_rejected(self):
        with pytest.raises(TopologyError, match="price_per_s"):
            NodeSpec("e0", "edge", EDGE_DESKTOP, price_per_s=-1.0)

    def test_price_changes_fingerprint(self):
        base = Topology.three_tier(num_edge_nodes=1)
        priced = Topology(
            base.name,
            nodes=[
                dataclasses.replace(node, price_per_s=5e-5)
                if node.tier == "edge"
                else node
                for node in base.nodes.values()
            ],
            links=list(base.links.values()),
            base_network=base.base_network,
        )
        assert priced != base
