"""Tests for the declarative fault-injection layer: events, schedules, JSON,
seeded chaos generation, and the topology failure masking they drive."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.faults import (
    FaultEvent,
    FaultSchedule,
    FaultScheduleError,
    LinkDown,
    LinkUp,
    NodeDown,
    NodeUp,
    load_fault_schedule,
)
from repro.network.topology import (
    RouteUnavailableError,
    Topology,
    TopologyError,
    get_topology,
)


class TestFaultEvents:
    def test_event_kinds(self):
        assert NodeDown(1.0, "edge-0").kind == "node_down"
        assert NodeUp(1.0, "edge-0").kind == "node_up"
        assert LinkDown(1.0, "edge-cloud").kind == "link_down"
        assert LinkUp(1.0, "edge-cloud").kind == "link_up"

    def test_negative_time_rejected(self):
        with pytest.raises(FaultScheduleError):
            NodeDown(-0.5, "edge-0")

    def test_empty_target_rejected(self):
        with pytest.raises(FaultScheduleError):
            LinkDown(1.0, "")

    def test_abstract_base_not_schedulable(self):
        with pytest.raises(FaultScheduleError):
            FaultEvent(1.0, "edge-0")

    def test_failure_and_node_flags(self):
        assert NodeDown(0.0, "n").is_failure and NodeDown(0.0, "n").is_node_event
        assert not NodeUp(0.0, "n").is_failure
        assert not LinkDown(0.0, "l").is_node_event


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([NodeUp(5.0, "e"), NodeDown(1.0, "e")])
        assert [event.time_s for event in schedule] == [1.0, 5.0]

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule([])
        assert FaultSchedule([NodeDown(1.0, "e")])

    def test_state_at_transitions(self):
        schedule = FaultSchedule(
            [
                NodeDown(1.0, "edge-0"),
                LinkDown(2.0, "edge-cloud"),
                NodeUp(3.0, "edge-0"),
                LinkUp(4.0, "edge-cloud"),
            ]
        )
        assert schedule.state_at(0.5) == (frozenset(), frozenset())
        # events scheduled exactly at t are already applied
        assert schedule.state_at(1.0) == (frozenset({"edge-0"}), frozenset())
        assert schedule.state_at(2.5) == (frozenset({"edge-0"}), frozenset({"edge-cloud"}))
        assert schedule.state_at(3.5) == (frozenset(), frozenset({"edge-cloud"}))
        assert schedule.state_at(10.0) == (frozenset(), frozenset())

    def test_state_at_is_idempotent_for_repeated_downs(self):
        schedule = FaultSchedule(
            [NodeDown(1.0, "e"), NodeDown(2.0, "e"), NodeUp(3.0, "e")]
        )
        assert schedule.state_at(2.5) == (frozenset({"e"}), frozenset())
        assert schedule.state_at(3.0) == (frozenset(), frozenset())

    def test_validate_against_topology(self):
        topology = get_topology("three_tier", num_edge_nodes=2)
        FaultSchedule([NodeDown(1.0, "edge-1")]).validate_against(topology)
        with pytest.raises(FaultScheduleError, match="unknown node"):
            FaultSchedule([NodeDown(1.0, "edge-9")]).validate_against(topology)
        with pytest.raises(FaultScheduleError, match="unknown link"):
            FaultSchedule([LinkDown(1.0, "wormhole")]).validate_against(topology)

    def test_json_round_trip(self):
        schedule = FaultSchedule(
            [NodeDown(1.5, "edge-0"), LinkDown(2.0, "edge-cloud"), NodeUp(3.25, "edge-0")],
            name="outage",
        )
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.name == "outage"

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(FaultScheduleError, match="unknown fault kind"):
            FaultSchedule.from_json(
                {"events": [{"at": 1.0, "kind": "meteor", "target": "edge-0"}]}
            )

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule.from_json("{not json")
        with pytest.raises(FaultScheduleError):
            FaultSchedule.from_json("[1, 2]")


def replay(events, time_s):
    """Reference ``(down_nodes, down_links)``: replay every event up to t."""
    down_nodes, down_links = set(), set()
    for event in sorted(events, key=lambda e: e.time_s):
        if event.time_s > time_s:
            break
        targets = down_nodes if event.is_node_event else down_links
        if event.is_failure:
            targets.add(event.target)
        else:
            targets.discard(event.target)
    return frozenset(down_nodes), frozenset(down_links)


class TestFaultCursor:
    EVENTS = [
        NodeDown(1.0, "a"),
        NodeUp(1.0, "a"),  # same instant: declaration order leaves "a" up
        LinkDown(1.0, "l"),
        NodeDown(2.0, "b"),
        NodeDown(2.0, "b"),  # repeated down: idempotent
        NodeUp(3.0, "b"),
        LinkUp(3.0, "l"),
        NodeUp(3.5, "a"),  # up for a healthy node: a no-op
        NodeDown(4.0, "c"),
    ]
    TIMES = [0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 3.5, 4.0, 4.0, 9.0]

    def test_cursor_matches_state_at_at_every_step(self):
        schedule = FaultSchedule(self.EVENTS)
        cursor = schedule.cursor()
        for time_s in self.TIMES:
            state = cursor.advance(time_s)
            assert state == schedule.state_at(time_s) == replay(self.EVENTS, time_s)

    def test_unchanged_state_is_the_same_object(self):
        cursor = FaultSchedule(self.EVENTS).cursor()
        previous = cursor.advance(self.TIMES[0])
        for time_s in self.TIMES[1:]:
            state = cursor.advance(time_s)
            if state == previous:
                assert state is previous
                assert state[0] is previous[0] and state[1] is previous[1]
            previous = state

    def test_decreasing_time_raises_and_keeps_position(self):
        cursor = FaultSchedule(self.EVENTS).cursor()
        at_two = cursor.advance(2.0)
        with pytest.raises(ValueError):
            cursor.advance(1.999)
        assert cursor.advance(2.0) is at_two
        assert cursor.advance(3.0) == replay(self.EVENTS, 3.0)

    def test_empty_schedule_cursor_is_healthy(self):
        cursor = FaultSchedule([]).cursor()
        assert cursor.advance(0.0) == (frozenset(), frozenset())
        assert cursor.advance(100.0) == (frozenset(), frozenset())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([NodeDown, NodeUp, LinkDown, LinkUp]),
                st.integers(0, 8).map(lambda t: t / 2),
                st.sampled_from(["x", "y"]),
            ),
            max_size=12,
        ),
        st.lists(st.integers(0, 10).map(lambda t: t / 2), min_size=1, max_size=12),
    )
    def test_cursor_matches_replay_on_random_schedules(self, raw, times):
        events = [kind(time_s, target) for kind, time_s, target in raw]
        schedule = FaultSchedule(events)
        cursor = schedule.cursor()
        for time_s in sorted(times):
            assert cursor.advance(time_s) == replay(events, time_s)


class TestChaos:
    def test_same_seed_same_schedule(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        first = FaultSchedule.chaos(topology, seed=3, horizon_s=60.0)
        second = FaultSchedule.chaos(topology, seed=3, horizon_s=60.0)
        assert first == second
        assert len(first) > 0

    def test_different_seeds_differ(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        assert FaultSchedule.chaos(topology, seed=0, horizon_s=60.0) != FaultSchedule.chaos(
            topology, seed=1, horizon_s=60.0
        )

    def test_targets_default_to_edge_tier(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        schedule = FaultSchedule.chaos(topology, seed=1, horizon_s=120.0)
        targets = {event.target for event in schedule}
        assert targets <= {f"edge-{i}" for i in range(4)}
        schedule.validate_against(topology)

    def test_every_down_has_matching_up(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        schedule = FaultSchedule.chaos(topology, seed=2, horizon_s=120.0)
        downs = sum(1 for event in schedule if event.is_failure)
        ups = len(schedule) - downs
        assert downs == ups
        # after the final event everything is healthy again
        assert schedule.state_at(float("inf")) == (frozenset(), frozenset())

    def test_crashes_stay_within_horizon(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        schedule = FaultSchedule.chaos(topology, seed=5, horizon_s=30.0)
        assert all(e.time_s < 30.0 for e in schedule if e.is_failure)

    def test_link_chaos_opt_in(self):
        topology = get_topology("three_tier", num_edge_nodes=2)
        schedule = FaultSchedule.chaos(
            topology, seed=4, horizon_s=200.0, tier_mtbf_s={}, link_mtbf_s=20.0
        )
        assert schedule
        assert all(not event.is_node_event for event in schedule)

    def test_invalid_rates_rejected(self):
        topology = get_topology("three_tier")
        with pytest.raises(FaultScheduleError):
            FaultSchedule.chaos(topology, horizon_s=0.0)
        with pytest.raises(FaultScheduleError):
            FaultSchedule.chaos(topology, horizon_s=10.0, mttr_s=0.0)
        with pytest.raises(FaultScheduleError):
            FaultSchedule.chaos(topology, horizon_s=10.0, tier_mtbf_s={"edge": -1.0})


class TestLoadFaultSchedule:
    def test_passthrough(self):
        schedule = FaultSchedule([NodeDown(1.0, "edge-0")])
        assert load_fault_schedule(schedule) is schedule

    def test_chaos_spec(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        schedule = load_fault_schedule("chaos:9", topology=topology, horizon_s=60.0)
        assert schedule.name == "chaos:9"
        assert schedule == FaultSchedule.chaos(topology, seed=9, horizon_s=60.0)

    def test_chaos_needs_topology(self):
        with pytest.raises(FaultScheduleError, match="topology"):
            load_fault_schedule("chaos:1")

    def test_chaos_bad_seed(self):
        with pytest.raises(FaultScheduleError, match="chaos"):
            load_fault_schedule("chaos:banana", topology=get_topology("three_tier"))

    def test_json_file(self, tmp_path):
        schedule = FaultSchedule([NodeDown(1.0, "edge-0"), NodeUp(2.0, "edge-0")])
        path = tmp_path / "faults.json"
        path.write_text(schedule.to_json())
        assert load_fault_schedule(str(path)) == schedule

    def test_json_file_validated_against_topology(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(FaultSchedule([NodeDown(1.0, "edge-7")]).to_json())
        with pytest.raises(FaultScheduleError, match="unknown node"):
            load_fault_schedule(str(path), topology=get_topology("three_tier"))

    def test_unknown_spec(self):
        with pytest.raises(FaultScheduleError, match="unknown fault schedule"):
            load_fault_schedule("definitely/not/a/file.json")


class TestTopologyMasking:
    def test_masked_drops_down_node_and_keys_differently(self):
        topology = get_topology("three_tier", num_edge_nodes=4)
        masked = topology.masked(frozenset({"edge-0"}), frozenset())
        assert "edge-0" not in masked.nodes
        assert len(masked.nodes_of_tier("edge")) == 3
        assert masked.fingerprint() != topology.fingerprint()

    def test_masked_noop_returns_self(self):
        topology = get_topology("three_tier")
        assert topology.masked(frozenset(), frozenset()) is topology

    def test_masked_drops_links_naming_down_nodes(self):
        topology = get_topology("multi_device", num_devices=2)
        masked = topology.masked(frozenset({"device-1"}), frozenset())
        assert "device-1-lan" not in masked.links
        assert "device-1-cloud" not in masked.links
        assert "device-0-lan" in masked.links

    def test_masked_whole_tier_down_raises(self):
        topology = get_topology("three_tier", num_edge_nodes=2)
        with pytest.raises(TopologyError):
            topology.masked(frozenset({"edge-0", "edge-1"}), frozenset())

    def test_masked_severed_cloud_raises(self):
        topology = get_topology("three_tier")
        with pytest.raises(TopologyError):
            topology.masked(frozenset(), frozenset({"edge-cloud", "device-cloud"}))

    def test_route_detours_around_down_link(self):
        topology = get_topology("three_tier")
        assert topology.route("device-0", "edge-0") == ["device-edge"]
        detour = topology.route(
            "device-0", "edge-0", down_links=frozenset({"device-edge"})
        )
        assert detour == ["device-cloud", "edge-cloud"]

    def test_route_avoids_down_relay(self):
        topology = get_topology("device_gateway")
        assert topology.route("device-0", "edge-0") == ["device-gateway", "gateway-edge"]
        with pytest.raises(RouteUnavailableError):
            topology.route("device-0", "edge-0", down_nodes=frozenset({"gateway-0"}))

    def test_route_unavailable_when_severed(self):
        topology = get_topology("multi_device", num_devices=2)
        with pytest.raises(RouteUnavailableError):
            topology.route(
                "device-0",
                "cloud-0",
                down_links=frozenset({"device-0-lan", "device-0-cloud"}),
            )

    def test_route_unavailable_is_a_topology_error(self):
        assert issubclass(RouteUnavailableError, TopologyError)

    def test_route_down_endpoint(self):
        topology = get_topology("three_tier")
        with pytest.raises(RouteUnavailableError):
            topology.route("device-0", "edge-0", down_nodes=frozenset({"edge-0"}))

    def test_masked_routes_do_not_pollute_healthy_cache(self):
        topology = get_topology("three_tier")
        topology.route("device-0", "edge-0", down_links=frozenset({"device-edge"}))
        assert topology.route("device-0", "edge-0") == ["device-edge"]


class TestUnreadableSchedules:
    def test_directory_as_schedule_fails_cleanly(self, tmp_path):
        with pytest.raises(FaultScheduleError, match="cannot read"):
            load_fault_schedule(str(tmp_path))
