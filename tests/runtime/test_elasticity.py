"""Elastic fleets: elasticity schedules, balancers, the autoscaler, and the
serving engine's join/drain/replica-group machinery.

Covers the subsystem bottom-up: event and schedule validation with the JSON
round-trip, balancer policies over fake replica states, autoscaler decision
mechanics, and then full ``D3System.serve`` runs — declarative schedules,
idempotent event semantics, graceful drains that never abort work, source
re-resolution when a pinned device drains (vs. the crash semantics that still
fail the request), and autoscaling under load.  Property-based invariants are
in ``TestElasticityProperties``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.d3 import D3Config, D3System
from repro.network.faults import FaultSchedule, NodeDown
from repro.runtime.elasticity import (
    AUTOSCALER_POLICIES,
    BALANCER_NAMES,
    Autoscaler,
    ElasticityError,
    ElasticityEvent,
    ElasticitySchedule,
    JoinShortestQueueBalancer,
    LoadBalancer,
    NodeDrain,
    NodeJoin,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    load_elasticity_schedule,
    resolve_autoscaler,
    resolve_balancer,
)
from repro.runtime.workload import Workload
from repro.testing import serialize_report


@pytest.fixture(scope="module")
def system():
    return D3System(
        D3Config(
            network="wifi",
            num_edge_nodes=4,
            use_regression=False,
            profiler_noise_std=0.0,
        )
    )


@pytest.fixture(scope="module")
def fleet_system():
    return D3System(
        D3Config(topology="multi_device", use_regression=False, profiler_noise_std=0.0)
    )


def compute_events(report, node):
    """Every compute event that ran on ``node``, across all requests."""
    return [
        event
        for record in report.records
        for event in record.report.events
        if event.node == node and event.kind == "compute"
    ]


def replay_inactive(events, time_s):
    """Reference inactive set: every transition effective by ``time_s``."""
    events = sorted(events, key=lambda e: e.time_s)
    first_kind = {}
    for event in events:
        first_kind.setdefault(event.target, event.kind)
    inactive = {target for target, kind in first_kind.items() if kind == "node_join"}
    transitions = sorted(
        (event.ready_s if event.is_join else event.time_s, order)
        for order, event in enumerate(events)
    )
    for effective_s, order in transitions:
        if effective_s > time_s:
            break
        if events[order].is_join:
            inactive.discard(events[order].target)
        else:
            inactive.add(events[order].target)
    return frozenset(inactive)


# --------------------------------------------------------------------------- #
# Events and schedules
# --------------------------------------------------------------------------- #
class TestElasticityEvents:
    def test_abstract_base_cannot_be_scheduled(self):
        with pytest.raises(ElasticityError, match="abstract"):
            ElasticityEvent(0.0, "edge-0")

    def test_negative_time_rejected(self):
        with pytest.raises(ElasticityError, match="negative"):
            NodeJoin(-0.1, "edge-0")

    def test_empty_target_rejected(self):
        with pytest.raises(ElasticityError, match="target"):
            NodeDrain(1.0, "")

    def test_negative_provisioning_rejected(self):
        with pytest.raises(ElasticityError, match="[Pp]rovisioning"):
            NodeJoin(1.0, "edge-0", provision_s=-1.0)

    def test_join_ready_time_and_kind(self):
        join = NodeJoin(1.0, "edge-0", provision_s=0.5)
        assert join.is_join and join.ready_s == 1.5
        drain = NodeDrain(2.0, "edge-0")
        assert not drain.is_join and drain.kind == "node_drain"


class TestElasticitySchedule:
    def build(self):
        return ElasticitySchedule(
            [
                NodeJoin(1.0, "edge-2", provision_s=0.5),
                NodeDrain(2.0, "edge-1"),
                NodeJoin(3.0, "edge-1", provision_s=0.25),
            ],
            name="demo",
        )

    def test_empty_schedule_is_falsy(self):
        assert not ElasticitySchedule([])
        assert self.build()

    def test_initially_parked_is_first_event_join(self):
        # edge-2's first event is a join -> parked; edge-1's is a drain -> active.
        assert self.build().initially_parked() == frozenset({"edge-2"})

    def test_state_at_applies_provisioning_and_drains(self):
        schedule = self.build()
        assert schedule.state_at(0.0) == frozenset({"edge-2"})
        # Joined but still provisioning at 1.4; ready exactly at 1.5.
        assert schedule.state_at(1.4) == frozenset({"edge-2"})
        assert schedule.state_at(1.5) == frozenset()
        # Draining counts as inactive from the drain instant.
        assert schedule.state_at(2.0) == frozenset({"edge-1"})
        # The re-join brings edge-1 back after its provisioning delay.
        assert schedule.state_at(3.25) == frozenset()

    def test_cursor_matches_state_at_at_every_step(self):
        # Joins with provisioning delays land on the same instants as drains
        # and as other joins, so effective order differs from event order.
        events = [
            NodeJoin(1.0, "edge-2", provision_s=1.0),  # ready at 2.0
            NodeDrain(2.0, "edge-1"),  # ties with edge-2's ready time
            NodeJoin(1.5, "edge-3", provision_s=0.0),  # ready at 1.5
            NodeJoin(2.5, "edge-1", provision_s=0.5),  # ready at 3.0
            NodeDrain(3.0, "edge-2"),  # ties with edge-1's ready time
            NodeJoin(3.0, "edge-3", provision_s=0.5),  # active at 3.5: a no-op
            NodeDrain(4.0, "edge-3"),
        ]
        schedule = ElasticitySchedule(events)
        cursor = schedule.cursor()
        times = [0.0, 0.0, 1.0, 1.5, 1.5, 1.9, 2.0, 2.0, 2.5, 3.0, 3.0, 3.5, 4.0, 5.0, 9.0]
        previous = None
        for time_s in times:
            (state,) = cursor.advance(time_s)
            assert state == schedule.state_at(time_s) == replay_inactive(events, time_s)
            if previous is not None and state == previous:
                assert state is previous
            previous = state
        assert schedule.state_at(0.0) == frozenset({"edge-2", "edge-3"})
        assert schedule.state_at(2.0) == frozenset({"edge-1"})
        assert schedule.state_at(3.0) == frozenset({"edge-2"})

    def test_cursor_rejects_decreasing_time(self):
        cursor = self.build().cursor()
        (at_two,) = cursor.advance(2.0)
        with pytest.raises(ValueError):
            cursor.advance(1.5)
        (again,) = cursor.advance(2.0)
        assert again is at_two == frozenset({"edge-1"})

    def test_validate_against_topology(self, system):
        topology = system.cluster.topology
        self.build().validate_against(topology)
        with pytest.raises(ElasticityError, match="unknown node"):
            ElasticitySchedule([NodeDrain(1.0, "edge-99")]).validate_against(topology)

    def test_json_round_trip(self):
        schedule = self.build()
        parsed = ElasticitySchedule.from_json(schedule.to_json())
        assert parsed.name == "demo"
        assert list(parsed.events) == list(schedule.events)

    def test_from_json_defaults_provisioning(self):
        parsed = ElasticitySchedule.from_json(
            '{"events": [{"at": 1.0, "kind": "node_join", "target": "edge-0"}]}'
        )
        (event,) = parsed.events
        assert event.provision_s == NodeJoin(1.0, "x").provision_s

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ElasticityError, match="invalid"):
            ElasticitySchedule.from_json("{not json")
        with pytest.raises(ElasticityError, match="object"):
            ElasticitySchedule.from_json("[1, 2]")
        with pytest.raises(ElasticityError, match="unknown elasticity kind"):
            ElasticitySchedule.from_json(
                '{"events": [{"at": 0, "kind": "node_up", "target": "edge-0"}]}'
            )

    def test_load_passes_schedules_through_and_reads_files(self, tmp_path, system):
        schedule = self.build()
        assert load_elasticity_schedule(schedule) is schedule
        path = tmp_path / "elastic.json"
        path.write_text(schedule.to_json())
        loaded = load_elasticity_schedule(str(path), topology=system.cluster.topology)
        assert list(loaded.events) == list(schedule.events)

    def test_load_rejects_unknown_specs(self):
        with pytest.raises(ElasticityError, match="not a readable"):
            load_elasticity_schedule("no/such/schedule.json")


# --------------------------------------------------------------------------- #
# Balancers
# --------------------------------------------------------------------------- #
def member(name, queued=0, busy=False):
    return SimpleNamespace(
        node=SimpleNamespace(name=name), queue=[None] * queued, busy=busy or None
    )


class TestLoadBalancers:
    def test_round_robin_cycles_and_resets(self):
        balancer = RoundRobinBalancer()
        members = [member("a"), member("b"), member("c")]
        picks = [balancer.choose(members, 0.0).node.name for _ in range(4)]
        assert picks == ["a", "b", "c", "a"]
        balancer.reset()
        assert balancer.choose(members, 0.0).node.name == "a"

    def test_jsq_picks_least_outstanding_work(self):
        balancer = JoinShortestQueueBalancer()
        members = [member("a", queued=2), member("b", queued=0, busy=True), member("c", queued=1)]
        # b has depth 1 (in service), c has 1 queued, a has 2: tie b/c breaks
        # toward the earlier member.
        assert balancer.choose(members, 0.0).node.name == "b"

    def test_p2c_is_seeded_and_prefers_the_less_loaded_probe(self):
        balancer = PowerOfTwoBalancer(seed=4)
        members = [member("a", queued=5), member("b", queued=5), member("idle")]
        first_run = [balancer.choose(members, 0.0).node.name for _ in range(12)]
        balancer.reset()
        assert [balancer.choose(members, 0.0).node.name for _ in range(12)] == first_run
        # Whenever the idle member is probed it must win; it is probed with
        # probability 2/3 per choice, so 12 draws see it essentially surely.
        assert "idle" in first_run

    def test_p2c_single_member_short_circuits(self):
        only = member("a", queued=9)
        assert PowerOfTwoBalancer().choose([only], 0.0) is only

    def test_resolver(self):
        assert isinstance(resolve_balancer(None), RoundRobinBalancer)
        custom = JoinShortestQueueBalancer()
        assert resolve_balancer(custom) is custom
        assert {resolve_balancer(name).name for name in BALANCER_NAMES} == set(
            BALANCER_NAMES
        )
        with pytest.raises(ElasticityError, match="unknown balancer"):
            resolve_balancer("least-loaded")
        with pytest.raises(ElasticityError, match="not a balancer"):
            resolve_balancer(42)


# --------------------------------------------------------------------------- #
# Autoscaler policy mechanics
# --------------------------------------------------------------------------- #
class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ElasticityError, match="unknown autoscaler policy"):
            Autoscaler(policy="predictive")
        with pytest.raises(ElasticityError, match="interval"):
            Autoscaler(interval_s=0.0)
        with pytest.raises(ElasticityError, match="window"):
            Autoscaler(window=0)
        with pytest.raises(ElasticityError, match="cooldown"):
            Autoscaler(cooldown_s=-1.0)
        with pytest.raises(ElasticityError, match="at least one replica"):
            Autoscaler(min_replicas=0)
        with pytest.raises(ElasticityError, match="max_replicas"):
            Autoscaler(min_replicas=3, max_replicas=2)
        with pytest.raises(ElasticityError, match="initial_replicas"):
            Autoscaler(initial_replicas=0)
        with pytest.raises(ElasticityError, match="below"):
            Autoscaler(scale_up_at=0.5, scale_down_at=0.5)

    def test_default_thresholds_per_policy(self):
        for policy in AUTOSCALER_POLICIES:
            scaler = Autoscaler(policy=policy)
            assert scaler.scale_down_at < scaler.scale_up_at

    def test_initial_active_clamps_to_group_and_bounds(self):
        scaler = Autoscaler(min_replicas=2, max_replicas=3, initial_replicas=8)
        assert scaler.initial_active(group_size=6) == 3
        assert scaler.initial_active(group_size=2) == 2
        assert Autoscaler(min_replicas=2).initial_active(group_size=6) == 2

    def test_scale_up_then_cooldown(self):
        scaler = Autoscaler(
            policy="target-util", window=1, cooldown_s=1.0, scale_up_at=0.7,
            scale_down_at=0.2,
        )
        scaler.start()
        assert scaler.decide(0.9, 0.0, active=1, spare=2, time_s=0.5) == "up"
        # Within the cooldown even a saturated sample is ignored.
        assert scaler.decide(1.0, 0.0, active=2, spare=1, time_s=1.0) is None
        assert scaler.decide(1.0, 0.0, active=2, spare=1, time_s=2.0) == "up"

    def test_window_smooths_spikes(self):
        scaler = Autoscaler(window=4, cooldown_s=0.0, scale_up_at=0.75, scale_down_at=0.1)
        scaler.start()
        for tick, sample in enumerate((0.0, 0.0, 0.0)):
            assert scaler.decide(sample, 0.0, 1, 1, float(tick)) is None
        # One saturated tick averaged over the window stays below threshold.
        assert scaler.decide(1.0, 0.0, 1, 1, 3.0) is None

    def test_bounds_block_decisions(self):
        scaler = Autoscaler(window=1, cooldown_s=0.0, min_replicas=1, max_replicas=2)
        scaler.start()
        assert scaler.decide(1.0, 0.0, active=2, spare=1, time_s=0.0) is None  # at max
        assert scaler.decide(1.0, 0.0, active=1, spare=0, time_s=1.0) is None  # no spare
        assert scaler.decide(0.0, 0.0, active=1, spare=1, time_s=2.0) is None  # at min
        assert scaler.decide(0.0, 0.0, active=2, spare=0, time_s=3.0) == "down"

    def test_queue_threshold_policy_watches_depth(self):
        scaler = Autoscaler(policy="queue-threshold", window=1, cooldown_s=0.0)
        scaler.start()
        # Utilisation is irrelevant; the queue metric drives the decision.
        assert scaler.decide(0.0, 5.0, active=1, spare=1, time_s=0.0) == "up"
        assert scaler.decide(1.0, 0.0, active=2, spare=0, time_s=1.0) == "down"

    def test_resolver(self):
        assert resolve_autoscaler(None) is None
        scaler = Autoscaler()
        assert resolve_autoscaler(scaler) is scaler
        assert resolve_autoscaler("queue-threshold").policy == "queue-threshold"
        with pytest.raises(ElasticityError, match="not an autoscaler"):
            resolve_autoscaler(3.14)


# --------------------------------------------------------------------------- #
# Serving engine integration
# --------------------------------------------------------------------------- #
class TestElasticServing:
    def test_declarative_schedule_end_to_end(self, system):
        workload = Workload.poisson("alexnet", num_requests=24, rate_rps=12.0, seed=7)
        schedule = ElasticitySchedule(
            [
                NodeJoin(0.4, "edge-2", provision_s=0.3),
                NodeDrain(1.2, "edge-1"),
                NodeJoin(1.6, "edge-3", provision_s=0.2),
            ]
        )
        report = system.serve(workload, elasticity=schedule, balancer="jsq")
        assert report.num_failed == 0 and report.num_retried == 0
        assert report.scale_up_events == 2
        assert report.scale_down_events == 1
        # Parked replicas must not run anything before provisioning elapses.
        for node, ready_s in (("edge-2", 0.7), ("edge-3", 1.8)):
            assert all(e.start_s >= ready_s for e in compute_events(report, node))
        # The drained replica leaves the fleet and accrues downtime.
        assert report.node_down_s.get("edge-1", 0.0) > 0.0
        # Fleet accounting shows up in the summary.
        assert "scale-up" in report.summary() and "node-hours" in report.summary()
        assert report.node_hours > 0.0
        assert set(report.replica_utilisation()) == set(report.node_busy_s)

    def test_events_are_idempotent_and_drains_respect_the_tier(self):
        system = D3System(
            D3Config(network="wifi", num_edge_nodes=2, use_regression=False,
                     profiler_noise_std=0.0)
        )
        workload = Workload.poisson("alexnet", num_requests=10, rate_rps=6.0, seed=1)
        schedule = ElasticitySchedule(
            [
                # edge-1's first event is a join, so it starts parked.
                NodeDrain(0.05, "edge-0"),  # sole active edge: refused
                NodeJoin(0.1, "edge-1", provision_s=0.2),
                NodeJoin(0.2, "edge-1"),    # already provisioning: no-op
                NodeDrain(0.6, "edge-1"),
                NodeDrain(0.7, "edge-1"),   # already draining or gone: no-op
            ]
        )
        report = system.serve(workload, elasticity=schedule)
        assert report.num_failed == 0
        assert report.scale_up_events == 1
        assert report.scale_down_events == 1
        # The refused drain never took the tier's last replica down.
        assert "edge-0" not in report.node_down_s

    def test_join_cancels_an_inflight_drain(self, system):
        # Saturate the replica group (vgg16 takes ~163 ms per request on an
        # edge replica, arrivals come every 20 ms) so edge-1 provably holds
        # queued work when the drain begins — the drain must stay in flight,
        # and the join then cancels it without the node ever going down.
        workload = Workload.constant_rate("vgg16", num_requests=16, interval_s=0.02)
        schedule = ElasticitySchedule(
            [NodeDrain(0.3, "edge-1"), NodeJoin(0.35, "edge-1")]
        )
        report = system.serve(
            workload, method="edge_only", elasticity=schedule, balancer="rr"
        )
        assert report.num_failed == 0
        assert report.scale_down_events == 1 and report.scale_up_events == 1
        # The cancelled drain never took the node down.
        assert "edge-1" not in report.node_down_s

    def test_drained_source_re_resolves_but_crashed_source_still_fails(
        self, fleet_system
    ):
        """A device leaving the fleet gracefully hands its stream to a
        sibling; a device *crashing* still means the client is offline."""
        devices = [node.name for node in fleet_system.cluster.devices]
        workload = Workload.poisson(
            "alexnet", num_requests=18, rate_rps=9.0, seed=3, sources=devices
        )
        late = [r for r in workload.requests if r.arrival_s > 0.6 and r.source == "device-1"]
        assert late, "scenario needs post-event arrivals pinned to device-1"

        drained = fleet_system.serve(
            workload, elasticity=ElasticitySchedule([NodeDrain(0.6, "device-1")])
        )
        assert drained.num_failed == 0
        by_id = {record.request_id: record for record in drained.records}
        for request in late:
            record = by_id[request.request_id]
            assert record.completed
            used = {e.node for e in record.report.events if e.tier.value == "device"}
            assert "device-1" not in used, "re-resolved request still used the drained device"

        crashed = fleet_system.serve(
            workload, faults=FaultSchedule([NodeDown(0.6, "device-1")])
        )
        crashed_ids = {
            record.request_id for record in crashed.records if not record.completed
        }
        assert {request.request_id for request in late} <= crashed_ids

    def test_summary_surfaces_plan_cache_churn(self, system):
        workload = Workload.poisson("alexnet", num_requests=8, rate_rps=8.0, seed=4)
        report = system.serve(workload)
        assert report.cache_invalidations >= 0
        assert f"invalidations {report.cache_invalidations}" in report.summary()
        assert "cache hits" in report.summary()

    def test_autoscaler_parks_spares_at_low_load(self, system):
        workload = Workload.poisson("alexnet", num_requests=12, rate_rps=3.0, seed=5)
        scaler = Autoscaler(policy="target-util", initial_replicas=1)
        report = system.serve(workload, autoscaler=scaler, balancer="rr")
        assert report.num_failed == 0
        assert report.scale_up_events == 0
        # Spares stayed parked for the whole run: only edge-0 computed.
        for spare in ("edge-1", "edge-2", "edge-3"):
            assert not compute_events(report, spare)
            assert report.node_down_s.get(spare, 0.0) > 0.0
        assert report.node_hours < len(report.node_busy_s) * report.makespan_s / 3600.0

    def test_autoscaler_grows_the_fleet_under_load(self, system):
        workload = Workload.poisson("vgg16", num_requests=20, rate_rps=8.0, seed=6)
        scaler = Autoscaler(
            policy="queue-threshold",
            interval_s=0.2,
            window=1,
            cooldown_s=0.2,
            initial_replicas=1,
            provision_s=0.1,
        )
        report = system.serve(
            workload, method="edge_only", autoscaler=scaler, balancer="jsq"
        )
        assert report.num_failed == 0
        assert report.scale_up_events >= 1
        busy_edges = [
            node
            for node in ("edge-0", "edge-1", "edge-2", "edge-3")
            if compute_events(report, node)
        ]
        assert len(busy_edges) > 1, "scale-ups never spread the load"

    def test_empty_schedule_and_no_balancer_change_nothing(self, system):
        workload = Workload.poisson("alexnet", num_requests=10, rate_rps=8.0, seed=8)
        baseline = system.serve(workload)
        empty = system.serve(workload, elasticity=ElasticitySchedule([]))
        assert serialize_report(empty) == serialize_report(baseline)

    def test_rejects_wrong_schedule_type(self, system):
        workload = Workload.single("alexnet")
        with pytest.raises((TypeError, ValueError)):
            system.serve(workload, elasticity=FaultSchedule([]))


# --------------------------------------------------------------------------- #
# Property-based invariants
# --------------------------------------------------------------------------- #
#: Elastic targets exclude edge-0 so the replica group always keeps one
#: member that never parks or drains (a fleet with zero capacity is a
#: misconfiguration, not an engine regime worth pinning).
ELASTIC_TARGETS = ("edge-1", "edge-2", "edge-3")

raw_elastic_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.sampled_from(ELASTIC_TARGETS),
        st.booleans(),  # True = join, False = drain
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    ),
    max_size=8,
)

workload_params = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**16),
)


def build_elasticity(raw) -> ElasticitySchedule:
    events = []
    for time_s, target, is_join, provision_s in raw:
        if is_join:
            events.append(NodeJoin(time_s, target, provision_s=provision_s))
        else:
            events.append(NodeDrain(time_s, target))
    return ElasticitySchedule(events)


class TestElasticityProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        raw=raw_elastic_events,
        params=workload_params,
        balancer=st.sampled_from(BALANCER_NAMES),
    )
    def test_elasticity_invariants(self, system, raw, params, balancer):
        """No matter when replicas join or drain:

        * every request completes — drains and parks never abort work, and
          never force a retry;
        * no task starts on an initially-parked replica before its first
          provisioning delay has elapsed;
        * a task starting on a replica after its final drain instant belongs
          to a request that was already in flight when the drain began.
        """
        num_requests, rate_rps, seed = params
        schedule = build_elasticity(raw)
        workload = Workload.poisson(
            "alexnet", num_requests=num_requests, rate_rps=rate_rps, seed=seed
        )
        report = system.serve(workload, elasticity=schedule, balancer=balancer)

        assert report.num_completed == num_requests
        assert report.num_failed == 0
        assert all(record.retries == 0 for record in report.records)

        first_event = {}
        last_event = {}
        for event in schedule.events:
            first_event.setdefault(event.target, event)
            last_event[event.target] = event
        arrivals = {r.request_id: r.arrival_s for r in workload.requests}

        for target in ELASTIC_TARGETS:
            events = [
                (record, event)
                for record in report.records
                for event in record.report.events
                if event.node == target
            ]
            first = first_event.get(target)
            if first is not None and first.is_join:
                # Initially parked: dark until the first join provisions.
                assert all(e.start_s >= first.ready_s - 1e-9 for _, e in events)
            last = last_event.get(target)
            if (
                last is not None
                and not last.is_join
                and report.node_down_s.get(target, 0.0) > 0.0
            ):
                # The final drain completed: anything that started on the
                # replica afterwards was in flight before the drain began.
                for record, event in events:
                    if event.start_s >= last.time_s:
                        assert arrivals[record.request_id] < last.time_s

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(params=workload_params)
    def test_empty_elasticity_is_bit_identical(self, system, params):
        num_requests, rate_rps, seed = params
        workload = Workload.poisson(
            "alexnet", num_requests=num_requests, rate_rps=rate_rps, seed=seed
        )
        baseline = serialize_report(system.serve(workload))
        elastic = serialize_report(
            system.serve(workload, elasticity=ElasticitySchedule([]))
        )
        assert elastic == baseline
