"""The engine keeps only the next arrival on its event heap.

``ServingSimulator.run`` sorts the requests, reserves one sequence number
per arrival right after the setup events (faults, elasticity, autoscaler),
and pushes each arrival only when the previous one pops.  These tests pin
what that must not change: equal-timestamp ordering against faults and
membership events, the autoscaler's stop condition, and the edge inputs.
"""

import pytest

from repro.core.d3 import D3Config, D3System
from repro.core.placement import PlacementPlan, Tier
from repro.network.faults import FaultSchedule, NodeDown, NodeUp
from repro.runtime.elasticity import Autoscaler, ElasticitySchedule, NodeDrain
from repro.runtime.serving import ServingRequest, ServingSimulator
from repro.testing import serialize_record

#: Device-only alexnet takes 0.26 s on a multi_device handset, so requests
#: this far apart never overlap.
SPACING_S = 0.5


@pytest.fixture(scope="module")
def fleet():
    return D3System(
        D3Config(topology="multi_device", use_regression=False, profiler_noise_std=0.0)
    )


def _requests(system, arrivals, source="device-1", tier=Tier.DEVICE):
    graph = system.graph_for("alexnet")
    profile = system._profile_for(graph)
    plan = PlacementPlan.single_tier(graph, tier)
    return [
        ServingRequest(
            index=index,
            request_id=f"req-{index}",
            graph=graph,
            plan=plan,
            profile=profile,
            condition=system.network,
            arrival_s=arrival_s,
            source=source,
        )
        for index, arrival_s in enumerate(arrivals)
    ]


def _by_id(records):
    return {record.request_id: record for record in records}


class TestEqualTimestampOrdering:
    def test_arrival_at_the_instant_its_source_dies_sees_it_dead(self, fleet):
        # req-2 arrives long after the run started, so it reaches the heap
        # during the loop, after the fault at the same instant was queued.
        requests = _requests(fleet, [0.0, SPACING_S, 2 * SPACING_S, 4 * SPACING_S])
        faults = FaultSchedule(
            [NodeDown(2 * SPACING_S, "device-1"), NodeUp(3 * SPACING_S, "device-1")]
        )
        records = _by_id(ServingSimulator(fleet.cluster, faults=faults).run(requests))
        dead = records["req-2"]
        assert dead.status == "failed"
        assert dead.completion_s == 2 * SPACING_S
        assert dead.report.events == []
        for request_id in ("req-0", "req-1", "req-3"):
            assert records[request_id].completed

    def test_drain_effective_at_an_arrival_instant_is_already_applied(self, fleet):
        requests = _requests(fleet, [0.0, SPACING_S, 2 * SPACING_S, 3 * SPACING_S])
        drain = ElasticitySchedule([NodeDrain(2 * SPACING_S, "device-1")])
        records = _by_id(ServingSimulator(fleet.cluster, elasticity=drain).run(requests))
        assert all(record.completed for record in records.values())
        for request_id in ("req-0", "req-1"):
            assert {e.node for e in records[request_id].report.events} == {"device-1"}
        for request_id in ("req-2", "req-3"):
            used = {e.node for e in records[request_id].report.events}
            assert used and "device-1" not in used


class _Probe(ServingSimulator):
    """Records every autoscaler tick and every arrival-heap census."""

    def _reset_run(self):
        super()._reset_run()
        self.ticks = []
        self.arrivals_on_heap = []

    def _handle_autoscale_tick(self, time_s):
        self.ticks.append(time_s)
        super()._handle_autoscale_tick(time_s)

    def _handle_arrival(self, time_s, request):
        self.arrivals_on_heap.append(sum(1 for entry in self._events if entry[2] == "arrival"))
        super()._handle_arrival(time_s, request)


class TestAutoscalerStop:
    def test_ticks_span_idle_gaps_and_stop_after_the_last_arrival(self, fleet):
        interval = 0.25
        # Between the two arrivals nothing is open, yet the scaler must keep
        # ticking: one arrival is still pending (only it is not on the heap).
        requests = _requests(fleet, [0.0, 3.0], source=None, tier=Tier.EDGE)
        simulator = _Probe(
            fleet.cluster,
            autoscaler=Autoscaler(policy="target-util", interval_s=interval),
        )
        records = simulator.run(requests)
        last_completion = max(record.completion_s for record in records)
        assert all(record.completed for record in records)
        assert simulator.ticks[0] == interval
        assert max(simulator.ticks) >= 3.0
        assert max(simulator.ticks) < last_completion + interval
        gaps = [b - a for a, b in zip(simulator.ticks, simulator.ticks[1:])]
        assert gaps == pytest.approx([interval] * len(gaps))


class TestEdgeInputs:
    def test_empty_request_list(self, fleet):
        simulator = ServingSimulator(fleet.cluster)
        records = simulator.run([])
        assert len(records) == 0 and list(records) == [] and records == []
        assert simulator.events_processed == 0
        assert simulator.build_report("empty", records).num_requests == 0

    def test_unsorted_input_runs_in_arrival_order(self, fleet):
        requests = _requests(fleet, [0.0, 0.1, 0.2, 0.3, 0.4])
        ordered = ServingSimulator(fleet.cluster).run(requests)
        shuffled = ServingSimulator(fleet.cluster).run(requests[::-1][2:] + requests[::-1][:2])
        assert [serialize_record(r) for r in shuffled] == [serialize_record(r) for r in ordered]

    def test_two_runs_on_one_simulator_match(self, fleet):
        requests = _requests(fleet, [0.0, 0.1, 0.2, 0.3])
        simulator = ServingSimulator(fleet.cluster)
        first = simulator.run(requests)
        events = simulator.events_processed
        second = simulator.run(requests)
        assert simulator.events_processed == events
        assert [serialize_record(r) for r in second] == [serialize_record(r) for r in first]


def test_the_heap_never_holds_more_than_one_arrival(fleet):
    # Arrivals 0.1 s apart against a 0.26 s service time: a queue builds,
    # and under the old engine every arrival sat on the heap from the start.
    requests = _requests(fleet, [0.1 * i for i in range(12)])
    faults = FaultSchedule([NodeDown(0.55, "edge-3"), NodeUp(0.8, "edge-3")])
    simulator = _Probe(
        fleet.cluster, faults=faults, autoscaler=Autoscaler(policy="target-util")
    )
    records = simulator.run(requests)
    assert len(records) == 12
    assert len(simulator.arrivals_on_heap) == 12
    # The census runs inside the handler, after the following arrival was
    # pushed: the heap holds that one arrival (none after the last).
    assert simulator.arrivals_on_heap == [1] * 11 + [0]
