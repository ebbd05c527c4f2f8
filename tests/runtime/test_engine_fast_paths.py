"""The engine's fast paths under faults, elasticity, memory and admission.

Three pieces of bookkeeping replace work the engine used to redo:

* **queue bypass** — a task bound for an idle live node with an empty queue
  runs inline under every pop-the-root scheduler (FIFO and EDF), faulted and
  elastic runs included;
* **admission backlog** — the per-node committed compute seconds are kept
  incrementally instead of rescanning every live request per admission;
* **route-keyed link memo** — the wires a compiled plan touches are memoized
  per route revision, so a link or node fault re-routes the next read.

* **chain run-ahead** — the end of a stage that a same-node chain link
  started inline is handled inside its predecessor's handler while no other
  event comes first, instead of taking a round-trip through the event queue.

Each is held to a slow reference (``serving_reference.py``) or to the engine
with the fast path forced off, over {FIFO, EDF} admission × {chaos faults
with and without retries, weight caches, elastic joins and drains, a JSQ
balancer}.
"""

from contextlib import contextmanager
from functools import lru_cache

import pytest
from serving_reference import reference_committed_node_s, reference_touched_links

from repro.core.d3 import D3Config, D3System
from repro.core.placement import PlacementPlan, Tier
from repro.network.faults import FaultSchedule, LinkDown, LinkUp, NodeDown, NodeUp
from repro.runtime.artifacts import MemoryModel
from repro.runtime.elasticity import ElasticitySchedule, NodeDrain, NodeJoin
from repro.runtime.scheduler import DeadlineScheduler, FifoScheduler
from repro.runtime.serving import ServingRequest, ServingSimulator
from repro.runtime.workload import Workload
from repro.testing import serialize_report

TOLERANCE_S = 1e-9


def _system(**overrides) -> D3System:
    config = dict(network="wifi", use_regression=False, profiler_noise_std=0.0)
    config.update(overrides)
    return D3System(D3Config(**config))


def _chaos():
    system = _system(topology="multi_device")
    sources = [node.name for node in system.cluster.devices]
    workload = Workload.poisson(
        "alexnet", num_requests=40, rate_rps=10.0, seed=6, sources=sources, slo_ms=100.0
    )
    return system, workload, dict(faults="chaos:2", max_retries=2)


def _exhausted():
    # No failover budget: every attempt a crash aborts fails with work left.
    system, workload, _ = _chaos()
    return system, workload, dict(faults="chaos:2", max_retries=0)


def _memory():
    system = _system(num_edge_nodes=2)
    workload = Workload.poisson(
        ["vgg16", "alexnet"], num_requests=12, rate_rps=4.0, seed=13, slo_ms=600.0
    )
    return system, workload, dict(memory=MemoryModel(budget_gb=0.7, codec="zxc", eviction="lru"))


def _elastic():
    system = _system(num_edge_nodes=4)
    schedule = ElasticitySchedule(
        [
            NodeJoin(0.4, "edge-2", provision_s=0.3),
            NodeDrain(1.2, "edge-1"),
            NodeJoin(1.6, "edge-3", provision_s=0.2),
        ]
    )
    workload = Workload.poisson("alexnet", num_requests=24, rate_rps=12.0, seed=7, slo_ms=90.0)
    return system, workload, dict(elasticity=schedule, balancer="jsq")


def _jsq():
    system = _system(num_edge_nodes=4)
    workload = Workload.poisson("alexnet", num_requests=30, rate_rps=15.0, seed=3, slo_ms=90.0)
    return system, workload, dict(balancer="jsq")


SCENARIOS = {
    "chaos": _chaos,
    "exhausted": _exhausted,
    "memory": _memory,
    "elastic": _elastic,
    "jsq": _jsq,
}
SCHEDULERS = {"fifo": lambda: FifoScheduler(admission=True), "edf": DeadlineScheduler}


@contextmanager
def _patched(name, wrapper):
    """Swap one ``ServingSimulator`` method for ``wrapper(original)``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingSimulator, name, wrapper(getattr(ServingSimulator, name)))
        yield


def _serve(scenario, scheduler):
    system, workload, kwargs = SCENARIOS[scenario]()
    return system.serve(workload, scheduler=SCHEDULERS[scheduler](), **kwargs)


def _checked_serve(scenario, scheduler):
    """Serve with the incremental bookkeeping diffed against the references
    at every admission and the backlog checked drained at the end."""
    seen = {"admissions": 0, "max_backlog_s": 0.0, "direct_ends": 0, "drained_runs": 0}

    def check_admission(original):
        def predicted(self, state, time_s):
            names = list(self._nodes)
            scan = reference_committed_node_s(self, names, exclude=state)
            for name in names:
                assert abs(self._backlog.get(name, 0.0) - scan[name]) <= TOLERANCE_S, name
            fresh = {id(link) for link in reference_touched_links(self, state)}
            assert {id(link) for link in self._touched_links(state)} == fresh
            seen["admissions"] += 1
            seen["max_backlog_s"] = max(seen["max_backlog_s"], *scan.values())
            return original(self, state, time_s)

        return predicted

    def check_drained(original):
        def run(self, requests):
            records = original(self, requests)
            if self._backlog is not None:  # the planner's probe runs admit all
                seen["drained_runs"] += 1
                assert all(abs(value) <= TOLERANCE_S for value in self._backlog.values())
            return records

        return run

    def count_direct(original):
        def handle(self, time_s, payload):
            if self._backlog is not None:  # the served run, not a planner probe
                seen["direct_ends"] += 1
            return original(self, time_s, payload)

        return handle

    with _patched("_predicted_latency_s", check_admission), _patched(
        "run", check_drained
    ), _patched("_handle_task_end_direct", count_direct):
        report = _serve(scenario, scheduler)
    return report, seen


def _bypass_off_serve(scenario, scheduler):
    """Serve with every task routed through the ready-queue and select()."""

    def without_bypass(original):
        def reset(self):
            original(self)
            self._pop_select = False

        return reset

    with _patched("_reset_run", without_bypass):
        return _serve(scenario, scheduler)


CELLS = [(s, k) for s in SCENARIOS for k in SCHEDULERS]


@lru_cache(maxsize=None)
def _runs(cell):
    """``((checked report, counters), bypass-off report)``, once per cell."""
    return _checked_serve(*cell), _bypass_off_serve(*cell)


class TestAdmissionBacklog:
    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_backlog_matches_the_scan_at_every_admission(self, cell):
        (report, seen), _ = _runs(cell)
        # The checks themselves ran inside the serve; here the scenario must
        # prove it exercised them on a loaded, admission-controlled run.
        admitted_or_shed = report.num_completed + report.num_rejected
        assert admitted_or_shed <= seen["admissions"] <= report.num_requests
        assert seen["max_backlog_s"] > 0.0
        assert seen["drained_runs"] == 1
        assert report.num_completed > 0

    def test_scenarios_reach_their_regimes(self):
        chaos = _runs(("chaos", "edf"))[0][0]
        assert chaos.num_retried > 0 and chaos.num_rejected > 0
        assert _runs(("exhausted", "edf"))[0][0].num_failed > 0
        memory = _runs(("memory", "fifo"))[0][0]
        assert memory.cold_starts > 0
        elastic = _runs(("elastic", "fifo"))[0][0]
        assert elastic.node_down_s.get("edge-1")


class TestQueueBypass:
    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_bypass_is_invisible(self, cell):
        (report, seen), off = _runs(cell)
        assert seen["direct_ends"] > 0, "the scenario never took the bypass"
        assert serialize_report(report) == serialize_report(off)
        assert report.summary() == off.summary()
        assert report.batch_occupancy == off.batch_occupancy


def _planned(system, model, arrivals, plan=None, **fields):
    """Requests sharing one plan's objects (so they share a compiled plan)."""
    graph = system.graph_for(model)
    entry = system._plan_for(graph, system.network)
    return [
        ServingRequest(
            index=index,
            request_id=f"req-{index}",
            graph=graph,
            plan=plan(graph) if plan is not None else entry.placement,
            profile=entry.profile,
            condition=system.network,
            arrival_s=arrival_s,
            vsm_plan=None if plan is not None else entry.vsm_plan,
            **fields,
        )
        for index, arrival_s in enumerate(arrivals)
    ]


def _spy_direct_ends(log):
    """Record, per ``task_end1``, whether its dispatch was killed and whether
    its unit still belongs to the request's current attempt."""

    def wrapper(original):
        def handle(self, time_s, payload):
            node_state, unit, run_id = payload
            log.append(
                (
                    time_s,
                    node_state.node.name,
                    run_id != node_state.run_id,
                    any(u is unit for u in unit.state.unit_list),
                )
            )
            return original(self, time_s, payload)

        return handle

    return wrapper


def _spy_completions(log):
    def wrapper(original):
        def complete(self, state, unit, time_s):
            log.append(any(u is unit for u in state.unit_list))
            return original(self, state, unit, time_s)

        return complete

    return wrapper


class TestAbortAndKill:
    def test_node_death_during_a_bypassed_task(self):
        """edge-0 dies mid-tile: the inline-run row is cut at the death, the
        busy time rolled back, and the pending ``task_end1`` is ignored."""
        system = _system(num_edge_nodes=4)
        requests = _planned(system, "vgg16", [0.0])
        death_s = 0.1  # inside tile(0, 0) on edge-0 (0.057 .. 0.171 s)
        faults = FaultSchedule([NodeDown(death_s, "edge-0"), NodeUp(60.0, "edge-0")])
        ends, completions = [], []
        with _patched("_handle_task_end_direct", _spy_direct_ends(ends)), _patched(
            "_complete_unit", _spy_completions(completions)
        ):
            records = ServingSimulator(system.cluster, faults=faults).run(requests)
        record = records[0]
        assert record.completed and record.retries == 1
        edge0 = [e for e in record.report.events if e.node == "edge-0" and e.kind == "compute"]
        assert edge0 and edge0[0].end_s == death_s, "the killed row was not truncated"
        busy = sum(e.duration_s for e in edge0)
        assert system.cluster.node("edge-0").busy_seconds == pytest.approx(busy, abs=1e-12)
        killed = [end for end in ends if end[1] == "edge-0" and end[2]]
        assert killed, "no task_end1 of the killed dispatch fired"
        assert all(completions), "a unit of the discarded attempt completed"

    def test_discarded_attempts_task_ending_on_a_healthy_node(self):
        """A device task keeps running after its attempt is aborted (edge-0,
        which the later stages need, dies); when it ends, its disarmed unit
        must not complete — the retry is already queued behind it."""
        system = _system(num_edge_nodes=2)

        def device_then_edge(graph):
            order = graph.topological_order()
            return PlacementPlan(
                graph,
                {v.index: Tier.DEVICE if rank < 3 else Tier.EDGE for rank, v in enumerate(order)},
            )

        requests = _planned(system, "alexnet", [0.0], plan=device_then_edge)
        healthy = ServingSimulator(system.cluster).run(requests)[0]
        device = max(
            (e for e in healthy.report.events if e.node == "device-0"),
            key=lambda e: e.duration_s,
        )
        death_s = (device.start_s + device.end_s) / 2
        faults = FaultSchedule([NodeDown(death_s, "edge-0"), NodeUp(60.0, "edge-0")])
        ends, completions = [], []
        with _patched("_handle_task_end_direct", _spy_direct_ends(ends)), _patched(
            "_complete_unit", _spy_completions(completions)
        ):
            records = ServingSimulator(system.cluster, faults=faults).run(requests)
        record = records[0]
        stale = [end for end in ends if end[1] == "device-0" and not end[3]]
        assert stale and stale[0][0] == device.end_s, "the stale device task never ended"
        assert not stale[0][2], "the device never died, so its run id is current"
        assert all(completions), "a unit of the discarded attempt completed"
        assert record.completed and record.retries == 1
        assert all(e.node != "edge-0" for e in record.report.events if e.start_s > death_s)


class TestRouteKeyedLinkMemo:
    def test_admission_sees_the_rerouted_wires(self):
        """device-edge fails and recovers: requests sharing one compiled plan
        must read the detour (via the cloud) while it is down and the direct
        wire again after, at every admission."""
        system = _system(num_edge_nodes=2)
        arrivals = [0.2 * i for i in range(12)]
        requests = _planned(system, "alexnet", arrivals, slo_ms=1e6, ideal_latency_s=0.07)
        faults = FaultSchedule([LinkDown(0.5, "device-edge"), LinkUp(1.3, "device-edge")])
        seen = []

        def check(original):
            def predicted(self, state, time_s):
                fresh = {link.link_id for link in reference_touched_links(self, state)}
                memo = {link.link_id for link in self._touched_links(state)}
                assert memo == fresh, f"stale wires at t={time_s}"
                seen.append((time_s, frozenset(memo)))
                return original(self, state, time_s)

            return predicted

        simulator = ServingSimulator(system.cluster, faults=faults, scheduler="edf")
        with _patched("_predicted_latency_s", check):
            simulator.run(requests)
        assert len(simulator._compiled) == 1, "requests no longer share one compiled plan"
        direct, detour = frozenset({"device-edge"}), frozenset({"device-cloud", "edge-cloud"})
        assert [wires for _, wires in seen] == [
            detour if 0.5 <= t < 1.3 else direct for t, _ in seen
        ]
        assert {direct, detour} <= {wires for _, wires in seen}


def _without_run_ahead(original):
    def reset(self):
        original(self)
        self._run_ahead = False

    return reset


@contextmanager
def _run_ahead(on):
    """Leave run-ahead on, or link no chains for the block."""
    if on:
        yield
    else:
        with _patched("_reset_run", _without_run_ahead):
            yield


def _counting_runs(runs):
    """Record ``(events_processed, ends run ahead)`` of every reported run."""

    def wrapper(original):
        def build_report(self, workload_name, records):
            runs.append((self.events_processed, self._ran_ahead))
            return original(self, workload_name, records)

        return build_report

    return wrapper


def _alexnet_stream():
    system = _system(num_edge_nodes=4)
    workload = Workload.poisson("alexnet", num_requests=300, rate_rps=8.8, seed=11)
    return system, workload, {}


AHEAD_CELLS = CELLS + [("alexnet-stream", None)]


@lru_cache(maxsize=None)
def _ahead_runs(cell):
    """``(report, (events, ran ahead))`` with run-ahead on, then off."""
    scenario, scheduler = cell
    results = []
    for ahead in (True, False):
        if scheduler is None:
            system, workload, kwargs = _alexnet_stream()
        else:
            system, workload, kwargs = SCENARIOS[scenario]()
            kwargs = dict(kwargs, scheduler=SCHEDULERS[scheduler]())
        runs = []
        with _patched("build_report", _counting_runs(runs)), _run_ahead(ahead):
            report = system.serve(workload, **kwargs)
        assert len(runs) == 1
        results.append((report, runs[0]))
    return results


def _simulate(system, requests, ahead=True, **kwargs):
    """One direct engine run: ``(report, simulator)``."""
    simulator = ServingSimulator(system.cluster, **kwargs)
    with _run_ahead(ahead):
        records = simulator.run(requests)
    return simulator.build_report("direct", records), simulator


def _chain_event(report, label):
    (event,) = [e for e in report.records[0].report.events if e.label == label]
    return event


class TestChainRunAhead:
    @pytest.mark.parametrize("cell", AHEAD_CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_run_ahead_is_invisible(self, cell):
        (report, (events, ahead)), (off, (off_events, off_ahead)) = _ahead_runs(cell)
        assert serialize_report(report) == serialize_report(off)
        assert report.summary() == off.summary()
        assert report.batch_occupancy == off.batch_occupancy
        assert events == off_events
        assert off_ahead == 0

    @pytest.mark.parametrize("cell", AHEAD_CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_run_ahead_fires_on_every_statically_bound_run(self, cell):
        (report, (events, ahead)), _ = _ahead_runs(cell)
        if cell[0] in ("elastic", "jsq"):
            # A balancer binds edge stages to the replica group, and
            # group-bound stages never link.
            assert ahead == 0
        else:
            assert 0 < ahead < events

    def test_alexnet_stream_runs_most_chain_ends_ahead(self):
        (report, (events, ahead)), _ = _ahead_runs(("alexnet-stream", None))
        assert report.num_completed == report.num_requests
        # Four chain links per request (flatten -> fc1 -> fc2 -> fc3 ->
        # softmax after the tiled convolutions), and with the edge node at
        # rho ~0.1 nearly every one of them runs ahead.
        assert 3.5 * report.num_requests < ahead <= 4 * report.num_requests

    def test_an_arrival_on_a_chain_end_goes_first(self):
        """A request arriving exactly when a chain stage ends sorts before
        that end (its sequence number is lower), so the end must not run
        ahead of it."""
        system = _system()
        alone, simulator = _simulate(system, _planned(system, "alexnet", [0.0]))
        fc2 = _chain_event(alone, "fc2")
        assert simulator._ran_ahead == 12, "fc2's end no longer runs ahead when alone"
        requests = _planned(system, "alexnet", [0.0, fc2.end_s])
        order = []

        def spy_arrival(original):
            def handle(self, time_s, request):
                order.append(("arrival", time_s))
                return original(self, time_s, request)

            return handle

        def spy_end(original):
            def handle(self, time_s, payload):
                order.append((payload[1].compiled.vertices[0].name, time_s))
                return original(self, time_s, payload)

            return handle

        with _patched("_handle_arrival", spy_arrival), _patched(
            "_handle_task_end_direct", spy_end
        ):
            report, simulator = _simulate(system, requests)
        tied = [entry for entry in order if entry[1] == fc2.end_s]
        assert tied[:2] == [("arrival", fc2.end_s), ("fc2", fc2.end_s)]
        assert simulator._ran_ahead < 2 * 12
        off, _ = _simulate(system, requests, ahead=False)
        assert serialize_report(report) == serialize_report(off)

    def test_a_node_fault_inside_a_run_ahead_window(self):
        """edge-0 dies during fc2, inside the flatten..softmax chain: fc1
        still runs ahead, fc2's end does not (the fault comes first), the
        fault cuts its row short and the retry completes elsewhere."""
        system = _system(num_edge_nodes=2)
        requests = _planned(system, "alexnet", [0.0])
        alone, healthy = _simulate(system, requests)
        fc2 = _chain_event(alone, "fc2")
        assert fc2.node == "edge-0"
        death_s = (fc2.start_s + fc2.end_s) / 2
        faults = FaultSchedule([NodeDown(death_s, "edge-0"), NodeUp(60.0, "edge-0")])
        report, simulator = _simulate(system, requests, faults=faults)
        off, off_simulator = _simulate(system, requests, ahead=False, faults=faults)
        assert serialize_report(report) == serialize_report(off)
        assert simulator.events_processed == off_simulator.events_processed
        assert simulator._ran_ahead > 0 and off_simulator._ran_ahead == 0
        record = report.records[0]
        assert record.completed and record.retries == 1
        cut = [e for e in record.report.events if e.label == "fc2" and e.node == "edge-0"]
        assert cut and cut[0].end_s == death_s
