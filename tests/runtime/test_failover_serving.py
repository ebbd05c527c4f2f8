"""Fault-tolerant serving: failure injection, failover replanning, recovery.

Covers the acceptance scenario of the fault-injection subsystem (an edge node
killed and recovered mid-workload completes with recorded failover replans and
availability metrics, while the no-fault path stays bit-identical to the
fault-free serving engine), the degraded plan-cache keying, the bounded retry
budget, link failures and rerouting, degenerate all-failed reports, and the
engine's standalone (no-replanner) failover behaviour.
"""

import pytest

from repro.core.d3 import D3Config, D3System
from repro.core.placement import Tier
from repro.network.faults import FaultSchedule, LinkDown, LinkUp, NodeDown, NodeUp
from repro.runtime.artifacts import MemoryModel
from repro.runtime.cluster import Cluster
from repro.runtime.scheduler import BatchingScheduler
from repro.runtime.serving import ServingReport, ServingRequest, ServingSimulator
from repro.runtime.workload import Workload


def _system(**overrides) -> D3System:
    config = dict(
        network="wifi",
        num_edge_nodes=4,
        use_regression=False,
        profiler_noise_std=0.0,
    )
    config.update(overrides)
    return D3System(D3Config(**config))


@pytest.fixture(scope="module")
def vgg_workload():
    return Workload.poisson("vgg16", num_requests=40, rate_rps=8.0, seed=0)


@pytest.fixture(scope="module")
def edge_outage():
    """Kills edge-0 while work is provably in flight, recovers it later."""
    return FaultSchedule([NodeDown(2.5, "edge-0"), NodeUp(6.5, "edge-0")])


def _timeline(report: ServingReport):
    return [
        (r.request_id, r.arrival_s, r.completion_s, r.status, r.retries)
        for r in report.records
    ]


class TestAcceptanceScenario:
    """The ISSUE's acceptance criterion, end to end."""

    def test_kill_and_recover_edge_node_mid_workload(self, vgg_workload, edge_outage):
        report = _system().serve(vgg_workload, faults=edge_outage)
        # every request terminates, with at least one recorded failover replan
        assert report.num_requests == len(vgg_workload)
        assert report.failover_replans >= 1
        assert report.num_retried >= 1
        # availability metrics are present and coherent
        assert 0.0 < report.availability <= 1.0
        assert report.num_completed + report.num_failed == report.num_requests
        assert report.node_down_s.get("edge-0", 0.0) == pytest.approx(4.0)
        assert "availability" in report.summary()
        # no compute event overlaps the outage on the dead node
        for record in report.records:
            for event in record.report.events:
                if event.node == "edge-0":
                    assert not (event.start_s < 6.5 and event.end_s > 2.5)

    def test_no_fault_run_bit_identical_to_fault_free_path(self, vgg_workload):
        baseline = _system().serve(vgg_workload)
        empty = _system().serve(vgg_workload, faults=FaultSchedule([]))
        assert _timeline(empty) == _timeline(baseline)
        assert empty.latency_percentiles() == baseline.latency_percentiles()
        assert empty.summary() == baseline.summary()
        assert empty.failover_replans == 0
        assert empty.node_down_s == {}

    def test_seeded_determinism(self, vgg_workload):
        schedule = "chaos:7"
        first = _system().serve(vgg_workload, faults=schedule)
        second = _system().serve(vgg_workload, faults=schedule)
        assert _timeline(first) == _timeline(second)
        assert first.failover_replans == second.failover_replans
        assert first.node_down_s == second.node_down_s
        assert first.summary() == second.summary()

    def test_failed_requests_excluded_from_latency_metrics(self, vgg_workload):
        # chaos:7 at this load produces failures (seen in the example run);
        # if a particular environment yields none the assertions still hold.
        report = _system().serve(vgg_workload, faults="chaos:7")
        completed = [r for r in report.records if r.completed]
        assert len(report.latencies_s) == len(completed)
        assert report.throughput_rps == pytest.approx(
            len(completed) / report.makespan_s
        )


class TestDegradedPlanning:
    def test_degraded_plans_keyed_separately(self, vgg_workload, edge_outage):
        system = _system()
        report = system.serve(vgg_workload, faults=edge_outage)
        # healthy plan + degraded plan = 2 misses on the first episode
        assert report.cache_misses == 2
        # a healthy re-serve of the same stream is all hits: the degraded
        # entries did not poison the healthy cache
        healthy = system.serve(vgg_workload)
        assert healthy.cache_misses == 0
        assert healthy.repartitions == 0

    def test_degraded_shape_reuses_cache_across_episodes(self, vgg_workload, edge_outage):
        system = _system()
        first = system.serve(vgg_workload, faults=edge_outage)
        again = system.serve(vgg_workload, faults=edge_outage)
        assert first.cache_misses == 2
        assert again.cache_misses == 0  # both shapes already cached

    def test_arrivals_during_outage_avoid_dead_node(self):
        system = _system()
        workload = Workload.constant_rate("vgg16", num_requests=6, interval_s=1.0)
        schedule = FaultSchedule([NodeDown(0.5, "edge-0"), NodeUp(4.5, "edge-0")])
        report = system.serve(workload, faults=schedule)
        for record in report.records:
            if 0.5 <= record.arrival_s < 4.5 and record.completed and record.retries == 0:
                nodes = {event.node for event in record.report.events}
                assert "edge-0" not in nodes

    def test_retry_budget_bounds_failures(self, vgg_workload, edge_outage):
        generous = _system().serve(vgg_workload, faults=edge_outage, max_retries=3)
        assert generous.num_failed == 0
        strict = _system().serve(vgg_workload, faults=edge_outage, max_retries=0)
        # the same aborts now fail outright instead of retrying
        assert strict.num_failed >= generous.num_retried > 0
        assert strict.failover_replans == 0

    def test_recovery_fails_back_to_healthy_plan(self, vgg_workload):
        system = _system()
        outage = FaultSchedule([NodeDown(2.5, "edge-0"), NodeUp(4.0, "edge-0")])
        report = system.serve(vgg_workload, faults=outage)
        # requests arriving after the recovery run on the full rack again
        post = [r for r in report.records if r.arrival_s > 4.0 and r.retries == 0]
        assert post, "workload must extend past the recovery"
        assert any(
            "edge-0" in {e.node for e in r.report.events} for r in post if r.completed
        )


    def test_memory_constrained_recovery_fails_back(self):
        """Fail-back must find the degraded stream under a memory model too:
        memory-keyed plans used to be looked up without their memory token,
        so the stale degraded entry was never retired."""
        workload = Workload.constant_rate("vgg16", num_requests=10, interval_s=1.0)
        schedule = FaultSchedule(
            [
                LinkDown(2.0, "edge-cloud"),
                LinkUp(4.0, "edge-cloud"),
                LinkDown(6.0, "edge-cloud"),
                LinkUp(8.0, "edge-cloud"),
            ]
        )
        free = _system(num_edge_nodes=1).serve(workload, faults=schedule)
        constrained = _system(num_edge_nodes=1).serve(
            workload, faults=schedule, memory=MemoryModel(64.0, warm=True)
        )
        assert free.cache_invalidations >= 1
        assert constrained.cache_invalidations == free.cache_invalidations
        assert constrained.latencies_s == free.latencies_s


class TestLinkFailures:
    def test_transfers_reroute_around_dark_wire(self):
        # device->edge traffic must detour via the cloud when the LAN dies
        system = _system(num_edge_nodes=1)
        workload = Workload.single("vgg16")
        schedule = FaultSchedule([LinkDown(0.0, "device-edge")])
        report = system.serve(workload, faults=schedule)
        record = report.records[0]
        assert record.completed
        # the detour exists and the request is slower than the healthy run
        healthy = _system(num_edge_nodes=1).serve(workload)
        assert record.latency_s > healthy.records[0].latency_s

    def test_all_paths_severed_fails_requests(self):
        system = _system(num_edge_nodes=1)
        workload = Workload.single("vgg16")
        schedule = FaultSchedule(
            [LinkDown(0.0, "device-edge"), LinkDown(0.0, "device-cloud")]
        )
        report = system.serve(workload, faults=schedule)
        assert report.num_failed == 1
        assert report.availability == 0.0

    def test_link_recovery_restores_service(self):
        system = _system(num_edge_nodes=1)
        workload = Workload.constant_rate("vgg16", num_requests=4, interval_s=2.0)
        schedule = FaultSchedule(
            [
                LinkDown(0.0, "device-edge"),
                LinkDown(0.0, "device-cloud"),
                LinkUp(3.0, "device-edge"),
                LinkUp(3.0, "device-cloud"),
            ]
        )
        report = system.serve(workload, faults=schedule)
        early = [r for r in report.records if r.arrival_s < 3.0]
        late = [r for r in report.records if r.arrival_s >= 3.0]
        assert all(not r.completed for r in early)
        assert all(r.completed for r in late)


class TestSourceDeviceFailures:
    def test_dead_source_device_fails_its_requests(self):
        system = _system(topology="multi_device")
        workload = Workload.constant_rate(
            "alexnet", num_requests=6, interval_s=1.0, sources=["device-0", "device-1"]
        )
        schedule = FaultSchedule([NodeDown(1.5, "device-1")])
        report = system.serve(workload, faults=schedule)
        for record in report.records:
            arrived_after = record.arrival_s >= 1.5
            from_dead = int(record.request_id.split("-")[1]) % 2 == 1
            if from_dead and arrived_after:
                assert not record.completed
            if not from_dead:
                assert record.completed


class TestDegenerateReports:
    def test_all_failed_report_is_well_formed(self):
        system = _system(num_edge_nodes=1)
        workload = Workload.constant_rate("alexnet", num_requests=3, interval_s=0.5)
        schedule = FaultSchedule([NodeDown(0.0, "device-0")])
        report = system.serve(workload, faults=schedule)
        assert report.num_completed == 0
        assert report.availability == 0.0
        assert report.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert report.mean_latency_s == 0.0
        assert report.throughput_rps == 0.0
        summary = report.summary()
        assert "availability 0.0%" in summary
        assert "3/3 failed" in summary

    def test_empty_report_percentiles(self):
        report = ServingReport(workload_name="empty")
        assert report.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert report.availability == 1.0
        assert isinstance(report.summary(), str)

    def test_retried_only_percentiles(self, vgg_workload, edge_outage):
        report = _system().serve(vgg_workload, faults=edge_outage)
        retried = [r.latency_s for r in report.records if r.completed and r.retries > 0]
        pct = report.latency_percentiles(retried_only=True)
        assert retried
        assert pct["p99"] == pytest.approx(max(retried), rel=0.05)

    def test_downtime_weighted_utilisation(self, vgg_workload, edge_outage):
        report = _system().serve(vgg_workload, faults=edge_outage)
        plain = report.node_utilisation()
        weighted = report.node_utilisation(downtime_weighted=True)
        assert weighted["edge-0"] >= plain["edge-0"]
        # nodes that never went down are unchanged
        assert weighted["edge-1"] == plain["edge-1"]


class TestStandaloneSimulatorFailover:
    """The engine retries without a replanner by re-resolving onto survivors."""

    def _requests(self, system, workload):
        reqs = []
        for request in workload:
            graph = system.graph_for(request.model)
            entry = system._plan_for(graph, system.network)
            reqs.append(
                ServingRequest(
                    index=request.index,
                    request_id=request.request_id,
                    graph=graph,
                    plan=entry.placement,
                    profile=entry.profile,
                    condition=system.network,
                    arrival_s=request.arrival_s,
                    vsm_plan=entry.vsm_plan,
                )
            )
        return reqs

    def test_retry_reresolves_to_surviving_edge_nodes(self):
        system = _system()
        workload = Workload.single("vgg16")
        requests = self._requests(system, workload)
        schedule = FaultSchedule([NodeDown(0.05, "edge-0"), NodeUp(60.0, "edge-0")])
        simulator = ServingSimulator(system.cluster, faults=schedule)
        records = simulator.run(requests)
        assert records[0].completed
        assert records[0].retries >= 1
        # the retried attempt ran on the surviving rack only
        post_fault = [
            e for e in records[0].report.events if e.start_s >= 0.05 and e.kind == "compute"
        ]
        assert post_fault
        assert all(e.node != "edge-0" for e in post_fault)

    def test_whole_tier_down_fails_without_replanner(self):
        system = _system(num_edge_nodes=1)
        workload = Workload.single("vgg16")
        requests = self._requests(system, workload)
        schedule = FaultSchedule([NodeDown(0.05, "edge-0")])
        simulator = ServingSimulator(system.cluster, faults=schedule, max_retries=2)
        records = simulator.run(requests)
        assert not records[0].completed
        assert records[0].status == "failed"

    def test_negative_retry_budget_rejected(self):
        cluster = Cluster.build(num_edge_nodes=1)
        with pytest.raises(ValueError):
            ServingSimulator(cluster, max_retries=-1)

    def test_schedule_validated_against_cluster_topology(self):
        system = _system()
        simulator = ServingSimulator(
            system.cluster, faults=FaultSchedule([NodeDown(1.0, "edge-99")])
        )
        with pytest.raises(Exception, match="unknown node"):
            simulator.run([])

    def test_truncated_event_keeps_busy_seconds_consistent(self):
        system = _system()
        workload = Workload.single("vgg16")
        requests = self._requests(system, workload)
        schedule = FaultSchedule([NodeDown(0.05, "edge-0"), NodeUp(60.0, "edge-0")])
        simulator = ServingSimulator(system.cluster, faults=schedule)
        records = simulator.run(requests)
        node = system.cluster.node("edge-0")
        event_busy = sum(
            e.duration_s
            for r in records
            for e in r.report.events
            if e.node == "edge-0" and e.kind == "compute"
        )
        assert node.busy_seconds == pytest.approx(event_busy)

    def test_truncated_batch_keeps_busy_seconds_consistent(self):
        """A node dying mid-batch cuts every member's event at the death
        time, and the node's rolled-back busy time charges the batch once."""
        scheduler = BatchingScheduler(max_batch=4, max_wait_ms=20.0)
        workload = Workload.poisson("alexnet", num_requests=30, rate_rps=40.0, seed=0)
        clean = _system(num_edge_nodes=3).serve(workload, scheduler=scheduler)
        batch = next(b for b in clean.batches if b.node == "edge-0" and b.size > 1)
        death_s = (batch.start_s + batch.end_s) / 2

        system = _system(num_edge_nodes=3)
        report = system.serve(
            workload, scheduler=scheduler, faults=FaultSchedule([NodeDown(death_s, "edge-0")])
        )
        events = [
            event
            for record in report.records
            for event in record.report.events
            if event.node == "edge-0" and event.kind == "compute"
        ]
        members = [event for event in events if event.start_s == batch.start_s]
        assert len(members) == batch.size
        assert all(event.label.startswith(f"batch[{batch.size}]:") for event in members)
        assert all(event.end_s == death_s for event in members)
        assert sum(e.duration_s for e in members) == pytest.approx(
            batch.size * (death_s - batch.start_s)
        )
        # A batch occupies its node once: its members share one span.
        spans = {(event.start_s, event.end_s) for event in events}
        busy = sum(end_s - start_s for start_s, end_s in spans)
        assert system.cluster.node("edge-0").busy_seconds == pytest.approx(busy)


class TestAvailabilityHarness:
    def test_availability_comparison_rows(self):
        from repro.experiments.availability import (
            format_availability_comparison,
            run_availability_comparison,
        )
        from repro.experiments.serving import ServingScenario

        scenario = ServingScenario(models=("alexnet",), num_requests=10, rate_rps=8.0)
        results = run_availability_comparison(
            methods=("hpa_vsm", "cloud_only"),
            mtbfs_s=(None, 2.0),
            scenario=scenario,
            seed=3,
        )
        assert len(results) == 4
        for method, mtbf, report in results:
            assert report is not None
            assert 0.0 <= report.availability <= 1.0
            if mtbf is None:
                assert report.failover_replans == 0
        table = format_availability_comparison(results)
        assert "avail %" in table and "hpa_vsm" in table


class TestFaultBlastRadius:
    """Failures must only disrupt what they physically touch."""

    def test_shared_medium_transfer_between_healthy_nodes_survives(self):
        """A dead edge node must not abort a transfer between two *healthy*
        nodes that merely share its tier-alias wire (the paper's LAN)."""
        system = _system()
        # edge-0 blinks off at arrival (binding the request to edge-1..3 and
        # the LAN transfer to device-0 -> edge-1), recovers immediately, then
        # dies again while that transfer is on the shared wire.
        schedule = FaultSchedule(
            [
                NodeDown(0.0, "edge-0"),
                NodeUp(0.001, "edge-0"),
                NodeDown(0.03, "edge-0"),
            ]
        )
        report = system.serve(Workload.single("vgg16"), faults=schedule)
        record = report.records[0]
        assert record.completed
        assert record.retries == 0  # untouched by a failure it doesn't share
        assert report.failover_replans == 0

    def test_aborted_transfer_releases_unstarted_hop_reservations(self):
        """Store-and-forward books every hop up-front; when a fault kills the
        attempt, reservations whose bytes never reached the wire must be
        released instead of serializing later traffic as phantom transfers."""
        system = _system(topology="device_gateway")
        # the gateway dies while hop 1 (device->gateway) is transmitting,
        # before hop 2 (gateway->edge) starts; the deployment is unservable
        # without its only relay, so the request fails -- and the pre-booked
        # gateway-edge reservation must be unwound.
        schedule = FaultSchedule([NodeDown(0.03, "gateway-0")])
        report = system.serve(Workload.single("vgg16"), faults=schedule)
        assert report.records[0].status == "failed"
        assert report.link_busy_s["gateway-edge"] == pytest.approx(0.0)
        # the hop already on the wire stays consumed
        assert report.link_busy_s["device-gateway"] > 0.0
