"""Plan artefacts are interned by content across drift repartitions.

A drifting stream that keeps landing on the same placements must share one
placement snapshot, one VSM tiling and one priced baseline per distinct
placement and condition, without changing any figure the planner hands the
engine.
"""

import pytest

from repro.core.d3 import D3Config, D3System
from repro.network.conditions import BandwidthTrace, get_condition
from repro.network.faults import FaultSchedule, NodeDown, NodeUp
from repro.network.topology import get_topology
from repro.runtime.artifacts import MemoryModel
from repro.runtime.executor import DistributedExecutor
from repro.runtime.workload import Request, Workload

MODELS = ("alexnet", "resnet18")
#: Backbone multiplier of model *m*'s *k*-th request: consecutive values are
#: 4x or 8x apart, so every request after a model's first repartitions.
CYCLE = (1.0, 4.0, 0.5, 2.0, 0.25)
INTERVAL_S = 0.5


def _system(**overrides) -> D3System:
    config = dict(
        network="wifi",
        num_edge_nodes=4,
        use_regression=False,
        profiler_noise_std=0.0,
    )
    config.update(overrides)
    return D3System(D3Config(**config))


def _requests(first: int, count: int):
    return [
        Request(index, MODELS[index % len(MODELS)], arrival_s=index * INTERVAL_S)
        for index in range(first, first + count)
    ]


def _cycling_trace(count: int) -> BandwidthTrace:
    samples = [
        (index * INTERVAL_S, CYCLE[(index // len(MODELS)) % len(CYCLE)])
        for index in range(count)
    ]
    return BandwidthTrace(base=get_condition("wifi"), samples=samples)


def _fresh_ideal(system: D3System, request) -> float:
    """The one-shot baseline of ``request``, priced with no memo at all."""
    scratch = system.cluster.with_network(request.condition)
    return DistributedExecutor(
        request.graph,
        request.plan,
        request.profile,
        scratch,
        request.vsm_plan,
        source=request.source,
    ).execute().end_to_end_latency_s


@pytest.fixture(scope="module")
def cycled():
    """Four bandwidth cycles per model, planned in one pass."""
    count = 4 * len(CYCLE) * len(MODELS)
    system = _system()
    requests = system.plan_requests(
        Workload(_requests(0, count)), trace=_cycling_trace(count)
    )
    return system, requests


class TestInterning:
    def test_one_plan_and_tiling_object_per_distinct_placement(self, cycled):
        system, requests = cycled
        placements = {(r.graph.name, r.plan.signature()) for r in requests}
        assert system.plan_cache.repartitions == len(requests) - len(MODELS)
        assert len(placements) < system.plan_cache.repartitions
        assert len({id(r.plan) for r in requests}) == len(placements)
        tiled = {
            (r.graph.name, r.plan.signature())
            for r in requests
            if r.vsm_plan is not None
        }
        assert tiled, "the scenario must tile at least one placement"
        assert len({id(r.vsm_plan) for r in requests if r.vsm_plan is not None}) == len(
            tiled
        )

    def test_every_ideal_latency_is_the_exact_fresh_one_shot(self, cycled):
        system, requests = cycled
        for request in requests:
            assert request.ideal_latency_s == _fresh_ideal(system, request)

    def test_a_later_drift_never_mutates_a_served_placement(self):
        total = 3 * len(CYCLE) * len(MODELS)
        split = total // 3
        system = _system()
        trace = _cycling_trace(total)
        served = system.plan_requests(Workload(_requests(0, split)), trace=trace)
        frozen = [dict(r.plan.assignments) for r in served]
        later = system.plan_requests(
            Workload(_requests(split, total - split)), trace=trace
        )
        assert system.plan_cache.repartitions == total - len(MODELS)
        assert [dict(r.plan.assignments) for r in served] == frozen
        working = {
            id(entry.repartitioner.plan)
            for entry in system.plan_cache._latest.values()
        }
        assert working.isdisjoint(id(r.plan) for r in served + later)

    def test_each_source_is_priced_on_its_own_uplink(self):
        """Two fleet devices share a drift stream and its placements, but a
        baseline priced from one device is never reused for the other."""
        topology = get_topology("multi_device", num_devices=2, device_mbps=(84.95, 42.0))
        system = _system(topology=topology)
        count = 4 * len(CYCLE)
        requests = system.plan_requests(
            Workload(
                [
                    Request(
                        index,
                        "alexnet",
                        arrival_s=index * INTERVAL_S,
                        source=f"device-{(index // 2) % 2}",
                    )
                    for index in range(count)
                ]
            ),
            trace=_cycling_trace(count),
        )
        assert {r.source for r in requests} == {"device-0", "device-1"}
        assert len({id(r.plan) for r in requests}) < len(requests)
        for request in requests:
            assert request.ideal_latency_s == _fresh_ideal(system, request)


    def test_a_degraded_deployment_never_borrows_the_healthy_tiling(self):
        """With one edge node left VSM cannot tile, even where the degraded
        placement equals a healthy one that is tiled."""
        system = _system(num_edge_nodes=2)
        schedule = FaultSchedule([NodeDown(2.0, "edge-0"), NodeUp(4.0, "edge-0")])
        workload = Workload.constant_rate("vgg16", num_requests=12, interval_s=0.5)
        requests = system._plan_workload(
            workload, system._strategy_for(), schedule, None
        )
        degraded = [
            r for r in requests if schedule.state_at(r.arrival_s) != (frozenset(), frozenset())
        ]
        healthy = [r for r in requests if r not in degraded]
        assert degraded and healthy
        healthy_tiled = {
            r.plan.signature(): r.vsm_plan for r in healthy if r.vsm_plan is not None
        }
        shared = [r for r in degraded if r.plan.signature() in healthy_tiled]
        assert shared, "the scenario must repeat a healthy placement while degraded"
        assert all(r.vsm_plan is None for r in degraded)
        assert all(r.vsm_plan is not None for r in healthy)
        assert all(r.plan is not h.plan for r in degraded for h in healthy)

    def test_a_memory_repaired_placement_interns_under_its_repair(self):
        system = _system(num_edge_nodes=2)
        probe = Workload.constant_rate("vgg16", num_requests=1, interval_s=1.0)
        (request,) = system.plan_requests(
            probe, memory=MemoryModel(budget_gb=0.25, codec="zxc")
        )
        (entry,) = system.plan_cache._latest.values()
        original = entry.repartitioner.plan.signature()
        assert request.plan.signature() != original, "the budget must force a repair"
        interned = {signature for _, signature in system._artifacts}
        assert request.plan.signature() in interned
        assert original not in interned
        assert request.ideal_latency_s == _fresh_ideal(system, request)


class TestBound:
    def test_memos_never_exceed_the_bound(self, monkeypatch):
        bound = 2
        monkeypatch.setattr(D3System, "PLAN_ARTIFACT_ENTRIES", bound)
        models = ("alexnet", "resnet18", "vgg16")
        count = 36
        # One model first, so its placements collect many priced conditions;
        # then three, so the placements outnumber the bound too.
        model_of = [
            models[0] if index < count // 2 else models[index % 3] for index in range(count)
        ]
        # Alternate far below and far above the base, never repeating a rate.
        samples = [
            (index * INTERVAL_S, (0.25 if index % 2 else 4.0) * (1.0 + 0.01 * index))
            for index in range(count)
        ]
        trace = BandwidthTrace(base=get_condition("wifi"), samples=samples)
        system = _system()
        largest_artifacts = largest_prices = 0
        served = []
        for index in range(count):
            arrival = Request(index, model_of[index], arrival_s=index * INTERVAL_S)
            served += system.plan_requests(Workload([arrival]), trace=trace)
            largest_artifacts = max(largest_artifacts, len(system._artifacts))
            largest_prices = max(largest_prices, len(system._prices))
        assert system.plan_cache.repartitions == count - len(models)
        assert largest_artifacts == bound
        assert largest_prices == bound
        for request in served:
            assert request.ideal_latency_s == _fresh_ideal(system, request)
