"""Tests for the plan cache: hit/miss accounting and invalidation-on-drift."""

import pickle

import pytest

from repro.core.d3 import D3Config, D3System
from repro.core.dynamic import RepartitionThresholds
from repro.core.plan_cache import CachedPlan, PlanCache, PlanKey, network_key
from repro.network.conditions import BandwidthTrace, get_condition
from repro.runtime.workload import Workload


@pytest.fixture()
def system():
    return D3System(
        D3Config(
            network="wifi",
            num_edge_nodes=2,
            use_regression=False,
            profiler_noise_std=0.0,
        )
    )


class TestPlanKey:
    def test_network_key_distinguishes_conditions(self):
        assert network_key(get_condition("wifi")) != network_key(get_condition("4g"))

    def test_same_condition_same_key(self):
        config_key = ("anything",)
        first = PlanKey.build("vgg16", get_condition("wifi"), config_key)
        second = PlanKey.build("vgg16", get_condition("wifi"), config_key)
        assert first == second and hash(first) == hash(second)

    def test_hash_is_the_field_tuple_hash_cached(self):
        key = PlanKey.build("vgg16", get_condition("wifi"), ("anything",), topology=(1, 2))
        expected = hash((key.model, key.network, key.config, key.strategy, key.topology))
        assert hash(key) == expected
        assert key.__dict__["_hash"] == expected
        assert hash(key) == expected

    def test_pickled_key_carries_no_cached_hash(self):
        """String hashes are salted per process: a hash cached in one
        process is wrong in the next, so it must not travel."""
        key = PlanKey.build("vgg16", get_condition("wifi"), ("anything",))
        hash(key)
        clone = pickle.loads(pickle.dumps(key))
        assert "_hash" not in clone.__dict__
        assert clone == key and hash(clone) == hash(key)
        assert "_hash" in key.__dict__  # pickling left the original alone


class TestCacheAccounting:
    def test_static_stream_partitions_once(self, system):
        workload = Workload.constant_rate("alexnet", num_requests=10, interval_s=0.05)
        report = system.serve(workload)
        assert report.cache_misses == 1
        assert report.cache_hits == 9
        assert report.repartitions == 0
        assert report.plans_computed == 1

    def test_cache_survives_across_serve_calls(self, system):
        system.serve(Workload.single("alexnet"))
        report = system.serve(Workload.constant_rate("alexnet", 5, interval_s=1.0))
        assert report.cache_misses == 0
        assert report.cache_hits == 5

    def test_distinct_models_partition_separately(self, system):
        workload = Workload.constant_rate(["alexnet", "resnet18"], 6, interval_s=0.5)
        report = system.serve(workload)
        assert report.cache_misses == 2
        assert report.cache_hits == 4

    def test_in_band_drift_is_a_hit(self, system):
        """A condition inside the threshold band reuses the cached plan."""
        trace = BandwidthTrace(
            base=get_condition("wifi"), samples=[(0.0, 1.0), (0.9, 1.1)]
        )
        workload = Workload.constant_rate("alexnet", num_requests=4, interval_s=0.6)
        report = system.serve(workload, trace=trace)
        assert report.cache_misses == 1
        assert report.repartitions == 0
        assert report.cache_hits == 3

    def test_out_of_band_drift_repartitions_once(self, system):
        """A drift beyond the band triggers exactly one local re-partitioning."""
        trace = BandwidthTrace(
            base=get_condition("wifi"), samples=[(0.0, 1.0), (0.9, 0.2)]
        )
        workload = Workload.constant_rate("alexnet", num_requests=6, interval_s=0.6)
        report = system.serve(workload, trace=trace)
        assert report.cache_misses == 1
        assert report.repartitions == 1
        assert report.cache_hits == 4
        assert system.plan_cache.invalidations == 1


def _fleet_system(**overrides):
    config = dict(
        topology="multi_device", network="wifi", use_regression=False, profiler_noise_std=0.0
    )
    config.update(overrides)
    return D3System(D3Config(**config))


def _static_stream():
    system = D3System(D3Config(network="wifi", use_regression=False, profiler_noise_std=0.0))
    return system, Workload.poisson("alexnet", 60, 8.8, seed=4), {}


def _fleet_stream(**overrides):
    system = _fleet_system(**overrides)
    workload = Workload.poisson(
        ["alexnet", "resnet18", "vgg16"],
        45,
        9.0,
        seed=5,
        sources=["device-0", "device-1", "device-2"],
    )
    return system, workload, {}


def _drift_stream():
    system, workload, _ = _static_stream()
    samples = [(0.5 * step, (1.0, 3.0, 1.1, 0.3)[step % 4]) for step in range(16)]
    return system, workload, {"trace": BandwidthTrace(base=get_condition("wifi"), samples=samples)}


def _chaos_stream():
    system, workload, _ = _fleet_stream()
    return system, workload, {"faults": "chaos:2", "max_retries": 2}


MEMO_STREAMS = {
    "static": _static_stream,
    "fleet": _fleet_stream,
    "drift": _drift_stream,
    "chaos": _chaos_stream,
    "evicting": lambda: _fleet_stream(plan_cache_entries=2),
}


def _without_key_memo(original):
    def plan_for(self, *args, **kwargs):
        self._key_memo = None
        return original(self, *args, **kwargs)

    return plan_for


def _cache_state(system):
    """The cache's counters and key orders, graph tokens reduced to names
    (a token carries the graph's id, which differs between systems)."""

    def strip(key):
        return (key.model.split("#")[0], key.network, key.strategy, key.topology)

    cache = system.plan_cache
    return (
        cache.stats(),
        [strip(key) for key in cache._entries],
        [(model.split("#")[0], *rest) for model, *rest in cache._latest],
    )


class TestPlanKeyMemo:
    @pytest.mark.parametrize("stream", sorted(MEMO_STREAMS))
    def test_memo_leaves_the_cache_unchanged(self, stream):
        states = []
        for memo in (True, False):
            system, workload, kwargs = MEMO_STREAMS[stream]()
            with pytest.MonkeyPatch.context() as patch:
                if not memo:
                    patch.setattr(D3System, "_plan_for", _without_key_memo(D3System._plan_for))
                report = system.serve(workload, **kwargs)
            states.append((_cache_state(system), report.summary()))
        assert states[0] == states[1]
        stats = states[0][0][0]
        assert stats["hits"] > 0
        if stream == "evicting":
            assert stats["evictions"] > 0
        if stream == "drift":
            assert stats["repartitions"] > 0 and stats["invalidations"] > 0

    def test_traced_stream_keeps_one_slot_per_stream(self):
        """A trace mints a condition per arrival: each replaces its stream's
        slot, so the memo never grows with the number of arrivals."""
        system, workload, kwargs = _drift_stream()
        sizes, hits = [], []

        def watch(original):
            def plan_for(self, graph, condition, *args, **kwargs):
                slots = [slot for slot in self._key_memo.values() if slot[2] is condition]
                hits.append(bool(slots))
                entry = original(self, graph, condition, *args, **kwargs)
                sizes.append(len(self._key_memo))
                return entry

            return plan_for

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(D3System, "_plan_for", watch(D3System._plan_for))
            system.serve(workload, **kwargs)
        assert len(sizes) == len(workload.requests)
        assert max(sizes) == 1  # one graph, one source, healthy deployment
        assert not any(hits)  # every arrival brought a fresh condition
        assert system._key_memo is None

    def test_static_fleet_reuses_each_streams_key(self):
        system, workload, kwargs = _fleet_stream()
        keys = {}

        def watch(original):
            def plan_for(self, graph, condition, *args, **kwargs):
                entry = original(self, graph, condition, *args, **kwargs)
                source = kwargs.get("source")
                slot = self._key_memo[(id(graph), id(args[0]), source, None)]
                keys.setdefault((graph.name, source), set()).add(id(slot[3]))
                return entry

            return plan_for

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(D3System, "_plan_for", watch(D3System._plan_for))
            system.serve(workload, **kwargs)
        assert len(keys) == 9  # 3 models x 3 sources
        assert all(len(ids) == 1 for ids in keys.values())

    def test_degraded_plan_under_the_same_condition_object(self):
        """One condition object planned for the healthy and a degraded
        deployment must key on each deployment's own topology."""
        system = _fleet_system()
        graph = system.graph_for("alexnet")
        strategy = system._strategy_for()
        down = (frozenset({"edge-1"}), frozenset())
        system._key_memo = {}
        try:
            healthy = system._plan_for(graph, system.network, strategy)
            degraded = system._plan_for(graph, system.network, strategy, deployment=down)
            again = system._plan_for(graph, system.network, strategy)
        finally:
            system._key_memo = None
        assert healthy.key.topology != degraded.key.topology
        assert again is healthy
        assert len(system.plan_cache) == 2


class TestInvalidationHook:
    def test_repartitioner_listener_invalidates_entry(self, system, alexnet):
        """The cache entry dies the moment a drift adapts its plan."""
        cache = system.plan_cache
        condition = get_condition("wifi")
        entry = system._plan_for(alexnet, condition)
        key = entry.key
        assert cache.get(key) is entry  # a hit while valid

        adapted = system._plan_for(alexnet, condition.scaled_backbone(0.1))
        assert adapted is not entry
        assert not entry.valid
        assert cache.get(key) is None
        assert cache.invalidations == 1


class TestRegressions:
    def test_same_named_graphs_do_not_collide(self, system):
        """Two structurally different graphs sharing a name get separate plans."""
        from repro.graph.builder import GraphBuilder
        from repro.runtime.workload import Request, Workload

        def tiny(num_convs):
            builder = GraphBuilder("dnn", input_shape=(3, 32, 32))
            for i in range(num_convs):
                builder.conv(f"c{i}", 8, kernel=3, padding=1)
            builder.flatten("flat")
            builder.linear("fc", 10)
            return builder.build()

        workload = Workload(
            requests=[
                Request(0, "dnn", 0.0, graph=tiny(2)),
                Request(1, "dnn", 0.1, graph=tiny(7)),
            ]
        )
        report = system.serve(workload)  # used to raise PlacementError
        assert report.cache_misses == 2
        assert report.num_requests == 2

    def test_thresholds_propagate_to_live_repartitioners(self, system):
        """Tightening the band mid-life must reach existing repartitioners,
        so every counted repartition is a real adaptation (matching
        invalidation), never a phantom one."""
        system.serve(Workload.single("alexnet"))
        trace = BandwidthTrace(base=get_condition("wifi"), samples=[(0.0, 0.85)])
        report = system.serve(
            Workload.single("alexnet"),
            trace=trace,
            thresholds=RepartitionThresholds(lower=0.9, upper=1.1),
        )
        cache = system.plan_cache
        assert report.repartitions == cache.invalidations
        entry = cache.latest_for(*list(cache._latest)[0])
        assert entry.repartitioner.thresholds == cache.thresholds

    def test_call_band_does_not_leak_into_later_calls(self, system):
        """``serve(thresholds=...)`` sets the band for its own call only; a
        later plain call judges drift with the band the cache had before
        (the paper's [0.75, 1.25] by default)."""
        wifi = get_condition("wifi")
        workload = Workload.constant_rate("alexnet", num_requests=4, interval_s=0.6)
        wide = RepartitionThresholds(lower=0.5, upper=1.5)
        tolerated = BandwidthTrace(base=wifi, samples=[(0.0, 1.0), (0.9, 0.6)])
        report = system.serve(workload, trace=tolerated, thresholds=wide)
        assert report.repartitions == 0  # 0.6x is inside the wide band
        cache = system.plan_cache
        assert cache.thresholds == RepartitionThresholds()
        assert all(
            entry.repartitioner.thresholds == RepartitionThresholds()
            for entry in cache._latest.values()
        )
        drifted = BandwidthTrace(base=wifi, samples=[(0.0, 1.0), (0.9, 0.65)])
        report = system.serve(workload, trace=drifted)
        assert report.repartitions == 1  # 0.65x leaves [0.75, 1.25]

    def test_listeners_do_not_accumulate_across_drifts(self, system, alexnet):
        """Repeated drift adaptations must not leave invalid alias entries
        behind."""
        condition = get_condition("wifi")
        system._plan_for(alexnet, condition)
        for step in range(1, 6):
            factor = 0.3 if step % 2 else 1.0
            system._plan_for(alexnet, condition.scaled_backbone(factor))
        cache = system.plan_cache
        assert all(e.valid for e in cache._entries.values())


class TestCacheUnit:
    def test_invalidate_and_clear(self, system, alexnet):
        cache = system.plan_cache
        entry = system._plan_for(alexnet, get_condition("wifi"))
        assert len(cache) == 1
        assert cache.invalidate(entry.key)
        assert not cache.invalidate(entry.key)  # already gone
        cache.clear()
        assert len(cache) == 0

    def test_within_band_uses_thresholds(self, system, alexnet):
        cache = system.plan_cache
        cache.thresholds = RepartitionThresholds(lower=0.5, upper=2.0)
        entry = system._plan_for(alexnet, get_condition("wifi"))
        assert cache.within_band(entry, get_condition("wifi").scaled_backbone(0.6))
        assert not cache.within_band(entry, get_condition("wifi").scaled_backbone(0.3))

    def test_cached_plan_is_a_frozen_snapshot(self, system, alexnet):
        """Adapting to drift must not mutate plans already handed out."""
        entry = system._plan_for(alexnet, get_condition("wifi"))
        before = dict(entry.placement.assignments)
        entry.repartitioner.observe(network=get_condition("wifi").scaled_backbone(0.05))
        assert entry.placement.assignments == before


class TestTopologyKeying:
    def test_plan_key_distinguishes_topologies(self):
        from repro.network.topology import Topology, get_topology

        config_key = ("cfg",)
        condition = get_condition("wifi")
        canonical = Topology.three_tier(num_edge_nodes=4).fingerprint()
        hetero = get_topology("hetero_edge").fingerprint()
        key_a = PlanKey.build("vgg16", condition, config_key, "hpa_vsm", topology=canonical)
        key_b = PlanKey.build("vgg16", condition, config_key, "hpa_vsm", topology=hetero)
        assert key_a != key_b
        # Identical shapes rebuilt from scratch share the key.
        same = Topology.three_tier(num_edge_nodes=4).fingerprint()
        assert key_a == PlanKey.build("vgg16", condition, config_key, "hpa_vsm", topology=same)

    def test_topology_change_is_a_cache_miss(self, system, alexnet):
        """Swapping only the deployment shape must never reuse a cached plan."""
        cache = system.plan_cache
        entry = system._plan_for(alexnet, get_condition("wifi"))
        hits_before = cache.stats()["hits"]
        foreign = PlanKey(
            model=entry.key.model,
            network=entry.key.network,
            config=entry.key.config,
            strategy=entry.key.strategy,
            topology=("some", "other", "shape"),
        )
        assert cache.get(foreign) is None
        assert cache.latest_for(
            entry.key.model, entry.key.strategy, entry.key.config, foreign.topology
        ) is None
        # The native key still hits.
        assert cache.get(entry.key) is entry
        assert cache.stats()["hits"] == hits_before + 1


class TestLRUEviction:
    """The bounded cache: max_entries LRU eviction (degraded topology
    fingerprints and drifting conditions mint unbounded key streams)."""

    def _entry_for(self, system, condition):
        from repro.models.zoo import build_model

        return system._plan_for(system.graph_for("alexnet"), condition)

    def test_unbounded_by_default(self, system):
        assert system.plan_cache.max_entries is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_eviction_keeps_bound(self):
        from repro.graph.builder import GraphBuilder

        system = D3System(
            D3Config(
                network="wifi",
                num_edge_nodes=2,
                use_regression=False,
                profiler_noise_std=0.0,
                plan_cache_entries=2,
            )
        )
        cache = system.plan_cache

        def tiny(name):
            builder = GraphBuilder(name, input_shape=(3, 32, 32))
            builder.conv("c0", 8, kernel=3, padding=1)
            builder.flatten("flat")
            builder.linear("fc", 10)
            return builder.build()

        # three distinct models -> three distinct key streams
        for name in ("net-a", "net-b", "net-c"):
            system._plan_for(tiny(name), system.network)
        assert len(cache) <= 2
        assert cache.evictions >= 1
        assert cache.stats()["evictions"] == cache.evictions

    def test_oldest_key_evicted_first(self):
        cache = PlanCache(max_entries=2)
        entries = {}
        for name in ("a", "b", "c"):
            key = PlanKey(model=name, network=(1.0, 1.0, 1.0), config=())
            entry = CachedPlan(
                key=key,
                graph=None,
                profile=None,
                placement=None,
                vsm_plan=None,
                condition=get_condition("wifi"),
                ideal_latency_s=0.0,
            )
            entries[name] = entry
            cache.store(entry)
        assert cache.get(entries["a"].key) is None  # evicted
        assert cache.get(entries["b"].key) is entries["b"]
        assert cache.get(entries["c"].key) is entries["c"]
        assert cache.evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(max_entries=2)

        def store(name):
            key = PlanKey(model=name, network=(1.0, 1.0, 1.0), config=())
            entry = CachedPlan(
                key=key,
                graph=None,
                profile=None,
                placement=None,
                vsm_plan=None,
                condition=get_condition("wifi"),
                ideal_latency_s=0.0,
            )
            cache.store(entry)
            return entry

        first = store("a")
        store("b")
        assert cache.get(first.key) is first  # refresh "a"
        store("c")  # evicts "b", the least recently used
        assert cache.get(first.key) is first
        assert cache.get(PlanKey(model="b", network=(1.0, 1.0, 1.0), config=())) is None

    def test_evicted_stream_seed_still_adapts(self):
        """Eviction drops keys, not streams: the _latest drift seed survives,
        so a re-request of an evicted shape re-aliases instead of replanning
        from scratch when still in band."""
        system = D3System(
            D3Config(
                network="wifi",
                num_edge_nodes=2,
                use_regression=False,
                profiler_noise_std=0.0,
                plan_cache_entries=1,
            )
        )
        cache = system.plan_cache
        wifi = get_condition("wifi")
        entry = self._entry_for(system, wifi)
        # a second, far-off condition evicts the wifi key
        self._entry_for(system, wifi.scaled_backbone(50.0))
        assert cache.get(entry.key) is None
        misses_before = cache.misses
        again = self._entry_for(system, wifi)
        # replanned or re-aliased, but never silently wrong
        assert again.condition.bandwidth_mbps("edge", "cloud") == pytest.approx(
            wifi.bandwidth_mbps("edge", "cloud"), rel=0.5
        ) or cache.misses > misses_before

    def test_latest_seeds_share_the_bound(self):
        cache = PlanCache(max_entries=2)
        for name in ("a", "b", "c", "d"):
            key = PlanKey(model=name, network=(1.0, 1.0, 1.0), config=())
            cache.store(
                CachedPlan(
                    key=key,
                    graph=None,
                    profile=None,
                    placement=None,
                    vsm_plan=None,
                    condition=get_condition("wifi"),
                    ideal_latency_s=0.0,
                )
            )
        assert len(cache._latest) <= 2
        assert cache.latest_for("d", "hpa_vsm", ()) is not None
        assert cache.latest_for("a", "hpa_vsm", ()) is None  # seed evicted
