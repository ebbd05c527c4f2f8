"""Streaming accumulators: exactness at small N, tolerance at large N, and
engine-level determinism of the streaming mode against the record-keeping
engine on the golden workloads."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.d3 import D3Config, D3System
from repro.experiments.reporting import latency_percentiles, percentile
from repro.network.topology import Topology
from repro.runtime.accumulators import (
    DEFAULT_EXACT_THRESHOLD,
    OnlineStats,
    ServingStats,
    StreamingPercentiles,
)
from repro.runtime.serving import ServingSimulator
from repro.runtime.workload import Workload

QUANTILES = (50.0, 95.0, 99.0)


# --------------------------------------------------------------------------- #
# OnlineStats
# --------------------------------------------------------------------------- #
class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_batch_mean_min_max(self, values):
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.min == min(values)
        assert stats.max == max(values)
        assert stats.mean == pytest.approx(sum(values) / len(values), rel=1e-12)


# --------------------------------------------------------------------------- #
# StreamingPercentiles
# --------------------------------------------------------------------------- #
class TestStreamingPercentiles:
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_exact_below_threshold(self, values):
        """Below the exact threshold the streaming path IS the sorting path:
        every quantile matches `reporting.percentile` bit for bit."""
        streaming = StreamingPercentiles(exact_threshold=DEFAULT_EXACT_THRESHOLD)
        for value in values:
            streaming.add(value)
        assert streaming.is_exact
        for q in QUANTILES:
            assert streaming.percentile(q) == percentile(values, q)
        named = latency_percentiles(values, QUANTILES)
        assert streaming.percentiles(QUANTILES) == named

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_reservoir_tolerance_at_large_n(self, seed):
        """Past the threshold the reservoir estimate stays within a small
        rank tolerance of the exact percentile for a well-behaved stream."""
        import random

        rng = random.Random(seed)
        n = 20_000
        values = [rng.random() * 100.0 for _ in range(n)]
        streaming = StreamingPercentiles(exact_threshold=4096, reservoir_size=4096, seed=0)
        for value in values:
            streaming.add(value)
        assert not streaming.is_exact
        ordered = sorted(values)
        for q in QUANTILES:
            estimate = streaming.percentile(q)
            # Rank-based tolerance: the estimate must sit within +/-2.5
            # rank percentage points of the true order statistic (a classic
            # uniform-reservoir bound at 4096 samples, far below any
            # regression that would matter for a latency report).
            lo = ordered[max(0, int(n * (q - 2.5) / 100.0))]
            hi = ordered[min(n - 1, int(math.ceil(n * min(q + 2.5, 100.0) / 100.0)) - 1)]
            assert lo <= estimate <= hi, (q, lo, estimate, hi)

    def test_empty_stream(self):
        streaming = StreamingPercentiles(exact_threshold=16)
        assert streaming.percentile(50.0) == 0.0
        assert streaming.percentiles(QUANTILES) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_reservoir_bounds_memory(self):
        streaming = StreamingPercentiles(exact_threshold=64, reservoir_size=64, seed=0)
        for index in range(10_000):
            streaming.add(float(index))
        assert len(streaming.sample) == 64


# --------------------------------------------------------------------------- #
# Engine determinism: stream_stats vs the record-keeping engine
# --------------------------------------------------------------------------- #
def _system(**overrides) -> D3System:
    config = dict(
        topology=Topology.three_tier(num_edge_nodes=4, network="wifi"),
        use_regression=False,
        profiler_noise_std=0.0,
    )
    config.update(overrides)
    return D3System(D3Config(**config))


#: The golden-trace workloads (steady/chaos pin vgg16 Poisson streams; the
#: fleet golden is topology-driven) reduced to their serving essentials —
#: what matters here is that BOTH engines consume the same stream.
GOLDEN_WORKLOADS = (
    ("steady", "vgg16", dict(num_requests=40, rate_rps=2.0, seed=7)),
    ("burst", "alexnet", dict(num_requests=60, rate_rps=20.0, seed=3)),
)


class TestStreamingEngineDeterminism:
    @pytest.mark.parametrize("name,model,spec", GOLDEN_WORKLOADS, ids=lambda v: str(v))
    def test_summaries_identical_on_golden_workloads(self, name, model, spec):
        """The streaming engine must report the exact aggregate numbers the
        record-keeping engine computes from its per-request records."""
        workload = Workload.poisson(model, **spec)
        full = _system().serve(workload)
        stream = _system().serve(workload, stream_stats=True)
        assert stream.num_requests == full.num_requests
        assert stream.num_completed == full.num_completed
        assert stream.num_failed == full.num_failed
        assert stream.num_rejected == full.num_rejected
        assert stream.mean_latency_s == full.mean_latency_s
        assert stream.latency_percentiles() == full.latency_percentiles()
        assert stream.throughput_rps == full.throughput_rps
        assert stream.bytes_to_cloud == full.bytes_to_cloud
        assert stream.availability == full.availability

    def test_streaming_matches_under_schedulers(self):
        workload = Workload.poisson(
            "alexnet", num_requests=50, rate_rps=20.0, seed=0, slo_ms=400.0
        )
        for scheduler in ("fifo", "batch", "edf"):
            full = _system().serve(workload, scheduler=scheduler)
            stream = _system().serve(workload, scheduler=scheduler, stream_stats=True)
            assert stream.num_completed == full.num_completed, scheduler
            assert stream.num_rejected == full.num_rejected, scheduler
            assert stream.mean_latency_s == full.mean_latency_s, scheduler
            assert stream.latency_percentiles() == full.latency_percentiles(), scheduler
            assert stream.goodput_rps == full.goodput_rps, scheduler
            assert stream.slo_attainment == full.slo_attainment, scheduler

    def test_every_aggregate_identical_on_mixed_edf_chaos_stream(self):
        """Two models, SLOs, two priority classes, EDF shedding and chaos
        faults: every aggregate — and the summary text — must not depend on
        whether records are kept."""
        workload = Workload.merge(
            Workload.poisson(
                "alexnet", num_requests=24, rate_rps=8.0, seed=1,
                slo_ms=300.0, priorities=(0, 1),
            ),
            Workload.poisson(
                "vgg16", num_requests=16, rate_rps=2.0, seed=2,
                slo_ms=1500.0, priorities=(1, 0),
            ),
        )
        topology = Topology.three_tier(num_edge_nodes=1, network="optical")
        kwargs = dict(scheduler="edf", faults="chaos:3")
        full = _system(topology=topology).serve(workload, **kwargs)
        stream = _system(topology=topology).serve(workload, stream_stats=True, **kwargs)
        # The stream exercises every terminal status and both breakdowns.
        assert full.num_failed and full.num_rejected and full.num_retried
        assert full.bytes_to_cloud > 0
        assert len(full.class_percentiles()) == 2
        assert len(full.model_percentiles()) == 2
        assert stream.records == [] and len(full.records) == 40
        for name in (
            "num_requests", "num_completed", "num_failed", "num_rejected",
            "num_retried", "num_met_slo", "availability", "throughput_rps",
            "goodput_rps", "slo_attainment", "mean_latency_s", "bytes_to_cloud",
            "makespan_s",
        ):
            assert getattr(stream, name) == getattr(full, name), name
        assert stream.latency_percentiles() == full.latency_percentiles()
        assert stream.latency_percentiles(retried_only=True) == full.latency_percentiles(
            retried_only=True
        )
        assert stream.class_percentiles() == full.class_percentiles()
        assert stream.model_percentiles() == full.model_percentiles()
        assert stream.mean_queueing_delay_s() == full.mean_queueing_delay_s()
        assert stream.summary() == full.summary()

    def test_queueing_delay_identical_when_driving_the_simulator_directly(self):
        """Ideal latencies ride on the planned requests, so a simulator fed
        ``plan_requests`` output reports queueing delay in both modes."""
        system = _system()
        workload = Workload.poisson("alexnet", num_requests=30, rate_rps=20.0, seed=4)
        requests = system.plan_requests(workload)
        delays = []
        for stream_stats in (False, True):
            simulator = ServingSimulator(system.cluster, stream_stats=stream_stats)
            records = simulator.run(requests)
            delays.append(
                simulator.build_report(workload.name, records).mean_queueing_delay_s()
            )
        assert delays[0] is not None
        assert delays[0] == delays[1]

    def test_streaming_report_has_no_records(self):
        workload = Workload.constant_rate("alexnet", 10, interval_s=0.05)
        report = _system().serve(workload, stream_stats=True)
        assert report.records == []
        assert report.stats is not None
        assert report.stats.num_requests == 10


# --------------------------------------------------------------------------- #
# ServingStats unit behaviour
# --------------------------------------------------------------------------- #
class TestServingStats:
    def test_rejected_requests_skip_latency(self):
        stats = ServingStats()
        stats.add(
            arrival_s=0.0,
            completion_s=0.0,
            status="rejected",
            retries=0,
            slo_ms=100.0,
            priority=0,
            bytes_to_cloud=0,
            ideal_latency_s=None,
            model="alexnet",
        )
        assert stats.num_rejected == 1
        assert stats.latency.count == 0

    def test_slo_attainment_counts(self):
        stats = ServingStats()
        for latency, slo in ((0.05, 100.0), (0.2, 100.0)):
            stats.add(
                arrival_s=0.0,
                completion_s=latency,
                status="completed",
                retries=0,
                slo_ms=slo,
                priority=0,
                bytes_to_cloud=0,
                ideal_latency_s=None,
                model="alexnet",
            )
        assert stats.num_completed == 2
        assert stats.num_met_slo == 1
