"""Golden-trace tooling: pin the serving engine's full event timelines.

Summary statistics (p95, throughput, availability) are too coarse to pin a
discrete-event engine: a refactor can shuffle the schedule, change every
timestamp and still land on similar aggregates.  This module serializes the
*complete* timeline of a serving run — every compute event, every transfer,
every terminal status, in order, at full float precision — into a JSON
document that is committed as a fixture and diffed exactly by
``tests/runtime/test_golden_traces.py``.

Seven canonical workloads are pinned (:data:`GOLDEN_SCENARIOS`):

``steady``
    A Poisson AlexNet stream on the canonical three-tier testbed — the
    no-batching, no-fault serving baseline.
``chaos``
    The same testbed under a seeded chaos fault schedule with failover
    retries — pins abort/retry/failover timing.
``fleet``
    A multi-device topology with requests pinned round-robin across the
    device fleet — pins multi-hop routing and per-device source resolution.
``elastic``
    The steady testbed under a declarative elasticity schedule (two parked
    replicas join mid-run, one drains) with join-shortest-queue balancing —
    pins provisioning delays, graceful-drain timing and replica selection.
``multimodel``
    Two models (VGG-16 + AlexNet) alternating through a weight cache too
    tight to hold both, under LRU eviction and the zxc codec — pins
    cold-start transfer/decompress timing, eviction order and the
    cache-miss parking/resume schedule.
``adaptation``
    An AlexNet stream over a decaying optical backbone with online
    calibration and bandwidth forecasting enabled — pins proactive
    (forecast-ahead) repartition timing, calibrated plan pricing and the
    mispredict accounting.  The others run with calibration off, so
    they double as the proof the machinery is inert by default.
``admission``
    An AlexNet stream over the multi-device fleet with per-request SLOs,
    earliest-deadline-first dispatch and SLO admission control, under a
    seeded chaos fault schedule with failover retries — pins shedding at
    the door, deadline-ordered queues and failover on the same run.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m repro.testing regen-goldens

which rewrites ``tests/runtime/goldens/*.json`` (run from the repo root, or
pass ``--out``).  An unintentional diff is a regression: the default
(FIFO-scheduled, admission-free) engine must stay bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.runtime.serving import RequestRecord, ServingReport

#: Default fixture directory, relative to the repository root.
GOLDENS_DIR = Path("tests") / "runtime" / "goldens"


# --------------------------------------------------------------------------- #
# Canonical scenarios
# --------------------------------------------------------------------------- #
def _steady_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="wifi", num_edge_nodes=4, use_regression=False, profiler_noise_std=0.0)
    )
    workload = Workload.poisson("alexnet", num_requests=24, rate_rps=12.0, seed=11)
    return system.serve(workload)


def _chaos_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="wifi", num_edge_nodes=3, use_regression=False, profiler_noise_std=0.0)
    )
    workload = Workload.poisson("vgg16", num_requests=16, rate_rps=6.0, seed=5)
    return system.serve(workload, faults="chaos:2", max_retries=2)


def _fleet_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(topology="multi_device", use_regression=False, profiler_noise_std=0.0)
    )
    sources = [node.name for node in system.cluster.devices]
    workload = Workload.poisson(
        "alexnet", num_requests=18, rate_rps=9.0, seed=3, sources=sources
    )
    return system.serve(workload)


def _elastic_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.elasticity import ElasticitySchedule, NodeDrain, NodeJoin
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="wifi", num_edge_nodes=4, use_regression=False, profiler_noise_std=0.0)
    )
    schedule = ElasticitySchedule(
        [
            NodeJoin(0.4, "edge-2", provision_s=0.3),
            NodeDrain(1.2, "edge-1"),
            NodeJoin(1.6, "edge-3", provision_s=0.2),
        ],
        name="elastic-golden",
    )
    workload = Workload.poisson("alexnet", num_requests=24, rate_rps=12.0, seed=7)
    return system.serve(workload, elasticity=schedule, balancer="jsq")


def _multimodel_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.artifacts import MemoryModel
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="wifi", num_edge_nodes=2, use_regression=False, profiler_noise_std=0.0)
    )
    # VGG-16 (~553 MB) + AlexNet (~244 MB) against a 0.7 GiB cache: either
    # model fits alone, both together do not, so the alternating stream
    # forces the LRU cache to evict and reload — the regime the fixture pins.
    workload = Workload.poisson(
        ["vgg16", "alexnet"], num_requests=12, rate_rps=4.0, seed=13
    )
    return system.serve(
        workload, memory=MemoryModel(budget_gb=0.7, codec="zxc", eviction="lru")
    )


def _adaptation_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.network.conditions import BandwidthTrace, get_condition
    from repro.runtime.calibration import CalibrationConfig
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="optical", num_edge_nodes=2, use_regression=False, profiler_noise_std=0.0)
    )
    # Optical is the one Table III condition whose optimal AlexNet split
    # offloads the classifier head to the cloud, so the backbone decay below
    # genuinely moves the optimum — the fixture pins the forecaster firing
    # *before* the sampled multiplier leaves the reactive band.
    trace = BandwidthTrace(
        get_condition("optical"),
        [(0.0, 1.0), (0.6, 0.8), (1.0, 0.55), (1.4, 0.4), (2.0, 0.35)],
    )
    workload = Workload.poisson("alexnet", num_requests=20, rate_rps=10.0, seed=17)
    return system.serve(
        workload,
        trace=trace,
        calibration=CalibrationConfig(alpha=0.6, trend_beta=0.6, horizon_s=0.8),
    )


def _admission_report() -> ServingReport:
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(topology="multi_device", use_regression=False, profiler_noise_std=0.0)
    )
    sources = [node.name for node in system.cluster.devices]
    # A 100 ms SLO against a ~70 ms idle path at 10 rps: bursts queue enough
    # to shed at the door, and the chaos seed crashes edge-0 under load, so
    # the fixture pins shedding and failover retries in one run.
    workload = Workload.poisson(
        "alexnet", num_requests=40, rate_rps=10.0, seed=6, sources=sources, slo_ms=100.0
    )
    return system.serve(workload, scheduler="edf", faults="chaos:2", max_retries=2)


#: name -> report builder; every entry becomes one committed fixture.
GOLDEN_SCENARIOS: Dict[str, Callable[[], ServingReport]] = {
    "steady": _steady_report,
    "chaos": _chaos_report,
    "fleet": _fleet_report,
    "elastic": _elastic_report,
    "multimodel": _multimodel_report,
    "adaptation": _adaptation_report,
    "admission": _admission_report,
}


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
def serialize_record(record: RequestRecord) -> dict:
    """One request's full timeline as a JSON-ready dict (exact floats)."""
    return {
        "request_id": record.request_id,
        "model": record.model,
        "status": record.status,
        "retries": record.retries,
        "arrival_s": record.arrival_s,
        "completion_s": record.completion_s,
        "latency_s": record.report.end_to_end_latency_s,
        "events": [
            {
                "node": event.node,
                "tier": event.tier.value,
                "label": event.label,
                "kind": event.kind,
                "start_s": event.start_s,
                "end_s": event.end_s,
            }
            for event in record.report.events
        ],
        "transfers": [
            {
                "producer": transfer.producer,
                "consumer": transfer.consumer,
                "source_tier": transfer.source_tier.value,
                "destination_tier": transfer.destination_tier.value,
                "payload_bytes": transfer.payload_bytes,
                "start_s": transfer.start_s,
                "duration_s": transfer.duration_s,
            }
            for transfer in record.report.transfers
        ],
    }


def serialize_report(report: ServingReport) -> dict:
    """A serving report's complete observable behaviour as a JSON document.

    The ``memory`` block is emitted only when the run actually exercised the
    weight caches, so pre-memory fixtures stay byte-for-byte unchanged.
    """
    document = {
        "workload": report.workload_name,
        "method": report.method,
        "makespan_s": report.makespan_s,
        "num_requests": report.num_requests,
        "num_completed": report.num_completed,
        "num_failed": report.num_failed,
        "failover_replans": report.failover_replans,
        "node_busy_s": dict(sorted(report.node_busy_s.items())),
        "link_busy_s": dict(sorted(report.link_busy_s.items())),
        "node_down_s": dict(sorted(report.node_down_s.items())),
        "link_down_s": dict(sorted(report.link_down_s.items())),
        "records": [serialize_record(record) for record in report.records],
    }
    if report.cold_starts or report.weight_cache_misses or report.weight_cache_hits:
        document["memory"] = {
            "cold_starts": report.cold_starts,
            "cold_start_s": report.cold_start_s,
            "weight_cache_hits": report.weight_cache_hits,
            "weight_cache_misses": report.weight_cache_misses,
            "weight_evictions": report.weight_evictions,
            "peak_resident_bytes": report.peak_resident_bytes,
        }
    if (
        report.calibration_updates
        or report.proactive_repartitions
        or report.reactive_repartitions
        or report.forecast_mispredicts
    ):
        document["calibration"] = {
            "calibration_updates": report.calibration_updates,
            "proactive_repartitions": report.proactive_repartitions,
            "reactive_repartitions": report.reactive_repartitions,
            "forecast_mispredicts": report.forecast_mispredicts,
            "first_adaptation_s": report.first_adaptation_s,
        }
    if report.economics_enabled:
        document["economics"] = {
            "compute_energy_j": report.compute_energy_j,
            "radio_energy_j": report.radio_energy_j,
            "idle_energy_j": report.idle_energy_j,
            "total_cost_usd": report.total_cost_usd,
        }
    return document


def golden_trace(name: str) -> dict:
    """Run one canonical scenario and serialize its timeline."""
    if name not in GOLDEN_SCENARIOS:
        raise KeyError(
            f"unknown golden scenario {name!r}; available: {sorted(GOLDEN_SCENARIOS)}"
        )
    return serialize_report(GOLDEN_SCENARIOS[name]())


def write_goldens(out_dir: Optional[Path] = None) -> List[Path]:
    """Regenerate every golden fixture; returns the written paths."""
    out_dir = Path(out_dir or GOLDENS_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in GOLDEN_SCENARIOS:
        path = out_dir / f"{name}.json"
        with path.open("w", encoding="utf-8") as handle:
            json.dump(golden_trace(name), handle, indent=1, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


def load_golden(name: str, goldens_dir: Optional[Path] = None) -> dict:
    """Load one committed fixture."""
    path = Path(goldens_dir or GOLDENS_DIR) / f"{name}.json"
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)
