"""Discrete-event serving engine: many in-flight inferences on one cluster.

The one-shot :class:`~repro.runtime.executor.DistributedExecutor` walks a
single DNN DAG against idle nodes and uncontended links.  This module
generalises it into a true discrete-event simulator: a global event queue over
the cluster in which any number of partitioned inferences are in flight at
once, contending for

* **per-node compute** — every :class:`~repro.runtime.node.ComputeNode` runs
  one task at a time and keeps a FIFO ready-queue (ties broken by request
  arrival order, then DAG topological order, so the schedule is deterministic
  and the single-request case reproduces the one-shot timeline exactly), and
* **per-link bandwidth** — every cross-node transfer follows the topology's
  fewest-hop route and occupies each
  :class:`~repro.network.link.SharedLink` on it for that hop's transmission
  time (store-and-forward on multi-hop chains); with
  ``link_contention="fifo"`` concurrent transfers serialize per wire, with
  ``"none"`` links have infinite capacity (the paper's one-shot assumption,
  used by the degenerate single-request path so the seed figures are
  bit-identical).  Inherited links price transfers off the request's network
  condition; static and traced links price off their own rate at the moment
  the hop starts.

The engine also consumes a :class:`~repro.network.faults.FaultSchedule` as
first-class events.  When a node dies, the task it was executing is cut short
(its timeline event is truncated at the moment of death) and every request
with unfinished work bound to that node — or an in-flight transfer over a
severed wire — is *aborted and retried*: its pending work is discarded, a
fresh attempt is planned (through the ``replan`` callback when the serving
layer provides one, re-resolving onto surviving nodes otherwise) and execution
restarts from the input at the current time.  Retries are bounded by
``max_retries``; a request that exhausts its budget, loses its source device,
or cannot be replanned against the degraded deployment is recorded as
``failed``.  With no schedule the engine is bit-identical to its fault-free
behaviour.

Dispatch policy is pluggable through :mod:`repro.runtime.scheduler`: the
default :class:`~repro.runtime.scheduler.FifoScheduler` reproduces the
historical engine bit-for-bit (the golden traces pin it), while
:class:`~repro.runtime.scheduler.BatchingScheduler` coalesces same-layer
tasks on one node into micro-batches priced by the hardware's sublinear
batch-cost curve, and :class:`~repro.runtime.scheduler.DeadlineScheduler`
serves earliest-deadline-first over per-request SLOs with priority classes.
Schedulers with admission control shed arriving requests whose predicted
completion (idle critical path plus the current backlog on the nodes the
plan touches) already breaches their SLO; shed requests are recorded as
``rejected`` and surface as the report's shed count, goodput and
SLO-attainment metrics.  A batch whose node dies aborts as a unit — every
member request fails over together — and the retried attempts run
*unbatched*.

The engine consumes :class:`ServingRequest`s — a request plus its placement
plan, latency profile, optional VSM plan and the network condition its
transfers are charged under — and produces per-request
:class:`~repro.runtime.simulator.ExecutionReport`s plus the aggregate
:class:`ServingReport` (percentile latencies, throughput, goodput,
SLO attainment, batch occupancy, utilisation, backbone traffic,
availability).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.placement import PlacementPlan, Tier
from repro.core.vsm import FusedRunPlan, VSMPlan
from repro.graph.dag import DnnGraph, Vertex
from repro.network.conditions import NetworkCondition
from repro.network.faults import FaultEvent, FaultSchedule
from repro.network.link import SharedLink
from repro.network.topology import RouteUnavailableError
from repro.profiling.hardware import batch_cost_s
from repro.profiling.profiler import LatencyProfile
from repro.runtime.accumulators import DEFAULT_EXACT_THRESHOLD, ServingStats
from repro.runtime.artifacts import CapacityError, MemoryModel, WeightCache
from repro.runtime.calibration import OnlineCostCalibrator
from repro.runtime.cluster import Cluster
from repro.runtime.elasticity import (
    Autoscaler,
    ElasticityEvent,
    ElasticitySchedule,
    LoadBalancer,
    resolve_autoscaler,
    resolve_balancer,
)
from repro.runtime.node import ComputeNode
from repro.runtime.scheduler import (
    DeadlineScheduler,
    FifoScheduler,
    Scheduler,
    resolve_scheduler,
)
from repro.runtime.record_log import RecordLog, RequestRecord

#: Link contention models understood by the engine.
LINK_CONTENTION_MODES = ("fifo", "none")

#: Terminal request outcomes (``rejected`` = shed by admission control).
REQUEST_STATUSES = ("completed", "failed", "rejected")

#: Default failover retry budget per request.
DEFAULT_MAX_RETRIES = 3

#: Signature of the failover replanning callback: ``(request, now_s,
#: down_nodes, down_links) -> replanned request or None`` (None = the request
#: cannot be served on the degraded deployment and fails).
ReplanCallback = Callable[
    ["ServingRequest", float, FrozenSet[str], FrozenSet[str]], Optional["ServingRequest"]
]


# --------------------------------------------------------------------------- #
# Inputs and outputs
# --------------------------------------------------------------------------- #
@dataclass
class ServingRequest:
    """One inference request, fully planned and ready to simulate."""

    index: int
    request_id: Optional[str]
    graph: DnnGraph
    plan: PlacementPlan
    profile: LatencyProfile
    condition: NetworkCondition
    arrival_s: float = 0.0
    vsm_plan: Optional[VSMPlan] = None
    #: Name of the device node the request originates at; ``None`` means the
    #: cluster's primary device (the pre-topology single-device behaviour).
    source: Optional[str] = None
    #: Latency SLO in milliseconds; ``None`` = best-effort (no deadline).
    slo_ms: Optional[float] = None
    #: Priority class (0 = most important); only the deadline scheduler and
    #: the per-class report metrics consult it.
    priority: int = 0
    #: Idle-cluster latency of the request's plan (from the plan cache);
    #: admission control predicts completion as this plus the live backlog.
    ideal_latency_s: Optional[float] = None


@dataclass(frozen=True)
class BatchRecord:
    """One micro-batch dispatch (size > 1) the engine executed."""

    node: str
    label: str
    size: int
    start_s: float
    end_s: float
    #: Longest member's solo duration — the lower bound on the batch's cost.
    longest_solo_s: float
    #: Sum of the members' solo durations — what FIFO would have paid.
    total_solo_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class ServingReport:
    """Aggregate result of serving a workload on one cluster."""

    workload_name: str
    records: Sequence[RequestRecord] = field(default_factory=list)
    makespan_s: float = 0.0
    node_busy_s: Dict[str, float] = field(default_factory=dict)
    link_busy_s: Dict[str, float] = field(default_factory=dict)
    #: Name of the dispatch policy the stream ran under.
    scheduler: str = "fifo"
    #: Dispatch-size histogram: ``{batch size: dispatches}``.  FIFO/EDF runs
    #: are all size 1; the batching scheduler's occupancy shows up here.
    batch_occupancy: Dict[int, int] = field(default_factory=dict)
    #: Every multi-member batch the engine executed (size > 1 only); empty
    #: under ``stream_stats``, which keeps no batch log (``batch_occupancy``
    #: still counts every dispatch).
    batches: List[BatchRecord] = field(default_factory=list)
    #: Registry name of the partitioning method the stream was planned with
    #: (filled by :meth:`repro.core.d3.D3System.serve`; empty when the report
    #: was built directly from the simulator).
    method: str = ""
    #: Plan-cache statistics, filled by :meth:`repro.core.d3.D3System.serve`.
    plans_computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    repartitions: int = 0
    #: Cached plans invalidated mid-stream (drift adaptations and membership
    #: churn both retire stale entries; churn-induced replanning cost shows
    #: up here and in ``cache_misses``).
    cache_invalidations: int = 0
    #: Failover replans performed mid-stream (a fault aborted in-flight work
    #: and the strategy re-planned the request against the degraded topology).
    failover_replans: int = 0
    #: Seconds each node spent down within the report's makespan window
    #: (empty on fault-free runs); feeds downtime-weighted utilisation.
    node_down_s: Dict[str, float] = field(default_factory=dict)
    #: Seconds each link spent dark within the makespan window.
    link_down_s: Dict[str, float] = field(default_factory=dict)
    #: Membership changes the run performed: autoscaler decisions plus
    #: declarative elasticity joins/drains that actually changed the fleet.
    scale_up_events: int = 0
    scale_down_events: int = 0
    #: Memory-constrained serving (all zero unless the run carried a
    #: :class:`~repro.runtime.artifacts.MemoryModel`): cold-start loads the
    #: stream performed (compressed transfer + decompress before a
    #: non-resident model's first task), per-node weight-cache lookups, and
    #: the high-water mark of resident bytes across every node cache.
    cold_starts: int = 0
    weight_cache_hits: int = 0
    weight_cache_misses: int = 0
    weight_evictions: int = 0
    peak_resident_bytes: int = 0
    #: Total simulated seconds spent loading weights (transfer + decompress).
    cold_start_s: float = 0.0
    #: Online cost calibration (all zero unless the run carried an
    #: :class:`~repro.runtime.calibration.OnlineCostCalibrator`): estimate
    #: updates the calibrator absorbed, drift repartitions split by trigger
    #: (forecast-ahead vs threshold-breach), and proactive triggers whose
    #: predicted breach never materialised within the horizon.
    calibration_updates: int = 0
    proactive_repartitions: int = 0
    reactive_repartitions: int = 0
    forecast_mispredicts: int = 0
    #: Arrival time of the first adaptation (proactive or reactive) the run
    #: triggered; ``None`` when the stream never left the band.  The
    #: adaptation scenario reads drift-response lag from this.
    first_adaptation_s: Optional[float] = None
    #: Metered economics (all zero unless the run was served with
    #: ``economics=True``): joules split by origin — compute energy off every
    #: node's executed work, radio energy off the bytes that crossed device
    #: uplinks, idle draw over each node's powered-on window — plus the
    #: fleet's dollar bill (powered-on seconds × per-node $/s).  All derived
    #: at report-build time from the engine's truncation-aware integrals
    #: (busy seconds, bytes carried, downtime), so faults and retries are
    #: billed exactly for the work that actually executed.
    economics_enabled: bool = False
    compute_energy_j: float = 0.0
    radio_energy_j: float = 0.0
    idle_energy_j: float = 0.0
    total_cost_usd: float = 0.0
    #: Online accumulators the engine fed at every request's retirement;
    #: every aggregate below reads from here, whether or not ``records``
    #: were kept.  Percentiles are exact while records are kept, and under
    #: ``stream_stats`` exact up to the accumulator's threshold and
    #: reservoir estimates beyond it.
    stats: ServingStats = field(default_factory=ServingStats)

    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        return self.stats.num_requests

    @property
    def num_completed(self) -> int:
        return self.stats.num_completed

    @property
    def num_failed(self) -> int:
        return self.stats.num_failed

    @property
    def num_rejected(self) -> int:
        """Requests shed at arrival by SLO admission control."""
        return self.stats.num_rejected

    @property
    def num_retried(self) -> int:
        """Requests that consumed at least one failover retry."""
        return self.stats.num_retried

    @property
    def availability(self) -> float:
        """Fraction of *admitted* requests that completed (1.0 when empty).

        Deliberately shed requests are an overload-policy outcome, not an
        availability incident, so they leave the denominator.
        """
        admitted = self.num_requests - self.num_rejected
        if admitted <= 0:
            return 1.0
        return self.num_completed / admitted

    @property
    def latencies_s(self) -> List[float]:
        """Latencies of *completed* requests (failures have no latency), in
        completion order.

        This is the accumulator's retained sample: every completion while
        records are kept; under ``stream_stats`` the full stream up to the
        exact threshold and a seeded reservoir beyond it.
        """
        return self.stats.percentiles.sample

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated wall-clock."""
        if self.makespan_s <= 0:
            return 0.0
        return self.num_completed / self.makespan_s

    @property
    def num_met_slo(self) -> int:
        """Requests that completed within their SLO (best-effort = served)."""
        return self.stats.num_met_slo

    @property
    def goodput_rps(self) -> float:
        """SLO-meeting completions per second — the metric overload is
        judged on: shed and late requests contribute nothing."""
        if self.makespan_s <= 0:
            return 0.0
        return self.num_met_slo / self.makespan_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests that completed within their SLO.

        Shed requests count against attainment — admission control only pays
        off when the capacity it frees lets the survivors meet theirs.
        """
        if self.num_requests == 0:
            return 1.0
        return self.num_met_slo / self.num_requests

    def class_percentiles(
        self, quantiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Dict[int, Dict[str, float]]:
        """Latency percentiles per priority class (completed requests)."""
        return {
            cls: estimator.percentiles(quantiles)
            for cls, estimator in sorted(self.stats.by_class.items())
        }

    @property
    def weight_cache_hit_rate(self) -> float:
        """Fraction of weight-cache lookups that found the model resident
        (1.0 when the run never consulted a cache)."""
        lookups = self.weight_cache_hits + self.weight_cache_misses
        if lookups == 0:
            return 1.0
        return self.weight_cache_hits / lookups

    def model_percentiles(
        self, quantiles: Tuple[float, ...] = (50.0, 99.0)
    ) -> Dict[str, Dict[str, float]]:
        """Latency percentiles per model (completed requests)."""
        return {
            model: estimator.percentiles(quantiles)
            for model, estimator in sorted(self.stats.by_model.items())
        }

    @property
    def mean_batch_occupancy(self) -> float:
        """Average dispatch size (1.0 under FIFO/EDF; > 1 when batching bites)."""
        total = sum(self.batch_occupancy.values())
        if total == 0:
            return 0.0
        return sum(size * count for size, count in self.batch_occupancy.items()) / total

    @property
    def bytes_to_cloud(self) -> int:
        """Total backbone traffic entering the cloud across all requests."""
        return self.stats.bytes_to_cloud

    def latency_percentiles(
        self,
        quantiles: Tuple[float, ...] = (50.0, 95.0, 99.0),
        retried_only: bool = False,
        interpolation: str = "linear",
    ) -> Dict[str, float]:
        """Latency percentiles (``{"p50": ..., "p95": ..., "p99": ...}``).

        Computed over completed requests; with ``retried_only`` the sample is
        restricted to requests that survived at least one failover retry (the
        tail a fault-tolerant deployment is judged on).  An empty sample —
        an all-failed run, or no retried requests — returns zeros instead of
        raising, so degenerate reports stay well-formed.

        ``interpolation`` selects the estimator: ``"linear"`` (the default,
        matching ``numpy.percentile``) interpolates neighbouring order
        statistics; ``"nearest"`` is the classic nearest-rank percentile (an
        actually observed latency, preferred by some SLO auditors).
        """
        estimator = (
            self.stats.retried_percentiles if retried_only else self.stats.percentiles
        )
        return estimator.percentiles(quantiles, interpolation=interpolation)

    @property
    def mean_latency_s(self) -> float:
        return self.stats.latency.mean

    def mean_queueing_delay_s(self) -> Optional[float]:
        """Mean contention delay of clean completions (``None`` when no
        completed request ran without retries and with a known ideal)."""
        return self.stats.queueing.mean if self.stats.queueing.count else None

    @property
    def total_energy_j(self) -> float:
        """Total metered joules of the run (compute + radio + idle)."""
        return self.compute_energy_j + self.radio_energy_j + self.idle_energy_j

    @property
    def energy_per_request_j(self) -> float:
        """Joules per offered request (0.0 on an empty stream)."""
        if self.num_requests == 0:
            return 0.0
        return self.total_energy_j / self.num_requests

    @property
    def dollars_per_1k_requests(self) -> float:
        """Fleet dollars per thousand offered requests (0.0 when empty)."""
        if self.num_requests == 0:
            return 0.0
        return self.total_cost_usd / self.num_requests * 1000.0

    @property
    def node_hours(self) -> float:
        """Node-hours of capacity the fleet kept up over the makespan.

        Every node contributes the makespan minus its downtime — parked and
        drained time counts as down, which is exactly the capacity an elastic
        fleet saves — converted to hours.  ``scenario autoscale`` judges the
        capacity-vs-latency trade-off on this.
        """
        if self.makespan_s <= 0:
            return 0.0
        total = 0.0
        for name in self.node_busy_s:
            total += max(0.0, self.makespan_s - self.node_down_s.get(name, 0.0))
        return total / 3600.0

    def replica_utilisation(self) -> Dict[str, float]:
        """Per-replica busy fraction over each replica's *active* time.

        Downtime-weighted by construction: a replica that joined for half the
        run but stayed saturated while active reports ~100%, which is the
        number an autoscaler is tuned against.
        """
        return self.node_utilisation(downtime_weighted=True)

    def node_utilisation(self, downtime_weighted: bool = False) -> Dict[str, float]:
        """Busy fraction of every node over the workload's makespan.

        With ``downtime_weighted`` each node's denominator shrinks by the time
        it spent down, so a node that was dead half the run but saturated
        while alive reports ~100%, not ~50%.
        """
        if self.makespan_s <= 0:
            return {name: 0.0 for name in self.node_busy_s}
        result = {}
        for name, busy in self.node_busy_s.items():
            window = self.makespan_s
            if downtime_weighted:
                window = max(window - self.node_down_s.get(name, 0.0), 0.0)
            result[name] = min(1.0, busy / window) if window > 0 else 0.0
        return result

    def summary(self) -> str:
        """Multi-line human-readable serving report."""
        via = f" via {self.method}" if self.method else ""
        scheduled = f" [{self.scheduler}]" if self.scheduler != "fifo" else ""
        lines = [
            f"{self.workload_name}: {self.num_requests} requests in "
            f"{self.makespan_s:.2f} s ({self.throughput_rps:.2f} req/s){via}{scheduled}"
        ]
        if self.stats.has_slos or self.num_rejected:
            lines.append(
                f"  goodput {self.goodput_rps:.2f} req/s, "
                f"SLO attainment {self.slo_attainment:.1%}, "
                f"{self.num_rejected} shed"
            )
            per_class = self.class_percentiles()
            if len(per_class) > 1:
                lines.append(
                    "  per-class p95 "
                    + ", ".join(
                        f"class {cls} {pct['p95'] * 1e3:.1f} ms"
                        for cls, pct in per_class.items()
                    )
                )
        num_batches = len(self.batches) or sum(
            count for size, count in self.batch_occupancy.items() if size > 1
        )
        if num_batches:
            lines.append(
                f"  batching: {num_batches} batches, "
                f"mean occupancy {self.mean_batch_occupancy:.2f}, "
                f"largest {max(self.batch_occupancy)}"
            )
        if self.latencies_s:
            pct = self.latency_percentiles()
            lines.append(
                "  latency p50 {p50:.1f} ms, p95 {p95:.1f} ms, p99 {p99:.1f} ms, "
                "mean {mean:.1f} ms".format(
                    p50=pct["p50"] * 1e3,
                    p95=pct["p95"] * 1e3,
                    p99=pct["p99"] * 1e3,
                    mean=self.mean_latency_s * 1e3,
                )
            )
            queueing = self.mean_queueing_delay_s()
            if queueing is not None:
                # Clamp the float-epsilon negatives an idle stream produces.
                lines.append(f"  mean queueing delay {max(0.0, queueing) * 1e3:.1f} ms")
        per_model = self.model_percentiles()
        if len(per_model) > 1:
            lines.append(
                "  per-model "
                + ", ".join(
                    f"{model} p50 {pct['p50'] * 1e3:.1f} ms / p99 {pct['p99'] * 1e3:.1f} ms"
                    for model, pct in per_model.items()
                )
            )
        faulted = (
            self.num_failed
            or self.num_retried
            or self.failover_replans
            or any(self.node_down_s.values())
            or any(self.link_down_s.values())
        )
        if faulted:
            lines.append(
                f"  availability {self.availability:.1%} "
                f"({self.num_failed}/{self.num_requests} failed, "
                f"{self.num_retried} retried, "
                f"{self.failover_replans} failover replans)"
            )
            retried = self.latency_percentiles(retried_only=True)
            if self.num_retried and any(retried.values()):
                lines.append(
                    f"  p99 over retried requests {retried['p99'] * 1e3:.1f} ms"
                )
        utilisation = self.node_utilisation(downtime_weighted=faulted)
        if utilisation:
            busiest = sorted(utilisation.items(), key=lambda kv: kv[1], reverse=True)
            lines.append(
                "  utilisation " + ", ".join(f"{name} {value:.0%}" for name, value in busiest)
            )
        if self.scale_up_events or self.scale_down_events:
            lines.append(
                f"  elasticity: {self.scale_up_events} scale-up(s), "
                f"{self.scale_down_events} scale-down(s), "
                f"fleet {self.node_hours:.4f} node-hours"
            )
        if self.cold_starts or self.weight_cache_misses:
            lines.append(
                f"  memory: {self.cold_starts} cold start(s) "
                f"({self.cold_start_s * 1e3:.1f} ms loading), "
                f"hit rate {self.weight_cache_hit_rate:.1%}, "
                f"{self.weight_evictions} eviction(s), "
                f"peak resident {self.peak_resident_bytes / 1e6:.1f} MB"
            )
        if self.calibration_updates or self.proactive_repartitions:
            lines.append(
                f"  calibration: {self.calibration_updates} estimate update(s), "
                f"{self.proactive_repartitions} proactive / "
                f"{self.reactive_repartitions} reactive repartition(s), "
                f"{self.forecast_mispredicts} mispredict(s)"
            )
        if self.economics_enabled:
            lines.append(
                f"  economics: {self.energy_per_request_j:.3f} J/request "
                f"(compute {self.compute_energy_j:.1f} J, "
                f"radio {self.radio_energy_j:.1f} J, "
                f"idle {self.idle_energy_j:.1f} J), "
                f"${self.dollars_per_1k_requests:.4f}/1k requests"
            )
        lines.append(f"  backbone to cloud {self.bytes_to_cloud * 8.0 / 1e6:.3f} Mb")
        lines.append(
            f"  plans computed {self.plans_computed} "
            f"(cache hits {self.cache_hits}, misses {self.cache_misses}, "
            f"repartitions {self.repartitions}, "
            f"invalidations {self.cache_invalidations})"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Internal simulation state
# --------------------------------------------------------------------------- #
#: Sentinel distinguishing "absent from the live set" from the stored ``None``.
_MISSING = object()


class _NoNodeAvailable(RuntimeError):
    """A request needs a tier of which no node is currently up."""


class _CompiledUnit:
    """The request-independent shape of one schedulable stage.

    Everything about a stage that is a pure function of ``(graph, plan,
    profile, vsm_plan, source node, set of live nodes)`` is computed once and
    shared by every request of the stream that carries the same plan objects:
    the member vertices, topological rank, executing nodes, per-task solo
    durations and labels, the cross-unit out-edges, and the per-node cost
    vector the admission predictor reads.  The per-request :class:`_Unit`
    copies the shared references and adds only the mutable countdown state.
    """

    __slots__ = (
        "pos",
        "tier",
        "tier_value",
        "vertices",
        "run",
        "topo_key",
        "waiting",
        "exec_nodes",
        "home_node",
        "tasks",
        "group_tasks",
        "group_cache",
        "node_costs",
        "out_edges",
        "gather_label",
        "task_nodes",
        "chain",
    )

    def __init__(self, tier: Tier, vertices: List[Vertex], run: Optional[FusedRunPlan]) -> None:
        self.pos = 0  # position in the compiled unit list
        self.tier = tier
        #: ``tier.value``, the form timeline rows store.
        self.tier_value = tier.value
        self.vertices = vertices
        self.run = run
        self.topo_key = 0
        self.waiting = 0
        self.exec_nodes: List[ComputeNode] = []
        self.home_node: Optional[ComputeNode] = None
        #: ``[(node, solo duration, label, node state)]`` — one entry per
        #: compute task, carrying the engine's per-node queue directly so
        #: enqueueing skips the name lookup.
        self.tasks: List[Tuple[ComputeNode, float, str, "_NodeState"]] = []
        #: Group-bound stages only: ``[(raw profile duration, label)]`` —
        #: the member (and its speed factor) is chosen per request by the
        #: balancer, so pricing happens at resolution time.  ``None`` for
        #: statically bound units.
        self.group_tasks: Optional[List[Tuple[float, str]]] = None
        #: Per-member priced task lists for group-bound stages, keyed by
        #: member name — the ``group_tasks`` arithmetic is a pure function of
        #: the member, so each member is priced once per compiled plan and
        #: every request resolving to it shares the list (the same sharing
        #: contract as ``tasks``).
        self.group_cache: Optional[Dict[str, List]] = None
        #: ``[(node name, solo seconds)]`` for the admission predictor.
        self.node_costs: List[Tuple[str, float]] = []
        #: Memory-constrained runs only: the task node names of a statically
        #: bound unit, filled lazily on its first residency scan.  ``tasks``
        #: is shared by every request carrying this plan, so once a request
        #: has pinned a superset of these names the whole scan is one frozen
        #: set comparison.  Stays ``None`` for group-bound stages (their
        #: member — and so their node — is chosen per request).
        self.task_nodes: Optional[FrozenSet[str]] = None
        #: Cross-unit data dependencies, in delivery order: ``[(producer
        #: vertex, consumer vertex, consumer unit position, same-node?)]``.
        #: Same-node edges are free (the paper's intra-tier assumption) and
        #: the flag is a compile-time constant, so completion delivers them
        #: without touching the transfer machinery.
        self.out_edges: List[Tuple[Vertex, Vertex, int, bool]] = []
        self.gather_label: Optional[str] = None
        #: A *chain link*: this statically bound solo stage's one out-edge is
        #: the only input of a single-task solo stage on the same node, so
        #: completing it starts the successor on the node it just freed.
        #: The direct completion handler runs the successor's end ahead
        #: while no other event comes first.
        self.chain = False


class _CompiledPlan:
    """Shared stage structure of one ``(plan objects, source, live nodes)``."""

    __slots__ = (
        "units",
        "touched_links",
        "touched_nodes",
        "refs",
        "node_entry_bytes",
        "node_weight_bytes",
        "group_entry_bytes",
        "group_weight_bytes",
    )

    def __init__(self, units: List[_CompiledUnit]) -> None:
        self.units = units
        #: ``(route revision, wires)`` the plan's cross-unit edges traverse,
        #: memoized for the admission predictor while routes stay unchanged.
        self.touched_links: Optional[Tuple[int, List[SharedLink]]] = None
        #: Names of every node the plan executes on (admission predictor).
        self.touched_nodes: FrozenSet[str] = frozenset()
        #: Strong references to the objects whose ids key this compilation,
        #: pinning them so a recycled id can never alias a different plan.
        self.refs: Tuple = ()
        #: Memory-constrained runs only: per node, the bytes the model must
        #: keep resident there (stage weights + peak activation working set)
        #: and the weight bytes a cold start moves; group-bound stages are
        #: attributed at resolution time via the ``group_*`` totals.
        self.node_entry_bytes: Optional[Dict[str, int]] = None
        self.node_weight_bytes: Optional[Dict[str, int]] = None
        self.group_entry_bytes = 0
        self.group_weight_bytes = 0


class _Unit:
    """One schedulable stage of a request: a vertex or a whole fused run.

    Instantiated from a :class:`_CompiledUnit` — the immutable structure
    (vertices, nodes, durations, edges) is shared across requests; only the
    dependency/task countdowns and the completion flag live per request.
    """

    __slots__ = (
        "state",
        "compiled",
        "tier",
        "waiting",
        "remaining_tasks",
        "topo_key",
        "home_node",
        "completed",
        "tasks",
        "out_edges",
    )

    def __init__(self, state: "_RequestState", compiled: _CompiledUnit) -> None:
        # Only what the per-task hot paths touch is copied into slots; the
        # cold structure (vertices, fused-run plan, executor lists, admission
        # costs, gather label) stays behind ``compiled`` and is reached via
        # the properties below — a request allocates 10 slot writes per unit
        # instead of 14, and this constructor runs once per unit per request.
        self.state = state
        self.compiled = compiled
        self.tier = compiled.tier
        self.topo_key = compiled.topo_key
        #: The node cross-unit transfers address (the gather node for fused
        #: runs, the executing node otherwise).
        self.home_node = compiled.home_node
        self.tasks = compiled.tasks
        self.out_edges = compiled.out_edges
        self.waiting = compiled.waiting  # incoming cross-unit edges not yet arrived
        self.remaining_tasks = 0  # tasks in flight once started; -1 once discarded
        self.completed = False

    @property
    def vertices(self) -> List[Vertex]:
        return self.compiled.vertices

    @property
    def run(self) -> Optional[FusedRunPlan]:
        return self.compiled.run

    @property
    def exec_nodes(self) -> List[ComputeNode]:
        """Nodes this unit's tasks run on, resolved against the nodes that
        were *up* when the attempt was compiled (one entry per tile stack
        for fused runs, a single entry otherwise).  Snapshotting at build
        time keeps the schedule deterministic and lets the engine detect
        which requests a dying node takes down."""
        return self.compiled.exec_nodes

    @property
    def node_costs(self) -> List[Tuple[str, float]]:
        """``[(node name, solo seconds)]`` — the admission predictor's view."""
        return self.compiled.node_costs

    @property
    def gather_label(self) -> Optional[str]:
        return self.compiled.gather_label

    def touches(self, node_name: str) -> bool:
        """True when any of this unit's work is bound to ``node_name``."""
        if self.home_node is not None and self.home_node.name == node_name:
            return True
        if self.compiled.group_tasks is not None:
            # Unresolved group-bound stage: it is bound to the member its
            # request's earlier stages already stuck to (if any).
            chosen = self.state.group_node_state
            return chosen is not None and chosen.node.name == node_name
        return any(node.name == node_name for node in self.compiled.exec_nodes)


class _RequestState:
    """Everything the engine tracks for one in-flight request."""

    __slots__ = (
        "request",
        "slot",
        "unit_list",
        "remaining_units",
        "completion_s",
        "source_node",
        "epoch",
        "retries",
        "failed",
        "retry_pending",
        "rejected",
        "no_batch",
        "done",
        "bytes_to_cloud",
        "compiled",
        "group_node_state",
        "group_rev",
        "memory_ready",
        "memory_waiting",
    )

    def __init__(self, request: ServingRequest, source_node: ComputeNode, slot: int) -> None:
        self.request = request
        #: Arrival position in the run: keys the request's rows in the run's
        #: :class:`~repro.runtime.record_log.RecordLog`.
        self.slot = slot
        self.unit_list: List[_Unit] = []
        self.remaining_units = 0
        self.completion_s = 0.0
        #: Device node all device-tier work of this request runs on.
        self.source_node = source_node
        #: Attempt counter: bumped on every abort, so stale task/transfer
        #: events from a discarded attempt are ignored when they fire.
        self.epoch = 0
        self.retries = 0
        self.failed = False
        self.retry_pending = False
        #: Shed at arrival by admission control (terminal, never started).
        self.rejected = False
        #: Set when a batch died with its node: every retried attempt of this
        #: request dispatches unbatched from then on.
        self.no_batch = False
        #: Set the moment the last unit completes (cheaper to test than the
        #: unit-list scan, and it survives retirement releasing the unit
        #: structures).
        self.done = False
        #: Backbone bytes this request shipped into the cloud, across all of
        #: its attempts.
        self.bytes_to_cloud = 0
        #: The shared :class:`_CompiledPlan` of the current attempt.
        self.compiled: Optional[_CompiledPlan] = None
        #: The replica the balancer stuck this request's group-bound stages
        #: to (a :class:`_NodeState`); ``None`` until the first group stage
        #: resolves, and reset per failover attempt.
        self.group_node_state: Optional["_NodeState"] = None
        #: Fleet-membership revision the sticky choice was made (or last
        #: re-verified) under; while the engine's revision matches, the
        #: member provably never went down, so resolution skips the
        #: liveness check.
        self.group_rev = 0
        #: Memory-constrained runs only: node names on which this request has
        #: verified (hit or finished loading) its model.  The residency check
        #: short-circuits to a set probe on every later dispatch touching the
        #: node — and the set doubles as the request's *pin claim*: while the
        #: request is live, :meth:`ServingSimulator._sync_pins` counts its
        #: model as unevictable on every node named here, so the warm path
        #: never touches the cache's pin table.  Reset when the attempt is
        #: aborted (the claims are void) and when the request retires.
        self.memory_ready: Optional[set] = None
        #: Node names whose load this request started or joined and which has
        #: not been verified yet; in-flight loads are claimed for pinning via
        #: the engine's loading table, keyed by ``(node, model)``.
        self.memory_waiting: Optional[set] = None

    @property
    def terminal(self) -> bool:
        """True once the request completed, failed or was shed."""
        return (
            self.done
            or self.failed
            or self.rejected
            or (bool(self.unit_list) and self.remaining_units == 0)
        )


class _Task:
    """One reservation-sized piece of work bound for a specific node.

    A plain ``__slots__`` class (not a dataclass): tasks are the engine's
    most-allocated object and identity hashing is exactly what the batching
    scheduler's tombstone set needs.
    """

    __slots__ = ("unit", "node", "duration_s", "label", "epoch", "enqueued_s")

    def __init__(
        self,
        unit: _Unit,
        node: ComputeNode,
        duration_s: float,
        label: str,
        epoch: int = 0,
        enqueued_s: float = 0.0,
    ) -> None:
        self.unit = unit
        self.node = node
        self.duration_s = duration_s
        self.label = label
        #: The owning request's attempt the task belongs to; a mismatch at
        #: dispatch/completion time means the attempt was aborted.
        self.epoch = epoch
        #: When the task entered its node's ready-queue; the batching
        #: scheduler's ``max_wait`` hold is anchored at the oldest member.
        self.enqueued_s = enqueued_s


@dataclass
class _Inflight:
    """One transfer currently on the wires, tracked for fault handling."""

    end_s: float
    link_ids: FrozenSet[str]
    src: str
    dst: str
    state: "_RequestState"
    epoch: int
    #: Per-hop ``(link, start, end, payload)`` reservations, kept so an abort
    #: can release wire time the bytes never actually used.
    hops: List[Tuple[SharedLink, float, float, int]]


class _NodeState:
    """Ready-queue (ordered by the scheduler's key) and busy flag of one node."""

    __slots__ = (
        "node",
        "queue",
        "busy",
        "run_id",
        "current",
        "flush_at",
        "dirty",
        "tombstones",
    )

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.queue: List[Tuple[Tuple, _Task]] = []
        self.busy = False
        #: Tasks lazily deleted from ``queue`` (the batching scheduler pulls
        #: batch members from the middle of the heap).  Tombstoned entries
        #: are purged when they surface at the root instead of rebuilding
        #: the heap on every flush.  Holds the task objects themselves so a
        #: recycled ``id()`` can never resurrect a tombstone.
        self.tombstones: set = set()
        #: Deadline of the pending flush event during a batching hold;
        #: ``None`` when no flush is outstanding (deduplicates the events a
        #: busy hold window would otherwise pile up).
        self.flush_at: Optional[float] = None
        #: Set when an abort/failure may have left stale tasks in the queue;
        #: cleared by the next prune.  Keeps the fault-free fast path free of
        #: per-dispatch validation scans.
        self.dirty = False
        #: Monotone id of the dispatch occupying the node; a ``task_end``
        #: event carrying a stale id was cancelled by a node failure.
        self.run_id = 0
        #: ``(members, end_s)`` of the running dispatch, where ``members`` is
        #: one ``(task, record log, event position)`` per batch member, kept
        #: so a node death can truncate every member's timeline row.
        self.current: Optional[
            Tuple[List[Tuple[_Task, Optional[RecordLog], int]], float]
        ] = None


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class ServingSimulator:
    """Simulate a stream of partitioned inferences on a shared cluster.

    Parameters
    ----------
    cluster:
        The deployment all requests run on.  Its node, link and failure state
        is reset at the start of every :meth:`run`.
    link_contention:
        ``"fifo"`` serializes concurrent transfers on each inter-tier link
        (the serving default); ``"none"`` gives links infinite capacity,
        reproducing the one-shot semantics of the original executor.
    faults:
        Optional :class:`~repro.network.faults.FaultSchedule` consumed as
        first-class simulation events.  ``None`` (or an empty schedule) is
        bit-identical to the fault-free engine.
    max_retries:
        Failover budget per request: how many aborted attempts may be retried
        before the request is recorded as failed.
    replan:
        Optional failover replanning callback ``(request, now_s, down_nodes,
        down_links) -> ServingRequest | None`` invoked on every retry;
        :meth:`repro.core.d3.D3System.serve` wires the plan cache in here.
        Without it, retries re-resolve the existing plan onto surviving
        nodes.
    scheduler:
        Dispatch policy: a :class:`~repro.runtime.scheduler.Scheduler`
        instance, a registry name (``"fifo"``, ``"batch"``, ``"edf"``) or
        ``None`` for the default FIFO, which is bit-identical to the
        pre-scheduler engine.
    elasticity:
        Optional :class:`~repro.runtime.elasticity.ElasticitySchedule` of
        declarative NodeJoin/NodeDrain events.  Targets whose first event is
        a join start *parked* (down, unpaid); a drain stops new admissions,
        finishes in-flight work and takes the node down gracefully — never
        aborting a request.  ``None`` (or an empty schedule) is bit-identical
        to the static-fleet engine.
    autoscaler:
        Optional :class:`~repro.runtime.elasticity.Autoscaler` (or policy
        name) ticked on its interval with the edge replica group's mean
        utilisation / queue depth; its join/drain decisions flow through the
        same machinery as declarative elasticity events.
    balancer:
        Optional :class:`~repro.runtime.elasticity.LoadBalancer` (or name:
        ``"rr"``, ``"jsq"``, ``"p2c"``).  When given — or whenever
        elasticity/autoscaling is active — solo edge-tier stages bind to the
        edge *replica group* instead of the primary edge node, and the
        balancer resolves each request's work to a member at dispatch time
        (sticky per request, so intra-request edges stay node-local).
    memory:
        Optional :class:`~repro.runtime.artifacts.MemoryModel`.  When given,
        every compute node gets a byte-budgeted
        :class:`~repro.runtime.artifacts.WeightCache` and the first task of
        a non-resident model on a node waits on a first-class **cold-start
        event**: the compressed artifact crosses the declared wires from the
        cloud store, then decompresses, before dispatch.  Models with
        in-flight tasks are pinned against eviction.  ``None`` is
        bit-identical to the unconstrained engine (the golden traces pin
        this).
    stream_stats:
        Benchmark mode for huge workloads: per-request timelines,
        :class:`RequestRecord` objects and the micro-batch log are not
        kept, so :meth:`run` returns an empty list.  Aggregates do not
        depend on it: every run streams them into one
        :class:`~repro.runtime.accumulators.ServingStats` as requests
        retire, and every report number reads it.  The one
        difference is percentile exactness: exact while records are kept;
        exact up to
        :data:`~repro.runtime.accumulators.DEFAULT_EXACT_THRESHOLD` samples
        and reservoir estimates beyond under ``stream_stats``.  Off by
        default: the golden traces pin the records and their timelines
        bit-exactly.
    """

    def __init__(
        self,
        cluster: Cluster,
        link_contention: str = "fifo",
        faults: Optional[FaultSchedule] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        replan: Optional[ReplanCallback] = None,
        scheduler: "Scheduler | str | None" = None,
        stream_stats: bool = False,
        elasticity: Optional[ElasticitySchedule] = None,
        autoscaler: "Autoscaler | str | None" = None,
        balancer: "LoadBalancer | str | None" = None,
        memory: Optional[MemoryModel] = None,
        calibration: Optional[OnlineCostCalibrator] = None,
        economics: bool = False,
    ) -> None:
        if link_contention not in LINK_CONTENTION_MODES:
            raise ValueError(
                f"unknown link contention mode {link_contention!r}; "
                f"expected one of {LINK_CONTENTION_MODES}"
            )
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if elasticity is not None and not isinstance(elasticity, ElasticitySchedule):
            raise ValueError(
                f"elasticity must be an ElasticitySchedule, "
                f"got {type(elasticity).__name__}"
            )
        if memory is not None and not isinstance(memory, MemoryModel):
            raise ValueError(
                f"memory must be a MemoryModel, got {type(memory).__name__}"
            )
        if calibration is not None and not isinstance(calibration, OnlineCostCalibrator):
            raise ValueError(
                f"calibration must be an OnlineCostCalibrator, "
                f"got {type(calibration).__name__}"
            )
        self.memory = memory
        self.calibration = calibration
        #: Opt-in energy/dollar metering.  Deliberately NOT consulted on the
        #: hot path: the accounting derives entirely from integrals the engine
        #: maintains anyway (busy seconds, bytes carried, downtime windows),
        #: so enabling it only adds a per-node sweep at report-build time.
        self.economics = bool(economics)
        self.cluster = cluster
        self.link_contention = link_contention
        self.faults = faults
        self.max_retries = max_retries
        self._replan = replan
        self.scheduler = resolve_scheduler(scheduler)
        self.stream_stats = stream_stats
        # An empty schedule is normalized away so every elastic code path is
        # provably dead on static runs (the golden traces pin this).
        self.elasticity = elasticity if elasticity else None
        self.autoscaler = resolve_autoscaler(autoscaler)
        elastic = self.elasticity is not None or self.autoscaler is not None
        self.balancer: Optional[LoadBalancer] = (
            resolve_balancer(balancer) if (balancer is not None or elastic) else None
        )
        self._reset_run()

    def _reset_run(self) -> None:
        """Fresh per-run state: called at construction and by every
        :meth:`run` (the cluster itself is reset by :meth:`run` only)."""
        self.failover_replans = 0
        #: Events popped off the queue by the last :meth:`run` (d3bench's
        #: ``serving.events`` metric).
        self.events_processed = 0
        #: Dispatch-size histogram and multi-member batch log of the last run.
        self.batch_occupancy: Dict[int, int] = {}
        self.batches: List[BatchRecord] = []
        self._events: List[Tuple[float, int, str, object]] = []
        #: One-slot buffer in front of ``_events``: the queue bypass parks
        #: its ``task_end1`` here, and :meth:`run` pops the smaller of the
        #: slot and the heap root.  Ties cannot occur (sequence numbers are
        #: unique), so the pop order is exactly the heap's.
        self._slot: Optional[Tuple[float, int, str, object]] = None
        #: Chain-stage ends handled inline by run-ahead (they count in
        #: ``events_processed``).  ``_run_ahead`` lets :meth:`_compile_plan`
        #: mark chain links; the tests switch it off to diff against.
        self._ran_ahead = 0
        self._run_ahead = True
        self._sequence = itertools.count()
        self._nodes: Dict[str, _NodeState] = {
            node.name: _NodeState(node) for node in self.cluster.all_nodes
        }
        #: Non-terminal requests in arrival order — what the admission
        #: predictor and fault sweeps iterate instead of every request the
        #: run has ever seen.
        self._live: Dict[_RequestState, None] = {}
        #: Requests that have not reached a terminal state yet.
        self._open = 0
        #: The run's timelines and outcomes; ``None`` under ``stream_stats``.
        #: Always a fresh log, so records an earlier run returned survive.
        self._log: Optional[RecordLog] = None if self.stream_stats else RecordLog()
        #: Arrivals so far: the next request's slot in the log.
        self._arrived = 0
        #: The run's aggregates, fed by :meth:`_retire`.  Percentiles stay
        #: exact while records are kept (they already cost O(requests)).
        self._stats = ServingStats(
            DEFAULT_EXACT_THRESHOLD if self.stream_stats else math.inf
        )
        #: Compiled stage templates keyed by the identities of the plan
        #: objects (plus source and the live-node signature); all requests
        #: of a stream share the plan-cache objects, so compilation is paid
        #: once per distinct plan instead of once per request.
        self._compiled: Dict[Tuple, _CompiledPlan] = {}
        #: Transfers currently on the wires, used to abort requests whose
        #: bytes a failure caught in flight (and to release their unused
        #: reservations).  Only populated when a fault schedule is active.
        self._inflight: List[_Inflight] = []
        self._node_down_intervals: Dict[str, List[List[Optional[float]]]] = {}
        self._link_down_intervals: Dict[str, List[List[Optional[float]]]] = {}
        self._default_source: Optional[ComputeNode] = None
        #: Names of nodes currently draining (up, but admitting no new work).
        self._draining: set = set()
        #: Names of nodes down because of *membership* (parked before their
        #: join, or drained out) rather than a crash — requests pinned to one
        #: of these re-resolve instead of failing as "client offline".
        self._elastic_down: set = set()
        #: Joins whose provisioning delay has not elapsed yet.
        self._provisioning: set = set()
        #: The autoscaler's replica group (edge nodes, declaration order).
        self._group_names: List[str] = []
        #: Per-node busy-seconds snapshot at the last autoscale tick.
        self._util_prev: Dict[str, float] = {}
        # Fleet-membership caches: everything below is a pure function of
        # (down nodes, draining nodes) and membership changes are rare (a
        # handful per run) while the consumers run per request — so each is
        # rebuilt lazily and invalidated by ``_membership_changed``.
        self._membership_rev = 0
        #: Bumped on every membership change and link fault: keys the route
        #: memo of the run's compiled plans (which never outlive the run).
        self._route_rev = 0
        self._membership_key = None
        self._members_cache = None
        self._scale_up_count = 0
        self._scale_down_count = 0
        self._pending_arrivals = 0
        #: Admission control only: per node, the unfinished solo seconds of
        #: every started attempt (released as units complete or attempts die).
        self._backlog = {} if self.scheduler.admission_control else None
        # Fast-path predicates, resolved once per run: with no fault or
        # elasticity schedule nodes can never go down (``reset`` heals
        # everything), a scheduler that keeps the base queue key lets enqueue
        # build keys inline, and the plain pop-the-root policies (FIFO/EDF)
        # dispatch without the select() indirection or flush bookkeeping.
        self._downable = bool(self.faults) or (
            self.elasticity is not None or self.autoscaler is not None
        )
        #: Alias of the cluster's live down-node name set (mutated in place
        #: by fail/recover): hot-path liveness tests reduce to a membership
        #: test that short-circuits on the empty set — no method call, and
        #: on runs where nothing is currently down, no hash either.
        self._down_live: set = self.cluster.down_nodes_live
        self._grouped = self.balancer is not None
        scheduler_type = type(self.scheduler)
        self._base_key = scheduler_type.queue_key is Scheduler.queue_key
        self._pop_select = scheduler_type.select in (
            FifoScheduler.select,
            DeadlineScheduler.select,
        )
        #: Memory-constrained-serving state: per-node weight caches, in-flight
        #: loads (``(node name, model) -> [(state, unit, epoch)]`` waiter
        #: lists), the cloud artifact-store node, and the run's counters.
        #: All provably dead when ``_memory_on`` is false.
        self._memory_on = self.memory is not None
        self._caches: Dict[str, WeightCache] = {}
        self._loading: Dict[Tuple[str, str], list] = {}
        self._store_node: Optional[ComputeNode] = None
        self._cold_starts = 0
        self._cold_start_s = 0.0
        #: Online-calibration predicate: every observation hook below is a
        #: single boolean test when no calibrator rides along, so the
        #: calibration-off hot path stays bit-identical (goldens pin it).
        #: The sampling gates are cached so the per-event admission check is
        #: inlined integer arithmetic, not a method call.
        self._calibrate = self.calibration is not None
        if self._calibrate:
            self._cal_task_gate = self.calibration.task_gate
            self._cal_flow_gate = self.calibration.flow_gate
            self._cal_request_gate = self.calibration.request_gate

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, requests: List[ServingRequest]) -> Sequence[RequestRecord]:
        """Simulate all ``requests``; returns one record per request.

        Records come back in request-index order.  Event/transfer timestamps
        in the per-request reports are absolute simulation times; each
        report's ``end_to_end_latency_s`` is relative to its request's
        arrival.  The returned sequence is the run's
        :class:`~repro.runtime.record_log.RecordLog`: ``len()`` builds
        nothing, the first item access builds every record once, and each
        report builds its ``events``/``transfers`` objects on first read.

        Under ``stream_stats`` no records are kept and the returned list is
        empty; :meth:`build_report` reads the run's aggregates either way.
        """
        self.cluster.reset()
        self._reset_run()

        # Fault events enter the queue first, so at equal timestamps a fault
        # precedes every arrival/task/transfer event: a node dying the instant
        # a task would finish kills the task (completion was never confirmed),
        # and a request arriving the instant a node dies sees it dead.
        if self.faults:
            self.faults.validate_against(self.cluster.topology)
            for fault in self.faults:
                self._push(fault.time_s, "fault", fault)

        if self._grouped:
            self.balancer.reset()
        if self.elasticity is not None:
            # Membership events share the faults' equal-timestamp convention:
            # entering the queue before arrivals, a join/drain effective the
            # instant a request arrives is already applied when it arrives.
            self.elasticity.validate_against(self.cluster.topology)
            for name in sorted(self.elasticity.initially_parked()):
                self._park(name)
            for event in self.elasticity:
                self._push(event.time_s, "elastic", event)
        if self.autoscaler is not None:
            self._setup_autoscaler()

        # Only the next arrival sits on the heap.  Each arrival still gets
        # the sequence number it would get if all were pushed here (one
        # number per arrival is reserved after the setup events above), so
        # ties at equal timestamps pop in exactly the same order.
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.index))
        self._pending_arrivals = len(ordered)
        first_number = next(self._sequence)
        arrival_numbers = iter(range(first_number, first_number + len(ordered)))
        self._sequence = itertools.count(first_number + len(ordered))
        arrivals = iter(ordered)
        events = self._events
        push = heapq.heappush
        following = next(arrivals, None)
        if following is not None:
            push(events, (following.arrival_s, next(arrival_numbers), "arrival", following))

        # Hot loop: bind everything referenced per event to locals and test
        # event kinds by descending frequency (task ends and transfer ends
        # dominate any serving run by an order of magnitude).
        pop = heapq.heappop
        replace = heapq.heapreplace
        handle_task_end = self._handle_task_end
        handle_task_end_direct = self._handle_task_end_direct
        handle_transfer_end = self._handle_transfer_end
        handle_arrival = self._handle_arrival
        processed = 0
        while True:
            slot = self._slot
            if slot is not None:
                self._slot = None
                if events and events[0] < slot:
                    time_s, _, kind, payload = replace(events, slot)
                else:
                    time_s, _, kind, payload = slot
            elif events:
                time_s, _, kind, payload = pop(events)
            else:
                break
            processed += 1
            if kind == "task_end1":
                handle_task_end_direct(time_s, payload)  # type: ignore[arg-type]
            elif kind == "task_end":
                handle_task_end(time_s, payload)  # type: ignore[arg-type]
            elif kind == "transfer_end":
                handle_transfer_end(time_s, payload)  # type: ignore[arg-type]
            elif kind == "arrival":
                following = next(arrivals, None)
                if following is not None:
                    push(
                        events,
                        (following.arrival_s, next(arrival_numbers), "arrival", following),
                    )
                handle_arrival(time_s, payload)  # type: ignore[arg-type]
            elif kind == "fault":
                self._handle_fault(time_s, payload)  # type: ignore[arg-type]
            elif kind == "retry":
                self._handle_retry(time_s, payload)  # type: ignore[arg-type]
            elif kind == "coldstart":
                self._handle_cold_start(time_s, payload)  # type: ignore[arg-type]
            elif kind == "flush":
                # A batching hold expired: re-ask the scheduler (no-op when
                # the node went busy or the held work already dispatched).
                node_state = payload  # type: _NodeState
                if node_state.flush_at is not None and node_state.flush_at <= time_s + 1e-12:
                    node_state.flush_at = None
                self._dispatch(node_state, time_s)
            elif kind == "elastic":
                self._handle_elastic(time_s, payload)  # type: ignore[arg-type]
            elif kind == "provisioned":
                self._handle_provisioned(time_s, payload)  # type: ignore[arg-type]
            elif kind == "autoscale":
                self._handle_autoscale_tick(time_s)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
        self.events_processed = processed + self._ran_ahead

        if self._open:
            raise RuntimeError(
                f"{self._open} requests finished the event loop with "
                f"unexecuted stages (dependency deadlock)"
            )
        return [] if self._log is None else self._log

    def build_report(
        self, workload_name: str, records: Sequence[RequestRecord]
    ) -> ServingReport:
        """The last run's aggregates plus the cluster's utilisation
        bookkeeping; ``records`` (empty under ``stream_stats``) ride along."""
        start, end = self._stats.makespan_window
        makespan = end - start
        node_down = _clip_downtime(self._node_down_intervals, start, end)
        link_down = _clip_downtime(self._link_down_intervals, start, end)
        compute_j = radio_j = idle_j = cost_usd = 0.0
        if self.economics:
            compute_j, radio_j, idle_j, cost_usd = self._economics_totals(
                makespan, node_down
            )
        return ServingReport(
            workload_name=workload_name,
            records=records,
            makespan_s=makespan,
            node_busy_s={node.name: node.busy_seconds for node in self.cluster.all_nodes},
            link_busy_s={
                # Key by link id: two parallel wires between the same endpoints
                # are distinct links and must report separately.
                link.link_id or "-".join(link.key): link.busy_seconds
                for link in self.cluster.shared_links.values()
            },
            failover_replans=self.failover_replans,
            node_down_s=node_down,
            link_down_s=link_down,
            economics_enabled=self.economics,
            compute_energy_j=compute_j,
            radio_energy_j=radio_j,
            idle_energy_j=idle_j,
            total_cost_usd=cost_usd,
            scale_up_events=self._scale_up_count,
            scale_down_events=self._scale_down_count,
            cold_starts=self._cold_starts,
            weight_cache_hits=sum(c.hits for c in self._caches.values()),
            weight_cache_misses=sum(c.misses for c in self._caches.values()),
            weight_evictions=sum(c.evictions for c in self._caches.values()),
            peak_resident_bytes=max(
                (c.peak_resident_bytes for c in self._caches.values()), default=0
            ),
            cold_start_s=self._cold_start_s,
            scheduler=self.scheduler.name,
            batch_occupancy=dict(sorted(self.batch_occupancy.items())),
            batches=list(self.batches),
            calibration_updates=(
                self.calibration.updates if self.calibration is not None else 0
            ),
            stats=self._stats,
        )

    # ------------------------------------------------------------------ #
    # Economics accounting (report-build time only; never on the hot path)
    # ------------------------------------------------------------------ #
    def _economics_totals(
        self, makespan_s: float, node_down_s: Dict[str, float]
    ) -> Tuple[float, float, float, float]:
        """``(compute J, radio J, idle J, $)`` of the finished run.

        Everything derives from integrals the engine maintains regardless of
        metering, so the accounting is exact under faults, retries and
        elasticity by construction:

        * compute joules — each node's ``busy_seconds`` (already truncated at
          kill instants, never double-billed on retry) times its active power
          ``J/FLOP × effective GFLOP/s``;
        * radio joules — each wire's ``bytes_carried`` (reservations of
          never-started hops are unwound on abort; started wire time stays
          consumed) times the device endpoint's radio J/byte, charged only
          when exactly one endpoint is a radio-equipped device, matching the
          planner's :meth:`TierEconomics.transfer_joules`;
        * idle joules and dollars — each node's powered-on window (makespan
          minus downtime: crashes, parked-before-join and drained-out time
          draw nothing and bill nothing) times idle watts / ``price_per_s``.
        """
        compute_j = idle_j = cost_usd = 0.0
        for node in self.cluster.all_nodes:
            energy = node.hardware.energy
            up_s = max(0.0, makespan_s - node_down_s.get(node.name, 0.0))
            compute_j += node.busy_seconds * energy.active_watts(
                node.hardware.effective_gflops
            )
            idle_j += up_s * energy.idle_watts
            cost_usd += up_s * node.price_per_s
        radio_j = 0.0
        for link in self.cluster.shared_links.values():
            if not link.bytes_carried:
                continue
            src = self._device_radio(link.source)
            dst = self._device_radio(link.destination)
            if (src is None) != (dst is None):
                model = src if src is not None else dst
                radio_j += model.radio_joules(link.bytes_carried)
        return compute_j, radio_j, idle_j, cost_usd

    def _device_radio(self, endpoint: str):
        """The radio :class:`EnergyModel` of a wire endpoint, or ``None``.

        ``endpoint`` is a topology node name or a tier alias; only
        device-tier endpoints with a non-zero radio rate are metered.
        """
        try:
            node = self.cluster.node(endpoint)
        except KeyError:
            try:
                node = self.cluster.primary_node(Tier(endpoint))
            except ValueError:
                return None  # relay or other non-compute endpoint
        if node.tier != Tier.DEVICE:
            return None
        energy = node.hardware.energy
        return energy if energy.radio_joules_per_byte > 0 else None

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _push(self, time_s: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time_s, next(self._sequence), kind, payload))

    # ------------------------------------------------------------------ #
    # Request admission
    # ------------------------------------------------------------------ #
    def _handle_arrival(self, time_s: float, request: ServingRequest) -> None:
        self._pending_arrivals -= 1
        state = _RequestState(request, self._resolve_source(request), self._arrived)
        self._arrived += 1
        self._live[state] = None
        self._open += 1
        if self._downable:
            name = state.source_node.name
            if self._down_live and name in self._down_live:
                # A source down because its device drained out (or never
                # joined) re-resolves onto a live sibling — membership change
                # is not an outage.  A *crashed* source still fails: the
                # client itself is offline and there is nothing to fail over
                # to.
                fallback = self._resolve_live_source(name)
                if fallback is None:
                    self._fail(state, time_s)
                    return
                state.source_node = fallback
            elif self._draining and name in self._draining:
                # Draining sources stop admitting immediately; steering new
                # arrivals away is also what lets the drain ever finish.
                fallback = self._resolve_live_source(name)
                if fallback is not None:
                    state.source_node = fallback
        if self.scheduler.admission_control and request.slo_ms is not None:
            if not self._build(state):
                self._fail(state, time_s)
                return
            predicted = self._predicted_latency_s(state, time_s)
            if predicted > request.slo_ms / 1e3 + 1e-12:
                # Shedding at the door: serving this request would blow its
                # SLO *and* push everyone queued behind it further out.
                state.rejected = True
                state.epoch += 1
                self._retire(state, "rejected", request.arrival_s)
                return
            self._start_ready_units(state, time_s)
            return
        if not self._activate(state, time_s):
            self._fail(state, time_s)

    def _retire(self, state: _RequestState, status: str, completion_s: float) -> None:
        """Drop a request from the live set the moment it turns terminal.

        This is the one place a request is *accounted*: its aggregates
        stream into the run's accumulators, its outcome enters the run's
        record log when timelines are kept, and its stage structures are
        released (a million-request run never holds more than the in-flight
        window in memory).
        """
        if self._live.pop(state, _MISSING) is _MISSING:
            return  # already retired (idempotent by construction)
        self._open -= 1
        request = state.request
        # Queueing delay compares a clean run against its own idle baseline;
        # retried/failed requests are measured by the availability metrics.
        clean = status == "completed" and state.retries == 0
        if self._calibrate and clean:
            gate = self._cal_request_gate
            gate.tick += 1
            if not gate.tick % gate.stride:
                self.calibration.record_request(
                    request.graph.name,
                    completion_s - request.arrival_s,
                    request.ideal_latency_s or 0.0,
                )
        if state.memory_ready is not None:
            # The request left the live set, so _sync_pins will no longer
            # count its residency claims: every model it kept unevictable
            # becomes a candidate victim again.
            state.memory_ready = None
            state.memory_waiting = None
        if self._backlog is not None and status == "failed":
            # A completed request released its units one by one and a shed
            # one never committed any; a failed one still holds the rest.
            self._shift_backlog(state.unit_list, -1.0)
        if self._draining:
            # Every retirement may be the one a graceful drain was waiting
            # on: re-check each draining node for stranded references.
            self._sweep_drains(completion_s)
        ideal_latency_s = request.ideal_latency_s if clean else None
        self._stats.add(
            status=status,
            arrival_s=request.arrival_s,
            completion_s=completion_s,
            retries=state.retries,
            slo_ms=request.slo_ms,
            priority=request.priority,
            ideal_latency_s=ideal_latency_s,
            bytes_to_cloud=state.bytes_to_cloud,
            model=request.graph.name,
        )
        if self._log is not None:
            # The request's rows stay in the log: a node death after
            # retirement can still truncate an event of its discarded work.
            self._log.retire(
                state.slot,
                request.index,
                request.request_id,
                request.graph.name,
                request.arrival_s,
                completion_s,
                ideal_latency_s,
                status,
                state.retries,
                request.slo_ms,
                request.priority,
            )
        state.unit_list = []

    def _predicted_latency_s(self, state: _RequestState, time_s: float) -> float:
        """Admission predictor: idle critical path + compute and wire backlog.

        The compute backlog of a node is the *committed, unfinished* solo
        work of every live request bound to it — not just what already sits
        in its ready-queue, since a chain enqueues one stage at a time and a
        queue-depth view would miss almost all of an admitted request's
        remaining work; ``_backlog`` keeps it per node as work starts and
        finishes.  The backlog of a wire is its reservation watermark:
        store-and-forward booking pushes ``available_at`` out for every
        queued transfer, so a saturated uplink — the usual bottleneck of
        offloaded inference — is visible at the door.  Compute and wire
        backlogs are taken as one pessimistic maximum each and summed, since
        a request generally crosses its bottleneck wire *and* its bottleneck
        node in series.  Deliberately conservative: batching and parallelism
        can only beat the prediction, and under overload a conservative
        predictor sheds the borderline request that would have missed anyway.
        """
        ideal = state.request.ideal_latency_s or 0.0
        if self._calibrate:
            # Calibrated admission: scale the plan's idle-path estimate by
            # the learned achieved/planned inflation for this model, so a
            # systematically optimistic plan starts shedding earlier.
            ideal *= self.calibration.latency_factor(state.request.graph.name)
        backlog = self._backlog
        node_backlog = max([0.0] + [backlog.get(n, 0.0) for n in state.compiled.touched_nodes])
        link_backlog = 0.0
        if self.link_contention == "fifo":
            for link in self._touched_links(state):
                link_backlog = max(link_backlog, max(0.0, link.available_at - time_s))
        return ideal + node_backlog + link_backlog

    def _shift_backlog(self, units: List[_Unit], sign: float) -> None:
        """Commit (``sign`` 1.0) or release (-1.0) the solo seconds of every
        unfinished unit in ``units`` to the admission backlog."""
        backlog = self._backlog
        for unit in units:
            if not unit.completed:
                for name, duration in unit.compiled.node_costs:
                    backlog[name] = backlog.get(name, 0.0) + sign * duration

    def _touched_links(self, state: _RequestState) -> List[SharedLink]:
        """The wires the request's cross-unit edges will traverse.

        Memoized on the compiled plan, keyed by the route revision: a fault
        or membership change re-routes, so the next read recomputes against
        the live route state.
        """
        compiled = state.compiled
        memo = compiled.touched_links
        if memo is not None and memo[0] == self._route_rev:
            return memo[1]
        links: Dict[int, SharedLink] = {}
        unit_list = state.unit_list
        for unit in unit_list:
            for _, _, dst_pos, local in unit.out_edges:
                if local:
                    continue
                src, dst = unit.home_node, unit_list[dst_pos].home_node
                if src is None or dst is None:
                    continue
                try:
                    route = self.cluster.route(src.name, dst.name)
                except RouteUnavailableError:
                    continue
                for link in route:
                    links[id(link)] = link
        resolved = list(links.values())
        if not self._grouped:
            # Group-bound stages resolve their home per request, so the links
            # a *request* touches are not a property of the compiled plan.
            compiled.touched_links = (self._route_rev, resolved)
        return resolved

    def _activate(self, state: _RequestState, time_s: float) -> bool:
        """(Re)build the request's stages against the live nodes and start
        every stage with no pending inputs; False when a needed tier is
        entirely down."""
        if not self._build(state):
            return False
        self._start_ready_units(state, time_s)
        return True

    def _build(self, state: _RequestState) -> bool:
        """(Re)build the request's stages; False when a needed tier is
        entirely down.  Admission control peeks between build and start."""
        try:
            self._build_units(state)
        except _NoNodeAvailable:
            return False
        return True

    def _start_ready_units(self, state: _RequestState, time_s: float) -> None:
        if self._backlog is not None:
            self._shift_backlog(state.unit_list, 1.0)
        epoch = state.epoch
        for unit in state.unit_list:
            if unit.waiting == 0:
                self._start_unit(state, unit, time_s)
                if state.epoch != epoch or state.failed:
                    # A group-bound stage found no live replica and aborted
                    # the attempt; the remaining units belong to a discarded
                    # plan.
                    return

    def _build_units(self, state: _RequestState) -> None:
        """Instantiate the request's stages from the shared compiled plan."""
        compiled = self._compiled_for(state)
        if self._backlog is not None:
            # A failover rebuild: the discarded attempt's work is void.
            self._shift_backlog(state.unit_list, -1.0)
        state.compiled = compiled
        state.unit_list = [_Unit(state, unit) for unit in compiled.units]
        state.remaining_units = len(state.unit_list)
        if self._calibrate:
            # Task observation samples whole *requests*, not units: in a
            # discrete-event run the priced durations ARE the execution
            # times, so recording the compiled tasks here is value-identical
            # to recording them at dispatch while costing one inlined gate
            # check per request instead of one per unit (the difference is
            # most of the calibrated cell's hot-path budget).  Group-bound
            # stages have no tasks yet (their replica resolves at dispatch)
            # and simply fall out of the sample.  Estimates are keyed by
            # model: layer labels repeat across graphs (``fc1``), and a
            # shared key would swing between models and never settle.
            gate = self._cal_task_gate
            gate.tick += 1
            if not gate.tick % gate.stride:
                calibration = self.calibration
                model = state.request.graph.name
                for unit in state.unit_list:
                    tasks = unit.tasks
                    if tasks:
                        tier = unit.tier
                        calibration.record_tasks(
                            tasks, getattr(tier, "value", tier), model
                        )
        # A rebuilt attempt re-chooses its replica: the balancer's pick is
        # per attempt, and the failover may exist precisely because the old
        # member died.
        state.group_node_state = None

    def _compiled_for(self, state: _RequestState) -> _CompiledPlan:
        """The compiled stage structure for the request's current attempt.

        Keyed by the identity of the plan objects, the source node, and — on
        faulted runs only — the set of down nodes at compile time (node
        liveness can only change through fault events, so fault-free runs
        compile each distinct plan exactly once for the whole stream).
        ``refs`` pins the keyed objects so a recycled ``id()`` can never
        alias a different plan.
        """
        request = state.request
        if self._downable:
            # Membership changes (drains count: they stop admitting before
            # the node goes down) re-key compilation exactly like faults do.
            # The frozen pair is rebuilt only after a membership change —
            # per request it is a cache read.
            membership = self._membership_key
            if membership is None:
                membership = self._membership_key = (
                    frozenset(self.cluster.down_nodes),
                    frozenset(self._draining),
                )
        else:
            membership = None
        key = (
            id(request.graph),
            id(request.plan),
            id(request.profile),
            id(request.vsm_plan),
            state.source_node.name,
            membership,
        )
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compile_plan(request, state.source_node)
            compiled.refs = (
                request.graph,
                request.plan,
                request.profile,
                request.vsm_plan,
            )
            self._compiled[key] = compiled
        return compiled

    def _compile_plan(
        self, request: ServingRequest, source_node: ComputeNode
    ) -> _CompiledPlan:
        """Compile a request's plan into shared stage templates.

        Replicates — operation for operation, in the same order — what the
        engine historically recomputed per request: unit grouping and
        topological ranks, node binding against the nodes that are up *now*
        (raising :class:`_NoNodeAvailable` when a needed tier is dark),
        cross-unit dependency counts and edges, and the per-task solo
        durations and labels.  Keeping the float arithmetic identical is
        what keeps the golden traces bit-identical.
        """
        graph = request.graph
        profile = request.profile
        topo = graph.topological_order()
        topo_rank = {v.index: rank for rank, v in enumerate(topo)}

        fused_member: Dict[int, FusedRunPlan] = {}
        if request.vsm_plan is not None:
            for run in request.vsm_plan.runs:
                for vertex in run.vertices:
                    fused_member[vertex.index] = run

        units: List[_CompiledUnit] = []
        by_vertex: Dict[int, _CompiledUnit] = {}
        run_units: Dict[int, _CompiledUnit] = {}
        for vertex in topo:
            run = fused_member.get(vertex.index)
            if run is not None:
                unit = run_units.get(id(run))
                if unit is None:
                    unit = _CompiledUnit(Tier.EDGE, list(run.vertices), run)
                    unit.topo_key = topo_rank[run.vertices[0].index]
                    unit.pos = len(units)
                    run_units[id(run)] = unit
                    units.append(unit)
            else:
                tier = request.plan.tier_of(vertex.index)
                unit = _CompiledUnit(tier, [vertex], None)
                unit.topo_key = topo_rank[vertex.index]
                unit.pos = len(units)
                units.append(unit)
            by_vertex[vertex.index] = unit

        # Bind every unit to the nodes that are up now (snapshot): non-tiled
        # work on each tier's primary live node, fused runs fanned round-robin
        # over the live edge rack, device work pinned to the request's source.
        live: Dict[Tier, List[ComputeNode]] = {}

        def tier_nodes(tier: Tier) -> List[ComputeNode]:
            nodes = live.get(tier)
            if nodes is None:
                nodes = self.cluster.active_nodes(tier)
                if self._draining:
                    # Draining nodes admit no new plans; if a fault downed
                    # every non-draining sibling, binding to a draining node
                    # beats failing the request outright.
                    nodes = [n for n in nodes if n.name not in self._draining] or nodes
                if not nodes:
                    raise _NoNodeAvailable(tier.value)
                live[tier] = nodes
            return nodes

        grouped = self._grouped
        for unit in units:
            if unit.run is not None:
                edge_nodes = tier_nodes(Tier.EDGE)
                unit.exec_nodes = [
                    edge_nodes[i % len(edge_nodes)] for i in range(len(unit.run.stacks))
                ]
                unit.home_node = edge_nodes[0]
            elif unit.tier == Tier.DEVICE:
                unit.exec_nodes = [source_node]
                unit.home_node = source_node
            elif grouped and unit.tier == Tier.EDGE:
                # Group-bound: the stage targets the edge *replica group*;
                # the balancer resolves a member per request at dispatch
                # time.  Compilation only proves the tier is not dark.
                tier_nodes(Tier.EDGE)
            else:
                node = tier_nodes(unit.tier)[0]
                unit.exec_nodes = [node]
                unit.home_node = node

        # Incoming cross-unit edge counts, in the historical vertex order.
        for vertex in topo:
            unit = by_vertex[vertex.index]
            for pred in graph.predecessors(vertex.index):
                if by_vertex[pred.index] is not unit:
                    unit.waiting += 1

        # Outgoing cross-unit edges, in the historical delivery order
        # (member vertices in unit order, then graph successors).
        for unit in units:
            for vertex in unit.vertices:
                for successor in graph.successors(vertex.index):
                    successor_unit = by_vertex[successor.index]
                    if successor_unit is not unit:
                        unit.out_edges.append(
                            (
                                vertex,
                                successor,
                                successor_unit.pos,
                                unit.home_node is successor_unit.home_node,
                            )
                        )

        # Per-task solo durations and labels — the exact arithmetic (and
        # accumulation order) of the historical per-request start path.
        for unit in units:
            if unit.run is None:
                vertex = unit.vertices[0]
                if not unit.exec_nodes:
                    # Group-bound stage: store the raw profile duration; the
                    # per-request resolution divides by the chosen member's
                    # speed factor (members may be heterogeneous).
                    unit.group_tasks = [(profile.get(vertex.index, unit.tier), vertex.name)]
                    continue
                node = unit.exec_nodes[0]
                duration = profile.get(vertex.index, unit.tier)
                unit.tasks.append(
                    (node, duration / node.speed_factor, vertex.name, self._nodes[node.name])
                )
            else:
                run = unit.run
                for stack_index, stack in enumerate(run.stacks):
                    node = unit.exec_nodes[stack_index]
                    duration = 0.0
                    for position, vertex in enumerate(run.vertices):
                        fraction = stack.work_fraction(
                            position, run.layer_output_area(position)
                        )
                        duration += profile.get(vertex.index, Tier.EDGE) * fraction
                    label = (
                        f"tile{stack.grid_position}:"
                        f"{run.vertices[0].name}..{run.vertices[-1].name}"
                    )
                    unit.tasks.append(
                        (node, duration / node.speed_factor, label, self._nodes[node.name])
                    )
                unit.gather_label = f"gather:{unit.vertices[-1].name}"
            unit.node_costs = [(node.name, cost) for node, cost, _, _ in unit.tasks]

        if self._run_ahead:
            # Chain links (see ``_CompiledUnit.chain``).  Group-bound stages
            # compile without tasks and never link: their member, and so
            # their node, is chosen per request.
            for unit in units:
                if len(unit.tasks) != 1 or unit.run is not None or len(unit.out_edges) != 1:
                    continue
                _, _, dst_pos, local = unit.out_edges[0]
                successor = units[dst_pos]
                unit.chain = (
                    local
                    and successor.run is None
                    and len(successor.tasks) == 1
                    and successor.waiting == 1
                    and successor.tasks[0][3] is unit.tasks[0][3]
                )

        plan = _CompiledPlan(units)
        plan.touched_nodes = frozenset(
            node.name for unit in units for node in unit.exec_nodes
        )
        if self._memory_on:
            # Per-node residency footprint of this plan's model: the weight
            # bytes of every stage bound to the node plus the peak activation
            # working set among them.  Group-bound stages resolve their node
            # per request, so their footprint is kept aside and added to
            # whichever member the balancer sticks the request to.
            artifact = self.memory.artifact_for(graph)
            node_weight: Dict[str, int] = {}
            node_activation: Dict[str, int] = {}
            group_weight = 0
            group_activation = 0
            for unit in units:
                indices = [v.index for v in unit.vertices]
                weight = artifact.weight_bytes_for(indices)
                activation = artifact.activation_bytes_for(indices)
                if unit.group_tasks is not None:
                    group_weight += weight
                    group_activation = max(group_activation, activation)
                    continue
                seen = set()
                for node in unit.exec_nodes:
                    if node.name in seen:
                        continue  # tile fans replicate weights once per node
                    seen.add(node.name)
                    node_weight[node.name] = node_weight.get(node.name, 0) + weight
                    node_activation[node.name] = max(
                        node_activation.get(node.name, 0), activation
                    )
            plan.node_weight_bytes = node_weight
            plan.node_entry_bytes = {
                name: weight + node_activation[name]
                for name, weight in node_weight.items()
            }
            plan.group_weight_bytes = group_weight
            plan.group_entry_bytes = group_weight + group_activation
        return plan

    # ------------------------------------------------------------------ #
    # Stage execution
    # ------------------------------------------------------------------ #
    def _resolve_source(self, request: ServingRequest) -> ComputeNode:
        """The device node a request's device-tier work runs on."""
        if request.source is None:
            # The primary device is a pure topology lookup (independent of
            # liveness, which is checked separately at arrival): cache it.
            node = self._default_source
            if node is None:
                node = self._default_source = self.cluster.primary_node(Tier.DEVICE)
            return node
        node = self.cluster.node(request.source)
        if node.tier != Tier.DEVICE:
            raise ValueError(
                f"request {request.request_id!r} pins source {request.source!r}, "
                f"which is a {node.tier.value} node, not a device"
            )
        return node

    def _start_unit(self, state: _RequestState, unit: _Unit, time_s: float) -> None:
        """Enqueue the unit's compiled tasks (solo vertex or fused tile fan).

        Durations and labels were priced at compile time; starting a stage is
        just allocating one :class:`_Task` per compiled entry.
        """
        tasks = unit.tasks
        if not tasks:
            # Group-bound stage (the only units compiled without tasks):
            # resolve the replica for this request now.  Steady-state hit —
            # sticky member already chosen, membership unchanged, member
            # already priced — inlined; everything else takes the slow path.
            node_state = state.group_node_state
            if node_state is not None and state.group_rev == self._membership_rev:
                cache = unit.compiled.group_cache
                if cache is not None:
                    tasks = cache.get(node_state.node.name)
            if tasks:
                unit.tasks = tasks
                unit.home_node = node_state.node
            else:
                tasks = self._resolve_group_unit(state, unit, time_s)
                if tasks is None:
                    self._abort(state, time_s)
                    return
        if self._memory_on:
            # Residency fast path: when the request has already verified (and
            # pinned) its model on a superset of this unit's nodes, one frozen
            # set comparison replaces the whole per-task scan.
            ready_set = state.memory_ready
            names = unit.compiled.task_nodes
            if (
                ready_set is None or names is None or not ready_set >= names
            ) and not self._ensure_resident(state, unit, tasks, time_s):
                # The model is not resident on every task node yet: the unit
                # is parked as a loading waiter (or the attempt already
                # failed) and re-enters here when its cold start completes.
                return
        unit.remaining_tasks = len(tasks)
        sequence = self._sequence
        push = heapq.heappush
        direct = self._pop_select
        down = self._down_live
        for node, duration, label, node_state in tasks:
            if (
                direct
                and not node_state.busy
                and not node_state.queue
                and not (down and node.name in down)
            ):
                # Idle live node + empty queue + pop-the-root scheduler: this
                # task is exactly what a queue round-trip would hand back, so
                # run it now — no :class:`_Task`, no key tuple, no
                # heappush/heappop, no dispatch call.
                self._run_inline(state, unit, node, duration, label, node_state, time_s, False)
                continue
            task = _Task(unit, node, duration, label, state.epoch, time_s)
            if self._base_key:
                # The base scheduler key ``(request index, topo rank, seq)``,
                # built inline, skipping the queue_key indirection.
                key = (state.request.index, unit.topo_key, next(sequence))
            else:
                key = self.scheduler.queue_key(task, next(sequence))
            push(node_state.queue, (key, task))
            if not node_state.busy:
                self._dispatch(node_state, time_s)

    def _run_inline(
        self,
        state: _RequestState,
        unit: _Unit,
        node: ComputeNode,
        duration: float,
        label: str,
        node_state: "_NodeState",
        time_s: float,
        ahead: bool,
    ) -> bool:
        """Run one task on its idle node now, as a dispatch would, and queue
        its ``task_end1`` in the one-slot buffer (or on the heap when the
        slot is taken).  Where nodes can go down, the running row is
        recorded for the kill path.

        With ``ahead`` (a chain successor), an end strictly earlier than the
        heap root and the slot is the event :meth:`run` would pop next: it is
        not queued, and True tells the caller to handle it now."""
        if duration < 0:
            raise ValueError("duration cannot be negative")
        available = node.available_at
        start = available if available > time_s else time_s
        end = start + duration
        node.available_at = end
        node.busy_seconds += duration
        node_state.busy = True
        log = self._log
        position = 0  # the row a stream-mode run never writes
        if log is not None:
            position = log.event(
                state.slot, node.name, unit.compiled.tier_value, label, "compute", start, end
            )
        if self._downable:
            node_state.current = ([(None, log, position)], end)
        run_id = node_state.run_id + 1
        node_state.run_id = run_id
        occupancy = self.batch_occupancy
        occupancy[1] = occupancy.get(1, 0) + 1
        events = self._events
        slot = self._slot
        if ahead and not (
            (events and events[0][0] <= end) or (slot is not None and slot[0] <= end)
        ):
            return True
        event = (end, next(self._sequence), "task_end1", (node_state, unit, run_id))
        if slot is None:
            self._slot = event
        else:
            heapq.heappush(events, event)
        return False

    def _prune_queue(self, node_state: _NodeState) -> None:
        """Drop queued tasks of aborted or terminal attempts, so the
        scheduler only ever reasons over live work.

        Only runs when an abort flagged the node as dirty — on the fault-free
        path every queued task is live by construction and dispatch stays
        scan-free.
        """
        if not node_state.dirty:
            return
        node_state.dirty = False
        tombstones = node_state.tombstones
        node_state.queue = [
            entry
            for entry in node_state.queue
            if entry[1] not in tombstones
            and entry[1].epoch == entry[1].unit.state.epoch
            and not entry[1].unit.state.failed
        ]
        tombstones.clear()
        heapq.heapify(node_state.queue)

    def _discard_attempt(self, state: _RequestState) -> None:
        """Flag the nodes that may hold queued tasks of a dying attempt, and
        disarm its units so a task still running on a healthy node can never
        complete one."""
        for unit in state.unit_list:
            unit.remaining_tasks = -1
            home = unit.home_node
            if home is not None:
                # Group-bound stages carry no compiled exec_nodes; their
                # queued tasks live on the per-request resolved member.
                node_state = self._nodes.get(home.name)
                if node_state is not None:
                    node_state.dirty = True
            for node in unit.exec_nodes:
                node_state = self._nodes.get(node.name)
                if node_state is not None:
                    node_state.dirty = True

    def _dispatch(self, node_state: _NodeState, time_s: float) -> None:
        """Ask the scheduler for the next dispatch if the node is idle.

        Tasks whose attempt was aborted are discarded here; a down node
        dispatches nothing until it recovers.  The scheduler may return a
        deferral instead of work (a batching hold), in which case a flush
        event re-asks at the hold's deadline.
        """
        if node_state.busy:
            return
        if self._down_live and node_state.node.name in self._down_live:
            return
        if node_state.dirty:
            self._prune_queue(node_state)
        queue = node_state.queue
        tombstones = node_state.tombstones
        if tombstones:
            # Lazily deleted batch members surface at the root eventually;
            # purge them here so the scheduler never sees consumed work.
            while queue and queue[0][1] in tombstones:
                tombstones.discard(heapq.heappop(queue)[1])
        if not queue:
            return
        if self._pop_select:
            # FIFO/EDF pop the heap root and never defer: dispatch directly,
            # skipping the select() indirection and flush bookkeeping.
            self._start_dispatch(node_state, [heapq.heappop(queue)[1]], time_s)
            return
        tasks, flush_at = self.scheduler.select(node_state, time_s)
        if not tasks:
            if flush_at is None:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} returned neither work "
                    f"nor a flush deadline for a non-empty queue"
                )
            # Deduplicate: every enqueue/task_end during a hold re-asks the
            # scheduler, but one pending flush per node deadline is enough.
            if node_state.flush_at is None or flush_at < node_state.flush_at - 1e-12:
                node_state.flush_at = flush_at
                self._push(flush_at, "flush", node_state)
            return
        node_state.flush_at = None
        self._start_dispatch(node_state, tasks, time_s)

    def _start_dispatch(
        self, node_state: _NodeState, tasks: List[_Task], time_s: float
    ) -> None:
        """Run one scheduler dispatch — a solo task or a micro-batch — on the
        node.  A batch occupies the node once, for the hardware's sublinear
        batch cost, and every member records a timeline event spanning it."""
        if len(tasks) == 1:
            # Solo dispatch — the engine's hottest code path by far.  Inlines
            # ``ComputeNode.schedule`` (same operations, same order).
            task = tasks[0]
            duration = task.duration_s
            if duration < 0:
                raise ValueError("duration cannot be negative")
            node = node_state.node
            available = node.available_at
            start = available if available > time_s else time_s
            end = start + duration
            node.available_at = end
            node.busy_seconds += duration
            node_state.busy = True
            log = self._log
            if log is not None:
                unit = task.unit
                position = log.event(
                    unit.state.slot,
                    node.name,
                    unit.compiled.tier_value,
                    task.label,
                    "compute",
                    start,
                    end,
                )
                members = [(task, log, position)]
            else:
                members = [(task, None, 0)]
            run_id = node_state.run_id + 1
            node_state.run_id = run_id
            node_state.current = (members, end)
            occupancy = self.batch_occupancy
            occupancy[1] = occupancy.get(1, 0) + 1
            heapq.heappush(
                self._events,
                (end, next(self._sequence), "task_end", (node_state, tasks, run_id)),
            )
            return
        solo = [task.duration_s for task in tasks]
        duration = batch_cost_s(solo, node_state.node.hardware.batch_exponent)
        start, end = node_state.node.schedule(time_s, duration)
        node_state.busy = True
        log = self._log
        if log is not None:
            name = node_state.node.name
            prefix = f"batch[{len(tasks)}]:"
            members = []
            for task in tasks:
                unit = task.unit
                position = log.event(
                    unit.state.slot,
                    name,
                    unit.compiled.tier_value,
                    prefix + task.label,
                    "compute",
                    start,
                    end,
                )
                members.append((task, log, position))
            self.batches.append(
                BatchRecord(
                    node=name,
                    label=tasks[0].label,
                    size=len(tasks),
                    start_s=start,
                    end_s=end,
                    longest_solo_s=max(solo),
                    total_solo_s=sum(solo),
                )
            )
        else:
            # Streaming mode keeps no timelines; members still carry the
            # tasks so a node death can flag their requests.
            members = [(task, None, 0) for task in tasks]
        node_state.run_id += 1
        node_state.current = (members, end)
        self.batch_occupancy[len(tasks)] = self.batch_occupancy.get(len(tasks), 0) + 1
        self._push(end, "task_end", (node_state, tasks, node_state.run_id))

    def _handle_task_end_direct(
        self, time_s: float, payload: Tuple[_NodeState, _Unit, int]
    ) -> None:
        """Completion of a direct dispatch (``task_end1``): exactly one task,
        started on an idle node of a pop-the-root run, so the payload carries
        the unit itself rather than a task list.  No epoch screening is
        needed: a discarded attempt's units count down from -1 and never
        reach zero, and a node death bumps the run id.

        **Run-ahead.**  A chain link's successor starts on the node the link
        just freed.  When it runs through the bypass and its end is strictly
        earlier than the heap root and the slot, that end is the event
        :meth:`run` would pop next, and nothing is queued before the pop:
        the link's handler has nothing left to do (one out-edge, an empty
        queue, a drain check that returns at once on the busy node).  So the
        end is handled here, in the same loop, by the same code, without
        being queued: it draws no sequence number and counts in
        ``events_processed``.
        """
        node_state, unit, run_id = payload
        if run_id != node_state.run_id:
            # The node died while this task was on it (see
            # :meth:`_kill_running_task`).
            return
        while True:
            node_state.busy = False
            unit.remaining_tasks -= 1
            if unit.remaining_tasks == 0:
                if unit.compiled.chain:
                    unit = self._complete_link(unit.state, unit, node_state, time_s)
                    if unit is not None:
                        # Run ahead to the successor's end.  The node is busy
                        # again and its queue empty, so the tail below would
                        # do nothing.
                        self._ran_ahead += 1
                        time_s = node_state.node.available_at
                        continue
                else:
                    self._complete_unit(unit.state, unit, time_s)
            if node_state.queue:
                self._dispatch(node_state, time_s)
            elif self._draining and node_state.node.name in self._draining:
                self._maybe_complete_drain(node_state.node.name, time_s)
            return

    def _complete_link(
        self, state: _RequestState, unit: _Unit, node_state: "_NodeState", time_s: float
    ) -> Optional[_Unit]:
        """:meth:`_complete_unit` for a chain link, then :meth:`_start_unit`
        for its successor: the same operations in the same order.  Returns
        the successor when its end runs ahead (and so was not queued),
        ``None`` otherwise."""
        state.remaining_units -= 1
        unit.completed = True
        backlog = self._backlog
        if backlog is not None:
            for name, duration in unit.compiled.node_costs:
                backlog[name] -= duration
        if time_s > state.completion_s:
            state.completion_s = time_s
        successor = state.unit_list[unit.out_edges[0][2]]
        successor.waiting -= 1
        node, duration, label, _ = successor.tasks[0]
        if self._memory_on:
            ready_set = state.memory_ready
            names = successor.compiled.task_nodes
            if ready_set is None or names is None or not ready_set >= names:
                self._start_unit(state, successor, time_s)
                return None
        if node_state.queue or (self._down_live and node.name in self._down_live):
            self._start_unit(state, successor, time_s)
            return None
        successor.remaining_tasks = 1
        if self._run_inline(state, successor, node, duration, label, node_state, time_s, True):
            return successor
        return None

    def _handle_task_end(
        self, time_s: float, payload: Tuple[_NodeState, List[_Task], int]
    ) -> None:
        node_state, tasks, run_id = payload
        if run_id != node_state.run_id:
            # The node died while this dispatch was on it; the reservation
            # was rolled back and the owning requests already aborted.
            return
        node_state.busy = False
        node_state.current = None
        for task in tasks:
            unit = task.unit
            state = unit.state
            if task.epoch == state.epoch and not state.failed:
                unit.remaining_tasks -= 1
                if unit.remaining_tasks == 0:
                    self._complete_unit(state, unit, time_s)
        if node_state.queue:
            # An empty ready-queue needs no scheduler consult — the node
            # simply goes idle (completions above may have refilled it, in
            # which case their enqueue already saw ``busy`` and left the
            # dispatch to us).
            self._dispatch(node_state, time_s)
        elif self._draining and node_state.node.name in self._draining:
            self._maybe_complete_drain(node_state.node.name, time_s)

    def _complete_unit(self, state: _RequestState, unit: _Unit, time_s: float) -> None:
        state.remaining_units -= 1
        unit.completed = True
        backlog = self._backlog
        if backlog is not None:
            for name, duration in unit.compiled.node_costs:
                backlog[name] -= duration
        if time_s > state.completion_s:
            state.completion_s = time_s
        if self._log is not None and unit.run is not None:
            self._log.event(
                state.slot,
                unit.home_node.name,
                Tier.EDGE.value,
                unit.gather_label,
                "gather",
                time_s,
                time_s,
            )
        epoch = state.epoch
        unit_list = state.unit_list
        for producer, consumer, dst_pos, local in unit.out_edges:
            if local:
                # Same-node delivery is free and cannot abort the attempt
                # (no route, no reservation): hand the edge over directly.
                # Group-bound pairs compile as local too — the sticky
                # balancer choice puts both stages on one member — so the
                # started stage *can* abort (no live replica); check.
                dst_unit = unit_list[dst_pos]
                dst_unit.waiting -= 1
                if dst_unit.waiting == 0:
                    self._start_unit(state, dst_unit, time_s)
                    if state.epoch != epoch or state.failed:
                        return
                continue
            self._deliver_edge(state, producer, unit, consumer, unit_list[dst_pos], time_s)
            if state.epoch != epoch or state.failed:
                # A severed route aborted the attempt mid-delivery; the
                # remaining edges belong to a discarded plan.
                return
        if state.remaining_units == 0:
            state.done = True
            self._retire(state, "completed", state.completion_s)

    # ------------------------------------------------------------------ #
    # Data movement
    # ------------------------------------------------------------------ #
    def _deliver_edge(
        self,
        state: _RequestState,
        producer: Vertex,
        src_unit: _Unit,
        consumer: Vertex,
        dst_unit: _Unit,
        time_s: float,
    ) -> None:
        src_node = src_unit.home_node
        dst_node = dst_unit.home_node
        if dst_node is None:
            # Group-bound consumer not yet resolved: bind it now, so the
            # transfer addresses the member this request will run on (same
            # inlined steady-state hit as ``_start_unit``).
            node_state = state.group_node_state
            tasks = None
            if node_state is not None and state.group_rev == self._membership_rev:
                cache = dst_unit.compiled.group_cache
                if cache is not None:
                    tasks = cache.get(node_state.node.name)
            if tasks:
                dst_unit.tasks = tasks
                dst_unit.home_node = node_state.node
            elif self._resolve_group_unit(state, dst_unit, time_s) is None:
                self._abort(state, time_s)
                return
            dst_node = dst_unit.home_node
        if src_node is dst_node:
            # Same-node movement is free (the paper's intra-tier assumption).
            self._arrive(dst_unit, time_s)
            return
        request = state.request
        payload = producer.output_bytes
        # The transfer follows the topology's route — detouring around dark
        # wires and dead relays — and crosses every hop store-and-forward;
        # each hop is priced at the moment it starts and serialized on its
        # own link under FIFO contention.  A severed route aborts the attempt
        # and sends the request into failover.
        try:
            route = self.cluster.route(src_node.name, dst_node.name)
        except RouteUnavailableError:
            self._abort(state, time_s)
            return
        overall_start: Optional[float] = None
        clock = time_s
        hops: List[Tuple[SharedLink, float, float, int]] = []
        for link in route:
            if self.link_contention == "fifo":
                # Price the hop at the moment it actually starts: a transfer
                # queued behind a backlog on a traced wire pays the rate in
                # effect when the wire frees, not the rate at request time.
                starts_at = max(clock, link.available_at)
                duration = self.cluster.hop_seconds(
                    link, payload, request.condition, starts_at
                )
                start, end = link.reserve(clock, duration, payload)
                if self.faults:
                    hops.append((link, start, end, payload))
            else:
                duration = self.cluster.hop_seconds(link, payload, request.condition, clock)
                start, end = clock, clock + duration
                link.record(duration, payload)
            if overall_start is None:
                overall_start = start
            clock = end
            if self._calibrate:
                gate = self._cal_flow_gate
                gate.tick += 1
                if not gate.tick % gate.stride:
                    self.calibration.record_transfer(
                        link.link_id or "-".join(link.key), payload, duration
                    )
        if overall_start is None:  # pragma: no cover - routes are never empty here
            self._arrive(dst_unit, time_s)
            return
        if self._calibrate:
            gate = self._cal_flow_gate
            gate.tick += 1
            if not gate.tick % gate.stride:
                # Tier-pair effective rate over the whole route (queueing +
                # store-and-forward included) — the quantity the planner's
                # harmonic tier-pair view approximates.
                self.calibration.record_route(
                    getattr(src_unit.tier, "value", src_unit.tier),
                    getattr(dst_unit.tier, "value", dst_unit.tier),
                    payload,
                    clock - overall_start,
                )
        if dst_unit.tier == Tier.CLOUD and src_unit.tier != Tier.CLOUD:
            # The exact predicate of ``TensorTransfer.crosses_backbone``.
            state.bytes_to_cloud += payload
        if self._log is not None:
            self._log.transfer(
                state.slot,
                producer.name,
                consumer.name,
                src_unit.compiled.tier_value,
                dst_unit.compiled.tier_value,
                payload,
                overall_start,
                clock - overall_start,
            )
        if self.faults:
            link_ids = frozenset(
                link.link_id or "-".join(link.key) for link in route
            )
            self._inflight.append(
                _Inflight(
                    end_s=clock,
                    link_ids=link_ids,
                    src=src_node.name,
                    dst=dst_node.name,
                    state=state,
                    epoch=state.epoch,
                    hops=hops,
                )
            )
        self._push(clock, "transfer_end", (dst_unit, state.epoch))

    def _handle_transfer_end(self, time_s: float, payload: Tuple[_Unit, int]) -> None:
        unit, epoch = payload
        state = unit.state
        if self._inflight and len(self._inflight) > 64:
            # Bound the in-flight registry during long healthy stretches of a
            # faulted run; drained rows are only otherwise pruned at faults.
            self._inflight = [t for t in self._inflight if t.end_s > time_s]
        if epoch != state.epoch or state.failed:
            return
        self._arrive(unit, time_s)

    def _arrive(self, unit: _Unit, time_s: float) -> None:
        unit.waiting -= 1
        if unit.waiting == 0:
            self._start_unit(unit.state, unit, time_s)

    # ------------------------------------------------------------------ #
    # Weight residency and cold starts (memory-constrained runs only)
    # ------------------------------------------------------------------ #
    def _cache_for(self, node: ComputeNode) -> WeightCache:
        cache = self._caches.get(node.name)
        if cache is None:
            cache = WeightCache(
                node.name, self.memory.capacity_bytes(node), self.memory.eviction
            )
            self._caches[node.name] = cache
        return cache

    def _ensure_resident(
        self, state: _RequestState, unit: _Unit, tasks: list, time_s: float
    ) -> bool:
        """True when every task node holds the request's model.

        A miss registers the unit as a waiter on the node's in-flight load —
        starting one if none is — and returns False; the ``coldstart``
        completion event re-enters :meth:`_start_unit` for every waiter.
        Verified nodes are claimed once per (request, node) on the request's
        ``memory_ready`` set; the claim keeps the model unevictable there
        for the request's lifetime (see :meth:`_sync_pins`), so the warm
        path is a set probe plus inline hit accounting — no per-dispatch
        pin refcounting.
        """
        model = state.request.graph.name
        ready_nodes = state.memory_ready
        if ready_nodes is None:
            ready_nodes = state.memory_ready = set()
        waiting_nodes = state.memory_waiting
        caches = self._caches
        compiled = state.compiled
        grouped_here = unit.compiled.group_tasks is not None
        ready = True
        for entry in tasks:
            node = entry[3].node
            name = node.name
            if name in ready_nodes:
                # Steady-state fast path: this request already verified (and
                # thereby claimed) its model here — the claim makes eviction
                # impossible until the request turns terminal.
                continue
            if waiting_nodes is not None and name in waiting_nodes:
                waiters = self._loading.get((name, model))
                if waiters is not None:
                    # An earlier stage of this request started (or joined)
                    # the load and it is still in flight: this unit must
                    # wait on it too (each waiter re-enters independently).
                    waiter = (state, unit, state.epoch)
                    if waiter not in waiters:
                        waiters.append(waiter)
                    ready = False
                    continue
                loaded = caches.get(name)
                if loaded is not None and model in loaded._entries:
                    # The load this request missed on has completed: claim
                    # the node without touching the hit counters — this is
                    # the tail of the original (already recorded) miss, not
                    # a fresh lookup.
                    ready_nodes.add(name)
                    continue
                # Not resident and no load in flight (the admission failed
                # for another waiter, or the entry was since evicted): this
                # is a fresh lookup — fall through to the miss path.
            cache = caches.get(name)
            if cache is None:
                cache = self._cache_for(node)
            centry = cache._entries.get(model)
            if centry is not None:
                # Inline ``WeightCache.record_hit``: refresh recency, bump
                # frequency — once per (request, node), on the path every
                # warm request crosses, where method dispatch is measurable.
                tick = cache._tick + 1
                cache._tick = tick
                centry.last_used = tick
                centry.hits += 1
                cache.hits += 1
                ready_nodes.add(name)
                continue
            cache.misses += 1
            if waiting_nodes is None:
                waiting_nodes = state.memory_waiting = set()
            waiting_nodes.add(name)
            key = (name, model)
            waiters = self._loading.get(key)
            if waiters is not None:
                waiters.append((state, unit, state.epoch))
                ready = False
                continue
            entry_bytes = compiled.node_entry_bytes.get(name, 0)
            weight_bytes = compiled.node_weight_bytes.get(name, 0)
            if grouped_here:
                entry_bytes += compiled.group_entry_bytes
                weight_bytes += compiled.group_weight_bytes
            if self.memory.warm:
                delay_s = 0.0
            else:
                delay_s = self._cold_start_delay(state, node, weight_bytes, time_s)
                if delay_s is None:
                    # No route from the artifact store: failover, exactly as
                    # a severed activation transfer would.
                    self._abort(state, time_s)
                    return False
            self._cold_starts += 1
            if delay_s <= 0.0:
                if not self._admit_entry(cache, model, entry_bytes, state, time_s):
                    return False
                ready_nodes.add(name)
                continue
            self._cold_start_s += delay_s
            self._loading[key] = [(state, unit, state.epoch)]
            if self._log is not None:
                self._log.event(
                    state.slot,
                    name,
                    unit.compiled.tier_value,
                    f"load:{model}",
                    "coldstart",
                    time_s,
                    time_s + delay_s,
                )
            self._push(time_s + delay_s, "coldstart", (name, model, entry_bytes))
            ready = False
        if ready and not grouped_here and unit.compiled.task_nodes is None:
            # Statically bound unit fully verified: publish its node-name set
            # on the shared compiled structure so every later request (and
            # every later unit sharing these nodes) takes the fast path.
            unit.compiled.task_nodes = frozenset(
                entry[3].node.name for entry in tasks
            )
        return ready

    def _cold_start_delay(
        self, state: _RequestState, node: ComputeNode, weight_bytes: int, time_s: float
    ) -> Optional[float]:
        """Seconds to stage the model onto ``node``: the compressed weights
        cross the declared wires from the cloud artifact store (reserving
        them, store-and-forward, exactly like activation transfers), then
        decompress at the codec's read throughput.  ``None`` when no route
        exists.  Loads onto the store node itself skip the wires."""
        codec = self.memory.codec_spec
        store = self._store_node
        if store is None:
            store = self._store_node = self.cluster.primary_node(Tier.CLOUD)
        clock = time_s
        if weight_bytes > 0 and node.name != store.name:
            try:
                route = self.cluster.route(store.name, node.name)
            except RouteUnavailableError:
                return None
            payload = codec.compressed_bytes(weight_bytes)
            condition = state.request.condition
            if self.link_contention == "fifo":
                for link in route:
                    starts_at = max(clock, link.available_at)
                    duration = self.cluster.hop_seconds(
                        link, payload, condition, starts_at
                    )
                    _, end = link.reserve(clock, duration, payload)
                    clock = end
            else:
                for link in route:
                    duration = self.cluster.hop_seconds(link, payload, condition, clock)
                    link.record(duration, payload)
                    clock += duration
        clock += codec.decompress_seconds(weight_bytes)
        return clock - time_s

    def _sync_pins(self, cache: WeightCache) -> None:
        """Rebuild the cache's pin table from live-request claims.

        The hot path records residency claims on the requests themselves
        (``memory_ready``) instead of refcounting cache pins per dispatch.
        The pin table is only ever consulted when an admission actually has
        to evict, so it is reconstructed here — once per pressured
        admission, from the in-flight window plus the loads in flight —
        rather than maintained twice per request-node across a
        million-request stream.  Claim lifetime equals the old pin
        lifetime exactly: taken when a stage verifies (or starts loading)
        the model on the node, dropped when the request retires or the
        attempt aborts.
        """
        node_name = cache.node
        pins: Dict[str, int] = {}
        for state in self._live:
            ready_nodes = state.memory_ready
            if ready_nodes and node_name in ready_nodes:
                model = state.request.graph.name
                pins[model] = pins.get(model, 0) + 1
        for load_node, model in self._loading:
            if load_node == node_name:
                pins[model] = pins.get(model, 0) + 1
        cache._pins = pins

    def _admit_entry(
        self,
        cache: WeightCache,
        model: str,
        entry_bytes: int,
        state: _RequestState,
        time_s: float,
    ) -> bool:
        """Admit a loaded entry; an overflow the cache cannot evict its way
        out of (everything else pinned, or the entry alone exceeds capacity)
        fails the request — there is no node to fall back to."""
        if cache.resident_bytes + entry_bytes > cache.capacity_bytes:
            # Admission under pressure: eviction (and the immovable check)
            # will consult the pin table, so bring it up to date first.
            self._sync_pins(cache)
        try:
            cache.admit(model, entry_bytes)
        except CapacityError:
            self._fail(state, time_s)
            return False
        return True

    def _handle_cold_start(
        self, time_s: float, payload: Tuple[str, str, int]
    ) -> None:
        """A staged artifact finished transferring + decompressing: admit it
        and restart every waiter whose attempt is still the live one."""
        node_name, model, entry_bytes = payload
        cache = self._caches[node_name]
        waiters = self._loading.pop((node_name, model), [])
        survivors = [
            (state, unit, epoch)
            for state, unit, epoch in waiters
            if state.epoch == epoch and not state.terminal
        ]
        if cache.resident_bytes + entry_bytes > cache.capacity_bytes:
            self._sync_pins(cache)
        try:
            cache.admit(model, entry_bytes)
        except CapacityError:
            for state, _, _ in survivors:
                self._fail(state, time_s)
            return
        for state, unit, _ in survivors:
            if not state.terminal and not unit.completed:
                self._start_unit(state, unit, time_s)

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #
    def _handle_fault(self, time_s: float, event: FaultEvent) -> None:
        if event.kind == "node_down":
            if not self.cluster.node_is_up(event.target):
                return  # already down; idempotent
            self.cluster.fail_node(event.target)
            self._membership_changed()
            self._open_interval(self._node_down_intervals, event.target, time_s)
            node_state = self._nodes.get(event.target)  # None for relays
            if node_state is not None:
                self._kill_running_task(node_state, time_s)
            self._abort_touching_node(event.target, time_s)
        elif event.kind == "node_up":
            if self.cluster.node_is_up(event.target):
                return
            self.cluster.recover_node(event.target)
            self._membership_changed()
            self._close_interval(self._node_down_intervals, event.target, time_s)
            node_state = self._nodes.get(event.target)
            if node_state is not None:
                self._dispatch(node_state, time_s)
        elif event.kind == "link_down":
            if not self.cluster.link_is_up(event.target):
                return
            self.cluster.fail_link(event.target)
            self._route_rev += 1
            self._open_interval(self._link_down_intervals, event.target, time_s)
            self._abort_inflight_over({event.target}, time_s)
        elif event.kind == "link_up":
            if self.cluster.link_is_up(event.target):
                return
            self.cluster.recover_link(event.target)
            self._route_rev += 1
            self._close_interval(self._link_down_intervals, event.target, time_s)
        else:  # pragma: no cover - schedule validation rejects unknown kinds
            raise RuntimeError(f"unknown fault kind {event.kind!r}")

    @staticmethod
    def _open_interval(
        intervals: Dict[str, List[List[Optional[float]]]], target: str, time_s: float
    ) -> None:
        intervals.setdefault(target, []).append([time_s, None])

    @staticmethod
    def _close_interval(
        intervals: Dict[str, List[List[Optional[float]]]], target: str, time_s: float
    ) -> None:
        spans = intervals.get(target)
        if spans and spans[-1][1] is None:
            spans[-1][1] = time_s

    def _kill_running_task(self, node_state: _NodeState, time_s: float) -> None:
        """Cut short the dispatch executing on a dying node.

        Every member's recorded timeline event is truncated at the moment of
        death (the work really did stop), the node's reservation and busy
        bookkeeping are rolled back to ``time_s``, and the pending
        ``task_end`` event is invalidated via the run id.  A micro-batch
        dies *as a unit* — all members abort together (their requests touch
        the dead node, so :meth:`_abort_touching_node` sweeps them up) — and
        each member is flagged to retry unbatched: the whole membership just
        shared one failure domain, and the failover attempt must not.
        """
        node_state.run_id += 1
        if not node_state.busy or node_state.current is None:
            return
        members, end_s = node_state.current
        if end_s > time_s:
            for _, log, position in members:
                if log is not None:
                    log.truncate(position, time_s)
            node_state.node.busy_seconds -= end_s - time_s
        if len(members) > 1:
            for task, _, _ in members:
                task.unit.state.no_batch = True
        node_state.node.available_at = time_s
        node_state.busy = False
        node_state.current = None

    def _abort_touching_node(self, node_name: str, time_s: float) -> None:
        """Abort every live request with unfinished work bound to a dead node
        or bytes in flight to, from, or through it.

        For in-flight transfers the match is endpoint-precise: a transfer is
        disrupted when the dead node is its source or destination, or when
        its route crosses a wire that names the node *directly* (a dead relay
        takes its point-to-point links with it).  A transfer between two
        healthy nodes merely sharing a tier-alias medium (the paper's LAN)
        with the dead node is untouched.
        """
        for state in list(self._live):
            if state.terminal:
                continue
            if any(
                not unit.completed and unit.touches(node_name) for unit in state.unit_list
            ):
                self._abort(state, time_s)
        direct = {
            name
            for name, link in self.cluster.topology.links.items()
            if link.a == node_name or link.b == node_name
        }
        victims = [
            t.state
            for t in self._live_inflight(time_s)
            if t.src == node_name or t.dst == node_name or (t.link_ids & direct)
        ]
        for state in victims:
            self._abort(state, time_s)

    def _abort_inflight_over(self, link_ids: set, time_s: float) -> None:
        """Abort requests whose in-flight transfers cross a severed wire."""
        victims = [t.state for t in self._live_inflight(time_s) if t.link_ids & link_ids]
        for state in victims:
            self._abort(state, time_s)

    def _live_inflight(self, time_s: float) -> List[_Inflight]:
        """Still-running transfers of still-live attempts (prunes the rest)."""
        self._inflight = [
            t
            for t in self._inflight
            if t.end_s > time_s and t.epoch == t.state.epoch and not t.state.terminal
        ]
        return self._inflight

    def _release_inflight(self, state: _RequestState, time_s: float) -> None:
        """Release the wire reservations of an aborted attempt's transfers.

        Store-and-forward books every hop of a route up-front; when the
        attempt dies, reservations that had not started by ``time_s`` are
        unwound (tail-first, while the reservation is still the last one
        booked on its wire) so phantom transfers stop serializing later
        traffic.  Wire time already started stays consumed — the bytes were
        on the medium when the failure hit.
        """
        remaining = []
        for t in self._inflight:
            if t.state is not state:
                remaining.append(t)
                continue
            if t.end_s > time_s and t.epoch == state.epoch:
                for link, start, end, payload in reversed(t.hops):
                    if start >= time_s and link.available_at == end:
                        link.available_at = start
                        link.busy_seconds -= end - start
                        link.bytes_carried -= payload
                        link.transfer_count -= 1
                    else:
                        break
        self._inflight = remaining

    def _abort(self, state: _RequestState, time_s: float) -> None:
        """Discard a request's current attempt and schedule a failover retry.

        Queued tasks and pending transfer completions of the attempt are
        invalidated by the epoch bump; tasks already executing on *healthy*
        nodes run to completion (no preemption) but their effects are
        ignored.  The retry fires at the same timestamp, after all same-time
        faults have been applied, so it replans against the full degraded
        state.
        """
        if state.terminal:
            return
        self._release_inflight(state, time_s)
        self._discard_attempt(state)
        if state.memory_ready is not None:
            # The discarded attempt's residency claims are void: the retry
            # re-verifies against the degraded deployment, and a stale claim
            # here would let tasks dispatch on a node the model never
            # finished loading onto (and would keep it pinned for free).
            state.memory_ready = None
            state.memory_waiting = None
        state.epoch += 1
        if not state.retry_pending:
            state.retry_pending = True
            self._push(time_s, "retry", state)

    def _handle_retry(self, time_s: float, state: _RequestState) -> None:
        state.retry_pending = False
        if state.terminal:
            return
        if state.retries >= self.max_retries:
            self._fail(state, time_s)
            return
        state.retries += 1
        if not self.cluster.node_is_up(state.source_node.name):
            self._fail(state, time_s)
            return
        if self._replan is not None:
            new_request = self._replan(
                state.request, time_s, self.cluster.down_nodes, self.cluster.down_links
            )
            if new_request is None:
                self._fail(state, time_s)
                return
            self.failover_replans += 1
            state.request = new_request
        if not self._activate(state, time_s):
            self._fail(state, time_s)

    def _fail(self, state: _RequestState, time_s: float) -> None:
        state.failed = True
        state.epoch += 1
        state.completion_s = time_s
        self._discard_attempt(state)
        self._retire(state, "failed", time_s)

    # ------------------------------------------------------------------ #
    # Elasticity: joins, drains, autoscaling, replica groups
    # ------------------------------------------------------------------ #
    def _membership_changed(self) -> None:
        """A node joined, drained, died or recovered: drop every cache
        derived from fleet membership (the compile re-key, the balancer's
        choice domain, and each request's verified sticky binding)."""
        self._membership_rev += 1
        self._route_rev += 1
        self._membership_key = None
        self._members_cache = None

    def _park(self, name: str) -> None:
        """Take a node out of the fleet at t=0 (declared but not yet paid
        for); a later join brings it in after its provisioning delay."""
        if self.cluster.node_is_up(name):
            self.cluster.fail_node(name)
            self._open_interval(self._node_down_intervals, name, 0.0)
            self._membership_changed()
        self._elastic_down.add(name)

    def _setup_autoscaler(self) -> None:
        """Shape the edge replica group to the policy's initial size and
        schedule the first tick."""
        scaler = self.autoscaler
        scaler.start()
        group = [node.name for node in self.cluster.all_nodes if node.tier == Tier.EDGE]
        if not group:
            raise ValueError(
                "autoscaling needs at least one edge replica in the topology"
            )
        self._group_names = group
        active = scaler.initial_active(len(group))
        for name in group[active:]:
            if name not in self._elastic_down and self.cluster.node_is_up(name):
                self._park(name)
        self._push(scaler.interval_s, "autoscale", None)

    def _handle_elastic(self, time_s: float, event: ElasticityEvent) -> None:
        if event.is_join:
            self._begin_join(event.target, event.provision_s, time_s)
        else:
            self._begin_drain(event.target, time_s)

    def _begin_join(self, name: str, provision_s: float, time_s: float) -> None:
        """Start provisioning ``name``; it accepts work after ``provision_s``.

        Idempotent: joining an already-up or already-provisioning node is a
        no-op, and joining a *draining* node simply cancels the drain (the
        node never went down, so there is nothing to provision).
        """
        if name in self._provisioning:
            return
        if name in self._draining:
            self._draining.discard(name)
            self._membership_changed()
            self._scale_up_count += 1
            return
        if self.cluster.node_is_up(name):
            return
        self._provisioning.add(name)
        self._scale_up_count += 1
        self._push(time_s + max(0.0, provision_s), "provisioned", name)

    def _handle_provisioned(self, time_s: float, name: str) -> None:
        """Provisioning elapsed: the joined node enters the fleet."""
        if name not in self._provisioning:
            return  # the join was cancelled by a drain while provisioning
        self._provisioning.discard(name)
        if self.cluster.node_is_up(name):
            return
        self.cluster.recover_node(name)
        self._membership_changed()
        self._elastic_down.discard(name)
        self._close_interval(self._node_down_intervals, name, time_s)
        node_state = self._nodes.get(name)
        if node_state is not None:
            self._dispatch(node_state, time_s)

    def _begin_drain(self, name: str, time_s: float) -> None:
        """Start a graceful drain: stop admitting, finish in-flight work,
        then leave the fleet.  Refused (no-op) when it would leave the
        node's tier without an admitting replica."""
        if name in self._draining:
            return
        if name in self._provisioning:
            # Drain overtakes an in-flight join: cancel the provisioning (the
            # symmetric counterpart of a join cancelling a drain).  Dropping
            # the name here makes the pending "provisioned" event a no-op, so
            # the node cannot resurrect after its drain.
            self._provisioning.discard(name)
            self._scale_down_count += 1
            return
        if not self.cluster.node_is_up(name):
            return
        tier = self.cluster.node(name).tier
        remaining = [
            node
            for node in self.cluster.active_nodes(tier)
            if node.name != name and node.name not in self._draining
        ]
        if not remaining:
            return
        self._draining.add(name)
        self._membership_changed()
        self._scale_down_count += 1
        self._maybe_complete_drain(name, time_s)

    def _sweep_drains(self, time_s: float) -> None:
        for name in list(self._draining):
            self._maybe_complete_drain(name, time_s)

    def _maybe_complete_drain(self, name: str, time_s: float) -> None:
        """Complete a drain iff nothing references the node any more: it is
        idle, its ready-queue holds no live work, and no live request has
        unfinished work bound (or stuck) to it.  Never aborts anything —
        that is the entire difference between a drain and a crash."""
        node_state = self._nodes.get(name)
        if node_state is None:  # pragma: no cover - relays cannot drain
            self._draining.discard(name)
            self._membership_changed()
            return
        if node_state.busy:
            return
        if node_state.dirty:
            self._prune_queue(node_state)
        if node_state.queue:
            return
        for state in self._live:
            if state.terminal:
                continue
            for unit in state.unit_list:
                if not unit.completed and unit.touches(name):
                    return
        self._draining.discard(name)
        if self.cluster.node_is_up(name):
            self.cluster.fail_node(name)
            self._open_interval(self._node_down_intervals, name, time_s)
        self._elastic_down.add(name)
        self._membership_changed()

    def _handle_autoscale_tick(self, time_s: float) -> None:
        """One autoscaler heartbeat: sample the group, apply the decision,
        and schedule the next tick while work remains."""
        scaler = self.autoscaler
        active: List[str] = []
        spare: List[str] = []
        for name in self._group_names:
            if name in self._provisioning or name in self._draining:
                continue
            if self.cluster.node_is_up(name):
                active.append(name)
            elif name in self._elastic_down:
                spare.append(name)
        if active:
            interval = scaler.interval_s
            busy_total = 0.0
            depth_total = 0.0
            for name in active:
                node_state = self._nodes[name]
                busy_s = node_state.node.busy_seconds
                previous = self._util_prev.get(name, 0.0)
                busy_total += min(1.0, max(0.0, (busy_s - previous) / interval))
                self._util_prev[name] = busy_s
                depth_total += len(node_state.queue) + (1 if node_state.busy else 0)
            decision = scaler.decide(
                busy_total / len(active),
                depth_total / len(active),
                len(active),
                len(spare),
                time_s,
            )
            if decision == "up" and spare:
                self._begin_join(spare[0], scaler.provision_s, time_s)
            elif decision == "down" and len(active) > 1:
                self._begin_drain(active[-1], time_s)
        if self._open > 0 or self._pending_arrivals > 0:
            self._push(time_s + scaler.interval_s, "autoscale", None)

    def _eligible_group_members(self) -> List[_NodeState]:
        """Live, non-draining members of the edge replica group, in
        declaration order — the balancer's choice domain.  A pure function
        of fleet membership, so the list is rebuilt only after a
        membership change."""
        members = self._members_cache
        if members is not None:
            return members
        nodes = self._nodes
        members = [
            nodes[node.name]
            for node in self.cluster.active_nodes(Tier.EDGE)
            if node.name not in self._draining
        ]
        if not members:
            # Every live member is draining (faults downed the rest):
            # finishing on a draining replica beats failing the request.
            members = [nodes[node.name] for node in self.cluster.active_nodes(Tier.EDGE)]
        self._members_cache = members
        return members

    def _resolve_group_unit(
        self, state: _RequestState, unit: _Unit, time_s: float
    ) -> Optional[List[Tuple[ComputeNode, float, str, _NodeState]]]:
        """Bind one request's group-bound stage to a replica.

        The balancer chooses once per request and the choice sticks: every
        group stage of the inference lands on the same member, so
        intra-request edges stay node-local exactly as on a statically bound
        plan.  A sticky member that crash-died is re-chosen (a *draining*
        member keeps its in-flight requests — drains never abort work).
        Returns the priced task list, or ``None`` when no member is live.
        """
        node_state = state.group_node_state
        rev = self._membership_rev
        if node_state is not None and state.group_rev != rev:
            # Membership changed since the choice was made (or last
            # verified): the sticky member may have crash-died.
            if self._down_live and node_state.node.name in self._down_live:
                node_state = None
            else:
                state.group_rev = rev
        if node_state is None:
            members = self._eligible_group_members()
            if not members:
                return None
            node_state = self.balancer.choose(members, time_s)
            state.group_node_state = node_state
            state.group_rev = rev
        node = node_state.node
        unit.home_node = node
        compiled = unit.compiled
        cache = compiled.group_cache
        if cache is None:
            cache = compiled.group_cache = {}
        tasks = cache.get(node.name)
        if tasks is None:
            speed = node.speed_factor
            tasks = [
                (node, duration / speed, label, node_state)
                for duration, label in compiled.group_tasks
            ]
            cache[node.name] = tasks
        unit.tasks = tasks
        return tasks

    def _resolve_live_source(self, name: str) -> Optional[ComputeNode]:
        """A live stand-in for a source that drained out of the fleet.

        ``None`` when the source went down by *crashing* (the client is
        offline — the historical fault semantics) or when its tier has no
        live replacement.  Prefers non-draining siblings, in declaration
        order, so re-resolution is deterministic.
        """
        if name not in self._elastic_down and name not in self._draining:
            return None
        tier = self.cluster.node(name).tier
        candidates = [
            node
            for node in self.cluster.active_nodes(tier)
            if node.name not in self._draining
        ]
        if not candidates:
            candidates = [
                node for node in self.cluster.active_nodes(tier) if node.name != name
            ]
        return candidates[0] if candidates else None


def _clip_downtime(
    intervals: Dict[str, List[List[Optional[float]]]], start: float, end: float
) -> Dict[str, float]:
    """Seconds each target spent down within ``[start, end]`` (open intervals
    are still down at the end of the run)."""
    downtime: Dict[str, float] = {}
    for target, spans in intervals.items():
        total = 0.0
        for span_start, span_end in spans:
            closed_end = end if span_end is None else min(span_end, end)
            total += max(0.0, closed_end - max(span_start, start))
        if total > 0.0:
            downtime[target] = total
    return downtime
