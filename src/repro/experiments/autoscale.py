"""Elastic-fleet scenario: diurnal load × static-vs-elastic fleet × balancer.

The serving, availability and SLO harnesses all hold the fleet fixed; this one
asks the capacity-planning question instead — *how many node-hours does it
take to serve a day of traffic well?*  A diurnal arrival curve (a raised
cosine with the classic 10:1 day/night swing, sampled exactly by thinning)
is driven through an edge replica group twice per load balancer:

* **static** — every edge replica stays up for the whole run: the
  peak-provisioned fleet, p99 as good as it gets, node-hours as bad.
* **elastic** — an :class:`~repro.runtime.elasticity.Autoscaler` watches
  replica utilisation and queue depth, parks the fleet down to one replica
  overnight and grows it back as the curve climbs, paying a provisioning
  delay on every scale-up.

The table reports the three numbers the trade lives on — p99 latency,
goodput against the scenario SLO, and fleet node-hours — plus the scale
events that produced them.  The headline result: the elastic fleet serves
the same curve at equal-or-better p99 for a fraction of the node-hours,
because the balancer (round-robin, join-shortest-queue or
power-of-two-choices) keeps the reduced fleet evenly loaded while the
autoscaler tracks the diurnal envelope.

``repro serve --autoscale POLICY --balancer NAME`` runs any single cell;
``repro scenario autoscale`` prints this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.d3 import D3Config, D3System
from repro.experiments.reporting import format_table
from repro.runtime.elasticity import BALANCER_NAMES, Autoscaler
from repro.runtime.serving import ServingReport
from repro.runtime.workload import Workload

#: One harness row: (fleet, balancer, report).
AutoscaleResult = Tuple[str, str, ServingReport]

#: Fleets compared: peak-provisioned vs autoscaled.
FLEETS: Tuple[str, ...] = ("static", "elastic")

#: Balancers compared (registry names).
DEFAULT_BALANCERS: Tuple[str, ...] = BALANCER_NAMES


@dataclass(frozen=True)
class AutoscaleScenario:
    """One elastic-fleet experiment: a diurnal curve over an edge group."""

    #: VGG-16 keeps the replica group compute-bound (~163 ms of edge work per
    #: request): one replica saturates near 6 req/s, so the diurnal peak
    #: genuinely needs the fleet and the trough genuinely doesn't.
    model: str = "vgg16"
    network: str = "wifi"
    num_edge_nodes: int = 4
    #: Diurnal curve: one full trough→peak→trough cycle over the run.
    duration_s: float = 60.0
    peak_rps: float = 10.0
    trough_rps: float = 1.0
    seed: int = 0
    #: SLO every request carries, so goodput/attainment are reportable.
    slo_ms: float = 1000.0
    #: Partitioning method — ``edge_only`` puts the whole model on the edge
    #: replica group, the regime replication and balancing actually govern.
    method: str = "edge_only"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.trough_rps <= self.peak_rps:
            raise ValueError("trough rate must lie in [0, peak_rps]")
        if self.num_edge_nodes < 2:
            raise ValueError("an elastic fleet needs at least two edge replicas")

    # ------------------------------------------------------------------ #
    def build_system(self) -> D3System:
        return D3System(
            D3Config(
                network=self.network,
                num_edge_nodes=self.num_edge_nodes,
                use_regression=False,
                profiler_noise_std=0.0,
                seed=self.seed,
            )
        )

    def build_workload(self) -> Workload:
        return Workload.diurnal(
            self.model,
            duration_s=self.duration_s,
            peak_rps=self.peak_rps,
            trough_rps=self.trough_rps,
            seed=self.seed,
            slo_ms=self.slo_ms,
        )

    def build_autoscaler(self) -> Autoscaler:
        """The elastic fleet's policy: start from one replica, track the curve.

        The thresholds are deliberately asymmetric — scale up early (35%
        utilisation, well before a replica saturates) and down late (10%),
        with a cooldown long enough that the slow diurnal envelope, not tick
        noise, drives the decisions.  That asymmetry is what buys p99 parity
        with the static fleet: capacity is already there when the peak
        arrives, and drains only happen deep in the trough where they cannot
        create queueing.  The provisioning delay is the cost every scale-up
        pays before the new replica takes work.
        """
        return Autoscaler(
            policy="target-util",
            interval_s=0.5,
            window=2,
            scale_up_at=0.35,
            scale_down_at=0.10,
            cooldown_s=3.0,
            min_replicas=1,
            max_replicas=self.num_edge_nodes,
            initial_replicas=1,
            provision_s=0.5,
        )


def run_autoscale_comparison(
    balancers: Sequence[str] = DEFAULT_BALANCERS,
    scenario: Optional[AutoscaleScenario] = None,
) -> List[AutoscaleResult]:
    """Serve the same diurnal workload per (fleet, balancer) cell.

    One resident system serves every cell (its plan cache is shared — the
    membership-masked fingerprints are what make that sound), and every cell
    sees the *identical* request stream, so static and elastic rows differ
    only in fleet policy.
    """
    if not balancers:
        raise ValueError("need at least one balancer")
    scenario = scenario or AutoscaleScenario()
    system = scenario.build_system()
    workload = scenario.build_workload()
    results: List[AutoscaleResult] = []
    for balancer in balancers:
        static = system.serve(workload, method=scenario.method, balancer=balancer)
        results.append(("static", balancer, static))
        elastic = system.serve(
            workload,
            method=scenario.method,
            autoscaler=scenario.build_autoscaler(),
            balancer=balancer,
        )
        results.append(("elastic", balancer, elastic))
    return results


def format_autoscale_comparison(results: Sequence[AutoscaleResult]) -> str:
    """Render the fleet × balancer p99/goodput/node-hours table, plus the
    node-hours the elastic rows save when both fleets are present."""
    rows = []
    for fleet, balancer, report in results:
        pct = report.latency_percentiles()
        rows.append(
            (
                fleet,
                balancer,
                report.throughput_rps,
                pct["p50"] * 1e3,
                pct["p99"] * 1e3,
                report.goodput_rps,
                report.slo_attainment * 100.0,
                f"{report.node_hours:.3f}",
                report.scale_up_events,
                report.scale_down_events,
            )
        )
    table = format_table(
        headers=(
            "fleet",
            "balancer",
            "req/s",
            "p50 ms",
            "p99 ms",
            "goodput",
            "attain %",
            "node-hrs",
            "ups",
            "downs",
        ),
        rows=rows,
        title="Elastic fleets — diurnal load × fleet policy × balancer",
    )
    if set(FLEETS) <= {fleet for fleet, _, _ in results}:
        table += f"\nnode-hours saved (elastic vs static): {node_hour_savings(results):.1%}"
    return table


def node_hour_savings(results: Sequence[AutoscaleResult]) -> float:
    """Fraction of fleet node-hours the elastic rows save over the static
    rows (a quick check that autoscaling actually paid for itself)."""
    static = [r.node_hours for fleet, _, r in results if fleet == "static"]
    elastic = [r.node_hours for fleet, _, r in results if fleet == "elastic"]
    if not static or not elastic:
        raise ValueError("need both static and elastic rows")
    total_static = sum(static)
    if total_static <= 0:
        return 0.0
    return 1.0 - sum(elastic) / total_static
