"""DADS baseline (Hu et al., INFOCOM 2019).

DADS ("Dynamic Adaptive DNN Surgery") partitions a DAG-topology DNN between an
edge node and a cloud server by solving a minimum s-t cut on an auxiliary flow
network (in the lightly-loaded regime, which is the one the paper compares
against):

* every DNN vertex ``v`` gets an arc ``s -> v`` with capacity ``t^c_v`` (cut
  when ``v`` is placed on the cloud side) and an arc ``v -> t`` with capacity
  ``t^e_v`` (cut when ``v`` stays on the edge side);
* every data dependency ``(u, v)`` gets an arc ``u -> v`` (and, because the
  paper assumes symmetric two-way delays, a mirror arc ``v -> u``) with
  capacity equal to the transmission delay of ``u``'s output over the
  edge-to-cloud link.

The min cut therefore minimises exactly the total processing plus transfer
latency of a two-way split, which is what makes DADS a strong baseline: unlike
HPA it is *optimal* — but only for two tiers, and it must re-solve the global
cut whenever conditions change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.placement import PlacementPlan, PlanEvaluator, PlanMetrics, Tier
from repro.core.strategy import ClusterSpec, PartitionPlan, register_strategy
from repro.graph.dag import DnnGraph
from repro.network.conditions import NetworkCondition
from repro.profiling.profiler import LatencyProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

_SOURCE = "__edge_source__"
_SINK = "__cloud_sink__"


@dataclass
class DadsResult:
    """Outcome of the DADS min-cut partition."""

    plan: PlacementPlan
    metrics: PlanMetrics
    cut_value_s: float
    edge_vertices: Set[int]
    cloud_vertices: Set[int]

    @property
    def latency_s(self) -> float:
        return self.metrics.end_to_end_latency_s


class DadsPartitioner:
    """Two-way (edge/cloud) min-cut partitioner for DAG DNNs.

    With a multi-objective configuration (``economics`` + non-latency-only
    ``weights``) every capacity becomes the corresponding *weighted score* —
    vertex arcs carry ``w_lat·t + w_energy·J + w_cost·$`` of running the
    vertex on that side, dependency arcs the weighted transfer score — so the
    min cut stays exactly optimal, now for the weighted objective.
    """

    def __init__(
        self,
        profile: LatencyProfile,
        network: NetworkCondition,
        economics=None,
        weights=None,
    ) -> None:
        self.profile = profile
        self.network = network
        self.economics = economics
        self.weights = weights
        self._weighted = (
            economics is not None and weights is not None and not weights.is_latency_only
        )

    # ------------------------------------------------------------------ #
    def _vertex_score(self, vertex, tier: Tier) -> float:
        seconds = self.profile.get(vertex.index, tier)
        if not self._weighted:
            return seconds
        return (
            self.weights.latency * seconds
            + self.weights.energy * self.economics.compute_joules(vertex.flops, tier)
            + self.weights.cost * self.economics.compute_cost_usd(seconds, tier)
        )

    def _transfer_score(self, payload_bytes: int) -> float:
        seconds = self.network.transfer_seconds(
            payload_bytes, Tier.EDGE.value, Tier.CLOUD.value
        )
        if not self._weighted:
            return seconds
        return self.weights.latency * seconds + self.weights.energy * (
            self.economics.transfer_joules(payload_bytes, Tier.EDGE, Tier.CLOUD)
        )

    def build_flow_network(self, graph: DnnGraph) -> "nx.DiGraph":
        """Construct the auxiliary flow network described above."""
        import networkx as nx

        flow = nx.DiGraph()
        for vertex in graph:
            flow.add_edge(_SOURCE, vertex.index, capacity=self._vertex_score(vertex, Tier.CLOUD))
            flow.add_edge(vertex.index, _SINK, capacity=self._vertex_score(vertex, Tier.EDGE))
        # The virtual input vertex is produced by the device inside the LAN; it
        # can never be "computed on the cloud", so pin it to the edge side.
        flow[_SOURCE][graph.input_vertex.index]["capacity"] = float("inf")
        for src, dst in graph.edges():
            transfer = self._transfer_score(src.output_bytes)
            _add_capacity(flow, src.index, dst.index, transfer)
            _add_capacity(flow, dst.index, src.index, transfer)
        return flow

    def partition(self, graph: DnnGraph) -> DadsResult:
        """Solve the min cut and return the induced placement plan."""
        import networkx as nx

        flow = self.build_flow_network(graph)
        cut_value, (edge_side, cloud_side) = nx.minimum_cut(flow, _SOURCE, _SINK)
        edge_vertices = {v for v in edge_side if isinstance(v, int)}
        cloud_vertices = {v for v in cloud_side if isinstance(v, int)}

        plan = PlacementPlan(graph)
        for vertex in graph:
            if vertex.index == graph.input_vertex.index:
                plan.assign(vertex.index, Tier.DEVICE)
            elif vertex.index in edge_vertices:
                plan.assign(vertex.index, Tier.EDGE)
            else:
                plan.assign(vertex.index, Tier.CLOUD)
        self._enforce_forward_flow(graph, plan)
        plan.validate()

        metrics = PlanEvaluator(self.profile, self.network).metrics(plan)
        return DadsResult(
            plan=plan,
            metrics=metrics,
            cut_value_s=float(cut_value),
            edge_vertices=edge_vertices,
            cloud_vertices=cloud_vertices,
        )

    @staticmethod
    def _enforce_forward_flow(graph: DnnGraph, plan: PlacementPlan) -> None:
        """Push descendants of cloud vertices to the cloud.

        The mirror arcs make backward cuts expensive but not impossible; a
        valid deployment cannot move data from the cloud back to the edge, so
        any edge-side vertex with a cloud-side predecessor is promoted to the
        cloud (this can only happen in degenerate profiles and never increases
        the number of cut edges).
        """
        for vertex in graph.topological_order():
            if plan.tier_of(vertex.index) == Tier.CLOUD:
                continue
            preds = graph.predecessors(vertex.index)
            if any(plan.tier_of(p.index) == Tier.CLOUD for p in preds):
                plan.assign(vertex.index, Tier.CLOUD)


class DadsStrategy:
    """:class:`~repro.core.strategy.PartitionStrategy` adapter for DADS."""

    name = "dads"
    supports_repartitioning = False
    measure_by_simulation = False

    def supports(self, graph: DnnGraph) -> bool:
        return True

    def plan(
        self,
        graph: DnnGraph,
        profile: "LatencyProfile",
        network: NetworkCondition,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> PartitionPlan:
        if cluster_spec is not None and cluster_spec.is_weighted:
            partitioner = DadsPartitioner(
                profile,
                network,
                economics=cluster_spec.economics,
                weights=cluster_spec.objective_weights,
            )
        else:
            partitioner = DadsPartitioner(profile, network)
        result = partitioner.partition(graph)
        return PartitionPlan(
            strategy=self.name,
            graph=graph,
            placement=result.plan,
            metrics=result.metrics,
            extras={
                "cut_value_s": result.cut_value_s,
                "edge_vertices": result.edge_vertices,
                "cloud_vertices": result.cloud_vertices,
            },
            topology_fingerprint=cluster_spec.topology_fingerprint if cluster_spec else (),
        )


register_strategy(DadsStrategy)


def _add_capacity(flow: "nx.DiGraph", src, dst, capacity: float) -> None:
    if flow.has_edge(src, dst):
        flow[src][dst]["capacity"] += capacity
    else:
        flow.add_edge(src, dst, capacity=capacity)
