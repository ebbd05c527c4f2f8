"""Reference (pre-optimisation) forms of HPA's per-decision bookkeeping.

The differential tests in ``test_hpa.py`` and ``test_dynamic.py`` hold the
production partitioner and re-partitioner to these straightforward versions
float for float:

* the live-tensor term as one ``O(|V|·deg)`` scan of the whole assignment
  table per candidate pair;
* the remaining-work estimate as one ``O(|V|)`` left-to-right sum per vertex,
  recomputed on every decision;
* drift detection as a scan over every vertex, and the local scope filtered
  out of the full topological order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.dynamic import DynamicRepartitioner
from repro.core.hpa import HorizontalPartitioner
from repro.core.placement import TIER_ORDER, PlacementPlan, Tier, tiers_at_or_after
from repro.graph.dag import DnnGraph, Vertex

MODELS = ("alexnet", "resnet18", "vgg16", "darknet53", "inception_v4")
BACKBONE_CYCLE = (1.0, 4.0, 0.5, 2.0, 0.25)


def reference_live_tensor_transfer(
    partitioner: HorizontalPartitioner,
    graph: DnnGraph,
    plan: PlacementPlan,
    vertex: Vertex,
    target: Tier,
) -> float:
    """Cost of moving every live tensor to ``target``, by full scan."""
    pred_indices = {p.index for p in graph.predecessors(vertex.index)}
    total = 0.0
    for index, tier in plan.assignments.items():
        if index in pred_indices or index == vertex.index:
            continue
        has_unassigned_consumer = any(
            s.index not in plan.assignments and s.index != vertex.index
            for s in graph.successors(index)
        )
        if has_unassigned_consumer:
            producer = graph.vertex(index)
            total += partitioner.transfer_latency(producer.output_bytes, tier, target)
    return total


class ReferencePartitioner(HorizontalPartitioner):
    """HPA pricing the live term per candidate pair by full scan."""

    def cumulative_optimal_tier(
        self, graph, plan, vertex, candidates, remaining, frontier=None
    ) -> Tier:
        best_tier = candidates[0]
        best_cost = float("inf")
        for tier_i in candidates:
            pull = self.input_pull_latency(graph, plan, vertex, tier_i)
            for tier_j in tiers_at_or_after(tier_i):
                cost = (
                    self.vertex_latency(vertex, tier_i)
                    + pull
                    + self.transfer_latency(vertex.output_bytes, tier_i, tier_j)
                    + remaining.get(tier_j, 0.0)
                    + reference_live_tensor_transfer(self, graph, plan, vertex, tier_j)
                )
                if cost < best_cost:
                    best_cost = cost
                    best_tier = tier_i
        return best_tier

    def _default_remaining(self, graph: DnnGraph, vertex: Vertex) -> Dict[Tier, float]:
        remaining = {tier: 0.0 for tier in TIER_ORDER}
        for other in graph:
            if other.index <= vertex.index:
                continue
            for tier in TIER_ORDER:
                remaining[tier] += self.vertex_latency(other, tier)
        return remaining


class ReferenceRepartitioner(DynamicRepartitioner):
    """Local re-partitioning without memos or short-circuits."""

    def _partitioner(self, profile, network) -> HorizontalPartitioner:
        return ReferencePartitioner(
            profile, network, self.config, economics=self.economics, weights=self.weights
        )

    def _drifted_vertices(self, profile) -> List[int]:
        drifted = []
        for vertex in self.graph:
            tier = self.plan.tier_of(vertex.index)
            reference = self.reference_profile.get(vertex.index, tier)
            if self.thresholds.exceeded(reference, profile.get(vertex.index, tier)):
                drifted.append(vertex.index)
        return drifted

    def _local_scope(self, seeds: Sequence[int]) -> List[Vertex]:
        scope: Set[int] = set()
        for seed in seeds:
            scope.add(seed)
            for sibling in self.graph.sis_vertices(seed):
                scope.add(sibling.index)
            for successor in self.graph.successors(seed):
                scope.add(successor.index)
                for sibling in self.graph.sis_vertices(successor.index):
                    scope.add(sibling.index)
        return [v for v in self.graph.topological_order() if v.index in scope]

    def _remaining_after(self, partitioner, vertex) -> Dict[Tier, float]:
        return partitioner._default_remaining(self.graph, vertex)
