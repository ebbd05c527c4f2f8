"""Horizontal Partition Algorithm (HPA) — Algorithm 1 of the paper.

HPA splits a DNN DAG into three parts executed on the device, edge and cloud
tiers.  Partitioning a DAG with multiple vertex and link weights is NP-hard, so
HPA is a layered greedy heuristic:

1. compute the longest distance ``δ(v_i)`` from the virtual input ``v0`` to
   every vertex and group vertices into graph layers ``Z_q``;
2. walk the graph layers in order; within a layer, each vertex's *potential*
   tiers ``Γ_i`` are restricted by Proposition 1 (a vertex can never run on a
   tier earlier in the pipeline than the earliest tier among its direct
   predecessors);
3. pick the optimal tier with Equation (2) — the tier minimising the vertex's
   processing time plus the delay of pulling its inputs — unless the vertex's
   output is at least as large as its input, in which case HPA looks one hop
   ahead and jointly evaluates the vertex with its *largest direct successor*
   over the tier combinations of Table I;
4. after finishing a layer, apply the SIS update (Proposition 2): an already
   placed subset-input-sibling of a vertex is pulled forward to the vertex's
   tier when it currently sits on an earlier tier, because its inputs have
   already been shipped there.

The partitioner exposes its per-vertex decision helpers so that the dynamic
re-partitioner (:mod:`repro.core.dynamic`) can re-run them locally when runtime
conditions drift.

Cost of one vertex decision: its inputs, its candidate tiers and its *live
frontier* (:class:`LiveFrontier`: the assigned producers whose output still
waits for an unassigned consumer), never the whole graph.  ``partition()``
keeps the frontier up to date as it assigns vertices, at ``O(deg)`` per
assignment; the live term is priced once per target tier.  On a complete plan
— every local update of the dynamic re-partitioner — there is no unassigned
consumer, so the live term is identically ``0.0`` and costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.economics import ObjectiveWeights, TierEconomics

from repro.core.placement import (
    PlacementPlan,
    Tier,
    TIER_ORDER,
    earliest_tier,
    tiers_at_or_after,
)
from repro.graph.dag import DnnGraph, Vertex
from repro.network.conditions import NetworkCondition
from repro.profiling.profiler import LatencyProfile


#: Look-ahead strategies for the per-vertex tier decision.
#:
#: ``"none"``       — pure Equation (2) (local greedy, no look-ahead);
#: ``"successor"``  — the paper's Table-I joint evaluation with the largest
#:                    direct successor;
#: ``"cumulative"`` — an extension of the Table-I idea that replaces the single
#:                    successor with the *aggregate remaining network*: the
#:                    candidate pair ``(l_i, l_j)`` is charged ``v_i``'s
#:                    processing time on ``l_i``, the transfer of its output to
#:                    ``l_j`` and the processing time of every still-unassigned
#:                    vertex on ``l_j``.  The single-successor rule is too
#:                    myopic to ever amortise a large tensor transfer over the
#:                    many cheap layers that follow it (it strands long runs of
#:                    small layers on the device), so the cumulative rule is the
#:                    default; the ablation benchmark quantifies the difference.
LOOKAHEAD_MODES = ("none", "successor", "cumulative")


@dataclass(frozen=True)
class HPAConfig:
    """Tunable switches of the heuristic (used by the ablation benchmarks).

    Attributes
    ----------
    enable_sis_update:
        Apply the Proposition-2 SIS update after each graph layer.
    lookahead:
        One of :data:`LOOKAHEAD_MODES`; applied when a vertex's output is not
        smaller than its input (the paper's trigger condition).
    reference_tier_for_successor:
        Tier whose processing time ranks the successors when choosing the
        "largest direct successor".
    """

    enable_sis_update: bool = True
    lookahead: str = "cumulative"
    reference_tier_for_successor: Tier = Tier.DEVICE

    def __post_init__(self) -> None:
        if self.lookahead not in LOOKAHEAD_MODES:
            raise ValueError(
                f"lookahead must be one of {LOOKAHEAD_MODES}, got {self.lookahead!r}"
            )


class LiveFrontier:
    """Assigned producers whose output still has an unassigned consumer.

    Producers are kept in the order they were first assigned — the insertion
    order of ``plan.assignments`` — each with its count of consumer edges not
    yet assigned.  :meth:`assigned` updates the frontier in ``O(deg)`` for
    one newly assigned vertex, in any order, so ``partition()`` maintains it
    incrementally and :meth:`of_plan` rebuilds it for an arbitrary plan.
    """

    def __init__(self, graph: DnnGraph) -> None:
        self.graph = graph
        self._assigned: Set[int] = set()
        self._pending: Dict[int, int] = {}

    @classmethod
    def of_plan(cls, graph: DnnGraph, plan: PlacementPlan) -> "LiveFrontier":
        """The frontier of ``plan``'s current assignments."""
        frontier = cls(graph)
        if not plan.is_complete():  # a complete plan has no live tensor
            for index in plan.assignments:
                frontier.assigned(index)
        return frontier

    def assigned(self, index: int) -> None:
        """Account for the first assignment of vertex ``index``."""
        assigned, pending = self._assigned, self._pending
        for pred in self.graph.predecessor_indices(index):
            if pred in pending:
                left = pending[pred] - 1
                if left:
                    pending[pred] = left
                else:
                    del pending[pred]
        waiting = sum(1 for s in self.graph.successors(index) if s.index not in assigned)
        if waiting:
            pending[index] = waiting
        assigned.add(index)

    def live_for(self, vertex: Vertex) -> List[Vertex]:
        """The live producers ``vertex``'s decision must account for: the
        frontier minus ``vertex`` and its own predecessors (whose tensors the
        input-pull term already charges)."""
        if not self._pending:
            return []
        own = self.graph.predecessor_indices(vertex.index)
        return [
            self.graph.vertex(index)
            for index in self._pending
            if index not in own and index != vertex.index
        ]


class HorizontalPartitioner:
    """Split a DNN DAG over the device, edge and cloud tiers.

    Parameters
    ----------
    profile:
        Per-vertex, per-tier latency estimates (the vertex weights ``T_{v_i}``),
        normally produced by the regression model.
    network:
        The inter-tier bandwidths (the link weights ``T_{(v_i, v_j)}``).
    config:
        Heuristic switches; defaults to the full algorithm of the paper.
    economics, weights:
        Optional multi-objective extension: when both are given and the
        weights put mass on the energy or cost axis, the two scoring
        primitives below return *weighted scores* instead of raw seconds.
        Every Algorithm-1 decision composes those two primitives linearly,
        so the greedy then minimises the weighted objective end to end.
        Absent (the default) both primitives — and therefore the whole
        partition — are bit-identical to the pure-latency algorithm.
    """

    def __init__(
        self,
        profile: LatencyProfile,
        network: NetworkCondition,
        config: Optional[HPAConfig] = None,
        economics: Optional["TierEconomics"] = None,
        weights: Optional["ObjectiveWeights"] = None,
    ) -> None:
        self.profile = profile
        self.network = network
        self.config = config or HPAConfig()
        self.economics = economics
        self.weights = weights
        self._weighted = (
            economics is not None and weights is not None and not weights.is_latency_only
        )

    # ------------------------------------------------------------------ #
    # Weight helpers
    # ------------------------------------------------------------------ #
    def vertex_latency(self, vertex: Vertex, tier: Tier) -> float:
        """``t^{l_i}_i``: processing time of a vertex on a tier.

        Under a multi-objective configuration this is the vertex's weighted
        score ``w_lat·t + w_energy·(flops · J/FLOP) + w_cost·(t · $/s)``.
        """
        seconds = self.profile.get(vertex.index, tier)
        if not self._weighted:
            return seconds
        weights = self.weights
        economics = self.economics
        return (
            weights.latency * seconds
            + weights.energy * economics.compute_joules(vertex.flops, tier)
            + weights.cost * economics.compute_cost_usd(seconds, tier)
        )

    def transfer_latency(self, payload_bytes: int, src: Tier, dst: Tier) -> float:
        """``t^{[l_h, l_i]}_{hi}``: transmission delay between two tiers.

        Under a multi-objective configuration this is the cut edge's weighted
        score ``w_lat·t + w_energy·radio_joules`` (only device endpoints pay
        radio energy; transfers carry no dollar term).
        """
        if src == dst:
            return 0.0
        seconds = self.network.transfer_seconds(payload_bytes, src.value, dst.value)
        if not self._weighted:
            return seconds
        weights = self.weights
        return weights.latency * seconds + weights.energy * self.economics.transfer_joules(
            payload_bytes, src, dst
        )

    def input_pull_latency(
        self, graph: DnnGraph, plan: PlacementPlan, vertex: Vertex, tier: Tier
    ) -> float:
        """Delay of moving all of ``vertex``'s inputs to ``tier``."""
        total = 0.0
        for pred in graph.predecessors(vertex.index):
            total += self.transfer_latency(pred.output_bytes, plan.tier_of(pred.index), tier)
        return total

    # ------------------------------------------------------------------ #
    # Per-vertex decisions (Algorithm 1 lines 5-11)
    # ------------------------------------------------------------------ #
    def potential_tiers(self, graph: DnnGraph, plan: PlacementPlan, vertex: Vertex) -> List[Tier]:
        """``Γ_i``: the potential tiers allowed by Proposition 1."""
        preds = graph.predecessors(vertex.index)
        if not preds:
            return [Tier.DEVICE]
        bound = earliest_tier(plan.tier_of(p.index) for p in preds)
        return tiers_at_or_after(bound)

    def local_optimal_tier(
        self,
        graph: DnnGraph,
        plan: PlacementPlan,
        vertex: Vertex,
        candidates: Sequence[Tier],
    ) -> Tier:
        """Equation (2): the tier minimising processing plus input-pull delay."""
        best_tier = candidates[0]
        best_cost = float("inf")
        for tier in candidates:
            cost = self.vertex_latency(vertex, tier)
            cost += self.input_pull_latency(graph, plan, vertex, tier)
            if cost < best_cost:
                best_cost = cost
                best_tier = tier
        return best_tier

    def largest_direct_successor(self, graph: DnnGraph, vertex: Vertex) -> Optional[Vertex]:
        """The successor with the longest processing time on the reference tier."""
        successors = graph.successors(vertex.index)
        if not successors:
            return None
        reference = self.config.reference_tier_for_successor
        return max(successors, key=lambda s: self.vertex_latency(s, reference))

    def lookahead_optimal_tier(
        self,
        graph: DnnGraph,
        plan: PlacementPlan,
        vertex: Vertex,
        successor: Vertex,
        candidates: Sequence[Tier],
    ) -> Tier:
        """Table-I joint evaluation of ``vertex`` and its largest successor.

        For every admissible pair ``(l_i, l_j)`` with ``l_j`` not earlier than
        ``l_i``, the total latency is the processing time of both layers plus
        the delay of pulling ``v_i``'s inputs to ``l_i`` and pushing its output
        to ``l_j``; the ``l_i`` of the cheapest pair wins.
        """
        best_tier = candidates[0]
        best_cost = float("inf")
        for tier_i in candidates:
            pull = self.input_pull_latency(graph, plan, vertex, tier_i)
            for tier_j in tiers_at_or_after(tier_i):
                cost = (
                    self.vertex_latency(vertex, tier_i)
                    + self.vertex_latency(successor, tier_j)
                    + pull
                    + self.transfer_latency(vertex.output_bytes, tier_i, tier_j)
                )
                if cost < best_cost:
                    best_cost = cost
                    best_tier = tier_i
        return best_tier

    def cumulative_optimal_tier(
        self,
        graph: DnnGraph,
        plan: PlacementPlan,
        vertex: Vertex,
        candidates: Sequence[Tier],
        remaining: Dict[Tier, float],
        frontier: Optional[LiveFrontier] = None,
    ) -> Tier:
        """Cumulative look-ahead: joint evaluation with the remaining network.

        ``remaining[t]`` is the total processing time on tier ``t`` of every
        vertex that has not been assigned yet (excluding ``vertex`` itself).
        The pair ``(l_i, l_j)`` is charged ``v_i`` on ``l_i``, the transfer of
        ``v_i``'s output from ``l_i`` to ``l_j``, the whole remainder on
        ``l_j`` and the live tensors' move to ``l_j``; this lets a single
        expensive transfer be amortised over every downstream layer instead
        of only the largest direct successor.  ``frontier`` is the caller's
        up-to-date :class:`LiveFrontier` (rebuilt from ``plan`` when absent).
        """
        if frontier is None:
            frontier = LiveFrontier.of_plan(graph, plan)
        live = frontier.live_for(vertex)
        # Every l_j of the admissible pairs is itself a candidate.
        live_cost = {tier: self._live_tensor_transfer(plan, live, tier) for tier in candidates}
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
                    + live_cost[tier_j]
                )
                if cost < best_cost:
                    best_cost = cost
                    best_tier = tier_i
        return best_tier

    def _live_tensor_transfer(
        self, plan: PlacementPlan, live: Sequence[Vertex], target: Tier
    ) -> float:
        """Cost of moving every *live* tensor to ``target``.

        A live tensor is the output of an already-assigned vertex that still
        has unassigned consumers (e.g. the skip branch of a residual block or
        the sibling branches of an Inception module).  If the remainder of the
        network runs on ``target``, those tensors must eventually cross to it,
        so the cumulative look-ahead charges them up front — without this term
        the look-ahead happily jumps to the cloud in the middle of a residual
        stage and is then surprised by the skip-connection transfer.

        ``live`` is :meth:`LiveFrontier.live_for` of the deciding vertex (its
        own inputs are excluded: the pull term charges them), computed once
        per decision, so one call costs ``O(|live|)`` — not the
        ``O(|V|·deg)`` scan of the whole assignment table.  The sum runs in
        ``plan.assignments`` insertion order.  On a complete plan nothing is
        live and the term is identically ``0.0``.
        """
        total = 0.0
        for producer in live:
            total += self.transfer_latency(
                producer.output_bytes, plan.assignments[producer.index], target
            )
        return total

    def _default_remaining(self, graph: DnnGraph, vertex: Vertex) -> Dict[Tier, float]:
        """Remaining-work estimate when no explicit bookkeeping is available.

        Used by the dynamic local updates: every vertex added after ``vertex``
        (insertion order is topological) counts as "remaining".  It costs
        ``O(|V|)``; :class:`~repro.core.dynamic.DynamicRepartitioner` memoizes
        it per profile.
        """
        remaining = {tier: 0.0 for tier in TIER_ORDER}
        for other in graph.vertices[vertex.index + 1 :]:
            for tier in TIER_ORDER:
                remaining[tier] += self.vertex_latency(other, tier)
        return remaining

    def optimal_tier(
        self,
        graph: DnnGraph,
        plan: PlacementPlan,
        vertex: Vertex,
        remaining: Optional[Dict[Tier, float]] = None,
        frontier: Optional[LiveFrontier] = None,
    ) -> Tier:
        """``get_opt_loc``: the full per-vertex decision of Algorithm 1.

        ``remaining`` and ``frontier`` are the caller's bookkeeping for the
        cumulative look-ahead; each is derived from the graph and ``plan``
        when absent.
        """
        candidates = self.potential_tiers(graph, plan, vertex)
        if candidates == [Tier.CLOUD]:
            return Tier.CLOUD

        input_bytes = sum(p.output_bytes for p in graph.predecessors(vertex.index))
        output_bytes = vertex.output_bytes
        successor = self.largest_direct_successor(graph, vertex)
        use_lookahead = (
            self.config.lookahead != "none"
            and successor is not None
            and input_bytes <= output_bytes
        )
        if not use_lookahead:
            return self.local_optimal_tier(graph, plan, vertex, candidates)
        if self.config.lookahead == "successor":
            return self.lookahead_optimal_tier(graph, plan, vertex, successor, candidates)
        if remaining is None:
            remaining = self._default_remaining(graph, vertex)
        return self.cumulative_optimal_tier(
            graph, plan, vertex, candidates, remaining, frontier
        )

    # ------------------------------------------------------------------ #
    # SIS update (Algorithm 1 line 13)
    # ------------------------------------------------------------------ #
    def sis_update(self, graph: DnnGraph, plan: PlacementPlan, layer: Sequence[Vertex]) -> int:
        """Pull SIS vertices forward to their sibling's tier (Proposition 2).

        Returns the number of vertices whose tier was changed.  The update is
        skipped when it would violate Proposition 1 for an already-assigned
        successor of the SIS vertex (a defensive deviation from the paper,
        which does not discuss this corner case).
        """
        changed = 0
        for vertex in layer:
            vertex_tier = plan.tier_of(vertex.index)
            for sibling in graph.sis_vertices(vertex.index):
                if sibling.index not in plan.assignments:
                    continue
                sibling_tier = plan.tier_of(sibling.index)
                if sibling_tier.position >= vertex_tier.position:
                    continue  # sibling is not on an earlier tier
                if self._sis_move_is_safe(graph, plan, sibling, vertex_tier):
                    plan.assign(sibling.index, vertex_tier)
                    changed += 1
        return changed

    @staticmethod
    def _sis_move_is_safe(
        graph: DnnGraph, plan: PlacementPlan, sibling: Vertex, new_tier: Tier
    ) -> bool:
        for successor in graph.successors(sibling.index):
            if successor.index not in plan.assignments:
                continue
            if plan.tier_of(successor.index).position < new_tier.position:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Full algorithm
    # ------------------------------------------------------------------ #
    def partition(self, graph: DnnGraph) -> PlacementPlan:
        """Run Algorithm 1 and return a validated three-way placement plan."""
        plan = PlacementPlan(graph)
        frontier = LiveFrontier(graph)
        # Remaining processing time per tier over all still-unassigned vertices
        # (used by the cumulative look-ahead).
        remaining: Dict[Tier, float] = {
            tier: sum(self.vertex_latency(v, tier) for v in graph) for tier in TIER_ORDER
        }
        for layer in graph.graph_layers():
            for vertex in layer:
                for tier in TIER_ORDER:
                    remaining[tier] -= self.vertex_latency(vertex, tier)
                if not graph.predecessor_indices(vertex.index):
                    # The virtual input vertex: l^opt_0 = device.
                    tier = Tier.DEVICE
                else:
                    tier = self.optimal_tier(
                        graph, plan, vertex, remaining=dict(remaining), frontier=frontier
                    )
                plan.assign(vertex.index, tier)
                frontier.assigned(vertex.index)
            if self.config.enable_sis_update:
                self.sis_update(graph, plan, layer)
        plan.validate()
        return plan
