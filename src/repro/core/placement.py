"""Tier model and placement plans.

The paper orders the computing tiers ``device ≻ edge ≻ cloud`` (section III-C):
data flows from the device, across the edge, to the cloud, and a vertex may
never be placed on a tier *earlier* in that flow than the latest tier already
holding one of its inputs (Proposition 1).

A :class:`PlacementPlan` maps every vertex of a DNN DAG to a tier; the
:class:`PlanEvaluator` computes the paper's objective

``Θ = Σ_i t^{l_i}_i + Σ_{(i,j) ∈ L} t^{[l_i, l_j]}_{ij}``

as well as the evaluation metrics: per-tier processing time (Table II),
end-to-end latency (Figs. 9, 10, 12) and bytes shipped to the cloud over the
backbone (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.graph.dag import DnnGraph, Vertex

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core->runtime import
    from repro.core.economics import ObjectiveWeights, TierEconomics
    from repro.runtime.calibration import OnlineCostCalibrator
from repro.network.conditions import NetworkCondition
from repro.profiling.hardware import batch_cost_s
from repro.profiling.profiler import LatencyProfile


class Tier(str, Enum):
    """The three computing tiers of the edge-computing paradigm."""

    DEVICE = "device"
    EDGE = "edge"
    CLOUD = "cloud"

    @property
    def position(self) -> int:
        """Position along the data flow: device=0, edge=1, cloud=2."""
        return _TIER_POSITION[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Tiers in data-flow order (device first).  The paper's precedence order is
#: ``device ≻ edge ≻ cloud``; "later in this list" == "lower precedence" ==
#: "further along the inference pipeline".
TIER_ORDER: Tuple[Tier, Tier, Tier] = (Tier.DEVICE, Tier.EDGE, Tier.CLOUD)

#: ``Tier.position`` as a constant table (the planners ask for it in their
#: innermost loops).
_TIER_POSITION: Dict[Tier, int] = {tier: i for i, tier in enumerate(TIER_ORDER)}


def tiers_at_or_after(tier: Tier) -> List[Tier]:
    """Tiers reachable from ``tier`` without moving data backwards.

    This is ``get_loc_choice`` of Algorithm 1: if the latest predecessor tier
    is ``edge`` the potential tiers are ``{edge, cloud}``.
    """
    return list(TIER_ORDER[tier.position :])


def latest_tier(tiers: Iterable[Tier]) -> Tier:
    """The tier furthest along the pipeline (``max`` under ``d ≻ e ≻ c`` is the
    *earliest*; this helper returns the opposite and is rarely what Prop. 1
    needs — see :func:`earliest_tier`)."""
    tier_list = list(tiers)
    if not tier_list:
        raise ValueError("need at least one tier")
    return max(tier_list, key=lambda t: t.position)


def earliest_tier(tiers: Iterable[Tier]) -> Tier:
    """The tier earliest in the pipeline among ``tiers``.

    Proposition 1 states ``max{l_h1, ..., l_hm} ⪰ l_i`` under the precedence
    order ``d ≻ e ≻ c``; the maximum under that order is the tier with the
    smallest pipeline position, i.e. the earliest tier, which then bounds how
    early ``v_i`` may be placed.
    """
    tier_list = list(tiers)
    if not tier_list:
        raise ValueError("need at least one tier")
    return min(tier_list, key=lambda t: t.position)


class PlacementError(ValueError):
    """Raised when a placement plan is structurally invalid."""


def _unassigned(vertex_index: int) -> PlacementError:
    return PlacementError(f"vertex {vertex_index} has no tier assignment")


@dataclass
class PlacementPlan:
    """Assignment of every DNN vertex to a computing tier."""

    graph: DnnGraph
    assignments: Dict[int, Tier] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def assign(self, vertex_index: int, tier: Tier) -> None:
        self.assignments[vertex_index] = Tier(tier)

    def tier_of(self, vertex_index: int) -> Tier:
        if vertex_index not in self.assignments:
            raise _unassigned(vertex_index)
        return self.assignments[vertex_index]

    def vertices_on(self, tier: Tier) -> List[Vertex]:
        """All vertices placed on ``tier``, in topological order."""
        tier = Tier(tier)
        return [v for v in self.graph.topological_order() if self.assignments.get(v.index) == tier]

    def tier_counts(self) -> Dict[Tier, int]:
        """Number of vertices on each tier."""
        counts = {tier: 0 for tier in TIER_ORDER}
        for tier in self.assignments.values():
            counts[tier] += 1
        return counts

    def is_complete(self) -> bool:
        """True when every vertex of the graph has an assignment."""
        return len(self.assignments) == len(self.graph)

    def copy(self) -> "PlacementPlan":
        return PlacementPlan(self.graph, dict(self.assignments))

    def signature(self) -> Tuple[Tuple[int, Tier], ...]:
        """Hashable content of the assignment: equal plans share it."""
        return tuple(sorted(self.assignments.items()))

    # ------------------------------------------------------------------ #
    def cut_edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Directed links whose endpoints sit on different tiers."""
        tiers = self.tiers_by_index()
        return [
            (src, dst) for src, dst in self.graph.edges() if tiers[src.index] != tiers[dst.index]
        ]

    def validate(self) -> None:
        """Check completeness and Proposition 1.

        Raises
        ------
        PlacementError
            If a vertex is unassigned, or placed earlier in the pipeline than
            the earliest tier of its predecessors (which would require sending
            data backwards from a later tier).
        """
        if not self.is_complete():
            missing = [v.name for v in self.graph if v.index not in self.assignments]
            raise PlacementError(f"unassigned vertices: {missing}")
        graph = self.graph
        assignments = self.assignments
        for vertex in graph:
            preds = graph.predecessor_indices(vertex.index)
            if not preds:
                continue
            try:
                bound = min(_TIER_POSITION[assignments[p]] for p in preds)
                tier = assignments[vertex.index]
            except KeyError as missing:
                raise _unassigned(missing.args[0]) from None
            if _TIER_POSITION[tier] < bound:
                raise PlacementError(
                    f"vertex {vertex.name!r} on {tier} violates "
                    f"Proposition 1 (earliest predecessor tier is {TIER_ORDER[bound]})"
                )

    def tiers_by_index(self) -> List[Tier]:
        """Every vertex's tier, indexed by vertex index (one table read each)."""
        assignments = self.assignments
        try:
            return [assignments[vertex.index] for vertex in self.graph]
        except KeyError as missing:
            raise _unassigned(missing.args[0]) from None

    def describe(self) -> str:
        """Short human-readable description of the split."""
        counts = self.tier_counts()
        return (
            f"{self.graph.name}: device={counts[Tier.DEVICE]} "
            f"edge={counts[Tier.EDGE]} cloud={counts[Tier.CLOUD]} "
            f"({len(self.cut_edges())} cut edges)"
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def single_tier(cls, graph: DnnGraph, tier: Tier) -> "PlacementPlan":
        """Plan that places the entire network on one tier.

        The virtual input vertex always stays on the device (the device
        collects the raw input), which charges the raw-input transfer to the
        executing tier exactly like the paper's device/edge/cloud-only
        baselines.
        """
        plan = cls(graph)
        tier = Tier(tier)
        for vertex in graph:
            if vertex.index == graph.input_vertex.index:
                plan.assign(vertex.index, Tier.DEVICE)
            else:
                plan.assign(vertex.index, tier)
        return plan

    @classmethod
    def from_mapping(cls, graph: DnnGraph, mapping: Mapping[int, Tier]) -> "PlacementPlan":
        """Plan from an explicit ``vertex index -> tier`` mapping."""
        plan = cls(graph)
        for index, tier in mapping.items():
            plan.assign(index, Tier(tier))
        return plan


@dataclass(frozen=True)
class PlanMetrics:
    """Evaluation metrics of one placement plan under one scenario."""

    end_to_end_latency_s: float
    compute_latency_s: Dict[Tier, float]
    transfer_latency_s: float
    bytes_to_cloud: int
    bytes_device_to_edge: int
    cut_edge_count: int

    @property
    def total_compute_latency_s(self) -> float:
        return sum(self.compute_latency_s.values())

    @property
    def megabits_to_cloud(self) -> float:
        """Backbone traffic in megabits (the unit of Fig. 13)."""
        return self.bytes_to_cloud * 8.0 / 1e6


class PlanEvaluator:
    """Compute the paper's objective and evaluation metrics for a plan.

    The evaluator charges every vertex its per-tier latency from the
    :class:`~repro.profiling.profiler.LatencyProfile` and every cut edge the
    transmission delay of the producing vertex's output over the corresponding
    inter-tier link, exactly as in the objective ``Θ`` of section III-E.
    """

    def __init__(
        self,
        profile: LatencyProfile,
        network: NetworkCondition,
        calibration: Optional["OnlineCostCalibrator"] = None,
        economics: Optional["TierEconomics"] = None,
        weights: Optional["ObjectiveWeights"] = None,
    ) -> None:
        self.profile = profile
        self.network = network
        #: Optional online calibrator: when set, observed per-(model, tier,
        #: layer) latencies and tier-pair throughput override the analytic
        #: values.
        self.calibration = calibration
        #: Optional per-tier energy/pricing view plus scalarisation weights.
        #: ``objective`` only leaves the pure-latency code path when both are
        #: present and the weights actually put mass on another axis, so the
        #: default configuration stays bit-identical (the goldens pin it).
        self.economics = economics
        self.weights = weights
        self._weighted = (
            economics is not None and weights is not None and not weights.is_latency_only
        )
        self._calibration_rev = calibration.revision if calibration is not None else -1
        # Per-instance memo tables.  A profile lookup and a tier-pair
        # transfer are pure functions of their keys (noise is baked into the
        # profile at measurement time), and the serve path re-asks for the
        # same handful of (vertex, tier) pairs once per candidate plan per
        # request — memoizing turns the inner Θ loops into dict hits.  With
        # a calibrator the memos are additionally keyed by its revision:
        # stale corrected values are flushed the moment an estimate moves.
        self._vertex_memo: Dict[tuple, float] = {}
        self._edge_memo: Dict[tuple, float] = {}

    # ------------------------------------------------------------------ #
    def _sync_calibration(self) -> None:
        """Flush the memos when the calibrator learned something new."""
        revision = self.calibration.revision
        if revision != self._calibration_rev:
            self._calibration_rev = revision
            self._vertex_memo.clear()
            self._edge_memo.clear()

    def vertex_latency(self, vertex: Vertex, tier: Tier) -> float:
        """``t^{l_i}_i`` for one vertex."""
        if self.calibration is not None:
            self._sync_calibration()
        key = (vertex.index, tier)
        memo = self._vertex_memo
        if key not in memo:
            value = self.profile.get(vertex.index, tier)
            if self.calibration is not None:
                value = self.calibration.layer_seconds(
                    vertex.name, tier.value, value, self.profile.model_name
                )
            memo[key] = value
        return memo[key]

    def edge_latency(self, src: Vertex, src_tier: Tier, dst_tier: Tier) -> float:
        """``t^{[l_i, l_j]}_{ij}`` for one directed link."""
        if src_tier == dst_tier:
            return 0.0
        if self.calibration is not None:
            self._sync_calibration()
        # output_bytes joins the key so evaluator reuse across graphs whose
        # vertex indices collide can never alias a different payload.
        key = (src.index, src.output_bytes, src_tier, dst_tier)
        memo = self._edge_memo
        if key not in memo:
            value = self.network.transfer_seconds(
                src.output_bytes, src_tier.value, dst_tier.value
            )
            if self.calibration is not None:
                value = self.calibration.pair_transfer_seconds(
                    src.output_bytes, src_tier.value, dst_tier.value, value
                )
            memo[key] = value
        return memo[key]

    # ------------------------------------------------------------------ #
    # Batch-aware cost hooks (the serving scheduler's planning view)
    # ------------------------------------------------------------------ #
    def batched_vertex_latency(
        self, vertex: Vertex, tier: Tier, batch_size: int, batch_exponent: float = 0.85
    ) -> float:
        """Amortized per-request cost of one vertex inside a micro-batch.

        ``batch_size`` same-layer requests executed as one batch cost
        ``t_1 * batch_size ** batch_exponent`` wall-clock (the sublinear
        curve of :func:`repro.profiling.hardware.batch_cost_s`); each member
        is charged an equal share.  ``batch_size=1`` reduces exactly to
        :meth:`vertex_latency`, so unbatched planning is unchanged.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        solo = self.vertex_latency(vertex, tier)
        if batch_size == 1:
            return solo
        return batch_cost_s([solo] * batch_size, batch_exponent) / batch_size

    def batched_objective(
        self,
        plan: PlacementPlan,
        batch_size: int,
        tier_exponents: Optional[Mapping[Tier, float]] = None,
    ) -> float:
        """The objective ``Θ`` at a steady micro-batch occupancy.

        Compute terms amortize by the per-tier batch curve (``tier_exponents``
        maps each tier to its hardware's ``batch_exponent``; omitted tiers
        use the CPU-class 0.85); transfer terms are per-request activations
        and do not amortize.  This is the cost the plan cache can hand an
        SLO/throughput planner deciding whether a deeper batch is worth its
        added queueing wait — ``batched_objective(plan, 1)`` is exactly
        :meth:`objective`.
        """
        exponents = dict(tier_exponents or {})
        graph = plan.graph
        tiers = plan.tiers_by_index()
        batched = self.batched_vertex_latency
        compute = sum(
            batched(vertex, tier, batch_size, exponents.get(tier, 0.85))
            for vertex, tier in zip(graph, tiers)
        )
        edge = self.edge_latency
        transfer = sum(
            edge(src, tiers[src.index], tiers[dst.index]) for src, dst in graph.edges()
        )
        return compute + transfer

    # ------------------------------------------------------------------ #
    # Economic axes (planning estimates, not metered serving integrals)
    # ------------------------------------------------------------------ #
    def plan_energy_j(self, plan: PlacementPlan) -> float:
        """Estimated joules of one inference under the plan.

        Compute energy charges each vertex its FLOPs at the hosting tier's
        J/FLOP; radio energy charges each cut edge with a device endpoint the
        payload at the device's radio J/byte.  Requires ``economics``.
        """
        if self.economics is None:
            raise ValueError("plan_energy_j needs a TierEconomics view")
        economics = self.economics
        total = 0.0
        for vertex in plan.graph:
            total += economics.compute_joules(vertex.flops, plan.tier_of(vertex.index))
        for src, dst in plan.graph.edges():
            total += economics.transfer_joules(
                src.output_bytes, plan.tier_of(src.index), plan.tier_of(dst.index)
            )
        return total

    def plan_cost_usd(self, plan: PlacementPlan) -> float:
        """Estimated dollars of one inference: compute seconds × tier $/s."""
        if self.economics is None:
            raise ValueError("plan_cost_usd needs a TierEconomics view")
        economics = self.economics
        return sum(
            economics.compute_cost_usd(
                self.vertex_latency(vertex, plan.tier_of(vertex.index)),
                plan.tier_of(vertex.index),
            )
            for vertex in plan.graph
        )

    # ------------------------------------------------------------------ #
    def objective(self, plan: PlacementPlan) -> float:
        """The score the planners minimise.

        By default this is the total latency ``Θ`` of the paper, defined as
        the batch-1 point of :meth:`batched_objective` so the Θ loops exist
        exactly once (``batched_vertex_latency`` reduces to
        ``vertex_latency`` at batch 1, making the delegation float-exact).
        When the evaluator carries non-latency-only ``weights`` plus a
        ``TierEconomics`` view, the score becomes the weighted scalarisation
        over (latency s, energy J, cost $); the default path is untouched.
        """
        latency = self.batched_objective(plan, 1)
        if not self._weighted:
            return latency
        return self.weights.combine(
            latency, self.plan_energy_j(plan), self.plan_cost_usd(plan)
        )

    def metrics(self, plan: PlacementPlan) -> PlanMetrics:
        """Full metric breakdown used by the experiment harnesses."""
        graph = plan.graph
        compute_by_tier: Dict[Tier, float] = {tier: 0.0 for tier in TIER_ORDER}
        for vertex in graph:
            tier = plan.tier_of(vertex.index)
            compute_by_tier[tier] += self.vertex_latency(vertex, tier)

        transfer = 0.0
        bytes_to_cloud = 0
        bytes_device_to_edge = 0
        cut_edges = 0
        for src, dst in graph.edges():
            src_tier = plan.tier_of(src.index)
            dst_tier = plan.tier_of(dst.index)
            if src_tier == dst_tier:
                continue
            cut_edges += 1
            transfer += self.edge_latency(src, src_tier, dst_tier)
            if dst_tier == Tier.CLOUD and src_tier != Tier.CLOUD:
                bytes_to_cloud += src.output_bytes
            if src_tier == Tier.DEVICE and dst_tier == Tier.EDGE:
                bytes_device_to_edge += src.output_bytes

        end_to_end = sum(compute_by_tier.values()) + transfer
        return PlanMetrics(
            end_to_end_latency_s=end_to_end,
            compute_latency_s=compute_by_tier,
            transfer_latency_s=transfer,
            bytes_to_cloud=bytes_to_cloud,
            bytes_device_to_edge=bytes_device_to_edge,
            cut_edge_count=cut_edges,
        )

    # ------------------------------------------------------------------ #
    # Memory-constrained planning (weights are not free)
    # ------------------------------------------------------------------ #
    # ``artifact`` is duck-typed (a repro.runtime.artifacts.ModelArtifact):
    # the placement layer stays import-free of the runtime subsystem.
    def tier_weight_bytes(self, plan: PlacementPlan, artifact) -> Dict[Tier, int]:
        """Resident bytes the plan demands per tier: the weights of every
        stage placed there plus the tier's peak activation working set."""
        weights: Dict[Tier, int] = {tier: 0 for tier in TIER_ORDER}
        activations: Dict[Tier, int] = {tier: 0 for tier in TIER_ORDER}
        hosted: Dict[Tier, bool] = {tier: False for tier in TIER_ORDER}
        for vertex in plan.graph:
            tier = plan.tier_of(vertex.index)
            hosted[tier] = True
            weights[tier] += artifact.vertex_weight_bytes.get(vertex.index, 0)
            activation = artifact.vertex_activation_bytes.get(vertex.index, 0)
            if activation > activations[tier]:
                activations[tier] = activation
        return {
            tier: (weights[tier] + activations[tier]) if hosted[tier] else 0
            for tier in TIER_ORDER
        }

    def memory_feasible(
        self, plan: PlacementPlan, artifact, capacities: Mapping[Tier, int]
    ) -> bool:
        """True when every tier's resident footprint fits its capacity.

        ``capacities`` maps tiers to byte budgets (the smallest node of the
        tier, so a feasible plan fits on *any* member); tiers absent from the
        mapping are unconstrained.
        """
        needed = self.tier_weight_bytes(plan, artifact)
        for tier, bytes_needed in needed.items():
            capacity = capacities.get(tier)
            if capacity is not None and bytes_needed > capacity:
                return False
        return True

    def weight_movement_s(self, plan: PlacementPlan, artifact, codec) -> float:
        """One-time weight-movement cost of the plan under a codec.

        Artifacts live compressed in the cloud store: device/edge stages ship
        their compressed weights over the modelled wires and decompress on
        arrival; cloud stages decompress in place.  Adding this term to the
        objective is what lets tight memory (or a slow symmetric codec) flip
        the optimal partition toward the store.
        """
        per_tier: Dict[Tier, int] = {}
        for vertex in plan.graph:
            tier = plan.tier_of(vertex.index)
            per_tier[tier] = per_tier.get(tier, 0) + artifact.vertex_weight_bytes.get(
                vertex.index, 0
            )
        total = 0.0
        for tier, weight in per_tier.items():
            if weight <= 0:
                continue
            if tier != Tier.CLOUD:
                total += self.network.transfer_seconds(
                    codec.compressed_bytes(weight), Tier.CLOUD.value, tier.value
                )
            total += codec.decompress_seconds(weight)
        return total
