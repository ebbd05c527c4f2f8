"""Dynamic, local re-partitioning (section III-E, last paragraph).

Resource and network fluctuations change the per-layer processing times and
transfer delays, which can invalidate a placement.  Re-running HPA over the
whole DAG on every fluctuation is wasteful, so D3:

* guards re-partitioning with upper/lower *thresholds* — only when a monitored
  quantity leaves the band ``[lower, upper]`` (relative to the value used for
  the current plan) is anything recomputed, and
* recomputes only *locally*: the vertices whose optimal tier may have changed,
  their SIS vertices, their direct successors and the SIS vertices of those
  successors.

The :class:`DynamicRepartitioner` tracks how many vertices each adaptation
re-evaluated, so the ablation benchmark can compare local updates against full
re-partitioning both in plan quality (latency regret) and in work done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.hpa import HPAConfig, HorizontalPartitioner
from repro.core.placement import PlacementPlan, PlanEvaluator, Tier
from repro.graph.dag import DnnGraph, Vertex
from repro.network.conditions import NetworkCondition
from repro.profiling.profiler import LatencyProfile


@dataclass(frozen=True)
class RepartitionThresholds:
    """Relative-change band outside which re-partitioning is triggered.

    A monitored ratio ``new / reference`` inside ``[lower, upper]`` is ignored.
    """

    lower: float = 0.75
    upper: float = 1.25

    def __post_init__(self) -> None:
        if not 0 < self.lower <= 1.0:
            raise ValueError("lower threshold must be in (0, 1]")
        if self.upper < 1.0:
            raise ValueError("upper threshold must be >= 1")

    def exceeded(self, reference: float, new: float) -> bool:
        """True when the relative change leaves the tolerated band."""
        if reference <= 0:
            return new > 0
        ratio = new / reference
        return ratio < self.lower or ratio > self.upper


@dataclass
class RepartitionEvent:
    """Outcome of one adaptation step."""

    triggered: bool
    changed_vertices: List[int] = field(default_factory=list)
    reevaluated_vertices: int = 0
    plan: Optional[PlacementPlan] = None
    latency_before_s: float = 0.0
    latency_after_s: float = 0.0


class DynamicRepartitioner:
    """Maintain a placement plan under drifting latencies and bandwidths.

    Parameters
    ----------
    graph:
        The partitioned DNN.
    profile, network:
        The conditions the initial plan was computed for (the references the
        thresholds compare against).
    thresholds:
        The tolerated relative-change band.
    config:
        HPA heuristic configuration used for both the initial plan and the
        local updates.
    economics, weights:
        Optional multi-objective configuration forwarded to every
        :class:`~repro.core.hpa.HorizontalPartitioner` this repartitioner
        constructs, so local updates keep optimising the same weighted
        objective the initial plan was computed under.
    """

    def __init__(
        self,
        graph: DnnGraph,
        profile: LatencyProfile,
        network: NetworkCondition,
        thresholds: Optional[RepartitionThresholds] = None,
        config: Optional[HPAConfig] = None,
        economics=None,
        weights=None,
    ) -> None:
        self.graph = graph
        self.thresholds = thresholds or RepartitionThresholds()
        self.config = config or HPAConfig()
        self.economics = economics
        self.weights = weights
        self.reference_profile = profile
        self.reference_network = network
        self.current_profile = profile
        self.current_network = network
        #: Per-link reference bandwidths (Mbps, keyed by link id) for
        #: topology-aware drift detection; ``None`` until first observed.
        self.reference_link_mbps: Optional[Dict[str, float]] = None
        #: Optional :class:`~repro.runtime.calibration.OnlineCostCalibrator`
        #: attached by the serving layer; the adaptation evaluators then
        #: price plans with observed rather than analytic costs.  Tier
        #: reassignment itself stays analytic (HPA is deterministic and the
        #: calibrated evaluator only changes the reported latencies).
        self.calibration = None
        #: ``_default_remaining`` per vertex index under ``_remaining_profile``:
        #: remaining work depends on the profile only (bandwidth drift leaves
        #: it alone), so the memo lives until the profile object changes.
        self._remaining_memo: Dict[int, Dict[Tier, float]] = {}
        self._remaining_profile: Optional[LatencyProfile] = None
        partitioner = self._partitioner(profile, network)
        self.plan = partitioner.partition(graph)

    def _partitioner(
        self, profile: LatencyProfile, network: NetworkCondition
    ) -> HorizontalPartitioner:
        """An HPA instance carrying this repartitioner's objective."""
        return HorizontalPartitioner(
            profile,
            network,
            self.config,
            economics=self.economics,
            weights=self.weights,
        )

    # ------------------------------------------------------------------ #
    # Change detection
    # ------------------------------------------------------------------ #
    def _bandwidth_changed(self, network: NetworkCondition) -> bool:
        pairs = (("device", "edge"), ("edge", "cloud"), ("device", "cloud"))
        for src, dst in pairs:
            if self.thresholds.exceeded(
                self.reference_network.bandwidth_mbps(src, dst),
                network.bandwidth_mbps(src, dst),
            ):
                return True
        return False

    def forecast_breach(self, forecast: NetworkCondition) -> bool:
        """True when a *predicted* condition would leave the reactive band.

        The predictive serving path asks this with the forecaster's
        horizon-ahead condition: an affirmative answer triggers the same
        local update the reactive rule would perform later, just earlier.
        """
        return self._bandwidth_changed(forecast)

    def _links_changed(self, link_bandwidths: Optional[Dict[str, float]]) -> bool:
        """True when any physical link's rate left the band.

        Per-link watching is strictly finer than the tier-pair check: on a
        multi-hop or multi-wire topology a single congested link can stay
        invisible in the harmonic tier-pair rate while the wire itself (and
        every transfer crossing it) slowed beyond the threshold.
        """
        if not link_bandwidths:
            return False
        if self.reference_link_mbps is None:
            # First observation seeds the reference; nothing to compare yet.
            self.reference_link_mbps = dict(link_bandwidths)
            return False
        return any(
            self.thresholds.exceeded(self.reference_link_mbps.get(link_id, mbps), mbps)
            for link_id, mbps in link_bandwidths.items()
        )

    def _drifted_vertices(self, profile: LatencyProfile) -> List[int]:
        """Vertices whose latency on their assigned tier left the band."""
        if profile is self.reference_profile:
            return []  # every ratio is 1.0, inside any band
        drifted = []
        for vertex in self.graph:
            tier = self.plan.tier_of(vertex.index)
            reference = self.reference_profile.get(vertex.index, tier)
            new = profile.get(vertex.index, tier)
            if self.thresholds.exceeded(reference, new):
                drifted.append(vertex.index)
        return drifted

    # ------------------------------------------------------------------ #
    # Local update
    # ------------------------------------------------------------------ #
    def _local_scope(self, seeds: Sequence[int]) -> List[Vertex]:
        """The vertices HPA re-evaluates for a set of changed vertices.

        The paper's rule: the changed vertex itself, its SIS vertices, its
        direct successors, and the SIS vertices of its direct successors.
        """
        scope: Set[int] = set()
        for seed in seeds:
            scope.add(seed)
            for sibling in self.graph.sis_vertices(seed):
                scope.add(sibling.index)
            for successor in self.graph.successors(seed):
                scope.add(successor.index)
                for sibling in self.graph.sis_vertices(successor.index):
                    scope.add(sibling.index)
        # Insertion (= index) order is topological.
        return [self.graph.vertex(index) for index in sorted(scope)]

    def _reassign_locally(
        self,
        scope: Sequence[Vertex],
        partitioner: HorizontalPartitioner,
    ) -> List[int]:
        """Recompute the optimal tier of each vertex in ``scope`` in topo order."""
        changed = []
        cumulative = self.config.lookahead == "cumulative"
        for vertex in scope:
            if not self.graph.predecessor_indices(vertex.index):
                continue  # the virtual input vertex stays on the device
            remaining = self._remaining_after(partitioner, vertex) if cumulative else None
            new_tier = partitioner.optimal_tier(self.graph, self.plan, vertex, remaining)
            if new_tier != self.plan.tier_of(vertex.index) and self._move_is_safe(vertex, new_tier):
                self.plan.assign(vertex.index, new_tier)
                changed.append(vertex.index)
        return changed

    def _remaining_after(
        self, partitioner: HorizontalPartitioner, vertex: Vertex
    ) -> Dict[Tier, float]:
        """Memoized :meth:`HorizontalPartitioner._default_remaining`."""
        if partitioner.profile is not self._remaining_profile:
            self._remaining_profile = partitioner.profile
            self._remaining_memo = {}
        remaining = self._remaining_memo.get(vertex.index)
        if remaining is None:
            remaining = partitioner._default_remaining(self.graph, vertex)
            self._remaining_memo[vertex.index] = remaining
        return dict(remaining)

    def _move_is_safe(self, vertex: Vertex, new_tier: Tier) -> bool:
        """Moving a vertex must not violate Proposition 1 for its successors."""
        for successor in self.graph.successors(vertex.index):
            if successor.index not in self.plan.assignments:
                continue
            if self.plan.tier_of(successor.index).position < new_tier.position:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def observe(
        self,
        profile: Optional[LatencyProfile] = None,
        network: Optional[NetworkCondition] = None,
        link_bandwidths: Optional[Dict[str, float]] = None,
    ) -> RepartitionEvent:
        """Feed new runtime conditions; adapt the plan locally if needed.

        ``link_bandwidths`` (Mbps keyed by topology link id) enables
        per-physical-link drift detection on arbitrary topologies; the first
        observation records the reference rates.
        """
        profile = profile or self.current_profile
        network = network or self.current_network
        self.current_profile = profile
        self.current_network = network

        # One evaluator prices both plans: its memos are pure functions of
        # (profile, network, calibration), all fixed for this observation.
        evaluator = PlanEvaluator(profile, network, calibration=self.calibration)
        latency_before = evaluator.objective(self.plan)

        drifted = self._drifted_vertices(profile)
        bandwidth_drift = self._bandwidth_changed(network) or self._links_changed(
            link_bandwidths
        )
        if not drifted and not bandwidth_drift:
            return RepartitionEvent(
                triggered=False,
                plan=self.plan,
                latency_before_s=latency_before,
                latency_after_s=latency_before,
            )

        if bandwidth_drift:
            # Bandwidth affects every cut edge: seed the scope with the
            # endpoints of the current cut.
            cut = self.plan.cut_edges()
            drifted = sorted(
                set(drifted)
                | {src.index for src, _ in cut}
                | {dst.index for _, dst in cut}
            )

        partitioner = self._partitioner(profile, network)
        scope = self._local_scope(drifted)
        changed = self._reassign_locally(scope, partitioner)
        self.plan.validate()

        latency_after = evaluator.objective(self.plan)
        # Accept the new conditions as the reference going forward.
        self.reference_profile = profile
        self.reference_network = network
        if link_bandwidths:
            self.reference_link_mbps = dict(link_bandwidths)
        return RepartitionEvent(
            triggered=True,
            changed_vertices=changed,
            reevaluated_vertices=len(scope),
            plan=self.plan,
            latency_before_s=latency_before,
            latency_after_s=latency_after,
        )

    def observe_topology(
        self,
        topology,
        at_s: float = 0.0,
        profile: Optional[LatencyProfile] = None,
    ) -> RepartitionEvent:
        """Sample a :class:`~repro.network.topology.Topology` at ``at_s``.

        Every declared link is sampled (static rates, trace values, inherited
        tier-pair rates) and watched individually; the planning-view condition
        derived from those samples feeds the usual tier-pair check, so a
        single drifting wire triggers an adaptation, not just backbone drift.
        """
        # Inherited links price against the *observed* topology's own base
        # condition (falling back to our reference only when it has none):
        # pricing them against the reference would compare the reference with
        # itself and mask base-condition drift entirely.
        base = topology.base_network or self.reference_network
        link_mbps = topology.link_bandwidths_at(at_s, base=base)
        condition = topology.planning_condition(base=base, at_s=at_s)
        return self.observe(profile=profile, network=condition, link_bandwidths=link_mbps)

    def full_repartition(self) -> RepartitionEvent:
        """Re-run HPA from scratch under the current conditions (the baseline
        the paper's local updates are compared against)."""
        evaluator = PlanEvaluator(
            self.current_profile, self.current_network, calibration=self.calibration
        )
        latency_before = evaluator.objective(self.plan)
        partitioner = self._partitioner(self.current_profile, self.current_network)
        old_assignments = dict(self.plan.assignments)
        self.plan = partitioner.partition(self.graph)
        changed = [
            index
            for index, tier in self.plan.assignments.items()
            if old_assignments.get(index) != tier
        ]
        latency_after = evaluator.objective(self.plan)
        self.reference_profile = self.current_profile
        self.reference_network = self.current_network
        return RepartitionEvent(
            triggered=True,
            changed_vertices=changed,
            reevaluated_vertices=len(self.graph),
            plan=self.plan,
            latency_before_s=latency_before,
            latency_after_s=latency_after,
        )
