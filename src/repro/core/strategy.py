"""The unified partitioning-strategy API.

The paper's evaluation is a matrix of *methods* (device/edge/cloud-only,
Neurosurgeon, DADS, HPA, HPA+VSM) crossed with models and network conditions.
Historically each method had a bespoke entry point and result type; this
module gives them one pluggable interface so that any method can be dropped
into the one-shot runner, the discrete-event serving simulator, the experiment
harnesses and the CLI without per-method glue:

* :class:`PartitionStrategy` — the protocol every method implements:
  ``name``, ``supports(graph)`` and ``plan(graph, profile, network,
  cluster_spec) -> PartitionPlan``;
* :class:`PartitionPlan` — the single normalized planning artifact (placement
  + optional VSM tiling + predicted :class:`~repro.core.placement.PlanMetrics`)
  consumed by the executor, the serving engine, the plan cache and the
  :class:`~repro.core.placement.PlanEvaluator`;
* the strategy registry — :func:`register_strategy`, :func:`get_strategy`,
  :func:`available_strategies`.

Strategies declare two capabilities the runtime keys off:

* ``supports_repartitioning`` — whether the method can adapt a live plan
  locally when conditions drift (only D3's HPA family can; every other method
  is re-planned from scratch on drift);
* ``measure_by_simulation`` — whether the method's headline latency is read
  off the discrete-event executor (D3, whose VSM tile parallelism the analytic
  evaluator cannot see) or off the analytic :class:`PlanEvaluator` (the
  paper's one-shot baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.economics import ObjectiveWeights, TierEconomics

from repro.core.hpa import HPAConfig, HorizontalPartitioner
from repro.core.placement import PlacementPlan, PlanEvaluator, PlanMetrics, Tier
from repro.core.vsm import VerticalSeparationModule, VSMPlan
from repro.graph.dag import DnnGraph
from repro.network.conditions import NetworkCondition
from repro.profiling.profiler import LatencyProfile

try:  # pragma: no cover - version-dependent typing import
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


class StrategyUnsupportedError(ValueError):
    """Raised when a strategy is asked to plan a graph it declined.

    Callers should consult :meth:`PartitionStrategy.supports` first; the
    scenario runner and the serving layer use it to report the method as
    unavailable instead of catching per-method exception types.
    """


class UnknownStrategyError(KeyError):
    """Raised when a method name is not in the strategy registry."""

    def __str__(self) -> str:  # KeyError repr-quotes its message; undo that.
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class ClusterSpec:
    """The deployment facts a strategy may tailor its plan to.

    This is deliberately lighter than :class:`~repro.runtime.cluster.Cluster`:
    planning needs to know how much edge parallelism exists and how VSM may
    tile it, not the live node/link objects.  ``topology_fingerprint`` is the
    :meth:`~repro.network.topology.Topology.fingerprint` of the deployment
    the spec was taken from: plans are stamped with it, and the executor
    refuses to run a stamped plan on a different shape.

    ``objective_weights`` and ``economics`` carry the multi-objective
    configuration: strategies that honour it (HPA, Neurosurgeon, DADS) plan
    against the weighted (latency, energy, cost) score; both default to
    ``None``, under which every strategy follows its original pure-latency
    code path bit-identically.
    """

    num_edge_nodes: int = 1
    tile_grid: Tuple[int, int] = (2, 2)
    topology_fingerprint: Tuple = ()
    objective_weights: Optional["ObjectiveWeights"] = None
    economics: Optional["TierEconomics"] = None

    @classmethod
    def from_cluster(
        cls,
        cluster,
        tile_grid: Tuple[int, int] = (2, 2),
        objective_weights: Optional["ObjectiveWeights"] = None,
        economics: Optional["TierEconomics"] = None,
    ) -> "ClusterSpec":
        topology = getattr(cluster, "topology", None)
        if (
            economics is None
            and objective_weights is not None
            and not objective_weights.is_latency_only
            and topology is not None
        ):
            from repro.core.economics import TierEconomics

            economics = TierEconomics.from_topology(topology)
        return cls(
            num_edge_nodes=cluster.num_edge_nodes,
            tile_grid=tile_grid,
            topology_fingerprint=topology.fingerprint() if topology is not None else (),
            objective_weights=objective_weights,
            economics=economics,
        )

    @property
    def is_weighted(self) -> bool:
        """True when planning should leave the pure-latency path."""
        return (
            self.objective_weights is not None
            and not self.objective_weights.is_latency_only
            and self.economics is not None
        )


@dataclass
class PartitionPlan:
    """Normalized output of any partitioning strategy.

    Every consumer — the one-shot executor, the serving simulator, the plan
    cache, the experiment harnesses — reads this one artifact, never a
    method-specific result type.
    """

    strategy: str
    graph: DnnGraph
    placement: PlacementPlan
    #: Predicted metrics of ``placement`` under the planning conditions, as
    #: computed by :class:`~repro.core.placement.PlanEvaluator`.
    metrics: PlanMetrics
    vsm_plan: Optional[VSMPlan] = None
    #: Method-specific extras (Neurosurgeon's split index, DADS's cut value,
    #: ...) kept for introspection without widening the common surface.
    extras: Dict[str, object] = field(default_factory=dict)
    #: Fingerprint of the deployment topology the plan was computed for
    #: (empty when the strategy was invoked without a :class:`ClusterSpec`).
    topology_fingerprint: Tuple = ()

    @property
    def latency_s(self) -> float:
        """Predicted end-to-end latency (the analytic objective)."""
        return self.metrics.end_to_end_latency_s

    @property
    def bytes_to_cloud(self) -> int:
        """Predicted per-image backbone traffic to the cloud."""
        return self.metrics.bytes_to_cloud

    def describe(self) -> str:
        return f"[{self.strategy}] {self.placement.describe()}"


@runtime_checkable
class PartitionStrategy(Protocol):
    """Protocol implemented by every partitioning method."""

    name: str
    #: Can this method adapt a live plan locally when conditions drift?
    supports_repartitioning: bool
    #: Should the headline latency come from the discrete-event executor
    #: (``True``) or the analytic evaluator (``False``)?
    measure_by_simulation: bool

    def supports(self, graph: DnnGraph) -> bool:
        """True when the method can partition ``graph`` at all."""
        ...

    def plan(
        self,
        graph: DnnGraph,
        profile: LatencyProfile,
        network: NetworkCondition,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> PartitionPlan:
        """Produce the normalized partitioning artifact for one scenario."""
        ...


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: name -> zero-argument factory producing a default-configured strategy.
_REGISTRY: Dict[str, Callable[[], PartitionStrategy]] = {}


def register_strategy(
    factory: Callable[[], PartitionStrategy], name: Optional[str] = None
) -> Callable[[], PartitionStrategy]:
    """Register a strategy factory (usable as a class decorator).

    ``factory`` is any zero-argument callable returning a strategy instance —
    typically the strategy class itself.  Re-registering a name overwrites the
    previous factory, so test doubles can shadow the built-ins.
    """
    resolved = name or getattr(factory, "name", None)
    if not resolved:
        raise ValueError("strategy factory must have a 'name' or be registered with one")
    _REGISTRY[str(resolved)] = factory
    return factory


def get_strategy(name: str) -> PartitionStrategy:
    """Instantiate the registered strategy called ``name``.

    A registered name resolves without loading the baselines, so serving
    with D3's own methods never imports :mod:`repro.baselines`.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        _ensure_builtin_strategies()
        factory = _REGISTRY.get(name)
        if factory is None:
            raise UnknownStrategyError(
                f"unknown method {name!r}; available: {', '.join(available_strategies())}"
            )
    return factory()


def available_strategies() -> List[str]:
    """Names of every registered strategy, in registration order."""
    _ensure_builtin_strategies()
    return list(_REGISTRY)


def _ensure_builtin_strategies() -> None:
    """Import the modules that register the built-in methods.

    The baseline adapters live next to their algorithms in
    :mod:`repro.baselines`; importing them lazily here keeps this module free
    of package-level circular imports and keeps the baselines out of a
    process that only serves D3's own methods.  A name registered before the
    baselines load keeps its factory: a test double is not overwritten by a
    later lazy import.
    """
    registered = dict(_REGISTRY)
    import repro.baselines.single_tier  # noqa: F401
    import repro.baselines.neurosurgeon  # noqa: F401
    import repro.baselines.dads  # noqa: F401

    _REGISTRY.update(registered)


# --------------------------------------------------------------------------- #
# D3's own strategies: HPA and HPA + VSM
# --------------------------------------------------------------------------- #
class HpaStrategy:
    """D3's Horizontal Partition Algorithm over the three tiers (Fig. 9)."""

    name = "hpa"
    supports_repartitioning = True
    measure_by_simulation = True

    def __init__(self, hpa_config: Optional[HPAConfig] = None) -> None:
        self.hpa_config = hpa_config or HPAConfig()

    def supports(self, graph: DnnGraph) -> bool:
        return True

    def plan(
        self,
        graph: DnnGraph,
        profile: LatencyProfile,
        network: NetworkCondition,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> PartitionPlan:
        if not self.supports(graph):  # pragma: no cover - HPA supports all DAGs
            raise StrategyUnsupportedError(f"{self.name} cannot partition {graph.name}")
        cluster_spec = cluster_spec or ClusterSpec()
        if cluster_spec.is_weighted:
            partitioner = HorizontalPartitioner(
                profile,
                network,
                self.hpa_config,
                economics=cluster_spec.economics,
                weights=cluster_spec.objective_weights,
            )
        else:
            partitioner = HorizontalPartitioner(profile, network, self.hpa_config)
        placement = partitioner.partition(graph)
        vsm_plan = self.separate(graph, placement, cluster_spec)
        metrics = PlanEvaluator(profile, network).metrics(placement)
        return PartitionPlan(
            strategy=self.name,
            graph=graph,
            placement=placement,
            metrics=metrics,
            vsm_plan=vsm_plan,
            topology_fingerprint=cluster_spec.topology_fingerprint,
        )

    def separate(
        self, graph: DnnGraph, placement: PlacementPlan, cluster_spec: ClusterSpec
    ) -> Optional[VSMPlan]:
        """HPA alone never tiles; the VSM subclass overrides this."""
        return None


class HpaVsmStrategy(HpaStrategy):
    """Full D3: HPA placement plus VSM tiling over the edge nodes (Fig. 12)."""

    name = "hpa_vsm"

    def separate(
        self, graph: DnnGraph, placement: PlacementPlan, cluster_spec: ClusterSpec
    ) -> Optional[VSMPlan]:
        if cluster_spec.num_edge_nodes < 2:
            return None
        rows, cols = cluster_spec.tile_grid
        vsm = VerticalSeparationModule(grid_rows=rows, grid_cols=cols)
        plan = vsm.plan(graph, placement, Tier.EDGE)
        return plan if plan.runs else None


register_strategy(HpaStrategy)
register_strategy(HpaVsmStrategy)
