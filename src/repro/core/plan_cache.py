"""Plan cache for the serving layer.

HPA + VSM partitioning is the expensive part of D3's control path; under a
request stream it would be madness to recompute it per request when the model
and the network conditions haven't changed.  The :class:`PlanCache` memoizes
complete partitioning decisions keyed by ``(model, network condition, system
configuration)`` and exposes the statistics the serving report surfaces
(hits, misses, repartitions, invalidations).

Drift handling is driven by :mod:`repro.core.dynamic`: every cached entry owns
the :class:`~repro.core.dynamic.DynamicRepartitioner` that produced (or last
adapted) its plan.  When the serving layer sees a network condition outside
the entry's threshold band, the repartitioner performs the paper's *local*
re-partitioning, the serving layer retires the stale entry with an explicit
:meth:`PlanCache.invalidate`, and the adapted plan is stored under the new
condition's key.  Conditions *inside* the band reuse the cached plan
unchanged (a hit), exactly mirroring the threshold guard of section III-E.

Cached placements and VSM tilings are shared, immutable snapshots.  The
facade interns them per drift stream and assignment, so every entry (and
every serving request) whose placement has the same assignment holds the
very same :class:`~repro.core.placement.PlacementPlan` and
:class:`~repro.core.vsm.VSMPlan` objects.  Nothing may mutate them: a later
drift adapts the repartitioner's own working plan, never a snapshot that has
already been served.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.dynamic import DynamicRepartitioner, RepartitionThresholds
from repro.core.placement import PlacementPlan
from repro.core.vsm import VSMPlan
from repro.graph.dag import DnnGraph
from repro.network.conditions import NetworkCondition
from repro.profiling.profiler import LatencyProfile


def network_key(condition: NetworkCondition) -> Tuple[float, float, float]:
    """Hashable signature of a network condition (the three link rates)."""
    return (
        round(condition.device_edge_mbps, 6),
        round(condition.edge_cloud_mbps, 6),
        round(condition.device_cloud_mbps, 6),
    )


@dataclass(frozen=True)
class PlanKey:
    """Cache key: which model, under which conditions, for which system.

    ``strategy`` is the partitioning method's registry name, so the same
    serving system can hold D3 and baseline plans for one model side by side.
    ``topology`` is the deployment's
    :meth:`~repro.network.topology.Topology.fingerprint`: two systems that
    differ only in cluster shape (an extra device, a slower edge machine, a
    re-traced link) must never share a plan.
    """

    model: str
    network: Tuple[float, float, float]
    config: Tuple
    strategy: str = "hpa_vsm"
    topology: Tuple = ()

    @classmethod
    def build(
        cls,
        model: str,
        condition: NetworkCondition,
        config_key: Tuple,
        strategy: str = "hpa_vsm",
        topology: Tuple = (),
    ) -> "PlanKey":
        return cls(
            model=model,
            network=network_key(condition),
            config=config_key,
            strategy=strategy,
            topology=topology,
        )

    def __hash__(self) -> int:
        # The dataclass hash rebuilt per call, cached: the topology
        # fingerprint is a deep tuple, and a key is hashed on every cache
        # probe.  String hashes are salted per process, so the cached value
        # never travels with a pickled key (see ``__getstate__``).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.model, self.network, self.config, self.strategy, self.topology))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def stream(self) -> Tuple[str, str, Tuple, Tuple]:
        """The ``(model, strategy, config, topology)`` drift stream: every
        condition's key of one deployment shares it."""
        return (self.model, self.strategy, self.config, self.topology)


@dataclass
class CachedPlan:
    """One complete, ready-to-execute partitioning decision."""

    key: PlanKey
    graph: DnnGraph
    profile: LatencyProfile
    placement: PlacementPlan
    vsm_plan: Optional[VSMPlan]
    condition: NetworkCondition
    #: Latency of this plan on an idle cluster (the one-shot reference the
    #: serving report computes queueing delays against).
    ideal_latency_s: float
    #: The adaptive re-partitioner that owns ``placement``; reused to perform
    #: local updates when the network drifts out of the threshold band.
    repartitioner: Optional[DynamicRepartitioner] = None
    #: Per-physical-link rates (Mbps keyed by link id) in effect when the
    #: plan was computed; lets :meth:`PlanCache.within_band` watch each wire
    #: of a traced topology, not just the tier-pair aggregate.
    link_mbps: Optional[Dict[str, float]] = None
    valid: bool = True


class PlanCache:
    """Memoize partitioning plans across a request stream.

    Parameters
    ----------
    thresholds:
        The relative-change band of section III-E; conditions within the band
        of a cached entry reuse its plan, conditions outside it trigger a
        local re-partitioning (and an invalidation of the stale entry).
    max_entries:
        Optional LRU bound on the number of cached keys.  Topology
        fingerprints, drifting conditions and failure-degraded deployment
        shapes all mint fresh keys, so an unbounded cache grows for the
        lifetime of the serving system; with a bound, the least recently
        *used* key (lookups and aliasing refresh recency) is evicted on
        insert.  ``None`` keeps the historical unbounded behaviour.
    """

    def __init__(
        self,
        thresholds: Optional[RepartitionThresholds] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.thresholds = thresholds or RepartitionThresholds()
        self.max_entries = max_entries
        self._entries: "OrderedDict[PlanKey, CachedPlan]" = OrderedDict()
        #: Latest entry per (model, strategy, config, topology), the seed for
        #: drift adaptation.  Shares the LRU bound: one retained seed per
        #: stream would otherwise still grow with every degraded-topology
        #: fingerprint a chaotic deployment mints.
        self._latest: "OrderedDict[Tuple[str, str, Tuple, Tuple], CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.repartitions = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def plans_computed(self) -> int:
        """Full partitionings plus drift adaptations performed so far."""
        return self.misses + self.repartitions

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "repartitions": self.repartitions,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }

    # ------------------------------------------------------------------ #
    def set_thresholds(self, thresholds: RepartitionThresholds) -> None:
        """Change the drift band, keeping live repartitioners in agreement.

        Every cached entry's repartitioner must judge drift with the same
        band as :meth:`within_band`, otherwise the cache could count an
        adaptation the repartitioner refused to perform.
        """
        self.thresholds = thresholds
        for entry in self._latest.values():
            if entry.repartitioner is not None:
                entry.repartitioner.thresholds = thresholds

    # ------------------------------------------------------------------ #
    def get(
        self,
        key: PlanKey,
        condition: Optional[NetworkCondition] = None,
        link_mbps: Optional[Dict[str, float]] = None,
    ) -> Optional[CachedPlan]:
        """Exact lookup; counts a hit when present and still in band.

        With ``condition``/``link_mbps``, an exact key match is additionally
        re-validated against the per-link drift band: a wire off the primary
        planning routes can collapse without moving the tier-pair rates (and
        hence the key), and such an entry must re-enter the drift path, not
        be served as a hit.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.valid:
            return None
        if (
            link_mbps
            and condition is not None
            and not self.within_band(entry, condition, link_mbps)
        ):
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def latest_for(
        self, model: str, strategy: str, config_key: Tuple, topology: Tuple = ()
    ) -> Optional[CachedPlan]:
        """Most recent entry for a (model, strategy, config, topology)."""
        key = (model, strategy, config_key, topology)
        entry = self._latest.get(key)
        if entry is not None:
            self._latest.move_to_end(key)
        return entry

    def within_band(
        self,
        entry: CachedPlan,
        condition: NetworkCondition,
        link_mbps: Optional[Dict[str, float]] = None,
    ) -> bool:
        """True when ``condition`` is inside the entry's tolerated drift band.

        With ``link_mbps`` (and an entry that recorded its own link rates),
        every physical wire is additionally checked: a single congested link
        leaves the band even when the harmonic tier-pair aggregate barely
        moves.
        """
        pairs = (("device", "edge"), ("edge", "cloud"), ("device", "cloud"))
        for src, dst in pairs:
            if self.thresholds.exceeded(
                entry.condition.bandwidth_mbps(src, dst),
                condition.bandwidth_mbps(src, dst),
            ):
                return False
        if link_mbps and entry.link_mbps:
            for link_id, mbps in link_mbps.items():
                reference = entry.link_mbps.get(link_id)
                if reference is not None and self.thresholds.exceeded(reference, mbps):
                    return False
        return True

    def store(self, entry: CachedPlan, *, repartitioned: bool = False) -> CachedPlan:
        """Insert a fresh entry; counts as a miss or a drift repartition."""
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        self._latest[entry.key.stream] = entry
        self._latest.move_to_end(entry.key.stream)
        if repartitioned:
            self.repartitions += 1
        else:
            self.misses += 1
        self._evict_over_bound()
        return entry

    def record_alias(self, key: PlanKey, entry: CachedPlan) -> None:
        """Map an in-band condition key onto an existing entry (counts a hit).

        This is the threshold guard paying off: the condition changed, but not
        enough to leave the band, so the cached plan is reused as-is and the
        next exact lookup under ``key`` is a plain hit.
        """
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.hits += 1
        self._evict_over_bound()

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used keys until the LRU bound is respected.

        Key eviction does not kill streams: the ``_latest`` seed an evicted
        entry may still serve keeps drift adaptation working, and a future
        in-band condition simply re-aliases it (a hit, not a recompute).
        ``_latest`` is bounded by the same cap — a cold stream's seed is
        eventually dropped too (its next request replans from scratch) so a
        chaotic deployment's fingerprint churn cannot grow it forever.
        """
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        while len(self._latest) > self.max_entries:
            self._latest.popitem(last=False)

    # ------------------------------------------------------------------ #
    def invalidate(self, key: PlanKey) -> bool:
        """Drop an entry (and every alias key mapped to it)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        entry.valid = False
        aliases = [k for k, v in self._entries.items() if v is entry]
        for alias in aliases:
            del self._entries[alias]
        self.invalidations += 1
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._latest.clear()
