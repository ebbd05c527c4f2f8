"""Model artifacts, compression codecs, and per-node weight caches.

Serving a model is not just compute: its weights must be *resident* on every
node that runs one of its stages.  This module gives the simulator a memory
subsystem:

``ModelArtifact``
    Per-vertex weight bytes and activation working sets derived from a
    :class:`~repro.graph.dag.DnnGraph` (float32, ``weight_count * 4``).

``CompressionCodec``
    How weights travel and unpack.  Artifacts are compressed **once** at
    publish time and decompressed on **every** cold load, so an asymmetric
    "write once, read many" codec (the ``zxc`` entry: slow compress, very
    fast decompress) beats a symmetric codec of equal ratio on cold-start
    latency — the compression choice becomes part of the partition objective.

``WeightCache``
    A per-node cache with a byte capacity (``HardwareSpec.memory_gb``,
    optionally capped by a serve-time budget) and pluggable eviction
    (``"lru"`` or ``"priority"``, an access-frequency policy).  Pinned
    entries — models with in-flight tasks — are never evicted.

``MemoryModel``
    The serve-time configuration bundle: budget, codec, eviction policy.
    ``resolve_memory`` maps user-facing knobs to a model (or ``None`` when
    every knob is inert, keeping the unconstrained path bit-identical).

The simulator surfaces cache misses as first-class **cold-start events**:
compressed bytes move over the declared wires from the cloud artifact store,
then decompress, before the first task of a non-resident model may dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "ArtifactError",
    "UnknownCodecError",
    "CapacityError",
    "BYTES_PER_WEIGHT",
    "ModelArtifact",
    "CompressionCodec",
    "CODECS",
    "get_codec",
    "register_codec",
    "WeightCache",
    "EVICTION_POLICIES",
    "MemoryModel",
    "resolve_memory",
]

#: Weights are stored and shipped as float32.
BYTES_PER_WEIGHT = 4

GIB = 1024 ** 3


class ArtifactError(ValueError):
    """Base class for artifact/memory subsystem errors."""


class UnknownCodecError(ArtifactError):
    """Raised when a codec name is not in the registry."""


class CapacityError(ArtifactError):
    """Raised when an entry cannot fit even after evicting every unpinned
    resident model."""


# --------------------------------------------------------------------- #
# Model artifacts
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ModelArtifact:
    """Byte-level description of a model's weights and activations.

    Attributes
    ----------
    model:
        Graph name the artifact describes.
    vertex_weight_bytes:
        Weight bytes per vertex index (float32).
    vertex_activation_bytes:
        Output-tensor bytes per vertex index — the activation working set a
        node must hold while executing that vertex.
    """

    model: str
    vertex_weight_bytes: Mapping[int, int]
    vertex_activation_bytes: Mapping[int, int]

    @classmethod
    def from_graph(cls, graph) -> "ModelArtifact":
        """Derive an artifact from a :class:`~repro.graph.dag.DnnGraph`."""
        weights: Dict[int, int] = {}
        activations: Dict[int, int] = {}
        for vertex in graph.vertices:
            weights[vertex.index] = vertex.weight_count * BYTES_PER_WEIGHT
            activations[vertex.index] = vertex.output_bytes
        return cls(
            model=graph.name,
            vertex_weight_bytes=weights,
            vertex_activation_bytes=activations,
        )

    @property
    def total_weight_bytes(self) -> int:
        return sum(self.vertex_weight_bytes.values())

    @property
    def peak_activation_bytes(self) -> int:
        return max(self.vertex_activation_bytes.values(), default=0)

    def weight_bytes_for(self, vertices: Iterable[int]) -> int:
        """Weight bytes of a stage set (vertex indices)."""
        return sum(self.vertex_weight_bytes.get(index, 0) for index in vertices)

    def activation_bytes_for(self, vertices: Iterable[int]) -> int:
        """Peak activation working set of a stage set (vertex indices)."""
        return max(
            (self.vertex_activation_bytes.get(index, 0) for index in vertices),
            default=0,
        )

    def resident_bytes_for(self, vertices: Iterable[int]) -> int:
        """Bytes a node must keep resident to run a stage set: the stage
        weights plus the peak activation working set."""
        indices = list(vertices)
        return self.weight_bytes_for(indices) + self.activation_bytes_for(indices)


# --------------------------------------------------------------------- #
# Compression codecs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompressionCodec:
    """A weight-compression scheme: ratio plus directional throughputs.

    ``ratio`` is raw/compressed (2.0 halves the wire bytes).  Throughputs
    are in MB/s of *raw* bytes processed; ``float("inf")`` means free.
    """

    name: str
    ratio: float
    compress_mb_s: float
    decompress_mb_s: float

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ArtifactError(f"codec ratio must be >= 1.0, got {self.ratio}")
        if self.compress_mb_s <= 0 or self.decompress_mb_s <= 0:
            raise ArtifactError("codec throughputs must be positive")

    def compressed_bytes(self, raw_bytes: int) -> int:
        return int(round(raw_bytes / self.ratio))

    def compress_seconds(self, raw_bytes: int) -> float:
        if self.compress_mb_s == float("inf"):
            return 0.0
        return raw_bytes / (self.compress_mb_s * 1e6)

    def decompress_seconds(self, raw_bytes: int) -> float:
        if self.decompress_mb_s == float("inf"):
            return 0.0
        return raw_bytes / (self.decompress_mb_s * 1e6)


#: Built-in codecs.  ``symmetric`` and ``zxc`` share the ratio on purpose —
#: at equal wire bytes, the asymmetric codec's fast decompress is the entire
#: cold-start advantage ("write once, read many").
CODECS: Dict[str, CompressionCodec] = {}


def register_codec(codec: CompressionCodec) -> CompressionCodec:
    """Add a codec to the registry (replacing any same-name entry)."""
    CODECS[codec.name] = codec
    return codec


register_codec(
    CompressionCodec(
        name="none", ratio=1.0, compress_mb_s=float("inf"), decompress_mb_s=float("inf")
    )
)
register_codec(
    CompressionCodec(name="symmetric", ratio=2.0, compress_mb_s=400.0, decompress_mb_s=400.0)
)
register_codec(
    CompressionCodec(name="zxc", ratio=2.0, compress_mb_s=80.0, decompress_mb_s=1600.0)
)


def get_codec(name: str) -> CompressionCodec:
    try:
        return CODECS[name]
    except KeyError:
        raise UnknownCodecError(
            f"unknown codec {name!r}; expected one of {sorted(CODECS)}"
        ) from None


# --------------------------------------------------------------------- #
# Per-node weight cache
# --------------------------------------------------------------------- #
EVICTION_POLICIES = ("lru", "priority")


class _CacheEntry:
    __slots__ = ("model", "size_bytes", "last_used", "hits")

    def __init__(self, model: str, size_bytes: int, tick: int) -> None:
        self.model = model
        self.size_bytes = size_bytes
        self.last_used = tick
        self.hits = 0


class WeightCache:
    """Byte-budgeted model cache for one compute node.

    Invariants (see the hypothesis suite in
    ``tests/runtime/test_artifacts_properties.py``):

    * ``resident_bytes <= capacity_bytes`` always;
    * a model cold-starts exactly once per eviction–reload cycle
      (``resident`` stays true until an eviction removes the entry);
    * eviction never removes a pinned model (pins track in-flight tasks).

    Eviction policies: ``"lru"`` removes the least-recently-used unpinned
    entry; ``"priority"`` removes the unpinned entry with the fewest
    recorded hits (ties broken LRU), keeping hot models resident under
    thrash.
    """

    __slots__ = (
        "node",
        "capacity_bytes",
        "eviction",
        "_entries",
        "_pins",
        "_tick",
        "resident_bytes",
        "peak_resident_bytes",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, node: str, capacity_bytes: int, eviction: str = "lru") -> None:
        if eviction not in EVICTION_POLICIES:
            raise ArtifactError(
                f"unknown eviction policy {eviction!r}; expected one of {EVICTION_POLICIES}"
            )
        if capacity_bytes < 0:
            raise ArtifactError("capacity must be non-negative")
        self.node = node
        self.capacity_bytes = capacity_bytes
        self.eviction = eviction
        self._entries: Dict[str, _CacheEntry] = {}
        self._pins: Dict[str, int] = {}
        self._tick = 0
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries ------------------------------------------------------- #
    def resident(self, model: str) -> bool:
        return model in self._entries

    def resident_models(self) -> List[str]:
        return list(self._entries)

    def pin_count(self, model: str) -> int:
        return self._pins.get(model, 0)

    # -- pinning (in-flight tasks) ------------------------------------- #
    def pin(self, model: str) -> None:
        """Mark a model as having in-flight work; pinned models are never
        evicted.  Pins are independent of residency so a load in flight is
        protected before its entry is admitted."""
        self._pins[model] = self._pins.get(model, 0) + 1

    def unpin(self, model: str) -> None:
        count = self._pins.get(model, 0)
        if count <= 1:
            self._pins.pop(model, None)
        else:
            self._pins[model] = count - 1

    # -- accounting ---------------------------------------------------- #
    def record_hit(self, model: str) -> None:
        """A resident lookup: refresh recency, bump frequency."""
        entry = self._entries[model]
        self._tick += 1
        entry.last_used = self._tick
        entry.hits += 1
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    # -- admission / eviction ------------------------------------------ #
    def admit(self, model: str, size_bytes: int) -> List[str]:
        """Make ``model`` resident, evicting unpinned entries as needed.

        Returns the models evicted to make room.  Raises
        :class:`CapacityError` when the entry cannot fit even after every
        unpinned entry is gone.
        """
        if size_bytes < 0:
            raise ArtifactError("entry size must be non-negative")
        existing = self._entries.get(model)
        if existing is not None:
            # Re-admission with a (possibly) different footprint.
            self.resident_bytes -= existing.size_bytes
            del self._entries[model]
        # Admission is all-or-nothing: decide feasibility *before* evicting,
        # so a doomed admission never destroys resident entries on the way
        # to its CapacityError.
        immovable = sum(
            entry.size_bytes
            for entry in self._entries.values()
            if self._pins.get(entry.model, 0) > 0
        )
        if immovable + size_bytes > self.capacity_bytes:
            if existing is not None:
                self._entries[model] = existing
                self.resident_bytes += existing.size_bytes
            raise CapacityError(
                f"node {self.node!r}: cannot fit {size_bytes} bytes for "
                f"{model!r} within {self.capacity_bytes} bytes "
                f"({immovable} resident and pinned)"
            )
        evicted: List[str] = []
        while self.resident_bytes + size_bytes > self.capacity_bytes:
            victim = self._select_victim()
            assert victim is not None  # guaranteed by the feasibility check
            self._evict(victim)
            evicted.append(victim)
        self._tick += 1
        self._entries[model] = _CacheEntry(model, size_bytes, self._tick)
        self.resident_bytes += size_bytes
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes
        return evicted

    def _select_victim(self) -> Optional[str]:
        candidates = [
            entry
            for entry in self._entries.values()
            if self._pins.get(entry.model, 0) == 0
        ]
        if not candidates:
            return None
        if self.eviction == "priority":
            victim = min(candidates, key=lambda e: (e.hits, e.last_used))
        else:  # lru
            victim = min(candidates, key=lambda e: e.last_used)
        return victim.model

    def _evict(self, model: str) -> None:
        entry = self._entries.pop(model)
        self.resident_bytes -= entry.size_bytes
        self.evictions += 1


# --------------------------------------------------------------------- #
# Serve-time configuration
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MemoryModel:
    """Memory-constrained-serving configuration.

    Attributes
    ----------
    budget_gb:
        Per-node byte budget (GiB) capping device/edge capacity below the
        hardware's ``memory_gb``.  ``None`` leaves hardware capacity alone.
        The cloud tier is the artifact store and keeps its hardware
        capacity regardless of budget.
    codec:
        Registry name of the weight compression codec.
    eviction:
        Weight-cache eviction policy (``"lru"`` or ``"priority"``).
    warm:
        When true, first-touch loads are free (weights staged onto every
        node before traffic, as a deployment step): caches and counters run
        but no cold-start latency is charged.  ``benchmarks/overhead.py``
        uses it to price the cache machinery alone.
    """

    budget_gb: Optional[float] = None
    codec: str = "none"
    eviction: str = "lru"
    warm: bool = False
    _artifacts: Dict[str, ModelArtifact] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        get_codec(self.codec)
        if self.eviction not in EVICTION_POLICIES:
            raise ArtifactError(
                f"unknown eviction policy {self.eviction!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.budget_gb is not None and self.budget_gb <= 0:
            raise ArtifactError("memory budget must be positive")

    @property
    def codec_spec(self) -> CompressionCodec:
        return get_codec(self.codec)

    def key(self) -> Tuple:
        """Hashable token for plan-cache keys."""
        return (self.budget_gb, self.codec, self.eviction)

    def capacity_bytes(self, node) -> int:
        """Cache capacity of a compute node.

        Device/edge nodes are capped at ``min(hardware, budget)``; the
        cloud tier (the artifact store) keeps hardware capacity.
        """
        hardware_bytes = int(node.hardware.memory_gb * GIB)
        if self.budget_gb is None or node.tier.value == "cloud":
            return hardware_bytes
        return min(hardware_bytes, int(self.budget_gb * GIB))

    def artifact_for(self, graph) -> ModelArtifact:
        """Memoized :class:`ModelArtifact` for a graph."""
        key = f"{graph.name}#{id(graph)}"
        artifact = self._artifacts.get(key)
        if artifact is None:
            artifact = ModelArtifact.from_graph(graph)
            self._artifacts[key] = artifact
        return artifact

    def with_codec(self, codec: str) -> "MemoryModel":
        return replace(self, codec=codec, _artifacts={})


def resolve_memory(
    memory: Optional[MemoryModel] = None,
    codec: Optional[str] = None,
    eviction: Optional[str] = None,
) -> Optional[MemoryModel]:
    """Fold user-facing knobs into a :class:`MemoryModel`.

    Returns ``None`` when every knob is inert (no model, no codec, no
    eviction override) — the simulator then runs the exact unconstrained
    code path, keeping existing golden traces bit-identical.  A bare float
    is accepted for ``memory`` as a budget in GiB.
    """
    if isinstance(memory, (int, float)) and not isinstance(memory, bool):
        memory = MemoryModel(budget_gb=float(memory))
    if memory is None:
        if codec is None and eviction is None:
            return None
        memory = MemoryModel()
    updates = {}
    if codec is not None:
        updates["codec"] = codec
    if eviction is not None:
        updates["eviction"] = eviction
    if updates:
        memory = replace(memory, _artifacts={}, **updates)
    return memory
