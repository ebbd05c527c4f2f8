"""The DNN DAG (``G = (V, L)`` of the paper's system model).

A :class:`DnnGraph` stores the vertices ``{v0, v1, ..., vn}`` (one per DNN
layer, plus the virtual input vertex ``v0``) and the directed links
``L ⊂ V x V``.  Shapes, per-layer FLOPs and output sizes are resolved eagerly
when vertices are added, so every downstream component (profiler, HPA, VSM,
runtime) can treat the graph as a static, fully annotated artefact.

The class also provides the graph analytics HPA needs:

* ``longest_distances`` — the longest distance ``δ(v_i)`` from ``v0`` to every
  vertex, computed with dynamic programming in ``O(|V| + |L|)``;
* ``graph_layers`` — the partition ``Z_q = {v_i : δ(v_i) = q}``;
* predecessor / successor queries and the subset-input-sibling (SIS) relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.layers import InputLayer, LayerSpec
from repro.graph.shapes import Shape, element_count, tensor_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class GraphError(ValueError):
    """Raised for structural problems (cycles, unknown vertices, ...)."""


@dataclass
class Vertex:
    """A single vertex of the DNN DAG.

    Attributes
    ----------
    index:
        Position of the vertex in insertion order; the virtual input vertex is
        always index ``0``.
    name:
        Unique human-readable name (e.g. ``"conv1"``).
    spec:
        The :class:`~repro.graph.layers.LayerSpec` describing the layer.
    output_shape:
        Shape of the tensor this layer produces.
    flops:
        Floating point operations performed by the layer for one input sample.
    weight_count:
        Number of learnable parameters of the layer.
    """

    index: int
    name: str
    spec: LayerSpec
    output_shape: Shape
    flops: int
    weight_count: int

    @property
    def output_elements(self) -> int:
        """Number of scalar elements in the layer output."""
        return element_count(self.output_shape)

    @property
    def output_bytes(self) -> int:
        """Serialized output size in bytes (float32 elements)."""
        return tensor_bytes(self.output_shape)

    @property
    def kind(self) -> str:
        return self.spec.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vertex({self.index}, {self.name!r}, {self.kind}, out={self.output_shape})"


class DnnGraph:
    """Directed acyclic graph of DNN layers.

    Parameters
    ----------
    name:
        Model name (e.g. ``"vgg16"``), used by the experiment harness.
    """

    def __init__(self, name: str = "dnn") -> None:
        self.name = name
        self._vertices: List[Vertex] = []
        self._by_name: Dict[str, int] = {}
        self._preds: Dict[int, Tuple[int, ...]] = {}
        self._succs: Dict[int, List[int]] = {}
        # Derived-structure memos, dropped by ``add_vertex``.
        self._sis_memo: Dict[int, List[Vertex]] = {}
        self._edges_memo: Optional[List[Tuple[Vertex, Vertex]]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, shape: Shape, name: str = "input") -> Vertex:
        """Add the virtual input vertex ``v0``.

        Must be called exactly once, before any other vertex is added.
        """
        if self._vertices:
            raise GraphError("the input vertex must be the first vertex added")
        return self.add_vertex(name, InputLayer(shape), inputs=())

    def add_vertex(
        self,
        name: str,
        spec: LayerSpec,
        inputs: Sequence[str],
    ) -> Vertex:
        """Add a layer vertex fed by the named predecessor vertices."""
        if name in self._by_name:
            raise GraphError(f"duplicate vertex name {name!r}")
        if self._vertices and not inputs:
            raise GraphError(f"vertex {name!r} must declare at least one input")
        input_indices = [self._resolve(input_name) for input_name in inputs]
        input_shapes = [self._vertices[i].output_shape for i in input_indices]
        output_shape = spec.infer_shape(input_shapes)
        flops = spec.flops(input_shapes, output_shape)
        weights = spec.weight_count(input_shapes, output_shape)
        index = len(self._vertices)
        vertex = Vertex(
            index=index,
            name=name,
            spec=spec,
            output_shape=output_shape,
            flops=flops,
            weight_count=weights,
        )
        self._vertices.append(vertex)
        self._by_name[name] = index
        self._preds[index] = tuple(input_indices)
        self._succs[index] = []
        for parent in input_indices:
            self._succs[parent].append(index)
        self._sis_memo.clear()
        self._edges_memo = None
        return vertex

    def _resolve(self, name_or_index) -> int:
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < len(self._vertices):
                raise GraphError(f"unknown vertex index {name_or_index}")
            return name_or_index
        if name_or_index not in self._by_name:
            raise GraphError(f"unknown vertex name {name_or_index!r}")
        return self._by_name[name_or_index]

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    @property
    def vertices(self) -> List[Vertex]:
        return list(self._vertices)

    @property
    def input_vertex(self) -> Vertex:
        if not self._vertices:
            raise GraphError("graph is empty")
        return self._vertices[0]

    @property
    def input_shape(self) -> Shape:
        return self.input_vertex.output_shape

    def vertex(self, name_or_index) -> Vertex:
        """Return a vertex by name or index."""
        return self._vertices[self._resolve(name_or_index)]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def predecessors(self, name_or_index) -> List[Vertex]:
        """Return the direct predecessors ``V^p_i`` of a vertex."""
        index = self._resolve(name_or_index)
        return [self._vertices[i] for i in self._preds[index]]

    def predecessor_indices(self, index: int) -> Tuple[int, ...]:
        """Indices of a vertex's direct predecessors (by index, no lookup)."""
        return self._preds[index]

    def successors(self, name_or_index) -> List[Vertex]:
        """Return the direct successors of a vertex."""
        index = self._resolve(name_or_index)
        return [self._vertices[i] for i in self._succs[index]]

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Return all directed links ``(v_i, v_j)`` of the graph."""
        if self._edges_memo is None:
            vertices = self._vertices
            self._edges_memo = [
                (vertices[src], vertices[dst])
                for src, dests in self._succs.items()
                for dst in dests
            ]
        return list(self._edges_memo)

    @property
    def num_edges(self) -> int:
        return sum(len(dests) for dests in self._succs.values())

    def output_vertices(self) -> List[Vertex]:
        """Vertices with no successors (the final classifier output)."""
        return [v for v in self._vertices if not self._succs[v.index]]

    # ------------------------------------------------------------------ #
    # Graph analytics used by HPA
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Vertex]:
        """Return vertices in a topological order.

        Because vertices can only reference previously added vertices, the
        insertion order itself is a valid topological order.
        """
        return list(self._vertices)

    def longest_distances(self) -> Dict[int, int]:
        """Longest distance ``δ(v_i)`` from ``v0`` to each vertex (edge count).

        Computed with the dynamic programming approach referenced by the paper
        ("get_longest_path"), running in ``O(|V| + |L|)``.
        """
        distances: Dict[int, int] = {}
        for vertex in self.topological_order():
            preds = self._preds[vertex.index]
            if not preds:
                distances[vertex.index] = 0
            else:
                distances[vertex.index] = 1 + max(distances[p] for p in preds)
        return distances

    def graph_layers(self) -> List[List[Vertex]]:
        """Return the graph layers ``Z_q`` ordered by increasing ``q``.

        ``Z_q`` is the set of vertices whose longest distance from ``v0`` is
        exactly ``q`` ("get_graph_layer" in Algorithm 1).
        """
        distances = self.longest_distances()
        max_distance = max(distances.values()) if distances else 0
        layers: List[List[Vertex]] = [[] for _ in range(max_distance + 1)]
        for vertex in self._vertices:
            layers[distances[vertex.index]].append(vertex)
        return layers

    def is_chain(self) -> bool:
        """True when the DAG is a simple chain (every vertex has ≤ 1 successor
        and ≤ 1 predecessor).  Neurosurgeon only supports chain topologies.
        """
        for vertex in self._vertices:
            if len(self._preds[vertex.index]) > 1 or len(self._succs[vertex.index]) > 1:
                return False
        return True

    def sis_vertices(self, name_or_index) -> List[Vertex]:
        """Subset-input-sibling (SIS) vertices of a vertex.

        ``v_j`` is a SIS vertex of ``v_i`` when ``V^p_j ⊂ V^p_i`` (a strict,
        non-empty subset of ``v_i``'s direct predecessors).  The relation is
        memoized per vertex until the graph grows.
        """
        index = self._resolve(name_or_index)
        memo = self._sis_memo.get(index)
        if memo is None:
            memo = self._sis_memo[index] = self._compute_sis(index)
        return list(memo)

    def _compute_sis(self, index: int) -> List[Vertex]:
        my_preds: Set[int] = set(self._preds[index])
        if not my_preds:
            return []
        result = []
        for other in self._vertices:
            if other.index == index:
                continue
            other_preds = set(self._preds[other.index])
            if other_preds and other_preds < my_preds:
                result.append(other)
        return result

    def total_flops(self) -> int:
        """Total FLOPs of one forward pass."""
        return sum(v.flops for v in self._vertices)

    def total_weights(self) -> int:
        """Total learnable parameter count."""
        return sum(v.weight_count for v in self._vertices)

    # ------------------------------------------------------------------ #
    # Interop / export
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> "nx.DiGraph":
        """Export to a :class:`networkx.DiGraph` for ad-hoc analysis.

        networkx is imported here, on first use: nothing in planning or
        serving needs it.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for vertex in self._vertices:
            graph.add_node(
                vertex.index,
                name=vertex.name,
                kind=vertex.kind,
                output_shape=vertex.output_shape,
                flops=vertex.flops,
                output_bytes=vertex.output_bytes,
            )
        for src, dst in self.edges():
            graph.add_edge(src.index, dst.index)
        return graph

    def validate(self) -> None:
        """Validate the structural invariants of the graph.

        Raises :class:`GraphError` if the graph has no input vertex, contains a
        cycle (impossible by construction, checked defensively), or has
        vertices that are not reachable from ``v0``.  Both checks walk the
        successor lists once: Kahn's algorithm for the cycle, a depth-first
        search from ``v0`` for reachability.
        """
        if not self._vertices:
            raise GraphError("graph is empty")
        if not isinstance(self._vertices[0].spec, InputLayer):
            raise GraphError("first vertex must be the virtual input vertex")
        succs = self._succs
        indegree = [0] * len(self._vertices)
        for dests in succs.values():
            for dst in dests:
                indegree[dst] += 1
        ready = [index for index, count in enumerate(indegree) if not count]
        removed = 0
        while ready:
            removed += 1
            for dst in succs[ready.pop()]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    ready.append(dst)
        if removed != len(indegree):
            raise GraphError("graph contains a cycle")
        reachable = {0}
        stack = [0]
        while stack:
            for dst in succs[stack.pop()]:
                if dst not in reachable:
                    reachable.add(dst)
                    stack.append(dst)
        if len(reachable) != len(self._vertices):
            unreachable = [v.name for v in self._vertices if v.index not in reachable]
            raise GraphError(f"vertices unreachable from the input: {unreachable}")

    def summary(self) -> str:
        """Human-readable multi-line summary of the graph."""
        lines = [f"{self.name}: {len(self)} vertices, {self.num_edges} edges"]
        for vertex in self._vertices:
            preds = ",".join(p.name for p in self.predecessors(vertex.index)) or "-"
            lines.append(
                f"  [{vertex.index:3d}] {vertex.name:<20s} {vertex.kind:<12s} "
                f"out={vertex.output_shape!s:<18s} flops={vertex.flops:>12d} "
                f"bytes={vertex.output_bytes:>10d} <- {preds}"
            )
        return "\n".join(lines)
