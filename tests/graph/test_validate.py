"""``DnnGraph.validate()`` agrees with networkx on every graph it checks.

``validate()`` walks the successor lists with the standard library alone.
These tests pin its verdict -- and its exact error text -- against
``nx.is_directed_acyclic_graph`` and ``nx.descendants`` on every zoo model
and on random DAGs, including graphs whose successor lists were edited to
hold a cycle or a vertex that ``v0`` cannot reach.  networkx is imported
inside each test only.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.dag import DnnGraph, GraphError
from repro.graph.layers import Add, ReLU
from repro.models.zoo import build_model, list_models


def _networkx_error(graph: DnnGraph):
    """The error ``validate()`` must raise, derived with networkx from ``_succs``."""
    import networkx as nx

    reference = nx.DiGraph()
    reference.add_nodes_from(range(len(graph)))
    reference.add_edges_from(
        (src, dst) for src, dests in graph._succs.items() for dst in dests
    )
    if not nx.is_directed_acyclic_graph(reference):
        return "graph contains a cycle"
    reachable = nx.descendants(reference, 0) | {0}
    if len(reachable) != len(graph):
        unreachable = [v.name for v in graph if v.index not in reachable]
        return f"vertices unreachable from the input: {unreachable}"
    return None


def _validate_error(graph: DnnGraph):
    try:
        graph.validate()
    except GraphError as error:
        return str(error)
    return None


def _add_edge(graph: DnnGraph, src: int, dst: int) -> None:
    graph._succs[src].append(dst)
    graph._preds[dst] = graph._preds[dst] + (src,)


def _drop_edge(graph: DnnGraph, src: int, dst: int) -> None:
    graph._succs[src].remove(dst)
    preds = list(graph._preds[dst])
    preds.remove(src)
    graph._preds[dst] = tuple(preds)


def _random_graph(inputs) -> DnnGraph:
    """One vertex per entry of ``inputs``: ReLU of one input, Add of several."""
    graph = DnnGraph("random")
    graph.add_input((2, 4, 4))
    for position, sources in enumerate(inputs, start=1):
        spec = ReLU() if len(sources) == 1 else Add()
        graph.add_vertex(f"v{position}", spec, [graph.vertex(i).name for i in sources])
    return graph


@st.composite
def edited_dags(draw):
    size = draw(st.integers(1, 12))
    # Duplicate inputs (``Add`` of one tensor with itself) are allowed.
    inputs = [
        draw(st.lists(st.integers(0, index - 1), min_size=1, max_size=3))
        for index in range(1, size)
    ]
    vertex = st.integers(0, size - 1)
    added = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    dropped = draw(st.lists(st.integers(0, 63), max_size=2))
    return inputs, added, dropped


class TestAgainstNetworkx:
    @pytest.mark.parametrize("model", list_models())
    def test_zoo_models_validate(self, model):
        graph = build_model(model)
        assert _networkx_error(graph) is None
        graph.validate()

    @given(edited_dags())
    @settings(max_examples=150, deadline=None)
    def test_edited_graphs_match_networkx(self, case):
        inputs, added, dropped = case
        graph = _random_graph(inputs)
        for src, dst in added:
            _add_edge(graph, src, dst)
        edges = [(src, dst) for src, dests in graph._succs.items() for dst in dests]
        for pick in dropped:
            if edges:
                _drop_edge(graph, *edges.pop(pick % len(edges)))
        assert _validate_error(graph) == _networkx_error(graph)


class TestErrorText:
    def test_injected_cycle(self):
        graph = build_model("alexnet")
        last = len(graph) - 1
        _add_edge(graph, last, 1)
        with pytest.raises(GraphError, match=r"^graph contains a cycle$"):
            graph.validate()

    def test_unreachable_vertices_listed_in_vertex_order(self):
        graph = _random_graph([[0], [1], [2], [1]])
        _drop_edge(graph, 1, 2)
        _drop_edge(graph, 1, 4)
        assert _validate_error(graph) == (
            "vertices unreachable from the input: ['v2', 'v3', 'v4']"
        )

    def test_cycle_reported_before_unreachability(self):
        graph = _random_graph([[0], [1], [2]])
        _drop_edge(graph, 1, 2)
        _add_edge(graph, 3, 2)
        assert _validate_error(graph) == "graph contains a cycle"

    def test_missing_input_vertex(self):
        graph = DnnGraph("no-input")
        graph._vertices.append(build_model("alexnet").vertex(1))
        with pytest.raises(GraphError, match=r"^first vertex must be the virtual input vertex$"):
            graph.validate()
