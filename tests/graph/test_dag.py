"""Unit tests for the DNN DAG substrate."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.dag import DnnGraph, GraphError
from repro.graph.layers import Conv2d, InputLayer, ReLU


def build_diamond():
    """input -> conv1 -> {branch_a, branch_b} -> concat -> fc."""
    builder = GraphBuilder("diamond", input_shape=(3, 16, 16))
    builder.conv("conv1", 8, kernel=3, padding=1)
    builder.conv("branch_a", 8, kernel=1, padding=0, inputs=["conv1"])
    builder.conv("branch_b", 8, kernel=3, padding=1, inputs=["conv1"])
    builder.concat("concat", inputs=["branch_a", "branch_b"])
    builder.flatten("flatten")
    builder.linear("fc", 10)
    return builder.build()


class TestConstruction:
    def test_input_must_be_first(self):
        graph = DnnGraph("g")
        graph.add_input((3, 8, 8))
        with pytest.raises(GraphError):
            graph.add_input((3, 8, 8))

    def test_duplicate_name_rejected(self):
        graph = DnnGraph("g")
        graph.add_input((3, 8, 8), name="input")
        graph.add_vertex("conv", Conv2d(4, (3, 3), padding=(1, 1)), ["input"])
        with pytest.raises(GraphError):
            graph.add_vertex("conv", ReLU(), ["conv"])

    def test_unknown_input_rejected(self):
        graph = DnnGraph("g")
        graph.add_input((3, 8, 8))
        with pytest.raises(GraphError):
            graph.add_vertex("conv", Conv2d(4, (3, 3)), ["nope"])

    def test_vertex_requires_inputs(self):
        graph = DnnGraph("g")
        graph.add_input((3, 8, 8))
        with pytest.raises(GraphError):
            graph.add_vertex("conv", Conv2d(4, (3, 3)), [])

    def test_annotations_resolved_eagerly(self):
        graph = build_diamond()
        conv1 = graph.vertex("conv1")
        assert conv1.output_shape == (8, 16, 16)
        assert conv1.flops > 0
        assert conv1.output_bytes == 8 * 16 * 16 * 4


class TestQueries:
    def test_len_and_iteration(self):
        graph = build_diamond()
        assert len(graph) == 7
        assert [v.name for v in graph][0] == "input"

    def test_predecessors_successors(self):
        graph = build_diamond()
        assert [v.name for v in graph.predecessors("concat")] == ["branch_a", "branch_b"]
        assert {v.name for v in graph.successors("conv1")} == {"branch_a", "branch_b"}

    def test_edges_count(self):
        graph = build_diamond()
        assert graph.num_edges == 7

    def test_output_vertices(self):
        graph = build_diamond()
        assert [v.name for v in graph.output_vertices()] == ["fc"]

    def test_contains(self):
        graph = build_diamond()
        assert "conv1" in graph and "nope" not in graph

    def test_vertex_lookup_by_index_and_name(self):
        graph = build_diamond()
        assert graph.vertex(0).name == "input"
        assert graph.vertex("fc").index == len(graph) - 1

    def test_input_shape(self):
        assert build_diamond().input_shape == (3, 16, 16)


class TestAnalytics:
    def test_topological_order_is_insertion_order(self):
        graph = build_diamond()
        order = graph.topological_order()
        positions = {v.name: i for i, v in enumerate(order)}
        for src, dst in graph.edges():
            assert positions[src.name] < positions[dst.name]

    def test_longest_distances_chain(self, alexnet):
        distances = alexnet.longest_distances()
        assert distances[0] == 0
        assert max(distances.values()) == len(alexnet) - 1

    def test_longest_distances_diamond(self):
        graph = build_diamond()
        distances = {graph.vertex(i).name: d for i, d in graph.longest_distances().items()}
        assert distances["input"] == 0
        assert distances["conv1"] == 1
        assert distances["branch_a"] == distances["branch_b"] == 2
        assert distances["concat"] == 3

    def test_graph_layers_partition_vertices(self, resnet18):
        layers = resnet18.graph_layers()
        total = sum(len(layer) for layer in layers)
        assert total == len(resnet18)
        assert [v.name for v in layers[0]] == ["input"]

    def test_is_chain(self, alexnet, resnet18):
        assert alexnet.is_chain()
        assert not resnet18.is_chain()

    def test_sis_vertices(self):
        # Reproduce the Fig. 6 example: v6 is a SIS vertex of v5 because its
        # predecessor set is a strict subset of v5's.
        builder = GraphBuilder("sis", input_shape=(3, 8, 8))
        builder.conv("v1", 4, kernel=1, padding=0)
        builder.conv("v2", 4, kernel=1, padding=0, inputs=["input"])
        builder.conv("v3", 4, kernel=1, padding=0, inputs=["input"])
        builder.concat("v5", inputs=["v1", "v2", "v3"])
        builder.concat("v6", inputs=["v1", "v2"])
        builder.concat("v7", inputs=["v6", "v3"])
        graph = builder.graph
        sis_of_v5 = {v.name for v in graph.sis_vertices("v5")}
        assert "v6" in sis_of_v5
        assert "v7" not in sis_of_v5

    def test_predecessor_indices(self):
        graph = build_diamond()
        concat = graph.vertex("concat")
        assert graph.predecessor_indices(concat.index) == tuple(
            p.index for p in graph.predecessors(concat.index)
        )
        assert graph.predecessor_indices(0) == ()

    def test_memos_are_invalidated_by_add_vertex(self):
        builder = GraphBuilder("grow", input_shape=(3, 8, 8))
        builder.conv("v1", 4, kernel=1, padding=0)
        builder.conv("v2", 4, kernel=1, padding=0, inputs=["input"])
        builder.concat("v3", inputs=["v1", "v2"])
        graph = builder.graph
        assert graph.sis_vertices("v3") == []
        edges_before = graph.edges()
        builder.relu("v4", inputs=["v1"])
        sis = graph.sis_vertices("v3")
        assert [v.name for v in sis] == ["v4"]
        edges_after = graph.edges()
        assert len(edges_after) == len(edges_before) + 1
        assert ("v1", "v4") in {(src.name, dst.name) for src, dst in edges_after}

    def test_memoized_results_are_fresh_lists(self):
        builder = GraphBuilder("fresh", input_shape=(3, 8, 8))
        builder.conv("v1", 4, kernel=1, padding=0)
        builder.conv("v2", 4, kernel=1, padding=0, inputs=["input"])
        builder.concat("v3", inputs=["v1", "v2"])
        builder.relu("v4", inputs=["v1"])
        graph = builder.graph
        graph.edges().clear()
        assert len(graph.edges()) == graph.num_edges
        graph.sis_vertices("v3").clear()
        assert [v.name for v in graph.sis_vertices("v3")] == ["v4"]

    def test_totals(self, alexnet):
        assert alexnet.total_flops() > 1e9
        assert alexnet.total_weights() > 50e6


class TestValidationAndExport:
    def test_validate_passes_for_models(self, alexnet, resnet18):
        alexnet.validate()
        resnet18.validate()

    def test_validate_detects_missing_input(self):
        graph = DnnGraph("bad")
        with pytest.raises(GraphError):
            graph.validate()

    def test_to_networkx_roundtrip(self, alexnet):
        nx_graph = alexnet.to_networkx()
        assert nx_graph.number_of_nodes() == len(alexnet)
        assert nx_graph.number_of_edges() == alexnet.num_edges

    def test_summary_mentions_every_vertex(self):
        graph = build_diamond()
        summary = graph.summary()
        for vertex in graph:
            assert vertex.name in summary
