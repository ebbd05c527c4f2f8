"""Execute a :class:`repro.graph.dag.DnnGraph` on concrete numpy arrays.

Weights are irrelevant to partitioning, so graphs carry only layer
configurations; when actual activations are needed (losslessness verification,
the end-to-end examples) the :class:`WeightStore` materialises deterministic
pseudo-random weights per layer, keyed by the layer name, so that repeated runs
and distributed runs (device / edge / cloud partitions executed separately)
see exactly the same parameters.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.graph.dag import DnnGraph, Vertex
from repro.graph.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    InputLayer,
    LeakyReLU,
    Linear,
    LocalResponseNorm,
    MaxPool2d,
    ReLU,
    Softmax,
)
from repro.tensors import ops


class WeightStore:
    """Deterministic per-layer weight provider.

    Weights for layer ``name`` are drawn from a generator seeded by
    ``(seed, crc32(name))`` so that any process — or any simulated node
    holding only a partition of the graph — reconstructs identical
    parameters.  The CRC-32 digest does not depend on ``PYTHONHASHSEED``,
    unlike :func:`hash`, whose string values are salted per process.
    """

    def __init__(self, seed: int = 0, scale: float = 0.1) -> None:
        self.seed = seed
        self.scale = scale
        self._cache: Dict[str, Dict[str, np.ndarray]] = {}

    def _rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng((self.seed, zlib.crc32(name.encode())))

    def conv_weights(self, name: str, spec: Conv2d, in_channels: int) -> Dict[str, np.ndarray]:
        """Filters and bias for a convolution layer."""
        if name not in self._cache:
            rng = self._rng(name)
            kernel_h, kernel_w = spec.kernel
            weight = rng.standard_normal(
                (spec.out_channels, in_channels // spec.groups, kernel_h, kernel_w)
            ) * self.scale
            bias = rng.standard_normal(spec.out_channels) * self.scale if spec.bias else None
            self._cache[name] = {"weight": weight, "bias": bias}
        return self._cache[name]

    def linear_weights(self, name: str, spec: Linear, in_features: int) -> Dict[str, np.ndarray]:
        """Weight matrix and bias for a fully connected layer."""
        if name not in self._cache:
            rng = self._rng(name)
            weight = rng.standard_normal((spec.out_features, in_features)) * self.scale
            bias = rng.standard_normal(spec.out_features) * self.scale if spec.bias else None
            self._cache[name] = {"weight": weight, "bias": bias}
        return self._cache[name]

    def batchnorm_weights(self, name: str, channels: int) -> Dict[str, np.ndarray]:
        """Scale/shift/statistics for a batch-norm layer."""
        if name not in self._cache:
            rng = self._rng(name)
            self._cache[name] = {
                "gamma": 1.0 + 0.1 * rng.standard_normal(channels),
                "beta": 0.1 * rng.standard_normal(channels),
                "mean": 0.1 * rng.standard_normal(channels),
                "var": 1.0 + 0.1 * np.abs(rng.standard_normal(channels)),
            }
        return self._cache[name]


class GraphExecutor:
    """Run a DNN graph (or a subset of it) on real arrays.

    Parameters
    ----------
    graph:
        The annotated DNN DAG.
    weights:
        Weight provider; pass the same store to every partition executor to
        guarantee identical parameters across simulated nodes.
    """

    def __init__(self, graph: DnnGraph, weights: Optional[WeightStore] = None) -> None:
        self.graph = graph
        self.weights = weights or WeightStore()

    # ------------------------------------------------------------------ #
    def run(self, input_array: np.ndarray) -> Dict[int, np.ndarray]:
        """Execute the whole graph; returns every vertex's output by index."""
        expected = self.graph.input_shape
        if tuple(input_array.shape) != tuple(expected):
            raise ValueError(f"input shape {input_array.shape} does not match graph input {expected}")
        activations: Dict[int, np.ndarray] = {}
        for vertex in self.graph.topological_order():
            inputs = [activations[p.index] for p in self.graph.predecessors(vertex.index)]
            activations[vertex.index] = self.run_vertex(vertex, inputs, input_array)
        return activations

    def output(self, input_array: np.ndarray) -> np.ndarray:
        """Execute the graph and return the final output vertex's activation."""
        activations = self.run(input_array)
        outputs = self.graph.output_vertices()
        return activations[outputs[-1].index]

    def run_subgraph(
        self,
        vertex_indices: Sequence[int],
        boundary_inputs: Dict[int, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """Execute only ``vertex_indices``, given activations for their inputs.

        ``boundary_inputs`` must contain the activation of every vertex outside
        the subset that feeds a vertex inside it.  This is how the simulated
        device/edge/cloud nodes each run their own partition.
        """
        subset = set(vertex_indices)
        activations: Dict[int, np.ndarray] = dict(boundary_inputs)
        for vertex in self.graph.topological_order():
            if vertex.index not in subset:
                continue
            if vertex.index in boundary_inputs:
                # Already supplied by the caller (e.g. the virtual input).
                continue
            inputs = []
            for pred in self.graph.predecessors(vertex.index):
                if pred.index not in activations:
                    raise KeyError(
                        f"missing activation for predecessor {pred.name!r} of {vertex.name!r}"
                    )
                inputs.append(activations[pred.index])
            activations[vertex.index] = self.run_vertex(vertex, inputs, None)
        return {i: activations[i] for i in subset}

    # ------------------------------------------------------------------ #
    def run_vertex(
        self,
        vertex: Vertex,
        inputs: Sequence[np.ndarray],
        graph_input: Optional[np.ndarray],
    ) -> np.ndarray:
        """Execute one vertex given its input activations."""
        spec = vertex.spec
        if isinstance(spec, InputLayer):
            if graph_input is None:
                raise ValueError("the input vertex needs the graph input array")
            return np.asarray(graph_input, dtype=np.float64)
        if isinstance(spec, Conv2d):
            params = self.weights.conv_weights(vertex.name, spec, inputs[0].shape[0])
            return ops.conv2d(inputs[0], params["weight"], params["bias"], spec.stride, spec.padding)
        if isinstance(spec, MaxPool2d):
            return ops.max_pool2d(inputs[0], spec.kernel, spec.stride, spec.padding)
        if isinstance(spec, AvgPool2d):
            return ops.avg_pool2d(inputs[0], spec.kernel, spec.stride, spec.padding)
        if isinstance(spec, GlobalAvgPool2d):
            return ops.global_avg_pool2d(inputs[0])
        if isinstance(spec, Linear):
            params = self.weights.linear_weights(vertex.name, spec, inputs[0].shape[0])
            return ops.linear(inputs[0], params["weight"], params["bias"])
        if isinstance(spec, ReLU):
            return ops.relu(inputs[0])
        if isinstance(spec, LeakyReLU):
            return ops.leaky_relu(inputs[0], spec.negative_slope)
        if isinstance(spec, BatchNorm2d):
            params = self.weights.batchnorm_weights(vertex.name, inputs[0].shape[0])
            return ops.batch_norm(
                inputs[0], params["gamma"], params["beta"], params["mean"], params["var"]
            )
        if isinstance(spec, LocalResponseNorm):
            return ops.local_response_norm(inputs[0], spec.size)
        if isinstance(spec, Dropout):
            return inputs[0]
        if isinstance(spec, Flatten):
            return ops.flatten(inputs[0])
        if isinstance(spec, Softmax):
            return ops.softmax(inputs[0])
        if isinstance(spec, Concat):
            return ops.concat_channels(*inputs)
        if isinstance(spec, Add):
            return ops.add(*inputs)
        raise TypeError(f"no numpy implementation for layer kind {vertex.kind!r}")
