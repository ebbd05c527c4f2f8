"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.models.zoo import build_model
from repro.network.conditions import get_condition
from repro.profiling.profiler import Profiler
from repro.runtime.cluster import Cluster


@pytest.fixture(scope="session")
def alexnet():
    """Compact AlexNet graph (chain topology)."""
    return build_model("alexnet")


@pytest.fixture(scope="session")
def resnet18():
    """Compact ResNet-18 graph (DAG topology)."""
    return build_model("resnet18")


@pytest.fixture(scope="session")
def small_inception():
    """A reduced Inception-v4 (1 block per stage) for fast DAG tests."""
    return build_model("inception_v4", num_a=1, num_b=1, num_c=1)


@pytest.fixture(scope="session")
def tiny_conv_graph():
    """A small convolutional chain suitable for numeric execution."""
    builder = GraphBuilder("tiny", input_shape=(3, 32, 32))
    builder.conv("conv1", 8, kernel=3, stride=1, padding=1)
    builder.relu("relu1")
    builder.conv("conv2", 8, kernel=3, stride=2, padding=1)
    builder.maxpool("pool1", kernel=2, stride=2)
    builder.conv("conv3", 16, kernel=3, stride=1, padding=1)
    builder.flatten("flatten")
    builder.linear("fc", 10)
    builder.softmax("softmax")
    return builder.build()


@pytest.fixture(scope="session")
def wifi():
    return get_condition("wifi")


@pytest.fixture(scope="session")
def cluster_one_edge():
    return Cluster.build(network="wifi", num_edge_nodes=1)


@pytest.fixture(scope="session")
def cluster_four_edge():
    return Cluster.build(network="wifi", num_edge_nodes=4)


@pytest.fixture(scope="session")
def clean_profiler():
    """A profiler without measurement noise (deterministic latencies)."""
    return Profiler(noise_std=0.0, seed=0)


@pytest.fixture(scope="session")
def alexnet_profile(alexnet, cluster_one_edge, clean_profiler):
    """Noise-free per-tier latency profile of AlexNet."""
    return clean_profiler.build_profile_from_measurements(
        alexnet, cluster_one_edge.tier_hardware(), repeats=1
    )


@pytest.fixture(scope="session")
def resnet_profile(resnet18, cluster_one_edge, clean_profiler):
    """Noise-free per-tier latency profile of ResNet-18."""
    return clean_profiler.build_profile_from_measurements(
        resnet18, cluster_one_edge.tier_hardware(), repeats=1
    )


@pytest.fixture(scope="session")
def zoo_profiles(cluster_one_edge, clean_profiler):
    """Full-size zoo models with noise-free profiles: name -> (graph, profile)."""
    profiles = {}
    for name in ("alexnet", "resnet18", "vgg16", "darknet53", "inception_v4"):
        graph = build_model(name)
        profiles[name] = (
            graph,
            clean_profiler.build_profile_from_measurements(
                graph, cluster_one_edge.tier_hardware(), repeats=1
            ),
        )
    return profiles


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
