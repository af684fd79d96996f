"""Shared fixtures: small graphs used throughout the test-suite."""

from __future__ import annotations

import pytest

from repro.autodiff import make_training_graph
from repro.core import DFGraph, NodeInfo, linear_graph
from repro.cost_model import FlopCostModel
from repro.models import resnet_tiny, unet, vgg16


@pytest.fixture
def chain5() -> DFGraph:
    """A 5-node unit linear forward chain."""
    return linear_graph(5, cost=1.0, memory=1)


@pytest.fixture
def chain5_train(chain5) -> DFGraph:
    """Training graph (10 nodes) of the 5-node chain, unit-ish costs."""
    return make_training_graph(chain5)


@pytest.fixture
def varied_chain_train() -> DFGraph:
    """A chain with strongly non-uniform costs and memories, differentiated."""
    fwd = linear_graph(6, cost=[1, 50, 2, 30, 4, 10], memory=[8, 2, 16, 4, 32, 1])
    return make_training_graph(fwd)


@pytest.fixture
def diamond_graph() -> DFGraph:
    """A small non-linear DAG: one fork/join (residual-style) plus a tail.

        0 -> 1 -> 3 -> 4
        0 ------> 3          (skip edge)
    """
    nodes = [NodeInfo(f"n{i}", cost=float(i + 1), memory=2 + i) for i in range(5)]
    deps = {0: [], 1: [0], 2: [1], 3: [0, 2], 4: [3]}
    return DFGraph(nodes=nodes, deps=deps, name="diamond")


@pytest.fixture
def diamond_train(diamond_graph) -> DFGraph:
    return make_training_graph(diamond_graph)


@pytest.fixture(scope="session")
def tiny_vgg_train() -> DFGraph:
    """A small VGG16 training graph with FLOP costs (46 nodes)."""
    return FlopCostModel().apply(make_training_graph(vgg16(batch_size=2, resolution=32)))


@pytest.fixture(scope="session")
def tiny_unet_train() -> DFGraph:
    """A small U-Net training graph: the non-linear workload."""
    fwd = unet(batch_size=1, resolution=(32, 32), base_filters=4, depth=2, convs_per_block=1)
    return FlopCostModel().apply(make_training_graph(fwd))


@pytest.fixture(scope="session")
def tiny_resnet_train() -> DFGraph:
    """A small residual network training graph."""
    return FlopCostModel().apply(make_training_graph(resnet_tiny(batch_size=1, resolution=16)))
