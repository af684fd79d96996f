"""Shared fixtures and helpers for the benchmark harness.

Each figure module regenerates one table or figure of the paper at CI scale
(small batch sizes / resolutions, short MILP time limits) so the whole harness
runs on a single CPU core.  The printed output of each benchmark is the text
analogue of the corresponding figure.  ``test_perf_gates.py`` holds the
relative performance gates CI runs.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.cost_model import FlopCostModel, ProfileCostModel
from repro.experiments import build_training_graph
from repro.service import get_default_service


@pytest.fixture(scope="session")
def solve_service():
    """One solve service for the whole harness.

    Returns the process-wide default service -- the same one experiments fall
    back to when called with ``service=None`` -- so every figure runs against
    a single plan cache and no cell is ever solved twice in a session.  As
    currently parameterized the figures use different cost models / budget
    grids, so cross-figure cache hits are rare; the shared service still
    dedupes repeats within a figure and keeps the plumbing uniform.
    """
    return get_default_service()


@pytest.fixture(scope="session")
def vgg16_profile_graph():
    """VGG16 training graph with the profile cost model (Figure 5a setting)."""
    return build_training_graph("vgg16", cost_model=ProfileCostModel(), scale="ci")


@pytest.fixture(scope="session")
def mobilenet_profile_graph():
    """MobileNet training graph with the profile cost model (Figure 5b setting)."""
    return build_training_graph("mobilenet", cost_model=ProfileCostModel(), scale="ci")


@pytest.fixture(scope="session")
def unet_profile_graph():
    """U-Net training graph with the profile cost model (Figure 5c setting)."""
    return build_training_graph("unet", cost_model=ProfileCostModel(), scale="ci")


@pytest.fixture(scope="session")
def vgg16_flop_graph():
    """VGG16 training graph with FLOP costs (Table 2 / Figure 8 setting)."""
    return build_training_graph("vgg16", cost_model=FlopCostModel(), scale="ci")


@pytest.fixture(scope="session")
def mobilenet_flop_graph():
    return build_training_graph("mobilenet", cost_model=FlopCostModel(), scale="ci")


@pytest.fixture(scope="session")
def unet_flop_graph():
    return build_training_graph("unet", cost_model=FlopCostModel(), scale="ci")
