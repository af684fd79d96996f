"""Model/workload presets used by the experiment harness.

Two scales are provided for every architecture in the paper's evaluation:

* ``ci`` -- reduced batch size and resolution so that a full reproduction run
  (including MILP solves) completes on a single CPU core in minutes.  The
  *relative* comparisons between strategies (who wins, where the crossovers
  are) are preserved at this scale.
* ``paper`` -- the batch sizes and resolutions reported in the paper
  (Figure 5: VGG16 b=256, MobileNet b=512, U-Net b=32 at 416x608; Figure 6:
  segmentation networks at 416x608, classification at 224x224).  Expect long
  solver runtimes at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..autodiff import BackwardConfig, make_training_graph
from ..core.dfgraph import DFGraph
from ..cost_model import CostModel, FlopCostModel
from ..models import deepblock, fcn8, mobilenet_v1, resnet50, resnet_tiny, segnet, unet, vgg16, vgg19
from ..models.linear import linear_cnn, linear_mlp

__all__ = ["ExperimentModel", "EXPERIMENT_MODELS", "preset_model",
           "build_training_graph", "build_numeric_training_graph"]


@dataclass(frozen=True)
class ExperimentModel:
    """One workload of the paper's evaluation with CI- and paper-scale settings."""

    name: str
    builder: Callable[..., DFGraph]
    ci_kwargs: dict
    paper_kwargs: dict


EXPERIMENT_MODELS: Dict[str, ExperimentModel] = {
    "vgg16": ExperimentModel(
        name="VGG16",
        builder=vgg16,
        ci_kwargs={"batch_size": 16, "resolution": 64},
        paper_kwargs={"batch_size": 256, "resolution": 224},
    ),
    "vgg19": ExperimentModel(
        name="VGG19",
        builder=vgg19,
        ci_kwargs={"batch_size": 16, "resolution": 64},
        paper_kwargs={"batch_size": 167, "resolution": 224},
    ),
    "mobilenet": ExperimentModel(
        name="MobileNet",
        builder=mobilenet_v1,
        ci_kwargs={"batch_size": 32, "resolution": 64},
        paper_kwargs={"batch_size": 512, "resolution": 224},
    ),
    "unet": ExperimentModel(
        name="U-Net",
        builder=unet,
        ci_kwargs={"batch_size": 2, "resolution": (96, 128), "base_filters": 16, "depth": 3},
        paper_kwargs={"batch_size": 32, "resolution": (416, 608)},
    ),
    "fcn8": ExperimentModel(
        name="FCN8",
        builder=fcn8,
        ci_kwargs={"batch_size": 2, "resolution": (96, 128),
                   "encoder_cfg": [[32, 32], [64, 64], [128, 128], [128, 128], [128, 128]]},
        paper_kwargs={"batch_size": 16, "resolution": (416, 608)},
    ),
    "segnet": ExperimentModel(
        name="SegNet",
        builder=segnet,
        ci_kwargs={"batch_size": 2, "resolution": (96, 128),
                   "encoder_cfg": [[32, 32], [64, 64], [128, 128]]},
        paper_kwargs={"batch_size": 21, "resolution": (416, 608)},
    ),
    "resnet50": ExperimentModel(
        name="ResNet50",
        builder=resnet50,
        ci_kwargs={"batch_size": 8, "resolution": 64},
        paper_kwargs={"batch_size": 167, "resolution": 224},
    ),
    "resnet_tiny": ExperimentModel(
        name="ResNetTiny",
        builder=resnet_tiny,
        ci_kwargs={"batch_size": 4, "resolution": 32},
        paper_kwargs={"batch_size": 64, "resolution": 32},
    ),
    # Linear/chain workloads: the setting of the prior checkpointing work the
    # paper generalizes (Appendix A, Figure 1).  Small enough that exact MILP
    # solves finish in seconds, and -- like every builder graph -- executable
    # over real tensors via the NumPy backend.
    "linear_mlp": ExperimentModel(
        name="LinearMLP",
        builder=linear_mlp,
        ci_kwargs={"hidden_sizes": [64] * 8, "batch_size": 8, "input_features": 64},
        paper_kwargs={"hidden_sizes": [4096] * 8, "batch_size": 256,
                      "input_features": 4096},
    ),
    "linear_cnn": ExperimentModel(
        name="LinearCNN",
        builder=linear_cnn,
        ci_kwargs={"num_layers": 8, "batch_size": 2, "resolution": 32,
                   "channels": 16, "pool_every": 3},
        paper_kwargs={"num_layers": 8, "batch_size": 64, "resolution": 224,
                      "channels": 64, "pool_every": 3},
    ),
    # Deep repeated-block family: every residual block is structurally
    # identical and carries a zero-cost identity alias, making this the
    # showcase for the isomorphic-segment census and the linter's C002
    # fusion candidates -- see repro.models.deepblock.
    "deepblock": ExperimentModel(
        name="DeepBlock",
        builder=deepblock,
        ci_kwargs={"blocks": 4, "channels": 8, "resolution": 8, "batch_size": 2},
        paper_kwargs={"blocks": 16, "channels": 64, "resolution": 56,
                      "batch_size": 32},
    ),
}


def preset_model(key: str, *, scale: str = "ci", batch_size: Optional[int] = None,
                 **overrides) -> DFGraph:
    """Build a forward graph for a named preset at the requested scale."""
    if key not in EXPERIMENT_MODELS:
        raise KeyError(f"unknown experiment model {key!r}; known: {sorted(EXPERIMENT_MODELS)}")
    preset = EXPERIMENT_MODELS[key]
    kwargs = dict(preset.ci_kwargs if scale == "ci" else preset.paper_kwargs)
    kwargs.update(overrides)
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    return preset.builder(**kwargs)


def build_training_graph(
    key_or_graph,
    *,
    scale: str = "ci",
    cost_model: Optional[CostModel] = None,
    batch_size: Optional[int] = None,
    backward_config: Optional[BackwardConfig] = None,
    **overrides,
) -> DFGraph:
    """Convenience: preset/forward graph -> training graph with costs applied.

    ``key_or_graph`` may be a preset key (``"vgg16"``) or an already-built
    forward :class:`DFGraph`.  ``cost_model`` defaults to the FLOP model used
    by the paper's Figure 6 / Table 2; pass ``ProfileCostModel()`` for the
    Figure 5 setting.
    """
    if isinstance(key_or_graph, DFGraph):
        forward = key_or_graph
    else:
        forward = preset_model(key_or_graph, scale=scale, batch_size=batch_size, **overrides)
    training = make_training_graph(forward, backward_config)
    model = cost_model or FlopCostModel()
    return model.apply(training)


def build_numeric_training_graph(
    key_or_graph,
    *,
    scale: str = "ci",
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    batch_size: Optional[int] = None,
    backward_config: Optional[BackwardConfig] = None,
    **overrides,
):
    """Preset/forward graph -> *executable* training graph.

    Builds the same training graph as :func:`build_training_graph` and binds
    NumPy forward and backward functions to every node (deterministic in
    ``seed``), returning a :class:`~repro.execution.ops.NumericGraph` whose
    schedules can be run over real tensors with
    :func:`~repro.execution.execute_plan` /
    :func:`~repro.execution.build_execution_report`.
    """
    from ..execution import bind_numeric_graph

    training = build_training_graph(
        key_or_graph, scale=scale, cost_model=cost_model, batch_size=batch_size,
        backward_config=backward_config, **overrides)
    return bind_numeric_graph(training, seed=seed)
