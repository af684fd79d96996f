"""DeepBlock: a deliberately repetitive residual family for analysis studies.

Every block is byte-identical in structure -- ``conv -> conv -> add ->
identity`` at constant channel count and resolution -- so the forward graph is
one stem followed by ``blocks`` copies of the same articulation-point segment.
That makes DeepBlock the showcase preset for the static-analysis layer:

* :func:`~repro.analysis.analyses.isomorphic_segment_groups` groups all
  ``blocks`` segments under a single structural hash (repeated structure the
  MILP would otherwise pay for node-by-node), and
* the ``identity`` block-output alias is a zero-cost single-input node, so
  the linter reports one ``C002`` fusion candidate per block.

All ops have NumPy kernels, so the preset is executable end to end and its
rematerialized schedules can be proven bit-exact by the
:class:`~repro.execution.report.ExecutionReport`.
"""

from __future__ import annotations

from ..core.dfgraph import DFGraph
from .builder import INPUT, LayerGraphBuilder

__all__ = ["deepblock"]


def deepblock(
    *,
    blocks: int = 8,
    channels: int = 16,
    resolution: int = 16,
    num_classes: int = 10,
    batch_size: int = 1,
) -> DFGraph:
    """Build the DeepBlock forward graph.

    ``blocks`` identical residual blocks at constant width; each block
    contributes four nodes (two convolutions, the residual ``add``, and the
    zero-cost ``identity`` block-output alias).
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    b = LayerGraphBuilder(f"DeepBlock{blocks}", (3, resolution, resolution),
                          batch_size)
    h = b.conv("stem", INPUT, channels, kernel=3, padding="same")
    for k in range(1, blocks + 1):
        c1 = b.conv(f"block{k}_conv1", h, channels, kernel=3, padding="same")
        c2 = b.conv(f"block{k}_conv2", c1, channels, kernel=3, padding="same")
        s = b.add(f"block{k}_add", [h, c2])
        h = b.identity(f"block{k}_out", s)
    p = b.global_avgpool("head_pool", h)
    f = b.flatten("head_flatten", p)
    d = b.dense("head_fc", f, num_classes)
    b.softmax_loss("loss", d)
    return b.build()
