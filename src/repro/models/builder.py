"""Forward-graph builder: assembles architectures into :class:`DFGraph` objects.

The builder plays the role of Keras model tracing in the original Checkmate
system: the user (or one of the architecture modules in this package) declares
layers and their connectivity, and the builder performs shape inference,
computes per-layer FLOPs / parameter counts / activation sizes, and emits a
forward-pass :class:`~repro.core.dfgraph.DFGraph` whose

* node ``cost``   is the layer's forward FLOPs for the whole batch, and
* node ``memory`` is the layer's output activation size in bytes for the batch.

The network input is *not* a graph node -- following the paper, inputs (and
parameters) are assumed permanently resident and accounted as the constant
overhead term of Eq. (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dfgraph import DFGraph, NodeInfo
from . import layers as L

__all__ = ["LayerGraphBuilder", "INPUT"]

#: Sentinel parent meaning "the network input tensor".
INPUT = -1


@dataclass
class _LayerRecord:
    name: str
    op_type: str
    parents: Tuple[int, ...]
    out_shape: L.Shape
    flops: float
    params: int
    attrs: Dict[str, object] = field(default_factory=dict)


class LayerGraphBuilder:
    """Incrementally build a forward-pass data-flow graph.

    Parameters
    ----------
    name:
        Architecture name, propagated to the resulting graph.
    input_shape:
        Per-example input shape, e.g. ``(3, 224, 224)``.
    batch_size:
        Mini-batch size; multiplies activation memory and FLOPs.
    dtype_bytes:
        Bytes per scalar (4 for fp32 as in the paper).

    Layer-adding methods return the integer node id of the new layer, which is
    then used as the ``parent`` argument of downstream layers.  ``INPUT`` (-1)
    refers to the network input.
    """

    def __init__(self, name: str, input_shape: L.Shape, batch_size: int = 1,
                 dtype_bytes: int = 4) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.name = name
        self.input_shape: L.Shape = tuple(int(d) for d in input_shape)
        self.batch_size = int(batch_size)
        self.dtype_bytes = int(dtype_bytes)
        self._records: List[_LayerRecord] = []

    # ------------------------------------------------------------------ #
    # Core
    # ------------------------------------------------------------------ #
    def shape_of(self, node: int) -> L.Shape:
        """Output shape (per example) of a node, or of the input for ``INPUT``."""
        if node == INPUT:
            return self.input_shape
        if not (0 <= node < len(self._records)):
            raise ValueError(f"unknown layer id {node}")
        return self._records[node].out_shape

    def add_layer(self, name: str, op_type: str, parents: Sequence[int],
                  out_shape: L.Shape, flops: float, params: int = 0,
                  attrs: Optional[Dict[str, object]] = None) -> int:
        """Add an arbitrary layer with explicit shape / FLOPs / parameter count.

        ``attrs`` records the operation's hyper-parameters (kernel size,
        stride, padding, ...) so that downstream consumers -- notably the
        NumPy execution backend, which binds a real tensor function to every
        node -- can reconstruct the op exactly instead of inferring it from
        shapes.
        """
        resolved: List[int] = []
        for p in parents:
            if p == INPUT:
                continue  # the input tensor is not a graph node
            if not (0 <= p < len(self._records)):
                raise ValueError(f"layer {name!r}: unknown parent id {p}")
            resolved.append(int(p))
        record = _LayerRecord(
            name=name,
            op_type=op_type,
            parents=tuple(sorted(set(resolved))),
            out_shape=tuple(int(d) for d in out_shape),
            flops=float(flops),
            params=int(params),
            attrs=dict(attrs or {}),
        )
        self._records.append(record)
        return len(self._records) - 1

    # ------------------------------------------------------------------ #
    # Convenience layer constructors
    # ------------------------------------------------------------------ #
    def conv(self, name: str, parent: int, out_channels: int, kernel: int = 3,
             stride: int = 1, padding: str | int = "same", bias: bool = True) -> int:
        """Standard 2-D convolution."""
        in_shape = self.shape_of(parent)
        out_shape = L.conv2d_output_shape(in_shape, out_channels, kernel, stride, padding)
        flops = L.conv2d_flops(in_shape, out_shape, kernel)
        params = L.conv2d_params(in_shape[0], out_channels, kernel, bias)
        return self.add_layer(name, "conv2d", [parent], out_shape, flops, params,
                              attrs={"kernel": kernel, "stride": stride,
                                     "padding": padding, "bias": bias})

    def depthwise_conv(self, name: str, parent: int, kernel: int = 3, stride: int = 1) -> int:
        """Depthwise separable convolution's depthwise stage (MobileNet)."""
        in_shape = self.shape_of(parent)
        out_shape = L.conv2d_output_shape(in_shape, in_shape[0], kernel, stride, "same")
        flops = L.depthwise_conv2d_flops(in_shape, out_shape, kernel)
        params = L.depthwise_conv2d_params(in_shape[0], kernel)
        return self.add_layer(name, "depthwise_conv2d", [parent], out_shape, flops, params,
                              attrs={"kernel": kernel, "stride": stride,
                                     "padding": "same", "bias": True})

    def conv_transpose(self, name: str, parent: int, out_channels: int, kernel: int = 2,
                       stride: int = 2) -> int:
        """Transposed convolution used by the U-Net / FCN decoders."""
        in_shape = self.shape_of(parent)
        out_shape = L.conv_transpose2d_output_shape(in_shape, out_channels, kernel, stride)
        flops = L.conv_transpose2d_flops(in_shape, out_shape, kernel)
        params = L.conv2d_params(in_shape[0], out_channels, kernel)
        return self.add_layer(name, "conv_transpose2d", [parent], out_shape, flops, params,
                              attrs={"kernel": kernel, "stride": stride, "bias": True})

    def maxpool(self, name: str, parent: int, kernel: int = 2, stride: Optional[int] = None) -> int:
        in_shape = self.shape_of(parent)
        out_shape = L.pool2d_output_shape(in_shape, kernel, stride)
        return self.add_layer(name, "maxpool2d", [parent], out_shape,
                              L.pool2d_flops(out_shape, kernel),
                              attrs={"kernel": kernel,
                                     "stride": stride if stride is not None else kernel})

    def avgpool(self, name: str, parent: int, kernel: int = 2, stride: Optional[int] = None) -> int:
        in_shape = self.shape_of(parent)
        out_shape = L.pool2d_output_shape(in_shape, kernel, stride)
        return self.add_layer(name, "avgpool2d", [parent], out_shape,
                              L.pool2d_flops(out_shape, kernel),
                              attrs={"kernel": kernel,
                                     "stride": stride if stride is not None else kernel})

    def global_avgpool(self, name: str, parent: int) -> int:
        in_shape = self.shape_of(parent)
        out_shape = L.global_pool_output_shape(in_shape)
        return self.add_layer(name, "global_avgpool", [parent], out_shape, float(L.numel(in_shape)))

    def upsample(self, name: str, parent: int, factor: int = 2) -> int:
        in_shape = self.shape_of(parent)
        out_shape = L.upsample_output_shape(in_shape, factor)
        return self.add_layer(name, "upsample2d", [parent], out_shape,
                              L.upsample_flops(out_shape), attrs={"factor": factor})

    def relu(self, name: str, parent: int) -> int:
        shape = self.shape_of(parent)
        return self.add_layer(name, "relu", [parent], shape, L.activation_flops(shape))

    def batchnorm(self, name: str, parent: int) -> int:
        shape = self.shape_of(parent)
        return self.add_layer(name, "batchnorm", [parent], shape, L.batchnorm_flops(shape),
                              L.batchnorm_params(shape[0]))

    def add(self, name: str, parents: Sequence[int]) -> int:
        """Element-wise addition (residual connections)."""
        shapes = [self.shape_of(p) for p in parents]
        base = shapes[0]
        for s in shapes[1:]:
            if s != base:
                raise ValueError(f"add {name!r}: mismatched shapes {shapes}")
        return self.add_layer(name, "add", parents, base, L.elementwise_flops(base))

    def concat(self, name: str, parents: Sequence[int]) -> int:
        """Channel-wise concatenation (U-Net skip connections, DenseNet blocks)."""
        shapes = [self.shape_of(p) for p in parents]
        out_shape = L.concat_output_shape(shapes)
        return self.add_layer(name, "concat", parents, out_shape, float(L.numel(out_shape)))

    def flatten(self, name: str, parent: int) -> int:
        shape = self.shape_of(parent)
        return self.add_layer(name, "flatten", [parent], (L.numel(shape),), 0.0)

    def identity(self, name: str, parent: int) -> int:
        """Shape- and value-preserving pass-through (cost 0).

        Stands in for the framework ops that materialize a new tensor name
        without computing anything -- views, block-output aliases, residual
        joins in traced graphs.  The linter reports each zero-cost
        single-input node as a ``C002`` fusion candidate.
        """
        shape = self.shape_of(parent)
        return self.add_layer(name, "identity", [parent], shape, 0.0)

    def dense(self, name: str, parent: int, out_features: int, bias: bool = True) -> int:
        shape = self.shape_of(parent)
        in_features = L.numel(shape)
        return self.add_layer(name, "dense", [parent], (int(out_features),),
                              L.dense_flops(in_features, out_features),
                              L.dense_params(in_features, out_features, bias),
                              attrs={"bias": bias})

    def softmax_loss(self, name: str, parent: int) -> int:
        """Classification head: softmax + loss collapsed into a single scalar-output node."""
        shape = self.shape_of(parent)
        return self.add_layer(name, "softmax_loss", [parent], (1,), L.softmax_flops(shape))

    # ------------------------------------------------------------------ #
    # Compound blocks shared by several architectures
    # ------------------------------------------------------------------ #
    def conv_bn_relu(self, name: str, parent: int, out_channels: int, kernel: int = 3,
                     stride: int = 1, padding: str | int = "same") -> int:
        """Conv -> BatchNorm -> ReLU, the standard block in ResNet/MobileNet/SegNet."""
        c = self.conv(f"{name}_conv", parent, out_channels, kernel, stride, padding, bias=False)
        b = self.batchnorm(f"{name}_bn", c)
        return self.relu(f"{name}_relu", b)

    def conv_relu(self, name: str, parent: int, out_channels: int, kernel: int = 3,
                  stride: int = 1, padding: str | int = "same") -> int:
        """Conv -> ReLU, the VGG-style block."""
        c = self.conv(f"{name}_conv", parent, out_channels, kernel, stride, padding)
        return self.relu(f"{name}_relu", c)

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self._records)

    def total_params(self) -> int:
        return sum(r.params for r in self._records)

    def build(self) -> DFGraph:
        """Emit the forward-pass :class:`DFGraph`.

        The graph's per-node cost is the layer's batch FLOPs and per-node memory
        is the batch activation size in bytes.  Layer metadata (op types,
        per-example shapes, FLOPs, parameter counts) is preserved in
        ``graph.meta`` for cost models and reporting.
        """
        if not self._records:
            raise ValueError("cannot build an empty network")
        nodes: List[NodeInfo] = []
        deps: Dict[int, List[int]] = {}
        for idx, rec in enumerate(self._records):
            memory = self.batch_size * L.numel(rec.out_shape) * self.dtype_bytes
            cost = rec.flops * self.batch_size
            nodes.append(NodeInfo(name=rec.name, cost=cost, memory=memory,
                                  is_backward=False, layer_id=idx))
            deps[idx] = list(rec.parents)
        input_memory = self.batch_size * L.numel(self.input_shape) * self.dtype_bytes
        parameter_memory = self.total_params() * self.dtype_bytes
        meta = {
            "batch_size": self.batch_size,
            "dtype_bytes": self.dtype_bytes,
            "input_shape": self.input_shape,
            "op_types": [r.op_type for r in self._records],
            "op_attrs": [r.attrs for r in self._records],
            "shapes": [r.out_shape for r in self._records],
            "flops": [r.flops * self.batch_size for r in self._records],
            "params": [r.params for r in self._records],
        }
        return DFGraph(nodes=nodes, deps=deps, input_memory=input_memory,
                       parameter_memory=parameter_memory, name=self.name, meta=meta)
