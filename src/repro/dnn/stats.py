"""Compilation of a network into the quantities the simulator consumes.

``compile_network`` runs shape inference once and derives, per layer:
parameter arrays, forward/backward FLOPs per sample, and activation bytes.
The resulting :class:`NetworkStats` feeds three consumers:

* the GPU kernel model (FLOPs and bytes per kernel),
* the communicators (the list of gradient/weight arrays, i.e. KVStore keys),
* the memory model (activation and parameter footprints).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dnn.layers.base import Layer, LayerKind, ParamArray
from repro.dnn.network import INPUT, Network
from repro.dnn.shapes import Shape

#: All tensors are single-precision in the paper's MXNet container.
DTYPE_BYTES = 4


@dataclass(frozen=True)
class WeightArray:
    """One KVStore key: a learnable array owned by a layer."""

    key: int
    name: str
    numel: int
    layer: str

    @property
    def nbytes(self) -> int:
        return self.numel * DTYPE_BYTES


@dataclass(frozen=True)
class CompiledLayer:
    """Per-layer cost summary (per sample, batch-independent)."""

    name: str
    kind: LayerKind
    module: Optional[str]
    output_shape: Shape
    input_numel: int
    output_numel: int
    forward_flops: float
    backward_flops: float
    backward_kernels: int
    param_numel: int

    @property
    def output_bytes(self) -> int:
        return self.output_numel * DTYPE_BYTES

    @functools.cached_property
    def is_weighted(self) -> bool:
        # Read per layer and GPU in every simulated iteration.
        return self.param_numel > 0

    @property
    def im2col_bytes(self) -> int:
        """Per-sample im2col patch-matrix size (convolutions only).

        ``forward_flops = 2 * patch_elements * out_channels``, so the patch
        matrix holds ``forward_flops / (2 * out_channels)`` elements.  This
        bounds the cuDNN workspace the fastest algorithms request.
        """
        if self.kind is not LayerKind.CONV or not self.output_numel:
            return 0
        return (
            int(self.forward_flops / 2) * DTYPE_BYTES
            // max(1, self.output_shape.channels)
        )

    @property
    def allocates_output(self) -> bool:
        """Whether the layer materializes a new output buffer.

        MXNet's memory planner runs element-wise activations and dropout
        in place and implements flatten as a view, so those layers do not
        contribute to the activation footprint.
        """
        return self.kind not in (
            LayerKind.ACTIVATION,
            LayerKind.DROPOUT,
            LayerKind.RESHAPE,
        )


@dataclass(frozen=True)
class NetworkStats:
    """Everything the simulator needs to know about one network."""

    name: str
    input_shape: Shape
    layers: Tuple[CompiledLayer, ...]
    weight_arrays: Tuple[WeightArray, ...]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    # The network-wide sums read on every memory-model call are taken
    # once per compiled network.
    @functools.cached_property
    def total_params(self) -> int:
        return sum(w.numel for w in self.weight_arrays)

    @property
    def model_bytes(self) -> int:
        """Bytes of the parameter set (and of one gradient set)."""
        return self.total_params * DTYPE_BYTES

    @property
    def forward_flops_per_sample(self) -> float:
        return sum(l.forward_flops for l in self.layers)

    @property
    def backward_flops_per_sample(self) -> float:
        return sum(l.backward_flops for l in self.layers)

    @property
    def activation_numel_per_sample(self) -> int:
        """Sum of all layer outputs (the feature maps kept for BP)."""
        return sum(l.output_numel for l in self.layers)

    @property
    def activation_bytes_per_sample(self) -> int:
        return self.activation_numel_per_sample * DTYPE_BYTES

    @functools.cached_property
    def materialized_activation_bytes_per_sample(self) -> int:
        """Bytes of feature maps actually allocated per sample.

        Excludes in-place layers (see
        :attr:`CompiledLayer.allocates_output`); this is the quantity the
        memory model scales with batch size.
        """
        return sum(l.output_bytes for l in self.layers if l.allocates_output)

    @functools.cached_property
    def conv_im2col_bytes_per_sample(self) -> Tuple[int, ...]:
        """Per-convolution im2col sizes (one workspace is cached per op)."""
        return tuple(l.im2col_bytes for l in self.layers if l.im2col_bytes > 0)

    @property
    def largest_output_bytes(self) -> int:
        return max(l.output_bytes for l in self.layers)

    def count_layers(self, kind: LayerKind) -> int:
        return sum(1 for l in self.layers if l.kind is kind)

    @property
    def conv_layer_count(self) -> int:
        return self.count_layers(LayerKind.CONV)

    @property
    def fc_layer_count(self) -> int:
        return self.count_layers(LayerKind.FC)

    @property
    def module_count(self) -> int:
        modules = {l.module for l in self.layers if l.module is not None}
        return len(modules)

    def arrays_of_layer(self, layer_name: str) -> Tuple[WeightArray, ...]:
        """The weight arrays ``layer_name`` owns, in KVStore-key order."""
        return self._arrays_by_layer.get(layer_name, ())

    @functools.cached_property
    def _arrays_by_layer(self) -> Dict[str, Tuple[WeightArray, ...]]:
        """:meth:`arrays_of_layer` for every layer, grouped once."""
        by_layer: Dict[str, List[WeightArray]] = {}
        for w in self.weight_arrays:
            by_layer.setdefault(w.layer, []).append(w)
        return {layer: tuple(ws) for layer, ws in by_layer.items()}


def compile_network(network: Network, input_shape: Shape) -> NetworkStats:
    """Run shape inference and cost accounting over ``network``."""
    shapes = network.infer_shapes(input_shape)
    layers: List[CompiledLayer] = []
    arrays: List[WeightArray] = []
    key = 0
    for name, node in network.nodes():
        in_shapes = [shapes[s] for s in node.inputs]
        out_shape = shapes[name]
        params = node.layer.param_arrays(in_shapes)
        for p in params:
            arrays.append(WeightArray(key=key, name=p.name, numel=p.numel, layer=name))
            key += 1
        layers.append(
            CompiledLayer(
                name=name,
                kind=node.layer.kind,
                module=node.module,
                output_shape=out_shape,
                input_numel=sum(s.numel for s in in_shapes),
                output_numel=out_shape.numel,
                forward_flops=node.layer.forward_flops(in_shapes, out_shape),
                backward_flops=node.layer.backward_flops(in_shapes, out_shape),
                backward_kernels=node.layer.backward_kernel_count(),
                param_numel=sum(p.numel for p in params),
            )
        )
    return NetworkStats(
        name=network.name,
        input_shape=input_shape,
        layers=tuple(layers),
        weight_arrays=tuple(arrays),
    )
