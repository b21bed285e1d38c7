"""Uniform fake quantization with straight-through gradients.

A quantizer is described by a closed range [m, M] and a bit width n. The
grid step is (M - m) / 2**n, which places 2**n + 1 representable points with
both range endpoints on the grid. Values are clamped to the range first,
snapped with round-half-away-from-zero, and reconstructed on the real axis
(fake quantization: outputs stay floating point).

Two range policies exist. Weight tensors use their own min/max, recomputed
live at every forward. Activation ranges are tracked as an exponential
moving average of observed batch min/max and frozen outside of training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import ensure_finite

WEIGHT_POLICY = "weight_minmax_per_tensor"
ACTIVATION_POLICY = "activation_ema_minmax"


class QuantRangeError(ValueError):
    pass


@dataclass
class QuantConfig:
    bits: int
    m: float = 0.0
    M_up: float = 0.0
    range_policy: str = ACTIVATION_POLICY
    ema_momentum: float = 0.99
    initialized: bool = False

    @property
    def scale(self):
        return (self.M_up - self.m) / (2 ** self.bits)


@dataclass
class QuantPoint:
    """Attachment of a quantizer to a graph location.

    target is "weights" (annotates a conv/depthwise/affine layer) or
    "activations" (a standalone pass-through layer).
    """

    target: str
    cfg: QuantConfig
    enabled: bool = True


def act_point_applies(point):
    """Whether an activation point snaps its input: it is enabled and has a
    range that is initialized and not collapsed to a single value."""
    return point.enabled and point.cfg.initialized and point.cfg.M_up > point.cfg.m


def _round_half_away(t):
    return np.where(t >= 0, np.floor(t + 0.5), np.ceil(t - 0.5))


def quantize(x, cfg):
    """Snap x onto the quantizer grid of cfg. Errors on a degenerate range."""
    ensure_finite("quantize", x)
    if cfg.bits < 1:
        raise QuantRangeError(f"bits must be >= 1, got {cfg.bits}")
    if not cfg.M_up > cfg.m:
        raise QuantRangeError(f"degenerate quantizer range [{cfg.m}, {cfg.M_up}]")
    scale = cfg.scale
    clipped = np.clip(x, cfg.m, cfg.M_up)
    return (_round_half_away((clipped - cfg.m) / scale) * scale + cfg.m).astype(x.dtype, copy=False)


def quantize_backward(grad_out, x, cfg):
    """Straight-through gradient: passes where x lies inside [m, M], else zero."""
    mask = (x >= cfg.m) & (x <= cfg.M_up)
    return grad_out * mask


def weight_range_cfg(weights, bits):
    """Per-tensor live range for weight quantization."""
    lo = float(weights.min())
    hi = float(weights.max())
    if not hi > lo:
        raise QuantRangeError("weight tensor has zero spread, cannot derive a range")
    return QuantConfig(bits=bits, m=lo, M_up=hi, range_policy=WEIGHT_POLICY, initialized=True)


def update_activation_range(observed, cfg):
    """Fold one observation into the EMA range. Returns a new QuantConfig.

    The first observation initializes the range directly.
    """
    lo = float(observed.min())
    hi = float(observed.max())
    if not cfg.initialized:
        return replace(cfg, m=lo, M_up=hi, initialized=True)
    mu = cfg.ema_momentum
    return replace(cfg, m=cfg.m * mu + lo * (1.0 - mu), M_up=cfg.M_up * mu + hi * (1.0 - mu))


def insert_quant_points(graph, act_bits, weight_bits, *, ema_momentum=0.99,
                        act_enabled=True, weight_enabled=False):
    """Annotate a graph with quantization points.

    Placement: an activation point after every relu/relu6/global_avg_pool
    layer except the final layer of the graph; add-junction outputs never get
    one. A weight point goes on every conv, depthwise conv, and affine,
    including the first and last. Junction references to a layer that gained
    an activation point are rewritten to the quantized value so every
    consumer sees the same tensor.

    Weight points start disabled by default because the staged workflow turns
    them on only after folding; pass weight_enabled=True for standalone use.
    """
    from . import graph as graph_mod

    if any(layer.kind == "quant_point" for layer in graph.layers) or any(
        layer.weight_quant is not None for layer in graph.layers
    ):
        raise graph_mod.GraphError("graph already carries quant points")

    renames = {}
    new_layers = []
    last_name = graph.layers[-1].name
    for layer in graph.layers:
        layer = graph_mod.copy_layer(layer)
        if layer.kind == "add_junction":
            a, b = layer.params
            layer.params = (renames.get(a, a), renames.get(b, b))
        if layer.kind in graph_mod.CONV_LIKE:
            layer.weight_quant = QuantPoint(
                target="weights",
                cfg=QuantConfig(bits=weight_bits, range_policy=WEIGHT_POLICY),
                enabled=weight_enabled,
            )
        new_layers.append(layer)
        if layer.kind in ("relu", "relu6", "global_avg_pool") and layer.name != last_name:
            qp_name = f"{layer.name}_q"
            point = QuantPoint(
                target="activations",
                cfg=QuantConfig(bits=act_bits, range_policy=ACTIVATION_POLICY,
                                ema_momentum=ema_momentum),
                enabled=act_enabled,
            )
            new_layers.append(graph_mod.LayerSpec(name=qp_name, kind="quant_point", params=point))
            renames[layer.name] = qp_name
    return graph_mod.ModelGraph(layers=new_layers, input_shape=graph.input_shape)


def set_quant_enabled(graph, *, weights=None, activations=None):
    """Flip the enabled flag on weight and/or activation points, in place."""
    for layer in graph.layers:
        if weights is not None and layer.weight_quant is not None:
            layer.weight_quant.enabled = weights
        if activations is not None and layer.kind == "quant_point":
            layer.params.enabled = activations
    return graph
