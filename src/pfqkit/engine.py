"""Forward and backward execution over a ModelGraph.

The forward pass keeps every layer output (graphs here are small), which is
what add junctions and the backward pass need. Training mode runs BN on
batch statistics and advances the running statistics in place on the graph;
inference mode uses the stored running statistics and never mutates it.

Quantization points apply when enabled. A weight point quantizes the layer's
weight tensor with the tensor's own live min/max; the master weights stay
real and gradients attach to them (the live range covers every element, so
the straight-through mask is all ones). An activation point snaps the tensor
with its EMA range; when the range is not yet initialized, or has collapsed
to a single value, the point passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_ops as T
from .batchnorm import bn_backward_train, bn_forward_infer, bn_forward_train
from .quantization import (act_point_applies, quantize, quantize_backward, update_activation_range,
                           weight_range_cfg)


@dataclass
class ForwardTrace:
    outputs: dict
    caches: dict
    bn_stats: dict


def _quantized_weights(layer):
    w = layer.params.weights
    point = layer.weight_quant
    if point is None or not point.enabled:
        return w
    return quantize(w, weight_range_cfg(w, point.cfg.bits))


def _weighted(forward_op, backward_op):
    """(forward, backward) of a conv, depthwise conv or affine layer, which
    differ only in the tensor op: forward_op(layer, x, w) and
    backward_op(layer, grad, x, w, has_bias)."""

    def forward(layer, x, *_):
        w = _quantized_weights(layer)
        return forward_op(layer, x, w), (x, w)

    def backward(layer, g, cache, send):
        upstream, gw, gb = backward_op(layer, g, *cache, layer.params.bias is not None)
        return upstream, {"weights": gw} if gb is None else {"weights": gw, "bias": gb}

    return forward, backward


def _bn_forward(layer, x, trace, training, update_ranges):
    if not training:
        return bn_forward_infer(x, layer.params), None
    out, stats, layer.params, cache = bn_forward_train(x, layer.params)
    trace.bn_stats[layer.name] = stats
    return out, cache


def _bn_backward(layer, g, cache, send):
    upstream, ggamma, gbeta = bn_backward_train(g, cache)
    return upstream, {"gamma": ggamma, "beta": gbeta}


def _junction_forward(layer, x, trace, training, update_ranges):
    a, b = layer.params
    return T.elementwise_add(trace.outputs[a], trace.outputs[b]), None


def _junction_backward(layer, g, cache, send):
    for ref in layer.params:
        send(ref, g)
    return None, None


def _act_quant_forward(layer, x, trace, training, update_ranges):
    point = layer.params
    if point.enabled and training and update_ranges:
        point.cfg = update_activation_range(x, point.cfg)
    if not act_point_applies(point):
        return x, None
    return quantize(x, point.cfg), (x, point.cfg)


def _act_quant_backward(layer, g, cache, send):
    return (g if cache is None else quantize_backward(g, *cache)), None


# One (forward, backward) pair per layer kind. A forward maps
# (layer, x, trace, training, update_ranges) to (output, cache); a backward
# maps (layer, grad, cache, send) to (upstream gradient, parameter gradients).
# Ops are looked up through `T` and this module's globals at call time, never
# bound at import, so that a patched module attribute reaches every call (the
# traced benchmark run, perfbench/spans.py, times ops that way).
_LAYER_OPS = {
    "conv": _weighted(
        lambda l, x, w: T.conv2d_forward(x, w, l.params.bias, l.stride, l.padding),
        lambda l, g, x, w, b: T.conv2d_backward(g, x, w, l.stride, l.padding, has_bias=b)),
    "depthwise_conv": _weighted(
        lambda l, x, w: T.depthwise_conv2d_forward(x, w, l.params.bias, l.stride, l.padding),
        lambda l, g, x, w, b: T.depthwise_conv2d_backward(g, x, w, l.stride, l.padding,
                                                          has_bias=b)),
    "affine": _weighted(
        lambda l, x, w: T.affine_forward(x, w, l.params.bias),
        lambda l, g, x, w, b: T.affine_backward(g, x, w, has_bias=b)),
    "bn": (_bn_forward, _bn_backward),
    "relu": (lambda l, x, *_: (T.relu_forward(x), x),
             lambda l, g, cache, send: (T.relu_backward(g, cache), None)),
    "relu6": (lambda l, x, *_: (T.relu6_forward(x), x),
              lambda l, g, cache, send: (T.relu6_backward(g, cache), None)),
    "global_avg_pool": (lambda l, x, *_: (T.global_avg_pool_forward(x), x.shape[2:]),
                        lambda l, g, cache, send: (T.global_avg_pool_backward(g, cache), None)),
    "add_junction": (_junction_forward, _junction_backward),
    "quant_point": (_act_quant_forward, _act_quant_backward),
}


def forward_graph(graph, x, *, training=False, update_ranges=False):
    """Run the graph on a batch x of shape (N, C, H, W).

    Returns a ForwardTrace. In training mode BN layers use batch statistics
    and their running statistics are updated on the graph; enabled activation
    quant points fold the observed range into their EMA when update_ranges is
    set. Inference mode touches nothing.
    """
    trace = ForwardTrace(outputs={}, caches={}, bn_stats={})
    prev = x
    for layer in graph.layers:
        prev, trace.caches[layer.name] = _LAYER_OPS[layer.kind][0](
            layer, prev, trace, training, update_ranges)
        trace.outputs[layer.name] = prev
    return trace


def backward_graph(graph, trace, grad_final):
    """Backpropagate grad_final through a training-mode traced forward pass.

    Returns (param_grads, grad_input) where param_grads maps layer name to a
    dict of gradients keyed like the parameter fields.
    """
    grad_map = {layer.name: None for layer in graph.layers}
    grad_map[graph.layers[-1].name] = grad_final
    param_grads = {}

    # Backward ops never write to their inputs, so a gradient can be stored
    # and shared as it is; accumulation allocates a new array.
    def send(name, g):
        if grad_map[name] is None:
            grad_map[name] = g
        else:
            grad_map[name] = grad_map[name] + g

    grad_input = None
    for i in range(len(graph.layers) - 1, -1, -1):
        layer = graph.layers[i]
        g = grad_map[layer.name]
        if g is None:
            continue
        upstream, grads = _LAYER_OPS[layer.kind][1](layer, g, trace.caches[layer.name], send)
        if grads is not None:
            param_grads[layer.name] = grads
        if upstream is not None:
            if i == 0:
                grad_input = upstream
            else:
                send(graph.layers[i - 1].name, upstream)
    return param_grads, grad_input


def run_inference(graph, x):
    """Inference-mode output of the whole graph."""
    return forward_graph(graph, x, training=False).outputs[graph.layers[-1].name]


def loss_and_grads(graph, x, labels, *, update_ranges=False):
    """One training-mode forward/backward with softmax cross entropy.

    Returns (loss, logits, param_grads, bn_stats)."""
    trace = forward_graph(graph, x, training=True, update_ranges=update_ranges)
    logits = trace.outputs[graph.layers[-1].name]
    loss, grad_logits = T.softmax_cross_entropy(logits, labels)
    param_grads, _ = backward_graph(graph, trace, grad_logits)
    return loss, logits, param_grads, trace.bn_stats


def evaluate(graph, images, labels, batch_size=64):
    """Inference-mode classification accuracy as a fraction in [0, 1]."""
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        batch = images[lo:lo + batch_size]
        logits = run_inference(graph, batch)
        hits += int((np.argmax(logits, axis=1) == labels[lo:lo + batch_size]).sum())
    return hits / images.shape[0]
