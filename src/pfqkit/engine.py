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
from .graph import CONV_LIKE, GraphError
from .quantization import quantize, quantize_backward, update_activation_range, weight_range_cfg


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


def _act_quant_applies(point):
    return point.enabled and point.cfg.initialized and point.cfg.M_up > point.cfg.m


def forward_graph(graph, x, *, training=False, update_ranges=False):
    """Run the graph on a batch x of shape (N, C, H, W).

    Returns a ForwardTrace. In training mode BN layers use batch statistics
    and their running statistics are updated on the graph; enabled activation
    quant points fold the observed range into their EMA when update_ranges is
    set. Inference mode touches nothing.
    """
    outputs = {}
    caches = {}
    bn_stats = {}
    prev = x
    for layer in graph.layers:
        k = layer.kind
        if k == "conv":
            w = _quantized_weights(layer)
            out = T.conv2d_forward(prev, w, layer.params.bias, layer.stride, layer.padding)
            caches[layer.name] = (prev, w)
        elif k == "depthwise_conv":
            w = _quantized_weights(layer)
            out = T.depthwise_conv2d_forward(prev, w, layer.params.bias, layer.stride, layer.padding)
            caches[layer.name] = (prev, w)
        elif k == "affine":
            w = _quantized_weights(layer)
            out = T.affine_forward(prev, w, layer.params.bias)
            caches[layer.name] = (prev, w)
        elif k == "bn":
            if training:
                out, stats, updated, cache = bn_forward_train(prev, layer.params)
                layer.params = updated
                bn_stats[layer.name] = stats
                caches[layer.name] = cache
            else:
                out = bn_forward_infer(prev, layer.params)
                caches[layer.name] = None
        elif k == "relu":
            out = T.relu_forward(prev)
            caches[layer.name] = prev
        elif k == "relu6":
            out = T.relu6_forward(prev)
            caches[layer.name] = prev
        elif k == "global_avg_pool":
            out = T.global_avg_pool_forward(prev)
            caches[layer.name] = prev.shape[2:]
        elif k == "add_junction":
            a, b = layer.params
            out = T.elementwise_add(outputs[a], outputs[b])
        elif k == "quant_point":
            point = layer.params
            if point.enabled and training and update_ranges:
                point.cfg = update_activation_range(prev, point.cfg)
            if _act_quant_applies(point):
                out = quantize(prev, point.cfg)
                caches[layer.name] = (prev, point.cfg)
            else:
                out = prev
                caches[layer.name] = None
        else:  # pragma: no cover
            raise GraphError(f"unknown layer kind {k}")
        outputs[layer.name] = out
        prev = out
    return ForwardTrace(outputs=outputs, caches=caches, bn_stats=bn_stats)


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
        k = layer.kind
        upstream = None
        if k == "conv":
            inp, w = trace.caches[layer.name]
            upstream, gw, gb = T.conv2d_backward(
                g, inp, w, layer.stride, layer.padding, has_bias=layer.params.bias is not None
            )
            param_grads[layer.name] = {"weights": gw} if gb is None else {"weights": gw, "bias": gb}
        elif k == "depthwise_conv":
            inp, w = trace.caches[layer.name]
            upstream, gw, gb = T.depthwise_conv2d_backward(
                g, inp, w, layer.stride, layer.padding, has_bias=layer.params.bias is not None
            )
            param_grads[layer.name] = {"weights": gw} if gb is None else {"weights": gw, "bias": gb}
        elif k == "affine":
            inp, w = trace.caches[layer.name]
            upstream, gw, gb = T.affine_backward(g, inp, w, has_bias=layer.params.bias is not None)
            param_grads[layer.name] = {"weights": gw} if gb is None else {"weights": gw, "bias": gb}
        elif k == "bn":
            upstream, ggamma, gbeta = bn_backward_train(g, trace.caches[layer.name])
            param_grads[layer.name] = {"gamma": ggamma, "beta": gbeta}
        elif k == "relu":
            upstream = T.relu_backward(g, trace.caches[layer.name])
        elif k == "relu6":
            upstream = T.relu6_backward(g, trace.caches[layer.name])
        elif k == "global_avg_pool":
            upstream = T.global_avg_pool_backward(g, trace.caches[layer.name])
        elif k == "add_junction":
            a, b = layer.params
            send(a, g)
            send(b, g)
        elif k == "quant_point":
            cached = trace.caches[layer.name]
            if cached is None:
                upstream = g
            else:
                inp, cfg = cached
                upstream = quantize_backward(g, inp, cfg)

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
