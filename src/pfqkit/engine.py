"""Forward and backward execution over a ModelGraph.

A forward pass asked to keep only the final output (run_inference,
loss_and_grads) drops each layer output right after its last reader: the next
layer, or the last add_junction that names it, from a schedule computed once
per call. By default a trace keeps every output, for callers that inspect
them. Training mode also records the caches a layer's backward reads (its
inputs and statistics); inference mode records none. relu and relu6 cache
their output, which selects the same elements as their input and is held
by the next layer anyway, so the BN output that feeds an activation dies
there instead of living until backward. backward_graph consumes
its trace: once a layer's backward has run, its cache, output and incoming
gradient are gone, so each tensor is freed at its last use and a trace can be
backpropagated once.

Training mode runs BN on batch statistics and advances the running statistics
in place on the graph; inference mode uses the stored running statistics and
never mutates it.

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
    caches: dict | None  # None for an inference-mode trace
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
    backward_op(layer, grad, x, w, has_bias, input_grad)."""

    def forward(layer, x, *_):
        w = _quantized_weights(layer)
        return forward_op(layer, x, w), (x, w)

    def backward(layer, g, cache, send, input_grad):
        upstream, gw, gb = backward_op(layer, g, *cache, layer.params.bias is not None, input_grad)
        return upstream, {"weights": gw} if gb is None else {"weights": gw, "bias": gb}

    return forward, backward


def _activation(forward_op, backward_op):
    """(forward, backward) of an activation whose backward reads its output
    y, which the next layer holds anyway, so the input dies here."""

    def forward(layer, x, *_):
        y = forward_op(x)
        return y, y

    return forward, lambda layer, g, y, *_: (backward_op(g, y), None)


def _bn_forward(layer, x, trace, training, update_ranges):
    if not training:
        return bn_forward_infer(x, layer.params), None
    out, stats, layer.params, cache = bn_forward_train(x, layer.params)
    trace.bn_stats[layer.name] = stats
    return out, cache


def _bn_backward(layer, g, cache, *_):
    upstream, ggamma, gbeta = bn_backward_train(g, cache)
    return upstream, {"gamma": ggamma, "beta": gbeta}


def _junction_forward(layer, x, trace, training, update_ranges):
    a, b = layer.params
    return T.elementwise_add(trace.outputs[a], trace.outputs[b]), None


def _junction_backward(layer, g, cache, send, _):
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


def _act_quant_backward(layer, g, cache, *_):
    return (g if cache is None else quantize_backward(g, *cache)), None


# One (forward, backward) pair per layer kind. A forward maps
# (layer, x, trace, training, update_ranges) to (output, cache); a backward
# maps (layer, grad, cache, send, input_grad) to (upstream gradient, parameter
# gradients); a conv or depthwise conv skips its upstream gradient when
# input_grad is False (the first layer, whose input gradient has no reader),
# and any other kind may still return one, which is then dropped. An affine
# layer needs a flat input, so it is never first.
# Ops are looked up through `T` and this module's globals at call time, never
# bound at import, so that a patched module attribute reaches every call (the
# traced benchmark run, perfbench/spans.py, times ops that way).
_LAYER_OPS = {
    "conv": _weighted(
        lambda l, x, w: T.conv2d_forward(x, w, l.params.bias, l.stride, l.padding),
        lambda l, g, x, w, b, gx: T.conv2d_backward(g, x, w, l.stride, l.padding, has_bias=b,
                                                    input_grad=gx)),
    "depthwise_conv": _weighted(
        lambda l, x, w: T.depthwise_conv2d_forward(x, w, l.params.bias, l.stride, l.padding),
        lambda l, g, x, w, b, gx: T.depthwise_conv2d_backward(g, x, w, l.stride, l.padding,
                                                              has_bias=b, input_grad=gx)),
    "affine": _weighted(
        lambda l, x, w: T.affine_forward(x, w, l.params.bias),
        lambda l, g, x, w, b, _: T.affine_backward(g, x, w, has_bias=b)),
    "bn": (_bn_forward, _bn_backward),
    "relu": _activation(lambda x: T.relu_forward(x), lambda g, y: T.relu_backward(g, y)),
    "relu6": _activation(lambda x: T.relu6_forward(x), lambda g, y: T.relu6_backward(g, y)),
    "global_avg_pool": (lambda l, x, *_: (T.global_avg_pool_forward(x), x.shape[2:]),
                        lambda l, g, cache, *_: (T.global_avg_pool_backward(g, cache), None)),
    "add_junction": (_junction_forward, _junction_backward),
    "quant_point": (_act_quant_forward, _act_quant_backward),
}


def _release_schedule(graph):
    """release[i] names the outputs whose last reader is layer i: the next
    layer, or the last add_junction that names the output. The final output
    has no reader and is never released."""
    n = len(graph.layers)
    last = {layer.name: i + 1 for i, layer in enumerate(graph.layers)}
    for i, layer in enumerate(graph.layers):
        if layer.kind == "add_junction":
            for ref in layer.params:
                last[ref] = max(last[ref], i)
    release = [[] for _ in range(n)]
    for name, i in last.items():
        if i < n:
            release[i].append(name)
    return release


def forward_graph(graph, x, *, training=False, update_ranges=False, keep_outputs=True):
    """Run the graph on a batch x of shape (N, C, H, W).

    Returns a ForwardTrace. In training mode BN layers use batch statistics
    and their running statistics are updated on the graph; enabled activation
    quant points fold the observed range into their EMA when update_ranges is
    set; the trace records the caches backward_graph reads. Inference mode
    touches nothing and records no caches. The trace keeps every layer output
    unless keep_outputs is False, in which case each output is dropped after
    its last reader and only the final one is kept.
    """
    trace = ForwardTrace(outputs={}, caches={} if training else None, bn_stats={})
    release = None if keep_outputs else _release_schedule(graph)
    prev = x
    for i, layer in enumerate(graph.layers):
        prev, cache = _LAYER_OPS[layer.kind][0](layer, prev, trace, training, update_ranges)
        if training:
            trace.caches[layer.name] = cache
        # An unrecorded cache would keep this layer's input alive through the next layer.
        del cache
        trace.outputs[layer.name] = prev
        if release is not None:
            for name in release[i]:
                del trace.outputs[name]
    return trace


def backward_graph(graph, trace, grad_final):
    """Backpropagate grad_final through a training-mode traced forward pass.

    Consumes the trace: each layer's cache, output and incoming gradient are
    dropped once its backward has run, so a trace can be backpropagated once.
    Returns param_grads, which maps layer name to a dict of gradients keyed
    like the parameter fields. The gradient of the graph input has no reader,
    so the first layer computes none.
    """
    caches = trace.caches
    if caches is None or len(caches) != len(graph.layers):
        got = "an inference-mode trace" if caches is None else "a consumed trace"
        raise ValueError("backward_graph needs a training-mode trace that has not been "
                         f"consumed; got {got}")
    grad_map = {graph.layers[-1].name: grad_final}

    # Backward ops never write to their inputs, so a gradient can be stored
    # and shared as it is; accumulation allocates a new array.
    def send(name, g):
        prior = grad_map.get(name)
        grad_map[name] = g if prior is None else prior + g

    param_grads = {}
    for i in range(len(graph.layers) - 1, -1, -1):
        layer = graph.layers[i]
        cache = caches.pop(layer.name)
        trace.outputs.pop(layer.name, None)
        g = grad_map.pop(layer.name, None)
        if g is None:
            continue
        upstream, grads = _LAYER_OPS[layer.kind][1](layer, g, cache, send, i > 0)
        if grads is not None:
            param_grads[layer.name] = grads
        if upstream is not None and i > 0:
            send(graph.layers[i - 1].name, upstream)
    return param_grads


def run_inference(graph, x):
    """Inference-mode output of the whole graph."""
    return forward_graph(graph, x, keep_outputs=False).outputs[graph.layers[-1].name]


def loss_and_grads(graph, x, labels, *, update_ranges=False):
    """One training-mode forward/backward with softmax cross entropy.

    Returns (loss, logits, param_grads, bn_stats)."""
    trace = forward_graph(graph, x, training=True, update_ranges=update_ranges,
                          keep_outputs=False)
    logits = trace.outputs[graph.layers[-1].name]
    loss, grad_logits = T.softmax_cross_entropy(logits, labels)
    param_grads = backward_graph(graph, trace, grad_logits)
    return loss, logits, param_grads, trace.bn_stats


def evaluate(graph, images, labels, batch_size=64):
    """Inference-mode classification accuracy as a fraction in [0, 1]."""
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        batch = images[lo:lo + batch_size]
        logits = run_inference(graph, batch)
        hits += int((np.argmax(logits, axis=1) == labels[lo:lo + batch_size]).sum())
    return hits / images.shape[0]
