"""Forward and backward execution over a ModelGraph.

A forward pass asked to keep only the final output (run_inference, per
slab, and loss_and_grads) drops each layer output right after its last
reader: the next layer, or the last add_junction that names it, from a
schedule computed once per call. By default a trace keeps every output,
for callers that inspect them. Training mode also records the caches a
layer's backward reads (its inputs and statistics); inference mode records
none. relu and relu6 cache their output, which selects the same elements as
their input and is held by the next layer anyway, so the BN output that
feeds an activation dies there instead of living until backward.
backward_graph consumes its trace: once a layer's backward has run, its
cache, output and incoming gradient are gone, so each tensor is freed at
its last use and a trace can be backpropagated once.

Ownership: an array that nothing can read after the current op is handed to
that op as out=, and the elementwise ops (relu and relu6 forward and
backward, quantize and its backward, the three BN kernels) write into it
instead of allocating. That covers a layer output whose last reader is this
layer and that no cache holds (in a pass that drops outputs), a consumed BN
cache (the backward writes grad_x into its centered input) and a backward
gradient that no junction shares. The graph input, every output of a trace
that keeps them, an output a later add_junction reads, an activation's
output in training (its cache), the caller's grad_final and a gradient a
junction sent to two layers are never handed over. The decisions are made
once per forward call (_schedule) and per gradient in backward_graph; ops
called directly, without out=, never write to their inputs. Outputs and
gradients are byte for byte those of a pass that hands nothing over; a
streamed conv, activation and activation point then fill one array, not
three.

Training mode runs BN on batch statistics and advances the running statistics
in place on the graph; inference mode uses the stored running statistics and
never mutates it.

Quantization points apply when enabled. A weight point quantizes the layer's
weight tensor with the tensor's own live min/max; the master weights stay
real and gradients attach to them (the live range covers every element, so
the straight-through mask is all ones). The quantized tensor is read-only.
An activation point snaps the tensor with its EMA range; when the range is
not yet initialized, or has collapsed to a single value, the point passes
through unchanged.

The inference memo: a conv, depthwise conv or affine layer prepares its
op (tensor_ops' *_prepare: quantize the weights when its weight point is
enabled, check the weights and bias, derive the weight matrix, bias row,
row plan and bands) once per parameter version, not once per call and
slab. The record lives on LayerSpec.memo with its key: the weight and bias
objects and their bytes, the weight point's bits (None when it has no
enabled point), the input's per-image shape and dtype, and the stride and
padding. It is served only while every part of the key holds, so a new
array (an sgd_step), an in-place write to the weights or the bias, a change
of bits, of input shape or of dtype each make the next pass prepare again;
copy_graph and copy_layer start the copy without one. Only the
inference-mode forwards read or write it: run_inference (every slab) and
forward_graph(training=False). A training forward quantizes and prepares
on every call and never touches the memo: its weights move every step.

Finite checks: a conv, depthwise conv or affine checks its weights and bias
for non-finite values when it prepares, and its input on every call unless
that input is what an activation point quantized in the same pass. Such a
value is finite by construction: the point checked its own input, and
quantize bounds its output to [m, M] on a grid it has verified to be finite
in the dtype, so a second check could not fail. The forward loop decides
from what the point did (it quantized, so it returned a cache), never from
its config: a disabled, uninitialized or collapsed point passes its input
through, and the layer that reads it checks it. An inference pass that
prepares checks a layer's weights and bias before its input, so when both
are non-finite it names the weights or bias. Direct op calls check every
argument.

Slabs: run_inference runs the batch in slabs of as many images as keep the
graph's widest per-image activation (ModelGraph.widest, from the shapes
validate infers) within SLAB_BYTES, so a slab's activations stay in cache
across a block's elementwise passes. Every layer before the first affine
computes each image on its own (per-image and per-channel matmuls,
elementwise passes, per-plane means), so its bytes do not depend on how
many images share a call. An affine is one matmul over the batch, and BLAS
rounds a product of one or a few rows differently (numpy runs a 1-row
product as a gemv), so the first affine and every layer after it run once
on the gathered slabs. run_inference thus gives the bytes of one unslabbed
pass at every batch size, through one loop and one plan (_schedule) per
call.

Absorption: in a pass that drops outputs in inference mode, a relu or relu6
whose only reader is an applying activation point with range [m, M] inside
its own (0 <= m, and M <= 6 for relu6) passes its input through, since
clip(clip(x, 0, 6), m, M) equals clip(x, m, M) bit for bit. Training never
absorbs: range updates read the activated values, and relu6's gradient mask
(0 < y < 6) is open where the point's straight-through mask is closed. The
one visible difference: a conv output that overflowed to +-inf, which relu6
clipped, reaches the quantizer, which raises its non-finite ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_ops as T
from .batchnorm import bn_backward_train, bn_forward_infer, bn_forward_train
from .quantization import (act_point_applies, quantize, quantize_backward, update_activation_range,
                           weight_range_cfg)


# run_inference's slab budget: the bytes of the graph's widest activation
# over the images of one slab (see the module docstring).
SLAB_BYTES = 1 << 20


@dataclass
class ForwardTrace:
    outputs: dict
    caches: dict | None  # None for an inference-mode trace
    bn_stats: dict


def _weights(layer):
    """The weights a conv, depthwise conv or affine layer computes with: an
    enabled weight point's quantized tensor, read-only, else the master
    weights."""
    w = layer.params.weights
    point = layer.weight_quant
    if point is None or not point.enabled:
        return w
    wq = quantize(w, weight_range_cfg(w, point.cfg.bits))
    wq.flags.writeable = False
    return wq


class _Memo(NamedTuple):
    """An inference-mode layer's prepared op and the key it was made for."""

    weights: np.ndarray
    bias: np.ndarray | None
    key: tuple  # (bits or None, per-image input shape, dtype, stride, padding)
    weight_bytes: bytes
    bias_bytes: bytes | None
    used: np.ndarray  # the weights the op computes with (quantized when the point is on)
    prepared: tuple  # the *_prepare record


def _prepared(layer, x, prepare_op):
    """(weights, prepared record) of an inference-mode conv, depthwise conv
    or affine layer reading x, served from layer.memo while its key holds
    (see the module docstring), else derived and memoized."""
    w, b = layer.params.weights, layer.params.bias
    point = layer.weight_quant
    key = (point.cfg.bits if point is not None and point.enabled else None,
           x.shape[1:], x.dtype, layer.stride, layer.padding)
    memo = layer.memo
    if (memo is not None and memo.weights is w and memo.bias is b and memo.key == key
            and memo.weight_bytes == w.tobytes()
            and (b is None or memo.bias_bytes == b.tobytes())):
        return memo.used, memo.prepared
    used = _weights(layer)
    prepared = prepare_op(layer, used, x.shape[1:], x.dtype)
    layer.memo = _Memo(w, b, key, w.tobytes(), None if b is None else b.tobytes(), used,
                       prepared)
    return used, prepared


def _weighted(forward_op, backward_op, prepare_op):
    """(forward, backward) of a conv, depthwise conv or affine layer, which
    differ only in the tensor ops: forward_op(layer, x, w, check_x,
    prepared), backward_op(layer, grad, x, w, has_bias, input_grad) and
    prepare_op(layer, w, image, dtype). A training forward quantizes and
    prepares on every call; an inference forward takes both from the
    layer's memo (_prepared)."""

    def forward(layer, x, trace, training, update_ranges, out, check_x):
        if training:
            w = _weights(layer)
            return forward_op(layer, x, w, check_x, None), (x, w)
        w, prepared = _prepared(layer, x, prepare_op)
        return forward_op(layer, x, w, check_x, prepared), None

    def backward(layer, g, cache, send, input_grad, out):
        upstream, gw, gb = backward_op(layer, g, *cache, layer.params.bias is not None, input_grad)
        return upstream, {"weights": gw} if gb is None else {"weights": gw, "bias": gb}

    return forward, backward


def _activation(forward_op, backward_op):
    """(forward, backward) of an activation whose backward reads its output
    y, which the next layer holds anyway, so the input dies here."""

    def forward(layer, x, trace, training, update_ranges, out, *_):
        y = forward_op(x, out)
        return y, y

    return forward, lambda layer, g, y, send, input_grad, out: (backward_op(g, y, out), None)


def _pass_through(layer, x, *_):
    return x, None


def _bn_forward(layer, x, trace, training, update_ranges, out, *_):
    if not training:
        return bn_forward_infer(x, layer.params, out=out), None
    out, stats, layer.params, cache = bn_forward_train(x, layer.params, out=out)
    trace.bn_stats[layer.name] = stats
    return out, cache


def _bn_backward(layer, g, cache, *_):
    # The cache is consumed here, so grad_x takes over its centered input.
    upstream, ggamma, gbeta = bn_backward_train(g, cache, out=cache.centered)
    return upstream, {"gamma": ggamma, "beta": gbeta}


def _junction_forward(layer, x, trace, *_):
    a, b = layer.params
    return T.elementwise_add(trace.outputs[a], trace.outputs[b]), None


def _junction_backward(layer, g, cache, send, *_):
    for ref in layer.params:
        send(ref, g)
    return None, None


def _act_quant_forward(layer, x, trace, training, update_ranges, out, *_):
    point = layer.params
    if point.enabled and training and update_ranges:
        point.cfg = update_activation_range(x, point.cfg)
    if not act_point_applies(point):
        return x, None
    return quantize(x, point.cfg, out=out), (x, point.cfg)


def _act_quant_backward(layer, g, cache, send, input_grad, out):
    return (g if cache is None else quantize_backward(g, *cache, out=out)), None


# One (forward, backward) pair per layer kind. A forward maps
# (layer, x, trace, training, update_ranges, out, check_x) to (output,
# cache); a backward maps (layer, grad, cache, send, input_grad, out) to
# (upstream gradient, parameter gradients). out is x, or grad, when the
# engine hands that array over (the ownership rule in the module docstring),
# else None; kinds that cannot write there ignore it. check_x is False when
# x is the output of an activation point that quantized it in this pass, and
# a conv, depthwise conv or affine then does not check x for non-finite
# values again; other kinds ignore it. A conv or depthwise conv skips its
# upstream gradient when input_grad is False (the first layer, whose input
# gradient has no reader), and any other kind may still return one, which is
# then dropped. An affine layer needs a flat input, so it is never first.
# Ops are looked up through `T` and this module's globals at call time, never
# bound at import, so that a patched module attribute reaches every call (the
# traced benchmark run, perfbench/spans.py, times ops that way).
_LAYER_OPS = {
    "conv": _weighted(
        lambda l, x, w, cx, p: T.conv2d_forward(x, w, l.params.bias, l.stride, l.padding,
                                                check_x=cx, prepared=p),
        lambda l, g, x, w, b, gx: T.conv2d_backward(g, x, w, l.stride, l.padding, has_bias=b,
                                                    input_grad=gx),
        lambda l, w, image, dtype: T.conv2d_prepare(w, l.params.bias, l.stride, l.padding,
                                                    image, dtype)),
    "depthwise_conv": _weighted(
        lambda l, x, w, cx, p: T.depthwise_conv2d_forward(x, w, l.params.bias, l.stride,
                                                          l.padding, check_x=cx, prepared=p),
        lambda l, g, x, w, b, gx: T.depthwise_conv2d_backward(g, x, w, l.stride, l.padding,
                                                              has_bias=b, input_grad=gx),
        lambda l, w, image, dtype: T.depthwise_conv2d_prepare(w, l.params.bias, l.stride,
                                                              l.padding, image, dtype)),
    "affine": _weighted(
        lambda l, x, w, cx, p: T.affine_forward(x, w, l.params.bias, check_x=cx, prepared=p),
        lambda l, g, x, w, b, _: T.affine_backward(g, x, w, has_bias=b),
        lambda l, w, image, dtype: T.affine_prepare(w, l.params.bias, image)),
    "bn": (_bn_forward, _bn_backward),
    "relu": _activation(lambda x, out: T.relu_forward(x, out=out),
                        lambda g, y, out: T.relu_backward(g, y, out=out)),
    "relu6": _activation(lambda x, out: T.relu6_forward(x, out=out),
                         lambda g, y, out: T.relu6_backward(g, y, out=out)),
    "global_avg_pool": (lambda l, x, *_: (T.global_avg_pool_forward(x), x.shape[2:]),
                        lambda l, g, cache, *_: (T.global_avg_pool_backward(g, cache), None)),
    "add_junction": (_junction_forward, _junction_backward),
    "quant_point": (_act_quant_forward, _act_quant_backward),
}
# Per kind: whether its forward can write its output into its input, whether
# its training cache holds its input, whether it is an activation (whose
# training cache is its output).
_OWNERSHIP = {kind: (kind in ("bn", "relu", "relu6", "quant_point"),
                     kind in ("conv", "depthwise_conv", "affine", "quant_point"),
                     kind in ("relu", "relu6"))
              for kind in _LAYER_OPS}


def _absorbed(layer, reader):
    """Whether activation `layer` adds nothing before its reader: an applying
    activation point whose range [m, M] lies inside the activation's, where
    clip(clip(x, 0, 6), m, M) equals clip(x, m, M) bit for bit."""
    if reader.kind != "quant_point" or not act_point_applies(reader.params):
        return False
    cfg = reader.params.cfg
    return cfg.m >= 0 and (layer.kind == "relu" or cfg.M_up <= 6)


def _schedule(graph, training, keep_outputs):
    """The plan of one forward_graph call: per layer, (layer, forward, own,
    release).

    release names the outputs whose last reader is this layer: the next
    layer, or the last add_junction that names the output (the final output
    has no reader and is never released). own tells that the layer's input is
    handed to it as out=. A layer's output shares its input's buffer when the
    layer wrote there or may pass its input through (a quant point, an
    absorbed activation), so the input is free when every output in that
    buffer is read by the next layer alone and no cache holds it (an
    activation's training cache is its output; a conv, depthwise conv,
    affine or quant point caches its input); the graph input is never free.
    In inference, forward is a pass-through for an activation whose only
    reader absorbs it (_absorbed). A trace that keeps every output releases,
    hands over and absorbs nothing.
    """
    layers = graph.layers
    if keep_outputs:
        return [(layer, _LAYER_OPS[layer.kind][0], False, ()) for layer in layers]
    n = len(layers)
    last = {}
    for i, layer in enumerate(layers, 1):
        last[layer.name] = i
        if layer.kind == "add_junction":
            for ref in layer.params:
                last[ref] = i - 1
    release = [[] for _ in range(n + 1)]
    for name, i in last.items():
        release[i].append(name)
    plan = []
    free = False
    for i, layer in enumerate(layers):
        kind = layer.kind
        writes_input, caches_input, activation = _OWNERSHIP[kind]
        forward = _LAYER_OPS[kind][0]
        if training and caches_input:
            free = False
        own = free and writes_input
        sole = last[layer.name] == i + 1
        if (activation and sole and not training and i + 1 < n
                and _absorbed(layer, layers[i + 1])):
            forward = _pass_through
        shares = own or forward is _pass_through or kind == "quant_point"
        free = (free or not shares) and sole and not (training and activation)
        plan.append((layer, forward, own, release[i]))
    return plan


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
    _forward(_schedule(graph, training, keep_outputs), x, trace, training, update_ranges)
    return trace


def _forward(plan, x, trace, training, update_ranges, quantized=False):
    """Run the steps of plan (from _schedule) on x, which feeds the first of
    them, recording into trace. quantized tells whether x is the output of
    a point that snapped it (always False for the graph input). Returns the
    last step's output and whether a point snapped it."""
    outputs = trace.outputs
    prev = x
    for layer, forward, own, release in plan:
        prev, cache = forward(layer, prev, trace, training, update_ranges, prev if own else None,
                              not quantized)
        # A point caches its input exactly when it quantized it (else it passed it through).
        quantized = cache is not None and layer.kind == "quant_point"
        if training:
            trace.caches[layer.name] = cache
        # An unrecorded cache would keep this layer's input alive through the next layer.
        del cache
        outputs[layer.name] = prev
        for name in release:
            del outputs[name]
    return prev, quantized


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
    # grad_map holds (gradient, owned). A backward op may write into an owned
    # gradient, which no other name holds: not the caller's grad_final, not a
    # gradient a junction sent to both its inputs. A sum of two is a new array.
    grad_map = {graph.layers[-1].name: (grad_final, False)}

    def send(name, g, owned=False):
        prior = grad_map.get(name)
        grad_map[name] = (g, owned) if prior is None else (prior[0] + g, True)

    param_grads = {}
    for i in range(len(graph.layers) - 1, -1, -1):
        layer = graph.layers[i]
        cache = caches.pop(layer.name)
        trace.outputs.pop(layer.name, None)
        entry = grad_map.pop(layer.name, None)
        if entry is None:
            continue
        g, owned = entry
        upstream, grads = _LAYER_OPS[layer.kind][1](layer, g, cache, send, i > 0,
                                                    g if owned else None)
        if grads is not None:
            param_grads[layer.name] = grads
        if upstream is not None and i > 0:
            send(graph.layers[i - 1].name, upstream, owned or upstream is not g)
    return param_grads


def run_inference(graph, x):
    """Inference-mode output of the whole graph, byte for byte the final
    output of forward_graph(graph, x, keep_outputs=False).

    The layers before the first affine run on slabs of the batch, as many
    images as keep the graph's widest activation (ModelGraph.widest) within
    SLAB_BYTES, and each output still live after them is gathered into a
    whole-batch array; the first affine and the layers after it then run
    once on those. One plan (_schedule) serves every slab.
    """
    plan = _schedule(graph, False, False)
    split = next((i for i, step in enumerate(plan) if step[0].kind == "affine"), len(plan))
    n = x.shape[0]
    size = max(1, SLAB_BYTES // (graph.widest * x.itemsize))
    gathered = {}
    # An empty batch still runs once, so the output has the layers' shape.
    for lo in range(0, max(n, 1), size):
        trace = ForwardTrace(outputs={}, caches=None, bn_stats={})
        _, quantized = _forward(plan[:split], x[lo:lo + size], trace, False, False)
        for name, y in trace.outputs.items():
            if name not in gathered:
                gathered[name] = np.empty((n,) + y.shape[1:], dtype=y.dtype)
            gathered[name][lo:lo + size] = y
    # The first layer is never an affine (it needs a flat input), so split > 0.
    trace = ForwardTrace(outputs=gathered, caches=None, bn_stats={})
    return _forward(plan[split:], gathered[plan[split - 1][0].name], trace, False, False,
                    quantized)[0]


def loss_and_grads(graph, x, labels, *, update_ranges=False):
    """One training-mode forward/backward with softmax cross entropy.

    Returns (loss, logits, param_grads, bn_stats)."""
    trace = forward_graph(graph, x, training=True, update_ranges=update_ranges,
                          keep_outputs=False)
    logits = trace.outputs[graph.layers[-1].name]
    loss, grad_logits = T.softmax_cross_entropy(logits, labels)
    param_grads = backward_graph(graph, trace, grad_logits)
    return loss, logits, param_grads, trace.bn_stats


def evaluate(graph, images, labels):
    """Inference-mode classification accuracy as a fraction in [0, 1]; raises
    ValueError when given no images."""
    if images.shape[0] == 0:
        raise ValueError("evaluate: no images to evaluate")
    hits = int((np.argmax(run_inference(graph, images), axis=1) == labels).sum())
    return hits / images.shape[0]
