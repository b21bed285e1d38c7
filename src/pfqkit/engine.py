"""Forward and backward execution over a ModelGraph.

A forward pass asked to keep only the final output (run_inference and
loss_and_grads) drops each layer output right after its last reader: the
next layer, or the last add_junction that names it (_schedule). By default
a trace keeps every output, for callers that inspect them. Training mode
also records the caches a layer's backward reads (its inputs and
statistics); inference mode records none. relu and relu6 cache their
output, which selects the same elements as their input and is held by the
next layer anyway, so the BN output that feeds an activation dies there
instead of living until backward. backward_graph consumes its trace: once a
layer's backward has run, its cache, output and incoming gradient are gone,
so each tensor is freed at its last use and a trace can be backpropagated
once.

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
once per plan in inference, once per call in training (_schedule) and per
gradient in backward_graph; ops called directly, without out=, never write
to their inputs. Outputs and gradients are byte for byte those of a pass
that hands nothing over; a streamed conv, activation and activation point
then fill one array, not three.

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

The plan: an inference pass (run_inference, forward_graph(training=False))
runs a plan compiled once per graph version and kept on ModelGraph.plan
(never copied, saved or compared): one step per layer, with its forward's
arguments bound (a weighted layer's weights, quantized and read-only when
its point is on, and its *_prepare record; an applying point's
quantize_prepare record), its out= handover and its releases. A BN step
reads its parameters at call time. An absorbed activation and a point that
does not apply share one pass-through step. The compile builds every step
before it returns, walking the layers once on a zero-image batch, so each
step is built for what the step before it returns and its shapes and dtypes
are the ops' own; a plan is never written after, and every thread that runs
it only reads it. Each call checks the plan once against its key (the
identity and name of every layer, the identity of every parameter object,
weight and bias array and point config; a point's enabled, bits, m, M_up
and initialized; stride and padding; the input's per-image shape and
dtype) and a bytes compare of every weight and bias, and compiles a new
plan on any mismatch. Training never reads or writes it: a training
forward builds each layer's step from the same builders (_STEPS), for the
layer's weights as they are, and runs it at once. It adds only BN on batch
statistics, a point's range update and the caches backward reads.

Finite checks follow one rule in both modes. A weighted layer checks its
weights and bias when it prepares; with its weight point on, it checks the
master weights first, before their range is derived. An activation point's
range update raises on a non-finite input before it changes the range.
Each step, as it is built, takes a float64 bound on the magnitude of its
input from the step before it and leaves one on its output: the graph
input, BN and add_junction are unbounded; an applying point bounds its
output by max(|m|, |M_up|), on a grid quantize verified finite; relu and a
pass-through keep their input's bound, relu6 caps a finite one at 6 (a nan
passes its clamp), global_avg_pool keeps it while its sums stay in range,
and a conv, depthwise conv or affine maps B to
sqrt(fan_in) * ||w|| * B + ||b||, which by Cauchy-Schwarz is at least the
largest sum over an output channel of |w| * B + |b|. A step whose input
bound lies below half the dtype's largest value skips that input's check
(check_x=False): the conv after a point, and every point behind bounded
layers, but not the point after the stem, which reads the graph input.
Direct op calls check every argument. An error an op raises inside a
per-layer loop (the compile, a plan run, a training forward, backward_graph)
is re-raised once, its type and traceback kept, with "layer '<name>'
(<kind>): " before its message; loss_and_grads and evaluate check their
labels (data.check_labels) before any layer runs.
A plan checks its weights, bias and point ranges as it compiles, so their
errors come before any check of the input. An overflow is refused only
where it reaches a check as nan or +-inf, and relu and relu6 clamp +-inf
(a nan passes), so inference does not refuse an overflow they clamp, while
a training forward on the same graph may raise at the next checked op. On
ds_convnet with a BN gamma of 3e38 and a 1e30-scaled batch, that BN
overflows to +-inf on its running statistics, relu6 clamps it and the
logits are finite; on batch statistics a channel of zero variance makes
its scale gamma * inv_std overflow, 0 * inf gives nan, relu6 passes it and
the depthwise conv after raises. No check is added for the clamped case.

Slabs: run_inference runs the steps before the first affine (the head) on
slabs of the batch, so a slab's activations stay in cache across a block's
elementwise passes. Step i's slab is as many images as keep the widest
per-image input or output of steps i to the first affine within SLAB_BYTES,
for the per-image input shape the plan is compiled for (once per plan), so
slabs never shrink along the head. A segment is a maximal run of steps with
one slab size, and each ends after a layer that narrows the activations: on
the width-32 net at float32 the slabs are 8, 16 and 64 images, and 4096 for
the point on the pooled features. Every layer before the first affine
computes each image on its own (per-image and per-channel matmuls,
elementwise passes, per-plane means), so its bytes do not depend on how
many images share a call. An affine is one matmul over the batch, and BLAS
rounds a product of one or a few rows differently (numpy runs a 1-row
product as a gemv), so the first affine and every step after it run once on
the gathered batch. run_inference thus gives the bytes of one unslabbed
pass at every batch size.

Shares: the batch is cut into contiguous, near-equal image shares, one per
CPU the process may run on (its affinity mask, so taskset restricts them)
and at most one per first-segment slab. The calling thread runs the first
share and a helper thread each other one, in a copy of the caller's context
(so under its np.errstate); the helpers are joined before run_inference
returns or raises. A share runs its last segment on slabs cut from its own
images, and each slab of a segment runs the segment before it on slabs cut
from that slab's images; at each boundary the outputs still live (the next
step's input, and one a later add_junction reads) are joined in image
order. A boundary thus joins at most one slab of the segment after it,
whose SLAB_BYTES bound covers every output it reads, so memory does not
grow with the batch past the head's gathered outputs. The shares only read
the plan, which the compile built whole, and they are gathered in share
order, so neither the CPU count nor the thread a share ran on can move a
byte. The threads overlap inside numpy's matmul and ufunc loops, which
release the GIL, but every call gives it up and takes it back: on a 2-vCPU
VM two threads doing in-place elementwise calls on 4K-16K-element float32
arrays did 0.58-0.65x the work of one thread, and 1.75x on 64K-element
arrays (medians of 7 repeats), which is why each segment takes the largest
slab its own activations allow. A share's slabs are cut from its own first
image, so which of two failing images it meets first can depend on the CPU
count: a call cut into more than one share that fails runs the head again
on the calling thread alone and raises the error of that run, the one a
single CPU raises. Training stays on one thread: BN on batch statistics
couples every image of a training batch, so it has no independent slabs to
share.

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

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_ops as T
from .batchnorm import bn_backward_train, bn_forward_infer, bn_forward_train
from .data import check_labels
from .graph import CONV_LIKE, _shapes, infer_shapes
from .quantization import (act_point_applies, quantize, quantize_backward, quantize_prepare,
                           update_activation_range, weight_range_cfg)


# run_inference's slab budget: the bytes of the graph's widest activation
# over the images of one slab (see the module docstring).
SLAB_BYTES = 1 << 20


@dataclass
class ForwardTrace:
    outputs: dict
    caches: dict | None  # None for an inference-mode trace
    bn_stats: dict


_OP_NAME = {"conv": "conv2d", "depthwise_conv": "depthwise_conv2d", "affine": "affine"}


def _weights(layer):
    """The weights a conv, depthwise conv or affine layer computes with: an
    enabled weight point's quantized tensor, read-only, else the master
    weights. An enabled point derives its range from the master weights, so
    it first checks them with the op's own non-finite ValueError."""
    w = layer.params.weights
    point = layer.weight_quant
    if point is None or not point.enabled:
        return w
    T.ensure_finite(_OP_NAME[layer.kind], weights=w)
    wq = quantize(w, weight_range_cfg(w, point.cfg.bits))
    wq.flags.writeable = False
    return wq


def _weighted(backward_op):
    """(forward, backward) of a conv, depthwise conv or affine layer in
    training: its plan step (_weighted_step) with the weights _weights gives
    on this call, and backward_op(layer, grad, x, w, has_bias, input_grad)."""

    def forward(layer, x, bound, trace, update_ranges, out):
        w = _weights(layer)
        step, bound = _weighted_step(layer, x, bound, w)
        return step(x, out, None), bound, (x, w)

    def backward(layer, g, cache, send, input_grad, out):
        upstream, gw, gb = backward_op(layer, g, *cache, layer.params.bias is not None, input_grad)
        return upstream, {"weights": gw} if gb is None else {"weights": gw, "bias": gb}

    return forward, backward


def _stepped(cache, backward):
    """(forward, backward) of a kind whose training forward is its plan step
    (_STEPS), built for x and run at once; cache(x, y) is what backward
    reads."""

    def forward(layer, x, bound, trace, update_ranges, out):
        step, bound = _STEPS[layer.kind](layer, x, bound)
        y = step(x, out, trace.outputs)
        return y, bound, cache(x, y)

    return forward, backward


def _activation(backward_op):
    """(forward, backward) of an activation whose backward reads its output
    y, which the next layer holds anyway, so the input dies here."""
    return _stepped(lambda x, y: y, lambda layer, g, y, send, input_grad, out: (
        backward_op(g, y, out), None))


def _bn_forward(layer, x, bound, trace, update_ranges, out):
    out, stats, layer.params, cache = bn_forward_train(x, layer.params, out=out)
    trace.bn_stats[layer.name] = stats
    return out, np.inf, cache


def _bn_backward(layer, g, cache, *_):
    # The cache is consumed here, so grad_x takes over its centered input.
    upstream, ggamma, gbeta = bn_backward_train(g, cache, out=cache.centered)
    return upstream, {"gamma": ggamma, "beta": gbeta}


def _junction_backward(layer, g, cache, send, *_):
    for ref in layer.params:
        send(ref, g)
    return None, None


def _act_quant_forward(layer, x, bound, trace, update_ranges, out):
    point = layer.params
    if point.enabled and update_ranges:
        point.cfg = update_activation_range(x, point.cfg)
    if not act_point_applies(point):
        return x, bound, None
    step, bound = _quant_step(layer, x, bound)
    return step(x, out, None), bound, (x, point.cfg)


def _act_quant_backward(layer, g, cache, send, input_grad, out):
    return (g if cache is None else quantize_backward(g, *cache, out=out)), None


# One training (forward, backward) pair per layer kind. A forward maps
# (layer, x, bound, trace, update_ranges, out) to (output, bound on its
# magnitude, cache): it builds its kind's plan step (_STEPS) for x and
# runs it, except BN, which runs on batch statistics, unbounded. A backward
# maps (layer, grad, cache, send, input_grad, out) to (upstream gradient,
# parameter gradients); input_grad is False for the first layer, whose
# input gradient has no reader. out is x, or grad, when the engine hands
# that array over (the ownership rule in the module docstring), else None.
_LAYER_OPS = {
    "conv": _weighted(lambda l, g, x, w, b, gx: T.conv2d_backward(
        g, x, w, l.stride, l.padding, has_bias=b, input_grad=gx)),
    "depthwise_conv": _weighted(lambda l, g, x, w, b, gx: T.depthwise_conv2d_backward(
        g, x, w, l.stride, l.padding, has_bias=b, input_grad=gx)),
    "affine": _weighted(lambda l, g, x, w, b, _: T.affine_backward(g, x, w, has_bias=b)),
    "bn": (_bn_forward, _bn_backward),
    "relu": _activation(lambda g, y, out: T.relu_backward(g, y, out=out)),
    "relu6": _activation(lambda g, y, out: T.relu6_backward(g, y, out=out)),
    "global_avg_pool": _stepped(lambda x, y: x.shape[2:], lambda l, g, cache, *_: (
        T.global_avg_pool_backward(g, cache), None)),
    "add_junction": _stepped(lambda x, y: None, _junction_backward),
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


def _schedule(layers, training, keep_outputs):
    """Per layer, (own, release, absorbed) for one forward pass.

    release names the outputs whose last reader is this layer: the next
    layer, or the last add_junction that names the output (the final output
    has no reader and is never released). own tells that the layer's input is
    handed to it as out=. A layer's output shares its input's buffer when the
    layer wrote there or may pass its input through (a quant point, an
    absorbed activation), so the input is free when every output in that
    buffer is read by the next layer alone and no cache holds it (an
    activation's training cache is its output; a conv, depthwise conv,
    affine or quant point caches its input); the graph input is never free.
    In inference, absorbed tells that an activation's only reader absorbs it
    (_absorbed). A pass that keeps every output releases, hands over and
    absorbs nothing.
    """
    n = len(layers)
    if keep_outputs:
        return [(False, (), False)] * n
    last = {}
    for i, layer in enumerate(layers, 1):
        last[layer.name] = i
        if layer.kind == "add_junction":
            for ref in layer.params:
                last[ref] = i - 1
    release = [[] for _ in range(n + 1)]
    for name, i in last.items():
        release[i].append(name)
    schedule = []
    free = False
    for i, layer in enumerate(layers):
        writes_input, caches_input, activation = _OWNERSHIP[layer.kind]
        if training and caches_input:
            free = False
        own = free and writes_input
        sole = last[layer.name] == i + 1
        absorbed = (activation and sole and not training and i + 1 < n
                    and _absorbed(layer, layers[i + 1]))
        shares = own or absorbed or layer.kind == "quant_point"
        free = (free or not shares) and sole and not (training and activation)
        schedule.append((own, release[i], absorbed))
    return schedule


def forward_graph(graph, x, *, training=False, update_ranges=False, keep_outputs=True):
    """Run the graph on a batch x of shape (N, C, H, W).

    Returns a ForwardTrace. In training mode BN layers use batch statistics
    and their running statistics are updated on the graph; enabled activation
    quant points fold the observed range into their EMA when update_ranges is
    set; the trace records the caches backward_graph reads. Inference mode
    runs the graph's plan, touches nothing and records no caches. The trace
    keeps every layer output unless keep_outputs is False, in which case each
    output is dropped after its last reader and only the final one is kept.
    """
    if not training:
        outputs = {}
        _run(_plan(graph, x, keep_outputs).steps, x, outputs)
        return ForwardTrace(outputs=outputs, caches=None, bn_stats={})
    trace = ForwardTrace(outputs={}, caches={}, bn_stats={})
    outputs = trace.outputs
    prev, bound = x, np.inf
    for layer, (own, release, _) in zip(graph.layers,
                                        _schedule(graph.layers, True, keep_outputs)):
        try:
            prev, bound, cache = _LAYER_OPS[layer.kind][0](layer, prev, bound, trace,
                                                           update_ranges, prev if own else None)
        except Exception as e:
            _name_layer(e, layer.name, layer.kind)
            raise
        trace.caches[layer.name] = cache
        # An unrecorded cache would keep this layer's input alive through the next layer.
        del cache
        outputs[layer.name] = prev
        for name in release:
            del outputs[name]
    return trace


class _Plan(NamedTuple):
    """A graph's compiled inference pass (the module docstring's plan),
    built whole by _compile and only read after."""

    key: list  # _key at compile time
    arrays: tuple  # every weight and bias array the steps are built from
    blobs: list  # their bytes at compile time
    steps: tuple  # per layer, (forward(x, out, outputs), own, name, release, kind)
    # Per run of the steps before the first affine that share one slab size,
    # (its first step, the step after its last, images per slab).
    segments: tuple


def _key(graph, x, keep_outputs):
    """What a plan is compiled from, past the weight and bias bytes."""
    key = [keep_outputs, x.shape[1:], x.dtype]
    for layer in graph.layers:
        p, kind = layer.params, layer.kind
        key += (id(layer), layer.name, kind, id(p))
        if kind == "quant_point":
            cfg = p.cfg
            key += (p.enabled, id(cfg), cfg.bits, cfg.m, cfg.M_up, cfg.initialized)
        elif kind in CONV_LIKE:
            point = layer.weight_quant
            key += (id(p.weights), id(p.bias), tuple(layer.stride), tuple(layer.padding),
                    point and (point.enabled, id(point.cfg), point.cfg.bits))
        elif kind == "bn":
            key += (id(p.gamma), id(p.beta), id(p.running_mean), id(p.running_var))
        elif kind == "add_junction":
            key += tuple(p)
    return key


def _plan(graph, x, keep_outputs):
    """graph.plan while its key holds for x, else a new one."""
    plan, key = graph.plan, _key(graph, x, keep_outputs)
    if plan is None or plan.key != key or [a.tobytes() for a in plan.arrays] != plan.blobs:
        plan = graph.plan = _compile(graph, x, key)
    return plan


def _compile(graph, x, key):
    """The plan of graph's inference pass on inputs shaped and typed like x,
    for its key (_key), which tells whether it keeps every output. Every
    step is built here, for what the step before it returns (and the bound
    it leaves) on a zero-image batch, so a weight, bias, range or shape
    error raises before any input is run; the plan is read-only after."""
    layers = graph.layers
    # Per-image sizes of the input and of each output; _shapes names the
    # layer whose geometry does not fit x before any step is built.
    widths = [math.prod(x.shape[1:]), *map(math.prod, _shapes(layers, x.shape[1:]).values())]
    arrays, steps, outputs, prev, bound = [], [], {}, x[:0], np.inf
    for layer, (own, release, absorbed) in zip(layers, _schedule(layers, False, key[0])):
        if absorbed or layer.kind == "quant_point" and not act_point_applies(layer.params):
            forward = _pass_through
        else:
            if layer.kind in CONV_LIKE:
                arrays += [a for a in (layer.params.weights, layer.params.bias) if a is not None]
            try:
                forward, bound = _STEPS[layer.kind](layer, prev, bound)
                prev = forward(prev, None, outputs)
            except Exception as e:
                _name_layer(e, layer.name, layer.kind)
                raise
        outputs[layer.name] = prev
        steps.append((forward, own, layer.name, tuple(release), layer.kind))
    # Step i's slab fits the widest per-image input or output from step i to
    # the first affine, so slabs never shrink along the head.
    split = next((i for i, layer in enumerate(layers) if layer.kind == "affine"), len(layers))
    slabs = [max(1, SLAB_BYTES // (max(1, *widths[i:split + 1]) * x.itemsize))
             for i in range(split)]
    cuts = [0] + [i for i in range(1, split) if slabs[i] != slabs[i - 1]] + [split]
    return _Plan(key, tuple(arrays), [a.tobytes() for a in arrays], tuple(steps),
                 tuple((a, b, slabs[a]) for a, b in zip(cuts, cuts[1:])))


def _name_layer(e, name, kind):
    """Prefix the message of e, an error a layer's op raised, with the
    layer's name and kind; the caller re-raises it, type and traceback
    kept."""
    e.args = (f"layer '{name}' ({kind}): {e}",)


def _pass_through(x, out, outputs):
    """The step of an absorbed activation and of a point that does not apply."""
    return x


def _run(steps, x, outputs):
    """Run steps of a plan on x, which the first of them reads, recording
    the outputs they keep in outputs. Returns the last step's output."""
    prev = x
    for forward, own, name, release, kind in steps:
        try:
            prev = outputs[name] = forward(prev, prev if own else None, outputs)
        except Exception as e:
            _name_layer(e, name, kind)
            raise
        for done in release:
            del outputs[done]
    return prev


def _bounded(bound, dtype):
    """Whether values of this bound stay finite in dtype, with room for the
    rounding of the bound and of the ops: below half the largest finite
    value."""
    return bound < np.inf and bound < np.finfo(dtype).max / 2


def _weighted_step(layer, x, bound, w=None):
    # w: the weights to compute with, by default those _weights gives.
    w, b = _weights(layer) if w is None else w, layer.params.bias
    check = not _bounded(bound, x.dtype)
    if layer.kind == "affine":
        prepared = T.affine_prepare(w, b, x.shape[1:])
        forward = lambda x, out, outputs: T.affine_forward(x, w, b, check_x=check,  # noqa: E731
                                                           prepared=prepared)
    else:
        stride, padding = tuple(layer.stride), tuple(layer.padding)
        if layer.kind == "conv":
            prepared = T.conv2d_prepare(w, b, stride, padding, x.shape[1:], x.dtype)
            forward = lambda x, out, outputs: T.conv2d_forward(  # noqa: E731
                x, w, b, stride, padding, check_x=check, prepared=prepared)
        else:
            prepared = T.depthwise_conv2d_prepare(w, b, stride, padding, x.shape[1:], x.dtype)
            forward = lambda x, out, outputs: T.depthwise_conv2d_forward(  # noqa: E731
                x, w, b, stride, padding, check_x=check, prepared=prepared)
    if bound < np.inf:
        # An output channel sums fan_in products, and by Cauchy-Schwarz the
        # sum of its |w| is at most sqrt(fan_in) times the norm of all of w
        # (and |b| at most the norm of b): two BLAS dots, no temporaries.
        fan_in = w.shape[0] if layer.kind == "affine" else w.size // w.shape[0]
        bound = math.sqrt(fan_in * float(np.vdot(w, w))) * bound
        if b is not None:
            bound += math.sqrt(float(np.vdot(b, b)))
    return forward, bound


def _quant_step(layer, x, bound):
    cfg = layer.params.cfg
    prepared = quantize_prepare(cfg, x.dtype)
    check = not _bounded(bound, x.dtype)
    return (lambda x, out, outputs: quantize(x, cfg, out=out, prepared=prepared, check_x=check),
            max(abs(cfg.m), abs(cfg.M_up)))


def _pool_step(layer, x, bound):
    # The mean's H*W-term sums must stay in range too.
    kept = _bounded(bound * math.prod(x.shape[2:]), x.dtype)
    return lambda x, out, outputs: T.global_avg_pool_forward(x), bound if kept else np.inf


def _junction_step(layer, x, bound):
    a, b = layer.params
    return lambda x, out, outputs: T.elementwise_add(outputs[a], outputs[b]), np.inf


# Per kind: (layer, x, bound on the magnitude of x) -> (forward(x, out,
# outputs), bound on the magnitude of its output) of its step, built for
# inputs shaped and typed like x. Ops are looked up through `T` and this
# module's globals at call time, never bound at import, so that a patched
# module attribute reaches every call (the traced benchmark run,
# perfbench/spans.py, times ops that way).
_STEPS = {
    **dict.fromkeys(CONV_LIKE, _weighted_step),
    "bn": lambda l, x, bound: (
        lambda x, out, outputs: bn_forward_infer(x, l.params, out=out), np.inf),
    "relu": lambda l, x, bound: (
        lambda x, out, outputs: T.relu_forward(x, out=out), bound),
    "relu6": lambda l, x, bound: (
        lambda x, out, outputs: T.relu6_forward(x, out=out),
        min(bound, 6.0) if bound < np.inf else bound),
    "global_avg_pool": _pool_step,
    "add_junction": _junction_step,
    "quant_point": _quant_step,
}


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
        try:
            upstream, grads = _LAYER_OPS[layer.kind][1](layer, g, cache, send, i > 0,
                                                        g if owned else None)
        except Exception as e:
            _name_layer(e, layer.name, layer.kind)
            raise
        if grads is not None:
            param_grads[layer.name] = grads
        if upstream is not None and i > 0:
            send(graph.layers[i - 1].name, upstream, owned or upstream is not g)
    return param_grads


def _cpus():
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_inference(graph, x):
    """Inference-mode output of the whole graph, byte for byte the final
    output of forward_graph(graph, x, keep_outputs=False).

    Runs the graph's plan. A batch wider than the first segment's slab is
    cut into one share per CPU the process may run on (_cpus), at most one
    per first slab, and each share runs the head on slabs of its own images,
    each segment's slab cut from one of the next segment's (the module
    docstring's slabs and shares); every helper thread has ended when the
    call returns or raises. A failing call raises the error of one CPU's
    run, which it makes again on the calling thread when it ran more than
    one share. The first affine and the steps after it run once on the
    gathered shares.
    """
    plan = _plan(graph, x, False)
    n, steps, segments = x.shape[0], plan.steps, plan.segments
    if n <= segments[0][2]:
        return _run(steps, x, {})

    k = min(_cpus(), -(-n // segments[0][2]))
    cuts = [i * n // k for i in range(k + 1)]
    try:
        # The pool starts a thread per submitted share only, and joins them
        # on exit. A helper runs in a copy of the caller's context, which
        # holds numpy's error state (np.errstate).
        with ThreadPoolExecutor(max(k - 1, 1)) as pool:
            helpers = [pool.submit(copy_context().run, _head, plan, x[lo:hi])
                       for lo, hi in zip(cuts[1:-1], cuts[2:])]
            shares = [_head(plan, x[:cuts[1]]), *map(Future.result, helpers)]
    except Exception:
        # A failed helper's future holds its error, whose traceback holds
        # this frame; no frame may keep the futures, or a cycle keeps x alive.
        helpers = None
        if k > 1:  # the shares' slabs are cut where one CPU's are not
            _head(plan, x)
        raise
    gathered = _gathered(shares)
    # The first step is never an affine (it needs a flat input), so split > 0.
    split = segments[-1][1]
    return _run(steps[split:], gathered[steps[split - 1][2]], gathered)


def _head(plan, x, j=-1):
    """The outputs still live after the plan's segment j (its last by
    default) on the images of x: the segment runs on slabs of its size, each
    fed by segment j - 1 on the slab's images, so a boundary joins at most
    one slab of the segment after it."""
    a, b, slab = plan.segments[j]
    pieces = []
    for s in range(0, len(x), slab):
        outputs = _head(plan, x[s:s + slab], j - 1) if a else {}
        _run(plan.steps[a:b], outputs[plan.steps[a - 1][2]] if a else x[s:s + slab], outputs)
        pieces.append(outputs)
    return _gathered(pieces)


def _gathered(pieces):
    """The outputs of runs over consecutive images of one batch, each
    concatenated in image order (one run's as they are)."""
    if len(pieces) == 1:
        return pieces[0]
    return {name: np.concatenate([p[name] for p in pieces]) for name in pieces[0]}


def _class_count(graph):
    """K of the graph's (N, K) logits."""
    return infer_shapes(graph)[graph.layers[-1].name][0]


def loss_and_grads(graph, x, labels, *, update_ranges=False):
    """One training-mode forward/backward with softmax cross entropy.

    Returns (loss, logits, param_grads, bn_stats). Labels that are not one
    class id of the graph's output per image raise data.check_labels's
    DataFormatError before the forward changes the graph."""
    check_labels("loss_and_grads", labels, x, _class_count(graph))
    trace = forward_graph(graph, x, training=True, update_ranges=update_ranges,
                          keep_outputs=False)
    logits = trace.outputs[graph.layers[-1].name]
    loss, grad_logits = T.softmax_cross_entropy(logits, labels)
    param_grads = backward_graph(graph, trace, grad_logits)
    return loss, logits, param_grads, trace.bn_stats


def evaluate(graph, images, labels):
    """Inference-mode classification accuracy as a fraction in [0, 1]; raises
    ValueError when given no images, and data.check_labels's DataFormatError
    on labels that are not one class id of the graph's output per image."""
    n = images.shape[0]
    if n == 0:
        raise ValueError("evaluate: no images to evaluate")
    check_labels("evaluate", labels, images, _class_count(graph))
    hits = int((np.argmax(run_inference(graph, images), axis=1) == labels).sum())
    return hits / n
