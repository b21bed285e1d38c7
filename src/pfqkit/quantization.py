"""Uniform fake quantization with straight-through gradients.

A quantizer is described by a closed range [m, M] and a bit width n. The
grid step is (M - m) / 2**n, which places 2**n + 1 representable points with
both range endpoints on the grid. Values are clamped to the range first,
snapped with round-half-away-from-zero, and reconstructed on the real axis
(fake quantization: outputs stay floating point). After the clamp the grid
index t = (x - m) / scale is never negative, so rounding half away from
zero is exactly floor(t + 0.5), which the quantizer computes in one output
buffer.

A zero offset is skipped: with m == 0 (also -0.0) the quantizer does not
subtract m before scaling nor add it back at the end, since neither pass
can change a byte. x - 0.0 is x bit for bit, -0.0 included; the last
product k * scale is never -0.0, because k = floor(t + 0.5) >= +0, so
adding 0.0 to it changes nothing; and for m == -0.0, subtracting it would
turn a -0.0 input into +0.0, a sign that the + 0.5 erases anyway. Every
activation point after a relu-family layer calibrates to m == 0 exactly
(the EMA of batch minima that are all 0 stays 0), the zero-point-0 case of
Jacob et al., arXiv 1712.05877, so a streamed 4-bit inference runs two
passes fewer per point.

The output is finite: a range whose grid cannot be computed in the working
dtype (an end that overflows it, a step that rounds to zero, more grid
points than it can count) raises QuantRangeError before any pass runs.
Each step of the snap is monotone in x, so the two ends of the range bound
every output. quantize_prepare makes those range checks once per engine
step, which passes the record as prepared= (and check_x=False for a
bounded input): once per plan in inference, once per call in training.
Direct calls check on every call. The engine relies on the bound: a conv
that reads an activation point's output does not check it again.

A point's role follows from its slot, and so does its range policy. The
point on a layer's weights (LayerSpec.weight_quant) uses the tensor's own
min/max, derived again whenever the weights change: a training forward
quantizes them on every call, and inference keeps the quantized tensor in
the graph's plan while the weight array keeps its bytes and the point its
bits. The point of a quant_point layer tracks its activation range as an
exponential moving average of observed batch min/max, frozen outside of
training. insert_quant_points places both kinds, weight points disabled
unless asked; enable_weight_points turns them on after the BN fold.

quantize and quantize_backward write into out= when handed one (it may be
an input): quantize only when out has the dtype it would compute in, so the
bytes match a new array. The engine hands over a dead activation, and in
inference an activation point whose range lies inside [0, 6] also does the
clamp of the relu6 before it (see the engine's absorption). A graph rejects
a point with bits that are not an integer from 1 to 1023 or an initialized
range that is not finite with m <= M_up (ModelGraph.validate).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import ensure_finite


class QuantRangeError(ValueError):
    pass


@dataclass
class QuantConfig:
    bits: int
    m: float = 0.0
    M_up: float = 0.0
    ema_momentum: float = 0.99
    initialized: bool = False

    @property
    def scale(self):
        return (self.M_up - self.m) / (2 ** self.bits)


@dataclass
class QuantPoint:
    """A quantizer as a graph holds it: on a conv, depthwise conv or affine
    layer's weights (LayerSpec.weight_quant), or on the activations that
    pass a quant_point layer (its params)."""

    cfg: QuantConfig
    enabled: bool = True


def act_point_applies(point):
    """Whether an activation point snaps its input: it is enabled and has a
    range that is initialized and not collapsed to a single value."""
    return point.enabled and point.cfg.initialized and point.cfg.M_up > point.cfg.m


def quantize(x, cfg, out=None, *, prepared=None, check_x=True):
    """Snap x onto the quantizer grid of cfg. Errors on a non-finite x, on a
    degenerate range and on one whose grid overflows the working dtype, so
    the result is finite. Writes into out (which may be x) when out has the
    result's dtype. prepared is quantize_prepare(cfg, x.dtype)'s record,
    which stands for the range checks; check_x=False skips the check of x,
    for a caller that knows x is finite."""
    if check_x:
        ensure_finite("quantize", x=x)
    m, M, scale, dtype = quantize_prepare(cfg, x.dtype) if prepared is None else prepared
    out = out if out is not None and out.dtype == dtype else None
    return _snap(x, m, M, scale, out).astype(x.dtype, copy=False)


def quantize_prepare(cfg, dtype):
    """The range checks of quantize for an input of the given dtype: raises
    QuantRangeError on bits that cannot count a grid (_bits_error), a
    degenerate range or a grid that is not finite in the working dtype.
    Returns (m, M, scale, working dtype)."""
    bits, m, M = cfg.bits, cfg.m, cfg.M_up
    error = _bits_error(bits)
    if error:
        raise QuantRangeError(error)
    if not M > m:
        raise QuantRangeError(f"degenerate quantizer range [{m}, {M}]")
    work = np.result_type(dtype, m, M)
    if not _finite_grid(float(m), float(M), bits, work, dtype):
        raise QuantRangeError(f"quantizer range [{m}, {M}] at {bits} bits overflows {work}")
    return m, M, cfg.scale, work


def _bits_error(bits):
    """Why bits cannot count a quantizer's grid, or None: it must be an
    integer, not a bool, from 1 to 1023, where 2.0 ** bits is finite."""
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)):
        return f"bits must be an integer, got {bits!r}"
    if bits < 1:
        return f"bits must be >= 1, got {bits}"
    if bits > 1023:
        return f"bits must be <= 1023, where 2**bits is a finite float, got {bits}"
    return None


def _snap(x, m, M, scale, out):
    """clip, shift by -m, scale, round half up, scale back and shift by m,
    in out (a new array when None); a zero m skips both shifts. The clamp
    calls ndarray.clip, the ufunc np.clip reaches through its wrappers."""
    out = np.asarray(x.clip(m, M, out=out))  # a 0-d clip returns a scalar
    if m:
        out -= m
    out /= scale
    out += 0.5
    np.floor(out, out=out)
    out *= scale
    if m:
        out += m
    return out


def _finite_grid(m, M, bits, dtype, out_dtype):
    """Whether every value of [m, M] snaps to a finite value in dtype, cast to
    out_dtype. Each step of _snap is monotone in x, so the snapped ends of
    the range bound every snapped value and every intermediate. A range far
    inside both dtypes passes without snapping its ends: with L an eighth of
    the largest value both hold, A = max(|m|, |M|) < L, a normal step s and
    4 A < L s, the grid index stays below L / 2 + 2 and every other
    intermediate below 5 A."""
    info = np.finfo(dtype)
    limit = float(min(info.max, np.finfo(out_dtype).max)) / 8
    reach, step = max(-m, M), (M - m) / 2 ** bits
    if reach < limit and step >= info.tiny and 4 * reach < limit * step:
        return True
    with np.errstate(all="ignore"):
        ends = _snap(np.array([m, M], dtype), m, M, step, None)
        return bool(np.isfinite(ends.astype(out_dtype)).all())


def quantize_backward(grad_out, x, cfg, out=None):
    """Straight-through gradient: passes where x lies inside [m, M], else zero."""
    mask = (x >= cfg.m) & (x <= cfg.M_up)
    return np.multiply(grad_out, mask, out=out)


def weight_range_cfg(weights, bits):
    """Per-tensor live range for weight quantization; raises QuantRangeError
    on weights that hold a nan or an infinity, or have zero spread."""
    lo = float(weights.min())
    hi = float(weights.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuantRangeError("weight tensor holds non-finite values, cannot derive a range")
    if not hi > lo:
        raise QuantRangeError("weight tensor has zero spread, cannot derive a range")
    return QuantConfig(bits=bits, m=lo, M_up=hi, initialized=True)


def check_weight_ranges(graph):
    """Derive the range of every enabled weight point once, so that a weight
    tensor with zero spread or a non-finite value fails before training with
    the layer named."""
    for layer in graph.layers:
        point = layer.weight_quant
        if point is not None and point.enabled:
            try:
                weight_range_cfg(layer.params.weights, point.cfg.bits)
            except QuantRangeError as e:
                raise QuantRangeError(f"layer '{layer.name}': {e}") from None


def update_activation_range(observed, cfg):
    """Fold one observation into the EMA range. Returns a new QuantConfig.

    The first observation initializes the range directly. An observation
    holding a nan or an infinity raises quantize's non-finite ValueError
    instead, so no range is derived from it.
    """
    lo = float(observed.min())
    hi = float(observed.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("quantize: non-finite values in x")
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
    them on only after folding (enable_weight_points); weight_enabled=True
    enables them at once, as the single-stage baseline does.
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
        layer = copy.deepcopy(layer)
        if layer.kind == "add_junction":
            a, b = layer.params
            layer.params = (renames.get(a, a), renames.get(b, b))
        if layer.kind in graph_mod.CONV_LIKE:
            layer.weight_quant = QuantPoint(QuantConfig(bits=weight_bits), enabled=weight_enabled)
        new_layers.append(layer)
        if layer.kind in ("relu", "relu6", "global_avg_pool") and layer.name != last_name:
            qp_name = f"{layer.name}_q"
            point = QuantPoint(QuantConfig(bits=act_bits, ema_momentum=ema_momentum),
                               enabled=act_enabled)
            new_layers.append(graph_mod.LayerSpec(name=qp_name, kind="quant_point", params=point))
            renames[layer.name] = qp_name
    return graph_mod.ModelGraph(layers=new_layers, input_shape=graph.input_shape)


def enable_weight_points(graph):
    """Enable every weight point of the graph, in place."""
    for layer in graph.layers:
        if layer.weight_quant is not None:
            layer.weight_quant.enabled = True
