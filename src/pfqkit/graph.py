"""Typed layer graphs for small convolutional classifiers.

A model is a topologically ordered list of layers. Each layer consumes the
output of the layer before it, except add_junction, which consumes exactly
the two earlier layers it names. Shapes are per sample, channel first; the
batch extent is dynamic.

A layer's kind alone says what its fields mean. Its params are a
WeightParams for a conv, depthwise conv or affine, a BNParams for a bn, the
two layer names an add_junction adds and the QuantPoint of a quant_point;
the other kinds hold none. Only a conv or depthwise conv carries a stride
and padding, and only a conv, depthwise conv or affine a weight point
(weight_quant). A quantizer's role follows from its slot: a weight point
quantizes its layer's weights on their own min/max, a quant_point's point
the activations that pass it on an EMA range.

Serialization splits a model into a human-readable JSON manifest (structure,
scalar fields, tensor table with offsets and checksums) and one raw blob of
little-endian float32 values in manifest order. Each quantizer record names
its target and range policy, which the loader checks against its slot.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import math
import numbers
import sys
import zlib
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .batchnorm import BNParams, fold_bn
from .quantization import QuantConfig, QuantPoint, _bits_error
from .tensor_ops import conv_output_extent

CONV_LIKE = ("conv", "depthwise_conv", "affine")
KINDS = CONV_LIKE + ("bn", "relu", "relu6", "global_avg_pool", "add_junction", "quant_point")


class GraphError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass
class WeightParams:
    """Weights and optional bias (out_ch,) of a weighted layer, whose kind
    gives the weights' layout: (out_ch, in_ch, kh, kw) for a conv,
    (channels, 1, kh, kw) for a depthwise conv, (in_dim, out_dim) for an
    affine."""

    weights: np.ndarray
    bias: np.ndarray | None = None


@dataclass
class LayerSpec:
    name: str
    kind: str
    params: object = None
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    weight_quant: QuantPoint | None = None


@dataclass
class ModelGraph:
    layers: list = field(default_factory=list)
    input_shape: tuple = ()
    # The engine's compiled inference pass (engine._Plan), which checks its
    # own key on every call; never copied, saved or compared.
    plan: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise GraphError, naming the layer, on a graph the ops cannot run:
        an input_shape that is not three positive integers, a layer name
        that is not a str, bad structure (a junction that does not name two
        earlier layers), inconsistent shapes, geometry (a stride or padding
        that is not a pair of integers, or out of range), a field the
        layer's kind does not carry (a weight point off a conv, depthwise
        conv or affine; a stride or padding other than (1, 1) and (0, 0) off
        a conv or depthwise conv), a malformed quantizer (_check_point), BN
        statistics or rho, weights of the wrong rank, a parameter that is
        not a floating-point array, or a parameter vector that is not one
        entry per output channel."""
        if not self.layers:
            raise GraphError("graph has no layers")
        if not (_integers(self.input_shape, 3) and min(self.input_shape) > 0):
            raise GraphError("input_shape must be (channels, height, width), positive integers, "
                             f"got {self.input_shape!r}")
        seen = set()
        for i, layer in enumerate(self.layers):
            if not isinstance(layer.name, str):
                raise GraphError(f"layer {i}: name must be a str, got {layer.name!r}")
            if layer.kind not in KINDS:
                raise GraphError(f"layer '{layer.name}': unknown layer kind {layer.kind!r}")
            if layer.name in seen:
                raise GraphError(f"layer {i}: duplicate layer name '{layer.name}'")
            if layer.kind == "bn":
                if i == 0 or self.layers[i - 1].kind not in CONV_LIKE:
                    raise GraphError(f"bn layer '{layer.name}' must directly follow a conv, depthwise conv, or affine")
                _check_bn(layer.name, layer.params)
            for fieldname, default in (("stride", (1, 1)), ("padding", (0, 0))):
                value = getattr(layer, fieldname)
                if layer.kind in ("conv", "depthwise_conv"):
                    _check_pair(layer.name, fieldname, value)
                elif not (_integers(value, 2) and tuple(value) == default):
                    raise GraphError(f"layer '{layer.name}': a {layer.kind} layer takes no "
                                     f"{fieldname}, got {value!r}")
            if layer.kind == "add_junction":
                if not (isinstance(layer.params, (tuple, list)) and len(layer.params) == 2
                        and all(isinstance(ref, str) for ref in layer.params)):
                    raise GraphError(f"add_junction '{layer.name}' must name exactly two "
                                     f"layers, got {layer.params!r}")
                for ref in layer.params:
                    if ref not in seen:
                        raise GraphError(f"add_junction '{layer.name}' references '{ref}' "
                                         "which is not an earlier layer")
            if layer.weight_quant is not None:
                if layer.kind not in CONV_LIKE:
                    raise GraphError(f"layer '{layer.name}': a {layer.kind} layer has no "
                                     "weights to quantize")
                _check_point(layer.name, layer.weight_quant)
            if layer.kind == "quant_point":
                _check_point(layer.name, layer.params)
            seen.add(layer.name)
        shapes = infer_shapes(self)
        for layer in self.layers:
            _check_params(layer, shapes[layer.name][0])

    def layer(self, name):
        return self.layers[self.index(name)]

    def index(self, name):
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(name)


def _check_point(name, point):
    """A quantizer has bool enabled and initialized flags, bits that are an
    integer from 1 to 1023 (quantization._bits_error), a range of real
    numbers, finite with m <= M_up once initialized (a collapsed range,
    m == M_up, is the documented pass-through), and an EMA momentum in
    [0, 1]."""
    cfg = point.cfg
    if not (isinstance(point.enabled, bool) and isinstance(cfg.initialized, bool)):
        raise GraphError(f"layer '{name}': quantizer enabled and initialized must be bools, "
                         f"got {point.enabled!r} and {cfg.initialized!r}")
    error = _bits_error(cfg.bits)
    if error:
        raise GraphError(f"layer '{name}': quantizer {error}")
    m, M = cfg.m, cfg.M_up
    if not (_real(m) and _real(M)) or cfg.initialized and not (
            math.isfinite(m) and math.isfinite(M) and m <= M):
        raise GraphError(f"layer '{name}': quantizer range [{m}, {M}] "
                         "must be finite with m <= M_up")
    if not _fraction(cfg.ema_momentum):
        raise GraphError(f"layer '{name}': quantizer ema_momentum must be a real number in "
                         f"[0, 1], got {cfg.ema_momentum!r}")


def _real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _fraction(value):
    return _real(value) and 0 <= value <= 1


def _integers(value, count):
    """Whether value is a tuple or list of count integers (bools are not)."""
    return (isinstance(value, (tuple, list)) and len(value) == count
            and all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in value))


def _check_params(layer, channels):
    """Raise GraphError, naming the layer and the field, unless every
    parameter array of a conv, depthwise conv, affine or BN layer has a
    floating dtype and every parameter vector (a bias, BN's gamma, beta and
    running statistics) has shape (channels,), the layer's output channels."""
    for fieldname in _TENSOR_FIELDS.get(layer.kind, ()):
        a = getattr(layer.params, fieldname)
        if a is None:
            continue
        if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
            got = a.dtype if isinstance(a, np.ndarray) else type(a).__name__
            raise GraphError(f"layer '{layer.name}': {fieldname} must be a floating-point "
                             f"array, got {got}")
        if fieldname != "weights" and a.shape != (channels,):
            raise GraphError(f"layer '{layer.name}': {fieldname} has shape {a.shape}, "
                             f"expected ({channels},)")


def _check_pair(name, fieldname, value):
    """A convolution's stride or padding is a pair of integers (bools are
    not); their ranges are conv_output_extent's to check."""
    if not _integers(value, 2):
        raise GraphError(f"layer '{name}': {fieldname} must be a pair of integers, "
                         f"got {value!r}")


def _check_bn(name, params):
    """BN divides by sqrt(running_var + epsilon): epsilon must be a finite
    number > 0, and the running variance finite and >= 0, or inference goes
    non-finite layers later. rho, the share of the old running value an
    update keeps, must be a real number in [0, 1] (not a bool)."""
    eps = params.epsilon
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps > 0):
        raise GraphError(f"layer '{name}': bn epsilon must be finite and > 0, got {eps!r}")
    rho = params.rho
    if not _fraction(rho):
        raise GraphError(f"layer '{name}': bn rho must be a real number in [0, 1], got {rho!r}")
    var = params.running_var
    if not (np.isfinite(var).all() and (var >= 0).all()):
        raise GraphError(f"layer '{name}': bn running_var must be finite and >= 0, "
                         f"got min {np.min(var)}")


def copy_graph(graph):
    """A deep copy that starts without the engine's plan: every copy in the
    library replaces its parameters or its bits next, so a copied plan
    would never be run."""
    return copy.deepcopy(graph, {id(graph.plan): None})


def infer_shapes(graph):
    """Per-sample output shape of every layer, in order. Raises GraphError on
    any inconsistency of the layer geometry (parameter vectors are
    ModelGraph.validate's to check)."""
    return _shapes(graph.layers, graph.input_shape)


def _shapes(layers, input_shape):
    """infer_shapes for layers on inputs of per-sample shape input_shape."""
    shapes = {}
    prev_shape = tuple(input_shape)
    for layer in layers:
        k = layer.kind
        if k in ("conv", "depthwise_conv"):
            if len(prev_shape) != 3:
                raise GraphError(f"{k} '{layer.name}' needs a (C, H, W) input, got {prev_shape}")
            c, h, w = prev_shape
            o, ci, kh, kw = _weights_shape(layer, 4)
            # A depthwise kernel (C, 1, kh, kw) has one filter per input channel.
            expected = ci if k == "conv" else o
            if expected != c:
                raise GraphError(f"{k} '{layer.name}' expects {expected} input channels, gets {c}")
            ho = _extent(layer, h, kh, layer.stride[0], layer.padding[0])
            wo = _extent(layer, w, kw, layer.stride[1], layer.padding[1])
            out = (o, ho, wo)
        elif k == "affine":
            if len(prev_shape) != 1:
                raise GraphError(f"affine '{layer.name}' needs a flat input, got {prev_shape}")
            d, kdim = _weights_shape(layer, 2)
            if d != prev_shape[0]:
                raise GraphError(f"affine '{layer.name}' expects {d} inputs, gets {prev_shape[0]}")
            out = (kdim,)
        elif k in ("bn", "relu", "relu6", "quant_point"):
            out = prev_shape
        elif k == "global_avg_pool":
            if len(prev_shape) != 3:
                raise GraphError(f"global_avg_pool '{layer.name}' needs a (C, H, W) input")
            out = (prev_shape[0],)
        elif k == "add_junction":
            a, b = layer.params
            if shapes[a] != shapes[b]:
                raise GraphError(f"add_junction '{layer.name}' joins unequal shapes {shapes[a]} and {shapes[b]}")
            out = shapes[a]
        else:  # pragma: no cover
            raise GraphError(f"unknown kind {k}")
        shapes[layer.name] = out
        prev_shape = out
    return shapes


def _weights_shape(layer, ndim):
    shape = np.shape(layer.params.weights)
    if len(shape) != ndim:
        raise GraphError(f"layer '{layer.name}': weights must be {ndim}-d, got shape {shape}")
    return shape


def _extent(layer, size, kernel, stride, pad):
    try:
        return conv_output_extent(size, kernel, stride, pad)
    except ValueError as e:
        raise GraphError(f"layer '{layer.name}': {e}") from e


def count_macs(graph):
    """Multiply-accumulate count per layer (one MAC = one multiply plus add).

    Every conv, depthwise conv and affine costs its weight count per output
    position (one position for an affine). Everything else is 0.
    """
    shapes = infer_shapes(graph)
    return {layer.name: (layer.params.weights.size * math.prod(shapes[layer.name][1:])
                         if layer.kind in CONV_LIKE else 0)
            for layer in graph.layers}


def param_count(graph):
    """Number of learnable scalars: conv/depthwise/affine weights and biases,
    BN gamma and beta. Running statistics are buffers, not parameters."""
    total = 0
    for layer in graph.layers:
        if layer.kind in CONV_LIKE:
            total += layer.params.weights.size
            if layer.params.bias is not None:
                total += layer.params.bias.size
        elif layer.kind == "bn":
            total += layer.params.gamma.size + layer.params.beta.size
    return total


@dataclass
class RangeRow:
    layer: str
    min: float
    max: float
    range: float


def dynamic_range_report(graph):
    """Weight min/max/spread per conv, depthwise conv, and affine layer.

    Meant for folded graphs, where BN scaling has been pushed into the conv
    weights, but works on any graph."""
    rows = []
    for layer in graph.layers:
        if layer.kind in CONV_LIKE:
            w = layer.params.weights
            lo = float(w.min())
            hi = float(w.max())
            rows.append(RangeRow(layer=layer.name, min=lo, max=hi, range=hi - lo))
    return rows


def write_csv(rows, path=None):
    """Write rows, each a sequence of cells, as CSV to the file at path, or
    to stdout without one. Every table pfqkit writes goes through here: a
    cell is written as its str (a float as its repr), None as an empty
    cell, a cell holding a comma, a quote or a line break quoted, and each
    line ends in a bare newline."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def range_report_to_csv(rows, path):
    write_csv([("layer", "min", "max", "range"), *map(astuple, rows)], path)


def macs_to_csv(macs, path):
    write_csv([("layer", "macs"), *macs.items()], path)


def fold_bn_graph(graph):
    """Fold every conv/depthwise + BN pair and drop the BN layers.

    The folded conv keeps the conv's name and always carries a bias. Junction
    references to a removed BN layer are rewritten to the folded conv. BN fed
    by an affine is not foldable here and raises."""
    g = copy_graph(graph)
    new_layers = []
    renames = {}
    skip = set()
    for i, layer in enumerate(g.layers):
        if layer.name in skip:
            continue
        if i + 1 < len(g.layers) and g.layers[i + 1].kind == "bn":
            bn_layer = g.layers[i + 1]
            if layer.kind in ("conv", "depthwise_conv"):
                layer.params = fold_bn(layer.params, bn_layer.params)
                skip.add(bn_layer.name)
                renames[bn_layer.name] = layer.name
            elif layer.kind == "affine":
                raise GraphError(f"bn '{bn_layer.name}' follows an affine and cannot be folded")
        if layer.kind == "add_junction":
            a, b = layer.params
            layer.params = (renames.get(a, a), renames.get(b, b))
        new_layers.append(layer)
    return ModelGraph(layers=new_layers, input_shape=g.input_shape)


# --- serialization ---------------------------------------------------------

FORMAT_NAME = "pfqkit-model"
FORMAT_VERSION = 1

_TENSOR_FIELDS = {
    **{kind: ("weights", "bias") for kind in CONV_LIKE},
    "bn": ("gamma", "beta", "running_mean", "running_var"),
}
# A manifest spells each quantizer's role out as its target and range
# policy; both follow from the slot the point sits in.
_RANGE_POLICY = {"weights": "weight_minmax_per_tensor", "activations": "activation_ema_minmax"}


def _quant_dict(point, target):
    return {
        "target": target,
        "enabled": point.enabled,
        "bits": point.cfg.bits,
        "m": float(point.cfg.m),
        "M_up": float(point.cfg.M_up),
        "range_policy": _RANGE_POLICY[target],
        "ema_momentum": float(point.cfg.ema_momentum),
        "initialized": point.cfg.initialized,
    }


def _quant_from_dict(d, what, target):
    """The quantizer of record d in the slot of a target ("weights" or
    "activations"); raises ModelFormatError naming what when the record's
    target and range policy are not that slot's."""
    def get(key):
        return _field(d, key, what)

    role = (get("target"), get("range_policy"))
    if role != (target, _RANGE_POLICY[target]):
        raise ModelFormatError(f"{what} has target {role[0]!r} and range_policy {role[1]!r}; "
                               f"its slot needs '{target}' and '{_RANGE_POLICY[target]}'")
    return QuantPoint(
        enabled=get("enabled"),
        cfg=QuantConfig(bits=get("bits"), m=get("m"), M_up=get("M_up"),
                        ema_momentum=get("ema_momentum"), initialized=get("initialized")),
    )


def _field(doc, key, what, kind=object):
    """doc[key] of the manifest record named by what (the manifest, the blob,
    a layer, a tensor or a quantizer); raises ModelFormatError naming what
    and key when doc is not a JSON object, lacks key, or holds a value that
    is not of kind. Only the fields the loader itself reads are given a
    kind; the values of graph fields are ModelGraph.validate's to check."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{what} is not a JSON object")
    if key not in doc:
        raise ModelFormatError(f"{what} has no field '{key}'")
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelFormatError(f"{what} field '{key}' is not a {kind.__name__}: {value!r}")
    return value


def save_model(graph, manifest_path):
    """Write manifest JSON at manifest_path and the float32 blob next to it.

    Returns (manifest_path, blob_path)."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")

    tensors = []
    chunks = []
    offset = 0

    def push(tensor_id, arr):
        nonlocal offset
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({
            "id": tensor_id,
            "shape": list(arr.shape),
            "offset": offset,
            "byte_length": len(data),
            "crc32": zlib.crc32(data),
        })
        chunks.append(data)
        offset += len(data)

    layers_doc = []
    for layer in graph.layers:
        doc = {"name": layer.name, "kind": layer.kind}
        if layer.kind in ("conv", "depthwise_conv"):
            doc["stride"] = list(layer.stride)
            doc["padding"] = list(layer.padding)
        if layer.kind in CONV_LIKE:
            doc["has_bias"] = layer.params.bias is not None
            point = layer.weight_quant
            doc["weight_quant"] = _quant_dict(point, "weights") if point else None
        if layer.kind == "bn":
            doc["epsilon"] = float(layer.params.epsilon)
            doc["rho"] = float(layer.params.rho)
        if layer.kind == "add_junction":
            doc["inputs"] = list(layer.params)
        if layer.kind == "quant_point":
            doc["quant"] = _quant_dict(layer.params, "activations")
        for fieldname in _TENSOR_FIELDS.get(layer.kind, ()):
            arr = getattr(layer.params, fieldname)
            if arr is not None:
                push(f"{layer.name}.{fieldname}", arr)
        layers_doc.append(doc)

    blob = b"".join(chunks)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_shape": list(graph.input_shape),
        "blob": {"file": blob_path.name, "byte_length": len(blob), "crc32": zlib.crc32(blob)},
        "layers": layers_doc,
        "tensors": tensors,
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    blob_path.write_bytes(blob)
    return manifest_path, blob_path


def load_model(manifest_path):
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"malformed manifest: {e}") from e

    def top(key, kind=object):
        return _field(manifest, key, "manifest", kind)

    if top("format") != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} manifest: {manifest['format']!r}")
    if top("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {manifest['version']}")
    input_shape = tuple(top("input_shape", list))
    blob_doc, layer_docs, tensor_docs = top("blob"), top("layers", list), top("tensors", list)

    blob_path = manifest_path.parent / _field(blob_doc, "file", "blob", str)
    try:
        blob = blob_path.read_bytes()
    except OSError as e:
        raise ModelFormatError(f"blob file '{blob_path.name}' cannot be read: "
                               f"{e.strerror}") from e
    blob_length = _field(blob_doc, "byte_length", "blob", int)
    if len(blob) != blob_length:
        raise ModelFormatError(f"blob length {len(blob)} does not match manifest {blob_length}")
    if zlib.crc32(blob) != _field(blob_doc, "crc32", "blob", int):
        raise ModelFormatError("blob checksum mismatch")

    arrays = {}
    for i, t in enumerate(tensor_docs):
        tensor_id = _field(t, "id", f"tensor {i}", str)
        what = f"tensor '{tensor_id}'"
        if tensor_id in arrays:
            raise ModelFormatError(f"{what} is listed twice")
        lo = _field(t, "offset", what, int)
        hi = lo + _field(t, "byte_length", what, int)
        shape = _field(t, "shape", what, list)
        if hi > len(blob):
            raise ModelFormatError(f"{what} extends past end of blob")
        data = blob[lo:hi]
        if zlib.crc32(data) != _field(t, "crc32", what, int):
            raise ModelFormatError(f"{what} checksum mismatch")
        try:
            arrays[tensor_id] = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        except (TypeError, ValueError):
            raise ModelFormatError(f"{what} holds {len(data)} bytes, which do not fill float32 "
                                   f"shape {shape}") from None

    unread = dict(arrays)

    def tensor(layer_name, fieldname):
        key = f"{layer_name}.{fieldname}"
        if key not in arrays:
            raise ModelFormatError(f"manifest lists no tensor '{key}'")
        unread.pop(key, None)
        return arrays[key]

    layers = []
    for i, doc in enumerate(layer_docs):
        name = _field(doc, "name", f"layer {i}", str)
        what = f"layer '{name}'"

        def get(key, kind=object):
            return _field(doc, key, what, kind)

        kind = get("kind")
        layer = LayerSpec(name=name, kind=kind)
        if kind in ("conv", "depthwise_conv"):
            layer.stride = tuple(get("stride", list))
            layer.padding = tuple(get("padding", list))
        if kind in CONV_LIKE:
            layer.params = WeightParams(
                weights=tensor(name, "weights"),
                bias=tensor(name, "bias") if get("has_bias", bool) else None,
            )
            point = get("weight_quant")
            if point is not None:
                layer.weight_quant = _quant_from_dict(point, f"{what} weight quantizer",
                                                      "weights")
        elif kind == "bn":
            layer.params = BNParams(
                gamma=tensor(name, "gamma"),
                beta=tensor(name, "beta"),
                running_mean=tensor(name, "running_mean"),
                running_var=tensor(name, "running_var"),
                epsilon=get("epsilon"),
                rho=get("rho"),
            )
        elif kind == "add_junction":
            layer.params = tuple(get("inputs", list))
        elif kind == "quant_point":
            layer.params = _quant_from_dict(get("quant"), f"{what} quantizer", "activations")
        layers.append(layer)
    try:
        graph = ModelGraph(layers=layers, input_shape=input_shape)
    except GraphError as e:
        raise ModelFormatError(f"manifest describes an invalid graph: {e}") from e
    if unread:
        names = ", ".join(f"'{key}'" for key in sorted(unread))
        raise ModelFormatError(f"manifest lists tensors that no layer reads: {names}")
    return graph
