"""Typed layer graphs for small convolutional classifiers.

A model is a topologically ordered list of layers. Each layer consumes the
output of the layer before it, except add_junction, which consumes exactly
the two earlier layers it names. Shapes are per sample, channel first; the
batch extent is dynamic.

Serialization splits a model into a human-readable JSON manifest (structure,
scalar fields, tensor table with offsets and checksums) and one raw blob of
little-endian float32 values in manifest order.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .batchnorm import BNParams, fold_bn
from .quantization import QuantConfig, QuantPoint, _bits_error
from .tensor_ops import ConvParams, DepthwiseConvParams, conv_output_extent

CONV_LIKE = ("conv", "depthwise_conv", "affine")
KINDS = CONV_LIKE + ("bn", "relu", "relu6", "global_avg_pool", "add_junction", "quant_point")


class GraphError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass
class AffineParams:
    """Fully connected weights (in_dim, out_dim) and optional bias."""

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
    # Element count of the largest per-image layer output, set by validate();
    # it sizes the engine's inference slabs, and a stale value changes only
    # their size, never an output byte. Never compared.
    widest: int = field(default=1, init=False, compare=False, repr=False)
    # The engine's compiled inference pass (engine._Plan), which checks its
    # own key on every call; never copied, saved or compared.
    plan: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise GraphError, naming the layer, on a graph the ops cannot run:
        a layer name that is not a str, bad structure (a junction that does
        not name two earlier layers), inconsistent shapes, geometry (a stride
        or padding that is not a pair of integers, or out of range),
        quantizer ranges, BN statistics or rho, weights of the wrong rank, a
        parameter that is not a floating-point array, or a parameter vector
        that is not one entry per output channel. Sets widest from the
        inferred shapes."""
        if not self.layers:
            raise GraphError("graph has no layers")
        if len(self.input_shape) != 3:
            raise GraphError("input_shape must be (channels, height, width)")
        seen = set()
        for i, layer in enumerate(self.layers):
            if not isinstance(layer.name, str):
                raise GraphError(f"layer {i}: name must be a str, got {layer.name!r}")
            if layer.kind not in KINDS:
                raise GraphError(f"unknown layer kind '{layer.kind}'")
            if layer.name in seen:
                raise GraphError(f"duplicate layer name '{layer.name}'")
            if layer.kind == "bn":
                if i == 0 or self.layers[i - 1].kind not in CONV_LIKE:
                    raise GraphError(f"bn layer '{layer.name}' must directly follow a conv, depthwise conv, or affine")
                _check_bn(layer.name, layer.params)
            if layer.kind in ("conv", "depthwise_conv"):
                for fieldname in ("stride", "padding"):
                    _check_pair(layer.name, fieldname, getattr(layer, fieldname))
            if layer.kind == "add_junction":
                if not (isinstance(layer.params, (tuple, list)) and len(layer.params) == 2
                        and all(isinstance(ref, str) for ref in layer.params)):
                    raise GraphError(f"add_junction '{layer.name}' must name exactly two "
                                     f"layers, got {layer.params!r}")
                for ref in layer.params:
                    if ref not in seen:
                        raise GraphError(f"add_junction '{layer.name}' references '{ref}' "
                                         "which is not an earlier layer")
            point = layer.params if layer.kind == "quant_point" else layer.weight_quant
            if point is not None:
                _check_quant_cfg(layer.name, point.cfg)
            seen.add(layer.name)
        shapes = infer_shapes(self)
        for layer in self.layers:
            _check_params(layer, shapes[layer.name][0])
        self.widest = max(1, *(math.prod(shape) for shape in shapes.values()))

    def layer(self, name):
        return self.layers[self.index(name)]

    def index(self, name):
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(name)


def _check_quant_cfg(name, cfg):
    """A quantizer needs bits that are an integer from 1 to 1023
    (quantization._bits_error) and, once initialized, a finite range with
    m <= M_up; a collapsed range (m == M_up) is the documented pass-through."""
    error = _bits_error(cfg.bits)
    if error:
        raise GraphError(f"layer '{name}': quantizer {error}")
    if cfg.initialized and not (math.isfinite(cfg.m) and math.isfinite(cfg.M_up)
                                and cfg.m <= cfg.M_up):
        raise GraphError(f"layer '{name}': quantizer range [{cfg.m}, {cfg.M_up}] "
                         "must be finite with m <= M_up")


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
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                    for v in value)):
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
    if isinstance(rho, bool) or not (isinstance(rho, numbers.Real) and 0 <= rho <= 1):
        raise GraphError(f"layer '{name}': bn rho must be a real number in [0, 1], got {rho!r}")
    var = params.running_var
    if not (np.isfinite(var).all() and (var >= 0).all()):
        raise GraphError(f"layer '{name}': bn running_var must be finite and >= 0, "
                         f"got min {np.min(var)}")


def copy_layer(layer):
    """A deep copy of a layer."""
    return copy.deepcopy(layer)


def copy_graph(graph):
    """A deep copy that starts without the engine's plan: every copy in the
    library replaces its parameters or its bits next, so a copied plan
    would never be run."""
    return copy.deepcopy(graph, {id(graph.plan): None})


def infer_shapes(graph):
    """Per-sample output shape of every layer, in order. Raises GraphError on
    any inconsistency of the layer geometry (parameter vectors are
    ModelGraph.validate's to check)."""
    shapes = {}
    prev_shape = tuple(graph.input_shape)
    for layer in graph.layers:
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


def range_report_to_csv(rows, path):
    lines = ["layer,min,max,range"]
    for r in rows:
        lines.append(f"{r.layer},{r.min!r},{r.max!r},{r.range!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def macs_to_csv(macs, path):
    lines = ["layer,macs"]
    for name, count in macs.items():
        lines.append(f"{name},{count}")
    Path(path).write_text("\n".join(lines) + "\n")


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
_PARAMS_CLASS = {"conv": ConvParams, "depthwise_conv": DepthwiseConvParams, "affine": AffineParams}


def _quant_dict(point):
    return {
        "target": point.target,
        "enabled": point.enabled,
        "bits": point.cfg.bits,
        "m": float(point.cfg.m),
        "M_up": float(point.cfg.M_up),
        "range_policy": point.cfg.range_policy,
        "ema_momentum": float(point.cfg.ema_momentum),
        "initialized": point.cfg.initialized,
    }


def _quant_from_dict(d, what):
    def get(key):
        return _field(d, key, what)

    return QuantPoint(
        target=get("target"),
        enabled=get("enabled"),
        cfg=QuantConfig(bits=get("bits"), m=get("m"), M_up=get("M_up"),
                        range_policy=get("range_policy"), ema_momentum=get("ema_momentum"),
                        initialized=get("initialized")),
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
            doc["weight_quant"] = _quant_dict(layer.weight_quant) if layer.weight_quant else None
        if layer.kind == "bn":
            doc["epsilon"] = float(layer.params.epsilon)
            doc["rho"] = float(layer.params.rho)
        if layer.kind == "add_junction":
            doc["inputs"] = list(layer.params)
        if layer.kind == "quant_point":
            doc["quant"] = _quant_dict(layer.params)
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
    blob = blob_path.read_bytes()
    blob_length = _field(blob_doc, "byte_length", "blob", int)
    if len(blob) != blob_length:
        raise ModelFormatError(f"blob length {len(blob)} does not match manifest {blob_length}")
    if zlib.crc32(blob) != _field(blob_doc, "crc32", "blob", int):
        raise ModelFormatError("blob checksum mismatch")

    arrays = {}
    for i, t in enumerate(tensor_docs):
        tensor_id = _field(t, "id", f"tensor {i}")
        what = f"tensor '{tensor_id}'"
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
            layer.params = _PARAMS_CLASS[kind](
                weights=tensor(name, "weights"),
                bias=tensor(name, "bias") if get("has_bias", bool) else None,
            )
            if doc.get("weight_quant"):
                layer.weight_quant = _quant_from_dict(doc["weight_quant"],
                                                      f"{what} weight quantizer")
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
            layer.params = _quant_from_dict(get("quant"), f"{what} quantizer")
        layers.append(layer)
    if unread:
        names = ", ".join(f"'{key}'" for key in sorted(unread, key=str))
        raise ModelFormatError(f"manifest lists tensors that no layer reads: {names}")

    try:
        return ModelGraph(layers=layers, input_shape=input_shape)
    except GraphError as e:
        raise ModelFormatError(f"manifest describes an invalid graph: {e}") from e
