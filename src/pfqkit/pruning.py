"""Channel pruning driven by near-zero BN running variance.

apply_pfq(graph, epsilon) prunes every BN channel whose running variance is
strictly below epsilon, a threshold of its own: WorkflowConfig.epsilon and
the config key pfq.epsilon, default 1e-5, which equals the builders' default
bn_epsilon. A BN's own epsilon is not read. Such a channel outputs a constant
in practice, its shift beta after normalization. It is removed and the
constant it fed downstream is pushed along one path of layers, from the BN
to its consumer: through relu, relu6, global_avg_pool and quant_point (an
activation point that applies snaps the constant as inference snaps it),
and through any depthwise conv (with its BN), which cannot absorb the
constant because it does not mix channels, so its channel is removed too
(the cascade).

One rule places what arrives: the consumer (a conv or an affine) adds the
constant times its weights for the channel, summed over a conv's kernel, to
its bias, created if missing; a correction of all zeros changes nothing. So
a BN after the consumer stays exact in training too, where its batch mean
cancels that bias as it cancelled the constant.

Candidates are left in place, with the skip reason in the report, when
- residual: the channel, on its way to the consumer, feeds an add junction,
  whose other arm still carries it;
- depthwise-producer: the BN follows a depthwise conv (removal would have to
  cascade upstream);
- affine-producer: the BN follows an affine (output units are out of scope);
- network-output: the path runs off the end of the graph;
- would-empty: every channel of the BN is a candidate;
- padded-consumer: the constant enters a zero-padded conv or depthwise conv,
  on the path or as the consumer, as a nonzero value; at the zero-padded
  border that layer sees only part of its kernel, so the kernel sum is not
  the exact correction there (prune_channels' uncorrected arm prunes it).
prune_channels raises ValueError for such a channel instead.

Compensation is exact, so that run_inference of the pruned graph equals the
original to float rounding, provided that the channel's BN output really is
the constant beta at inference and that weight quantization is off. A zero
constant contributes nothing, at a padded border or not, so it stays
prunable; one that a ReLU clipped to zero is reported as kind none-ReLU-zero.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from itertools import takewhile

import numpy as np

from .engine import forward_graph
from .graph import _TENSOR_FIELDS, copy_graph, count_macs, param_count, write_csv
from .quantization import act_point_applies, quantize

_PASS_THROUGH = ("relu", "relu6", "global_avg_pool", "quant_point")


@dataclass
class PruneCandidate:
    layer: str
    channel: int
    running_var: float
    beta: float
    act_of_beta: float


@dataclass
class PruneEntry:
    layer: str
    channel: int
    kind: str
    running_var: float
    beta: float
    u_norm: float
    cascade: list = field(default_factory=list)


@dataclass
class PruneSkip:
    layer: str
    channel: int
    reason: str
    running_var: float
    beta: float


@dataclass
class PruneReport:
    entries: list
    skips: list
    params_before: int
    params_after: int
    macs_before: int
    macs_after: int

    @property
    def weights_removed(self):
        return self.params_before - self.params_after

    @property
    def percent_removed(self):
        if self.params_before == 0:
            return 0.0
        return 100.0 * self.weights_removed / self.params_before

    def to_csv(self, path):
        write_csv([("layer", "channel", "kind", "Vt", "beta", "U_norm"),
                   *((e.layer, e.channel, e.kind, e.running_var, e.beta, e.u_norm)
                     for e in self.entries),
                   *((*astuple(s), None) for s in self.skips)], path)

    def summary(self):
        mac_delta = self.macs_before - self.macs_after
        return (
            f"pruned {len(self.entries)} channels, skipped {len(self.skips)} candidates; "
            f"weights {self.params_before} -> {self.params_after} "
            f"({self.percent_removed:.2f}% removed); "
            f"MACs {self.macs_before} -> {self.macs_after} (-{mac_delta})"
        )


def _resolve_plan(graph, bn_index):
    """Work out where pruning BN channels at bn_index lands downstream: the
    path of layer indices through pass-through layers and cascading depthwise
    convs with their BNs, ending at the conv or affine consumer. Returns the
    path or a skip reason."""
    layers = graph.layers
    producer = layers[bn_index - 1]
    if producer.kind == "depthwise_conv":
        return "depthwise-producer"
    if producer.kind == "affine":
        return "affine-producer"
    junction_refs = {ref for l in layers if l.kind == "add_junction" for ref in l.params}
    path = []
    for j in range(bn_index + 1, len(layers)):
        path.append(j)
        # A BN can only follow a conv-like layer, so one met here belongs to
        # a depthwise conv on the path; conv, affine and junction end it.
        if layers[j].kind not in ("conv", "affine", "add_junction"):
            continue
        carrying = {layers[i].name for i in [bn_index - 1, bn_index, *path[:-1]]}
        if layers[j].kind == "add_junction" or carrying & junction_refs:
            return "residual"
        return path
    return "network-output"


def _push_const(graph, path, value, channel, dtype):
    """Push one channel's constant through the layers at the indices in path.

    Returns (value, clipped, padded): clipped tells that a ReLU clipped the
    constant to zero on the way, padded that it entered a zero-padded conv or
    depthwise conv as a nonzero value, where the kernel sum misses the border
    taps. The consumer, when on the path, leaves the value unchanged."""
    clipped = padded = False
    for idx in path:
        layer = graph.layers[idx]
        p = layer.params
        padded = padded or (value != 0.0 and layer.padding != (0, 0))
        if layer.kind in ("relu", "relu6"):
            clipped = clipped or value <= 0.0
            value = max(value, 0.0) if layer.kind == "relu" else min(max(value, 0.0), 6.0)
        elif layer.kind == "quant_point":
            if act_point_applies(p):
                value = float(quantize(np.asarray([value], dtype=dtype), p.cfg)[0])
        elif layer.kind == "depthwise_conv":
            value = float(p.weights[channel, 0].sum()) * value
            if p.bias is not None:
                value += float(p.bias[channel])
        elif layer.kind == "bn":
            inv = 1.0 / float(np.sqrt(p.running_var[channel] + p.epsilon))
            value = ((value - float(p.running_mean[channel])) * inv * float(p.gamma[channel])
                     + float(p.beta[channel]))
        # global_avg_pool passes a constant unchanged
    return value, clipped, padded


def _below(layer, epsilon):
    return [int(c) for c in np.flatnonzero(layer.params.running_var < epsilon)]


def scan_candidates(graph, epsilon):
    """All BN channels with running variance strictly below epsilon, in layer
    then channel order. act_of_beta is beta pushed through the pass-through
    layers after the BN, snapped by each activation point that applies, so
    the value inference sees; on a float graph no point applies."""
    layers, out = graph.layers, []
    for i, layer in enumerate(layers):
        if layer.kind != "bn":
            continue
        p = layer.params
        chain = list(takewhile(lambda j: layers[j].kind in _PASS_THROUGH,
                               range(i + 1, len(layers))))
        for c in _below(layer, epsilon):
            beta = float(p.beta[c])
            a, _, _ = _push_const(graph, chain, beta, c, p.beta.dtype)
            out.append(PruneCandidate(layer=layer.name, channel=c,
                                      running_var=float(p.running_var[c]), beta=beta,
                                      act_of_beta=a))
    return out


def compute_bias_correction(weight_slice, act_value):
    """Correction added downstream when a constant input channel is removed.

    weight_slice is the consumer's weights for that input channel: (O, kh, kw)
    for a conv (summed over the kernel) or (K,) for an affine."""
    if weight_slice.ndim == 3:
        return weight_slice.sum(axis=(1, 2)) * act_value
    if weight_slice.ndim == 1:
        return weight_slice * act_value
    raise ValueError(f"unexpected weight slice rank {weight_slice.ndim}")


def _drop_channels(layer, channels):
    """Delete output channels of a conv or depthwise conv (filters and bias
    entries) or of a BN (every per-channel vector)."""
    p = layer.params
    layer.params = replace(p, **{f: np.delete(getattr(p, f), channels, axis=0)
                                 for f in _TENSOR_FIELDS[layer.kind] if getattr(p, f) is not None})


def _process_group(graph, bn_index, pushed, path, correct):
    """Prune channels of the BN layer at bn_index along a resolved path;
    pushed holds (channel, value, clipped) with each channel's constant as it
    reaches the consumer, whose bias takes the correction when correct.
    Mutates graph layers in place; returns the PruneEntries."""
    layers = graph.layers
    bn_layer = layers[bn_index]
    consumer = layers[path[-1]]
    dtype = bn_layer.params.beta.dtype
    cascade = [i for i in path if layers[i].kind in ("depthwise_conv", "bn")]
    channels = [c for c, _, _ in pushed]

    entries = []
    total_u = None
    for c, value, clipped in pushed:
        if consumer.kind == "affine":
            slice_w = consumer.params.weights[c, :]
        else:
            slice_w = consumer.params.weights[:, c]
        u = compute_bias_correction(slice_w, np.asarray(value, dtype=dtype))
        u_norm = float(np.sqrt(np.sum(np.square(u, dtype=np.float64))))

        if not correct:
            kind = "uncorrected"
        elif value == 0.0 and clipped:
            kind = "none-ReLU-zero"
        else:
            kind = "bias"
        entries.append(PruneEntry(layer=bn_layer.name, channel=c, kind=kind,
                                  running_var=float(bn_layer.params.running_var[c]),
                                  beta=float(bn_layer.params.beta[c]),
                                  u_norm=u_norm, cascade=[(layers[i].name, c) for i in cascade]))
        total_u = u if total_u is None else total_u + u

    if correct and np.any(total_u):
        bias = consumer.params.bias
        consumer.params.bias = (total_u if bias is None else bias + total_u).astype(dtype, copy=False)

    # Surgery, after every correction is computed from original weights.
    for i in (bn_index - 1, bn_index, *cascade):
        _drop_channels(layers[i], channels)
    # An affine consumer takes input channels on axis 0, a conv on axis 1.
    consumer.params.weights = np.delete(consumer.params.weights, channels,
                                        axis=0 if consumer.kind == "affine" else 1)
    return entries


def _prune(graph, select, correct):
    """Shared driver: one pass over the BN layers of a copy of graph, in graph
    order, pruning the channels select(layer) returns. Pruning a BN changes
    only layers after it, so each BN is seen after every earlier change.
    Unprunable channels are recorded as PruneSkips. Returns (new_graph,
    PruneReport)."""
    g = copy_graph(graph)
    params_before = param_count(g)
    macs_before = sum(count_macs(g).values())
    entries = []
    skips = []

    def reject(layer, channels, reason):
        p = layer.params
        skips.extend(PruneSkip(layer=layer.name, channel=c, reason=reason,
                               running_var=float(p.running_var[c]), beta=float(p.beta[c]))
                     for c in channels)

    for i, layer in enumerate(g.layers):
        channels = select(layer) if layer.kind == "bn" else []
        if not channels:
            continue
        if len(channels) == layer.params.gamma.shape[0]:
            plan = "would-empty"
        else:
            plan = _resolve_plan(g, i)
        if isinstance(plan, str):
            reject(layer, channels, plan)
            continue
        pushed, padded = [], []
        for c in channels:
            value, clipped, pad = _push_const(g, plan, float(layer.params.beta[c]), c,
                                              layer.params.beta.dtype)
            if correct and pad:
                padded.append(c)
            else:
                pushed.append((c, value, clipped))
        if padded:
            reject(layer, padded, "padded-consumer")
        if pushed:
            entries.extend(_process_group(g, i, pushed, plan, correct))
            g.validate()
    report = PruneReport(entries=entries, skips=skips, params_before=params_before,
                         params_after=param_count(g), macs_before=macs_before,
                         macs_after=sum(count_macs(g).values()))
    return g, report


def apply_pfq(graph, epsilon):
    """Remove every prunable channel whose running variance is strictly below
    epsilon, compensating each in its consumer's bias. Returns (new_graph,
    PruneReport); the report lists the channels left in place as skips."""
    return _prune(graph, lambda layer: _below(layer, epsilon), True)


def prune_channels(graph, targets, *, correct=True):
    """Remove explicitly chosen (bn_layer_name, channel) pairs, regardless of
    their running variance; returns (new_graph, PruneReport) and never
    changes graph. Channels must share no layer unless listed together.
    Raises ValueError for a name that is not a BN layer, a channel outside
    [0, C), a pair listed twice or a set naming every channel of a layer,
    and "cannot prune channels of '<layer>': <reason>" for the first target
    a skip rule leaves in place. correct=False is the ablation arm: nothing
    is compensated, so inference output moves, and a padded consumer is no
    reason to skip."""
    layers = {layer.name: layer for layer in graph.layers}
    by_layer = {}
    for name, channel in targets:
        layer = layers.get(name)
        if layer is None or layer.kind != "bn":
            raise ValueError(f"prune target ({name!r}, {channel}): not a BN layer")
        count = layer.params.gamma.shape[0]
        if not 0 <= channel < count:
            raise ValueError(f"prune target ({name!r}, {channel}): channel outside [0, {count})")
        if channel in by_layer.setdefault(name, []):
            raise ValueError(f"prune target ({name!r}, {channel}): listed twice")
        by_layer[name].append(channel)
    for name, channels in by_layer.items():
        if len(channels) == layers[name].params.gamma.shape[0]:
            raise ValueError(f"prune targets name every channel of {name!r}: would-empty")
    g, report = _prune(graph, lambda layer: sorted(by_layer.get(layer.name, [])), correct)
    if report.skips:
        skip = report.skips[0]
        raise ValueError(f"cannot prune channels of '{skip.layer}': {skip.reason}")
    return g, report


@dataclass
class ConstancyRow:
    layer: str
    channel: int
    running_var: float
    spread: float


def channel_constancy_report(graph, images):
    """Observed output spread (max minus min over batch and space) next to the
    stored running variance, per BN channel, in inference mode. Raises
    ValueError when given no images."""
    if images.shape[0] == 0:
        raise ValueError("channel_constancy_report: no images")
    trace = forward_graph(graph, images, training=False)
    rows = []
    for layer in graph.layers:
        if layer.kind != "bn":
            continue
        out = trace.outputs[layer.name]
        axes = (0, 2, 3) if out.ndim == 4 else (0,)
        spread = out.max(axis=axes) - out.min(axis=axes)
        for c in range(out.shape[1]):
            rows.append(ConstancyRow(layer=layer.name, channel=c,
                                     running_var=float(layer.params.running_var[c]),
                                     spread=float(spread[c])))
    return rows


def constancy_report_to_csv(rows, path):
    write_csv([("layer", "channel", "Vt", "spread"), *map(astuple, rows)], path)
