"""Channel pruning driven by near-zero BN running variance.

A channel whose running variance sits below the BN epsilon produces an
output that is constant in practice, equal to its shift beta after
normalization. Such a channel can be removed exactly: the constant it fed
downstream is folded into the consumer as a bias correction. The correction
for a conv consumer is the kernel sum of the consumer's input slice times
the activated constant; when the consumer has no bias but is followed by a
BN, the equivalent shift lands on that BN's beta instead; an affine consumer
corrects its bias with its single weight per output unit.

A depthwise consumer cannot absorb the constant (it has no cross-channel
mixing), so its channel is removed as well and the constant, convolved with
the removed depthwise kernel and passed through the depthwise's own BN and
activation, cascades into the next consumer.

Candidates that feed an add junction are skipped: the junction's other arm
still carries the channel, so removal is not output-preserving. Candidates
whose producer is a depthwise conv (removal would have to cascade upstream)
or an affine (output units are out of scope) are skipped too, as is a BN
whose output is the network output, and a layer whose channels are all
candidates at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .engine import forward_graph
from .graph import copy_graph, count_macs, param_count
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
    def removed(self):
        by_layer = {}
        for e in self.entries:
            by_layer.setdefault(e.layer, []).append(e.channel)
        return by_layer

    @property
    def percent_removed(self):
        if self.params_before == 0:
            return 0.0
        return 100.0 * self.weights_removed / self.params_before

    def to_csv(self, path):
        lines = ["layer,channel,kind,Vt,beta,U_norm"]
        for e in self.entries:
            lines.append(f"{e.layer},{e.channel},{e.kind},{e.running_var!r},{e.beta!r},{e.u_norm!r}")
        for s in self.skips:
            lines.append(f"{s.layer},{s.channel},{s.reason},{s.running_var!r},{s.beta!r},")
        Path(path).write_text("\n".join(lines) + "\n")

    def summary(self):
        mac_delta = self.macs_before - self.macs_after
        return (
            f"pruned {len(self.entries)} channels, skipped {len(self.skips)} candidates; "
            f"weights {self.params_before} -> {self.params_after} "
            f"({self.percent_removed:.2f}% removed); "
            f"MACs {self.macs_before} -> {self.macs_after} (-{mac_delta})"
        )


def _activate_const(value, kind):
    if kind == "relu":
        return max(value, 0.0), value <= 0.0
    if kind == "relu6":
        return min(max(value, 0.0), 6.0), value <= 0.0
    return value, False


def _chain_const(graph, chain, value, quantize_act_of_beta, dtype):
    """Push a per-channel constant through pass-through layers.

    Returns (value, clipped_to_zero_by_relu)."""
    clipped = False
    for idx in chain:
        layer = graph.layers[idx]
        if layer.kind in ("relu", "relu6"):
            value, was_clipped = _activate_const(value, layer.kind)
            clipped = clipped or was_clipped
        elif layer.kind == "quant_point":
            if quantize_act_of_beta and act_point_applies(layer.params):
                value = float(quantize(np.asarray([value], dtype=dtype), layer.params.cfg)[0])
        # global_avg_pool passes a constant unchanged
    return value, clipped


def _walk_chain(graph, start):
    """Indices of pass-through layers from start onward, then the consumer
    index (None when the chain falls off the end of the graph)."""
    chain = []
    j = start
    while j < len(graph.layers) and graph.layers[j].kind in _PASS_THROUGH:
        chain.append(j)
        j += 1
    return chain, (j if j < len(graph.layers) else None)


@dataclass
class _Hop:
    """One depthwise layer the constant cascades through, with its BN."""

    dw_index: int
    bn_index: int | None
    chain: list


@dataclass
class _Plan:
    hops: list
    consumer_index: int
    mode: str  # bias | beta | materialize
    beta_bn_index: int | None  # the BN after the consumer; mode beta shifts its beta
    first_chain: list


def _resolve_plan(graph, bn_index):
    """Work out how pruning BN channels at bn_index lands downstream.

    Returns a _Plan or a skip-reason string."""
    layers = graph.layers
    producer = layers[bn_index - 1]
    if producer.kind == "depthwise_conv":
        return "depthwise-producer"
    if producer.kind == "affine":
        return "affine-producer"

    junction_refs = {ref for l in layers if l.kind == "add_junction" for ref in l.params}
    carrying = {producer.name, layers[bn_index].name}
    hops = []
    first_chain = None
    cursor = bn_index + 1
    while True:
        chain, consumer_idx = _walk_chain(graph, cursor)
        carrying.update(layers[i].name for i in chain)
        if hops:
            hops[-1].chain = chain
        else:
            first_chain = chain
        if consumer_idx is None:
            return "network-output"
        consumer = layers[consumer_idx]
        if consumer.kind == "add_junction" or carrying & junction_refs:
            return "residual"
        bn_after = consumer_idx + 1
        if bn_after == len(layers) or layers[bn_after].kind != "bn":
            bn_after = None
        if consumer.kind in ("conv", "affine"):
            if consumer.params.bias is not None:
                mode = "bias"
            else:
                mode = "materialize" if bn_after is None else "beta"
            return _Plan(hops=hops, consumer_index=consumer_idx, mode=mode,
                         beta_bn_index=bn_after, first_chain=first_chain)
        # The consumer is a depthwise conv (no other kind can follow a chain):
        # the constant cascades through it and its BN.
        carrying.add(consumer.name)
        if bn_after is not None:
            carrying.add(layers[bn_after].name)
        hops.append(_Hop(dw_index=consumer_idx, bn_index=bn_after, chain=[]))
        cursor = (consumer_idx if bn_after is None else bn_after) + 1


def _candidates(graph, bn_index, channels, quantize_act_of_beta):
    """PruneCandidates for the given channels of the BN layer at bn_index."""
    layer = graph.layers[bn_index]
    params = layer.params
    chain, _ = _walk_chain(graph, bn_index + 1)
    out = []
    for c in channels:
        beta = float(params.beta[c])
        a, _ = _chain_const(graph, chain, beta, quantize_act_of_beta, params.beta.dtype)
        out.append(PruneCandidate(layer=layer.name, channel=c,
                                  running_var=float(params.running_var[c]),
                                  beta=beta, act_of_beta=a))
    return out


def scan_candidates(graph, epsilon, *, quantize_act_of_beta=False):
    """All BN channels with running variance strictly below epsilon, in layer
    then channel order, with their post-activation constants."""
    out = []
    for i, layer in enumerate(graph.layers):
        if layer.kind == "bn":
            channels = [int(c) for c in np.flatnonzero(layer.params.running_var < epsilon)]
            out.extend(_candidates(graph, i, channels, quantize_act_of_beta))
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


def _drop_bn_channels(layer, channels):
    p = layer.params
    layer.params = replace(p, **{f: np.delete(getattr(p, f), channels, axis=0)
                                 for f in ("gamma", "beta", "running_mean", "running_var")})


def _drop_output_channels(layer, channels):
    """Delete output channels (filters and bias entries) of a conv or depthwise conv."""
    p = layer.params
    p.weights = np.delete(p.weights, channels, axis=0)
    if p.bias is not None:
        p.bias = np.delete(p.bias, channels, axis=0)


def _process_group(graph, bn_index, group, plan, quantize_act_of_beta, correct):
    """Prune one BN layer's candidate channels following a resolved plan.

    Mutates graph layers in place; returns the PruneEntries."""
    layers = graph.layers
    bn_layer = layers[bn_index]
    producer = layers[bn_index - 1]
    consumer = layers[plan.consumer_index]
    dtype = bn_layer.params.beta.dtype
    channels = [c.channel for c in group]

    entries = []
    total_u = None
    for cand in group:
        c = cand.channel
        value, clipped = _chain_const(graph, plan.first_chain, float(bn_layer.params.beta[c]),
                                      quantize_act_of_beta, dtype)
        cascade = []
        for hop in plan.hops:
            dw = layers[hop.dw_index]
            ksum = float(dw.params.weights[c, 0].sum())
            value = ksum * value
            if dw.params.bias is not None:
                value += float(dw.params.bias[c])
            cascade.append((dw.name, c))
            if hop.bn_index is not None:
                bnp = layers[hop.bn_index].params
                inv = 1.0 / float(np.sqrt(bnp.running_var[c] + bnp.epsilon))
                value = (value - float(bnp.running_mean[c])) * inv * float(bnp.gamma[c]) + float(bnp.beta[c])
                cascade.append((layers[hop.bn_index].name, c))
            value, was_clipped = _chain_const(graph, hop.chain, value, quantize_act_of_beta, dtype)
            clipped = clipped or was_clipped

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
        elif plan.mode == "beta":
            kind = "beta"
        else:
            kind = "bias"
        entries.append(PruneEntry(layer=bn_layer.name, channel=c, kind=kind,
                                  running_var=cand.running_var, beta=cand.beta,
                                  u_norm=u_norm, cascade=cascade))
        total_u = u if total_u is None else total_u + u

    if correct:
        if plan.mode == "bias":
            consumer.params.bias = (consumer.params.bias + total_u).astype(dtype, copy=False)
        elif plan.mode == "materialize":
            consumer.params.bias = total_u.astype(dtype, copy=False)
        elif plan.mode == "beta":
            bnp = layers[plan.beta_bn_index].params
            factor = bnp.gamma / np.sqrt(bnp.running_var + bnp.epsilon)
            bnp.beta = (bnp.beta + factor * total_u).astype(dtype, copy=False)

    # Surgery, after every correction is computed from original weights.
    _drop_bn_channels(bn_layer, channels)
    _drop_output_channels(producer, channels)
    for hop in plan.hops:
        _drop_output_channels(layers[hop.dw_index], channels)
        if hop.bn_index is not None:
            _drop_bn_channels(layers[hop.bn_index], channels)
    # An affine consumer takes input channels on axis 0, a conv on axis 1.
    consumer.params.weights = np.delete(consumer.params.weights, channels,
                                        axis=0 if consumer.kind == "affine" else 1)
    return entries


def _prune(graph, next_group, quantize_act_of_beta, correct):
    """Shared driver: prune groups from a copy of graph until next_group(g,
    skips) returns None; it returns (bn_index, candidates, plan) and may
    append PruneSkips to skips. Returns (new_graph, PruneReport)."""
    g = copy_graph(graph)
    params_before = param_count(g)
    macs_before = sum(count_macs(g).values())
    entries = []
    skips = []
    while (step := next_group(g, skips)) is not None:
        bn_index, group, plan = step
        entries.extend(_process_group(g, bn_index, group, plan, quantize_act_of_beta, correct))
        g.validate()
    report = PruneReport(entries=entries, skips=skips, params_before=params_before,
                         params_after=param_count(g), macs_before=macs_before,
                         macs_after=sum(count_macs(g).values()))
    return g, report


def apply_pfq(graph, epsilon, *, quantize_act_of_beta=False, correct=True):
    """Remove every prunable sub-epsilon-variance channel with downstream
    compensation. Returns (new_graph, PruneReport).

    With correct=False the channels are removed without any compensation
    (the ablation arm); inference output is then not preserved.
    """
    def next_group(g, skips):
        while True:
            skipped = {(s.layer, s.channel) for s in skips}
            by_layer = {}
            for cand in scan_candidates(g, epsilon, quantize_act_of_beta=quantize_act_of_beta):
                if (cand.layer, cand.channel) not in skipped:
                    by_layer.setdefault(cand.layer, []).append(cand)
            if not by_layer:
                return None
            group = next(iter(by_layer.values()))  # the first layer in graph order
            bn_index = g.index(group[0].layer)
            if len(group) == g.layers[bn_index].params.gamma.shape[0]:
                plan = "would-empty"
            else:
                plan = _resolve_plan(g, bn_index)
            if not isinstance(plan, str):
                return bn_index, group, plan
            skips.extend(PruneSkip(layer=c.layer, channel=c.channel, reason=plan,
                                   running_var=c.running_var, beta=c.beta) for c in group)

    return _prune(graph, next_group, quantize_act_of_beta, correct)


def prune_channels(graph, targets, *, correct=True, quantize_act_of_beta=False):
    """Remove explicitly chosen (bn_layer_name, channel) pairs, regardless of
    their running variance. Channels must share no layer unless listed
    together. Every pair is checked before any surgery: a name that is not a
    BN layer, a channel outside [0, C), a pair listed twice or a set naming
    every channel of a layer raises ValueError. Returns (new_graph,
    PruneReport)."""
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
    pending = iter([name for name in layers if name in by_layer])

    def next_group(g, skips):
        name = next(pending, None)
        if name is None:
            return None
        bn_index = g.index(name)
        plan = _resolve_plan(g, bn_index)
        if isinstance(plan, str):
            raise ValueError(f"cannot prune channels of '{name}': {plan}")
        group = _candidates(g, bn_index, sorted(by_layer[name]), quantize_act_of_beta)
        return bn_index, group, plan

    return _prune(graph, next_group, quantize_act_of_beta, correct)


@dataclass
class ConstancyRow:
    layer: str
    channel: int
    running_var: float
    spread: float


def channel_constancy_report(graph, images):
    """Observed output spread (max minus min over batch and space) next to the
    stored running variance, per BN channel, in inference mode."""
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
    lines = ["layer,channel,Vt,spread"]
    for r in rows:
        lines.append(f"{r.layer},{r.channel},{r.running_var!r},{r.spread!r}")
    Path(path).write_text("\n".join(lines) + "\n")
