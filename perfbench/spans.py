"""Call spans around pfqkit's public functions, for the traced benchmark run.

Each function is patched on the module its caller looks it up in: `engine`
calls tensor_ops as `T.*` and binds the batchnorm and quantization functions
by `from ... import`; `training` binds `loss_and_grads`, `evaluate` and
`copy_graph`; `workflow` binds `apply_pfq`, `fold_bn_graph`,
`insert_quant_points`, `train_epochs` and `save_model`. A span is
[name, start, end, parent index, work]; spans stay in memory until the run
writes them out, and `restore` puts every original function back.
"""

import functools
import json
import os
import time
from collections import defaultdict

from pfqkit import engine, graph, pruning, tensor_ops, training, workflow


def _macs(args, out):
    # One output element of a conv or depthwise conv costs weights[0].size MACs.
    return out.size * args[1][0].size


def _saved_bytes(args, out):
    return sum(os.path.getsize(p) for p in out)


def _prune_counts(args, out):
    report = out[1]
    return (len(report.entries), len(report.skips))


_TENSOR_OPS = (
    "conv2d_forward", "conv2d_backward", "depthwise_conv2d_forward",
    "depthwise_conv2d_backward", "affine_forward", "affine_backward",
    "relu_forward", "relu_backward", "relu6_forward", "relu6_backward",
    "global_avg_pool_forward", "global_avg_pool_backward", "softmax_cross_entropy",
)
_WORK = {
    "tensor_ops.conv2d_forward": _macs,
    "tensor_ops.depthwise_conv2d_forward": _macs,
    "graph.save_model": _saved_bytes,
    "pruning.apply_pfq": _prune_counts,
}

# (module the caller looks the name up in, attribute, span name)
PATCHES = (
    [(tensor_ops, op, f"tensor_ops.{op}") for op in _TENSOR_OPS]
    + [(engine, fn, f"batchnorm.{fn}")
       for fn in ("bn_forward_train", "bn_backward_train", "bn_forward_infer")]
    + [(engine, fn, f"quantization.{fn}")
       for fn in ("quantize", "quantize_backward", "weight_range_cfg", "update_activation_range")]
    + [(engine, fn, f"engine.{fn}")
       for fn in ("forward_graph", "backward_graph", "run_inference", "loss_and_grads")]
    + [
        (training, "loss_and_grads", "engine.loss_and_grads"),
        (training, "evaluate", "training.evaluate"),
        (training, "sgd_step", "training.sgd_step"),
        (training, "train_epochs", "training.train_epochs"),
        (training, "copy_graph", "graph.copy_graph"),
        (graph, "copy_graph", "graph.copy_graph"),
        (pruning, "copy_graph", "graph.copy_graph"),
        (graph, "fold_bn_graph", "graph.fold_bn_graph"),
        (graph, "save_model", "graph.save_model"),
        (pruning, "apply_pfq", "pruning.apply_pfq"),
        (workflow, "apply_pfq", "pruning.apply_pfq"),
        (workflow, "fold_bn_graph", "graph.fold_bn_graph"),
        (workflow, "insert_quant_points", "quantization.insert_quant_points"),
        (workflow, "train_epochs", "training.train_epochs"),
        (workflow, "save_model", "graph.save_model"),
        (workflow, "run_workflow", "workflow.run_workflow"),
    ]
)


class Tracer:
    """Records spans while installed; install and restore may repeat."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, _WORK.get(name)))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _stage_seconds(spans, children):
    """Seconds per workflow stage, summed over completed run_workflow spans.
    Stage 0 starts with run_workflow; stages 1-4 start at the first call,
    in order, of insert_quant_points, apply_pfq, fold_bn_graph and
    train_epochs; stage 4 ends with run_workflow."""
    openers = ("quantization.insert_quant_points", "pruning.apply_pfq",
               "graph.fold_bn_graph", "training.train_epochs")
    totals = [0.0] * 5
    for i, span in enumerate(spans):
        if span[0] != "workflow.run_workflow":
            continue
        names = iter((spans[c][0], spans[c][1]) for c in children[i])
        bounds = [span[1]]
        for opener in openers:
            bounds.append(next((start for name, start in names if name == opener), None))
        if None in bounds:  # the call raised before reaching stage 4
            continue
        bounds.append(span[2])
        for k in range(5):
            totals[k] += bounds[k + 1] - bounds[k]
    return totals


_UNITS = ((".ms", "ms"), (".self_ms", "ms"), (".calls", "count"), (".gmac_s", "GMAC/s"),
          (".bytes", "bytes"), ("channels_pruned", "count"), ("channels_skipped", "count"),
          ("_s", "s"), ("_frac", "fraction"))


def unit_of(name):
    return next(unit for suffix, unit in _UNITS if name.endswith(suffix))


def layer_metrics(spans, units):
    """Per-layer figures per traced unit of work: `.ms` is the time inside
    the call, `.self_ms` excludes time inside traced callees."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    work = defaultdict(lambda: 0)
    pruned = skipped = 0
    for i, (name, start, end, _, w) in enumerate(spans):
        dur = end - start
        incl[name] += dur
        own[name] += dur - sum(spans[c][2] - spans[c][1] for c in children[i])
        calls[name] += 1
        if w is None:  # no work hook, or the call raised
            continue
        if name == "pruning.apply_pfq":
            pruned += w[0]
            skipped += w[1]
        else:
            work[name] += w

    def ms(*names):
        return 1e3 * sum(incl[n] for n in names) / units

    def gmac_s(name):
        return work[name] / incl[name] / 1e9 if incl[name] else 0.0

    t = "tensor_ops."
    out = {
        "tensor_ops.conv2d_forward.ms": ms(t + "conv2d_forward"),
        "tensor_ops.conv2d_backward.ms": ms(t + "conv2d_backward"),
        "tensor_ops.depthwise_conv2d_forward.ms": ms(t + "depthwise_conv2d_forward"),
        "tensor_ops.depthwise_conv2d_backward.ms": ms(t + "depthwise_conv2d_backward"),
        "tensor_ops.affine.ms": ms(t + "affine_forward", t + "affine_backward"),
        "tensor_ops.activation.ms": ms(t + "relu_forward", t + "relu_backward",
                                       t + "relu6_forward", t + "relu6_backward"),
        "tensor_ops.pool_loss.ms": ms(t + "global_avg_pool_forward", t + "global_avg_pool_backward",
                                      t + "softmax_cross_entropy"),
        "tensor_ops.calls": sum(calls[t + op] for op in _TENSOR_OPS) / units,
        "tensor_ops.conv.gmac_s": gmac_s(t + "conv2d_forward"),
        "tensor_ops.depthwise.gmac_s": gmac_s(t + "depthwise_conv2d_forward"),
    }
    for fn in ("bn_forward_train", "bn_backward_train", "bn_forward_infer"):
        out[f"batchnorm.{fn}.ms"] = ms(f"batchnorm.{fn}")
    for fn in ("quantize", "quantize_backward", "weight_range_cfg", "update_activation_range"):
        out[f"quantization.{fn}.ms"] = ms(f"quantization.{fn}")
    out["quantization.quantize.calls"] = calls["quantization.quantize"] / units
    for fn in ("forward_graph", "backward_graph"):
        out[f"engine.{fn}.self_ms"] = 1e3 * own[f"engine.{fn}"] / units
    out["training.sgd_step.ms"] = ms("training.sgd_step")
    out["training.evaluate.ms"] = ms("training.evaluate")
    out["training.train_epochs.self_ms"] = 1e3 * own["training.train_epochs"] / units
    for fn in ("copy_graph", "fold_bn_graph", "save_model"):
        out[f"graph.{fn}.ms"] = ms(f"graph.{fn}")
    out["graph.save_model.bytes"] = work["graph.save_model"] / units
    out["pruning.apply_pfq.ms"] = ms("pruning.apply_pfq")
    out["pruning.channels_pruned"] = pruned / units
    out["pruning.channels_skipped"] = skipped / units
    for k, seconds in enumerate(_stage_seconds(spans, children)):
        out[f"workflow.stage{k}_s"] = seconds / units
    return out
