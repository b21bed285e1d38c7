"""Momentum SGD training loop with a warmup/cosine learning-rate schedule.

The schedule is deliberately literal: below the warmup horizon the rate
ramps linearly from zero, and from the warmup epoch on it follows
base * (1 + cos((e - w) / period * pi)), which peaks at twice the base rate
at e == w and reaches zero at e == w + period. Weight decay applies to conv,
depthwise conv, and affine weights only; biases and BN scale/shift are never
decayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import iter_batches
from .engine import evaluate, loss_and_grads
from .graph import CONV_LIKE, copy_graph


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LRSchedule:
    base_lr: float
    warmup_epochs: int = 0
    period: int = 1


def lr_at(schedule, epoch):
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    w = schedule.warmup_epochs
    if epoch < w:
        return schedule.base_lr * epoch / w
    return schedule.base_lr * (1.0 + math.cos((epoch - w) / schedule.period * math.pi))


@dataclass
class OptimizerState:
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocities: dict = field(default_factory=dict)
    iteration: int = 0


_DECAYED = {(kind, "weights") for kind in CONV_LIKE}


def sgd_step(graph, param_grads, state, lr):
    """v <- momentum * v + grad (+ decay * param for decayed params);
    param <- param - lr * v. Mutates the graph and the state."""
    for layer in graph.layers:
        grads = param_grads.get(layer.name)
        if not grads:
            continue
        for fieldname, g in grads.items():
            param = getattr(layer.params, fieldname)
            if state.weight_decay and (layer.kind, fieldname) in _DECAYED:
                g = g + state.weight_decay * param
            key = f"{layer.name}.{fieldname}"
            v = state.velocities.get(key)
            v = g if v is None else state.momentum * v + g
            state.velocities[key] = v
            setattr(layer.params, fieldname, (param - lr * v).astype(param.dtype, copy=False))
    state.iteration += 1


@dataclass
class EarlyStopPolicy:
    """mode "fixed_epochs" runs the full budget. Mode "accuracy_drop" stops at
    the first epoch whose validation accuracy is at least
    reference_accuracy - drop_threshold, both as fractions in [0, 1]."""

    mode: str = "fixed_epochs"
    drop_threshold: float = 0.005
    reference_accuracy: float | None = None


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_acc: float | None
    test_acc: float | None


def metrics_to_csv(metrics, path):
    lines = ["epoch,lr,train_loss,val_acc,test_acc"]
    for m in metrics:
        val = "" if m.val_acc is None else repr(m.val_acc)
        test = "" if m.test_acc is None else repr(m.test_acc)
        lines.append(f"{m.epoch},{m.lr!r},{m.train_loss!r},{val},{test}")
    Path(path).write_text("\n".join(lines) + "\n")


def train_epochs(graph, data, schedule, optimizer, *, epochs, batch_size=16, seed=0,
                 stop=None, update_ranges=True, range_update_epochs=None,
                 bn_stats_log=None):
    """Train a copy of the graph for up to `epochs` epochs.

    data is a DataBundle; batches are drawn from its train split in a
    seed-derived order that changes each epoch. update_ranges controls
    whether enabled activation quant points fold observations into their EMA;
    range_update_epochs limits that to the first k epochs. bn_stats_log, if
    given, collects (layer, BatchStats) tuples for every BN update so the
    running-statistic recurrences can be replayed externally.

    Returns (trained graph, list of EpochMetrics).
    """
    g = copy_graph(graph)
    if any(l.weight_quant is not None and l.weight_quant.enabled for l in g.layers) and any(
        l.kind == "bn" for l in g.layers
    ):
        raise ValueError("weight quantization requires a folded graph (BN layers still present)")
    if stop is not None and stop.mode not in ("fixed_epochs", "accuracy_drop"):
        raise ValueError(f"unknown early stop mode {stop.mode!r}; "
                         "expected 'fixed_epochs' or 'accuracy_drop'")
    if stop is not None and stop.mode == "accuracy_drop":
        if stop.reference_accuracy is None:
            raise ValueError("accuracy_drop early stop needs a reference_accuracy")
        if data.val_images is None or len(data.val_images) == 0:
            raise ValueError("accuracy_drop early stop needs a validation split")

    metrics = []
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch)
        ranges_on = update_ranges and (range_update_epochs is None or epoch < range_update_epochs)
        losses = []
        order_rng = np.random.default_rng((seed, epoch))
        for bx, by in iter_batches(data.train_images, data.train_labels, batch_size, order_rng):
            loss, _, grads, stats = loss_and_grads(g, bx, by, update_ranges=ranges_on)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, iteration {optimizer.iteration}"
                )
            if bn_stats_log is not None:
                for name, s in stats.items():
                    bn_stats_log.append((name, s))
            sgd_step(g, grads, optimizer, lr)
            losses.append(float(loss))

        val_acc = None
        if data.val_images is not None and len(data.val_images):
            val_acc = evaluate(g, data.val_images, data.val_labels)
        test_acc = None
        if data.test_images is not None and len(data.test_images):
            test_acc = evaluate(g, data.test_images, data.test_labels)
        metrics.append(EpochMetrics(epoch=epoch, lr=lr,
                                    train_loss=float(np.mean(losses)) if losses else 0.0,
                                    val_acc=val_acc, test_acc=test_acc))
        if (stop is not None and stop.mode == "accuracy_drop"
                and val_acc is not None
                and val_acc >= stop.reference_accuracy - stop.drop_threshold):
            break
    return g, metrics
