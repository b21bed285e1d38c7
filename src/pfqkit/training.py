"""Momentum SGD training loop with a warmup/cosine learning-rate schedule.

The schedule is deliberately literal: below the warmup horizon the rate
ramps linearly from zero, and from the warmup epoch on it follows
base * (1 + cos((e - w) / period * pi)), which peaks at twice the base rate
at e == w and reaches zero at e == w + period. Weight decay applies to conv,
depthwise conv, and affine weights only; biases and BN scale/shift are never
decayed. Early stopping has one rule (EarlyStopPolicy): stop once the
validation accuracy is within drop_threshold of a reference accuracy.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .data import iter_batches
from .engine import evaluate, loss_and_grads
from .graph import CONV_LIKE, _real, copy_graph, write_csv


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
    """Stop at the first epoch whose validation accuracy, a fraction in
    [0, 1], is at least reference_accuracy - drop_threshold; a bar above 1
    never stops. Training without a policy runs its full epoch budget. A
    field that is not a finite real number (a bool is not) raises
    ValueError naming it."""

    reference_accuracy: float
    drop_threshold: float = 0.005

    def __post_init__(self):
        for name in ("reference_accuracy", "drop_threshold"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value)):
                raise ValueError(f"EarlyStopPolicy: {name} must be a finite real number, "
                                 f"got {value!r}")


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_acc: float | None
    test_acc: float | None


def metrics_to_csv(metrics, path):
    write_csv([("epoch", "lr", "train_loss", "val_acc", "test_acc"), *map(astuple, metrics)],
              path)


def train_epochs(graph, data, schedule, optimizer, *, epochs, batch_size=16, seed=0,
                 stop=None, range_update_epochs=None):
    """Train a copy of the graph for up to `epochs` epochs.

    data is a DataBundle; batches are drawn from its train split in a
    seed-derived order that changes each epoch. Enabled activation quant
    points fold each batch's observed range into their EMA, in the first
    range_update_epochs epochs only when that is given. stop, an
    EarlyStopPolicy, ends training at the first epoch that meets it.

    Raises ValueError before the first step, naming the argument, on
    epochs < 0, batch_size < 1, a schedule period <= 0, an empty train split
    when epochs > 0, a stop policy without a validation split, and enabled
    weight points on a graph that still has BN layers. epochs == 0 trains
    nothing and returns a copy of the graph with no metrics.

    Returns (trained graph, list of EpochMetrics).
    """
    if epochs < 0:
        raise ValueError(f"train_epochs: epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"train_epochs: batch_size must be >= 1, got {batch_size}")
    if not schedule.period > 0:
        raise ValueError(f"train_epochs: schedule period must be > 0, got {schedule.period}")
    if epochs and len(data.train_images) == 0:
        raise ValueError("train_epochs: the train split is empty")
    if stop is not None and (data.val_images is None or len(data.val_images) == 0):
        raise ValueError("train_epochs: early stop needs a validation split")
    if any(l.weight_quant is not None and l.weight_quant.enabled for l in graph.layers) and any(
        l.kind == "bn" for l in graph.layers
    ):
        raise ValueError("weight quantization requires a folded graph (BN layers still present)")
    g = copy_graph(graph)

    metrics = []
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch)
        ranges_on = range_update_epochs is None or epoch < range_update_epochs
        losses = []
        order_rng = np.random.default_rng((seed, epoch))
        for bx, by in iter_batches(data.train_images, data.train_labels, batch_size, order_rng):
            loss, _, grads, _ = loss_and_grads(g, bx, by, update_ranges=ranges_on)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, iteration {optimizer.iteration}"
                )
            sgd_step(g, grads, optimizer, lr)
            losses.append(float(loss))

        val_acc = None
        if data.val_images is not None and len(data.val_images):
            val_acc = evaluate(g, data.val_images, data.val_labels)
        test_acc = None
        if data.test_images is not None and len(data.test_images):
            test_acc = evaluate(g, data.test_images, data.test_labels)
        metrics.append(EpochMetrics(epoch=epoch, lr=lr, train_loss=float(np.mean(losses)),
                                    val_acc=val_acc, test_acc=test_acc))
        if stop is not None and val_acc >= stop.reference_accuracy - stop.drop_threshold:
            break
    return g, metrics
