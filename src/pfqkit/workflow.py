"""The staged compression workflow.

Order of operations on a pre-trained float model:

0. prune constant channels (exact compensation),
1. insert quantization points and fine-tune with quantized activations,
   BN still live on batch statistics,
2. prune again: fine-tuning can park additional channels, and the
   compensation constants now pass through the trained activation
   quantizers,
3. fold BN into the convolutions,
4. enable weight quantization and fine-tune; activation ranges take one
   more epoch of EMA updates on the folded graph, then stay frozen.

The single-stage baseline does one prune, folds, and trains with both
quantizers at once for the combined epoch budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .graph import fold_bn_graph, save_model
from .pruning import apply_pfq
from .quantization import insert_quant_points, set_quant_enabled
from .training import EarlyStopPolicy, LRSchedule, OptimizerState, metrics_to_csv, train_epochs


class WorkflowError(ValueError):
    pass


@dataclass
class WorkflowConfig:
    epochs_act: int
    epochs_weight: int
    act_bits: int = 4
    weight_bits: int = 4
    epsilon: float = 1e-5
    ema_momentum: float = 0.99
    batch_size: int = 16
    seed: int = 0
    act_schedule: LRSchedule = field(default_factory=lambda: LRSchedule(0.001, 0, 10))
    weight_schedule: LRSchedule = field(default_factory=lambda: LRSchedule(0.001, 0, 10))
    act_momentum: float = 0.9
    weight_momentum: float = 0.0
    weight_decay: float = 0.0
    stop_act: EarlyStopPolicy | None = None
    stop_weight: EarlyStopPolicy | None = None


@dataclass
class WorkflowResult:
    graph: object
    prune_first: object
    prune_second: object
    metrics_act: list
    metrics_weight: list
    trace: list


def _persist(out_dir, subdir, graph, *, prune_report=None, metrics=None):
    """Save a stage's artifacts in out_dir/subdir ("" for out_dir itself);
    nothing is written without an out_dir."""
    if out_dir is None:
        return
    stage_dir = Path(out_dir) / subdir
    stage_dir.mkdir(parents=True, exist_ok=True)
    save_model(graph, stage_dir / "model.json")
    if prune_report is not None:
        prune_report.to_csv(stage_dir / "prune_report.csv")
    if metrics is not None:
        metrics_to_csv(metrics, stage_dir / "metrics.csv")


def run_workflow(graph, data, cfg, out_dir=None):
    """Run the five stages on a pre-trained float graph with BN layers.

    Persists stage artifacts under out_dir when given (stage0..stage4 plus
    workflow.log). Returns a WorkflowResult whose trace lists one line per
    stage."""
    if not any(l.kind == "bn" for l in graph.layers):
        raise WorkflowError("workflow needs a pre-trained graph with BN layers")
    trace = []

    g, prune_first = apply_pfq(graph, cfg.epsilon, quantize_act_of_beta=False)
    trace.append(f"stage0 pfq: {prune_first.summary()}")
    _persist(out_dir, "stage0", g, prune_report=prune_first)

    g = insert_quant_points(g, cfg.act_bits, cfg.weight_bits,
                            ema_momentum=cfg.ema_momentum,
                            act_enabled=True, weight_enabled=False)
    opt = OptimizerState(momentum=cfg.act_momentum, weight_decay=cfg.weight_decay)
    g, metrics_act = train_epochs(
        g, data, cfg.act_schedule, opt,
        epochs=cfg.epochs_act, batch_size=cfg.batch_size, seed=cfg.seed,
        stop=cfg.stop_act, update_ranges=True,
    )
    trace.append(f"stage1 finetune-activations: epochs={len(metrics_act)}")
    _persist(out_dir, "stage1", g, metrics=metrics_act)

    g, prune_second = apply_pfq(g, cfg.epsilon, quantize_act_of_beta=True)
    trace.append(f"stage2 pfq: {prune_second.summary()}")
    _persist(out_dir, "stage2", g, prune_report=prune_second)

    g = fold_bn_graph(g)
    remaining = sum(1 for l in g.layers if l.kind == "bn")
    if remaining:
        raise WorkflowError(f"{remaining} BN layers survived folding")
    trace.append("stage3 fold-bn: remaining_bn=0")
    _persist(out_dir, "stage3", g)

    # A zero weight budget skips the whole stage, enabling included, so the
    # degenerate workflow stays functionally equal to prune + prune + fold.
    if cfg.epochs_weight > 0:
        set_quant_enabled(g, weights=True)
    opt = OptimizerState(momentum=cfg.weight_momentum, weight_decay=cfg.weight_decay)
    g, metrics_weight = train_epochs(
        g, data, cfg.weight_schedule, opt,
        epochs=cfg.epochs_weight, batch_size=cfg.batch_size, seed=cfg.seed + 1,
        stop=cfg.stop_weight, update_ranges=True, range_update_epochs=1,
    )
    trace.append(f"stage4 finetune-weights: epochs={len(metrics_weight)}")
    _persist(out_dir, "stage4", g, metrics=metrics_weight)

    if out_dir is not None:
        (Path(out_dir) / "workflow.log").write_text("\n".join(trace) + "\n")
    return WorkflowResult(graph=g, prune_first=prune_first, prune_second=prune_second,
                          metrics_act=metrics_act, metrics_weight=metrics_weight, trace=trace)


def run_single_stage_baseline(graph, data, cfg, out_dir=None):
    """Ablation baseline: prune once, fold, then train with activation and
    weight quantization together for the combined budget."""
    if not any(l.kind == "bn" for l in graph.layers):
        raise WorkflowError("baseline needs a pre-trained graph with BN layers")
    trace = []

    g, prune_report = apply_pfq(graph, cfg.epsilon, quantize_act_of_beta=False)
    trace.append(f"baseline pfq: {prune_report.summary()}")
    g = fold_bn_graph(g)
    trace.append("baseline fold-bn: remaining_bn=0")
    total_epochs = cfg.epochs_act + cfg.epochs_weight
    g = insert_quant_points(g, cfg.act_bits, cfg.weight_bits,
                            ema_momentum=cfg.ema_momentum,
                            act_enabled=True, weight_enabled=total_epochs > 0)
    opt = OptimizerState(momentum=cfg.act_momentum, weight_decay=cfg.weight_decay)
    g, metrics = train_epochs(
        g, data, cfg.act_schedule, opt,
        epochs=total_epochs, batch_size=cfg.batch_size,
        seed=cfg.seed, stop=cfg.stop_act, update_ranges=True,
    )
    trace.append(f"baseline finetune: epochs={len(metrics)}")

    _persist(out_dir, "", g, prune_report=prune_report, metrics=metrics)
    if out_dir is not None:
        (Path(out_dir) / "workflow.log").write_text("\n".join(trace) + "\n")
    return WorkflowResult(graph=g, prune_first=prune_report, prune_second=None,
                          metrics_act=metrics, metrics_weight=[], trace=trace)
