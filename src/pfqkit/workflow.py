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
from .quantization import check_weight_ranges, enable_weight_points, insert_quant_points
from .training import EarlyStopPolicy, LRSchedule, OptimizerState, metrics_to_csv, train_epochs


class WorkflowError(ValueError):
    pass


@dataclass
class WorkflowConfig:
    """Every knob of both runs, with its one default; the CLI's workflow keys
    fill only the fields a config sets. stop, when given, ends each tuning
    phase at its first epoch that meets it: stages 1 and 4 of run_workflow
    and the single phase of run_single_stage_baseline."""

    epochs_act: int = 2
    epochs_weight: int = 2
    act_bits: int = 4
    weight_bits: int = 4
    epsilon: float = 1e-5
    ema_momentum: float = 0.99
    batch_size: int = 16
    seed: int = 0
    act_schedule: LRSchedule = field(default_factory=lambda: LRSchedule(0.001, 0, 2))
    weight_schedule: LRSchedule = field(default_factory=lambda: LRSchedule(0.0005, 0, 2))
    act_momentum: float = 0.9
    weight_momentum: float = 0.0
    weight_decay: float = 0.0
    stop: EarlyStopPolicy | None = None


@dataclass
class WorkflowResult:
    graph: object
    prune_first: object
    prune_second: object
    metrics_act: list
    metrics_weight: list
    trace: list


def save_run(out_dir, graph, subdir="", *, prune_report=None, metrics=None):
    """Write a run directory, out_dir/subdir: model.json and model.bin, plus
    prune_report.csv and metrics.csv when given. The CLI's subcommands and
    every stage write their artifacts here; nothing is written without an
    out_dir."""
    if out_dir is None:
        return
    stage_dir = Path(out_dir) / subdir
    stage_dir.mkdir(parents=True, exist_ok=True)
    save_model(graph, stage_dir / "model.json")
    if prune_report is not None:
        prune_report.to_csv(stage_dir / "prune_report.csv")
    if metrics is not None:
        metrics_to_csv(metrics, stage_dir / "metrics.csv")


def _require_bn(graph, run):
    if not any(l.kind == "bn" for l in graph.layers):
        raise WorkflowError(f"{run} needs a pre-trained graph with BN layers")


def _annotate(g, cfg, weight_enabled):
    return insert_quant_points(g, cfg.act_bits, cfg.weight_bits, ema_momentum=cfg.ema_momentum,
                               act_enabled=True, weight_enabled=weight_enabled)


def _finetune(g, data, cfg, schedule, momentum, epochs, seed, range_update_epochs=None):
    """One tuning phase: a fresh optimizer, the config's batch size, weight
    decay and stop. Returns (graph, metrics)."""
    opt = OptimizerState(momentum=momentum, weight_decay=cfg.weight_decay)
    return train_epochs(g, data, schedule, opt, epochs=epochs, batch_size=cfg.batch_size,
                        seed=seed, stop=cfg.stop, range_update_epochs=range_update_epochs)


def _write_log(out_dir, trace):
    if out_dir is not None:
        (Path(out_dir) / "workflow.log").write_text("\n".join(trace) + "\n")


def run_workflow(graph, data, cfg, out_dir=None):
    """Run the five stages on a pre-trained float graph with BN layers.

    Persists stage artifacts under out_dir when given (stage0..stage4 plus
    workflow.log). Returns a WorkflowResult whose trace lists one line per
    stage."""
    _require_bn(graph, "workflow")
    trace = []

    g, prune_first = apply_pfq(graph, cfg.epsilon)
    trace.append(f"stage0 pfq: {prune_first.summary()}")
    save_run(out_dir, g, "stage0", prune_report=prune_first)

    g = _annotate(g, cfg, weight_enabled=False)
    g, metrics_act = _finetune(g, data, cfg, cfg.act_schedule, cfg.act_momentum,
                               cfg.epochs_act, cfg.seed)
    trace.append(f"stage1 finetune-activations: epochs={len(metrics_act)}")
    save_run(out_dir, g, "stage1", metrics=metrics_act)

    g, prune_second = apply_pfq(g, cfg.epsilon)
    trace.append(f"stage2 pfq: {prune_second.summary()}")
    save_run(out_dir, g, "stage2", prune_report=prune_second)

    g = fold_bn_graph(g)
    trace.append("stage3 fold-bn: remaining_bn=0")
    save_run(out_dir, g, "stage3")

    # A zero weight budget skips the whole stage, enabling included, so the
    # degenerate workflow stays functionally equal to prune + prune + fold.
    if cfg.epochs_weight > 0:
        enable_weight_points(g)
        check_weight_ranges(g)
    g, metrics_weight = _finetune(g, data, cfg, cfg.weight_schedule, cfg.weight_momentum,
                                  cfg.epochs_weight, cfg.seed + 1, range_update_epochs=1)
    trace.append(f"stage4 finetune-weights: epochs={len(metrics_weight)}")
    save_run(out_dir, g, "stage4", metrics=metrics_weight)

    _write_log(out_dir, trace)
    return WorkflowResult(graph=g, prune_first=prune_first, prune_second=prune_second,
                          metrics_act=metrics_act, metrics_weight=metrics_weight, trace=trace)


def run_single_stage_baseline(graph, data, cfg, out_dir=None):
    """Ablation baseline: prune once, fold, then train with activation and
    weight quantization together for the combined budget."""
    _require_bn(graph, "baseline")
    trace = []

    g, prune_report = apply_pfq(graph, cfg.epsilon)
    trace.append(f"baseline pfq: {prune_report.summary()}")
    g = fold_bn_graph(g)
    trace.append("baseline fold-bn: remaining_bn=0")
    total_epochs = cfg.epochs_act + cfg.epochs_weight
    g = _annotate(g, cfg, weight_enabled=total_epochs > 0)
    check_weight_ranges(g)
    g, metrics = _finetune(g, data, cfg, cfg.act_schedule, cfg.act_momentum,
                           total_epochs, cfg.seed)
    trace.append(f"baseline finetune: epochs={len(metrics)}")

    save_run(out_dir, g, prune_report=prune_report, metrics=metrics)
    _write_log(out_dir, trace)
    return WorkflowResult(graph=g, prune_first=prune_report, prune_second=None,
                          metrics_act=metrics, metrics_weight=[], trace=trace)
