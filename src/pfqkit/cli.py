"""Command-line interface.

Every subcommand maps to one library operation. Configuration lives in a
JSON file validated against a closed schema (unknown keys are rejected);
individual keys can be overridden with repeated --set dotted.path=value
flags, the one way to change a config key from the command line. The
remaining flags are settings with no config key: paths, --threads,
finetune --enable-weight-quant and report-constancy --batch. Failures print
exactly one `error: ...` line to stderr and exit nonzero. Heavy imports
happen after argument parsing so that --threads can cap the BLAS thread
pools before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path


class ConfigError(ValueError):
    pass


# A section means EarlyStopPolicy: reference_accuracy is required.
_EARLY_STOP = {"reference_accuracy": float, "drop_threshold": float}

# Every config key, once. A leaf holds the key's default, and the key's type is
# the default's type. A leaf that is a type has no default here: the arch keys
# fall back to the data section, the seed or the builder's defaults, an absent
# early_stop means none, and the workflow keys fall back to WorkflowConfig's
# defaults.
_CONFIG = {
    "seed": 0,
    "data": {"kind": "synthetic", "class_count": 4, "per_class": 40, "test_per_class": 10,
             "shape": [3, 8, 8], "noise": 0.05, "seed": 0, "variant": 10,
             "train_files": [], "test_files": []},
    "split": {"per_class": 5, "seed": 0},
    "arch": {"name": "small_convnet", "input_shape": list, "class_count": int, "width": int,
             "blocks": int, "seed": int, "dead_stem_filters": int, "bn_epsilon": float,
             "bn_rho": float},
    "train": {"epochs": 4, "batch_size": 16, "base_lr": 0.01, "warmup_epochs": 0,
              "period": 4, "momentum": 0.9, "weight_decay": 0.0, "early_stop": _EARLY_STOP},
    "quant": {"act_bits": 4, "weight_bits": 4, "ema_momentum": 0.99},
    "pfq": {"epsilon": 1e-5},
    "workflow": {"epochs_act": int, "epochs_weight": int, "act_lr": float, "weight_lr": float,
                 "act_warmup": int, "weight_warmup": int, "act_period": int,
                 "weight_period": int, "act_momentum": float, "weight_momentum": float,
                 "weight_decay": float, "early_stop": _EARLY_STOP},
}


def _resolve(value, spec, path):
    """value checked against spec, with every default that value leaves out
    filled in. A dict in spec is a section; any other leaf is the key's
    default, or its type when it has none."""
    if not isinstance(spec, dict):
        kind = spec if isinstance(spec, type) else type(spec)
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ConfigError(f"config: '{path}' must be {kind.__name__}, got {type(value).__name__}")
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"config: '{path}' must be a mapping")
    out = {key: _resolve({}, leaf, key) if isinstance(leaf, dict) else leaf
           for key, leaf in spec.items() if not isinstance(leaf, type)}
    for key, sub in value.items():
        where = f"{path}.{key}" if path else key
        if key not in spec:
            raise ConfigError(f"config: unknown key '{where}'")
        out[key] = _resolve(sub, spec[key], where)
    return out


def load_config(path=None, overrides=()):
    """Read, override, and validate a run configuration."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.key=value, got '{item}'")
        dotted, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config: cannot override through non-mapping '{dotted}'")
        node[keys[-1]] = value
    return _resolve(raw, _CONFIG, "")


def _build_data(cfg):
    from .data import bundle_from_datasets, load_cifar_binary, make_synthetic, split_validation

    d = cfg["data"]
    if d["kind"] == "synthetic":
        total = d["per_class"] + d["test_per_class"]
        full = make_synthetic(d["class_count"], total, tuple(d["shape"]),
                              seed=d["seed"], noise=d["noise"])
        pool, test = split_validation(full, d["test_per_class"], seed=d["seed"] + 1)
        train, val = split_validation(pool, cfg["split"]["per_class"], seed=cfg["split"]["seed"])
        return bundle_from_datasets(train, val, test)
    if d["kind"] == "cifar":
        import numpy as np

        from .data import Dataset

        def load_files(paths):
            parts = [load_cifar_binary(p, d["variant"]) for p in paths]
            return Dataset(images=np.concatenate([p.images for p in parts]),
                           labels=np.concatenate([p.labels for p in parts]),
                           class_count=d["variant"])

        if not d["train_files"]:
            raise ConfigError("config: data.train_files is empty")
        full = load_files(d["train_files"])
        test = load_files(d["test_files"]) if d["test_files"] else None
        train, val = split_validation(full, cfg["split"]["per_class"], seed=cfg["split"]["seed"])
        return bundle_from_datasets(train, val, test)
    raise ConfigError(f"config: unknown data.kind '{d['kind']}'")


def _early_stop(cfg, section):
    """The EarlyStopPolicy of cfg[section]["early_stop"], or None for an
    empty or absent one."""
    spec = cfg[section]["early_stop"]
    if not spec:
        return None
    if "reference_accuracy" not in spec:
        raise ConfigError(f"config: '{section}.early_stop' needs reference_accuracy")
    from .training import EarlyStopPolicy
    return EarlyStopPolicy(**spec)  # the schema admits exactly its fields


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_and_save(args, cfg, graph, data):
    """Train with the config's train section, then save the run directory
    (model and metrics.csv) under --out. Returns the epoch metrics."""
    from .training import LRSchedule, OptimizerState, train_epochs
    from .workflow import save_run

    t = cfg["train"]
    schedule = LRSchedule(t["base_lr"], t["warmup_epochs"], t["period"])
    opt = OptimizerState(momentum=t["momentum"], weight_decay=t["weight_decay"])
    graph, metrics = train_epochs(graph, data, schedule, opt, epochs=t["epochs"],
                                  batch_size=t["batch_size"], seed=cfg["seed"],
                                  stop=_early_stop(cfg, "train"))
    save_run(args.out, graph, metrics=metrics)
    return metrics


def cmd_train(args, cfg, graph):
    from .models import build

    data = _build_data(cfg)
    arch = dict(cfg["arch"])
    arch.setdefault("class_count", cfg["data"]["class_count"])
    arch["input_shape"] = tuple(arch.get("input_shape", cfg["data"]["shape"]))
    arch.setdefault("seed", cfg["seed"])
    metrics = _train_and_save(args, cfg, build(arch), data)
    if metrics and metrics[-1].test_acc is not None:
        print(f"test_acc={metrics[-1].test_acc!r}")
    return 0


def cmd_pfq(args, cfg, graph):
    from .pruning import apply_pfq
    from .workflow import save_run

    graph, report = apply_pfq(graph, cfg["pfq"]["epsilon"])
    save_run(args.out, graph, prune_report=report)
    print(report.summary())
    return 0


def cmd_fold_bn(args, cfg, graph):
    from .graph import fold_bn_graph
    from .workflow import save_run

    save_run(args.out, fold_bn_graph(graph))
    print("folded")
    return 0


def cmd_quantize_annotate(args, cfg, graph):
    from .quantization import insert_quant_points
    from .workflow import save_run

    q = cfg["quant"]
    graph = insert_quant_points(graph, q["act_bits"], q["weight_bits"],
                                ema_momentum=q["ema_momentum"])
    save_run(args.out, graph)
    acts = sum(1 for l in graph.layers if l.kind == "quant_point")
    weights = sum(1 for l in graph.layers if l.weight_quant is not None)
    print(f"activation_points={acts} weight_points={weights}")
    return 0


def cmd_finetune(args, cfg, graph):
    from .quantization import enable_weight_points

    data = _build_data(cfg)
    if args.enable_weight_quant:
        enable_weight_points(graph)
    metrics = _train_and_save(args, cfg, graph, data)
    print(f"epochs={len(metrics)}")
    return 0


_SCHEDULE_KEYS = (("lr", "base_lr"), ("warmup", "warmup_epochs"), ("period", "period"))


def cmd_stages(args, cfg, graph):
    """`workflow` and `baseline-once`: run args.stages (run_workflow or
    run_single_stage_baseline) on --model. The WorkflowConfig takes the
    quant, pfq, batch size and seed keys, and the workflow keys the config
    sets; every workflow key it leaves out keeps WorkflowConfig's default."""
    from . import workflow

    data = _build_data(cfg)
    w, q = cfg["workflow"], cfg["quant"]
    wcfg = workflow.WorkflowConfig(
        act_bits=q["act_bits"], weight_bits=q["weight_bits"], ema_momentum=q["ema_momentum"],
        epsilon=cfg["pfq"]["epsilon"], batch_size=cfg["train"]["batch_size"], seed=cfg["seed"],
        stop=_early_stop(cfg, "workflow"),
        **{key: w[key] for key in ("epochs_act", "epochs_weight", "act_momentum",
                                   "weight_momentum", "weight_decay") if key in w},
    )
    for stage in ("act", "weight"):
        schedule = getattr(wcfg, f"{stage}_schedule")  # this config's own instance
        for key, field in _SCHEDULE_KEYS:
            if f"{stage}_{key}" in w:
                setattr(schedule, field, w[f"{stage}_{key}"])
    result = getattr(workflow, args.stages)(graph, data, wcfg, out_dir=args.out)
    for line in result.trace:
        print(line)
    return 0


def cmd_eval(args, cfg, graph):
    from .engine import evaluate

    data = _build_data(cfg)
    for images, labels in ((data.test_images, data.test_labels),
                           (data.val_images, data.val_labels)):
        if images is not None and len(images):
            print(f"accuracy={evaluate(graph, images, labels)!r}")
            return 0
    raise ConfigError("no test or validation split to evaluate on")


def cmd_report_range(args, cfg, graph):
    from .graph import dynamic_range_report, range_report_to_csv, write_csv

    rows = dynamic_range_report(graph)
    if args.out:
        range_report_to_csv(rows, _out_dir(args) / "range.csv")
    write_csv(map(astuple, rows))
    return 0


def cmd_report_constancy(args, cfg, graph):
    from .graph import write_csv
    from .pruning import channel_constancy_report, constancy_report_to_csv

    data = _build_data(cfg)
    rows = channel_constancy_report(graph, data.train_images[:args.batch])
    if args.out:
        constancy_report_to_csv(rows, _out_dir(args) / "constancy.csv")
    write_csv(map(astuple, rows))
    return 0


def cmd_count_macs(args, cfg, graph):
    from .graph import count_macs, macs_to_csv

    macs = count_macs(graph)
    if args.out:
        macs_to_csv(macs, _out_dir(args) / "macs.csv")
    print(sum(macs.values()))
    return 0


def _count(text):
    """argparse type of a count of images: an integer of at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got '{text}'")
    return int(text)


def _add_common(p, *, config=True, model=False, out=False):
    p.add_argument("--threads", type=int, default=None,
                   help="cap BLAS thread pools (set before numpy loads); run_inference's "
                        "threads follow the CPUs the process may use (taskset), so "
                        "inference on more than one CPU wants --threads 1")
    if config:
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")
    if model:
        p.add_argument("--model", required=True, help="model manifest to load")
    if out:
        p.add_argument("--out", required=True, help="run directory for outputs")


def build_parser():
    parser = argparse.ArgumentParser(prog="pfqkit",
                                     description="channel pruning and quantization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="pre-train a float model from config")
    _add_common(p, out=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pfq", help="prune constant channels with compensation")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_pfq)

    p = sub.add_parser("fold-bn", help="fold BN layers into their convolutions")
    _add_common(p, config=False, model=True, out=True)
    p.set_defaults(func=cmd_fold_bn)

    p = sub.add_parser("quantize-annotate", help="insert quantization points")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_quantize_annotate)

    p = sub.add_parser("finetune", help="train an annotated model")
    _add_common(p, model=True, out=True)
    p.add_argument("--enable-weight-quant", action="store_true")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("workflow", help="run the staged compression workflow")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_stages, stages="run_workflow")

    p = sub.add_parser("baseline-once", help="single-stage ablation baseline")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_stages, stages="run_single_stage_baseline")

    p = sub.add_parser("eval", help="report accuracy on the test split")
    _add_common(p, model=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-range", help="per-layer weight dynamic range")
    _add_common(p, config=False, model=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report_range)

    p = sub.add_parser("report-constancy", help="BN channel spread vs running variance")
    _add_common(p, model=True)
    p.add_argument("--out", default=None)
    p.add_argument("--batch", type=_count, default=256)
    p.set_defaults(func=cmd_report_constancy)

    p = sub.add_parser("count-macs", help="multiply-accumulate totals")
    _add_common(p, config=False, model=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count_macs)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Thread caps must be exported before numpy initializes its BLAS.
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        from .graph import load_model

        # One way in: --config, then --model, for the subcommands that take them.
        cfg = load_config(args.config, args.set) if "config" in args else None
        graph = load_model(args.model) if "model" in args else None
        return args.func(args, cfg, graph)
    except Exception as e:  # single-line, machine-parseable failure surface
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
