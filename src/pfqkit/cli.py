"""Command-line interface.

Every subcommand maps to one library operation. Configuration lives in a
JSON file validated against a closed schema (unknown keys are rejected);
individual keys can be overridden with repeated --set dotted.path=value
flags. Failures print exactly one `error: ...` line to stderr and exit
nonzero. Heavy imports happen after argument parsing so that --threads can
cap the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class ConfigError(ValueError):
    pass


_EARLY_STOP_SCHEMA = {
    "mode": str,
    "drop_threshold": float,
    "reference_accuracy": (float, type(None)),
}

_SCHEMA = {
    "seed": int,
    "data": {
        "kind": str,
        "class_count": int,
        "per_class": int,
        "test_per_class": int,
        "shape": list,
        "noise": float,
        "seed": int,
        "variant": int,
        "train_files": list,
        "test_files": list,
    },
    "split": {"per_class": int, "seed": int},
    "arch": {
        "name": str,
        "input_shape": list,
        "class_count": int,
        "width": int,
        "blocks": int,
        "seed": int,
        "dead_stem_filters": int,
        "bn_epsilon": float,
        "bn_rho": float,
    },
    "train": {
        "epochs": int,
        "batch_size": int,
        "base_lr": float,
        "warmup_epochs": int,
        "period": int,
        "momentum": float,
        "weight_decay": float,
        "early_stop": _EARLY_STOP_SCHEMA,
    },
    "quant": {"act_bits": int, "weight_bits": int, "ema_momentum": float},
    "pfq": {"epsilon": float},
    "workflow": {
        "epochs_act": int,
        "epochs_weight": int,
        "act_lr": float,
        "weight_lr": float,
        "act_warmup": int,
        "weight_warmup": int,
        "act_period": int,
        "weight_period": int,
        "act_momentum": float,
        "weight_momentum": float,
        "weight_decay": float,
        "early_stop": _EARLY_STOP_SCHEMA,
    },
}

_DEFAULTS = {
    "seed": 0,
    "data": {"kind": "synthetic", "class_count": 4, "per_class": 40, "test_per_class": 10,
             "shape": [3, 8, 8], "noise": 0.05, "seed": 0, "variant": 10,
             "train_files": [], "test_files": []},
    "split": {"per_class": 5, "seed": 0},
    "arch": {"name": "small_convnet"},
    "train": {"epochs": 4, "batch_size": 16, "base_lr": 0.01, "warmup_epochs": 0,
              "period": 4, "momentum": 0.9, "weight_decay": 0.0},
    "quant": {"act_bits": 4, "weight_bits": 4, "ema_momentum": 0.99},
    "pfq": {"epsilon": 1e-5},
    "workflow": {"epochs_act": 2, "epochs_weight": 2, "act_lr": 0.001, "weight_lr": 0.0005,
                 "act_warmup": 0, "weight_warmup": 0, "act_period": 2, "weight_period": 2,
                 "act_momentum": 0.9, "weight_momentum": 0.0, "weight_decay": 0.0},
}


def _check_types(value, spec, path):
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config: '{path}' must be a mapping")
        for key, sub in value.items():
            if key not in spec:
                raise ConfigError(f"config: unknown key '{path}.{key}'" if path else
                                  f"config: unknown key '{key}'")
            _check_types(sub, spec[key], f"{path}.{key}" if path else key)
        return
    types = spec if isinstance(spec, tuple) else (spec,)
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        return
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"config: '{path}' must be {names}, got {type(value).__name__}")


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
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
    _check_types(raw, _SCHEMA, "")
    return _merge(_DEFAULTS, raw)


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


def _early_stop(section):
    if not section:
        return None
    from .training import EarlyStopPolicy
    return EarlyStopPolicy(**section)  # the schema admits exactly its fields


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_and_save(args, cfg, graph, data, epochs):
    """Train with the config's train section, then save model.json and
    metrics.csv under --out. Returns the epoch metrics."""
    from .graph import save_model
    from .training import LRSchedule, OptimizerState, metrics_to_csv, train_epochs

    t = cfg["train"]
    schedule = LRSchedule(t["base_lr"], t["warmup_epochs"], t["period"])
    opt = OptimizerState(momentum=t["momentum"], weight_decay=t["weight_decay"])
    graph, metrics = train_epochs(graph, data, schedule, opt, epochs=epochs,
                                  batch_size=t["batch_size"], seed=cfg["seed"],
                                  stop=_early_stop(t.get("early_stop")))
    out = _out_dir(args)
    save_model(graph, out / "model.json")
    metrics_to_csv(metrics, out / "metrics.csv")
    return metrics


def cmd_train(args):
    from .models import build

    cfg = load_config(args.config, args.set)
    data = _build_data(cfg)
    arch = dict(cfg["arch"])
    arch.setdefault("class_count", cfg["data"]["class_count"])
    arch["input_shape"] = tuple(arch.get("input_shape", cfg["data"]["shape"]))
    arch.setdefault("seed", cfg["seed"])
    metrics = _train_and_save(args, cfg, build(arch), data, cfg["train"]["epochs"])
    if metrics and metrics[-1].test_acc is not None:
        print(f"test_acc={metrics[-1].test_acc!r}")
    return 0


def cmd_pfq(args):
    from .graph import load_model, save_model
    from .pruning import apply_pfq

    cfg = load_config(args.config, args.set)
    epsilon = args.epsilon if args.epsilon is not None else cfg["pfq"]["epsilon"]
    graph = load_model(args.model)
    graph, report = apply_pfq(graph, epsilon, quantize_act_of_beta=args.quantize_act_of_beta)
    out = _out_dir(args)
    save_model(graph, out / "model.json")
    report.to_csv(out / "prune_report.csv")
    print(report.summary())
    return 0


def cmd_fold_bn(args):
    from .graph import fold_bn_graph, load_model, save_model

    graph = fold_bn_graph(load_model(args.model))
    out = _out_dir(args)
    save_model(graph, out / "model.json")
    print("folded")
    return 0


def cmd_quantize_annotate(args):
    from .graph import load_model, save_model
    from .quantization import insert_quant_points

    cfg = load_config(args.config, args.set)
    q = cfg["quant"]
    act_bits = args.act_bits if args.act_bits is not None else q["act_bits"]
    weight_bits = args.weight_bits if args.weight_bits is not None else q["weight_bits"]
    graph = insert_quant_points(load_model(args.model), act_bits, weight_bits,
                                ema_momentum=q["ema_momentum"],
                                weight_enabled=args.enable_weights)
    out = _out_dir(args)
    save_model(graph, out / "model.json")
    acts = sum(1 for l in graph.layers if l.kind == "quant_point")
    weights = sum(1 for l in graph.layers if l.weight_quant is not None)
    print(f"activation_points={acts} weight_points={weights}")
    return 0


def cmd_finetune(args):
    from .graph import load_model
    from .quantization import set_quant_enabled

    cfg = load_config(args.config, args.set)
    data = _build_data(cfg)
    graph = load_model(args.model)
    if args.enable_weight_quant:
        set_quant_enabled(graph, weights=True)
    epochs = args.epochs if args.epochs is not None else cfg["train"]["epochs"]
    metrics = _train_and_save(args, cfg, graph, data, epochs)
    print(f"epochs={len(metrics)}")
    return 0


def _run_stages(args, run):
    """Build the WorkflowConfig from the config file and run `run` (the
    staged workflow or the single-stage baseline) on --model."""
    from .graph import load_model
    from .training import LRSchedule
    from .workflow import WorkflowConfig

    cfg = load_config(args.config, args.set)
    data = _build_data(cfg)
    w = cfg["workflow"]
    wcfg = WorkflowConfig(
        epochs_act=w["epochs_act"], epochs_weight=w["epochs_weight"],
        act_bits=cfg["quant"]["act_bits"], weight_bits=cfg["quant"]["weight_bits"],
        epsilon=cfg["pfq"]["epsilon"], ema_momentum=cfg["quant"]["ema_momentum"],
        batch_size=cfg["train"]["batch_size"], seed=cfg["seed"],
        act_schedule=LRSchedule(w["act_lr"], w["act_warmup"], w["act_period"]),
        weight_schedule=LRSchedule(w["weight_lr"], w["weight_warmup"], w["weight_period"]),
        act_momentum=w["act_momentum"], weight_momentum=w["weight_momentum"],
        weight_decay=w["weight_decay"],
        stop_act=_early_stop(w.get("early_stop")), stop_weight=_early_stop(w.get("early_stop")),
    )
    result = run(load_model(args.model), data, wcfg, out_dir=_out_dir(args))
    for line in result.trace:
        print(line)
    return 0


def cmd_workflow(args):
    from .workflow import run_workflow

    return _run_stages(args, run_workflow)


def cmd_baseline_once(args):
    from .workflow import run_single_stage_baseline

    return _run_stages(args, run_single_stage_baseline)


def cmd_eval(args):
    from .engine import evaluate
    from .graph import load_model

    cfg = load_config(args.config, args.set)
    data = _build_data(cfg)
    graph = load_model(args.model)
    images = data.test_images if data.test_images is not None else data.val_images
    labels = data.test_labels if data.test_labels is not None else data.val_labels
    if images is None:
        raise ConfigError("no test or validation split to evaluate on")
    print(f"accuracy={evaluate(graph, images, labels)!r}")
    return 0


def cmd_report_range(args):
    from .graph import dynamic_range_report, load_model, range_report_to_csv

    rows = dynamic_range_report(load_model(args.model))
    if args.out:
        range_report_to_csv(rows, _out_dir(args) / "range.csv")
    for r in rows:
        print(f"{r.layer},{r.min!r},{r.max!r},{r.range!r}")
    return 0


def cmd_report_constancy(args):
    from .graph import load_model
    from .pruning import channel_constancy_report, constancy_report_to_csv

    cfg = load_config(args.config, args.set)
    data = _build_data(cfg)
    batch = data.train_images[:args.batch]
    rows = channel_constancy_report(load_model(args.model), batch)
    if args.out:
        constancy_report_to_csv(rows, _out_dir(args) / "constancy.csv")
    for r in rows:
        print(f"{r.layer},{r.channel},{r.running_var!r},{r.spread!r}")
    return 0


def cmd_count_macs(args):
    from .graph import count_macs, load_model, macs_to_csv

    macs = count_macs(load_model(args.model))
    if args.out:
        macs_to_csv(macs, _out_dir(args) / "macs.csv")
    print(sum(macs.values()))
    return 0


def _add_common(p, *, config=True, model=False, out=False):
    p.add_argument("--threads", type=int, default=None,
                   help="cap BLAS thread pools (set before numpy loads)")
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
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--quantize-act-of-beta", action="store_true")
    p.set_defaults(func=cmd_pfq)

    p = sub.add_parser("fold-bn", help="fold BN layers into their convolutions")
    _add_common(p, config=False, model=True, out=True)
    p.set_defaults(func=cmd_fold_bn)

    p = sub.add_parser("quantize-annotate", help="insert quantization points")
    _add_common(p, model=True, out=True)
    p.add_argument("--act-bits", type=int, default=None)
    p.add_argument("--weight-bits", type=int, default=None)
    p.add_argument("--enable-weights", action="store_true",
                   help="enable weight points immediately (folded graphs only)")
    p.set_defaults(func=cmd_quantize_annotate)

    p = sub.add_parser("finetune", help="train an annotated model")
    _add_common(p, model=True, out=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--enable-weight-quant", action="store_true")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("workflow", help="run the staged compression workflow")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_workflow)

    p = sub.add_parser("baseline-once", help="single-stage ablation baseline")
    _add_common(p, model=True, out=True)
    p.set_defaults(func=cmd_baseline_once)

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
    p.add_argument("--batch", type=int, default=256)
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
        return args.func(args)
    except Exception as e:  # single-line, machine-parseable failure surface
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
