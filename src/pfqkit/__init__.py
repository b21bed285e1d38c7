"""Variance-guided channel pruning and quantization-aware fine-tuning for
small convolutional classifiers, on plain numpy.

The names below, and the submodules themselves, are re-exported lazily
(PEP 562): a submodule, and so numpy, loads on first access of one of its
names, not on `import pfqkit`. That lets `pfqkit.cli` cap the BLAS thread
pools before numpy loads.
"""

import importlib

_EXPORTS = {
    "batchnorm": ("BNParams", "BatchStats", "bn_forward_infer", "bn_forward_train", "fold_bn",
                  "init_bn"),
    "data": ("DataBundle", "Dataset", "bundle_from_datasets", "iter_batches",
             "load_cifar_binary", "make_synthetic", "split_validation"),
    "engine": ("backward_graph", "evaluate", "forward_graph", "loss_and_grads", "run_inference"),
    "graph": ("GraphError", "LayerSpec", "ModelGraph", "ModelFormatError", "WeightParams",
              "copy_graph", "count_macs", "dynamic_range_report", "fold_bn_graph",
              "infer_shapes", "load_model", "param_count", "save_model"),
    "models": ("build", "build_ds_convnet", "build_residual_net", "build_small_convnet"),
    "pruning": ("PruneCandidate", "PruneReport", "apply_pfq", "channel_constancy_report",
                "compute_bias_correction", "prune_channels", "scan_candidates"),
    "quantization": ("QuantConfig", "QuantPoint", "enable_weight_points", "insert_quant_points",
                     "quantize", "quantize_backward", "update_activation_range"),
    "tensor_ops": ("affine_forward", "conv2d_forward", "depthwise_conv2d_forward",
                   "global_avg_pool_forward", "relu_forward", "relu6_forward",
                   "softmax_cross_entropy"),
    "training": ("EarlyStopPolicy", "EpochMetrics", "LRSchedule", "OptimizerState",
                 "TrainingDiverged", "lr_at", "metrics_to_csv", "sgd_step", "train_epochs"),
    "workflow": ("WorkflowConfig", "WorkflowResult", "run_single_stage_baseline", "run_workflow"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
