"""Small reference architectures used by the demos, tests, and CLI.

Convolutions that feed a BN carry no bias; BN starts at unit scale, zero
shift, running mean 0 and running variance 1. `dead_stem_filters` zeroes the
first filters of the stem conv. Under a ReLU-family activation those
channels stay parked at zero through training (zero output, zero shift,
zero gradient), so their running variance decays geometrically toward zero.
That is the mechanism the pruning pass exists for, reproduced on purpose.
"""

from __future__ import annotations

import numpy as np

from .batchnorm import init_bn
from .graph import LayerSpec, ModelGraph, WeightParams


def _he(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def build_small_convnet(input_shape=(3, 8, 8), class_count=4, width=8, seed=0,
                        dead_stem_filters=0, bn_epsilon=1e-5, bn_rho=0.9, dtype=np.float32):
    """conv-bn-relu, conv-bn-relu, pool, affine."""
    rng = np.random.default_rng(seed)
    c0 = input_shape[0]
    w1 = _he(rng, (width, c0, 3, 3), c0 * 9, dtype)
    w1[:dead_stem_filters] = 0.0
    w2 = _he(rng, (width, width, 3, 3), width * 9, dtype)
    wf = _he(rng, (width, class_count), width, dtype)
    layers = [
        LayerSpec("conv1", "conv", WeightParams(w1), stride=(1, 1), padding=(1, 1)),
        LayerSpec("bn1", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("relu1", "relu"),
        LayerSpec("conv2", "conv", WeightParams(w2), stride=(1, 1), padding=(1, 1)),
        LayerSpec("bn2", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("relu2", "relu"),
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc", "affine", WeightParams(wf, np.zeros(class_count, dtype=dtype))),
    ]
    return ModelGraph(layers=layers, input_shape=tuple(input_shape))


def build_ds_convnet(input_shape=(3, 16, 16), class_count=4, width=8, blocks=6, seed=0,
                     dead_stem_filters=0, bn_epsilon=1e-5, bn_rho=0.9, dtype=np.float32):
    """Depthwise-separable stack: stem conv, then `blocks` repeats of
    depthwise 3x3 + pointwise 1x1, each conv followed by BN and relu6,
    finished by global average pooling and an affine classifier. Spatial
    resolution halves at blocks 2 and 4 (when present)."""
    rng = np.random.default_rng(seed)
    c0 = input_shape[0]
    stem = _he(rng, (width, c0, 3, 3), c0 * 9, dtype)
    stem[:dead_stem_filters] = 0.0
    layers = [
        LayerSpec("stem", "conv", WeightParams(stem), stride=(1, 1), padding=(1, 1)),
        LayerSpec("stem_bn", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("stem_act", "relu6"),
    ]
    ch = width
    for b in range(1, blocks + 1):
        stride = (2, 2) if b in (2, 4) else (1, 1)
        dw = _he(rng, (ch, 1, 3, 3), 9, dtype)
        layers += [
            LayerSpec(f"dw{b}", "depthwise_conv", WeightParams(dw),
                      stride=stride, padding=(1, 1)),
            LayerSpec(f"dw{b}_bn", "bn", init_bn(ch, bn_epsilon, bn_rho, dtype)),
            LayerSpec(f"dw{b}_act", "relu6"),
        ]
        out_ch = width * 2 if b >= blocks // 2 else width
        pw = _he(rng, (out_ch, ch, 1, 1), ch, dtype)
        layers += [
            LayerSpec(f"pw{b}", "conv", WeightParams(pw), stride=(1, 1), padding=(0, 0)),
            LayerSpec(f"pw{b}_bn", "bn", init_bn(out_ch, bn_epsilon, bn_rho, dtype)),
            LayerSpec(f"pw{b}_act", "relu6"),
        ]
        ch = out_ch
    layers += [
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc", "affine", WeightParams(
            _he(rng, (ch, class_count), ch, dtype), np.zeros(class_count, dtype=dtype))),
    ]
    return ModelGraph(layers=layers, input_shape=tuple(input_shape))


def build_residual_net(input_shape=(3, 8, 8), class_count=4, width=8, seed=0,
                       bn_epsilon=1e-5, bn_rho=0.9, dtype=np.float32):
    """One residual block: the stem activation shortcuts around two convs."""
    rng = np.random.default_rng(seed)
    c0 = input_shape[0]
    layers = [
        LayerSpec("stem", "conv", WeightParams(_he(rng, (width, c0, 3, 3), c0 * 9, dtype)),
                  stride=(1, 1), padding=(1, 1)),
        LayerSpec("stem_bn", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("stem_act", "relu"),
        LayerSpec("conv_a", "conv", WeightParams(_he(rng, (width, width, 3, 3), width * 9, dtype)),
                  stride=(1, 1), padding=(1, 1)),
        LayerSpec("bn_a", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("act_a", "relu"),
        LayerSpec("conv_b", "conv", WeightParams(_he(rng, (width, width, 3, 3), width * 9, dtype)),
                  stride=(1, 1), padding=(1, 1)),
        LayerSpec("bn_b", "bn", init_bn(width, bn_epsilon, bn_rho, dtype)),
        LayerSpec("join", "add_junction", ("stem_act", "bn_b")),
        LayerSpec("act_out", "relu"),
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc", "affine", WeightParams(
            _he(rng, (width, class_count), width, dtype), np.zeros(class_count, dtype=dtype))),
    ]
    return ModelGraph(layers=layers, input_shape=tuple(input_shape))


BUILDERS = {
    "small_convnet": build_small_convnet,
    "ds_convnet": build_ds_convnet,
    "residual_net": build_residual_net,
}


def build(arch_config):
    """Instantiate an architecture from a config mapping with a `name` key;
    the remaining keys are passed to the builder."""
    kw = dict(arch_config)
    name = kw.pop("name")
    if name not in BUILDERS:
        raise ValueError(f"unknown architecture '{name}', known: {sorted(BUILDERS)}")
    return BUILDERS[name](**kw)
