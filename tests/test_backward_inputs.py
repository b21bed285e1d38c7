"""Backward ops leave every input bit-identical.

The engine stores the first gradient that reaches a layer as it is and may
hand the same array to several consumers (add junctions, pass-through quant
points), and BN caches are reused between the forward and backward pass. That
is only sound if no backward op writes to grad_out, x, the weights or the BN
cache, which is what these tests pin down, in both storage dtypes. The
depthwise forward is in the table too: unpadded, it multiplies views of x
and adds the bias in place into the product, which must be a new array.
"""

import numpy as np
import pytest

from pfqkit.batchnorm import bn_backward_train, bn_forward_train, init_bn
from pfqkit.quantization import QuantConfig, quantize_backward
from pfqkit.tensor_ops import (
    affine_backward,
    conv2d_backward,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    global_avg_pool_backward,
    relu6_backward,
    relu_backward,
)


def _conv(rng, dt):
    x = rng.standard_normal((2, 3, 7, 7)).astype(dt)
    w = rng.standard_normal((4, 3, 3, 3)).astype(dt)
    g = rng.standard_normal((2, 4, 4, 4)).astype(dt)
    return lambda: conv2d_backward(g, x, w, (2, 2), (1, 1)), [g, x, w]


def _depthwise(rng, dt):
    x = rng.standard_normal((2, 3, 7, 6)).astype(dt)
    w = rng.standard_normal((3, 1, 3, 2)).astype(dt)
    g = rng.standard_normal((2, 3, 4, 4)).astype(dt)
    return lambda: depthwise_conv2d_backward(g, x, w, (2, 2), (1, 1)), [g, x, w]


def _depthwise_unpadded(rng, dt):
    x = rng.standard_normal((2, 3, 5, 5)).astype(dt)
    w = rng.standard_normal((3, 1, 3, 3)).astype(dt)
    g = rng.standard_normal((2, 3, 3, 3)).astype(dt)
    return lambda: depthwise_conv2d_backward(g, x, w), [g, x, w]


def _depthwise_forward(padding):
    def make(rng, dt):
        x = rng.standard_normal((2, 3, 7, 6)).astype(dt)
        w = rng.standard_normal((3, 1, 3, 2)).astype(dt)
        b = rng.standard_normal(3).astype(dt)
        return lambda: depthwise_conv2d_forward(x, w, b, (1, 2), padding), [x, w, b]
    return make


def _affine(rng, dt):
    x = rng.standard_normal((5, 6)).astype(dt)
    w = rng.standard_normal((6, 4)).astype(dt)
    g = rng.standard_normal((5, 4)).astype(dt)
    return lambda: affine_backward(g, x, w), [g, x, w]


def _bn(shape):
    def make(rng, dt):
        p = init_bn(shape[1], dtype=dt)
        p.gamma = rng.uniform(0.5, 2.0, shape[1]).astype(dt)
        _, _, _, cache = bn_forward_train(rng.standard_normal(shape).astype(dt), p)
        g = rng.standard_normal(shape).astype(dt)
        return lambda: bn_backward_train(g, cache), [g, cache.xhat, cache.inv_std, cache.gamma]
    return make


def _relu(rng, dt):
    x = rng.standard_normal((2, 3, 4, 4)).astype(dt)
    g = rng.standard_normal(x.shape).astype(dt)
    return lambda: relu_backward(g, x), [g, x]


def _relu6(rng, dt):
    x = (4 * rng.standard_normal((2, 3, 4, 4))).astype(dt)
    g = rng.standard_normal(x.shape).astype(dt)
    return lambda: relu6_backward(g, x), [g, x]


def _pool(rng, dt):
    g = rng.standard_normal((2, 3)).astype(dt)
    return lambda: global_avg_pool_backward(g, (4, 5)), [g]


def _quantize(rng, dt):
    x = rng.standard_normal((2, 3, 4, 4)).astype(dt)
    g = rng.standard_normal(x.shape).astype(dt)
    cfg = QuantConfig(bits=4, m=-1.0, M_up=1.0, initialized=True)
    return lambda: quantize_backward(g, x, cfg), [g, x]


OPS = {
    "conv": _conv,
    "depthwise": _depthwise,
    "depthwise_unpadded": _depthwise_unpadded,
    "depthwise_forward": _depthwise_forward((1, 1)),
    "depthwise_forward_unpadded": _depthwise_forward((0, 0)),
    "affine": _affine,
    "bn_train_4d": _bn((4, 3, 5, 5)),
    "bn_train_2d": _bn((6, 3)),
    "relu": _relu,
    "relu6": _relu6,
    "pool": _pool,
    "quantize": _quantize,
}


@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_leaves_inputs_bit_identical(name, dt):
    call, inputs = OPS[name](np.random.default_rng(7), dt)
    before = [(a.dtype, a.shape, a.tobytes()) for a in inputs]
    outputs = call()
    assert [(a.dtype, a.shape, a.tobytes()) for a in inputs] == before
    for out in outputs if isinstance(outputs, tuple) else (outputs,):
        if out is not None:
            assert not any(np.shares_memory(out, a) for a in inputs)
