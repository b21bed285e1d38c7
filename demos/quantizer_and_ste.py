"""The fake quantizer and its straight-through gradient.

Forward: clamp to [m, M], snap to a uniform grid of 2^bits + 1 points.
Backward: pretend the rounding never happened and pass gradients through
wherever the input was inside [m, M], zero elsewhere. That makes the
quantized network trainable while every forward pass sees exactly the
values deployment will see.

The script prints a 3-bit grid, checks the snap-to-grid algebra, then
shows that gradients upstream of a quantization point are bit-identical
to those of the same network with the quantizer replaced by a plain
clamp.
"""

import numpy as np

from pfqkit.engine import backward_graph, forward_graph
from pfqkit.graph import LayerSpec, ModelGraph, WeightParams
from pfqkit.quantization import QuantConfig, insert_quant_points, quantize
from pfqkit.tensor_ops import (
    affine_backward,
    conv2d_backward,
    conv2d_forward,
    global_avg_pool_backward,
    global_avg_pool_forward,
    relu_backward,
    relu_forward,
)


def show_grid():
    cfg = QuantConfig(bits=3, m=-1.0, M_up=1.0, initialized=True)
    grid = np.unique(quantize(np.linspace(-1.5, 1.5, 2001), cfg))
    print(f"3-bit quantizer on [-1, 1]: scale {cfg.scale}, "
          f"{len(grid)} representable values")
    print("  " + "  ".join(f"{v:+.2f}" for v in grid))

    x = np.array([-2.0, -0.6, -0.1, 0.13, 0.8, 1.7])
    q = quantize(x, cfg)
    print("  sample snaps: " + "  ".join(f"{a:+.2f}->{b:+.2f}"
                                         for a, b in zip(x, q)))
    assert np.array_equal(quantize(q, cfg), q)
    assert np.all(np.abs(q - np.clip(x, -1, 1)) <= cfg.scale / 2 + 1e-12)
    print("  idempotent, and never more than half a step from the clamp\n")


def show_gradients():
    rng = np.random.default_rng(77)
    layers = [
        LayerSpec(name="c1", kind="conv", params=WeightParams(
            weights=rng.standard_normal((3, 2, 3, 3)) * 0.4,
            bias=rng.standard_normal(3) * 0.1)),
        LayerSpec(name="r1", kind="relu"),
        LayerSpec(name="p1", kind="global_avg_pool"),
        LayerSpec(name="fc", kind="affine", params=WeightParams(
            weights=rng.standard_normal((3, 4)) * 0.4,
            bias=rng.standard_normal(4) * 0.1)),
    ]
    net = insert_quant_points(ModelGraph(layers=layers, input_shape=(2, 6, 6)),
                              2, 8, act_enabled=True, weight_enabled=False)
    net.layer("p1_q").params.enabled = False
    point = net.layer("r1_q").params
    point.cfg.m, point.cfg.M_up, point.cfg.initialized = 0.0, 1.0, True

    x = rng.uniform(0.0, 1.0, (4, 2, 6, 6))
    readout = rng.standard_normal((4, 4))
    trace = forward_graph(net, x, training=True)
    grads = backward_graph(net, trace, readout)

    # The same chain by hand, with the quantizer replaced by a clamp.
    w1, b1 = net.layer("c1").params.weights, net.layer("c1").params.bias
    a1 = conv2d_forward(x, w1, b1)
    r1 = relu_forward(a1)
    grad_pool, _, _ = affine_backward(readout, global_avg_pool_forward(
        np.clip(r1, 0.0, 1.0)), net.layer("fc").params.weights)
    grad_r1 = global_avg_pool_backward(grad_pool, r1.shape[2:]) \
        * ((r1 >= 0.0) & (r1 <= 1.0))
    _, grad_w, grad_b = conv2d_backward(relu_backward(grad_r1, a1), x, w1)

    same_w = np.array_equal(grads["c1"]["weights"], grad_w)
    same_b = np.array_equal(grads["c1"]["bias"], grad_b)
    clipped = int(np.sum(r1 > 1.0))
    print("straight-through check on a conv -> relu -> quant -> pool -> fc net:")
    print(f"  conv weight grads identical to clamp network: {same_w}")
    print(f"  conv bias grads identical to clamp network:   {same_b}")
    print(f"  activations above the range (gradient zeroed): {clipped} "
          f"of {r1.size}")


def main():
    show_grid()
    show_gradients()


if __name__ == "__main__":
    main()
