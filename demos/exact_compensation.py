"""Removing a constant channel without changing a single output.

When a batch-norm channel's running variance is zero, inference emits its
shift parameter beta for every input. The channel can then be deleted
exactly: whatever the activation Act(beta) contributed to the next layer
is a constant, and a constant can be folded into that layer's bias. Each
consumer filter absorbs kernel_sum * Act(beta).

This script makes one channel of a small conv net genuinely constant,
prints the compensation constants, and compares output deviation with and
without the bias correction.
"""

import numpy as np

from pfqkit.batchnorm import BNParams
from pfqkit.engine import run_inference
from pfqkit.graph import LayerSpec, ModelGraph, WeightParams
from pfqkit.pruning import apply_pfq, compute_bias_correction, prune_channels

BETA = 0.42


def build_net(rng):
    def conv(name, o, c, k, bias):
        return LayerSpec(name=name, kind="conv", params=WeightParams(
            weights=rng.standard_normal((o, c, k, k)) * 0.4,
            bias=rng.standard_normal(o) * 0.1 if bias else None))

    bn = BNParams(gamma=rng.uniform(0.5, 1.5, 3),
                  beta=rng.standard_normal(3) * 0.3,
                  running_mean=rng.standard_normal(3) * 0.2,
                  running_var=rng.uniform(0.2, 1.5, 3))
    return ModelGraph(layers=[
        conv("c1", 3, 2, 3, bias=False),
        LayerSpec(name="b1", kind="bn", params=bn),
        LayerSpec(name="r1", kind="relu"),
        conv("c2", 4, 3, 3, bias=True),
    ], input_shape=(2, 8, 8))


def main():
    rng = np.random.default_rng(12)
    net = build_net(rng)

    # Make channel 1 of b1 exactly constant: zero its producer filter, pin
    # the running mean at the resulting zero pre-activation.
    net.layer("c1").params.weights[1] = 0.0
    bn = net.layer("b1").params
    bn.running_mean[1] = 0.0
    bn.running_var[1] = 0.0
    bn.beta[1] = BETA

    print(f"channel b1[1] now emits beta = {BETA} for every input")
    w_slice = net.layer("c2").params.weights[:, 1]
    corrections = compute_bias_correction(w_slice, BETA)
    print("bias compensation per consumer filter (kernel_sum * Act(beta)):")
    for i, u in enumerate(corrections):
        print(f"  c2 filter {i}: {u:+.6f}")

    probes = rng.uniform(-1, 1, (50, 2, 8, 8))
    base = run_inference(net, probes)

    corrected, report = apply_pfq(net, 1e-5)
    dev = np.max(np.abs(run_inference(corrected, probes) - base))
    print(f"\nwith compensation:    max output deviation {dev:.3e}")

    uncorrected, _ = prune_channels(net, [("b1", 1)], correct=False)
    dev = np.max(np.abs(run_inference(uncorrected, probes) - base))
    print(f"without compensation: max output deviation {dev:.3e}")

    print(f"\n{report.summary()}")


if __name__ == "__main__":
    main()
