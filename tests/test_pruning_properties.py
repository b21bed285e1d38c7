"""Property: apply_pfq preserves run_inference to float rounding on random
valid graphs, and run_inference, which drops each layer output after its last
reader, equals the final output of a full trace exactly.

The graphs are float64 and sequential: full, depthwise and pointwise convs
with or without bias and with padding 0 or 1, each optionally followed by a
BN and a relu or relu6, sometimes with an add junction around one
shape-keeping block, ending in pooling and an affine. Dead channels are
planted the honest way (producer filter zeroed, running mean pinned at the
producer's constant output, running variance below epsilon) with beta <= 0
and beta > 0, so inference really emits beta for them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfqkit.batchnorm import BNParams
from pfqkit.engine import forward_graph, run_inference
from pfqkit.graph import LayerSpec, ModelGraph, WeightParams
from pfqkit.pruning import apply_pfq

EPS = 1e-5

_block = st.fixed_dictionaries({
    "kind": st.sampled_from(["conv", "depthwise", "pointwise"]),
    "out": st.integers(2, 5),
    "padding": st.integers(0, 1),
    "bias": st.booleans(),
    "bn": st.sampled_from([True, True, True, False]),
    "act": st.sampled_from(["relu", "relu6", None]),
    "dead": st.lists(st.tuples(st.integers(0, 4), st.sampled_from([-0.7, 0.0, 0.35, 2.5])),
                     min_size=1, max_size=3),
})


@st.composite
def graphs(draw):
    blocks = draw(st.lists(_block, min_size=2, max_size=4))
    junction_at = draw(st.integers(0, len(blocks)))  # 0 or len(blocks): none
    seed = draw(st.integers(0, 2**32 - 1))
    return _build(blocks, junction_at, np.random.default_rng(seed))


def _build(blocks, junction_at, rng):
    channels = in_channels = int(rng.integers(2, 4))
    size = 9
    layers, dead = [], []
    for b, spec in enumerate(blocks):
        if b == junction_at and layers:
            # a shape-keeping block whose output is added to its input
            start = layers[-1].name
            channels = _conv_block(layers, dead, rng, f"j{b}", dict(spec, padding=1, out=channels),
                                   channels)
            layers.append(LayerSpec(f"j{b}_add", "add_junction", (start, layers[-1].name)))
        pad = spec["padding"] if size > 4 else 1
        channels = _conv_block(layers, dead, rng, f"b{b}", dict(spec, padding=pad), channels)
        size -= 2 * (1 - pad) if spec["kind"] != "pointwise" else 0
    layers.append(LayerSpec("pool", "global_avg_pool"))
    layers.append(LayerSpec("fc", "affine", WeightParams(
        rng.standard_normal((channels, 3)) * 0.5, rng.standard_normal(3) * 0.1)))
    graph = ModelGraph(layers=layers, input_shape=(in_channels, 9, 9))
    for bn_name, channel, beta in dead:
        _kill(graph, bn_name, channel, beta)
    return graph


def _conv_block(layers, dead, rng, name, spec, channels):
    kind, pad = spec["kind"], spec["padding"]
    if kind == "depthwise":
        out, k = channels, 3
        weights = rng.standard_normal((out, 1, k, k)) * 0.4
    else:
        out = spec["out"]
        k = 3 if kind == "conv" else 1
        weights = rng.standard_normal((out, channels, k, k)) * 0.4
    bias = rng.standard_normal(out) * 0.1 if spec["bias"] else None
    params = WeightParams(weights, bias)
    layers.append(LayerSpec(name, "depthwise_conv" if kind == "depthwise" else "conv", params,
                            padding=(pad, pad) if k == 3 else (0, 0)))
    if spec["bn"]:
        layers.append(LayerSpec(f"{name}_bn", "bn", BNParams(
            gamma=rng.uniform(0.5, 1.5, out), beta=rng.standard_normal(out) * 0.3,
            running_mean=rng.standard_normal(out) * 0.2,
            running_var=rng.uniform(0.2, 1.5, out), epsilon=EPS)))
        dead.extend((f"{name}_bn", c % out, beta) for c, beta in spec["dead"])
    if spec["act"]:
        layers.append(LayerSpec(f"{name}_act", spec["act"]))
    return out


def _kill(graph, bn_name, channel, beta):
    """Make a BN channel constant: zero the producer's filter, so it emits its
    bias (or 0) everywhere, and pin the running mean there."""
    i = graph.index(bn_name)
    producer = graph.layers[i - 1].params
    producer.weights[channel] = 0.0
    p = graph.layers[i].params
    p.running_mean[channel] = 0.0 if producer.bias is None else producer.bias[channel]
    p.running_var[channel] = 1e-8
    p.beta[channel] = beta


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_apply_pfq_preserves_inference(graph):
    x = np.random.default_rng(0).uniform(-1, 1, (4,) + graph.input_shape)
    before = run_inference(graph, x)
    assert before.tobytes() == forward_graph(graph, x).outputs["fc"].tobytes()
    pruned, _ = apply_pfq(graph, EPS)
    after = run_inference(pruned, x)
    assert np.max(np.abs(after - before)) <= 1e-9 * max(1.0, np.max(np.abs(before)))
