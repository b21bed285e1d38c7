"""The engine's ownership rule and activation absorption.

The engine hands an op an array as out= only when nothing can read that
array after the op: a layer output whose last reader is this layer and that
no cache holds, a consumed BN cache, a backward gradient that no junction
shares. In a streamed inference pass an activation whose only reader is an
applying activation point with a range inside the activation's passes its
input through, since the point's clamp does the activation's work.

These tests pin what must never be written (the graph input, the caller's
grad_final, outputs a trace keeps, a gradient a junction sent to two layers)
and that every result is byte for byte that of a pass that hands nothing
over, which they build by patching each op that takes out= to drop it.
"""

import numpy as np
import pytest

from pfqkit import engine
from pfqkit import tensor_ops as T
from pfqkit.batchnorm import bn_backward_train, bn_forward_infer, bn_forward_train, init_bn
from pfqkit.engine import backward_graph, forward_graph, loss_and_grads, run_inference
from pfqkit.graph import (LayerSpec, ModelGraph, WeightParams, copy_graph, fold_bn_graph,
                          infer_shapes)
from pfqkit.models import BUILDERS, build_ds_convnet
from pfqkit.quantization import (QuantConfig, QuantPoint, insert_quant_points, quantize,
                                 quantize_backward)

# Every op the engine may hand an array to, on the module the engine looks it up in.
DONATING_OPS = ([(T, op) for op in ("relu_forward", "relu6_forward", "relu_backward",
                                    "relu6_backward")]
                + [(engine, op) for op in ("quantize", "quantize_backward", "bn_forward_train",
                                           "bn_forward_infer", "bn_backward_train")])


@pytest.fixture
def nothing_handed_over(monkeypatch):
    """Patch every op that takes out= so that it always allocates."""

    def dropping(op):
        def wrapped(*args, out=None, **kwargs):
            return op(*args, **kwargs)
        return wrapped

    def install():
        for module, name in DONATING_OPS:
            monkeypatch.setattr(module, name, dropping(getattr(module, name)))

    return install


def _batch(graph, n=6, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + tuple(graph.input_shape)).astype(dtype)


def _labels(graph, n=6):
    return np.arange(n) % infer_shapes(graph)[graph.layers[-1].name][0]


def _calibrated(net, x):
    """net folded, with enabled 4-bit weight and activation points whose
    ranges are set by two training-mode forwards."""
    forward_graph(net, x, training=True)
    q = insert_quant_points(fold_bn_graph(net), 4, 4, act_enabled=True, weight_enabled=True)
    for seed in (1, 2):
        forward_graph(q, _batch(q, seed=seed), training=True, update_ranges=True)
    return q


def _disabled_point():
    return QuantPoint(enabled=False,
                      cfg=QuantConfig(bits=4, m=0.0, M_up=6.0, initialized=True))


def _shared_relu6_junction():
    """A residual block whose junction reads a relu6 output and, through a
    disabled (pass-through) activation point, the relu6 right before it: the
    junction's gradient goes to two layers, and the first layer to write
    into it would be that relu6."""
    rng = np.random.default_rng(3)

    def conv(name, o, c):
        return LayerSpec(name, "conv", WeightParams(
            (0.4 * rng.standard_normal((o, c, 3, 3))).astype(np.float32)), padding=(1, 1))

    return ModelGraph(layers=[
        conv("stem", 4, 2), LayerSpec("stem_bn", "bn", init_bn(4)), LayerSpec("act", "relu6"),
        conv("conv_a", 4, 4), LayerSpec("bn_a", "bn", init_bn(4)), LayerSpec("act_a", "relu6"),
        LayerSpec("act_a_q", "quant_point", _disabled_point()),
        LayerSpec("join", "add_junction", ("act_a_q", "act")),
        LayerSpec("act_out", "relu6"),
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc", "affine", WeightParams(rng.standard_normal((4, 3)).astype(np.float32),
                                               np.zeros(3, np.float32))),
    ], input_shape=(2, 6, 6))


def _behind_activations(net):
    """net behind a relu6 and a relu: in training the relu's input is the
    relu6's cache, and in any mode the relu6's input is the graph input."""
    layers = [LayerSpec("lead", "relu6"), LayerSpec("lead2", "relu")] + copy_graph(net).layers
    return ModelGraph(layers=layers, input_shape=net.input_shape)


def _nets():
    nets = {name: build(seed=9) for name, build in BUILDERS.items()}
    nets["shared_junction"] = _shared_relu6_junction()
    nets["behind_activations"] = _behind_activations(nets["ds_convnet"])
    # The graph input passes a disabled point and an absorbed relu6 on its way
    # to an applying point, which must not quantize it in place.
    inside = QuantPoint(cfg=QuantConfig(bits=4, m=0.0, M_up=6.0, initialized=True))
    lead = [LayerSpec("in_q", "quant_point", _disabled_point()), LayerSpec("lead", "relu6"),
            LayerSpec("lead_q", "quant_point", inside)]
    nets["behind_pass_throughs"] = ModelGraph(
        layers=lead + copy_graph(nets["small_convnet"]).layers,
        input_shape=nets["small_convnet"].input_shape)
    # The caller's grad_final passes a disabled point and reaches a relu6.
    nets["ends_in_activation"] = ModelGraph(
        layers=copy_graph(nets["small_convnet"]).layers + [
            LayerSpec("out_act", "relu6"), LayerSpec("out_q", "quant_point", _disabled_point())],
        input_shape=nets["small_convnet"].input_shape)
    ds = build_ds_convnet(blocks=3, seed=5)
    nets["ds_convnet_4bit"] = _calibrated(ds, _batch(ds))
    quantized_residual = insert_quant_points(BUILDERS["residual_net"](seed=9), 4, 4,
                                             weight_enabled=True)
    forward_graph(quantized_residual, _batch(quantized_residual), training=True,
                  update_ranges=True)
    nets["residual_net_4bit"] = quantized_residual
    return nets


NETS = _nets()


def _grads_bytes(grads):
    return {(layer, f): g.tobytes() for layer, fields in grads.items() for f, g in fields.items()}


@pytest.mark.parametrize("name", sorted(NETS))
def test_results_equal_a_pass_that_hands_nothing_over(name, nothing_handed_over):
    net = NETS[name]
    x, labels = _batch(net), _labels(net)
    results = []
    for patched in (False, True):
        if patched:
            nothing_handed_over()
        g = copy_graph(net)
        loss, logits, grads, _ = loss_and_grads(g, x, labels, update_ranges=True)
        trace = forward_graph(g, x, training=True)
        after_backward = _grads_bytes(backward_graph(
            g, trace, np.ones_like(trace.outputs[g.layers[-1].name])))
        results.append((run_inference(g, x).tobytes(), float(loss), logits.tobytes(),
                        _grads_bytes(grads), after_backward))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(NETS))
def test_graph_input_and_grad_final_are_never_written(name):
    net = copy_graph(NETS[name])
    x = _batch(net)
    before = x.tobytes()
    run_inference(net, x)
    forward_graph(net, x)
    forward_graph(net, x, keep_outputs=False)
    loss_and_grads(net, x, _labels(net))
    trace = forward_graph(net, x, training=True, keep_outputs=False)
    grad_final = np.full_like(trace.outputs[net.layers[-1].name], 0.25)
    backward_graph(net, trace, grad_final)
    assert x.tobytes() == before
    assert grad_final.tobytes() == np.full_like(grad_final, 0.25).tobytes()


def test_an_activation_cache_is_never_handed_over():
    """In training an activation's output is its cache, so the relu after the
    relu6 must not write into it. relu of a relu6 output leaves the values
    as they are, so only the memory can show it."""
    net = NETS["behind_activations"]
    trace = forward_graph(net, 4 * _batch(net), training=True, keep_outputs=False)
    assert not np.shares_memory(trace.caches["lead"], trace.caches["lead2"])


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("name", sorted(NETS))
def test_kept_outputs_are_not_changed_by_later_layers(name, training):
    """Each output of a trace that keeps them equals the final output of the
    graph cut after that layer, computed on its own."""
    net = NETS[name]
    x = _batch(net)
    kept = forward_graph(copy_graph(net), x, training=training).outputs
    for i, layer in enumerate(net.layers):
        cut = ModelGraph(layers=copy_graph(net).layers[:i + 1], input_shape=net.input_shape)
        alone = forward_graph(cut, x, training=training, keep_outputs=False).outputs[layer.name]
        assert kept[layer.name].tobytes() == alone.tobytes(), layer.name


# --- absorption ---------------------------------------------------------------

# Values at and around every clamp edge, including both zeros and 6.
EDGES = [-7.0, -1.0, -0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 3.0, 5.99, 6.0, 6.01, 7.5, 40.0]


def _act_then_point(kind, m, M, dtype):
    """An identity 1x1 conv, the activation, and an activation point with
    range [m, M], whose output is the graph's."""
    point = QuantPoint(cfg=QuantConfig(bits=3, m=m, M_up=M,
                                                             initialized=True))
    return ModelGraph(layers=[
        LayerSpec("id", "conv", WeightParams(np.ones((1, 1, 1, 1), dtype))),
        LayerSpec("act", kind),
        LayerSpec("act_q", "quant_point", point),
    ], input_shape=(1, 4, 4))


def _edge_batch(dtype):
    rng = np.random.default_rng(4)
    values = np.concatenate([EDGES, rng.uniform(-8, 8, 48)]).astype(dtype)
    return values.reshape(4, 1, 4, 4)


RANGES = [(0.0, 6.0), (0.5, 3.0), (0.0, 0.75), (0.25, 5.99),  # inside [0, 6]
          (-1.0, 3.0), (-0.5, -0.1), (1.0, 7.0), (0.0, 40.0), (7.0, 9.0)]  # not inside


def _streamed_against_kept(net, x, kind, monkeypatch):
    """(streamed output, output of a trace that keeps every output and so
    never absorbs, number of activation calls in the streamed pass)."""
    kept = forward_graph(net, x).outputs[net.layers[-1].name]
    engine._plan(net, x, False)  # the compile's zero-image pass is not counted
    calls = []
    op = f"{kind}_forward"
    original = getattr(T, op)
    monkeypatch.setattr(T, op, lambda *a, **k: calls.append(1) or original(*a, **k))
    return run_inference(net, x), kept, len(calls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["relu", "relu6"])
@pytest.mark.parametrize("m, M", RANGES)
def test_absorption_is_exact(kind, m, M, dtype, monkeypatch):
    streamed, kept, calls = _streamed_against_kept(_act_then_point(kind, m, M, dtype),
                                                   _edge_batch(dtype), kind, monkeypatch)
    assert streamed.dtype == kept.dtype == dtype
    assert streamed.tobytes() == kept.tobytes()
    inside = m >= 0 and (kind == "relu" or M <= 6)
    assert calls == (0 if inside else 1)


@pytest.mark.parametrize("enabled, initialized, collapsed",
                         [(False, True, False), (True, False, False), (True, True, True)])
def test_no_absorption_without_an_applying_point(enabled, initialized, collapsed, monkeypatch):
    net = _act_then_point("relu6", 0.0, 6.0, np.float32)
    point = net.layer("act_q").params
    point.enabled, point.cfg.initialized = enabled, initialized
    if collapsed:
        point.cfg.M_up = point.cfg.m
    streamed, kept, calls = _streamed_against_kept(net, _edge_batch(np.float32), "relu6",
                                                   monkeypatch)
    assert streamed.tobytes() == kept.tobytes()
    assert calls == 1


def test_no_absorption_when_a_junction_reads_the_activation():
    net = _act_then_point("relu6", 0.5, 3.0, np.float32)
    net = ModelGraph(layers=net.layers + [LayerSpec("join", "add_junction", ("act", "act_q"))],
                     input_shape=net.input_shape)
    x = _edge_batch(np.float32)
    assert run_inference(net, x).tobytes() == forward_graph(net, x).outputs["join"].tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_absorbed_activation_rejects_an_infinite_input(sign):
    """The one behaviour the absorption changes: a conv output that overflows
    to +-inf used to be clipped by relu6 to 6 or 0 before its point; with the
    relu6 absorbed, the point's quantizer sees it and raises its named error.
    A trace that keeps every output still runs the relu6 and clips."""
    net = _act_then_point("relu6", 0.0, 6.0, np.float32)
    net.layer("id").params.weights[...] = sign * 1e30
    x = np.full((1, 1, 4, 4), 1e30, np.float32)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="quantize: non-finite values in x"):
            run_inference(net, x)
        kept = forward_graph(net, x).outputs["act_q"]
    assert np.array_equal(kept, np.full_like(kept, 6.0 if sign > 0 else 0.0))


# --- the ops' out= ------------------------------------------------------------

def _op_cases(rng, dt):
    x = (4 * rng.standard_normal((3, 2, 4, 4))).astype(dt)
    g = rng.standard_normal(x.shape).astype(dt)
    cfg = QuantConfig(bits=4, m=-1.0, M_up=2.0, initialized=True)
    bn = init_bn(2, dtype=dt)
    bn.gamma = rng.uniform(0.5, 2.0, 2).astype(dt)
    bn.running_mean = rng.standard_normal(2).astype(dt)
    bn.running_var = rng.uniform(0.5, 2.0, 2).astype(dt)
    return {
        "relu_forward": (lambda a, out=None: T.relu_forward(a, out=out), x),
        "relu6_forward": (lambda a, out=None: T.relu6_forward(a, out=out), x),
        "relu_backward": (lambda a, out=None: T.relu_backward(a, x, out=out), g),
        "relu6_backward": (lambda a, out=None: T.relu6_backward(a, x, out=out), g),
        "quantize": (lambda a, out=None: quantize(a, cfg, out=out), x),
        "quantize_backward": (lambda a, out=None: quantize_backward(a, x, cfg, out=out), g),
        "bn_forward_infer": (lambda a, out=None: bn_forward_infer(a, bn, out=out), x),
        "bn_forward_train": (lambda a, out=None: bn_forward_train(a, bn, out=out)[3].centered, x),
        "bn_backward_train": (
            lambda a, out=None: bn_backward_train(g, bn_forward_train(x, bn)[3], out=out)[0], x),
    }


OP_NAMES = sorted(_op_cases(np.random.default_rng(0), np.float32))


@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("name", OP_NAMES)
def test_out_gives_the_bytes_of_a_new_array(name, dt):
    op, a = _op_cases(np.random.default_rng(8), dt)[name]
    fresh = op(a)
    buffer = a.copy()
    written = op(buffer, out=buffer)
    assert written is buffer
    assert written.dtype == fresh.dtype and written.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("name", ["quantize", "bn_forward_infer", "bn_backward_train"])
def test_out_of_a_narrower_dtype_is_left_alone(name):
    """An op writes into out only when out has the result's dtype; otherwise
    it returns a new array, as without out, and out keeps its bytes."""
    rng = np.random.default_rng(8)
    cases64 = _op_cases(rng, np.float64)
    op, a = cases64[name]
    if name == "quantize":
        cfg = QuantConfig(bits=4, m=np.float64(-1.0), M_up=np.float64(2.0), initialized=True)
        buffer = a.astype(np.float32)
        fresh = quantize(buffer, cfg)
        before = buffer.tobytes()
        written = quantize(buffer, cfg, out=buffer)
    else:
        fresh = op(a)
        buffer = a.astype(np.float32)
        before = buffer.tobytes()
        written = op(a, out=buffer)
    assert buffer.tobytes() == before
    assert written is not buffer
    assert written.dtype == fresh.dtype and written.tobytes() == fresh.tobytes()
