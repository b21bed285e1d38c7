"""The engine's trace contract and the memory it keeps alive.

run_inference keeps each layer output only until its last reader, so it must
give exactly the final output of a full trace; it cuts the batch into one
share per CPU the process may use, runs each segment of the layers before
the first affine on slabs of a share sized for that segment's own layers,
and runs the rest on the whole batch, which must change no byte at any
batch size around the slab sizes, at any thread count, when a junction
reads across a segment boundary, and when shares fail (the error of one
CPU's run wins), at a peak memory that does not grow with the batch.
backward_graph consumes its trace and names the error when it is given one
it cannot backpropagate.
Peak memory is measured with tracemalloc on a deep chain of cheap
elementwise layers: there the set of live activations sets the peak, where on
the builder nets a convolution's im2col transient would. A conv, depthwise
conv or affine that reads what an activation point quantized in the same
pass does not check it for non-finite values again, which changes no byte,
and one behind a point that passed its input through still checks; a point
whose input is bounded does not check it either, in training as in
inference, and a conv, a bias or a BN that can overflow leaves the next
input checked. An inference pass runs the graph's plan, compiled once per
graph version and built whole at compile (no run builds a step, and
concurrent callers only read it), which follows every change of the
layers, weights, bias, points, geometry, input shape and dtype and which
training never touches. Inference does not refuse an overflow that a relu6
clamps, where training on the same graph raises.
"""

import collections
import copy
import gc
import json
import os
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pfqkit import engine, quantization
from pfqkit import tensor_ops as T
from pfqkit.batchnorm import init_bn
from pfqkit.data import make_synthetic
from pfqkit.engine import backward_graph, forward_graph, loss_and_grads, run_inference
from pfqkit.graph import (CONV_LIKE, GraphError, LayerSpec, ModelGraph, WeightParams,
                          copy_graph, fold_bn_graph, infer_shapes, load_model, save_model)
from pfqkit.models import BUILDERS, build_ds_convnet, build_small_convnet
from pfqkit.quantization import (QuantConfig, QuantPoint, QuantRangeError, act_point_applies,
                                 insert_quant_points)
from pfqkit.training import OptimizerState, sgd_step

CONSUMED = "needs a training-mode trace that has not been consumed"


def _batch(graph, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + tuple(graph.input_shape)).astype(np.float32)


def _assert_streams_exactly(graph, x):
    full = forward_graph(graph, x).outputs[graph.layers[-1].name]
    streamed = run_inference(graph, x)
    assert streamed.dtype == full.dtype and streamed.shape == full.shape
    assert streamed.tobytes() == full.tobytes()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_run_inference_equals_full_trace(name):
    # residual_net's junction reads the stem activation six layers later, so
    # that output must outlive the layers in between.
    graph = BUILDERS[name](seed=4)
    x = _batch(graph)
    forward_graph(graph, x, training=True)  # moves BN running statistics off their init
    _assert_streams_exactly(graph, x)
    kept = forward_graph(graph, x, keep_outputs=False).outputs
    assert list(kept) == [graph.layers[-1].name]


def _calibrated_4bit(net, fold=True):
    """net (folded unless fold is False) with enabled 4-bit weight and
    activation points whose ranges two training-mode forwards set."""
    forward_graph(net, _batch(net), training=True)
    q = insert_quant_points(fold_bn_graph(net) if fold else net, 4, 4, act_enabled=True,
                            weight_enabled=True)
    for seed in (1, 2):
        forward_graph(q, _batch(q, seed=seed), training=True, update_ranges=True)
    return q


def test_run_inference_equals_full_trace_folded_4bit():
    q = _calibrated_4bit(build_ds_convnet(blocks=3, seed=5))
    _assert_streams_exactly(q, _batch(q))


# --- slabs ---------------------------------------------------------------------

def _segment_slabs(graph, dtype):
    """Per layer before the first affine, the images per slab of its
    segment: SLAB_BYTES over the widest per-image input or output from that
    layer to the first affine."""
    layers, shapes = graph.layers, infer_shapes(graph)
    split = next(i for i, l in enumerate(layers) if l.kind == "affine")
    widths = [int(np.prod(s)) for s in
              [graph.input_shape] + [shapes[l.name] for l in layers[:split]]]
    return {l.name: engine.SLAB_BYTES // (max(widths[i:]) * np.dtype(dtype).itemsize)
            for i, l in enumerate(layers[:split])}


def _slab(graph, dtype):
    """The first segment's slab, which decides whether a batch is cut."""
    return _segment_slabs(graph, dtype)[graph.layers[0].name]


def _shares(n, workers, first):
    """The image counts of run_inference's shares of an n-image batch."""
    k = min(workers, -(-n // first))
    return [(i + 1) * n // k - i * n // k for i in range(k)]


def _layer_batches(monkeypatch):
    """Records (layer name, batch extent) of every call of a conv, depthwise
    conv or affine plan step compiled from here on."""
    seen = []

    def recording(build):
        def build_recorded(layer, *args):
            forward, bound = build(layer, *args)
            return lambda x, out, outputs: (
                seen.append((layer.name, x.shape[0])) or forward(x, out, outputs)), bound
        return build_recorded

    for kind in CONV_LIKE:
        monkeypatch.setitem(engine._STEPS, kind, recording(engine._STEPS[kind]))
    return seen


def _unslabbed(graph, x):
    """The final output of one unslabbed pass of a copy of graph."""
    return forward_graph(copy_graph(graph), x, keep_outputs=False).outputs[graph.layers[-1].name]


def _conv_threads(monkeypatch):
    """The threads that run a conv2d_forward, as they run."""
    threads, conv = set(), T.conv2d_forward
    monkeypatch.setattr(T, "conv2d_forward", lambda *args, **kwargs: (
        threads.add(threading.get_ident()) or conv(*args, **kwargs)))
    return threads


def _slabbed_exactly(graph, x):
    """run_inference on a fresh copy of graph, which compiles its own plan,
    then again on the plan that call built: both give the bytes of one
    unslabbed pass (forward_graph(..., keep_outputs=False))."""
    whole = _unslabbed(graph, x)
    fresh = copy_graph(graph)
    for _ in range(2):
        out = run_inference(fresh, x)
        assert out.dtype == whole.dtype and out.shape == whole.shape
        assert out.tobytes() == whole.tobytes()
    return out


# The CPU counts run_inference shares its slabs among: one thread, two, and
# more than some batches have slabs.
WORKERS = [1, 2, 3]


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("workers", WORKERS)
def test_slabs_change_no_byte(name, dtype, workers, monkeypatch):
    """run_inference cuts the batch into shares among `workers` threads and
    runs each segment of the layers before the affine on slabs of a share,
    of the segment's size, the affine on the whole batch, and gives the
    bytes of one unslabbed inference at every batch size around the first
    slab size, on a fresh plan and on a built one."""
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    net = BUILDERS[name](seed=6, dtype=dtype)
    q = _calibrated_4bit(net, fold=name != "residual_net")
    assert all(act_point_applies(l.params) for l in q.layers if l.kind == "quant_point")
    slabs = _segment_slabs(q, dtype)
    slab = _slab(q, dtype)
    assert slab > 1
    # Each segment's slab divides the next one's, so a share's slabs of every
    # segment start at multiples of that slab from the share's first image.
    sizes = sorted(set(slabs.values()))
    assert all(b % a == 0 for a, b in zip(sizes, sizes[1:]))
    x = _batch(q, n=3 * slab + 5, seed=8).astype(dtype)
    seen = _layer_batches(monkeypatch)
    for n in (1, slab - 1, slab, slab + 1, 3 * slab + 5):
        whole = forward_graph(q, x[:n], keep_outputs=False).outputs[q.layers[-1].name]
        shares = _shares(n, workers, slab)
        for g in (copy_graph(q), q):  # a fresh plan, then the one forward_graph built
            engine._plan(g, x[:n], False)  # the compile's zero-image pass is not counted
            seen.clear()
            streamed = run_inference(g, x[:n])
            assert streamed.dtype == whole.dtype == dtype and streamed.shape == whole.shape
            assert streamed.tobytes() == whole.tobytes()
            calls = collections.defaultdict(list)
            for layer, k in seen:
                calls[layer].append(k)
            for layer in q.layers:
                if layer.kind == "affine":
                    assert calls[layer.name] == [n]
                elif layer.kind in ("conv", "depthwise_conv"):
                    size, extents = slabs[layer.name], calls[layer.name]
                    assert sum(extents) == n and max(extents) <= size
                    assert len(extents) == sum(-(-share // size) for share in shares)


def _flat_junction_net():
    """conv, pool, then an affine whose output a junction adds to the pooled
    features: two outputs outlive the slabs and are gathered."""
    rng = np.random.default_rng(3)
    return ModelGraph(layers=[
        LayerSpec("conv", "conv", WeightParams(rng.standard_normal((6, 2, 3, 3))), padding=(1, 1)),
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc1", "affine",
                  WeightParams(rng.standard_normal((6, 6)), rng.standard_normal(6))),
        LayerSpec("join", "add_junction", ("pool", "fc1")),
        LayerSpec("fc2", "affine", WeightParams(rng.standard_normal((6, 3)), None)),
    ], input_shape=(2, 64, 64))


@pytest.mark.parametrize("n", [0, 1, 5, 12])
@pytest.mark.parametrize("workers", WORKERS)
def test_outputs_read_after_the_slabs_are_gathered(n, workers, monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    net = _flat_junction_net()
    assert _slab(net, np.float64) == 5
    x = np.random.default_rng(4).standard_normal((n, 2, 64, 64))
    assert _slabbed_exactly(net, x).shape == (n, 3)


@pytest.mark.parametrize("workers", WORKERS)
def test_slabs_are_sized_for_the_input_the_plan_runs_on(workers, monkeypatch):
    """A small_convnet declared (3, 8, 8) and run on 64x64 images sizes its
    slabs for 64x64 images: each segment's slab is the largest whose widest
    per-image input or output, from the segment's first layer to the affine,
    stays within SLAB_BYTES, so none of the segment's own do either, and the
    slabbed logits are those of one unslabbed pass."""
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    net = build_small_convnet(seed=2)
    x = np.random.default_rng(5).standard_normal((300, 3, 64, 64)).astype(np.float32)
    run_inference(net, x)
    wide = build_small_convnet(input_shape=(3, 64, 64), seed=2)
    shapes, slabs, segments = infer_shapes(wide), _segment_slabs(wide, x.dtype), net.plan.segments
    assert segments[0][0] == 0 and segments[0][2] == 8
    assert [b for _, b, _ in segments[:-1]] == [a for a, _, _ in segments[1:]]
    assert segments[-1][1] == len(slabs)
    for a, b, slab in segments:
        assert {slabs[l.name] for l in wide.layers[a:b]} == {slab}
        ins = [x.shape[1:] if i == 0 else shapes[wide.layers[i - 1].name] for i in range(a, b)]
        widest = max(int(np.prod(s)) for s in ins + [shapes[l.name] for l in wide.layers[a:b]])
        assert slab * widest * x.itemsize <= engine.SLAB_BYTES
    _slabbed_exactly(net, x[:20])  # three first slabs


@pytest.mark.parametrize("shape, message", [
    ((2, 4, 8, 8), "conv 'conv1' expects 3 input channels, gets 4"),
    ((2, 3, 8), r"conv 'conv1' needs a \(C, H, W\) input, got \(3, 8\)"),
])
def test_an_input_the_slabs_cannot_be_sized_for_names_the_layer(shape, message):
    """The compile sizes its slabs from the layer geometry on the input's
    shape, which names the first layer the input does not fit."""
    net = build_small_convnet(seed=2)
    with pytest.raises(GraphError, match=f"^{message}$"):
        run_inference(net, np.ones(shape, np.float32))
    assert net.plan is None


def _bottleneck_net():
    """A stride-2 conv, then a residual bottleneck block whose junction adds
    the conv's output to the block's: at float32 the layers before the
    affine run in segments of 64, 128 and 256 images, so the conv's output
    is live across two segment boundaries. The block's BN is live (not
    folded), so nothing bounds what reaches the depthwise conv after it."""
    rng = np.random.default_rng(7)

    def weights(*shape, bias=True):
        out, fan_in = shape[::-1] if len(shape) == 2 else (shape[0], np.prod(shape[1:]))
        return WeightParams((rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32),
                            rng.standard_normal(out).astype(np.float32) if bias else None)

    return ModelGraph(layers=[
        LayerSpec("stem", "conv", weights(4, 2, 3, 3), stride=(2, 2), padding=(1, 1)),
        LayerSpec("expand", "conv", weights(16, 4, 1, 1)),
        LayerSpec("relu1", "relu"),
        LayerSpec("reduce1", "conv", weights(8, 16, 1, 1, bias=False)),
        LayerSpec("bn", "bn", init_bn(8)),
        LayerSpec("dw", "depthwise_conv", weights(8, 1, 3, 3), padding=(1, 1)),
        LayerSpec("reduce2", "conv", weights(4, 8, 1, 1)),
        LayerSpec("join", "add_junction", ("stem", "reduce2")),
        LayerSpec("relu2", "relu"),
        LayerSpec("pool", "global_avg_pool"),
        LayerSpec("fc", "affine", weights(4, 3)),
    ], input_shape=(2, 32, 32))


@pytest.mark.parametrize("workers", WORKERS)
def test_slabs_of_a_junction_read_across_segment_boundaries(workers, monkeypatch):
    """A junction that reads an output from before two segment boundaries
    gives the bytes of one unslabbed pass at every batch size around the
    segments' slabs, on a fresh plan and on a built one."""
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    net = _bottleneck_net()
    x = np.random.default_rng(8).standard_normal((3 * 256 + 7, 2, 32, 32)).astype(np.float32)
    run_inference(net, x[:1])
    assert net.plan.segments == ((0, 4, 64), (4, 7, 128), (7, 10, 256))
    for n in (1, 64, 65, 129, 300, 3 * 256 + 7):
        _slabbed_exactly(net, x[:n])


def test_slab_errors_of_two_shares_fail_as_on_one_cpu(monkeypatch):
    """An image scaled by 1e10 overflows past the live BN and fails the
    depthwise conv, in the second segment; a nan image fails the stem, in
    the first. At each placement of the two in a 130-image batch, 2 and 3
    workers raise exactly the error of one, which runs each 128-image slab
    of the second segment after its two 64-image slabs of the first: the
    slab met first fails. At (100, 128) the last share of 2 or 3 meets the
    nan first, where one CPU meets the overflow first. Every helper thread
    has ended when the call raises."""
    net = _bottleneck_net()
    net.layers[4].params.gamma[:] = 1e30
    x = np.random.default_rng(9).standard_normal((130, 2, 32, 32)).astype(np.float32)
    whole = _unslabbed(net, x)
    assert np.isfinite(whole).all()
    stem, dw = "^conv2d: non-finite values in x$", "^depthwise_conv2d: non-finite values in x$"
    cases = []
    for over, nan, message in [(129, None, dw), (0, 129, dw), (100, 128, dw), (129, 0, stem)]:
        bad = x.copy()
        bad[over] *= 1e10
        if nan is not None:
            bad[nan, 0, 0, 0] = np.nan
        cases.append((bad, message))
    for workers in (1, 2, 3):
        monkeypatch.setattr(engine, "_cpus", lambda: workers)
        for g in (copy_graph(net), net):  # a fresh plan, then a built one
            threads = threading.active_count()
            with np.errstate(over="ignore"):
                for bad, message in cases:
                    with pytest.raises(ValueError, match=message):
                        run_inference(g, bad)
            assert threading.active_count() == threads
            assert run_inference(g, x).tobytes() == whole.tobytes()


def test_slab_helpers_run_under_the_callers_error_state(monkeypatch):
    """The live stem BN's scale overflows on the last image, which a helper
    thread runs, and relu6 clamps the inf: the call gives finite logits
    where the caller ignores overflows and raises where it raises them."""
    net = build_ds_convnet(blocks=2, seed=3)
    net.layers[1].params.gamma[:] = 1e30
    assert net.layers[2].kind == "relu6"
    x = _batch(net, n=3 * _slab(net, np.float32), seed=9)
    x[-1] *= 1e10
    for workers in WORKERS:
        monkeypatch.setattr(engine, "_cpus", lambda: workers)
        with np.errstate(over="ignore"):
            assert np.isfinite(run_inference(net, x)).all()
        with np.errstate(over="raise"), pytest.raises(
                FloatingPointError, match="^overflow encountered in multiply$"):
            run_inference(net, x)


@pytest.mark.parametrize("workers", WORKERS)
def test_slab_memory_does_not_grow_with_the_batch(workers, monkeypatch):
    """run_inference's peak on the bottleneck net, whose segments join
    their slabs' outputs at two boundaries, is the same at 64 times its
    largest slab as at 4 times it, and at most one share's per thread.
    SLAB_BYTES is cut to 64 KiB, which makes the slabs 4, 8 and 16 images,
    so that the batches stay small."""
    monkeypatch.setattr(engine, "SLAB_BYTES", 1 << 16)
    net = _bottleneck_net()
    x = np.random.default_rng(10).standard_normal((64 * 16, 2, 32, 32)).astype(np.float32)
    run_inference(net, x[:1])
    assert net.plan.segments == ((0, 4, 4), (4, 7, 8), (7, 10, 16))
    monkeypatch.setattr(engine, "_cpus", lambda: 1)
    one = _peak_bytes(run_inference, net, x[:4 * 16])
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    # What grows with the batch: the pooled features, 16 bytes an image, held
    # as a share's slabs and joined, then as the shares and gathered, and the
    # logits, 16 bytes an image: at most 80 bytes an image.
    assert _peak_bytes(run_inference, net, x) <= workers * one + 128 * len(x)


@pytest.mark.parametrize("workers", WORKERS)
def test_slabs_leave_no_reference_cycle(workers, monkeypatch):
    """A call that cuts its batch into shares and nested slabs leaves no
    reference cycle: with the cyclic collector off, the batch is freed as
    soon as the caller drops it."""
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    net = _bottleneck_net()
    x = np.random.default_rng(11).standard_normal((300, 2, 32, 32)).astype(np.float32)
    freed = weakref.ref(x)
    gc.disable()
    try:
        run_inference(net, x)
        del x
        assert freed() is None
    finally:
        gc.enable()


def test_slab_threads_follow_the_cpus_the_process_may_use(monkeypatch):
    """Unpatched, the slabs of a batch run on as many threads as the process
    has CPUs in its affinity mask, at most one per slab (one under
    `taskset -c 0`), and give the unslabbed bytes."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert engine._cpus() == cpus
    net = _calibrated_folded()
    x = _batch(net, n=4 * _slab(net, np.float32), seed=10)
    run_inference(net, x)
    threads = _conv_threads(monkeypatch)
    run_inference(net, x)
    assert len(threads) == min(cpus, 4)
    _slabbed_exactly(net, x)


def test_without_an_affinity_mask_the_slabs_follow_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert engine._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert engine._cpus() == 1


def _counted_builds(monkeypatch):
    """Every plan step built, counted per layer name, and the names of those
    built outside a _compile on the building thread (which a run of a plan
    should never do)."""
    builds, outside, compiling = collections.Counter(), [], threading.local()
    compile_ = engine._compile

    def compile_counted(*args):
        compiling.on = True
        try:
            return compile_(*args)
        finally:
            compiling.on = False

    def counted(build):
        def counting(layer, *args):
            builds.update([layer.name])
            if not getattr(compiling, "on", False):
                outside.append(layer.name)
            return build(layer, *args)
        return counting

    monkeypatch.setattr(engine, "_compile", compile_counted)
    for kind, build in list(engine._STEPS.items()):
        monkeypatch.setitem(engine._STEPS, kind, counted(build))
    return builds, outside


def _built(plan):
    """The layer names of a plan's steps that do work, each counted once."""
    return collections.Counter(name for forward, _, name, _ in plan.steps
                               if forward is not engine._pass_through)


def test_slab_threads_under_a_short_switch_interval(monkeypatch):
    """One to more slab threads than CPUs, switching every microsecond, on
    fresh plans and built ones: each step is built once, inside _compile, no
    run builds one, and the bytes are the unslabbed ones."""
    net = _calibrated_folded()
    x = _batch(net, n=6 * _slab(net, np.float32), seed=11)
    whole = _unslabbed(net, x)
    builds, outside = _counted_builds(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(engine, "_cpus", lambda: workers)
            builds.clear()
            g = copy_graph(net)
            for _ in range(2):
                assert run_inference(g, x).tobytes() == whole.tobytes()
            assert builds == _built(g.plan) and set(builds.values()) == {1}
    finally:
        sys.setswitchinterval(interval)
    assert not outside


def test_concurrent_callers_share_one_whole_plan(monkeypatch):
    """Four threads call run_inference at once on one graph with no plan,
    switching every microsecond: every call gives the bytes of one
    unslabbed pass, and the graph ends with a plan _compile returned, its
    steps as they were returned."""
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    net = _calibrated_folded()
    x = _batch(net, n=3 * _slab(net, np.float32), seed=13)
    whole = _unslabbed(net, x)
    assert net.plan is None
    compiled, compile_ = [], engine._compile

    def compile_recorded(*args):
        plan = compile_(*args)
        compiled.append((plan, plan.steps))
        return plan

    monkeypatch.setattr(engine, "_compile", compile_recorded)
    results, errors = [None] * 4, []

    def call(i):
        try:
            results[i] = run_inference(net, x)
        except Exception as error:  # reported below, on the test's thread
            errors.append(error)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert errors == []
    assert all(out.tobytes() == whole.tobytes() for out in results)
    assert any(net.plan is plan and plan.steps is steps for plan, steps in compiled)


def test_a_non_finite_last_weight_fails_the_compile_on_the_calling_thread(monkeypatch):
    """A nan in the weights of the last weighted layer raises while the call
    compiles its plan, on the calling thread: no slab runs (the compile's
    zero-image pass is all that reaches a conv), no thread starts and the
    graph keeps no plan."""
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    net = _calibrated_folded()
    fc = net.layers[-1]
    assert fc.kind == "affine" and fc.weight_quant.enabled and net.plan is None
    w = fc.params.weights.copy()
    w.flat[0] = np.nan
    fc.params.weights = w
    x = _batch(net, n=3 * _slab(net, np.float32), seed=12)
    compiling, compile_ = [], engine._compile

    def compile_recorded(*args):
        compiling.append(threading.get_ident())
        return compile_(*args)

    monkeypatch.setattr(engine, "_compile", compile_recorded)
    seen = _layer_batches(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^affine: non-finite values in weights$") as raised:
        run_inference(net, x)
    assert threading.active_count() == threads
    assert compiling == [threading.get_ident()]
    assert any(entry.name == "_compile" for entry in raised.traceback)
    assert seen and {k for _, k in seen} == {0} and net.plan is None


@pytest.mark.parametrize("fresh", [True, False])
def test_a_slab_that_fails_on_a_helper_thread_fails_as_on_one(fresh, monkeypatch):
    """A nan in the last image of a four-slab batch fails the call with the
    error and message of one thread, whether the plan is fresh or built;
    every helper thread has ended when the call raises, the next clean call
    gives the unslabbed bytes, and a fresh plan builds each step once."""
    net = _calibrated_folded()
    slab = _slab(net, np.float32)
    x = _batch(net, n=3 * slab + 1, seed=9)
    bad = x.copy()
    bad[-1, 0, 0, 0] = np.nan
    whole = _unslabbed(net, x)
    (builds, outside), conv_threads = _counted_builds(monkeypatch), _conv_threads(monkeypatch)
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_cpus", lambda: workers)
        g = copy_graph(net)
        if not fresh:
            run_inference(g, x)
        builds.clear()
        conv_threads.clear()
        threads = threading.active_count()
        with pytest.raises(ValueError) as raised:
            run_inference(g, bad)
        assert threading.active_count() == threads
        errors.append((type(raised.value), str(raised.value)))
        assert len(conv_threads) == workers
        assert run_inference(g, x).tobytes() == whole.tobytes()
        assert threading.active_count() == threads
        if fresh:
            assert builds == _built(g.plan) and set(builds.values()) == {1}
        else:
            assert not builds
    assert not outside
    assert errors[0] == errors[1] == (ValueError, "conv2d: non-finite values in x")


def _evaluate_per_batch(graph, images, labels, batch_size=64):
    """Accuracy summed over one run_inference call per batch of 64."""
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        logits = run_inference(graph, images[lo:lo + batch_size])
        hits += int((np.argmax(logits, axis=1) == labels[lo:lo + batch_size]).sum())
    return hits / images.shape[0]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_evaluate_matches_the_per_batch_loop(name):
    q = _calibrated_4bit(BUILDERS[name](seed=2), fold=name != "residual_net")
    x = _batch(q, n=150, seed=5)
    # Half the labels are the net's own answers, so the accuracy is not near 0.
    labels = np.random.default_rng(6).integers(0, 4, 150)
    labels[::2] = np.argmax(run_inference(q, x), axis=1)[::2]
    acc = engine.evaluate(q, x, labels)
    assert type(acc) is float and acc == _evaluate_per_batch(q, x, labels)
    assert 0.5 <= acc < 1


def test_evaluate_names_an_empty_split():
    net = build_small_convnet(seed=2)
    with pytest.raises(ValueError, match="^evaluate: no images to evaluate$"):
        engine.evaluate(net, _batch(net, n=0), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("labels", [np.array([1]), np.ones((5, 1), np.int64), np.ones(6, np.int64),
                                    np.int64(1)], ids=["one", "column", "too_many", "scalar"])
def test_evaluate_names_labels_that_are_not_one_per_image(labels):
    """Labels of shape (1,) or (5, 1) broadcast against 5 predictions: the
    first compared every prediction with one label, and the second compared
    25 pairs, so the accuracy it divided by 5 could exceed 1."""
    net = build_small_convnet(seed=2)
    x = _batch(net, n=5)
    shape = re.escape(str(np.shape(labels)))
    with pytest.raises(ValueError, match=rf"^evaluate: labels of shape {shape} for images of "
                                         r"shape \(5, 3, 8, 8\); expected one class id per "
                                         r"image, shape \(5,\)$"):
        engine.evaluate(net, x, labels)


# --- values a point quantized are not checked again ---------------------------

CHECKING_OPS = ("conv2d_forward", "depthwise_conv2d_forward", "affine_forward")
QUANTIZED_NETS = {
    "ds_convnet_folded_4bit": lambda: _calibrated_4bit(build_ds_convnet(blocks=3, seed=5)),
    "residual_net_4bit": lambda: _calibrated_4bit(BUILDERS["residual_net"](seed=9), fold=False),
}


def _passes(net, x):
    """The bytes of a streamed inference, of an inference trace and of a
    training trace with range updates (on a copy, which the latter mutates)."""
    training = forward_graph(copy_graph(net), x, training=True, update_ranges=True)
    return [run_inference(net, x).tobytes()] + [
        {name: out.tobytes() for name, out in trace.outputs.items()}
        for trace in (forward_graph(net, x), training)]


@pytest.mark.parametrize("name", sorted(QUANTIZED_NETS))
def test_unchecked_quantized_inputs_change_no_byte(name, monkeypatch):
    net = QUANTIZED_NETS[name]()
    x = _batch(net, seed=7)
    skipping = _passes(net, x)

    def checking(op):
        def wrapped(*args, check_x=True, **kwargs):
            return op(*args, **kwargs)
        return wrapped

    for op in CHECKING_OPS:
        monkeypatch.setattr(T, op, checking(getattr(T, op)))
    monkeypatch.setattr(engine, "quantize", checking(engine.quantize))
    assert _passes(net, x) == skipping


OP_NAMES = {"conv": "conv2d", "depthwise_conv": "depthwise_conv2d", "affine": "affine"}


def _counting_checks(monkeypatch):
    """(op, sorted names of the checked arrays) of every ensure_finite call."""
    checks = []
    original = T.ensure_finite

    def counting(op, **arrays):
        checks.append((op, sorted(arg for arg, a in arrays.items() if a is not None)))
        return original(op, **arrays)

    monkeypatch.setattr(T, "ensure_finite", counting)
    return checks


@pytest.mark.parametrize("name", sorted(QUANTIZED_NETS))
@pytest.mark.parametrize("keep_outputs", [False, True])
def test_only_unquantized_inputs_are_checked(name, keep_outputs, monkeypatch):
    """Every conv-like layer checks its master weights before its weight
    point derives their range, then the quantized weights (and bias) when
    it prepares, which an inference pass does once per plan: the compile
    checks them, and no pass that runs the plan checks them again. Only the
    stem checks its input, on every pass, since every other one reads an
    applying activation point (or, in residual_net, a junction, whose sum is
    checked)."""
    net = QUANTIZED_NETS[name]()
    layers = net.layers
    assert all(act_point_applies(l.params) for l in layers if l.kind == "quant_point")
    weighted = [i for i, l in enumerate(layers) if l.kind in OP_NAMES]
    checked_x = [i for i in weighted if i == 0 or layers[i - 1].kind != "quant_point"]
    assert checked_x[0] == 0 and layers[0].kind == "conv"
    checks = _counting_checks(monkeypatch)
    x = _batch(net)
    engine._plan(net, x, keep_outputs)  # the compile, with its zero-image pass
    weight_checks = [op for op, arrays in checks if "weights" in arrays]
    assert weight_checks == [OP_NAMES[layers[i].kind] for i in weighted for _ in range(2)]
    for _ in range(2):
        checks.clear()
        forward_graph(net, x, keep_outputs=keep_outputs)
        weight_checks = [op for op, arrays in checks if "weights" in arrays]
        x_checks = [op for op, arrays in checks if arrays == ["x"]]
        assert len(checks) == len(weight_checks) + len(x_checks)
        assert weight_checks == []
        assert x_checks == [OP_NAMES[layers[i].kind] for i in checked_x]


@pytest.mark.parametrize("name", sorted(QUANTIZED_NETS))
def test_run_inference_checks_what_a_streamed_trace_checks(name, monkeypatch):
    """The affine runs after the slabs are gathered and still skips the
    check of the input its activation point quantized, whether the pass
    compiles its plan (a graph with none) or runs the one it has. A pass
    that compiles checks every layer's weights and bias, and the inputs its
    zero-image pass reaches, before it checks any of its own input."""
    net = QUANTIZED_NETS[name]()
    x = _batch(net)
    assert _slab(net, x.dtype) >= len(x)
    assert net.plan is None  # its ranges were set in training only
    checks = _counting_checks(monkeypatch)

    def passes(run):
        """The checks of a first pass on a copy of net and of a second one."""
        graph = copy_graph(net)
        found = []
        for _ in range(2):
            checks.clear()
            run(graph, x)
            found.append(checks[:])
        return found

    streamed = passes(lambda graph, x: forward_graph(graph, x, keep_outputs=False))
    assert passes(run_inference) == streamed
    first, second = streamed
    compiled = first[:-len(second)]
    assert second and first[-len(second):] == second
    assert [check for check in compiled if "weights" in check[1]][-1] == ("affine",
                                                                          ["bias", "weights"])
    assert [check for check in compiled if "weights" not in check[1]] == second
    assert all(arrays == ["x"] for _, arrays in second)


def _counting_quantize_checks(monkeypatch):
    """The shape of every array quantize checks for non-finite values."""
    shapes = []
    original = quantization.ensure_finite

    def counting(op, **arrays):
        shapes.append(arrays["x"].shape)
        return original(op, **arrays)

    monkeypatch.setattr(quantization, "ensure_finite", counting)
    return shapes


def test_points_with_a_bounded_input_are_not_checked(monkeypatch):
    """In the folded net every point but the first reads a conv that reads
    a point, so its input is bounded and goes unchecked in inference; the
    first reads the graph input through the stem and checks it. Training
    follows the same rule, so it checks the first point's input only, and
    every weight tensor it quantizes, once per forward."""
    net = QUANTIZED_NETS["ds_convnet_folded_4bit"]()
    points = [l.name for l in net.layers if l.kind == "quant_point"]
    assert net.layers[2].name == points[0] and len(points) > 3
    x = _batch(net, n=5)
    shapes = infer_shapes(net)
    run_inference(net, x)  # compiles, quantizing the weights
    checked = _counting_quantize_checks(monkeypatch)
    for run in (run_inference, lambda g, x: forward_graph(g, x, keep_outputs=False)):
        checked.clear()
        run(net, x)
        assert checked == [(5,) + shapes[points[0]]]
    checked.clear()
    forward_graph(net, x, training=True)
    activations = [s for s in checked if s[0] == 5]
    assert activations == [(5,) + shapes[points[0]]]
    assert len(checked) - len(activations) == sum(l.weight_quant is not None for l in net.layers)


def test_a_point_whose_grid_overflows_fails_at_the_point():
    """The affine after pool_q does not check its input again, so a range
    whose float32 grid overflows (valid in float64, so the graph accepts
    it) must fail in the point rather than reach the logits."""
    net = QUANTIZED_NETS["ds_convnet_folded_4bit"]()
    point = net.layer("pool_q").params
    point.cfg = replace(point.cfg, m=-3e38, M_up=3e38)
    net.validate()
    with pytest.raises(QuantRangeError, match=r"\[-3e\+38, 3e\+38\] at 4 bits overflows float32"):
        run_inference(net, _batch(net))


def test_a_conv_with_huge_weights_behind_a_point_is_checked_after():
    """A bounded input does not bound a conv's output: with weights of
    +-3e38 the products overflow, +inf meets -inf and relu6 passes the nan,
    so the point after the conv must check its input and raise rather than
    send the nan to the logits."""
    net = QUANTIZED_NETS["ds_convnet_folded_4bit"]()
    x = _batch(net)
    run_inference(net, x)
    layer = next(l for l in net.layers[1:] if l.kind == "conv")
    assert net.layers[net.index(layer.name) - 1].kind == "quant_point"
    layer.weight_quant.enabled = False
    w = np.full_like(layer.params.weights, 3e38)
    w[:, 1::2] = -3e38
    layer.params.weights = w
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="quantize: non-finite values in x"):
        run_inference(net, x)


# An inference pass and a training forward, each given (graph, x).
BOTH_MODES = pytest.mark.parametrize(
    "run", [run_inference, lambda g, x: forward_graph(g, x, training=True)],
    ids=["inference", "training"])


@BOTH_MODES
def test_a_conv_that_overflows_behind_a_point_is_checked_after_its_relu(run):
    """Training skips the checks inference skips, so the conv after relu1_q
    does not check its input; with weights of 3e38 its output is not
    bounded, and the +inf that relu passes (or, in inference, that reaches
    the point absorbing relu) must make relu2_q check its input and raise
    rather than clamp the +inf to its range."""
    net = _calibrated_4bit(build_small_convnet(seed=3))
    conv2 = net.layer("conv2")
    assert [l.name for l in net.layers[2:6]] == ["relu1_q", "conv2", "relu2", "relu2_q"]
    conv2.weight_quant.enabled = False
    conv2.params.weights = np.full_like(conv2.params.weights, 3e38)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^quantize: non-finite values in x$"):
        run(net, _batch(net))


def _bias_overflow_net():
    """A point whose output lies in [0, 1e19], a 1x1 conv whose product
    stays below half of float32's largest value but whose bias takes the
    sum past it, and a point after the conv. (A weight above about 1.8e19
    would overflow the float32 norm the bound is computed from, and leave
    the conv unbounded whatever its bias.)"""
    def point(M):
        return QuantPoint(cfg=QuantConfig(bits=4, m=0.0, M_up=M, initialized=True))

    conv = WeightParams(np.full((1, 1, 1, 1), 1.6e19, np.float32), np.full(1, 2e38, np.float32))
    return ModelGraph(layers=[LayerSpec("in_q", "quant_point", point(1e19)),
                              LayerSpec("k", "conv", conv),
                              LayerSpec("out_q", "quant_point", point(1.0))],
                      input_shape=(1, 2, 2))


@BOTH_MODES
def test_a_bias_that_overflows_a_conv_behind_a_point_is_checked_after(run):
    """The conv's bound counts its bias: 1.6e19 * 1e19 + 2e38 overflows
    float32, so the point after it must check its input, where the clamp
    would turn the +inf into 1.0 without a word."""
    net = _bias_overflow_net()
    net.validate()
    x = np.full((1, 1, 2, 2), 1e19, np.float32)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="^quantize: non-finite values in x$"):
        run(net, x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["stem", "dw2", "pw2", "fc"])
def test_non_finite_master_weights_behind_a_weight_point_are_named(name, value):
    """An enabled weight point derives its range from the master weights, so
    a nan or an infinity there raises the op's own non-finite ValueError in
    training and in inference, as the layer does unquantized, and
    check_weight_ranges names the layer and the non-finite tensor."""
    net = QUANTIZED_NETS["ds_convnet_folded_4bit"]()
    layer = net.layer(name)
    assert layer.weight_quant.enabled
    w = layer.params.weights.copy()
    w.flat[3] = value
    layer.params.weights = w
    x = _batch(net)
    labels = np.arange(len(x)) % net.layers[-1].params.weights.shape[1]
    for run in (run_inference, lambda g, x: loss_and_grads(g, x, labels)):
        with pytest.raises(ValueError, match=f"^{OP_NAMES[layer.kind]}: non-finite values in "
                                             "weights$"):
            run(copy_graph(net), x)
    with pytest.raises(QuantRangeError, match=f"^layer '{name}': weight tensor holds "
                                              "non-finite values"):
        quantization.check_weight_ranges(net)


def test_a_non_finite_range_update_names_the_input_and_keeps_the_range():
    """With conv1's weights at 3e38 its output is +inf, which relu passes;
    relu1_q's range update raises quantize's non-finite ValueError, and the
    point keeps its range rather than taking [0, inf]."""
    net = insert_quant_points(fold_bn_graph(build_small_convnet(seed=3)), 4, 4)
    conv1 = net.layer("conv1")
    conv1.params.weights = np.full_like(conv1.params.weights, 3e38)
    point = net.layer("relu1_q").params
    cfg = point.cfg
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="^quantize: non-finite values in x$"):
        forward_graph(net, np.ones((2,) + net.input_shape, np.float32), training=True,
                      update_ranges=True)
    assert point.cfg is cfg and not cfg.initialized


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "+inf"])
@pytest.mark.parametrize("initialized", [False, True])
def test_a_range_update_on_a_non_finite_input_changes_no_range(value, initialized):
    """A point on the graph input updates its range before anything checks
    the input: a nan or +inf raises there, and the range stays as it was
    (a nan range used to pass the input through unquantized)."""
    cfg = QuantConfig(bits=4, m=0.0, M_up=1.0 if initialized else 0.0, initialized=initialized)
    net = ModelGraph(layers=[LayerSpec("in_q", "quant_point", QuantPoint(cfg)),
                             LayerSpec("k", "conv", WeightParams(np.ones((1, 1, 1, 1), np.float32)))],
                     input_shape=(1, 2, 2))
    x = np.zeros((1, 1, 2, 2), np.float32)
    x[0, 0, 1, 1] = value
    with pytest.raises(ValueError, match="^quantize: non-finite values in x$"):
        forward_graph(net, x, training=True, update_ranges=True)
    assert net.layer("in_q").params.cfg is cfg


@pytest.mark.parametrize("training", [False, True])
def test_bn_leaves_its_output_unbounded(training):
    """BN divides by a deviation (the batch's, or the running one), so its
    output is unbounded whatever bounds its input: with a gamma of 3e38 the
    BN after conv2, which reads relu1_q, overflows, and relu2_q must check
    its input and raise rather than clamp what relu passes."""
    net = _calibrated_4bit(build_small_convnet(seed=3), fold=False)
    assert [l.name for l in net.layers[3:8]] == ["relu1_q", "conv2", "bn2", "relu2", "relu2_q"]
    bn = net.layer("bn2")
    bn.params = replace(bn.params, gamma=np.full_like(bn.params.gamma, 3e38))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^quantize: non-finite values in x$"):
        forward_graph(net, _batch(net), training=training)


def test_inference_does_not_refuse_an_overflow_a_clamp_hides():
    """The one asymmetry of the finite-check rule between the modes. With
    pw1_bn's gamma at 3e38 on a 1e30-scaled batch, pw1_bn overflows to
    +-inf on its running statistics and relu6 clamps it, so inference gives
    finite logits; on batch statistics pw1_bn gives nan (a zero-variance
    channel times an infinite scale), which relu6 passes and dw2 refuses."""
    net = build_ds_convnet(width=8, blocks=2, seed=0)
    bn = net.layer("pw1_bn")
    bn.params = replace(bn.params, gamma=np.full_like(bn.params.gamma, 3e38))
    data = make_synthetic(4, 2, net.input_shape, seed=0)
    x = data.images * np.float32(1e30)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = forward_graph(net, x)
        assert not np.isfinite(trace.outputs["pw1_bn"]).all()
        for logits in (run_inference(net, x), trace.outputs["fc"]):
            assert np.isfinite(logits).all()
        with pytest.raises(ValueError, match="^depthwise_conv2d: non-finite values in x$"):
            loss_and_grads(net, x, data.labels)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("fold", [True, False], ids=["folded", "bn_live"])
def test_skipped_checks_change_no_byte_of_a_training_step(name, fold, monkeypatch):
    """A QAT forward and backward with range updates gives the bytes of one
    in which no bound holds, so every step checks its input."""
    net = _calibrated_4bit(BUILDERS[name](seed=6), fold=fold)
    x = _batch(net, n=5, seed=3)
    labels = np.arange(len(x)) % net.layers[-1].params.weights.shape[1]

    def step():
        graph = copy_graph(net)
        loss, logits, grads, stats = loss_and_grads(graph, x, labels, update_ranges=True)
        ranges = [(l.params.cfg.m, l.params.cfg.M_up) for l in graph.layers
                  if l.kind == "quant_point"]
        return (np.float64(loss).tobytes(), logits.tobytes(),
                {k: {f: g.tobytes() for f, g in v.items()} for k, v in grads.items()},
                {k: (v.mu.tobytes(), v.sigma2.tobytes()) for k, v in stats.items()}, ranges)

    skipping = step()
    monkeypatch.setattr(engine, "_bounded", lambda bound, dtype: False)
    assert step() == skipping


@pytest.mark.parametrize("how", ["disabled", "uninitialized", "collapsed"])
@pytest.mark.parametrize("kind, op", [("conv", "conv2d"), ("depthwise_conv", "depthwise_conv2d")])
def test_a_conv_behind_a_pass_through_point_checks_its_input(how, kind, op):
    point = QuantPoint(enabled=how != "disabled",
                       cfg=QuantConfig(bits=4, m=0.0, M_up=0.0 if how == "collapsed" else 6.0,
                                       initialized=how != "uninitialized"))
    assert not act_point_applies(point)
    params = (WeightParams(np.ones((2, 2, 3, 3), np.float32)) if kind == "conv"
              else WeightParams(np.ones((2, 1, 3, 3), np.float32)))
    net = ModelGraph(layers=[LayerSpec("in_q", "quant_point", point),
                             LayerSpec("k", kind, params, padding=(1, 1))], input_shape=(2, 4, 4))
    x = np.ones((1, 2, 4, 4), np.float32)
    x[0, 1, 2, 2] = np.inf
    for run in (run_inference, forward_graph):
        with pytest.raises(ValueError, match=f"^{op}: non-finite values in x$"):
            run(net, x)


def test_backward_rejects_an_inference_trace():
    net = build_small_convnet(seed=1)
    x = _batch(net)
    trace = forward_graph(net, x)
    with pytest.raises(ValueError, match=f"{CONSUMED}; got an inference-mode trace"):
        backward_graph(net, trace, np.ones((len(x), 4), np.float32))


def test_backward_rejects_a_consumed_trace():
    net = build_small_convnet(seed=1)
    x = _batch(net)
    trace = forward_graph(net, x, training=True)
    grad = np.ones_like(trace.outputs[net.layers[-1].name])
    backward_graph(net, trace, grad)
    assert not trace.caches and not trace.outputs
    with pytest.raises(ValueError, match=f"{CONSUMED}; got a consumed trace"):
        backward_graph(net, trace, grad)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_first_layer_skips_only_the_input_gradient(name, monkeypatch):
    """backward_graph computes no gradient for the graph input, and the
    parameter gradients are byte for byte those of a full backward: the same
    net behind a relu, which passes the positive batch through unchanged,
    makes its first layer compute the input gradient too."""
    net = BUILDERS[name](seed=6)
    x = np.abs(_batch(net)) + np.float32(0.5)
    labels = np.arange(len(x)) % net.layers[-1].params.weights.shape[1]
    lead = ModelGraph(layers=[LayerSpec("lead", "relu")] + copy_graph(net).layers,
                      input_shape=net.input_shape)
    asked = []

    def recording(op):
        def wrapped(*args, input_grad=True, **kwargs):
            asked.append(input_grad)
            return op(*args, input_grad=input_grad, **kwargs)
        return wrapped

    for op in ("conv2d_backward", "depthwise_conv2d_backward"):
        monkeypatch.setattr(T, op, recording(getattr(T, op)))
    _, _, grads, _ = loss_and_grads(net, x, labels)
    assert asked[-1] is False and all(asked[:-1])  # layer 0 is a conv in every builder
    asked.clear()
    _, _, full, _ = loss_and_grads(lead, x, labels)
    assert all(asked)
    assert sorted(full) == sorted(grads)
    for layer, fields in grads.items():
        for field, g in fields.items():
            assert g.tobytes() == full[layer][field].tobytes(), (layer, field)


DEPTH = 24


def _relu_chain():
    """A 1x1 conv (its im2col matrix is a view of the input), DEPTH
    alternating relu/relu6 layers, pooling and an affine, in float64."""
    rng = np.random.default_rng(0)
    layers = [LayerSpec("conv", "conv", WeightParams(rng.standard_normal((16, 2, 1, 1))))]
    layers += [LayerSpec(f"act{i}", ("relu", "relu6")[i % 2]) for i in range(DEPTH)]
    layers += [LayerSpec("pool", "global_avg_pool"),
               LayerSpec("fc", "affine", WeightParams(rng.standard_normal((16, 4)), None))]
    return ModelGraph(layers=layers, input_shape=(2, 16, 16))


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_inference_and_training_on_a_deep_chain():
    graph = _relu_chain()
    x = np.random.default_rng(1).standard_normal((32, 2, 16, 16))
    labels = np.arange(32) % 4
    activation = 32 * 16 * 16 * 16 * 8  # bytes of one (32, 16, 16, 16) float64 tensor

    # Streaming holds the current input and output; a full trace holds all 25.
    assert _peak_bytes(run_inference, graph, x) <= 3 * activation

    # Backward frees each cache and gradient at its last use, so training
    # adds a few activations to the forward pass's peak, not one per layer.
    forward_peak = _peak_bytes(forward_graph, graph, x, training=True)
    assert forward_peak >= DEPTH * activation
    assert _peak_bytes(loss_and_grads, graph, x, labels) <= forward_peak + 3 * activation


def _cached_arrays(cache):
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from _cached_arrays(item)
    elif hasattr(cache, "__dataclass_fields__"):
        yield from _cached_arrays(tuple(vars(cache).values()))


def test_bn_output_dies_at_its_activation():
    """relu6 caches its output, which the next layer holds anyway, so no
    cache keeps the BN output alive until backward."""
    rng = np.random.default_rng(2)
    graph = ModelGraph(layers=[
        LayerSpec("conv", "conv", WeightParams(rng.standard_normal((4, 2, 3, 3)).astype(np.float32)),
                  padding=(1, 1)),
        LayerSpec("bn", "bn", init_bn(4)),
        LayerSpec("act", "relu6"),
    ], input_shape=(2, 5, 5))
    trace = forward_graph(graph, _batch(graph), training=True)
    bn_out = trace.outputs["bn"]
    cached = [a for cache in trace.caches.values() for a in _cached_arrays(cache)]
    assert len(cached) == 6  # conv input, weights; BN centered, inv_std, gamma; relu6 output
    assert not any(np.shares_memory(a, bn_out) for a in cached)


def _folded_4bit_ds_convnet(x):
    """ds_convnet (1 block, width 16, 16x16) folded, with enabled 4-bit weight
    and activation points calibrated on x; the unfolded net is returned too."""
    net = build_ds_convnet(input_shape=(3, 16, 16), width=16, blocks=1, seed=5)
    forward_graph(net, x, training=True)
    q = insert_quant_points(fold_bn_graph(net), 4, 4, act_enabled=True, weight_enabled=True)
    forward_graph(q, x, training=True, update_ranges=True)
    return net, q


# One (16, 16, 16, 16) float32 tensor: an activation of the full-resolution layers.
WIDE_ACTIVATION = 16 * 16 * 16 * 16 * 4


def test_peak_memory_of_a_folded_4bit_inference():
    """Each activation writes into the conv output it reads, or is absorbed,
    and each point quantizes in place, so a block holds one array where it
    held three. Measured: 4.01 activations before the ownership rule, 3.14
    with it (the depthwise forward's input, output and product temporary)."""
    x = _batch(build_ds_convnet(input_shape=(3, 16, 16)), n=16)
    _, q = _folded_4bit_ds_convnet(x)
    run_inference(q, x)  # compiles the plan
    assert _peak_bytes(run_inference, q, x) <= 3.5 * WIDE_ACTIVATION


def test_peak_memory_of_a_training_step():
    """BN writes its centered input into the conv output and each activation
    into the BN output. Measured: 12.66 activations before the ownership
    rule, 11.53 with it."""
    x = _batch(build_ds_convnet(input_shape=(3, 16, 16)), n=16)
    net, _ = _folded_4bit_ds_convnet(x)
    labels = np.arange(16) % 4
    loss_and_grads(net, x, labels)
    assert _peak_bytes(loss_and_grads, net, x, labels) <= 12.1 * WIDE_ACTIVATION


# --- the plan -------------------------------------------------------------------

PREPARES = ("conv2d_prepare", "depthwise_conv2d_prepare", "affine_prepare")


def _weight_quantized_net():
    net = insert_quant_points(build_small_convnet(seed=3), 4, 4, weight_enabled=True)
    forward_graph(net, _batch(net), training=True, update_ranges=True)
    return net


def _fresh(graph, x):
    """run_inference on a copy of graph, which compiles its own plan."""
    g = copy_graph(graph)
    assert g.plan is None
    return run_inference(g, x)


@pytest.fixture
def range_calls(monkeypatch):
    """The bits of every weight range derived (a compile derives one per
    layer with an enabled weight point)."""
    calls = []
    original = engine.weight_range_cfg
    monkeypatch.setattr(engine, "weight_range_cfg",
                        lambda w, bits: calls.append(bits) or original(w, bits))
    return calls


@pytest.fixture
def prepares(monkeypatch):
    """The name of every prepare call, each with the per-image shape and
    dtype it was made for (a compile makes one per weighted layer)."""
    calls = []

    def counting(name, op):
        def wrapped(*args):
            image = args[-1] if name == "affine_prepare" else args[-2]
            dtype = None if name == "affine_prepare" else np.dtype(args[-1]).name
            calls.append((name, tuple(image), dtype))
            return op(*args)
        return wrapped

    for name in PREPARES:
        monkeypatch.setattr(T, name, counting(name, getattr(T, name)))
    return calls


SMALL_PREPARES = ["conv2d_prepare", "conv2d_prepare", "affine_prepare"]


def test_plan_serves_unchanged_parameters(range_calls, prepares):
    net = _weight_quantized_net()
    x = _batch(net)
    range_calls.clear()
    prepares.clear()
    first = run_inference(net, x)
    assert len(prepares) == 3 and len(range_calls) == 3
    plan = net.plan
    range_calls.clear()
    prepares.clear()
    again = run_inference(net, x)
    inference_trace = forward_graph(net, x, keep_outputs=False).outputs["fc"]
    assert range_calls == [] and prepares == [] and net.plan is plan
    assert again.tobytes() == first.tobytes() == _fresh(net, x).tobytes()
    assert inference_trace.tobytes() == first.tobytes()


def test_plan_follows_an_sgd_step(range_calls, prepares):
    net = _weight_quantized_net()
    x = _batch(net)
    run_inference(net, x)
    _, _, grads, _ = loss_and_grads(net, x, np.arange(len(x)) % 4)
    sgd_step(net, grads, OptimizerState(momentum=0.9), 0.1)
    range_calls.clear()
    prepares.clear()
    out = run_inference(net, x)
    assert len(range_calls) == len(prepares) == 3  # conv1, conv2 and fc got new weight arrays
    assert out.tobytes() == _fresh(net, x).tobytes()


def test_plan_follows_a_change_of_bits(range_calls):
    net = _weight_quantized_net()
    x = _batch(net)
    before = run_inference(net, x)
    point = net.layer("conv1").weight_quant
    point.cfg = replace(point.cfg, bits=2)
    range_calls.clear()
    out = run_inference(net, x)
    assert range_calls == [2, 4, 4]
    assert out.tobytes() == _fresh(net, x).tobytes() != before.tobytes()


@pytest.mark.parametrize("where", [(0, 0, 0, 0), (3, 1, 1, 2)])
def test_plan_follows_an_in_place_write(where, range_calls):
    net = _weight_quantized_net()
    x = _batch(net)
    before = run_inference(net, x)
    w = net.layer("conv2").params.weights
    w[where] += np.float32(0.75) * (w.max() - w.min())
    range_calls.clear()
    out = run_inference(net, x)
    assert range_calls == [4, 4, 4]
    assert out.tobytes() == _fresh(net, x).tobytes() != before.tobytes()


def test_plan_follows_an_in_place_write_to_a_bias(range_calls, prepares):
    net = _weight_quantized_net()
    x = _batch(net)
    before = run_inference(net, x)
    net.layer("fc").params.bias[1] += np.float32(2.5)
    range_calls.clear()
    prepares.clear()
    out = run_inference(net, x)
    assert [name for name, *_ in prepares] == SMALL_PREPARES and range_calls == [4, 4, 4]
    assert out.tobytes() == _fresh(net, x).tobytes() != before.tobytes()


def test_plan_of_a_copied_graph_follows_the_copy(range_calls):
    net = _weight_quantized_net()
    x = _batch(net)
    before = run_inference(net, x)
    copy = copy_graph(net)
    assert copy.plan is None
    copy.layer("conv1").params.weights[0] *= 3
    assert run_inference(copy, x).tobytes() == _fresh(copy, x).tobytes() != before.tobytes()
    range_calls.clear()
    assert run_inference(net, x).tobytes() == before.tobytes()
    assert range_calls == []  # the original's plan still holds


def _unquantized_net():
    """ds_convnet folded, without quant points: unquantized conv, depthwise
    conv and affine layers, every one with a bias."""
    net = build_ds_convnet(blocks=2, seed=4)
    forward_graph(net, _batch(net), training=True)
    return fold_bn_graph(net)


@pytest.mark.parametrize("kind", ["conv", "depthwise_conv", "affine"])
def test_plan_of_unquantized_layers(kind, prepares):
    net = _unquantized_net()
    x = _batch(net)
    weighted = [l for l in net.layers if l.kind in ("conv", "depthwise_conv", "affine")]
    prepares.clear()
    before = run_inference(net, x)
    assert len(prepares) == len(weighted)
    prepares.clear()
    assert run_inference(net, x).tobytes() == before.tobytes() and prepares == []
    layer = next(l for l in weighted if l.kind == kind)
    assert layer.weight_quant is None
    layer.params.weights.flat[3] += np.float32(0.5)
    out = run_inference(net, x)
    assert len(prepares) == len(weighted)
    assert out.tobytes() == _fresh(net, x).tobytes() != before.tobytes()


def test_plan_follows_the_input_extent_and_dtype(prepares):
    net = _unquantized_net()
    stem = net.layers[0].name
    x = _batch(net)
    run_inference(net, x)
    for shape, dtype in [((6, 3, 12, 12), np.float32), ((6, 3, 12, 12), np.float64),
                         ((6, 3, 16, 16), np.float64)]:
        xs = np.random.default_rng(5).standard_normal(shape).astype(dtype)
        prepares.clear()
        out = run_inference(net, xs)
        assert prepares[0] == ("conv2d_prepare", shape[1:], np.dtype(dtype).name)
        assert net.layer(stem).params.weights.dtype == np.float32 and out.dtype == dtype
        assert out.tobytes() == _fresh(net, xs).tobytes()
        prepares.clear()
        assert run_inference(net, xs).tobytes() == out.tobytes() and prepares == []


def _calibrated_folded():
    return _calibrated_4bit(build_ds_convnet(blocks=2, seed=3))


def _replace_cfg(net):
    point = net.layer("dw1_act_q").params
    point.cfg = replace(point.cfg, M_up=point.cfg.M_up / 3)


def _set_cfg(field, value):
    def edit(net):
        cfg = net.layer("dw1_act_q").params.cfg
        setattr(cfg, field, value(cfg))
    return edit


def _disable(target):
    def edit(net):
        layer = net.layer(target)
        (layer.params if layer.kind == "quant_point" else layer.weight_quant).enabled = False
    return edit


def _edit_geometry(field, value, as_list):
    def edit(net):
        layer = net.layer("dw1")
        if as_list:  # a pair held as a list and written in place after the compile
            current = getattr(layer, field)
            current[:] = value
        else:
            setattr(layer, field, value)
    return edit


def _insert_relu(net):
    """A relu on the logits, the one place in the net where it acts."""
    net.layers.insert(len(net.layers), LayerSpec("fc_relu", "relu"))


def _remove_point(net):
    del net.layers[net.index("dw1_act_q")]


PLAN_EDITS = {
    "act_cfg_replaced": _replace_cfg,
    "act_m_in_place": _set_cfg("m", lambda cfg: cfg.m + 0.25 * (cfg.M_up - cfg.m)),
    "act_M_up_in_place": _set_cfg("M_up", lambda cfg: cfg.M_up / 2),
    "act_bits_in_place": _set_cfg("bits", lambda cfg: 2),
    "act_point_disabled": _disable("dw1_act_q"),
    "weight_point_disabled": _disable("pw1"),
    "stride_replaced": _edit_geometry("stride", (2, 2), False),
    "padding_replaced": _edit_geometry("padding", (0, 0), False),
    "stride_list_written": _edit_geometry("stride", [2, 1], True),
    "padding_list_written": _edit_geometry("padding", [0, 1], True),
    "layer_inserted": _insert_relu,
    "layer_removed": _remove_point,
}


@pytest.mark.parametrize("edit", sorted(PLAN_EDITS))
def test_plan_follows_an_edited_graph(edit):
    """Each edit after a compile gives the bytes of a fresh copy, which
    compiles its own plan, and different bytes from before the edit."""
    net = _calibrated_folded()
    x = _batch(net)
    if edit.endswith("list_written"):
        dw = net.layer("dw1")
        dw.stride, dw.padding = list(dw.stride), list(dw.padding)
    before = run_inference(net, x)
    plan = net.plan
    PLAN_EDITS[edit](net)
    out = run_inference(net, x)
    assert net.plan is not plan
    assert out.tobytes() == _fresh(net, x).tobytes() != before.tobytes()
    trace = forward_graph(net, x, keep_outputs=False).outputs[net.layers[-1].name]
    assert trace.tobytes() == out.tobytes()


def test_a_pass_stopped_part_way_leaves_a_plan_that_still_serves():
    """A plan is built whole at compile, so a pass that a non-finite input
    stops at the stem leaves it as it was: the next pass runs the same plan
    and gives a fresh compile's bytes."""
    net = _calibrated_folded()
    x = _batch(net)
    bad = x.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="conv2d: non-finite values in x"):
        run_inference(net, bad)
    plan = net.plan
    assert run_inference(net, x).tobytes() == _fresh(net, x).tobytes()
    assert net.plan is plan


def test_plan_follows_a_new_input_dtype():
    net = _calibrated_folded()
    x = _batch(net)
    run_inference(net, x)
    plan = net.plan
    x64 = x.astype(np.float64)
    out = run_inference(net, x64)
    assert net.plan is not plan and out.dtype == np.float64
    assert out.tobytes() == _fresh(net, x64).tobytes()


class _CountingGraph(ModelGraph):
    """A ModelGraph whose plan reads and writes are recorded in ACCESSES."""

    ACCESSES = []

    @property
    def plan(self):
        self.ACCESSES.append("read")
        return vars(self)["plan"]

    @plan.setter
    def plan(self, value):
        self.ACCESSES.append("write")
        vars(self)["plan"] = value


def test_a_training_forward_neither_reads_nor_writes_the_plan(prepares, range_calls):
    net = _weight_quantized_net()
    x = _batch(net)
    run_inference(net, x)
    plan = net.plan
    net.__class__ = _CountingGraph
    _CountingGraph.ACCESSES.clear()
    prepares.clear()
    range_calls.clear()
    forward_graph(net, x, training=True, update_ranges=True)
    loss_and_grads(net, x, np.arange(len(x)) % 4)
    assert _CountingGraph.ACCESSES == []
    assert len(range_calls) == 6  # conv1, conv2 and fc, quantized on each training call
    prepares.clear()
    run_inference(net, x)  # BN statistics and point ranges moved: a new plan
    assert _CountingGraph.ACCESSES == ["read", "write"] and len(prepares) == 3
    net.__class__ = ModelGraph
    assert vars(net)["plan"] is not plan


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("quantized", [False, True], ids=["float", "4bit"])
def test_planned_inference_equals_an_unprepared_pass(name, dtype, quantized):
    """run_inference and forward_graph(keep_outputs=False), both running
    the plan on their second call, give the bytes of a pass in which every
    op prepares its own record."""
    net = BUILDERS[name](seed=6, dtype=dtype)
    if quantized:
        net = _calibrated_4bit(net, fold=name != "residual_net")
    else:
        forward_graph(net, _batch(net), training=True)
    x = _batch(net, n=5, seed=9).astype(dtype)
    last = net.layers[-1].name
    with pytest.MonkeyPatch.context() as m:
        for op in CHECKING_OPS:
            m.setattr(T, op, lambda *a, _op=getattr(T, op), prepared=None, **k: _op(*a, **k))
        m.setattr(engine, "quantize",
                  lambda *a, _op=engine.quantize, prepared=None, **k: _op(*a, **k))
        unprepared = forward_graph(copy_graph(net), x, keep_outputs=False).outputs[last]
    for _ in range(2):
        streamed = run_inference(net, x)
        traced = forward_graph(net, x, keep_outputs=False).outputs[last]
        assert streamed.dtype == traced.dtype == unprepared.dtype == dtype
        assert streamed.tobytes() == traced.tobytes() == unprepared.tobytes()


def test_copies_and_loads_start_without_a_plan(tmp_path):
    net = _weight_quantized_net()
    run_inference(net, _batch(net))
    assert net.plan is not None
    assert copy_graph(net).plan is None and not hasattr(copy.deepcopy(net.layers[0]), "plan")
    manifest, _ = save_model(net, tmp_path / "model.json")
    assert load_model(manifest).plan is None
    twin = ModelGraph(layers=net.layers, input_shape=net.input_shape)
    assert twin.plan is None and twin == net and "plan" not in repr(net)


def test_plan_weights_are_read_only_and_unsaved(tmp_path):
    net = _weight_quantized_net()
    trace = forward_graph(net, _batch(net), training=True)
    assert not trace.caches["conv1"][1].flags.writeable  # (input, quantized weights)
    assert not engine._weights(net.layer("conv1")).flags.writeable  # what a compile binds
    run_inference(net, _batch(net))
    manifest, _ = save_model(net, tmp_path / "model.json")
    saved = json.loads(manifest.read_text())
    assert "plan" not in saved
    conv1 = saved["layers"][0]
    assert sorted(conv1["weight_quant"]) == ["M_up", "bits", "ema_momentum", "enabled",
                                            "initialized", "m", "range_policy", "target"]
