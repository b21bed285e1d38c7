"""The benchmark's traced run still sees every per-layer op.

perfbench/spans.py times pfqkit by patching module attributes: the tensor ops
on `tensor_ops`, and the batchnorm and quantization functions on `engine`,
where the engine looks them up. An engine that bound those functions when it
was imported would bypass the patches, and the per-layer metrics would read 0
with no error. This test installs the tracer, runs training and inference
passes that reach every layer kind, and checks that every tensor_ops,
batchnorm and quantization span is recorded and that each such figure of
`layer_metrics` is non-zero. The per-stage workflow figures come from the
order of the workflow's calls, so a traced `run_workflow` must give all
five stages time. The engine's inference plan binds each step's arguments
when it compiles but looks the op up when the step runs, so a traced pass
of a plan compiled untraced still records every op it runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from pfqkit import workflow
from pfqkit.data import bundle_from_datasets, make_synthetic, split_validation
from pfqkit.engine import backward_graph, forward_graph, loss_and_grads, run_inference
from pfqkit.graph import copy_graph, fold_bn_graph
from pfqkit.models import build_ds_convnet, build_small_convnet
from pfqkit.quantization import insert_quant_points
from pfqkit.training import LRSchedule, OptimizerState, train_epochs

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PREFIXES = ("tensor_ops.", "batchnorm.", "quantization.")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _batch(rng, graph, n=4):
    x = rng.standard_normal((n,) + tuple(graph.input_shape))
    return x, rng.integers(0, 4, n)


def _exercise(rng):
    for net in (build_small_convnet(seed=1), build_ds_convnet(blocks=2, seed=2)):
        x, y = _batch(rng, net)
        loss_and_grads(net, x, y)
        run_inference(net, x)

    # The tracer patches insert_quant_points where the workflow binds it.
    quantized = workflow.insert_quant_points(fold_bn_graph(build_ds_convnet(blocks=2, seed=3)),
                                             4, 4, weight_enabled=True)
    x, _ = _batch(rng, quantized)
    forward_graph(quantized, x, training=True, update_ranges=True)  # initializes the ranges
    trace = forward_graph(quantized, x, training=True, update_ranges=True)
    logits = trace.outputs[quantized.layers[-1].name]
    backward_graph(quantized, trace, np.ones_like(logits))


def test_every_per_layer_span_is_recorded():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _exercise(np.random.default_rng(0))
    finally:
        tracer.restore()

    expected = {name for _, _, name in spans.PATCHES if name.startswith(PREFIXES)}
    recorded = {span[0] for span in tracer.spans}
    assert not expected - recorded, f"spans never recorded: {sorted(expected - recorded)}"

    metrics = spans.layer_metrics(tracer.spans, 1)
    zero = sorted(name for name, value in metrics.items()
                  if name.startswith(PREFIXES) and not value > 0)
    assert not zero, f"per-layer metrics that read 0: {zero}"


def _traced_spans(spans, fn, *args):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn(*args)
    finally:
        tracer.restore()
    return tracer.spans


def test_a_compiled_plan_still_reports_every_op():
    spans = _load_spans()
    net = build_ds_convnet(blocks=2, seed=3)
    x, _ = _batch(np.random.default_rng(1), net)
    forward_graph(net, x, training=True)
    q = insert_quant_points(fold_bn_graph(net), 4, 4, act_enabled=True, weight_enabled=True)
    forward_graph(q, x, training=True, update_ranges=True)
    run_inference(q, x)  # compiles the plan, untraced
    plan = q.plan
    recorded = _traced_spans(spans, run_inference, q, x)
    assert q.plan is plan
    names = {span[0] for span in recorded}
    forwards = {name for name in names if name.endswith("_forward")}
    # A traced pass that compiles its own plan runs the same forward ops.
    compiled = {span[0] for span in _traced_spans(spans, run_inference, copy_graph(q), x)}
    assert forwards == {name for name in compiled if name.endswith("_forward")}
    assert forwards >= {f"tensor_ops.{op}_forward"
                        for op in ("conv2d", "depthwise_conv2d", "affine", "global_avg_pool")}
    assert "quantization.quantize" in names
    metrics = spans.layer_metrics(recorded, 1)
    for name in ("tensor_ops.conv2d_forward.ms", "tensor_ops.depthwise_conv2d_forward.ms",
                 "tensor_ops.affine.ms", "quantization.quantize.ms"):
        assert metrics[name] > 0, name


def test_every_workflow_stage_gets_time():
    spans = _load_spans()
    train, test = split_validation(make_synthetic(3, 8, (3, 8, 8), seed=1), 2, seed=2)
    data = bundle_from_datasets(train, None, test)
    net, _ = train_epochs(build_small_convnet(input_shape=(3, 8, 8), class_count=3, width=4,
                                              seed=3, dead_stem_filters=1),
                          data, LRSchedule(0.05, 0, 4), OptimizerState(momentum=0.9),
                          epochs=4, batch_size=8)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workflow.run_workflow(net, data, workflow.WorkflowConfig(epochs_act=1, epochs_weight=1,
                                                                 batch_size=8))
    finally:
        tracer.restore()

    metrics = spans.layer_metrics(tracer.spans, 1)
    stages = [metrics[f"workflow.stage{k}_s"] for k in range(5)]
    assert all(seconds > 0 for seconds in stages), stages
