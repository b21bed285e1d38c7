"""Acceptance checks for the package's headline guarantees.

Every test emits exactly one PASS or FAIL line with the measured figure;
the lines are echoed as a terminal section after the run (see conftest)
so a full pytest invocation ends with a readable checklist. The checks
are end to end: fold equivalence, exact and near-exact pruning
compensation, quantizer algebra, the straight-through gradient contract,
folded-range reduction, the paired workflow ablation, running-statistic
replay, schedule golden values, and the constancy report that motivates
the variance threshold.
"""

import copy
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance_line
from oracles import max_rel_err, numeric_grad, replay_running_stats

from pfqkit import training
from pfqkit.batchnorm import BNParams, bn_forward_infer, fold_bn
from pfqkit.data import bundle_from_datasets, make_synthetic, split_validation
from pfqkit.engine import backward_graph, evaluate, forward_graph, loss_and_grads, run_inference
from pfqkit.graph import (
    LayerSpec,
    ModelGraph,
    WeightParams,
    count_macs,
    dynamic_range_report,
    fold_bn_graph,
    param_count,
)
from pfqkit.models import build_ds_convnet, build_small_convnet
from pfqkit.pruning import (
    apply_pfq,
    channel_constancy_report,
    prune_channels,
    scan_candidates,
)
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
from pfqkit.training import LRSchedule, OptimizerState, lr_at, train_epochs
from pfqkit.workflow import WorkflowConfig, run_workflow

EPS = 1e-5


def _report(label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance_line(line)
    print(line)
    assert ok, line


def _bn(rng, channels):
    return BNParams(
        gamma=rng.uniform(0.5, 1.5, channels),
        beta=rng.standard_normal(channels) * 0.3,
        running_mean=rng.standard_normal(channels) * 0.2,
        running_var=rng.uniform(0.2, 1.5, channels),
        epsilon=EPS,
    )


def _conv(rng, name, o, c, k, bias=False, **kw):
    return LayerSpec(name=name, kind="conv", params=WeightParams(
        weights=rng.standard_normal((o, c, k, k)) * 0.4,
        bias=rng.standard_normal(o) * 0.1 if bias else None), **kw)


def _kill_channel(graph, bn_name, channel, beta=0.42, var=1e-7):
    """Zero the producer filter and pin the running mean so the channel's
    normalized output is the shift parameter exactly."""
    i = graph.index(bn_name)
    graph.layers[i - 1].params.weights[channel] = 0.0
    p = graph.layers[i].params
    p.running_mean[channel] = 0.0
    p.running_var[channel] = var
    p.beta[channel] = beta
    return graph


@pytest.fixture(scope="module")
def toy_trained():
    """A small depthwise-separable net trained long enough for its two
    intentionally dead stem channels' running variance to decay below the
    pruning threshold (120 batch-norm updates: 0.9^120 is about 3e-6)."""
    full = make_synthetic(4, 24, (3, 16, 16), seed=5)
    train, val = split_validation(full, 4, seed=0)
    data = bundle_from_datasets(train, val, val)
    g = build_ds_convnet(input_shape=(3, 16, 16), class_count=4, width=8,
                         blocks=2, seed=6, dead_stem_filters=2)
    g, _ = train_epochs(g, data, LRSchedule(0.05, 0, 12),
                        OptimizerState(momentum=0.9), epochs=12,
                        batch_size=8, seed=7)
    return g, data


def test_fold_equivalence():
    """Folded convolution matches convolution followed by inference-mode
    normalization on random float32 layers."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 7))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        h = int(rng.integers(5, 10))
        w = int(rng.integers(5, 10))
        conv = WeightParams(
            weights=rng.standard_normal((cout, cin, k, k)).astype(np.float32),
            bias=(rng.standard_normal(cout).astype(np.float32)
                  if rng.random() < 0.5 else None))
        bn = BNParams(gamma=rng.uniform(0.5, 1.5, cout).astype(np.float32),
                      beta=rng.standard_normal(cout).astype(np.float32),
                      running_mean=rng.standard_normal(cout).astype(np.float32),
                      running_var=rng.uniform(0.01, 2.0, cout).astype(np.float32),
                      epsilon=EPS)
        folded = fold_bn(conv, bn)
        for _ in range(10):
            x = rng.standard_normal((2, cin, h, w)).astype(np.float32)
            two_stage = bn_forward_infer(
                conv2d_forward(x, conv.weights, conv.bias, (stride, stride),
                               (pad, pad)), bn)
            one_stage = conv2d_forward(x, folded.weights, folded.bias,
                                       (stride, stride), (pad, pad))
            worst = max(worst, max_rel_err(one_stage, two_stage))
    elapsed = time.perf_counter() - started
    _report("01 fold equivalence", worst <= 1e-5,
            f"max rel err {worst:.3e} <= 1e-05 over 100 layers x 10 inputs, {elapsed:.1f}s")


def test_constant_channel_prune_exactness():
    """Pruning an exactly constant channel with compensation preserves the
    network output for every supported consumer kind."""
    started = time.perf_counter()

    def bias_consumer(rng):
        return ModelGraph(layers=[
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
            _conv(rng, "c2", 4, 3, 3, bias=True),
        ], input_shape=(2, 8, 8))

    def beta_consumer(rng):
        return ModelGraph(layers=[
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
            _conv(rng, "c2", 4, 3, 3),
            LayerSpec(name="b2", kind="bn", params=_bn(rng, 4)),
            LayerSpec(name="r2", kind="relu"),
            _conv(rng, "c3", 2, 4, 1, bias=True),
        ], input_shape=(2, 8, 8))

    def affine_consumer(rng):
        return ModelGraph(layers=[
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
            LayerSpec(name="p1", kind="global_avg_pool"),
            LayerSpec(name="fc", kind="affine", params=WeightParams(
                weights=rng.standard_normal((3, 5)) * 0.4,
                bias=rng.standard_normal(5) * 0.1)),
        ], input_shape=(2, 8, 8))

    def cascade_consumer(rng):
        return ModelGraph(layers=[
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu6"),
            LayerSpec(name="d1", kind="depthwise_conv", params=WeightParams(
                weights=rng.standard_normal((3, 1, 3, 3)) * 0.4, bias=None)),
            LayerSpec(name="bd", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="rd", kind="relu6"),
            _conv(rng, "c2", 4, 3, 1, bias=True),
        ], input_shape=(2, 10, 10))

    kinds = [("conv-with-bias", bias_consumer), ("conv-plus-bn", beta_consumer),
             ("final-affine", affine_consumer), ("depthwise-cascade", cascade_consumer)]
    worst = 0.0
    for i, (label, builder) in enumerate(kinds):
        rng = np.random.default_rng(200 + i)
        g = _kill_channel(builder(rng), "b1", 1, beta=0.42, var=0.0)
        probes = rng.uniform(-1, 1, (50,) + g.input_shape)
        base = run_inference(g, probes)
        pruned, report = apply_pfq(g, EPS)
        assert any(e.layer == "b1" and e.channel == 1 for e in report.entries)
        dev = float(np.max(np.abs(run_inference(pruned, probes) - base)))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    _report("02 prune exactness", worst <= 1e-6,
            f"max abs dev {worst:.3e} <= 1e-06 over 4 consumer kinds x 50 probes, {elapsed:.1f}s")


def test_correction_beats_uncorrected_control():
    """A compensated prune of a channel with tiny but nonzero variance
    deviates less than pruning a ten-times-noisier channel without
    compensation would."""
    margins = []
    for s in range(10):
        rng = np.random.default_rng(300 + s)
        g = ModelGraph(layers=[
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
            _conv(rng, "c2", 4, 3, 3, bias=True),
        ], input_shape=(2, 8, 8))
        c1 = g.layer("c1").params
        bn = g.layer("b1").params
        c2 = g.layer("c2").params
        # Both near-constant channels feed identical consumer kernels so the
        # comparison isolates variance level and compensation, not the luck
        # of the consumer draw.
        c2.weights[:, 1] = c2.weights[:, 0]
        calib = rng.uniform(-1, 1, (200, 2, 8, 8))
        for ch, target in ((0, 1e-6), (1, 1e-4)):
            out = conv2d_forward(calib, c1.weights[ch:ch + 1])
            c1.weights[ch] *= math.sqrt(target / float(out.var()))
            out = conv2d_forward(calib, c1.weights[ch:ch + 1])
            bn.running_mean[ch] = float(out.mean())
            bn.running_var[ch] = target
            bn.beta[ch] = 0.7
            bn.gamma[ch] = 1.0
        probes = rng.uniform(-1, 1, (50, 2, 8, 8))
        base = run_inference(g, probes)
        pruned, report = apply_pfq(g, EPS)
        assert [(e.layer, e.channel) for e in report.entries] == [("b1", 0)]
        control, _ = prune_channels(g, [("b1", 1)], correct=False)
        dev_corrected = float(np.max(np.abs(run_inference(pruned, probes) - base)))
        dev_control = float(np.max(np.abs(run_inference(control, probes) - base)))
        margins.append(dev_control / dev_corrected)
        assert dev_corrected < dev_control
    _report("03 near-preservation", min(margins) > 1.0,
            f"uncorrected control dev exceeds corrected dev on 10/10 seeds, "
            f"min ratio {min(margins):.2f}x")


def test_quantizer_algebra():
    """Idempotence, monotonicity, the half-step bound against plain
    clamping, and the level-count cap, over ten thousand random samples."""
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    checked = 0
    worst_slack = np.inf
    for _ in range(100):
        bits = int(rng.integers(1, 9))
        m = float(rng.uniform(-3, 3))
        cfg = QuantConfig(bits=bits, m=m, M_up=m + float(rng.uniform(1e-3, 6.0)),
                          initialized=True)
        span = cfg.M_up - cfg.m
        x = rng.uniform(cfg.m - span, cfg.M_up + span, 100)
        q = quantize(x, cfg)
        assert np.array_equal(quantize(q, cfg), q)
        order = np.argsort(x)
        assert np.all(np.diff(q[order]) >= 0.0)
        slack = cfg.scale / 2 + 1e-12 - np.abs(q - np.clip(x, cfg.m, cfg.M_up))
        assert np.all(slack >= 0.0)
        worst_slack = min(worst_slack, float(slack.min()))
        sweep = quantize(np.linspace(cfg.m - span, cfg.M_up + span, 1000), cfg)
        assert len(np.unique(sweep)) <= 2 ** bits + 1
        checked += x.size
    elapsed = time.perf_counter() - started
    _report("04 quantizer algebra", checked == 10_000 and elapsed < 10.0,
            f"{checked} samples, zero violations, {elapsed:.2f}s < 10s")


def test_straight_through_gradient_contract():
    """Parameter gradients upstream of a quantization point equal the
    gradients of the clamp-substituted network exactly, and the unquantized
    path passes a finite-difference check."""
    rng = np.random.default_rng(77)
    layers = [
        _conv(rng, "c1", 3, 2, 3, bias=True),
        LayerSpec(name="r1", kind="relu"),
        LayerSpec(name="p1", kind="global_avg_pool"),
        LayerSpec(name="fc", kind="affine", params=WeightParams(
            weights=rng.standard_normal((3, 4)) * 0.4,
            bias=rng.standard_normal(4) * 0.1)),
    ]
    g = insert_quant_points(ModelGraph(layers=layers, input_shape=(2, 6, 6)),
                            2, 8, act_enabled=True, weight_enabled=False)
    g.layer("p1_q").params.enabled = False
    point = g.layer("r1_q").params
    point.cfg.m = 0.0
    point.cfg.M_up = 1.0
    point.cfg.initialized = True

    x = rng.uniform(0.0, 1.0, (4, 2, 6, 6))
    w1 = g.layer("c1").params.weights
    b1 = g.layer("c1").params.bias
    a1 = conv2d_forward(x, w1, b1)
    r1 = relu_forward(a1)
    boundaries = point.cfg.m + (np.arange(4) + 0.5) * point.cfg.scale
    gap = float(np.min(np.abs(r1[..., None] - boundaries)))
    assert gap >= 1e-6  # inputs sit away from rounding decision points

    readout = rng.standard_normal((4, 4))  # linear loss: sum(readout * logits)
    trace = forward_graph(g, x, training=True)
    grads = backward_graph(g, trace, readout)

    grad_pool, _, _ = affine_backward(readout, global_avg_pool_forward(
        np.clip(r1, 0.0, 1.0)), g.layer("fc").params.weights)
    grad_clamped = global_avg_pool_backward(grad_pool, r1.shape[2:])
    grad_r1 = grad_clamped * ((r1 >= 0.0) & (r1 <= 1.0))
    grad_a1 = relu_backward(grad_r1, a1)
    _, grad_w, grad_b = conv2d_backward(grad_a1, x, w1)
    exact = (np.array_equal(grads["c1"]["weights"], grad_w)
             and np.array_equal(grads["c1"]["bias"], grad_b))

    plain = copy.deepcopy(g)
    plain.layer("r1_q").params.enabled = False
    trace0 = forward_graph(plain, x, training=True)
    analytic = backward_graph(plain, trace0, readout)

    def loss_for(w_flat):
        probe = copy.deepcopy(plain)
        probe.layer("c1").params.weights = w_flat.reshape(w1.shape)
        out = forward_graph(probe, x).outputs["fc"]
        return float(np.sum(readout * out))

    fd = max_rel_err(analytic["c1"]["weights"].ravel(),
                     numeric_grad(loss_for, w1.ravel().copy()))
    _report("05 straight-through gradients", exact and fd < 1e-4,
            f"clamp-network grads bitwise equal: {exact}, "
            f"finite-difference rel err {fd:.3e} < 1e-04")


def test_folded_range_shrinks_after_pruning(toy_trained):
    """On a trained net with dead channels, pruning never widens any layer's
    folded weight range and strictly shrinks at least one."""
    g, _ = toy_trained
    started = time.perf_counter()
    assert len(scan_candidates(g, EPS)) >= 2
    before = {r.layer: r.range for r in dynamic_range_report(fold_bn_graph(g))}
    pruned, _ = apply_pfq(g, EPS)
    after = {r.layer: r.range for r in dynamic_range_report(fold_bn_graph(pruned))}
    assert set(after) == set(before)
    widened = [l for l in after if after[l] > before[l] * (1 + 1e-9)]
    shrunk = {l: (before[l], after[l]) for l in after
              if after[l] < before[l] - 1e-6}
    elapsed = time.perf_counter() - started
    top = max(shrunk, key=lambda l: shrunk[l][0] - shrunk[l][1], default=None)
    _report("06 folded-range reduction", not widened and bool(shrunk),
            f"no layer widened, {len(shrunk)} shrank; "
            f"largest: {top} {shrunk[top][0]:.2f} -> {shrunk[top][1]:.2f}, {elapsed:.1f}s"
            if top else "no layer shrank")


def test_staged_workflow_against_plain_quantization():
    """Paired 4-bit runs on a six-block depthwise-separable net: the pruning
    workflow must end strictly smaller and lose no meaningful accuracy
    against the identical workflow with pruning disabled."""
    started = time.perf_counter()
    acc = {"pruned": [], "plain": []}
    params = {"pruned": [], "plain": []}
    macs = {"pruned": [], "plain": []}
    for s in range(3):
        full = make_synthetic(4, 30, (3, 16, 16), seed=40 + s)
        pool, test = split_validation(full, 6, seed=41 + s)
        train, val = split_validation(pool, 4, seed=s)
        data = bundle_from_datasets(train, val, test)
        g = build_ds_convnet(input_shape=(3, 16, 16), class_count=4, width=8,
                             blocks=6, seed=s, dead_stem_filters=2)
        g, _ = train_epochs(g, data, LRSchedule(0.05, 0, 12),
                            OptimizerState(momentum=0.9), epochs=12,
                            batch_size=8, seed=s)
        for arm, epsilon in (("pruned", EPS), ("plain", 0.0)):
            cfg = WorkflowConfig(epochs_act=2, epochs_weight=2, act_bits=4,
                                 weight_bits=4, epsilon=epsilon, batch_size=8,
                                 seed=s, act_schedule=LRSchedule(0.002, 0, 2),
                                 weight_schedule=LRSchedule(0.001, 0, 2))
            result = run_workflow(g, data, cfg)
            acc[arm].append(evaluate(result.graph, data.test_images,
                                     data.test_labels))
            params[arm].append(param_count(result.graph))
            macs[arm].append(sum(count_macs(result.graph).values()))
    smaller = (all(p < q for p, q in zip(params["pruned"], params["plain"]))
               and all(m < n for m, n in zip(macs["pruned"], macs["plain"])))
    mean_pruned = float(np.mean(acc["pruned"]))
    mean_plain = float(np.mean(acc["plain"]))
    elapsed = time.perf_counter() - started
    _report("07 workflow ablation",
            smaller and mean_pruned >= mean_plain - 0.005,
            f"3 paired seeds: pruned acc {mean_pruned:.3f} vs plain {mean_plain:.3f} "
            f"(allowed gap 0.005), params {params['pruned'][0]} < {params['plain'][0]}, "
            f"MACs {macs['pruned'][0]} < {macs['plain'][0]}, {elapsed:.0f}s")


def test_running_stat_replay(monkeypatch):
    """Replaying logged batch statistics through an independent recurrence
    reproduces the trainer's running mean and variance. The statistics are
    logged by wrapping the trainer's loss_and_grads, whose fourth value maps
    each BN layer to its batch statistics."""
    full = make_synthetic(3, 20, (3, 8, 8), seed=30)
    train, val = split_validation(full, 3, seed=0)
    data = bundle_from_datasets(train, val, val)
    g = build_small_convnet(input_shape=(3, 8, 8), class_count=3, width=6, seed=31)
    initial = {layer.name: (layer.params.running_mean.copy(),
                            layer.params.running_var.copy(),
                            layer.params.rho)
               for layer in g.layers if layer.kind == "bn"}
    log = []

    def logged(*args, **kwargs):
        result = loss_and_grads(*args, **kwargs)
        log.extend(result[3].items())
        return result

    monkeypatch.setattr(training, "loss_and_grads", logged)
    trained, _ = train_epochs(g, data, LRSchedule(0.02, 0, 3),
                              OptimizerState(momentum=0.9), epochs=3,
                              batch_size=8, seed=32)
    worst = 0.0
    for name, (mean0, var0, rho) in initial.items():
        seq = [(s.mu, s.sigma2, s.count) for n, s in log if n == name]
        assert len(seq) == 3 * 7  # three epochs of seven batches each
        mean, var = replay_running_stats(mean0, var0, rho, seq)
        p = trained.layer(name).params
        worst = max(worst, max_rel_err(mean, p.running_mean),
                    max_rel_err(var, p.running_var))
    _report("08 running-stat replay", worst <= 1e-10,
            f"max rel err {worst:.3e} <= 1e-10 across all layers")


def test_lr_schedule_golden_values():
    """Warmup endpoints and ten hand-evaluated cosine points."""
    base = 0.05
    sched = LRSchedule(base, 3, 12)
    ok = lr_at(sched, 0) == 0.0
    ok = ok and abs(lr_at(sched, 3) - 2 * base) <= 1e-12 * base
    ok = ok and lr_at(sched, 15) == 0.0
    goldens = {
        4: (math.sqrt(6) + math.sqrt(2)) / 4,
        5: math.sqrt(3) / 2,
        6: math.sqrt(2) / 2,
        7: 0.5,
        8: (math.sqrt(6) - math.sqrt(2)) / 4,
        9: 0.0,
        10: -(math.sqrt(6) - math.sqrt(2)) / 4,
        11: -0.5,
        12: -math.sqrt(2) / 2,
        13: -math.sqrt(3) / 2,
    }
    worst = 0.0
    for epoch, cosine in goldens.items():
        expected = base * (1.0 + cosine)
        err = abs(lr_at(sched, epoch) - expected) / max(expected, base)
        worst = max(worst, err)
    _report("09 schedule golden values", ok and worst <= 1e-12,
            f"endpoints exact, 10 interior points max rel err {worst:.2e} <= 1e-12")


def test_constancy_report_separates_channels(toy_trained):
    """Channels below the variance threshold produce batch-constant output;
    channels with healthy variance visibly do not."""
    g, data = toy_trained
    rows = channel_constancy_report(g, data.train_images[:64])
    low = [r for r in rows if r.running_var < EPS]
    high = [r for r in rows if r.running_var > 0.1]
    assert low and high
    low_ok = all(r.spread < 1e-4 for r in low)
    high_ok = all(r.spread > 1e-2 for r in high)
    _report("10 constancy report", low_ok and high_ok,
            f"{len(low)} near-constant channels spread < 1e-4, "
            f"{len(high)} healthy channels spread > 1e-2")
