"""Pruning of constant channels: scanning, compensation exactness, skips,
cascades, and report bookkeeping.

The helper graphs here are built in float64 with zero padding on the consumer
side so that compensated pruning is exact to rounding, not just approximately
output-preserving. A channel is made constant the honest way: its producer
filter is zeroed and the BN running mean is set to the resulting activation,
so inference really does emit beta for that channel.
"""

import numpy as np
import pytest

from pfqkit.batchnorm import BNParams
from pfqkit.engine import run_inference
from pfqkit.graph import AffineParams, LayerSpec, ModelGraph, param_count
from pfqkit.models import build_residual_net
from pfqkit.pruning import (
    apply_pfq,
    channel_constancy_report,
    compute_bias_correction,
    constancy_report_to_csv,
    prune_channels,
    scan_candidates,
)
from pfqkit.quantization import QuantConfig, QuantPoint
from pfqkit.tensor_ops import ConvParams, DepthwiseConvParams

EPS = 1e-5


def _bn(rng, channels):
    return BNParams(
        gamma=rng.uniform(0.5, 1.5, channels),
        beta=rng.standard_normal(channels) * 0.3,
        running_mean=rng.standard_normal(channels) * 0.2,
        running_var=rng.uniform(0.2, 1.5, channels),
        epsilon=EPS,
    )


def _conv(rng, name, o, c, k, bias=False, **kw):
    return LayerSpec(name=name, kind="conv", params=ConvParams(
        weights=rng.standard_normal((o, c, k, k)) * 0.4,
        bias=rng.standard_normal(o) * 0.1 if bias else None), **kw)


def _kill_channel(graph, bn_name, channel, beta=0.42, var=1e-7):
    """Make one BN channel genuinely constant: zero its producer filter, pin
    the running mean at the resulting zero pre-activation, set a tiny running
    variance, and give beta a known value."""
    i = graph.index(bn_name)
    producer = graph.layers[i - 1]
    producer.params.weights[channel] = 0.0
    p = graph.layers[i].params
    p.running_mean[channel] = 0.0
    p.running_var[channel] = var
    p.beta[channel] = beta
    return graph


def _graph_bias_consumer(rng):
    layers = [
        _conv(rng, "c1", 3, 2, 3),
        LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
        LayerSpec(name="r1", kind="relu"),
        _conv(rng, "c2", 4, 3, 3, bias=True),
    ]
    return ModelGraph(layers=layers, input_shape=(2, 8, 8))


def _graph_beta_consumer(rng):
    layers = [
        _conv(rng, "c1", 3, 2, 3),
        LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
        LayerSpec(name="r1", kind="relu"),
        _conv(rng, "c2", 4, 3, 3),
        LayerSpec(name="b2", kind="bn", params=_bn(rng, 4)),
        LayerSpec(name="r2", kind="relu"),
        _conv(rng, "c3", 2, 4, 1, bias=True),
    ]
    return ModelGraph(layers=layers, input_shape=(2, 8, 8))


def _graph_affine_consumer(rng):
    layers = [
        _conv(rng, "c1", 3, 2, 3),
        LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
        LayerSpec(name="r1", kind="relu"),
        LayerSpec(name="p1", kind="global_avg_pool"),
        LayerSpec(name="fc", kind="affine", params=AffineParams(
            weights=rng.standard_normal((3, 5)) * 0.4,
            bias=rng.standard_normal(5) * 0.1)),
    ]
    return ModelGraph(layers=layers, input_shape=(2, 8, 8))


def _graph_cascade_consumer(rng):
    layers = [
        _conv(rng, "c1", 3, 2, 3),
        LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
        LayerSpec(name="r1", kind="relu6"),
        LayerSpec(name="d1", kind="depthwise_conv", params=DepthwiseConvParams(
            weights=rng.standard_normal((3, 1, 3, 3)) * 0.4, bias=None)),
        LayerSpec(name="bd", kind="bn", params=_bn(rng, 3)),
        LayerSpec(name="rd", kind="relu6"),
        _conv(rng, "c2", 4, 3, 1, bias=True),
    ]
    return ModelGraph(layers=layers, input_shape=(2, 10, 10))


def _probe(rng, graph, n=6):
    c, h, w = graph.input_shape
    return rng.uniform(-1, 1, (n, c, h, w))


class TestScan:
    def test_strictly_below_epsilon(self):
        rng = np.random.default_rng(0)
        g = _graph_bias_consumer(rng)
        p = g.layer("b1").params
        p.running_var[:] = [EPS, EPS * 0.999, 2.0]
        cands = scan_candidates(g, EPS)
        assert [(c.layer, c.channel) for c in cands] == [("b1", 1)]

    def test_act_of_beta_follows_chain(self):
        rng = np.random.default_rng(1)
        g = _graph_bias_consumer(rng)
        p = g.layer("b1").params
        p.running_var[:] = [1e-7, 1e-7, 2.0]
        p.beta[0] = -0.5
        p.beta[1] = 0.7
        cands = {c.channel: c for c in scan_candidates(g, EPS)}
        assert cands[0].act_of_beta == 0.0  # relu clips the negative constant
        assert cands[1].act_of_beta == 0.7


class TestCorrectionValue:
    def test_hand_value(self):
        # kernel sums to 0.8, constant 0.5: correction is 0.4
        w = np.full((1, 2, 2), 0.2)
        assert compute_bias_correction(w, 0.5).tolist() == [0.4]

    def test_affine_slice(self):
        w = np.array([1.0, -2.0, 3.0])
        assert compute_bias_correction(w, 0.5).tolist() == [0.5, -1.0, 1.5]

    def test_consumer_bias_moves_by_correction(self):
        rng = np.random.default_rng(2)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        bias_before = g.layer("c2").params.bias.copy()
        w_slice = g.layer("c2").params.weights[:, 1].copy()
        pruned, report = apply_pfq(g, EPS)
        expect = bias_before + w_slice.sum(axis=(1, 2)) * 0.42
        assert np.allclose(pruned.layer("c2").params.bias, expect, atol=1e-12)
        assert report.entries[0].kind == "bias"


class TestExactPreservation:
    def test_bias_consumer(self):
        rng = np.random.default_rng(11)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        pruned, report = apply_pfq(g, EPS)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9
        assert len(report.entries) == 1

    def test_beta_consumer(self):
        rng = np.random.default_rng(13)
        g = _kill_channel(_graph_beta_consumer(rng), "b1", 2)
        pruned, report = apply_pfq(g, EPS)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9
        assert report.entries[0].kind == "beta"

    def test_affine_consumer(self):
        rng = np.random.default_rng(17)
        g = _kill_channel(_graph_affine_consumer(rng), "b1", 0)
        pruned, _ = apply_pfq(g, EPS)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9

    def test_cascade_consumer(self):
        rng = np.random.default_rng(19)
        g = _kill_channel(_graph_cascade_consumer(rng), "b1", 2, beta=0.3)
        pruned, report = apply_pfq(g, EPS)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9
        entry = report.entries[0]
        assert entry.cascade == [("d1", 2), ("bd", 2)]
        # the hop's depthwise and BN lost the channel too
        assert pruned.layer("d1").params.weights.shape[0] == 2
        assert pruned.layer("bd").params.gamma.shape[0] == 2

    def test_negative_beta_needs_no_correction(self):
        rng = np.random.default_rng(23)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 0, beta=-0.8)
        bias_before = g.layer("c2").params.bias.copy()
        pruned, report = apply_pfq(g, EPS)
        assert report.entries[0].kind == "none-ReLU-zero"
        assert np.array_equal(pruned.layer("c2").params.bias, bias_before)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9

    def test_materialized_bias(self):
        rng = np.random.default_rng(29)
        layers = [
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
            _conv(rng, "c2", 4, 3, 3),  # no bias, no bn after
            LayerSpec(name="r2", kind="relu"),
        ]
        g = _kill_channel(ModelGraph(layers=layers, input_shape=(2, 8, 8)), "b1", 1)
        pruned, report = apply_pfq(g, EPS)
        assert pruned.layer("c2").params.bias is not None
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9
        assert report.weights_removed == report.params_before - report.params_after

    def test_quantized_constant_correction(self):
        """With an initialized quant point between BN and consumer, the
        correction uses the snapped constant and stays exact."""
        rng = np.random.default_rng(31)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1, beta=0.43)
        point = QuantPoint(target="activations", enabled=True,
                           cfg=QuantConfig(bits=3, m=0.0, M_up=1.0, initialized=True))
        layers = list(g.layers)
        layers.insert(3, LayerSpec(name="r1_q", kind="quant_point", params=point))
        g = ModelGraph(layers=layers, input_shape=g.input_shape)
        pruned, _ = apply_pfq(g, EPS, quantize_act_of_beta=True)
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9


class TestUncorrected:
    def test_output_moves_without_compensation(self):
        rng = np.random.default_rng(37)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        plain, report = apply_pfq(g, EPS, correct=False)
        x = _probe(rng, g)
        dev = np.max(np.abs(run_inference(plain, x) - run_inference(g, x)))
        assert dev > 1e-3
        assert report.entries[0].kind == "uncorrected"

    def test_corrected_beats_uncorrected(self):
        rng = np.random.default_rng(41)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        x = _probe(rng, g)
        base = run_inference(g, x)
        good, _ = apply_pfq(g, EPS, correct=True)
        bad, _ = apply_pfq(g, EPS, correct=False)
        dev_good = np.max(np.abs(run_inference(good, x) - base))
        dev_bad = np.max(np.abs(run_inference(bad, x) - base))
        assert dev_good < dev_bad


class TestSkips:
    def test_residual_branch_skipped(self):
        g = build_residual_net(seed=3)
        # find the BN feeding the junction and kill one of its channels
        junction = next(l for l in g.layers if l.kind == "add_junction")
        bn_name = next(n for n in junction.params if g.layer(n).kind == "bn")
        g.layer(bn_name).params.running_var[0] = 1e-8
        pruned, report = apply_pfq(g, EPS)
        assert not report.entries
        assert report.skips and report.skips[0].reason == "residual"
        assert param_count(pruned) == param_count(g)

    def test_depthwise_producer_skipped(self):
        rng = np.random.default_rng(43)
        g = _graph_cascade_consumer(rng)
        g.layer("bd").params.running_var[1] = 1e-8
        _, report = apply_pfq(g, EPS)
        assert report.skips[0].reason == "depthwise-producer"

    def test_would_empty_skipped(self):
        rng = np.random.default_rng(47)
        g = _graph_bias_consumer(rng)
        g.layer("b1").params.running_var[:] = 1e-8
        pruned, report = apply_pfq(g, EPS)
        assert not report.entries
        assert {s.reason for s in report.skips} == {"would-empty"}
        assert param_count(pruned) == param_count(g)

    def test_network_output_skipped(self):
        rng = np.random.default_rng(53)
        layers = [
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="b1", kind="bn", params=_bn(rng, 3)),
            LayerSpec(name="r1", kind="relu"),
        ]
        g = ModelGraph(layers=layers, input_shape=(2, 8, 8))
        g.layer("b1").params.running_var[0] = 1e-8
        _, report = apply_pfq(g, EPS)
        assert report.skips[0].reason == "network-output"

    def test_affine_producer_skipped(self):
        rng = np.random.default_rng(59)
        layers = [
            _conv(rng, "c1", 3, 2, 3),
            LayerSpec(name="p1", kind="global_avg_pool"),
            LayerSpec(name="fc", kind="affine", params=AffineParams(
                weights=rng.standard_normal((3, 4)) * 0.4, bias=None)),
            LayerSpec(name="bfc", kind="bn", params=_bn(rng, 4)),
            LayerSpec(name="r", kind="relu"),
            LayerSpec(name="fc2", kind="affine", params=AffineParams(
                weights=rng.standard_normal((4, 2)) * 0.4,
                bias=rng.standard_normal(2))),
        ]
        g = ModelGraph(layers=layers, input_shape=(2, 8, 8))
        g.layer("bfc").params.running_var[1] = 1e-8
        _, report = apply_pfq(g, EPS)
        assert report.skips[0].reason == "affine-producer"


class TestBookkeeping:
    def test_removed_matches_param_delta(self):
        rng = np.random.default_rng(61)
        for make in (_graph_bias_consumer, _graph_beta_consumer,
                     _graph_affine_consumer, _graph_cascade_consumer):
            g = _kill_channel(make(rng), "b1", 1)
            pruned, report = apply_pfq(g, EPS)
            assert report.params_before == param_count(g)
            assert report.params_after == param_count(pruned)
            assert report.weights_removed == report.params_before - report.params_after
            assert report.macs_after < report.macs_before

    def test_idempotent(self):
        rng = np.random.default_rng(67)
        g = _kill_channel(_graph_beta_consumer(rng), "b1", 0)
        pruned, first = apply_pfq(g, EPS)
        again, second = apply_pfq(pruned, EPS)
        assert len(first.entries) == 1
        assert not second.entries
        assert param_count(again) == param_count(pruned)

    def test_multiple_channels_one_pass(self):
        rng = np.random.default_rng(71)
        g = _graph_bias_consumer(rng)
        _kill_channel(g, "b1", 0, beta=0.2)
        _kill_channel(g, "b1", 2, beta=-0.1)
        pruned, report = apply_pfq(g, EPS)
        assert sorted(e.channel for e in report.entries) == [0, 2]
        assert pruned.layer("b1").params.gamma.shape[0] == 1
        x = _probe(rng, g)
        assert np.max(np.abs(run_inference(pruned, x) - run_inference(g, x))) < 1e-9

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(73)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        _, report = apply_pfq(g, EPS)
        out = tmp_path / "prune.csv"
        report.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "layer,channel,kind,Vt,beta,U_norm"
        assert lines[1].startswith("b1,1,bias,")

    def test_summary_mentions_counts(self):
        rng = np.random.default_rng(79)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        _, report = apply_pfq(g, EPS)
        s = report.summary()
        assert "pruned 1 channels" in s
        assert str(report.params_before) in s


class TestExplicitTargets:
    def test_prune_named_channel(self):
        rng = np.random.default_rng(83)
        g = _graph_bias_consumer(rng)  # healthy variances everywhere
        pruned, report = prune_channels(g, [("b1", 1)])
        assert report.entries[0].channel == 1
        assert pruned.layer("b1").params.gamma.shape[0] == 2

    def test_refuses_unprunable_target(self):
        g = build_residual_net(seed=5)
        junction = next(l for l in g.layers if l.kind == "add_junction")
        bn_name = next(n for n in junction.params if g.layer(n).kind == "bn")
        with pytest.raises(ValueError):
            prune_channels(g, [(bn_name, 0)])

    def test_rejects_duplicate_target(self):
        g = _graph_bias_consumer(np.random.default_rng(101))
        with pytest.raises(ValueError, match=r"\('b1', 1\): listed twice"):
            prune_channels(g, [("b1", 1), ("b1", 1)])

    def test_rejects_negative_channel(self):
        g = _graph_bias_consumer(np.random.default_rng(103))
        with pytest.raises(ValueError, match=r"\('b1', -1\): channel outside \[0, 3\)"):
            prune_channels(g, [("b1", -1)])

    def test_rejects_channel_past_end(self):
        g = _graph_bias_consumer(np.random.default_rng(107))
        with pytest.raises(ValueError, match=r"\('b1', 99\): channel outside \[0, 3\)"):
            prune_channels(g, [("b1", 0), ("b1", 99)])

    def test_rejects_non_bn_target(self):
        g = _graph_bias_consumer(np.random.default_rng(109))
        with pytest.raises(ValueError, match=r"\('c1', 0\): not a BN layer"):
            prune_channels(g, [("b1", 0), ("c1", 0)])


class TestConstancyReport:
    def test_dead_channel_has_zero_spread(self):
        rng = np.random.default_rng(89)
        g = _kill_channel(_graph_bias_consumer(rng), "b1", 1)
        rows = channel_constancy_report(g, _probe(rng, g, n=8))
        by_channel = {(r.layer, r.channel): r for r in rows}
        assert by_channel[("b1", 1)].spread == 0.0
        assert by_channel[("b1", 0)].spread > 1e-3
        assert by_channel[("b1", 2)].spread > 1e-3

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(97)
        g = _graph_bias_consumer(rng)
        rows = channel_constancy_report(g, _probe(rng, g))
        out = tmp_path / "constancy.csv"
        constancy_report_to_csv(rows, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "layer,channel,Vt,spread"
        assert len(lines) == 1 + 3
