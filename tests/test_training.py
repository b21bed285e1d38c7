"""Learning-rate schedule values, SGD mechanics, and the training loop."""

import math

import numpy as np
import pytest

from pfqkit.data import bundle_from_datasets, make_synthetic, split_validation
from pfqkit.graph import LayerSpec, ModelGraph, WeightParams
from pfqkit.models import build_small_convnet
from pfqkit.quantization import enable_weight_points, insert_quant_points
from pfqkit.training import (
    EarlyStopPolicy,
    LRSchedule,
    OptimizerState,
    TrainingDiverged,
    lr_at,
    metrics_to_csv,
    sgd_step,
    train_epochs,
)


def _bundle(seed=0, classes=3, per_class=20, shape=(3, 8, 8)):
    data = make_synthetic(classes, per_class, shape, seed=seed)
    train, val = split_validation(data, 4, seed=0)
    return bundle_from_datasets(train, val, val)


class TestSchedule:
    def test_warmup_ramp(self):
        s = LRSchedule(base_lr=0.1, warmup_epochs=5, period=10)
        assert lr_at(s, 0) == 0.0
        assert abs(lr_at(s, 1) - 0.02) < 1e-15
        assert abs(lr_at(s, 4) - 0.08) < 1e-15

    def test_peak_at_warmup_end_is_twice_base(self):
        # the cosine branch starts at cos(0) = 1, so the first post-warmup
        # epoch runs at double the base rate
        s = LRSchedule(base_lr=0.1, warmup_epochs=5, period=10)
        assert abs(lr_at(s, 5) - 0.2) < 1e-15
        # one epoch earlier the ramp is still below base: visible jump
        assert lr_at(s, 4) < s.base_lr < lr_at(s, 5)

    def test_zero_at_period_end(self):
        s = LRSchedule(base_lr=0.1, warmup_epochs=5, period=10)
        assert abs(lr_at(s, 15)) < 1e-16

    def test_cosine_surd_values(self):
        # period 12 puts epochs on angles with closed-form cosines
        s = LRSchedule(base_lr=1.0, warmup_epochs=0, period=12)
        expect = {
            2: 1.0 + math.sqrt(3.0) / 2.0,
            3: 1.0 + math.sqrt(2.0) / 2.0,
            4: 1.5,
            6: 1.0,
            8: 0.5,
            9: 1.0 - math.sqrt(2.0) / 2.0,
            10: 1.0 - math.sqrt(3.0) / 2.0,
        }
        for epoch, want in expect.items():
            assert abs(lr_at(s, epoch) - want) < 1e-15

    def test_no_warmup_starts_at_peak(self):
        s = LRSchedule(base_lr=0.05, warmup_epochs=0, period=4)
        assert abs(lr_at(s, 0) - 0.1) < 1e-15

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(LRSchedule(0.1), -1)


def _one_param_graph(value=1.0):
    layers = [
        LayerSpec(name="p", kind="global_avg_pool"),
        LayerSpec(name="fc", kind="affine", params=WeightParams(
            weights=np.array([[value]]), bias=np.array([0.0]))),
    ]
    return ModelGraph(layers=layers, input_shape=(1, 2, 2))


class TestSgd:
    def test_momentum_recurrence_hand_values(self):
        g = _one_param_graph(1.0)
        state = OptimizerState(momentum=0.9)
        grads = {"fc": {"weights": np.array([[0.5]])}}
        sgd_step(g, grads, state, lr=0.1)
        # first step: v = g
        assert abs(g.layer("fc").params.weights[0, 0] - 0.95) < 1e-15
        sgd_step(g, grads, state, lr=0.1)
        # second: v = 0.9*0.5 + 0.5 = 0.95
        assert abs(g.layer("fc").params.weights[0, 0] - 0.855) < 1e-15
        assert state.iteration == 2

    def test_weight_decay_only_on_weights(self):
        g = _one_param_graph(1.0)
        state = OptimizerState(momentum=0.0, weight_decay=0.1)
        grads = {"fc": {"weights": np.array([[0.5]]), "bias": np.array([0.5])}}
        sgd_step(g, grads, state, lr=0.1)
        # weights: g_eff = 0.5 + 0.1*1.0 = 0.6 -> 1 - 0.06
        assert abs(g.layer("fc").params.weights[0, 0] - 0.94) < 1e-15
        # bias: no decay -> 0 - 0.05
        assert abs(g.layer("fc").params.bias[0] + 0.05) < 1e-15

    def test_zero_momentum_is_plain_sgd(self):
        g = _one_param_graph(2.0)
        state = OptimizerState(momentum=0.0)
        grads = {"fc": {"weights": np.array([[1.0]])}}
        for _ in range(3):
            sgd_step(g, grads, state, lr=0.25)
        assert abs(g.layer("fc").params.weights[0, 0] - 1.25) < 1e-15


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        data = _bundle(seed=1)
        g = build_small_convnet(class_count=3, width=6, seed=2)
        g2, metrics = train_epochs(g, data, LRSchedule(0.02, 0, 6),
                                   OptimizerState(), epochs=6, batch_size=8, seed=0)
        assert metrics[-1].train_loss < metrics[0].train_loss
        assert metrics[-1].val_acc is not None

    def test_same_seed_bitwise_reproducible(self):
        data = _bundle(seed=3)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        a, ma = train_epochs(g, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=7)
        b, mb = train_epochs(g, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=7)
        assert [m.train_loss for m in ma] == [m.train_loss for m in mb]
        for la, lb in zip(a.layers, b.layers):
            if la.kind in ("conv", "depthwise_conv", "affine"):
                assert np.array_equal(la.params.weights, lb.params.weights)

    def test_different_seed_changes_order(self):
        data = _bundle(seed=3)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        _, ma = train_epochs(g, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=1)
        _, mb = train_epochs(g, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=2)
        assert ma[0].train_loss != mb[0].train_loss

    def test_input_graph_not_mutated(self):
        data = _bundle(seed=3)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        before = g.layers[0].params.weights.copy()
        train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(),
                     epochs=1, batch_size=8, seed=0)
        assert np.array_equal(g.layers[0].params.weights, before)

    def test_disabled_quant_points_train_identically(self):
        """A graph whose quant points are all disabled must follow the exact
        same trajectory as the plain graph."""
        data = _bundle(seed=9)
        g = build_small_convnet(class_count=3, width=4, seed=11)
        annotated = insert_quant_points(g, 4, 4, act_enabled=False)
        a, ma = train_epochs(g, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=0)
        b, mb = train_epochs(annotated, data, LRSchedule(0.02, 0, 2), OptimizerState(),
                             epochs=2, batch_size=8, seed=0)
        assert [m.train_loss for m in ma] == [m.train_loss for m in mb]
        for layer in a.layers:
            if layer.kind in ("conv", "affine"):
                assert np.array_equal(layer.params.weights,
                                      b.layer(layer.name).params.weights)

    def test_divergence_raises(self):
        data = _bundle(seed=13)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        fc = g.layers[-1]
        fc.params.weights = np.full_like(fc.params.weights, 3.4e38)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((TrainingDiverged, ValueError)):
                train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(),
                             epochs=1, batch_size=8, seed=0)

    def test_weight_quant_on_unfolded_graph_rejected(self):
        data = _bundle(seed=13)
        g = insert_quant_points(build_small_convnet(class_count=3, width=4, seed=5), 4, 4)
        enable_weight_points(g)
        with pytest.raises(ValueError):
            train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(),
                         epochs=1, batch_size=8, seed=0)


class TestEarlyStop:
    def test_fixed_epochs_runs_full_budget(self):
        data = _bundle(seed=17)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        _, metrics = train_epochs(g, data, LRSchedule(0.02, 0, 3), OptimizerState(),
                                  epochs=3, batch_size=8, seed=0,
                                  stop=None)
        assert len(metrics) == 3

    def test_vacuous_reference_stops_immediately(self):
        data = _bundle(seed=17)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        stop = EarlyStopPolicy(reference_accuracy=0.0, drop_threshold=0.005)
        _, metrics = train_epochs(g, data, LRSchedule(0.02, 0, 5), OptimizerState(),
                                  epochs=5, batch_size=8, seed=0, stop=stop)
        assert len(metrics) == 1

    def test_unreachable_reference_never_stops(self):
        data = _bundle(seed=17)
        g = build_small_convnet(class_count=3, width=4, seed=5)
        stop = EarlyStopPolicy(reference_accuracy=2.0, drop_threshold=0.005)
        _, metrics = train_epochs(g, data, LRSchedule(0.02, 0, 3), OptimizerState(),
                                  epochs=3, batch_size=8, seed=0, stop=stop)
        assert len(metrics) == 3

    def test_missing_reference_rejected(self):
        with pytest.raises(TypeError, match="reference_accuracy"):
            EarlyStopPolicy(drop_threshold=0.005)

    @pytest.mark.parametrize("val", ["none", "empty"])
    def test_accuracy_drop_without_a_validation_split_rejected(self, val):
        data = _bundle(seed=17)
        data.val_images = None if val == "none" else data.val_images[:0]
        g = build_small_convnet(class_count=3, width=4, seed=5)
        with pytest.raises(ValueError,
                           match="^train_epochs: early stop needs a validation split$"):
            train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(),
                         epochs=1, seed=0, stop=EarlyStopPolicy(reference_accuracy=0.5))


class TestDegenerateArguments:
    """Each degenerate argument fails with its name before the first step."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"batch_size": -5}, "batch_size must be >= 1, got -5"),
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ({"schedule": LRSchedule(0.02, 0, 0)}, "schedule period must be > 0, got 0"),
    ], ids=["batch_size_0", "batch_size_negative", "epochs_negative", "period_0"])
    def test_rejected(self, kwargs, message):
        args = {"epochs": 1, "batch_size": 8, "schedule": LRSchedule(0.02, 0, 1), **kwargs}
        g = build_small_convnet(class_count=3, width=4, seed=5)
        with pytest.raises(ValueError, match=f"^train_epochs: {message}$"):
            train_epochs(g, _bundle(seed=17), args.pop("schedule"), OptimizerState(),
                         seed=0, **args)

    def test_empty_train_split_rejected_unless_no_epochs_run(self):
        data = _bundle(seed=17)
        data.train_images, data.train_labels = data.train_images[:0], data.train_labels[:0]
        g = build_small_convnet(class_count=3, width=4, seed=5)
        with pytest.raises(ValueError, match="^train_epochs: the train split is empty$"):
            train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(), epochs=1, seed=0)
        _, metrics = train_epochs(g, data, LRSchedule(0.02, 0, 1), OptimizerState(),
                                  epochs=0, seed=0)
        assert metrics == []


class TestMetricsCsv:
    def test_layout_and_empty_cells(self, tmp_path):
        from pfqkit.training import EpochMetrics

        rows = [
            EpochMetrics(epoch=0, lr=0.1, train_loss=1.5, val_acc=0.5, test_acc=None),
            EpochMetrics(epoch=1, lr=0.05, train_loss=1.2, val_acc=None, test_acc=None),
        ]
        out = tmp_path / "metrics.csv"
        metrics_to_csv(rows, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_acc,test_acc"
        assert lines[1] == "0,0.1,1.5,0.5,"
        assert lines[2] == "1,0.05,1.2,,"
