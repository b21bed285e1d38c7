"""The staged workflow: stage order, artifacts, degenerate budgets."""

import numpy as np
import pytest

from pfqkit.data import bundle_from_datasets, make_synthetic, split_validation
from pfqkit.engine import run_inference
from pfqkit.graph import fold_bn_graph, load_model
from pfqkit.models import build_small_convnet
from pfqkit.pruning import apply_pfq
from pfqkit.quantization import QuantRangeError
from pfqkit.training import LRSchedule, OptimizerState, train_epochs
from pfqkit import workflow
from pfqkit.workflow import (
    WorkflowConfig,
    WorkflowError,
    run_single_stage_baseline,
    run_workflow,
)


def _bundle(seed=0):
    data = make_synthetic(3, 24, (3, 8, 8), seed=seed)
    train, val = split_validation(data, 4, seed=0)
    return bundle_from_datasets(train, val, val)


def _pretrained(seed=0, epochs=10, dead=2):
    """A short pre-training run with a couple of intentionally dead stem
    filters, enough BN updates for their running variance to decay."""
    data = _bundle(seed)
    g = build_small_convnet(input_shape=(3, 8, 8), class_count=3, width=6,
                            seed=seed + 1, dead_stem_filters=dead)
    g, _ = train_epochs(g, data, LRSchedule(0.03, 0, epochs),
                        OptimizerState(momentum=0.9), epochs=epochs,
                        batch_size=4, seed=seed)
    return g, data


def _cfg(**kw):
    defaults = dict(epochs_act=1, epochs_weight=1, act_bits=4, weight_bits=4,
                    epsilon=1e-5, batch_size=8, seed=0,
                    act_schedule=LRSchedule(0.005, 0, 2),
                    weight_schedule=LRSchedule(0.002, 0, 2))
    defaults.update(kw)
    return WorkflowConfig(**defaults)


class TestStagedRun:
    def test_trace_lists_stages_in_order(self):
        g, data = _pretrained(seed=1)
        result = run_workflow(g, data, _cfg())
        heads = [line.split(":")[0] for line in result.trace]
        assert heads == [
            "stage0 pfq",
            "stage1 finetune-activations",
            "stage2 pfq",
            "stage3 fold-bn",
            "stage4 finetune-weights",
        ]

    def test_final_graph_is_folded_and_quantized(self):
        g, data = _pretrained(seed=2)
        result = run_workflow(g, data, _cfg())
        final = result.graph
        assert all(l.kind != "bn" for l in final.layers)
        assert any(l.kind == "quant_point" for l in final.layers)
        for layer in final.layers:
            if layer.weight_quant is not None:
                assert layer.weight_quant.enabled

    def test_first_prune_removes_dead_channels(self):
        g, data = _pretrained(seed=3, epochs=12)
        result = run_workflow(g, data, _cfg())
        assert len(result.prune_first.entries) >= 1

    def test_artifacts_on_disk(self, tmp_path):
        g, data = _pretrained(seed=4)
        run_workflow(g, data, _cfg(), out_dir=tmp_path)
        for stage in range(5):
            assert (tmp_path / f"stage{stage}" / "model.json").exists()
            assert (tmp_path / f"stage{stage}" / "model.bin").exists()
        assert (tmp_path / "stage0" / "prune_report.csv").exists()
        assert (tmp_path / "stage2" / "prune_report.csv").exists()
        assert (tmp_path / "stage1" / "metrics.csv").exists()
        assert (tmp_path / "stage4" / "metrics.csv").exists()
        log = (tmp_path / "workflow.log").read_text()
        assert log.startswith("stage0 pfq:")
        # every stage model loads back
        for stage in range(5):
            load_model(tmp_path / f"stage{stage}" / "model.json")

    def test_requires_bn_graph(self):
        g, data = _pretrained(seed=5)
        folded = fold_bn_graph(g)
        with pytest.raises(WorkflowError):
            run_workflow(folded, data, _cfg())

    def test_zero_budgets_reduce_to_prune_prune_fold(self):
        g, data = _pretrained(seed=6, epochs=12)
        result = run_workflow(g, data, _cfg(epochs_act=0, epochs_weight=0))
        reference = fold_bn_graph(apply_pfq(apply_pfq(g, 1e-5)[0], 1e-5)[0])
        x = data.val_images
        assert np.array_equal(run_inference(result.graph, x),
                              run_inference(reference, x))

    def test_deterministic_given_seed(self):
        g, data = _pretrained(seed=7)
        r1 = run_workflow(g, data, _cfg())
        r2 = run_workflow(g, data, _cfg())
        x = data.val_images
        assert np.array_equal(run_inference(r1.graph, x), run_inference(r2.graph, x))


class TestBaseline:
    def test_single_stage_artifacts(self, tmp_path):
        g, data = _pretrained(seed=8)
        result = run_single_stage_baseline(g, data, _cfg(), out_dir=tmp_path)
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "prune_report.csv").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "workflow.log").exists()
        assert len(result.metrics_act) == 2  # combined budget

    def test_zero_budget_reduces_to_prune_fold(self):
        g, data = _pretrained(seed=9, epochs=12)
        result = run_single_stage_baseline(g, data, _cfg(epochs_act=0, epochs_weight=0))
        reference = fold_bn_graph(apply_pfq(g, 1e-5)[0])
        x = data.val_images
        assert np.array_equal(run_inference(result.graph, x),
                              run_inference(reference, x))

    def test_requires_bn_graph(self):
        g, data = _pretrained(seed=10)
        with pytest.raises(WorkflowError):
            run_single_stage_baseline(fold_bn_graph(g), data, _cfg())


class TestHealthyGraphNoop:
    def test_no_candidates_means_empty_reports(self):
        # no dead filters: both prune passes are no-ops
        g, data = _pretrained(seed=11, epochs=2, dead=0)
        result = run_workflow(g, data, _cfg())
        assert not result.prune_first.entries
        assert not result.prune_second.entries
        assert result.prune_first.params_before == result.prune_first.params_after


class TestZeroSpreadWeights:
    """A weight tensor whose elements are all equal has no quantizer range.
    BN at its initial state folds with one factor for every channel, so
    conv2 still has zero spread when weight quantization turns on."""

    @staticmethod
    def _flat_conv_graph(monkeypatch):
        """The graph, and the epoch budget of every train_epochs call the
        workflow makes from here on."""
        g = build_small_convnet(input_shape=(3, 8, 8), class_count=3, width=6, seed=1)
        g.layer("conv2").params.weights[...] = 0.05
        budgets = []
        real_train_epochs = workflow.train_epochs

        def counting_train_epochs(*args, epochs, **kw):
            budgets.append(epochs)
            return real_train_epochs(*args, epochs=epochs, **kw)

        monkeypatch.setattr(workflow, "train_epochs", counting_train_epochs)
        return g, budgets

    def test_workflow_names_layer_before_stage4_trains(self, monkeypatch):
        g, budgets = self._flat_conv_graph(monkeypatch)
        with pytest.raises(QuantRangeError, match="layer 'conv2': weight tensor has zero spread"):
            run_workflow(g, _bundle(), _cfg(epochs_act=0, epochs_weight=1))
        assert budgets == [0]  # stage 1 ran with no epochs, stage 4 never started

    def test_baseline_names_layer_before_training(self, monkeypatch):
        g, budgets = self._flat_conv_graph(monkeypatch)
        with pytest.raises(QuantRangeError, match="layer 'conv2': weight tensor has zero spread"):
            run_single_stage_baseline(g, _bundle(), _cfg())
        assert budgets == []
