"""Command-line surface: config validation, overrides, subcommand plumbing.

The numeric behavior behind each subcommand is covered by the library
tests; here we check that the CLI wires files, flags, and exit codes
correctly, and that failures surface as a single `error:` line.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pfqkit
from pfqkit.cli import ConfigError, _build_data, load_config, main
from pfqkit.engine import evaluate
from pfqkit.graph import count_macs, load_model, save_model
from pfqkit.pruning import apply_pfq, scan_candidates
from pfqkit.quantization import insert_quant_points
from pfqkit.training import LRSchedule, OptimizerState, train_epochs
from pfqkit.workflow import WorkflowConfig, run_workflow


# Stops at the first epoch: every validation accuracy is >= 0.0 - 1.0.
_STOP_AT_ONCE = {"reference_accuracy": 0.0, "drop_threshold": 1.0}


def _write_cfg(directory, **extra):
    cfg = {
        "seed": 0,
        "data": {"kind": "synthetic", "class_count": 3, "per_class": 8,
                 "test_per_class": 2, "shape": [3, 8, 8], "seed": 1},
        "split": {"per_class": 2, "seed": 0},
        "arch": {"name": "small_convnet", "width": 4, "dead_stem_filters": 1},
        "train": {"epochs": 40, "batch_size": 8, "base_lr": 0.05, "period": 40},
        "workflow": {"epochs_act": 1, "epochs_weight": 1,
                     "act_period": 1, "weight_period": 1},
    }
    for key, value in extra.items():
        if value is None:
            del cfg[key]
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    path = directory / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One pre-trained model shared by the read-only subcommand tests.

    Forty short epochs give the dead stem filter enough batch-norm updates
    for its running variance to decay below the default pruning threshold.
    """
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_cfg(root)
    out = root / "train"
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return cfg, str(out / "model.json"), root


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg["seed"] == 0
        assert cfg["pfq"]["epsilon"] == 1e-5
        assert cfg["train"]["epochs"] == 4

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"archx": {}}')
        with pytest.raises(ConfigError, match="unknown key 'archx'"):
            load_config(path)

    def test_unknown_nested_key_reports_dotted_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"train": {"bogus": 1}}')
        with pytest.raises(ConfigError, match="train.bogus"):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": "zero"}')
        with pytest.raises(ConfigError, match="must be int"):
            load_config(path)

    def test_bool_is_not_an_int(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": true}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_int_accepted_where_float_expected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"pfq": {"epsilon": 1}}')
        cfg = load_config(path)
        assert cfg["pfq"]["epsilon"] == 1

    def test_set_override_parses_json_values(self):
        cfg = load_config(None, ["train.epochs=7", "data.shape=[1, 4, 4]",
                                 "pfq.epsilon=0.5"])
        assert cfg["train"]["epochs"] == 7
        assert cfg["data"]["shape"] == [1, 4, 4]
        assert cfg["pfq"]["epsilon"] == 0.5

    def test_set_override_falls_back_to_string(self):
        cfg = load_config(None, ["arch.name=ds_convnet"])
        assert cfg["arch"]["name"] == "ds_convnet"

    def test_set_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="dotted.key=value"):
            load_config(None, ["train.epochs"])

    def test_set_through_scalar_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 3}')
        with pytest.raises(ConfigError):
            load_config(path, ["seed.inner=1"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def _cifar10_file(path, labels):
    """A CIFAR-10 binary batch: per record a label byte, then 3072 pixel
    bytes, all 10 * label + index (the record's index in labels)."""
    path.write_bytes(b"".join(bytes([label]) + bytes([10 * label + i]) * 3072
                              for i, label in enumerate(labels)))
    return str(path)


class TestCifarData:
    def _cfg(self, train_files, test_files=(), kind="cifar"):
        return load_config(overrides=[
            f"data.kind={kind}", f"data.train_files={json.dumps(train_files)}",
            f"data.test_files={json.dumps(list(test_files))}", "split.per_class=1"])

    def test_train_files_concatenate_and_split(self, tmp_path):
        """Two train files are read in order and concatenated, then one image
        per class is moved to the validation split; the test file is the
        test split."""
        a = _cifar10_file(tmp_path / "a.bin", range(10))
        b = _cifar10_file(tmp_path / "b.bin", [3, 1, 4, 1, 5])
        test = _cifar10_file(tmp_path / "test.bin", [9, 2])
        data = _build_data(self._cfg([a, b], [test]))
        assert data.train_images.shape == (5, 3, 32, 32) and data.val_images.shape[0] == 10
        assert sorted(data.val_labels) == list(range(10))
        pixels = np.concatenate([data.train_images, data.val_images])[:, 0, 0, 0] * 255
        labels = np.concatenate([data.train_labels, data.val_labels])
        assert sorted(zip(np.rint(pixels).astype(int).tolist(), labels.tolist())) == sorted(
            [(10 * label + i, label) for i, label in enumerate(range(10))]
            + [(10 * label + i, label) for i, label in enumerate([3, 1, 4, 1, 5])])
        assert data.test_labels.tolist() == [9, 2]
        assert np.rint(data.test_images[:, :, 0, 0] * 255).tolist() == [[90] * 3, [21] * 3]

    def test_without_test_files_there_is_no_test_split(self, tmp_path):
        a = _cifar10_file(tmp_path / "a.bin", range(10))
        data = _build_data(self._cfg([a]))
        assert data.test_images is None and len(data.val_images) == 10

    def test_empty_train_files_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^config: data.train_files is empty$"):
            _build_data(self._cfg([]))

    def test_unknown_data_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^config: unknown data.kind 'imagenet'$"):
            _build_data(self._cfg([], kind="imagenet"))


class TestTrain:
    def test_writes_model_and_metrics(self, trained, capsys):
        cfg, model, root = trained
        assert os.path.exists(model)
        assert os.path.exists(model.replace("model.json", "model.bin"))
        assert os.path.exists(model.replace("model.json", "metrics.csv"))

    def test_reports_test_accuracy(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, train={"epochs": 1, "batch_size": 8,
                                          "base_lr": 0.05, "period": 1})
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("test_acc=")
        acc = float(out.strip().split("=", 1)[1])
        assert 0.0 <= acc <= 1.0

    def test_set_override_shortens_run(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "short"
        rc = main(["train", "--config", cfg, "--set", "train.epochs=1",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_early_stop(self, tmp_path):
        cfg = _write_cfg(tmp_path, train={"epochs": 3, "period": 3,
                                          "early_stop": _STOP_AT_ONCE})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 2

    def test_a_section_without_mode_stops(self, trained, tmp_path, capsys):
        """An early_stop section always means accuracy drop; one that never
        had a mode key used to run the full budget."""
        cfg, model, _ = trained
        capsys.readouterr()
        assert main(["finetune", "--config", cfg, "--model", model, "--set", "train.epochs=3",
                     "--set", f"train.early_stop={json.dumps(_STOP_AT_ONCE)}",
                     "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == "epochs=1\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, train={"epochs": 2, "batch_size": 8,
                                          "base_lr": 0.05, "period": 2})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()
        assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()


class TestCompressionChain:
    def test_pfq_prunes_and_reports(self, trained, capsys):
        cfg, model, root = trained
        out = root / "pfq"
        capsys.readouterr()
        rc = main(["pfq", "--config", cfg, "--model", model, "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.startswith("pruned 1 ")
        assert "MACs" in text
        assert (out / "prune_report.csv").exists()
        assert (out / "model.json").exists()

    def test_fold_bn_removes_bn_layers(self, trained, capsys):
        cfg, model, root = trained
        out = root / "fold"
        capsys.readouterr()
        rc = main(["fold-bn", "--model", model, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "folded"
        folded = load_model(out / "model.json")
        assert all(layer.kind != "bn" for layer in folded.layers)

    def test_quantize_annotate_counts_points(self, trained, capsys):
        cfg, model, root = trained
        fold = root / "fold2"
        main(["fold-bn", "--model", model, "--out", str(fold)])
        out = root / "annot"
        capsys.readouterr()
        rc = main(["quantize-annotate", "--config", cfg,
                   "--model", str(fold / "model.json"), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "activation_points=3 weight_points=3"

    def test_finetune_reports_epoch_count(self, trained, capsys):
        cfg, model, root = trained
        annot = root / "annot_live"
        main(["quantize-annotate", "--config", cfg, "--model", model,
              "--out", str(annot)])
        out = root / "tuned"
        capsys.readouterr()
        rc = main(["finetune", "--config", cfg, "--model", str(annot / "model.json"),
                   "--set", "train.epochs=1", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.strip() == "epochs=1"
        assert (out / "metrics.csv").exists()

    def test_finetune_enables_weight_quant(self, trained, tmp_path):
        cfg, model, root = trained
        fold, annot, out = tmp_path / "fold", tmp_path / "annot", tmp_path / "tuned"
        assert main(["fold-bn", "--model", model, "--out", str(fold)]) == 0
        assert main(["quantize-annotate", "--config", cfg, "--model", str(fold / "model.json"),
                     "--out", str(annot)]) == 0
        points = [l.weight_quant for l in load_model(annot / "model.json").layers
                  if l.weight_quant is not None]
        assert len(points) == 3 and not any(p.enabled for p in points)
        assert main(["finetune", "--config", cfg, "--model", str(annot / "model.json"),
                     "--set", "train.epochs=1", "--enable-weight-quant", "--out", str(out)]) == 0
        points = [l.weight_quant for l in load_model(out / "model.json").layers
                  if l.weight_quant is not None]
        assert len(points) == 3 and all(p.enabled for p in points)

    def test_pfq_quantizes_constants_as_apply_pfq_does(self, trained, tmp_path, capsys):
        """pfq on a calibrated, annotated model writes apply_pfq's prune
        report; bn2's channel 1, made constant at 0.43, reaches fc through
        relu2_q, which snaps it, so fc's bias takes the snapped constant
        times its weights. --quantize-act-of-beta is an unknown argument."""
        cfg, model, _ = trained
        g = insert_quant_points(load_model(model), 4, 4)
        g, _ = train_epochs(g, _build_data(load_config(cfg)), LRSchedule(0.01, 0, 1),
                            OptimizerState(), epochs=1, batch_size=8)
        bn = g.layer("bn2").params
        bn.running_var[1], bn.beta[1] = 1e-7, 0.43
        save_model(g, tmp_path / "m.json")
        argv = ["pfq", "--config", cfg, "--model", str(tmp_path / "m.json"),
                "--out", str(tmp_path / "pfq")]
        assert main(argv) == 0
        written = (tmp_path / "pfq" / "prune_report.csv").read_text()
        g = load_model(tmp_path / "m.json")
        _, report = apply_pfq(g, 1e-5)
        report.to_csv(tmp_path / "lib.csv")
        assert (tmp_path / "lib.csv").read_text() == written
        snapped = next(c.act_of_beta for c in scan_candidates(g, 1e-5)
                       if (c.layer, c.channel) == ("bn2", 1))
        assert snapped != np.float32(0.43)
        entry = next(e for e in report.entries if (e.layer, e.channel) == ("bn2", 1))
        assert entry.kind == "bias"
        w = g.layer("fc").params.weights[1]
        assert entry.u_norm == pytest.approx(float(np.linalg.norm(w * np.float32(snapped))),
                                             rel=1e-6)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--quantize-act-of-beta"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quantize-act-of-beta" in capsys.readouterr().err

    def test_eval_reports_accuracy(self, trained, capsys):
        cfg, model, root = trained
        capsys.readouterr()
        rc = main(["eval", "--config", cfg, "--model", model])
        out = capsys.readouterr().out
        assert rc == 0
        acc = float(out.strip().split("=", 1)[1])
        assert 0.0 <= acc <= 1.0

    def test_eval_without_test_split_uses_validation(self, trained, tmp_path, capsys):
        _, model, _ = trained
        cfg = _write_cfg(tmp_path, data={"test_per_class": 0})
        data = _build_data(load_config(cfg))
        assert len(data.test_images) == 0 and len(data.val_images) == 6
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--model", model]) == 0
        expected = evaluate(load_model(model), data.val_images, data.val_labels)
        assert capsys.readouterr().out == f"accuracy={expected!r}\n"

    def test_eval_without_any_split_is_a_config_error(self, trained, tmp_path, capsys):
        _, model, _ = trained
        cfg = _write_cfg(tmp_path, data={"test_per_class": 0}, split={"per_class": 0})
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--model", model]) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: no test or validation split to evaluate on\n")


class TestWorkflowCommands:
    def test_workflow_traces_and_artifacts(self, trained, capsys):
        cfg, model, root = trained
        out = root / "wf"
        capsys.readouterr()
        rc = main(["workflow", "--config", cfg, "--model", model, "--out", str(out)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert [l.split(":")[0] for l in lines] == [
            "stage0 pfq", "stage1 finetune-activations", "stage2 pfq",
            "stage3 fold-bn", "stage4 finetune-weights"]
        for stage in range(5):
            assert (out / f"stage{stage}" / "model.json").exists()
        assert (out / "workflow.log").exists()

    def test_workflow_defaults_are_workflow_configs(self, trained, tmp_path):
        """A config without workflow keys runs WorkflowConfig's defaults."""
        _, model, _ = trained
        cfg = _write_cfg(tmp_path, workflow=None)
        out = tmp_path / "wf"
        assert main(["workflow", "--config", cfg, "--model", model, "--out", str(out)]) == 0
        lib = tmp_path / "lib"
        run_workflow(load_model(model), _build_data(load_config(cfg)),
                     WorkflowConfig(batch_size=8), out_dir=lib)
        for name in ("model.bin", "metrics.csv"):
            assert (out / "stage4" / name).read_bytes() == (lib / "stage4" / name).read_bytes()

    def test_workflow_early_stop_applies_to_both_training_stages(self, trained, tmp_path,
                                                                 capsys):
        _, model, _ = trained
        cfg = _write_cfg(tmp_path, workflow={"epochs_act": 2, "epochs_weight": 2,
                                             "early_stop": _STOP_AT_ONCE})
        capsys.readouterr()
        assert main(["workflow", "--config", cfg, "--model", model,
                     "--out", str(tmp_path / "wf")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "stage1 finetune-activations: epochs=1"
        assert lines[4] == "stage4 finetune-weights: epochs=1"

    def test_baseline_once_traces(self, trained, capsys):
        cfg, model, root = trained
        out = root / "base"
        capsys.readouterr()
        rc = main(["baseline-once", "--config", cfg, "--model", model,
                   "--out", str(out)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0].startswith("baseline pfq:")


class TestReports:
    def test_range_report_lines_and_csv(self, trained, capsys):
        cfg, model, root = trained
        out = root / "ranges"
        capsys.readouterr()
        rc = main(["report-range", "--model", model, "--out", str(out)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 3
        for line in lines:
            assert len(line.split(",")) == 4
        assert (out / "range.csv").exists()

    def test_constancy_report_on_no_images_is_a_named_error(self, trained, capsys):
        """A validation split that takes every pool image leaves no train
        images to report on."""
        cfg, model, _ = trained
        capsys.readouterr()
        assert main(["report-constancy", "--config", cfg, "--model", model,
                     "--set", "split.per_class=8"]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: channel_constancy_report: no images\n")

    @pytest.mark.parametrize("batch", ["0", "-5", "2.5", "x"])
    def test_constancy_report_batch_that_is_no_count_is_a_usage_error(self, trained, capsys, batch):
        """--batch counts images, at least one: a negative count would slice
        from the end."""
        cfg, model, _ = trained
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report-constancy", "--config", cfg, "--model", model, "--batch", batch])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "pfqkit report-constancy: error: argument --batch: expected an integer of at "
            f"least 1, got '{batch}'")

    def test_constancy_report(self, trained, capsys):
        cfg, model, root = trained
        out = root / "const"
        capsys.readouterr()
        rc = main(["report-constancy", "--config", cfg, "--model", model,
                   "--batch", "8", "--out", str(out)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) > 0
        for line in lines:
            assert len(line.split(",")) == 4
        assert (out / "constancy.csv").exists()

    def test_count_macs_csv(self, trained, tmp_path):
        _, model, _ = trained
        assert main(["count-macs", "--model", model, "--out", str(tmp_path / "m")]) == 0
        expected = ["layer,macs"] + [f"{name},{count}" for name, count
                                     in count_macs(load_model(model)).items()]
        assert (tmp_path / "m" / "macs.csv").read_text().splitlines() == expected

    def test_count_macs_matches_library(self, trained, capsys):
        cfg, model, root = trained
        expected = sum(count_macs(load_model(model)).values())
        capsys.readouterr()
        rc = main(["count-macs", "--model", model])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(out.strip()) == expected


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Every `pfqkit` line of README's "Command line" sh block exits 0 as
    written, in a directory holding the section's config as run.json; lines
    that take --config get --set overrides that shrink the data and epochs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
    (tmp_path / "run.json").write_text(next(body for kind, body in blocks if kind == "json"))
    lines = [line for kind, body in blocks if kind == "sh"
             for line in body.splitlines() if line.startswith("pfqkit ")]
    shrink = [f"--set={item}" for item in (
        "data.per_class=3", "data.test_per_class=1", "data.shape=[3,8,8]", "split.per_class=1",
        "train.epochs=1", "workflow.epochs_act=1", "workflow.epochs_weight=1")]
    monkeypatch.chdir(tmp_path)
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv + shrink if "--config" in argv else argv) == 0, line


class TestFailureSurface:
    def test_missing_model_single_error_line(self, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["fold-bn", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "\n" not in captured.err.strip()

    @pytest.mark.parametrize("command", ["fold-bn", "report-range", "count-macs"])
    def test_set_rejected_where_no_config_is_read(self, tmp_path, capsys, command):
        argv = [command, "--set", "seed=1", "--model", str(tmp_path / "m.json")]
        if command == "fold-bn":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --set seed=1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("pfq", ["--epsilon", "1e-4"]),
        ("quantize-annotate", ["--act-bits", "3"]),
        ("quantize-annotate", ["--weight-bits", "3"]),
        ("quantize-annotate", ["--enable-weights"]),
        ("finetune", ["--epochs", "1"]),
    ])
    def test_no_flag_repeats_a_config_key(self, tmp_path, capsys, command, flags):
        argv = [command, "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_early_stop_mode_is_an_unknown_key(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["train", "--set", 'train.early_stop={"mode": "accuracy_drop"}',
                     "--out", str(tmp_path / "out")]) == 1
        assert "unknown key 'train.early_stop.mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["train", "workflow"])
    def test_early_stop_without_reference_is_a_config_error(self, trained, tmp_path, capsys,
                                                            section):
        """The section is read by the subcommand of its name."""
        cfg, model, _ = trained
        argv = [section, "--config", cfg, "--out", str(tmp_path / "out"),
                "--set", f'{section}.early_stop={{"drop_threshold": 0.1}}']
        if section == "workflow":
            argv += ["--model", model]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: config: '{section}.early_stop' needs reference_accuracy\n")

    @pytest.mark.parametrize("section", ["train", "workflow"])
    @pytest.mark.parametrize("field, value", [("reference_accuracy", float("nan")),
                                              ("drop_threshold", float("inf"))])
    def test_early_stop_not_finite_is_one_error_line(self, trained, tmp_path, capsys, section,
                                                     field, value):
        """JSON admits NaN and Infinity, and the schema types them float."""
        cfg, model, _ = trained
        spec = json.dumps({"reference_accuracy": 0.5, field: value})
        argv = [section, "--config", cfg, "--out", str(tmp_path / "out"),
                "--set", f"{section}.early_stop={spec}"]
        if section == "workflow":
            argv += ["--model", model]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: EarlyStopPolicy: {field} must be a finite real number, "
            f"got {value!r}\n")
        assert not (tmp_path / "out" / "model.json").exists()

    def test_bad_config_key_via_cli(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"trian": {"epochs": 1}}')
        capsys.readouterr()
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown key 'trian'" in captured.err

    def test_threads_flag_caps_blas_pools(self, trained, monkeypatch, capsys):
        cfg, model, root = trained
        for flag in (["--threads", "2"], ["--threads=2"]):
            monkeypatch.setenv("OMP_NUM_THREADS", "sentinel")
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "sentinel")
            rc = main(["count-macs", "--model", model] + flag)
            assert rc == 0
            assert os.environ["OMP_NUM_THREADS"] == "2"
            assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_cli_import_leaves_numpy_unloaded(self):
        """--threads only caps the running command's BLAS pools if numpy has
        not loaded yet when main() exports the caps."""
        code = ("import sys, pfqkit.cli; assert 'numpy' not in sys.modules; "
                "from pfqkit import apply_pfq, __version__; assert 'numpy' in sys.modules")
        env = {**os.environ, "PYTHONPATH": str(Path(pfqkit.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
