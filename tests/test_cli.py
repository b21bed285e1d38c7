"""Command-line surface: config validation, overrides, subcommand plumbing.

The numeric behavior behind each subcommand is covered by the library
tests; here we check that the CLI wires files, flags, and exit codes
correctly, and that failures surface as a single `error:` line.
"""

import json
import os

import pytest

from pfqkit.cli import ConfigError, load_config, main
from pfqkit.graph import count_macs, load_model


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
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
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
                   "--epochs", "1", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.strip() == "epochs=1"
        assert (out / "metrics.csv").exists()

    def test_eval_reports_accuracy(self, trained, capsys):
        cfg, model, root = trained
        capsys.readouterr()
        rc = main(["eval", "--config", cfg, "--model", model])
        out = capsys.readouterr().out
        assert rc == 0
        acc = float(out.strip().split("=", 1)[1])
        assert 0.0 <= acc <= 1.0


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

    def test_count_macs_matches_library(self, trained, capsys):
        cfg, model, root = trained
        expected = sum(count_macs(load_model(model)).values())
        capsys.readouterr()
        rc = main(["count-macs", "--model", model])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(out.strip()) == expected


class TestFailureSurface:
    def test_missing_model_single_error_line(self, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["fold-bn", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "\n" not in captured.err.strip()

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
