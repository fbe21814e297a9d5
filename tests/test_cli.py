"""End-to-end CLI behavior: flags, config files, exit codes."""

import os
import re

import numpy as np
import pytest

import segbert.autodiff as autodiff
import segbert.cli as cli
import segbert.training as training
from conftest import synth_dataset
from segbert.cli import RunConfig, build_configs, main, parse_config_text
from segbert.dataset import load_tu_dataset, write_tu_dataset
from segbert.model import ModelConfig, config_for, load_checkpoint
from segbert.training import TrainConfig, default_learning_rate
from segbert.unify import Strategy, resolve_plan


@pytest.fixture()
def data_dir(tmp_path):
    ds = synth_dataset(count=12, seed=3, name="SYNTH")
    target = tmp_path / "SYNTH"
    target.mkdir(parents=True)
    write_tu_dataset(ds, str(target))
    return str(tmp_path)


TINY_FLAGS = ["--hidden", "8", "--heads", "2", "--layers", "1",
              "--intermediate", "6", "--dropout-hidden", "0.1",
              "--dropout-attn", "0.1", "--epochs", "2", "--patience", "2",
              "--batch-size", "8", "--strategy", "padding-pruning",
              "--k", "8", "--seed", "3"]


# ----------------------------------------------------------------------
# config round-trips


def test_run_config_text_round_trip():
    cfg = RunConfig(dataset="SYNTH", data_dir="/tmp/x", strategy="full-input",
                    k=28, lr=0.0005, grad_clip=None, dropout_hidden=0.17,
                    pretrain="structure", out="runs/x")
    assert RunConfig(**parse_config_text(cfg.to_text())) == cfg


def test_run_config_none_fields_survive():
    cfg = RunConfig()
    again = RunConfig(**parse_config_text(cfg.to_text()))
    assert again.k is None and again.lr is None and again.grad_clip is None


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("nonsense=1\n", "cfg")


def test_parse_config_reports_line_numbers():
    with pytest.raises(ValueError, match="cfg:2"):
        parse_config_text("seed=1\nthis is not a pair\n", "cfg")
    with pytest.raises(ValueError, match="bad value for seed"):
        parse_config_text("seed=banana\n", "cfg")


def test_parse_config_skips_comments_and_blanks():
    values = parse_config_text("# comment\n\nseed=4\n")
    assert values == {"seed": 4}


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ValueError, match="cfg:3: duplicate config key 'seed'"):
        parse_config_text("seed=1\nepochs=4\nseed=2\n", "cfg")


@pytest.mark.parametrize("key, value", [("strategy", "sideways"),
                                        ("residual", "bogus")])
def test_config_file_values_checked_against_flag_choices(key, value, data_dir,
                                                        tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset=SYNTH\n{key}={value}\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--data-dir", data_dir,
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2: bad value for {key}: invalid choice {value!r}" in err
    assert not os.path.exists(tmp_path / "x")


def test_parse_config_accepts_every_choice():
    for mode in ("none", "raw"):
        assert parse_config_text(f"residual={mode}\n") == {"residual": mode}
    for strategy in Strategy:
        assert parse_config_text(f"strategy={strategy.value}\n") == {"strategy": strategy.value}


# ----------------------------------------------------------------------
# one source of truth for defaults


# RunConfig key -> the (class, field) it sets, written out independently
# of the key table in segbert.cli
OWNED_KEYS = {"residual": (ModelConfig, "residual_mode"),
              "hidden": (ModelConfig, "hidden_dim"),
              "heads": (ModelConfig, "head_count"),
              "layers": (ModelConfig, "layer_count"),
              "intermediate": (ModelConfig, "intermediate_dim"),
              "dropout_hidden": (ModelConfig, "dropout_hidden"),
              "dropout_attn": (ModelConfig, "dropout_attention"),
              "wl_iterations": (ModelConfig, "wl_iterations"),
              "weight_decay": (TrainConfig, "weight_decay"),
              "epochs": (TrainConfig, "epochs"),
              "patience": (TrainConfig, "early_stop_patience"),
              "batch_size": (TrainConfig, "batch_size"),
              "seed": (TrainConfig, "seed"),
              "pretrain_epochs": (TrainConfig, "pretrain_epochs"),
              "grad_clip": (TrainConfig, "grad_clip")}


def test_run_config_keys_default_to_their_owner_fields():
    cfg = RunConfig()
    for key, (owner, name) in OWNED_KEYS.items():
        assert getattr(cfg, key) == getattr(owner(), name), key


@pytest.mark.parametrize("name", ["SYNTH", "PTC_MR"])
def test_cli_and_api_defaults_build_identical_configs(name, data_dir):
    ds = load_tu_dataset(os.path.join(data_dir, "SYNTH"), "SYNTH")
    plan, model_cfg, train_cfg = build_configs(RunConfig(dataset=name), ds)
    assert plan == resolve_plan(ds, Strategy.SEGMENT_SHIFTING, None)
    assert model_cfg == config_for(ds, plan)
    assert train_cfg == TrainConfig(learning_rate=default_learning_rate(name))


def test_build_configs_sets_every_owned_field(data_dir):
    ds = load_tu_dataset(os.path.join(data_dir, "SYNTH"), "SYNTH")
    cfg = RunConfig(dataset="SYNTH", strategy="padding-pruning", k=8,
                    residual="raw", hidden=12, heads=3, layers=1,
                    intermediate=5, dropout_hidden=0.25, dropout_attn=0.125,
                    wl_iterations=0, lr=0.003, weight_decay=0.01, epochs=7,
                    patience=3, batch_size=4, seed=9, pretrain="structure",
                    pretrain_epochs=2, grad_clip=0.5)
    plan, model_cfg, train_cfg = build_configs(cfg, ds)
    assert (plan.strategy, plan.k) == (Strategy.PADDING_PRUNING, 8)
    for key, (owner, name) in OWNED_KEYS.items():
        built = model_cfg if owner is ModelConfig else train_cfg
        assert getattr(built, name) == getattr(cfg, key), key
    assert train_cfg.learning_rate == 0.003
    assert train_cfg.pretrain_tasks == ("structure",)


# ----------------------------------------------------------------------
# inspect


def test_inspect_prints_statistics(data_dir, capsys):
    code = main(["inspect", "--dataset", "SYNTH", "--data-dir", data_dir])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("SYNTH: 12 graphs, 2 classes, avg ")
    assert "max" in out


def test_inspect_env_var_fallback(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("SEGBERT_DATA_DIR", data_dir)
    assert main(["inspect", "--dataset", "SYNTH"]) == 0
    assert "SYNTH: 12 graphs" in capsys.readouterr().out


@pytest.mark.skipif(training.blas_threads() is None, reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("code", [0, 1])
def test_main_runs_one_blas_thread_and_restores_the_count(data_dir, monkeypatch, code):
    """A command runs with one OpenBLAS thread; the caller's count is back
    afterwards, also when the command fails."""
    before = training.blas_threads()
    seen = []

    def inspect_threads(args):
        seen.append(training.blas_threads())
        if code:
            raise ValueError("synthetic failure")
        return 0

    monkeypatch.setattr(cli, "cmd_inspect", inspect_threads)
    assert main(["inspect", "--dataset", "SYNTH", "--data-dir", data_dir]) == code
    assert seen == [1] and training.blas_threads() == before


def test_missing_data_dir_is_exit_1(capsys, monkeypatch):
    monkeypatch.delenv("SEGBERT_DATA_DIR", raising=False)
    assert main(["inspect", "--dataset", "SYNTH"]) == 1
    assert "data directory" in capsys.readouterr().err


def test_missing_dataset_files_exit_1(tmp_path, capsys):
    code = main(["inspect", "--dataset", "NOPE", "--data-dir",
                 str(tmp_path)])
    assert code == 1
    assert "NOPE" in capsys.readouterr().err
    assert main(["train", "--data-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: no dataset name given (use --dataset)\n"


def test_unknown_flag_is_exit_2(data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--dataset", "SYNTH", "--data-dir", data_dir,
              "--frobnicate"])
    assert exc.value.code == 2


def test_bad_strategy_value_is_exit_2(data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
              "--strategy", "sideways"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# train


def test_train_writes_reports_and_echo(data_dir, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", out] + TINY_FLAGS)
    assert code == 0
    for name in ["summary.csv", "timing.csv", "config_echo.txt",
                 "fold_0.csv", "fold_9.csv"]:
        assert os.path.exists(os.path.join(out, name)), name
    stdout = capsys.readouterr().out
    assert "mean test accuracy" in stdout
    with open(os.path.join(out, "config_echo.txt"), encoding="utf-8") as fh:
        echo = RunConfig(**parse_config_text(fh.read()))
    assert echo.k == 8
    assert echo.lr == pytest.approx(1e-4)
    assert echo.strategy == "padding-pruning"


def test_train_rerun_from_echo_is_byte_identical(data_dir, tmp_path):
    out1 = str(tmp_path / "one")
    out2 = str(tmp_path / "two")
    assert main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", out1] + TINY_FLAGS) == 0
    echo_path = os.path.join(out1, "config_echo.txt")
    assert main(["train", "--config", echo_path, "--out", out2]) == 0
    with open(os.path.join(out1, "summary.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "summary.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_train_writes_checkpoint(data_dir, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    ckpt = str(tmp_path / "model.bin")
    real_run_cv, summaries = cli.run_cv, []

    def run_cv(*args, **kwargs):
        summaries.append(real_run_cv(*args, **kwargs))
        return summaries[-1]

    monkeypatch.setattr(cli, "run_cv", run_cv)
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", out, "--checkpoint", ckpt] + TINY_FLAGS)
    assert code == 0
    params = load_checkpoint(ckpt)
    assert "classifier.weight" in params.names()
    assert params["classifier.weight"].value.shape == (8, 2)
    # the fold with the best validation accuracy, the lowest index on ties
    best = min(summaries[0].folds, key=lambda r: (-r.best_val_accuracy, r.fold_index))
    assert f"checkpoint (fold {best.fold_index})" in capsys.readouterr().out
    assert params.names() == list(best.final_values)
    for name, value in best.final_values.items():
        assert np.array_equal(params[name].value, value), name


def test_train_full_input_low_k_override_fails(data_dir, tmp_path, capsys):
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", str(tmp_path / "x"), "--strategy", "full-input",
                 "--k", "2"])
    assert code == 1
    assert "below max_nodes" in capsys.readouterr().err


def test_train_with_pretraining(data_dir, tmp_path):
    out = str(tmp_path / "out")
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", out, "--pretrain", "structure",
                 "--pretrain-epochs", "1"] + TINY_FLAGS)
    assert code == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))


@pytest.mark.parametrize("flag, value, message", [
    ("--wl-iterations", "-3", "wl_iterations must be non-negative, got -3"),
    ("--jobs", "-2", "jobs must be at least 1, got -2"),
    ("--jobs", "0", "jobs must be at least 1, got 0"),
])
def test_train_rejects_out_of_range_counts_exit_1(flag, value, message,
                                                  data_dir, tmp_path, capsys):
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", str(tmp_path / "x"), flag, value] + TINY_FLAGS)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_train_bad_pretrain_task_exit_1(data_dir, tmp_path, capsys):
    code = main(["train", "--dataset", "SYNTH", "--data-dir", data_dir,
                 "--out", str(tmp_path / "x"), "--pretrain", "osmosis"]
                + TINY_FLAGS)
    assert code == 1
    assert "unknown pre-training task" in capsys.readouterr().err


# ----------------------------------------------------------------------
# gradcheck


GRAD_FLAGS = ["--hidden", "8", "--intermediate", "6", "--layers", "1"]


def test_gradcheck_passes_by_default(capsys):
    code = main(["gradcheck", "--residual", "none"] + GRAD_FLAGS)
    assert code == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert "pass" in out


def test_gradcheck_both_modes(capsys):
    code = main(["gradcheck"] + GRAD_FLAGS)
    assert code == 0
    out = capsys.readouterr().out
    assert "residual=none" in out and "residual=raw" in out
    # per mode, the loss evaluations (1 + 2 x entries) and the wall time;
    # the raw residual adds 3 x 8 + 8 entries
    for mode, evaluations in (("none", 1239), ("raw", 1303)):
        assert re.search(rf"residual={mode}: {evaluations} loss evaluations "
                         r"in \d+\.\d\ds\n", out)


@pytest.mark.parametrize("flag", ["--tolerance", "--step"])
def test_gradcheck_gate_is_not_settable(flag):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", flag, "1"] + GRAD_FLAGS)
    assert exc.value.code == 2


def test_gradcheck_detects_corrupted_backward(capsys, monkeypatch):
    real_mlp = autodiff.Tape.mlp

    def tampered(self, x, fc1, fc2):
        out = real_mlp(self, x, fc1, fc2)
        if not (self.entries and self.entries[-1].output is out):
            return out  # a paused tape records no entry to corrupt
        entry = self.entries[-1]
        orig = entry.backward

        def bad():
            orig()
            src = entry.inputs[0]
            if src.grad is not None:
                src.grad *= 1.01

        entry.backward = bad
        return out

    monkeypatch.setattr(autodiff.Tape, "mlp", tampered)
    code = main(["gradcheck", "--residual", "none"] + GRAD_FLAGS)
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED groups" in out
