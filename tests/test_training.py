"""Training protocol: closed-form losses, early stopping, CV reports."""

import csv
import math
import os

import numpy as np
import pytest

from conftest import synth_dataset
from segbert.autodiff import Tape
from segbert.dataset import FoldSplit, make_folds
from segbert.features import build_bundles
from segbert.model import (
    config_for,
    init_params,
    prepare_dataset,
    prepare_graph,
    recover_structure,
    structure_target,
)
from segbert.training import (
    EpochStats,
    TrainConfig,
    default_learning_rate,
    evaluate_accuracy,
    finetune_fold,
    pretrain,
    run_cv,
    write_reports,
)
from segbert.unify import Strategy, UnifyPlan, resolve_plan
from segbert.dataset import GraphInstance, GraphDataset


TINY = dict(hidden_dim=8, head_count=2, layer_count=1, intermediate_dim=6,
            dropout_hidden=0.1, dropout_attention=0.1)


def tiny_setup(count=12, strategy=Strategy.PADDING_PRUNING, k=8, **cfg_over):
    ds = synth_dataset(count=count, seed=3)
    plan = UnifyPlan(strategy, k)
    over = dict(TINY)
    over.update(cfg_over)
    config = config_for(ds, plan, **over)
    inputs = prepare_dataset(ds, plan, config)
    return ds, plan, config, inputs


# ----------------------------------------------------------------------
# closed forms


def test_cross_entropy_uniform_prediction_is_ln2():
    # equal logits give a [0.5, 0.5] prediction against a one-hot target
    tape = Tape()
    logits = tape.constant(np.array([[0.7, 0.7]]))
    loss = tape.cross_entropy(logits, np.array([[1.0, 0.0]]))
    assert abs(float(loss.value[0, 0]) - math.log(2.0)) < 1e-12


def test_structure_loss_identical_embeddings_is_half():
    # two connected nodes with identical embeddings: cosine matrix is all
    # ones, the weight matrix is [[0,1],[1,0]], so the MSE is 2/4 = 0.5
    g = GraphInstance(node_count=2,
                      edges=[(0, 1, 1.0), (1, 0, 1.0)], label=0)
    ds = GraphDataset(name="PAIR", graphs=[g], class_count=2, attr_dim=0,
                      tag_vocab_size=0, max_nodes=2, avg_nodes=2.0)
    plan = UnifyPlan(Strategy.FULL_INPUT, 2)
    config = config_for(ds, plan, **TINY)
    gi = prepare_graph(g, build_bundles(g, config.n_adj), plan, config)
    target = structure_target(gi)
    assert np.array_equal(target, np.array([[0.0, 1.0], [1.0, 0.0]]))
    tape = Tape()
    rows = tape.constant(np.array([[1.0, 2.0], [1.0, 2.0]]))
    loss = tape.mse(recover_structure(tape, rows), target)
    assert abs(float(loss.value[0, 0]) - 0.5) < 1e-12


# ----------------------------------------------------------------------
# config plumbing


def test_default_learning_rate_split():
    assert default_learning_rate("PTC") == pytest.approx(5e-4)
    assert default_learning_rate("ptc_mr") == pytest.approx(5e-4)
    assert default_learning_rate("MUTAG") == pytest.approx(1e-4)
    assert default_learning_rate("IMDB-BINARY") == pytest.approx(1e-4)


@pytest.mark.parametrize("bad", [
    dict(learning_rate=0.0),
    dict(weight_decay=-1e-4),
    dict(epochs=0),
    dict(early_stop_patience=0),
    dict(batch_size=0),
    dict(pretrain_epochs=-1),
    dict(pretrain_tasks=("frobnicate",)),
    dict(grad_clip=0.0),
])
def test_train_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


# ----------------------------------------------------------------------
# pre-training


def test_pretrain_zero_epochs_returns_initialization():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=0)
    init = init_params(config, seed=7)
    out = pretrain(ds, plan, config, cfg, init=init, inputs=inputs)
    assert set(out.names()) == set(init.names())
    for name, t in out.items():
        assert np.array_equal(t.value, init[name].value)


def test_pretrain_requires_a_task():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=())
    with pytest.raises(ValueError, match="at least one task"):
        pretrain(ds, plan, config, cfg, inputs=inputs)


def test_pretrain_reconstruction_needs_attributes():
    ds, plan, config, inputs = tiny_setup()  # synthetic set has no attrs
    assert config.attr_dim == 0
    cfg = TrainConfig(pretrain_tasks=("reconstruction", "structure"))
    with pytest.raises(ValueError, match="node attributes"):
        pretrain(ds, plan, config, cfg, inputs=inputs)


def test_pretrain_structure_loss_decreases_on_average():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(learning_rate=1e-3, pretrain_tasks=("structure",),
                      pretrain_epochs=8, seed=1)
    log = []
    pretrain(ds, plan, config, cfg, inputs=inputs, loss_log=log)
    assert len(log) == 8
    assert np.mean(log[-2:]) < np.mean(log[:2])


def test_pretrain_is_seed_deterministic():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=2, seed=5)
    a = pretrain(ds, plan, config, cfg, inputs=inputs)
    b = pretrain(ds, plan, config, cfg, inputs=inputs)
    for name, t in a.items():
        assert np.array_equal(t.value, b[name].value)


# ----------------------------------------------------------------------
# fine-tuning


def test_separable_toy_reaches_full_train_accuracy():
    # cycles vs stars are trivially separable from degree features alone
    ds, plan, config, inputs = tiny_setup(count=16)
    split = FoldSplit(train=list(range(12)), val=[12, 13], test=[14, 15])
    cfg = TrainConfig(learning_rate=1e-3, epochs=50, early_stop_patience=50,
                      batch_size=8, seed=0)
    report = finetune_fold(inputs, split, config, cfg)
    assert max(s.train_acc for s in report.epochs) == 1.0


def test_finetune_fold_is_deterministic():
    ds, plan, config, inputs = tiny_setup()
    split = FoldSplit(train=list(range(8)), val=[8, 9], test=[10, 11])
    cfg = TrainConfig(epochs=3, seed=11)
    a = finetune_fold(inputs, split, config, cfg, fold_index=2)
    b = finetune_fold(inputs, split, config, cfg, fold_index=2)
    assert a.chosen_epoch == b.chosen_epoch
    assert a.final_test_accuracy == b.final_test_accuracy
    assert [vars(s) for s in a.epochs] == [vars(s) for s in b.epochs]
    for name in a.final_values:
        assert np.array_equal(a.final_values[name], b.final_values[name])


def test_fold_index_changes_the_trajectory():
    ds, plan, config, inputs = tiny_setup()
    split = FoldSplit(train=list(range(8)), val=[8, 9], test=[10, 11])
    cfg = TrainConfig(epochs=2, seed=11)
    a = finetune_fold(inputs, split, config, cfg, fold_index=0)
    b = finetune_fold(inputs, split, config, cfg, fold_index=1)
    diff = any(not np.array_equal(a.final_values[n], b.final_values[n])
               for n in a.final_values)
    assert diff


def test_missing_class_in_training_split_warns():
    ds, plan, config, inputs = tiny_setup()
    # even indices are cycles (class 0); train on class 0 only
    split = FoldSplit(train=[0, 2, 4, 6], val=[1, 3], test=[5, 7])
    cfg = TrainConfig(epochs=1, seed=0)
    with pytest.warns(UserWarning, match="class 1 absent"):
        finetune_fold(inputs, split, config, cfg)


def test_early_stopping_respects_patience():
    ds, plan, config, inputs = tiny_setup()
    split = FoldSplit(train=list(range(8)), val=[8, 9], test=[10, 11])
    cfg = TrainConfig(epochs=40, early_stop_patience=2, seed=4)
    report = finetune_fold(inputs, split, config, cfg)
    # val accuracy on 2 graphs takes 3 distinct values, so a patience of
    # 2 must fire long before the epoch cap
    assert len(report.epochs) < 40
    assert report.chosen_epoch <= len(report.epochs)
    best = max(s.val_acc for s in report.epochs)
    chosen = [s for s in report.epochs if s.val_acc == best][0]
    assert chosen.epoch == report.chosen_epoch
    assert report.best_val_accuracy == best


def test_evaluate_accuracy_matches_labels():
    ds, plan, config, inputs = tiny_setup()
    params = init_params(config, seed=0)
    acc = evaluate_accuracy(params, config, inputs, list(range(len(inputs))))
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="empty"):
        evaluate_accuracy(params, config, inputs, [])


# ----------------------------------------------------------------------
# cross-validation driver and reports


def cheap_train_cfg(**over):
    base = dict(epochs=2, early_stop_patience=2, batch_size=8, seed=0)
    base.update(over)
    return TrainConfig(**base)


def test_run_cv_writes_reports(tmp_path):
    ds, plan, config, _ = tiny_setup()
    out = str(tmp_path / "run")
    summary = run_cv(ds, plan, config, cheap_train_cfg(), out_dir=out)
    assert len(summary.folds) == 10
    accs = summary.accuracies()
    assert summary.mean_accuracy == pytest.approx(np.mean(accs))
    assert summary.std_accuracy == pytest.approx(np.std(accs))
    for i in range(10):
        assert os.path.exists(os.path.join(out, f"fold_{i}.csv"))
    with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "strategy", "k", "residual", "fold",
                       "chosen_epoch", "test_accuracy"]
    assert len(rows) == 13  # header + 10 folds + mean + std
    fold_accs = [float(r[6]) for r in rows[1:11]]
    assert fold_accs == pytest.approx([r.final_test_accuracy
                                       for r in summary.folds], abs=1e-6)
    assert rows[11][4] == "mean" and rows[12][4] == "std"
    assert float(rows[11][6]) == pytest.approx(summary.mean_accuracy, abs=1e-6)
    with open(os.path.join(out, "timing.csv"), encoding="utf-8") as fh:
        timing = list(csv.reader(fh))
    assert timing[0] == ["fold", "seconds"]
    assert len(timing) == 12


def test_summary_csv_is_byte_identical_across_runs(tmp_path):
    ds, plan, config, _ = tiny_setup()
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cv(ds, plan, config, cheap_train_cfg(seed=9), out_dir=out1)
    run_cv(ds, plan, config, cheap_train_cfg(seed=9), out_dir=out2)
    with open(os.path.join(out1, "summary.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "summary.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_parallel_folds_match_sequential(tmp_path):
    ds, plan, config, _ = tiny_setup()
    seq = run_cv(ds, plan, config, cheap_train_cfg(seed=2))
    par = run_cv(ds, plan, config, cheap_train_cfg(seed=2), jobs=2)
    assert seq.accuracies() == par.accuracies()
    assert [r.chosen_epoch for r in seq.folds] == \
        [r.chosen_epoch for r in par.folds]


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_cv_rejects_fewer_than_one_job(jobs):
    ds, plan, config, _ = tiny_setup()
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        run_cv(ds, plan, config, cheap_train_cfg(), jobs=jobs)


def test_run_cv_fold_failure_names_the_fold(monkeypatch):
    ds, plan, config, _ = tiny_setup()
    import segbert.training as training

    real = training.finetune_fold

    def boom(inputs, split, config, cfg, fold_index=0, init=None):
        if fold_index == 3:
            raise ValueError("synthetic failure")
        return real(inputs, split, config, cfg, fold_index, init)

    monkeypatch.setattr(training, "finetune_fold", boom)
    with pytest.raises(RuntimeError, match="fold 3 failed"):
        run_cv(ds, plan, config, cheap_train_cfg())


def test_run_cv_with_pretraining_transfer():
    ds, plan, config, _ = tiny_setup()
    cfg = cheap_train_cfg(pretrain_tasks=("structure",), pretrain_epochs=1)
    summary = run_cv(ds, plan, config, cfg)
    assert len(summary.folds) == 10
    assert all(0.0 <= a <= 1.0 for a in summary.accuracies())


def test_write_reports_rounds_trips_epoch_rows(tmp_path):
    stats = [EpochStats(1, 0.5, 0.5, 0.5, 0.5), EpochStats(2, 0.25, 1.0, 1.0, 1.0)]
    from segbert.training import FoldReport, RunSummary

    folds = [FoldReport(fold_index=i, epochs=stats, chosen_epoch=2,
                        best_val_accuracy=1.0, final_test_accuracy=1.0,
                        wall_seconds=0.1) for i in range(10)]
    summary = RunSummary(dataset="TOY", strategy="padding-pruning", k=8,
                         residual_mode="none", mean_accuracy=1.0,
                         std_accuracy=0.0, mean_fold_seconds=0.1, folds=folds)
    write_reports(str(tmp_path), summary)
    with open(tmp_path / "fold_0.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["1", "0.500000", "0.500000", "0.500000", "0.500000"]
    assert rows[2][0] == "2"
    # all folds at 1.0 collapse to mean 1, std 0
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        srows = list(csv.reader(fh))
    assert srows[11][6] == "1.000000" and srows[12][6] == "0.000000"
