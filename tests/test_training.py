"""Training protocol: closed-form losses, early stopping, CV reports."""

import csv
import math
import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest

import segbert.training as training
from conftest import assert_arena_views, synth_dataset
from graph_helpers import forward_graph
from segbert.autodiff import Tape
from segbert.dataset import FoldSplit, make_folds
from segbert.features import build_bundles
from segbert.model import (
    build_batch,
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
    pretrain_batch_loss,
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
    # ones, the adjacency matrix is [[0,1],[1,0]], so the MSE is 2/4 = 0.5
    g = GraphInstance(node_count=2, edges=[(0, 1)], label=0)
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


def assert_pretrain_init(params, config, seed):
    """``params`` are exactly pretrain's initial draw: fold stream 10's."""
    init = init_params(config, seed=training._fold_streams(seed, 10)[0])
    assert params.names() == init.names()
    assert np.array_equal(params.values, init.values)


def test_pretrain_zero_epochs_returns_initialization():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=0, seed=7)
    assert_pretrain_init(pretrain(inputs, config, cfg), config, 7)


def test_pretrain_batch_without_a_term_takes_no_step():
    # structure recovery needs two real nodes, so no batch of 1-node
    # graphs has a loss: every batch is skipped and nothing moves
    graphs = [GraphInstance(node_count=1, label=i % 2) for i in range(12)]
    ds = GraphDataset(name="DOTS", graphs=graphs, class_count=2, attr_dim=0,
                      tag_vocab_size=0, max_nodes=1, avg_nodes=1.0)
    plan = UnifyPlan(Strategy.PADDING_PRUNING, 4)
    config = config_for(ds, plan, hidden_dim=4, head_count=2, intermediate_dim=4)
    cfg = TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=2, seed=3)
    log = []
    params = pretrain(prepare_dataset(ds, plan, config), config, cfg, loss_log=log)
    assert log == [0.0, 0.0]
    assert_pretrain_init(params, config, 3)


def test_pretrain_requires_a_task():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=())
    with pytest.raises(ValueError, match="at least one task"):
        pretrain(inputs, config, cfg)


def test_pretrain_reconstruction_needs_attributes():
    ds, plan, config, inputs = tiny_setup()  # synthetic set has no attrs
    assert config.attr_dim == 0
    cfg = TrainConfig(pretrain_tasks=("reconstruction", "structure"))
    with pytest.raises(ValueError, match="node attributes"):
        pretrain(inputs, config, cfg)
    # the model has no reconstruction head, and a batch loss says why
    params = init_params(config, seed=0)
    assert not any(name.startswith("reconstruct.") for name in params.names())
    batch = build_batch(inputs[:2], config.class_count)
    with pytest.raises(ValueError, match="node attributes"):
        pretrain_batch_loss(Tape(), params, config, batch, ("reconstruction",), training=True)


def test_pretrain_structure_loss_decreases_on_average():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(learning_rate=1e-3, pretrain_tasks=("structure",),
                      pretrain_epochs=8, seed=1)
    log = []
    pretrain(inputs, config, cfg, loss_log=log)
    assert len(log) == 8
    assert np.mean(log[-2:]) < np.mean(log[:2])


def test_pretrain_is_seed_deterministic():
    ds, plan, config, inputs = tiny_setup()
    cfg = TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=2, seed=5)
    a = pretrain(inputs, config, cfg)
    b = pretrain(inputs, config, cfg)
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


def test_training_writes_into_the_parameter_arenas(monkeypatch):
    """Training steps, the early-stop restore and the refit all write
    into the arenas: every parameter stays a view, and the refit starts
    from the values of the chosen epoch."""
    ds, plan, config, inputs = tiny_setup()
    epoch_starts, evaluated = [], []
    real_epoch, real_eval = training._run_epoch, training.evaluate_accuracy

    def run_epoch(params, *args):
        assert_arena_views(params)
        epoch_starts.append(params.values.copy())
        return real_epoch(params, *args)

    def evaluate(params, *args):
        assert_arena_views(params)
        assert not params.grads.any()
        evaluated.append(params.values.copy())
        return real_eval(params, *args)

    monkeypatch.setattr(training, "_run_epoch", run_epoch)
    monkeypatch.setattr(training, "evaluate_accuracy", evaluate)
    split = FoldSplit(train=list(range(8)), val=[8, 9], test=[10, 11])
    report = finetune_fold(inputs, split, config,
                           TrainConfig(epochs=40, early_stop_patience=2, seed=4))
    trained = len(report.epochs)
    assert report.chosen_epoch < trained  # so the restore moves the values
    assert len(epoch_starts) == trained + report.chosen_epoch
    # each epoch evaluates validation, then test
    assert np.array_equal(epoch_starts[trained], evaluated[2 * report.chosen_epoch - 2])
    assert not np.array_equal(epoch_starts[trained], evaluated[2 * trained - 1])
    final = np.concatenate([v.ravel() for v in report.final_values.values()])
    assert np.array_equal(final, evaluated[-1])

    pretrained = pretrain(inputs, config,
                          TrainConfig(pretrain_tasks=("structure",), pretrain_epochs=1))
    assert_arena_views(pretrained)


def test_evaluate_accuracy_matches_labels():
    ds, plan, config, inputs = tiny_setup()
    params = init_params(config, seed=0)
    acc = evaluate_accuracy(params, config, inputs, list(range(len(inputs))))
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="empty"):
        evaluate_accuracy(params, config, inputs, [])


def test_evaluate_accuracy_chunks_by_slot_budget(monkeypatch):
    # segment shifting at k=4 gives 4 to 20 slots per graph; a budget of
    # 16 packs several small graphs per batch and sends 20-slot ones alone
    ds = synth_dataset(count=30, seed=5, lo=3, hi=20)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 4)
    config = config_for(ds, plan, **TINY)
    inputs = prepare_dataset(ds, plan, config)
    params = init_params(config, seed=2)
    budget = 16
    monkeypatch.setattr(training, "EVAL_SLOTS", budget)
    # batches may run on several threads, in any order, so each record
    # carries its batch's first graph and the records are put in index
    # order afterwards
    batches, logits = [], []
    real_build, real_classify = training.build_batch, training.classify_batch

    def recording_build(graph_inputs, class_count):
        batches.append(list(graph_inputs))
        return real_build(graph_inputs, class_count)

    def recording_classify(tape, params, config, batch, training):
        loss, out = real_classify(tape, params, config, batch, training)
        logits.append((batch.members[0], out.value))
        return loss, out

    monkeypatch.setattr(training, "build_batch", recording_build)
    monkeypatch.setattr(training, "classify_batch", recording_classify)
    indices = np.random.default_rng(0).permutation(len(inputs))[:25]
    acc = evaluate_accuracy(params, config, inputs, indices)

    position = {id(inputs[i]): p for p, i in enumerate(indices)}
    batches.sort(key=lambda batch: position[id(batch[0])])
    logits.sort(key=lambda record: position[id(record[0])])
    sizes = [[gi.slot_count for gi in batch] for batch in batches]
    assert any(len(s) > 1 for s in sizes) and any(s[0] > budget for s in sizes)
    for s, following in zip(sizes, sizes[1:] + [None]):
        assert sum(s) <= budget or len(s) == 1
        if following is not None:  # the next graph would not have fitted
            assert sum(s) + following[0] > budget
    evaluated = [gi for batch in batches for gi in batch]
    assert [id(gi) for gi in evaluated] == [id(inputs[i]) for i in indices]

    preds = [int(np.argmax(forward_graph(params, config, inputs[i]).y_hat.value))
             for i in indices]
    assert acc == np.mean([p == inputs[i].label for p, i in zip(preds, indices)])
    one_batch = real_build([inputs[i] for i in indices], config.class_count)
    _, whole = real_classify(Tape(), params, config, one_batch, training=False)
    assert [id(first) for first, _ in logits] == [id(batch[0]) for batch in batches]
    assert np.max(np.abs(np.concatenate([value for _, value in logits]) - whole.value)) <= 1e-12


# ----------------------------------------------------------------------
# evaluation threads


def stub_machine(monkeypatch, blas, cores):
    """Make evaluate_accuracy see ``cores`` usable cores and an OpenBLAS
    of ``blas`` threads (None: another BLAS)."""
    monkeypatch.setattr(training, "blas_threads", lambda: blas)
    monkeypatch.setattr(training, "_usable_cores", lambda: cores)


def eval_setup(count=30):
    ds = synth_dataset(count=count, seed=5, lo=3, hi=20)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 4)
    config = config_for(ds, plan, **TINY)
    return config, prepare_dataset(ds, plan, config), init_params(config, seed=2)


def recorded_eval(monkeypatch, params, config, inputs, indices):
    """(accuracy, logits per batch keyed by its graphs, threads that
    classified) of one evaluate_accuracy call."""
    logits, threads = {}, set()
    real_classify = training.classify_batch

    def recording_classify(tape, params, config, batch, training):
        loss, out = real_classify(tape, params, config, batch, training)
        logits[tuple(id(gi) for gi in batch.members)] = out.value
        threads.add(threading.get_ident())
        return loss, out

    monkeypatch.setattr(training, "classify_batch", recording_classify)
    acc = evaluate_accuracy(params, config, inputs, indices)
    monkeypatch.setattr(training, "classify_batch", real_classify)
    return acc, logits, threads


@pytest.mark.parametrize("spare, count", [(0, 1), (-1, 2), (16, 27)],
                         ids=["one-batch", "two-batches", "many-batches"])
def test_threaded_eval_equals_sequential_eval(monkeypatch, spare, count):
    """``spare`` < 1 sets the budget that far from the slots of all
    graphs; a positive ``spare`` is the budget."""
    config, inputs, params = eval_setup()
    indices = np.random.default_rng(0).permutation(len(inputs))
    budget = spare if spare > 0 else sum(inputs[i].slot_count for i in indices) + spare
    monkeypatch.setattr(training, "EVAL_SLOTS", budget)
    assert len(list(training._slot_chunks(inputs, indices, budget))) == count

    stub_machine(monkeypatch, blas=2, cores=2)
    acc, logits, threads = recorded_eval(monkeypatch, params, config, inputs, indices)
    assert threads == {threading.get_ident()}  # sequential

    stub_machine(monkeypatch, blas=1, cores=4)
    threaded_acc, threaded_logits, threads = recorded_eval(monkeypatch, params, config,
                                                           inputs, indices)
    assert threaded_acc == acc
    assert threaded_logits.keys() == logits.keys() and len(logits) == count
    for key, value in logits.items():  # the same bits, batch by batch
        assert np.array_equal(threaded_logits[key], value)
    if count > 1:
        assert threading.get_ident() not in threads


def test_evaluate_accuracy_joins_its_threads(monkeypatch):
    config, inputs, params = eval_setup()
    monkeypatch.setattr(training, "EVAL_SLOTS", 16)
    stub_machine(monkeypatch, blas=1, cores=4)
    before = threading.active_count()
    evaluate_accuracy(params, config, inputs, np.arange(len(inputs)))
    assert threading.active_count() == before


@pytest.mark.parametrize("blas, cores, chunks, cap, threads", [
    (2, 2, 25, None, 1),  # OpenBLAS's own two threads fill the two cores
    (None, 8, 25, None, 1),  # a BLAS whose thread count is unknown
    (1, 1, 25, None, 1),
    (1, 2, 25, None, 2),
    (1, 2, 1, None, 1),
    (1, 8, 3, None, 3),
    (2, 8, 25, None, 4),
    (1, 2, 25, 1, 1),  # a fold worker's share of two cores under jobs=2
    (1, 8, 25, 2, 2),
])
def test_eval_threads_follow_cores_and_blas_threads(monkeypatch, blas, cores, chunks, cap,
                                                    threads):
    stub_machine(monkeypatch, blas, cores)
    monkeypatch.setattr(training, "_worker_eval_threads", cap)
    assert training._eval_threads(chunks) == threads


def test_two_blas_threads_on_two_cores_evaluate_on_the_calling_thread(monkeypatch):
    config, inputs, params = eval_setup()
    monkeypatch.setattr(training, "EVAL_SLOTS", 16)
    stub_machine(monkeypatch, blas=2, cores=2)
    _, logits, threads = recorded_eval(monkeypatch, params, config, inputs,
                                       np.arange(len(inputs)))
    assert len(logits) > 5 and threads == {threading.get_ident()}


def test_evaluate_accuracy_peak_memory_stays_bounded():
    # 300 graphs of 100 slots: in batches of 256 graphs the traced peak
    # was 160 MB; in batches of EVAL_SLOTS = 2048 slots it measures 8.5 MB
    ds = synth_dataset(count=300, seed=1, with_tags=False, lo=100, hi=110)
    plan = UnifyPlan(Strategy.PADDING_PRUNING, 100)
    config = config_for(ds, plan)
    inputs = prepare_dataset(ds, plan, config)
    assert {gi.slot_count for gi in inputs} == {100}
    params = init_params(config, seed=0)
    tracemalloc.start()
    try:
        evaluate_accuracy(params, config, inputs, np.arange(len(inputs)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"evaluate_accuracy peaked at {peak / 1e6:.1f} MB"


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


@pytest.mark.parametrize("jobs", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched finetune_fold only when forked")),
])
def test_run_cv_fold_failure_names_the_fold(monkeypatch, jobs):
    ds, plan, config, _ = tiny_setup()
    import segbert.training as training

    real = training.finetune_fold

    def boom(inputs, split, config, cfg, fold_index=0, init=None):
        if fold_index == 3:
            raise ValueError("synthetic failure")
        return real(inputs, split, config, cfg, fold_index, init)

    monkeypatch.setattr(training, "finetune_fold", boom)
    with pytest.raises(RuntimeError, match="fold 3 failed"):
        run_cv(ds, plan, config, cheap_train_cfg(), jobs=jobs)


@pytest.mark.skipif(training.blas_threads() is None, reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched finetune_fold only when forked")
def test_fold_workers_run_one_blas_thread(monkeypatch):
    """Each worker pins OpenBLAS to one thread whatever this process
    runs, and evaluates on at most its share of the cores."""
    ds, plan, config, _ = tiny_setup()
    before = training.blas_threads()

    def report_threads(inputs, split, config, cfg, fold_index=0, init=None):
        return training.FoldReport(
            fold_index=fold_index, epochs=[], chosen_epoch=0, best_val_accuracy=0.0,
            final_test_accuracy=float(training.blas_threads()), wall_seconds=0.0,
            final_values={"eval_threads": training._worker_eval_threads})

    monkeypatch.setattr(training, "finetune_fold", report_threads)
    summary = run_cv(ds, plan, config, cheap_train_cfg(), jobs=2)
    assert summary.accuracies() == [1.0] * 10
    share = max(1, training._usable_cores() // 2)
    assert [r.final_values["eval_threads"] for r in summary.folds] == [share] * 10
    assert training.blas_threads() == before and training._worker_eval_threads is None


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
