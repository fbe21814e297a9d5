"""Pre-training, fine-tuning, and the 10-fold evaluation protocol.

Fine-tuning minimizes summed cross-entropy over mini-batches with Adam
and decoupled weight decay. Each fold trains with early stopping on
validation accuracy (patience in epochs), picks the earliest epoch
attaining the best validation accuracy, then folds the validation set
into the training data and continues from the selected parameters for
that many additional epochs before the final test evaluation.

All randomness (init, shuffling, dropout, refit) derives from
numpy SeedSequence children of (seed, fold), so fold results do not
depend on execution order and parallel runs match sequential ones.
"""

from __future__ import annotations

import csv
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamState, Tape, adam_step, clip_global_norm
from .dataset import FoldSplit, GraphDataset, make_folds
from .model import (
    ModelConfig,
    ModelParams,
    build_batch,
    classify_batch,
    encode,
    init_params,
    prepare_dataset,
    reconstruct_attributes,
    recover_structure,
    structure_target,
)
from .unify import UnifyPlan

__all__ = [
    "EpochStats",
    "FoldReport",
    "PRETRAIN_TASKS",
    "RunSummary",
    "TrainConfig",
    "default_learning_rate",
    "evaluate_accuracy",
    "finetune_fold",
    "pretrain",
    "pretrain_batch_loss",
    "run_cv",
    "write_reports",
]

PRETRAIN_TASKS = ("reconstruction", "structure")

EVAL_CHUNK = 256


def default_learning_rate(dataset_name: str) -> float:
    """5e-4 for the PTC family, TrainConfig's default everywhere else."""
    return 5e-4 if dataset_name.upper().startswith("PTC") else TrainConfig.learning_rate


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    epochs: int = 500
    early_stop_patience: int = 50
    batch_size: int = 32
    seed: int = 0
    pretrain_tasks: tuple = ()
    pretrain_epochs: int = 50
    grad_clip: float | None = None  # optional global-norm cap, e.g. 1.0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be non-negative")
        for task in self.pretrain_tasks:
            if task not in PRETRAIN_TASKS:
                raise ValueError(
                    f"unknown pre-training task {task!r}; "
                    f"choose from {PRETRAIN_TASKS}")
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive when set")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    test_acc: float


@dataclass
class FoldReport:
    fold_index: int
    epochs: list
    chosen_epoch: int
    best_val_accuracy: float
    final_test_accuracy: float
    wall_seconds: float
    final_values: dict = field(default_factory=dict)  # name -> ndarray


@dataclass
class RunSummary:
    dataset: str
    strategy: str
    k: int
    residual_mode: str
    mean_accuracy: float
    std_accuracy: float
    mean_fold_seconds: float
    folds: list

    def accuracies(self) -> list:
        return [r.final_test_accuracy for r in self.folds]


# ----------------------------------------------------------------------
# seeding


def _fold_streams(seed: int, fold: int):
    """Independent child streams for one fold, order-insensitive."""
    children = np.random.SeedSequence([seed, fold]).spawn(5)
    init_seed = int(children[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(children[1])
    tape_seed = int(children[2].generate_state(1)[0])
    refit_rng = np.random.default_rng(children[3])
    refit_tape_seed = int(children[4].generate_state(1)[0])
    return init_seed, shuffle_rng, tape_seed, refit_rng, refit_tape_seed


def _pretrain_streams(seed: int):
    # fold ids run 0..9; 10 is reserved for the shared pre-training pass
    children = np.random.SeedSequence([seed, 10]).spawn(3)
    init_seed = int(children[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(children[1])
    tape_seed = int(children[2].generate_state(1)[0])
    return init_seed, shuffle_rng, tape_seed


# ----------------------------------------------------------------------
# shared epoch machinery


def _ordered_grads(params: ModelParams) -> list:
    return [t.grad if t.grad is not None else np.zeros_like(t.value)
            for _, t in params.items()]


def _optimize_batch(tape: Tape, params: ModelParams, loss, state: AdamState,
                    grad_clip: float | None) -> None:
    tape.backward(loss)
    grads = _ordered_grads(params)
    if grad_clip is not None:
        clip_global_norm(grads, grad_clip)
    adam_step(params.parameters(), grads, state)
    params.zero_grads()


def _run_epoch(params: ModelParams, config: ModelConfig, inputs: list,
               indices: np.ndarray, rng: np.random.Generator, tape: Tape,
               state: AdamState, batch_size: int,
               grad_clip: float | None):
    """One shuffled pass; returns (mean per-graph loss, train accuracy)."""
    order = rng.permutation(len(indices))
    shuffled = indices[order]
    total_loss = 0.0
    correct = 0
    for start in range(0, len(shuffled), batch_size):
        chunk = shuffled[start:start + batch_size]
        batch = build_batch([inputs[i] for i in chunk], config.class_count)
        tape.reset()
        loss, logits = classify_batch(tape, params, config, batch, training=True)
        total_loss += float(loss.value[0, 0])
        preds = np.argmax(logits.value, axis=1)
        labels = np.argmax(batch.labels_onehot, axis=1)
        correct += int(np.sum(preds == labels))
        _optimize_batch(tape, params, loss, state, grad_clip)
    n = len(shuffled)
    return total_loss / n, correct / n


def evaluate_accuracy(params: ModelParams, config: ModelConfig, inputs: list,
                      indices) -> float:
    """Eval-mode accuracy over the indexed graphs, without recording."""
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("cannot evaluate an empty index set")
    tape = Tape()
    correct = 0
    with tape.paused():
        for start in range(0, indices.size, EVAL_CHUNK):
            chunk = indices[start:start + EVAL_CHUNK]
            batch = build_batch([inputs[i] for i in chunk], config.class_count)
            _, logits = classify_batch(tape, params, config, batch,
                                       training=False)
            preds = np.argmax(logits.value, axis=1)
            labels = np.argmax(batch.labels_onehot, axis=1)
            correct += int(np.sum(preds == labels))
    return correct / indices.size


# ----------------------------------------------------------------------
# pre-training


def pretrain_batch_loss(tape: Tape, params: ModelParams, config: ModelConfig,
                        batch, tasks, training: bool):
    """Summed task losses over a batch.

    Reconstruction: MSE between the decoded rows and the raw channel of
    every real node. Structure: MSE between pairwise cosine similarity
    and the kept-node weight matrix; graphs with fewer than two real
    nodes contribute no structure term (the matrix is degenerate there).
    Returns None when no graph contributes a term.
    """
    h = encode(tape, params, config, batch, training)
    terms = []
    for gi, slots in zip(batch.members, batch.real_slot_lists):
        h_final = tape.take_rows(h, slots)
        if "reconstruction" in tasks:
            terms.append(tape.mse(reconstruct_attributes(tape, params, h_final),
                                  batch.raw_rows(slots)))
        if "structure" in tasks and len(slots) >= 2:
            terms.append(tape.mse(recover_structure(tape, h_final),
                                  structure_target(gi)))
    if not terms:
        return None
    return tape.add_n(terms) if len(terms) > 1 else terms[0]


def pretrain(dataset: GraphDataset, plan: UnifyPlan, config: ModelConfig,
             train_cfg: TrainConfig, init: ModelParams | None = None,
             inputs: list | None = None,
             loss_log: list | None = None) -> ModelParams:
    """Train the enabled unsupervised tasks over all graphs.

    Returns the trained parameters; with pretrain_epochs = 0 they equal
    the initialization. `loss_log`, when given, receives the mean
    per-graph loss of each epoch.
    """
    tasks = tuple(train_cfg.pretrain_tasks)
    if not tasks:
        raise ValueError("pre-training needs at least one task")
    if "reconstruction" in tasks and config.attr_dim == 0:
        raise ValueError(
            "reconstruction pre-training needs node attributes; "
            "this dataset has none (use the structure task only)")
    if inputs is None:
        inputs = prepare_dataset(dataset, plan, config)
    init_seed, rng, tape_seed = _pretrain_streams(train_cfg.seed)
    params = init.copy() if init is not None else init_params(config, seed=init_seed)
    state = AdamState.for_params(params.parameters(),
                                 train_cfg.learning_rate,
                                 train_cfg.weight_decay)
    tape = Tape(seed=tape_seed)
    indices = np.arange(len(inputs))
    for _epoch in range(train_cfg.pretrain_epochs):
        order = rng.permutation(len(indices))
        total = 0.0
        for start in range(0, len(indices), train_cfg.batch_size):
            chunk = indices[order[start:start + train_cfg.batch_size]]
            batch = build_batch([inputs[i] for i in chunk], config.class_count)
            tape.reset()
            loss = pretrain_batch_loss(tape, params, config, batch, tasks,
                                       training=True)
            if loss is None:
                continue
            total += float(loss.value[0, 0])
            _optimize_batch(tape, params, loss, state, train_cfg.grad_clip)
        if loss_log is not None:
            loss_log.append(total / len(indices))
    return params


# ----------------------------------------------------------------------
# fine-tuning


def finetune_fold(inputs: list, split: FoldSplit, config: ModelConfig,
                  train_cfg: TrainConfig, fold_index: int = 0,
                  init: ModelParams | None = None) -> FoldReport:
    """Train one fold with early stopping, then the train+val refit."""
    started = time.perf_counter()
    init_seed, rng, tape_seed, refit_rng, refit_tape_seed = _fold_streams(
        train_cfg.seed, fold_index)
    params = init.copy() if init is not None else init_params(config, seed=init_seed)

    train_idx = np.asarray(split.train, dtype=int)
    val_idx = np.asarray(split.val, dtype=int)
    test_idx = np.asarray(split.test, dtype=int)
    present = {inputs[i].label for i in train_idx}
    for c in range(config.class_count):
        if c not in present:
            warnings.warn(f"class {c} absent from training split "
                          f"of fold {fold_index}")

    state = AdamState.for_params(params.parameters(),
                                 train_cfg.learning_rate,
                                 train_cfg.weight_decay)
    tape = Tape(seed=tape_seed)

    history = []
    best_val = -1.0
    best_epoch = 0
    best_params = params.copy()
    stale = 0
    for epoch in range(1, train_cfg.epochs + 1):
        train_loss, train_acc = _run_epoch(
            params, config, inputs, train_idx, rng, tape, state,
            train_cfg.batch_size, train_cfg.grad_clip)
        val_acc = evaluate_accuracy(params, config, inputs, val_idx)
        test_acc = evaluate_accuracy(params, config, inputs, test_idx)
        history.append(EpochStats(epoch, train_loss, train_acc, val_acc,
                                  test_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= train_cfg.early_stop_patience:
                break

    # the validation graphs join the training data for a continued run
    # of the chosen epoch budget, starting from the selected parameters
    params = best_params
    refit_idx = np.sort(np.concatenate([train_idx, val_idx]))
    refit_state = AdamState.for_params(params.parameters(),
                                       train_cfg.learning_rate,
                                       train_cfg.weight_decay)
    refit_tape = Tape(seed=refit_tape_seed)
    for _epoch in range(best_epoch):
        _run_epoch(params, config, inputs, refit_idx, refit_rng, refit_tape,
                   refit_state, train_cfg.batch_size, train_cfg.grad_clip)
    final_test = evaluate_accuracy(params, config, inputs, test_idx)

    return FoldReport(
        fold_index=fold_index,
        epochs=history,
        chosen_epoch=best_epoch,
        best_val_accuracy=best_val,
        final_test_accuracy=final_test,
        wall_seconds=time.perf_counter() - started,
        final_values={name: t.value.copy() for name, t in params.items()},
    )


# ----------------------------------------------------------------------
# cross-validation driver


def _fold_job(packed):
    inputs, split, config, train_cfg, fold_index, init = packed
    return finetune_fold(inputs, split, config, train_cfg, fold_index, init)


def run_cv(dataset: GraphDataset, plan: UnifyPlan, config: ModelConfig,
           train_cfg: TrainConfig, out_dir: str | None = None,
           jobs: int = 1) -> RunSummary:
    """Run all 10 folds; optionally write the CSV reports.

    Pre-training, when enabled in train_cfg, runs once over the whole
    dataset and every fold starts from those parameters. ``jobs`` folds
    run at once in worker processes; 1 runs them in this process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    inputs = prepare_dataset(dataset, plan, config)
    splits = make_folds(dataset, seed=train_cfg.seed)
    init = None
    if train_cfg.pretrain_tasks:
        init = pretrain(dataset, plan, config, train_cfg, inputs=inputs)

    packed = [(inputs, split, config, train_cfg, fold, init)
              for fold, split in enumerate(splits)]
    reports = []
    if jobs == 1:
        for fold, item in enumerate(packed):
            try:
                reports.append(_fold_job(item))
            except Exception as exc:
                raise RuntimeError(f"fold {fold} failed: {exc}") from exc
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(packed))) as pool:
            futures = [pool.submit(_fold_job, item) for item in packed]
            for fold, fut in enumerate(futures):
                try:
                    reports.append(fut.result())
                except Exception as exc:
                    raise RuntimeError(f"fold {fold} failed: {exc}") from exc

    accs = np.array([r.final_test_accuracy for r in reports])
    summary = RunSummary(
        dataset=dataset.name,
        strategy=plan.strategy.value,
        k=plan.k,
        residual_mode=config.residual_mode,
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std()),  # population std over the folds
        mean_fold_seconds=float(np.mean([r.wall_seconds for r in reports])),
        folds=reports,
    )
    if out_dir is not None:
        write_reports(out_dir, summary)
    return summary


# ----------------------------------------------------------------------
# reports


def write_reports(out_dir: str, summary: RunSummary) -> None:
    """fold_<i>.csv per fold, deterministic summary.csv, timing.csv.

    Wall-clock times live in timing.csv only, so summary.csv is a pure
    function of seed and config (byte-identical across repeat runs).
    """
    os.makedirs(out_dir, exist_ok=True)
    for report in summary.folds:
        path = os.path.join(out_dir, f"fold_{report.fold_index}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["epoch", "train_loss", "train_acc", "val_acc",
                        "test_acc"])
            for s in report.epochs:
                w.writerow([s.epoch, f"{s.train_loss:.6f}",
                            f"{s.train_acc:.6f}", f"{s.val_acc:.6f}",
                            f"{s.test_acc:.6f}"])
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dataset", "strategy", "k", "residual", "fold",
                    "chosen_epoch", "test_accuracy"])
        base = [summary.dataset, summary.strategy, summary.k,
                summary.residual_mode]
        for report in summary.folds:
            w.writerow(base + [report.fold_index, report.chosen_epoch,
                               f"{report.final_test_accuracy:.6f}"])
        w.writerow(base + ["mean", "", f"{summary.mean_accuracy:.6f}"])
        w.writerow(base + ["std", "", f"{summary.std_accuracy:.6f}"])
    with open(os.path.join(out_dir, "timing.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["fold", "seconds"])
        for report in summary.folds:
            w.writerow([report.fold_index, f"{report.wall_seconds:.3f}"])
        w.writerow(["mean", f"{summary.mean_fold_seconds:.3f}"])
