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

import contextvars
import csv
import ctypes
import functools
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamState, Tape, adam_step, clip_global_norm, paused_value
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
    "blas_threads",
    "check_jobs",
    "default_learning_rate",
    "evaluate_accuracy",
    "finetune_fold",
    "pretrain",
    "pretrain_batch_loss",
    "run_cv",
    "set_blas_threads",
    "write_reports",
]

PRETRAIN_TASKS = ("reconstruction", "structure")

# Evaluation batches hold at most this many slots; a larger graph goes
# alone. Eval time on MUTAG-, PROTEINS- and COLLAB-shaped sets was flat
# from ~800 to ~3200 slots (2-core x86, one BLAS thread), and 2048 keeps
# each PROTEINS-shaped CV fold (at most ~1760 slots) in one batch, which
# runs on the calling thread. Several batches share the usable cores
# through threads when OpenBLAS runs one thread per call (see
# evaluate_accuracy); the budget keeps each thread's arrays near cache.
EVAL_SLOTS = 2048

# Set in run_cv's fold workers only: at most this many eval threads per
# worker, so that the workers together run no more threads than cores.
_worker_eval_threads: int | None = None


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


# ----------------------------------------------------------------------
# shared epoch machinery


def _batches(inputs: list, chunks, class_count: int):
    """One batch per chunk of graph indices."""
    for chunk in chunks:
        yield build_batch([inputs[i] for i in chunk], class_count)


def _slot_chunks(inputs: list, indices: np.ndarray, budget: int):
    """``indices`` cut, in order, into runs whose graphs hold at most
    ``budget`` slots together; a graph larger than that is a run alone."""
    start, slots = 0, 0
    for end, i in enumerate(indices):
        n = inputs[i].slot_count
        if slots + n > budget and end > start:
            yield indices[start:end]
            start, slots = end, 0
        slots += n
    yield indices[start:]


def _correct(logits, batch) -> int:
    """How many of the batch's graphs the logits classify right."""
    preds = np.argmax(logits.value, axis=1)
    return int(np.sum(preds == np.argmax(batch.labels_onehot, axis=1)))


def _run_epoch(params: ModelParams, inputs: list, indices: np.ndarray,
               rng: np.random.Generator, tape: Tape, state: AdamState,
               train_cfg: TrainConfig, class_count: int, batch_loss):
    """One shuffled pass of clip/Adam steps; returns (mean per-graph loss,
    fraction classified right). ``batch_loss(tape, batch)`` returns
    (loss or None, graphs classified right); None takes no step."""
    shuffled = indices[rng.permutation(len(indices))]
    size = train_cfg.batch_size
    chunks = (shuffled[start:start + size] for start in range(0, len(shuffled), size))
    total_loss = 0.0
    correct = 0
    for batch in _batches(inputs, chunks, class_count):
        tape.reset()
        loss, right = batch_loss(tape, batch)
        correct += right
        if loss is None:
            continue
        total_loss += float(loss.value[0, 0])
        tape.backward(loss)
        if train_cfg.grad_clip is not None:
            clip_global_norm(params.grads, train_cfg.grad_clip, params.offsets)
        adam_step(params.values, params.grads, state)
        params.zero_grads()
    n = len(indices)
    return total_loss / n, correct / n


@functools.cache
def _openblas() -> tuple | None:
    """(get, set) thread-count functions of the OpenBLAS numpy calls, or
    None for another BLAS. numpy's core extension links the library, and
    a symbol looked up through a library is searched in what it links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs each call on; None for another BLAS."""
    calls = _openblas()
    return None if calls is None else calls[0]()


def set_blas_threads(count: int) -> None:
    """Run numpy's OpenBLAS calls on ``count`` threads; another BLAS is
    left as it is."""
    calls = _openblas()
    if calls is not None:
        calls[1](count)


def _usable_cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _eval_threads(chunk_count: int) -> int:
    """Threads for ``chunk_count`` eval batches: min(batches, usable cores
    // BLAS threads), and at most a fold worker's share; 1 for a BLAS
    whose thread count is unknown."""
    blas = blas_threads()
    if blas is None:
        return 1
    threads = min(chunk_count, _usable_cores() // blas)
    if _worker_eval_threads is not None:
        threads = min(threads, _worker_eval_threads)
    return max(threads, 1)


def evaluate_accuracy(params: ModelParams, config: ModelConfig, inputs: list,
                      indices) -> float:
    """Eval-mode accuracy over the indexed graphs, without recording.

    The graphs are cut, in index order, into batches of at most
    ``EVAL_SLOTS`` slots; a graph larger than that forms a batch alone.
    A budget in slots rather than graphs keeps each batch's arrays,
    such as the (graphs, heads, k, k) attention scores, near cache size
    whatever the graphs' size: 256 graphs of 100 slots made that array
    41 MB.

    Each batch runs through ``paused_value``: only its logits are
    checked for NaN and Inf, and non-finite logits replay the batch on
    a recording tape, whose error names the op that overflowed.

    Several batches are built and classified at once on a thread pool
    opened for the call, of min(batches, usable cores // OpenBLAS
    threads) threads, fewer in a ``run_cv`` fold worker; numpy and
    OpenBLAS release the GIL in their loops. A pool of one thread, one
    batch or another BLAS runs the batches one by one on this thread.
    Each batch has the same graphs and logit bits either way, and the
    correct counts are integers, so the accuracy does not depend on the
    path. Each task runs in a copy of the caller's context, so numpy's
    ``errstate`` applies in the threads too; the first failing batch in
    index order raises its own error; and the pool is joined before the
    call returns, so no thread outlives it.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("cannot evaluate an empty index set")
    chunks = list(_slot_chunks(inputs, indices, EVAL_SLOTS))

    def count(chunk) -> int:
        batch = build_batch([inputs[i] for i in chunk], config.class_count)
        logits = paused_value(
            lambda tape: classify_batch(tape, params, config, batch, training=False)[1])
        return _correct(logits, batch)

    threads = _eval_threads(len(chunks)) if len(chunks) > 1 else 1
    if threads == 1:
        return sum(map(count, chunks)) / indices.size
    pool = ThreadPoolExecutor(threads)
    try:
        tasks = [pool.submit(contextvars.copy_context().run, count, chunk)
                 for chunk in chunks]
        correct = sum(task.result() for task in tasks)
    finally:
        pool.shutdown(cancel_futures=True)
    return correct / indices.size


# ----------------------------------------------------------------------
# pre-training


def pretrain_batch_loss(tape: Tape, params: ModelParams, config: ModelConfig,
                        batch, tasks, training: bool):
    """Summed task losses over a batch.

    Reconstruction: MSE between the decoded rows and the raw channel of
    every real node. Structure: MSE between pairwise cosine similarity
    and the kept-node adjacency matrix; graphs with fewer than two real
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


def pretrain(inputs: list, config: ModelConfig, train_cfg: TrainConfig,
             loss_log: list | None = None) -> ModelParams:
    """Train the enabled unsupervised tasks over all prepared graphs.

    Each epoch is one pass of the epoch loop fine-tuning uses, with
    ``pretrain_batch_loss`` as the batch loss, from ``init_params`` at
    fold stream 10's seed. Returns the trained parameters; with
    pretrain_epochs = 0 they equal that draw. `loss_log`, when given,
    receives the mean per-graph loss of each epoch.
    """
    tasks = tuple(train_cfg.pretrain_tasks)
    if not tasks:
        raise ValueError("pre-training needs at least one task")
    if "reconstruction" in tasks and config.attr_dim == 0:
        raise ValueError(
            "reconstruction pre-training needs node attributes; "
            "this dataset has none (use the structure task only)")
    # fold ids run 0..9; 10 is reserved for the shared pre-training pass
    init_seed, rng, tape_seed = _fold_streams(train_cfg.seed, 10)[:3]
    params = init_params(config, seed=init_seed)
    state = AdamState.for_params(params.values, train_cfg.learning_rate,
                                 train_cfg.weight_decay)
    tape = Tape(seed=tape_seed)
    indices = np.arange(len(inputs))

    def task_loss(tape, batch):
        return pretrain_batch_loss(tape, params, config, batch, tasks,
                                   training=True), 0

    for _epoch in range(train_cfg.pretrain_epochs):
        loss, _ = _run_epoch(params, inputs, indices, rng, tape, state,
                             train_cfg, config.class_count, task_loss)
        if loss_log is not None:
            loss_log.append(loss)
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

    state = AdamState.for_params(params.values, train_cfg.learning_rate,
                                 train_cfg.weight_decay)
    tape = Tape(seed=tape_seed)

    def classify(tape, batch):
        loss, logits = classify_batch(tape, params, config, batch, training=True)
        return loss, _correct(logits, batch)

    history = []
    best_val = -1.0
    best_epoch = 0
    best_values = params.values.copy()
    stale = 0
    for epoch in range(1, train_cfg.epochs + 1):
        train_loss, train_acc = _run_epoch(
            params, inputs, train_idx, rng, tape, state, train_cfg,
            config.class_count, classify)
        val_acc = evaluate_accuracy(params, config, inputs, val_idx)
        test_acc = evaluate_accuracy(params, config, inputs, test_idx)
        history.append(EpochStats(epoch, train_loss, train_acc, val_acc,
                                  test_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_values = params.values.copy()
            stale = 0
        else:
            stale += 1
            if stale >= train_cfg.early_stop_patience:
                break

    # the validation graphs join the training data for a continued run
    # of the chosen epoch budget, starting from the selected parameters
    params.values[...] = best_values
    refit_idx = np.sort(np.concatenate([train_idx, val_idx]))
    refit_state = AdamState.for_params(params.values, train_cfg.learning_rate,
                                       train_cfg.weight_decay)
    refit_tape = Tape(seed=refit_tape_seed)
    for _epoch in range(best_epoch):
        _run_epoch(params, inputs, refit_idx, refit_rng, refit_tape,
                   refit_state, train_cfg, config.class_count, classify)
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


def check_jobs(jobs: int) -> None:
    """Raise ValueError unless ``jobs`` allows at least one fold at a time."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _fold_worker_start(eval_threads: int) -> None:
    """Set up a fold worker: one OpenBLAS thread, and at most
    ``eval_threads`` threads per evaluate_accuracy call."""
    global _worker_eval_threads
    set_blas_threads(1)
    _worker_eval_threads = eval_threads


def _fold_job(packed):
    inputs, split, config, train_cfg, fold_index, init = packed
    return finetune_fold(inputs, split, config, train_cfg, fold_index, init)


def run_cv(dataset: GraphDataset, plan: UnifyPlan, config: ModelConfig,
           train_cfg: TrainConfig, out_dir: str | None = None,
           jobs: int = 1) -> RunSummary:
    """Run all 10 folds; optionally write the CSV reports.

    Pre-training, when enabled in train_cfg, runs once over the whole
    dataset and every fold starts from those parameters. ``jobs`` folds
    run at once in worker processes; 1 runs them in this process. Each
    worker runs one OpenBLAS thread and evaluates on at most
    max(1, usable cores // workers) threads, so the workers never run
    more busy threads than there are cores.
    """
    check_jobs(jobs)
    inputs = prepare_dataset(dataset, plan, config)
    splits = make_folds(dataset, seed=train_cfg.seed)
    init = None
    if train_cfg.pretrain_tasks:
        init = pretrain(inputs, config, train_cfg)

    packed = [(inputs, split, config, train_cfg, fold, init)
              for fold, split in enumerate(splits)]
    reports = []
    workers = min(jobs, len(packed))
    with (ProcessPoolExecutor(max_workers=workers, initializer=_fold_worker_start,
                              initargs=(max(1, _usable_cores() // workers),))
          if jobs > 1 else nullcontext()) as pool:
        results = (pool.map if pool else map)(_fold_job, packed)
        for fold in range(len(packed)):
            try:
                reports.append(next(results))
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
