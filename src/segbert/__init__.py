"""Segmented graph-transformer for whole-graph classification.

The package is self-contained: a small reverse-mode autodiff engine,
TU-format dataset handling, WL/degree/adjacency node features, three
graph-size unification strategies, the transformer model itself, and a
10-fold cross-validation training harness with an optional
pre-training stage.

The top level re-exports the entry points; everything else is imported
from its module (``segbert.autodiff``, ``segbert.model``, ...).
"""

from .autodiff import AdamState, Tape, adam_step
from .dataset import (
    GraphDataset,
    GraphInstance,
    load_tu_dataset,
    make_folds,
    write_tu_dataset,
)
from .features import build_bundles, dataset_wl_codes
from .gradcheck import model_gradcheck
from .model import (
    ModelConfig,
    ModelParams,
    build_batch,
    config_for,
    init_params,
    load_checkpoint,
    prepare_dataset,
    prepare_graph,
    structure_target,
)
from .training import TrainConfig, evaluate_accuracy, run_cv
from .unify import Strategy, UnifyPlan, resolve_plan, unify

__all__ = [
    "AdamState",
    "GraphDataset",
    "GraphInstance",
    "ModelConfig",
    "ModelParams",
    "Strategy",
    "Tape",
    "TrainConfig",
    "UnifyPlan",
    "adam_step",
    "build_batch",
    "build_bundles",
    "config_for",
    "dataset_wl_codes",
    "evaluate_accuracy",
    "init_params",
    "load_checkpoint",
    "load_tu_dataset",
    "make_folds",
    "model_gradcheck",
    "prepare_dataset",
    "prepare_graph",
    "resolve_plan",
    "run_cv",
    "structure_target",
    "unify",
    "write_tu_dataset",
]
