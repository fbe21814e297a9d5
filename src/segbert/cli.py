"""Command-line entry point: train, inspect, gradcheck.

Configuration is a flat key=value file; command-line flags override file
values, and every training run writes the fully resolved configuration
to `config_echo.txt` in the output directory. Re-running with
`--config <echo>` reproduces the run (summary.csv is byte-identical for
the same build).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, field, fields, replace

from .dataset import DatasetError, GraphDataset, load_tu_dataset
from .gradcheck import model_gradcheck
from .model import RESIDUAL_MODES, ModelConfig, config_for, init_params, save_checkpoint
from .training import TrainConfig, default_learning_rate, run_cv
from .unify import Strategy, resolve_plan

__all__ = ["RunConfig", "build_configs", "main", "cmd_train", "cmd_inspect", "cmd_gradcheck"]

ECHO_NAME = "config_echo.txt"


def _key(default, help_text, choices=None, sets=None):
    """A RunConfig field with its flag help and choices, if any, in its
    metadata. ``sets=(owner, attr)`` names the ModelConfig or TrainConfig
    field it sets in `build_configs`, whose default it takes."""
    metadata = {"help": help_text}
    if choices is not None:
        metadata["choices"] = tuple(choices)
        metadata["help"] += ": " + " | ".join(choices)
    if sets is not None:
        metadata["sets"] = sets
        default = getattr(*sets)
    return field(default=default, metadata=metadata)


def _model(attr, help_text, choices=None):
    return _key(None, help_text, choices, sets=(ModelConfig, attr))


def _train(attr, help_text):
    return _key(None, help_text, sets=(TrainConfig, attr))


@dataclass(frozen=True)
class RunConfig:
    """Every `train`/`inspect` setting: one config key and one flag per
    field, parsed as its annotation's type (blank is None for ``X | None``)."""

    dataset: str = _key("", "dataset name, e.g. MUTAG")
    data_dir: str = _key("", "directory holding the dataset files "
                             "(fallback: SEGBERT_DATA_DIR)")
    strategy: str = _key(Strategy.SEGMENT_SHIFTING.value, "size unification",
                         choices=[s.value for s in Strategy])
    k: int | None = _key(None, "input portal size override")
    residual: str = _model("residual_mode", "graph residual mode", RESIDUAL_MODES)
    hidden: int = _model("hidden_dim", "hidden width")
    heads: int = _model("head_count", "attention heads")
    layers: int = _model("layer_count", "transformer layers")
    intermediate: int = _model("intermediate_dim", "feed-forward inner width")
    dropout_hidden: float = _model("dropout_hidden", "dropout after the feed-forward block")
    dropout_attn: float = _model("dropout_attention", "dropout on attention probabilities")
    wl_iterations: int = _model("wl_iterations", "structural-role refinement rounds")
    lr: float | None = _key(None, "learning rate (default by dataset family)")
    weight_decay: float = _train("weight_decay", "decoupled weight decay")
    epochs: int = _train("epochs", "maximum training epochs per fold")
    patience: int = _train("early_stop_patience", "early-stop patience in epochs")
    batch_size: int = _train("batch_size", "graphs per mini-batch")
    seed: int = _train("seed", "master seed")
    pretrain: str = _key("", "comma list of pre-training tasks: "
                             "structure,reconstruction (empty = off)")
    pretrain_epochs: int = _train("pretrain_epochs", "pre-training epochs")
    grad_clip: float | None = _train("grad_clip", "global gradient-norm cap (off if unset)")
    jobs: int = _key(1, "parallel fold workers")
    out: str = _key("", "output directory (default runs/<dataset>)")
    checkpoint: str = _key("", "write best-validation fold parameters here")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                text = ""
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in fields(RunConfig)}
_TYPES = {"str": str, "int": int, "float": float}


def _field_type(f):
    """The parse type of an annotation like 'int | None', and whether it
    takes None."""
    name, _, rest = f.type.partition(" | ")
    return _TYPES[name], rest == "None"


def _parse_value(f, raw: str):
    kind, optional = _field_type(f)
    raw = raw.strip()
    if optional and raw == "":
        return None
    value = kind(raw)
    choices = f.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(choices)})")
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value lines; '#' starts a comment, blanks are skipped."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{source}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _parse_value(_FIELDS[key], raw)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for {key}: "
                             f"{exc}") from exc
    return values


def config_from_text(text: str, source: str = "<config>") -> RunConfig:
    return RunConfig(**parse_config_text(text, source))


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), args.config))
    for name in _FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return RunConfig(**values)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags "
                        "override its entries")
    for name, f in _FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                            type=_field_type(f)[0], choices=f.metadata.get("choices"),
                            help=f.metadata["help"])


def build_configs(cfg: RunConfig, dataset: GraphDataset):
    """The unify plan, ModelConfig and TrainConfig that ``cfg`` stands for."""
    plan = resolve_plan(dataset, Strategy(cfg.strategy), cfg.k)
    owned = {ModelConfig: {}, TrainConfig: {}}
    for name, f in _FIELDS.items():
        if "sets" in f.metadata:
            owner, attr = f.metadata["sets"]
            owned[owner][attr] = getattr(cfg, name)
    model_cfg = config_for(dataset, plan, **owned[ModelConfig])
    lr = cfg.lr if cfg.lr is not None else default_learning_rate(cfg.dataset)
    train_cfg = TrainConfig(learning_rate=lr,
                            pretrain_tasks=tuple(t for t in cfg.pretrain.split(",") if t),
                            **owned[TrainConfig])
    return plan, model_cfg, train_cfg


def _resolve_data_dir(cfg: RunConfig) -> str:
    data_dir = cfg.data_dir or os.environ.get("SEGBERT_DATA_DIR", "")
    if not data_dir:
        raise DatasetError(
            "no data directory: pass --data-dir or set SEGBERT_DATA_DIR")
    nested = os.path.join(data_dir, cfg.dataset)
    if os.path.isfile(os.path.join(nested, cfg.dataset + "_A.txt")):
        return nested
    return data_dir


def _load(cfg: RunConfig):
    if not cfg.dataset:
        raise DatasetError("no dataset name given (use --dataset)")
    directory = _resolve_data_dir(cfg)
    return load_tu_dataset(directory, cfg.dataset), directory


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    dataset, directory = _load(cfg)
    plan, model_cfg, train_cfg = build_configs(cfg, dataset)
    out_dir = cfg.out or os.path.join("runs", cfg.dataset)
    resolved = replace(cfg, data_dir=directory, k=plan.k, lr=train_cfg.learning_rate,
                       out=out_dir, strategy=plan.strategy.value)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ECHO_NAME), "w", encoding="utf-8") as fh:
        fh.write(resolved.to_text())

    summary = run_cv(dataset, plan, model_cfg, train_cfg, out_dir=out_dir,
                     jobs=cfg.jobs)

    if cfg.checkpoint:
        best = min(summary.folds,
                   key=lambda r: (-r.best_val_accuracy, r.fold_index))
        params = init_params(model_cfg, seed=0)
        for name, tensor in params.items():
            tensor.value[...] = best.final_values[name]
        save_checkpoint(params, cfg.checkpoint)
        print(f"checkpoint (fold {best.fold_index}) -> {cfg.checkpoint}")

    print(f"{summary.dataset} {summary.strategy} k={summary.k} "
          f"residual={summary.residual_mode}: "
          f"mean test accuracy {100.0 * summary.mean_accuracy:.2f} "
          f"+/- {100.0 * summary.std_accuracy:.2f} "
          f"({summary.mean_fold_seconds:.1f} s/fold)")
    print(f"reports in {out_dir}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    dataset, _ = _load(cfg)
    print(f"{dataset.name}: {len(dataset)} graphs, {dataset.class_count} "
          f"classes, avg {dataset.avg_nodes:.1f}, max {dataset.max_nodes}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    modes = RESIDUAL_MODES if args.residual == "both" else [args.residual]
    worst = 0.0
    ok = True
    for mode in modes:
        report = model_gradcheck(
            residual_mode=mode,
            hidden_dim=args.hidden,
            head_count=args.heads,
            layer_count=args.layers,
            intermediate_dim=args.intermediate,
            attr_dim=args.attr_dim,
            seed=args.seed,
            step=args.step,
            tolerance=args.tolerance,
        )
        print(f"residual={mode}")
        for line in report.lines():
            print("  " + line)
        worst = max(worst, report.worst)
        ok = ok and report.passed
        if not report.passed:
            bad = [n for n, e in report.errors.items()
                   if e >= report.tolerance]
            print(f"  FAILED groups: {', '.join(bad)}")
    print(f"worst relative error {worst:.3e} "
          f"({'pass' if ok else 'FAIL'} at {args.tolerance:g})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="segbert",
        description="segmented graph transformer for graph-instance "
                    "classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="10-fold cross-validated training")
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_inspect = sub.add_parser("inspect", help="print dataset statistics")
    _add_run_flags(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient check")
    p_grad.add_argument("--residual", choices=("both",) + RESIDUAL_MODES,
                        default="both")
    default = {name: p.default for name, p
               in inspect.signature(model_gradcheck).parameters.items()}
    p_grad.add_argument("--hidden", type=int, default=default["hidden_dim"])
    p_grad.add_argument("--heads", type=int, default=default["head_count"])
    p_grad.add_argument("--layers", type=int, default=default["layer_count"])
    p_grad.add_argument("--intermediate", type=int, default=default["intermediate_dim"])
    p_grad.add_argument("--attr-dim", type=int, default=default["attr_dim"], dest="attr_dim")
    p_grad.add_argument("--seed", type=int, default=default["seed"])
    p_grad.add_argument("--step", type=float, default=default["step"])
    p_grad.add_argument("--tolerance", type=float, default=default["tolerance"])
    p_grad.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
