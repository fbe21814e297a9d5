"""Reference outputs that pin the model's bits, and the script that
regenerates them.

``compute()`` runs a fixed set of small jobs and returns what they
produce:

- the sha256 of every fold CSV and of ``summary.csv`` for two tiny
  ``run_cv`` configs: a MUTAG-shaped set under padding-pruning, and a
  PROTEINS-shaped one under segment-shifting with the raw residual,
  both pre-training tasks and gradient clipping;
- fold 0's trained parameters (``final_values``) from those two runs;
- the eval-mode logits of one fixed batch per unification strategy at
  a fixed init;
- the ``model_gradcheck`` errors at width 4 in both residual modes.

``tests/reference/outputs.json`` holds that result as of the last
commit meant to change the model's output, together with the numpy
version and BLAS it was made with. ``test_reference_outputs.py``
recomputes it and compares. After a deliberate change to the output,
regenerate the file from the repository root with

    python3 tests/reference_outputs.py

and say in CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference" / "outputs.json"
LOGIT_BATCH = 16  # graphs in each strategy's logits batch


def environment() -> dict:
    """The numpy version and BLAS library, which decide rounding."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _synth(workload: str):
    """The tiny seed-1 set of a perfbench workload, in memory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.generate(workload, 1, tiny=True)


def _cv(dataset, strategy: str, k: int, train_cfg, **model) -> tuple:
    """(sha256 of each report file, fold 0's trained parameters)."""
    from segbert import config_for, resolve_plan, run_cv

    plan = resolve_plan(dataset, strategy, k)
    config = config_for(dataset, plan, hidden_dim=8, head_count=2, intermediate_dim=8,
                        **model)
    with tempfile.TemporaryDirectory() as out:
        summary = run_cv(dataset, plan, config, train_cfg, out_dir=out)
        names = sorted(n for n in os.listdir(out) if n != "timing.csv")
        hashes = {n: hashlib.sha256(Path(out, n).read_bytes()).hexdigest() for n in names}
    return hashes, {name: value.tolist()
                    for name, value in summary.folds[0].final_values.items()}


def _logits(dataset, strategy: str, k: int | None) -> list:
    from segbert import Tape, config_for, init_params, prepare_dataset, resolve_plan
    from segbert.model import build_batch, classify_batch

    plan = resolve_plan(dataset, strategy, k)
    config = config_for(dataset, plan, hidden_dim=8, head_count=2, intermediate_dim=8)
    inputs = prepare_dataset(dataset, plan, config)[:LOGIT_BATCH]
    batch = build_batch(inputs, config.class_count)
    _, logits = classify_batch(Tape(), init_params(config, seed=3), config, batch,
                               training=False)
    return logits.value.tolist()


def compute() -> dict:
    from segbert import TrainConfig

    mutag, proteins = _synth("mutag-pp"), _synth("proteins-seg")
    train = dict(epochs=3, early_stop_patience=2, batch_size=8, learning_rate=1e-3, seed=1)
    runs = {
        "mutag-padding-pruning": _cv(
            mutag, "padding-pruning", 12, TrainConfig(**train)),
        "proteins-segment-shifting": _cv(
            proteins, "segment-shifting", 10,
            TrainConfig(**train, pretrain_tasks=("reconstruction", "structure"),
                        pretrain_epochs=2, grad_clip=0.5),
            residual_mode="raw"),
    }
    logits = {strategy: _logits(mutag, strategy, k) for strategy, k in
              (("full-input", None), ("padding-pruning", 12), ("segment-shifting", 10))}
    return {"env": environment(),
            "run_cv": {run: hashes for run, (hashes, _) in runs.items()},
            "final_values": {run: values for run, (_, values) in runs.items()},
            "logits": logits, "gradcheck": gradcheck_errors()}


def gradcheck_errors() -> dict:
    """``model_gradcheck`` errors per residual mode at width 4."""
    from segbert import model_gradcheck

    return {mode: model_gradcheck(residual_mode=mode, hidden_dim=4, head_count=2,
                                  layer_count=2, intermediate_dim=4).errors
            for mode in ("none", "raw")}


def main() -> int:
    outputs = compute()
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} ({outputs['env']})")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
