"""Train on a synthetic two-class benchmark, end to end.

Builds a small TU-format dataset on disk (rings vs stars), then drives
the same code path the CLI uses: load, unify, 10-fold cross-validation
with early stopping, and the CSV reports. Finishes in well under a
minute on a laptop.
"""

import csv
import os
import tempfile

import numpy as np

from segbert import (
    Strategy,
    TrainConfig,
    config_for,
    load_tu_dataset,
    resolve_plan,
    run_cv,
    write_tu_dataset,
)
from segbert.dataset import GraphDataset, GraphInstance


def ring(n, label):
    return GraphInstance(node_count=n,
                         edges=[(i, (i + 1) % n) for i in range(n)],
                         label=label)


def star(n, label):
    return GraphInstance(node_count=n,
                         edges=[(0, i) for i in range(1, n)],
                         label=label)


rng = np.random.default_rng(0)
graphs = []
for _ in range(15):
    graphs.append(ring(int(rng.integers(5, 10)), 0))
    graphs.append(star(int(rng.integers(5, 10)), 1))
sizes = [g.node_count for g in graphs]
ds = GraphDataset(name="RINGSTAR", graphs=graphs, class_count=2, attr_dim=0,
                  tag_vocab_size=0, max_nodes=max(sizes),
                  avg_nodes=float(np.mean(sizes)))

with tempfile.TemporaryDirectory() as tmp:
    write_tu_dataset(ds, tmp)
    print("files:", sorted(os.listdir(tmp)))
    loaded = load_tu_dataset(tmp, "RINGSTAR")
    print(f"loaded {len(loaded)} graphs, {loaded.class_count} classes, "
          f"avg {loaded.avg_nodes:.1f}, max {loaded.max_nodes} nodes\n")

    plan = resolve_plan(loaded, Strategy.SEGMENT_SHIFTING, 8)
    config = config_for(loaded, plan, hidden_dim=16, layer_count=1,
                        intermediate_dim=16, dropout_hidden=0.1,
                        dropout_attention=0.1)
    train_cfg = TrainConfig(learning_rate=1e-3, epochs=15,
                            early_stop_patience=15, batch_size=10, seed=0)

    out = os.path.join(tmp, "run")
    summary = run_cv(loaded, plan, config, train_cfg, out_dir=out)

    print(f"{summary.dataset} {summary.strategy} k={summary.k}: "
          f"mean test accuracy {100 * summary.mean_accuracy:.1f} "
          f"+/- {100 * summary.std_accuracy:.1f} "
          f"({summary.mean_fold_seconds:.2f} s/fold)")
    print("\nper-fold chosen epochs:",
          [r.chosen_epoch for r in summary.folds])

    with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
        print("\nsummary.csv:")
        for row in csv.reader(fh):
            print("  " + ",".join(str(c) for c in row))
