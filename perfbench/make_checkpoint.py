"""Train the benchmark's fixed GCN checkpoint (``perfbench/gcn.npz``).

Run once, from the repository root, to (re)create the checkpoint:

    PYTHONPATH=src python3 perfbench/make_checkpoint.py

The benchmark never retrains: it loads the stored file, so a later change
to training or labelling cannot change the benchmark's inputs.  The
weights must be trained, not random — random weights predict no positive
nodes, which would leave the OPI loop and the label checks vacuous.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import api

#: paper architecture (D=3, K=32/64/128, FC 64/64/128)
_DEPTH = 3
_TRAIN_DESIGNS = ((1500, 901), (1500, 902))
_LABELS = api.LabelConfig(n_patterns=256, threshold=0.01)
_TRAIN = api.TrainConfig(epochs=150, weight_decay=1e-4, eval_every=50)


def main(out: Path) -> int:
    graphs = []
    for gates, seed in _TRAIN_DESIGNS:
        netlist = api.generate_design(gates, seed=seed)
        labels = api.label_nodes(netlist, _LABELS).labels
        graph = api.build_graph(netlist, labels=labels)
        graphs.append(graph.subset(api.balanced_indices(labels, seed=seed)))
    trained = api.train(
        graphs, config=_TRAIN, gcn=api.default_gcn_config(_DEPTH, seed=0)
    )
    trained.save(out)
    print(f"wrote {out} (train accuracy {trained.history.final_train_accuracy():.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parent / "gcn.npz"))
