"""Independent reference forward for the ``score_large`` correctness gate.

Recomputes the GCN forward pass from the raw COO arrays and the weight
snapshot with plain scipy/numpy products — none of the library's CSR
cache, engine routing or row-stable kernels — and compares it with what
``api.score`` returned.  The two sum in different orders, so logits are
compared to float64 round-off, and labels must match except on nodes
whose two logits tie within that round-off.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: |Δlogit| allowed per unit of logit magnitude: far above float64
#: round-off of a 128-term dot product (~1e-14), far below any real error
_RTOL = 1e-9


def forward(weights, graph) -> np.ndarray:
    """``(n_nodes, 2)`` logits of ``weights`` on ``graph``."""
    n = graph.num_nodes
    pred = sp.csr_matrix(
        (graph.pred.values, (graph.pred.rows, graph.pred.cols)), shape=(n, n)
    )
    succ = sp.csr_matrix(
        (graph.succ.values, (graph.succ.rows, graph.succ.cols)), shape=(n, n)
    )
    h = np.array(graph.attributes, dtype=np.float64)
    for w, b in zip(weights.encoder_weights, weights.encoder_biases):
        h = (h + weights.w_pr * (pred @ h) + weights.w_su * (succ @ h)) @ w
        if b is not None:
            h = h + b
        h = np.maximum(h, 0.0)
    last = len(weights.fc_weights) - 1
    for i, (w, b) in enumerate(zip(weights.fc_weights, weights.fc_biases)):
        h = h @ w
        if b is not None:
            h = h + b
        if i < last:
            h = np.maximum(h, 0.0)
    return h


def check_scores(weights, graph, result) -> dict:
    """Compare ``result`` (an ``api.ScoreResult``) with :func:`forward`."""
    ref = forward(weights, graph)
    tol = _RTOL * max(1.0, float(np.abs(ref).max()))
    max_diff = float(np.abs(result.logits - ref).max())
    tie = np.abs(ref[:, 1] - ref[:, 0]) <= tol
    mismatched = int(((result.labels != np.argmax(ref, axis=1)) & ~tie).sum())
    problems = []
    if max_diff > tol:
        problems.append(f"logits differ from the reference by {max_diff:.3g}")
    if mismatched:
        problems.append(f"{mismatched} labels differ from the reference")
    return {
        "ok": not problems,
        "problems": problems,
        "max_logit_diff": max_diff,
        "ties": int(tie.sum()),
    }
