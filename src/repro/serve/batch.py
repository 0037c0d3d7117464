"""Cross-request batching: many small netlists, one sparse-matmul pass.

The coalescing layer behind the serving queue (ROADMAP item 2).  Small
graphs are merged into one *block-diagonal* batched graph — adjacency
blocks on the diagonal, attribute rows stacked — so the whole batch runs
through the same sparse-matmul chain as a solo request.  Because no edge
crosses a block boundary, aggregation never mixes rows from different
requests and each request's output rows are exactly the rows of its
block: results are separable by row slice and **bit-identical** to solo
scoring at float64 (CSR row structure and the row-stable dense kernels
both depend only on the rows themselves, never on the batch height; the
equivalence suite in ``tests/serve/test_batch.py`` asserts this
property-style over mixed-size netlist sets).

Two pieces:

* :func:`merge_graphs` / :class:`MergedBatch` — the block-diagonal
  construction and the per-request row slices that undo it;
* :class:`BatchPolicy` — the size/deadline-aware flush rule: a batch
  closes when it reaches ``batch_max_requests`` requests or
  ``batch_max_nodes`` total nodes, when the linger window
  (``batch_linger_ms``) expires, or — earlier than either — when holding
  it longer would push the earliest member deadline inside the
  ``batch_safety_ms`` margin.  A near-deadline request is therefore
  never parked waiting for peers it cannot afford.

Routing (who may enter the batch lane) is decided at submit time in
:class:`~repro.serve.service.ScoringService`: requests over
``ServeConfig.batch_solo_nodes`` — or carrying ``"batchable": false`` —
are scored solo, through whichever inference backend
:class:`~repro.config.ExecutionConfig` resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graphdata import GraphData
from repro.nn.sparse import COOMatrix
from repro.serve.config import ServeConfig

__all__ = ["MergedBatch", "merge_graphs", "BatchPolicy"]


@dataclass
class MergedBatch:
    """One block-diagonal batched graph plus the slices that undo it."""

    graph: GraphData
    #: per-request row ranges into the batched node axis, in input order
    slices: list[slice]

    @property
    def size(self) -> int:
        return len(self.slices)

    def split(self, batched: np.ndarray) -> list[np.ndarray]:
        """Slice a per-node result array back into per-request arrays."""
        return [batched[s] for s in self.slices]


def merge_graphs(graphs: list[GraphData], name: str = "batch") -> MergedBatch:
    """Merge ``graphs`` into one block-diagonal :class:`GraphData`.

    The k-th input occupies rows ``slices[k]`` of the output; its
    adjacency entries are offset onto the diagonal block, so relative
    row/column order inside every block — and therefore the CSR
    accumulation order of every sparse matvec row — is unchanged from
    the solo graph.
    """
    if not graphs:
        raise ValueError("merge_graphs needs at least one graph")
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    for i, graph in enumerate(graphs):
        offsets[i + 1] = offsets[i] + graph.num_nodes

    # Block-diagonal stacking reuses each member's cached CSR arrays, so
    # a coalesced pass pays concatenation — not a COO->CSR conversion —
    # for its adjacency (the conversion cost would otherwise scale with
    # every batch even when the members are already materialised).
    attributes = np.concatenate([g.attributes for g in graphs], axis=0)
    merged = GraphData(
        pred=COOMatrix.block_diag([g.pred for g in graphs]),
        succ=COOMatrix.block_diag([g.succ for g in graphs]),
        attributes=attributes,
        name=f"{name}[{len(graphs)}]",
    )
    slices = [
        slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(graphs))
    ]
    return MergedBatch(graph=merged, slices=slices)


class BatchPolicy:
    """Size/deadline-aware flush decisions for one forming batch.

    Stateful over a single batch's lifetime: ``open(job)`` starts it,
    ``admits(job)`` asks whether another job fits the budgets,
    ``add(job)`` commits it, and ``flush_at`` is the absolute clock time
    past which the batch must not linger.  The service owns the actual
    queue draining; this class owns only the arithmetic, so the flush
    rule is testable with a fake clock and no threads.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.nodes = 0
        self.count = 0
        self.flush_at = 0.0

    def open(self, job, now: float) -> None:
        """Start a batch with its first (already-claimed) job."""
        self.nodes = job.request.graph.num_nodes
        self.count = 1
        linger = self.config.batch_linger_ms / 1000.0
        self.flush_at = min(now + linger, self._deadline_cap(job))

    def _deadline_cap(self, job) -> float:
        """Latest moment this job may still sit in a forming batch."""
        return job.deadline - self.config.batch_safety_ms / 1000.0

    def admits(self, job) -> bool:
        """Whether ``job`` fits the request/node budgets of this batch."""
        if self.count >= self.config.batch_max_requests:
            return False
        return self.nodes + job.request.graph.num_nodes <= self.config.batch_max_nodes

    def add(self, job) -> None:
        """Commit ``job``; tightens the flush deadline if it is urgent."""
        self.nodes += job.request.graph.num_nodes
        self.count += 1
        self.flush_at = min(self.flush_at, self._deadline_cap(job))

    def full(self) -> bool:
        return (
            self.count >= self.config.batch_max_requests
            or self.nodes >= self.config.batch_max_nodes
        )

    def remaining(self, now: float) -> float:
        """Seconds of linger left before the batch must flush."""
        return self.flush_at - now
