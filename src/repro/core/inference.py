"""Fast sparse-matrix GCN inference (Section 3.4.1).

The paper's scalability result: instead of evaluating Algorithm 1 node by
node (duplicating shared neighbourhood work), write each aggregation step
as one sparse-matrix product over the whole graph (Equation (2)/(3)) and
the entire network becomes a short chain of matmuls — three orders of
magnitude faster at a million nodes.

This module is the pure-numpy/scipy hot path: no autograd tape, CSR-cached
adjacency, in-place ReLU.  The layer math is written once, in
:func:`gcn_layer` and :func:`gcn_head`; the whole-graph engine here and
the sharded engine (:mod:`repro.graph.sharded`) both run it, which is
what keeps their float64 logits bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCNWeights
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.errors import NumericalError

__all__ = ["FastInference", "gcn_head", "gcn_layer", "row_stable_matmul"]


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` computed so row ``i`` of the result depends only on row
    ``i`` of ``a`` — never on the total row count.

    BLAS gemm is *not* row-stable in general: narrow outputs (fewer than
    four columns) and single-row operands dispatch to kernels whose
    k-accumulation order differs from the blocked path, so the same row
    can round differently depending on the height of the matrix it sits
    in.  Sharded inference slices the node set into shards of varying
    height and still promises bit-identical float64 logits, so both the
    single-shard and sharded engines route every dense product through
    this helper.  Narrow outputs take an explicit fixed-order
    k-accumulation — zero-padding the output up to four columns is not
    enough, because skinny gemm still switches kernels on the row count
    (observed: ``(3222, 128) @ (128, 2)`` rounds differently from its
    805-row slice even padded).  The explicit loop makes every row an
    independent, identically-ordered sum, at a cost that only the tiny
    final layer pays.  Single rows are zero-padded up to the blocked
    kernel's minimum height; padding rows are exact zeros that never
    feed back into real outputs.
    """
    m, n = a.shape[0], b.shape[1]
    if n < 4:
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        for k in range(a.shape[1]):
            out += a[:, k : k + 1] * b[k]
        return out
    if m == 1:
        a = np.concatenate(
            [a, np.zeros((3, a.shape[1]), dtype=a.dtype)], axis=0
        )
        return (a @ b)[:m]
    return a @ b


def gcn_layer(
    weights: GCNWeights,
    layer: int,
    prev: np.ndarray,
    pred,
    succ,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Encoder layer ``layer`` over a row selection: aggregate → encode →
    bias/ReLU.

    ``prev`` holds the layer's input embeddings; ``pred``/``succ`` are the
    adjacency rows of the nodes being computed, with columns indexing
    ``prev``, and ``rows`` picks those nodes' own rows out of ``prev``
    (``None``: every row, the whole graph).  The aggregate is
    ``E + w_pr·(P @ E) + w_su·(S @ E)`` summed in that order, and every
    dense step is row-independent, so a node's output does not depend on
    which other rows the selection holds.
    """
    own = prev if rows is None else prev[rows]
    aggregated = (
        own + weights.w_pr * (pred @ prev) + weights.w_su * (succ @ prev)
    )
    out = row_stable_matmul(aggregated, weights.encoder_weights[layer])
    bias = weights.encoder_biases[layer]
    if bias is not None:
        out += bias
    np.maximum(out, 0.0, out=out)
    return out


def gcn_head(weights: GCNWeights, h: np.ndarray) -> np.ndarray:
    """The fully-connected head: final embeddings → class logits, ReLU
    between layers (row-local, so it runs on any row selection)."""
    last = len(weights.fc_weights) - 1
    for i, (weight, bias) in enumerate(
        zip(weights.fc_weights, weights.fc_biases)
    ):
        h = row_stable_matmul(h, weight)
        if bias is not None:
            h += bias
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def _obs():
    """Inference metrics in the process-default registry (lazy lookup so
    a registry swapped in by tests is honoured)."""
    reg = get_registry()
    return (
        reg.counter(
            "repro_inference_calls_total", "whole-graph fast-inference calls"
        ),
        reg.counter(
            "repro_inference_nodes_total", "nodes scored by fast inference"
        ),
        reg.histogram(
            "repro_inference_seconds", "wall time of one whole-graph logits pass"
        ),
    )


class FastInference:
    """Matrix-form inference engine for a trained GCN.

    ``execution`` selects numerics and backend: ``dtype`` defaults to
    float64 (matching the training tape) — ``float32`` gives
    deployment-style inference, as in the paper's fp32 GPU path — and
    ``backend`` routes large graphs to the partitioned engine
    (:class:`repro.graph.sharded.ShardedInference`) when it resolves to
    ``sharded``.  The legacy ``dtype=`` argument keeps working and takes
    precedence over ``execution.dtype``.
    """

    def __init__(
        self,
        weights: GCNWeights,
        dtype=None,
        execution: ExecutionConfig | None = None,
    ) -> None:
        if execution is None:
            execution = ExecutionConfig(
                dtype="float64" if dtype is None else np.dtype(dtype).name
            )
        elif dtype is not None:
            execution = execution.replace(dtype=np.dtype(dtype).name)
        self.execution = execution
        self.dtype = execution.numpy_dtype()
        # Cast-cached on the weight snapshot (no re-copy per construction).
        self.weights = weights.astype(self.dtype)
        self._sharded = None

    @classmethod
    def from_file(
        cls, path, dtype=None, execution: ExecutionConfig | None = None
    ) -> "FastInference":
        """Build an engine from a model file saved by :func:`~repro.core.
        serialize.save_gcn`.

        Propagates the typed load errors (:class:`FileNotFoundError`,
        :class:`~repro.resilience.errors.CheckpointCorruptError`); use
        :func:`repro.resilience.degrade.load_predictor` when a fallback
        predictor is preferable to failing.
        """
        from repro.core.serialize import load_gcn

        return cls(load_gcn(path).layer_weights(), dtype=dtype, execution=execution)

    # ------------------------------------------------------------------ #
    def _sharded_engine(self):
        """Lazily-built partitioned engine sharing this weight snapshot."""
        if self._sharded is None:
            from repro.graph.sharded import ShardedInference

            self._sharded = ShardedInference(
                self.weights, execution=self.execution
            )
        return self._sharded

    def _route(self, graph: GraphData):
        """The engine that should serve ``graph`` under this config."""
        if (
            self.execution.resolve_inference_backend(graph.num_nodes)
            == "sharded"
        ):
            return self._sharded_engine()
        return self

    def embed(self, graph: GraphData) -> np.ndarray:
        """Compute final node embeddings for the whole graph."""
        engine = self._route(graph)
        if engine is not self:
            return engine.embed(graph)
        w = self.weights
        with span("inference.csr_cache"):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
        embeddings = graph.attributes
        if self.dtype != np.float64:
            pred = pred.astype(self.dtype)
            succ = succ.astype(self.dtype)
            embeddings = embeddings.astype(self.dtype)
        for d in range(w.depth):
            with span("inference.sparse_matmul", layer=d):
                embeddings = gcn_layer(w, d, embeddings, pred, succ)
        return embeddings

    def logits(self, graph: GraphData) -> np.ndarray:
        """Class logits for every node.

        Raises :class:`~repro.resilience.errors.NumericalError` if any
        logit is NaN/inf — corrupt weights or overflowing attributes must
        surface as a typed failure, not propagate garbage scores.
        """
        start = time.perf_counter()
        engine = self._route(graph)
        if engine is not self:
            h = engine.logits(graph)
        else:
            with span(
                "inference.logits", graph=graph.name, nodes=graph.num_nodes
            ):
                h = gcn_head(self.weights, self.embed(graph))
                self._check_finite(h, graph, "logits")
        calls, nodes, seconds = _obs()
        calls.inc()
        nodes.inc(graph.num_nodes)
        seconds.observe(time.perf_counter() - start)
        return h

    def predict(self, graph: GraphData) -> np.ndarray:
        """Argmax class per node."""
        return np.argmax(self.logits(graph), axis=1)

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Softmax probabilities per node."""
        logits = self.logits(graph)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        proba = exp / exp.sum(axis=1, keepdims=True)
        self._check_finite(proba, graph, "predict_proba")
        return proba

    @staticmethod
    def _check_finite(values: np.ndarray, graph: GraphData, what: str) -> None:
        if np.isfinite(values).all():
            return
        bad = int((~np.isfinite(values)).any(axis=1).sum())
        raise NumericalError(
            f"{what} for graph {graph.name!r} contain non-finite values "
            f"({bad}/{values.shape[0]} nodes affected)",
            diagnostics={"graph": graph.name, "output": what, "bad_nodes": bad},
        )
