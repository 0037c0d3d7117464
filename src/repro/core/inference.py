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

__all__ = [
    "FastInference",
    "gcn_head",
    "gcn_layer",
    "numerics_certificate",
    "probe_row_stability",
    "row_stable_matmul",
]


#: Probe operand height: past OpenBLAS's m-block (512 rows float64, 768
#: float32 on Haswell) ...
_PROBE_ROWS = 1100
#: ... and raised, up to ``2**15`` rows, until ``m·k·n`` reaches twice
#: OpenBLAS's single-thread cutoff (``2**18``), so the full product runs
#: threaded like a large graph's does.
_PROBE_MNK = 1 << 19
#: Slice heights the probe checks against the full product: the padded
#: 1–3-row operands, non-multiples of every kernel height (4/8/16), and
#: heights either side of the m-block.
_PROBE_HEIGHTS = (1, 2, 3, 4, 5, 6, 7, 9, 13, 17, 31, 33, 129, 257, 515, 771)

#: ``(k, n, dtype name)`` → probe verdict, filled lazily, once per process.
_certificate: dict[tuple[int, int, str], bool] = {}


def _padded_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BLAS ``a @ b`` with fewer than four output columns zero-padded to
    eight and fewer than four rows zero-padded to four.

    Padding keeps numpy off its gemv/vector paths and BLAS off its
    skinny-output kernels; the zero rows and columns never feed back
    into real outputs.
    """
    m, n = a.shape[0], b.shape[1]
    a = np.ascontiguousarray(a)
    if m < 4:
        a = np.concatenate([a, np.zeros((4 - m, a.shape[1]), a.dtype)])
    if n < 4:
        b = np.concatenate([b, np.zeros((b.shape[0], 8 - n), b.dtype)], axis=1)
        return np.ascontiguousarray((a @ b)[:m, :n])
    return (a @ np.ascontiguousarray(b))[:m]


def _fixed_order_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as an explicit k-loop: every row is an independent sum in
    one fixed order, whatever the BLAS does.  The fallback for shapes the
    probe does not certify."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k]
    return out


def probe_row_stability(k: int, n: int, dtype) -> bool:
    """Whether :func:`_padded_gemm` of ``(m, k) @ (k, n)`` is row-stable
    on the running BLAS.

    Multiplies one random operand at least ``_PROBE_ROWS`` tall, then
    each ``_PROBE_HEIGHTS`` row slice of it at a random offset, and
    demands every slice's product equal the same rows of the full
    product bit for bit.  Deterministic for a given shape; a few
    milliseconds per shape.
    """
    dtype = np.dtype(dtype)
    rows = max(_PROBE_ROWS, min(1 << 15, _PROBE_MNK // max(1, k * max(n, 8))))
    rng = np.random.default_rng([k, n])
    a = (2.0 * rng.random((rows, k)) - 1.0).astype(dtype)
    b = (2.0 * rng.random((k, n)) - 1.0).astype(dtype)
    full = _padded_gemm(a, b)
    heights = np.array(_PROBE_HEIGHTS)
    offsets = rng.integers(0, rows - heights + 1)
    return all(
        np.array_equal(_padded_gemm(a[o : o + h], b), full[o : o + h])
        for h, o in zip(heights.tolist(), offsets.tolist())
    )


def is_certified(k: int, n: int, dtype) -> bool:
    """The probe's verdict for ``(k, n, dtype)``, probing on first use."""
    key = (int(k), int(n), np.dtype(dtype).name)
    verdict = _certificate.get(key)
    if verdict is None:
        verdict = _certificate[key] = probe_row_stability(*key)
    return verdict


def numerics_certificate(weights: GCNWeights, dtype) -> list[dict]:
    """Per dense shape of ``weights`` at ``dtype``: the probe's verdict
    and the path :func:`row_stable_matmul` takes (probing any shape not
    yet probed in this process)."""
    dtype = np.dtype(dtype)
    shapes = dict.fromkeys(
        m.shape for m in [*weights.encoder_weights, *weights.fc_weights]
    )
    report = []
    for k, n in shapes:
        certified = is_certified(k, n, dtype)
        report.append(
            {
                "k": int(k),
                "n": int(n),
                "dtype": dtype.name,
                "certified": certified,
                "path": "gemm" if certified else "fixed_order",
            }
        )
    return report


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` computed so row ``i`` of the result depends only on row
    ``i`` of ``a`` — never on the total row count.

    BLAS gemm is *not* row-stable by construction: numpy sends 1-row
    operands and 1-column outputs to gemv, and BLAS picks kernels by
    shape, so the same row can round differently depending on the height
    of the matrix it sits in (observed: ``(3222, 128) @ (128, 2)``,
    output padded to four columns, rounded differently from its 805-row
    slice; padded to eight it passes the probe).  Sharded inference
    slices the node set into shards of varying height and still promises
    bit-identical float64 logits, so every engine routes every dense
    product through this helper.

    Each ``(k, n, dtype)`` is certified on the running BLAS by
    :func:`probe_row_stability`, once per process on first use.  A
    certified shape runs as one padded gemm (:func:`_padded_gemm`: narrow
    outputs padded to eight columns, 1–3-row operands to four rows).  A
    shape the probe rejects (float32 ``(128, 2)`` on OpenBLAS Haswell)
    takes :func:`_fixed_order_matmul`, row-stable by construction.
    """
    if is_certified(a.shape[1], b.shape[1], np.result_type(a, b)):
        return _padded_gemm(a, b)
    return _fixed_order_matmul(a, b)


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
    ``backend`` routes graphs to the partitioned engine
    (:class:`repro.graph.sharded.ShardedInference`) when it resolves to
    ``sharded`` (only on request; ``auto`` is single-process).  The
    legacy ``dtype=`` argument keeps working and takes precedence over
    ``execution.dtype``.
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
