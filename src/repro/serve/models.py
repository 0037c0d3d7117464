"""Model lifecycle for the serving layer: hot reload, rollback, degrade.

The manager owns the *current* predictor behind a lock and swaps it
atomically.  A reload candidate is validated via :mod:`repro.core.
serialize` (strict load — every stage, every parameter shape) **before**
the swap, so a corrupt checkpoint can never become the serving model: the
last-good predictor keeps serving and the caller gets the typed error plus
rollback provenance.

A per-model :class:`~repro.resilience.retry.CircuitBreaker` (fresh on
every successful swap) fronts inference.  Any model failure degrades that
request to the SCOAP :class:`~repro.resilience.degrade.HeuristicPredictor`
with a ``degraded`` flag; once the breaker opens, the model is not even
attempted until the reset timeout elapses.

Hot GCN weights live in a :class:`~repro.exec.shm.WeightStore`: each
swap publishes the layer matrices into shared-memory segments and binds
inference to zero-copy views over them, so every scoring worker —
including one respawned after a crash — attaches to the same physical
pages instead of re-loading or re-copying the checkpoint, and an external
process can attach via the manifest in :meth:`ModelManager.describe`.
The store is best-effort: where shared memory is unavailable the manager
falls back to plain in-heap arrays and keeps serving.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.obs import logs
from repro.resilience.degrade import HeuristicPredictor, LoadedPredictor, load_predictor
from repro.resilience.retry import CircuitBreaker, CircuitOpenError

__all__ = ["ModelManager"]

_log = logs.get_logger("serve")

#: predictor levels considered fully healthy (not flagged degraded)
_HEALTHY_LEVELS = frozenset({"cascade", "gcn"})


def _load_strict(path: str | Path) -> LoadedPredictor:
    """Strictly load ``path`` as a cascade or single GCN.

    Unlike :func:`~repro.resilience.degrade.load_predictor`, this refuses
    partially corrupt files: reload candidates must be fully valid.
    Raises :class:`FileNotFoundError` or :class:`~repro.resilience.errors.
    CheckpointCorruptError`.
    """
    from repro.core.serialize import _open_npz, load_cascade, load_gcn

    path = Path(path)
    stored, path = _open_npz(path, required=("__format__", "__config__"))
    if "__n_stages__" in stored.files:
        cascade = load_cascade(path, strict=True)
        return LoadedPredictor(
            predictor=cascade,
            level="cascade",
            detail=f"all {len(cascade.stages)} stages loaded",
            path=path,
        )
    model = load_gcn(path)
    return LoadedPredictor(
        predictor=model, level="gcn", detail="single GCN loaded", path=path
    )


def _weights_arrays(weights) -> dict[str, np.ndarray]:
    """Flatten a :class:`~repro.core.model.GCNWeights` into named arrays."""
    arrays: dict[str, np.ndarray] = {}
    for prefix, matrices in (
        ("encoder_weights", weights.encoder_weights),
        ("encoder_biases", weights.encoder_biases),
        ("fc_weights", weights.fc_weights),
        ("fc_biases", weights.fc_biases),
    ):
        for i, matrix in enumerate(matrices):
            if matrix is not None:  # None biases stay None on rebuild
                arrays[f"{prefix}.{i}"] = matrix
    return arrays


def _weights_from_views(weights, views: dict[str, np.ndarray]):
    """Rebuild a weight snapshot over shared-memory ``views``.

    Layer count and ``None`` bias positions come from the original
    snapshot; every actual matrix is replaced by its shared view, so the
    rebuilt snapshot owns no weight memory of its own.
    """
    import dataclasses

    def pick(prefix: str, originals) -> list:
        return [
            None if original is None else views[f"{prefix}.{i}"]
            for i, original in enumerate(originals)
        ]

    return dataclasses.replace(
        weights,
        encoder_weights=pick("encoder_weights", weights.encoder_weights),
        encoder_biases=pick("encoder_biases", weights.encoder_biases),
        fc_weights=pick("fc_weights", weights.fc_weights),
        fc_biases=pick("fc_biases", weights.fc_biases),
    )


def _predict_fn(
    loaded: LoadedPredictor,
    execution: "ExecutionConfig | None" = None,
    store=None,
) -> Callable[[object], np.ndarray]:
    """Bind the deployment inference path for ``loaded`` at swap time.

    With a :class:`~repro.exec.shm.WeightStore`, a single GCN's layer
    matrices are published into shared memory and the engine binds to
    zero-copy views; publication failure falls back to in-heap arrays
    (the store is an optimisation, never a dependency).
    """
    if loaded.level == "gcn":
        # Single GCNs score through the paper's sparse-matrix fast path,
        # which also carries the NumericalError non-finite guard; the
        # execution config picks the inference backend and the serving
        # dtype.  Weight casts are cached on the layer snapshot, so hot
        # reloads don't re-copy matrices per swap.
        from repro.core.inference import FastInference

        weights = loaded.predictor.layer_weights()
        if store is not None:
            try:
                views = store.publish(
                    _weights_arrays(weights),
                    scalars={"w_pr": weights.w_pr, "w_su": weights.w_su},
                )
                weights = _weights_from_views(weights, views)
            except Exception as exc:  # pragma: no cover - no /dev/shm
                _log.warning(
                    "weight store unavailable; serving from heap",
                    extra={"error": repr(exc)},
                )
        return FastInference(weights, execution=execution).predict
    return loaded.predictor.predict


class ModelManager:
    """Thread-safe owner of the serving predictor.

    ``model_path=None`` starts heuristic-only (every response flagged
    degraded) — useful for bring-up before the first ``/reload``.  The
    initial load is *lenient* (the degradation ladder: a corrupt file at
    startup still yields a serving process); ``reload`` is *strict*.
    """

    def __init__(
        self,
        model_path: str | Path | None = None,
        heuristic: HeuristicPredictor | None = None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        execution: "ExecutionConfig | None" = None,
    ) -> None:
        from repro.config import ExecutionConfig
        from repro.exec.shm import WeightStore

        self._lock = threading.Lock()
        #: how GCN scoring executes (backend/dtype/workers); environment
        #: overrides (``REPRO_BACKEND`` etc.) apply when not given
        self.execution = execution or ExecutionConfig.from_env()
        self._heuristic = heuristic or HeuristicPredictor()
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self._clock = clock
        self._reloads = 0
        self._rollbacks = 0
        self._model_failures = 0
        #: shared-memory home of the hot GCN weights (see module docstring)
        self.weight_store = WeightStore(label="serve-model")
        if model_path is None:
            self._current = LoadedPredictor(
                predictor=self._heuristic,
                level="heuristic",
                detail="no model configured",
            )
        else:
            self._current = load_predictor(model_path, heuristic=self._heuristic)
        self._fn = _predict_fn(self._current, self.execution, self.weight_store)
        self._breaker = self._fresh_breaker()
        self._last_good: Path | None = (
            self._current.path if self._current.level in _HEALTHY_LEVELS else None
        )

    def _fresh_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            reset_timeout=self._breaker_reset_s,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Provenance + health snapshot for ``/healthz`` and reload bodies."""
        from repro.core.inference import numerics_certificate

        with self._lock:
            current = self._current
        # Probes run outside the lock (first call only, tens of ms).
        numerics = (
            numerics_certificate(
                current.predictor.layer_weights(), self.execution.numpy_dtype()
            )
            if current.level == "gcn"
            else []
        )
        with self._lock:
            return {
                "level": self._current.level,
                "detail": self._current.detail,
                "path": str(self._current.path) if self._current.path else None,
                "last_good": str(self._last_good) if self._last_good else None,
                "breaker": self._breaker.state,
                "reloads": self._reloads,
                "rollbacks": self._rollbacks,
                "model_failures": self._model_failures,
                # Attach recipe for external readers; empty when the model
                # is not a shm-published single GCN.
                "weights_shm": self.weight_store.manifest(),
                # Row-stability certificate of each dense shape the fast
                # path runs (single GCNs only; other levels run no gemm
                # through it).
                "numerics": numerics,
            }

    def reload(self, path: str | Path) -> dict:
        """Validate ``path`` and atomically swap it in.

        On :class:`FileNotFoundError` / :class:`~repro.resilience.errors.
        CheckpointCorruptError` the current (last-good) predictor keeps
        serving, the rollback counter ticks, and the error propagates for
        the HTTP layer to report alongside :meth:`describe`.
        """
        try:
            candidate = _load_strict(path)
        except Exception:
            with self._lock:
                self._rollbacks += 1
            raise
        # Publishing the candidate's weights creates the new shm
        # generation and unlinks the old one; in-flight scoring keeps its
        # mappings (an unlinked segment's pages live until the last view
        # goes), so the swap is never observable half-done.
        fn = _predict_fn(candidate, self.execution, self.weight_store)
        with self._lock:
            self._current = candidate
            self._fn = fn
            self._breaker = self._fresh_breaker()
            self._last_good = candidate.path
            self._reloads += 1
        return self.describe()

    # ------------------------------------------------------------------ #
    def predict(self, graph) -> tuple[np.ndarray, dict]:
        """Score ``graph``; never raises for model trouble.

        Returns ``(labels, info)`` where ``info`` records whether the
        answer is degraded (heuristic-served) and why.  Admission errors
        cannot reach here; anything the model throws is a *model* fault:
        the breaker records it and the SCOAP heuristic answers instead.
        """
        with self._lock:
            loaded, fn, breaker = self._current, self._fn, self._breaker
        info = {"predictor_level": loaded.level, "degraded": False}
        if loaded.level == "heuristic":
            info.update(degraded=True, reason=loaded.detail)
            return self._heuristic.predict(graph), info
        if loaded.level not in _HEALTHY_LEVELS:
            info["degraded"] = True
            info["reason"] = f"partial model: {loaded.detail}"
        try:
            return breaker.call(fn, graph), info
        except CircuitOpenError as exc:
            reason = str(exc)
        except Exception as exc:
            with self._lock:
                self._model_failures += 1
            reason = f"model failure ({type(exc).__name__}: {exc})"
        info.update(predictor_level="heuristic", degraded=True, reason=reason)
        return self._heuristic.predict(graph), info

    def close(self) -> None:
        """Unlink the shared-memory weight segments (idempotent).

        Serve teardown calls this; the shm module's atexit registry and
        orphan sweep are the backstops for uncontrolled exits.
        """
        self.weight_store.close()
