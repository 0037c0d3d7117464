"""Span recorder for the benchmark's traced run.

Wraps the public functions of each layer where their callers bind them
(every ``repro.*`` module attribute that *is* the original function, so
``from x import f`` bindings are covered) and a few methods on their
classes.  Only a traced run installs it; :meth:`Recorder.restore` puts
every original back.  Spans stay in memory — ``(name, start, end,
parent, request)`` — and are written out once, at the end.

Self time of a span is its duration minus the time its direct children
cover; children run on the span's own thread, nested inside it, so their
durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (layer, defining module, function) — patched at every binding
FUNCTIONS = (
    ("circuit.parse_bench", "repro.circuit.bench", "parse_bench"),
    ("circuit.validate", "repro.circuit.validate", "validate_netlist"),
    ("circuit.adjacency", "repro.circuit.graph", "adjacency_pair"),
    ("circuit.levelize", "repro.circuit.levelize", "topological_order"),
    ("circuit.levelize", "repro.circuit.levelize", "logic_levels"),
    ("testability.scoap", "repro.testability.scoap", "compute_scoap"),
    (
        "testability.refresh_observability",
        "repro.testability.incremental",
        "refresh_observability",
    ),
    ("core.attributes", "repro.core.attributes", "build_attributes"),
    ("graph.partition", "repro.graph.partition", "partition_graph"),
    ("atpg.cone_invalidate", "repro.atpg.cones", "invalidate_cone_cache"),
)

#: (layer, module, class, method)
METHODS = (
    ("core.embed", "repro.core.inference", "FastInference", "embed"),
    ("core.logits", "repro.core.inference", "FastInference", "logits"),
    ("graph.sharded_logits", "repro.graph.sharded", "ShardedInference", "logits"),
    ("flow.insert_op", "repro.flow.modify", "IncrementalDesign", "insert_op"),
    ("flow.rollback", "repro.flow.modify", "IncrementalDesign", "rollback"),
)

#: modules that must be loaded before patching so their bindings exist
PRELOAD = (
    "repro.api",
    "repro.core.inference",
    "repro.graph.sharded",
    "repro.flow.insertion",
    "repro.flow.impact",
    "repro.serve.admission",
    "repro.serve.service",
    "repro.serve.http",
)


class Recorder:
    """In-memory span recorder with reversible patches."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.impacts: list[int] = []  # impact values ranked by the OPI flow
        self.min_impact = 1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        request = getattr(self._local, "request", None)
        with self._lock:
            index = len(self.spans)
            if request is None:
                request = self.spans[parent][4] if parent >= 0 else index
            self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def request(self, request_id: str) -> None:
        """Tag spans opened on this thread from now on with ``request_id``."""
        self._local.request = request_id

    def wrap(self, fn, name: str, only_if=None):
        """``fn`` recording a ``name`` span per call (per call for which
        ``only_if(*args)`` holds, when given)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(self._local, "suspended", False) or (
                only_if is not None and not only_if(*args)
            ):
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing on this thread inside the block (the benchmark's
        own correctness checks call the same layers)."""
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = False

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every layer boundary listed in ``FUNCTIONS``/``METHODS``."""
        for module in PRELOAD:
            importlib.import_module(module)
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attr) is original
                ):
                    self._set(loaded, attr, traced)
        for name, module, cls, method in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._set(owner, method, self.wrap(owner.__dict__[method], name))

        from repro.nn.sparse import COOMatrix

        # Count only the calls that convert; cached hits return at once.
        self._set(
            COOMatrix,
            "to_scipy",
            self.wrap(
                COOMatrix.to_scipy, "core.csr", only_if=lambda m: m._csr is None
            ),
        )
        self._install_flow()

    def _install_flow(self) -> None:
        """Wrap the OPI flow's predictor where ``repro.api`` binds the flow,
        and record the impact of every ranked candidate."""
        import repro.api
        from repro.flow.impact import ImpactEvaluator

        run_gcn_opi = repro.api.run_gcn_opi

        def flow(netlist, predictor, config=None, *args, **kwargs):
            if config is not None:
                self.min_impact = config.min_impact
            return run_gcn_opi(
                netlist, self.wrap(predictor, "flow.predict"), config, *args, **kwargs
            )

        self._set(repro.api, "run_gcn_opi", flow)
        rank = ImpactEvaluator.rank

        def traced_rank(evaluator, candidates, baseline):
            ranked = rank(evaluator, candidates, baseline)
            self.impacts.extend(impact for _, impact in ranked)
            return ranked

        self._set(ImpactEvaluator, "rank", traced_rank)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def dump(self, path: Path) -> None:
        """Write the spans and impact record as one JSON document."""
        path.write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "impacts": self.impacts,
                    "min_impact": self.min_impact,
                }
            )
        )


def layer_totals(spans: list[list], since: float = 0.0) -> dict:
    """Per-layer ``{"self_s", "total_s", "calls"}`` from a span list,
    counting only spans opened at or after ``since``."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and start >= since:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        if start < since:
            continue
        entry = totals[name]
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["calls"] += 1
    return dict(totals)
