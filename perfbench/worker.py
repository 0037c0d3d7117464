"""The scoring process of the ``score_large`` and ``opi`` workloads.

Started by ``run.py`` with this checkout's ``src`` on ``PYTHONPATH``.  It
imports ``repro.api``, loads the benchmark checkpoint and prints one
``ready`` line; the spawn-to-ready time is a ``setup_s`` sample.  It then
serves one JSON job per stdin line, answering one JSON line each:

* ``score`` — ``.bench`` file → ``api.load_netlist`` →
  ``validate_netlist(strict=True)`` → ``api.build_graph`` → ``api.score``,
  timed; then, untimed,
  the labels and logits are checked against ``reference.py``;
* ``opi`` — ``.bench`` file → ``api.insert_observation_points``, timed,
  with the start of every predictor call stamped; then the returned
  netlist is checked;
* ``trace_begin`` / ``trace_end`` — install or remove the span recorder;
* ``registry`` — counters the library keeps in its own process registry.

``--setup-only`` exits right after the ready line.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CHECKPOINT, emit  # noqa: E402

_t0 = time.perf_counter()
from repro import api  # noqa: E402
from repro.circuit import validate  # noqa: E402

_import_s = time.perf_counter() - _t0
_t0 = time.perf_counter()
WEIGHTS = api.load_gcn(CHECKPOINT).layer_weights()
_model_load_s = time.perf_counter() - _t0


def _score(job: dict, untraced) -> dict:
    import reference

    start = time.perf_counter()
    netlist = api.load_netlist(Path(job["path"]))
    # Called through the module so a traced run sees the call.
    validate.validate_netlist(netlist, strict=True)
    # What api.score(WEIGHTS, netlist) does, with the graph kept for the
    # reference check.
    graph = api.build_graph(netlist)
    result = api.score(WEIGHTS, graph)
    wall = time.perf_counter() - start
    with untraced():
        check = reference.check_scores(WEIGHTS, graph, result)
    return {
        "wall_s": wall,
        "nodes": netlist.num_nodes,
        "backend": result.backend,
        "positives": result.n_positive,
        **check,
    }


def _opi(job: dict, untraced) -> dict:
    from repro.obs.metrics import get_registry

    calls = get_registry().counter("repro_inference_calls_total", "")
    nodes = get_registry().counter("repro_inference_nodes_total", "")
    calls0, nodes0 = calls.value, nodes.value
    config = api.OpiConfig(max_iterations=job["max_iterations"])
    engine = api.FastInference(WEIGHTS)
    starts = []

    def predictor(graph):
        starts.append(time.perf_counter())
        return engine.predict(graph)

    start = time.perf_counter()
    netlist = api.load_netlist(Path(job["path"]))
    result = api.insert_observation_points(netlist, predictor, config)
    wall = time.perf_counter() - start
    problems = []
    try:
        with untraced():
            validate.validate_netlist(result.netlist, strict=True)
    except ValueError as exc:
        problems.append(f"strict validation failed: {exc}")
    out = result.netlist
    observed = {
        out.fanins(p)[0]
        for p in out.nodes()
        if out.gate_type(p) is api.GateType.OBS
    }
    missing = [t for t in result.inserted if t not in observed]
    if missing:
        problems.append(f"{len(missing)} inserted targets drive no OBS cell")
    return {
        "wall_s": wall,
        "nodes": netlist.num_nodes,
        "passes": calls.value - calls0,
        # one candidate evaluation (tentative insert, whole-graph
        # inference, rollback) per gap between successive predictor calls
        "step_s": [b - a for a, b in zip(starts, starts[1:])],
        "pass_nodes": nodes.value - nodes0,
        "inserted": result.inserted,
        "iterations": result.iterations,
        "positives_history": result.positives_history,
        "ok": not problems,
        "problems": problems,
    }


def _registry() -> dict:
    """Sharded-route counters from the process-default registry."""
    from repro.obs.metrics import get_registry

    snapshot = get_registry().snapshot()

    def total(name: str) -> float:
        family = snapshot.get(name, {"samples": []})
        return float(sum(s.get("value", 0.0) for s in family["samples"]))

    return {
        "exchange_fraction": total("repro_shard_exchange_fraction"),
        "exec_tasks": total("repro_exec_tasks_total"),
        "exec_retries": total("repro_exec_task_retries_total"),
        "sharded_calls": total("repro_sharded_inference_calls_total"),
    }


def main() -> int:
    emit({"event": "ready", "import_s": _import_s, "model_load_s": _model_load_s})
    if "--setup-only" in sys.argv:
        return 0
    recorder = None
    for line in sys.stdin:
        job = json.loads(line)
        op = job["op"]
        if recorder is not None and "request" in job:
            recorder.request(job["request"])
        untraced = recorder.suspended if recorder else contextlib.nullcontext
        if op in ("score", "opi"):
            try:
                reply = (_score if op == "score" else _opi)(job, untraced)
            except Exception as exc:  # a failed operation, not a dead worker
                reply = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
        elif op == "trace_begin":
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
            reply = {}
        elif op == "trace_end":
            recorder.restore()
            recorder.dump(Path(job["out"]))
            recorder = None
            reply = {}
        elif op == "registry":
            reply = _registry()
        elif op == "exit":
            return 0
        else:
            reply = {"error": f"unknown op {op!r}"}
        emit(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
