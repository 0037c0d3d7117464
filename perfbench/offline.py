"""The ``score_large`` and ``opi`` workloads: one caller, closed loop.

Both drive a fresh ``worker.py`` process, so ``peak_rss_mb`` is the peak
resident set of the process doing the scoring and not of the input
generator.
"""

from __future__ import annotations

import json
import statistics
import time

import layers
from common import (
    WORK,
    latency_summary,
    metric,
    spawn_worker,
    stop_process,
    vm_hwm_mb,
    worker_call,
    write_design,
)
from tracer import layer_totals

#: fresh-process set-ups measured per run; the median is ``setup_s``
SETUP_SAMPLES = 3

#: score_large design sizes in gates: ~107k nodes (single-engine route)
#: and ~215k nodes, past SHARDED_AUTO_MIN_NODES (the sharded route)
SCORE_SIZES = {"100k": 100_000, "200k": 200_000}
#: wall seconds of one round (each size once) on the seed code on a
#: 2-core host; sizes the run, never measured from it
ROUND_S = 20.0

#: opi: one generated design, and the flow's iteration cap; ~330
#: whole-graph inference passes per flow on the seed code
OPI_GATES = 1_500
OPI_ITERATIONS = 2


def _setup(samples: int) -> tuple[list[float], list[dict]]:
    """``samples`` fresh set-ups: spawn → ``import repro.api`` + checkpoint."""
    times, ready = [], []
    for _ in range(samples):
        proc, message = spawn_worker(["--setup-only"])
        proc.wait(timeout=60)
        times.append(message["ready_s"])
        ready.append(message)
    return times, ready


def _setup_layers(ready: list[dict]) -> dict:
    return {
        "setup.import_s": statistics.median(m["import_s"] for m in ready),
        "setup.model_load_s": statistics.median(m["model_load_s"] for m in ready),
    }


def _call(proc, job: dict) -> dict:
    reply = worker_call(proc, job)
    if "error" in reply:
        raise RuntimeError(reply["error"])
    return reply


def _traced(proc, jobs: list[dict], name: str) -> tuple[list[dict], dict, dict]:
    """Run ``jobs`` under the span recorder; return replies, per-layer
    totals and the raw trace document."""
    out = WORK / f"spans_{name}.json"
    _call(proc, {"op": "trace_begin"})
    replies = [_call(proc, {**job, "request": f"{name}#{i}"}) for i, job in enumerate(jobs)]
    _call(proc, {"op": "trace_end", "out": str(out)})
    trace = json.loads(out.read_text())
    return replies, layer_totals(trace["spans"]), trace


def score_large(seed: int, seconds: float, trace: bool) -> dict:
    paths = {
        size: write_design(gates, seed, role)
        for role, (size, gates) in enumerate(SCORE_SIZES.items(), start=1)
    }
    setup_times, ready = _setup(SETUP_SAMPLES)
    proc, _ = spawn_worker([])
    ops: list[tuple[str, dict]] = []
    try:
        if not trace:
            # A fixed number of whole rounds, so every run scores the same
            # size mix whatever the speed of the code or the host.
            for _ in range(max(1, round(seconds / ROUND_S))):
                for size, path in paths.items():
                    ops.append((size, _call(proc, {"op": "score", "path": str(path)})))
            per_layer = None
        else:
            untraced = _call(proc, {"op": "score", "path": str(paths["100k"])})
            jobs = [{"op": "score", "path": str(paths[s])} for s in ("100k", "200k")]
            replies, totals, doc = _traced(proc, jobs, "score_large")
            registry = _call(proc, {"op": "registry"})
            ops = [("100k", untraced), ("100k", replies[0]), ("200k", replies[1])]
            per_layer = layers.from_spans(totals, doc["impacts"], doc["min_impact"])
            per_layer.update(
                {
                    "graph.exchange_fraction": registry["exchange_fraction"],
                    # every submitted task runs once, plus once per retry
                    "exec.task_attempts": registry["exec_tasks"] + registry["exec_retries"],
                    "exec.task_retries": registry["exec_retries"],
                    "trace.overhead_frac": _overhead(replies[0], untraced),
                }
            )
            per_layer.update(_setup_layers(ready))
        peak = vm_hwm_mb(proc.pid)
        _call_exit(proc)
    finally:
        stop_process(proc)

    done = [(s, r) for s, r in ops if "wall_s" in r]
    walls = {size: [r["wall_s"] for s, r in done if s == size] for size in SCORE_SIZES}
    problems = [p for _, r in ops for p in r["problems"]]
    failed = sum(1 for _, r in ops if not r["ok"])
    nodes = sum(r["nodes"] for _, r in done)
    wall = sum(r["wall_s"] for _, r in done)
    details = {
        "score_nodes_per_s": _ratio(nodes, wall),
        "score_100k_s": _median(walls["100k"]),
        "score_200k_s": _median(walls["200k"]),
        "designs": {
            size: {
                key: [r[key] for s, r in done if s == size]
                for key in ("nodes", "backend", "positives", "wall_s")
            }
            for size in SCORE_SIZES
        },
        "max_logit_diff": max((r["max_logit_diff"] for _, r in done), default=None),
        "label_ties": sum(r["ties"] for _, r in done),
        "setup_samples_s": setup_times,
    }
    return {
        "attempted": len(ops),
        "failed": failed,
        "refused": 0,
        "problems": problems,
        "metrics": {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            "nodes_per_s": metric(details["score_nodes_per_s"], "nodes/s"),
            "latency_s": metric(details["score_100k_s"], "s"),
        },
        "per_layer": per_layer,
        "details": details,
    }


def opi(seed: int, seconds: float, trace: bool) -> dict:
    path = write_design(OPI_GATES, seed, 3)
    job = {"op": "opi", "path": str(path), "max_iterations": OPI_ITERATIONS}
    setup_times, ready = _setup(SETUP_SAMPLES)
    proc, _ = spawn_worker([])
    try:
        if not trace:
            runs = []
            start = time.perf_counter()
            # At least two flows: their inserted-target lists must agree.
            while len(runs) < 2 or time.perf_counter() - start < seconds:
                runs.append(_call(proc, job))
            per_layer = None
        else:
            untraced = _call(proc, job)
            replies, totals, doc = _traced(proc, [job], "opi")
            runs = [untraced, *replies]
            per_layer = layers.from_spans(totals, doc["impacts"], doc["min_impact"])
            per_layer["trace.overhead_frac"] = _overhead(replies[0], untraced)
            per_layer.update(_setup_layers(ready))
        peak = vm_hwm_mb(proc.pid)
        _call_exit(proc)
    finally:
        stop_process(proc)

    problems = [p for r in runs for p in r["problems"]]
    failed = sum(1 for r in runs if not r["ok"])
    done = [r for r in runs if "wall_s" in r]
    targets = [r["inserted"] for r in done]
    if any(t != targets[0] for t in targets):
        problems.append(f"inserted-target lists differ across {len(targets)} flows")
        failed += 1
    walls = [r["wall_s"] for r in done]
    steps = [s for r in done for s in r["step_s"]]
    details = {
        "opi_s": _median(walls),
        "opi_step_s": latency_summary(steps),
        "flows_s": walls,
        "opi_nodes_per_s": _ratio(sum(r["pass_nodes"] for r in done), sum(walls)),
        **{
            key: done[0][key] if done else None
            for key in ("nodes", "passes", "iterations", "positives_history")
        },
        "n_ops": len(targets[0]) if targets else None,
        "setup_samples_s": setup_times,
    }
    return {
        "attempted": len(runs),
        "failed": failed,
        "refused": 0,
        "problems": problems,
        "metrics": {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            "nodes_per_s": metric(details["opi_nodes_per_s"], "nodes/s"),
            "latency_s": metric(_median(steps), "s"),
        },
        "per_layer": per_layer,
        "details": details,
    }


def _median(values: list[float]) -> float:
    """Median, or 0 when every operation failed (the run is then marked
    incorrect)."""
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(traced: dict, untraced: dict) -> float:
    """Tracing overhead: traced over untraced wall of the same job, minus 1."""
    if "wall_s" not in traced or "wall_s" not in untraced:
        return 0.0
    return traced["wall_s"] / untraced["wall_s"] - 1.0


def _call_exit(proc) -> None:
    proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
    proc.stdin.flush()
    proc.wait(timeout=60)
