"""Per-layer metrics of the traced run, and the layer map.

Each per-layer metric names the end-to-end metric and workload it should
move (``MOVES``); names after ``@`` that are not end-to-end metrics are
figures of the detail line.  ``*_s`` is self time summed over the traced
run's fixed work, except where ``FROM_SPANS`` asks for the span's total;
``*_calls`` is a count.  A traced run of any workload reports every
metric: a layer that workload never enters reads 0.
"""

from __future__ import annotations

SL, SM, OPI = "@score_large", "@serve_mixed", "@opi"
FRONT = ["nodes_per_s" + SL, "latency_s" + SL, "latency_s" + SM, "serve_p50_s" + SM]
LOOP = ["latency_s" + OPI, "nodes_per_s" + OPI]
SHARDED = ["score_200k_s" + SL]

#: name → (unit, [end-to-end metric @ workload it should move])
MOVES = {
    "circuit.parse_bench_s": ("s", FRONT),
    "circuit.validate_s": ("s", FRONT),
    "circuit.adjacency_s": ("s", FRONT),
    "circuit.levelize_s": ("s", ["latency_s" + SL, "latency_s" + OPI]),
    "circuit.levelize_calls": ("count", ["latency_s" + SL, "latency_s" + OPI]),
    "testability.scoap_s": ("s", ["latency_s" + SL, "latency_s" + SM, "serve_p50_s" + SM]),
    "testability.refresh_observability_s": ("s", LOOP),
    "testability.refresh_observability_calls": ("count", LOOP),
    "core.attributes_s": ("s", ["latency_s" + SL]),
    "core.csr_s": ("s", LOOP + ["latency_s" + SL]),
    "core.csr_calls": ("count", LOOP + ["latency_s" + SL]),
    "core.csr_per_logits": ("ratio", LOOP + ["latency_s" + SL]),
    "core.embed_s": ("s", LOOP + ["latency_s" + SL, "serve_batch_p50_s" + SM]),
    "core.head_s": ("s", LOOP + ["latency_s" + SL, "serve_batch_p50_s" + SM]),
    "graph.partition_s": ("s", SHARDED),
    "graph.sharded_logits_s": ("s", SHARDED),
    "graph.exchange_fraction": ("ratio", SHARDED),
    "exec.task_attempts": ("count", SHARDED),
    "exec.task_retries": ("count", SHARDED),
    "flow.predict_s": ("s", LOOP),
    "flow.predict_calls": ("count", LOOP),
    "flow.insert_op_s": ("s", LOOP),
    "flow.rollback_s": ("s", LOOP),
    "atpg.cone_invalidate_s": ("s", LOOP),
    "flow.impact_hit_ratio": ("ratio", LOOP),
    "serve.front_s": ("s", ["serve_p50_s" + SM, "latency_s" + SM]),
    "serve.queue_wait_s": ("s", ["serve_tail_s" + SM]),
    "serve.batch_size_mean": ("count", ["nodes_per_s" + SM]),
    "serve.batch_fill": ("ratio", ["nodes_per_s" + SM]),
    "serve.inference_s": ("s", ["serve_batch_p50_s" + SM]),
    "serve.failure_share": ("ratio", ["nodes_per_s" + SM]),
    "setup.import_s": ("s", ["setup_s" + SL, "setup_s" + OPI]),
    "setup.model_load_s": ("s", ["setup_s" + SL, "setup_s" + OPI]),
    "serve.ready_s": ("s", ["setup_s" + SM]),
    "trace.overhead_frac": ("ratio", []),
}

#: span-derived metrics: name → (span layer, "self" | "total" | "calls")
FROM_SPANS = {
    "circuit.parse_bench_s": ("circuit.parse_bench", "self"),
    "circuit.validate_s": ("circuit.validate", "self"),
    "circuit.adjacency_s": ("circuit.adjacency", "self"),
    "circuit.levelize_s": ("circuit.levelize", "self"),
    "circuit.levelize_calls": ("circuit.levelize", "calls"),
    "testability.scoap_s": ("testability.scoap", "self"),
    "testability.refresh_observability_s": (
        "testability.refresh_observability",
        "self",
    ),
    "testability.refresh_observability_calls": (
        "testability.refresh_observability",
        "calls",
    ),
    "core.attributes_s": ("core.attributes", "self"),
    "core.csr_s": ("core.csr", "self"),
    "core.csr_calls": ("core.csr", "calls"),
    "core.embed_s": ("core.embed", "self"),
    # logits minus embed: the FC layers and the 128→2 head
    "core.head_s": ("core.logits", "self"),
    "graph.partition_s": ("graph.partition", "self"),
    "graph.sharded_logits_s": ("graph.sharded_logits", "self"),
    # a predictor pass is the whole inference call, so count its children
    "flow.predict_s": ("flow.predict", "total"),
    "flow.predict_calls": ("flow.predict", "calls"),
    "flow.insert_op_s": ("flow.insert_op", "self"),
    "flow.rollback_s": ("flow.rollback", "self"),
    "atpg.cone_invalidate_s": ("atpg.cone_invalidate", "self"),
}


def from_spans(totals: dict, impacts: list[int], min_impact: int) -> dict:
    """Span-derived per-layer values (0 for layers that never ran)."""
    key = {"self": "self_s", "total": "total_s", "calls": "calls"}
    out = {}
    for name, (layer, kind) in FROM_SPANS.items():
        out[name] = float(totals.get(layer, {}).get(key[kind], 0.0))
    logits = totals.get("core.logits", {}).get("calls", 0)
    out["core.csr_per_logits"] = out["core.csr_calls"] / logits if logits else 0.0
    out["flow.impact_hit_ratio"] = (
        sum(1 for i in impacts if i >= min_impact) / len(impacts) if impacts else 0.0
    )
    return out


def complete(values: dict) -> dict:
    """Every per-layer metric as ``{"value", "unit"}``, 0 where absent."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in MOVES.items()
    }


def layer_map() -> dict:
    return {name: moves for name, (_, moves) in MOVES.items()}
