"""Observability-plane overhead: the inference sweep with the plane off/on.

Runs the same sharded-inference workload twice — once bare, once with the
plane engaged (an active trace root recording every per-shard span, and
the ``light`` profiler mode, which attaches around executor submits only
and so stays idle while shards run in process) — and writes
``results/BENCH_obs_overhead.json`` with both timings, the relative
overhead, and a bit-identity check.

The acceptance budget is ≤3% end-to-end overhead; ``repro obs-report``
surfaces the measured number, and the trend ledger
(``results/TREND_obs_overhead.jsonl``) gates it like any other timing.

Run directly (``make bench-obs``).  Environment knobs: ``REPRO_SCALE``
scales the design, ``REPRO_RESULTS`` redirects output,
``REPRO_BENCH_REPEATS`` (default 3) sets best-of-N timing.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.data.benchmarks import benchmark_scale, generate_design
from repro.experiments.common import write_result
from repro.graph import ShardedInference
from repro.obs.profile import flush_profiles

# `repro.obs` re-exports the trace() *function* under the name `trace`,
# shadowing the submodule; resolve the module by its canonical name.
trace = importlib.import_module("repro.obs.trace")

_BASE_GATES = 20_000
_SEED = 13
#: the acceptance budget for the full plane (3%)
OVERHEAD_BUDGET = 0.03


def _best_of(fn, repeats: int):
    elapsed = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed), result


def _run_sweep(weights, graph, execution, repeats: int, observed: bool):
    """Best-of-N sweep time; ``observed`` engages the whole plane."""
    engine = ShardedInference(weights, execution)
    engine.logits(graph)  # warm the partition plan

    def once():
        if observed:
            # An active root records every per-shard span.
            with trace.trace("bench.obs_overhead", register_last=False):
                return engine.logits(graph)
        return engine.logits(graph)

    return _best_of(once, repeats)


def main() -> dict:
    scale = benchmark_scale()
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    n_gates = max(500, int(_BASE_GATES * scale))
    n_shards = max(2, min(8, os.cpu_count() or 2))

    model = GCN(GCNConfig(seed=3))
    rng = np.random.default_rng(5)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    weights = model.layer_weights()

    netlist = generate_design(n_gates, seed=_SEED)
    graph = GraphData.from_netlist(netlist)
    graph.pred.to_scipy()
    graph.succ.to_scipy()

    bare = ExecutionConfig(shards=n_shards, profile="off")
    plane = ExecutionConfig(shards=n_shards, profile="light")

    t_bare, reference = _run_sweep(weights, graph, bare, repeats, observed=False)
    t_plane, observed = _run_sweep(weights, graph, plane, repeats, observed=True)
    flush_profiles()  # park the profiler sessions under results/profiles

    overhead = t_plane / t_bare - 1.0
    payload = {
        "scale": scale,
        "repeats": repeats,
        "gates": graph.num_nodes,
        "shards": n_shards,
        "cpu_count": os.cpu_count(),
        "bare_seconds": t_bare,
        "plane_seconds": t_plane,
        "overhead_fraction": round(overhead, 6),
        "overhead_budget": OVERHEAD_BUDGET,
        "within_budget": overhead <= OVERHEAD_BUDGET,
        "bit_identical": bool(np.array_equal(reference, observed)),
    }
    path = write_result("BENCH_obs_overhead", payload)
    print(
        f"gates={graph.num_nodes} bare={t_bare:.3f}s plane={t_plane:.3f}s "
        f"overhead={overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%}) "
        f"identical={payload['bit_identical']}"
    )
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
