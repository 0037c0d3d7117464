"""The ``serve_mixed`` workload: a ``repro serve`` subprocess under load.

One generator process (this one) drives the server through
``ServeClient`` with ``SENDERS`` threads, one connection each:

1. **open loop** — arrivals on a fixed schedule at ``RATE_RPS``; each
   call is timed from when it was due, so a stalled sender charges its
   wait to the calls behind it, and the generator's lateness (send time
   minus due time) is reported;
2. **saturation** — both senders always have a call due; calls and
   nodes completed per second give the capacity figures.

Traffic cycles through ``CYCLE``: single-design ``/v1/score`` calls on
50–2,000-gate designs, 8-design ``/v1/score:batch`` calls, and one
~20k-gate design per 26 arrivals.  Every returned label vector is
compared with in-process ``api.score`` on the same text.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import layers
from common import (
    BENCH_DIR,
    CHECKPOINT,
    WORK,
    child_env,
    design_rng,
    design_text,
    latency_summary,
    metric,
    stop_process,
    vm_hwm_mb,
)

#: offered rate of the open-loop phase: about a third of the seed code's
#: measured capacity (``SATURATION_RPS``) on a 2-core host, fixed here and
#: never derived from the run's own throughput
RATE_RPS = 3.0
#: the seed code's saturation throughput on that host; sizes the
#: saturation phase only
SATURATION_RPS = 9.0
#: sender threads = connections; at most the host's 2 cores
SENDERS = 2
#: share of ``--seconds`` spent in the open-loop phase; the rest
#: saturates.  Both phases run whole traffic cycles, so every run offers
#: the same mix
OPEN_SHARE = 0.7
#: server spawns measured per run; the median is ``setup_s``
SETUP_SAMPLES = 3
#: small designs: gate counts on a geometric grid from 50 to 2,000
SMALL_POOL = 20
BATCH_SIZE = 8
BIG_GATES = 20_000
BIG_POOL = 2
#: one traffic cycle of 26 arrivals: 1 big design, 20 single calls (the
#: small pool once) and 5 batch calls (the small pool twice)
CYCLE = ("big",) + (("small",) * 4 + ("batch",)) * 5
#: traffic cycles per traced-run phase (untraced, then traced server)
TRACE_CYCLES = 2
#: the server's default coalescing limit, passed explicitly because
#: ``serve.batch_fill`` divides by it
BATCH_MAX_REQUESTS = 16
SERVE_ARGS = ("--workers", "2", "--batch-max-requests", str(BATCH_MAX_REQUESTS))


def _inputs(seed: int) -> dict:
    """Generate every design and its in-process reference labels."""
    from repro import api

    weights = api.load_gcn(CHECKPOINT).layer_weights()
    small = [
        round(50 * (2000 / 50) ** (i / (SMALL_POOL - 1))) for i in range(SMALL_POOL)
    ]
    texts = {
        "small": [design_text(g, seed, 10 + i) for i, g in enumerate(small)],
        "big": [design_text(BIG_GATES, seed, 100 + i) for i in range(BIG_POOL)],
    }
    labels = {
        kind: [api.score(weights, api.load_netlist(t)).labels.tolist() for t in pool]
        for kind, pool in texts.items()
    }
    return {"texts": texts, "labels": labels}


def _start_server(traced_out=None):
    """Spawn ``repro serve`` on an ephemeral port; return (proc, client,
    spawn-to-healthy seconds)."""
    from repro.api import ServeClient

    if traced_out is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(traced_out)]
    cmd += ["--model", str(CHECKPOINT), "--port", "0", *SERVE_ARGS]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=WORK.parent
    )
    try:
        banner = proc.stdout.readline()
        if "listening on http://" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        host, port = banner.split("http://", 1)[1].split()[0].rsplit(":", 1)
        client = ServeClient.connect(host, int(port), wait_s=60.0, max_retries=0)
    except BaseException:
        stop_process(proc)
        raise
    return proc, client, time.perf_counter() - start


class _Load:
    """The arrival sequence and the calls' outcomes.

    Each traffic cycle scores every small design once as a single call
    and twice inside batches, in a seeded order, and one big design; so
    every run offers the same sizes and only the designs' structure and
    order change with the seed.
    """

    def __init__(self, inputs: dict, seed: int) -> None:
        self.inputs = inputs
        self.rng = design_rng(seed, 0)
        self.next = 0
        self.lock = threading.Lock()
        self.records: list[dict] = []
        self._plan: list[tuple[str, list[int]]] = []

    def _cycle(self, number: int) -> list[tuple[str, list[int]]]:
        """The arrivals of traffic cycle ``number``: (kind, designs)."""
        singles = iter(self.rng.permutation(SMALL_POOL).tolist())
        passes = CYCLE.count("batch") * BATCH_SIZE // SMALL_POOL
        members = iter(
            np.concatenate([self.rng.permutation(SMALL_POOL) for _ in range(passes)]).tolist()
        )
        plan = []
        for kind in CYCLE:
            if kind == "big":
                plan.append((kind, [number % BIG_POOL]))
            elif kind == "batch":
                plan.append((kind, [next(members) for _ in range(BATCH_SIZE)]))
            else:
                plan.append((kind, [next(singles)]))
        return plan

    def take(self, end: int) -> tuple[int, str, list[int]] | None:
        """Next arrival before index ``end``: (index, kind, design indices)."""
        with self.lock:
            i = self.next
            if i >= end:
                return None
            self.next += 1
            while len(self._plan) <= i:
                self._plan.extend(self._cycle(len(self._plan) // len(CYCLE)))
            kind, picks = self._plan[i]
        return i, kind, picks

    def send(self, client, phase: str, kind: str, picks: list[int], due: float) -> None:
        from repro.api import ServeClientError

        pool = "big" if kind == "big" else "small"
        texts = [self.inputs["texts"][pool][p] for p in picks]
        sent = time.perf_counter()
        record = {"phase": phase, "kind": kind, "due": due, "sent": sent, "nodes": 0}
        try:
            if kind == "batch":
                scores = client.score_many(texts, strict=False)
            else:
                scores = [client.score(texts[0], design=f"{kind}{picks[0]}")]
        except ServeClientError as exc:
            scores = [exc] * len(texts)
        record["done"] = time.perf_counter()
        refused = failed = mismatched = 0
        for score, p in zip(scores, picks):
            if isinstance(score, ServeClientError):
                refused += score.status in (429, 504)
                failed += score.status not in (429, 504)
                continue
            record["nodes"] += score.num_nodes
            if score.labels.tolist() != self.inputs["labels"][pool][p]:
                mismatched += 1
            if kind != "batch":
                record["front_s"] = record["done"] - sent - score.latency_ms / 1000.0
        record.update(refused=refused, failed=failed, mismatched=mismatched)
        with self.lock:
            self.records.append(record)

    def open_loop(self, client, phase: str, t0: float, first: int, end: int) -> None:
        """One sender of the open-loop phase: arrival ``i`` is due at
        ``t0 + (i - first) / RATE_RPS``."""
        while (arrival := self.take(end)) is not None:
            i, kind, picks = arrival
            due = t0 + (i - first) / RATE_RPS
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            self.send(client, phase, kind, picks, due)

    def saturate(self, client, end: int) -> None:
        """One sender of the saturation phase: always a call due."""
        while (arrival := self.take(end)) is not None:
            _, kind, picks = arrival
            self.send(client, "saturation", kind, picks, time.perf_counter())


def _run_senders(target, *args) -> None:
    threads = [threading.Thread(target=target, args=args) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _scrape(client) -> dict:
    from repro.obs.promtext import parse_prometheus

    values: dict = {}
    for family in parse_prometheus(client.metrics()).values():
        for name, labels, value in family["samples"]:
            key = name + "".join(f"|{k}={v}" for k, v in labels)
            values[key] = values.get(key, 0.0) + value
    return values


def _server_layers(before: dict, after: dict, records: list[dict]) -> dict:
    """Serve-layer figures from ``/metrics`` deltas and response envelopes."""

    def d(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    def mean(family: str) -> float:
        count = d(family + "_count")
        return d(family + "_sum") / count if count else 0.0

    events = {
        e: d(f"repro_serve_requests_total|event={e}")
        for e in ("accepted", "failed", "rejected_overload", "rejected_admission", "expired")
    }
    refused = events["rejected_overload"] + events["rejected_admission"]
    offered = events["accepted"] + refused
    bad = events["failed"] + events["expired"] + refused
    fronts = [r["front_s"] for r in records if "front_s" in r and r["kind"] == "small"]
    batch_mean = mean("repro_serve_batch_size")
    return {
        "serve.front_s": statistics.median(fronts) if fronts else 0.0,
        "serve.queue_wait_s": mean("repro_serve_batch_linger_seconds"),
        "serve.batch_size_mean": batch_mean,
        "serve.batch_fill": batch_mean / BATCH_MAX_REQUESTS,
        "serve.inference_s": mean("repro_inference_seconds"),
        "serve.failure_share": bad / offered if offered else 0.0,
        "batch_fallbacks": d("repro_serve_batch_fallbacks_total"),
    }


def _open_phase(load: _Load, client, phase: str, cycles: int) -> tuple[dict, dict]:
    """``cycles`` whole traffic cycles at ``RATE_RPS``; /metrics before
    and after."""
    before = _scrape(client)
    first = load.next
    t0 = time.perf_counter() + 0.05
    _run_senders(load.open_loop, client, phase, t0, first, first + cycles * len(CYCLE))
    after = _scrape(client)
    return before, after


def _cycles(seconds: float, rate: float) -> int:
    """Whole traffic cycles that take about ``seconds`` at ``rate``."""
    return max(1, round(seconds * rate / len(CYCLE)))


def _warm_up(load: _Load, client) -> None:
    """One call of each kind, so lazy set-up is not timed."""
    texts = load.inputs["texts"]
    client.score(texts["small"][0])
    client.score_many(texts["small"][:BATCH_SIZE])
    client.score(texts["big"][0])


def _saturate(load: _Load, client, cycles: int) -> float:
    """``cycles`` whole traffic cycles with a call always due; wall seconds."""
    start = time.perf_counter()
    _run_senders(load.saturate, client, load.next + cycles * len(CYCLE))
    return time.perf_counter() - start


def serve_mixed(seed: int, seconds: float, trace: bool) -> dict:
    inputs = _inputs(seed)
    setup_times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, _, ready_s = _start_server()
        stop_process(proc)
        setup_times.append(ready_s)
    load = _Load(inputs, seed)
    proc, client, ready_s = _start_server()
    setup_times.append(ready_s)
    try:
        _warm_up(load, client)
        if trace:
            _open_phase(load, client, "open", TRACE_CYCLES)
        else:
            open_cycles = _cycles(seconds * OPEN_SHARE, RATE_RPS)
            before, after = _open_phase(load, client, "open", open_cycles)
            sat_cycles = _cycles(seconds * (1 - OPEN_SHARE), SATURATION_RPS)
            sat_s = _saturate(load, client, sat_cycles)
        peak = vm_hwm_mb(proc.pid)
    finally:
        stop_process(proc)

    per_layer = _traced_phase(load, setup_times) if trace else None
    result = _summarise(load.records, setup_times, peak)
    result["per_layer"] = per_layer
    if not trace:
        sat = [r for r in load.records if r["phase"] == "saturation"]
        result["details"]["serve_capacity_rps"] = len(sat) / sat_s
        result["metrics"]["nodes_per_s"] = metric(
            sum(r["nodes"] for r in sat) / sat_s, "nodes/s"
        )
        opened = [r for r in load.records if r["phase"] == "open"]
        result["details"].update(_server_layers(before, after, opened))
    return result


def _traced_phase(load: _Load, setup_times: list[float]) -> dict:
    """Replay the open-loop arrivals against a traced server; per-layer
    figures of that phase.  Spans opened before it (the warm-up calls) are
    dropped: ``perf_counter`` is the system-wide monotonic clock, so the
    server's stamps compare with ours."""
    from tracer import layer_totals

    spans_out = WORK / "spans_serve.json"
    load.next = 0
    proc, client, _ = _start_server(traced_out=spans_out)
    try:
        _warm_up(load, client)
        window = time.perf_counter()
        before, after = _open_phase(load, client, "traced", TRACE_CYCLES)
    finally:
        stop_process(proc)
    doc = json.loads(spans_out.read_text())
    values = layers.from_spans(
        layer_totals(doc["spans"], since=window), doc["impacts"], doc["min_impact"]
    )
    traced = [r for r in load.records if r["phase"] == "traced"]
    values.update(_server_layers(before, after, traced))
    values["serve.ready_s"] = statistics.median(setup_times)
    untraced = [r for r in load.records if r["phase"] == "open"]
    values["trace.overhead_frac"] = _small_p50(traced) / _small_p50(untraced) - 1.0
    return values


def _ok(record: dict) -> bool:
    return not (record["failed"] or record["refused"] or record["mismatched"])


def _latency(record: dict) -> float:
    """Seconds from when the call was due until its answer arrived."""
    return record["done"] - record["due"]


def _latencies(records: list[dict], kind: str) -> list[float]:
    return [_latency(r) for r in records if r["kind"] == kind and _ok(r)]


def _small_p50(records: list[dict]) -> float:
    """Median latency of the single-design calls among ``records``."""
    small = _latencies(records, "small")
    return statistics.median(small) if small else 0.0


def _summarise(records: list[dict], setup_times: list[float], peak: float) -> dict:
    opened = [r for r in records if r["phase"] == "open"]

    def latencies(kind: str) -> list[float]:
        return _latencies(opened, kind)

    small = latency_summary(latencies("small"))
    lateness = [r["sent"] - r["due"] for r in opened]
    bad = [r for r in records if not _ok(r)]
    details = {
        "rate_rps": RATE_RPS,
        "serve_p50_s": small.get("p50"),
        "serve_tail_s": small.get(f"p{small.get('tail_q', 0):g}"),
        "serve_tail_q": small.get("tail_q"),
        "serve_small": small,
        "serve_batch": latency_summary(latencies("batch")),
        "serve_big": latency_summary(latencies("big")),
        "serve_batch_p50_s": statistics.median(latencies("batch") or [0.0]),
        "serve_big_p50_s": statistics.median(latencies("big") or [0.0]),
        "lateness_s": {"p50": statistics.median(lateness), "max": max(lateness)},
        "setup_samples_s": setup_times,
        "calls": {k: sum(1 for r in records if r["kind"] == k) for k in ("small", "batch", "big")},
    }
    return {
        "attempted": len(records),
        "failed": len(bad),
        "refused": sum(r["refused"] for r in records),
        "problems": [
            f"{r['kind']} call in {r['phase']}: {r['failed']} failed, "
            f"{r['refused']} refused, {r['mismatched']} label mismatches"
            for r in bad
        ],
        "metrics": {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            # The ~20k-gate calls: small calls' latency is mostly process
            # hand-offs and follows the host's scheduling noise (its spread
            # across runs exceeds any allowed bound), while a big call's is
            # compute, front end first.  Small-call percentiles are details.
            "latency_s": metric(details["serve_big_p50_s"], "s"),
        },
        "details": details,
    }
