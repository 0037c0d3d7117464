"""The executor abstraction: submit shard tasks, get a deterministic reduction.

One fabric under every fork-pool engine (:class:`~repro.core.trainer.
ParallelTrainer`, :class:`~repro.atpg.ppsfp.PpsfpEngine`).  The contract:

* ``Executor.submit(tasks, policy) -> list`` returns results **in task
  order** regardless of completion order — the reduction is deterministic
  by construction, so parallel and in-process runs are comparable
  elementwise.
* The ``forkpool`` backend supervises its workers: per-task deadlines,
  heartbeat files (one per worker pid, touched at task start/end) that
  let the parent distinguish wedged from slow, SIGKILL of wedged workers
  at pool rebuild, a retry/backoff ladder over *rounds* (each failed
  round rebuilds the pool), per-task poison quarantine, CRC32 integrity
  checking of every result payload, and rescue through each task's
  bit-identical in-process fallback once the budget is spent.
* The ``inprocess`` backend runs the fallbacks serially — it is the
  oracle every recovery path must be bit-identical to, which is why the
  chaos layer (:mod:`repro.exec.chaos`) never injects there.
* The ``socket`` backend (:mod:`repro.exec.coordinator`) dispatches the
  same tasks to ``repro exec-worker`` processes over TCP, with the whole
  ladder ported to network semantics, and degrades to ``forkpool`` and
  then ``inprocess`` when no workers register — three rungs, one
  contract, identical numbers.

Every recovery event is counted in :mod:`repro.obs` (labelled by engine)
and wrapped in trace spans, so previously-invisible restarts/retries/
fallbacks show up in ``repro serve``'s ``GET /metrics``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import time
import warnings
import zlib
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.exec import chaos as chaos_mod
from repro.exec import shm as shm_mod
from repro.exec.policy import ExecPolicy, ShardTask, resolve_exec_backend
from repro.obs import logs
from repro.obs import remote as remote_mod
from repro.obs.metrics import get_registry
from repro.obs.profile import profile_block
from repro.obs.trace import annotate, span
from repro.resilience.errors import ResultIntegrityError

__all__ = [
    "Executor",
    "InProcessExecutor",
    "ForkPoolExecutor",
    "make_executor",
    "ensure_exec_metrics",
]

_log = logs.get_logger("exec")


def ensure_exec_metrics():
    """Register (get-or-create) the fabric's metric families.

    Called lazily on every submit and eagerly by ``repro serve`` so the
    families are scrapeable before the first recovery event.
    """
    reg = get_registry()
    return {
        "tasks": reg.counter(
            "repro_exec_tasks_total",
            "shard tasks submitted to the execution fabric",
            labelnames=("engine", "backend"),
        ),
        "retries": reg.counter(
            "repro_exec_task_retries_total",
            "task attempts that failed and were retried or rescued",
            labelnames=("engine",),
        ),
        "restarts": reg.counter(
            "repro_exec_worker_restarts_total",
            "worker-pool rebuilds after a failed round",
            labelnames=("engine",),
        ),
        "fallbacks": reg.counter(
            "repro_exec_fallbacks_total",
            "tasks rescued through the bit-identical in-process fallback",
            labelnames=("engine",),
        ),
        "quarantined": reg.counter(
            "repro_exec_tasks_quarantined_total",
            "poison tasks pulled out of the retry rotation",
            labelnames=("engine",),
        ),
        "integrity": reg.counter(
            "repro_exec_integrity_failures_total",
            "worker results rejected by the CRC32 integrity check",
            labelnames=("engine",),
        ),
        "submit_seconds": reg.histogram(
            "repro_exec_submit_seconds",
            "wall time of one Executor.submit call",
            labelnames=("engine",),
        ),
    }


# --------------------------------------------------------------------- #
# Worker-process side
# --------------------------------------------------------------------- #
def _heartbeat(hb_dir: str | None) -> None:
    """Touch this worker's heartbeat file (pid-named, parent-readable)."""
    if not hb_dir:
        return
    try:
        Path(hb_dir, str(os.getpid())).touch()
    except OSError:  # pragma: no cover - hb dir raced away; never fatal
        pass


#: this fork-worker's metric delta tracker, created (and baselined, so
#: fork-inherited parent values are never re-reported) at the first
#: *observed* task — un-observed submits never pay for it
_worker_delta_tracker: "remote_mod.MetricsDeltaTracker | None" = None


def _worker_tracker() -> "remote_mod.MetricsDeltaTracker":
    global _worker_delta_tracker
    if _worker_delta_tracker is None:
        _worker_delta_tracker = remote_mod.MetricsDeltaTracker()
    return _worker_delta_tracker


def _exec_worker_run(fn, args, key, attempt, chaos_spec, hb_dir, verify,
                     obs_ctx=None):
    """The one entry point every forked task runs through.

    Order matters: heartbeat first (so a pre-chaos kill still leaves a
    liveness trace), chaos before the task (a crash lands where a real
    one would), checksum before corruption (so an injected — or real —
    corrupted return is *detectable*, not silently wrong).  When the
    submitting side is observed (``obs_ctx``), the result travels inside
    an observability envelope carrying this task's span subtree and the
    worker's metric delta; otherwise the payload is byte-identical to
    the legacy path.
    """
    _heartbeat(hb_dir)
    try:
        if obs_ctx is None:
            if chaos_spec is not None:
                chaos_mod.inject_before(chaos_spec, key, attempt)
            result = fn(*args)
        else:
            worker = f"fork-{os.getpid()}"
            tracker = _worker_tracker()
            capture = remote_mod.WorkerSpanCapture(
                obs_ctx, "exec.task",
                task=str(key), attempt=attempt, worker=worker,
            )
            if chaos_spec is not None:
                chaos_mod.inject_before(chaos_spec, key, attempt)
            with capture:
                result = fn(*args)
            result = remote_mod.pack_obs_envelope(
                result, capture.span_dict, tracker.delta(), worker=worker
            )
        if not verify:
            return result
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(payload)
        if chaos_spec is not None:
            payload = chaos_mod.corrupt_payload(chaos_spec, key, attempt, payload)
        return (crc, payload)
    finally:
        _heartbeat(hb_dir)


# --------------------------------------------------------------------- #
class Executor:
    """Abstract executor: shard tasks in, deterministic reduction out."""

    kind = "abstract"

    def __init__(
        self,
        name: str = "exec",
        policy: ExecPolicy | None = None,
        profile: str | None = "auto",
    ):
        #: metric label and log field identifying the owning engine
        self.name = name
        self.policy = policy or ExecPolicy()
        #: sampling-profiler mode around submits ("auto" resolves
        #: REPRO_PROFILE at each submit, so it stays env-switchable)
        self.profile = profile if profile is not None else "auto"

    def _profile_submit(self):
        """The profiler scope one submit runs under (no-op when off)."""
        return profile_block(f"exec.{self.name}", self.profile)

    def submit(
        self,
        tasks: Sequence[ShardTask],
        policy: ExecPolicy | None = None,
        sleep=None,
    ) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/segments (idempotent; submit may be called again)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessExecutor(Executor):
    """Serial oracle backend: runs each task's fallback in task order.

    No pool, no chaos, no retries — failures propagate immediately.  This
    is the bit-identical reference every forkpool recovery path is
    measured against.
    """

    kind = "inprocess"

    def submit(self, tasks, policy=None, sleep=None):
        tasks = list(tasks)
        metrics = ensure_exec_metrics()
        metrics["tasks"].labels(self.name, self.kind).inc(len(tasks))
        start = time.perf_counter()
        with self._profile_submit(), \
                span("exec.submit", engine=self.name, backend=self.kind,
                     tasks=len(tasks)):
            results = [task.run_fallback() for task in tasks]
        metrics["submit_seconds"].labels(self.name).observe(
            time.perf_counter() - start
        )
        return results


class ForkPoolExecutor(Executor):
    """Supervised fork-pool backend (see module docstring for semantics).

    The pool is built lazily (and after every failed round), optionally
    with a fork ``initializer`` so engines can stage heavyweight
    per-process state once.  ``close()`` abandons the pool but keeps the
    executor reusable — the next ``submit`` rebuilds.
    """

    kind = "forkpool"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        name: str = "exec",
        initializer=None,
        initargs: tuple = (),
        policy: ExecPolicy | None = None,
        sleep=time.sleep,
        profile: str | None = "auto",
    ) -> None:
        super().__init__(name=name, policy=policy, profile=profile)
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._initializer = initializer
        self._initargs = initargs
        self._sleep = sleep
        self._pool: ProcessPoolExecutor | None = None
        self._hb_dir: str | None = None
        #: failed task attempts in the most recent submit (engine counters)
        self.last_submit_failures = 0

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Reclaim segments a kill -9'd predecessor left in /dev/shm
            # before allocating our own.
            shm_mod.sweep_orphans()
            if self._hb_dir is None:
                self._hb_dir = tempfile.mkdtemp(prefix="repro-exec-hb-")
            ctx = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=ctx,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    def _abandon_pool(self, kill_wedged: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pids = list(getattr(pool, "_processes", None) or ())
        pool.shutdown(wait=False, cancel_futures=True)
        if kill_wedged:
            # A timed-out worker is still wedged on its task; shutdown
            # alone leaves it running (and holding memory) indefinitely.
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        # The abandoned pool's workers are discarded either way, so their
        # heartbeat files are stale by definition: prune them now or
        # ``heartbeat_ages()`` keeps reporting replaced pids forever.
        if self._hb_dir:
            for pid in pids:
                Path(self._hb_dir, str(pid)).unlink(missing_ok=True)

    def close(self) -> None:
        self._abandon_pool()
        hb_dir, self._hb_dir = self._hb_dir, None
        if hb_dir:
            shutil.rmtree(hb_dir, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def heartbeat_ages(self) -> dict[int, float]:
        """Seconds since each known worker last touched its heartbeat.

        Only live pids appear: files of exited workers (e.g. killed by a
        chaos run but never replaced through a pool rebuild) are pruned
        on sight, so a rebuilt pool never reports its predecessors.
        """
        if not self._hb_dir:
            return {}
        now = time.time()
        ages: dict[int, float] = {}
        for path in Path(self._hb_dir).glob("*"):
            try:
                pid = int(path.name)
                if not shm_mod.pid_alive(pid):
                    path.unlink(missing_ok=True)
                    continue
                ages[pid] = now - path.stat().st_mtime
            except (ValueError, OSError):
                continue
        return ages

    # ------------------------------------------------------------------ #
    def submit(self, tasks, policy=None, sleep=None):
        policy = policy or self.policy
        sleep = sleep or self._sleep
        tasks = list(tasks)
        metrics = ensure_exec_metrics()
        metrics["tasks"].labels(self.name, self.kind).inc(len(tasks))
        start = time.perf_counter()
        self.last_submit_failures = 0
        chaos_spec = chaos_mod.ChaosSpec.from_env()
        with self._profile_submit(), \
                span("exec.submit", engine=self.name, backend=self.kind,
                     tasks=len(tasks),
                     chaos=chaos_spec.mode if chaos_spec else ""):
            # Captured inside the submit span so worker subtrees land
            # under it when grafted back at decode time.
            obs_ctx = remote_mod.capture_obs_context()
            results = self._submit_supervised(
                tasks, policy, sleep, chaos_spec, metrics, obs_ctx
            )
        metrics["submit_seconds"].labels(self.name).observe(
            time.perf_counter() - start
        )
        return results

    def _submit_supervised(self, tasks, policy, sleep, chaos_spec, metrics,
                           obs_ctx=None):
        n = len(tasks)
        results: list = [None] * n
        attempts = [0] * n
        failcount = [0] * n
        pending = list(range(n))
        rescued: list[int] = []
        rounds = 0
        last_exc: BaseException | None = None
        while pending:
            if policy.quarantine_after is not None:
                poisoned = [
                    i for i in pending if failcount[i] >= policy.quarantine_after
                ]
                if poisoned:
                    metrics["quarantined"].labels(self.name).inc(len(poisoned))
                    keys = [tasks[i].key for i in poisoned]
                    warnings.warn(
                        f"quarantining {len(poisoned)} poison task(s) after "
                        f"{policy.quarantine_after} failures each: {keys}",
                        ResourceWarning,
                        stacklevel=4,
                    )
                    _log.warning(
                        "tasks quarantined",
                        extra={"engine": self.name, "tasks": keys},
                    )
                    rescued.extend(poisoned)
                    drop = set(poisoned)
                    pending = [i for i in pending if i not in drop]
                    if not pending:
                        break
            failed, last_exc, timed_out = self._run_round(
                tasks, pending, attempts, results, policy, chaos_spec, metrics,
                obs_ctx,
            )
            for i in failed:
                failcount[i] += 1
            if not failed:
                pending = []
                break
            metrics["retries"].labels(self.name).inc(len(failed))
            self.last_submit_failures += len(failed)
            rounds += 1
            annotate(
                "exec.retry_round", engine=self.name, failed=len(failed),
                round=rounds,
            )
            if rounds >= policy.retry.max_attempts:
                rescued.extend(failed)
                break
            warnings.warn(
                f"{len(failed)} {self.name} worker task(s) failed "
                f"({type(last_exc).__name__}: {last_exc}); rebuilding pool, "
                f"retry {rounds}/{policy.retry.max_attempts - 1}",
                ResourceWarning,
                stacklevel=4,
            )
            _log.warning(
                "worker round failed",
                extra={
                    "engine": self.name,
                    "failed": len(failed),
                    "round": rounds,
                    "error": f"{type(last_exc).__name__}: {last_exc}",
                    "timed_out": timed_out,
                    "heartbeat_ages": {
                        str(pid): round(age, 3)
                        for pid, age in sorted(self.heartbeat_ages().items())
                    },
                },
            )
            sleep(policy.retry.delay(rounds))
            self._abandon_pool(kill_wedged=timed_out)
            metrics["restarts"].labels(self.name).inc()
            pending = failed
        if rescued:
            self._rescue(tasks, rescued, rounds, last_exc, results, policy, metrics)
        return results

    def _run_round(
        self, tasks, pending, attempts, results, policy, chaos_spec, metrics,
        obs_ctx=None,
    ):
        """Submit ``pending``; return (failed indices, last error, saw timeout)."""
        pool = self._ensure_pool()
        failed: list[int] = []
        last_exc: BaseException | None = None
        timed_out = False
        try:
            futures = {}
            for i in pending:
                attempts[i] += 1
                futures[i] = pool.submit(
                    _exec_worker_run,
                    tasks[i].fn,
                    tasks[i].args,
                    tasks[i].key,
                    attempts[i],
                    chaos_spec,
                    self._hb_dir,
                    policy.verify_integrity,
                    obs_ctx,
                )
        except BrokenProcessPool as exc:
            return list(pending), exc, False
        for i, future in futures.items():
            try:
                raw = future.result(timeout=policy.worker_timeout)
                results[i] = self._decode(tasks[i], raw, policy.verify_integrity)
            except ResultIntegrityError as exc:
                metrics["integrity"].labels(self.name).inc()
                failed.append(i)
                last_exc = exc
            except _FuturesTimeout as exc:
                failed.append(i)
                last_exc = exc
                timed_out = True
            except Exception as exc:  # worker death, pool breakage, task error
                failed.append(i)
                last_exc = exc
        return failed, last_exc, timed_out

    def _decode(self, task, raw, verify):
        if verify:
            crc, payload = raw
            if zlib.crc32(payload) != crc:
                raise ResultIntegrityError(
                    f"task {task.key!r} returned a corrupted payload "
                    f"(CRC mismatch over {len(payload)} bytes)",
                    task_key=task.key,
                )
            raw = pickle.loads(payload)
        # Observed submits travel inside an envelope: graft the worker's
        # span subtree + merge its metric delta, return the bare result.
        return remote_mod.unpack_obs_envelope(raw, engine=self.name)

    def _rescue(self, tasks, rescued, rounds, last_exc, results, policy, metrics):
        if not policy.serial_fallback:
            failed_tasks = [tasks[i] for i in sorted(rescued)]
            if policy.exhausted_error is not None:
                raise policy.exhausted_error(
                    failed_tasks, rounds, last_exc
                ) from last_exc
            raise last_exc
        rescued = sorted(set(rescued))
        warnings.warn(
            f"retries exhausted for {len(rescued)} task(s); computing them "
            f"serially in-process",
            ResourceWarning,
            stacklevel=5,
        )
        metrics["fallbacks"].labels(self.name).inc(len(rescued))
        with span("exec.fallback", engine=self.name, tasks=len(rescued)):
            _log.warning(
                "degrading to in-process fallback",
                extra={
                    "engine": self.name,
                    "tasks": [tasks[i].key for i in rescued],
                    "rounds": rounds,
                },
            )
            for i in rescued:
                results[i] = tasks[i].run_fallback()


# --------------------------------------------------------------------- #
def make_executor(
    backend: str | None = None,
    *,
    name: str = "exec",
    max_workers: int | None = None,
    initializer=None,
    initargs: tuple = (),
    policy: ExecPolicy | None = None,
    sleep=time.sleep,
    default: str = "forkpool",
    profile: str | None = "auto",
) -> Executor:
    """Build the executor for a resolved backend.

    ``backend=None``/``"auto"`` honours ``REPRO_EXEC_BACKEND`` and then
    ``default`` — engines pass the backend their workload heuristics
    chose as ``default`` so the environment stays a pure override.
    ``profile`` attaches the sampling profiler around every submit
    (``"auto"`` resolves ``REPRO_PROFILE``, default off).
    """
    resolved = resolve_exec_backend(backend, default=default)
    if resolved == "inprocess":
        return InProcessExecutor(name=name, policy=policy, profile=profile)
    if resolved == "socket":
        # Imported lazily: the coordinator pulls in this module, and most
        # processes never touch the distributed rung.
        from repro.exec.coordinator import DistributedExecutor

        return DistributedExecutor(
            max_workers,
            name=name,
            initializer=initializer,
            initargs=initargs,
            policy=policy,
            sleep=sleep,
            profile=profile,
        )
    return ForkPoolExecutor(
        max_workers,
        name=name,
        initializer=initializer,
        initargs=initargs,
        policy=policy,
        sleep=sleep,
        profile=profile,
    )
