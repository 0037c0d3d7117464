"""``repro.exec`` — the fault-tolerant execution fabric.

One executor abstraction under every fork-pool engine in the library:
:class:`~repro.core.trainer.ParallelTrainer` and
:class:`~repro.atpg.ppsfp.PpsfpEngine` both express their parallel
work as :class:`ShardTask` lists and let one supervised executor run
them — the serial :class:`InProcessExecutor` oracle, the supervised
:class:`ForkPoolExecutor`, or the multi-host :class:`DistributedExecutor`
(a TCP :class:`Coordinator` dispatching to ``repro exec-worker``
processes), all bit-identical by construction.

See :mod:`repro.exec.executor` for supervision semantics,
:mod:`repro.exec.coordinator` / :mod:`repro.exec.net` for the distributed
backend and its wire protocol, :mod:`repro.exec.shm` for the guaranteed
shared-memory lifecycle, and :mod:`repro.exec.chaos` for the built-in
fault-injection layer (``REPRO_CHAOS``, process *and* network modes).
"""

from repro.exec.chaos import (
    CHAOS_ENV,
    CHAOS_MODES,
    NET_CHAOS_MODES,
    PROCESS_CHAOS_MODES,
    ChaosInjectedError,
    ChaosSpec,
)
from repro.exec.coordinator import (
    Coordinator,
    DistributedExecutor,
    ensure_net_metrics,
    get_coordinator,
    run_worker,
    shutdown_coordinator,
)
from repro.exec.executor import (
    Executor,
    ForkPoolExecutor,
    InProcessExecutor,
    ensure_exec_metrics,
    make_executor,
)
from repro.exec.net import (
    COORD_ENV,
    RemoteTaskError,
    coordinator_address,
    parse_address,
)
from repro.exec.policy import (
    EXEC_BACKEND_ENV,
    EXEC_BACKENDS,
    ExecPolicy,
    ShardTask,
    resolve_exec_backend,
)
from repro.exec.shm import (
    SharedSegment,
    WeightStore,
    attach_manifest,
    attached_ndarray,
    leaked_segment_names,
    owned_ndarray,
    sweep_orphans,
)

__all__ = [
    "COORD_ENV",
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "CHAOS_ENV",
    "CHAOS_MODES",
    "NET_CHAOS_MODES",
    "PROCESS_CHAOS_MODES",
    "ChaosInjectedError",
    "ChaosSpec",
    "Coordinator",
    "DistributedExecutor",
    "ExecPolicy",
    "Executor",
    "ForkPoolExecutor",
    "InProcessExecutor",
    "RemoteTaskError",
    "ShardTask",
    "SharedSegment",
    "WeightStore",
    "attach_manifest",
    "attached_ndarray",
    "coordinator_address",
    "ensure_exec_metrics",
    "ensure_net_metrics",
    "get_coordinator",
    "leaked_segment_names",
    "make_executor",
    "owned_ndarray",
    "parse_address",
    "resolve_exec_backend",
    "run_worker",
    "shutdown_coordinator",
    "sweep_orphans",
]
