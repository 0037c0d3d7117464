"""Shared helpers for the scoring-path benchmark.

Everything here runs in the benchmark's own processes: the driver
(``run.py``), the scoring worker (``worker.py``) and the serve load
generator.  Nothing is imported into, or patched inside, ``src/``
except by ``tracer.py`` in a traced run.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the benchmark's own directory and the checkout it runs in
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: the fixed trained GCN every workload scores with
CHECKPOINT = BENCH_DIR / "gcn.npz"
#: scratch space for generated inputs, spans and temp files; listed in
#: the repository's .gitignore
WORK = ROOT / ".perfbench_work"


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``PYTHONPATH`` points at this checkout's sources; ``TMPDIR`` keeps the
    execution fabric's heartbeat directories inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    for var in ("REPRO_BACKEND", "REPRO_EXEC_BACKEND", "REPRO_PROFILE", "REPRO_CHAOS"):
        env.pop(var, None)
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM ``proc`` (a graceful drain for ``repro serve``), then wait;
    SIGKILL if it outlives ``timeout``."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    if n <= 10:
        return 0.0
    return math.floor(1000.0 * (n - 10) / n) / 10.0


def latency_summary(samples: list[float]) -> dict:
    """Median, the highest supported percentile and the sample count."""
    if not samples:
        return {"n": 0}
    q = tail_percentile(len(samples))
    out = {"n": len(samples), "p50": statistics.median(samples), "max": max(samples)}
    if q:
        out[f"p{q:g}"] = percentile(samples, q)
        out["tail_q"] = q
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# --------------------------------------------------------------------- #
# Environment record
# --------------------------------------------------------------------- #
def _blas_threads() -> int | None:
    """OpenBLAS thread count read from the loaded library, if any."""
    libs = set()
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path:
            libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Host and numeric-stack record attached to every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- #
# Worker protocol: one JSON line per message on the child's stdout
# --------------------------------------------------------------------- #
def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def spawn_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``worker.py`` and wait for its ``ready`` line.

    Returns the process and the spawn-to-ready wall seconds (the
    ``setup_s`` sample: interpreter start, ``import repro.api`` and the
    checkpoint load).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if not line:
        stop_process(proc)
        raise RuntimeError(f"worker exited before ready (code {proc.returncode})")
    message = json.loads(line)
    if message.get("event") != "ready":
        stop_process(proc)
        raise RuntimeError(f"unexpected worker message {message}")
    message["ready_s"] = ready_s
    return proc, message


def worker_call(proc: subprocess.Popen, request: dict) -> dict:
    """Send one job to a ready worker and return its reply."""
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker died (code {proc.poll()})")
    return json.loads(line)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def design_rng(seed: int, role: int):
    """Generator for input ``role`` of a run with ``--seed seed``."""
    import numpy as np

    return np.random.default_rng([seed, role])


def design_text(gates: int, seed: int, role: int) -> str:
    """``.bench`` text of a generated design (``generate_design`` →
    ``write_bench``)."""
    import io

    from repro import api

    stream = io.StringIO()
    netlist = api.generate_design(
        gates, seed=design_rng(seed, role), name=f"d{gates}_{seed}_{role}"
    )
    api.write_bench(netlist, stream)
    return stream.getvalue()


def write_design(gates: int, seed: int, role: int) -> Path:
    """Generate a design and store its ``.bench`` text under ``WORK``."""
    path = WORK / f"design_{gates}_{seed}_{role}.bench"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(design_text(gates, seed, role))
    return path
