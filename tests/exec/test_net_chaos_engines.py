"""Network chaos suite: every engine × every net chaos mode over loopback.

The distributed mirror of ``test_chaos_engines.py``: with
``REPRO_EXEC_BACKEND=socket`` and a two-worker loopback fleet, both
fork-pool engines must survive injected disconnects, delayed results,
heartbeat partitions and stale-generation replies — and produce results
**bit-identical** to the chaos-free oracle.  Thread-based workers are
safe here because no net mode ever calls ``os._exit``.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.atpg.ppsfp import PpsfpConfig
from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig
from repro.exec import get_coordinator, run_worker, shutdown_coordinator
from repro.exec.chaos import NET_CHAOS_MODES
from repro.resilience.retry import RetryPolicy

NO_SLEEP = lambda s: None  # noqa: E731
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)
WORKER_TIMEOUT_S = 10.0


@pytest.fixture(autouse=True)
def _fast_net(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_HB_INTERVAL_S", "0.05")
    monkeypatch.setenv("REPRO_EXEC_HB_TIMEOUT_S", "0.5")
    monkeypatch.setenv("REPRO_EXEC_CONNECT_TIMEOUT_S", "2.0")


@pytest.fixture()
def fleet():
    stop = threading.Event()
    threads: list[threading.Thread] = []
    coordinator = get_coordinator()
    for i in range(2):
        t = threading.Thread(
            target=run_worker,
            args=(coordinator.address,),
            kwargs={"worker_id": f"net-w{i}", "stop": stop},
            daemon=True,
        )
        t.start()
        threads.append(t)
    assert coordinator.wait_for_workers(5.0, minimum=2)
    yield coordinator
    stop.set()
    shutdown_coordinator()
    for t in threads:
        t.join(timeout=5.0)


def _arm(monkeypatch, mode: str) -> None:
    """Socket backend + the given net chaos mode at rate 1.0."""
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "socket")
    monkeypatch.setenv("REPRO_CHAOS", mode)
    # Longer than the heartbeat timeout (so ``partition`` trips the
    # stale-worker scan) but far below the task deadline.
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "1.0")


# --------------------------------------------------------------------- #
# ParallelTrainer
# --------------------------------------------------------------------- #
def _labelled_graph(seed=11, n=100):
    netlist = generate_design(n, seed=seed)
    g = GraphData.from_netlist(netlist)
    labels = (g.attributes[:, 3] > np.median(g.attributes[:, 3])).astype(np.int64)
    return GraphData(
        pred=g.pred, succ=g.succ, attributes=g.attributes, labels=labels,
        name=f"g{seed}",
    )


def _train_step(graphs):
    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
    trainer = ParallelTrainer(
        model,
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        max_workers=2,
        worker_timeout=WORKER_TIMEOUT_S,
        retry_policy=FAST_RETRY,
        sleep=NO_SLEEP,
    )
    loss = trainer.train_step(graphs)
    return loss, {k: v.copy() for k, v in model.state_dict().items()}


@pytest.fixture(scope="module")
def train_case():
    graphs = [_labelled_graph(1), _labelled_graph(2)]
    return graphs, _train_step(graphs)


class TestTrainerNetChaos:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_epoch_bit_identical(self, mode, train_case, fleet, monkeypatch):
        graphs, (oracle_loss, oracle_state) = train_case
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loss, state = _train_step(graphs)
        assert loss == oracle_loss
        for key in oracle_state:
            np.testing.assert_array_equal(state[key], oracle_state[key], key)


# --------------------------------------------------------------------- #
# PpsfpEngine (fault simulation)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fault_sim_case():
    nl = generate_design(n_gates=80, seed=31)
    fsim = FaultSimulator(
        nl,
        config=PpsfpConfig(
            workers=2,
            shards=2,
            retry=FAST_RETRY,
            worker_timeout=WORKER_TIMEOUT_S,
        ),
    )
    fsim.engine._sleep = NO_SLEEP
    rng = np.random.default_rng(2)
    values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
    faults = full_fault_list(nl)
    oracle = fsim.detection_masks(faults, values, backend="batched")
    yield fsim, faults, values, oracle
    fsim.close()


class TestFaultSimNetChaos:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_masks_bit_identical(self, mode, fault_sim_case, fleet, monkeypatch):
        fsim, faults, values, oracle = fault_sim_case
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masks = fsim.detection_masks(faults, values, backend="parallel")
        np.testing.assert_array_equal(masks, oracle)

