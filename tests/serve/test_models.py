"""ModelManager: hot reload, rollback to last-good, breaker degrade."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.resilience.errors import CheckpointCorruptError
from repro.serve import ModelManager


@pytest.fixture
def graph() -> GraphData:
    return GraphData.from_netlist(generate_design(100, seed=3))


class TestInitialLoad:
    def test_no_model_serves_heuristic(self, graph):
        manager = ModelManager()
        labels, info = manager.predict(graph)
        assert info["degraded"] is True
        assert info["predictor_level"] == "heuristic"
        assert set(np.unique(labels)) <= {0, 1}

    def test_model_file_serves_model(self, model_file, graph):
        manager = ModelManager(model_file)
        labels, info = manager.predict(graph)
        assert info["degraded"] is False
        assert info["predictor_level"] == "gcn"
        assert len(labels) == graph.num_nodes

    def test_describe_reports_numerics_certificate(self, model_file):
        assert ModelManager().describe()["numerics"] == []
        numerics = ModelManager(model_file).describe()["numerics"]
        assert numerics, "a single GCN runs dense products"
        for row in numerics:
            assert set(row) == {"k", "n", "dtype", "certified", "path"}
            assert row["dtype"] == "float64"

    def test_corrupt_initial_load_degrades_not_raises(self, corrupt_file, graph):
        with pytest.warns(ResourceWarning):
            manager = ModelManager(corrupt_file)
        _, info = manager.predict(graph)
        assert info["degraded"] is True


class TestReload:
    def test_reload_swaps_model(self, model_file, graph):
        manager = ModelManager()
        description = manager.reload(model_file)
        assert description["level"] == "gcn"
        assert description["reloads"] == 1
        _, info = manager.predict(graph)
        assert info["degraded"] is False

    def test_corrupt_reload_rolls_back(self, model_file, corrupt_file, graph):
        manager = ModelManager(model_file)
        before, _ = manager.predict(graph)
        with pytest.raises(CheckpointCorruptError):
            manager.reload(corrupt_file)
        description = manager.describe()
        assert description["rollbacks"] == 1
        assert description["level"] == "gcn"
        assert description["last_good"] == str(model_file)
        # Identical predictions before and after the failed swap.
        after, info = manager.predict(graph)
        assert info["degraded"] is False
        np.testing.assert_array_equal(before, after)

    def test_missing_reload_rolls_back(self, model_file, tmp_path):
        manager = ModelManager(model_file)
        with pytest.raises(FileNotFoundError):
            manager.reload(tmp_path / "ghost.npz")
        assert manager.describe()["rollbacks"] == 1
        assert manager.describe()["level"] == "gcn"

    def test_reload_after_rollback_succeeds(self, model_file, corrupt_file):
        manager = ModelManager()
        with pytest.raises(CheckpointCorruptError):
            manager.reload(corrupt_file)
        assert manager.reload(model_file)["level"] == "gcn"


class TestBreakerDegrade:
    def _faulting_manager(self, model_file, clock):
        manager = ModelManager(
            model_file, breaker_threshold=2, breaker_reset_s=60.0, clock=clock
        )
        calls = {"n": 0}

        def boom(graph):
            calls["n"] += 1
            raise RuntimeError("model exploded")

        manager._fn = boom
        return manager, calls

    def test_repeated_faults_open_breaker_and_degrade(self, model_file, graph):
        now = [0.0]
        manager, calls = self._faulting_manager(model_file, lambda: now[0])
        for _ in range(2):
            labels, info = manager.predict(graph)
            assert info["degraded"] is True
            assert info["predictor_level"] == "heuristic"
            assert "model failure" in info["reason"]
            assert len(labels) == graph.num_nodes
        # Breaker open: the model is no longer even attempted.
        _, info = manager.predict(graph)
        assert "circuit open" in info["reason"]
        assert calls["n"] == 2
        assert manager.describe()["breaker"] == "open"
        assert manager.describe()["model_failures"] == 2

    def test_breaker_probes_after_reset(self, model_file, graph):
        now = [0.0]
        manager, calls = self._faulting_manager(model_file, lambda: now[0])
        manager.predict(graph)
        manager.predict(graph)
        now[0] = 61.0  # past reset_timeout: half-open lets one probe through
        manager.predict(graph)
        assert calls["n"] == 3

    def test_successful_reload_resets_breaker(self, model_file, graph):
        now = [0.0]
        manager, _ = self._faulting_manager(model_file, lambda: now[0])
        manager.predict(graph)
        manager.predict(graph)
        assert manager.describe()["breaker"] == "open"
        manager.reload(model_file)
        assert manager.describe()["breaker"] == "closed"
        _, info = manager.predict(graph)
        assert info["degraded"] is False
