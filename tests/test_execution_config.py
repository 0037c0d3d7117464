"""ExecutionConfig: validation, env resolution, deprecation shims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.generate import AtpgConfig
from repro.atpg.observability import ObservabilityAnalyzer, observability_counts
from repro.circuit import generate_design
from repro.config import (
    ExecutionConfig,
    FAULT_SIM_BACKENDS,
    INFERENCE_BACKENDS,
)
from repro.resilience.errors import ConfigError
from repro.testability import LabelConfig


@pytest.fixture(scope="module")
def netlist():
    return generate_design(60, seed=9)


class TestValidation:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "auto"
        assert cfg.workers is None
        assert cfg.dtype == "float64"

    def test_dtype_normalised(self):
        assert ExecutionConfig(dtype=np.float32).dtype == "float32"
        assert ExecutionConfig(dtype="float32").numpy_dtype() == np.float32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"shards": 0},
            {"dtype": "int32"},
            {"backend": ""},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionConfig(**kwargs)

    def test_replace_is_frozen_copy(self):
        cfg = ExecutionConfig()
        other = cfg.replace(workers=3)
        assert cfg.workers is None and other.workers == 3
        with pytest.raises(Exception):
            cfg.workers = 2  # frozen


class TestEnvResolution:
    def test_from_env_reads_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_SHARDS", "7")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg = ExecutionConfig.from_env()
        assert cfg.backend == "sharded"
        assert cfg.workers == 5
        assert cfg.shards == 7
        assert cfg.dtype == "float32"

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert ExecutionConfig.from_env(workers=2).workers == 2

    def test_bad_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigError):
            ExecutionConfig.from_env()

    def test_resolved_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert ExecutionConfig().resolved_workers() == 4
        assert ExecutionConfig(workers=2).resolved_workers() == 2

    def test_resolved_shards_defaults_to_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert ExecutionConfig(workers=3).resolved_shards() == 3
        assert ExecutionConfig(workers=3).resolved_shards(n_nodes=2) == 2
        assert ExecutionConfig(shards=5, workers=2).resolved_shards() == 5


class TestBackendResolution:
    def test_inference_vocabulary(self):
        for backend in INFERENCE_BACKENDS:
            ExecutionConfig(backend=backend).resolve_inference_backend(10)
        with pytest.raises(ConfigError):
            ExecutionConfig(backend="warp").resolve_inference_backend(10)

    def test_auto_small_graph_single(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=8)
        assert cfg.resolve_inference_backend(1000) == "single"

    def test_auto_large_graph_single(self, monkeypatch):
        """Single-process beat in-process sharding on every measured tier
        up to 1.07M nodes, so ``auto`` never shards."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=8)
        assert cfg.resolve_inference_backend(1_000_000) == "single"

    def test_auto_single_worker_stays_single(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=1)
        assert cfg.resolve_inference_backend(1_000_000) == "single"

    def test_env_backend_wins_over_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert ExecutionConfig().resolve_inference_backend(10) == "sharded"
        assert (
            ExecutionConfig(backend="single").resolve_inference_backend(10)
            == "single"
        )

    def test_fault_sim_vocabulary(self):
        cfg = ExecutionConfig(backend="batched")
        assert cfg.resolve_fault_sim_backend(100, 4) == "batched"
        with pytest.raises(ConfigError):
            ExecutionConfig(backend="sharded").resolve_fault_sim_backend(100, 4)
        for backend in FAULT_SIM_BACKENDS:
            ExecutionConfig(backend=backend).resolve_fault_sim_backend(10, 1)


class TestDeprecationShims:
    def test_fault_simulator_positional_str(self, netlist):
        with pytest.warns(DeprecationWarning):
            fsim = FaultSimulator(netlist, "batched")
        assert fsim.execution.backend == "batched"
        fsim.close()

    def test_fault_simulator_backend_kwarg(self, netlist):
        with pytest.warns(DeprecationWarning):
            fsim = FaultSimulator(netlist, backend="serial")
        assert fsim.backend == "serial"
        fsim.close()

    def test_fault_simulator_execution_no_warning(self, netlist, recwarn):
        fsim = FaultSimulator(netlist, ExecutionConfig(backend="batched"))
        assert fsim.backend == "batched"
        fsim.close()
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_observability_analyzer_backend_kwarg(self, netlist):
        with pytest.warns(DeprecationWarning):
            analyzer = ObservabilityAnalyzer(netlist, backend="serial")
        assert analyzer.backend == "serial"
        analyzer.close()

    def test_observability_counts_backend_kwarg(self, netlist):
        with pytest.warns(DeprecationWarning):
            counts = observability_counts(netlist, n_patterns=64, backend="serial")
        assert counts.shape == (netlist.num_nodes,)

    def test_label_config_backend_field(self):
        with pytest.warns(DeprecationWarning):
            config = LabelConfig(backend="batched")
        assert config.execution.backend == "batched"

    def test_atpg_config_fault_sim_backend_field(self):
        with pytest.warns(DeprecationWarning):
            config = AtpgConfig(fault_sim_backend="serial")
        assert config.execution.backend == "serial"

    def test_legacy_and_new_agree(self, netlist):
        import warnings

        patterns = FaultSimulator(netlist).simulator.random_source_words(
            2, np.random.default_rng(0)
        )
        from repro.atpg import collapse_faults

        faults = collapse_faults(netlist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = FaultSimulator(netlist, "batched")
        modern = FaultSimulator(netlist, ExecutionConfig(backend="batched"))
        lres = legacy.simulate_batch(faults, patterns)
        mres = modern.simulate_batch(faults, patterns)
        assert lres.detected == mres.detected
        legacy.close()
        modern.close()
