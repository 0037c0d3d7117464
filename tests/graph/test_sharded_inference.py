"""Sharded inference: bit-identity, routing, training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import TrainConfig, Trainer
from repro.graph import ShardedInference


@pytest.fixture(scope="module")
def weights():
    model = GCN(GCNConfig(seed=5))
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    return model.layer_weights()


@pytest.fixture(scope="module")
def graph():
    return GraphData.from_netlist(generate_design(700, seed=23))


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_logits_bit_identical_float64(self, weights, graph, n_shards):
        single = FastInference(weights).logits(graph)
        engine = ShardedInference(
            weights, ExecutionConfig(shards=n_shards, workers=1)
        )
        sharded = engine.logits(graph)
        assert sharded.dtype == np.float64
        assert np.array_equal(single, sharded)

    def test_embed_bit_identical(self, weights, graph):
        single = FastInference(weights).embed(graph)
        engine = ShardedInference(
            weights, ExecutionConfig(shards=3, workers=1)
        )
        assert np.array_equal(single, engine.embed(graph))

    def test_float32_close(self, weights, graph):
        single = FastInference(weights, dtype=np.float32).logits(graph)
        engine = ShardedInference(
            weights, ExecutionConfig(shards=3, workers=1, dtype="float32")
        )
        sharded = engine.logits(graph)
        assert sharded.dtype == np.float32
        assert np.allclose(single, sharded, atol=1e-4)

    def test_predictions_match(self, weights, graph):
        single = FastInference(weights)
        engine = ShardedInference(
            weights, ExecutionConfig(shards=4, workers=1)
        )
        assert np.array_equal(single.predict(graph), engine.predict(graph))
        assert np.allclose(
            single.predict_proba(graph), engine.predict_proba(graph)
        )

    def test_empty_graph(self, weights):
        empty = GraphData.from_netlist(generate_design(4, seed=0))
        # Tiny but non-empty designs still work with absurd shard requests.
        engine = ShardedInference(
            weights, ExecutionConfig(shards=16, workers=1)
        )
        out = engine.logits(empty)
        assert out.shape == (empty.num_nodes, 2)


class TestConfiguration:
    def test_plan_cached_per_graph(self, weights, graph):
        engine = ShardedInference(
            weights, ExecutionConfig(shards=2, workers=1)
        )
        engine.logits(graph)
        plan = engine._plan
        engine.logits(graph)
        assert engine._plan is plan


class TestRouting:
    def test_fastinference_routes_to_sharded(self, weights, graph, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        fast = FastInference(
            weights, execution=ExecutionConfig(workers=2, shards=2)
        )
        routed = fast._route(graph)
        assert isinstance(routed, ShardedInference)
        assert np.array_equal(
            FastInference(weights).logits(graph), fast.logits(graph)
        )

    def test_single_backend_stays_in_process(self, weights, graph):
        fast = FastInference(weights, execution=ExecutionConfig(backend="single"))
        assert fast._route(graph) is fast

    def test_explicit_sharded_backend(self, weights, graph):
        fast = FastInference(
            weights,
            execution=ExecutionConfig(backend="sharded", shards=3, workers=1),
        )
        assert isinstance(fast._route(graph), ShardedInference)
        assert np.array_equal(
            FastInference(weights).logits(graph), fast.logits(graph)
        )


class TestInferenceMetrics:
    @pytest.mark.parametrize("backend", ["single", "sharded"])
    def test_logits_pass_recorded_once(self, weights, graph, backend):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fast = FastInference(
            weights,
            execution=ExecutionConfig(backend=backend, shards=2, workers=1),
        )
        registry = MetricsRegistry()
        old = set_registry(registry)
        try:
            fast.logits(graph)
        finally:
            set_registry(old)
        snapshot = registry.snapshot()

        def total(name, key="value"):
            return sum(s[key] for s in snapshot[name]["samples"])

        assert total("repro_inference_calls_total") == 1
        assert total("repro_inference_nodes_total") == graph.num_nodes
        assert total("repro_inference_seconds", "count") == 1


class TestTrainerIntegration:
    def test_shard_minibatch_training_runs(self, graph):
        rng = np.random.default_rng(3)
        labelled = GraphData(
            pred=graph.pred,
            succ=graph.succ,
            attributes=graph.attributes,
            labels=rng.integers(0, 2, size=graph.num_nodes),
            name="labelled",
        )
        model = GCN(GCNConfig(seed=1))
        trainer = Trainer(
            model,
            TrainConfig(epochs=2),
            execution=ExecutionConfig(backend="sharded", shards=3, workers=1),
        )
        batches = trainer._prepare_graphs([labelled])
        assert len(batches) == 3
        history = trainer.fit([labelled])
        assert history.loss
