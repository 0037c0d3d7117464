"""Boundary-exchange properties: exact partitions, send/recv coverage of
every cut edge, and bit-identical exchange logits on random leveled DAGs
and random weights."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.embedding import RecursiveEmbedder
from repro.core.inference import FastInference
from repro.core.model import GCNWeights
from repro.graph import PartitionConfig, ShardedInference, partition_graph
from repro.graph.exchange import compile_boundary_plan
from repro.nn.sparse import COOMatrix


@st.composite
def leveled_dags(draw):
    """Random leveled DAGs: every edge goes from an earlier level to a
    later one, the shape sharded netlist inference actually runs on."""
    level_sizes = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=5)
    )
    starts = np.concatenate([[0], np.cumsum(level_sizes)])
    n = int(starts[-1])
    edges: list[tuple[int, int]] = []
    for level in range(1, len(level_sizes)):
        for v in range(int(starts[level]), int(starts[level + 1])):
            n_fanin = draw(st.integers(0, min(3, int(starts[level]))))
            for _ in range(n_fanin):
                u = draw(st.integers(0, int(starts[level]) - 1))
                edges.append((u, v))
    rows = np.array([v for _, v in edges], dtype=np.int64)
    cols = np.array([u for u, _ in edges], dtype=np.int64)
    values = np.ones(len(edges), dtype=np.float64)
    pred = COOMatrix((n, n), values, rows, cols)
    succ = COOMatrix((n, n), values.copy(), cols.copy(), rows.copy())
    attrs = (np.arange(n * 4, dtype=np.float64).reshape(n, 4) % 7.0) + 1.0
    return GraphData(pred=pred, succ=succ, attributes=attrs)


@st.composite
def gcn_weights(draw):
    """Random weight sets: depth 0-3, widths 1-8 (narrow widths take
    ``row_stable_matmul``'s fixed-order path), any layer bias-free."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def layer(n_in, n_out):
        bias = rng.normal(scale=0.1, size=n_out) if draw(st.booleans()) else None
        return rng.normal(scale=0.5, size=(n_in, n_out)), bias

    widths = [4] + draw(st.lists(st.integers(1, 8), max_size=3))
    fc_widths = [widths[-1]] + draw(st.lists(st.integers(1, 8), max_size=2)) + [2]
    encoder = [layer(a, b) for a, b in zip(widths, widths[1:])]
    fc = [layer(a, b) for a, b in zip(fc_widths, fc_widths[1:])]
    return GCNWeights(
        w_pr=draw(st.floats(0.1, 1.0)),
        w_su=draw(st.floats(0.1, 1.0)),
        encoder_weights=[w for w, _ in encoder],
        encoder_biases=[b for _, b in encoder],
        fc_weights=[w for w, _ in fc],
        fc_biases=[b for _, b in fc],
    )


@settings(max_examples=60, deadline=None)
@given(graph=leveled_dags(), n_shards=st.integers(min_value=1, max_value=6))
def test_partition_exact_and_sendrecv_cover_cut(graph, n_shards):
    partition = partition_graph(graph, PartitionConfig(n_shards=n_shards))
    partition.validate()
    pred = graph.pred.to_scipy()
    succ = graph.succ.to_scipy()
    owner = partition.owner
    plan = compile_boundary_plan(pred, succ, owner, partition.n_shards)
    plan.validate()

    # Every cut edge: its driver appears in exactly one shard's send list
    # toward the sink's shard, and lands through that shard's recv list.
    und = ((pred != 0) + (succ != 0)).tocoo()
    for u, v in zip(und.row, und.col):
        a, b = int(owner[u]), int(owner[v])
        if a == b:
            continue
        senders = [
            s
            for s in plan.shards
            if b in s.send and u in s.owned[s.send[b]]
        ]
        assert len(senders) == 1 and senders[0].index == a
        landed = plan.shards[b].universe[plan.shards[b].recv[a]]
        assert u in landed

    # The exchange volume matches the partition's frontier statistic.
    assert plan.exchange_fraction == pytest.approx(
        partition.frontier_fraction
    )


@settings(max_examples=40, deadline=None)
@given(
    graph=leveled_dags(),
    weights=gcn_weights(),
    n_shards=st.integers(min_value=1, max_value=4),
)
def test_exchange_logits_bit_identical_float64(graph, weights, n_shards):
    fast = FastInference(weights)
    engine = ShardedInference(weights, ExecutionConfig(shards=n_shards, workers=1))
    logits = fast.logits(graph)
    assert np.array_equal(logits, engine.logits(graph))
    assert np.array_equal(fast.embed(graph), engine.embed(graph))
    recursive = RecursiveEmbedder(weights, graph).logits(range(graph.num_nodes))
    np.testing.assert_allclose(logits, recursive, rtol=1e-9, atol=1e-9)


class TestCompiledPlan:
    @pytest.fixture(scope="class")
    def design_graph(self):
        return GraphData.from_netlist(generate_design(900, seed=17))

    def test_frontier_is_one_hop_neighbourhood(self, design_graph):
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=4)
        )
        pred = design_graph.pred.to_scipy()
        succ = design_graph.succ.to_scipy()
        plan = compile_boundary_plan(
            pred, succ, partition.owner, partition.n_shards
        )
        und = ((pred != 0) + (succ != 0)).tocsr()
        for sh in plan.shards:
            mask = np.zeros(design_graph.num_nodes, dtype=bool)
            mask[sh.owned] = True
            reached = (und @ mask.astype(np.float64)) > 0
            assert np.array_equal(
                sh.frontier, np.flatnonzero(reached & ~mask)
            )

    def test_single_shard_exchanges_nothing(self, design_graph):
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=1)
        )
        plan = compile_boundary_plan(
            design_graph.pred.to_scipy(),
            design_graph.succ.to_scipy(),
            partition.owner,
            1,
        )
        assert plan.exchange_rows == 0
        assert plan.exchange_fraction == 0.0
        assert plan.shards[0].send == {} and plan.shards[0].recv == {}

    def test_adjacency_rows_match_global(self, design_graph):
        """Local rows are the global CSR rows, columns renumbered only."""
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=3)
        )
        pred = design_graph.pred.to_scipy()
        plan = compile_boundary_plan(
            pred,
            design_graph.succ.to_scipy(),
            partition.owner,
            partition.n_shards,
        )
        for sh in plan.shards:
            rows = pred[sh.owned]
            assert np.array_equal(sh.pred_rows.data, rows.data)
            assert np.array_equal(
                sh.universe[sh.pred_rows.indices], rows.indices
            )
