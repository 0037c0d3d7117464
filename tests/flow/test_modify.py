"""Incremental design modification: consistency and rollback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.cones import (
    ConeIndex,
    cone_cache_info,
    get_cone_index,
    invalidate_cone_cache,
)
from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.flow.modify import IncrementalDesign
from repro.testability import compute_scoap


@pytest.fixture
def design():
    return IncrementalDesign(generate_design(200, seed=41))


class TestInsertOp:
    def test_graph_grows_consistently(self, design):
        n0 = design.num_nodes
        e0 = design.graph.pred.nnz
        p, _ = design.insert_op(10)
        assert design.num_nodes == n0 + 1
        assert p == n0
        assert design.graph.pred.shape == (n0 + 1, n0 + 1)
        assert design.graph.pred.nnz == e0 + 1
        assert design.graph.attributes.shape == (n0 + 1, 4)

    def test_scoap_matches_full_recompute(self, design):
        design.insert_op(10)
        design.insert_op(57)
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)
        assert np.allclose(design.scoap.cc0, fresh.cc0)
        assert np.allclose(design.scoap.cc1, fresh.cc1)

    def test_graph_matches_full_rebuild(self, design):
        from repro.circuit import GateType
        from repro.core.attributes import OP_ATTRIBUTES, normalize_attributes

        design.insert_op(10)
        design.insert_op(57)
        rebuilt = GraphData.from_netlist(design.netlist)
        # OBS rows keep the paper's fixed [0,1,1,0] attribute (Section 4);
        # a full rebuild would compute their true SCOAP instead.
        obs = [
            v
            for v in design.netlist.nodes()
            if design.netlist.gate_type(v) is GateType.OBS
        ]
        regular = [v for v in design.netlist.nodes() if v not in set(obs)]
        assert np.allclose(
            design.graph.attributes[regular], rebuilt.attributes[regular]
        )
        op_row = normalize_attributes(
            OP_ATTRIBUTES[None, :], design.attribute_config
        )[0]
        for v in obs:
            assert np.allclose(design.graph.attributes[v], op_row)
        assert np.array_equal(
            design.graph.pred.to_dense(), rebuilt.pred.to_dense()
        )
        assert np.array_equal(
            design.graph.succ.to_dense(), rebuilt.succ.to_dense()
        )

    def test_new_op_row_is_paper_attribute(self, design):
        from repro.core.attributes import OP_ATTRIBUTES, normalize_attributes

        p, _ = design.insert_op(10)
        expected = normalize_attributes(OP_ATTRIBUTES[None, :], design.attribute_config)[0]
        assert np.allclose(design.graph.attributes[p], expected)

    def test_many_insertions_attr_store_grows(self, design):
        n0 = design.num_nodes
        for target in range(0, 60, 3):
            design.insert_op(target)
        assert design.num_nodes == n0 + 20
        assert design.graph.attributes.shape[0] == n0 + 20
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)


class TestRollback:
    def _snapshot(self, design):
        return (
            design.num_nodes,
            design.graph.pred.nnz,
            design.graph.succ.nnz,
            design.graph.attributes.copy(),
            design.scoap.co.copy(),
            [list(design.netlist.fanouts(v)) for v in design.netlist.nodes()],
        )

    def test_tentative_insert_restores_everything(self, design):
        before = self._snapshot(design)
        undo = design.tentative_insert(33)
        undo()
        after = self._snapshot(design)
        assert before[0] == after[0]
        assert before[1] == after[1] and before[2] == after[2]
        assert np.allclose(before[3], after[3])
        assert np.allclose(before[4], after[4])
        assert before[5] == after[5]

    def test_nested_tentative_inserts(self, design):
        before = self._snapshot(design)
        undo1 = design.tentative_insert(20)
        undo2 = design.tentative_insert(40)
        undo2()
        undo1()
        after = self._snapshot(design)
        assert np.allclose(before[3], after[3])
        assert np.allclose(before[4], after[4])

    def test_rollback_then_real_insert_consistent(self, design):
        undo = design.tentative_insert(12)
        undo()
        design.insert_op(12)
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)


class TestFaninCone:
    def test_cone_contains_transitive_fanins(self, design):
        nl = design.netlist
        node = next(v for v in nl.nodes() if nl.fanins(v))
        cone = design.fanin_cone(node)
        assert node in cone
        for u in nl.fanins(node):
            assert u in cone

    def test_cone_exclude_self(self, design):
        cone = design.fanin_cone(5, include_self=False)
        assert 5 not in cone


def _observed_from_scratch(netlist):
    return set(netlist.observation_sites) | set(netlist.observation_points())


class TestObservedSet:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        steps=st.lists(
            st.tuples(st.floats(0.0, 0.999), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    def test_observed_set_tracks_inserts_and_rollbacks(self, seed, steps):
        """After any insert/rollback sequence the kept set equals the
        netlist's observed set recomputed from scratch."""
        design = IncrementalDesign(generate_design(60, seed=seed))
        n0 = design.num_nodes
        open_checkpoints = []
        assert design.observed == _observed_from_scratch(design.netlist)
        for target_frac, roll_back in steps:
            if roll_back and open_checkpoints:
                design.rollback(open_checkpoints.pop())
            else:
                # Original nodes only: an OBS cell is not a legal target.
                _, checkpoint = design.insert_op(int(target_frac * n0))
                open_checkpoints.append(checkpoint)
            assert design.observed == _observed_from_scratch(design.netlist)
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)


class TestConeInvalidation:
    @pytest.fixture(autouse=True)
    def _fresh_cone_cache(self):
        invalidate_cone_cache()
        yield
        invalidate_cone_cache()

    def test_insert_drops_index_built_on_the_netlist(self):
        netlist = generate_design(120, seed=7)
        design = IncrementalDesign(netlist)
        get_cone_index(netlist).cone(10)
        assert cone_cache_info()["entries"] == 1
        p, _ = design.insert_op(10)
        assert cone_cache_info()["entries"] == 0
        assert p in get_cone_index(netlist).cone(10)

    def test_index_on_unmutated_copy_survives(self):
        netlist = generate_design(120, seed=7)
        copy = netlist.copy()
        assert copy.fingerprint() == netlist.fingerprint()
        index = get_cone_index(copy)
        design = IncrementalDesign(netlist)
        undo = design.tentative_insert(10)
        assert get_cone_index(copy) is index
        undo()
        assert get_cone_index(copy) is index
        fresh = ConeIndex(copy)
        for v in range(copy.num_nodes):
            assert index.cone(v) == fresh.cone(v)
