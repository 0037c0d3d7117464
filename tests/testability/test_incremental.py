"""Incremental SCOAP updates (``IncrementalDesign.insert_op``) vs full
recomputation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.flow.modify import IncrementalDesign
from repro.testability.scoap import compute_scoap


class TestUpdateAfterOp:
    def _insert_and_compare(self, netlist, target):
        design = IncrementalDesign(netlist)
        design.insert_op(target)
        fresh = compute_scoap(netlist)
        assert np.allclose(design.scoap.cc0, fresh.cc0)
        assert np.allclose(design.scoap.cc1, fresh.cc1)
        assert np.allclose(design.scoap.co, fresh.co)

    def test_c17_all_targets(self, c17):
        for target in list(c17.nodes()):
            self._insert_and_compare(c17.copy(), target)

    def test_generated_design_sample_targets(self, rng):
        nl = generate_design(300, seed=23)
        for target in rng.choice(nl.num_nodes, size=8, replace=False):
            self._insert_and_compare(nl.copy(), int(target))

    def test_sequential_insertions_stay_consistent(self, rng):
        nl = generate_design(200, seed=29)
        design = IncrementalDesign(nl)
        for target in rng.choice(nl.num_nodes, size=5, replace=False):
            design.insert_op(int(target))
        fresh = compute_scoap(nl)
        assert np.allclose(design.scoap.co, fresh.co)
        assert np.allclose(design.scoap.cc0, fresh.cc0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), target_frac=st.floats(0.0, 0.999))
    def test_property_incremental_equals_fresh(self, seed, target_frac):
        nl = generate_design(80, seed=seed)
        target = int(target_frac * nl.num_nodes)
        self._insert_and_compare(nl, target)

    def test_co_never_increases(self, c17):
        design = IncrementalDesign(c17)
        before = design.scoap.co.copy()
        design.insert_op(c17.find("G11"))
        assert (design.scoap.co[: len(before)] <= before + 1e-12).all()

    def test_target_becomes_perfectly_observable(self, and_chain):
        design = IncrementalDesign(and_chain)
        g1 = and_chain.find("g1")
        assert design.scoap.co[g1] > 0
        design.insert_op(g1)
        assert design.scoap.co[g1] == 0.0
