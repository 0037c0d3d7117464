"""Incremental netlist/graph modification for OP insertion (Section 4).

Inserting an observation point at node ``v`` means:

* netlist: add an ``OBS`` cell ``p`` with the single fanin ``v``;
* adjacency: grow both COO matrices by one row/column and append the new
  edge — the cheap COO update the paper highlights ("appending 3 tuples");
* attributes: append the paper's fresh-OP row ``[0, 1, 1, 0]`` for ``p``,
  then refresh the observability attribute of the nodes in ``v``'s fan-in
  cone via the incremental SCOAP relaxation.

:class:`IncrementalDesign` owns all three representations and keeps them
consistent; it also supports O(1) rollback of a tentative insertion, which
the impact evaluator leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atpg.cones import invalidate_cone_cache
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist
from repro.core.attributes import AttributeConfig, OP_ATTRIBUTES, normalize_attributes
from repro.core.graphdata import GraphData
from repro.testability.incremental import refresh_observability
from repro.testability.scoap import ScoapResult, compute_scoap

__all__ = ["IncrementalDesign"]


@dataclass
class _Checkpoint:
    """State needed to undo one tentative insertion."""

    n_nodes: int
    pred_nnz: int
    succ_nnz: int
    changed_co: list[tuple[int, float]]
    attr_rows: list[tuple[int, np.ndarray]]
    #: nodes this insertion added to the observed set
    observed_added: list[int]


class IncrementalDesign:
    """A netlist plus its GCN view, kept in sync under OP insertion."""

    def __init__(
        self,
        netlist: Netlist,
        attribute_config: AttributeConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.attribute_config = attribute_config or AttributeConfig()
        order = topological_order(netlist)
        self.levels = logic_levels(netlist, order)
        self.scoap: ScoapResult = compute_scoap(netlist, order)
        #: observation sites plus OBS cells, kept in step with every
        #: insert and rollback so CO relaxation never rescans the netlist
        self.observed: set[int] = set(netlist.observation_sites)
        self.observed.update(netlist.observation_points())
        self.graph = GraphData.from_netlist(
            netlist, attribute_config=self.attribute_config
        )
        # Capacity-doubled backing store so appends don't copy every time.
        n, width = self.graph.attributes.shape
        self._attr_store = np.empty((n + 16, width))
        self._attr_store[:n] = self.graph.attributes
        self.graph.attributes = self._attr_store[:n]

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.netlist.num_nodes

    def _attr_row(self, node: int) -> np.ndarray:
        raw = np.array(
            [
                float(self.levels[node]) if node < len(self.levels) else 0.0,
                self.scoap.cc0[node],
                self.scoap.cc1[node],
                self.scoap.co[node],
            ]
        )
        return normalize_attributes(raw[None, :], self.attribute_config)[0]

    def _append_attr_row(self, row: np.ndarray) -> None:
        n = self.graph.attributes.shape[0]
        if n == self._attr_store.shape[0]:
            grown = np.empty((2 * n, self._attr_store.shape[1]))
            grown[:n] = self._attr_store
            self._attr_store = grown
        self._attr_store[n] = row
        self.graph.attributes = self._attr_store[: n + 1]

    # ------------------------------------------------------------------ #
    def insert_op(self, target: int) -> tuple[int, _Checkpoint]:
        """Insert an OP at ``target``; returns (new node id, checkpoint)."""
        checkpoint = _Checkpoint(
            n_nodes=self.num_nodes,
            pred_nnz=self.graph.pred.nnz,
            succ_nnz=self.graph.succ.nnz,
            changed_co=[],
            attr_rows=[],
            observed_added=[],
        )
        # Drop the shared forward-cone index *before* the structure changes
        # so a concurrent reader can never warm it with mixed-generation
        # cones (see repro.atpg.cones).
        invalidate_cone_cache(self.netlist)
        p = self.netlist.insert_observation_point(target)
        n = self.netlist.num_nodes
        for v in (target, p):
            if v not in self.observed:
                self.observed.add(v)
                checkpoint.observed_added.append(v)
        self.graph.pred.resize((n, n))
        self.graph.succ.resize((n, n))
        self.graph.pred.append(1.0, p, target)
        self.graph.succ.append(1.0, target, p)

        # SCOAP bookkeeping: grow arrays, seed the OP row, relax the cone.
        self.scoap.cc0 = np.append(self.scoap.cc0, self.scoap.cc0[target] + 1.0)
        self.scoap.cc1 = np.append(self.scoap.cc1, self.scoap.cc1[target] + 1.0)
        self.scoap.co = np.append(self.scoap.co, 0.0)
        changed = refresh_observability(
            self.netlist, self.scoap, [target], self.levels, self.observed
        )
        checkpoint.changed_co = changed

        # Attribute refresh: new OP row + every node whose CO moved.
        self._append_attr_row(
            normalize_attributes(OP_ATTRIBUTES[None, :], self.attribute_config)[0]
        )
        for v in dict(changed):
            checkpoint.attr_rows.append((v, self.graph.attributes[v].copy()))
            self.graph.attributes[v] = self._attr_row(v)
        return p, checkpoint

    def rollback(self, checkpoint: _Checkpoint) -> None:
        """Undo the most recent insertion recorded in ``checkpoint``."""
        n = checkpoint.n_nodes
        invalidate_cone_cache(self.netlist)
        target = self.netlist._fanins[-1][0]
        self.netlist._types.pop()
        self.netlist._fanins.pop()
        removed_name = self.netlist._names.pop()
        if removed_name is not None:
            self.netlist._name_to_id.pop(removed_name, None)
        self.netlist._fanouts.pop()
        fo = self.netlist._fanouts[target]
        while fo and fo[-1] >= n:
            fo.pop()
        self.observed.difference_update(checkpoint.observed_added)
        self.graph.pred.truncate(checkpoint.pred_nnz, (n, n))
        self.graph.succ.truncate(checkpoint.succ_nnz, (n, n))
        self.scoap.cc0 = self.scoap.cc0[:n]
        self.scoap.cc1 = self.scoap.cc1[:n]
        self.scoap.co = self.scoap.co[:n]
        # Restore CO in reverse so repeated relaxations of one node unwind
        # to its original value.
        for v, co in reversed(checkpoint.changed_co):
            self.scoap.co[v] = co
        for v, row in checkpoint.attr_rows:
            self.graph.attributes[v] = row
        self.graph.attributes = self._attr_store[:n]
        # The pops above bypass the Netlist mutators, so the structural
        # version (and with it the memoised fingerprint) must be advanced
        # by hand — otherwise the reverted netlist would keep serving the
        # post-insert fingerprint and poison the cone cache.
        self.netlist.note_external_mutation()

    def tentative_insert(self, target: int):
        """Insert an OP, returning a zero-argument undo callable."""
        _, checkpoint = self.insert_op(target)

        def undo() -> None:
            self.rollback(checkpoint)

        return undo

    # ------------------------------------------------------------------ #
    def _fanin_cone(self, node: int) -> list[int]:
        """Backward (fan-in) cone of ``node``, node excluded."""
        seen = {node}
        stack = [node]
        cone: list[int] = []
        while stack:
            v = stack.pop()
            for u in self.netlist.fanins(v):
                if u not in seen:
                    seen.add(u)
                    cone.append(u)
                    stack.append(u)
        return cone

    def fanin_cone(self, node: int, include_self: bool = True) -> list[int]:
        """Public fan-in cone accessor (used by impact evaluation)."""
        cone = self._fanin_cone(node)
        if include_self:
            cone.append(node)
        return cone
