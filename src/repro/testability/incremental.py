"""Incremental SCOAP update after observation-point insertion.

The paper's iterative OPI flow (Section 4) re-runs GCN inference after each
insertion round, which requires refreshed node attributes.  Recomputing
SCOAP from scratch is O(V + E); inserting an OP only improves observability
inside the fan-in cone of the target, so this module performs the backward
relaxation from the insertion point and touches exactly the nodes whose
``CO`` can change.  Controllability is unaffected by adding an OP (the OP
is a pure sink), so ``CC0``/``CC1`` are reused.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.circuit.netlist import Netlist
from repro.testability.scoap import ScoapResult, branch_observability

__all__ = ["refresh_observability"]


def refresh_observability(
    netlist: Netlist,
    scoap: ScoapResult,
    seeds: list[int],
    levels: np.ndarray,
    observed: set[int],
) -> list[tuple[int, float]]:
    """Backward relaxation of ``CO`` from ``seeds``.

    ``observed`` is the netlist's observed set — ``observation_sites``
    plus ``observation_points()`` — which the caller keeps in step with
    its edits (:class:`~repro.flow.modify.IncrementalDesign` does), so
    one relaxation costs its fan-in cone and never a scan of the whole
    netlist.  Returns ``(node, previous_co)`` for every node whose CO
    changed, which lets callers undo the relaxation cheaply.

    Processes candidates highest-logic-level first (a node's CO depends only
    on its fanouts, which sit at higher levels), re-queuing fanins whenever a
    node's CO improves.  Only decreases are propagated — adding an OP can
    never worsen observability.
    """
    def level_of(v: int) -> int:
        return int(levels[v]) if v < len(levels) else int(levels.max(initial=0) + 1)

    heap: list[tuple[int, int]] = []
    queued: set[int] = set()
    for s in seeds:
        heapq.heappush(heap, (-level_of(s), s))
        queued.add(s)

    changed: list[tuple[int, float]] = []
    while heap:
        _, v = heapq.heappop(heap)
        queued.discard(v)
        if v in observed:
            new_co = 0.0
        else:
            new_co = branch_observability(netlist, v, scoap.cc0, scoap.cc1, scoap.co)
        if new_co < scoap.co[v] - 1e-12:
            changed.append((v, float(scoap.co[v])))
            scoap.co[v] = new_co
            for u in netlist.fanins(v):
                if u not in queued:
                    heapq.heappush(heap, (-level_of(u), u))
                    queued.add(u)
    return changed
