"""Netlist-to-graph export.

Produces the two directed adjacency structures the GCN aggregates over —
predecessor (fanin) and successor (fanout) relations — in COO form.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist
from repro.nn.sparse import COOMatrix

__all__ = ["edge_arrays", "adjacency_pair"]


def edge_arrays(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """Return (drivers, sinks) index arrays for every wire in the netlist."""
    n_edges = netlist.num_edges
    drivers = np.empty(n_edges, dtype=np.int64)
    sinks = np.empty(n_edges, dtype=np.int64)
    k = 0
    for sink in netlist.nodes():
        for driver in netlist.fanins(sink):
            drivers[k] = driver
            sinks[k] = sink
            k += 1
    return drivers, sinks


def adjacency_pair(netlist: Netlist) -> tuple[COOMatrix, COOMatrix]:
    """Build the (predecessor, successor) aggregation matrices.

    ``pred[v, u] = 1`` when ``u`` drives ``v`` — so ``pred @ E`` sums each
    node's fanin embeddings.  ``succ`` is its transpose and sums fanout
    embeddings.  The paper folds these plus the identity into one weighted
    adjacency (Equation 2); we keep them separate so the aggregation weights
    ``w_pr``/``w_su`` stay learnable scalars outside the matrix.
    """
    drivers, sinks = edge_arrays(netlist)
    n = netlist.num_nodes
    values = np.ones(len(drivers), dtype=np.float64)
    pred = COOMatrix((n, n), values, rows=sinks, cols=drivers)
    succ = COOMatrix((n, n), values.copy(), rows=drivers.copy(), cols=sinks.copy())
    return pred, succ

