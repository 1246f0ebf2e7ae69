"""Metropolis weights and the contraction diagnostics built on them.

The Metropolis rule w_ij = 1/(1 + max(d_i, d_j)) for neighbors (diagonal
absorbing the rest) needs only the degrees of i and j and yields a
symmetric doubly-stochastic matrix on any connected graph.

Column i of the layout depends only on N_i and the degrees of i and its
neighbours, so one builder fills the columns of any node set from the
graph's neighbour tuples: every column for a new graph, and after topology
events only those of the nodes whose tuple changed and of their
neighbours, the rest copied from the previous segment's layout. A retired
node has no neighbours, so its column is itself with weight 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .topology import Graph


@dataclass(frozen=True)
class WeightMatrix:
    """Doubly-stochastic weights in slot-major ELLPACK layout: column i of
    ``cols`` is row i's support {i} ∪ N_i in ascending order, column i of
    ``weights`` the matching w_ij, and the tail is padded with column i and
    weight 0.0. Both arrays are (max degree + 1) × n and read-only."""

    n: int
    cols: np.ndarray
    weights: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """The dense n×n matrix, formed from the layout on each access; read-only."""
        w = np.zeros((self.n, self.n))
        np.add.at(w, (np.arange(self.n), self.cols), self.weights)  # padding adds 0.0
        w.setflags(write=False)
        return w


def metropolis(
    g: Graph, base: tuple[Graph, WeightMatrix] | None = None
) -> WeightMatrix:
    """Build the Metropolis weights of a connected graph.

    ``base=(old_g, old_wm)`` passes the weights of an earlier graph on the
    same n ids, as ``topology.apply_event`` makes them; the caller then
    vouches for g's connectivity (``apply_event`` has checked it). Without
    a base it reads ``g.connected``, which searches g only if nothing has
    yet: ``generate`` and ``apply_event`` set it. With a base only the
    columns that can differ are rebuilt: those of the nodes whose neighbour
    tuple changed, and of their neighbours in g (w_ij follows d_i). Every
    other column is copied, and the slot rows are grown or trimmed to g's
    max degree + 1. The result equals ``metropolis(g)``.
    """
    if base is None and not g.connected:
        raise ValueError("weights require a connected graph")
    n = g.n
    degree = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=n)
    slots = int(degree.max()) + 1
    cols = np.empty((slots, n), dtype=np.intp)
    weights = np.empty((slots, n))
    if base is None:
        nodes = np.arange(n)
    else:
        old_g, old = base
        changed = [
            i
            for i, (new, prev) in enumerate(zip(g.neighbors, old_g.neighbors))
            if new is not prev and new != prev
        ]
        touched = set(changed).union(*(g.neighbors[i] for i in changed))
        nodes = np.array(sorted(touched), dtype=np.intp)
        kept = min(slots, old.cols.shape[0])
        cols[:kept] = old.cols[:kept]
        cols[kept:] = np.arange(n)
        weights[:kept] = old.weights[:kept]
        weights[kept:] = 0.0
    _fill_columns(g, nodes, degree, cols, weights)
    cols.setflags(write=False)
    weights.setflags(write=False)
    return WeightMatrix(n, cols, weights)


def _fill_columns(
    g: Graph, nodes: np.ndarray, degree: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> None:
    """Write the layout columns of ``nodes`` in place, from g's neighbour
    tuples: node i's sorted N_i with i inserted at its place, then padding."""
    count = degree[nodes]
    nbrs = np.fromiter(
        chain.from_iterable(g.neighbors[i] for i in nodes.tolist()),
        dtype=np.intp,
        count=int(count.sum()),
    )
    owner_at = np.repeat(np.arange(len(nodes)), count)
    owner = nodes[owner_at]
    above = nbrs > owner  # i sits before these, so they move down one slot
    slot = np.arange(len(nbrs)) - (np.cumsum(count) - count)[owner_at] + above
    cols[:, nodes] = nodes  # the diagonal and the padding
    weights[:, nodes] = 0.0
    cols[slot, owner] = nbrs
    weights[slot, owner] = 1.0 / (1.0 + np.maximum(degree[owner], degree[nbrs]))
    # off-diagonal sum in ascending neighbor order from 0.0; the 0.0 at the
    # diagonal slot and the padding leave every partial sum unchanged
    diagonal = np.bincount(owner_at[~above], minlength=len(nodes))  # neighbours below i
    weights[diagonal, nodes] = 1.0 - np.add.accumulate(weights[:, nodes], axis=0)[-1]


def contraction_factor(wm: WeightMatrix) -> float:
    """max over columns of the column minimum of W^n (n = dimension).

    Strictly positive for connected graphs because W^n > 0, and 1.0 for a
    single node. W^n is computed by repeated squaring
    (np.linalg.matrix_power), about 2 log2(n) dense n x n products, so
    O(n^3 log n): about 0.02 s at n=400 on one 2-core machine.
    """
    power = np.linalg.matrix_power(wm.w, wm.n)
    return float(np.max(np.min(power, axis=0)))
