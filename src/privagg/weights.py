"""Metropolis weights and the contraction diagnostics built on them.

The Metropolis rule w_ij = 1/(1 + max(d_i, d_j)) for neighbors (diagonal
absorbing the rest) needs only the degrees of i and j and yields a
symmetric doubly-stochastic matrix on any connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Graph, is_connected


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


def metropolis(g: Graph) -> WeightMatrix:
    """Build the Metropolis weights of a connected graph."""
    if not is_connected(g):
        raise ValueError("weights require a connected graph")
    n = g.n
    degree = np.array([len(nbrs) for nbrs in g.neighbors], dtype=np.intp)
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    # every support entry: both directions of each edge and the diagonal,
    # ordered by row, then column
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(degree + 1) - degree - 1, degree + 1)
    diagonal = rows == cols
    layout_cols = np.tile(np.arange(n), (int(degree.max()) + 1, 1))
    layout_cols[slots, rows] = cols
    weights = np.zeros(layout_cols.shape)
    weights[slots, rows] = np.where(
        diagonal, 0.0, 1.0 / (1.0 + np.maximum(degree[rows], degree[cols]))
    )
    # off-diagonal sum in ascending neighbor order from 0.0; the 0.0 at the
    # diagonal slot and the padding leave every partial sum unchanged
    weights[slots[diagonal], rows[diagonal]] = 1.0 - np.add.accumulate(weights, axis=0)[-1]
    layout_cols.setflags(write=False)
    weights.setflags(write=False)
    return WeightMatrix(n, layout_cols, weights)


def contraction_factor(wm: WeightMatrix) -> float:
    """max over columns of the column minimum of W^n (n = dimension).

    Computed by plain iterated multiplication; strictly positive for
    connected graphs because W^n > 0, and 1.0 for a single node.
    """
    w = wm.w
    power = np.array(w)
    for _ in range(wm.n - 1):
        power = power @ w
    return float(np.max(np.min(power, axis=0)))
