"""Metropolis weight matrices and the contraction diagnostics built on them.

The Metropolis rule w_ij = 1/(1 + max(d_i, d_j)) for neighbors (diagonal
absorbing the rest) needs only local degree information and yields a
symmetric doubly-stochastic matrix on any connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Graph, is_connected


@dataclass(frozen=True)
class WeightMatrix:
    """Dense n×n doubly-stochastic weight matrix; array is read-only."""

    n: int
    w: np.ndarray


def metropolis(g: Graph) -> WeightMatrix:
    """Build the Metropolis weight matrix for a connected graph."""
    if not is_connected(g):
        raise ValueError("weights require a connected graph")
    n = g.n
    w = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        off = 0.0
        for j in g.neighbors[i]:  # ascending ids: deterministic diagonal
            wij = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
            w[i, j] = wij
            off += wij
        w[i, i] = 1.0 - off
    w.setflags(write=False)
    return WeightMatrix(n, w)


def contraction_factor(wm: WeightMatrix) -> float:
    """max over columns of the column minimum of W^n (n = dimension).

    Computed by plain iterated multiplication; strictly positive for
    connected graphs because W^n > 0, and 1.0 for a single node.
    """
    power = np.array(wm.w)
    for _ in range(wm.n - 1):
        power = power @ wm.w
    return float(np.max(np.min(power, axis=0)))

