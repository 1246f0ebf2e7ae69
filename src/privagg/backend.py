"""The consensus-round kernels: out = W v, row sums in ascending index order.

The update x(k+1) = W x+(k) is mandated to sum each row as the chain
acc = 0.0; acc = acc + w[i, j] * v[j] over the row's columns j in
ascending order, multiply then add (no fused multiply-add). Both forms
below produce that chain's result bit for bit, sign of zero included;
the scalar loops in the tests are the reference they are checked against.

Both kernels form the products w[i, j] * v[j] in one elementwise multiply
and sum each row with ``np.add.accumulate`` along the row. Unlike
``np.sum`` (pairwise), accumulate adds strictly left to right.

The neighbor form scatters row i's support products into a zero-padded
(n x max-support) array, support in ascending index order and the tail
of the row 0.0. Adding +0.0 to a running sum leaves it unchanged unless
it is -0.0, so the padding does not alter any total.

The chain starts from ``acc = 0.0`` and therefore never ends at -0.0,
while accumulate starts from the first product and may (all-zero rows
with a -0.0 product). The trailing ``+ 0.0`` maps -0.0 to +0.0 and leaves
every other value alone, so the sign of zero matches too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


def dense_step(w, v, out):
    out[:] = np.add.accumulate(w * v, axis=1)[:, -1] + 0.0


def neighbor_step(w, indptr, indices, v, out):
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(len(counts)), counts)
    slots = np.arange(len(indices)) - np.repeat(indptr[:-1], counts)
    padded = np.zeros((len(counts), counts.max(initial=1)))
    padded[rows, slots] = w[rows, indices] * v[indices]
    out[:] = np.add.accumulate(padded, axis=1)[:, -1] + 0.0


class Backend(NamedTuple):
    """The kernel pair a run uses; a test or profiler can substitute its own."""

    name: str
    dense_step: Callable
    neighbor_step: Callable


_NUMPY = Backend("python", dense_step, neighbor_step)


def get_backend() -> Backend:
    """The kernels the engine and the attacks call, looked up at run time."""
    return _NUMPY
