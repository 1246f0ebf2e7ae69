"""The consensus-round kernel: returns W v, row sums in ascending index order.

The update x(k+1) = W x+(k) is mandated to sum each row as the chain
acc = 0.0; acc = acc + w[i, j] * v[j] over the row's columns j in
ascending order, multiply then add (no fused multiply-add). ``step``
produces that chain's result bit for bit, sign of zero included; the
scalar loops in the tests are the reference it is checked against.

``step`` takes W slot-major: term s of row i is ``weights[s, i] *
v[cols[s, i]]``, and ``cols`` has the weights' (slots × n) shape. It
gathers the states with ``v.take(cols, axis=0)`` into a C-ordered block of
its own, multiplies the weights into that block in place, and sums it over
the slot axis with ``np.add.reduce``. NumPy sums pairwise only along the
fast memory axis of the block; along the slot axis of a C-ordered block it
adds one whole slot row at a time, in slot order, which is the mandated
chain. The product is written over the C-ordered gather, so the weights'
own memory order cannot change it. The per-node form passes the support
layout of ``privagg.weights.WeightMatrix`` (row i's support ascending,
padded with weight 0.0); the matrix form passes ``W`` itself, which is
``W.T`` because Metropolis weights are symmetric bit for bit, with the
(n × n) table ``cols[s, i] = s``, so slot s of every row is column s. The
block is allocated per call: ``take`` into a preallocated ``out=`` block
goes through a buffer in its default ``mode="raise"`` and measured slower.

Lanes are trailing: a state of shape (n, *lanes) holds independent states
of one graph (attack trials, or ``disclosure_attack``'s rounds). Its gather
copies whole rows of lanes into a (slots × n × *lanes) block, the weights
broadcast over the lanes, and the reduce over the slot axis still adds one
slot row at a time, so every lane matches its single-lane call bit for
bit. A caller that advances the same lanes many times may pass the weights
already repeated over the lanes, (slots × n × *lanes): the product is then
one flat loop instead of one short loop per weight. Engine runs pass a 1-D
state. A block with a single output value (a one-column layout, as
``disclosure_attack``'s target row, with one lane) has its slots in fast
memory, and the reduce would add them pairwise from eight slots on;
``step`` sums that block with ``np.add.accumulate`` along the slots
instead, which adds them in order.

Adding +0.0 to a running sum leaves it unchanged unless it is -0.0, so
zero weights, wherever they sit, do not alter any total. The chain starts
from ``acc = 0.0`` and therefore never ends at -0.0. NumPy 2.4's reduce
starts from add's identity +0.0 as well, but a reduce that starts from
the first product (as ``np.add.accumulate`` does) ends at -0.0 on an
all-zero row with a -0.0 product. The trailing ``+ 0.0`` maps -0.0 to
+0.0 and leaves every other value alone, so the sign of zero matches
either way.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


def step(weights, cols, v):
    """W v as a new array, aliasing neither argument; see the module docstring."""
    terms = v.take(cols, axis=0)
    if weights.ndim < terms.ndim:  # trailing lanes: every weight broadcasts over them
        weights = weights.reshape(weights.shape + (1,) * (terms.ndim - weights.ndim))
    np.multiply(weights, terms, out=terms)
    if terms.size == len(terms):  # a single output value
        return np.add.accumulate(terms, axis=0)[-1] + 0.0
    out = np.add.reduce(terms, axis=0)
    out += 0.0
    return out


class Backend(NamedTuple):
    """The kernel a run uses; a test or profiler can substitute its own."""

    name: str
    step: Callable


_NUMPY = Backend("python", step)


def get_backend() -> Backend:
    """The kernel the engine and the attacks call, looked up at run time."""
    return _NUMPY
