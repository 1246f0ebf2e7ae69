"""Undirected logical-link graphs that consensus runs on.

Nodes are ids 0..n-1 and edges are unordered pairs without self-loops. A
node keeps its id for good: ``remove_node`` retires it (``Graph.retired``)
and renumbers no other. ``build_graph`` takes any edge set, connected or
not. ``generate`` and ``apply_event`` return only graphs whose live nodes
are connected: random kinds retry a bounded number of times and then fail
loudly, and an event that would disconnect the graph is rejected.

``Graph.connected`` searches a graph at most once and keeps the answer.
``generate`` and ``apply_event`` set it on the graphs they return, and
``apply_event`` checks an event on a connected graph locally, never by a
search of the whole graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .noise import seeded_stream

CONNECT_RETRIES = 100

GRAPH_KINDS = ("ring", "path", "complete", "random_gnp", "random_geometric")
EVENT_KINDS = ("remove_edge", "add_edge", "remove_node")


class ConnectivityError(RuntimeError):
    """A graph (or a requested mutation of one) cannot satisfy connectivity."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; safe to share across concurrent runs.

    neighbors[i] is the sorted tuple N_i; a retired node's is (). n counts
    every id, retired ones too.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    retired: frozenset[int] = frozenset()

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j) with i < j, sorted; derived from neighbors, not a field."""
        return tuple((i, j) for i, nbrs in enumerate(self.neighbors) for j in nbrs if j > i)

    @cached_property
    def connected(self) -> bool:
        """is_connected(self), searched at most once per Graph object; not a
        field, so ==, hash and repr ignore it."""
        return is_connected(self)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def has_edge(self, i: int, j: int) -> bool:
        a, b = (i, j) if i < j else (j, i)
        return b in self.neighbors[a]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and normalize an edge set into a Graph."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    norm = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) references a node outside 0..{n - 1}")
        norm.add((i, j) if i < j else (j, i))
    edges = tuple(sorted(norm))
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    g = Graph(n, tuple(tuple(sorted(b)) for b in nbrs))
    g.__dict__["edges"] = edges  # the pairs are sorted already
    return g


def is_connected(g: Graph) -> bool:
    """True iff one traversal from the lowest live node reaches every live node."""
    live = set(range(g.n)) - g.retired
    return _reaches(g, min(live), live)


def _reaches(g: Graph, start: int, targets: set[int]) -> bool:
    """True iff a traversal of g from start reaches every node in targets; it
    stops as soon as it has."""
    left = targets - {start}
    seen = {start}
    queue = deque([start])
    while left and queue:
        for v in g.neighbors[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                left.discard(v)
                queue.append(v)
    return not left


def _ring_edges(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def check_graph_params(
    kind: str, n: int, seed: int | None, p: float | None, radius: float | None
) -> None:
    """Reject parameters generate cannot use; each message starts with the field."""
    if kind not in GRAPH_KINDS:
        raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind in ("random_gnp", "random_geometric") and seed is None:
        raise ValueError(f"seed is required for kind {kind!r}")
    if kind in ("random_gnp", "random_geometric") and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if kind == "random_gnp" and (p is None or not 0.0 <= p <= 1.0):
        raise ValueError("p in [0, 1] is required for random_gnp")
    if kind == "random_geometric" and (radius is None or not radius > 0.0):
        raise ValueError("radius > 0 is required for random_geometric")


def generate(
    kind: str,
    n: int,
    seed: int | None = None,
    p: float | None = None,
    radius: float | None = None,
) -> Graph:
    """Generate a connected graph of the given kind.

    Random kinds (random_gnp needs p, random_geometric needs radius) require a
    seed and are redrawn up to CONNECT_RETRIES times until connected;
    deterministic kinds ignore the seed.
    """
    check_graph_params(kind, n, seed, p, radius)
    if kind == "ring":
        return build_graph(n, _ring_edges(n))
    if kind == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    rng = seeded_stream(seed)
    for _ in range(CONNECT_RETRIES):
        # the pairs i < j row by row: gnp draws a row of n values per i, the
        # geometric kind all positions first
        pos = rng.random((n, 2)) if kind == "random_geometric" else None
        edges = []
        for i in range(n):
            if pos is None:
                keep = rng.random(n)[i + 1 :] < p
            else:
                keep = np.hypot(*(pos[i] - pos[i + 1 :]).T) <= radius
            edges += [(i, j) for j in (np.flatnonzero(keep) + i + 1).tolist()]
        g = build_graph(n, edges)
        if g.connected:
            return g
    raise ConnectivityError(
        f"no connected {kind} graph with n={n} after {CONNECT_RETRIES} draws; "
        "check the kind-specific parameters"
    )


@dataclass(frozen=True)
class TopologyEvent:
    """A scheduled topology change; payload is an (i, j) pair for edge events
    or a node id for remove_node."""

    at_iteration: int
    kind: str
    payload: tuple[int, int] | int

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError("event iteration must be >= 0")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "remove_node":
            if not isinstance(self.payload, int):
                raise ValueError("remove_node payload must be a node id")
        elif not (isinstance(self.payload, tuple) and len(self.payload) == 2):
            raise ValueError(f"{self.kind} payload must be an (i, j) pair")


def apply_event(g: Graph, event: TopologyEvent) -> Graph:
    """Apply one event, returning a new Graph; rejects changes that would
    disconnect the surviving graph, and events that name a retired node.

    The event edits g in place of a rebuild: an edge event inserts or cuts
    the pair in its two end nodes' neighbour tuples, and remove_node retires
    the node, cutting it from each former neighbour's tuple. Every other
    neighbour tuple is shared with g. The result's neighbour tuples equal
    those of build_graph of the new edge set.

    When g is connected the check is local, since every surviving node still
    reaches an end node of the event: an added edge needs none, a removed
    edge (a, b) a search from a that stops once it reaches b, and a removed
    node a search from one former neighbour that stops once it reaches the
    others. Otherwise the whole new graph is searched. The result's
    ``connected`` is set either way.
    """
    nbrs = list(g.neighbors)
    retired = g.retired
    if event.kind == "remove_node":
        node = event.payload
        assert isinstance(node, int)
        if not (0 <= node < g.n):
            raise ValueError(f"remove_node: node {node} not in graph")
        if node in retired:
            raise ValueError(f"remove_node: node {node} is not present")
        if g.n - len(retired) == 1:
            raise ConnectivityError("remove_node: cannot remove the last node")
        ends = g.neighbors[node]
        for u in ends:
            nbrs[u] = tuple(v for v in nbrs[u] if v != node)
        nbrs[node] = ()
        retired = retired | {node}
    else:
        i, j = event.payload  # type: ignore[misc]
        if not (0 <= i < g.n and 0 <= j < g.n):
            raise ValueError(f"{event.kind}: edge ({i},{j}) references a missing node")
        if i in retired or j in retired:
            raise ValueError(f"{event.kind}: node in ({i},{j}) is not present")
        if i == j:
            raise ValueError(f"{event.kind}: self-loop ({i},{j}) not allowed")
        a, b = (i, j) if i < j else (j, i)
        na, nb = g.neighbors[a], g.neighbors[b]
        ia, ib = bisect_left(na, b), bisect_left(nb, a)
        present = b in na
        if event.kind == "remove_edge":
            if not present:
                raise ValueError(f"remove_edge: ({a},{b}) is not an edge")
            nbrs[a] = na[:ia] + na[ia + 1 :]
            nbrs[b] = nb[:ib] + nb[ib + 1 :]
        else:
            if present:
                raise ValueError(f"add_edge: ({a},{b}) already present")
            nbrs[a] = na[:ia] + (b,) + na[ia:]
            nbrs[b] = nb[:ib] + (a,) + nb[ib:]
        ends = (a, b)
    new = Graph(g.n, tuple(nbrs), retired)
    if not g.connected:
        connected = is_connected(new)
    elif event.kind == "add_edge":
        connected = True
    else:
        connected = _reaches(new, ends[0], set(ends[1:]))
    if not connected:
        raise ConnectivityError(
            f"event {event.kind} {event.payload} at iteration {event.at_iteration} "
            "would disconnect the graph; rejected"
        )
    new.__dict__["connected"] = True
    return new


def check_privacy_precondition(g: Graph, i: int, j: int) -> bool:
    """True iff target j has at least one neighbor whose broadcasts observer i
    cannot see, i.e. N_j is not contained in N_i ∪ {i}. Requires j ∈ N_i."""
    if j not in g.neighbors[i]:
        raise ValueError(f"node {j} is not a neighbor of node {i}")
    visible = set(g.neighbors[i]) | {i}
    return not set(g.neighbors[j]) <= visible

