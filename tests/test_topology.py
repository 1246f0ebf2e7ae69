from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privagg import topology
from privagg.topology import (
    CONNECT_RETRIES,
    EVENT_KINDS,
    ConnectivityError,
    Graph,
    TopologyEvent,
    apply_event,
    build_graph,
    check_privacy_precondition,
    generate,
    is_connected,
)
from privagg.weights import metropolis


def test_path_structure():
    g = generate("path", 3)
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors[1] == (0, 2)


def test_complete_structure():
    g = generate("complete", 3)
    assert len(g.edges) == 3
    assert all(g.degree(i) == 2 for i in range(3))


def test_ring_structure():
    g = generate("ring", 4)
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert generate("ring", 2).edges == ((0, 1),)
    assert generate("ring", 1).edges == ()


def test_gnp_deterministic_under_seed():
    a = generate("random_gnp", 20, seed=7, p=0.3)
    b = generate("random_gnp", 20, seed=7, p=0.3)
    assert a.edges == b.edges
    c = generate("random_gnp", 20, seed=8, p=0.3)
    assert c.edges != a.edges


def test_geometric_deterministic_and_connected():
    a = generate("random_geometric", 15, seed=3, radius=0.5)
    b = generate("random_geometric", 15, seed=3, radius=0.5)
    assert a.edges == b.edges
    assert is_connected(a)


def _loop_generate(kind, n, seed, p=None, radius=None):
    """Reference: the random kinds drawn pair by pair, i < j row by row."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for _ in range(CONNECT_RETRIES):
        if kind == "random_gnp":
            draws = rng.random((n, n))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draws[i, j] < p]
        else:
            pos = rng.random((n, 2))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if float(np.hypot(*(pos[i] - pos[j]))) <= radius
            ]
        g = build_graph(n, edges)
        if is_connected(g):
            return g
    raise ConnectivityError(kind)


@pytest.mark.parametrize(
    "kind, params",
    [("random_gnp", {"p": 0.3}), ("random_gnp", {"p": 0.8}),
     ("random_geometric", {"radius": 0.35}), ("random_geometric", {"radius": 0.7})],
)
def test_random_kinds_match_pair_loop_reference(kind, params):
    for n in (1, 2, 9, 40, 150):
        for seed in (0, 1, 17, 2**31 - 1):
            try:
                want = _loop_generate(kind, n, seed, **params)
            except ConnectivityError:
                with pytest.raises(ConnectivityError):
                    generate(kind, n, seed=seed, **params)
                continue
            assert generate(kind, n, seed=seed, **params) == want, (n, seed)


def test_is_connected_cases():
    assert is_connected(generate("path", 3))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))


def test_generate_rejects_unconnectable():
    with pytest.raises(ConnectivityError):
        generate("random_gnp", 2, seed=1, p=0.0)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("path", 0)
    with pytest.raises(ValueError):
        generate("triangle_mesh", 3)
    with pytest.raises(ValueError):
        generate("random_gnp", 5, p=0.5)  # no seed
    with pytest.raises(ValueError):
        generate("random_gnp", 5, seed=1)  # no p
    with pytest.raises(ValueError):
        generate("random_geometric", 5, seed=1)  # no radius


def test_build_graph_validation():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 5)])


def test_apply_event_remove_edge():
    g = generate("complete", 3)
    out = apply_event(g, TopologyEvent(0, "remove_edge", (0, 1)))
    assert is_connected(out)
    assert out.edges == ((0, 2), (1, 2))
    with pytest.raises(ConnectivityError):
        apply_event(generate("path", 3), TopologyEvent(0, "remove_edge", (0, 1)))


def test_apply_event_add_edge():
    g = generate("ring", 4)
    out = apply_event(g, TopologyEvent(2, "add_edge", (0, 2)))
    assert out.degree(0) == 3
    with pytest.raises(ValueError):
        apply_event(out, TopologyEvent(3, "add_edge", (0, 2)))  # already present


def test_apply_event_remove_node():
    g = generate("ring", 4)
    out = apply_event(g, TopologyEvent(1, "remove_node", 2))
    assert out.n == 4 and out.retired == {2} and out.neighbors[2] == ()
    assert out.edges == ((0, 1), (0, 3))  # survivors 0,1,3 keep their ids
    with pytest.raises(ConnectivityError):
        apply_event(generate("path", 3), TopologyEvent(0, "remove_node", 1))


def test_apply_event_contract_errors():
    g = generate("path", 3)
    with pytest.raises(ValueError):
        apply_event(g, TopologyEvent(0, "remove_edge", (0, 2)))  # not an edge
    with pytest.raises(ValueError):
        apply_event(g, TopologyEvent(0, "add_edge", (1, 1)))
    with pytest.raises(ValueError):
        apply_event(g, TopologyEvent(0, "remove_node", 9))
    with pytest.raises(ValueError):
        TopologyEvent(0, "swap_edge", (0, 1))
    with pytest.raises(ConnectivityError):
        apply_event(build_graph(1, []), TopologyEvent(0, "remove_node", 0))


def _rebuild_apply_event(g, event):
    """Reference: apply_event with the whole graph rebuilt from the new edge
    set; a removed node joins the retired set."""
    retired = g.retired
    if event.kind == "remove_node":
        node = event.payload
        if not (0 <= node < g.n):
            raise ValueError(f"remove_node: node {node} not in graph")
        if node in retired:
            raise ValueError(f"remove_node: node {node} is not present")
        if g.n - len(retired) == 1:
            raise ConnectivityError("remove_node: cannot remove the last node")
        new = build_graph(g.n, [e for e in g.edges if node not in e])
        retired = retired | {node}
    else:
        i, j = event.payload
        if not (0 <= i < g.n and 0 <= j < g.n):
            raise ValueError(f"{event.kind}: edge ({i},{j}) references a missing node")
        if i in retired or j in retired:
            raise ValueError(f"{event.kind}: node in ({i},{j}) is not present")
        if i == j:
            raise ValueError(f"{event.kind}: self-loop ({i},{j}) not allowed")
        a, b = (i, j) if i < j else (j, i)
        present = b in g.neighbors[a]
        if event.kind == "remove_edge":
            if not present:
                raise ValueError(f"remove_edge: ({a},{b}) is not an edge")
            new = build_graph(g.n, [e for e in g.edges if e != (a, b)])
        else:
            if present:
                raise ValueError(f"add_edge: ({a},{b}) already present")
            new = build_graph(g.n, list(g.edges) + [(a, b)])
    new = replace(new, retired=retired)
    if not is_connected(new):
        raise ConnectivityError(
            f"event {event.kind} {event.payload} at iteration {event.at_iteration} "
            "would disconnect the graph; rejected"
        )
    return new


@st.composite
def _graph_and_events(draw):
    """A random graph, mostly a spanning tree plus random edges, and a random
    event sequence; each step's pick chooses a present edge to remove or an
    absent pair to add three times in four, else the drawn pair (present,
    absent, a self-loop or out of range)."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    if draw(st.integers(0, 3)):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        kind = draw(st.sampled_from(EVENT_KINDS))
        ends = st.integers(min_value=-1, max_value=n)
        steps.append((kind, draw(ends), draw(ends), draw(st.integers(0, 2**16))))
    return build_graph(n, edges), steps


@settings(max_examples=300)
@given(case=_graph_and_events())
def test_apply_event_matches_rebuild_reference(case):
    g, steps = case
    for at, (kind, i, j, pick) in enumerate(steps):
        live = [a for a in range(g.n) if a not in g.retired]
        absent = [(a, b) for a in live for b in live if a < b and not g.has_edge(a, b)]
        candidates = g.edges if kind == "remove_edge" else absent
        if kind == "remove_node":
            payload = i
        elif candidates and pick % 4:
            payload = candidates[pick % len(candidates)][:: 1 if pick % 2 else -1]
        else:
            payload = (i, j)
        event = TopologyEvent(at, kind, payload)
        try:
            want = _rebuild_apply_event(g, event)
        except (ValueError, ConnectivityError) as exc:
            with pytest.raises(type(exc)) as got:
                apply_event(g, event)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        new = apply_event(g, event)
        assert new == want and hash(new) == hash(want)
        g = new


_PATH_3 = build_graph(3, [(0, 1), (1, 2)])
_BOWTIE = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])  # cut vertex 2


@st.composite
def _connected_graph_and_events(draw):
    """A connected graph with bridges and cut vertices, a random spanning tree
    with at most n // 2 more edges, and a sequence of picks: a present edge
    to remove (a bridge or not), an absent pair to add or a node to remove
    (a cut vertex or not)."""
    n = draw(st.integers(min_value=2, max_value=14))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n // 2))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(EVENT_KINDS), st.integers(0, 2**16)),
            min_size=1,
            max_size=15,
        )
    )
    return build_graph(n, edges), steps


@settings(max_examples=300)
@given(case=_connected_graph_and_events())
@example(case=(_PATH_3, [("remove_edge", 0), ("remove_node", 1), ("remove_node", 0)]))
@example(
    case=(_BOWTIE, [("remove_node", 2), ("remove_edge", 3), ("remove_edge", 1), ("remove_edge", 5)])
)
def test_local_connectivity_checks_match_a_full_search(case):
    # every event here meets a connected graph, so apply_event takes its
    # local checks; they must give what the full-search reference gives
    g, steps = case
    assert g.connected
    for at, (kind, pick) in enumerate(steps):
        live = [a for a in range(g.n) if a not in g.retired]
        if kind == "remove_node":
            payload = live[pick % len(live)]
        else:
            absent = [(a, b) for a in live for b in live if a < b and not g.has_edge(a, b)]
            candidates = g.edges if kind == "remove_edge" else absent
            if not candidates:
                continue
            payload = candidates[pick % len(candidates)][:: 1 if pick % 2 else -1]
        event = TopologyEvent(at, kind, payload)
        try:
            want = _rebuild_apply_event(g, event)
        except (ValueError, ConnectivityError) as exc:
            with pytest.raises(type(exc)) as got:
                apply_event(g, event)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        new = apply_event(g, event)
        assert new == want
        assert new.__dict__["connected"] and is_connected(new)
        g = new


def test_events_on_a_connected_graph_run_no_full_search(monkeypatch):
    searched = []

    def counted(graph):
        searched.append(graph)
        return is_connected(graph)

    monkeypatch.setattr("privagg.topology.is_connected", counted)
    # a triangle 0-1-2 with a tail 2-3-4: (2, 3) is a bridge, 2 and 3 are cut vertices
    start = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert start.connected and searched == [start]
    g = apply_event(start, TopologyEvent(0, "remove_edge", (0, 1)))
    g = apply_event(g, TopologyEvent(1, "add_edge", (1, 0)))
    for kind, payload in (("remove_edge", (3, 2)), ("remove_node", 3), ("remove_node", 2)):
        with pytest.raises(ConnectivityError):
            apply_event(g, TopologyEvent(2, kind, payload))
    g = apply_event(g, TopologyEvent(3, "remove_node", 4))
    assert g.__dict__["connected"] and metropolis(g).n == 5
    assert searched == [start]

    # a graph not known to be connected is searched once, and so is each
    # graph an event on it makes; no Graph object is searched twice
    parts = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ConnectivityError):
        apply_event(parts, TopologyEvent(0, "remove_edge", (0, 1)))
    joined = apply_event(parts, TopologyEvent(0, "add_edge", (1, 2)))
    apply_event(joined, TopologyEvent(1, "remove_node", 0))
    assert not parts.connected and joined.connected
    assert searched[1:] == [parts, build_graph(4, [(2, 3)]), joined]
    assert searched[1] is parts and searched[3] is joined


def test_edge_events_do_not_rebuild(monkeypatch):
    def no_rebuild(n, edges):
        raise AssertionError("edge events must not rebuild the graph")

    g = generate("ring", 6)
    monkeypatch.setattr(topology, "build_graph", no_rebuild)
    g = apply_event(g, TopologyEvent(0, "add_edge", (4, 1)))
    g = apply_event(g, TopologyEvent(1, "remove_edge", (0, 1)))
    assert isinstance(g, Graph)
    assert g.edges == ((0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5))
    assert g.neighbors[1] == (2, 4) and g.neighbors[0] == (5,)


def test_node_removal_retires_the_node_and_shares_the_other_tuples(monkeypatch):
    def no_rebuild(n, edges):
        raise AssertionError("a node removal must not rebuild the graph")

    g = generate("random_geometric", 30, seed=3, radius=0.4)
    monkeypatch.setattr(topology, "build_graph", no_rebuild)
    removed = 0
    for node in range(g.n):
        try:
            out = apply_event(g, TopologyEvent(0, "remove_node", node))
        except ConnectivityError:  # node is a cut vertex
            continue
        removed += 1
        former = set(g.neighbors[node])
        assert out.n == g.n and out.retired == {node} and out.neighbors[node] == ()
        assert out.edges == tuple(e for e in g.edges if node not in e)
        for i in set(range(g.n)) - former - {node}:
            assert out.neighbors[i] is g.neighbors[i], i
        for i in former:
            assert out.neighbors[i] == tuple(j for j in g.neighbors[i] if j != node)
    assert removed > g.n // 2


def test_privacy_precondition():
    assert check_privacy_precondition(generate("complete", 3), 0, 1) is False
    assert check_privacy_precondition(generate("ring", 5), 0, 1) is True
    assert check_privacy_precondition(generate("path", 2), 0, 1) is False
    with pytest.raises(ValueError):
        check_privacy_precondition(generate("ring", 5), 0, 2)  # not a neighbor


def test_privacy_precondition_matches_bruteforce():
    g = generate("random_gnp", 12, seed=9, p=0.4)
    for i in range(g.n):
        for j in g.neighbors[i]:
            expected = any(
                l != i and l not in g.neighbors[i] for l in g.neighbors[j]
            )
            assert check_privacy_precondition(g, i, j) == expected


def test_graph_is_hashable_value_type():
    a = generate("ring", 5)
    b = generate("ring", 5)
    assert a == b and hash(a) == hash(b)
    assert a != generate("path", 5)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["ring", "path", "complete", "random_gnp"]),
    n=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generated_graph_invariants(kind, n, seed):
    if kind == "random_gnp":
        g = generate(kind, n, seed=seed, p=0.7)
    else:
        g = generate(kind, n)
    assert g.n == n
    assert is_connected(g)
    for i, j in g.edges:
        assert i != j
        assert j in g.neighbors[i] and i in g.neighbors[j]
    for i in range(n):
        assert all(0 <= j < n for j in g.neighbors[i])
        assert i not in g.neighbors[i]
