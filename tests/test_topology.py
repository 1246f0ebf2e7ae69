import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privagg.topology import (
    CONNECT_RETRIES,
    ConnectivityError,
    TopologyEvent,
    apply_event,
    build_graph,
    check_privacy_precondition,
    generate,
    is_connected,
)


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
    assert out.n == 3
    assert out.edges == ((0, 1), (0, 2))  # survivors 0,1,3 relabeled 0,1,2
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


@settings(max_examples=40, deadline=None)
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
