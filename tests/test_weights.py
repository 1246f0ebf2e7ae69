from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privagg import weights
from privagg.topology import (
    ConnectivityError,
    TopologyEvent,
    apply_event,
    build_graph,
    generate,
)
from privagg.weights import contraction_factor, metropolis


def _loop_metropolis(g):
    """Reference: the Metropolis rule row by row, the diagonal summed over the
    neighbors in ascending order from 0.0."""
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        off = 0.0
        for j in g.neighbors[i]:
            wij = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
            w[i, j] = wij
            off += wij
        w[i, i] = 1.0 - off
    return w


def _reference_graphs():
    rng = np.random.default_rng(11)
    graphs = [build_graph(1, [])]
    for n in (2, 3, 7, 16):
        graphs += [generate(kind, n) for kind in ("ring", "path", "complete")]
    for _ in range(40):
        n = int(rng.integers(2, 45))
        seed = int(rng.integers(2**31))
        if rng.random() < 0.5:
            graphs.append(generate("random_gnp", n, seed=seed, p=float(rng.uniform(0.1, 0.9))))
        else:
            graphs.append(generate("random_geometric", n, seed=seed, radius=0.5))
    # graphs after topology events: an added edge, then a removed node
    for g in list(graphs[-20:]):
        missing = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]
        if missing:
            g = apply_event(g, TopologyEvent(0, "add_edge", missing[len(missing) // 2]))
            graphs.append(g)
        for node in range(g.n):
            try:
                graphs.append(apply_event(g, TopologyEvent(0, "remove_node", node)))
                break
            except ConnectivityError:  # node is a cut vertex
                pass
    return graphs


def test_metropolis_matches_loop_reference_bitwise():
    for g in _reference_graphs():
        got, want = metropolis(g).w, _loop_metropolis(g)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), g


def test_support_layout_invariants():
    for g in _reference_graphs():
        wm = metropolis(g)
        slots = max((g.degree(i) for i in range(g.n)), default=0) + 1
        assert wm.cols.shape == wm.weights.shape == (slots, g.n)
        assert not wm.cols.flags.writeable and not wm.weights.flags.writeable
        for i in range(g.n):
            count = g.degree(i) + 1
            assert wm.cols[:count, i].tolist() == sorted((i, *g.neighbors[i]))
            assert np.all(wm.cols[count:, i] == i)
            assert np.all(wm.weights[count:, i] == 0.0)
            assert not np.any(np.signbit(wm.weights[:, i]))


def test_metropolis_path3_hand_values():
    wm = metropolis(generate("path", 3))
    expected = np.array(
        [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
    )
    assert np.allclose(wm.w, expected, atol=1e-15)
    assert np.array_equal(wm.w, wm.w.T)


def test_metropolis_complete3():
    wm = metropolis(generate("complete", 3))
    assert np.allclose(wm.w, 1 / 3, atol=1e-15)


def test_metropolis_single_node():
    wm = metropolis(build_graph(1, []))
    assert wm.w.shape == (1, 1) and wm.w[0, 0] == 1.0


def test_metropolis_requires_connected():
    with pytest.raises(ValueError):
        metropolis(build_graph(4, [(0, 1), (2, 3)]))


def _check_weight_invariants(g):
    wm = metropolis(g)
    w = wm.w
    assert np.array_equal(w, w.T)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    for i in range(g.n):
        assert w[i, i] > 0.0
        for j in range(g.n):
            if i != j and j not in g.neighbors[i]:
                assert w[i, j] == 0.0


def test_weight_invariants_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        g = generate("random_gnp", n, seed=int(rng.integers(2**31)), p=0.4)
        _check_weight_invariants(g)


def test_contraction_complete2_exact():
    assert contraction_factor(metropolis(generate("complete", 2))) == 0.5


def test_contraction_single_node():
    assert contraction_factor(metropolis(build_graph(1, []))) == 1.0


def test_contraction_path3_matches_bruteforce():
    wm = metropolis(generate("path", 3))
    # straight-line oracle: W^3 by explicit triple loops, then max of column mins
    w = wm.w.tolist()
    power = [row[:] for row in w]
    for _ in range(2):
        nxt = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = 0.0
                for l in range(3):
                    acc += power[i][l] * w[l][j]
                nxt[i][j] = acc
        power = nxt
    oracle = max(min(power[i][j] for i in range(3)) for j in range(3))
    got = contraction_factor(wm)
    assert 0.0 < got < 1.0
    assert got == pytest.approx(oracle, rel=1e-12)


def test_contraction_bounds_spread():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        g = generate("random_gnp", n, seed=int(rng.integers(2**31)), p=0.5)
        wm = metropolis(g)
        eps_w = contraction_factor(wm)
        assert 0.0 < eps_w <= 1.0
        y = rng.uniform(-10, 10, n)
        power = y.copy()
        for _ in range(n):
            power = wm.w @ power
        spread = lambda v: float(v.max() - v.min())
        assert spread(power) <= (1.0 - eps_w) * spread(y) + 1e-12


def test_apply_fixed_point_and_hand_product():
    wm = metropolis(generate("path", 4))
    out = wm.w @ np.full(4, 5.0)
    assert np.max(np.abs(out - 5.0)) <= 1e-13
    k2 = metropolis(generate("complete", 2))
    assert np.array_equal(k2.w @ np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_apply_preserves_sum():
    wm = metropolis(generate("path", 3))
    v = np.array([1.0, 2.0, 3.0])
    assert abs((wm.w @ v).sum() - 6.0) <= 3 * 1e-12


def test_weight_matrix_is_immutable():
    wm = metropolis(generate("path", 3))
    with pytest.raises(ValueError):
        wm.w[0, 0] = 0.0


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_weight_invariants_property(n, seed):
    _check_weight_invariants(generate("random_gnp", n, seed=seed, p=0.6))


@settings(max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_apply_sum_preservation_property(n, seed):
    g = generate("random_gnp", n, seed=seed, p=0.5)
    wm = metropolis(g)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-100, 100, n)
    assert abs(float((wm.w @ v).sum() - v.sum())) <= n * 1e-12 * max(1.0, np.abs(v).max())


def _toggle(g, pair):
    """Remove the edge if present, else add it; a removal that would
    disconnect g is skipped, as the engine would reject it."""
    kind = "remove_edge" if g.has_edge(*pair) else "add_edge"
    try:
        return apply_event(g, TopologyEvent(0, kind, pair))
    except ConnectivityError:
        return g


def _assert_same_layout(got, want):
    assert got.n == want.n
    assert got.cols.shape == want.cols.shape == want.weights.shape == got.weights.shape
    assert np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))
    assert not got.cols.flags.writeable and not got.weights.flags.writeable


def _check_column_edits(g, batches):
    """Each batch of edge toggles is one event iteration: the weights edited
    from the previous iteration's equal a fresh build."""
    layouts = [metropolis(g)]
    for batch in batches:
        old = g
        for pair in batch:
            g = _toggle(g, pair)
        layouts.append(metropolis(g, base=(old, layouts[-1])))
        _assert_same_layout(layouts[-1], metropolis(g))
    return layouts


@st.composite
def _edge_batches(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    g = generate("random_gnp", n, seed=draw(st.integers(0, 2**16)), p=draw(st.floats(0.5, 0.9)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    return g, draw(st.lists(st.lists(pair, max_size=6), min_size=1, max_size=5))


# remove 0-1 and add 0-3 at node 0 in one iteration (its degree holds); the
# max degree grows by an added chord and shrinks back; n=2, whose one edge
# cannot go; an edge added and removed again in one iteration
@example(case=(generate("ring", 6), [[(0, 1), (0, 3)]]))
@example(case=(generate("ring", 12), [[(0, 3)], [(1, 4), (2, 5)], [(0, 3), (1, 4)], [(2, 5)]]))
@example(case=(generate("complete", 2), [[(0, 1)], []]))
@example(case=(generate("path", 4), [[(0, 2), (0, 2)]]))
@settings(max_examples=60)
@given(case=_edge_batches())
def test_column_edit_equals_fresh_build(case):
    _check_column_edits(*case)


def test_column_edit_grows_and_trims_slot_rows():
    layouts = _check_column_edits(generate("ring", 6), [[(0, 3)], [(0, 2)], [(0, 2), (0, 3)]])
    assert [wm.cols.shape[0] for wm in layouts] == [3, 4, 5, 3]


def test_node_removal_base_gives_the_fresh_build(monkeypatch):
    # a removal retires the node on the same ids: a base rebuilds only the
    # columns of the node and its former neighbours and of their neighbours,
    # and the search that a base waives (apply_event has checked) does not
    # run, even on a copy of the graph that has not kept apply_event's answer
    cases = []
    for g in (generate("ring", 5), generate("random_geometric", 30, seed=3, radius=0.4)):
        for node in range(g.n):
            try:
                smaller = apply_event(g, TopologyEvent(0, "remove_node", node))
            except ConnectivityError:  # node is a cut vertex
                continue
            former = set(g.neighbors[node])
            rebuilt = {node} | former | set().union(*(smaller.neighbors[u] for u in former))
            cases.append((g, metropolis(g), smaller, sorted(rebuilt)))
    fresh = [metropolis(smaller) for _, _, smaller, _ in cases]

    def refuse(g):
        raise AssertionError("connectivity searched with a base")

    filled, fill = [], weights._fill_columns

    def recorded(g, nodes, *rest):
        filled.append(nodes.tolist())
        fill(g, nodes, *rest)

    monkeypatch.setattr("privagg.topology.is_connected", refuse)
    monkeypatch.setattr(weights, "_fill_columns", recorded)
    for (g, wm, smaller, rebuilt), want in zip(cases, fresh):
        filled.clear()
        _assert_same_layout(metropolis(replace(smaller), base=(g, wm)), want)
        assert filled == [rebuilt]
    assert any(len(rebuilt) < g.n for g, _, _, rebuilt in cases)
