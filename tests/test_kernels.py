"""The numpy kernels against a scalar loop reference, kernel by kernel and
through whole engine runs, and the dense form against the neighbor form."""

import numpy as np
import pytest

from privagg.backend import Backend, dense_step, get_backend, neighbor_step
from privagg.engine import UPDATE_FORMS, RunConfig, _support_arrays, run
from privagg.noise import NoiseParams
from privagg.topology import TopologyEvent, build_graph, generate
from privagg.weights import metropolis


def _loop_dense_step(w, v, out):
    """Reference: the mandated ascending-j chain from acc = 0.0."""
    vl = v.tolist()
    res = []
    for row in w.tolist():
        acc = 0.0
        for wij, vj in zip(row, vl):
            acc = acc + wij * vj
        res.append(acc)
    out[:] = res


def _loop_neighbor_step(w, indptr, indices, v, out):
    vl = v.tolist()
    wl = w.tolist()
    il = indices.tolist()
    pl = indptr.tolist()
    res = []
    for i, row in enumerate(wl):
        acc = 0.0
        for t in range(pl[i], pl[i + 1]):
            j = il[t]
            acc = acc + row[j] * vl[j]
        res.append(acc)
    out[:] = res


def _bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _random_case(rng):
    n = int(rng.integers(1, 40))
    if n == 1:
        g = build_graph(1, [])
    else:
        g = generate("random_gnp", n, seed=int(rng.integers(2**31)), p=0.5)
    w = metropolis(g).w
    v = rng.uniform(-100.0, 100.0, n)
    v[rng.random(n) < 0.15] = 0.0
    v[rng.random(n) < 0.05] *= -0.0  # signed zeros in the data
    return g, w, v


def test_dense_equals_neighbor():
    rng = np.random.default_rng(17)
    for _ in range(40):
        g, w, v = _random_case(rng)
        dense = np.empty(g.n)
        nbr = np.empty(g.n)
        dense_step(w, v, dense)
        indptr, indices = _support_arrays(g)
        neighbor_step(w, indptr, indices, v, nbr)
        assert np.array_equal(dense, nbr)


def test_accumulate_is_sequential():
    # premise of the numpy kernels: accumulate along a row adds left to right
    rng = np.random.default_rng(29)
    rows = rng.uniform(-1.0, 1.0, (200, 37)) * 10.0 ** rng.integers(-8, 9, (200, 37))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[:3] = -0.0
    expected = []
    for row in rows.tolist():
        acc = row[0]
        for value in row[1:]:
            acc = acc + value
        expected.append(acc)
    assert _bit_equal(np.add.accumulate(rows, axis=1)[:, -1], np.array(expected))


def test_numpy_kernels_match_loop_reference():
    rng = np.random.default_rng(31)
    cases = [_random_case(rng) for _ in range(60)]
    g, w, _ = cases[-1]
    cases.append((g, w, np.full(g.n, -0.0)))
    cases.append((build_graph(1, []), np.array([[1.0]]), np.array([-0.0])))
    cases.append((build_graph(1, []), np.array([[1.0]]), np.array([2.5])))
    for g, w, v in cases:
        indptr, indices = _support_arrays(g)
        got, want = np.empty(g.n), np.empty(g.n)
        dense_step(w, v, got)
        _loop_dense_step(w, v, want)
        assert _bit_equal(got, want)
        neighbor_step(w, indptr, indices, v, got)
        _loop_neighbor_step(w, indptr, indices, v, want)
        assert _bit_equal(got, want)


# on random_gnp(10, seed=5, p=0.4): 1-2 is not an edge, and the graph stays
# connected without node 7 once 1-2 is added
_EVENTS = (TopologyEvent(4, "add_edge", (1, 2)), TopologyEvent(9, "remove_node", 7))


@pytest.mark.parametrize("events", [(), _EVENTS], ids=["static", "events"])
@pytest.mark.parametrize("update_form", UPDATE_FORMS)
def test_engine_matches_loop_reference(monkeypatch, update_form, events):
    g = generate("random_gnp", 10, seed=5, p=0.4)
    x0 = np.random.default_rng(1).uniform(0, 100, 10)
    cfg = RunConfig(
        graph=g, x0=x0, noise=NoiseParams(seed=3), scheme="zero_sum",
        events=events, update_form=update_form,
    )
    got = run(cfg)
    loop = Backend("loop", _loop_dense_step, _loop_neighbor_step)
    monkeypatch.setattr("privagg.engine.get_backend", lambda: loop)
    want = run(cfg)

    assert [e.kind for e in got.events_applied] == [e.kind for e in events]
    assert got.k_stop == want.k_stop
    for name in ("xs", "x_pluses", "thetas"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b) > 0
        assert all(_bit_equal(p, q) for p, q in zip(a, b)), name
    assert _bit_equal(got.x_final, want.x_final)


def test_get_backend_default_and_unknown():
    assert get_backend().name == "python"
