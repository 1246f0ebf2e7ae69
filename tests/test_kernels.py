"""The numpy kernel against a scalar loop reference, on both layouts and
through whole engine runs, and the dense layout against the support layout."""

import numpy as np
import pytest

from privagg.backend import Backend, get_backend, step
from privagg.engine import UPDATE_FORMS, RunConfig, _kernel_operands, run
from privagg.noise import NoiseParams
from privagg.privacy import AdversaryView, later_round_attack
from privagg.topology import TopologyEvent, build_graph, generate
from privagg.weights import WeightMatrix, metropolis


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


def _loop_step(weights, cols, v, out):
    """The same chain over any slot-major layout: row i's s-th term is
    weights[s, i] * v[cols[s, i]] (cols may broadcast along rows)."""
    vl = v.tolist()
    wl = weights.tolist()
    cl = np.broadcast_to(cols, weights.shape).tolist()
    res = []
    for i in range(len(vl)):
        acc = 0.0
        for s in range(len(wl)):
            acc = acc + wl[s][i] * vl[cl[s][i]]
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
    v = rng.uniform(-100.0, 100.0, n)
    v[rng.random(n) < 0.15] = 0.0
    v[rng.random(n) < 0.05] *= -0.0  # signed zeros in the data
    return metropolis(g), v


def test_dense_equals_neighbor():
    rng = np.random.default_rng(17)
    for _ in range(40):
        wm, v = _random_case(rng)
        dense = np.empty(wm.n)
        nbr = np.empty(wm.n)
        step(*_kernel_operands(wm, True), v, dense)
        step(*_kernel_operands(wm, False), v, nbr)
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
    wm, _ = cases[-1]
    cases.append((wm, np.full(wm.n, -0.0)))
    single = metropolis(build_graph(1, []))
    cases.append((single, np.array([-0.0])))
    cases.append((single, np.array([2.5])))
    for wm, v in cases:
        want = np.empty(wm.n)
        _loop_dense_step(wm.w, v, want)
        for matrix_form in (True, False):
            weights, cols = _kernel_operands(wm, matrix_form)
            got, loop = np.empty(wm.n), np.empty(wm.n)
            step(weights, cols, v, got)
            _loop_step(weights, cols, v, loop)
            assert _bit_equal(got, loop)
            assert _bit_equal(got, want)


def test_batched_state_matches_single_lane_calls():
    rng = np.random.default_rng(37)
    cases = [_random_case(rng) for _ in range(30)]
    single = metropolis(build_graph(1, []))
    cases += [(single, np.array([-0.0])), (single, np.array([2.5]))]
    for wm, v in cases:
        lanes = np.stack([v, np.full(wm.n, -0.0), rng.uniform(-5.0, 5.0, wm.n), -v])
        for matrix_form in (True, False):
            weights, cols = _kernel_operands(wm, matrix_form)
            got = np.empty_like(lanes)
            step(weights, cols, lanes, got)
            for lane, row in zip(lanes, got):
                want = np.empty(wm.n)
                step(weights, cols, lane, want)
                assert _bit_equal(row, want)


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
    loop = Backend("loop", _loop_step)
    monkeypatch.setattr("privagg.engine.get_backend", lambda: loop)
    want = run(cfg)

    assert [e.kind for e in got.events_applied] == [e.kind for e in events]
    assert got.k_stop == want.k_stop
    for name in ("xs", "x_pluses", "thetas"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b) > 0
        assert all(_bit_equal(p, q) for p, q in zip(a, b)), name
    assert _bit_equal(got.x_final, want.x_final)


def test_get_backend_is_numpy_step():
    assert get_backend() == Backend("python", step)


def test_per_node_run_and_later_attack_never_form_dense_w(monkeypatch):
    def refuse(self):
        raise AssertionError("dense W formed")

    monkeypatch.setattr(WeightMatrix, "w", property(refuse))
    g = generate("random_gnp", 10, seed=5, p=0.4)
    cfg = RunConfig(
        graph=g, x0=np.arange(10.0), noise=NoiseParams(seed=3), scheme="zero_sum",
        events=_EVENTS, update_form="per_node", term_epsilon=1e-9,
    )
    assert len(run(cfg).events_applied) == 2
    view = AdversaryView(generate("ring", 6), 0, 1)
    later_round_attack(view, NoiseParams(seed=0), 2, 0.1, trials=5, train_trials=5)
