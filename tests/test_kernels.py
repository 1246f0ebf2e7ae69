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


def _loop_dense_step(w, v):
    """Reference: the mandated ascending-j chain from acc = 0.0."""
    vl = v.tolist()
    res = []
    for row in w.tolist():
        acc = 0.0
        for wij, vj in zip(row, vl):
            acc = acc + wij * vj
        res.append(acc)
    return np.array(res)


def _loop_step(weights, cols, v):
    """The same chain over any slot-major layout: row i's s-th term is
    weights[s, i] * v[cols[s, i]] (cols may broadcast along rows)."""
    vl = v.tolist()
    wl = weights.tolist()
    cl = np.broadcast_to(cols, weights.shape).tolist()
    res = []
    for i in range(weights.shape[1]):
        acc = 0.0
        for s in range(len(wl)):
            acc = acc + wl[s][i] * vl[cl[s][i]]
        res.append(acc)
    return np.array(res)


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
        dense = step(*_kernel_operands(wm, True), v)
        nbr = step(*_kernel_operands(wm, False), v)
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


def test_reduce_over_slots_is_sequential():
    # premise of the kernel: reduce over the slot axis of a C-ordered block
    # adds one slot row at a time, in slot order, with or without trailing
    # lanes, whenever the block has more than one output value; the trailing
    # + 0.0 makes the sign of zero that of the chain from acc = 0.0
    rng = np.random.default_rng(41)
    shapes = ((37, 200), (5, 8193), (9, 20, 68), (68, 20, 9), (12, 2), (12, 1, 2), (12, 20, 1))
    for shape in shapes:
        block = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
        block[rng.random(shape) < 0.1] = 0.0
        block[rng.random(shape) < 0.1] = -0.0
        block[:, :1] = -0.0  # all-zero rows
        expected = []
        for row in np.moveaxis(block, 0, -1).reshape(-1, shape[0]).tolist():
            acc = 0.0
            for value in row:
                acc = acc + value
            expected.append(acc)
        got = np.add.reduce(block, axis=0) + 0.0
        assert _bit_equal(got.reshape(-1), np.array(expected)), shape


def _assert_matches_loop(weights, cols, v):
    assert _bit_equal(step(weights, cols, v), _loop_step(weights, cols, v))


def test_kernel_matches_loop_reference_on_large_layouts():
    rng = np.random.default_rng(43)
    # a 1000-node geometric support layout (37 slots)
    wm = metropolis(generate("random_geometric", 1000, seed=7, radius=0.08))
    assert wm.cols.shape[0] > 8
    for _ in range(3):
        _assert_matches_loop(wm.weights, wm.cols, rng.uniform(-100.0, 100.0, 1000))
    # a vector longer than NumPy's 8192-element pairwise and buffer blocks
    wm = metropolis(generate("ring", 8193))
    v = rng.uniform(-100.0, 100.0, 8193)
    v[rng.random(8193) < 0.05] = -0.0
    _assert_matches_loop(wm.weights, wm.cols, v)


def test_kernel_matches_loop_reference_on_an_attack_block():
    # 68 trailing lanes of a 20-node layout, as disclosure_attack passes its rounds
    rng = np.random.default_rng(47)
    wm = metropolis(generate("random_gnp", 20, seed=3, p=0.5))
    lanes = rng.uniform(-100.0, 100.0, (20, 68))
    lanes[rng.random(lanes.shape) < 0.05] = -0.0
    for matrix_form in (True, False):
        weights, cols = _kernel_operands(wm, matrix_form)
        got = step(weights, cols, lanes)
        assert got.shape == (20, 68)
        for lane, column in zip(lanes.T, got.T):
            assert _bit_equal(column, _loop_step(weights, cols, lane))


def _assert_lanes_match_single_calls(weights, cols, states, repeated=None):
    """Each lane (column) of step on the (n x b) states, with the weights as
    given and, if passed, repeated over the lanes, equals its single-lane
    call and the loop reference, sign of zero included."""
    got = step(weights, cols, states)
    assert got.shape == (weights.shape[1], states.shape[1])
    if repeated is not None:
        assert _bit_equal(step(repeated, cols, states), got)
    for lane, column in zip(states.T, got.T):
        want = _loop_step(weights, cols, lane)
        assert _bit_equal(step(weights, cols, lane), want)
        assert _bit_equal(column, want)
    return got


def test_trailing_lanes_equal_single_lane_calls():
    # b states of one graph as an (n x b) state give, lane by lane, the
    # single-lane call's bits and the loop's, in both forms and with the
    # weights broadcast over the lanes or repeated over them
    rng = np.random.default_rng(71)
    graphs = [generate("random_gnp", 20, seed=3, p=0.5), build_graph(1, [])]
    for g in graphs:
        wm, n = metropolis(g), g.n
        for b in (1, 2, 37, 74):
            states = rng.uniform(-100.0, 100.0, (n, b))
            states[rng.random(states.shape) < 0.05] = 0.0
            states[rng.random(states.shape) < 0.05] = -0.0
            states[:, -1] = -0.0  # a lane whose every product is -0.0
            for matrix_form in (True, False):
                weights, cols = _kernel_operands(wm, matrix_form)
                repeated = np.repeat(weights[:, :, np.newaxis], b, axis=2)
                got = _assert_lanes_match_single_calls(weights, cols, states, repeated)
                assert not np.signbit(got[:, -1]).any(), (n, b, matrix_form)
    # a one-column layout with more than 8 slots and one lane: a single
    # output value, whose slots a reduce would add pairwise
    wm = metropolis(generate("complete", 12))
    for column in range(12):
        weights, cols = wm.weights[:, column : column + 1], wm.cols[:, column : column + 1]
        for b in (1, 2):
            states = rng.uniform(-100.0, 100.0, (12, b))
            repeated = np.repeat(weights[:, :, np.newaxis], b, axis=2)
            _assert_lanes_match_single_calls(weights, cols, states, repeated)
        negative = np.full((12, 1), -0.0)
        assert _bit_equal(step(weights, cols, negative), np.array([[0.0]]))


def test_kernel_pins_c_order_for_f_ordered_weights():
    # W.T without a copy is F-ordered; a product left in F order puts the
    # slot axis in fast memory, and the reduce then runs along it, pairwise,
    # off the chain; the kernel writes the product over its C-ordered gather
    rng = np.random.default_rng(53)
    wm = metropolis(generate("random_gnp", 50, seed=11, p=0.5))
    weights, cols = wm.w.T, _kernel_operands(wm, True)[1]
    assert weights.flags.f_contiguous and not weights.flags.c_contiguous
    unpinned_misses = 0
    for _ in range(50):
        v = rng.uniform(-100.0, 100.0, 50)
        _assert_matches_loop(weights, cols, v)
        loop = _loop_step(weights, cols, v)
        unpinned = np.add.reduce(np.multiply(weights, v[cols], order="F"), axis=-2) + 0.0
        unpinned_misses += not _bit_equal(unpinned, loop)
    assert unpinned_misses > 0
    # F-ordered support-layout weights: the product written over the
    # C-ordered gather keeps the gather's order, with or without lanes
    weights = np.asfortranarray(wm.weights)
    assert weights.flags.f_contiguous and not weights.flags.c_contiguous
    for _ in range(20):
        _assert_matches_loop(weights, wm.cols, rng.uniform(-100.0, 100.0, 50))
    lanes = rng.uniform(-100.0, 100.0, (50, 7))
    for lane, column in zip(lanes.T, step(weights, wm.cols, lanes).T):
        assert _bit_equal(column, _loop_step(wm.weights, wm.cols, lane))


def test_one_row_layout_sums_in_slot_order():
    # a single column leaves each lane's sum a single output, which a reduce
    # over the slots would add pairwise from eight slots on
    rng = np.random.default_rng(67)
    wm = metropolis(generate("complete", 12))
    misses = 0
    for column in range(12):
        weights, cols = wm.weights[:, column : column + 1], wm.cols[:, column : column + 1]
        v = rng.uniform(-100.0, 100.0, (12, 40))
        v[rng.random(v.shape) < 0.05] = -0.0
        got = step(weights, cols, v)
        assert got.shape == (1, 40)
        for lane, column in zip(v.T, got.T):
            want = _loop_step(weights, cols, lane)
            assert _bit_equal(step(weights, cols, lane), want)
            assert _bit_equal(column, want)
            pairwise = np.add.reduce(weights * lane[cols], axis=-2) + 0.0
            misses += not _bit_equal(pairwise, want)
    assert misses > 0
    # an all-zero column of -0.0 products sums to +0.0, as the chain does
    assert _bit_equal(step(weights, cols, np.full(12, -0.0)), np.array([0.0]))


def test_numpy_kernels_match_loop_reference():
    rng = np.random.default_rng(31)
    cases = [_random_case(rng) for _ in range(60)]
    wm, _ = cases[-1]
    cases.append((wm, np.full(wm.n, -0.0)))
    single = metropolis(build_graph(1, []))
    cases.append((single, np.array([-0.0])))
    cases.append((single, np.array([2.5])))
    for wm, v in cases:
        want = _loop_dense_step(wm.w, v)
        for matrix_form in (True, False):
            weights, cols = _kernel_operands(wm, matrix_form)
            got = step(weights, cols, v)
            assert _bit_equal(got, _loop_step(weights, cols, v))
            assert _bit_equal(got, want)


def test_batched_state_matches_single_lane_calls():
    rng = np.random.default_rng(37)
    cases = [_random_case(rng) for _ in range(30)]
    single = metropolis(build_graph(1, []))
    cases += [(single, np.array([-0.0])), (single, np.array([2.5]))]
    for wm, v in cases:
        lanes = np.stack([v, np.full(wm.n, -0.0), rng.uniform(-5.0, 5.0, wm.n), -v], axis=1)
        for matrix_form in (True, False):
            weights, cols = _kernel_operands(wm, matrix_form)
            got = step(weights, cols, lanes)
            for lane, column in zip(lanes.T, got.T):
                assert _bit_equal(column, step(weights, cols, lane))


def test_step_returns_a_new_array():
    # W v comes back in an array of its own: the engine keeps x and x_plus of
    # every round in its trace, so the result may alias neither operand
    wm = metropolis(generate("random_gnp", 12, seed=2, p=0.5))
    v = np.random.default_rng(59).uniform(-5.0, 5.0, (12, 3))
    for matrix_form in (True, False):
        weights, cols = _kernel_operands(wm, matrix_form)
        for operand in (v[:, 0], v):  # one lane, then trailing lanes
            before = operand.copy()
            got = step(weights, cols, operand)
            assert got.shape == operand.shape and got.flags.owndata
            assert not np.shares_memory(got, operand)
            assert not np.shares_memory(got, weights)
            assert np.array_equal(operand, before)


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
    for name in ("xs", "thetas"):
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
