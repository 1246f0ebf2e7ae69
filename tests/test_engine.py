import csv
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privagg import csvfmt
from privagg.csvfmt import CHUNK_ROWS
from privagg import engine
from privagg.engine import (
    UPDATE_FORMS,
    Block,
    EngineAbort,
    RunConfig,
    RunTrace,
    aggregate,
    decay_envelope,
    run,
    state_envelope,
)
from privagg.noise import NoiseParams
from privagg.tolerances import TOL
from privagg.topology import (
    ConnectivityError,
    TopologyEvent,
    apply_event,
    build_graph,
    generate,
    is_connected,
)
from privagg.weights import contraction_factor, metropolis


def _zero_cfg(g, x0, **kw):
    return RunConfig(graph=g, x0=x0, scheme="zero", **kw)


def test_one_step_averaging_on_k2():
    trace = run(_zero_cfg(generate("complete", 2), [0.0, 2.0], max_iterations=1))
    assert np.array_equal(trace.x_final, np.array([1.0, 1.0]))
    assert trace.errs[-1] == 0.0
    assert trace.reason == "max_iterations"


def test_consensus_fixed_point():
    trace = run(_zero_cfg(generate("path", 4), np.full(4, 5.0)))
    for x in trace.xs:
        assert np.max(np.abs(x - 5.0)) <= 1e-12


def test_dual_forms_bitwise_identical():
    g = generate("random_gnp", 9, seed=2, p=0.5)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0, 100, 9)
    for seed in range(3):
        traces = [
            run(
                RunConfig(
                    graph=g,
                    x0=x0,
                    noise=NoiseParams(seed=seed),
                    scheme="zero_sum",
                    update_form=form,
                )
            )
            for form in ("matrix", "per_node")
        ]
        a, b = traces
        assert all(np.array_equal(p, q) for p, q in zip(a.xs, b.xs))
        assert all(np.array_equal(p, q) for p, q in zip(a.thetas, b.thetas))
        assert np.array_equal(a.x_final, b.x_final)


def test_engine_matches_straightline_oracle():
    # independent re-implementation of x(k+1) = W (x(k) + theta(k)) with
    # explicit ascending-order accumulation, fed the recorded noise
    g = generate("path", 3)
    rng = np.random.default_rng(42)
    x0 = rng.uniform(0, 10, 3)
    params = NoiseParams(alpha=1.0, rho=0.9, seed=42)
    cfg = RunConfig(graph=g, x0=x0, noise=params, scheme="zero_sum", max_iterations=81)
    trace = run(cfg)
    w = metropolis(g).w.tolist()
    x = list(map(float, x0))
    xs, thetas = trace.xs, trace.thetas
    for k in range(trace.k_stop):
        assert np.array_equal(np.array(x), xs[k])
        xp = [x[i] + float(thetas[k][i]) for i in range(3)]
        x = [sum_ordered(w[i], xp) for i in range(3)]
    assert np.array_equal(np.array(x), trace.x_final)
    # the error at k=81 respects the geometric spread envelope plus the
    # un-cancelled residual mass (<= (alpha/2) rho^81 per node)
    eps_w = contraction_factor(metropolis(g))
    bound_81 = next(p.bound for p in decay_envelope(trace, eps_w, params) if p.k == 81)
    assert trace.final_err <= bound_81 + 0.5 * params.rho**81


def sum_ordered(row, v):
    acc = 0.0
    for wij, vj in zip(row, v):
        acc = acc + wij * vj
    return acc


def test_mass_conservation_with_noise_accounting():
    g = generate("random_gnp", 15, seed=8, p=0.4)
    rng = np.random.default_rng(8)
    x0 = rng.uniform(0, 100, 15)
    for scheme in ("zero_sum", "independent_decaying", "gaussian_constant"):
        cfg = RunConfig(graph=g, x0=x0, noise=NoiseParams(seed=1), scheme=scheme, max_iterations=150)
        trace = run(cfg)
        injected = 0.0
        xs, thetas = trace.xs, trace.thetas
        for k in range(trace.k_stop):
            expected = float(x0.sum()) + injected
            got = float(xs[k].sum())
            assert abs(got - expected) <= 15 * max(k, 1) * 1e-12 * max(1.0, abs(expected))
            injected += float(thetas[k].sum())


def test_state_envelope_values():
    assert state_envelope([1.0, -3.0], NoiseParams(alpha=1.0, rho=0.5)) == 5.0
    assert state_envelope([1.0, -3.0], NoiseParams(alpha=1e-300, rho=0.5)) == 3.0
    m = state_envelope([0.0], NoiseParams(alpha=1.0, rho=0.9))
    assert abs(m - 10.0) <= 1e-12


def test_states_stay_inside_envelope():
    g = generate("ring", 5)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-50, 50, 5)
    params = NoiseParams(alpha=2.0, rho=0.8, seed=3)
    trace = run(RunConfig(graph=g, x0=x0, noise=params, scheme="zero_sum", max_iterations=200))
    bound = state_envelope(x0, params)
    assert all(float(np.max(np.abs(x))) <= bound for x in trace.xs)


def test_gaussian_constant_not_envelope_guarded():
    # non-decaying noise may wander past the decaying-noise envelope: no abort
    g = generate("complete", 4)
    cfg = RunConfig(
        graph=g,
        x0=[0.0, 0.0, 0.0, 0.0],
        noise=NoiseParams(seed=2, variance=100.0),
        scheme="gaussian_constant",
        max_iterations=500,
        record_trace=False,
    )
    trace = run(cfg)
    assert trace.k_stop == 500


def test_abort_on_nonfinite_inputs():
    g = generate("path", 2)
    with pytest.raises(EngineAbort):
        run(_zero_cfg(g, [math.nan, 1.0]))
    with pytest.raises(EngineAbort):
        run(_zero_cfg(g, [math.inf, 1.0]))


def test_termination_epsilon():
    g = generate("complete", 6)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(0, 100, 6)
    cfg = _zero_cfg(g, x0, term_epsilon=1e-3, max_iterations=10_000)
    trace = run(cfg)
    assert trace.reason == "term_epsilon"
    assert trace.k_stop < 10_000
    x = trace.x_final
    gaps = [abs(float(x[i] - x[j])) for i, j in g.edges]
    assert max(gaps) <= 1e-3


def test_aggregate_examples():
    g = generate("complete", 3)
    trace = run(_zero_cfg(g, [1.0, 2.0, 3.0]))
    assert aggregate(trace, "average") == pytest.approx(2.0, abs=1e-9)
    assert aggregate(trace, "sum") == pytest.approx(6.0, abs=1e-9)

    single = run(_zero_cfg(build_graph(1, []), [7.5]))
    assert aggregate(single, "sum") == 7.5

    g20 = generate("random_gnp", 20, seed=6, p=0.4)
    rng = np.random.default_rng(6)
    x0 = rng.uniform(0, 100, 20)
    trace = run(_zero_cfg(g20, x0, max_iterations=400))
    assert abs(aggregate(trace, "sum") - float(x0.sum())) <= 1e-9 * np.abs(x0).max() * 20

    with pytest.raises(ValueError):
        aggregate(trace, "median")


def test_edge_events_keep_exactness():
    g = generate("complete", 4)
    x0 = np.array([10.0, 20.0, 30.0, 40.0])
    events = (
        TopologyEvent(3, "remove_edge", (0, 1)),
        TopologyEvent(6, "add_edge", (0, 1)),
    )
    trace = run(_zero_cfg(g, x0, events=events, max_iterations=300))
    assert [e.kind for e in trace.events_applied] == ["remove_edge", "add_edge"]
    assert trace.final_true_average == 25.0
    assert trace.final_err <= 1e-10


def test_remove_node_retargets_reference():
    g = generate("complete", 4)
    x0 = np.array([10.0, 20.0, 30.0, 40.0])
    trace = run(
        _zero_cfg(g, x0, events=(TopologyEvent(0, "remove_node", 3),), max_iterations=200)
    )
    ev = trace.events_applied[0]
    assert ev.n_after == 3
    assert ev.true_average_after == 20.0  # mean of survivors' initial states
    assert trace.final_true_average == 20.0
    assert trace.node_ids[-1] == (0, 1, 2)
    # removal before any mixing: survivors converge exactly to their own mean
    assert trace.final_err <= 1e-10
    assert aggregate(trace, "sum") == pytest.approx(60.0, abs=1e-9)  # 3 survivors

    # mid-run removal leaves a measurable bias against the survivors' mean
    biased = run(
        _zero_cfg(g, x0, events=(TopologyEvent(2, "remove_node", 3),), max_iterations=200)
    )
    assert biased.final_err == pytest.approx(
        abs(biased.consensus_value - 20.0), rel=1e-12
    )
    assert biased.final_err > 1e-3


@st.composite
def _connected_schedules(draw):
    """A connected random graph and an event schedule that keeps it connected:
    node removals at iteration 0, before any mixing, then edge additions and
    removals up to iteration 20. Each drawn event is kept only if
    apply_event accepts it, in the order the engine applies it."""
    n = draw(st.integers(min_value=3, max_value=8))
    g = generate("random_gnp", n, seed=draw(st.integers(0, 2**16)), p=0.6)
    graph, events = g, []
    removals = [(0, "remove_node")] * draw(st.integers(0, n - 2))
    edge_kinds = st.sampled_from(["add_edge", "remove_edge"])
    edge_events = sorted(draw(st.lists(st.tuples(st.integers(0, 20), edge_kinds), max_size=12)))
    for at, kind in removals + edge_events:
        pick = draw(st.integers(0, 2**16))
        live = [i for i in range(n) if i not in g.retired]
        if kind == "remove_node":
            payload = live[pick % len(live)]
        else:
            pairs = [
                (a, b)
                for a in live
                for b in live
                if a < b and g.has_edge(a, b) == (kind == "remove_edge")
            ]
            if not pairs:
                continue
            payload = pairs[pick % len(pairs)]
        event = TopologyEvent(at, kind, payload)
        try:
            g = apply_event(g, event)
        except (ValueError, ConnectivityError):
            continue
        events.append(event)
    return graph, tuple(events)


@settings(max_examples=30)
@given(case=_connected_schedules(), seed=st.integers(0, 2**31))
def test_event_schedules_keep_exactness_and_forms_agree(case, seed):
    g, events = case
    x0 = np.random.default_rng(seed).uniform(0.0, 100.0, g.n)
    a, b = (
        run(
            RunConfig(
                graph=g,
                x0=x0,
                noise=NoiseParams(alpha=1.0, rho=0.9, seed=seed),
                scheme="zero_sum",
                max_iterations=600,
                events=events,
                update_form=form,
            )
        )
        for form in UPDATE_FORMS
    )
    assert len(a.events_applied) == len(events)
    survivors = list(a.node_ids[-1])
    want = len(survivors) * float(np.mean(x0[survivors]))
    assert abs(aggregate(a, "sum") - want) <= TOL.aggregation_sum
    assert a.node_ids == b.node_ids and a.spreads == b.spreads and a.errs == b.errs
    for field in ("xs", "thetas"):
        pairs = zip(getattr(a, field), getattr(b, field), strict=True)
        assert all(np.array_equal(p, q) for p, q in pairs), field
    assert np.array_equal(a.x_final, b.x_final)


def _churn(g, seed, iterations):
    """At each iteration remove one edge, then add one at the same node."""
    rng = np.random.default_rng(seed)
    events = []
    for at in iterations:
        while True:
            a, b = g.edges[int(rng.integers(len(g.edges)))]
            missing = [c for c in range(g.n) if c != a and c != b and not g.has_edge(a, c)]
            if not missing:
                continue
            remove = TopologyEvent(at, "remove_edge", (a, b))
            try:
                g = apply_event(g, remove)
                break
            except ConnectivityError:
                continue
        add = TopologyEvent(at, "add_edge", (a, int(rng.choice(missing))))
        g = apply_event(g, add)
        events += [remove, add]
    return tuple(events)


_CHURN_GRAPH = generate("random_geometric", 40, seed=4, radius=0.3)


@example(case=(_CHURN_GRAPH, _churn(_CHURN_GRAPH, 5, (0, 3, 7, 12))), seed=9)
@settings(max_examples=20)
@given(case=_connected_schedules(), seed=st.integers(0, 2**31))
def test_column_edited_weights_give_the_fresh_build_traces(case, seed):
    g, events = case
    x0 = np.random.default_rng(seed).uniform(0.0, 100.0, g.n)
    for form in UPDATE_FORMS:
        cfg = RunConfig(
            graph=g, x0=x0, noise=NoiseParams(alpha=1.0, rho=0.9, seed=seed),
            scheme="zero_sum", max_iterations=30, events=events, update_form=form,
        )
        edited = run(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("privagg.engine.metropolis", lambda g, base=None: metropolis(g))
            fresh = run(cfg)
        assert len(edited.events_applied) == len(events)
        for field in ("xs", "thetas"):
            pairs = zip(getattr(edited, field), getattr(fresh, field), strict=True)
            assert all(np.array_equal(p.view(np.uint64), q.view(np.uint64)) for p, q in pairs)
        assert np.array_equal(edited.x_final.view(np.uint64), fresh.x_final.view(np.uint64))


def test_node_ids_shared_within_a_segment():
    g = generate("ring", 6)
    events = (TopologyEvent(3, "add_edge", (0, 2)), TopologyEvent(5, "remove_node", 4))
    trace = run(_zero_cfg(g, np.arange(6.0), events=events, max_iterations=8))
    ids = trace.node_ids
    assert len({id(t) for t in ids}) == 3
    assert ids[0] is ids[2] and ids[3] is ids[4] and ids[5] is ids[8]
    assert ids[4] == tuple(range(6)) and ids[5] == (0, 1, 2, 3, 5)


def test_a_long_run_keeps_no_object_per_round():
    # the trace holds a list entry per block, segment or event, and arrays;
    # the per-round views are built from them
    g = generate("random_gnp", 50, seed=7, p=0.2)
    events = (TopologyEvent(700, "add_edge", (0, 1)), TopologyEvent(1500, "remove_node", 3))
    cfg = RunConfig(
        graph=g, x0=np.random.default_rng(7).uniform(0.0, 100.0, 50),
        noise=NoiseParams(seed=7), scheme="zero_sum", max_iterations=2500, events=events,
    )
    trace = run(cfg)
    assert trace.k_stop == 2500 and len(trace.events_applied) == 2
    lists = {f.name for f in fields(trace) if isinstance(getattr(trace, f.name), list)}
    assert lists == {"segments", "blocks", "events_applied"}
    assert [k for k, _ in trace.segments] == [0, 700, 1500]
    assert len(trace.blocks) <= 40
    for block in trace.blocks:
        assert [type(getattr(block, f.name)) for f in fields(block)] == [int] + [np.ndarray] * 4
    ids = trace.node_ids
    assert len(ids) == len(trace.xs) == len(trace.spreads) == len(trace.errs) == 2501
    assert len(trace.thetas) == 2500
    for (k, segment), end in zip(trace.segments, [700, 1500, 2501]):
        assert all(t is segment for t in ids[k:end])
    assert len(ids[0]) == 50 and ids[2500] == tuple(i for i in range(50) if i != 3)


def test_no_full_connectivity_search_per_applied_event(monkeypatch):
    # configs/demo.cfg's graph with an edge event and two node removals:
    # generate has marked it connected, so the first weights search no more;
    # apply_event checks each event locally on a connected graph, and the
    # weights of a later segment take the previous ones as base, across a
    # node removal too. No full search runs.
    g = generate("random_gnp", 20, seed=7, p=0.3)
    events = (
        TopologyEvent(5, "add_edge", (0, 1)),
        TopologyEvent(9, "remove_node", 17),
        TopologyEvent(30, "remove_node", 12),
    )
    searched = []

    def counted(graph):
        searched.append(graph.n)
        return is_connected(graph)

    monkeypatch.setattr("privagg.topology.is_connected", counted)
    cfg = RunConfig(
        graph=g, x0=np.arange(20.0), noise=NoiseParams(seed=23), events=events,
        max_iterations=40, update_form="per_node",
    )
    trace = run(cfg)
    assert [e.n_after for e in trace.events_applied] == [20, 19, 18]
    assert searched == []


def test_zero_scheme_seeds_no_stream(monkeypatch):
    def refuse(seed, count):
        raise AssertionError("a noise stream was seeded")

    monkeypatch.setattr("privagg.noise.seeded_streams", refuse)
    trace = run(_zero_cfg(generate("ring", 6), np.arange(6.0), max_iterations=12))
    assert trace.k_stop == 12
    assert all(not theta.any() for theta in trace.thetas)


@pytest.mark.parametrize("term_epsilon", [0.0, 1e-3])
@pytest.mark.parametrize("update_form", UPDATE_FORMS)
@pytest.mark.parametrize("scheme", ["zero_sum", "zero"])
def test_nothing_reads_a_retired_columns_theta(monkeypatch, scheme, update_form, term_epsilon):
    # from its removal on, a retired node's theta column holds finite +-1e6:
    # no output of the run may change, bit for bit
    g = generate("random_gnp", 20, seed=7, p=0.3)
    events = (
        TopologyEvent(5, "add_edge", (0, 1)),
        TopologyEvent(9, "remove_node", 17),
        TopologyEvent(30, "remove_node", 12),
    )
    cfg = RunConfig(
        graph=g, x0=np.arange(20.0), noise=NoiseParams(seed=23), scheme=scheme,
        events=events, max_iterations=300, term_epsilon=term_epsilon, update_form=update_form,
    )
    plain = run(cfg)
    block_of = engine.node_theta_block

    def loud(*args):
        block = np.array(block_of(*args))  # writable, the zero scheme's block too
        for e in events:
            if e.kind == "remove_node":
                block[e.at_iteration :, e.payload] = 1e6 * (-1.0) ** np.arange(
                    len(block) - e.at_iteration
                )
        return block

    monkeypatch.setattr(engine, "node_theta_block", loud)
    loudly = run(cfg)
    assert len(plain.events_applied) == 3
    assert (loudly.reason, loudly.node_ids) == (plain.reason, plain.node_ids)
    for name in ("xs", "thetas", "spreads", "errs"):
        got, want = np.hstack(getattr(loudly, name)), np.hstack(getattr(plain, name))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    assert np.array_equal(loudly.x_final.view(np.uint64), plain.x_final.view(np.uint64))


def test_disconnecting_event_rejected():
    g = generate("path", 3)
    cfg = _zero_cfg(g, [1.0, 2.0, 3.0], events=(TopologyEvent(1, "remove_edge", (0, 1)),))
    with pytest.raises(ConnectivityError):
        run(cfg)


def test_event_on_missing_node_rejected():
    g = generate("complete", 4)
    events = (
        TopologyEvent(1, "remove_node", 2),
        TopologyEvent(2, "remove_edge", (2, 3)),
    )
    with pytest.raises(ValueError):
        run(_zero_cfg(g, [1.0, 2.0, 3.0, 4.0], events=events))


def test_replay_bitwise_identical(tmp_path):
    g = generate("random_gnp", 8, seed=3, p=0.5)
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0, 100, 8)

    def one():
        cfg = RunConfig(graph=g, x0=x0, noise=NoiseParams(seed=5), scheme="zero_sum")
        return run(cfg)

    a, b = one(), one()
    assert all(np.array_equal(p, q) for p, q in zip(a.xs, b.xs))
    assert a.spreads == b.spreads and a.errs == b.errs
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_trace_csv(pa)
    b.write_trace_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_decay_envelope_zero_noise():
    g = generate("path", 3)
    rng = np.random.default_rng(9)
    x0 = rng.uniform(0, 100, 3)
    params = NoiseParams(alpha=1e-300, rho=0.5)  # vanishing noise scale
    trace = run(RunConfig(graph=g, x0=x0, noise=params, scheme="zero", max_iterations=180))
    eps_w = contraction_factor(metropolis(g))
    points = decay_envelope(trace, eps_w, params)
    assert points and all(p.ok for p in points)
    # with alpha ~ 0 the bound is the pure contraction and it shrinks to 0
    start = next(p for p in points if p.k == 3)
    last = max(points, key=lambda p: p.k)
    assert last.bound < 1e-9 * max(start.bound, 1.0)
    assert last.bound < start.bound


def test_decay_envelope_with_noise_and_static_requirement():
    g = generate("ring", 5)
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0, 100, 5)
    params = NoiseParams(alpha=1.0, rho=0.9, seed=2)
    trace = run(RunConfig(graph=g, x0=x0, noise=params, scheme="zero_sum"))
    eps_w = contraction_factor(metropolis(g))
    points = decay_envelope(trace, eps_w, params)
    assert points and all(p.ok for p in points)

    moved = run(
        RunConfig(
            graph=generate("complete", 4),
            x0=[1.0, 2.0, 3.0, 4.0],
            scheme="zero",
            events=(TopologyEvent(1, "remove_edge", (0, 1)),),
        )
    )
    with pytest.raises(ValueError):
        decay_envelope(moved, 0.5, params)


def test_trace_csv_schema(tmp_path):
    g = generate("path", 3)
    trace = run(_zero_cfg(g, [1.0, 2.0, 3.0], max_iterations=4))
    tp, sp = tmp_path / "t.csv", tmp_path / "s.csv"
    trace.write_trace_csv(tp)
    trace.write_summary_csv(sp)
    tlines = tp.read_text().strip().splitlines()
    assert tlines[0] == "k,node_id,x,x_plus,theta"
    assert len(tlines) == 1 + 3 * 5  # header + n rows for k = 0..4
    assert tlines[-1].endswith(",,")  # final row has no broadcast
    slines = sp.read_text().strip().splitlines()
    assert slines[0] == "k,V,err"
    assert len(slines) == 1 + 5
    # full-precision round trip
    value = tlines[1].split(",")[2]
    assert float(value) == 1.0


def _csv_writer_trace(trace, path):
    """Reference: the trace CSV written row by row through csv.writer."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "node_id", "x", "x_plus", "theta"])
        thetas, node_ids = trace.thetas, trace.node_ids
        for k, x in enumerate(trace.xs):
            broadcast = k < len(thetas)
            for p, nid in enumerate(node_ids[k]):
                row = [k, nid, repr(float(x[p]))]
                if broadcast:
                    theta = float(thetas[k][p])
                    row.append(repr(float(x[p]) + theta))
                    row.append(repr(theta))
                else:
                    row.extend(["", ""])
                w.writerow(row)


def _csv_writer_summary(trace, path):
    """Reference: the summary CSV written row by row through csv.writer."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "V", "err"])
        for k, (v, e) in enumerate(zip(trace.spreads, trace.errs)):
            w.writerow([k, repr(float(v)), repr(float(e))])


def _row_repeats(trace):
    """Rounds whose x repeats the previous round's bits and whose x_plus
    repeats x's, within one topology segment."""
    xs, thetas, ids = trace.xs, trace.thetas, trace.node_ids
    return [
        i
        for i in range(1, len(thetas))
        if ids[i] is ids[i - 1]
        and xs[i].tobytes() == xs[i - 1].tobytes()
        and (xs[i] + thetas[i]).tobytes() == xs[i].tobytes()
    ]


def _partial_repeats(trace):
    """Rounds past the noise floor (the first broadcast that repeats its
    state bit for bit) whose x differs from the previous round's in some
    nodes but not all."""
    xs = trace.xs
    floor = next(
        i
        for i, (x, theta) in enumerate(zip(xs, trace.thetas))
        if x.tobytes() == (x + theta).tobytes()
    )
    return [
        i
        for i in range(floor + 1, len(xs))
        if 0 < np.count_nonzero(xs[i].view(np.int64) != xs[i - 1].view(np.int64)) < len(xs[i])
    ]


def _zero_signs_differ(trace):
    """x(0) and x_plus(0) are equal as values but x(0) holds -0.0 where
    x_plus(0) holds +0.0."""
    x, xp = trace.xs[0], trace.xs[0] + trace.thetas[0]
    return (
        x.tolist() == xp.tolist()
        and list(np.signbit(x)) == [True, False, True]
        and not np.signbit(xp).any()
    )


_PAST_THE_FLOOR = dict(scheme="zero_sum", max_iterations=500)


def _broadcast_repeats_last_round():
    """A hand-built trace whose x_plus(1) = x(1) + theta(1) repeats the bytes
    of x(0) while x(1) differs from x(0): x_plus(1) may reuse only the strings
    of x(1), the row it is compared with."""
    xs = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    thetas = [np.array([0.5, 0.5]), np.array([-2.0, -2.0])]
    assert (xs[1] + thetas[1]).tobytes() == xs[0].tobytes()
    return RunTrace(
        config=RunConfig(graph=generate("path", 2), x0=xs[0], scheme="zero"),
        segments=[(0, (0, 1))],
        blocks=[Block(0, np.array(xs), np.array(thetas), np.full(3, 1.0), np.full(3, 0.5))],
        reason="max_iterations",
    )


def _extreme_values():
    """A hand-built trace of values at the edges of repr's formats: -0.0,
    subnormals, the 1e16 switch to exponents, three-digit exponents."""
    xs = [
        np.array([-0.0, 5e-324, 1e16, 9999999999999998.0]),
        np.array([2.225073858507201e-308, -1.5e-300, 1e-05, 0.0001]),
        np.array([1.7976931348623157e308, -2.2250738585072014e-308, 123.0, 1e22]),
    ]
    thetas = [
        np.array([1e-200, -0.0, -1e16, 5e-324]),
        np.array([-4.9e-321, 1e-300, -9.5e-5, 1e100]),
    ]
    spreads, errs = np.array([1e16, 5e-324, -0.0]), np.array([1.5e-300, 1e300, 0.1])
    return RunTrace(
        config=RunConfig(graph=generate("path", 4), x0=xs[0], scheme="zero"),
        segments=[(0, (0, 1, 2, 3))],
        blocks=[Block(0, np.array(xs), np.array(thetas), spreads, errs)],
        reason="max_iterations",
    )


def _rows_before(trace, k):
    return sum(len(x) for x in trace.xs[:k])


# An 8-node run of three chunks, past the noise floor at both chunk boundaries.
_ACROSS_CHUNKS = dict(
    graph=generate("random_gnp", 8, seed=1, p=0.5),
    x0=np.random.default_rng(1).uniform(-50.0, 50.0, 8),
    noise=NoiseParams(seed=1),
    scheme="zero_sum",
    max_iterations=2100,
    update_form="per_node",
)


def _repeats_across_a_chunk_boundary(trace):
    """The second chunk (whole rounds of 8 rows) starts with a round whose x
    repeats the bytes of the first chunk's last round."""
    k = CHUNK_ROWS // 8
    return (
        all(len(x) == 8 for x in trace.xs)
        and len(trace.xs) > k
        and trace.xs[k].tobytes() == trace.xs[k - 1].tobytes()
    )


def _shrinks_to_a_tail(trace, k):
    """Round k has fewer nodes than round k - 1, and its x bytes are the
    last bytes of round k - 1's, which do not repeat its first ones."""
    x, before = trace.xs[k].tobytes(), trace.xs[k - 1].tobytes()
    return len(x) < len(before) and before.endswith(x) and not before.startswith(x)


# A 64-node run whose first node removal starts exactly at a chunk boundary
# and whose second falls inside a chunk.
_AT_BOUNDARY = CHUNK_ROWS // 64
assert _AT_BOUNDARY * 64 == CHUNK_ROWS


@pytest.mark.parametrize(
    "kw",
    [
        # edge events and a mid-run node removal, noise of both signs
        dict(
            graph=generate("random_gnp", 9, seed=4, p=0.5),
            x0=np.random.default_rng(4).uniform(-50.0, 50.0, 9),
            noise=NoiseParams(seed=4),
            scheme="zero_sum",
            max_iterations=30,
            events=(
                TopologyEvent(5, "add_edge", (0, 1)),
                TopologyEvent(5, "remove_node", 3),
                TopologyEvent(9, "remove_node", 7),
            ),
            update_form="per_node",
        ),
        # stopped by term_epsilon, zero noise, tiny and exact values
        dict(
            graph=generate("path", 4),
            x0=[0.0, 1e-300, -2.5, 1e3],
            scheme="zero",
            max_iterations=400,
            term_epsilon=1.0,
        ),
        dict(
            graph=generate("ring", 5),
            x0=[1.0, 2.0, 3.0, 4.0, 5.0],
            noise=NoiseParams(seed=2, variance=1e-12),
            scheme="gaussian_constant",
            max_iterations=400,
            term_epsilon=1e-3,
        ),
        # past the noise floor: whole rows repeat bit for bit
        dict(
            graph=generate("random_gnp", 8, seed=1, p=0.5),
            x0=np.random.default_rng(1).uniform(-50.0, 50.0, 8),
            noise=NoiseParams(seed=1),
            **_PAST_THE_FLOOR,
            expect=lambda t: len(_row_repeats(t)) > 100,
        ),
        # past the floor x keeps changing in a few nodes
        dict(
            graph=generate("random_gnp", 8, seed=4, p=0.3),
            x0=np.random.default_rng(4).uniform(-50.0, 50.0, 8),
            noise=NoiseParams(seed=4),
            update_form="per_node",
            **_PAST_THE_FLOOR,
            expect=lambda t: len(_partial_repeats(t)) > 100,
        ),
        # a node removal after the floor starts a new segment
        dict(
            graph=generate("random_gnp", 8, seed=2, p=0.5),
            x0=np.random.default_rng(2).uniform(-50.0, 50.0, 8),
            noise=NoiseParams(seed=2),
            events=(TopologyEvent(400, "remove_node", 5),),
            **_PAST_THE_FLOOR,
            expect=lambda t: _row_repeats(t)[0] < t.events_applied[0].at_iteration,
        ),
        # x(0) holds -0.0, x_plus(0) = -0.0 + 0.0 holds +0.0: equal, not bitwise
        dict(
            graph=generate("path", 3),
            x0=[-0.0, 1.0, -0.0],
            scheme="zero",
            max_iterations=3,
            expect=_zero_signs_differ,
        ),
        dict(build=_broadcast_repeats_last_round),
        # several chunks; segments change at a chunk boundary and inside a chunk
        dict(
            graph=generate("random_gnp", 64, seed=3, p=0.2),
            x0=np.random.default_rng(3).uniform(0.0, 100.0, 64),
            noise=NoiseParams(seed=3),
            scheme="zero_sum",
            max_iterations=400,
            events=(
                TopologyEvent(_AT_BOUNDARY, "remove_node", 5),
                TopologyEvent(_AT_BOUNDARY + 70, "remove_node", 9),
            ),
            update_form="per_node",
            expect=lambda t: _rows_before(t, _AT_BOUNDARY) == CHUNK_ROWS
            and _rows_before(t, _AT_BOUNDARY + 70) % CHUNK_ROWS != 0
            and _rows_before(t, len(t.xs)) > 2 * CHUNK_ROWS,
        ),
        # one round wider than a chunk
        dict(
            graph=generate("ring", CHUNK_ROWS + 1808),
            x0=np.random.default_rng(6).uniform(-1.0, 1.0, CHUNK_ROWS + 1808),
            noise=NoiseParams(seed=6),
            scheme="zero_sum",
            max_iterations=3,
            update_form="per_node",
            expect=lambda t: len(t.xs[0]) > CHUNK_ROWS,
        ),
        # a single node
        dict(
            graph=generate("path", 1),
            x0=[2.5],
            noise=NoiseParams(seed=1),
            scheme="zero_sum",
            max_iterations=5,
        ),
        dict(build=_extreme_values),
        # a chunk starts with a round that repeats the previous chunk's last
        dict(**_ACROSS_CHUNKS, expect=_repeats_across_a_chunk_boundary),
        # past the floor, a mid-chunk removal of node 0: the next round's
        # rows are the previous round's last rows, bit for bit, yet it has
        # fewer nodes and must be formatted afresh
        dict(
            graph=generate("random_gnp", 8, seed=1, p=0.5),
            x0=np.random.default_rng(1).uniform(-50.0, 50.0, 8),
            noise=NoiseParams(seed=1),
            events=(TopologyEvent(450, "remove_node", 0),),
            **_PAST_THE_FLOOR,
            expect=lambda t: _shrinks_to_a_tail(t, 450)
            and _rows_before(t, 450) % CHUNK_ROWS != 0,
        ),
        # past the floor, an edge event keeps n and its round repeats the
        # previous one bit for bit: a new segment whose x text may be copied
        dict(
            graph=generate("random_gnp", 8, seed=1, p=0.5),
            x0=np.random.default_rng(1).uniform(-50.0, 50.0, 8),
            noise=NoiseParams(seed=1),
            events=(TopologyEvent(450, "add_edge", (0, 1)),),
            **_PAST_THE_FLOOR,
            expect=lambda t: t.node_ids[450] is not t.node_ids[449]
            and t.xs[450].tobytes() == t.xs[449].tobytes(),
        ),
    ],
)
def test_csv_writers_match_csv_writer_reference(tmp_path, kw):
    kw = dict(kw)
    expect = kw.pop("expect", None)  # what the case must exercise in the writer
    build = kw.pop("build", None)  # a trace built by hand instead of run
    if build is not None:
        trace = build()
    else:
        trace = run(RunConfig(**kw))
        assert trace.reason == ("term_epsilon" if kw.get("term_epsilon") else "max_iterations")
        assert len(trace.events_applied) == len(kw.get("events", ()))
    if expect is not None:
        assert expect(trace)
    trace.write_trace_csv(tmp_path / "t.csv")
    trace.write_summary_csv(tmp_path / "s.csv")
    _csv_writer_trace(trace, tmp_path / "t_ref.csv")
    _csv_writer_summary(trace, tmp_path / "s_ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_ref.csv").read_bytes()
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()


def _counting_floats(monkeypatch):
    """Patch csvfmt.floats to record how many values each call formats."""
    counts = []
    floats = csvfmt.floats

    def counting(values, out):
        counts.append(len(values))
        floats(values, out)

    monkeypatch.setattr(csvfmt, "floats", counting)
    return counts


def test_trace_writer_formats_each_text_once(tmp_path, monkeypatch):
    """Across chunk boundaries too, x(k) is formatted only where its bytes
    differ from x(k-1)'s and x_plus(k) only where they differ from x(k)'s."""
    trace = run(RunConfig(**_ACROSS_CHUNKS))
    xs, thetas = trace.xs, trace.thetas
    assert _repeats_across_a_chunk_boundary(trace)
    counts = _counting_floats(monkeypatch)
    trace.write_trace_csv(tmp_path / "t.csv")
    fresh_x = sum(
        len(x) for k, x in enumerate(xs) if k == 0 or x.tobytes() != xs[k - 1].tobytes()
    )
    fresh_plus = sum(
        np.count_nonzero((x + theta).view(np.uint64) != x.view(np.uint64))
        for x, theta in zip(xs, thetas)
    )
    assert len(counts) == -(-_rows_before(trace, len(xs)) // CHUNK_ROWS) == 3
    assert sum(counts) == sum(map(len, thetas)) + fresh_x + fresh_plus


def test_summary_writer_formats_a_chunk_in_one_call(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    rounds = 2 * CHUNK_ROWS + 5
    spreads, errs = rng.exponential(size=rounds), -rng.exponential(size=rounds)
    trace = RunTrace(
        config=RunConfig(graph=generate("path", 2), x0=[0.0, 1.0], scheme="zero"),
        segments=[(0, (0, 1))],
        blocks=[Block(0, None, None, spreads, errs)],
    )
    counts = _counting_floats(monkeypatch)
    trace.write_summary_csv(tmp_path / "s.csv")
    assert counts == [2 * CHUNK_ROWS, 2 * CHUNK_ROWS, 10]
    _csv_writer_summary(trace, tmp_path / "s_ref.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()


def test_summary_writer_writes_only_the_header_without_rounds(tmp_path):
    trace = RunTrace(config=RunConfig(graph=generate("path", 2), x0=[0.0, 1.0], scheme="zero"))
    trace.write_summary_csv(tmp_path / "s.csv")
    _csv_writer_summary(trace, tmp_path / "s_ref.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()
    csvfmt.write_summary(tmp_path / "s2.csv", [], [])
    assert (tmp_path / "s2.csv").read_bytes() == b"k,V,err\r\n"


def test_trace_writer_writes_only_the_header_without_rounds(tmp_path):
    csvfmt.write_trace(tmp_path / "t.csv", [], [], [])
    assert (tmp_path / "t.csv").read_bytes() == b"k,node_id,x,x_plus,theta\r\n"


def test_record_trace_false():
    g = generate("path", 3)
    trace = run(_zero_cfg(g, [1.0, 2.0, 3.0], record_trace=False))
    assert trace.xs == [] and trace.thetas == []
    assert len(trace.spreads) == trace.k_stop + 1
    with pytest.raises(ValueError):
        trace.write_trace_csv("/tmp/never.csv")


def test_runconfig_validation():
    g = generate("path", 3)
    with pytest.raises(ValueError):
        RunConfig(graph=g, x0=[1.0, 2.0])
    with pytest.raises(ValueError):
        RunConfig(graph=g, x0=[1.0, 2.0, 3.0], scheme="sparkle")
    with pytest.raises(ValueError):
        RunConfig(graph=g, x0=[1.0, 2.0, 3.0], update_form="columnwise")
    with pytest.raises(ValueError):
        RunConfig(graph=g, x0=[1.0, 2.0, 3.0], max_iterations=0)
    with pytest.raises(ValueError):
        RunConfig(graph=g, x0=[1.0, 2.0, 3.0], term_epsilon=-1.0)
    with pytest.raises(ValueError, match=r"^graph has retired nodes \[2\]$"):
        RunConfig(graph=apply_event(g, TopologyEvent(0, "remove_node", 2)), x0=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        run(_zero_cfg(build_graph(4, [(0, 1), (2, 3)]), [1.0] * 4))
