"""engine.run advances a block of rounds at a time and checks the block at
once; round_reference.round_run is the round-by-round loop it must match.

Every RunTrace field is compared bit for bit, and an abort must be the same
EngineAbort at the same iteration, with the floating-point warnings the
round loop gives and no others. A block is as long as the rounds already
run, up to the budget; the budget is patched to one round, seven rounds (of
the first segment's width) and the whole run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privagg import backend
from privagg.engine import EngineAbort, RunConfig, run
from privagg.noise import DISTRIBUTIONS, SCHEMES, NoiseParams, node_theta_block
from privagg.topology import ConnectivityError, TopologyEvent, apply_event, generate

from round_reference import round_run

# STACK_VALUES for a graph of n nodes: blocks of one round, of seven
# rounds at most, and of no limit.
BUDGETS = {"one": lambda n: 1, "seven": lambda n: 7 * n, "whole": lambda n: 2**40}
# on and next to the block boundaries of each budget in a run without events
BOUNDARIES = [*range(0, 36, 7), 2, 4, 8, 16, 32]
EVENT_ITERATIONS = sorted({b + d for b in BOUNDARIES for d in (-1, 0, 1)} - {-1})


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _segments(node_ids) -> list[int]:
    """Where a new tuple object starts: rounds of a segment share one."""
    return [k for k in range(1, len(node_ids)) if node_ids[k] is not node_ids[k - 1]]


def assert_same_trace(got, want) -> None:
    assert got.reason == want.reason
    assert _bits(got.spreads) == _bits(want.spreads)
    assert _bits(got.errs) == _bits(want.errs)
    assert got.node_ids == want.node_ids
    assert _segments(got.node_ids) == _segments(want.node_ids)
    for name in ("xs", "thetas"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        assert all(p.shape == q.shape and _bits(p) == _bits(q) for p, q in zip(a, b)), name
    assert _bits(got.x_final) == _bits(want.x_final)
    assert got.events_applied == want.events_applied


def _outcome(loop, cfg):
    """The trace, or the abort message, and the floating-point warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loop(cfg)
        except EngineAbort as abort:
            result = str(abort)
    return result, {(w.category, str(w.message)) for w in caught}


def assert_same_outcome(cfg, budget: str = "whole") -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("privagg.engine.STACK_VALUES", BUDGETS[budget](cfg.graph.n))
        got, got_warnings = _outcome(run, cfg)
    want, want_warnings = _outcome(round_run, cfg)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_trace(got, want)


@st.composite
def _configs(draw):
    """A small connected graph, an event schedule on and next to block
    boundaries that keeps it connected, and any noise and run options."""
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["random_gnp", "complete", "ring", "path"]))
    seed = draw(st.integers(0, 2**16))
    g = generate(kind, n, seed=seed, p=0.6) if kind == "random_gnp" else generate(kind, n)
    kinds = st.sampled_from(["add_edge", "remove_edge", "remove_node"])
    drawn = draw(st.lists(st.tuples(st.sampled_from(EVENT_ITERATIONS), kinds), max_size=6))
    graph, events = g, []
    for at, kind in sorted(drawn, key=lambda e: e[0]):
        pick = draw(st.integers(0, 2**16))
        live = [i for i in range(n) if i not in graph.retired]
        if kind == "remove_node":
            payload = live[pick % len(live)]
        else:
            pairs = [
                (a, b)
                for a in live
                for b in live
                if a < b and graph.has_edge(a, b) == (kind == "remove_edge")
            ]
            if not pairs:
                continue
            payload = pairs[pick % len(pairs)]
        event = TopologyEvent(at, kind, payload)
        try:
            graph = apply_event(graph, event)
        except (ValueError, ConnectivityError):
            continue
        events.append(event)
    scheme = draw(st.sampled_from(SCHEMES))
    params = NoiseParams(
        alpha=draw(st.sampled_from([0.5, 1.0, 4.0])),
        rho=draw(st.sampled_from([0.0, 0.5, 0.9])),
        h=draw(st.integers(1, 3)),
        distribution=draw(st.sampled_from(DISTRIBUTIONS)),
        seed=seed,
        variance=draw(st.sampled_from([1e-12, 1.0])),
    )
    return RunConfig(
        graph=g,
        x0=np.random.default_rng(seed).uniform(-50.0, 50.0, n),
        noise=params,
        scheme=scheme,
        max_iterations=draw(st.integers(1, 40)),
        term_epsilon=draw(st.sampled_from([0.0, 1e-3, 0.5, 5.0])),
        events=tuple(events),
        record_trace=draw(st.booleans()),
        update_form=draw(st.sampled_from(["matrix", "per_node"])),
    )


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@settings(max_examples=60)
@given(cfg=_configs())
def test_block_loop_matches_round_loop(cfg, budget):
    assert_same_outcome(cfg, budget)


def _faulty(at: int, value: float):
    """A Backend whose kernel writes value into node 0's state from kernel
    call `at` on, so x(at + 1) is the first state it touches."""

    def factory():
        calls = []

        def step(weights, cols, v):
            out = backend.step(weights, cols, v)
            if len(calls) >= at:
                out[0] = value
            calls.append(None)
            return out

        return backend.Backend("faulty", step)

    return factory


def _overflowing(at: int):
    """A Backend whose kernel returns 1e308 * 10 from kernel call `at` on:
    inf, with numpy's floating-point overflow error."""

    def factory():
        calls = []

        def step(weights, cols, v):
            out = backend.step(weights, cols, v)
            if len(calls) >= at:
                out = np.full_like(out, 1e308) * 10.0
            calls.append(None)
            return out

        return backend.Backend("overflowing", step)

    return factory


_RING = dict(
    graph=generate("ring", 6),
    x0=np.linspace(-10.0, 10.0, 6),
    noise=NoiseParams(seed=3),
    scheme="zero_sum",
    max_iterations=30,
)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("at", [0, 5, 6, 7, 13, 20])
@pytest.mark.parametrize(
    "value, message",
    [(math.inf, "non-finite state"), (math.nan, "non-finite state"), (1e6, "state envelope")],
)
def test_kernel_fault_aborts_where_the_round_loop_does(monkeypatch, budget, at, value, message):
    monkeypatch.setattr("privagg.engine.get_backend", _faulty(at, value))
    cfg = RunConfig(**_RING)
    with pytest.raises(EngineAbort, match=f"^{message}.* at iteration {at + 1}"):
        round_run(cfg)
    assert_same_outcome(cfg, budget)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("at", [0, 6, 7, 13])
def test_non_finite_broadcast_aborts_where_the_round_loop_does(monkeypatch, budget, at):
    def blown(scheme, params, n, rounds):  # an infinite draw in round `at`
        block = node_theta_block(scheme, params, n, rounds)
        block[at, n - 1] = math.inf
        return block

    monkeypatch.setattr("privagg.engine.node_theta_block", blown)
    cfg = RunConfig(**_RING)
    with pytest.raises(EngineAbort, match=f"^non-finite broadcast at iteration {at}$"):
        round_run(cfg)
    assert_same_outcome(cfg, budget)


@pytest.mark.parametrize("form", ["matrix", "per_node"])
def test_infinite_gaussian_noise_aborts_at_the_first_broadcast(form):
    # the block loop goes on past the abort through 0 * inf in the kernel;
    # the round loop warns of nothing there, and neither may the block loop
    cfg = RunConfig(
        graph=generate("path", 5),
        x0=np.arange(5.0),
        noise=NoiseParams(seed=1, variance=math.inf),
        scheme="gaussian_constant",
        max_iterations=20,
        update_form=form,
    )
    with pytest.raises(EngineAbort, match="^non-finite broadcast at iteration 0$"):
        round_run(cfg)
    assert_same_outcome(cfg)


@pytest.mark.parametrize("value", [math.inf, 1e6])
def test_term_epsilon_stop_wins_over_a_later_fault_in_its_block(monkeypatch, value):
    cfg = RunConfig(**{**_RING, "term_epsilon": 0.5, "max_iterations": 200})
    stop = round_run(cfg).k_stop
    assert 5 < stop < 100
    monkeypatch.setattr("privagg.engine.get_backend", _faulty(stop + 1, value))
    assert round_run(cfg).reason == "term_epsilon"
    assert_same_outcome(cfg)
    assert run(cfg).k_stop == stop


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("at", [0, 5, 6, 7, 13, 20])
def test_kernel_overflow_warns_as_the_round_loop_does(monkeypatch, budget, at):
    monkeypatch.setattr("privagg.engine.get_backend", _overflowing(at))
    cfg = RunConfig(**_RING)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(EngineAbort, match=f"^non-finite state at iteration {at + 1}$"):
            round_run(cfg)
    assert_same_outcome(cfg, budget)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("at", [0, 6, 13])
def test_raising_floating_point_errors_raise_where_the_round_loop_does(monkeypatch, budget, at):
    # np.seterr(all="raise") makes the overflow of round `at` raise, before
    # the abort the next round would give
    cfg = RunConfig(**_RING)
    outcomes, caller = [], np.geterr()
    for loop in (round_run, run):
        monkeypatch.setattr("privagg.engine.get_backend", _overflowing(at))
        monkeypatch.setattr("privagg.engine.STACK_VALUES", BUDGETS[budget](6))
        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as raised:
            loop(cfg)
        outcomes.append(str(raised.value))
        assert np.geterr() == caller
    assert outcomes[0] == outcomes[1]


def test_an_early_stop_computes_fewer_than_twice_its_rounds(monkeypatch):
    calls = []

    def counting():
        def step(weights, cols, v):
            calls.append(None)
            return backend.step(weights, cols, v)

        return backend.Backend("counting", step)

    monkeypatch.setattr("privagg.engine.get_backend", counting)
    cfg = RunConfig(**{**_RING, "term_epsilon": 0.5, "max_iterations": 1000})
    trace = run(cfg)
    assert trace.reason == "term_epsilon"
    assert trace.k_stop <= len(calls) < 2 * max(trace.k_stop, 1)


def test_a_stopped_run_keeps_no_rows_past_its_stop():
    # the trace's rows are copies of the rounds it keeps: neither the noise
    # block nor the rounds a stop discards stay behind them
    cfg = RunConfig(**{**_RING, "term_epsilon": 0.5, "max_iterations": 1000})
    trace = run(cfg)
    assert trace.reason == "term_epsilon"
    kept = 0
    for rows in (trace.xs, trace.thetas):
        bases = {id(row.base): row.base for row in rows if row.base is not None}
        kept += sum(base.nbytes for base in bases.values())
    # each block's states hold one row past its rounds: x(end), the next
    # block's first
    assert kept <= 2 * (len(trace.xs) + len(trace.thetas)) * 6 * 8
    assert trace.x_final.base is None


@pytest.mark.parametrize("eps", [0.0, 0.5])
@pytest.mark.parametrize("x0", [[1.7e308, -1.7e308], [1.7e308, 0.0, -1.7e308]])
def test_overflowing_spread_and_gap_warn_as_the_round_loop_does(x0, eps):
    # finite states whose spread (and, between neighbours, gap) overflows;
    # the round loop takes a spread from two numpy scalars, whose warning
    # says "scalar subtract" where the block loop's says "subtract"
    cfg = RunConfig(
        graph=generate("path", len(x0)),
        x0=x0,
        noise=NoiseParams(seed=1),
        scheme="gaussian_constant",
        max_iterations=4,
        term_epsilon=eps,
    )
    got, got_warnings = _outcome(run, cfg)
    want, want_warnings = _outcome(round_run, cfg)
    assert_same_trace(got, want)
    assert math.isinf(want.spreads[0])
    wording = lambda caught: {(c, m.replace("scalar ", "")) for c, m in caught}
    assert wording(got_warnings) == wording(want_warnings) != set()
