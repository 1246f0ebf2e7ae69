"""The round-by-round run loop: the reference engine.run's block loop is tested against.

Each round checks its state, records it, tests the stopping rules and
checks its broadcast before the next kernel call, so nothing past the
stopping round is ever computed. The kernel, the noise block and the
weights are looked up on privagg.engine at call time, so a test that
substitutes one of them there substitutes it for both loops.

Where engine.run retires a removed node's column, this loop renumbers:
the graph is rebuilt on the survivors, and the state and the noise hold
their columns only. So the two agree bit for bit only if retiring a
column leaves every live node's sums as renumbering does.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from privagg import engine
from privagg.noise import ENVELOPE_SCHEMES
from privagg.tolerances import TOL
from privagg.topology import Graph, TopologyEvent, build_graph


def renumbered_event(
    g: Graph, event: TopologyEvent, alive: list[int]
) -> tuple[Graph, list[int], int | None]:
    """Apply an event on original ids, one that engine.run accepts, to a
    graph that renumbers its nodes.

    alive lists the original ids of g's nodes by position, ascending. A
    remove_node rebuilds the graph from the relabelled edges of the others;
    an edge event goes to engine.apply_event at the ends' positions.
    Returns the new graph, the surviving original ids and the position a
    remove_node took out (None for edge events).
    """
    if event.kind == "remove_node":
        gone = alive.index(event.payload)
        remap = {old: new for new, old in enumerate(i for i in range(g.n) if i != gone)}
        new = build_graph(
            g.n - 1, [(remap[i], remap[j]) for i, j in g.edges if gone not in (i, j)]
        )
        return new, alive[:gone] + alive[gone + 1 :], gone
    i, j = event.payload
    moved = replace(event, payload=(alive.index(i), alive.index(j)))
    return engine.apply_event(g, moved), alive, None


def round_run(config: engine.RunConfig) -> engine.RunTrace:
    """engine.run, one round at a time."""
    g = config.graph
    kernel = engine.get_backend().step
    matrix_form = config.update_form == "matrix"

    x0_full = np.array(config.x0, dtype=np.float64)
    x = x0_full
    alive = list(range(g.n))
    wm = engine.metropolis(g)
    weights, cols = engine._kernel_operands(wm, matrix_form)
    reference = float(np.mean(x0_full))
    max_rounds = config.max_rounds
    block = engine.node_theta_block(config.scheme, config.noise, g.n, max_rounds)
    guard = (
        engine.state_envelope(x0_full, config.noise) * (1.0 + TOL.envelope_slack)
        if config.scheme in ENVELOPE_SCHEMES
        else math.inf
    )
    events = sorted(config.events, key=lambda e: e.at_iteration)
    trace = engine.RunTrace(config=config)

    ei = 0
    k = 0
    alive_arr = np.arange(g.n)
    ids = tuple(alive)
    while True:
        first, before = ei, g
        while ei < len(events) and events[ei].at_iteration == k:
            g, alive, gone = renumbered_event(g, events[ei], alive)
            if gone is not None:
                x = np.delete(x, gone)
                alive_arr = np.delete(alive_arr, gone)
                reference = float(np.mean(x0_full[alive_arr]))
            trace.events_applied.append(
                engine.AppliedEvent(k, events[ei].kind, events[ei].payload, g.n, reference)
            )
            ei += 1
        if ei > first:  # a base on the same nodes, else every column afresh
            wm = engine.metropolis(g, base=(before, wm) if g.n == before.n else None)
            weights, cols = engine._kernel_operands(wm, matrix_form)
            ids = tuple(alive)

        peak = float(np.max(np.abs(x)))
        if not math.isfinite(peak):
            raise engine.EngineAbort(f"non-finite state at iteration {k}")
        if peak > guard:
            raise engine.EngineAbort(
                f"state envelope exceeded at iteration {k}: {peak} > {guard}"
            )

        trace.spreads.append(float(x.max() - x.min()))
        trace.errs.append(float(np.max(np.abs(x - reference))))
        trace.node_ids.append(ids)
        if config.record_trace:
            trace.xs.append(x)

        if (
            config.term_epsilon > 0.0
            and g.edges
            and float(np.max(np.abs(x[wm.cols] - x))) <= config.term_epsilon
        ):
            trace.reason = "term_epsilon"
            break
        if k == max_rounds:
            trace.reason = "max_iterations"
            break

        theta = block[k][alive_arr]
        x_plus = x + theta
        if not np.isfinite(x_plus).all():
            raise engine.EngineAbort(f"non-finite broadcast at iteration {k}")
        if config.record_trace:
            trace.thetas.append(theta)
        x = kernel(weights, cols, x_plus)
        k += 1

    trace.x_final = x
    return trace
