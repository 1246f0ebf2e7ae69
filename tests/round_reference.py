"""The round-by-round run loop: the reference engine.run's block loop is tested against.

Each round checks its state, records it, tests the stopping rules and
checks its broadcast before the next kernel call, so nothing past the
stopping round is ever computed. The kernel, the noise block and the
weights are looked up on privagg.engine at call time, so a test that
substitutes one of them there substitutes it for both loops.
"""

from __future__ import annotations

import math

import numpy as np

from privagg import engine
from privagg.tolerances import TOL


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
        if config.scheme in engine._ENVELOPE_SCHEMES
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
            g, alive, gone = engine.apply_run_event(g, events[ei], alive)
            if gone is not None:
                x = np.delete(x, gone)
                alive_arr = np.delete(alive_arr, gone)
                reference = float(np.mean(x0_full[alive_arr]))
            trace.events_applied.append(
                engine.AppliedEvent(k, events[ei].kind, events[ei].payload, g.n, reference)
            )
            ei += 1
        if ei > first:
            wm = engine.metropolis(g, base=(before, wm))
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
