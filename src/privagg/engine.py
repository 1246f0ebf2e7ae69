"""Synchronous noisy-consensus rounds with trace capture and diagnostics.

Each round every node broadcasts x_i + theta_i and the state advances by
the weight matrix: x(k+1) = W (x(k) + theta(k)). One kernel runs the
update on the weights of the current topology segment, in a dense matrix
form or a per-node support form that agree bit-for-bit. Topology events
(edge add/remove, node removal) start a new segment; removed nodes take
their state mass with them and the error metric re-targets the surviving
nodes' initial average.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .backend import get_backend
from .csvfmt import write_summary, write_trace
from .noise import SCHEMES, NoiseParams, node_theta_block
from .tolerances import TOL
from .topology import Graph, TopologyEvent, apply_event
from .topology import is_connected  # noqa: F401  perfbench/tracer.py wraps engine.is_connected
from .weights import WeightMatrix, metropolis

UPDATE_FORMS = ("matrix", "per_node")
AGGREGATE_KINDS = ("sum", "average")

# Schemes whose noise is bounded by alpha*rho^k, so the state envelope holds.
_ENVELOPE_SCHEMES = ("zero_sum", "independent_decaying", "zero")


class EngineAbort(RuntimeError):
    """States degenerated (NaN/overflow) or left the analytic envelope."""


def check_run_options(
    max_iterations: int | None, term_epsilon: float, update_form: str
) -> None:
    """Reject run options a run cannot use; each message starts with the field."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not term_epsilon >= 0.0:
        raise ValueError("term_epsilon must be >= 0")
    if update_form not in UPDATE_FORMS:
        raise ValueError(f"update_form must be matrix or per_node, got {update_form!r}")


@dataclass
class RunConfig:
    """Everything one run needs; all randomness flows from noise.seed."""

    graph: Graph
    x0: Sequence[float] | np.ndarray
    noise: NoiseParams = NoiseParams()
    scheme: str = "zero_sum"
    max_iterations: int | None = None  # default: n^2
    term_epsilon: float = 0.0  # 0 disables the neighbor-closeness stop
    events: tuple[TopologyEvent, ...] = ()
    record_trace: bool = True
    update_form: str = "matrix"

    def __post_init__(self) -> None:
        x0 = np.array(self.x0, dtype=np.float64)
        if x0.shape != (self.graph.n,):
            raise ValueError(
                f"x0 has length {x0.shape}, graph has {self.graph.n} nodes"
            )
        self.x0 = x0
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown noise scheme {self.scheme!r}")
        check_run_options(self.max_iterations, self.term_epsilon, self.update_form)
        self.events = tuple(self.events)

    @property
    def max_rounds(self) -> int:
        return self.max_iterations if self.max_iterations is not None else self.graph.n**2


@dataclass(frozen=True)
class AppliedEvent:
    at_iteration: int
    kind: str
    payload: tuple[int, int] | int
    n_after: int
    true_average_after: float


@dataclass
class RunTrace:
    """Per-iteration record of a run; each fact is stored once.

    spreads[k] is V(x(k)) = max - min; errs[k] is max_i |x_i(k) - reference|
    where the reference is the mean initial state of the nodes alive at k,
    whose original ids node_ids[k] holds (the rounds of one topology segment
    share one tuple). xs / thetas are populated only when record_trace is
    set; broadcasts exist for k < k_stop, and x_plus(k) is x(k) + theta(k),
    formed by whoever reads it. k_stop, consensus_value and
    final_true_average are derived from spreads, x_final and the applied
    events. write_trace_csv and write_summary_csv hand these lists to
    privagg.csvfmt, which lays out and formats the CSV text.
    """

    config: RunConfig
    spreads: list[float] = field(default_factory=list)
    errs: list[float] = field(default_factory=list)
    node_ids: list[tuple[int, ...]] = field(default_factory=list)
    xs: list[np.ndarray] = field(default_factory=list)
    thetas: list[np.ndarray] = field(default_factory=list)
    events_applied: list[AppliedEvent] = field(default_factory=list)
    reason: str = ""
    x_final: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def k_stop(self) -> int:
        return len(self.spreads) - 1

    @property
    def consensus_value(self) -> float:
        return float(self.x_final[0])

    @property
    def final_err(self) -> float:
        return self.errs[-1]

    @property
    def final_spread(self) -> float:
        return self.spreads[-1]

    @property
    def final_true_average(self) -> float:
        """The error's last reference: the survivors' mean initial state."""
        if self.events_applied:
            return self.events_applied[-1].true_average_after
        return float(np.mean(self.config.x0))

    def write_trace_csv(self, path: str | Path) -> None:
        """The trace CSV, one row per (k, node); see csvfmt.write_trace."""
        if not self.xs:
            raise ValueError("run was executed with record_trace=False")
        write_trace(path, self.xs, self.thetas, self.node_ids)

    def write_summary_csv(self, path: str | Path) -> None:
        """The summary CSV, one row per k; see csvfmt.write_summary."""
        write_summary(path, self.spreads, self.errs)


def state_envelope(x0: Sequence[float] | np.ndarray, params: NoiseParams) -> float:
    """Upper bound max_k ||x(k)||_inf <= ||x0||_inf + alpha/(1-rho)."""
    x0 = np.asarray(x0, dtype=np.float64)
    return float(np.max(np.abs(x0)) + params.alpha / (1.0 - params.rho))


def _kernel_operands(wm: WeightMatrix, matrix_form: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, cols) the round kernel takes: the dense layout for the
    matrix form, the support layout for the per-node form. The kernel takes
    W slot-major, as W.T; Metropolis W is symmetric bit for bit, so W
    itself is that layout."""
    if matrix_form:
        return wm.w, np.arange(wm.n)[:, None]
    return wm.weights, wm.cols


def run(config: RunConfig) -> RunTrace:
    """Execute one run to its stopping point and return the trace.

    A disconnected graph raises ValueError (from ``metropolis``)."""
    g = config.graph
    kernel = get_backend().step
    matrix_form = config.update_form == "matrix"

    x0_full = np.array(config.x0, dtype=np.float64)
    x = x0_full  # x is replaced each round, never written to
    alive = list(range(g.n))
    wm = metropolis(g)
    weights, cols = _kernel_operands(wm, matrix_form)
    reference = float(np.mean(x0_full))
    max_rounds = config.max_rounds
    block = node_theta_block(config.scheme, config.noise, g.n, max_rounds)
    guard = (
        state_envelope(x0_full, config.noise) * (1.0 + TOL.envelope_slack)
        if config.scheme in _ENVELOPE_SCHEMES
        else math.inf
    )
    events = sorted(config.events, key=lambda e: e.at_iteration)
    trace = RunTrace(config=config)

    ei = 0
    k = 0
    alive_arr = np.arange(g.n)
    ids = tuple(alive)  # one tuple per topology segment, shared by its rounds
    while True:
        first, before = ei, g
        while ei < len(events) and events[ei].at_iteration == k:
            g, alive, gone = apply_run_event(g, events[ei], alive)
            if gone is not None:
                x = np.delete(x, gone)
                alive_arr = np.delete(alive_arr, gone)
                reference = float(np.mean(x0_full[alive_arr]))
            trace.events_applied.append(
                AppliedEvent(k, events[ei].kind, events[ei].payload, g.n, reference)
            )
            ei += 1
        if ei > first:  # the new segment's weights and ids, once per iteration
            wm = metropolis(g, base=(before, wm))  # apply_event checked connectivity
            weights, cols = _kernel_operands(wm, matrix_form)
            ids = tuple(alive)

        peak = float(np.max(np.abs(x)))
        if not math.isfinite(peak):
            raise EngineAbort(f"non-finite state at iteration {k}")
        if peak > guard:
            raise EngineAbort(
                f"state envelope exceeded at iteration {k}: {peak} > {guard}"
            )

        trace.spreads.append(float(x.max() - x.min()))
        trace.errs.append(float(np.max(np.abs(x - reference))))
        trace.node_ids.append(ids)
        if config.record_trace:
            trace.xs.append(x)  # every round's x is a new array, never written to

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
            raise EngineAbort(f"non-finite broadcast at iteration {k}")
        if config.record_trace:
            trace.thetas.append(theta)
        x = kernel(weights, cols, x_plus)
        k += 1

    trace.x_final = x
    return trace


def apply_run_event(
    g: Graph, event: TopologyEvent, alive: list[int]
) -> tuple[Graph, list[int], int | None]:
    """Translate an original-id event to current positions and apply it.

    alive lists the original ids of g's nodes by position, ascending.
    Returns the new graph, the surviving original ids and the position a
    remove_node took out (None for edge events).
    """
    if event.kind == "remove_node":
        orig = event.payload
        assert isinstance(orig, int)
        pos = _position(alive, orig)
        if pos is None:
            raise ValueError(f"remove_node: node {orig} is not present")
        g2 = apply_event(g, replace(event, payload=pos))
        return g2, alive[:pos] + alive[pos + 1 :], pos
    i, j = event.payload  # type: ignore[misc]
    pi, pj = _position(alive, i), _position(alive, j)
    if pi is None or pj is None:
        raise ValueError(f"{event.kind}: node in ({i},{j}) is not present")
    g2 = apply_event(g, replace(event, payload=(pi, pj)))
    return g2, alive, None


def _position(alive: list[int], orig: int) -> int | None:
    """The position of original id orig in the ascending alive list, if any."""
    pos = bisect_left(alive, orig)
    return pos if pos < len(alive) and alive[pos] == orig else None


def aggregate(trace: RunTrace, kind: str) -> float:
    """Recover the aggregate from a finished run: any node's final state is
    the average; the sum is that times the number of surviving nodes."""
    if kind not in AGGREGATE_KINDS:
        raise ValueError(f"unknown aggregate kind {kind!r}")
    if kind == "average":
        return trace.consensus_value
    return len(trace.node_ids[-1]) * trace.consensus_value


@dataclass(frozen=True)
class EnvelopePoint:
    k: int
    bound: float
    observed: float
    ok: bool


def decay_envelope(
    trace: RunTrace, eps_w: float, params: NoiseParams
) -> list[EnvelopePoint]:
    """Theoretical upper bounds for the spread V at iterations l + h*n.

    bound(l, h) = (1-eps_w)^h V(x(l))
                  + ahat(l) * h * max(rho^((h-1)n), (1-eps_w)^(h-1))
    with ahat(l) = 2*alpha*rho^l*(1-rho^(n+1))/(1-rho). Requires a
    static-topology trace; flags any observed violation via .ok.
    """
    if trace.events_applied:
        raise ValueError("decay envelope requires a static-topology run")
    if not 0.0 < eps_w <= 1.0:
        raise ValueError("contraction factor must be in (0, 1]")
    n = len(trace.node_ids[0])
    rho, alpha = params.rho, params.alpha
    points = []
    for start in range(min(n, trace.k_stop + 1)):
        ahat = 2.0 * alpha * rho**start * (1.0 - rho ** (n + 1)) / (1.0 - rho)
        h = 1
        while start + h * n <= trace.k_stop:
            tail = ahat * h * max(rho ** ((h - 1) * n), (1.0 - eps_w) ** (h - 1))
            bound = (1.0 - eps_w) ** h * trace.spreads[start] + tail
            observed = trace.spreads[start + h * n]
            points.append(EnvelopePoint(start + h * n, bound, observed, observed <= bound))
            h += 1
    return points
