"""Synchronous noisy-consensus rounds with trace capture and diagnostics.

Each round every node broadcasts x_i + theta_i and the state advances by
the weight matrix: x(k+1) = W (x(k) + theta(k)). One kernel runs the
update on the weights of the current topology segment, in a dense matrix
form or a per-node support form that agree bit-for-bit. Topology events
(edge add/remove, node removal) start a new segment; removed nodes take
their state mass with them and the error metric re-targets the surviving
nodes' initial average.

A node keeps its id and its state column for the whole run. A removed
node's column is retired, with weight 1.0 on itself and 0.0 in every live
row, and its theta is left as drawn; spread, error, the guards, the
broadcast check, the trace rows and x_final read the live columns only.

A run advances one block of rounds at a time. A block ends at the next
event iteration, at max_rounds or after noise.STACK_VALUES values of
state, and holds no more rounds than the run has already run (one at
least), so a run that stops early computes fewer than twice its rounds.
Each of its rounds only adds theta to the state and calls the kernel,
unless the state is a fixed point of the segment's kernel: once a round
that ends at a multiple of FIXED_POINT_PROBE rounds, or a block's last
round, gives back its broadcast x_plus bit for bit with no floating-point
error, the block's later rounds add theta at once, and the leading
rounds whose x_plus is the state bit for bit repeat it without a kernel
call. A run whose noise decays settles there long before the default
horizon of n^2 rounds, once its noise is below half an ulp of the state;
a run that never settles pays one comparison of n values per
FIXED_POINT_PROBE rounds. The bookkeeping runs once per block over the
(rounds x n) stack of states: the envelope and finiteness guards, the
check that every broadcast is finite, spread, error and the term_epsilon
gap. The run stops where a round-by-round loop stops, at the
first round at which a guard or a stopping rule fires, and the block's
later rounds are discarded. The floating-point errors of the rounds up to
the stop reach the caller's numpy error handling as a round-by-round
loop's would (see run); those of the discarded rounds do not. The trace
keeps what each block made, one Block of arrays per block, and one
(first_k, ids) per topology segment; nothing is kept per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .backend import get_backend
from .csvfmt import write_summary, write_trace
from .noise import ENVELOPE_SCHEMES, STACK_VALUES, NoiseParams, check_scheme, node_theta_block
from .tolerances import TOL
from .topology import Graph, TopologyEvent, apply_event
from .weights import WeightMatrix, metropolis

UPDATE_FORMS = ("matrix", "per_node")
# Rounds between the tests for a fixed point inside a block: a run makes
# at most this many kernel calls past the round from which its state
# repeats.
FIXED_POINT_PROBE = 16
AGGREGATE_KINDS = ("sum", "average")


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
        if self.graph.retired:  # a run retires nodes only through its events
            raise ValueError(f"graph has retired nodes {sorted(self.graph.retired)}")
        check_scheme(self.scheme)
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


@dataclass(frozen=True)
class Block:
    """The rounds k .. k + len(spread) - 1 that one block of a run kept.

    Rows j of x and theta are x(k + j) and theta(k + j) in the live nodes'
    columns, theta's for the rounds that broadcast; both are None unless
    the run records its trace. spread[j] is V(x(k + j)) = max - min and
    err[j] is max_i |x_i(k + j) - reference|, the reference being the live
    nodes' mean initial state.
    """

    k: int
    x: np.ndarray | None
    theta: np.ndarray | None
    spread: np.ndarray
    err: np.ndarray


@dataclass
class RunTrace:
    """The record of a run, as its blocks made it; each fact is stored once.

    segments holds one (first_k, ids) per topology segment: the live nodes
    from round first_k on. A node's id is its index in the config's graph
    for the whole run; a removed id is never reused. blocks holds one Block
    per block of rounds, in order, each inside one segment, whose ids order
    its columns and x_final's. Broadcasts exist for k < k_stop, and
    x_plus(k) = x(k) + theta(k) is formed by whoever reads it. No array is
    written after the block that made it.

    xs, thetas, spreads, errs and node_ids are per-round lists built from
    the records on each access, for callers that index by round; the rounds
    of a segment share its ids tuple. Library code reads the records, and
    the writers hand them to privagg.csvfmt, which lays out the CSV text.
    """

    config: RunConfig
    segments: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    events_applied: list[AppliedEvent] = field(default_factory=list)
    reason: str = ""
    x_final: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def xs(self) -> list[np.ndarray]:
        return [x for b in self.blocks if b.x is not None for x in b.x]

    @property
    def thetas(self) -> list[np.ndarray]:
        return [t for b in self.blocks if b.theta is not None for t in b.theta]

    @property
    def spreads(self) -> list[float]:
        return [v for b in self.blocks for v in b.spread.tolist()]

    @property
    def errs(self) -> list[float]:
        return [v for b in self.blocks for v in b.err.tolist()]

    @property
    def node_ids(self) -> list[tuple[int, ...]]:
        ends = [k for k, _ in self.segments[1:]] + [self.k_stop + 1]
        return [ids for (k, ids), end in zip(self.segments, ends) for _ in range(end - k)]

    @property
    def k_stop(self) -> int:
        last = self.blocks[-1]
        return last.k + len(last.spread) - 1

    @property
    def n_final(self) -> int:
        return len(self.segments[-1][1])

    @property
    def consensus_value(self) -> float:
        return float(self.x_final[0])

    @property
    def final_err(self) -> float:
        return float(self.blocks[-1].err[-1])

    @property
    def final_spread(self) -> float:
        return float(self.blocks[-1].spread[-1])

    @property
    def final_true_average(self) -> float:
        """The error's last reference: the survivors' mean initial state."""
        if self.events_applied:
            return self.events_applied[-1].true_average_after
        return float(np.mean(self.config.x0))

    def write_trace_csv(self, path: str | Path) -> None:
        """The trace CSV, one row per (k, node); see csvfmt.write_trace."""
        if not self.config.record_trace:
            raise ValueError("run was executed with record_trace=False")
        xs, thetas = [b.x for b in self.blocks], [b.theta for b in self.blocks]
        write_trace(path, self.segments, xs, thetas)

    def write_summary_csv(self, path: str | Path) -> None:
        """The summary CSV, one row per k; see csvfmt.write_summary."""
        spreads = np.concatenate([np.empty(0), *(b.spread for b in self.blocks)])
        errs = np.concatenate([np.empty(0), *(b.err for b in self.blocks)])
        write_summary(path, spreads, errs)


def state_envelope(x0: Sequence[float] | np.ndarray, params: NoiseParams) -> float:
    """Upper bound max_k ||x(k)||_inf <= ||x0||_inf + alpha/(1-rho)."""
    x0 = np.asarray(x0, dtype=np.float64)
    return float(np.max(np.abs(x0)) + params.alpha / (1.0 - params.rho))


def _kernel_operands(wm: WeightMatrix, matrix_form: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, cols) the round kernel takes, once per topology segment:
    the support layout for the per-node form; for the matrix form W itself,
    which is W slot-major (W.T) since Metropolis W is symmetric bit for bit,
    with the C-ordered (n x n) index table cols[s, i] = s."""
    if matrix_form:
        return wm.w, np.repeat(np.arange(wm.n)[:, None], wm.n, axis=1)
    return wm.weights, wm.cols


def run(config: RunConfig) -> RunTrace:
    """Execute one run to its stopping point and return the trace.

    A disconnected graph raises ValueError (from ``metropolis``). A block's
    arithmetic runs with the floating-point errors that numpy's error
    handling (np.seterr) heeds noted by round instead of reported; once
    the block's stop is known, the rounds up to it that raised one run
    again under the caller's handling, so their warnings (or a raise)
    come as from a round-by-round loop, though after the block's rounds
    rather than between them. The kernel must be pure: the same result,
    and the same floating-point errors, for the same operands. A run
    relies on that to skip the kernel at a fixed point (see the module
    docstring), so a kernel that counts its calls or changes with them
    sees fewer calls than rounds once a run settles."""
    g = config.graph
    kernel = get_backend().step
    matrix_form = config.update_form == "matrix"

    n = g.n
    x0 = np.array(config.x0, dtype=np.float64)
    x = x0  # the latest state; a block's states are written once each
    live = slice(None)  # the live columns: all, until a node is retired
    wm = metropolis(g)
    weights, cols = _kernel_operands(wm, matrix_form)
    reference = float(np.mean(x0))
    max_rounds = config.max_rounds
    block = node_theta_block(config.scheme, config.noise, n, max_rounds)
    guard = (
        state_envelope(x0, config.noise) * (1.0 + TOL.envelope_slack)
        if config.scheme in ENVELOPE_SCHEMES
        else math.inf
    )
    events = sorted(config.events, key=lambda e: e.at_iteration)
    trace = RunTrace(config=config)

    ei = 0
    k = 0
    fixed = False  # x is a fixed point of this segment's kernel
    same = np.empty(n, dtype=bool)  # the probe's test of x_plus against x
    while True:
        first, before = ei, g
        while ei < len(events) and events[ei].at_iteration == k:
            event = events[ei]
            g = apply_event(g, event)
            if event.kind == "remove_node":
                live = np.array([i for i in range(n) if i not in g.retired])
                reference = float(np.mean(x0[live]))
            trace.events_applied.append(
                AppliedEvent(k, event.kind, event.payload, n - len(g.retired), reference)
            )
            ei += 1
        if ei > first:  # the new segment's weights, once per iteration
            wm = metropolis(g, base=(before, wm))  # apply_event checked connectivity
            weights, cols = _kernel_operands(wm, matrix_form)
            fixed = False
        if ei > first or k == 0:  # a topology segment starts at k
            trace.segments.append((k, tuple(np.arange(n)[live].tolist())))

        # The block: rounds k .. end - 1 broadcast, as many as have run (one
        # at least), up to the next event, max_rounds or the value budget;
        # at k == max_rounds it holds the last state alone. A run that stops
        # early so computes fewer than twice its rounds.
        end = min(max_rounds, k + max(1, min(k, STACK_VALUES // n)))
        if ei < len(events):
            end = min(end, events[ei].at_iteration)
        theta = block[k:end]
        states, plus = np.empty((end - k + 1, n)), np.empty((end - k, n))
        states[0] = x
        x = states[0]
        # The errors the caller heeds are noted by round, not reported: past
        # a stop the block works on values the round loop never forms.
        faults: list[int] = []
        j = 0
        heed = {kind: "call" if how != "ignore" else how for kind, how in np.geterr().items()}
        with np.errstate(**heed, call=lambda *_: faults.append(j)):
            while j < end - k:
                if fixed:  # rounds whose x_plus is x give x again, with no fault
                    with np.errstate(all="ignore"):  # a round that differs runs again below
                        np.add(x, theta[j:], out=plus[j:])
                    still = (plus[j:].view(np.uint64) == x.view(np.uint64)).all(axis=1)
                    fixed = bool(still.all())
                    skip = len(still) if fixed else int(still.argmin())
                    states[j + 1 : j + skip + 1] = x
                    j += skip
                    continue
                # the rounds up to the next multiple of FIXED_POINT_PROBE or
                # the block's end; x is a fixed point if the last round's
                # kernel gave its x_plus back unfaulted
                probe = min(end, k + j + FIXED_POINT_PROBE - (k + j) % FIXED_POINT_PROBE)
                for j in range(j, probe - k):
                    np.add(x, theta[j], out=plus[j])
                    states[j + 1] = kernel(weights, cols, plus[j])
                    x = states[j + 1]
                np.equal(plus[j].view(np.uint64), x.view(np.uint64), out=same)
                fixed = faults[-1:] != [j] and bool(same.all())
                j = probe - k
        rows = max(end - k, 1)  # the states checked here: x(k) .. x(k + rows - 1)
        eps = config.term_epsilon if trace.n_final > 1 else 0.0
        with np.errstate(all="ignore"):
            r, cause, high, low = _first_stop(
                states[:rows], plus, live, guard, k + rows - 1 == max_rounds, eps, wm.cols
            )
        for j in sorted(set(faults)):  # again, under the caller's handling
            if j < r or (j == r and cause == "broadcast"):
                x_plus = states[j] + theta[j]
                if j < r:
                    kernel(weights, cols, x_plus)
        kept = r if cause == "state" else min(r + 1, rows)  # the rounds recorded
        # under the caller's handling too; a gap overflows only where the
        # spread does, which reports it
        spreads = high[:kept] - low[:kept]
        errs = np.maximum(abs(high[:kept] - reference), abs(low[:kept] - reference))
        if cause == "state":
            peak = max(abs(float(high[r])), abs(float(low[r])))
            if not math.isfinite(peak):
                raise EngineAbort(f"non-finite state at iteration {k + r}")
            raise EngineAbort(f"state envelope exceeded at iteration {k + r}: {peak} > {guard}")
        if cause == "broadcast":
            raise EngineAbort(f"non-finite broadcast at iteration {k + r}")
        xs = thetas = None
        if config.record_trace:
            # Copies where a view would pin more than the trace keeps: the
            # noise block, and the rounds a stop leaves in its block.
            xs = states[:kept, live].copy() if cause else states[:kept, live]
            thetas = theta[:r, live].copy()
        trace.blocks.append(Block(k, xs, thetas, spreads, errs))
        if cause:
            trace.reason = cause
            trace.x_final = states[r, live].copy()
            return trace
        k = end


def _first_stop(
    states: np.ndarray,
    plus: np.ndarray,
    live: slice | np.ndarray,
    guard: float,
    at_max: bool,
    term_epsilon: float,
    support: np.ndarray,
) -> tuple[int, str, np.ndarray, np.ndarray]:
    """The first row r at which the round loop stops in a block, and why.

    Row r of states is x(k + r) and row r of plus its broadcast, if it had
    one; at_max says the last row is x(max_rounds). The guards and the
    broadcast check read the live columns; so does the gap, since a
    retired column's support is itself alone. Round by round, in
    this order: a state that is non-finite or past the guard aborts
    ("state"); the state is recorded; term_epsilon (when > 0) and then
    max_rounds stop the run ("term_epsilon", "max_iterations"); a
    non-finite broadcast aborts ("broadcast"). The cause is "" when none
    fires, and r is then len(states). Also returns each row's max and min,
    from which spread and error follow (max, min and rounding are
    monotone, so a row's max |x - reference| is that of its max or of its
    min).
    """
    rows = len(states)
    shown = states[:, live]  # a view until a node is retired
    high, low = shown.max(axis=1), shown.min(axis=1)
    peak = np.maximum(np.abs(high), np.abs(low))
    causes = {
        "state": ~np.isfinite(peak) | (peak > guard),
        "term_epsilon": np.zeros(rows, dtype=bool),
        "max_iterations": np.zeros(rows, dtype=bool),
        "broadcast": np.zeros(rows, dtype=bool),
    }
    if term_epsilon > 0.0:
        # max_j |fl(x_j - x_i)| over i's support is max(fl(hi_i - x_i),
        # fl(x_i - lo_i)), as rounding is monotone and odd; NaN stays NaN
        nodes = np.ascontiguousarray(states.T)  # node i's rounds in row i
        hi, lo = nodes.take(support[0], axis=0), nodes.take(support[0], axis=0)
        for c in support[1:]:  # slot by slot, the support's running max and min
            near = nodes.take(c, axis=0)
            np.maximum(hi, near, out=hi)
            np.minimum(lo, near, out=lo)
        gap = np.maximum(hi - nodes, nodes - lo, out=hi).max(axis=0)
        causes["term_epsilon"] = gap <= term_epsilon
    causes["max_iterations"][-1] = at_max
    causes["broadcast"][: len(plus)] = ~np.isfinite(plus[:, live]).all(axis=1)
    fired = np.flatnonzero(np.logical_or.reduce(list(causes.values())))
    if not len(fired):
        return rows, "", high, low
    r = int(fired[0])
    return r, next(c for c, hit in causes.items() if hit[r]), high, low


def aggregate(trace: RunTrace, kind: str) -> float:
    """Recover the aggregate from a finished run: any node's final state is
    the average; the sum is that times the number of surviving nodes."""
    if kind not in AGGREGATE_KINDS:
        raise ValueError(f"unknown aggregate kind {kind!r}")
    if kind == "average":
        return trace.consensus_value
    return trace.n_final * trace.consensus_value


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
    n = trace.n_final
    spreads = trace.spreads  # once: each read builds the list
    rho, alpha = params.rho, params.alpha
    points = []
    for start in range(min(n, trace.k_stop + 1)):
        ahat = 2.0 * alpha * rho**start * (1.0 - rho ** (n + 1)) / (1.0 - rho)
        h = 1
        while start + h * n <= trace.k_stop:
            tail = ahat * h * max(rho ** ((h - 1) * n), (1.0 - eps_w) ** (h - 1))
            bound = (1.0 - eps_w) ** h * spreads[start] + tail
            observed = spreads[start + h * n]
            points.append(EnvelopePoint(start + h * n, bound, observed, observed <= bound))
            h += 1
    return points
