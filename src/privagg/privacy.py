"""Disclosure-probability quantification and concrete adversaries.

sigma_analytic gives the analytic ceiling on the probability that a
neighbor estimates a node's initial value within +/- epsilon (the maximum
probability mass of the round-0 noise over any window of width 2*epsilon).
The attacks measure it empirically: a one-shot estimate from the round-0
broadcast, a trained constant-offset estimate from a later round (a block
of its seeded trials advances as one (n x trials) state, the trials as the
kernel's trailing lanes), and the exact reconstruction available to an
observer who sees the target's whole neighborhood.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .backend import get_backend
from .engine import RunTrace
from .noise import (
    TELESCOPING_SCHEMES,
    TRUNC_SIGMAS,
    NoiseParams,
    envelope,
    seeded_stream,
    seeded_streams,
    stream_lanes,
    theta_block,
)
from .topology import Graph, check_privacy_precondition
from .weights import WeightMatrix, metropolis

PRIOR = (-50.0, 50.0)  # the attacks' initial values are uniform on it, |x| >> alpha*rho
BLOCK_VALUES = 2**14  # drawn values (or kernel products) per block of attack trials


@dataclass(frozen=True)
class PrivacyQuery:
    """An estimation-accuracy target epsilon against a noise configuration."""

    epsilon: float
    params: NoiseParams

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")


@dataclass(frozen=True)
class AdversaryView:
    """What the observer can see: its own history plus every broadcast of its
    logical neighbors. knows_target_neighbors models the stronger adversary
    that also observes the target's full neighborhood."""

    graph: Graph
    observer: int
    target: int
    knows_target_neighbors: bool = False

    def __post_init__(self) -> None:
        for name in ("observer", "target"):
            node = getattr(self, name)
            if not 0 <= node < self.graph.n:
                raise ValueError(f"{name} must be in 0..{self.graph.n - 1}, got {node}")
        if self.target not in self.graph.neighbors[self.observer]:
            raise ValueError(
                f"target {self.target} is not a neighbor of observer {self.observer}"
            )

    @property
    def observed_nodes(self) -> frozenset[int]:
        return frozenset((self.observer, *self.graph.neighbors[self.observer]))


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    sigma_analytic: float
    sigma_empirical: float
    trials: int
    stderr: float
    attack_kind: str

    def __post_init__(self) -> None:
        for name in ("sigma_analytic", "sigma_empirical"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _truncated_gaussian_window(epsilon: float, half: float) -> float:
    """Truncated-gaussian mass of the centred window [-epsilon, epsilon] on the
    support [-half, half]. The density is symmetric and unimodal, so no other
    window of width 2*epsilon holds more."""

    def cdf(y: float) -> float:
        z = max(-TRUNC_SIGMAS, min(TRUNC_SIGMAS, TRUNC_SIGMAS * y / half))
        lo = _normal_cdf(-TRUNC_SIGMAS)
        return (_normal_cdf(z) - lo) / (_normal_cdf(TRUNC_SIGMAS) - lo)

    return min(cdf(min(epsilon, half)) - cdf(max(-epsilon, -half)), 1.0)


def sigma_analytic(query: PrivacyQuery) -> float:
    """Disclosure probability ceiling for the given accuracy epsilon.

    Uniform round-0 noise on a support of width alpha*rho gives the closed
    form min(2*epsilon, alpha*rho) / (alpha*rho); the truncated gaussian's
    maximum window is the centred one, also in closed form.
    """
    p = query.params
    width = p.alpha * p.rho
    if width == 0.0:
        warnings.warn(
            "alpha*rho = 0: broadcasts carry no noise, disclosure is certain",
            stacklevel=2,
        )
        return 1.0
    if p.distribution == "uniform":
        return min(2.0 * query.epsilon, width) / width
    return _truncated_gaussian_window(query.epsilon, 0.5 * width)


def naive_attack(
    view: AdversaryView,
    params: NoiseParams,
    epsilon: float,
    trials: int,
    seed: int = 0,
) -> float:
    """Round-0 estimate x_hat = observed broadcast (zero noise guess).

    Returns the fraction of independent trials with |x_hat - x_j(0)| <= epsilon.
    """
    PrivacyQuery(epsilon, params)  # rejects epsilon <= 0 before any draw
    if view.knows_target_neighbors:
        raise ValueError("naive attack models an observer without N_j knowledge")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _naive_rate(params, epsilon, trials, seeded_stream(seed))


def _naive_rate(
    params: NoiseParams,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of trials whose round-0 broadcast lies within epsilon of x0;
    rng draws x0 as _trial_broadcasts does, then one row of zero_sum theta."""
    draws = stream_lanes("zero_sum", params, [rng], 1, 2 * trials, lead=trials)[:, 0]
    x0 = draws[:trials] * (PRIOR[1] - PRIOR[0]) + PRIOR[0]
    theta = theta_block("zero_sum", params, draws[np.newaxis, trials:])[0]
    estimate = x0 + theta  # the round-0 broadcast
    return float(np.mean(np.abs(estimate - x0) <= epsilon))


def _trial_broadcasts(
    wm: WeightMatrix,
    params: NoiseParams,
    scheme: str,
    rounds: int,
    seed: int,
    count: int,
    target: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh runs, one per trial: the arrays x_target(0) and target broadcast at `rounds`.

    Trial t draws from stream t of seeded_streams(seed, count) first x0, then
    the noise, row-major so that node i takes draw k*n + i at round k. A block
    of b trials is stream_lanes' block of b columns, seen as (rounds + 2, n, b)
    lanes: the (n x b) state x0, whose values u map to PRIOR[0] + width*u,
    numpy's uniform(*PRIOR), then theta. Each round is one theta row and one
    kernel call, whose gather copies whole rows of b values and whose weights
    come repeated over the lanes once per block. The last round is computed
    on the target's layout column only. A block holds at most BLOCK_VALUES
    values, one trial at least: per trial its (rounds + 2)*n draws, or its
    slots*n kernel products if there are more.
    """
    n = wm.n
    kernel = get_backend().step
    per_trial = max(rounds + 2, len(wm.cols)) * n
    size = min(count, max(1, BLOCK_VALUES // per_trial))
    column = slice(target, target + 1)
    streams = seeded_streams(seed, count)
    x0_target, broadcast = np.empty(count), np.empty(count)
    for start in range(0, count, size):
        block = slice(start, min(start + size, count))
        b = block.stop - start
        lanes = stream_lanes(scheme, params, streams, b, (rounds + 2) * n, lead=n)
        lanes = lanes.reshape(rounds + 2, n, b)
        x = lanes[0] * (PRIOR[1] - PRIOR[0]) + PRIOR[0]
        x0_target[block] = x_target = x[target]
        theta = theta_block(scheme, params, lanes[1:])
        weights = np.repeat(wm.weights[:, :, np.newaxis], b, axis=2)
        for k in range(rounds):
            theta[k] += x
            if k + 1 < rounds:
                x = kernel(weights, wm.cols, theta[k])
            else:  # the broadcast reads only the target's row
                x_target = kernel(wm.weights[:, column], wm.cols[:, column], theta[k])[0]
        broadcast[block] = x_target + theta[rounds, target]
    return x0_target, broadcast


def _histogram_mode(samples: np.ndarray, bins: int = 201) -> float:
    counts, edges = np.histogram(samples, bins=bins)
    i = int(np.argmax(counts))
    return 0.5 * float(edges[i] + edges[i + 1])


def later_round_attack(
    view: AdversaryView,
    params: NoiseParams,
    round_k: int,
    epsilon: float,
    trials: int,
    seed: int = 0,
    train_trials: int = 2000,
    scheme: str = "zero_sum",
) -> float:
    """Estimate from the round-k broadcast minus a trained constant offset.

    The offset is the empirical mode of the compound noise (broadcast minus
    true initial value), learned offline from independent seeded runs. The
    success rate over fresh trials never exceeds sigma_analytic beyond
    sampling error. All runs are one batched call over the seed's
    train_trials + trials children; the first train_trials train the offset.
    """
    PrivacyQuery(epsilon, params)  # rejects epsilon <= 0 before any draw
    if view.knows_target_neighbors:
        raise ValueError("use disclosure_attack for a full-neighborhood observer")
    if round_k < 0:
        raise ValueError("round_k must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if train_trials < 1:
        raise ValueError("train_trials must be >= 1")
    if not check_privacy_precondition(view.graph, view.observer, view.target):
        raise ValueError(
            "observer sees the target's entire neighborhood; "
            "estimation is exact there - use disclosure_attack"
        )
    x0, broadcast = _trial_broadcasts(
        metropolis(view.graph), params, scheme, round_k, seed, train_trials + trials, view.target
    )
    offset = _histogram_mode(broadcast[:train_trials] - x0[:train_trials])
    hits = np.abs((broadcast[train_trials:] - offset) - x0[train_trials:]) <= epsilon
    return np.count_nonzero(hits) / trials


@dataclass(frozen=True)
class DisclosureResult:
    estimate: float
    error_bound: float
    horizon: int
    rounding_bound: float


def disclosure_attack(view: AdversaryView, trace: RunTrace, horizon: int) -> DisclosureResult:
    """Exact initial-value reconstruction by a full-neighborhood observer.

    Every round-k noise of the target is recovered as theta_j(k) =
    x_j+(k) - sum over j's row support of w_jl * x_l+(k-1); the telescoped
    zero-sum property then gives x_j(0) = x_j+(0) + sum_{k=1..K} theta_j(k)
    with residual error at most the error_bound: the sum telescopes, chain by
    chain, to each chain's latest residual, so the bound is the sum over the
    h chains c of (alpha/2) * rho^(i_c+1), i_c the inner index of chain c's
    latest round up to K; (alpha/2) * rho^(K+1) when h = 1.

    Float rounding adds at most rounding_bound: half an ulp of each rounded
    result between x_j(0) and the estimate. The d_j + 1-term kernel chain
    is the run's own chain on the same broadcasts, bit for bit, so it gives
    x_j(k) exactly; the run's adds x_j+(k) = fl(x_j(k) + theta_j(k)), k =
    0..K, the subtractions fl(x_j+(k) - x_j(k)), the fsum and the final add
    round. So do the residual updates fl(delta + theta) that the theta_j
    telescope through, each |delta| within its round's envelope.
    """
    if not view.knows_target_neighbors:
        raise ValueError("disclosure attack requires knows_target_neighbors=True")
    g = view.graph
    i, j = view.observer, view.target
    if check_privacy_precondition(g, i, j):
        missing = sorted(set(g.neighbors[j]) - view.observed_nodes)
        raise ValueError(
            f"incomplete neighborhood observation: broadcasts of {missing} "
            f"are invisible to node {i}"
        )
    if trace.events_applied:
        raise ValueError("disclosure attack requires a static-topology trace")
    if trace.config.scheme not in TELESCOPING_SCHEMES:
        raise ValueError("reconstruction assumes telescoping (or zero) noise")
    if not trace.config.record_trace:
        raise ValueError("trace must be recorded with record_trace=True")
    if not 1 <= horizon <= trace.k_stop - 1:
        raise ValueError(f"horizon must be in [1, {trace.k_stop - 1}] for this trace")
    if g != trace.config.graph:
        raise ValueError("view graph does not match the trace")

    wm = metropolis(g)
    # x+(0) .. x+(horizon), from the blocks that hold them
    held = [(b, horizon + 1 - b.k) for b in trace.blocks if b.k <= horizon]
    broadcasts = np.concatenate([b.x[:rows] + b.theta[:rows] for b, rows in held])
    # row j of W x+(k-1), k = 1..horizon, the rounds as trailing lanes: j's column of the layout
    column = slice(j, j + 1)
    predicted = get_backend().step(wm.weights[:, column], wm.cols[:, column], broadcasts[:-1].T)
    recovered = broadcasts[1:, j] - predicted[0]
    params = trace.config.noise
    total = math.fsum(recovered.tolist())
    estimate = float(broadcasts[0, j]) + total
    chains = range(min(params.h, horizon + 1))
    bound = math.fsum(envelope(params, (horizon - c) // params.h) for c in chains)
    rounded = np.abs(np.concatenate([broadcasts[:, j], recovered, [total, estimate]]))
    updates = [math.ulp(envelope(params, k // params.h)) for k in range(params.h, horizon + 1)]
    rounding = 0.5 * math.fsum([*np.spacing(rounded).tolist(), *updates])
    return DisclosureResult(estimate, bound, horizon, rounding)


def privacy_sweep(
    params: NoiseParams,
    epsilons: list[float],
    trials: int,
    seed: int = 0,
) -> list[PrivacyReport]:
    """Analytic vs empirical (naive-attack) disclosure rates per epsilon."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    reports = []
    for t, eps in enumerate(epsilons):
        analytic = sigma_analytic(PrivacyQuery(eps, params))
        rate = _naive_rate(params, eps, trials, seeded_stream(seed, t))
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        reports.append(PrivacyReport(eps, analytic, rate, trials, stderr, "naive"))
    return reports


def reports_to_csv(reports: list[PrivacyReport], path) -> None:
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["epsilon", "sigma_analytic", "sigma_empirical", "trials", "stderr", "attack_kind"]
        )
        for r in reports:
            w.writerow(
                [
                    repr(float(r.epsilon)),
                    repr(float(r.sigma_analytic)),
                    repr(float(r.sigma_empirical)),
                    r.trials,
                    repr(float(r.stderr)),
                    r.attack_kind,
                ]
            )
