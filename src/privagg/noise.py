"""Privacy noise processes.

The main scheme is decaying zero-sum noise: each node draws a residual
delta_k inside a geometrically shrinking interval and broadcasts the
difference theta_k = delta_k - delta_{k-1}, so every truncated sum of
theta telescopes to the current residual. The residual retained after a
step is the float round-trip value fl(delta_{k-1} + theta_k); that makes
the telescoping identity hold bit-for-bit when the recorded theta values
are summed sequentially, not just in exact arithmetic.

Draw intervals are shrunk by DRAW_MARGIN so the float residual (and the
reconstruction error of the full-neighborhood attack) stays strictly
inside the analytic envelope (alpha/2)*rho**(k+1).

With h >= 2 the rounds are split round-robin into h independent chains;
each chain runs its own telescoping residual with the envelope indexed by
its inner counter, so the zero-sum and decay conditions hold per chain.

Every scheme is computed in one place, NoiseBank.round_values, from a block
of raw draws that raw_draws reads from a generator in draw order, with no
exception: runs, later-round attack trials and the naive attack's round 0 alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DRAW_MARGIN = 1.0 - 2.0**-20

SCHEMES = ("zero_sum", "independent_decaying", "gaussian_constant", "zero")
DISTRIBUTIONS = ("uniform", "truncated_gaussian")

# Truncation point (in standard deviations) of the truncated-gaussian draw;
# a draw is the conditioned z rescaled so the support matches the uniform one.
TRUNC_SIGMAS = 2.0


@dataclass(frozen=True)
class NoiseParams:
    """Parameters of a noise process.

    alpha scales the magnitude, rho in [0,1) the geometric decay, h >= 1 the
    number of round-robin sub-chains (1 = plain scheme). variance is used
    only by the gaussian_constant baseline.
    """

    alpha: float = 1.0
    rho: float = 0.9
    h: int = 1
    distribution: str = "uniform"
    seed: int = 0
    variance: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must be in [0,1)")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if not self.variance > 0.0:
            raise ValueError("variance must be > 0")


def seeded_stream(seed: int, *key: int) -> np.random.Generator:
    """The one place a seed becomes a stream: a node's noise is (master seed,
    node id); a graph or an x0 draw is its own seed with no key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for (seed, key); keeps all entropy explicit."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def raw_draws(
    scheme: str, params: NoiseParams, gen: np.random.Generator, count: int
) -> np.ndarray:
    """The raw values `count` noise draws of `scheme` take from gen, in draw order.

    zero_sum takes its distribution's values on [-1, 1], independent_decaying
    uniforms on [-1, 1], gaussian_constant standard normals, and zero nothing.
    The truncated gaussian keeps the normals with |z| <= TRUNC_SIGMAS in the
    order drawn; numpy fills normal arrays element by element, so this accepts
    exactly the draws a per-draw rejection loop accepts.
    """
    if scheme == "zero":
        return np.empty(0)
    if scheme == "gaussian_constant":
        return gen.standard_normal(count)
    if scheme == "independent_decaying" or params.distribution == "uniform":
        return gen.uniform(-1.0, 1.0, count)
    kept, have = [np.empty(0)], 0
    while have < count:
        need = count - have
        z = gen.standard_normal(need + need // 16 + 16)  # ~4.6% are rejected
        z = z[np.abs(z) <= TRUNC_SIGMAS]
        kept.append(z)
        have += z.size
    return np.concatenate(kept)[:count] / TRUNC_SIGMAS


def _envelope(params: NoiseParams, inner: int) -> float:
    """Residual envelope (alpha/2)*rho**(inner+1) for a chain's inner index."""
    return 0.5 * params.alpha * params.rho ** (inner + 1)


class NoiseBank:
    """theta, the noise each lane adds to its broadcast, one round at a time.

    raw is a (rounds x *lanes) block from raw_draws; row k feeds round k (the
    zero scheme's block has no rows), and the lanes may have any shape. The
    engine gives each node its own stream (for_nodes); a block of attack
    trials stacks (trials x nodes) lanes, each trial laying one generator's
    draws out row-major over its nodes; the naive attack's round 0 is one row
    of (trials,) lanes. This is the only code that turns raw draws into theta.
    """

    def __init__(self, scheme: str, params: NoiseParams, raw: np.ndarray):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown noise scheme {scheme!r}")
        self.scheme = scheme
        self.params = params
        self.lanes = raw.shape[1:]
        self._raw = raw
        self._next_k = 0
        if scheme == "zero_sum":
            self._delta = np.zeros((params.h, *self.lanes))

    @classmethod
    def for_nodes(cls, scheme: str, params: NoiseParams, n: int, rounds: int) -> NoiseBank:
        """A run's noise: lane i reads node i's own stream (params.seed, i)."""
        columns = [
            raw_draws(scheme, params, seeded_stream(params.seed, i), rounds) for i in range(n)
        ]
        return cls(scheme, params, np.column_stack(columns))

    def round_values(self, k: int) -> np.ndarray:
        """theta for every lane at round k (full width; callers slice survivors)."""
        if k != self._next_k:
            raise ValueError(f"out-of-order round: expected k={self._next_k}, got {k}")
        self._next_k += 1
        p = self.params
        if self.scheme == "zero":
            return np.zeros(self.lanes)
        if self.scheme == "gaussian_constant":
            return math.sqrt(p.variance) * self._raw[k]
        if self.scheme == "independent_decaying":
            scale = 0.5 * p.alpha * p.rho**k * DRAW_MARGIN
            return self._raw[k] * scale
        chain, inner = k % p.h, k // p.h
        draw = self._raw[k] * (_envelope(p, inner) * DRAW_MARGIN)
        if inner == 0:
            self._delta[chain] = draw
            return draw
        delta = self._delta[chain]
        theta = draw - delta
        new = delta + theta
        bad = np.abs(new) > _envelope(p, inner)
        if bad.any():  # float guard; margin makes this unreachable
            theta = np.where(bad, -delta, theta)
            new = delta + theta
        self._delta[chain] = new
        return theta
