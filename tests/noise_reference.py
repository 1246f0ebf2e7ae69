"""Scalar per-node noise processes: the reference theta_block is tested against.

Each class computes one node's theta one round at a time with Python floats,
reading its raw values from a RawStream: the node's own stream by default,
or one stream shared by all nodes of an attack trial (node i then takes the
raw value k*n + i at round k when the nodes are sampled in order each round).
"""

from __future__ import annotations

import math

import numpy as np

from privagg.noise import DRAW_MARGIN, TRUNC_SIGMAS, NoiseParams, seeded_stream

_CHUNK = 512


class RawStream:
    """Scalar raw draws from one generator, popped from chunked buffers.

    The truncated gaussian is a per-draw rejection loop over the normals.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._uni: list[float] = []
        self._norm: list[float] = []

    def next_uniform(self) -> float:
        if not self._uni:
            self._uni = self._gen.uniform(-1.0, 1.0, _CHUNK).tolist()[::-1]
        return self._uni.pop()

    def next_normal(self) -> float:
        if not self._norm:
            self._norm = self._gen.standard_normal(_CHUNK).tolist()[::-1]
        return self._norm.pop()

    def next_unit(self, distribution: str) -> float:
        """One raw draw on [-1, 1] per the configured distribution."""
        if distribution == "uniform":
            return self.next_uniform()
        z = self.next_normal()
        while abs(z) > TRUNC_SIGMAS:
            z = self.next_normal()
        return z / TRUNC_SIGMAS


def _envelope(params: NoiseParams, inner: int) -> float:
    """Residual envelope (alpha/2)*rho**(inner+1) for a chain's inner index."""
    return 0.5 * params.alpha * params.rho ** (inner + 1)


class ZeroSumNoise:
    """Telescoping zero-sum noise for one node (h >= 1 chains, round-robin).

    sample(k) must be called with consecutive k starting at 0. The running
    per-chain sum of returned values equals the chain residual bit-for-bit.
    """

    def __init__(self, params: NoiseParams, node: int, stream: RawStream | None = None):
        self.params = params
        self._stream = stream or RawStream(seeded_stream(params.seed, node))
        self._delta = [0.0] * params.h
        self._cum = [0.0] * params.h
        self._next_k = 0

    @property
    def chain_residuals(self) -> tuple[float, ...]:
        return tuple(self._delta)

    @property
    def chain_cumulative(self) -> tuple[float, ...]:
        return tuple(self._cum)

    def sample(self, k: int) -> float:
        if k != self._next_k:
            raise ValueError(f"out-of-order sample: expected k={self._next_k}, got {k}")
        self._next_k += 1
        p = self.params
        chain, inner = k % p.h, k // p.h
        scale = _envelope(p, inner) * DRAW_MARGIN
        draw = self._stream.next_unit(p.distribution) * scale
        if inner == 0:
            theta = draw
            self._delta[chain] = draw
        else:
            theta = draw - self._delta[chain]
            new = self._delta[chain] + theta
            if abs(new) > _envelope(p, inner):  # float guard; margin makes this unreachable
                theta = -self._delta[chain]
                new = self._delta[chain] + theta
            self._delta[chain] = new
        self._cum[chain] = self._cum[chain] + theta
        return theta


class IndependentDecayingNoise:
    """Baseline: independent uniform draws on [-(alpha/2)rho^k, +(alpha/2)rho^k].

    Decays like the zero-sum scheme but almost surely violates the zero-sum
    condition, biasing the consensus limit by the total injected noise / n.
    """

    def __init__(self, params: NoiseParams, node: int, stream: RawStream | None = None):
        self.params = params
        self._stream = stream or RawStream(seeded_stream(params.seed, node))
        self._next_k = 0

    def sample(self, k: int) -> float:
        if k != self._next_k:
            raise ValueError(f"out-of-order sample: expected k={self._next_k}, got {k}")
        self._next_k += 1
        scale = 0.5 * self.params.alpha * self.params.rho**k * DRAW_MARGIN
        return self._stream.next_uniform() * scale


class ConstantGaussianNoise:
    """Baseline: i.i.d. normal noise with fixed variance (no decay)."""

    def __init__(self, params: NoiseParams, node: int, stream: RawStream | None = None):
        self._std = math.sqrt(params.variance)
        self._stream = stream or RawStream(seeded_stream(params.seed, node))
        self._next_k = 0

    def sample(self, k: int) -> float:
        if k != self._next_k:
            raise ValueError(f"out-of-order sample: expected k={self._next_k}, got {k}")
        self._next_k += 1
        return self._std * self._stream.next_normal()


class ZeroNoise:
    """Baseline: no noise; classical exact consensus."""

    def __init__(self, params: NoiseParams, node: int, stream: RawStream | None = None):
        self._next_k = 0

    def sample(self, k: int) -> float:
        if k != self._next_k:
            raise ValueError(f"out-of-order sample: expected k={self._next_k}, got {k}")
        self._next_k += 1
        return 0.0


SCHEME_CLASSES = {
    "zero_sum": ZeroSumNoise,
    "independent_decaying": IndependentDecayingNoise,
    "gaussian_constant": ConstantGaussianNoise,
    "zero": ZeroNoise,
}
