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

theta is data, not a process: stream_lanes draws a block whose column t is
generator t's unit draws, and theta_block writes every round's theta over
it; the round loops only read its rows. They are the one place every
scheme is drawn and computed: runs, later-round attack trials and the naive
attack's round 0 alike. stream_lanes and theta_block call check_scheme first;
ENVELOPE_SCHEMES and TELESCOPING_SCHEMES name the schemes' properties.

Streams: node i of a run reads stream (seed, i), numpy's
PCG64(SeedSequence(seed, spawn_key=(i,))), and attack trial t reads
SeedSequence(seed).spawn(...)[t], which is the same stream for key t.
seeded_streams seeds all of a run's or an attack's streams in one batch: it
runs the SeedSequence hash over an array of keys and the PCG64 seeding
(O'Neill, "PCG", HMC-CS-2014-0905) over arrays of 128-bit values as uint64
halves, and sets each state, so its generators equal numpy's bit for bit at
a fraction of the cost.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

DRAW_MARGIN = 1.0 - 2.0**-20

SCHEMES = ("zero_sum", "independent_decaying", "gaussian_constant", "zero")
# Schemes whose noise is bounded by alpha*rho^k, so the state envelope holds.
ENVELOPE_SCHEMES = ("zero_sum", "independent_decaying", "zero")
# Schemes whose theta sums telescope, so a full neighbourhood reconstructs x0.
TELESCOPING_SCHEMES = ("zero_sum", "zero")
DISTRIBUTIONS = ("uniform", "truncated_gaussian")

# Drawn values (1 MiB) stream_lanes holds beside its block, one row at least.
# engine.run advances a block of rounds of this many state values (one round
# at least).
STACK_VALUES = 2**17

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


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64 multiplier.
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_states(seed: int, count: int) -> list[list[int]]:
    """The PCG64 state and increment of PCG64(SeedSequence(seed, spawn_key=(i,)))
    for every i < count, as four lists of Python ints: the state's high and
    low uint64 halves, then the increment's.

    Mirrors numpy's mix_entropy and generate_state over a uint32 array of the
    keys, then PCG64's seeding over uint64 arrays of halves; integer arrays
    wrap silently where numpy scalars would warn.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if count > _MASK32 + 1:
        raise ValueError(f"at most 2**32 streams per seed, got {count}")
    run = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (_POOL_SIZE - len(run))  # numpy pads only because a spawn key follows
    entropy = [np.full(count, word, dtype=np.uint32) for word in run]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = [(state[2 * j + 1] << 32) | state[2 * j] for j in range(4)]
    # PCG64's seeding mod 2**128 on (hi, lo) uint64 halves: inc = 2*seq + 1,
    # state = (inc + seed) * _PCG64_MULT + inc
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi, lo = _mul128(hi, lo, _PCG64_MULT >> 64, _PCG64_MULT & _MASK64)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return [hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist()]


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128 on uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi: int, b_lo: int):
    """(a * b) mod 2**128 on uint64 halves, b a constant: a_lo * b_lo in full
    from 32-bit limbs, the cross products mod 2**64 into the high half."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo = (p00 & _MASK32) | (mid << 32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def seeded_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """seeded_stream(seed, i) for i = 0 .. count-1, seeded in one batch.

    These are also the streams of SeedSequence(seed).spawn(count). Every
    item is the same Generator, re-seeded: draw from it before taking the
    next. stream_lanes draws one column from each of the count it takes and
    leaves the rest to its next call.
    """
    gen = np.random.Generator(np.random.PCG64())
    bit_generator = gen.bit_generator
    for state_hi, state_lo, inc_hi, inc_lo in zip(*_pcg64_states(seed, count)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (state_hi << 64) | state_lo, "inc": (inc_hi << 64) | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def check_scheme(scheme: str) -> None:
    """Reject a scheme that is not one of SCHEMES, before anything is drawn."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown noise scheme {scheme!r}")


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for (seed, key); keeps all entropy explicit."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def envelope(params: NoiseParams, inner: int) -> float:
    """Residual envelope (alpha/2)*rho**(inner+1) for a chain's inner index."""
    return 0.5 * params.alpha * params.rho ** (inner + 1)


def theta_block(scheme: str, params: NoiseParams, raw: np.ndarray) -> np.ndarray:
    """Write theta over raw, round by round, and return raw.

    raw is a (rounds x *lanes) block of stream_lanes' unit draws; row k
    becomes the noise every lane adds to its round-k broadcast, and the
    lanes may have any shape: one per node in a run's block
    (node_theta_block), (nodes x trials) in a block of attack trials, the
    kernel's state shape, and (trials,) in the naive attack's one row. This
    is the only code that turns unit draws into theta.
    """
    check_scheme(scheme)
    p = params
    if scheme == "zero":
        raw[...] = 0.0
    elif scheme == "gaussian_constant":
        raw *= math.sqrt(p.variance)
    elif scheme == "independent_decaying":
        scales = [0.5 * p.alpha * p.rho**k * DRAW_MARGIN for k in range(len(raw))]
        raw *= np.array(scales).reshape((-1,) + (1,) * (raw.ndim - 1))
    else:
        # Python int powers: rho ** np.int64(k) can differ in the last bit
        bounds = [envelope(p, k // p.h) for k in range(len(raw))]
        raw *= (np.array(bounds) * DRAW_MARGIN).reshape((-1,) + (1,) * (raw.ndim - 1))
        rows = raw[:, None] if raw.ndim == 1 else raw  # rows[k] is a view for any lanes
        deltas = list(rows[: p.h])  # each chain's residual after its latest round
        for k in range(p.h, len(raw)):
            chain, bound = k % p.h, bounds[k]
            delta, theta = deltas[chain], rows[k]
            np.subtract(theta, delta, out=theta)
            new = delta + theta
            # float guard; fires once an ulp of delta outgrows the margin
            if not np.abs(new).max(initial=0.0) <= bound:
                bad = np.abs(new) > bound
                theta[...] = np.where(bad, -delta, theta)
                new = delta + theta
            deltas[chain] = new
    return raw


def stream_lanes(
    scheme: str,
    params: NoiseParams,
    gens: Iterable[np.random.Generator],
    count: int,
    length: int,
    lead: int = 0,
) -> np.ndarray:
    """The (length x count) block whose column t holds the draws of the t-th
    generator of gens; exactly count generators are taken.

    Column t takes its generator's first `lead` values as Generator.random's
    u on [0, 1), then the scheme's unit draws in draw order: zero_sum its
    distribution's values on [-1, 1], independent_decaying uniforms on
    [-1, 1], gaussian_constant standard normals, zero none (zeros). A uniform
    scheme's column is one random call whose draws after the lead are mapped
    to 2u - 1 in place: uniform(-1.0, 1.0)'s value and generator use bit for
    bit, since numpy computes -1 + 2u from the same u and 2u - 1 is exact,
    with or without fused multiply-add; random takes half of uniform's time.
    The truncated gaussian keeps the normals with |z| <= TRUNC_SIGMAS in the
    order drawn, scaled to [-1, 1]; numpy fills normal arrays element by
    element, so this accepts exactly the draws a per-draw rejection loop
    accepts.

    The columns are drawn as the rows of one reused buffer, one generator
    per row and STACK_VALUES values at a time (one row at least), so at most
    one group of rows exists beside the block.
    """
    check_scheme(scheme)
    uniform = scheme == "independent_decaying" or (
        scheme == "zero_sum" and params.distribution == "uniform"
    )
    size = max(1, STACK_VALUES // max(length, 1))
    group = np.empty((min(size, count), length))
    lanes = np.empty((length, count))
    for start in range(0, count, size):
        rows = group[: count - start]
        for row, gen in zip(rows, gens):  # rows first: zip takes no generator past the last row
            if uniform:
                gen.random(out=row)
                continue
            gen.random(out=row[:lead])
            draws = row[lead:]
            if scheme == "zero":
                draws[:] = 0.0
            elif scheme == "gaussian_constant":
                gen.standard_normal(out=draws)
            else:
                have = 0
                while (need := len(draws) - have) > 0:
                    z = gen.standard_normal(need + need // 16 + 16)  # ~4.6% are rejected
                    z = z[np.abs(z) <= TRUNC_SIGMAS][:need]
                    draws[have : have + len(z)] = z
                    have += len(z)
                draws /= TRUNC_SIGMAS
        if uniform:  # the lead stays u: an attack trial's x0 reads it
            rows[:, lead:] *= 2.0
            rows[:, lead:] -= 1.0
        lanes[:, start : start + len(rows)] = rows.T
    return lanes


def node_theta_block(scheme: str, params: NoiseParams, n: int, rounds: int) -> np.ndarray:
    """A run's (rounds x n) theta: column i reads node i's own stream (params.seed, i).

    The zero scheme draws nothing, so its streams are never seeded, and its
    block is a read-only broadcast of one 0.0.
    """
    if scheme == "zero":
        return np.broadcast_to(0.0, (rounds, n))
    raw = stream_lanes(scheme, params, seeded_streams(params.seed, n), n, rounds)
    return theta_block(scheme, params, raw)
