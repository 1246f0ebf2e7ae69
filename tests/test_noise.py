import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_reference import (
    SCHEME_CLASSES,
    ConstantGaussianNoise,
    IndependentDecayingNoise,
    RawStream,
    ZeroNoise,
    ZeroSumNoise,
)
from privagg import noise
from privagg.engine import RunConfig
from privagg.noise import (
    DISTRIBUTIONS,
    DRAW_MARGIN,
    SCHEMES,
    NoiseParams,
    derive_seed,
    node_theta_block,
    seeded_stream,
    seeded_streams,
    stream_lanes,
    theta_block,
)
from privagg.privacy import AdversaryView, later_round_attack
from privagg.topology import generate


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(alpha=0.0)
    with pytest.raises(ValueError):
        NoiseParams(rho=1.0)
    with pytest.raises(ValueError):
        NoiseParams(rho=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(h=0)
    with pytest.raises(ValueError):
        NoiseParams(distribution="laplace")
    with pytest.raises(ValueError):
        NoiseParams(variance=0.0)


def test_rho_zero_degenerates_to_silence():
    proc = ZeroSumNoise(NoiseParams(alpha=1.0, rho=0.0, seed=1), node=0)
    assert all(proc.sample(k) == 0.0 for k in range(10))


def raw_draws(scheme, params, gen, count):
    """The unit draws count draws of scheme take from gen: a one-column stream_lanes block."""
    return stream_lanes(scheme, params, [gen], 1, count)[:, 0]


def _round0(params, rng, count):
    """count round-0 thetas of zero_sum noise, as the naive attack draws them:
    one theta row of count lanes."""
    raw = raw_draws("zero_sum", params, rng, count)[None]
    return theta_block("zero_sum", params, raw)[0]


def test_initial_draw_interval_and_mean():
    params = NoiseParams(alpha=1.0, rho=0.5, seed=5)
    rng = np.random.default_rng(5)
    draws = _round0(params, rng, 100_000)
    assert draws.shape == (100_000,)
    half = 0.25  # (alpha/2) * rho
    assert np.all(np.abs(draws) <= half)
    stderr = (2 * half / math.sqrt(12)) / math.sqrt(draws.size)
    assert abs(float(draws.mean())) <= 3 * stderr


def test_determinism_per_seed_and_node():
    params = NoiseParams(seed=42)
    a = [ZeroSumNoise(params, node=3).sample(k) for k in [0]]
    b = [ZeroSumNoise(params, node=3).sample(k) for k in [0]]
    c = [ZeroSumNoise(params, node=4).sample(k) for k in [0]]
    assert a == b
    assert a != c


def test_telescoping_partial_sums_bitwise():
    params = NoiseParams(alpha=1.0, rho=0.9, seed=7)
    proc = ZeroSumNoise(params, node=0)
    running = 0.0
    for k in range(300):
        theta = proc.sample(k)
        assert abs(theta) <= params.alpha * params.rho**k
        running = running + theta
        assert running == proc.chain_residuals[0]  # bitwise
        assert running == proc.chain_cumulative[0]
        assert abs(running) <= 0.5 * params.alpha * params.rho ** (k + 1)


def test_plain_scheme_matches_reference_reimplementation():
    # independent straight-line reconstruction of the telescoping scheme
    params = NoiseParams(alpha=2.0, rho=0.7, seed=12)
    proc = ZeroSumNoise(params, node=2)
    got = [proc.sample(k) for k in range(60)]

    stream = RawStream(seeded_stream(params.seed, 2))
    delta = 0.0
    expected = []
    for k in range(60):
        scale = 0.5 * params.alpha * params.rho ** (k + 1) * DRAW_MARGIN
        draw = stream.next_uniform() * scale
        if k == 0:
            theta, delta = draw, draw
        else:
            theta = draw - delta
            delta = delta + theta
        expected.append(theta)
    assert got == expected


def test_subsequence_chains_independent():
    params = NoiseParams(alpha=1.0, rho=0.8, h=2, seed=9)
    proc = ZeroSumNoise(params, node=0)
    sums = [0.0, 0.0]
    for k in range(200):
        theta = proc.sample(k)
        chain, inner = k % 2, k // 2
        assert abs(theta) <= params.alpha * params.rho**inner
        sums[chain] = sums[chain] + theta
        assert sums[chain] == proc.chain_residuals[chain]
        assert abs(sums[chain]) <= 0.5 * params.alpha * params.rho ** (inner + 1)
    # total residual after truncating both chains at inner index M
    assert abs(sums[0] + sums[1]) <= 2 * 0.5 * params.alpha * params.rho ** (200 // 2)


def test_out_of_order_sample_rejected():
    proc = ZeroSumNoise(NoiseParams(seed=0), node=0)
    proc.sample(0)
    with pytest.raises(ValueError):
        proc.sample(2)
    for cls in (IndependentDecayingNoise, ConstantGaussianNoise, ZeroNoise):
        p = cls(NoiseParams(seed=0), 0)
        p.sample(0)
        with pytest.raises(ValueError):
            p.sample(5)


def test_zero_baseline():
    proc = ZeroNoise(NoiseParams(seed=0), 0)
    assert all(proc.sample(k) == 0.0 for k in range(5))


def test_independent_decaying_bounds_and_nonzero_sum():
    params = NoiseParams(alpha=1.0, rho=0.8, seed=4)
    proc = IndependentDecayingNoise(params, node=1)
    total = 0.0
    for k in range(100):
        theta = proc.sample(k)
        assert abs(theta) <= 0.5 * params.alpha * params.rho**k
        total += theta
    assert abs(total) > 1e-6  # almost surely violates zero-sum


def test_gaussian_constant_statistics():
    params = NoiseParams(seed=8, variance=2.0)
    proc = ConstantGaussianNoise(params, node=0)
    draws = np.array([proc.sample(k) for k in range(20_000)])
    assert abs(float(draws.mean())) <= 3 * math.sqrt(2.0 / draws.size)
    var = float(draws.var())
    assert abs(var - 2.0) <= 3 * 2.0 * math.sqrt(2.0 / draws.size)


def test_truncated_gaussian_draws_respect_support():
    params = NoiseParams(alpha=1.0, rho=0.5, distribution="truncated_gaussian", seed=3)
    proc = ZeroSumNoise(params, node=0)
    assert abs(proc.sample(0)) <= 0.25
    rng = np.random.default_rng(0)
    block = _round0(params, rng, 5000)
    assert np.all(np.abs(block) <= 0.25)
    # heavier mass near the center than uniform would give
    assert float(np.mean(np.abs(block) <= 0.125)) > 0.55


def _rejection_fill(rng, count):
    """Reference: a round-0 sampler that redraws each rejected position in place."""
    out = rng.standard_normal(count)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out


def test_truncated_gaussian_draws_are_the_rejection_fills_in_stream_order():
    # both keep the first count normals with |z| <= 2; only their positions differ
    params = NoiseParams(distribution="truncated_gaussian")
    for count in (1, 7, 5000):
        fill = _rejection_fill(seeded_stream(4, count), count)
        kept = raw_draws("zero_sum", params, seeded_stream(4, count), count) * 2.0
        assert np.array_equal(np.sort(fill), np.sort(kept))


def test_uniform_draws_are_two_u_minus_one_from_random():
    # premise of stream_lanes: 2u - 1 for u from Generator.random is
    # uniform(-1, 1)'s value bit for bit, one uint64 per value; a numpy that
    # changes how uniform computes or consumes fails here. A uniform column
    # is those bits, and leaves its generator where uniform does
    for count in (1, 7, 220, 5000):
        g1, g2, g3 = (seeded_stream(61, count) for _ in range(3))
        u = g1.random(count)
        want = g2.uniform(-1.0, 1.0, count)
        assert np.array_equal((2.0 * u - 1.0).view(np.uint64), want.view(np.uint64))
        assert g1.bit_generator.state == g2.bit_generator.state
        column = raw_draws("zero_sum", NoiseParams(), g3, count)
        assert np.array_equal(column.view(np.uint64), want.view(np.uint64))
        assert g3.bit_generator.state == g2.bit_generator.state


def test_prior_draws_are_low_plus_width_u_from_random():
    # premise of the attack trials' x0: u*100.0 + (-50.0) for u from
    # Generator.random is uniform(-50.0, 50.0)'s value bit for bit, one uint64
    # per value. Unlike 2u - 1 it rounds twice, so it holds only while numpy
    # computes low + range*u without fused multiply-add
    for count in (1, 20, 5000):
        g1, g2 = seeded_stream(67, count), seeded_stream(67, count)
        got = g1.random(count) * 100.0 + (-50.0)
        want = g2.uniform(-50.0, 50.0, count)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert g1.bit_generator.state == g2.bit_generator.state


def test_bank_unknown_scheme():
    # every entry point fails before any stream is seeded
    g = generate("ring", 5)
    calls = [
        lambda: stream_lanes("bursty", NoiseParams(), seeded_streams(0, 2), 2, 3),
        lambda: node_theta_block("bursty", NoiseParams(), 2000, 400),
        lambda: theta_block("bursty", NoiseParams(), np.zeros((4, 3))),
        lambda: RunConfig(g, np.zeros(5), scheme="bursty"),
        lambda: later_round_attack(AdversaryView(g, 0, 1), NoiseParams(), 2, 0.1, 10,
                                   scheme="bursty"),
    ]
    with mock.patch.object(noise, "_pcg64_states", wraps=noise._pcg64_states) as states:
        for call in calls:
            with pytest.raises(ValueError, match="unknown noise scheme 'bursty'"):
                call()
    assert not states.called


def test_numpy_block_draws_match_scalar_draws():
    # premise theta blocks rely on: batched generation equals sequential scalars
    g1, g2 = seeded_stream(123, 0), seeded_stream(123, 0)
    block = g1.uniform(-1.0, 1.0, 1000)
    scalars = np.array([g2.uniform(-1.0, 1.0) for _ in range(1000)])
    assert np.array_equal(block, scalars)
    g1, g2 = seeded_stream(123, 1), seeded_stream(123, 1)
    assert np.array_equal(
        g1.standard_normal(1000),
        np.array([g2.standard_normal() for _ in range(1000)]),
    )


def test_truncated_gaussian_filter_matches_rejection_loop():
    # more draws than one RawStream chunk (512), so the loop refills mid-way
    params = NoiseParams(distribution="truncated_gaussian")
    count = 3 * 512 + 7
    block = raw_draws("zero_sum", params, seeded_stream(5, 0), count)
    stream = RawStream(seeded_stream(5, 0))
    scalars = np.array([stream.next_unit("truncated_gaussian") for _ in range(count)])
    assert np.array_equal(block, scalars)


@pytest.mark.parametrize(
    "scheme,distribution",
    [
        ("zero_sum", "uniform"),
        ("zero_sum", "truncated_gaussian"),
        ("independent_decaying", "uniform"),
        ("gaussian_constant", "uniform"),
        ("zero", "uniform"),
        ("independent_decaying", "truncated_gaussian"),
        ("gaussian_constant", "truncated_gaussian"),
        ("zero", "truncated_gaussian"),
    ],
)
def test_bank_matches_scalar_processes(scheme, distribution):
    params = NoiseParams(alpha=1.5, rho=0.85, h=2, distribution=distribution, seed=21)
    n, rounds = 6, 120
    oracle = SCHEME_CLASSES[scheme]
    # the engine's layout: lane i reads node i's own stream
    node_block = node_theta_block(scheme, params, n, rounds)
    node_procs = [oracle(params, i) for i in range(n)]
    # an attack trial's layout: one generator, lanes row-major (720 draws
    # cross the reference stream's 512-draw chunk boundary)
    raw = raw_draws(scheme, params, seeded_stream(99, 0), rounds * n).reshape(-1, n)
    shared_block = theta_block(scheme, params, raw)
    stream = RawStream(seeded_stream(99, 0))
    shared_procs = [oracle(params, i, stream) for i in range(n)]
    for block, procs in ((node_block, node_procs), (shared_block, shared_procs)):
        assert block.shape == (rounds, n)
        for k in range(rounds):
            ref = np.array([procs[i].sample(k) for i in range(n)])
            assert np.array_equal(block[k], ref), f"lane mismatch at k={k}"


SCHEME_DISTRIBUTIONS = [
    (s, d) for s in sorted(SCHEME_CLASSES) for d in ("uniform", "truncated_gaussian")
]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 7, 2**160 - 1])
def test_seeded_streams_are_numpys_streams(seed):
    # seeds of 1, 1, 2, 3, 5 and 5 uint32 words: padded to the pool size or past it
    for count in (0, 1, 3, 1000):
        children = np.random.SeedSequence(seed).spawn(count)
        taken = 0
        for i, gen in enumerate(seeded_streams(seed, count)):
            node, child = seeded_stream(seed, i), np.random.PCG64(children[i])
            assert gen.bit_generator.state == node.bit_generator.state == child.state, i
            # each key draws for one scheme and distribution, in rotation
            scheme, distribution = SCHEME_DISTRIBUTIONS[i % len(SCHEME_DISTRIBUTIONS)]
            params = NoiseParams(distribution=distribution)
            got = raw_draws(scheme, params, gen, 7)
            assert np.array_equal(got, raw_draws(scheme, params, node, 7)), (i, scheme)
            ref = raw_draws(scheme, params, np.random.Generator(child), 7)
            assert np.array_equal(got, ref), (i, scheme)
            gen.integers(2, dtype=np.uint32)  # leaves a buffered half word to reset
            taken += 1
        assert taken == count
    with pytest.raises(ValueError, match="seed must be >= 0"):
        next(seeded_streams(-1, 1))


def _lane_groups(length):
    """STACK_VALUES for stream_lanes' groups of one row, of three rows (an
    uneven split of four) and of the default size, for rows of length values."""
    return [length, 3 * length + 1, noise.STACK_VALUES]


def _lanes_as_rows(scheme, params, streams, count, length, lead, values):
    """stream_lanes' (length x count) block, drawn in groups of at most
    values values, transposed to one row per stream."""
    with mock.patch.object(noise, "STACK_VALUES", values):
        lanes = stream_lanes(scheme, params, streams, count, length, lead)
    assert lanes.shape == (length, count)
    return lanes.T


@pytest.mark.parametrize("lead", [0, 3])
@pytest.mark.parametrize("scheme,distribution", SCHEME_DISTRIBUTIONS)
def test_stream_rows_draws_lead_uniforms_then_raw_draws(scheme, distribution, lead):
    # stream_lanes' column t, bit for bit, from numpy's own calls on stream t:
    # u from random, then the scheme's unit draws (2u - 1 for random's u,
    # standard normals, zeros or the per-draw rejection), in every grouping
    params = NoiseParams(distribution=distribution)
    want = []
    for r in range(4):
        gen = seeded_stream(14, r)
        row = [gen.random(lead)]
        if scheme == "independent_decaying" or (scheme, distribution) == ("zero_sum", "uniform"):
            row.append(2.0 * gen.random(40) - 1.0)
        elif scheme == "gaussian_constant":
            row.append(gen.standard_normal(40))
        elif scheme == "zero":
            row.append(np.zeros(40))
        else:
            stream = RawStream(gen)
            row.append([stream.next_unit("truncated_gaussian") for _ in range(40)])
        want.append(np.concatenate(row))
    want = np.array(want)
    for values in _lane_groups(lead + 40):
        got = _lanes_as_rows(scheme, params, seeded_streams(14, 4), 4, lead + 40, lead, values)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), values


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_stream_rows_takes_one_stream_per_row(distribution):
    # the iterator's next item is the stream after the last column, never
    # one past it, in every grouping of the columns
    params = NoiseParams(distribution=distribution)
    for rows in (0, 1, 3, 4):
        for values in _lane_groups(6):
            streams = seeded_streams(15, 5)
            _lanes_as_rows("zero_sum", params, streams, rows, 6, 2, values)
            want = seeded_stream(15, rows).random(4)
            assert np.array_equal(next(streams).random(4), want), (rows, values)


@pytest.mark.parametrize("scheme", ["zero_sum", "zero"])
def test_for_nodes_stacks_every_group_of_columns(scheme):
    # groups of 4 columns, the last one short; lane i is node i's own stream
    params = NoiseParams(h=2, distribution="truncated_gaussian", seed=8)
    n, rounds = 11, 9
    columns = [raw_draws(scheme, params, seeded_stream(8, i), rounds) for i in range(n)]
    want = theta_block(scheme, params, np.column_stack(columns))
    with mock.patch.object(noise, "STACK_VALUES", 4 * rounds):
        got = node_theta_block(scheme, params, n, rounds)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_theta_block_returns_raw_overwritten_in_any_lane_shape(scheme):
    # one (10 x 6) draw block as 6 lanes, as 2 x 3 lanes and as one lane per column
    params = NoiseParams(rho=0.7, h=2, seed=6)
    raw = raw_draws(scheme, params, seeded_stream(6), 60).reshape(10, 6)
    want = theta_block(scheme, params, raw.copy())
    shaped = raw.copy().reshape(10, 2, 3)
    assert theta_block(scheme, params, shaped) is shaped
    assert np.array_equal(shaped.reshape(10, 6), want)
    for i, column in enumerate(raw.T):
        lane = column.copy()
        assert theta_block(scheme, params, lane) is lane
        assert np.array_equal(lane, want[:, i]), i


@settings(max_examples=80, deadline=None)
@given(
    lanes=st.sampled_from([(), (1,), (7,), (2, 3), (3, 1)]),
    rounds=st.integers(1, 40),
    h=st.integers(1, 4),
    alpha=st.sampled_from([1e-3, 1.0, 7.5, 1e300]),
    rho=st.sampled_from([0.0, 1e-16, 0.3, 0.9, 0.999]),
    distribution=st.sampled_from(DISTRIBUTIONS),
    seed=st.integers(0, 2**16),
)
def test_zero_sum_block_is_the_scalar_reference_bit_for_bit(
    lanes, rounds, h, alpha, rho, distribution, seed
):
    # lanes of any shape read one stream in row-major order, as the scalar
    # processes do when they share it; rho = 1e-16 makes the float guard fire
    params = NoiseParams(alpha=alpha, rho=rho, h=h, distribution=distribution, seed=seed)
    width = math.prod(lanes)
    raw = raw_draws("zero_sum", params, seeded_stream(seed), rounds * width)
    block = theta_block("zero_sum", params, raw.reshape((rounds, *lanes)))
    stream = RawStream(seeded_stream(seed))
    procs = [ZeroSumNoise(params, i, stream) for i in range(width)]
    want = np.array([[proc.sample(k) for proc in procs] for k in range(rounds)])
    assert np.array_equal(block.reshape(want.shape).view(np.uint64), want.view(np.uint64))


def test_float_guard_matches_the_reference_where_it_fires():
    # rho = 1e-16: an ulp of the round-0 residual outgrows the round-1 envelope,
    # so fl(delta + theta) can leave it and the guard sets theta = -delta
    params = NoiseParams(rho=1e-16, seed=2)
    n, rounds = 16, 4
    raw = raw_draws("zero_sum", params, seeded_stream(2), rounds * n).reshape(-1, n)
    with mock.patch.object(noise.np, "where", wraps=np.where) as guard:
        block = theta_block("zero_sum", params, raw)
    assert guard.called
    stream = RawStream(seeded_stream(2))
    procs = [ZeroSumNoise(params, i, stream) for i in range(n)]
    for k in range(rounds):
        assert np.array_equal(block[k], [p.sample(k) for p in procs]), k


def test_zero_node_block_holds_no_rounds_by_nodes_memory():
    # a materialised zeros block would be 61 MiB here (and 64 GB at K = n**2)
    tracemalloc.start()
    try:
        block = node_theta_block("zero", NoiseParams(seed=1), 2000, 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (4000, 2000) and not block.any()
    assert peak < 2**20


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_node_block_holds_one_group_beside_the_block(distribution):
    # one group of STACK_VALUES values (1 MiB) is drawn beside the 6.1 MiB
    # block; a transposed copy of the whole block would add 6.1 MiB more
    params = NoiseParams(distribution=distribution, seed=1)
    tracemalloc.start()
    try:
        block = node_theta_block("zero_sum", params, 2000, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes + 4 * 2**20


def test_derive_seed_is_stable():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


@settings(max_examples=40)
@given(
    alpha=st.floats(min_value=1e-3, max_value=100.0),
    rho=st.floats(min_value=0.0, max_value=0.98),
    h=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    distribution=st.sampled_from(["uniform", "truncated_gaussian"]),
)
def test_noise_contract_property(alpha, rho, h, seed, distribution):
    params = NoiseParams(alpha=alpha, rho=rho, h=h, distribution=distribution, seed=seed)
    proc = ZeroSumNoise(params, node=0)
    sums = [0.0] * h
    for k in range(80):
        theta = proc.sample(k)
        chain, inner = k % h, k // h
        assert abs(theta) <= alpha * rho**inner
        sums[chain] = sums[chain] + theta
        assert sums[chain] == proc.chain_residuals[chain]
        assert abs(sums[chain]) <= 0.5 * alpha * rho ** (inner + 1)
