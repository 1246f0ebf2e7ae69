import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from noise_reference import SCHEME_CLASSES, RawStream

from privagg import privacy
from privagg.backend import get_backend
from privagg.engine import RunConfig, run
from privagg.noise import NoiseParams
from privagg.privacy import (
    AdversaryView,
    _trial_broadcasts,
    PrivacyQuery,
    PrivacyReport,
    disclosure_attack,
    later_round_attack,
    naive_attack,
    privacy_sweep,
    reports_to_csv,
    sigma_analytic,
)
from privagg.topology import (
    TopologyEvent,
    build_graph,
    check_privacy_precondition,
    generate,
)
from privagg.weights import metropolis


def _q(eps, alpha=1.0, rho=0.5, **kw):
    return PrivacyQuery(eps, NoiseParams(alpha=alpha, rho=rho, seed=0, **kw))


def test_sigma_uniform_closed_form():
    assert sigma_analytic(_q(0.1)) == 0.4  # 2*0.1 / 0.5
    assert sigma_analytic(_q(0.25)) == 1.0  # window covers the support
    assert sigma_analytic(_q(0.4)) == 1.0
    assert sigma_analytic(_q(1e-12)) < 1e-10


def test_sigma_nondecreasing_in_epsilon():
    values = [sigma_analytic(_q(e)) for e in np.linspace(1e-4, 0.6, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert 0.0 < values[0] <= values[-1] == 1.0


def test_sigma_rho_zero_warns_and_discloses():
    with pytest.warns(UserWarning):
        assert sigma_analytic(_q(0.1, rho=0.0)) == 1.0


def test_sigma_truncated_gaussian():
    q = _q(0.05, distribution="truncated_gaussian")
    got = sigma_analytic(q)
    # symmetric unimodal density: the max window sits at the center
    half = 0.25
    t = 2.0
    phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    norm = phi(t) - phi(-t)
    center = (phi(t * 0.05 / half) - phi(-t * 0.05 / half)) / norm
    assert got == pytest.approx(center, rel=1e-6)
    assert sigma_analytic(_q(0.05)) < got < 1.0  # peakier than uniform
    assert sigma_analytic(_q(0.25, distribution="truncated_gaussian")) == pytest.approx(1.0)


def _grid_windows(epsilon, half):
    """Reference: the truncated-gaussian mass of the window of width 2*epsilon
    at each of 2001 centres across the support [-half, half]."""

    def cdf(y):
        z = max(-2.0, min(2.0, 2.0 * y / half))
        lo = _normal_cdf(-2.0)
        return (_normal_cdf(z) - lo) / (_normal_cdf(2.0) - lo)

    centers = np.linspace(-half, half, 2001)
    return [cdf(min(c + epsilon, half)) - cdf(max(c - epsilon, -half)) for c in centers]


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.mark.parametrize("half", [1e-3, 0.05, 0.25, 0.45, 3.0])
def test_sigma_truncated_gaussian_centred_window_is_the_maximum(half):
    # (alpha/2)*rho = half exactly: every factor is a power of two
    params = NoiseParams(alpha=4.0 * half, rho=0.5, distribution="truncated_gaussian")
    for fraction in (1e-4, 0.1, 0.5, 0.9, 1.0, 1.5):
        epsilon = fraction * half
        sigma = sigma_analytic(PrivacyQuery(epsilon, params))
        best = max(_grid_windows(epsilon, half))
        assert best <= sigma + 2 * math.ulp(sigma), (epsilon, half, best - sigma)


def test_privacy_query_validation():
    with pytest.raises(ValueError):
        PrivacyQuery(0.0, NoiseParams(seed=0))


def test_adversary_view_validation():
    g = generate("ring", 5)
    view = AdversaryView(g, 0, 1)
    assert view.observed_nodes == frozenset({0, 1, 4})
    with pytest.raises(ValueError):
        AdversaryView(g, 0, 2)
    with pytest.raises(ValueError, match=r"^observer must be in 0\.\.4, got -1"):
        AdversaryView(g, -1, 0)  # a negative index would alias node 4
    with pytest.raises(ValueError, match=r"^target must be in 0\.\.4, got 5"):
        AdversaryView(g, 0, 5)


def test_privacy_report_validation():
    with pytest.raises(ValueError):
        PrivacyReport(0.1, 1.2, 0.5, 10, 0.01, "naive")


def test_naive_attack_matches_sigma():
    g = generate("ring", 5)
    params = NoiseParams(alpha=1.0, rho=0.5, seed=0)
    rate = naive_attack(AdversaryView(g, 0, 1), params, 0.1, 10_000, seed=1)
    sigma = 0.4
    assert abs(rate - sigma) <= 3 * math.sqrt(sigma * (1 - sigma) / 10_000)


def test_naive_attack_degenerate_cases():
    g = generate("ring", 5)
    view = AdversaryView(g, 0, 1)
    silent = NoiseParams(alpha=1.0, rho=0.0, seed=0)
    assert naive_attack(view, silent, 0.1, 2000, seed=2) == 1.0
    params = NoiseParams(alpha=1.0, rho=0.5, seed=0)
    assert naive_attack(view, params, 0.3, 2000, seed=3) == 1.0  # eps > alpha*rho/2


def test_naive_attack_rejects_full_knowledge_view():
    g = generate("ring", 5)
    with pytest.raises(ValueError):
        naive_attack(AdversaryView(g, 0, 1, knows_target_neighbors=True),
                     NoiseParams(seed=0), 0.1, 10)


@pytest.mark.parametrize("epsilon", [-0.1, 0.0, math.nan])
def test_attacks_reject_a_nonpositive_epsilon_before_any_draw(monkeypatch, epsilon):
    def refuse(*args, **kwargs):
        raise AssertionError("a noise stream was drawn")

    monkeypatch.setattr("privagg.privacy.stream_lanes", refuse)
    view = AdversaryView(generate("ring", 5), 0, 1)
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        naive_attack(view, NoiseParams(seed=0), epsilon, 10)
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        later_round_attack(view, NoiseParams(seed=0), 2, epsilon, 10)


def test_later_round_attack_bounded_by_sigma():
    g = generate("ring", 5)
    view = AdversaryView(g, 0, 1)
    params = NoiseParams(alpha=1.0, rho=0.9, seed=0)
    for round_k in (0, 1):
        rate = later_round_attack(
            view, params, round_k, 0.1, trials=3000, seed=4, train_trials=600
        )
        sigma = sigma_analytic(PrivacyQuery(0.1, params))
        assert rate <= sigma + 3 * math.sqrt(sigma * (1 - sigma) / 3000)
    tiny = later_round_attack(view, params, 1, 1e-6, trials=1500, seed=5, train_trials=400)
    assert tiny <= 0.01


def _reference_trial(graph, wm, params, scheme, rounds, rng, target):
    """A trial as scalar processes run it: every node samples one shared stream."""
    n = graph.n
    x0 = rng.uniform(*privacy.PRIOR, n)
    stream = RawStream(rng)
    procs = [SCHEME_CLASSES[scheme](params, i, stream) for i in range(n)]
    x = x0
    for k in range(rounds + 1):
        x_plus = x + np.array([procs[i].sample(k) for i in range(n)])
        if k == rounds:
            return float(x0[target]), float(x_plus[target])
        x = get_backend().step(wm.weights, wm.cols, x_plus)


@pytest.mark.parametrize("scheme", sorted(SCHEME_CLASSES))
def test_trial_broadcast_matches_scalar_reference(scheme):
    g = generate("random_gnp", 7, seed=4, p=0.5)
    wm = metropolis(g)
    for distribution in ("uniform", "truncated_gaussian"):
        params = NoiseParams(alpha=1.2, rho=0.85, h=2, distribution=distribution, seed=0)
        for rounds in (0, 1, 80):  # 81 rounds x 7 nodes cross a 512-draw chunk
            target = 3
            seeds = np.random.SeedSequence(rounds).spawn(3)
            got = _trial_broadcasts(wm, params, scheme, rounds, rounds, 3, target)
            for t, seed in enumerate(seeds):
                rng = np.random.Generator(np.random.PCG64(seed))
                ref = _reference_trial(g, wm, params, scheme, rounds, rng, target)
                assert (float(got[0][t]), float(got[1][t])) == ref, (distribution, rounds, t)


@pytest.mark.parametrize("budget", ["default", "one", "uneven"])
@settings(max_examples=25)
@given(
    trials=st.integers(3, 10),
    n=st.integers(1, 12),
    graph_seed=st.integers(0, 2**31 - 1),
    scheme=st.sampled_from(sorted(SCHEME_CLASSES)),
    distribution=st.sampled_from(["uniform", "truncated_gaussian"]),
    h=st.integers(1, 3),
    rounds=st.integers(0, 50),  # up to 51 x 12 draws cross a 512-draw chunk
    data=st.data(),
)
def test_trial_broadcasts_match_scalar_reference(
    budget, trials, n, graph_seed, scheme, distribution, h, rounds, data
):
    g = build_graph(1, []) if n == 1 else generate("random_gnp", n, seed=graph_seed, p=0.6)
    wm = metropolis(g)
    params = NoiseParams(alpha=1.2, rho=0.85, h=h, distribution=distribution, seed=0)
    target = data.draw(st.integers(0, n - 1))
    seeds = np.random.SeedSequence(graph_seed).spawn(trials)
    # "uneven" splits the trials into blocks of trials // 2 + 1 and the rest
    per_trial = max(rounds + 2, len(wm.cols)) * n
    values = {"default": privacy.BLOCK_VALUES, "one": 1, "uneven": (trials // 2 + 1) * per_trial}
    with mock.patch.object(privacy, "BLOCK_VALUES", values[budget]):
        x0, broadcast = _trial_broadcasts(wm, params, scheme, rounds, graph_seed, trials, target)
    assert x0.shape == broadcast.shape == (trials,)
    for t, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        want = _reference_trial(g, wm, params, scheme, rounds, rng, target)
        assert (float(x0[t]), float(broadcast[t])) == want, t


def test_later_round_attack_refuses_covered_neighborhood():
    g = generate("complete", 3)
    view = AdversaryView(g, 0, 1)
    with pytest.raises(ValueError, match="disclosure"):
        later_round_attack(view, NoiseParams(seed=0), 1, 0.1, trials=10)


def _recorded_run(graph, x0, params, scheme="zero_sum", max_iterations=130):
    cfg = RunConfig(
        graph=graph, x0=x0, noise=params, scheme=scheme, max_iterations=max_iterations
    )
    return run(cfg)


def test_disclosure_exact_under_zero_noise():
    g = generate("complete", 3)
    x0 = np.array([3.25, -1.5, 9.75])
    trace = _recorded_run(g, x0, NoiseParams(seed=0), scheme="zero", max_iterations=20)
    view = AdversaryView(g, 0, 1, knows_target_neighbors=True)
    result = disclosure_attack(view, trace, horizon=10)
    assert result.estimate == x0[1]


def test_disclosure_error_bounded_by_residual_envelope():
    g = generate("complete", 3)
    params = NoiseParams(alpha=1.0, rho=0.9, seed=13)
    rng = np.random.default_rng(13)
    x0 = rng.uniform(0, 10, 3)
    trace = _recorded_run(g, x0, params)
    view = AdversaryView(g, 0, 1, knows_target_neighbors=True)
    for horizon in (5, 20, 50, 100):
        result = disclosure_attack(view, trace, horizon)
        bound = 0.5 * 0.9 ** (horizon + 1)
        assert result.error_bound == bound
        assert abs(result.estimate - x0[1]) <= bound
    # the guaranteed envelope at horizon 100 is ~1.2e-5
    assert 0.5 * 0.9**101 == pytest.approx(1.1953e-5, rel=1e-4)


def test_disclosure_error_stays_within_the_printed_bound():
    """At long horizons the envelope falls below the estimate's float
    rounding; the envelope plus rounding_bound, which the CLI prints,
    still holds for every target of a complete graph."""
    for n in (3, 5):
        g = generate("complete", n)
        x0 = np.random.default_rng(5).uniform(0.0, 100.0, n)
        trace = _recorded_run(g, x0, NoiseParams(alpha=1.0, rho=0.9, seed=6), max_iterations=501)
        for target in range(n):
            view = AdversaryView(g, (target + 1) % n, target, knows_target_neighbors=True)
            for horizon in (1, 50, 100, 200, 300, 400, 500):
                result = disclosure_attack(view, trace, horizon)
                assert result.error_bound == 0.5 * 0.9 ** (horizon + 1)
                assert 0.0 < result.rounding_bound < 1e-11
                error = abs(result.estimate - x0[target])
                assert error <= result.error_bound + result.rounding_bound, (n, target, horizon)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("h", [2, 3])
def test_disclosure_error_bound_sums_the_chains_residuals(n, h):
    """With h chains the estimate's error is the sum of every chain's latest
    residual, and error_bound sums their envelopes: every horizon from 1 to
    200 stays within it, plus rounding."""
    g = generate("complete", n)
    view = AdversaryView(g, 0, 1, knows_target_neighbors=True)
    for seed in range(20):
        x0 = np.random.default_rng(seed).uniform(0.0, 100.0, n)
        params = NoiseParams(alpha=1.0, rho=0.9, h=h, seed=seed)
        trace = _recorded_run(g, x0, params, max_iterations=201)
        for horizon in range(1, 201):
            result = disclosure_attack(view, trace, horizon)
            inner = [(horizon - c) // h for c in range(min(h, horizon + 1))]
            assert result.error_bound == pytest.approx(sum(0.5 * 0.9 ** (i + 1) for i in inner))
            error = abs(result.estimate - x0[1])
            assert error <= result.error_bound + result.rounding_bound, (seed, horizon)


def _scalar_disclosure(graph, trace, target, horizon):
    """Reference: the estimate as a scalar chain, each round's prediction summed
    from 0.0 over the target's row support in ascending order."""
    wm = metropolis(graph)
    row = list(zip(wm.cols[:, target].tolist(), wm.weights[:, target]))
    row = row[: graph.degree(target) + 1]
    x_pluses = [x + theta for x, theta in zip(trace.xs, trace.thetas)]
    recovered = []
    for k in range(1, horizon + 1):
        predicted = 0.0
        for l, w in row:
            predicted += w * x_pluses[k - 1][l]
        recovered.append(x_pluses[k][target] - predicted)
    return float(x_pluses[0][target]) + math.fsum(recovered)


@settings(max_examples=20)
@given(
    n=st.integers(2, 8),
    complete=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    scheme=st.sampled_from(["zero_sum", "zero"]),
    rounds=st.integers(1, 24),
)
@example(n=8, complete=True, seed=0, scheme="zero", rounds=3)  # 8 slots: a pairwise sum differs
def test_disclosure_matches_scalar_chain(n, complete, seed, scheme, rounds):
    g = generate("complete", n) if complete else generate("random_gnp", n, seed=seed, p=0.6)
    x0 = np.random.default_rng(seed).uniform(-50.0, 50.0, n)
    params = NoiseParams(seed=seed)
    trace = _recorded_run(g, x0, params, scheme=scheme, max_iterations=rounds + 1)
    for j in range(n):
        # an observer that sees the whole of N_j, if any node does
        covering = [i for i in g.neighbors[j] if not check_privacy_precondition(g, i, j)]
        if not covering:
            continue
        view = AdversaryView(g, covering[0], j, knows_target_neighbors=True)
        for horizon in range(1, rounds + 1):
            got = disclosure_attack(view, trace, horizon).estimate
            assert got == _scalar_disclosure(g, trace, j, horizon), (j, horizon)


def test_disclosure_refusals():
    g5 = generate("ring", 5)
    params = NoiseParams(alpha=1.0, rho=0.9, seed=1)
    rng = np.random.default_rng(2)
    trace5 = _recorded_run(g5, rng.uniform(0, 10, 5), params, max_iterations=30)

    with pytest.raises(ValueError):  # view lacks full-neighborhood knowledge
        disclosure_attack(AdversaryView(g5, 0, 1), trace5, 10)
    with pytest.raises(ValueError, match="incomplete neighborhood"):
        disclosure_attack(
            AdversaryView(g5, 0, 1, knows_target_neighbors=True), trace5, 10
        )

    g3 = generate("complete", 3)
    view3 = AdversaryView(g3, 0, 1, knows_target_neighbors=True)
    trace3 = _recorded_run(g3, np.array([1.0, 2.0, 3.0]), params, max_iterations=30)
    with pytest.raises(ValueError):  # horizon beyond recorded broadcasts
        disclosure_attack(view3, trace3, 30)
    with pytest.raises(ValueError):  # horizon must be >= 1
        disclosure_attack(view3, trace3, 0)

    bare = run(RunConfig(g3, [1.0, 2.0, 3.0], params, max_iterations=30, record_trace=False))
    with pytest.raises(ValueError, match="record_trace"):
        disclosure_attack(view3, bare, 5)

    baseline = _recorded_run(
        g3, np.array([1.0, 2.0, 3.0]), params, scheme="gaussian_constant", max_iterations=30
    )
    with pytest.raises(ValueError, match="telescoping"):
        disclosure_attack(view3, baseline, 5)

    moved = run(
        RunConfig(
            graph=generate("complete", 4),
            x0=[1.0, 2.0, 3.0, 4.0],
            noise=params,
            scheme="zero_sum",
            max_iterations=30,
            events=(TopologyEvent(1, "remove_edge", (0, 1)),),
        )
    )
    view4 = AdversaryView(generate("complete", 4), 0, 1, knows_target_neighbors=True)
    with pytest.raises(ValueError, match="static"):
        disclosure_attack(view4, moved, 5)


def test_disclosure_refuses_a_trace_of_another_graph_of_the_same_size():
    # complete(5)'s weights would read ring(5)'s broadcasts as a wrong estimate
    x0 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    trace = _recorded_run(generate("ring", 5), x0, NoiseParams(seed=4), max_iterations=60)
    view = AdversaryView(generate("complete", 5), 0, 1, knows_target_neighbors=True)
    with pytest.raises(ValueError, match="view graph does not match the trace"):
        disclosure_attack(view, trace, 40)
    # an equal graph built apart is the trace's graph
    complete = _recorded_run(generate("complete", 5), x0, NoiseParams(seed=4), max_iterations=60)
    apart = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    result = disclosure_attack(AdversaryView(apart, 0, 1, knows_target_neighbors=True), complete, 40)
    assert abs(result.estimate - 20.0) <= result.error_bound + result.rounding_bound


def test_privacy_sweep_closed_form_rows(tmp_path):
    params = NoiseParams(alpha=1.0, rho=0.5, seed=3)
    reports = privacy_sweep(params, [0.01, 0.05, 0.1, 0.25], trials=4000, seed=9)
    assert [r.sigma_analytic for r in reports] == [0.04, 0.2, 0.4, 1.0]
    for r in reports:
        assert abs(r.sigma_empirical - r.sigma_analytic) <= max(
            3 * math.sqrt(r.sigma_analytic * (1 - r.sigma_analytic) / r.trials), 1e-12
        )
        assert r.attack_kind == "naive"
    sigmas = [r.sigma_analytic for r in reports]
    assert sigmas == sorted(sigmas)

    assert privacy_sweep(params, [], trials=10) == []

    out = tmp_path / "privacy.csv"
    reports_to_csv(reports, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,sigma_analytic,sigma_empirical,trials,stderr,attack_kind"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 0.04
