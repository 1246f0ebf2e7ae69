"""Acceptance criteria, one test per criterion (run with -s for the report).

Criterion 1 is checked per size at the horizon K = max(n^2, K_env(n)).
n^2 is the engine's default max_iterations; K_env(n) is the first round at
which the paper's residual envelope puts the un-cancelled noise on the sum,
n * (alpha/2) * rho^K, at or below 1/100 of the 1e-4 sum tolerance (the
other 99/100 is left for mixing, which the envelope does not bound). The
zero-sum cancellation is asymptotic: at K = n^2 = 25 the n=5 residual
alone can reach n * (alpha/2) * 0.9^25 ~ 0.18 on the sum, so no correct
implementation meets the tolerance there. K_env is 140, 153 and 162 for
n = 5, 20 and 50, so only n = 5 runs past n^2.
"""

import math
import time

import numpy as np
import pytest

from privagg.backend import get_backend
from privagg.engine import RunConfig, aggregate, decay_envelope, run, state_envelope
from privagg.harness import experiment_from_manifest, load_config, run_experiment
from privagg.noise import NoiseParams
from privagg.privacy import (
    AdversaryView,
    PrivacyQuery,
    disclosure_attack,
    later_round_attack,
    naive_attack,
    sigma_analytic,
)
from privagg.tolerances import TOL
from privagg.topology import generate
from privagg.weights import contraction_factor, metropolis

ALPHA, RHO = 1.0, 0.9
SIZES = {5: 0.6, 20: 0.3, 50: 0.2}
N_SEEDS = 20


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _graph(n: int, seed: int):
    return generate("random_gnp", n, seed=10_000 + seed, p=SIZES[n])


def _x0(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(20_000 + seed)
    return rng.uniform(0.0, 100.0, n)


def _horizon(n: int) -> int:
    """max(n^2, K_env): K_env is the first K with n (alpha/2) rho^K <= tol/100."""
    k_env = 0
    while n * (ALPHA / 2) * RHO**k_env > TOL.aggregation_sum / 100:
        k_env += 1
    return max(n * n, k_env)


def _scda_run(n: int, seed: int, h: int = 1, record: bool = False, max_iterations=None):
    cfg = RunConfig(
        graph=_graph(n, seed),
        x0=_x0(n, seed),
        noise=NoiseParams(alpha=ALPHA, rho=RHO, h=h, seed=seed),
        scheme="zero_sum",
        record_trace=record,
        max_iterations=max_iterations,
    )
    return run(cfg)


@pytest.mark.parametrize("n", sorted(SIZES))
def test_criterion_1_exact_aggregation(n):
    horizon = _horizon(n)
    start = time.perf_counter()
    worst_err = worst_sum = 0.0
    for seed in range(N_SEEDS):
        x0 = _x0(n, seed)
        trace = _scda_run(n, seed, max_iterations=horizon)
        tol = 1e-6 * (1.0 + float(np.abs(x0).max()))
        worst_err = max(worst_err, trace.final_err / tol)
        worst_sum = max(worst_sum, abs(aggregate(trace, "sum") - float(x0.sum())))
    elapsed = time.perf_counter() - start
    ok = worst_err <= 1.0 and worst_sum <= 1e-4 and elapsed < 5.0
    _report(
        1,
        ok,
        f"exact aggregation n={n} K={horizon}: worst err {worst_err:.3g}x tolerance, "
        f"worst sum deviation {worst_sum:.3g} (<=1e-4), "
        f"{elapsed:.2f}s for {N_SEEDS} seeds (<5s) "
        f"[backend {get_backend().name}]",
    )


def _check_noise_contracts(trace, h: int) -> None:
    thetas = np.array(trace.thetas)  # (K, n)
    k_count = thetas.shape[0]
    ks = np.arange(k_count)
    if h == 1:
        limit = ALPHA * RHO**ks
        assert np.all(np.abs(thetas) <= limit[:, None]), "theta bound violated"
        envelope = 0.5 * ALPHA * RHO ** (ks + 1.0)
        cum = np.cumsum(thetas, axis=0)
        assert np.all(np.abs(cum) <= envelope[:, None]), "telescoped sum violated"
    else:
        for chain in range(h):
            sub = thetas[chain::h]
            inner = np.arange(sub.shape[0])
            assert np.all(np.abs(sub) <= (ALPHA * RHO**inner)[:, None])
            envelope = 0.5 * ALPHA * RHO ** (inner + 1.0)
            cum = np.cumsum(sub, axis=0)
            assert np.all(np.abs(cum) <= envelope[:, None])


def test_criterion_2_noise_contracts():
    # premise for using cumsum below: numpy accumulates strictly sequentially
    probe = np.random.default_rng(0).uniform(-1, 1, 2000)
    sequential = []
    acc = 0.0
    for v in probe.tolist():
        acc = acc + v
        sequential.append(acc)
    assert np.array_equal(np.cumsum(probe), np.array(sequential))

    checked = 0
    for n in sorted(SIZES):
        for seed in range(N_SEEDS):
            _check_noise_contracts(_scda_run(n, seed, record=True), h=1)
            checked += 1
    for seed in range(N_SEEDS):
        _check_noise_contracts(_scda_run(20, seed, h=3, record=True), h=3)
        checked += 1
    _report(
        2,
        True,
        f"noise contracts: bound and telescoped-sum envelopes hold at every "
        f"iteration of {checked} runs (plain; h=3 per chain)",
    )


def test_criterion_3_zero_sum_necessity():
    worst = 0.0
    for seed in range(N_SEEDS):
        g = _graph(20, seed)
        x0 = _x0(20, seed)
        cfg = RunConfig(
            graph=g,
            x0=x0,
            noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=seed),
            scheme="independent_decaying",
        )
        trace = run(cfg)
        injected = math.fsum(float(t) for theta in trace.thetas for t in theta)
        predicted = float(x0.mean()) + injected / 20.0
        worst = max(worst, float(np.max(np.abs(trace.x_final - predicted))))
    ok = worst <= 1e-9
    _report(
        3,
        ok,
        f"zero-sum necessity: biased limit matches x-bar + total_noise/n "
        f"within {worst:.3g} (<=1e-9) on {N_SEEDS} seeds",
    )


def test_criterion_4_doubly_stochastic_weights():
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 60))
        if i % 2:
            g = generate("random_gnp", n, seed=int(rng.integers(2**31)), p=0.5)
        else:
            g = generate("random_geometric", n, seed=int(rng.integers(2**31)), radius=0.6)
        w = metropolis(g).w
        assert np.array_equal(w, w.T), "symmetry must be exact"
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert all(w[i_, i_] > 0.0 for i_ in range(n))
        worst = max(
            worst,
            float(np.max(np.abs(w.sum(axis=0) - 1.0))),
            float(np.max(np.abs(w.sum(axis=1) - 1.0))),
        )
    ok = worst <= 1e-12
    _report(
        4,
        ok,
        f"Metropolis weights on 100 random connected graphs: row/col sums "
        f"within {worst:.3g} of 1 (<=1e-12), symmetric exactly",
    )


def test_criterion_5_boundedness_and_spread_envelope():
    violations = 0
    runs = 0
    for label, make in (
        ("ring(5)", lambda s: generate("ring", 5)),
        ("gnp(20)", lambda s: _graph(20, s)),
    ):
        for seed in range(50):
            g = make(seed)
            rng = np.random.default_rng(40_000 + seed)
            x0 = rng.uniform(0.0, 100.0, g.n)
            params = NoiseParams(alpha=ALPHA, rho=RHO, seed=seed)
            trace = run(RunConfig(graph=g, x0=x0, noise=params, scheme="zero_sum"))
            bound = state_envelope(x0, params)
            if any(float(np.max(np.abs(x))) > bound for x in trace.xs):
                violations += 1
            eps_w = contraction_factor(metropolis(g))
            if any(not p.ok for p in decay_envelope(trace, eps_w, params)):
                violations += 1
            runs += 1
    ok = violations == 0
    _report(
        5,
        ok,
        f"boundedness + spread envelope: {violations} violations over {runs} "
        f"seeded runs (ring(5) and G(20, 0.3))",
    )


def test_criterion_6_spread_behaviour_vs_gaussian_baseline():
    n = 20
    horizon = 10 * n * n
    scda_ok = gauss_ok = True
    for seed in range(N_SEEDS):
        g = _graph(n, seed)
        x0 = _x0(n, seed)
        scda = run(
            RunConfig(
                graph=g, x0=x0,
                noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=seed),
                scheme="zero_sum", max_iterations=horizon, record_trace=False,
            )
        )
        spreads = np.array(scda.spreads)
        above = np.nonzero(spreads >= 1e-4)[0]
        k0 = int(above[-1]) + 1 if above.size else 0
        if k0 > n * n:
            scda_ok = False
        gauss = run(
            RunConfig(
                graph=g, x0=x0,
                noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=seed, variance=1.0),
                scheme="gaussian_constant", max_iterations=horizon, record_trace=False,
            )
        )
        if max(gauss.spreads[-n * n :]) <= 1e-4:
            gauss_ok = False
    ok = scda_ok and gauss_ok
    _report(
        6,
        ok,
        f"spread behaviour: zero-sum runs settle below 1e-4 by k0<=n^2 "
        f"({scda_ok}); variance-1 gaussian baseline still exceeds 1e-4 in the "
        f"last n^2 of a 10n^2 horizon ({gauss_ok}); {N_SEEDS} seeds",
    )


def test_criterion_7_privacy_calibration():
    params = NoiseParams(alpha=ALPHA, rho=RHO, seed=0)
    width = ALPHA * RHO
    g = generate("ring", 5)
    view = AdversaryView(g, 0, 1)
    trials = 10_000
    naive_ok = []
    for i, eps in enumerate((0.01, 0.05, 0.1)):
        sigma = sigma_analytic(PrivacyQuery(eps, params))
        assert sigma == min(2 * eps, width) / width
        rate = naive_attack(view, params, eps, trials, seed=500 + i)
        margin = 3 * math.sqrt(sigma * (1 - sigma) / trials)
        naive_ok.append(abs(rate - sigma) <= margin)
    later_ok = []
    eps = 0.1
    sigma = sigma_analytic(PrivacyQuery(eps, params))
    margin = 3 * math.sqrt(sigma * (1 - sigma) / trials)
    for round_k in (1, 2):
        rate = later_round_attack(
            view, params, round_k, eps, trials, seed=600 + round_k, train_trials=2000
        )
        later_ok.append(rate <= sigma + margin)
    ok = all(naive_ok) and all(later_ok)
    _report(
        7,
        ok,
        f"privacy calibration: naive attack matches sigma within 3 stderr at "
        f"eps 0.01/0.05/0.1 ({naive_ok}); later-round rates below the bound "
        f"({later_ok}); {trials} trials",
    )


def test_criterion_8_disclosure_attack():
    g = generate("complete", 3)
    view = AdversaryView(g, 0, 1, knows_target_neighbors=True)
    horizon = 100
    bound = 0.5 * ALPHA * RHO ** (horizon + 1)
    worst = 0.0
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(50_000 + seed)
        x0 = rng.uniform(0.0, 100.0, 3)
        cfg = RunConfig(
            graph=g, x0=x0,
            noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=seed),
            scheme="zero_sum", max_iterations=horizon + 10,
        )
        result = disclosure_attack(view, run(cfg), horizon)
        worst = max(worst, abs(result.estimate - float(x0[1])))
    ok = worst <= bound
    _report(
        8,
        ok,
        f"disclosure attack on complete(3): worst reconstruction error "
        f"{worst:.3g} <= (alpha/2)rho^{horizon + 1} = {bound:.4g}, {N_SEEDS} seeds",
    )


def test_criterion_9_dual_implementation_equivalence(tmp_path):
    identical = True
    for seed in range(N_SEEDS):
        g = generate("random_gnp", 12, seed=30_000 + seed, p=0.4)
        rng = np.random.default_rng(31_000 + seed)
        x0 = rng.uniform(0.0, 100.0, 12)
        traces = []
        for form in ("matrix", "per_node"):
            cfg = RunConfig(
                graph=g, x0=x0,
                noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=seed),
                scheme="zero_sum", update_form=form,
            )
            traces.append(run(cfg))
        a, b = traces
        same = (
            all(np.array_equal(p, q) for p, q in zip(a.xs, b.xs))
            and all(np.array_equal(p, q) for p, q in zip(a.thetas, b.thetas))
            and np.array_equal(a.x_final, b.x_final)
        )
        if seed == 0:
            pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
            a.write_trace_csv(pa)
            b.write_trace_csv(pb)
            same = same and pa.read_bytes() == pb.read_bytes()
        identical = identical and same
    _report(
        9,
        identical,
        f"matrix-form and per-node-form engines produce bitwise-identical "
        f"traces on {N_SEEDS} seeds",
    )


ACCEPTANCE_CONFIG = """\
[topology]
kind = random_gnp
n = 12
p = 0.4
seed = 77

[x0]
mode = uniform
low = 0.0
high = 100.0
seed = 78

[noise]
scheme = zero_sum
alpha = 1.0
rho = 0.9
seed = 79

[run]
max_iterations = 144

[experiment]
repetitions = 3
"""


def test_criterion_10_experiment_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(ACCEPTANCE_CONFIG)
    config = load_config(cfg_path)
    first = run_experiment(config, base_dir=tmp_path / "first")
    replay = experiment_from_manifest(first.manifest_path)
    second = run_experiment(replay, base_dir=tmp_path / "second")

    names = ["manifest.json"]
    for rec in first.manifest["runs"]:
        names.extend(rec["files"].values())
    identical = all(
        (tmp_path / "first" / "out" / name).read_bytes()
        == (tmp_path / "second" / "out" / name).read_bytes()
        for name in names
    )
    _report(
        10,
        identical,
        f"rerun from manifest reproduces {len(names)} output files "
        f"byte-for-byte",
    )
