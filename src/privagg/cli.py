"""Command-line interface: run, sweep, privacy, attack, validate."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .engine import run
from .harness import (
    ConfigError,
    ExperimentConfig,
    check_topology,
    load_config,
    output_dir,
    repetition_inputs,
    run_experiment,
)
from .noise import TELESCOPING_SCHEMES, derive_seed
from .privacy import (
    AdversaryView,
    PrivacyQuery,
    disclosure_attack,
    later_round_attack,
    naive_attack,
    privacy_sweep,
    reports_to_csv,
    sigma_analytic,
)

SWEEP_PARAMS = ("alpha", "rho", "h", "term_epsilon", "max_iterations")


def _finite_float(text: str) -> float:
    """The argparse type of one finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a finite number")
    return value


def _float_values(text: str) -> list[float]:
    """The argparse type of a comma-separated list of at least one finite number."""
    values = [_finite_float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("no values given")
    return values


def cmd_validate(args) -> int:
    config = load_config(args.config)
    check_topology(config)
    print(f"OK: {args.config} ({config.topology.kind}, n={config.topology.n})")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, base_dir=args.out)
    for rec in result.manifest["runs"]:
        print(
            f"run {rec['repetition']}: k_stop={rec['k_stop']} ({rec['reason']}), "
            f"consensus={rec['consensus_value']!r}, err={rec['final_err']:.3e}"
        )
    print(f"manifest: {result.manifest_path}")
    return 0


def _override(config: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    if param in ("h", "max_iterations"):
        if not value.is_integer():
            raise ConfigError(f"--param {param} takes integer values, got {value:g}")
        value = int(value)
    if param in ("alpha", "rho", "h"):
        return replace(config, noise=replace(config.noise, **{param: value}))
    return replace(config, run=replace(config.run, **{param: value}))


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    # Every value is checked, and gets a directory of its own, before any point runs.
    points: dict[str, tuple[float, ExperimentConfig]] = {}
    for value in args.values:
        sub = f"{args.param}={value:g}"
        if sub in points:
            raise ConfigError(
                f"--values {points[sub][0]!r} and {value!r} would share the directory {sub}"
            )
        points[sub] = (value, _override(config, args.param, value))
    for sub, (_, point) in points.items():
        point = replace(
            point, outputs=replace(point.outputs, directory=str(Path(point.outputs.directory) / sub))
        )
        result = run_experiment(point, base_dir=args.out)
        errs = [rec["final_err"] for rec in result.manifest["runs"]]
        print(f"{sub}: max final err {max(errs):.3e} -> {result.manifest_path}")
    return 0


def _require_zero_sum(config: ExperimentConfig, what: str) -> None:
    """The naive attack and the privacy sweep measure the zero_sum round-0 law."""
    if config.scheme != "zero_sum":
        raise ConfigError(f"noise.scheme must be zero_sum for {what}, got {config.scheme!r}")


def cmd_privacy(args) -> int:
    config = load_config(args.config)
    _require_zero_sum(config, "the privacy sweep")
    reports = privacy_sweep(
        config.noise, args.epsilons, args.trials, seed=derive_seed(config.noise.seed, 9001)
    )
    out = Path(args.out) if args.out else output_dir(config) / "privacy.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    reports_to_csv(reports, out)
    for r in reports:
        print(
            f"epsilon={r.epsilon:g}: sigma_analytic={r.sigma_analytic:.6f} "
            f"empirical={r.sigma_empirical:.6f} (stderr {r.stderr:.6f})"
        )
    print(f"wrote {out}")
    return 0


def cmd_attack(args) -> int:
    config = load_config(args.config)
    graph = config.topology.build()
    params = config.noise
    if not 0 <= args.observer < graph.n:
        raise ConfigError(f"observer must be in 0..{graph.n - 1}, got {args.observer}")
    target = args.target
    if target is None:
        if not graph.neighbors[args.observer]:
            raise ConfigError(f"observer {args.observer} has no neighbors to target")
        target = graph.neighbors[args.observer][0]
    if args.kind == "disclosure":
        view = AdversaryView(graph, args.observer, target, knows_target_neighbors=True)
        if config.run.events:
            raise ConfigError("disclosure attack requires a config without events")
        if config.scheme not in TELESCOPING_SCHEMES:
            raise ConfigError(
                "disclosure attack requires the zero_sum (or zero) noise scheme"
            )
        run_config, _ = repetition_inputs(config, graph, 0)
        run_config = replace(
            run_config,
            term_epsilon=0.0,
            record_trace=True,
            max_iterations=max(run_config.max_rounds, args.horizon + 1),
        )
        trace = run(run_config)
        result = disclosure_attack(view, trace, args.horizon)
        actual = float(run_config.x0[target])
        print(f"estimate x_{target}(0) = {result.estimate!r}")
        print(f"actual   x_{target}(0) = {actual!r}")
        print(f"abs error = {abs(result.estimate - actual):.3e} "
              f"(bound {result.error_bound + result.rounding_bound:.3e} "
              f"at horizon {result.horizon})")
        return 0

    if args.epsilon is None:
        raise ConfigError("--epsilon is required for naive/later attacks")
    if args.kind == "naive":
        _require_zero_sum(config, "the naive attack")
    view = AdversaryView(graph, args.observer, target)
    if params.seed < 0:  # build_config checks the seed only where a run uses it
        raise ConfigError(f"noise.seed must be >= 0, got {params.seed}")
    seed = derive_seed(params.seed, 9002)
    if args.kind == "naive":
        rate = naive_attack(view, params, args.epsilon, args.trials, seed=seed)
    else:
        rate = later_round_attack(
            view, params, args.round, args.epsilon, args.trials,
            seed=seed, train_trials=args.train_trials, scheme=config.scheme,
        )
    # sigma_analytic is the ceiling of the zero_sum round-0 law only
    if config.scheme == "zero_sum":
        ceiling = f"sigma_analytic {sigma_analytic(PrivacyQuery(args.epsilon, params)):.6f}"
    else:
        ceiling = f"no analytic ceiling applies to scheme {config.scheme!r}"
    print(f"{args.kind} attack: success rate {rate:.6f} over {args.trials} trials ({ceiling})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privagg",
        description="Noisy average-consensus aggregation: simulations, sweeps, privacy attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--out", help="base directory for outputs", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a config across parameter values")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, type=_float_values, help="comma-separated values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("privacy", help="analytic vs empirical disclosure curve")
    p.add_argument("config")
    p.add_argument("--epsilons", required=True, type=_float_values,
                   help="comma-separated accuracies")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_privacy)

    p = sub.add_parser("attack", help="run a concrete adversary")
    p.add_argument("config")
    p.add_argument("--kind", required=True, choices=("naive", "later", "disclosure"))
    p.add_argument("--epsilon", type=_finite_float, default=None)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--train-trials", type=int, default=2000, dest="train_trials")
    p.add_argument("--round", type=int, default=1)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--observer", type=int, default=0)
    p.add_argument("--target", type=int, default=None,
                   help="defaults to the observer's first neighbor")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("validate", help="check a config without running it")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
