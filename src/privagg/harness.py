"""Experiment configuration, orchestration, and reproducible artifacts.

Configs are flat INI-style files with topology/x0/noise/run/outputs/
experiment sections (JSON with the same structure is accepted); every
piece of randomness flows from named seeds, and each experiment writes a
manifest from which the run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import RunConfig, RunTrace, run
from .noise import DISTRIBUTIONS, SCHEMES, NoiseParams, derive_seed
from .topology import EVENT_KINDS, GRAPH_KINDS, Graph, TopologyEvent, generate


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    n: int
    seed: int | None = None
    p: float | None = None
    radius: float | None = None

    def build(self) -> Graph:
        return generate(self.kind, self.n, seed=self.seed, p=self.p, radius=self.radius)


@dataclass(frozen=True)
class X0Spec:
    mode: str  # "uniform" | "explicit"
    low: float | None = None
    high: float | None = None
    seed: int | None = None
    values: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RunSpec:
    max_iterations: int | None = None
    term_epsilon: float = 0.0
    record_trace: bool = True
    update_form: str = "matrix"
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    write_trace: bool = True
    write_summary: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologySpec
    x0: X0Spec
    noise: NoiseParams
    scheme: str
    run: RunSpec
    outputs: OutputSpec
    repetitions: int
    origin: Path | None = None  # where the config was loaded from, if anywhere


_SECTION_KEYS = {
    "topology": {"kind", "n", "seed", "p", "radius"},
    "x0": {"mode", "low", "high", "seed", "values"},
    "noise": {"scheme", "alpha", "rho", "h", "distribution", "seed", "variance"},
    "run": {"max_iterations", "term_epsilon", "record_trace", "update_form", "events"},
    "outputs": {"directory", "write_trace", "write_summary"},
    "experiment": {"repetitions"},
}


def _to_bool(section: str, key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise ConfigError(f"{section}.{key} must be a boolean, got {value!r}")


def _to_int(section: str, key: str, value) -> int:
    try:
        if isinstance(value, bool):
            raise ValueError
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}") from None


def _to_float(section: str, key: str, value) -> float:
    try:
        return float(str(value).strip())
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}") from None


def _float_list(section: str, key: str, value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [v for v in str(value).split(",") if v.strip()]
    return tuple(_to_float(section, key, v) for v in items)


def _event_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v).strip() for v in value if str(v).strip())
    return tuple(v.strip() for v in str(value).split(",") if v.strip())


def parse_event(text: str, n: int) -> TopologyEvent:
    """Parse 'AT:KIND:I-J' (edge events) or 'AT:KIND:I' (remove_node)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"run.events entry {text!r} is not AT:KIND:PAYLOAD")
    at = _to_int("run", "events", parts[0])
    kind = parts[1].strip()
    if kind not in EVENT_KINDS:
        raise ConfigError(f"run.events entry {text!r}: unknown kind {kind!r}")
    payload_text = parts[2].strip()
    payload: tuple[int, int] | int
    if kind == "remove_node":
        payload = _to_int("run", "events", payload_text)
        ids = [payload]
    else:
        bits = payload_text.split("-")
        if len(bits) != 2:
            raise ConfigError(f"run.events entry {text!r}: payload must be I-J")
        payload = (_to_int("run", "events", bits[0]), _to_int("run", "events", bits[1]))
        ids = list(payload)
    for node in ids:
        if not 0 <= node < n:
            raise ConfigError(f"run.events entry {text!r}: node {node} not in 0..{n - 1}")
    try:
        return TopologyEvent(at, kind, payload)
    except ValueError as exc:
        raise ConfigError(f"run.events entry {text!r}: {exc}") from None


def _check_keys(data: dict) -> None:
    for section, keys in data.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section {section!r}")
        for key in keys:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")


def build_config(data: dict, origin: Path | None = None) -> ExperimentConfig:
    """Validate a dict-of-sections into an ExperimentConfig."""
    _check_keys(data)
    topo_raw = data.get("topology")
    if not topo_raw or "kind" not in topo_raw or "n" not in topo_raw:
        raise ConfigError("topology.kind and topology.n are required")
    kind = str(topo_raw["kind"]).strip()
    if kind not in GRAPH_KINDS:
        raise ConfigError(f"topology.kind must be one of {GRAPH_KINDS}, got {kind!r}")
    n = _to_int("topology", "n", topo_raw["n"])
    if n < 1:
        raise ConfigError("topology.n must be >= 1")
    seed = topo_raw.get("seed")
    seed = None if seed is None else _to_int("topology", "seed", seed)
    if kind in ("random_gnp", "random_geometric") and seed is None:
        raise ConfigError(f"topology.seed is required for kind {kind!r}")
    p = topo_raw.get("p")
    radius = topo_raw.get("radius")
    topology = TopologySpec(
        kind,
        n,
        seed=seed,
        p=None if p is None else _to_float("topology", "p", p),
        radius=None if radius is None else _to_float("topology", "radius", radius),
    )
    if kind == "random_gnp" and topology.p is None:
        raise ConfigError("topology.p is required for random_gnp")
    if kind == "random_geometric" and topology.radius is None:
        raise ConfigError("topology.radius is required for random_geometric")

    x0_raw = data.get("x0")
    if not x0_raw or "mode" not in x0_raw:
        raise ConfigError("x0.mode is required (uniform or explicit)")
    mode = str(x0_raw["mode"]).strip()
    if mode == "uniform":
        for want in ("low", "high", "seed"):
            if want not in x0_raw:
                raise ConfigError(f"x0.{want} is required for uniform x0")
        x0 = X0Spec(
            "uniform",
            low=_to_float("x0", "low", x0_raw["low"]),
            high=_to_float("x0", "high", x0_raw["high"]),
            seed=_to_int("x0", "seed", x0_raw["seed"]),
        )
        if not x0.low < x0.high:
            raise ConfigError("x0.low must be < x0.high")
    elif mode == "explicit":
        if "values" not in x0_raw:
            raise ConfigError("x0.values is required for explicit x0")
        values = _float_list("x0", "values", x0_raw["values"])
        if len(values) != n:
            raise ConfigError(
                f"x0.values has {len(values)} entries but topology.n = {n}"
            )
        x0 = X0Spec("explicit", values=values)
    else:
        raise ConfigError(f"x0.mode must be uniform or explicit, got {mode!r}")

    noise_raw = data.get("noise", {})
    scheme = str(noise_raw.get("scheme", "zero")).strip()
    if scheme not in SCHEMES:
        raise ConfigError(f"noise.scheme must be one of {SCHEMES}, got {scheme!r}")
    noise_seed = noise_raw.get("seed")
    noise_seed = None if noise_seed is None else _to_int("noise", "seed", noise_seed)
    if scheme != "zero" and noise_seed is None:
        raise ConfigError(f"noise.seed is required for scheme {scheme!r}")
    distribution = str(noise_raw.get("distribution", "uniform")).strip()
    if distribution not in DISTRIBUTIONS:
        raise ConfigError(
            f"noise.distribution must be one of {DISTRIBUTIONS}, got {distribution!r}"
        )
    try:
        noise = NoiseParams(
            alpha=_to_float("noise", "alpha", noise_raw.get("alpha", 1.0)),
            rho=_to_float("noise", "rho", noise_raw.get("rho", 0.9)),
            h=_to_int("noise", "h", noise_raw.get("h", 1)),
            distribution=distribution,
            seed=0 if noise_seed is None else noise_seed,
            variance=_to_float("noise", "variance", noise_raw.get("variance", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"noise.{exc}") from None

    run_raw = data.get("run", {})
    max_iter = run_raw.get("max_iterations")
    max_iter = None if max_iter is None else _to_int("run", "max_iterations", max_iter)
    if max_iter is not None and max_iter < 1:
        raise ConfigError("run.max_iterations must be >= 1")
    term_eps = _to_float("run", "term_epsilon", run_raw.get("term_epsilon", 0.0))
    if term_eps < 0.0:
        raise ConfigError("run.term_epsilon must be >= 0")
    update_form = str(run_raw.get("update_form", "matrix")).strip()
    if update_form not in ("matrix", "per_node"):
        raise ConfigError(f"run.update_form must be matrix or per_node, got {update_form!r}")
    events = _event_list(run_raw.get("events", ()))
    for text in events:
        parse_event(text, n)  # validates; engine re-applies against live graph
    run_spec = RunSpec(
        max_iterations=max_iter,
        term_epsilon=term_eps,
        record_trace=_to_bool("run", "record_trace", run_raw.get("record_trace", True)),
        update_form=update_form,
        events=events,
    )

    out_raw = data.get("outputs", {})
    outputs = OutputSpec(
        directory=str(out_raw.get("directory", "out")).strip(),
        write_trace=_to_bool("outputs", "write_trace", out_raw.get("write_trace", True)),
        write_summary=_to_bool(
            "outputs", "write_summary", out_raw.get("write_summary", True)
        ),
    )
    if outputs.write_trace and not run_spec.record_trace:
        raise ConfigError("outputs.write_trace requires run.record_trace")

    exp_raw = data.get("experiment", {})
    repetitions = _to_int("experiment", "repetitions", exp_raw.get("repetitions", 1))
    if repetitions < 1:
        raise ConfigError("experiment.repetitions must be >= 1")

    return ExperimentConfig(
        topology, x0, noise, scheme, run_spec, outputs, repetitions, origin
    )


def _load_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        with open(path) as f:
            parser.read_file(f)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicated key: {exc}") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicated section: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def _reject_dup_pairs(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicated key: {key!r}")
        seen[key] = value
    return seen


def _load_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(), object_pairs_hook=_reject_dup_pairs)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object of sections")
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file (INI sections, or JSON by extension)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    data = _load_json(path) if path.suffix == ".json" else _load_ini(path)
    return build_config(data, origin=path)


def resolved_dict(config: ExperimentConfig) -> dict:
    """Canonical fully-defaulted form of a config (what the manifest records)."""
    t, x, nse, r, o = config.topology, config.x0, config.noise, config.run, config.outputs
    return {
        "topology": {"kind": t.kind, "n": t.n, "seed": t.seed, "p": t.p, "radius": t.radius},
        "x0": {
            "mode": x.mode,
            "low": x.low,
            "high": x.high,
            "seed": x.seed,
            "values": None if x.values is None else list(x.values),
        },
        "noise": {
            "scheme": config.scheme,
            "alpha": nse.alpha,
            "rho": nse.rho,
            "h": nse.h,
            "distribution": nse.distribution,
            "seed": nse.seed,
            "variance": nse.variance,
        },
        "run": {
            "max_iterations": r.max_iterations,
            "term_epsilon": r.term_epsilon,
            "record_trace": r.record_trace,
            "update_form": r.update_form,
            "events": list(r.events),
        },
        "outputs": {
            "directory": o.directory,
            "write_trace": o.write_trace,
            "write_summary": o.write_summary,
        },
        "experiment": {"repetitions": config.repetitions},
    }


def config_from_resolved(data: dict, origin: Path | None = None) -> ExperimentConfig:
    """Rebuild a config from a manifest's config_resolved block."""
    sections = {}
    for section, keys in data.items():
        sections[section] = {k: v for k, v in keys.items() if v is not None}
    # the noise section folds the scheme in; values may be an explicit list
    return build_config(sections, origin=origin)


@dataclass
class ExperimentResult:
    manifest_path: Path
    manifest: dict
    out_dir: Path
    traces: list[RunTrace] = field(default_factory=list)


def _format_payload(payload) -> str:
    if isinstance(payload, tuple):
        return f"{payload[0]}-{payload[1]}"
    return str(payload)


def repetition_inputs(
    config: ExperimentConfig, graph: Graph, rep: int
) -> tuple[RunConfig, dict]:
    """The run of repetition rep and its manifest seeds entry.

    x0 and the noise seed are derived from the config's seeds and rep; the
    zero scheme draws nothing and keeps the config's noise seed.
    """
    if config.x0.mode == "uniform":
        x0_seed = derive_seed(config.x0.seed, rep)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(x0_seed)))
        x0 = rng.uniform(config.x0.low, config.x0.high, graph.n)
    else:
        x0_seed = None
        x0 = np.array(config.x0.values, dtype=np.float64)
    noise_seed = None if config.scheme == "zero" else derive_seed(config.noise.seed, rep)
    params = config.noise if noise_seed is None else replace(config.noise, seed=noise_seed)
    run_config = RunConfig(
        graph=graph,
        x0=x0,
        noise=params,
        scheme=config.scheme,
        max_iterations=config.run.max_iterations,
        term_epsilon=config.run.term_epsilon,
        events=tuple(parse_event(text, graph.n) for text in config.run.events),
        record_trace=config.run.record_trace,
        update_form=config.run.update_form,
    )
    return run_config, {"repetition": rep, "x0_seed": x0_seed, "noise_seed": noise_seed}


def run_experiment(
    config: ExperimentConfig, base_dir: str | Path | None = None
) -> ExperimentResult:
    """Execute all repetitions, write CSVs + manifest, return the artifacts.

    Relative output directories resolve against base_dir, else the config
    file's directory, else the working directory.
    """
    root = Path(base_dir) if base_dir is not None else (
        config.origin.parent if config.origin is not None else Path.cwd()
    )
    out_dir = Path(config.outputs.directory)
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    graph = config.topology.build()

    seeds = []
    runs = []
    traces = []
    for rep in range(config.repetitions):
        run_config, rep_seeds = repetition_inputs(config, graph, rep)
        try:
            trace = run(run_config)
        except Exception as exc:
            raise RuntimeError(f"repetition {rep}: {exc}") from exc
        traces.append(trace)
        files = {}
        if config.outputs.write_trace and config.run.record_trace:
            name = f"trace_{rep:03d}.csv"
            trace.write_trace_csv(out_dir / name)
            files["trace"] = name
        if config.outputs.write_summary:
            name = f"summary_{rep:03d}.csv"
            trace.write_summary_csv(out_dir / name)
            files["summary"] = name
        n_final = len(trace.node_ids[-1])
        seeds.append(rep_seeds)
        runs.append(
            {
                "repetition": rep,
                "k_stop": trace.k_stop,
                "reason": trace.reason,
                "n_final": n_final,
                "consensus_value": trace.consensus_value,
                "true_average": trace.final_true_average,
                "recovered_sum": n_final * trace.consensus_value,
                "final_err": trace.final_err,
                "final_spread": trace.final_spread,
                "events_applied": [
                    {
                        "at_iteration": ev.at_iteration,
                        "kind": ev.kind,
                        "payload": _format_payload(ev.payload),
                        "n_after": ev.n_after,
                        "true_average_after": ev.true_average_after,
                    }
                    for ev in trace.events_applied
                ],
                "files": files,
            }
        )

    manifest = {
        "version": __version__,
        "config_resolved": resolved_dict(config),
        "seeds": seeds,
        "runs": runs,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(manifest_path, manifest, out_dir, traces)


def experiment_from_manifest(path: str | Path) -> ExperimentConfig:
    """Reload the exact resolved config an experiment ran with."""
    path = Path(path)
    manifest = json.loads(path.read_text())
    return config_from_resolved(manifest["config_resolved"], origin=path)
