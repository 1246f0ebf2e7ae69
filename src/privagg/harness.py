"""Experiment configuration, orchestration, and reproducible artifacts.

Configs are flat INI-style files with topology/x0/noise/run/outputs/
experiment sections (JSON with the same structure is accepted); every
piece of randomness flows from named seeds, and each experiment writes a
manifest from which the run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    RunConfig,
    RunTrace,
    aggregate,
    check_run_options,
    run,
)
from .noise import SCHEMES, NoiseParams, derive_seed, seeded_stream
from .topology import (
    EVENT_KINDS,
    ConnectivityError,
    Graph,
    TopologyEvent,
    apply_event,
    check_graph_params,
    generate,
)


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    n: int
    seed: int | None = None
    p: float | None = None
    radius: float | None = None

    def __post_init__(self) -> None:
        check_graph_params(self.kind, self.n, self.seed, self.p, self.radius)

    def build(self) -> Graph:
        return generate(self.kind, self.n, seed=self.seed, p=self.p, radius=self.radius)


# The keys each x0 mode requires; the other x0 keys are ignored for that mode.
_X0_MODE_KEYS = {"uniform": ("low", "high", "seed"), "explicit": ("values",)}


@dataclass(frozen=True)
class X0Spec:
    mode: str  # "uniform" | "explicit"
    low: float | None = None
    high: float | None = None
    seed: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in _X0_MODE_KEYS:
            raise ValueError(f"mode must be uniform or explicit, got {self.mode!r}")
        for key in _X0_MODE_KEYS[self.mode]:
            if getattr(self, key) is None:
                raise ValueError(f"{key} is required for {self.mode} x0")
        if self.mode == "uniform" and not self.low < self.high:
            raise ValueError("low must be < x0.high")
        if self.mode == "uniform" and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunSpec:
    max_iterations: int | None = None
    term_epsilon: float = 0.0
    record_trace: bool = True
    update_form: str = "matrix"
    events: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_run_options(self.max_iterations, self.term_epsilon, self.update_form)


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


def _to_str(name: str, value) -> str:
    return str(value).strip()


def _to_bool(name: str, value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise ConfigError(f"{name} must be a boolean, got {value!r}")


def _to_int(name: str, value) -> int:
    try:
        if isinstance(value, bool):
            raise ValueError
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _to_float(name: str, value) -> float:
    try:
        number = float(str(value).strip())
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _float_list(name: str, value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [v for v in str(value).split(",") if v.strip()]
    return tuple(_to_float(name, v) for v in items)


def _event_list(name: str, value) -> tuple[str, ...]:
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return tuple(str(v).strip() for v in items if str(v).strip())


# Every config key and its coercer. Defaults live in the section dataclasses
# (TopologySpec, X0Spec, NoiseParams, RunSpec, OutputSpec), except the noise
# scheme ("zero") and the repetitions (1), which build_config supplies.
_SCHEMA = {
    "topology": {"kind": _to_str, "n": _to_int, "seed": _to_int, "p": _to_float,
                 "radius": _to_float},
    "x0": {"mode": _to_str, "low": _to_float, "high": _to_float, "seed": _to_int,
           "values": _float_list},
    "noise": {"scheme": _to_str, "alpha": _to_float, "rho": _to_float, "h": _to_int,
              "distribution": _to_str, "seed": _to_int, "variance": _to_float},
    "run": {"max_iterations": _to_int, "term_epsilon": _to_float, "record_trace": _to_bool,
            "update_form": _to_str, "events": _event_list},
    "outputs": {"directory": _to_str, "write_trace": _to_bool, "write_summary": _to_bool},
    "experiment": {"repetitions": _to_int},
}


def parse_event(text: str, n: int) -> TopologyEvent:
    """Parse 'AT:KIND:I-J' (edge events) or 'AT:KIND:I' (remove_node)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"run.events entry {text!r} is not AT:KIND:PAYLOAD")
    at = _to_int("run.events", parts[0])
    kind = parts[1].strip()
    if kind not in EVENT_KINDS:
        raise ConfigError(f"run.events entry {text!r}: unknown kind {kind!r}")
    payload_text = parts[2].strip()
    payload: tuple[int, int] | int
    if kind == "remove_node":
        payload = _to_int("run.events", payload_text)
        ids = [payload]
    else:
        bits = payload_text.split("-")
        if len(bits) != 2:
            raise ConfigError(f"run.events entry {text!r}: payload must be I-J")
        payload = (_to_int("run.events", bits[0]), _to_int("run.events", bits[1]))
        ids = list(payload)
    for node in ids:
        if not 0 <= node < n:
            raise ConfigError(f"run.events entry {text!r}: node {node} not in 0..{n - 1}")
    try:
        return TopologyEvent(at, kind, payload)
    except ValueError as exc:
        raise ConfigError(f"run.events entry {text!r}: {exc}") from None


def _coerce(data: dict) -> dict[str, dict]:
    """Each section's present keys, coerced; a null value counts as absent."""
    sections: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section, keys in data.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section!r} must map keys to values")
        for key, value in keys.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            if value is not None:
                sections[section][key] = _SCHEMA[section][key](f"{section}.{key}", value)
    return sections


def _build(section: str, cls, values: dict):
    """cls(**values), with a missing required key or a failed check named."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"{section}.{f.name} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def build_config(data: dict, origin: Path | None = None) -> ExperimentConfig:
    """Validate a dict-of-sections into an ExperimentConfig."""
    sections = _coerce(data)
    topology = _build("topology", TopologySpec, sections["topology"])
    n = topology.n

    x0_raw = sections["x0"]
    wanted = _X0_MODE_KEYS.get(x0_raw.get("mode"), ())
    x0 = _build("x0", X0Spec, {k: v for k, v in x0_raw.items() if k == "mode" or k in wanted})
    if x0.mode == "explicit" and len(x0.values) != n:
        raise ConfigError(f"x0.values has {len(x0.values)} entries but topology.n = {n}")

    noise_raw = dict(sections["noise"])
    scheme = noise_raw.pop("scheme", "zero")
    if scheme not in SCHEMES:
        raise ConfigError(f"noise.scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme != "zero" and "seed" not in noise_raw:
        raise ConfigError(f"noise.seed is required for scheme {scheme!r}")
    if scheme != "zero" and noise_raw["seed"] < 0:
        raise ConfigError(f"noise.seed must be >= 0, got {noise_raw['seed']}")
    noise = _build("noise", NoiseParams, noise_raw)

    run_spec = _build("run", RunSpec, sections["run"])
    for text in run_spec.events:
        parse_event(text, n)  # validates; engine re-applies against live graph

    outputs = _build("outputs", OutputSpec, sections["outputs"])
    if outputs.write_trace and not run_spec.record_trace:
        raise ConfigError("outputs.write_trace requires run.record_trace")

    repetitions = sections["experiment"].get("repetitions", 1)
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
    names = ("topology", "x0", "noise", "run", "outputs")
    resolved = {name: asdict(getattr(config, name), dict_factory=_list_tuples) for name in names}
    resolved["noise"]["scheme"] = config.scheme
    resolved["experiment"] = {"repetitions": config.repetitions}
    return resolved


def _list_tuples(items: list[tuple]) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


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
        x0 = seeded_stream(x0_seed).uniform(config.x0.low, config.x0.high, graph.n)
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


def check_topology(config: ExperimentConfig) -> None:
    """Draw the graph and replay, in at_iteration order, every event a run
    reaches by its round cap, through apply_event as the run does. A run
    that stops early on term_epsilon never meets its later events, but they
    are checked all the same. The error names the topology or the entry."""
    try:
        graph = config.topology.build()
    except ConnectivityError as exc:
        raise ConfigError(f"topology: {exc}") from None
    run_config, _ = repetition_inputs(config, graph, 0)
    schedule = sorted(
        zip(run_config.events, config.run.events), key=lambda pair: pair[0].at_iteration
    )
    g = graph
    for event, text in schedule:
        if event.at_iteration > run_config.max_rounds:
            break
        try:
            g = apply_event(g, event)
        except (ValueError, ConnectivityError) as exc:
            raise ConfigError(f"run.events entry {text!r}: {exc}") from None


def output_dir(config: ExperimentConfig, base_dir: str | Path | None = None) -> Path:
    """Where a config's outputs go: a relative directory resolves against
    base_dir, else the config file's directory, else the working directory."""
    root = Path(base_dir) if base_dir is not None else (
        config.origin.parent if config.origin is not None else Path.cwd()
    )
    return root / config.outputs.directory  # an absolute directory replaces root


def run_experiment(
    config: ExperimentConfig, base_dir: str | Path | None = None
) -> ExperimentResult:
    """Execute all repetitions, then write CSVs + manifest into output_dir and
    return the artifacts; a failing repetition writes nothing."""
    graph = config.topology.build()
    seeds = []
    traces = []
    for rep in range(config.repetitions):
        run_config, rep_seeds = repetition_inputs(config, graph, rep)
        try:
            traces.append(run(run_config))
        except Exception as exc:
            raise RuntimeError(f"repetition {rep}: {exc}") from exc
        seeds.append(rep_seeds)

    out_dir = output_dir(config, base_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for rep, trace in enumerate(traces):
        files = {}
        if config.outputs.write_trace and config.run.record_trace:
            name = f"trace_{rep:03d}.csv"
            trace.write_trace_csv(out_dir / name)
            files["trace"] = name
        if config.outputs.write_summary:
            name = f"summary_{rep:03d}.csv"
            trace.write_summary_csv(out_dir / name)
            files["summary"] = name
        runs.append(
            {
                "repetition": rep,
                "k_stop": trace.k_stop,
                "reason": trace.reason,
                "n_final": trace.n_final,
                "consensus_value": trace.consensus_value,
                "true_average": trace.final_true_average,
                "recovered_sum": aggregate(trace, "sum"),
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
    return build_config(manifest["config_resolved"], origin=path)
