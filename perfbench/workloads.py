"""The three benchmark workloads and the checks on their outputs.

Each workload has four steps. `setup` builds what every operation shares
and is timed as set-up. `inputs` derives one operation's inputs from the
workload seed and the operation index, untimed. `run` calls privagg's
public API and is the timed operation. `check` verifies the outputs,
untimed, and raises CheckFailed when they are wrong.

Why these three:
- experiment_trace is `privagg run` with trace and summary CSVs: the dense
  kernel, trace I/O and scalar truncated-gaussian noise all show, while
  graph generation and weights cost next to nothing.
- large_sparse is one long run on a 1000-node geometric graph with edge
  churn: graph generation (set-up), the neighbour kernel, weight rebuilds
  and per-round bookkeeping show; there is no trace I/O and no dense kernel.
- attack_later is per-trial Python work: scalar noise processes and a
  20-node dense kernel, with no NoiseBank pre-draw and no harness I/O.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from privagg import cli, engine, privacy, topology
from privagg.noise import NoiseParams
from privagg.tolerances import TOL

from tracer import count_rounds

ALPHA, RHO = 1.0, 0.9


class CheckFailed(AssertionError):
    """An operation returned an output that violates the workload's check."""


@dataclass(frozen=True)
class OpResult:
    node_rounds: int  # sum over simulated rounds of the live nodes
    trials: int  # independent runs or attack trials in the operation
    digest: bytes  # sha256 of the outputs, for bitwise comparison across commits
    update_form: str


def op_rng(seed: int, index: int) -> np.random.Generator:
    """Inputs of operation `index` depend only on (workload seed, index)."""
    return np.random.default_rng([seed, index])


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


# --- experiment_trace -------------------------------------------------------

_EXPERIMENT_CFG = """\
[topology]
kind = random_gnp
n = {n}
p = {p}
seed = {graph_seed}

[x0]
mode = uniform
low = 0.0
high = 100.0
seed = {x0_seed}

[noise]
scheme = zero_sum
alpha = {alpha}
rho = {rho}
distribution = truncated_gaussian
seed = {noise_seed}

[outputs]
directory = out
write_trace = true
write_summary = true

[experiment]
repetitions = 1
"""


class ExperimentTrace:
    def __init__(self, n: int, p: float):
        self.n, self.p = n, p

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        return {"seed": seed, "workdir": workdir}

    def inputs(self, state: dict, index: int) -> Path:
        graph_seed, x0_seed, noise_seed = _seeds(op_rng(state["seed"], index), 3)
        path = state["workdir"] / f"op{index}.cfg"
        path.write_text(
            _EXPERIMENT_CFG.format(
                n=self.n, p=self.p, alpha=ALPHA, rho=RHO,
                graph_seed=graph_seed, x0_seed=x0_seed, noise_seed=noise_seed,
            )
        )
        return path

    def run(self, state: dict, cfg: Path, tracer) -> tuple[int, Path]:
        base = cfg.with_suffix("")
        with tracer.span("cli.main"):
            rc = cli.main(["run", str(cfg), "--out", str(base)])
        return rc, base / "out"

    def check(self, state: dict, cfg: Path, outputs: tuple[int, Path]) -> OpResult:
        rc, out = outputs
        try:
            if rc != 0:
                raise CheckFailed(f"privagg run exited with {rc}")
            manifest = (out / "manifest.json").read_bytes()
            trace_csv = (out / "trace_000.csv").read_bytes()
            summary_csv = (out / "summary_000.csv").read_bytes()
            return check_experiment(manifest, trace_csv, summary_csv)
        finally:
            shutil.rmtree(out.parent, ignore_errors=True)
            cfg.unlink(missing_ok=True)


def check_experiment(manifest: bytes, trace_csv: bytes, summary_csv: bytes) -> OpResult:
    """Exact aggregation: the recovered sum matches n times the true average,
    and the true average matches the round-0 states in the trace CSV."""
    doc = json.loads(manifest)
    n = doc["config_resolved"]["topology"]["n"]
    node_rounds = 0
    for rec in doc["runs"]:
        want = rec["n_final"] * rec["true_average"]
        if not abs(rec["recovered_sum"] - want) <= TOL.aggregation_sum:
            raise CheckFailed(
                f"recovered sum {rec['recovered_sum']!r} != n * true average {want!r}"
            )
        node_rounds += n * rec["k_stop"]
    lines = trace_csv.decode().splitlines()
    x0 = [float(row.split(",")[2]) for row in lines[1 : n + 1] if row.startswith("0,")]
    if len(x0) != n:
        raise CheckFailed(f"trace CSV has {len(x0)} round-0 rows, expected {n}")
    avg = math.fsum(x0) / n
    true_avg = doc["runs"][0]["true_average"]
    if not abs(avg - true_avg) <= 1e-9 * (1.0 + abs(avg)):
        raise CheckFailed(f"manifest true average {true_avg!r} != trace x0 mean {avg!r}")
    if len(summary_csv.decode().splitlines()) != doc["runs"][0]["k_stop"] + 2:
        raise CheckFailed("summary CSV does not have one row per recorded round")
    digest = hashlib.sha256(manifest + trace_csv + summary_csv).digest()
    update_form = doc["config_resolved"]["run"]["update_form"]
    return OpResult(node_rounds, len(doc["runs"]), digest, update_form)


# --- large_sparse -------------------------------------------------------------


def churn_schedule(g, rng: np.random.Generator, rounds: int, every: int) -> tuple:
    """A remove/add edge pair every `every` rounds, each step checked to keep
    the graph connected (apply_event rejects a disconnecting removal)."""
    events = []
    for at in range(every, rounds, every):
        while True:
            edge = g.edges[int(rng.integers(len(g.edges)))]
            remove = topology.TopologyEvent(at, "remove_edge", edge)
            try:
                g = topology.apply_event(g, remove)
                break
            except topology.ConnectivityError:
                continue
        while True:
            i, j = (int(v) for v in rng.integers(g.n, size=2))
            if i != j and not g.has_edge(i, j) and (min(i, j), max(i, j)) != edge:
                break
        add = topology.TopologyEvent(at, "add_edge", (min(i, j), max(i, j)))
        g = topology.apply_event(g, add)
        events += [remove, add]
    return tuple(events)


class LargeSparse:
    def __init__(self, n: int, radius: float, rounds: int, churn_every: int):
        self.n, self.radius, self.rounds, self.churn_every = n, radius, rounds, churn_every

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        rng = np.random.default_rng([seed, 2**31])
        graph_seed, churn_seed = _seeds(rng, 2)
        generate = tracer.wrap(topology.generate, "topology.generate")
        g = generate("random_geometric", self.n, seed=graph_seed, radius=self.radius)
        events = churn_schedule(g, np.random.default_rng(churn_seed), self.rounds, self.churn_every)
        return {"seed": seed, "graph": g, "events": events}

    def inputs(self, state: dict, index: int) -> engine.RunConfig:
        rng = op_rng(state["seed"], index)
        (noise_seed,) = _seeds(rng, 1)
        return engine.RunConfig(
            graph=state["graph"],
            x0=rng.uniform(0.0, 100.0, self.n),
            noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=noise_seed),
            scheme="zero_sum",
            max_iterations=self.rounds,
            events=state["events"],
            record_trace=False,
            update_form="per_node",
        )

    def run(self, state: dict, cfg: engine.RunConfig, tracer):
        return tracer.wrap(engine.run, "engine.run", count_rounds)(cfg)

    def check(self, state: dict, cfg: engine.RunConfig, trace) -> OpResult:
        check_mass(cfg.x0, trace.x_final, trace.k_stop)
        node_rounds = sum(len(ids) for ids in trace.node_ids[: trace.k_stop])
        digest = hashlib.sha256(np.ascontiguousarray(trace.x_final).tobytes()).digest()
        return OpResult(node_rounds, 1, digest, cfg.update_form)


def check_mass(x0: np.ndarray, x_final: np.ndarray, rounds: int) -> None:
    """Zero-sum mass identity: the state sum moves only by the residual noise
    not yet cancelled, (alpha/2) rho^K per node, plus rounding."""
    n = len(x0)
    if len(x_final) != n:
        raise CheckFailed(f"x_final has {len(x_final)} entries, expected {n}")
    drift = abs(math.fsum(x_final) - math.fsum(x0))
    bound = n * 0.5 * ALPHA * RHO**rounds + TOL.mass_conservation * n * rounds * (
        1.0 + float(np.max(np.abs(x0)))
    )
    if not drift <= bound:
        raise CheckFailed(f"state sum drifted by {drift!r} > {bound!r}")


# --- attack_later ------------------------------------------------------------


def sigma_uniform(epsilon: float) -> float:
    """Analytic ceiling for uniform round-0 noise of width alpha*rho."""
    width = ALPHA * RHO
    return min(2.0 * epsilon, width) / width


class AttackLater:
    def __init__(self, round_k: int, epsilon: float, train_trials: int, trials: int,
                 horizon: int):
        self.round_k, self.epsilon = round_k, epsilon
        self.train_trials, self.trials, self.horizon = train_trials, trials, horizon

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        generate = tracer.wrap(topology.generate, "topology.generate")
        demo = generate("random_gnp", 20, seed=7, p=0.3)  # configs/demo.cfg
        complete = generate("complete", 3)  # configs/disclosure_demo.cfg
        return {
            "seed": seed,
            "view": privacy.AdversaryView(demo, 0, demo.neighbors[0][0]),
            "full_view": privacy.AdversaryView(complete, 0, 1, knows_target_neighbors=True),
            "n": demo.n,
        }

    def inputs(self, state: dict, index: int) -> dict:
        rng = op_rng(state["seed"], index)
        attack_seed, noise_seed = _seeds(rng, 2)
        graph = state["full_view"].graph
        return {
            "attack_seed": attack_seed,
            "run": engine.RunConfig(
                graph=graph,
                x0=rng.uniform(0.0, 100.0, graph.n),
                noise=NoiseParams(alpha=ALPHA, rho=RHO, seed=noise_seed),
                scheme="zero_sum",
                max_iterations=self.horizon + 20,
                record_trace=True,
            ),
        }

    def run(self, state: dict, inputs: dict, tracer) -> tuple[float, float, int]:
        with tracer.span("privacy.later_round_attack"):
            rate = privacy.later_round_attack(
                state["view"], NoiseParams(alpha=ALPHA, rho=RHO), self.round_k,
                self.epsilon, self.trials, seed=inputs["attack_seed"],
                train_trials=self.train_trials, scheme="zero_sum",
            )
        trace = tracer.wrap(engine.run, "engine.run", count_rounds)(inputs["run"])
        with tracer.span("privacy.disclosure_attack"):
            disclosed = privacy.disclosure_attack(state["full_view"], trace, self.horizon)
        # computed: one scalar draw per node per simulated round of each trial
        trials = self.train_trials + self.trials
        tracer.count("noise.scalar_draws", trials * state["n"] * (self.round_k + 1))
        return rate, disclosed.estimate, trace.k_stop

    def check(self, state: dict, inputs: dict, outputs) -> OpResult:
        rate, estimate, k_stop = outputs
        cfg = inputs["run"]
        check_attack(rate, self.epsilon, self.trials)
        check_disclosure(estimate, float(cfg.x0[state["full_view"].target]), self.horizon)
        trials = self.train_trials + self.trials
        node_rounds = trials * state["n"] * (self.round_k + 1) + cfg.graph.n * k_stop
        digest = hashlib.sha256(repr((rate, estimate)).encode()).digest()
        return OpResult(node_rounds, trials, digest, "matrix")


def check_attack(rate: float, epsilon: float, trials: int) -> None:
    """The measured later-round success rate stays under sigma(epsilon) up to
    four standard errors of a rate of sigma over `trials`."""
    sigma = sigma_uniform(epsilon)
    limit = sigma + 4.0 * math.sqrt(sigma * (1.0 - sigma) / trials)
    if not 0.0 <= rate <= limit:
        raise CheckFailed(f"later-round success rate {rate!r} > {limit!r}")


def check_disclosure(estimate: float, actual: float, horizon: int) -> None:
    """A full-neighbourhood observer recovers x_j(0) to (alpha/2) rho^(K+1)."""
    bound = 0.5 * ALPHA * RHO ** (horizon + 1)
    if not abs(estimate - actual) <= bound:
        raise CheckFailed(f"disclosure error {abs(estimate - actual)!r} > {bound!r}")


# Full sizes are what the benchmark measures; tiny sizes let the tests run
# every workload end to end in seconds. large_sparse stops at 100 rounds, not
# the ~200 a longer study would use: one operation then takes ~5 s on the
# pure-Python kernels, so a 30 s run still holds about six of them.
SIZES: dict[str, dict] = {
    "full": {
        "experiment_trace": lambda: ExperimentTrace(n=50, p=0.2),
        "large_sparse": lambda: LargeSparse(n=1000, radius=0.08, rounds=100, churn_every=25),
        "attack_later": lambda: AttackLater(
            round_k=10, epsilon=0.1, train_trials=1000, trials=2000, horizon=100
        ),
    },
    "tiny": {
        "experiment_trace": lambda: ExperimentTrace(n=16, p=0.5),
        "large_sparse": lambda: LargeSparse(n=80, radius=0.3, rounds=60, churn_every=25),
        "attack_later": lambda: AttackLater(
            round_k=3, epsilon=0.1, train_trials=20, trials=40, horizon=30
        ),
    },
}