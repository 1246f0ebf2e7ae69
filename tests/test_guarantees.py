"""A guarantee fuzzer: whole configs drawn at random, every run checked
against the paper's claims and against scalar references.

One property draws the graph kind and n <= 16, the noise scheme, its
distribution and h, the update form, an event schedule and term_epsilon, runs
the experiment, and checks on that run:

- the surviving average: the mean of the final state is the survivors'
  initial mean to within the un-cancelled zero-sum residual, at most
  (alpha/2) rho^(inner+1) per node and chain, plus rounding (other schemes
  keep the mass that their recorded noise added);
- bitwise telescoping: each node's recorded theta is the scalar reference
  process of its own stream, bit for bit, and the running sum of a chain's
  theta is that chain's residual, inside its envelope;
- the state envelope, for the schemes whose noise decays;
- the round update: x(k+1) is the ascending chain of the Metropolis weights
  of the round's graph times x+(k) = x(k) + theta(k);
- the matrix and per_node forms agree bit for bit;
- experiment_from_manifest replays the manifest and every CSV byte for byte.
"""

import math
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from noise_reference import SCHEME_CLASSES

from privagg.engine import UPDATE_FORMS, run, state_envelope
from privagg.harness import (
    build_config,
    experiment_from_manifest,
    repetition_inputs,
    run_experiment,
)
from privagg.noise import DISTRIBUTIONS, SCHEMES
from privagg.topology import GRAPH_KINDS, ConnectivityError, TopologyEvent, apply_event

_EPS = np.finfo(np.float64).eps


@st.composite
def _configs(draw):
    """A config dict with one repetition and a schedule the run accepts: node
    removals at iteration 0, before any mixing (a later removal takes its
    mass with it), and edge events up to the round cap, each kept only if
    apply_event applies it in the engine's order."""
    n = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(GRAPH_KINDS))
    topology = {"kind": kind, "n": n, "seed": draw(st.integers(0, 2**16))}
    topology |= {"random_gnp": {"p": 0.5}, "random_geometric": {"radius": 0.5}}.get(kind, {})
    rounds = draw(st.integers(1, 120))
    data = {
        "topology": topology,
        "x0": {"mode": "uniform", "low": -50.0, "high": 50.0, "seed": draw(st.integers(0, 2**16))},
        "noise": {
            "scheme": draw(st.sampled_from(SCHEMES)),
            "distribution": draw(st.sampled_from(DISTRIBUTIONS)),
            "h": draw(st.integers(1, 3)),
            "rho": draw(st.sampled_from([0.6, 0.9])),
            "seed": draw(st.integers(0, 2**16)),
        },
        "run": {
            "max_iterations": rounds,
            "term_epsilon": draw(st.sampled_from([0.0, 1e-3, 0.5])),
            "update_form": draw(st.sampled_from(UPDATE_FORMS)),
        },
        "outputs": {"directory": "out"},
    }
    try:
        g = build_config(data).topology.build()
    except ConnectivityError:
        return data  # no connected draw: the run must say so
    drawn = [(0, "remove_node")] * draw(st.integers(0, n - 2))
    edge_kinds = st.sampled_from(["add_edge", "remove_edge"])
    drawn += sorted(draw(st.lists(st.tuples(st.integers(0, rounds), edge_kinds), max_size=6)))
    events = []
    for at, event_kind in drawn:
        pick = draw(st.integers(0, 2**16))
        live = [i for i in range(n) if i not in g.retired]
        if event_kind == "remove_node":
            payload = live[pick % len(live)]
            text = f"{at}:remove_node:{payload}"
        else:
            pairs = [
                (a, b)
                for a in live
                for b in live
                if a < b and g.has_edge(a, b) == (event_kind == "remove_edge")
            ]
            if not pairs:
                continue
            payload = pairs[pick % len(pairs)]
            text = f"{at}:{event_kind}:{payload[0]}-{payload[1]}"
        try:
            g = apply_event(g, TopologyEvent(at, event_kind, payload))
        except (ValueError, ConnectivityError):
            continue
        events.append(text)
    data["run"]["events"] = events
    return data


def _metropolis_columns(g):
    """Column j of W for every j: the Metropolis rule row by row, the
    diagonal 1 minus the off-diagonal sum taken in ascending order."""
    w = np.zeros((g.n, g.n))
    for i, nbrs in enumerate(g.neighbors):
        off = 0.0
        for j in nbrs:
            w[i, j] = 1.0 / (1.0 + max(len(nbrs), len(g.neighbors[j])))
            off += w[i, j]
        w[i, i] = 1.0 - off
    return list(w.T)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _check_round_updates(trace, graph):
    """x(k+1) = sum over j ascending from 0.0 of w_ij x+_j(k), where x+(k) =
    x(k) + theta(k), with the weights of the graph the round ran on; i and
    j run over its live nodes, the nodes a trace row holds."""
    events = sorted(trace.config.events, key=lambda e: e.at_iteration)
    g, ei, columns = graph, 0, None
    xs, thetas = trace.xs, trace.thetas
    for k in range(trace.k_stop):
        first = ei
        while ei < len(events) and events[ei].at_iteration == k:
            g = apply_event(g, events[ei])
            ei += 1
        if columns is None or ei > first:
            live = [i for i in range(g.n) if i not in g.retired]
            every = _metropolis_columns(g)
            columns = [every[j][live] for j in live]
        x_plus = xs[k] + thetas[k]
        acc = np.zeros(len(columns))
        for j, column in enumerate(columns):
            acc = acc + column * x_plus[j]
        assert _bits(xs[k + 1]) == _bits(acc), k


def _check_noise(trace, ids):
    """Each survivor's theta is its own stream's scalar reference process, and
    the running sum of a chain's theta is the chain's residual (zero_sum)."""
    config = trace.config
    params, scheme = config.noise, config.scheme
    thetas = np.array(trace.thetas).reshape(trace.k_stop, len(ids))
    for p, node in enumerate(ids):
        process = SCHEME_CLASSES[scheme](params, node)
        want = [process.sample(k) for k in range(trace.k_stop)]
        assert _bits(thetas[:, p]) == _bits(want), node
        if scheme == "zero_sum":
            chains = [0.0] * params.h
            for k, theta in enumerate(thetas[:, p].tolist()):
                chains[k % params.h] += theta
            assert _bits(chains) == _bits(process.chain_residuals), node
            for k in range(max(0, trace.k_stop - params.h), trace.k_stop):
                assert abs(chains[k % params.h]) <= _envelope(params, k // params.h), node


def _envelope(params, inner):
    """The bound (alpha/2) rho^(inner+1) on a chain's residual after its draw inner."""
    return 0.5 * params.alpha * params.rho ** (inner + 1)


def _residual_envelope(params, rounds):
    """Largest |sum over chains of a node's residual| after `rounds` rounds:
    chain c last drew at its last round k < rounds with k % h == c."""
    last = range(max(0, rounds - params.h), rounds)
    return sum(_envelope(params, k // params.h) for k in last)


@settings(max_examples=40)
@given(data=_configs())
def test_runs_keep_the_paper_guarantees(data):
    config = build_config(data)
    with TemporaryDirectory() as tmp:
        try:
            result = run_experiment(config, Path(tmp, "a"))
        except ConnectivityError:
            assert data["topology"]["kind"].startswith("random_")
            return
        (trace,) = result.traces
        graph = config.topology.build()
        run_config, _ = repetition_inputs(config, graph, 0)
        ids = list(trace.node_ids[-1])
        x0 = run_config.x0
        params, scheme, rounds = run_config.noise, run_config.scheme, trace.k_stop

        assert trace.reason in ("max_iterations", "term_epsilon")
        assert _bits(trace.xs[0]) == _bits(x0[list(trace.node_ids[0])])
        _check_round_updates(trace, graph)
        _check_noise(trace, ids)

        broadcasts = [x + theta for x, theta in zip(trace.xs, trace.thetas)]
        magnitude = max(float(np.max(np.abs(v))) for v in trace.xs + broadcasts)
        rounding = 4 * rounds * len(ids) * (len(ids) + 1) * _EPS * magnitude
        final_mean = math.fsum(trace.x_final.tolist()) / len(ids)
        initial_mean = math.fsum(x0[ids].tolist()) / len(ids)
        if scheme in ("zero_sum", "zero"):
            residual = 0.0 if scheme == "zero" else _residual_envelope(params, rounds)
            assert abs(final_mean - initial_mean) <= residual + rounding
        else:
            injected = math.fsum(v for theta in trace.thetas for v in theta.tolist())
            assert abs(final_mean - initial_mean - injected / len(ids)) <= rounding
        if scheme != "gaussian_constant":
            bound = state_envelope(x0, params)
            assert all(float(np.max(np.abs(x))) <= bound for x in trace.xs)

        other = [form for form in UPDATE_FORMS if form != run_config.update_form]
        twin = run(replace(run_config, update_form=other[0]))
        assert twin.k_stop == trace.k_stop and twin.reason == trace.reason
        for name in ("xs", "thetas"):
            assert list(map(_bits, getattr(twin, name))) == list(map(_bits, getattr(trace, name)))

        replay = run_experiment(experiment_from_manifest(result.manifest_path), Path(tmp, "b"))
        files = sorted(p.name for p in result.out_dir.iterdir())
        assert files == sorted(p.name for p in replay.out_dir.iterdir())
        for name in files:
            assert (result.out_dir / name).read_bytes() == (replay.out_dir / name).read_bytes()
