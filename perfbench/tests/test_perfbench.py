"""Tests of the benchmark itself: span arithmetic, instrumentation, the
output checks, and a tiny-size run of every workload.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402

# Every metric the benchmark's specification names. op_tail_s is printed as
# an "op_tail:" line, because a run of a few operations has no tail.
SPECIFIED_END_TO_END = {"setup_s", "op_p50_s", "node_rounds_per_s", "trials_per_s",
                        "peak_rss_mb"}
SPECIFIED_PER_LAYER = {
    "backend.dense_step_s", "backend.dense_step_calls", "backend.neighbor_step_s",
    "backend.neighbor_step_calls", "backend.flops", "backend.bytes",
    "harness.write_trace_csv_s", "harness.write_summary_csv_s", "harness.bytes_written",
    "harness.run_experiment_self_s", "harness.load_config_s",
    "noise.round_values_s", "noise.round_values_calls", "noise.bank_init_s",
    "noise.predraw_mb", "noise.scalar_draws",
    "topology.generate_s", "topology.apply_event_s", "topology.apply_event_calls",
    "weights.metropolis_s", "weights.metropolis_calls",
    "engine.run_s", "engine.run_self_s", "engine.rounds", "engine.self_us_per_round",
    "privacy.later_round_attack_s", "privacy.later_round_attack_self_s",
    "privacy.disclosure_attack_s", "cli.main_self_s",
    "trace.overhead_ratio", "fail_ratio",
}


def test_self_time_subtracts_the_union_of_child_spans():
    S = tr.Span
    spans = [
        S("a", 0.0, 10.0, -1),
        S("b", 1.0, 4.0, 0),
        S("c", 2.0, 3.0, 1),
        S("d", 3.5, 6.0, 0),  # overlaps b: the union [1, 6] counts once
        S("e", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
        S("b", 20.0, 21.0, -1),
    ]
    got = tr.self_times(spans)
    assert got["a"] == pytest.approx((10.0, 3.0, 1))
    assert got["b"] == pytest.approx((4.0, 3.0, 2))
    assert got["c"] == pytest.approx((1.0, 1.0, 1))
    assert got["d"] == pytest.approx((2.5, 2.5, 1))
    assert got["e"] == pytest.approx((4.0, 4.0, 1))


def test_tracer_links_each_span_to_the_span_open_when_it_began():
    t = tr.Tracer()
    with t.span("root"):
        with t.span("child"):
            t.wrap(lambda: None, "grandchild")()
        with t.span("sibling"):
            pass
    spans, _ = t.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("root", -1), ("child", 0), ("grandchild", 1), ("sibling", 0),
    ]
    own = tr.self_times(spans)
    assert sum(v[1] for v in own.values()) == pytest.approx(own["root"][0])


def test_instrument_restores_entry_points_and_reports_missing_ones():
    def current():
        return {
            (module, path): tr._resolve(module, path)[2]
            for module, path, _ in tr.ENTRY_POINTS
        }

    before = current()
    missing = ("privagg.engine", "no_such_entry_point", tr._wrap("engine.gone"))
    t = tr.Tracer()
    with pytest.raises(KeyError):
        with tr.instrument(t, tr.ENTRY_POINTS + (missing,)):
            during = current()
            raise KeyError("restores on error too")
    assert all(during[key] is not before[key] for key in before)
    assert current() == before
    assert t.absent == {"privagg.engine.no_such_entry_point"}


def _tiny(name):
    return wl.SIZES["tiny"][name]()


def test_experiment_check_catches_corrupted_outputs(tmp_path):
    w = _tiny("experiment_trace")
    state = w.setup(5, tmp_path, tr.NullTracer())
    cfg = w.inputs(state, 0)
    rc, out = w.run(state, cfg, tr.NullTracer())
    assert rc == 0
    manifest = (out / "manifest.json").read_bytes()
    trace_csv = (out / "trace_000.csv").read_bytes()
    summary_csv = (out / "summary_000.csv").read_bytes()
    wl.check_experiment(manifest, trace_csv, summary_csv)

    doc = json.loads(manifest)
    doc["runs"][0]["recovered_sum"] += 1e-3
    with pytest.raises(wl.CheckFailed, match="recovered sum"):
        wl.check_experiment(json.dumps(doc).encode(), trace_csv, summary_csv)

    rows = trace_csv.decode().splitlines()
    k, node, x, *rest = rows[1].split(",")
    rows[1] = ",".join([k, node, repr(float(x) + 1.0), *rest])
    with pytest.raises(wl.CheckFailed, match="true average"):
        wl.check_experiment(manifest, "\n".join(rows).encode(), summary_csv)

    with pytest.raises(wl.CheckFailed, match="summary"):
        wl.check_experiment(manifest, trace_csv, summary_csv[: summary_csv.rindex(b"\n", 0, -1)])


def test_mass_check_catches_corrupted_final_state(tmp_path):
    w = _tiny("large_sparse")
    state = w.setup(5, tmp_path, tr.NullTracer())
    cfg = w.inputs(state, 0)
    trace = w.run(state, cfg, tr.NullTracer())
    w.check(state, cfg, trace)
    bad = trace.x_final.copy()
    bad[0] += 1.0
    with pytest.raises(wl.CheckFailed, match="drifted"):
        wl.check_mass(cfg.x0, bad, trace.k_stop)


def test_attack_checks_catch_corrupted_outputs(tmp_path):
    w = _tiny("attack_later")
    state = w.setup(5, tmp_path, tr.NullTracer())
    inputs = w.inputs(state, 0)
    rate, estimate, k_stop = w.run(state, inputs, tr.NullTracer())
    w.check(state, inputs, (rate, estimate, k_stop))
    with pytest.raises(wl.CheckFailed, match="success rate"):
        wl.check_attack(wl.sigma_uniform(w.epsilon) + 0.5, w.epsilon, 10_000)
    actual = float(inputs["run"].x0[1])
    with pytest.raises(wl.CheckFailed, match="disclosure"):
        wl.check_disclosure(estimate + 0.1, actual, w.horizon)


def test_churn_schedule_keeps_the_graph_connected():
    from privagg import topology

    g = topology.generate("random_geometric", 60, seed=3, radius=0.3)
    events = wl.churn_schedule(g, np.random.default_rng(0), 100, 25)
    assert [e.at_iteration for e in events] == [25, 25, 50, 50, 75, 75]
    for e in events:
        g = topology.apply_event(g, e)
    assert topology.is_connected(g)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, p.stderr
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    provenance = json.loads(next(x for x in lines if x.startswith("provenance: "))[12:])
    assert provenance["workload"] == workload and provenance["backend"]
    assert len(provenance["digest_first_op"]) == 64
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.absent_entry_points"] == 0
        assert m["trace.accounted_ratio"] > 0.9
        assert m["engine.rounds"] > 0 and m["fail_ratio"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        has_tail = any(x.startswith("op_tail: p") for x in lines)
        assert has_tail == (provenance["ops"] >= 11)
        unscaled = json.loads(next(x for x in lines if x.startswith("unscaled: "))[10:])
        assert set(unscaled) == {"op_p50_s", "setup_s", "host_scale"}
        assert unscaled["host_scale"] > 0


def test_same_seed_gives_the_same_outputs():
    args = ("--workload", "large_sparse", "--seed", "9", "--seconds", "0.1", "--size", "tiny")
    digests = [
        json.loads(next(x for x in _bench(*args).stdout.splitlines()
                        if x.startswith("provenance: "))[12:])["digest_first_op"]
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(tuple(sizes) == WORKLOADS for sizes in wl.SIZES.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert SPECIFIED_END_TO_END <= set(END_TO_END_UNITS)
    assert SPECIFIED_PER_LAYER <= set(LAYER_UNITS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "experiment_trace", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
