import json
from pathlib import Path

import numpy as np
import pytest

from privagg.harness import (
    ConfigError,
    build_config,
    experiment_from_manifest,
    load_config,
    parse_event,
    resolved_dict,
    run_experiment,
)

MINIMAL = """\
[topology]
kind = complete
n = 5

[x0]
mode = explicit
values = 1, 2, 3, 4, 5
"""

FULL = """\
[topology]
kind = random_gnp
n = 8
p = 0.5
seed = 7

[x0]
mode = uniform
low = 0.0
high = 100.0
seed = 11

[noise]
scheme = zero_sum
alpha = 1.0
rho = 0.9
h = 1
distribution = uniform
seed = 23

[run]
max_iterations = 80
term_epsilon = 0.0
record_trace = true
update_form = matrix

[outputs]
directory = out
write_trace = true
write_summary = true

[experiment]
repetitions = 3
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_valid(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config.topology.kind == "complete"
    assert config.scheme == "zero"  # no noise section -> no noise
    assert config.run.max_iterations is None  # engine default n^2
    assert config.repetitions == 1
    assert config.x0.values == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_json_config_equivalent(tmp_path):
    data = {
        "topology": {"kind": "complete", "n": 5},
        "x0": {"mode": "explicit", "values": [1, 2, 3, 4, 5]},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    a = load_config(path)
    b = load_config(_write(tmp_path, MINIMAL))
    assert resolved_dict(a) == resolved_dict(b)


def test_readme_config_block_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_config(_write(tmp_path, block))
    result = run_experiment(config, base_dir=tmp_path)
    assert len(result.manifest["runs"]) == config.repetitions == 3


def test_rho_out_of_range_rejected(tmp_path):
    bad = FULL.replace("rho = 0.9", "rho = 1.0")
    with pytest.raises(ConfigError, match=r"rho must be in \[0,1\)"):
        load_config(_write(tmp_path, bad))


def test_duplicate_key_rejected(tmp_path):
    bad = MINIMAL + "\n[noise]\nscheme = zero\nscheme = zero_sum\n"
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(_write(tmp_path, bad))
    path = tmp_path / "dup.json"
    path.write_text('{"topology": {"kind": "complete", "n": 2, "n": 3}, "x0": {"mode": "explicit", "values": [1, 2]}}')
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, MINIMAL + "\n[plotting]\ncolor = red\n"))
    bad = MINIMAL.replace("kind = complete", "kind = complete\nshape = wide")
    with pytest.raises(ConfigError, match="unknown key topology.shape"):
        load_config(_write(tmp_path, bad, "b.cfg"))
    with pytest.raises(ConfigError, match="section 'topology' must map keys to values"):
        build_config({"topology": ["kind", "n"]})
    dup_section = MINIMAL + "\n[topology]\nkind = ring\n"
    with pytest.raises(ConfigError, match="duplicated section"):
        load_config(_write(tmp_path, dup_section, "c.cfg"))


def test_missing_required_fields(tmp_path):
    with pytest.raises(ConfigError, match="topology.kind"):
        build_config({"x0": {"mode": "explicit", "values": [1.0]}})
    with pytest.raises(ConfigError, match="x0.seed"):
        build_config(
            {"topology": {"kind": "complete", "n": 3},
             "x0": {"mode": "uniform", "low": 0, "high": 1}}
        )
    with pytest.raises(ConfigError, match="noise.seed"):
        build_config(
            {"topology": {"kind": "complete", "n": 3},
             "x0": {"mode": "explicit", "values": [1, 2, 3]},
             "noise": {"scheme": "zero_sum"}}
        )
    with pytest.raises(ConfigError, match="topology.seed"):
        build_config(
            {"topology": {"kind": "random_gnp", "n": 3, "p": 0.5},
             "x0": {"mode": "explicit", "values": [1, 2, 3]}}
        )
    with pytest.raises(ConfigError, match="topology.p"):
        build_config(
            {"topology": {"kind": "random_gnp", "n": 3, "seed": 1},
             "x0": {"mode": "explicit", "values": [1, 2, 3]}}
        )


def test_explicit_values_length_checked():
    with pytest.raises(ConfigError, match="x0.values"):
        build_config(
            {"topology": {"kind": "complete", "n": 3},
             "x0": {"mode": "explicit", "values": [1, 2]}}
        )


def test_event_parsing():
    ev = parse_event("5:remove_edge:1-2", 4)
    assert ev.at_iteration == 5 and ev.kind == "remove_edge" and ev.payload == (1, 2)
    assert parse_event("0:remove_node:3", 4).payload == 3
    with pytest.raises(ConfigError):
        parse_event("oops", 4)
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_event("1:rewire:0-1", 4)
    with pytest.raises(ConfigError, match="not in 0..3"):
        parse_event("1:remove_node:7", 4)
    with pytest.raises(ConfigError):
        parse_event("1:remove_edge:4", 4)


def test_write_trace_requires_record_trace():
    with pytest.raises(ConfigError, match="record_trace"):
        build_config(
            {"topology": {"kind": "complete", "n": 2},
             "x0": {"mode": "explicit", "values": [1, 2]},
             "run": {"record_trace": "false"},
             "outputs": {"write_trace": "true"}}
        )


def test_run_experiment_artifacts(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    result = run_experiment(config, base_dir=tmp_path)
    out = tmp_path / "out"
    assert (out / "manifest.json").exists()
    for rep in range(3):
        assert (out / f"trace_{rep:03d}.csv").exists()
        assert (out / f"summary_{rep:03d}.csv").exists()
    manifest = result.manifest
    assert manifest["version"]
    assert manifest["config_resolved"]["noise"]["scheme"] == "zero_sum"
    assert len(manifest["seeds"]) == 3 and len(manifest["runs"]) == 3
    consensus = {r["consensus_value"] for r in manifest["runs"]}
    assert len(consensus) == 3  # per-repetition seeds differ
    for rec in manifest["runs"]:
        assert rec["reason"] == "max_iterations"
        assert rec["recovered_sum"] == rec["n_final"] * rec["consensus_value"]


def test_rerun_is_byte_identical(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_experiment(config, base_dir=a_dir)
    run_experiment(config, base_dir=b_dir)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


def test_rerun_from_manifest(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    first = run_experiment(config, base_dir=tmp_path / "first")
    again = experiment_from_manifest(first.manifest_path)
    second = run_experiment(again, base_dir=tmp_path / "second")
    assert first.manifest == second.manifest
    for rec in first.manifest["runs"]:
        for name in rec["files"].values():
            assert (
                (tmp_path / "first" / "out" / name).read_bytes()
                == (tmp_path / "second" / "out" / name).read_bytes()
            )


def test_config_from_resolved_roundtrip(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    back = build_config(resolved_dict(config))
    assert resolved_dict(back) == resolved_dict(config)


def test_events_flow_into_manifest(tmp_path):
    text = """\
[topology]
kind = complete
n = 4

[x0]
mode = explicit
values = 10, 20, 30, 40

[run]
events = 0:remove_node:3
max_iterations = 60
"""
    config = load_config(_write(tmp_path, text))
    result = run_experiment(config, base_dir=tmp_path)
    rec = result.manifest["runs"][0]
    assert rec["events_applied"] == [
        {
            "at_iteration": 0,
            "kind": "remove_node",
            "payload": "3",
            "n_after": 3,
            "true_average_after": 20.0,
        }
    ]
    assert rec["true_average"] == 20.0
    assert rec["n_final"] == 3


def test_engine_failure_reports_repetition(tmp_path):
    text = """\
[topology]
kind = path
n = 3

[x0]
mode = explicit
values = 1, 2, 3

[run]
events = 1:remove_edge:0-1
"""
    config = load_config(_write(tmp_path, text))
    with pytest.raises(RuntimeError, match="repetition 0"):
        run_experiment(config, base_dir=tmp_path)


def test_uniform_x0_reproducible(tmp_path):
    config = load_config(_write(tmp_path, FULL))
    r1 = run_experiment(config, base_dir=tmp_path / "r1")
    r2 = run_experiment(config, base_dir=tmp_path / "r2")
    assert [s["x0_seed"] for s in r1.manifest["seeds"]] == [
        s["x0_seed"] for s in r2.manifest["seeds"]
    ]
    assert np.array_equal(r1.traces[0].config.x0, r2.traces[0].config.x0)
