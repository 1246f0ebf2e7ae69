from pathlib import Path

import pytest

from privagg.cli import main

GOOD = """\
[topology]
kind = ring
n = 5

[x0]
mode = explicit
values = 1, 2, 3, 4, 5

[noise]
scheme = zero_sum
alpha = 1.0
rho = 0.9
seed = 3

[run]
max_iterations = 40
"""


def _cfg(tmp_path, text=GOOD, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_good_config(tmp_path, capsys):
    assert main(["validate", _cfg(tmp_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_and_run_agree_on_bad_config(tmp_path, capsys):
    bad = _cfg(tmp_path, GOOD.replace("rho = 0.9", "rho = 1.5"), "bad.cfg")
    assert main(["validate", bad]) == 1
    assert main(["run", bad]) == 1
    err = capsys.readouterr().err
    assert "rho must be in [0,1)" in err


BASE = {
    "topology": {"kind": "ring", "n": "5"},
    "x0": {"mode": "uniform", "low": "0.0", "high": "1.0", "seed": "1"},
    "noise": {"scheme": "zero_sum", "seed": "3"},
    "run": {"max_iterations": "40"},
}


@pytest.mark.parametrize(
    "field, overrides",
    [
        # accepted by validate before the one config layer, then rejected or
        # crashed at run time
        ("topology.p", {"topology": {"kind": "random_gnp", "seed": "1", "p": "1.5"}}),
        ("topology.p", {"topology": {"kind": "random_gnp", "seed": "1", "p": "-0.2"}}),
        ("topology.radius",
         {"topology": {"kind": "random_geometric", "seed": "1", "radius": "-1"}}),
        ("run.term_epsilon", {"run": {"term_epsilon": "nan"}}),
        ("x0.low", {"x0": {"low": "-inf"}}),
        ("noise.alpha", {"noise": {"alpha": "inf"}}),
        # rejected all along; the field name must survive
        ("topology.kind", {"topology": {"kind": "hypercube"}}),
        ("topology.n", {"topology": {"n": "0"}}),
        ("noise.distribution", {"noise": {"distribution": "bogus"}}),
        ("run.update_form", {"run": {"update_form": "bogus"}}),
        ("run.max_iterations", {"run": {"max_iterations": "0"}}),
        # a negative seed, where numpy would say only "expected non-negative integer"
        ("topology.seed", {"topology": {"kind": "random_gnp", "seed": "-3", "p": "0.9"}}),
        ("x0.seed", {"x0": {"seed": "-4"}}),
        ("noise.seed", {"noise": {"seed": "-5"}}),
    ],
)
def test_validate_names_the_bad_field(tmp_path, capsys, field, overrides):
    text = "".join(
        f"[{name}]\n"
        + "".join(f"{k} = {v}\n" for k, v in {**keys, **overrides.get(name, {})}.items())
        for name, keys in BASE.items()
    )
    cfg = _cfg(tmp_path, text, "bad.cfg")
    assert main(["validate", cfg]) == 1
    assert main(["run", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith(f"error: {field} ") for line in err)


def test_the_zero_schemes_noise_seed_is_checked_where_it_is_used(tmp_path, capsys):
    # a zero-scheme run draws no noise, so it runs with any noise seed; the
    # later-round attack seeds its trials from it
    cfg = _cfg(tmp_path, GOOD.replace("zero_sum", "zero").replace("seed = 3", "seed = -5"))
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["attack", cfg, "--kind", "later", "--epsilon", "0.1"]) == 1
    assert capsys.readouterr().err == "error: noise.seed must be >= 0, got -5\n"


@pytest.mark.parametrize(
    "message, text",
    [
        ("run.events entry '3:remove_edge:2-3': event remove_edge (2, 3) at iteration 3 "
         "would disconnect the graph; rejected",
         GOOD + "events = 1:remove_edge:0-1, 3:remove_edge:2-3\n"),
        ("run.events entry '1:add_edge:1-0': add_edge: (0,1) already present",
         GOOD + "events = 1:add_edge:1-0\n"),
        ("run.events entry '1:remove_edge:0-2': remove_edge: (0,2) is not an edge",
         GOOD + "events = 1:remove_edge:0-2\n"),
        ("run.events entry '2:remove_edge:2-3': remove_edge: node in (2,3) is not present",
         GOOD + "events = 2:remove_edge:2-3, 1:remove_node:2\n"),  # removed node
        ("run.events entry '3:remove_node:2': remove_node: node 2 is not present",
         GOOD + "events = 1:remove_node:2, 3:remove_node:2\n"),  # removed twice
        ("topology: no connected random_gnp graph with n=5 after 100 draws; "
         "check the kind-specific parameters",
         GOOD.replace("kind = ring", "kind = random_gnp\np = 0.0\nseed = 1")),
    ],
)
def test_validate_and_run_reject_a_topology_that_does_not_hold(tmp_path, capsys, message, text):
    cfg = _cfg(tmp_path, text, "bad.cfg")
    assert main(["validate", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["run", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith(message.split(": ", 1)[1] + "\n")
    assert not (tmp_path / "out").exists()


def test_validate_skips_events_past_the_round_cap(tmp_path):
    # max_iterations = 40: a run never reaches iteration 41
    cfg = _cfg(tmp_path, GOOD + "events = 3:remove_node:4, 41:remove_edge:0-2\n")
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path)]) == 0


def test_run_missing_config(capsys):
    assert main(["run", "does-not-exist.cfg"]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_subcommand_and_flag(tmp_path):
    assert main(["orchestrate"]) == 2
    assert main(["run", _cfg(tmp_path), "--frobnicate"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["privacy", "attack"])
def test_help_scopes_the_analytic_ceiling(command, capsys):
    # sigma_analytic bounds a single round-0 broadcast against an observer
    # that does not see the target's whole neighbourhood, and no more
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "from one round-0 broadcast" in text
    assert "does not see its whole neighborhood" in text
    assert "several rounds, can do better" in text


def test_json_config_accepted(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(
        '{"topology": {"kind": "complete", "n": 3},'
        ' "x0": {"mode": "explicit", "values": [1, 2, 3]}}'
    )
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert "consensus=2.0" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    assert main(["run", _cfg(tmp_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "manifest" in out
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "trace_000.csv").exists()


def test_privacy_writes_one_row_csv(tmp_path, capsys):
    assert (
        main(
            ["privacy", _cfg(tmp_path), "--epsilons", "0.1",
             "--trials", "500", "--out", str(tmp_path / "p.csv")]
        )
        == 0
    )
    lines = (tmp_path / "p.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[0].startswith("epsilon,")
    assert "sigma_analytic" in capsys.readouterr().out


def test_sweep_runs_each_value(tmp_path, capsys):
    assert (
        main(
            ["sweep", _cfg(tmp_path), "--param", "rho", "--values", "0.5,0.8",
             "--out", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "out" / "rho=0.5" / "manifest.json").exists()
    assert (tmp_path / "out" / "rho=0.8" / "manifest.json").exists()
    assert "rho=0.5" in capsys.readouterr().out


def test_sweep_rejects_non_integer_h(tmp_path, capsys):
    argv = ["sweep", _cfg(tmp_path), "--param", "h", "--values", "2.5", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "h takes integer values, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_checks_every_value_before_any_point_runs(tmp_path, capsys):
    argv = ["sweep", _cfg(tmp_path), "--param", "h", "--values", "3,2.5", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "h takes integer values, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "values, first, second, sub",
    [("0.1,0.1000001", "0.1", "0.1000001", "alpha=0.1"), ("0.5,0.2,0.5", "0.5", "0.5", "alpha=0.5")],
    ids=["print-alike", "repeated"],
)
def test_sweep_rejects_values_that_share_a_directory(tmp_path, capsys, values, first, second, sub):
    argv = ["sweep", _cfg(tmp_path), "--param", "alpha", "--values", values, "--out", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --values {first} and {second} would share the directory {sub}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--param", "rho", "--values", " , "], ["privacy", "--epsilons", ","]],
    ids=["sweep-values", "privacy-epsilons"],
)
def test_empty_value_list_is_rejected(tmp_path, capsys, argv):
    flag = argv[-2]
    assert main([argv[0], _cfg(tmp_path), *argv[1:], "--out", str(tmp_path / "o")]) == 2
    assert f"argument {flag}: no values given" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, value",
    [
        (["sweep", "--param", "term_epsilon", "--values"], "inf"),
        (["sweep", "--param", "alpha", "--values"], "0.5,nan"),
        (["privacy", "--epsilons"], "nan"),
        (["privacy", "--epsilons"], "0.1,-inf"),
        (["attack", "--kind", "later", "--epsilon"], "inf"),
        (["attack", "--kind", "naive", "--epsilon"], "nan"),
        (["sweep", "--param", "rho", "--values"], "0.5,x"),
        (["attack", "--kind", "later", "--epsilon"], "x"),
    ],
    ids=["sweep-inf", "sweep-nan", "privacy-nan", "privacy-minus-inf", "attack-inf", "attack-nan",
         "sweep-text", "attack-text"],
)
def test_non_finite_values_are_rejected(tmp_path, capsys, argv, value):
    flag = argv[-1]
    out = tmp_path / "o"
    tail = [] if argv[0] == "attack" else ["--out", str(out)]
    assert main([argv[0], _cfg(tmp_path), *argv[1:], value, *tail]) == 2
    bad = value.split(",")[-1]
    assert f"argument {flag}: {bad!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_attack_naive(tmp_path, capsys):
    assert (
        main(
            ["attack", _cfg(tmp_path), "--kind", "naive", "--epsilon", "0.1",
             "--trials", "2000"]
        )
        == 0
    )
    assert "success rate" in capsys.readouterr().out


def test_attack_later_round(tmp_path, capsys):
    assert (
        main(
            ["attack", _cfg(tmp_path), "--kind", "later", "--epsilon", "0.1",
             "--trials", "300", "--train-trials", "200", "--round", "1"]
        )
        == 0
    )
    assert "success rate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, argv",
    [
        ("trials", ["attack", "--kind", "later", "--epsilon", "0.1", "--trials", "0"]),
        ("trials", ["privacy", "--epsilons", "0.1", "--trials", "0"]),
        ("train_trials",
         ["attack", "--kind", "later", "--epsilon", "0.1", "--train-trials", "0"]),
        ("observer", ["attack", "--kind", "naive", "--epsilon", "0.1", "--observer", "99"]),
        ("observer", ["attack", "--kind", "naive", "--epsilon", "0.1", "--observer", "-1"]),
        ("target", ["attack", "--kind", "naive", "--epsilon", "0.1", "--target", "99"]),
    ],
    ids=["later-trials", "privacy-trials", "train_trials", "observer-99", "observer-neg",
         "target-99"],
)
def test_attack_and_privacy_name_the_bad_input(tmp_path, capsys, field, argv):
    assert main([argv[0], _cfg(tmp_path), *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} ")


def test_attack_rejects_observer_without_neighbors(tmp_path, capsys):
    text = "[topology]\nkind = complete\nn = 1\n\n[x0]\nmode = explicit\nvalues = 1\n"
    cfg = _cfg(tmp_path, text, "one.cfg")
    assert main(["attack", cfg, "--kind", "naive", "--epsilon", "0.1"]) == 1
    assert capsys.readouterr().err.startswith("error: observer 0 has no neighbors")


def test_attack_later_requires_epsilon(tmp_path, capsys):
    assert main(["attack", _cfg(tmp_path), "--kind", "later"]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_attack_disclosure(tmp_path, capsys):
    cfg = _cfg(tmp_path, GOOD.replace("kind = ring", "kind = complete"), "disc.cfg")
    assert (
        main(["attack", cfg, "--kind", "disclosure", "--horizon", "30"]) == 0
    )
    out = capsys.readouterr().out
    assert "abs error" in out and "bound" in out


def test_attack_disclosure_rejects_baseline_scheme(tmp_path, capsys):
    text = GOOD.replace("kind = ring", "kind = complete").replace(
        "scheme = zero_sum", "scheme = gaussian_constant"
    )
    cfg = _cfg(tmp_path, text, "base.cfg")
    assert main(["attack", cfg, "--kind", "disclosure", "--horizon", "10"]) == 1
    assert "zero_sum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme", ["zero", "absent", "gaussian_constant", "independent_decaying"]
)
@pytest.mark.parametrize(
    "argv",
    [["attack", "--kind", "naive", "--epsilon", "0.1", "--trials", "50"],
     ["privacy", "--epsilons", "0.1", "--trials", "50"]],
    ids=["naive", "privacy"],
)
def test_naive_and_privacy_reject_other_schemes(tmp_path, capsys, scheme, argv):
    # they measure the zero_sum round-0 noise against the zero_sum sigma(epsilon);
    # without a noise.scheme key the scheme is zero
    line = "" if scheme == "absent" else f"scheme = {scheme}"
    cfg = _cfg(tmp_path, GOOD.replace("scheme = zero_sum", line), "other.cfg")
    assert main([argv[0], cfg, *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: noise.scheme must be zero_sum")
    assert not (tmp_path / "out").exists()  # privacy's default output directory


def test_attack_later_runs_other_schemes(tmp_path, capsys):
    text = GOOD.replace("scheme = zero_sum", "scheme = independent_decaying")
    argv = ["--kind", "later", "--epsilon", "0.1", "--trials", "50", "--train-trials", "50"]
    assert main(["attack", _cfg(tmp_path, text, "ind.cfg"), *argv]) == 0
    assert "success rate" in capsys.readouterr().out


def test_attack_later_names_the_scheme_without_a_ceiling(tmp_path, capsys):
    # sigma_analytic bounds the zero_sum round-0 law; the zero scheme hides nothing
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"
    text = demo.read_text().replace("scheme = zero_sum", "scheme = zero")
    argv = ["--kind", "later", "--round", "0", "--epsilon", "0.1", "--trials", "500",
            "--train-trials", "200"]
    assert main(["attack", _cfg(tmp_path, text, "zero.cfg"), *argv]) == 0
    out = capsys.readouterr().out
    assert out.startswith("later attack: success rate 1.000000 over 500 trials")
    assert "no analytic ceiling applies to scheme 'zero'" in out
    assert "sigma_analytic" not in out


def test_attack_precondition_failure_maps_to_exit_1(tmp_path, capsys):
    cfg = _cfg(tmp_path, GOOD.replace("kind = ring", "kind = complete"), "k.cfg")
    assert (
        main(["attack", cfg, "--kind", "later", "--epsilon", "0.1", "--trials", "50"])
        == 1
    )
    assert "disclosure" in capsys.readouterr().err


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    text = GOOD.replace("n = 5", "n = 3").replace("1, 2, 3, 4, 5", "1, 2, 3")
    cfg = _cfg(tmp_path, text + "events = 1:remove_node:2, 3:remove_node:2\n")
    assert main(["run", cfg, "--out", str(tmp_path / "base")]) == 1
    assert capsys.readouterr().err == (
        "error: repetition 0: remove_node: node 2 is not present\n"
    )
    assert not (tmp_path / "base").exists()


def test_unusable_paths_are_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["validate", str(tmp_path)]) == 1  # a directory, not a config
    assert main(["run", _cfg(tmp_path), "--out", str(blocker)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err), err
