"""Golden digests: the sha256 of every output of a fixed matrix of CLI calls.

Each call runs in process through ``privagg.cli.main``: ``run`` on both
files in ``configs/`` and on variants of ``demo.cfg``, ``privacy`` on
``demo.cfg`` and its truncated-gaussian variant, ``attack`` of every
kind, and the later-round attack on two more variants. Every manifest,
trace and summary CSV, privacy CSV and attack stdout is hashed and
compared with ``tests/golden_digests.json``.

The table records the numpy version it was computed with, since the
random streams come from numpy. An intended change of an output edits the
table in the same change and gives the reason in CHANGES.md; that is the
one way to re-baseline. ``python tests/test_golden.py`` prints the
recomputed table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from privagg.cli import main
from privagg.harness import _load_ini

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_digests.json"
DEMO = ROOT / "configs" / "demo.cfg"
DISCLOSURE_DEMO = ROOT / "configs" / "disclosure_demo.cfg"

# demo.cfg variants, one repetition each: (section, key) -> value, where
# None drops the key
VARIANTS = {
    "per_node_events": {
        ("run", "update_form"): "per_node",
        ("run", "events"): "5:add_edge:0-1, 5:remove_edge:1-4, 9:remove_node:17",
    },
    # the dense form across two node removals
    "matrix_removals": {
        ("run", "update_form"): "matrix",
        ("run", "events"): "9:remove_node:17, 30:remove_node:12",
    },
    # a 400-node geometric graph: a support layout of 29 slots, where the
    # demo graph's has 10
    "per_node_geometric": {
        ("run", "update_form"): "per_node",
        ("topology", "kind"): "random_geometric",
        ("topology", "p"): None,
        ("topology", "n"): "400",
        ("topology", "radius"): "0.12",
        ("run", "max_iterations"): "150",
    },
    "truncated_h2": {
        ("noise", "distribution"): "truncated_gaussian",
        ("noise", "h"): "2",
    },
    "gaussian_constant": {("noise", "scheme"): "gaussian_constant"},
    "independent_decaying": {("noise", "scheme"): "independent_decaying"},
    "term_epsilon": {("run", "term_epsilon"): "1e-3"},
    "zero": {("noise", "scheme"): "zero"},
    # theta falls to about 1e-137, so the trace holds three-digit exponents
    "long_horizon": {
        ("run", "max_iterations"): "3000",
        ("noise", "distribution"): "truncated_gaussian",
    },
}

EPSILONS = "0.01,0.05,0.1"


def _variant(name: str, workdir: Path) -> Path:
    """demo.cfg with a variant's keys set and one repetition, as a JSON config."""
    data = _load_ini(DEMO)
    data["experiment"]["repetitions"] = "1"
    for (section, key), value in VARIANTS[name].items():
        if value is None:
            del data[section][key]
        else:
            data[section][key] = value
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def _main(*argv) -> str:
    """stdout of one successful CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, f"privagg {' '.join(map(str, argv))} exited {code}"
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(workdir: Path) -> dict[str, str]:
    """Run the matrix in workdir; one digest per output, keyed by entry name."""
    configs = {"demo": DEMO, "disclosure_demo": DISCLOSURE_DEMO}
    configs.update({name: _variant(name, workdir) for name in VARIANTS})
    digests = {}
    for name, config in configs.items():
        out = workdir / "run" / name
        _main("run", config, "--out", out)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digests[f"run/{name}/{path.name}"] = _sha(path.read_bytes())
    for name in ("demo", "truncated_h2"):
        csv = workdir / "privacy" / f"{name}.csv"
        _main("privacy", configs[name], "--epsilons", EPSILONS, "--trials", 2000,
              "--out", csv)
        digests[f"privacy/{name}.csv"] = _sha(csv.read_bytes())
    attacks = {
        "naive": (DEMO, "--epsilon", 0.1, "--trials", 2000),
        "later": (DEMO, "--epsilon", 0.1, "--trials", 300, "--train-trials", 200,
                  "--round", 3),
        "disclosure": (DISCLOSURE_DEMO, "--horizon", 100),
    }
    for name in ("truncated_h2", "gaussian_constant"):
        attacks[f"later_{name}"] = (configs[name], *attacks["later"][1:])
    for name, (config, *flags) in attacks.items():
        kind = name.split("_")[0]
        stdout = _main("attack", config, "--kind", kind, *flags)
        digests[f"attack/{name}/stdout"] = _sha(stdout.encode())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


def _table() -> dict:
    return json.loads(TABLE.read_text())


def test_golden_matrix_covers_the_table(digests):
    assert sorted(digests) == sorted(_table()["digests"])


@pytest.mark.parametrize("entry", sorted(_table()["digests"]))
def test_golden_digest(digests, entry):
    table = _table()
    assert digests.get(entry) == table["digests"][entry], (
        f"{entry}: output changed (table computed with numpy {table['numpy']}, "
        f"running numpy {np.__version__})"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"numpy": np.__version__, "digests": compute_digests(Path(tmp))}
    print(json.dumps(table, indent=2, sort_keys=True))
