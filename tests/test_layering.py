"""Layering rules of the privagg package, checked on its source with ast.

No module imports a _-prefixed name of another privagg module, and only
privagg.noise constructs numpy's generators and seed sequences: it is the one
module that turns a seed into draws. The round loops of privagg.engine and
privagg.privacy call no generator's draw method: every stream's draws reach
a run's or an attack's block through noise.stream_lanes. privagg.noise is
also the one module that lists noise schemes: the others read its named
sets. Only privagg.backend calls np.add.reduce, so every round loop sums
through one kernel, backend.step. Every name a module imports is read in it
or listed in its __all__, unless its line is marked "# noqa: F401".
"""

import ast
from pathlib import Path

from privagg.noise import SCHEMES

SRC = Path(__file__).resolve().parents[1] / "src" / "privagg"
SEEDING = {"Generator", "PCG64", "SeedSequence", "default_rng"}
DRAWS = {"random", "uniform", "standard_normal", "normal", "integers"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_name():
    found = []
    for name, tree in _modules():
        modules = set()  # names bound to privagg modules: `from . import noise`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "privagg"
            ):
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{name}:{node.lineno} imports {alias.name}")
                    if node.module in (None, "privagg"):
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _is_private(node.attr)
            ):
                found.append(f"{name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert not found


def test_only_noise_constructs_generators():
    found = []
    for name, tree in _modules():
        if name == "noise.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in SEEDING:
                    found.append(f"{name}:{node.lineno} calls {called}")
    assert not found


def test_runs_and_attacks_draw_only_through_noise():
    # runs and attack trials take their draws as lanes from stream_lanes, so
    # per-block draws have one function to change
    found = []
    for name, tree in _modules():
        if name not in ("engine.py", "privacy.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in DRAWS:
                    found.append(f"{name}:{node.lineno} calls {called}")
    assert not found


def test_only_noise_lists_schemes():
    # a tuple, list or set literal of two or more scheme names is a scheme set
    found = []
    for name, tree in _modules():
        if name == "noise.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                listed = [
                    elt.value
                    for elt in node.elts
                    if isinstance(elt, ast.Constant) and elt.value in SCHEMES
                ]
                if len(listed) >= 2:
                    found.append(f"{name}:{node.lineno} lists {listed}")
    assert not found


def test_only_backend_calls_add_reduce():
    # a round loop that sums its own products would step outside the
    # kernel's mandated chain; it calls backend.step instead
    found = []
    for name, tree in _modules():
        if name == "backend.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "reduce"
                and "add" in (getattr(node.value, "attr", None), getattr(node.value, "id", None))
            ):
                found.append(f"{name}:{node.lineno} reads add.reduce")
    assert not found


def test_no_unused_imports():
    # no linter runs on the package, and deleted code can leave its imports
    found = []
    for name, tree in _modules():
        lines = (SRC / name).read_text().splitlines()
        exported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            if isinstance(node, ast.Assign) and "__all__" in [
                getattr(target, "id", None) for target in node.targets
            ]:
                exported.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound in read or bound in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                found.append(f"{name}:{alias.lineno} imports {alias.name} unread")
    assert not found
