"""Structural guards on the runtime package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mixbgk

PACKAGE = Path(mixbgk.__file__).parent

# The assembly helpers behind the operator core of ``collisions``.  Any use
# outside that module would be a second assembly path.
ASSEMBLY_HELPERS = {"_thermal_speed", "_weight_and_coupling", "_kinetic_coupling", "_laplacian"}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.rpartition(".")[2]


def test_assembly_helpers_stay_in_collisions():
    modules = _modules()
    assert "collisions.py" in modules
    outside = {}
    for name, tree in modules.items():
        found = ASSEMBLY_HELPERS.intersection(_referenced_names(tree))
        if found and name != "collisions.py":
            outside[name] = sorted(found)
    assert outside == {}


def test_no_runtime_module_refers_to_the_oracles():
    modules = _modules()
    assert "oracles.py" in modules
    referring = sorted(
        name
        for name, tree in modules.items()
        if name != "oracles.py" and "oracles" in set(_referenced_names(tree))
    )
    assert referring == []


def test_importing_the_package_leaves_the_oracles_unloaded():
    code = "import sys, mixbgk, mixbgk.cli; print('mixbgk.oracles' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert result.stdout.strip() == "False"


def test_every_private_definition_is_used():
    modules = _modules()
    used = set()
    for tree in modules.values():
        used.update(_referenced_names(tree))
    unused = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    )
    assert unused == []
