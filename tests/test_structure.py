"""Structural guards on the runtime package."""

import ast
from pathlib import Path

import mixbgk

# The assembly helpers behind the operator core of ``collisions``.  Any use
# outside that module would be a second assembly path.
ASSEMBLY_HELPERS = {"_thermal_speed", "_weight_and_coupling", "_kinetic_coupling", "_laplacian"}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_assembly_helpers_stay_in_collisions():
    package = Path(mixbgk.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "collisions.py" in modules
    outside = {}
    for path in modules:
        found = ASSEMBLY_HELPERS.intersection(_referenced_names(ast.parse(path.read_text())))
        if found and path.name != "collisions.py":
            outside[path.name] = sorted(found)
    assert outside == {}
