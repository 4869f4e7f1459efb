"""Structural guards on the runtime package."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import mixbgk
from mixbgk.collisions import RunConstants
from mixbgk.output import TrajectoryTable
from mixbgk.scenarios import _KNOWN_KEYS

PACKAGE = Path(mixbgk.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# The private helpers behind the operator core of ``collisions``.  Any use
# outside that module would be a second assembly path.
ASSEMBLY_HELPERS = {
    "_hard_sphere_factor", "_laplacian", "_dense_operator_map", "_dense_heating_map"
}

# The public functions of ``collisions``: one evaluation of the operator core
# at given temperatures (the thermal speeds and [Z, Z-hat] for the steppers,
# with the couplings [A, B] for the verifiers), the heating at given speeds
# and velocities, and the run constants they share.
CORE_ENTRIES = {"run_constants", "relaxation", "operators", "heating"}

# The per-call entries of the core: they scale run constants by the
# thermal speed and never form a frequency or a pair quotient.
PER_CALL_CORE = ("relaxation", "operators", "heating")

# Cross-check-only names that no runtime module may define or use.
ORACLE_ONLY = {"hard_sphere_frequencies", "couplings"}

# The one function of ``integrate`` that calls LAPACK gesv directly.
LAPACK_HELPER = "_solve"

# The helper of ``integrate`` that takes the four max norms of a Picard
# sweep's convergence test.
CONVERGENCE_TEST = "_relative_changes"

# The two steppers of ``integrate``: backward Euler and RK4.
STEPPERS = ("_picard_solve", "_rk4_advance")

# The gates of a run: the conservation limit and the slacks of the floor,
# velocity-bound, envelope and eigenvalue-bracket monitors.
GATES = {"DRIFT_LIMIT", "FLOOR_SLACK", "BOUND_SLACK", "ENVELOPE_SLACK", "BRACKET_SLACK"}

# The public function of ``output`` that writes the [monitors] lines.
MONITOR_LINES = "monitor_block"


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
    core = modules["collisions.py"].body
    defined = {node.name for node in core if isinstance(node, ast.FunctionDef)}
    assert ASSEMBLY_HELPERS <= defined  # the guard names helpers that exist
    outside = {}
    for name, tree in modules.items():
        found = ASSEMBLY_HELPERS.intersection(_referenced_names(tree))
        if found and name != "collisions.py":
            outside[name] = sorted(found)
    assert outside == {}


def test_collisions_has_one_way_into_the_core():
    core = _modules()["collisions.py"].body
    public = {
        node.name for node in core
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == CORE_ENTRIES


def test_frequencies_and_weights_are_run_constants():
    # The thermal speed factors out of the hard-sphere couplings and cancels
    # from the mixing weights, so run_constants forms the frequency factor
    # and every pair quotient once per run, and no runtime call evaluates
    # either: oracles.hard_sphere_frequencies is the one frequency evaluation.
    assert not hasattr(RunConstants, "frequencies")
    fields = {field.name for field in dataclasses.fields(RunConstants)}
    assert fields.isdisjoint({"frequencies", "frequency_factor", "weights"})
    runtime = {name: tree for name, tree in _modules().items() if name != "oracles.py"}
    # swapaxes takes the pair sum w_i f_ij + w_j f_ji of the pair quotients.
    for helper in ("_hard_sphere_factor", "swapaxes"):
        users = sorted(
            (module, node.name)
            for module, tree in runtime.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and helper in set(_referenced_names(node))
        )
        assert users == [("collisions.py", "run_constants")], helper
    core = {
        node.name: node for node in runtime["collisions.py"].body
        if isinstance(node, ast.FunctionDef) and node.name in PER_CALL_CORE
    }
    divisions = {
        name: sum(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            for node in ast.walk(function)
        )
        for name, function in core.items()
    }
    # T_i / m_i and the scaling of the Laplacian stack, both in the one
    # evaluation of [Z, Z-hat]; operators and the heating divide nothing.
    assert divisions == {"relaxation": 2, "operators": 0, "heating": 0}


def test_every_run_constant_is_read_at_run_time():
    # A field that only the tests read is test-only runtime code: the run
    # takes alpha through the pair-velocity map ``mixing``, not as a field.
    # The runtime names its run constants ``const``.
    runtime = {name: tree for name, tree in _modules().items() if name != "oracles.py"}
    read = {
        node.attr
        for tree in runtime.values()
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name != "run_constants"
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "const"
    }
    fields = [field.name for field in dataclasses.fields(RunConstants)]
    assert "mixing" in read  # the guard reads the fields
    assert [name for name in fields if name not in read] == []


def test_the_threshold_chooses_only_the_map_of_the_core():
    # DENSE_OPERATOR_MAX_SPECIES decides one thing: whether [Z, Z-hat] is one
    # product with operator_map or the Laplacian of C s.  The heating has one
    # kernel, the product with heating_map, at every N and for either model.
    threshold = "DENSE_OPERATOR_MAX_SPECIES"
    modules = _modules()
    readers = [
        module
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == threshold and isinstance(node.ctx, ast.Load)
    ]
    assert readers == ["collisions.py"]
    assert _top_level_users(threshold) == [("collisions.py", "run_constants")]
    functions = {
        node.name: node for node in modules["collisions.py"].body
        if isinstance(node, ast.FunctionDef)
    }
    [choice] = [
        node for node in ast.walk(functions["run_constants"])
        if isinstance(node, ast.Assign) and threshold in set(_referenced_names(node.value))
    ]
    assert "operator_map" in set(_referenced_names(choice.targets[0]))
    names = set(_referenced_names(functions["heating"]))
    assert "heating_map" in names
    assert names.isdisjoint({threshold, "heating_weights", "identity", "size"})
    branches = [
        node.test for node in ast.walk(functions["heating"]) if isinstance(node, (ast.If, ast.IfExp))
    ]
    assert all("heating_map" not in set(_referenced_names(test)) for test in branches)
    assert "heating_weights" not in {field.name for field in dataclasses.fields(RunConstants)}


def test_oracle_only_names_stay_out_of_the_runtime():
    modules = _modules()
    definers = sorted(
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_ONLY
    )
    assert definers == [("oracles.py", "hard_sphere_frequencies")]
    referring = sorted(
        name
        for name, tree in modules.items()
        if name != "oracles.py" and ORACLE_ONLY.intersection(_referenced_names(tree))
    )
    assert referring == []
    assert ORACLE_ONLY.isdisjoint(mixbgk.__all__)


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


def _top_level_users(name):
    """(module, function) of every top-level function that refers to ``name``."""
    return sorted(
        (module, node.name)
        for module, tree in _modules().items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and name in set(_referenced_names(node))
    )


def test_simulate_is_the_one_stepping_loop():
    assert _top_level_users("_schedule") == [("integrate.py", "simulate")]
    # simulate alone calls each stepper, and no stepper calls itself.
    for stepper in STEPPERS:
        assert _top_level_users(stepper) == [("integrate.py", "simulate")]
    assert sorted(name for name in mixbgk.__all__ if name.endswith("_step")) == []
    private = {
        node.name: [arg.arg for arg in node.args.args]
        for node in _modules()["integrate.py"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    # One contract, (u, e, dt, eps, const) -> (u, e, sweeps).
    assert [private[stepper] for stepper in STEPPERS] == [["u", "e", "dt", "eps", "const"]] * 2
    assert sorted(name for name, args in private.items() if "comp" in args) == []


def _picard_solve():
    [picard] = [
        node for node in _modules()["integrate.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_picard_solve"
    ]
    return picard


def test_one_temperature_map():
    # T = a E - b |v|^2 is written once; the guard of the steppers and the
    # composition's temperatures differ only in the weights they pass, and
    # run_constants forms its weights with the composition's one formula.
    assert _top_level_users("_temperature_map") == [
        ("integrate.py", "_admissible_temperatures"), ("species.py", "_temperatures")
    ]
    assert _top_level_users("_temperature_weights") == [
        ("collisions.py", "run_constants"), ("species.py", "_temperatures")
    ]


def test_rk4_stages_stay_in_the_scaled_variables():
    # A stage takes its temperatures and heating from (W, xi) with the
    # scaled run constants; only the step's ends convert to and from (u, e).
    [rk4] = [
        node for node in _modules()["integrate.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_rk4_advance"
    ]
    [stage] = [node for node in rk4.body if isinstance(node, ast.FunctionDef)]
    names = set(_referenced_names(stage))
    assert {"_admissible_temperatures", "relaxation", "heating"} <= names
    assert names.isdisjoint({"sqrt_rho", "sqrt_n"})
    constants = {node.attr for node in ast.walk(rk4) if isinstance(node, ast.Attribute)}
    assert {"scaled_temperature_weights", "scaled_mixing"} <= constants
    assert constants.isdisjoint({"temperature_weights", "mixing"})


def test_steppers_never_form_the_coupling_stack():
    # The steppers and the error scales read the thermal speeds and
    # [Z, Z-hat] of one core call, and the heating takes those speeds:
    # integrate neither calls operators nor reads the couplings C.
    names = set(_referenced_names(_modules()["integrate.py"]))
    assert {"relaxation", "heating"} <= names
    assert names.isdisjoint({"operators", "unit_coupling", "heating_map"})
    callers = [user for user in _top_level_users("relaxation") if user[0] == "integrate.py"]
    assert [name for _, name in callers] == ["_error_scales", *sorted(STEPPERS)]


def test_lapack_is_reached_through_one_helper():
    # numpy.linalg's private gufunc module is imported once and called by
    # LAPACK_HELPER alone, whose tests hold it to np.linalg.solve; the
    # Picard sweep solves through that helper.
    users = sorted(
        (module, getattr(node, "name", type(node).__name__))
        for module, tree in _modules().items()
        for node in tree.body
        if "_umath_linalg" in set(_referenced_names(node))
    )
    assert users == [("integrate.py", "ImportFrom"), ("integrate.py", LAPACK_HELPER)]
    names = set(_referenced_names(_picard_solve()))
    assert LAPACK_HELPER in names and "solve" not in names  # no np.linalg.solve


def test_picard_loop_has_one_exit():
    # PICARD_TOL ends the iteration; the only other way out is a raise.
    assert sum(isinstance(node, ast.Return) for node in ast.walk(_picard_solve())) == 1


def test_picard_convergence_test_is_one_reduceat():
    # The max norms of u, du, E and dE come from one np.maximum.reduceat,
    # in one helper that the sweep calls once; the former helper, two
    # reductions per field, is gone from every module.
    assert _top_level_users("reduceat") == [("integrate.py", CONVERGENCE_TEST)]
    [helper] = [
        node for node in _modules()["integrate.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == CONVERGENCE_TEST
    ]
    calls = [
        node.func.attr for node in ast.walk(helper)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert calls.count("reduceat") == 1 and "reduce" not in calls
    names = list(_referenced_names(_picard_solve()))
    assert names.count(CONVERGENCE_TEST) == 1 and "maximum" not in names
    defined = sorted(
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_relative_change"
    )
    assert defined == []


def test_only_simulate_keys_a_state_and_only_exactly():
    # A step is reused only when its (u, e, dt) repeats bit for bit: simulate
    # alone builds the key, from the exact bytes, and integrate compares no
    # floats up to a tolerance.
    tree = _modules()["integrate.py"]
    assert [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and "tobytes" in set(_referenced_names(node))
    ] == ["simulate"]
    assert {"isclose", "allclose"}.isdisjoint(_referenced_names(tree))


def test_scenarios_take_the_paper_rate_from_their_one_spectrum():
    # record_zero builds record 0's run constants once and evaluates its
    # decay constants with them, and resolve_integrator takes the step, the
    # horizon and the rate of backward Euler's step bound from that one
    # spectrum; scenarios evaluates no other part of the operator core.
    tree = _modules()["scenarios.py"]
    referenced = list(_referenced_names(tree))
    for name in ("run_constants", "decay_constants"):  # the import and one call
        assert referenced.count(name) == 2, name
        assert [user for user in _top_level_users(name) if user[0] == "scenarios.py"] == [
            ("scenarios.py", "record_zero")
        ]
    core = {"conservative_decay_rate", "operators", "relaxation", "eigenvalue_brackets",
            "eigvalsh"}
    assert sorted(core & set(referenced)) == []
    [resolve] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "resolve_integrator"
    ]
    evaluations = {"record_zero", "initial_state", "run_constants", "decay_constants"}
    assert sorted(evaluations & set(_referenced_names(resolve))) == []


def test_the_run_and_its_verifier_own_the_floating_point_policy():
    # One error state, entered by simulate and by the verifier's two entry
    # points, and one narrow one in run_constants, whose products out of
    # range are refused by name rather than warned of; a failed solve leaves
    # through the sweep's finiteness test, not through a LinAlgError.
    runtime = {name: tree for name, tree in _modules().items() if name != "oracles.py"}
    names = {module: list(_referenced_names(tree)) for module, tree in runtime.items()}
    assert sum(found.count("errstate") for found in names.values()) == 4
    assert _top_level_users("errstate") == [
        ("collisions.py", "run_constants"),
        ("integrate.py", "simulate"),
        ("output.py", "monitor_block"),
        ("output.py", "write_output_set"),
    ]
    assert sorted(module for module, found in names.items() if "LinAlgError" in found) == []
    [solve] = [
        node for node in runtime["integrate.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == LAPACK_HELPER
    ]
    assert solve.decorator_list == []


def test_readme_scenario_block_names_every_config_key():
    text = README.read_text()
    section = text[text.index("### Scenario files"):]
    block = section.split("```")[1]
    missing = sorted(key for key in _KNOWN_KEYS if not re.search(rf"\b{key}\b", block))
    assert missing == []


def test_output_stride_is_gone_from_readme_and_package():
    texts = {"README.md": README.read_text()}
    texts.update({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    assert sorted(name for name, text in texts.items() if "output_stride" in text) == []


def test_step_halving_is_gone_from_readme_and_package():
    texts = {"README.md": README.read_text()}
    texts.update({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    gone = ("_MAX_HALVINGS", "substeps", "halved steps")
    assert sorted((name, word) for name, text in texts.items() for word in gone if word in text) == []


def test_rk4_step_cap_is_gone_from_readme_and_package():
    texts = {"README.md": README.read_text()}
    texts.update({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    assert sorted(name for name, text in texts.items() if "RK4_MAX_STEPS" in text) == []


def test_cli_imports_only_public_names():
    imported = [
        alias.name
        for node in ast.walk(_modules()["cli.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "write_output_set" in imported  # the guard reads the imports
    assert sorted(name for name in imported if name.startswith("_")) == []

def test_trajectory_table_is_the_state():
    # A re-read CSV keeps its t, u and E columns, and its labels and
    # temperature columns as identity; everything else derives from the
    # state plus the scenario, in the writers and in monitor_block.
    fields = [field.name for field in dataclasses.fields(TrajectoryTable)]
    assert fields == ["labels", "times", "velocities", "energies", "temperatures_kelvin"]
    texts = {"README.md": README.read_text()}
    texts.update({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    assert sorted(name for name, text in texts.items() if "build_table" in text) == []

    # monitor_block reads some of those columns only.  Every bound derives
    # from the scenario's record_zero: write_output_set hands monitor_block
    # the one its run was derived from, and monitor_block evaluates it for
    # its other callers.  record_zero is the one evaluation of record 0's
    # decay constants, and the output set builds no state, run constants
    # or decay constants of its own.
    [reader] = [
        node for node in _modules()["output.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == MONITOR_LINES
    ]
    assert _top_level_users(MONITOR_LINES) == [("output.py", "write_output_set")]
    assert _top_level_users("decay_constants") == [("scenarios.py", "record_zero")]
    assert [user for user in _top_level_users("record_zero") if user[0] == "output.py"] == [
        ("output.py", MONITOR_LINES)
    ]
    [writer] = [
        node for node in _modules()["output.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "write_output_set"
    ]
    evaluations = {"MomentState", "run_constants", "decay_constants"}
    assert sorted(evaluations & set(_referenced_names(writer))) == []
    # monitor_block also reads the table's mixture identity, the labels and
    # the temperature columns of a re-read CSV or a run's composition, to
    # refuse a table of another mixture; no verdict depends on it.
    state = {"times", "velocities", "energies"}
    identity = {"labels", "temperatures_kelvin", "composition"}
    table = reader.args.args[0].arg
    read = {
        node.attr for node in ast.walk(reader)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == table
    }
    assert read & state and read <= state | identity


def test_output_calls_equilibrium_through_public_names():
    # One function per verifier job: output reaches equilibrium through its
    # public names only, and the private twins of decay_constants,
    # monitor_block and velocity_component_bound stay gone.
    modules = _modules()
    imported = [
        alias.name
        for node in ast.walk(modules["output.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "equilibrium"
        for alias in node.names
    ]
    assert "velocity_component_bound" in imported
    assert sorted(name for name in imported if name.startswith("_")) == []
    defined = sorted(
        (module, node.name)
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_decay_constants", "_monitor_lines", "_component_bound")
    )
    assert defined == []


def test_output_is_the_one_verifier():
    # Every gate and the per-record monitors live in output; the CLI takes
    # the verdict that write_output_set returns, derives no bound itself
    # and reads no summary text back.
    modules = _modules()
    assigned = sorted(
        (module, target.id)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in GATES
    )
    assert assigned == [("output.py", gate) for gate in sorted(GATES)]
    definers = sorted(
        module
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("record_monitors", "RecordMonitors")
    )
    assert definers == ["output.py", "output.py"]

    names = set(_referenced_names(modules["cli.py"]))  # import sources included
    assert "write_output_set" in names
    assert names.isdisjoint({"equilibrium", "summary_text", "splitlines", "endswith", "open"})


def test_no_module_calls_savetxt():
    # The CSV writer formats each distinct value once; a savetxt call
    # would be a second writer that output.write_csv_ms may not time.
    users = sorted(
        module for module, tree in _modules().items() if "savetxt" in set(_referenced_names(tree))
    )
    assert users == []


def test_the_output_set_is_the_one_csv_writer():
    # A run's CSVs are written only as part of its verified, all-or-nothing
    # output set; a standalone writer would skip the verdict and the rename.
    assert _top_level_users("_write_csvs") == [("output.py", "write_output_set")]
