"""Presets, config parsing, CSV emission/round-trip, and CLI exit codes."""

import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mixbgk.cli as cli_mod
import mixbgk.equilibrium as equilibrium_mod
import mixbgk.integrate as integrate_mod
import mixbgk.output as output_mod
import mixbgk.scenarios as scenarios_mod
from mixbgk import (
    GASES,
    ConstantMatrix,
    HardSphere,
    IntegratorConfig,
    MixtureComposition,
    MomentState,
    ScenarioConfig,
    Trajectory,
    conservative_decay_rate,
    decay_envelopes,
    energy_to_kelvin,
    is_realizable,
    kelvin_to_energy,
    parse_config,
    presets,
    record_zero,
    resolve_integrator,
    simulate,
    state_from_temperatures,
    steady_state,
    temperatures_of,
)
from mixbgk.cli import main
from mixbgk.collisions import DENSE_OPERATOR_MAX_SPECIES, operators, run_constants
from mixbgk.oracles import assemble, symmetric_eigenvalues
from mixbgk.output import monitor_block, read_trajectory_csv, write_output_set
from mixbgk.scenarios import BE_STEP_BOUND, HORIZON_EFOLDS, RK4_RATE_PER_STEP, ScenarioError
from mixbgk.species import _temperatures

from conftest import decay_constants_of, random_state, resolved

# Ar, Kr and Xe under a constant frequency matrix in which argon and
# krypton share a frequency of 1e6 and each couples to xenon at 1e-6: the
# RK4 step resolves the fast pair, and ten e-folds of the slow coupling
# would take about 1.3e13 of those steps.
STIFF_CONFIG = """\
labels = Ar Kr Xe
masses_kg = 66.335209e-27 139.14984e-27 218.01714e-27
diameters_m = 3.659e-10 4.199e-10 4.939e-10
number_densities_m3 = 3e28 2e28 1e28
temperatures_K = 1000 1000 1000
velocities_ms = 100 0 0 ; 0 0 0 ; 0 0 0
model = constant
constant_frequencies = 1e6 1e6 1e-6 1e6 1e6 1e-6 1e-6 1e-6 1e6
method = rk4
"""

GOOD_CONFIG = """\
# argon-krypton drift relaxation
labels = Ar Kr
masses_kg = 66.335209e-27 139.14984e-27
diameters_m = 3.659e-10 4.199e-10
number_densities_m3 = 1e28 2e28
temperatures_K = 500 1500
velocities_ms = 80 0 0 ; -10 5 0
eps = 0.5
method = be
"""

# Two identical unit-scale species under a constant frequency matrix, with
# the step chosen far beyond the explicit stability limit (rate * dt = 3):
# RK4 grows the velocity gap ~1.375x per step while states stay realizable
# thanks to the huge thermal energy, so only bound monitors trip.
UNSTABLE_CONFIG = """\
labels = a b
masses_kg = 1 1
diameters_m = 1 1
number_densities_m3 = 1 1
temperatures_K = 1e20 1e20
velocities_ms = 1e-3 0 0 ; -1e-3 0 0
model = constant
constant_frequencies = 1 1 1 1
method = rk4
dt_s = 3.0
t_final_s = 30.0
"""

# A constant-model RK4 run far past its stability limit (rate * dt ~ 1e4):
# its ten steps multiply the energies by about 1e29 each, to finite but
# huge values, and the stages of an eleventh step overflow.
OVERFLOWING_RK4_CONFIG = """\
labels = A B
masses_kg = 6.6e-26 1.3e-25
diameters_m = 3e-10 3e-10
number_densities_m3 = 1e28 1e28
temperatures_K = 1000 2000
velocities_ms = 100 0 0 ; 0 0 0
model = constant
constant_frequencies = 1e10 1e10 1e10 1e10
method = rk4
dt_s = 1e-6
t_final_s = 1e-5
"""

SRC = Path(__file__).resolve().parents[1] / "src"
# Ten hard-sphere species drawn once (the seed is in the file): more than
# DENSE_OPERATOR_MAX_SPECIES, so its runs take the elementwise operator core.
TEN_SPECIES = Path(__file__).resolve().parent / "data" / "ten_species.cfg"


def run_cli(args, cwd, timeout=None):
    """``mixbgk`` in a fresh interpreter, so an uncaught exception shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "mixbgk.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=timeout,
    )


def rewrite_trajectory_csv(path, table, scenario):
    """Write a re-read table back as a run: its state, the scenario's composition,
    and the envelopes of its first record, through the output set's CSV writer."""
    composition = MixtureComposition(scenario.species, scenario.number_densities)
    first = MomentState(composition, table.velocities[0], table.energies[0])
    constants = decay_constants_of(first, scenario.model)
    envelopes = decay_envelopes(constants, scenario.eps, table.times)
    sweeps = np.zeros(len(table.times), dtype=int)
    trajectory = Trajectory(table.times, table.velocities, table.energies, sweeps, composition)
    temps_k = energy_to_kelvin(_temperatures(composition, table.velocities, table.energies))
    output_mod._write_csvs([(path, *output_mod._trajectory_file(trajectory, envelopes, temps_k))])


def csv_columns(path):
    """Every column of an emitted CSV, by its header name."""
    with open(path, encoding="utf-8") as handle:
        names = handle.readline().strip().split(",")
    return dict(zip(names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T))


def restate(table, scenario):
    """An edited re-read table with its ``T_<label>_K`` columns derived again
    from its state, as a CSV written from that state carries them."""
    composition = MixtureComposition(scenario.species, scenario.number_densities)
    table.temperatures_kelvin = energy_to_kelvin(
        _temperatures(composition, table.velocities, table.energies)
    )
    return table


class TestPresets:
    def test_reference_gas_data(self):
        assert GASES["He"].mass == 6.6464731e-27
        assert GASES["Xe"].diameter == 4.939e-10

    def test_preset3_helium_velocity(self):
        scenario = presets()[3]
        assert scenario.species[0].label == "He"
        assert scenario.velocities[0, 0] == 864.8
        np.testing.assert_array_equal(scenario.velocities[1:], 0.0)

    def test_preset1_equilibrium_is_mean(self):
        scenario = presets()[1]
        np.testing.assert_array_equal(scenario.number_densities, 1e28)
        eq = steady_state(scenario.initial_state())
        assert energy_to_kelvin(eq.temperature) == pytest.approx(2000.0, rel=1e-14)

    def test_all_presets_realizable(self):
        for scenario in presets().values():
            assert is_realizable(scenario.initial_state())

    def test_default_settings_resolve(self):
        for scenario in presets().values():
            cfg = resolved(scenario)
            assert cfg.dt > 0.0
            assert cfg.t_final > cfg.dt


def _old_rk4_step(state, model, eps):
    """RK4's default step as it was derived before the horizon joined it."""
    const = run_constants(state.composition, model, state.dimension)
    fastest = np.linalg.eigvalsh(operators(temperatures_of(state), const)[1]).max()
    return 1.0 if fastest <= 0.0 else RK4_RATE_PER_STEP * eps / fastest


def _floor_gaps(state, model):
    """The smallest positive eigenvalues of Z and of Z-hat at the temperature
    floor, from the oracle couplings and the Jacobi eigensolver."""
    comp = state.composition
    floor = np.full(comp.size, temperatures_of(state).min())
    mats = assemble(state_from_temperatures(comp, state.velocities, floor), model)
    gaps = []
    for coupling, weight in (
        (mats.momentum_coupling, comp.mass_densities),
        (mats.energy_coupling, comp.number_densities),
    ):
        laplacian = np.diag(coupling.sum(axis=1)) - coupling
        gaps.append(symmetric_eigenvalues(laplacian / np.sqrt(np.outer(weight, weight)))[1])
    return tuple(gaps)


def _scenario_of(state, model, eps, method, t_final=None):
    """What ``resolve_integrator`` reads of a scenario, for a scenario whose
    initial state is ``state`` itself, bit for bit."""
    return SimpleNamespace(
        initial_state=lambda: state, model=model, eps=eps, method=method, dt=None,
        t_final=t_final,
    )


def _seeded_cases():
    """(state, model, eps) for N = 1..4 under both frequency models."""
    rng = np.random.default_rng(31)
    cases = []
    for n_species in (1, 2, 3, 4):
        for _ in range(3):
            state = random_state(rng, n_species)
            eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            constant = ConstantMatrix(np.exp(rng.uniform(0.0, 5.0, size=(n_species, n_species))))
            cases += [(state, HardSphere(), eps), (state, constant, eps)]
    return cases


class TestRk4Settings:
    """Every derived setting, RK4's step, either method's horizon and the paper
    rate of backward Euler's step bound, comes from the one spectrum of Z and
    Z-hat that ``decay_constants`` evaluates on record 0."""

    def test_step_is_the_stability_step(self):
        for scenario in presets().values():
            scenario = replace(scenario, method="rk4")
            derived = resolved(scenario).dt
            assert derived == _old_rk4_step(scenario.initial_state(), scenario.model, 1.0)
        for state, model, eps in _seeded_cases():
            # A given horizon of 0: a seeded mixture may be too stiff for RK4's own.
            derived = resolved(_scenario_of(state, model, eps, "rk4", 0.0)).dt
            assert derived == _old_rk4_step(state, model, eps)

    def test_horizon_covers_ten_efolds_of_the_floor_gap(self):
        cases = [
            (scenario.initial_state(), scenario.model, scenario.eps)
            for scenario in presets().values()
        ]
        for state, model, eps in cases + _seeded_cases():
            constants = decay_constants_of(state, model)
            gaps = (constants.velocity_gap, constants.energy_gap)
            horizon = resolved(_scenario_of(state, model, eps, "be")).t_final
            if state.composition.size == 1:  # no gap: horizon 0, one record
                assert (gaps, horizon) == ((math.inf, math.inf), 0.0)
                continue
            oracle = _floor_gaps(state, model)
            assert gaps == pytest.approx(oracle, rel=1e-12, abs=0.0)
            expected = HORIZON_EFOLDS * eps / min(oracle)
            assert horizon == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_the_paper_rate_is_the_larger_conservative_rate(self):
        cases = [
            (scenario.initial_state(), scenario.model, scenario.eps)
            for scenario in presets().values()
        ]
        for state, model, eps in cases + _seeded_cases():
            rates = conservative_decay_rate(state, model)
            constants = decay_constants_of(state, model)
            assert (constants.velocity_rate, constants.energy_rate) == rates
            derived = resolved(_scenario_of(state, model, eps, "be"))
            if derived.t_final == 0.0:  # a single species takes no step
                assert derived.max_dt is None
                continue
            bound = min(eps / max(rates), derived.t_final / HORIZON_EFOLDS)
            assert derived.max_dt == BE_STEP_BOUND * bound

    @pytest.mark.parametrize("method", ["be", "rk4"])
    @pytest.mark.parametrize("dt", [None, 1e-13])
    def test_one_operator_call_per_resolution(self, method, dt, monkeypatch):
        calls, solves = [], []

        def spying(temperatures, const):
            calls.append(np.shape(temperatures))
            return operators(temperatures, const)

        def solving(matrices, _eigvalsh=np.linalg.eigvalsh):
            solves.append(np.shape(matrices))
            return _eigvalsh(matrices)

        monkeypatch.setattr(equilibrium_mod, "operators", spying)
        monkeypatch.setattr(np.linalg, "eigvalsh", solving)
        for scenario in presets().values():
            calls.clear()
            solves.clear()
            resolved(replace(scenario, method=method, dt=dt))
            assert calls == [(3, 3)]  # T(0), the floor and the ceiling, stacked
            assert solves == [(2, 2, 3, 3)]  # Z and Z-hat at T(0) and at the floor

    def test_a_single_species_runs_one_record(self, tmp_path, capsys):
        path = tmp_path / "argon.cfg"
        path.write_text(
            "labels = Ar\nmasses_kg = 66.335209e-27\ndiameters_m = 3.659e-10\n"
            "number_densities_m3 = 1e28\ntemperatures_K = 500\nvelocities_ms = 80 0 0\n"
            "method = rk4\n"
        )
        assert resolved(parse_config(path)).t_final == 0.0
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "records = 1," in capsys.readouterr().out
        summary = (tmp_path / "argon_summary.txt").read_text().splitlines()
        assert "t_final_s = 0.00000000000000000e+00" in summary
        assert "records = 1" in summary
        assert len(read_trajectory_csv(tmp_path / "argon_trajectory.csv").times) == 1

    @pytest.mark.parametrize("argv", [
        ["--example", "1", "--method", "rk4"],
        ["--example", "1", "--method", "rk4", "--t-final", "3e-12"],
        ["--example", "1", "--method", "be"],
        ["--example", "3", "--method", "rk4"],
        ["--example", "3", "--method", "be", "--dt", "1e-13"],
    ])
    def test_a_run_ends_at_its_horizon(self, argv, tmp_path, capsys):
        example, method = int(argv[1]), argv[3]
        scenario = replace(presets()[example], method=method)
        if "--t-final" in argv:
            scenario = replace(scenario, t_final=float(argv[-1]))
        if "--dt" in argv:
            scenario = replace(scenario, dt=float(argv[-1]))
        assert main(["run", *argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("wrote ") and out[1].startswith("records = ")
        assert out[2:] == ["verification: PASS"]
        table = read_trajectory_csv(tmp_path / f"{scenario.name}_trajectory.csv")
        assert table.times[-1] == resolved(scenario).t_final
        # A given step keeps the lambda_2 horizon too: 115 steps of 1e-13 s on
        # example 3, where the paper's horizon would take 6.09e6.
        assert len(table.times) < 200

    def test_a_stiff_mixture_is_refused(self, tmp_path, capsys):
        path = tmp_path / "stiff.cfg"
        path.write_text(STIFF_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RK4_MAX_DERIVED_STEPS = 5000 steps" in captured.err
        assert "--t-final" in captured.err and "--method be" in captured.err
        assert not out.exists()  # refused before the output directory is made
        # A given horizon is not refused.
        assert main(["run", "--config", str(path), "--t-final", "1e-5", "--out", str(out)]) == 0
        assert read_trajectory_csv(out / "stiff_trajectory.csv").times[-1] == 1e-5

    def test_the_refusals_advice_runs(self, tmp_path, capsys):
        # --method be, as the refusal advises: error-controlled steps over the
        # same lambda_2 horizon pass every monitor.
        path = tmp_path / "stiff.cfg"
        path.write_text(STIFF_CONFIG)
        assert main(["run", "--config", str(path), "--method", "be", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verification: PASS"

    def test_the_step_limit_counts_steps_of_the_step_in_use(self, monkeypatch):
        scenario = replace(presets()[1], method="rk4")
        derived = resolved(scenario)
        steps = derived.t_final / derived.dt
        monkeypatch.setattr(scenarios_mod, "RK4_MAX_DERIVED_STEPS", math.ceil(steps))
        assert resolved(scenario) == derived
        with pytest.raises(ScenarioError, match="RK4_MAX_DERIVED_STEPS"):
            resolved(replace(scenario, dt=derived.dt / 2))
        # A given horizon of about 44 000 steps is kept.
        assert resolved(replace(scenario, dt=derived.dt / 2, t_final=1e-9)).t_final == 1e-9
        monkeypatch.setattr(scenarios_mod, "RK4_MAX_DERIVED_STEPS", math.floor(steps))
        with pytest.raises(ScenarioError, match="RK4_MAX_DERIVED_STEPS"):
            resolved(scenario)
        # Backward Euler's derived horizon is not limited.
        assert resolved(replace(scenario, method="be")).t_final > 0.0

    @pytest.mark.parametrize("field", ["velocity_gap", "energy_gap"])
    @pytest.mark.parametrize("method, dt, gap", [
        pytest.param(method, dt, gap, id=f"{name}{gap}")
        for method, dt, name in (("rk4", None, ""), ("be", None, "be-"), ("be", 1e-13, "be-dt-"))
        for gap in (0.0, 5e-324, -1e-12, np.nan)
    ])
    def test_a_gap_lost_to_roundoff_is_refused(self, method, dt, gap, field, monkeypatch):
        # lambda_2 <= 0 gives a horizon of inf or below 0, and a gap of
        # 5e-324 one that overflows to inf; a NaN gap of either operator is
        # kept.  Every run takes that horizon, whatever its step, so the
        # refusal advises only --t-final, with no warning or other error first.
        derive = scenarios_mod.decay_constants
        monkeypatch.setattr(
            scenarios_mod, "decay_constants", lambda *args: replace(derive(*args), **{field: gap})
        )
        scenario = replace(presets()[1], method=method, dt=dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="is not finite and nonnegative") as excinfo:
                resolved(scenario)
            assert str(excinfo.value).endswith("; set --t-final")
            # A given horizon is not refused.
            assert resolved(replace(scenario, t_final=1e-12)).t_final == 1e-12

    @pytest.mark.parametrize("method, example", [
        pytest.param(method, example, id=f"{example}" if method == "rk4" else f"be-{example}")
        for method in ("rk4", "be") for example in (1, 2, 3)
    ])
    def test_a_given_step_or_horizon_is_kept(self, method, example):
        # A given step replaces the step only: the horizon stays lambda_2's.
        scenario = replace(presets()[example], method=method)
        derived = resolved(scenario)
        given_dt = resolved(replace(scenario, dt=4e-14))
        assert (given_dt.dt, given_dt.t_final, given_dt.max_dt) == (4e-14, derived.t_final, None)
        given_horizon = resolved(replace(scenario, t_final=1e-9))
        assert (given_horizon.dt, given_horizon.t_final) == (derived.dt, 1e-9)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "drift.cfg"
        path.write_text(GOOD_CONFIG)
        scenario = parse_config(path)
        assert scenario.name == "drift"
        assert [s.label for s in scenario.species] == ["Ar", "Kr"]
        assert scenario.species[0].mass == 66.335209e-27
        np.testing.assert_array_equal(scenario.number_densities, [1e28, 2e28])
        np.testing.assert_array_equal(
            scenario.velocities, [[80.0, 0.0, 0.0], [-10.0, 5.0, 0.0]]
        )
        np.testing.assert_array_equal(scenario.temperatures_kelvin, [500.0, 1500.0])
        assert scenario.eps == 0.5
        assert scenario.initial_state().dimension == 3

    def test_missing_diameter_names_species(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("3.659e-10 4.199e-10", "3.659e-10"))
        with pytest.raises(ScenarioError, match="'Kr'.*diameters_m"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "viscosity = 3\n")
        with pytest.raises(ScenarioError, match="viscosity"):
            parse_config(path)

    def test_velocity_row_count_checked(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("velocities_ms = 80 0 0 ; -10 5 0",
                                            "velocities_ms = 80 0 0"))
        with pytest.raises(ScenarioError, match="velocities_ms"):
            parse_config(path)

    def test_constant_model_needs_frequencies(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "model = constant\n")
        with pytest.raises(ScenarioError, match="constant_frequencies"):
            parse_config(path)

    def test_constant_model_rejects_bad_frequencies(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "model = constant\nconstant_frequencies = 1 -1 1 1\n")
        with pytest.raises(ScenarioError, match="must all be positive"):
            parse_config(path)

    def test_hard_sphere_rejects_constant_frequencies(self, tmp_path):
        # Without a model key the scenario is hard-sphere; frequencies given
        # for a constant model must not be dropped silently.
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "constant_frequencies = 1 1 1 1\n")
        with pytest.raises(ScenarioError, match="constant_frequencies needs model = constant"):
            parse_config(path)
        path.write_text(GOOD_CONFIG + "model = hard_sphere\nconstant_frequencies = 1 1 1 1\n")
        with pytest.raises(ScenarioError, match="constant_frequencies"):
            parse_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("labels", ["tot Kr", "A,r Kr", "Ar Ar"])
    def test_label_that_breaks_the_csv_header_is_rejected(self, labels, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("labels = Ar Kr", f"labels = {labels}"))
        bad = repr(labels.split()[0])
        with pytest.raises(ScenarioError, match=re.escape(bad)):
            parse_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "sub/run"])
    def test_name_with_a_path_separator_is_rejected(self, name, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + f"name = {name}\n")
        with pytest.raises(ScenarioError, match=re.escape(repr(name))):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert repr(name) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg"]

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("temperatures_K = 500 1500", "temperatures_K = 500 nan", "temperatures_K"),
            ("temperatures_K = 500 1500", "temperatures_K = inf 1500", "temperatures_K"),
            ("-10 5 0", "-10 nan 0", "velocities_ms"),
            ("method = be", "method = be\ndt_s = inf", "dt_s"),
            ("method = be", "method = be\ndt_s = nan", "dt_s"),
            ("method = be", "method = be\nt_final_s = inf", "t_final_s"),
            ("method = be", "method = be\nt_final_s = nan", "t_final_s"),
            ("eps = 0.5", "eps = inf", "eps"),
            ("eps = 0.5", "eps = nan", "eps"),
        ],
        ids=["nan_temperature", "inf_temperature", "nan_velocity", "inf_dt", "nan_dt",
             "inf_t_final", "nan_t_final", "inf_eps", "nan_eps"],
    )
    def test_non_finite_value_names_its_key(self, old, new, key, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace(old, new))
        with pytest.raises(ScenarioError, match=f"key '{key}'.*not finite"):
            parse_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("method = be\n", "method = be\nviscosity 3\n", r"bad\.cfg:10: expected 'key = values'"),
            ("method = be\n", "method = be\neps = 0.7\n", r"bad\.cfg:10: duplicate key 'eps'"),
            ("labels = Ar Kr\n", "", "missing species labels"),
            ("masses_kg = 66.335209e-27 139.14984e-27\n", "", "missing key 'masses_kg'"),
            ("velocities_ms = 80 0 0 ; -10 5 0\n", "", "missing key 'velocities_ms'"),
            ("masses_kg = 66.335209e-27", "masses_kg = heavy", "key 'masses_kg': .*'heavy'"),
            ("500 1500", "500 1500 2500", "key 'temperatures_K' has 3 values for 2 species"),
            ("-10 5 0", "-10 5", "velocity rows have inconsistent lengths"),
            ("3.659e-10 4.199e-10", "3.659e-10 0", "species 'Kr': diameter must be positive"),
            ("eps = 0.5", "eps = 0.5 0.7", "key 'eps' expects a single value"),
            ("eps = 0.5\n", "eps = 0.5\nmodel = constant\nconstant_frequencies = 1 1 1\n",
             "constant_frequencies needs 4 values, got 3"),
            ("method = be", "method = euler", "method must be 'be' or 'rk4', got 'euler'"),
            ("eps = 0.5\n", "eps = 0.5\nmodel = bgk\n", "model must be 'hard_sphere' or 'constant'"),
            ("500 1500", "500 0", "species 'Kr': initial temperature must be positive"),
            ("500 1500", "500 1e-310", "species 'Kr': initial temperature must be positive"),
        ],
        ids=["no_equals", "duplicate_key", "missing_labels", "missing_per_species_key",
             "missing_velocities", "non_numeric", "too_many_values", "ragged_velocities",
             "zero_diameter", "two_scalar_values", "constant_frequencies_size",
             "unknown_method", "unknown_model", "zero_temperature", "temperature_below_0_J"],
    )
    def test_refusal_names_its_subject(self, old, new, match, tmp_path, capsys):
        assert old in GOOD_CONFIG
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace(old, new))
        with pytest.raises(ScenarioError, match=match):
            parse_config(path).initial_state()
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and re.search(match, line)

    @pytest.mark.parametrize("flags", [
        [], ["--t-final", "1e-12"], ["--method", "rk4", "--t-final", "1e-12"],
        ["--dt", "1e-15", "--t-final", "1e-12"],
    ], ids=["derived", "t_final", "rk4", "dt"])
    def test_a_temperature_derived_as_0_J_is_refused(self, flags, tmp_path, capfd):
        # Argon at 1 K moving at 3e9 m/s: (2/(d n)) E - (m/d)|u|^2 is 0 J
        # exactly, whatever the settings, and is refused by its species
        # before any step, with no numpy warning or traceback.
        path = tmp_path / "cold.cfg"
        path.write_text(
            "labels = Ar Xe\nmasses_kg = 66.335209e-27 218.01714e-27\n"
            "diameters_m = 3.659e-10 4.939e-10\nnumber_densities_m3 = 1e28 1e28\n"
            "temperatures_K = 1 1000\nvelocities_ms = 3e9 0 0 ; 0 0 0\n"
        )
        scenario = parse_config(path)
        composition = MixtureComposition(scenario.species, scenario.number_densities)
        temperatures = kelvin_to_energy(scenario.temperatures_kelvin)
        built = state_from_temperatures(composition, scenario.velocities, temperatures)
        assert temperatures[0] > 0.0 and temperatures_of(built)[0] == 0.0
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
        assert caught == []
        captured = capfd.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: species 'Ar': ") and "must be positive" in line
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--t-final", "1e-12"]], ids=["derived", "t_final"])
    @pytest.mark.parametrize("densities", ["1e-200 1e-200", "1e300 1e300"])
    def test_collision_rates_out_of_range_are_refused(self, densities, flags, tmp_path, capfd):
        # The products w_i f_ij underflow to 0 or overflow to inf, so the
        # pair sums and couplings are not numbers the operator core can use.
        path = tmp_path / "sparse.cfg"
        old = "number_densities_m3 = 1e28 2e28"
        assert old in GOOD_CONFIG
        path.write_text(GOOD_CONFIG.replace(old, f"number_densities_m3 = {densities}"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
        assert caught == []
        captured = capfd.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: species 'Ar' and 'Ar': the pair sum w_i f_ij + w_j f_ji")
        assert "not positive and finite" in line
        assert not out.exists()

    @pytest.mark.parametrize("temperatures, velocities", [
        ("1000 1e305", "0 0 0 ; 0 0 0"), ("1000 1000", "0 0 0 ; 1e160 0 0"),
    ], ids=["hot", "fast"])
    def test_an_initial_energy_that_overflows_is_refused(
        self, temperatures, velocities, tmp_path, capfd
    ):
        # Krypton's (d/2) n T or (1/2) m n |u|^2 overflows: the scenario
        # names the species before any product of arrays can warn.
        path = tmp_path / "hot.cfg"
        path.write_text(
            "labels = Ar Kr\nmasses_kg = 66.335209e-27 139.14984e-27\n"
            "diameters_m = 3.659e-10 4.199e-10\nnumber_densities_m3 = 3e28 2e28\n"
            f"temperatures_K = {temperatures}\nvelocities_ms = {velocities}\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScenarioError, match="^species 'Kr': initial energy density"):
                parse_config(path).initial_state()
            assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert caught == []
        captured = capfd.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "error: species 'Kr': initial energy density overflows"
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3), (3, 0), (3, 1, 3)])
    def test_velocities_not_shaped_n_by_d_are_refused(self, shape):
        # A library-built scenario, which parse_config's row checks do not
        # see: one row of d >= 1 components per species, or a ScenarioError
        # naming the expected shape, before any array product.
        scenario = replace(presets()[1], velocities=np.zeros(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as refused:
                scenario.initial_state()
            with pytest.raises(ScenarioError):
                record_zero(scenario)
        assert str(refused.value) == (
            f"velocities must be shaped (N, d) = (3, d) with d >= 1, got {shape}"
        )
        assert is_realizable(replace(scenario, velocities=np.zeros((3, 2))).initial_state())

    def test_label_the_csv_can_carry_round_trips(self, tmp_path):
        # T_min_K is also a totals column; the reader finds labels by E_<label>.
        path = tmp_path / "minimum.cfg"
        path.write_text(
            GOOD_CONFIG.replace("labels = Ar Kr", "labels = min Kr")
            + "dt_s = 2e-13\nt_final_s = 1e-12\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        csv = tmp_path / "minimum_trajectory.csv"
        table = read_trajectory_csv(csv)
        assert table.labels == ("min", "Kr")
        rewrite_trajectory_csv(tmp_path / "copy.csv", table, parse_config(path))
        assert (tmp_path / "copy.csv").read_bytes() == csv.read_bytes()
        summary = (tmp_path / "minimum_summary.txt").read_text()
        assert "\n".join(monitor_block(table, parse_config(path))) in summary

    def test_unstable_config_parses(self, tmp_path):
        path = tmp_path / "unstable.cfg"
        path.write_text(UNSTABLE_CONFIG)
        scenario = parse_config(path)
        np.testing.assert_array_equal(scenario.model.frequencies, np.ones((2, 2)))
        assert scenario.method == "rk4"
        assert scenario.dt == 3.0


# The core calls of equilibrium (record 0's stack) and of output (the
# bracket), and equilibrium's steady_state, each under the key it counts by.
RECORD_0_SPIES = [(equilibrium_mod, "operators", "record 0"), (output_mod, "operators", "bracket"),
                  (equilibrium_mod, "steady_state", "steady_state")]


def _record_first_arguments(monkeypatch, calls, spied):
    """Append the first argument of each call of a spied (module, name, key) to calls[key]."""
    for module, name, key in spied:
        def counted(head, *args, _key=key, _original=getattr(module, name)):
            calls[_key].append(head)
            return _original(head, *args)

        monkeypatch.setattr(module, name, counted)


class TestCliRun:
    def test_example_run_passes_and_round_trips(self, tmp_path, capsys):
        code = main(
            ["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verification: PASS" in out

        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        assert table.labels == ("Ar", "Kr", "Xe")
        block = monitor_block(table, presets()[1])
        summary = (tmp_path / "example1_summary.txt").read_text()
        assert "\n".join(block) in summary  # bit-for-bit reproduction

        envelopes = (tmp_path / "example1_envelopes.csv").read_text().splitlines()
        assert envelopes[0].startswith("t,dev_u_Ar")
        assert len(envelopes) == len(table.times) + 1

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_a_ten_species_run_passes_and_round_trips(self, method, tmp_path):
        # The elementwise core on stacked records, in the run and in the
        # verifier of its re-read CSV.
        scenario = parse_config(TEN_SPECIES)
        const = record_zero(scenario).const
        assert len(scenario.species) > DENSE_OPERATOR_MAX_SPECIES
        assert const.operator_map is None
        args = ["run", "--config", str(TEN_SPECIES), "--method", method]
        assert main([*args, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "ten_species_summary.txt").read_text()
        block = summary[summary.index("[monitors]"):].splitlines()
        assert len(block) == 11 and all(line.endswith("-> PASS") for line in block[1:])
        table = read_trajectory_csv(tmp_path / "ten_species_trajectory.csv")
        assert monitor_block(table, parse_config(TEN_SPECIES)) == block

    def test_cli_verdict_comes_from_monitor_block(self, tmp_path, monkeypatch):
        # The run's [monitors] block and a re-read CSV's come from one public
        # function; the run hands it the record_zero that the CLI evaluated
        # once, whose decay constants and run constants are every bound of
        # the verdict.  The output set evaluates no record_zero of its own.
        calls = {"monitor_block": [], "record_zero": []}
        for name in calls:
            original = getattr(output_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append((args, kwargs))
                return _original(*args, **kwargs)

            monkeypatch.setattr(output_mod, name, counted)
        evaluated = []
        monkeypatch.setattr(
            cli_mod, "record_zero", lambda config: evaluated.append(record_zero(config)) or evaluated[-1]
        )
        assert main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)]) == 0
        assert [len(made) for made in calls.values()] == [1, 0]
        [first] = evaluated
        args, kwargs = calls["monitor_block"][0]
        given = inspect.signature(monitor_block).bind(*args, **kwargs).arguments
        assert isinstance(given["table"], Trajectory)
        assert given["config"].name == "example1"
        assert given["first"] is first

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_a_run_builds_its_run_constants_twice(self, method, tmp_path, monkeypatch):
        # Once for record 0, whose decay constants give the derived settings
        # and every bound of the output set, and once for the stepping; the
        # output set takes its run constants from record_zero.
        assert not hasattr(output_mod, "run_constants")
        built = []
        for module in (integrate_mod, scenarios_mod, equilibrium_mod):
            def counted(*args, _module=module.__name__, _original=module.run_constants):
                built.append(_module)
                return _original(*args)

            monkeypatch.setattr(module, "run_constants", counted)
        args = ["run", "--example", "1", "--method", method, "--t-final", "3e-13"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        assert sorted(built) == ["mixbgk.integrate", "mixbgk.scenarios"]

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_a_run_evaluates_record_0_once(self, method, tmp_path, monkeypatch):
        # One initial state, one set of decay constants with one core call on
        # record 0's stack and one steady state, for the settings and the
        # output set alike (output evaluates decay constants only through
        # scenarios' record_zero).  The bracket's call on the records is the
        # only other core call of equilibrium or output.
        calls = {"initial_state": [], "decay_constants": [], "record 0": [], "bracket": [],
                 "steady_state": []}
        initial_state = ScenarioConfig.initial_state

        def counted_state(config):
            calls["initial_state"].append(config.name)
            return initial_state(config)

        monkeypatch.setattr(ScenarioConfig, "initial_state", counted_state)
        _record_first_arguments(monkeypatch, calls, [
            (scenarios_mod, "decay_constants", "decay_constants"), *RECORD_0_SPIES,
        ])
        args = ["run", "--example", "2", "--method", method]
        assert main([*args, "--out", str(tmp_path)]) == 0
        assert calls["initial_state"] == ["example2"]
        [state] = calls["decay_constants"]
        assert state.velocities.tobytes() == presets()[2].initial_state().velocities.tobytes()
        assert [np.shape(temperatures) for temperatures in calls["record 0"]] == [(3, 3)]
        [temperatures] = calls["bracket"]
        records = len(read_trajectory_csv(tmp_path / "example2_trajectory.csv").times)
        assert temperatures.shape[1] == 3 and 1 < len(temperatures) <= records
        assert len(calls["steady_state"]) == 1

    def test_an_output_set_evaluates_no_record_0_of_its_own(self, tmp_path, monkeypatch):
        # Given the record_zero of its run, the output set makes no core call
        # on record 0 and no steady_state: the bracket's call on the records
        # is its one core call.
        scenario = presets()[2]
        first = record_zero(scenario)
        integrator = resolve_integrator(scenario, first)
        trajectory = simulate(first.state, integrator, scenario.model)
        calls = {"record 0": [], "bracket": [], "steady_state": []}
        _record_first_arguments(monkeypatch, calls, RECORD_0_SPIES)
        assert write_output_set(str(tmp_path / "set"), scenario, integrator, trajectory, first)
        assert calls["record 0"] == [] and calls["steady_state"] == []
        [temperatures] = calls["bracket"]
        assert temperatures.shape[1] == 3 and 1 < len(temperatures) <= len(trajectory.times)

    def test_an_output_set_refuses_another_record_0(self, tmp_path):
        # The bounds of one record 0 do not verify a run from another: a
        # record_zero at another temperature, or the same one with its
        # velocities moved by a bit, is refused before any file is written.
        scenario = presets()[2]
        first = record_zero(scenario)
        integrator = resolve_integrator(scenario, first)
        trajectory = simulate(first.state, integrator, scenario.model)
        hotter = record_zero(replace(scenario, temperatures_kelvin=np.full(3, 1001.0)))
        velocities = first.state.velocities.copy()
        velocities[0, 0] = np.nextafter(velocities[0, 0], np.inf)
        nudged = replace(first, state=replace(first.state, velocities=velocities))
        for other in (hotter, nudged):
            with pytest.raises(ValueError, match="record 0 of the table"):
                write_output_set(str(tmp_path / "set"), scenario, integrator, trajectory, other)
        assert sorted(tmp_path.iterdir()) == []
        assert write_output_set(str(tmp_path / "set"), scenario, integrator, trajectory, first)

    def test_a_table_of_another_mixture_is_refused(self, tmp_path):
        # A re-read Ar/Kr/Xe table is not verified against the bounds of
        # another mixture, nor of the same gases in another order.
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        example1 = presets()[1]
        reordered = replace(
            example1, species=example1.species[::-1],
            number_densities=example1.number_densities[::-1],
            velocities=example1.velocities[::-1],
            temperatures_kelvin=example1.temperatures_kelvin[::-1],
        )
        two_species = replace(
            example1, species=example1.species[:2],
            number_densities=example1.number_densities[:2],
            velocities=example1.velocities[:2],
            temperatures_kelvin=example1.temperatures_kelvin[:2],
        )
        for scenario, labels in [(presets()[3], ("He", "Kr", "Xe")),
                                 (reordered, ("Xe", "Kr", "Ar")),
                                 (two_species, ("Ar", "Kr"))]:
            with pytest.raises(ValueError) as refused:
                monitor_block(table, scenario)
            assert str(("Ar", "Kr", "Xe")) in str(refused.value)
            assert str(labels) in str(refused.value)
        summary = (tmp_path / "example1_summary.txt").read_text()
        assert "\n".join(monitor_block(table, example1)) in summary

    @pytest.mark.parametrize("edit", [
        pytest.param(np.zeros_like, id="zeroed"),
        pytest.param(np.negative, id="negated"),
        pytest.param(lambda t: t[[0, 2, 1, *range(3, len(t))]], id="swapped_pair"),
        pytest.param(lambda t: t + 1e-15, id="late_start"),
        pytest.param(lambda t: np.where(np.arange(len(t)) == 2, np.nan, t), id="nan"),
    ])
    def test_a_table_on_times_no_run_writes_is_refused(self, edit, tmp_path):
        # Every envelope is largest at t = 0 and grows for t < 0, so this
        # run's failing table passed its envelopes on zeroed or negated
        # times: a table's times must start at 0 and strictly increase.
        args = ["run", "--example", "2", "--dt", "7.3e-13", "--t-final", "3.44652915625057957e-12"]
        assert main([*args, "--out", str(tmp_path)]) == 2
        table = read_trajectory_csv(tmp_path / "example2_trajectory.csv")
        assert len(table.times) > 3
        summary = (tmp_path / "example2_summary.txt").read_text()
        assert "\n".join(monitor_block(table, presets()[2])) in summary
        table.times = edit(table.times)
        with pytest.raises(ValueError, match="times must start at 0 s and strictly increase"):
            monitor_block(table, presets()[2])

    @pytest.mark.parametrize("factor", [10.0, 2.0])
    def test_a_table_of_other_densities_is_refused(self, tmp_path, factor):
        # The CSV carries no densities, but its temperature columns do not
        # come out of the same state under another argon density.  A run
        # carries its composition, whose species and densities are compared
        # directly (preset 1 is at rest, where no temperature shows a mass);
        # a diameter, which no column shows, sets the run's bounds.
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        example1 = presets()[1]
        scaled = np.array([factor, 1.0, 1.0])
        denser = replace(example1, number_densities=example1.number_densities * scaled)
        argon = replace(example1.species[0], mass=factor * example1.species[0].mass)
        heavier = replace(example1, species=(argon, *example1.species[1:]))
        argon = replace(example1.species[0], diameter=factor * example1.species[0].diameter)
        wider = replace(example1, species=(argon, *example1.species[1:]))
        with pytest.raises(ValueError, match="T_<label>_K"):
            monitor_block(table, denser)
        run = simulate(example1.initial_state(), IntegratorConfig(1e-13, 3e-13), example1.model)
        for other in (denser, heavier, wider):
            with pytest.raises(ValueError, match="species or number densities"):
                monitor_block(run, other)
        # A clean re-read still reproduces the summary's block.
        summary = (tmp_path / "example1_summary.txt").read_text()
        assert "\n".join(monitor_block(table, example1)) in summary

    @pytest.mark.parametrize("example, dt, column", [
        (1, 1e-13, "energies"), (2, None, "velocities"),
    ], ids=["energies", "velocities"])
    def test_a_table_from_another_record_0_is_refused(self, example, dt, column, tmp_path):
        # Every bound is the scenario's record 0's.  Row 0 moved away from
        # equilibrium, to E_eq + 1.5 (E(0) - E_eq) or, keeping the momentum,
        # to u_eq + 1.5 (u(0) - u_eq), with its temperatures derived again,
        # would widen bounds taken from the table's own first row: so taken,
        # they would let the failing energy run below read PASS on every line.
        scenario = replace(presets()[example], dt=dt)
        args = ["run", "--example", str(example), "--out", str(tmp_path)]
        code = main(args + (["--dt", str(dt)] if dt else []))
        assert code == (2 if column == "energies" else 0)
        table = read_trajectory_csv(tmp_path / f"example{example}_trajectory.csv")
        summary = (tmp_path / f"example{example}_summary.txt").read_text()
        assert "\n".join(monitor_block(table, scenario)) in summary
        equilibrium = steady_state(scenario.initial_state())
        target = equilibrium.energies if column == "energies" else equilibrium.velocity
        values = getattr(table, column)
        values[0] = target + 1.5 * (values[0] - target)
        with pytest.raises(ValueError, match="record 0 of the table"):
            monitor_block(restate(table, scenario), scenario)

    def test_too_tight_bracket_fails(self, tmp_path, monkeypatch):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        original = output_mod.eigenvalue_brackets

        def tight(coupling, rho, n):
            brackets = original(coupling, rho, n)
            brackets[..., 0, 0] = 2.0 * brackets[..., 0, 1]  # velocity lower above upper
            return brackets

        monkeypatch.setattr(output_mod, "eigenvalue_brackets", tight)
        block = monitor_block(table, presets()[1])
        assert "eigenvalue_bracket -> FAIL" in block
        assert block[-1] == "overall -> FAIL"

    def test_repeated_records_are_bracketed_once(self, tmp_path, monkeypatch):
        # A run that settles onto a fixed point repeats its last record down
        # to the horizon; the bracket takes the operator core once for each
        # record whose temperatures differ from the record before it.
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        repeated = [len(table.times) - 1] * 4
        later = table.times[-1] + 1e-13 * np.arange(1, 5)
        padded = replace(
            table,
            times=np.concatenate([table.times, later]),
            **{
                name: np.concatenate([getattr(table, name), getattr(table, name)[repeated]])
                for name in ("velocities", "energies", "temperatures_kelvin")
            },
        )
        rows, original = [], output_mod.operators

        def counted(temperatures, const):
            rows.append(len(temperatures))
            return original(temperatures, const)

        monkeypatch.setattr(output_mod, "operators", counted)
        assert "eigenvalue_bracket -> PASS" in monitor_block(padded, presets()[1])
        assert rows == [len(table.times)]

    def test_nonpositive_temperature_fails_without_raising(self, tmp_path):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        table.energies[len(table.energies) // 2, 0] *= -1.0
        block = monitor_block(restate(table, presets()[1]), presets()[1])
        assert "realizability -> FAIL" in block
        assert block[-1] == "overall -> FAIL"

    def test_an_unrealizable_first_record_is_refused(self, tmp_path):
        # Every bound derives from the scenario's record 0, which a first
        # record with a nonpositive temperature is not: the table is refused,
        # without a warning, rather than verified against another state.
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        table.energies[0, 0] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="record 0 of the table"):
                monitor_block(restate(table, presets()[1]), presets()[1])

    @pytest.mark.parametrize("example", [1, 2])
    def test_a_nan_in_the_first_record_is_refused(self, tmp_path, example):
        # Preset 1 has zero momentum, preset 2 does not; either way a NaN
        # there is not the scenario's record 0, and the table is refused
        # without a warning.
        main(["run", "--example", str(example), "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / f"example{example}_trajectory.csv")
        table.energies[0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="record 0 of the table"):
                monitor_block(restate(table, presets()[example]), presets()[example])

    def test_temperature_below_floor_is_still_realizable(self, tmp_path):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        # Preset 1 has zero velocities and its first species starts coldest, so
        # half that species' initial energy is half the floor: below it, yet positive.
        table.energies[len(table.energies) // 2, 0] = 0.5 * table.energies[0, 0]
        block = monitor_block(restate(table, presets()[1]), presets()[1])
        assert any(
            line.startswith("temperature_floor_min_K") and line.endswith("-> FAIL")
            for line in block
        )
        assert "realizability -> PASS" in block
        assert block[-1] == "overall -> FAIL"

    def test_envelope_csv_content(self, tmp_path):
        main(["run", "--example", "2", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example2_trajectory.csv")
        trajectory_columns = csv_columns(tmp_path / "example2_trajectory.csv")
        path = tmp_path / "example2_envelopes.csv"
        lines = path.read_text().splitlines()
        matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        # every value in round-trip precision, formatted one at a time
        assert lines[1:] == [",".join(f"{x:.17e}" for x in row) for row in matrix]
        columns = dict(zip(lines[0].split(","), matrix.T))

        # deviations recompute from the re-read trajectory and the steady state
        eq = steady_state(presets()[2].initial_state())
        for i, label in enumerate(table.labels):
            gap = table.velocities[:, i, :] - eq.velocity
            np.testing.assert_allclose(
                columns[f"dev_u_{label}"], np.sqrt((gap**2).sum(axis=1)), rtol=1e-14
            )
            np.testing.assert_allclose(
                columns[f"dev_T_{label}_K"],
                np.abs(
                    trajectory_columns[f"T_{label}_K"] - energy_to_kelvin(eq.temperature)
                ),
                rtol=1e-14,
            )
        np.testing.assert_allclose(
            columns["dev_energy"],
            np.sqrt(((table.energies - eq.energies) ** 2).sum(axis=1)),
            rtol=1e-14,
        )
        # the envelopes and times are the trajectory CSV's, bit for bit
        np.testing.assert_array_equal(columns["t"], table.times)
        for name in ("env_velocity", "env_energy", "env_temperature_K"):
            np.testing.assert_array_equal(columns[name], trajectory_columns[name])

    def test_header_only_csv_rejected(self, tmp_path):
        path = tmp_path / "empty_trajectory.csv"
        path.write_text(
            "t,u_a_1,T_a_K,E_a,k_tot_1,E_tot,T_min_K,"
            "env_velocity,env_energy,env_temperature_K\n"
        )
        with pytest.raises(ValueError, match="column layout"):
            read_trajectory_csv(path)

    def test_ragged_csv_rejected_with_path(self, tmp_path):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        path = tmp_path / "example1_trajectory.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = ",".join(lines[2].split(",")[:3]) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="unexpected column layout") as excinfo:
            read_trajectory_csv(path)
        assert str(excinfo.value).startswith(str(path))

    def test_trajectory_csv_exact_round_trip(self, tmp_path):
        main(["run", "--example", "2", "--t-final", "3e-13", "--out", str(tmp_path)])
        path = tmp_path / "example2_trajectory.csv"
        table = read_trajectory_csv(path)
        # full-precision text: re-reading reproduces the binary values, so
        # a rewrite from them is byte-identical
        copy = tmp_path / "copy.csv"
        rewrite_trajectory_csv(copy, table, presets()[2])
        assert copy.read_bytes() == path.read_bytes()

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("3.659e-10 4.199e-10", "3.659e-10"))
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "Kr" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    def test_bad_eps_is_named(self, eps, tmp_path, capsys):
        code = main(["run", "--example", "1", "--eps", eps, "--out", str(tmp_path)])
        assert code == 1
        assert "error: eps must be positive" in capsys.readouterr().err

        path = tmp_path / "bad_eps.cfg"
        path.write_text(GOOD_CONFIG.replace("eps = 0.5", f"eps = {eps}"))
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        # The parser refuses a non-finite number itself and names its key.
        expected = "error: key 'eps'" if eps == "nan" else "error: eps must be positive"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "option, message",
        [("--dt", "dt must be positive and finite"),
         ("--t-final", "t_final must be nonnegative and finite"),
         ("--eps", "eps must be positive and finite")],
        ids=["dt", "t_final", "eps"],
    )
    def test_non_finite_setting_is_named_truly(self, option, message, value, tmp_path, capsys):
        code = main(["run", "--example", "2", option, value, "--out", str(tmp_path)])
        assert code == 1
        assert f"error: {message}, got {value}" in capsys.readouterr().err

    def test_conflicting_sources_exit_1(self, tmp_path):
        code = main(
            ["run", "--example", "1", "--config", "x.cfg", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_missing_command_exits_1(self):
        assert main([]) == 1

    def test_stiff_constant_model_file_passes_under_backward_euler(self, tmp_path):
        # h lambda_max reaches about 1e11 here; with fixed steps of 0.05 e-folds
        # of the paper's velocity rate, late records jittered over the velocity
        # envelope by rounding.
        path = tmp_path / "stiff.cfg"
        path.write_text(STIFF_CONFIG.replace("method = rk4", "method = be"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "stiff_summary.txt").read_text()
        block = summary[summary.index("[monitors]"):].splitlines()[1:]
        assert block and all(line.endswith("-> PASS") for line in block)

    @pytest.mark.parametrize("masses, densities", [
        ("66.335209e-27 139.14984e-27 218.01714e-27", "1e30 1e30 1e-300"),
        ("66.335209e-27 139.14984e-27 1e10", "1e30 1e30 1e300"),
    ], ids=["underflow", "overflow"])
    def test_a_mass_density_out_of_range_is_named(self, masses, densities, tmp_path, capsys):
        path = tmp_path / "dense.cfg"
        path.write_text(
            STIFF_CONFIG.replace("66.335209e-27 139.14984e-27 218.01714e-27", masses)
            .replace("3e28 2e28 1e28", densities)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: species 'Xe': mass density m * n must be positive")

    def test_monitor_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "unstable.cfg"
        path.write_text(UNSTABLE_CONFIG)
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "verification: FAIL" in capsys.readouterr().out
        summary = (tmp_path / "unstable_summary.txt").read_text()
        assert "velocity_bounds -> FAIL" in summary
        assert "overall -> FAIL" in summary

        # the trajectory's own monitors reach the same verdict
        scenario = parse_config(path)
        state = scenario.initial_state()
        trajectory = simulate(state, resolved(scenario), scenario.model)
        assert not all(report.velocity_bounds_ok for report in trajectory.monitors)

    def test_large_backward_euler_step_fails_the_velocity_envelope(self, tmp_path, capsys):
        # rate * dt ~ 5: the per-step damping 1/(1 + z dt) cannot keep up with
        # exp(-z t), by far more than the rounding allowance.
        argv = ["--example", "2", "--dt", "7.3e-13", "--t-final", "3.44652915625057957e-12"]
        code = main(["run", *argv, "--out", str(tmp_path)])
        assert code == 2
        assert "verification: FAIL" in capsys.readouterr().out
        summary = (tmp_path / "example2_summary.txt").read_text()
        assert "envelope_velocity -> FAIL" in summary

    def test_edited_derived_columns_change_no_verdict(self, tmp_path):
        # The verdicts read the t, u and E columns only: an envelope column
        # scaled to pass leaves the block as is.  The temperature columns
        # are the mixture's identity, so an impossible temperature is refused.
        argv = ["--example", "2", "--dt", "7.3e-13", "--t-final", "3.44652915625057957e-12"]
        assert main(["run", *argv, "--out", str(tmp_path)]) == 2
        path = tmp_path / "example2_trajectory.csv"
        scenario = presets()[2]
        block = monitor_block(read_trajectory_csv(path), scenario)
        assert "\n".join(block) in (tmp_path / "example2_summary.txt").read_text()
        assert "envelope_velocity -> FAIL" in block

        header, *rows = path.read_text().splitlines()
        names = header.split(",")
        matrix = np.loadtxt(rows, delimiter=",", ndmin=2)
        matrix[:, names.index("env_velocity")] *= 1e6
        np.savetxt(path, matrix, "%.17e", ",", header=header, comments="")
        assert monitor_block(read_trajectory_csv(path), scenario) == block
        matrix[len(matrix) // 2, names.index("T_Ar_K")] = 1e9
        np.savetxt(path, matrix, "%.17e", ",", header=header, comments="")
        with pytest.raises(ValueError, match="T_<label>_K"):
            monitor_block(read_trajectory_csv(path), scenario)

    def test_hard_sphere_in_two_dimensions_exits_1(self, tmp_path, capsys):
        path = tmp_path / "planar.cfg"
        path.write_text(
            GOOD_CONFIG.replace("80 0 0 ; -10 5 0", "80 0 ; -10 5")
            + "dt_s = 1e-13\nt_final_s = 1e-12\n"
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "d = 3" in capsys.readouterr().err

    def test_model_is_checked_against_the_mixture_with_both_settings_given(self, tmp_path):
        # record_zero derives the decay constants whatever is given, so it
        # refuses hard spheres outside d = 3 before any run.
        path = tmp_path / "planar.cfg"
        path.write_text(
            GOOD_CONFIG.replace("80 0 0 ; -10 5 0", "80 0 ; -10 5")
            + "dt_s = 1e-13\nt_final_s = 1e-12\n"
        )
        with pytest.raises(ValueError, match="d = 3"):
            record_zero(parse_config(path))

    def test_integrator_failure_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "run", "--example", "3", "--method", "rk4",
                "--dt", "1e-10", "--t-final", "1e-9", "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert "integrator failure" in capsys.readouterr().err

    def test_method_override_keeps_an_explicit_step(self, tmp_path):
        path = tmp_path / "stepped.cfg"
        path.write_text(GOOD_CONFIG + "dt_s = 2e-13\nt_final_s = 1e-12\n")
        code = main(["run", "--config", str(path), "--method", "be", "--out", str(tmp_path)])
        assert code == 0
        summary = (tmp_path / "stepped_summary.txt").read_text().splitlines()
        assert f"dt_s = {2e-13:.17e}" in summary
        assert "records = 6" in summary

    def test_overflowed_implicit_step_exits_3(self, tmp_path):
        # h Z overflows at dt = 1e300 on preset 2.
        result = run_cli(
            ["run", "--example", "2", "--dt", "1e300", "--t-final", "1e301", "--out", "."],
            tmp_path,
        )
        assert result.returncode == 3
        assert "integrator failure: " in result.stderr
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("integrator failure: implicit system: non-finite solution")
        assert "t = 1.000000000e+300" in line

    def test_step_below_the_overflow_of_h_z_passes(self, tmp_path, capsys):
        # At dt = 1e290 h Z and the heating stay finite, and every step
        # lands on the equilibrium.
        argv = ["run", "--example", "2", "--dt", "1e290", "--t-final", "1e291"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^records = 11, max Picard sweeps per step = \d+$", out, re.M)
        assert out.endswith("verification: PASS\n")

    def test_non_finite_implicit_increment_exits_3(self, tmp_path):
        result = run_cli(
            ["run", "--example", "1", "--dt", "1e300", "--t-final", "1e300", "--out", "."],
            tmp_path,
        )
        assert result.returncode == 3
        [line] = result.stderr.splitlines()
        assert line.startswith("integrator failure: implicit system: ")
        assert "t = 1.000000000e+300" in line

    def test_one_unbounded_step_reaches_equilibrium(self, tmp_path, capsys):
        # Backward Euler at any step: dt = 1e100 solves both shifted
        # systems and lands on the equilibrium in one step.
        argv = ["run", "--example", "3", "--dt", "1e100", "--t-final", "1e100"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^records = 2, max Picard sweeps per step = \d+$", out, re.M)
        assert out.endswith("verification: PASS\n")

    def test_overflowing_rk4_stages_exit_3(self, tmp_path):
        config = OVERFLOWING_RK4_CONFIG.replace("t_final_s = 1e-5", "t_final_s = 2e-5")
        (tmp_path / "overflow.cfg").write_text(config)
        result = run_cli(["run", "--config", "overflow.cfg", "--out", "."], tmp_path)
        assert result.returncode == 3
        assert "integrator failure: " in result.stderr
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("integrator failure: ")

    def test_huge_finite_records_fail_without_a_warning(self, tmp_path):
        # The run's ten steps end finite; its verifier ignores the overflows
        # of their huge values, as the stepping does, and fails its monitors.
        (tmp_path / "overflow.cfg").write_text(OVERFLOWING_RK4_CONFIG)
        result = run_cli(["run", "--config", "overflow.cfg", "--out", "."], tmp_path)
        assert result.returncode == 2
        assert result.stderr == ""
        assert "records = 11," in result.stdout
        assert result.stdout.endswith("verification: FAIL\n")

    def test_uncountable_step_count_exits_1(self, tmp_path, capsys):
        code = main(["run", "--example", "1", "--dt", "1e-300", "--out", str(tmp_path)])
        assert code == 1
        assert "error: t_final / dt" in capsys.readouterr().err

    def test_uncountable_controlled_step_count_exits_1(self, tmp_path, capsys):
        # No --dt: error-controlled steps of at most max_dt, about 1e-13 s
        # here, would need more than 1e113 of them, so the run is refused
        # before it starts rather than stepping until memory runs out.
        code = main(["run", "--example", "1", "--t-final", "1e100", "--out", str(tmp_path)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: t_final / max_dt = ") and line.endswith(" steps, too many")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        pytest.param(["--example", "2", "--dt", "1e-30"], id="fixed-9e17"),
        pytest.param(["--example", "1", "--t-final", "1e-3"], id="controlled-1e10"),
        pytest.param(["--example", "1", "--method", "rk4", "--t-final", "1e-6"], id="rk4-2e7"),
    ])
    def test_a_run_beyond_the_step_budget_exits_1_before_it_starts(self, args, tmp_path):
        # Each plans more than MAX_STEPS recorded steps; every step is held in
        # memory, so without the budget each would run until it is killed.
        result = run_cli(["run", *args, "--out", "."], tmp_path, timeout=30)
        assert result.returncode == 1
        [line] = result.stderr.splitlines()
        assert re.fullmatch(r"error: t_final / (max_)?dt = \S+ steps, too many", line)
        assert result.stdout == "" and not list(tmp_path.iterdir())

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        flag_dir = tmp_path / "flag_out"
        monkeypatch.setenv("MIXBGK_OUT", str(env_dir))
        code = main(
            ["run", "--example", "1", "--t-final", "3e-13", "--out", str(flag_dir)]
        )
        assert code == 0
        assert (env_dir / "example1_summary.txt").exists()
        assert not flag_dir.exists()

    def test_an_empty_env_var_leaves_the_out_dir(self, tmp_path, monkeypatch, capsys):
        # An empty MIXBGK_OUT counts as unset: the run writes into --out,
        # not into a directory named ''.
        flag_dir = tmp_path / "flag_out"
        monkeypatch.setenv("MIXBGK_OUT", "")
        code = main(
            ["run", "--example", "1", "--t-final", "3e-13", "--out", str(flag_dir)]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (flag_dir / "example1_summary.txt").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("via", ["--out", "MIXBGK_OUT"])
    def test_unusable_out_dir_fails_before_the_run(self, via, below, tmp_path, capsys,
                                                   monkeypatch):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        target = blocker / "out" if below else blocker

        def no_run(*args):
            raise AssertionError("simulate ran before the output directory was checked")

        monkeypatch.setattr(cli_mod, "simulate", no_run)
        argv = ["run", "--example", "1", "--t-final", "3e-13"]
        if via == "--out":
            argv += ["--out", str(target)]
        else:
            monkeypatch.setenv("MIXBGK_OUT", str(target))
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(target) in line

    def test_unwritable_output_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "example1_trajectory.csv").mkdir()
        argv = ["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "example1_trajectory.csv" in line
        assert "verification" not in captured.out

    @pytest.mark.parametrize("blocked", ["envelopes.csv", "summary.txt"])
    def test_failed_output_set_leaves_no_file_behind(self, tmp_path, capsys, blocked):
        older = b"t,older\n1,2\n"
        (tmp_path / "example1_trajectory.csv").write_bytes(older)
        (tmp_path / f"example1_{blocked}").mkdir()
        argv = ["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and f"example1_{blocked}" in line
        # No new output file and no temporary file; the older trajectory keeps its bytes.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["example1_trajectory.csv", f"example1_{blocked}"]
        )
        assert (tmp_path / "example1_trajectory.csv").read_bytes() == older
        assert list((tmp_path / f"example1_{blocked}").iterdir()) == []

    def test_summary_reports_decay_constants(self, tmp_path):
        main(["run", "--example", "2", "--t-final", "3e-13", "--out", str(tmp_path)])
        summary = (tmp_path / "example2_summary.txt").read_text()
        for key in (
            "velocity_rate_per_s",
            "energy_rate_per_s",
            "velocity_amplitude_ms",
            "temperature_K",
            "eigenvalue_bracket -> PASS",
        ):
            assert key in summary

    def test_default_horizon_reaches_steady_state(self, tmp_path):
        # full default horizon (10 e-folds of the floor gap): example 1
        # ends within 0.1% of 2000 K, example 2 within 0.1% of the
        # mass-weighted mean velocity
        assert main(["run", "--example", "1", "--out", str(tmp_path)]) == 0
        columns1 = csv_columns(tmp_path / "example1_trajectory.csv")
        temperatures = [columns1[f"T_{sp.label}_K"][-1] for sp in presets()[1].species]
        assert np.all(np.abs(np.array(temperatures) - 2000.0) <= 0.001 * 2000.0)

        assert main(["run", "--example", "2", "--out", str(tmp_path)]) == 0
        table2 = read_trajectory_csv(tmp_path / "example2_trajectory.csv")
        scenario = presets()[2]
        rho = np.array([s.mass for s in scenario.species]) * scenario.number_densities
        u_target = float(rho @ scenario.velocities[:, 0] / rho.sum())
        assert np.all(
            np.abs(table2.velocities[-1, :, 0] - u_target) <= 0.001 * abs(u_target)
        )


# Argon, krypton and xenon at one temperature and one velocity: a mixture
# that starts at its equilibrium, so the envelopes are rounding-sized.
EQUILIBRIUM_CONFIG = """\
labels = Ar Kr Xe
masses_kg = 66.335209e-27 139.14984e-27 218.01714e-27
diameters_m = 3.659e-10 4.199e-10 4.939e-10
number_densities_m3 = 3e28 2e28 1e28
temperatures_K = 1000 1000 1000
velocities_ms = 100 0 0 ; 100 0 0 ; 100 0 0
"""

SINGLE_SPECIES_CONFIG = """\
labels = Ar
masses_kg = 66.335209e-27
diameters_m = 3.659e-10
number_densities_m3 = 3e28
temperatures_K = 1000
velocities_ms = 100 0 0
"""


# Two species of very different density at one temperature and one velocity:
# an equilibrium start whose fixed step DISPARATE_DT_S, 0.05 e-folds of the
# paper's velocity rate, takes (dt/eps) times the largest eigenvalue of Z to
# about 24, and of Z-hat to about 50.
DISPARATE_EQUILIBRIUM_CONFIG = """\
labels = a b
masses_kg = 1.2135449509165878e-26 4.1173786279061756e-26
diameters_m = 4.946245158333872e-10 2.886698074762746e-10
number_densities_m3 = 1.0589003379490899e+28 1.8015146340918628e+26
temperatures_K = 1859.0429543693763 1859.0429543693763
velocities_ms = -115.97204919342202 152.87533547583277 87.58650153923055 ; \
-115.97204919342202 152.87533547583277 87.58650153923055
"""
DISPARATE_DT_S = "7.73093860325689055e-12"


class TestEnvelopeRoundingAllowance:
    @pytest.mark.parametrize("text", [EQUILIBRIUM_CONFIG, SINGLE_SPECIES_CONFIG],
                             ids=["equilibrium_start", "single_species"])
    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_rounding_sized_deviations_pass(self, text, method, tmp_path):
        path = tmp_path / "start.cfg"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--method", method, "--out", str(tmp_path)])
        summary = (tmp_path / "start_summary.txt").read_text()
        assert "FAIL" not in summary
        assert code == 0

    def test_a_perturbed_energy_still_fails(self, tmp_path):
        path = tmp_path / "start.cfg"
        path.write_text(EQUILIBRIUM_CONFIG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        scenario = parse_config(path)
        table = read_trajectory_csv(tmp_path / "start_trajectory.csv")
        assert "overall -> PASS" in monitor_block(table, scenario)
        for species in range(3):
            perturbed = read_trajectory_csv(tmp_path / "start_trajectory.csv")
            perturbed.energies[len(perturbed.times) // 2, species] *= 1.0 + 1e-12
            lines = monitor_block(restate(perturbed, scenario), scenario)
            assert "envelope_energy -> FAIL" in lines
            assert "energy_drift_max" in lines[2] and lines[2].endswith("PASS")

    def test_stiff_equilibrium_start_passes_every_envelope(self, tmp_path):
        # A step solved for the new state rounds by about (dt/eps) ||Z|| eps |u|,
        # beyond the envelope allowance here; the increment of an equilibrium
        # step is itself rounding-sized.
        path = tmp_path / "start.cfg"
        path.write_text(DISPARATE_EQUILIBRIUM_CONFIG)
        code = main(["run", "--config", str(path), "--dt", DISPARATE_DT_S, "--out", str(tmp_path)])
        summary = (tmp_path / "start_summary.txt").read_text()
        for name in ("velocity", "energy", "temperature"):
            assert f"envelope_{name} -> PASS" in summary
        assert "FAIL" not in summary
        assert code == 0


def savetxt_bytes(path, columns, matrix):
    """The bytes ``np.savetxt`` writes for a CSV of ``columns`` over ``matrix``."""
    np.savetxt(
        path, matrix, output_mod.CSV_FORMAT, ",", header=",".join(columns), comments="",
        encoding="utf-8",
    )
    return path.read_bytes()


def special_values_matrix():
    """Signed zeros in one column, infinities, NaNs of both signs and with a
    payload, the extremes of the float range, and values repeated within and
    across columns."""
    signed_nan = np.copysign(np.nan, -1.0)
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    top = np.finfo(float).max
    return np.array([
        [0.0, np.inf, np.nan, 5e-324, top, 1.5],
        [-0.0, -np.inf, signed_nan, -5e-324, -top, 1.5],
        [0.0, 1.5, payload_nan, 5e-324, 0.1, -0.0],
        [-0.0, np.inf, np.nan, 1.5, 0.1, 0.0],
    ])


class TestCsvWriter:
    """``_write_csvs`` formats each distinct value once and writes savetxt's bytes."""

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param(special_values_matrix(), id="special_values"),
            pytest.param(np.array([[0.0, -0.0, 1.0, np.nan]]), id="single_row"),
            pytest.param(
                np.random.default_rng(28).standard_normal((200, 24)), id="all_distinct"
            ),
        ],
    )
    def test_bytes_equal_savetxt(self, matrix, tmp_path):
        columns = [f"c{k}" for k in range(matrix.shape[1])]
        output_mod._write_csvs([(tmp_path / "written.csv", columns, matrix)])
        expected = savetxt_bytes(tmp_path / "savetxt.csv", columns, matrix)
        assert (tmp_path / "written.csv").read_bytes() == expected

    def test_files_of_one_call_equal_savetxt(self, tmp_path):
        # Values shared across the files, values of one file only, and a
        # last file all of whose values the file before it held.
        shared = special_values_matrix()
        other = np.column_stack([shared[:, ::-1], np.arange(4.0)])
        files = [
            (tmp_path / "first.csv", [f"a{k}" for k in range(6)], shared),
            (tmp_path / "second.csv", [f"b{k}" for k in range(7)], other),
            (tmp_path / "third.csv", [f"c{k}" for k in range(6)], shared[::-1]),
        ]
        output_mod._write_csvs(files)
        for path, columns, matrix in files:
            assert path.read_bytes() == savetxt_bytes(tmp_path / "savetxt.csv", columns, matrix)

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_preset_files_equal_savetxt(self, method, tmp_path, monkeypatch):
        # The trajectory and envelope matrices of every preset, whose
        # conserved totals, floor and equilibrium plateau repeat.
        written = []
        write_csvs = output_mod._write_csvs

        def recorded(files):
            write_csvs(files)
            written.extend(
                (Path(path).read_bytes(), columns, matrix.copy()) for path, columns, matrix in files
            )

        monkeypatch.setattr(output_mod, "_write_csvs", recorded)
        for example in ("1", "2", "3"):
            horizon = ["--t-final", "9.6e-12"] if (method, example) == ("rk4", "3") else []
            args = ["run", "--example", example, "--method", method, *horizon]
            assert main([*args, "--out", str(tmp_path)]) == 0
        assert len(written) == 6
        for data, columns, matrix in written:
            assert data == savetxt_bytes(tmp_path / "savetxt.csv", columns, matrix)

    def test_one_run_writes_both_csvs_in_one_call(self, tmp_path, monkeypatch):
        # The two CSVs of a run share their time and envelope columns, so
        # the output set formats both in one call, each distinct value once.
        calls = []
        write_csvs = output_mod._write_csvs

        def counted(*args):
            calls.append(args)
            return write_csvs(*args)

        monkeypatch.setattr(output_mod, "_write_csvs", counted)
        assert main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)]) == 0
        [(files,)] = calls
        assert [Path(path).name.split(".")[0] for path, _, _ in files] == [
            "example1_trajectory", "example1_envelopes"
        ]

    def test_output_set_writes_the_matrices_of_its_state(self, tmp_path):
        # A run's table with shared values, -0.0, a NaN payload and a
        # subnormal: the output set's two matrices are, bit for bit, those
        # the file builders make from the envelopes of record 0 and the
        # temperatures of the state, derived here through public names, and
        # its bytes are savetxt's.
        scenario = presets()[1]
        first = record_zero(scenario)
        cfg = replace(resolve_integrator(scenario, first), t_final=3e-13)
        run = simulate(first.state, cfg, scenario.model)
        velocities, energies = run.velocities.copy(), run.energies.copy()
        velocities[1:, 0, 0] = -0.0
        velocities[2, 1, 2] = 5e-324
        energies[-1, 2] = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
        trajectory = Trajectory(run.times, velocities, energies, run.sweeps, run.composition)
        matrices = []
        write_csvs = output_mod._write_csvs

        def recorded(files):
            matrices.extend((columns, matrix.copy()) for _, columns, matrix in files)
            write_csvs(files)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(output_mod, "_write_csvs", recorded)
            output_mod.write_output_set(str(tmp_path / "set"), scenario, cfg, trajectory, first)
        composition = trajectory.composition
        constants = decay_constants_of(
            MomentState(composition, velocities[0], energies[0]), scenario.model
        )
        envelopes = decay_envelopes(constants, scenario.eps, trajectory.times)
        # temperatures_of reads only these three fields, so it takes the
        # stacked records, the NaN one among them, that a MomentState refuses.
        stacked = SimpleNamespace(composition=composition, velocities=velocities, energies=energies)
        temps_k = energy_to_kelvin(temperatures_of(stacked))
        expected = [
            output_mod._trajectory_file(trajectory, envelopes, temps_k),
            output_mod._envelope_file(trajectory, envelopes, constants.equilibrium, temps_k),
        ]
        assert len(matrices) == 2
        for kind, (columns, matrix), (want_columns, want) in zip(
            ("trajectory", "envelopes"), matrices, expected
        ):
            assert columns == want_columns
            assert np.array_equal(matrix.view(np.int64), want.view(np.int64))
            data = (tmp_path / f"set_{kind}.csv").read_bytes()
            assert data == savetxt_bytes(tmp_path / "savetxt.csv", columns, matrix)
        trajectory_matrix = matrices[0][1]
        bits = trajectory_matrix.view(np.int64)
        assert np.signbit(trajectory_matrix[1:, 1]).all()  # -0.0 in u_Ar_1
        assert (trajectory_matrix == 5e-324).any()
        assert (bits == 0x7FF8000000000123).any()
        # The time column and the envelopes are shared by both files.
        assert np.array_equal(trajectory_matrix[:, 0], matrices[1][1][:, 0])
