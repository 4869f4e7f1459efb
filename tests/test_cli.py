"""Presets, config parsing, CSV emission/round-trip, and CLI exit codes."""

from dataclasses import replace

import numpy as np
import pytest

import mixbgk.output as output_mod
from mixbgk import (
    GASES,
    energy_to_kelvin,
    is_realizable,
    parse_config,
    presets,
    resolve_integrator,
    simulate,
    steady_state,
)
from mixbgk.cli import main
from mixbgk.output import monitor_block, read_trajectory_csv
from mixbgk.scenarios import RK4_MAX_STEPS, ScenarioError

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
output_stride = 2
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
            assert is_realizable(scenario.initial_state(), floor=0.0)

    def test_rk4_cap_spares_an_explicit_horizon(self):
        scenario = replace(presets()[3], method="rk4")
        derived = resolve_integrator(scenario)
        assert derived.t_final == RK4_MAX_STEPS * derived.dt
        explicit = resolve_integrator(replace(scenario, t_final=1e-9))
        assert explicit.dt == derived.dt
        assert explicit.t_final == 1e-9

    def test_default_settings_resolve(self):
        for scenario in presets().values():
            cfg = resolve_integrator(scenario)
            assert cfg.dt > 0.0
            assert cfg.t_final > cfg.dt


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
        assert scenario.output_stride == 2
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
        scenario = parse_config(path)
        with pytest.raises(ScenarioError, match="constant_frequencies"):
            scenario.frequency_model()

    def test_unstable_config_parses(self, tmp_path):
        path = tmp_path / "unstable.cfg"
        path.write_text(UNSTABLE_CONFIG)
        scenario = parse_config(path)
        np.testing.assert_array_equal(scenario.constant_frequencies, np.ones((2, 2)))
        assert scenario.method == "rk4"
        assert scenario.dt == 3.0


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

    def test_too_tight_bracket_fails(self, tmp_path, monkeypatch):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        original = output_mod.eigenvalue_brackets

        def tight(momentum, energy, rho, n):
            brackets = original(momentum, energy, rho, n)
            brackets[..., 0, 0] = 2.0 * brackets[..., 0, 1]  # velocity lower above upper
            return brackets

        monkeypatch.setattr(output_mod, "eigenvalue_brackets", tight)
        block = monitor_block(table, presets()[1])
        assert "eigenvalue_bracket -> FAIL" in block
        assert block[-1] == "overall -> FAIL"

    def test_nonpositive_temperature_fails_without_raising(self, tmp_path):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        table.energies[len(table.energies) // 2, 0] *= -1.0
        block = monitor_block(table, presets()[1])
        assert "realizability -> FAIL" in block
        assert block[-1] == "overall -> FAIL"

    def test_temperature_below_floor_is_still_realizable(self, tmp_path):
        main(["run", "--example", "1", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        # Preset 1 has zero velocities and its first species starts coldest, so
        # half that species' initial energy is half the floor: below it, yet positive.
        table.energies[len(table.energies) // 2, 0] = 0.5 * table.energies[0, 0]
        block = monitor_block(table, presets()[1])
        assert any(
            line.startswith("temperature_floor_min_K") and line.endswith("-> FAIL")
            for line in block
        )
        assert "realizability -> PASS" in block
        assert block[-1] == "overall -> FAIL"

    def test_envelope_csv_content(self, tmp_path):
        main(["run", "--example", "2", "--t-final", "3e-13", "--out", str(tmp_path)])
        table = read_trajectory_csv(tmp_path / "example2_trajectory.csv")
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
                np.abs(table.temperatures_kelvin[:, i] - energy_to_kelvin(eq.temperature)),
                rtol=1e-14,
            )
        np.testing.assert_allclose(
            columns["dev_energy"],
            np.sqrt(((table.energies - eq.energies) ** 2).sum(axis=1)),
            rtol=1e-14,
        )
        # the envelopes and times are the trajectory CSV's, bit for bit
        np.testing.assert_array_equal(columns["t"], table.times)
        np.testing.assert_array_equal(columns["env_velocity"], table.envelope_velocity)
        np.testing.assert_array_equal(columns["env_energy"], table.envelope_energy)
        np.testing.assert_array_equal(
            columns["env_temperature_K"], table.envelope_temperature_kelvin
        )

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
        # a rewrite is byte-identical
        from mixbgk.output import write_trajectory_csv

        copy = tmp_path / "copy.csv"
        write_trajectory_csv(copy, table)
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
        assert "error: eps must be positive" in capsys.readouterr().err

    def test_conflicting_sources_exit_1(self, tmp_path):
        code = main(
            ["run", "--example", "1", "--config", "x.cfg", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_missing_command_exits_1(self):
        assert main([]) == 1

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
        state, model = scenario.initial_state(), scenario.frequency_model()
        trajectory = simulate(state, resolve_integrator(scenario, state, model), model)
        assert not all(report.velocity_bounds_ok for report in trajectory.monitors)

    def test_hard_sphere_in_two_dimensions_exits_1(self, tmp_path, capsys):
        path = tmp_path / "planar.cfg"
        path.write_text(
            GOOD_CONFIG.replace("80 0 0 ; -10 5 0", "80 0 ; -10 5")
            + "dt_s = 1e-13\nt_final_s = 1e-12\n"
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "d = 3" in capsys.readouterr().err

    def test_integrator_failure_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "run", "--example", "3", "--method", "rk4",
                "--dt", "1e-10", "--t-final", "1e-9", "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert "integrator failure" in capsys.readouterr().err

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
        # full default horizon (10 e-folds of the slowest conservative
        # rate): example 1 ends within 0.1% of 2000 K, example 2 within
        # 0.1% of the mass-weighted mean velocity
        assert main(["run", "--example", "1", "--out", str(tmp_path)]) == 0
        table1 = read_trajectory_csv(tmp_path / "example1_trajectory.csv")
        assert np.all(np.abs(table1.temperatures_kelvin[-1] - 2000.0) <= 0.001 * 2000.0)

        assert main(["run", "--example", "2", "--out", str(tmp_path)]) == 0
        table2 = read_trajectory_csv(tmp_path / "example2_trajectory.csv")
        scenario = presets()[2]
        rho = np.array([s.mass for s in scenario.species]) * scenario.number_densities
        u_target = float(rho @ scenario.velocities[:, 0] / rho.sum())
        assert np.all(
            np.abs(table2.velocities[-1, :, 0] - u_target) <= 0.001 * abs(u_target)
        )
