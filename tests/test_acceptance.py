"""Acceptance gate: every verification criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Each test prints its line only after all of its assertions
hold.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mixbgk import (
    ConstantMatrix,
    HardSphere,
    IntegratorConfig,
    MixtureComposition,
    SpeciesParams,
    conservative_decay_rate,
    decay_constants,
    decay_envelopes,
    presets,
    scaled_energies,
    scaled_velocities,
    simulate,
    state_from_temperatures,
    steady_state,
    temperatures_of,
)
from mixbgk.oracles import (
    assemble,
    energy_rhs,
    momentum_rhs,
    symmetric_eigenvalues,
    temperature_rhs,
)
from mixbgk.collisions import operators, run_constants
from mixbgk.output import FLOOR_SLACK, record_monitors

from conftest import core_operators, decay_constants_of, random_state, resolved

DRIFT_TOL = 1e-9
FLOOR_TOL = 1e-9
ENVELOPE_TOL = 1e-9
BRACKET_SLACK = 1e-10
PROJECTION_TOL = 1e-10


def run_preset(k, method):
    scenario = replace(presets()[k], method=method)
    state = scenario.initial_state()
    model = scenario.model
    cfg = resolved(scenario)
    start = time.perf_counter()
    trajectory = simulate(state, cfg, model)
    wall = time.perf_counter() - start
    return dict(
        scenario=scenario, state=state, model=model, cfg=cfg,
        trajectory=trajectory, wall=wall,
    )


@pytest.fixture(scope="module")
def preset_runs():
    return {
        (k, method): run_preset(k, method)
        for k in (1, 2, 3)
        for method in ("be", "rk4")
    }


@pytest.fixture(scope="module")
def random_suite():
    """100 random realizable states (N in 1..4, d = 3) with short BE and
    RK4 trajectories at method-appropriate steps."""
    rng = np.random.default_rng(2024)
    suite = []
    for index in range(100):
        n_species = 1 + index % 4
        state = random_state(rng, n_species)
        model = HardSphere()
        velocity_rate, energy_rate = conservative_decay_rate(state, model)
        runs = {}
        dt_be = 0.05 / velocity_rate
        runs["be"] = simulate(
            state, IntegratorConfig(dt=dt_be, t_final=40 * dt_be), model
        )
        z, z_hat, _, _ = core_operators(state, model)
        fastest = max(symmetric_eigenvalues(z).max(), symmetric_eigenvalues(z_hat).max())
        dt_rk4 = 0.5 / fastest if fastest > 0.0 else dt_be
        runs["rk4"] = simulate(
            state,
            IntegratorConfig(dt=dt_rk4, t_final=15 * dt_rk4, method="rk4"),
            model,
        )
        suite.append(dict(state=state, model=model, runs=runs))
    return suite


class TestCriterion1SteadyStates:
    def test_steady_state_values_and_runtime(self, preset_runs):
        # Example 1: temperatures relax to 2000 K (equal-density mean)
        run1 = preset_runs[(1, "be")]
        final_temps = temperatures_of(run1["trajectory"].states[-1])
        from mixbgk.species import kelvin_to_energy

        target = kelvin_to_energy(2000.0)
        assert np.all(np.abs(final_temps - target) <= 1e-3 * target)

        # Example 2: velocities relax to the mass-weighted mean
        run2 = preset_runs[(2, "be")]
        scenario2 = run2["scenario"]
        rho = np.array([s.mass for s in scenario2.species]) * scenario2.number_densities
        u_target = rho @ scenario2.velocities / rho.sum()  # one-line oracle
        final_u = run2["trajectory"].velocities[-1]
        assert np.all(
            np.linalg.norm(final_u - u_target[None, :], axis=1)
            <= 1e-3 * np.linalg.norm(u_target)
        )

        # Example 3: common velocity and temperature from the conserved-
        # moment formulas, evaluated independently of the library
        run3 = preset_runs[(3, "be")]
        scenario3 = run3["scenario"]
        state3 = run3["state"]
        rho3 = state3.composition.mass_densities
        n3 = state3.composition.number_densities
        temps0 = temperatures_of(state3)
        u0 = state3.velocities
        u_inf = rho3 @ u0 / rho3.sum()
        t_inf = (
            n3 @ temps0
            + rho3 @ (np.einsum("ik,ik->i", u0, u0) - u_inf @ u_inf) / 3.0
        ) / n3.sum()
        final3 = run3["trajectory"].states[-1]
        assert np.all(
            np.linalg.norm(final3.velocities - u_inf[None, :], axis=1)
            <= 1e-3 * np.linalg.norm(u_inf)
        )
        assert np.all(np.abs(temperatures_of(final3) - t_inf) <= 1e-3 * t_inf)

        walls = {k: preset_runs[(k, "be")]["wall"] for k in (1, 2, 3)}
        assert all(w < 5.0 for w in walls.values())
        print(
            "\n[criterion 1] PASS - preset steady states within 0.1% "
            f"(walls: {', '.join(f'{w:.2f}s' for w in walls.values())})"
        )

    @pytest.mark.parametrize("method, margin", [("be", 2.0), ("rk4", 1.0)])
    def test_presets_end_at_equilibrium(self, preset_runs, method, margin):
        # The measures of the benchmark's check: the velocity error relative
        # to the initial deviation, the temperature error relative to T_eq,
        # both within 0.1 % at the last record (backward Euler with a 2x
        # margin), which sits at the lambda_2 horizon resolve_integrator
        # derives for RK4 (no override).
        tolerance = 1e-3 / margin
        for k in (1, 2, 3):
            run = preset_runs[(k, method)]
            eq, u0 = steady_state(run["state"]), run["state"].velocities
            final = run["trajectory"].states[-1]
            deviation = max(np.abs(u0 - eq.velocity).max(), 1e-300)
            assert np.abs(final.velocities - eq.velocity).max() <= tolerance * deviation
            assert np.abs(temperatures_of(final) - eq.temperature).max() <= (
                tolerance * eq.temperature
            )
            assert run["trajectory"].times[-1] == run["cfg"].t_final
            assert run["cfg"].t_final == preset_runs[(k, "rk4")]["cfg"].t_final
            assert run["scenario"].t_final is None
        print(f"\n[criterion 1] PASS - {method} presets within {tolerance:g} of equilibrium "
              "at their horizons")


class TestCriterion2Conservation:
    def test_drift_below_1e9_for_both_integrators(self, preset_runs):
        worst = 0.0
        for (k, method), run in preset_runs.items():
            for report in run["trajectory"].monitors:
                worst = max(
                    worst, report.total_momentum_drift, report.total_energy_drift
                )
                assert report.total_momentum_drift <= DRIFT_TOL
                assert report.total_energy_drift <= DRIFT_TOL
        print(f"\n[criterion 2] PASS - worst conservation drift {worst:.2e} <= 1e-9")


class TestCriterion3TemperatureFloor:
    def test_floor_on_presets_and_random_suite(self, preset_runs, random_suite):
        def check(trajectory):
            floor = trajectory.monitors[0].min_temperature
            for report in trajectory.monitors:
                assert report.min_temperature >= floor * (1.0 - FLOOR_TOL)

        for run in preset_runs.values():
            check(run["trajectory"])
        for entry in random_suite:
            for trajectory in entry["runs"].values():
                check(trajectory)
        print(
            "\n[criterion 3] PASS - temperature floor held on 6 preset runs "
            "and 200 random-state runs"
        )


class TestCriterion4VelocityEnvelope:
    def test_componentwise_bounds_everywhere(self, preset_runs, random_suite):
        for run in preset_runs.values():
            assert all(r.velocity_bounds_ok for r in run["trajectory"].monitors)
        for entry in random_suite:
            for trajectory in entry["runs"].values():
                assert all(r.velocity_bounds_ok for r in trajectory.monitors)
        print(
            "\n[criterion 4] PASS - componentwise velocity bounds held on the "
            "full suite"
        )


class TestCriterion5DecayEnvelopes:
    def test_envelope_dominance_on_presets(self, preset_runs):
        slack_report = []
        for (k, method), run in preset_runs.items():
            state, model = run["state"], run["model"]
            trajectory = run["trajectory"]
            constants = decay_constants_of(state, model)
            eq = steady_state(state)
            env_u, env_e, env_t = decay_envelopes(
                constants, run["cfg"].eps, trajectory.times
            )
            velocities, energies = trajectory.velocities, trajectory.energies
            temps = record_monitors(state.composition, velocities, energies).temperatures
            dev_u = np.linalg.norm(velocities - eq.velocity, axis=2).max(axis=1)
            dev_e = np.linalg.norm(energies - eq.energies, axis=1)
            dev_t = np.abs(temps - eq.temperature).max(axis=1)
            assert np.all(dev_u <= env_u * (1.0 + ENVELOPE_TOL))
            assert np.all(dev_e <= env_e * (1.0 + ENVELOPE_TOL))
            assert np.all(dev_t <= env_t * (1.0 + ENVELOPE_TOL))
            with np.errstate(divide="ignore", invalid="ignore"):
                tightness = np.nanmax(
                    np.where(env_t > 0, dev_t / env_t, 0.0)
                )
            slack_report.append(f"ex{k}/{method} max dev/env {tightness:.2e}")
        print(
            "\n[criterion 5] PASS - analytic envelopes dominate all preset "
            "trajectories (" + "; ".join(slack_report[:3]) + ")"
        )


def _gap_and_allowance(coupling, z, weights):
    """lambda_2 of each operator of the (..., 2, N, N) stack [Z, Z-hat] and
    the allowance for its rounding, given the couplings C s that formed it.

    Two terms, in units of the unit roundoff u and to first order in u:
    - forming Z = (degree I - C s) / scale, with the couplings as data:
      a degree sums N terms ((N - 1) u), the diagonal subtraction, the
      stored sqrt(w_i) sqrt(w_j) (3 u) and the division add 5 u, so
      |dZ_ii| <= (N + 4) u degree_i / w_i; off the diagonal the negation
      is exact, so |dZ_ij| <= 4 u C_ij s_ij / sqrt(w_i w_j).  Weyl's
      inequality moves lambda_2 by at most ||dZ||_2 <= ||dZ||_F.
    - eigvalsh returns the eigenvalues of Z + E with ||E||_2 <= p(N) u
      ||Z||_2, p(N) a modestly growing function of N (LAPACK Users' Guide,
      3rd ed., section 4.7), taken here as N^2.
    ``weights`` is the (2, N) stack [rho, n].
    """
    u = np.finfo(float).eps / 2
    size = weights.shape[-1]
    eigenvalues = np.linalg.eigvalsh(z)
    degree = coupling.sum(axis=-1)
    root = np.sqrt(weights)
    off = 4.0 * coupling / (root[:, :, None] * root[:, None, :])
    off = off * (1.0 - np.eye(size))
    diagonal = (size + 4) * degree / weights
    forming = np.sqrt((off ** 2).sum(axis=(-2, -1)) + (diagonal ** 2).sum(axis=-1))
    solving = size ** 2 * np.abs(eigenvalues).max(axis=-1)
    return eigenvalues[..., 1], u * (forming + solving)


class TestCriterion6SpectralBracket:
    def test_bracket_on_200_random_states(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            state = random_state(rng, int(rng.integers(2, 5)))
            z, z_hat, _, brackets = core_operators(state, HardSphere())
            for operator, (lo, hi) in zip((z, z_hat), brackets):
                eigs = symmetric_eigenvalues(operator)
                positive = eigs[1:]  # drop the single null mode
                slack = BRACKET_SLACK * max(hi, abs(lo))
                assert np.all(positive >= lo - slack)
                assert np.all(positive <= hi + slack)
                checked += len(positive)
        print(
            f"\n[criterion 6] PASS - {checked} nonzero eigenvalues inside their "
            "brackets on 200 random states"
        )

    def test_constant_uniform_spectrum_is_tight_witness(self):
        n_species, a = 4, 2.0
        comp = MixtureComposition(
            tuple(
                SpeciesParams(mass=3.0, diameter=1.0, label=f"s{i}")
                for i in range(n_species)
            ),
            np.full(n_species, 7.0),
        )
        state = state_from_temperatures(
            comp, np.zeros((n_species, 3)), np.full(n_species, 5.0)
        )
        z, _, _, brackets = core_operators(
            state, ConstantMatrix(np.full((n_species, n_species), a))
        )
        eigs = symmetric_eigenvalues(z)
        expected = n_species * a / 2.0
        np.testing.assert_allclose(eigs[1:], expected, rtol=1e-12)
        velocity_lower, velocity_upper = brackets[0]
        assert velocity_lower == pytest.approx(expected, rel=1e-14)
        assert velocity_upper == pytest.approx(expected, rel=1e-14)
        print(
            "\n[criterion 6b] PASS - constant-frequency equal-density spectrum "
            f"equals N*a/2 = {expected} and both bracket ends touch it"
        )

    def test_floor_gap_bounds_every_recorded_gap(self, preset_runs, random_suite):
        # Every temperature stays at or above (1 - FLOOR_SLACK) T_floor, and
        # s_ij = sqrt(T_i/m_i + T_j/m_j), so the couplings C s are at least
        # sqrt(1 - FLOOR_SLACK) >= 1 - FLOOR_SLACK times those with every
        # species at T_floor, entrywise; C s rounds at most 3 u at each end,
        # hence the factor 1 - 6 u.  The difference of the two Laplacians is
        # a Laplacian with nonnegative weights, both operators share their
        # null vector, so by Courant-Fischer each lambda_2 of Z and Z-hat is
        # at least that factor times lambda_2 at the floor, which in turn is
        # at least the paper's bracket N min(C s) / max(w), rounded twice.
        # Each side allows for the rounding of the lambda_2 it reads.
        u = np.finfo(float).eps / 2
        factor = (1.0 - FLOOR_SLACK) * (1.0 - 6.0 * u)
        cases = [(run["state"], run["model"], [run["trajectory"]]) for run in preset_runs.values()]
        cases += [
            (entry["state"], entry["model"], list(entry["runs"].values()))
            for entry in random_suite
            if entry["state"].composition.size >= 2
        ]
        checked = 0
        for state, model, trajectories in cases:
            comp = state.composition
            const = run_constants(comp, model, state.dimension)
            weights = np.stack([comp.mass_densities, comp.number_densities])
            floor = np.full(comp.size, temperatures_of(state).min())
            floor_gap, floor_allowance = _gap_and_allowance(*operators(floor, const), weights)
            # The gaps that set every derived horizon are these, bit for bit.
            constants = decay_constants(state, const)
            assert [constants.velocity_gap, constants.energy_gap] == floor_gap.tolist()
            bracket = np.array(conservative_decay_rate(state, model))
            assert np.all(floor_gap >= bracket * (1.0 - 2.0 * u) - floor_allowance)
            lower = factor * (floor_gap - floor_allowance)
            for trajectory in trajectories:
                records = record_monitors(comp, trajectory.velocities, trajectory.energies)
                assert records.above_floor.all()
                coupling, z = operators(records.temperatures, const)
                gap, allowance = _gap_and_allowance(coupling, z, weights)
                assert np.all(gap >= lower - allowance)
                checked += gap.size
        print(
            f"\n[criterion 6c] PASS - {checked} recorded lambda_2 of Z and Z-hat at or above "
            f"lambda_2 at the floor, itself above the paper's bracket, on {len(cases)} mixtures"
        )


class TestCriterion7FormulationEquivalence:
    def test_raw_vs_scaled_on_1000_states(self):
        rng = np.random.default_rng(11)
        worst_rhs = worst_temp = 0.0
        for _ in range(1000):
            state = random_state(rng, int(rng.integers(1, 5)))
            comp = state.composition
            eps = float(rng.uniform(0.1, 2.0))
            mats = assemble(state, HardSphere())
            z, z_hat, source, _ = core_operators(state, HardSphere(), eps)

            dw_scaled = -z @ scaled_velocities(state) / eps
            dw_raw = momentum_rhs(state, mats, eps) / np.sqrt(comp.mass_densities)[:, None]
            scale_w = max(np.abs(dw_raw).max(), 1e-300)
            worst_rhs = max(worst_rhs, np.abs(dw_scaled - dw_raw).max() / scale_w)

            dxi_scaled = -z_hat @ scaled_energies(state) / eps + source
            dxi_raw = energy_rhs(state, mats, eps) / np.sqrt(comp.number_densities)
            scale_xi = max(np.abs(dxi_raw).max(), 1e-300)
            worst_rhs = max(worst_rhs, np.abs(dxi_scaled - dxi_raw).max() / scale_xi)

            direct = temperature_rhs(
                state,
                mats.frequencies,
                mats.velocity_weights,
                mats.temperature_weights,
                eps,
            )
            d = state.dimension
            du_dt = momentum_rhs(state, mats, eps) / comp.mass_densities[:, None]
            chain = (2.0 / (d * comp.number_densities)) * energy_rhs(state, mats, eps) - (
                2.0 * comp.masses / d
            ) * np.einsum("ik,ik->i", state.velocities, du_dt)
            scale_t = max(np.abs(chain).max(), 1e-300)
            worst_temp = max(worst_temp, np.abs(direct - chain).max() / scale_t)

        assert worst_rhs <= 1e-12
        assert worst_temp <= 1e-10
        print(
            f"\n[criterion 7] PASS - formulations agree on 1000 states "
            f"(raw/scaled {worst_rhs:.2e} <= 1e-12, temperature rate "
            f"{worst_temp:.2e} <= 1e-10)"
        )


class TestCriterion8IntegratorOracles:
    @staticmethod
    def _linear_pair():
        rho = (1.0, 0.5)
        m1, m2 = 1.0, 2.0
        comp = MixtureComposition(
            (
                SpeciesParams(mass=m1, diameter=1.0, label="a"),
                SpeciesParams(mass=m2, diameter=1.0, label="b"),
            ),
            [rho[0] / m1, rho[1] / m2],
        )
        state = state_from_temperatures(
            comp, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([1.0, 1.5])
        )
        lam = 1.0
        a12 = rho[0] * rho[1] * lam**2 / (rho[0] * lam + rho[1] * lam)
        rate = a12 * (1.0 / rho[0] + 1.0 / rho[1])
        return state, ConstantMatrix(np.full((2, 2), lam)), rate

    def _gap_error(self, method, steps):
        state, model, rate = self._linear_pair()
        t_final = 1.0 / rate
        cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method=method)
        final = simulate(state, cfg, model).velocities[-1]
        gap = final[0, 0] - final[1, 0]
        return abs(gap - np.exp(-1.0))

    def test_closed_form_match_and_convergence_orders(self):
        # trajectory level: RK4 with dt = t/1000 matches the exponential
        assert self._gap_error("rk4", 1000) <= 1e-8 * np.exp(-1.0)

        be_errors = [self._gap_error("be", s) for s in (64, 128, 256, 512)]
        be_orders = np.log2(np.array(be_errors[:-1]) / np.array(be_errors[1:]))
        assert np.all(np.abs(be_orders - 1.0) <= 0.1)

        rk4_errors = [self._gap_error("rk4", s) for s in (8, 16, 32, 64)]
        rk4_orders = np.log2(np.array(rk4_errors[:-1]) / np.array(rk4_errors[1:]))
        assert np.all(np.abs(rk4_orders - 4.0) <= 0.2)
        print(
            "\n[criterion 8] PASS - closed-form match 1e-8; measured orders "
            f"BE {be_orders.mean():.3f} (target 1.0+-0.1), "
            f"RK4 {rk4_orders.mean():.3f} (target 4.0+-0.2)"
        )


class TestCriterion9NullSpaceIdentities:
    @staticmethod
    def _projection_residuals(state, trajectory):
        comp = state.composition
        rho = comp.mass_densities
        n = comp.number_densities
        sqrt_rho_vec = np.sqrt(rho)
        sqrt_n_vec = np.sqrt(n)
        eq = steady_state(state)
        w_eq = sqrt_rho_vec[:, None] * eq.velocity[None, :]
        xi_eq = eq.energies / sqrt_n_vec

        momentum_scale = max(
            np.linalg.norm(scaled_velocities(state) - w_eq)
            * np.linalg.norm(sqrt_rho_vec),
            np.sqrt(2.0 * rho.sum() * state.energies.sum()),
        )
        energy_scale = max(
            np.linalg.norm(scaled_energies(state) - xi_eq) * np.linalg.norm(sqrt_n_vec),
            state.energies.sum(),
        )
        w = sqrt_rho_vec[:, None] * trajectory.velocities
        w_proj = (w - w_eq).transpose(0, 2, 1) @ sqrt_rho_vec  # (R, d)
        xi_proj = (trajectory.energies / sqrt_n_vec - xi_eq) @ sqrt_n_vec  # (R,)
        return max(
            np.linalg.norm(w_proj, axis=1).max() / momentum_scale,
            np.abs(xi_proj).max() / energy_scale,
        )

    def test_projections_vanish_along_all_trajectories(self, preset_runs, random_suite):
        worst = 0.0
        for run in preset_runs.values():
            worst = max(
                worst, self._projection_residuals(run["state"], run["trajectory"])
            )
        for entry in random_suite:
            for trajectory in entry["runs"].values():
                worst = max(
                    worst, self._projection_residuals(entry["state"], trajectory)
                )
        assert worst <= PROJECTION_TOL
        print(
            f"\n[criterion 9] PASS - null-space projections stay at {worst:.2e} "
            "<= 1e-10 along every trajectory"
        )
