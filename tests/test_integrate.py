"""Backward-Euler and RK4 steppers, trajectory recording, and monitors."""

import gc
import itertools
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import mixbgk.integrate as integrate_mod
from mixbgk import (
    GASES,
    ConstantMatrix,
    HardSphere,
    IntegratorConfig,
    MixtureComposition,
    MomentState,
    PicardDivergenceError,
    RealizabilityError,
    ScenarioConfig,
    SpeciesParams,
    conservative_decay_rate,
    kelvin_to_energy,
    presets,
    record_zero,
    resolve_integrator,
    scaled_energies,
    scaled_velocities,
    simulate,
    state_from_temperatures,
    steady_state,
    temperatures_of,
)
from mixbgk.cli import main
from mixbgk.collisions import operators, run_constants
from mixbgk.oracles import assemble, energy_rhs, momentum_rhs, pairwise_mixture
from mixbgk.output import monitor_block, record_monitors
from mixbgk.scenarios import HORIZON_EFOLDS

from conftest import core_operators, random_state, resolved


def two_species_linear(gap=1.0, lam=1.0, rho=(1.0, 0.5)):
    """Constant-frequency pair whose velocity gap obeys a scalar linear ODE."""
    m1, m2 = 1.0, 2.0
    n1, n2 = rho[0] / m1, rho[1] / m2
    comp = MixtureComposition(
        (
            SpeciesParams(mass=m1, diameter=1.0, label="a"),
            SpeciesParams(mass=m2, diameter=1.0, label="b"),
        ),
        [n1, n2],
    )
    state = state_from_temperatures(
        comp, np.array([[gap, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([1.0, 1.5])
    )
    model = ConstantMatrix(np.full((2, 2), lam))
    # closed-form decay rate of u1 - u2
    a12 = rho[0] * rho[1] * lam * lam / (rho[0] * lam + rho[1] * lam)
    rate = a12 * (1.0 / rho[0] + 1.0 / rho[1])
    return state, model, a12, rate


def one_step(state, cfg, model):
    """One step of cfg.dt by cfg.method: a run whose horizon is that step."""
    return simulate(state, replace(cfg, t_final=cfg.dt), model).states[-1]


def uniform_equilibrium_state(n_species=3):
    comp = MixtureComposition(
        tuple(
            SpeciesParams(mass=1.0 + i, diameter=1.0, label=f"s{i}")
            for i in range(n_species)
        ),
        np.arange(1.0, n_species + 1.0),
    )
    u = np.tile([3.0, -1.0, 0.5], (n_species, 1))
    return state_from_temperatures(comp, u, np.full(n_species, 2.0))


class TestBackwardEulerStep:
    def test_equilibrium_is_fixed_point(self):
        state = uniform_equilibrium_state()
        cfg = IntegratorConfig(dt=0.1, t_final=1.0)
        stepped = one_step(state, cfg, ConstantMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_single_species_unchanged(self):
        state = random_state(np.random.default_rng(3), 1)
        cfg = IntegratorConfig(dt=1e-12, t_final=1e-11)
        stepped = one_step(state, cfg, HardSphere())
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_two_species_gap_update(self):
        # implicit update of the scalar gap ODE: g1 = g0 / (1 + dt*rate)
        state, model, _, rate = two_species_linear(gap=1.0)
        dt = 0.3
        cfg = IntegratorConfig(dt=dt, t_final=1.0)
        stepped = one_step(state, cfg, model)
        gap = stepped.velocities[0, 0] - stepped.velocities[1, 0]
        assert gap == pytest.approx(1.0 / (1.0 + dt * rate), rel=1e-12)

    def test_conserves_totals_per_step(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_state(rng, int(rng.integers(2, 5)))
            rho = state.composition.mass_densities
            z_scale = 1e12  # typical rate scale for these states
            cfg = IntegratorConfig(dt=0.3 / z_scale, t_final=1e-12)
            stepped = one_step(state, cfg, HardSphere())
            before = rho @ state.velocities
            after = rho @ stepped.velocities
            scale = np.linalg.norm(before) or 1.0
            np.testing.assert_allclose(after, before, atol=1e-10 * scale)
            assert stepped.energies.sum() == pytest.approx(
                state.energies.sum(), rel=1e-10
            )

    @pytest.mark.parametrize("preset", [1, 2, 3])
    def test_an_unbounded_step_lands_on_the_equilibrium(self, preset):
        # As h = dt/eps -> infinity, the increment of the shifted systems
        # tends to the start state's component off the null vector, so one
        # step maps the start onto the conserved equilibrium; at dt = 1e100
        # the O(1/(h lambda_2)) remainder is far below rounding.  What is
        # left is the rounding of two backward-stable N x N solves (about
        # N eps each; Higham, ASNA, sec. 7.1) and of the maps M_rho, M_n and
        # the subtraction from the start state (about N eps of the state's
        # scale), so 4 N eps bounds it.
        scenario = presets()[preset]
        state = scenario.initial_state()
        equilibrium = steady_state(state)
        cfg = IntegratorConfig(dt=1e100, t_final=1e100)
        final = simulate(state, cfg, scenario.model).states[-1]
        bound = 4 * state.composition.size * np.finfo(float).eps
        speed = np.abs(state.velocities).max()
        assert np.abs(final.velocities - equilibrium.velocity).max() <= bound * speed
        np.testing.assert_allclose(
            temperatures_of(final), equilibrium.temperature, rtol=bound, atol=0.0
        )

    def test_picard_divergence_reports_residual(self, monkeypatch):
        state, model, _, _ = two_species_linear()
        monkeypatch.setattr(integrate_mod, "PICARD_MAX_ITER", 1)
        cfg = IntegratorConfig(dt=0.5, t_final=1.0)
        with pytest.raises(PicardDivergenceError, match="relative change"):
            one_step(state, cfg, model)


def _oracle_solve(state, dt, cfg, model):
    """One backward-Euler step from the reference assembly.

    Each Picard sweep freezes the coefficients at the iterate (``assemble``),
    forms Z and Z-hat from its couplings directly, solves for the
    velocities, then pairs the new velocities with the iterate's mixing
    weights in the kinetic coupling of the energy solve.  Sweeps stop once
    the relative max-norm change of both fields drops below ``PICARD_TOL``.
    """
    comp = state.composition
    identity = np.eye(comp.size)
    sqrt_rho = np.sqrt(comp.mass_densities)
    sqrt_n = np.sqrt(comp.number_densities)
    momentum_scale = np.outer(sqrt_rho, sqrt_rho)
    energy_scale = np.outer(sqrt_n, sqrt_n)
    w_old, xi_old = scaled_velocities(state), scaled_energies(state)
    u_k, e_k = state.velocities, state.energies
    for _ in range(integrate_mod.PICARD_MAX_ITER):
        iterate = MomentState(comp, u_k, e_k)
        if isinstance(model, HardSphere) and not np.all(temperatures_of(iterate) > 0.0):
            raise RealizabilityError("oracle iterate left the realizable set")
        mats = assemble(iterate, model)
        z = (np.diag(mats.momentum_coupling.sum(axis=1)) - mats.momentum_coupling) / momentum_scale
        z_hat = (np.diag(mats.energy_coupling.sum(axis=1)) - mats.energy_coupling) / energy_scale
        w_new = np.linalg.solve(identity + dt / cfg.eps * z, w_old)
        u_new = w_new / sqrt_rho[:, None]
        u_mix = pairwise_mixture(
            MomentState(comp, u_new, e_k), mats.velocity_weights, mats.temperature_weights
        ).velocities
        kinetic = mats.energy_coupling * (u_mix**2).sum(axis=2)
        heating = (np.diag(kinetic.sum(axis=1)) - kinetic) @ comp.masses
        xi_new = np.linalg.solve(
            identity + dt / cfg.eps * z_hat,
            xi_old + (0.5 * dt / cfg.eps) * heating / sqrt_n,
        )
        e_new = xi_new * sqrt_n
        change = max(
            np.abs(u_new - u_k).max() / max(np.abs(u_new).max(), 1e-300),
            np.abs(e_new - e_k).max() / np.abs(e_new).max(),
        )
        u_k, e_k = u_new, e_new
        if change < integrate_mod.PICARD_TOL:
            return MomentState(comp, u_k, e_k)
    raise AssertionError("oracle Picard iteration did not converge")


def _assert_same_step(stepped, expected):
    u_scale = np.abs(expected.velocities).max()
    np.testing.assert_allclose(
        stepped.velocities, expected.velocities, rtol=0, atol=1e-13 * u_scale
    )
    np.testing.assert_allclose(stepped.energies, expected.energies, rtol=1e-13)


class TestBackwardEulerOracle:
    """One backward-Euler step against Picard sweeps built from the reference assembly."""

    @staticmethod
    def _case(n_species, model_kind, seed):
        rng = np.random.default_rng([seed, n_species])
        state = random_state(rng, n_species)
        if model_kind == "hard_sphere":
            model = HardSphere()
        else:
            lam = np.exp(rng.uniform(np.log(1e11), np.log(1e13), (n_species, n_species)))
            model = ConstantMatrix(lam)
        if n_species == 1:
            dt = 1e-12
        else:
            # A mild step keeps the sweeps' roundoff plateau (~cond * machine
            # eps) below the 1e-13 agreement checked here, even at N = 30.
            dt = 0.05 / conservative_decay_rate(state, model)[0]
        return state, model, IntegratorConfig(dt=dt, t_final=dt)

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    @pytest.mark.parametrize("n_species", [1, 2, 3, 10, 30])
    def test_matches_oracle(self, n_species, model_kind):
        for seed in range(3):
            state, model, cfg = self._case(n_species, model_kind, seed)
            expected = _oracle_solve(state, cfg.dt, cfg, model)
            _assert_same_step(one_step(state, cfg, model), expected)

    def test_nonpositive_iterate_temperature_raises_realizability(self):
        comp = random_state(np.random.default_rng(4), 3).composition
        velocities = np.array([[400.0, 0.0, 0.0], [-300.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        temperatures = kelvin_to_energy(np.array([300.0, 900.0, 0.0]))
        state = state_from_temperatures(comp, velocities, temperatures)
        const = run_constants(comp, HardSphere(), state.dimension)
        # simulate would reject this 0 K state before any iterate exists,
        # so the step is taken directly
        with pytest.raises(RealizabilityError, match="iterate temperature"):
            integrate_mod._picard_solve(state.velocities, state.energies, 1e-13, 1.0, const)

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    def test_single_sweep_limit_raises_divergence(self, model_kind, monkeypatch):
        state, model, cfg = self._case(3, model_kind, 1)
        monkeypatch.setattr(integrate_mod, "PICARD_TOL", 1e-15)
        monkeypatch.setattr(integrate_mod, "PICARD_MAX_ITER", 1)
        with pytest.raises(PicardDivergenceError, match="did not converge in 1 sweeps"):
            one_step(state, cfg, model)


def _reference_rk4_step(state, dt, eps, model):
    """One classical RK4 step on the pairwise-difference rates of ``oracles``."""
    comp = state.composition

    def rates(u, e):
        stage = MomentState(comp, u, e)
        mats = assemble(stage, model)
        du = momentum_rhs(stage, mats, eps) / comp.mass_densities[:, None]
        return du, energy_rhs(stage, mats, eps)

    u, e = state.velocities, state.energies
    k1 = rates(u, e)
    k2 = rates(u + 0.5 * dt * k1[0], e + 0.5 * dt * k1[1])
    k3 = rates(u + 0.5 * dt * k2[0], e + 0.5 * dt * k2[1])
    k4 = rates(u + dt * k3[0], e + dt * k3[1])
    return MomentState(
        comp,
        u + dt * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0,
        e + dt * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0,
    )


class TestRk4Step:
    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    @pytest.mark.parametrize("n_species", [1, 2, 3, 10])
    def test_matches_pairwise_reference(self, n_species, model_kind):
        for seed in range(3):
            rng = np.random.default_rng([seed, n_species, 7])
            state = random_state(rng, n_species)
            if model_kind == "hard_sphere":
                model = HardSphere()
            else:
                lam = np.exp(rng.uniform(np.log(1e11), np.log(1e13), (n_species, n_species)))
                model = ConstantMatrix(lam)
            eps = 0.3 + 0.4 * seed  # an eps away from 1 exposes a dropped 1/eps
            z, z_hat, _, _ = core_operators(state, model, eps)
            fastest = max(np.linalg.eigvalsh(z).max(), np.linalg.eigvalsh(z_hat).max())
            dt = 0.5 * eps / fastest if fastest > 0.0 else 1e-12
            cfg = IntegratorConfig(dt=dt, t_final=dt, eps=eps, method="rk4")
            expected = _reference_rk4_step(state, dt, eps, model)
            _assert_same_step(one_step(state, cfg, model), expected)

    def test_equilibrium_is_fixed_point(self):
        state = uniform_equilibrium_state()
        cfg = IntegratorConfig(dt=0.05, t_final=1.0, method="rk4")
        stepped = one_step(state, cfg, ConstantMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_gap_matches_exponential(self):
        state, model, _, rate = two_species_linear(gap=1.0)
        t_final = 1.0 / rate
        steps = 1000
        cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method="rk4")
        current = state
        for _ in range(steps):
            current = one_step(current, cfg, model)
        gap = current.velocities[0, 0] - current.velocities[1, 0]
        assert gap == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_unstable_step_reports_realizability(self):
        state = presets()[3].initial_state()
        cfg = IntegratorConfig(dt=1e-10, t_final=1e-9, method="rk4")
        with pytest.raises(RealizabilityError, match="stage"):
            one_step(state, cfg, HardSphere())

    def test_a_step_makes_four_core_calls(self, monkeypatch):
        # The RK4 twin of TestIncrementForm's one-core-call test: each of the
        # four stages guards its temperatures, calls the core once and the
        # heating once.
        scenario = replace(presets()[2], method="rk4")
        cfg = resolved(scenario)
        calls = dict.fromkeys(("_admissible_temperatures", "relaxation", "heating"), 0)
        for name in calls:
            def counted(*args, _name=name, _core=getattr(integrate_mod, name), **kwargs):
                calls[_name] += 1
                return _core(*args, **kwargs)

            monkeypatch.setattr(integrate_mod, name, counted)
        steps = 20
        trajectory = simulate(
            scenario.initial_state(), replace(cfg, t_final=steps * cfg.dt), scenario.model
        )
        assert len(trajectory.times) == steps + 1
        # simulate guards the initial state once more.
        assert calls == {
            "_admissible_temperatures": 1 + 4 * steps, "relaxation": 4 * steps, "heating": 4 * steps
        }


class TestConvergenceOrders:
    def _final_gap_error(self, method, steps):
        state, model, _, rate = two_species_linear(gap=1.0)
        t_final = 1.0 / rate
        cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method=method)
        final = simulate(state, cfg, model).velocities[-1]
        gap = final[0, 0] - final[1, 0]
        return abs(gap - np.exp(-1.0))

    def test_backward_euler_first_order(self):
        errors = [self._final_gap_error("be", s) for s in (64, 128, 256, 512)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 1.0) < 0.1)

    def test_rk4_fourth_order(self):
        errors = [self._final_gap_error("rk4", s) for s in (8, 16, 32, 64)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 4.0) < 0.2)

    def test_methods_agree_to_first_order(self):
        # || BE - RK4 || at fixed horizon scales like dt
        state, model, _, rate = two_species_linear(gap=1.0)
        t_final = 1.0 / rate
        diffs = []
        for steps in (50, 100, 200):
            finals = []
            for method in ("be", "rk4"):
                cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method=method)
                finals.append(simulate(state, cfg, model).velocities[-1])
            diffs.append(np.linalg.norm(finals[0] - finals[1]))
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        np.testing.assert_allclose(ratios, 2.0, rtol=0.15)


class TestSimulate:
    def test_final_time_exact_with_partial_step(self):
        state, model, _, rate = two_species_linear()
        cfg = IntegratorConfig(dt=0.3 / rate, t_final=1.0 / rate)
        trajectory = simulate(state, cfg, model)
        assert trajectory.times[-1] == cfg.t_final
        assert trajectory.times[0] == 0.0
        assert np.all(np.diff(trajectory.times) > 0.0)

    def test_horizon_shorter_than_one_step_takes_one_step(self):
        scenario = presets()[1]
        state, model = scenario.initial_state(), scenario.model
        cfg = IntegratorConfig(dt=1e3, t_final=1e-9)
        trajectory = simulate(state, cfg, model)
        np.testing.assert_array_equal(trajectory.times, [0.0, 1e-9])
        assert trajectory.monitors[1].picard_iterations >= 1
        stepped = one_step(state, IntegratorConfig(dt=1e-9, t_final=1e-9), model)
        np.testing.assert_array_equal(trajectory.velocities[-1], stepped.velocities)
        np.testing.assert_array_equal(trajectory.energies[-1], stepped.energies)

    def test_zero_horizon_records_initial_only(self):
        state, model, _, _ = two_species_linear()
        cfg = IntegratorConfig(dt=0.1, t_final=0.0)
        trajectory = simulate(state, cfg, model)
        assert len(trajectory.states) == 1
        assert trajectory.monitors[0].picard_iterations == 0

    def test_monitors_flag_realizable_and_bounds(self):
        scenario = presets()[2]
        state = scenario.initial_state()
        cfg = IntegratorConfig(dt=2e-14, t_final=4e-13)
        trajectory = simulate(state, cfg, scenario.model)
        for report in trajectory.monitors:
            assert report.above_floor
            assert report.velocity_bounds_ok
            assert report.total_momentum_drift <= 1e-12
            assert report.total_energy_drift <= 1e-12
        assert trajectory.monitors[1].picard_iterations >= 1

    def test_failure_carries_time(self, monkeypatch):
        state, model, _, _ = two_species_linear()
        monkeypatch.setattr(integrate_mod, "PICARD_MAX_ITER", 1)
        cfg = IntegratorConfig(dt=0.5, t_final=5.0)
        with pytest.raises(PicardDivergenceError) as excinfo:
            simulate(state, cfg, model)
        assert excinfo.value.time == pytest.approx(0.5)
        assert "t = " in str(excinfo.value)

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_no_run_state_outlives_simulate(self, method, monkeypatch):
        # The run constants belong to one call: a cache of them outside
        # simulate would grow with every mixture run and could hand a later
        # run the constants of an earlier one.
        built = []

        def build(*args):
            const = run_constants(*args)
            built.append(weakref.ref(const))
            return const

        monkeypatch.setattr(integrate_mod, "run_constants", build)
        scenario = replace(presets()[2], method=method)
        cfg = resolved(scenario)
        simulate(scenario.initial_state(), replace(cfg, t_final=5 * cfg.dt), scenario.model)
        gc.collect()
        assert len(built) == 1 and built[0]() is None

    def test_rejects_unrealizable_initial_state(self):
        comp = MixtureComposition((SpeciesParams(mass=1.0, diameter=1.0),), [1.0])
        bad = MomentState(comp, np.array([[10.0, 0.0, 0.0]]), np.array([1.0]))
        cfg = IntegratorConfig(dt=0.1, t_final=1.0)
        with pytest.raises(RealizabilityError, match="initial"):
            simulate(bad, cfg, ConstantMatrix(np.ones((1, 1))))

    def test_hard_sphere_needs_positive_temperatures(self):
        comp = MixtureComposition((SpeciesParams(mass=1.0, diameter=1.0),), [1.0])
        boundary = state_from_temperatures(comp, [[1.0, 0.0, 0.0]], [0.0])
        cfg = IntegratorConfig(dt=0.1, t_final=1.0)
        with pytest.raises(RealizabilityError, match="positive"):
            simulate(boundary, cfg, HardSphere())


@pytest.fixture(scope="module")
def preset2_runs():
    """Preset 2 under both methods with its derived settings."""
    runs = {}
    for method in ("be", "rk4"):
        scenario = replace(presets()[2], method=method)
        state = scenario.initial_state()
        runs[method] = simulate(state, resolved(scenario), scenario.model)
    return runs


class TestTrajectoryArrays:
    """A trajectory is its arrays; states and monitors are views of them."""

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_shapes_and_read_only(self, preset2_runs, method):
        trajectory = preset2_runs[method]
        records = len(trajectory.times)
        arrays = {
            "times": (records,),
            "velocities": (records, 3, 3),
            "energies": (records, 3),
            "sweeps": (records,),
        }
        for name, shape in arrays.items():
            values = getattr(trajectory, name)
            assert values.shape == shape, name
            assert not values.flags.writeable, name
        with pytest.raises(ValueError):
            trajectory.energies[0, 0] = 0.0

    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_views_equal_the_arrays(self, preset2_runs, method):
        trajectory = preset2_runs[method]
        assert trajectory.states is trajectory.states  # built once
        assert len(trajectory.states) == len(trajectory.times)
        for r, state in enumerate(trajectory.states):
            np.testing.assert_array_equal(state.velocities, trajectory.velocities[r])
            np.testing.assert_array_equal(state.energies, trajectory.energies[r])

        records = record_monitors(
            trajectory.composition, trajectory.velocities, trajectory.energies
        )
        assert len(trajectory.monitors) == len(trajectory.times)
        for r, report in enumerate(trajectory.monitors):
            assert report.total_momentum_drift == records.momentum_drift[r]
            assert report.total_energy_drift == records.energy_drift[r]
            assert report.min_temperature == records.temperatures[r].min()
            assert report.velocity_bounds_ok == records.velocity_bounds_ok[r]
            assert report.above_floor == records.above_floor[r]
        assert trajectory.sweeps.tolist() == [m.picard_iterations for m in trajectory.monitors]

    def test_above_floor_is_not_realizability(self):
        # A record cooler than the initial floor but still at T >= 0.
        state = presets()[2].initial_state()
        cooled = state.energies * np.array([0.5, 1.0, 1.0])
        trajectory = integrate_mod.Trajectory(
            np.array([0.0, 1.0]),
            np.array([state.velocities, state.velocities]),
            np.array([state.energies, cooled]),
            np.zeros(2, dtype=int),
            state.composition,
        )
        assert [m.above_floor for m in trajectory.monitors] == [True, False]
        assert np.all(temperatures_of(trajectory.states[1]) >= 0.0)

    def test_sweeps_count_the_solve_pairs_of_each_step(self, preset2_runs):
        be, rk4 = preset2_runs["be"], preset2_runs["rk4"]
        assert be.sweeps[0] == 0 and np.all(be.sweeps[1:] >= 1)
        assert not rk4.sweeps.any()


class TestOneSteppingPath:
    """One simulate run equals a chain of one-step simulate runs, bit for bit."""

    def test_backward_euler_records_are_a_chain_of_steps(self, preset2_runs):
        # Each record is one fixed step from the record before, at its own
        # step: the difference of the two times.
        scenario = presets()[2]
        trajectory = preset2_runs["be"]
        state = scenario.initial_state()
        cfg = resolved(scenario)
        assert cfg.max_dt is not None  # error-controlled steps
        for r, h in enumerate(np.diff(trajectory.times).tolist(), start=1):
            state = one_step(state, replace(cfg, dt=h, max_dt=None), scenario.model)
            np.testing.assert_array_equal(state.velocities, trajectory.velocities[r])
            np.testing.assert_array_equal(state.energies, trajectory.energies[r])

    @staticmethod
    def _power_of_two_case(model_kind):
        # sqrt(rho) and sqrt(n) are powers of two, so the scaling of the
        # stages is exact and only the stepping itself is compared.
        comp = MixtureComposition(
            tuple(SpeciesParams(mass=m, diameter=1.0, label=f"s{m:g}") for m in (1.0, 4.0, 16.0)),
            [16.0, 4.0, 1.0],
        )
        state = state_from_temperatures(
            comp, [[3.0, -1.0, 0.5], [-1.0, 2.0, 0.0], [0.5, 0.0, -2.0]], [1.0, 2.0, 3.0]
        )
        if model_kind == "hard_sphere":
            model = HardSphere()
        else:
            model = ConstantMatrix(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0], [3.0, 4.0, 1.0]]))
        return state, model, IntegratorConfig(dt=0.01, t_final=0.2, method="rk4")

    @pytest.mark.parametrize("case", ["hard_sphere", "constant", "preset1", "preset2", "preset3"])
    def test_rk4_records_are_a_chain_of_steps(self, case):
        if case.startswith("preset"):
            scenario = replace(presets()[int(case[-1])], method="rk4")
            state, model = scenario.initial_state(), scenario.model
            cfg = resolved(scenario)
            cfg = replace(cfg, t_final=20 * cfg.dt)
        else:
            state, model, cfg = self._power_of_two_case(case)
        trajectory = simulate(state, cfg, model)
        assert len(trajectory.times) == 21
        for r in range(1, 21):
            state = one_step(state, cfg, model)
            np.testing.assert_array_equal(state.velocities, trajectory.velocities[r])
            np.testing.assert_array_equal(state.energies, trajectory.energies[r])


    @staticmethod
    def _recurring_case(case):
        """(state, model, cfg, step lengths) of a run whose states recur."""
        if case == "mixture":  # a period-12 cycle from record 51
            state, model = random_state(np.random.default_rng(9), 10), HardSphere()
            dt = 5.0 / conservative_decay_rate(state, model)[0]
            return state, model, IntegratorConfig(dt=dt, t_final=100 * dt), [dt] * 100
        scenario = replace(presets()[3], method=case)
        if case == "be":  # a given step and the paper's horizon: fixed steps
            state, model = scenario.initial_state(), scenario.model
            dt = 0.05 / conservative_decay_rate(state, model)[0]
            scenario = replace(scenario, dt=dt, t_final=PAPER_HORIZONS[3])
        cfg = resolved(scenario)
        steps = [cfg.dt] * 200  # backward Euler: a period-2 cycle from record 6
        if case == "rk4":  # a fixed point from record 407, then a partial step
            cfg = replace(cfg, t_final=450.5 * cfg.dt)
            steps = [cfg.dt] * 450 + [cfg.t_final - 450 * cfg.dt]
        return scenario.initial_state(), scenario.model, cfg, steps

    @pytest.mark.parametrize("case", ["be", "rk4", "mixture"])
    def test_a_recurring_run_is_a_chain_of_steps(self, case, monkeypatch):
        # The whole run, past the point where its states recur, equals a
        # chain of one-step runs, sweeps included, and the stepper runs once
        # per distinct (u, E, dt) of the run.
        state, model, cfg, steps = self._recurring_case(case)
        name = "_rk4_advance" if cfg.method == "rk4" else "_picard_solve"
        stepper, stepped = getattr(integrate_mod, name), []

        def spying(u, e, dt, eps, const):
            stepped.append((u.tobytes(), e.tobytes(), dt))
            return stepper(u, e, dt, eps, const)

        monkeypatch.setattr(integrate_mod, name, spying)
        trajectory = simulate(state, cfg, model)
        monkeypatch.undo()
        assert len(trajectory.times) == len(steps) + 1
        distinct = set()
        for r, dt in enumerate(steps, start=1):
            distinct.add((state.velocities.tobytes(), state.energies.tobytes(), dt))
            run = simulate(state, replace(cfg, dt=dt, t_final=dt), model)
            state = run.states[-1]
            np.testing.assert_array_equal(state.velocities, trajectory.velocities[r])
            np.testing.assert_array_equal(state.energies, trajectory.energies[r])
            assert run.sweeps[-1] == trajectory.sweeps[r]
        assert len(stepped) == len(set(stepped)) == len(distinct) < len(steps)
        assert set(stepped) == distinct
        if case == "be":
            assert len(stepped) == 8


class TestSteppersArePure:
    """A stepper is a function of (u, e, dt) that writes nothing it was given:
    the premise on which simulate repeats the record of a recurring step."""

    @pytest.mark.parametrize("case", ["preset3", "mixture"])
    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_read_only_inputs_give_equal_fresh_results(self, method, case):
        if case == "preset3":
            scenario = replace(presets()[3], method=method)
            state, model = scenario.initial_state(), scenario.model
            cfg = resolved(scenario)
        else:
            state, model = random_state(np.random.default_rng([30, 30]), 30), HardSphere()
            # One unit of the fastest rate: inside RK4's stability interval.
            fastest = max(np.linalg.eigvalsh(z).max() for z in core_operators(state, model)[:2])
            cfg = IntegratorConfig(dt=1.0 / fastest, t_final=1.0 / fastest, method=method)
        const = run_constants(state.composition, model, state.dimension)
        u, e = state.velocities.copy(), state.energies.copy()
        u.setflags(write=False)
        e.setflags(write=False)
        advance = integrate_mod._picard_solve if method == "be" else integrate_mod._rk4_advance
        with np.errstate(all="ignore"):  # as inside simulate
            first = advance(u, e, cfg.dt, cfg.eps, const)
            second = advance(u, e, cfg.dt, cfg.eps, const)
        assert first[2] == second[2]
        for one, other in zip(first[:2], second[:2]):
            assert one.tobytes() == other.tobytes()
            for given in (u, e):
                assert not np.shares_memory(one, given)
                assert not np.shares_memory(other, given)
        assert u.tobytes() == state.velocities.tobytes()
        assert e.tobytes() == state.energies.tobytes()


# The derived horizons of the three be presets before their steps followed
# their error: HORIZON_EFOLDS e-folds of the slower paper rate.
PAPER_HORIZONS = {1: 3.79478524801639778e-12, 2: 3.44652915625057957e-12,
                  3: 6.09327188605790957e-07}


def _spied_runs(first_efolds=None):
    """Each be preset at its derived settings, with the (u, e, dt, result)
    of every stepper call the run made; a first step of ``first_efolds``
    e-folds of lambda_max at t = 0 replaces the derived one if given."""
    stepper, runs = integrate_mod._picard_solve, {}
    for k, scenario in presets().items():
        calls = []

        def spying(u, e, dt, eps, const):
            result = stepper(u, e, dt, eps, const)
            calls.append((u, e, dt, result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate_mod, "_picard_solve", spying)
            first = record_zero(scenario)
            cfg = resolve_integrator(scenario, first)
            if first_efolds is not None:
                fastest = first.constants.fastest_rate_t0
                cfg = replace(cfg, dt=first_efolds * scenario.eps / fastest)
            trajectory = simulate(first.state, cfg, scenario.model)
        runs[k] = (scenario, cfg, trajectory, calls)
    return runs


@pytest.fixture(scope="module")
def controlled_runs():
    """Each be preset at its derived settings, with every stepper call."""
    return _spied_runs()


# The first step derived before it fit the tolerance: 0.1 e-folds of
# lambda_max at t = 0, whose error (0.1)^2 / 2 = 5e-3 on that mode exceeds
# BE_ERROR_TOL, so each preset rejects it (err / tol 1.04, 1.25 and 1.59).
REJECTED_FIRST_EFOLDS = 0.1


@pytest.fixture(scope="module")
def rejecting_runs():
    """Each be preset at its derived settings but for that first step."""
    return _spied_runs(REJECTED_FIRST_EFOLDS)


def _deviation_scales(state):
    """Each field's initial max-norm deviation from equilibrium, (velocities, energies)."""
    equilibrium = steady_state(state)
    return (np.abs(state.velocities - equilibrium.velocity).max(),
            np.abs(state.energies - equilibrium.energies).max())


def _relative_error(differences, scales):
    """The largest max-norm difference of a field relative to its scale; scale 0 is skipped."""
    return max(np.abs(d).max() / s for d, s in zip(differences, scales) if s > 0.0)


def _rk4_reference(scenario, times):
    """(velocities, energies) at ``times`` by RK4 at no more than 1/20 of its derived step."""
    h = resolved(replace(scenario, method="rk4")).dt / 20.0
    state = scenario.initial_state()
    velocities, energies = [state.velocities], [state.energies]
    for start, end in zip(times[:-1], times[1:]):
        span = end - start
        steps = math.ceil(span / h)
        cfg = IntegratorConfig(dt=span / steps, t_final=span, method="rk4")
        state = simulate(state, cfg, scenario.model).states[-1]
        velocities.append(state.velocities)
        energies.append(state.energies)
    return np.array(velocities), np.array(energies)


def _global_error(scenario, trajectory):
    """The largest error of any record against the RK4 reference, relative to
    each field's initial deviation."""
    velocities, energies = _rk4_reference(scenario, trajectory.times)
    differences = (trajectory.velocities - velocities, trajectory.energies - energies)
    return _relative_error(differences, _deviation_scales(scenario.initial_state()))


class TestErrorControlledStep:
    """Backward Euler with a derived dt: steps that follow their local error."""

    def test_times_increase_to_the_horizon(self, controlled_runs):
        for scenario, cfg, trajectory, _ in controlled_runs.values():
            assert cfg.max_dt is not None
            assert trajectory.times[0] == 0.0 and np.all(np.diff(trajectory.times) > 0.0)
            assert trajectory.times[-1] == cfg.t_final
            # The horizon is RK4's: HORIZON_EFOLDS e-folds of the floor gap.
            assert cfg.t_final == resolved(replace(scenario, method="rk4")).t_final

    def test_rejected_steps_are_not_recorded(self, rejecting_runs):
        for _, _, trajectory, calls in rejecting_runs.values():
            records = len(trajectory.times)
            index = {
                (u.tobytes(), e.tobytes()): r
                for r, (u, e) in enumerate(zip(trajectory.velocities, trajectory.energies))
            }
            steps = np.diff(trajectory.times).tolist()
            half_step = steps[0] / 2.0
            recorded, halves, rejected = [], [], []
            for u, e, dt, (u_new, e_new, _) in calls:
                start = index.get((u.tobytes(), e.tobytes()))
                end = index.get((u_new.tobytes(), e_new.tobytes()))
                if start is not None and end == start + 1 and dt == steps[start]:
                    recorded.append(end)
                elif dt == half_step and len(halves) < 2:
                    halves.append((u, e, u_new, e_new))
                else:
                    rejected.append((start, dt, end))
            # One call per record, at the record's own step.
            assert sorted(recorded) == list(range(1, records))
            # Step doubling of the first step: two halves from record 0, unrecorded.
            assert index[(halves[0][0].tobytes(), halves[0][1].tobytes())] == 0
            assert halves[1][0].tobytes() == halves[0][2].tobytes()
            assert (halves[1][2].tobytes(), halves[1][3].tobytes()) not in index
            # A rejected step is recorded nowhere and is longer than the step
            # then taken again from its record (a rejected half: than half the first).
            assert rejected
            for start, dt, end in rejected:
                assert end is None
                assert dt > (steps[start] if start else half_step)
            assert len(calls) == records - 1 + len(rejected) + 2

    def test_the_derived_first_step_is_accepted_at_its_first_try(self, controlled_runs):
        # BE_SAFETY (2 BE_ERROR_TOL)^(1/2) e-folds of lambda_max at t = 0: its
        # full step and its two halves are the run's first three stepper
        # calls, and the full one is record 1.
        efolds = integrate_mod.BE_SAFETY * math.sqrt(2.0 * integrate_mod.BE_ERROR_TOL)
        for scenario, cfg, trajectory, calls in controlled_runs.values():
            fastest = record_zero(scenario).constants.fastest_rate_t0
            assert cfg.dt == efolds * scenario.eps / fastest
            assert cfg.dt < cfg.max_dt
            assert trajectory.times[1] == cfg.dt
            assert [dt for _, _, dt, _ in calls[:3]] == [cfg.dt, cfg.dt / 2.0, cfg.dt / 2.0]
            u_1, e_1 = calls[0][3][:2]
            assert (u_1.tobytes(), e_1.tobytes()) == (
                trajectory.velocities[1].tobytes(), trajectory.energies[1].tobytes()
            )
            start = (trajectory.velocities[0].tobytes(), trajectory.energies[0].tobytes())
            from_start = [dt for u, e, dt, _ in calls if (u.tobytes(), e.tobytes()) == start]
            assert from_start == [cfg.dt, cfg.dt / 2.0]

    def test_every_step_is_within_the_bound(self, controlled_runs):
        for scenario, cfg, trajectory, _ in controlled_runs.values():
            rate = max(conservative_decay_rate(scenario.initial_state(), scenario.model))
            assert cfg.max_dt == 0.5 * min(scenario.eps / rate, cfg.t_final / HORIZON_EFOLDS)
            times = trajectory.times
            assert np.all(times[1:] <= times[:-1] + cfg.max_dt)
            assert times[1] <= cfg.dt  # a rejected first step is taken again shorter

    def test_every_recorded_step_meets_the_tolerance(self, controlled_runs):
        for scenario, cfg, trajectory, _ in controlled_runs.values():
            state = scenario.initial_state()
            scales = _deviation_scales(state)
            times, fields = trajectory.times, (trajectory.velocities, trajectory.energies)
            # The first step, against two half steps.
            half = replace(cfg, dt=times[1] / 2.0, t_final=times[1], max_dt=None)
            halves = simulate(state, half, scenario.model)
            error = 2.0 * _relative_error(
                (fields[0][1] - halves.velocities[-1], fields[1][1] - halves.energies[-1]), scales
            )
            assert error <= integrate_mod.BE_ERROR_TOL
            # Every later step, by the divided difference of its records.
            for r in range(2, len(times)):
                h, h_before = times[r] - times[r - 1], times[r - 1] - times[r - 2]
                weight = h * h / (h + h_before)
                estimate = [
                    weight * ((y[r] - y[r - 1]) / h - (y[r - 1] - y[r - 2]) / h_before)
                    for y in fields
                ]
                assert _relative_error(estimate, scales) <= integrate_mod.BE_ERROR_TOL, r

    def test_global_error_is_below_the_fixed_steps(self, controlled_runs):
        # Fixed steps of 0.05 e-folds of the paper's velocity rate, the step
        # derived before, over the same horizon.
        for scenario, cfg, trajectory, _ in controlled_runs.values():
            state = scenario.initial_state()
            dt = 0.05 * scenario.eps / conservative_decay_rate(state, scenario.model)[0]
            fixed = simulate(state, replace(cfg, dt=dt, max_dt=None), scenario.model)
            error = _global_error(scenario, trajectory)
            assert error <= _global_error(scenario, fixed)
            assert error <= 10.0 * integrate_mod.BE_ERROR_TOL

    def test_preset3_resolves_its_relaxation(self, controlled_runs):
        scenario, cfg, trajectory, _ = controlled_runs[3]
        state = scenario.initial_state()
        const = run_constants(state.composition, scenario.model, state.dimension)
        at_equilibrium = np.full(state.composition.size, steady_state(state).temperature)
        gap = np.linalg.eigvalsh(operators(at_equilibrium, const)[1])[:, 1:].min()
        assert np.sum(trajectory.times <= 14.0 * scenario.eps / gap) >= 50

    def test_a_stiff_start_at_equilibrium_takes_few_steps(self, monkeypatch):
        # Couplings of 1e6 and 1e-6 /s: a step of max_dt rounds the state
        # by far more than BE_ERROR_TOL of its rounding-sized deviation from
        # equilibrium, so no field sets the step, and the steps grow to
        # their bound instead of following the rounding.
        scenario = ScenarioConfig(
            species=(GASES["Ar"], GASES["Kr"], GASES["Xe"]),
            number_densities=np.array([3e28, 2e28, 1e28]),
            velocities=np.tile([100.0, 0.0, 0.0], (3, 1)),
            temperatures_kelvin=np.full(3, 1000.0),
            model=ConstantMatrix(np.array([[1e6, 1e6, 1e-6], [1e6, 1e6, 1e-6],
                                           [1e-6, 1e-6, 1e6]])),
        )
        cfg = resolved(scenario)
        stepper, calls = integrate_mod._picard_solve, []

        def counting(u, e, dt, eps, const):
            calls.append(dt)
            if len(calls) > 200:
                raise AssertionError("more than 200 steps")
            return stepper(u, e, dt, eps, const)

        monkeypatch.setattr(integrate_mod, "_picard_solve", counting)
        trajectory = simulate(scenario.initial_state(), cfg, scenario.model)
        assert trajectory.times[-1] == cfg.t_final
        assert cfg.t_final / cfg.dt > 1e13

    def test_a_step_that_never_meets_the_tolerance_fails_typed(self, monkeypatch):
        # With a zero tolerance every step with an error is rejected, and the
        # step shrinks until it no longer moves the time.
        state, model, _, rate = two_species_linear()
        monkeypatch.setattr(integrate_mod, "BE_ERROR_TOL", 0.0)
        monkeypatch.setattr(integrate_mod, "_error_scales", lambda *args: [1.0, 1.0])
        cfg = IntegratorConfig(dt=0.1 / rate, t_final=10.0 / rate, max_dt=1.0 / rate)
        with pytest.raises(integrate_mod.IntegrationError, match="error-controlled step vanished at t = "):
            simulate(state, cfg, model)

    @pytest.mark.parametrize("eps", [1e-300, 1e300])
    def test_an_extreme_eps_takes_the_steps_of_eps_1(self, eps, controlled_runs):
        # Times scale with eps; the error estimate is scale-free, so no factor
        # of it overflows or turns 0 * inf into NaN, and the steps stay those
        # of eps = 1: 45, 43 and 56 records.
        for scenario, _, reference, _ in controlled_runs.values():
            scenario = replace(scenario, eps=eps)
            cfg = resolved(scenario)
            trajectory = simulate(scenario.initial_state(), cfg, scenario.model)
            assert len(trajectory.times) == len(reference.times)
            assert trajectory.times[-1] == cfg.t_final
            block = monitor_block(trajectory, scenario)
            assert [line for line in block[1:] if not line.endswith("-> PASS")] == []

    @pytest.mark.parametrize("example", sorted(PAPER_HORIZONS))
    def test_the_paper_horizons_pass_every_monitor(self, example, tmp_path):
        horizon = repr(PAPER_HORIZONS[example])
        argv = ["run", "--example", str(example), "--t-final", horizon, "--out", str(tmp_path)]
        assert main(argv) == 0
        summary = (tmp_path / f"example{example}_summary.txt").read_text()
        assert "FAIL" not in summary


class TestTypedFailures:
    """Steps that overflow fail with RealizabilityError, never an untyped error."""

    def test_overflowed_implicit_system(self):
        # At dt = 1e300, preset 2's h Z (1.2e13 / s at most in Z) overflows.
        scenario = presets()[2]
        cfg = IntegratorConfig(dt=1e300, t_final=1e301)
        with pytest.raises(RealizabilityError, match="implicit system") as excinfo:
            simulate(scenario.initial_state(), cfg, scenario.model)
        assert excinfo.value.time == 1e300

    def test_step_below_the_overflow_of_h_z_is_taken(self):
        # At dt = 1e290, h Z stays finite (1.2e303 at most), and so does the
        # heating, whose mass gaps are divided by sqrt(n) before the rate
        # multiplies them: every step lands on the conserved equilibrium.
        scenario = presets()[2]
        state = scenario.initial_state()
        trajectory = simulate(state, IntegratorConfig(dt=1e290, t_final=1e291), scenario.model)
        assert len(trajectory.times) == 11
        assert np.isfinite(trajectory.velocities).all() and np.isfinite(trajectory.energies).all()
        equilibrium = steady_state(state)
        speed = np.abs(state.velocities).max()
        np.testing.assert_allclose(
            trajectory.velocities[-1], np.tile(equilibrium.velocity, (3, 1)), atol=1e-12 * speed
        )
        np.testing.assert_allclose(trajectory.energies[-1], equilibrium.energies, rtol=1e-12)

    def test_non_finite_implicit_increment(self):
        # At dt = 1e300, preset 1's h Z overflows and gesv returns a
        # non-finite increment without reporting a singular matrix: the
        # step names the implicit system, not the next iterate's
        # temperatures.
        scenario = presets()[1]
        cfg = IntegratorConfig(dt=1e300, t_final=1e300)
        with pytest.raises(RealizabilityError, match="^implicit system: non-finite"):
            simulate(scenario.initial_state(), cfg, scenario.model)

    def test_overflowing_constant_model_rk4(self):
        comp = MixtureComposition(
            (
                SpeciesParams(mass=6.6e-26, diameter=3e-10, label="A"),
                SpeciesParams(mass=1.3e-25, diameter=3e-10, label="B"),
            ),
            [1e28, 1e28],
        )
        state = state_from_temperatures(
            comp, [[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]], kelvin_to_energy(np.array([1e3, 2e3]))
        )
        # Each unstable step multiplies the energies by about 1e29: ten steps
        # end finite, and the 11th step's stage overflows them.
        model = ConstantMatrix(np.full((2, 2), 1e10))
        run = simulate(state, IntegratorConfig(dt=1e-6, t_final=1e-5, method="rk4"), model)
        assert len(run.times) == 11 and np.isfinite(run.energies).all()
        cfg = IntegratorConfig(dt=1e-6, t_final=2e-5, method="rk4")
        with pytest.raises(RealizabilityError, match="stage temperatures must be finite,"):
            simulate(state, cfg, model)

    def test_non_finite_rk4_result(self, monkeypatch):
        # Finite stages whose weighted sum overflows: a heating of 5e307 per
        # stage keeps every stage finite, but k1 + 2 k2 + 2 k3 + k4 is not.
        state, model, _, _ = two_species_linear()
        monkeypatch.setattr(integrate_mod, "heating", lambda *args: np.full(2, 5e307))
        cfg = IntegratorConfig(dt=1.0, t_final=1.0, eps=1e300, method="rk4")
        with pytest.raises(RealizabilityError, match="RK4 step at dt = ") as excinfo:
            simulate(state, cfg, model)
        assert excinfo.value.time == cfg.t_final

    def test_singular_implicit_system(self, monkeypatch):
        # gesv returns NaN for a singular system, and the step leaves
        # through the sweep's finiteness test with no numpy warning.
        state, model, _, _ = two_species_linear()
        solve = integrate_mod._solve
        monkeypatch.setattr(integrate_mod, "_solve", lambda a, b: solve(np.zeros_like(a), b))
        cfg = IntegratorConfig(dt=0.1, t_final=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RealizabilityError, match="^implicit system: non-finite") as err:
                simulate(state, cfg, model)
        assert err.value.time == cfg.dt

    def test_overflowing_initial_state(self):
        # |u|^2 overflows in the realizability check of the initial state.
        state, model, _, _ = two_species_linear()
        huge = np.full_like(state.velocities, 1e200)
        state = MomentState(state.composition, huge, state.energies)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RealizabilityError, match="^initial state is not realizable"):
                simulate(state, IntegratorConfig(dt=0.1, t_final=0.3), model)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    def test_guard_rejects_non_finite_temperatures(self, model_kind, value):
        state, model, _, _ = two_species_linear()
        if model_kind == "hard_sphere":
            model = HardSphere()
        const = run_constants(state.composition, model, 3)
        energies = np.array([value, state.energies[1]])
        with pytest.raises(RealizabilityError, match="must be finite"):
            integrate_mod._admissible_temperatures(
                state.velocities, energies, const.temperature_weights, const, "test"
            )

    def test_guard_admits_negative_constant_model_temperatures(self):
        state, model, _, _ = two_species_linear()
        const = run_constants(state.composition, model, 3)
        energies = np.array([-1.0, state.energies[1]])
        temps = integrate_mod._admissible_temperatures(
            state.velocities, energies, const.temperature_weights, const, "test"
        )
        assert temps[0] < 0.0
        const = run_constants(state.composition, HardSphere(), 3)
        with pytest.raises(RealizabilityError, match="finite and positive"):
            integrate_mod._admissible_temperatures(
                state.velocities, energies, const.temperature_weights, const, "test"
            )


def two_reduction_guard(temps, hard_sphere, where):
    """The message of the guard's former predicate, two numpy reductions, or None."""
    floor = 0.0 if hard_sphere else -np.inf
    lowest = np.minimum.reduce(temps)
    if lowest > floor and np.maximum.reduce(temps) < np.inf:
        return None
    need = "finite and positive" if hard_sphere else "finite"
    return f"{where} temperatures must be {need}, got a minimum of {lowest:.6e} J"


class TestRangeChecks:
    """The stepper's range checks on Python lists, held to numpy's predicates."""

    # (temperature of one species, whether the guard refuses it), with the
    # other species' temperatures positive; a list, as 0.0 == -0.0.
    HARD_SPHERE = [
        (np.nan, True), (np.inf, True), (0.0, True), (-0.0, True), (-1.0, True), (1e-20, False)
    ]
    CONSTANT = [
        (-np.inf, True), (np.nan, True), (np.inf, True), (0.0, False), (-0.0, False), (-1.0, False)
    ]

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    @pytest.mark.parametrize("n_species", [1, 3, 30])
    def test_guard_matches_two_reductions(self, n_species, model_kind):
        rng = np.random.default_rng([28, n_species])
        state = random_state(rng, n_species)
        hard_sphere = model_kind == "hard_sphere"
        model = HardSphere() if hard_sphere else ConstantMatrix(np.full((n_species,) * 2, 1e10))
        const = run_constants(state.composition, model, 3)
        weights = const.temperature_weights
        cases = self.HARD_SPHERE if hard_sphere else self.CONSTANT
        for position in range(n_species):
            for temperature, refused in cases:
                # At rest, the species' temperature is its energy times a
                # positive weight: its sign, zero, infinity or NaN.
                velocities = state.velocities.copy()
                velocities[position] = 0.0
                energies = state.energies.copy()
                energies[position] = temperature
                temps = integrate_mod._temperature_map(weights, const.ones, velocities, energies)
                assert np.signbit(temps[position]) == np.signbit(temperature)
                expected = two_reduction_guard(temps, hard_sphere, "test")
                assert (expected is not None) == refused
                if refused:
                    with pytest.raises(RealizabilityError) as excinfo:
                        integrate_mod._admissible_temperatures(
                            velocities, energies, weights, const, "test"
                        )
                    assert str(excinfo.value) == expected
                else:
                    result = integrate_mod._admissible_temperatures(
                        velocities, energies, weights, const, "test"
                    )
                    assert result.tobytes() == temps.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("n_species", [1, 3, 30])
    def test_rk4_result_must_be_finite_everywhere(self, n_species, value, monkeypatch):
        # Stub rates make the weighted stage sum k1 + 2 k2 + 2 k3 + k4 of one
        # entry of W or xi overflow (inf) or cancel infinities (NaN), while
        # h = dt/eps is so small that every stage state stays at the start.
        rng = np.random.default_rng([28, n_species])
        state = random_state(rng, n_species)
        const = run_constants(state.composition, HardSphere(), 3)
        big = np.finfo(float).max
        stage_rates = [0.0, big, big if value == np.inf else -big, 0.0]
        dt, eps = 1e-20, 1e300

        def check(entry):
            """Run one step whose stage rates are nonzero at ``entry`` of W or xi only."""
            calls = {"relaxation": 0, "heating": 0}
            velocities = np.zeros_like(state.velocities)
            if entry[0] == "W":
                velocities[entry[1:]] = 1.0 / const.sqrt_rho[entry[1]]  # W = 1 there

            def relaxation(*args):
                z = np.zeros((2, n_species, n_species))
                if entry[0] == "W":
                    z[0, entry[1], entry[1]] = stage_rates[calls["relaxation"]]
                calls["relaxation"] += 1
                return 1.0, z

            def heating(*args):
                source = np.zeros(n_species)
                if entry[0] == "xi":
                    source[entry[1]] = -stage_rates[calls["heating"]]
                calls["heating"] += 1
                return source

            monkeypatch.setattr(integrate_mod, "relaxation", relaxation)
            monkeypatch.setattr(integrate_mod, "heating", heating)
            return integrate_mod._rk4_advance(velocities, state.energies, dt, eps, const)

        entries = [("W", i, k) for i in range(n_species) for k in range(3)]
        entries += [("xi", i) for i in range(n_species)]
        message = "velocities and energies must be finite"
        for entry in entries:
            with np.errstate(all="ignore"), pytest.raises(RealizabilityError, match=message):
                check(entry)
        stage_rates[:] = [1.0] * 4  # finite everywhere: the step is taken
        u, e, sweeps = check(entries[0])
        assert np.isfinite(u).all() and np.isfinite(e).all() and sweeps == 0


def two_call_relative_change(new, old):
    """The convergence test's former formula: two reductions per field."""
    scale = max(float(np.maximum.reduce(abs(new), axis=None)), 1e-300)
    return float(np.maximum.reduce(abs(new - old), axis=None) / scale)


def _bits(value):
    return np.float64(value).tobytes()


class TestConvergenceTest:
    """The sweep's one reduceat, held bit for bit to two reductions per field."""

    # Signed zeros, subnormals and magnitudes near the overflow threshold,
    # then the non-finite values whose NaN every maximum must propagate.
    SPECIAL = (0.0, -0.0, 5e-324, -3e-310, 2.2e-308, 1e308, -1.7e308, np.finfo(float).max)
    NON_FINITE = (np.inf, -np.inf, np.nan)

    @staticmethod
    def _draws(rng, n_species, dimension):
        """(u_new, u_k, e_new, e_k): seeded normals, then entries from the special values."""
        shapes = [(n_species, dimension)] * 2 + [(n_species,)] * 2
        pools = {"special": TestConvergenceTest.SPECIAL + (1.0, -2.5)}
        pools["non-finite"] = pools["special"] + TestConvergenceTest.NON_FINITE
        for kind in ("seeded", "special", "non-finite"):
            for _ in range(20):
                if kind == "seeded":
                    scale = 10.0 ** rng.uniform(-3, 3)
                    u_new, u_k, e_new, e_k = (rng.normal(size=shape) * scale for shape in shapes)
                else:
                    pool = np.array(pools[kind])
                    u_new, u_k, e_new, e_k = (rng.choice(pool, size=shape) for shape in shapes)
                yield u_new, u_k, e_new, e_k
                # The same iterate changed by a few ulps: the converging case.
                yield u_new, u_new * (1.0 + 1e-13), e_new, e_new - 1e-14 * e_new

    @pytest.mark.parametrize("dimension", [1, 3])
    @pytest.mark.parametrize("n_species", [1, 3, 30])
    def test_matches_two_reductions_per_field(self, n_species, dimension):
        rng = np.random.default_rng([29, n_species, dimension])
        size = n_species * dimension
        segments = [0, size, 2 * size, 2 * size + n_species]
        u, e = rng.normal(size=(n_species, dimension)), rng.normal(size=n_species)
        zero_u, zero_e = np.zeros_like(u), np.zeros_like(e)
        exact = [  # (fields, their changes)
            ((u, u.copy(), e, e.copy()), (0.0, 0.0)),  # equal fields
            ((zero_u, -zero_u, zero_e, zero_e.copy()), (0.0, 0.0)),
            # All-zero new fields: the 1e-300 floor is the scale.
            ((zero_u, u, zero_e, e), (np.abs(u).max() / 1e-300, np.abs(e).max() / 1e-300)),
        ]
        with np.errstate(all="ignore"):  # the special values overflow
            cases = list(self._draws(rng, n_species, dimension))
            for u_new, u_k, e_new, e_k in cases + [fields for fields, _ in exact]:
                change_u, change_e = integrate_mod._relative_changes(
                    u_new, u_k, e_new, e_k, segments
                )
                assert _bits(change_u) == _bits(two_call_relative_change(u_new, u_k))
                assert _bits(change_e) == _bits(two_call_relative_change(e_new, e_k))
        for fields, changes in exact:
            assert integrate_mod._relative_changes(*fields, segments) == changes

    def test_every_sweep_of_a_run_matches_two_reductions_per_field(self, monkeypatch):
        # The cuts _picard_solve forms once per step give the same two
        # changes as the former formula at every sweep of preset 2: one
        # convergence test per sweep of each step the run computed.
        seen, computed = [], []
        helper, stepper = integrate_mod._relative_changes, integrate_mod._picard_solve

        def recording(u_new, u_k, e_new, e_k, segments):
            result = helper(u_new, u_k, e_new, e_k, segments)
            seen.append((result, two_call_relative_change(u_new, u_k),
                         two_call_relative_change(e_new, e_k)))
            return result

        def stepping(*args):
            tests = len(seen)
            result = stepper(*args)
            computed.append((len(seen) - tests, result[2]))
            return result

        monkeypatch.setattr(integrate_mod, "_relative_changes", recording)
        monkeypatch.setattr(integrate_mod, "_picard_solve", stepping)
        scenario = presets()[2]
        cfg = resolved(scenario)
        simulate(scenario.initial_state(), cfg, scenario.model)
        assert computed and all(tests == sweeps >= 1 for tests, sweeps in computed)
        assert len(seen) == sum(sweeps for _, sweeps in computed)
        for (change_u, change_e), reference_u, reference_e in seen:
            assert _bits(change_u) == _bits(reference_u) and _bits(change_e) == _bits(reference_e)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dimension", [1, 3])
    @pytest.mark.parametrize("n_species", [2, 3, 30])
    def test_a_non_finite_solve_entry_ends_the_step(self, n_species, dimension, value,
                                                    monkeypatch):
        # One non-finite entry, first, middle or last, of either system's
        # solution in the first sweep reaches the convergence test and
        # leaves through its one finiteness check.  (A single species has
        # zero increment maps, so no solution of its reaches the state.)
        rng = np.random.default_rng([29, n_species, dimension])
        state = random_state(rng, n_species, dimension)
        model = ConstantMatrix(np.full((n_species, n_species), 1e10))  # any d
        cfg = IntegratorConfig(dt=1e-9, t_final=1e-9)
        solve = integrate_mod._solve
        for system in (0, 1):
            size = n_species * (dimension if system == 0 else 1)
            for entry in sorted({0, size // 2, size - 1}):
                calls = itertools.count()  # the sweep solves system 0, then 1

                def poisoned(matrix, rhs):
                    result = solve(matrix, rhs)
                    if next(calls) == system:
                        result.reshape(-1)[entry] = value
                    return result

                monkeypatch.setattr(integrate_mod, "_solve", poisoned)
                with pytest.raises(RealizabilityError,
                                   match="^implicit system: non-finite solution"):
                    simulate(state, cfg, model)


class TestSolve:
    """The sweep's direct gesv call is np.linalg.solve, bit for bit.

    It calls a private gufunc of numpy.linalg, so a numpy release that
    changes that gufunc fails here.
    """

    @pytest.mark.parametrize("rhs_shape", [(), (3,)])
    @pytest.mark.parametrize("kind", ["spd", "nonsymmetric"])
    @pytest.mark.parametrize("n", [1, 3, 30])
    def test_equals_numpy_solve(self, n, kind, rhs_shape):
        rng = np.random.default_rng([n, len(rhs_shape), kind == "spd"])
        system = rng.standard_normal((n, n))
        if kind == "spd":
            system = system @ system.T + 1e-3 * np.eye(n)
        rhs = rng.standard_normal((n, *rhs_shape))
        expected = np.linalg.solve(system, rhs)
        result = integrate_mod._solve(system, rhs)
        assert (result.dtype, result.shape) == (expected.dtype, expected.shape)
        assert result.tobytes() == expected.tobytes()


class TestIntegratorConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_final=1.0),
            dict(dt=0.1, t_final=-1.0),
            dict(dt=0.1, t_final=1.0, eps=0.0),
            dict(dt=0.1, t_final=1.0, method="euler"),
            pytest.param(dict(dt=1e-300, t_final=1.0), id="steps_beyond_maxsize"),
            pytest.param(dict(dt=0.1, t_final=1.0, max_dt=1e-300), id="controlled_beyond_maxsize"),
            pytest.param(dict(dt=5e-324, t_final=1e300), id="steps_overflow_to_inf"),
            pytest.param(dict(dt=1e-30, t_final=1e-12), id="steps_beyond_the_budget"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_a_run_may_plan_max_steps(self):
        # Every step is recorded, so the fewest steps a run can take, t_final
        # over dt or max_dt, is refused above MAX_STEPS and kept at it.
        budget = integrate_mod.MAX_STEPS
        assert budget == 10**6
        IntegratorConfig(dt=1e-12, t_final=budget * 1e-12)
        IntegratorConfig(dt=1.0, t_final=budget * 1e-12, max_dt=1e-12)
        for settings in (dict(dt=1e-12), dict(dt=1.0, max_dt=1e-12)):
            with pytest.raises(ValueError, match="steps, too many"):
                IntegratorConfig(t_final=(budget + 1) * 1e-12, **settings)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["dt", "t_final", "eps"])
    def test_non_finite_settings_are_called_non_finite(self, name, value):
        settings = {"dt": 0.1, "t_final": 1.0, "eps": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be [a-z]+ and finite, got {value}$"):
            IntegratorConfig(**settings)


class TestMonitorFloorAndBounds:
    def test_preset_trajectories_respect_floor_and_bounds(self, preset_states):
        for k, (state, model) in preset_states.items():
            from mixbgk import conservative_decay_rate

            velocity_rate, _ = conservative_decay_rate(state, model)
            cfg = IntegratorConfig(dt=0.05 / velocity_rate, t_final=1.0 / velocity_rate)
            trajectory = simulate(state, cfg, model)
            floor = trajectory.monitors[0].min_temperature
            for report in trajectory.monitors:
                assert report.min_temperature >= floor * (1.0 - 1e-9)
                assert report.velocity_bounds_ok
                assert report.above_floor

    def test_random_states_respect_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = random_state(rng, int(rng.integers(2, 5)))
            from mixbgk import conservative_decay_rate

            velocity_rate, _ = conservative_decay_rate(state, HardSphere())
            cfg = IntegratorConfig(dt=0.1 / velocity_rate, t_final=2.0 / velocity_rate)
            trajectory = simulate(state, cfg, HardSphere())
            floor = trajectory.monitors[0].min_temperature
            for report in trajectory.monitors:
                assert report.min_temperature >= floor * (1.0 - 1e-9)


class TestStiffConservation:
    """Backward Euler keeps the totals at every stiffness, not only mild steps."""

    @pytest.mark.parametrize("eps", [1.0, 1e-6])
    @pytest.mark.parametrize("rate_dt", [0.05, 5.0, 500.0, 5e4])
    @pytest.mark.parametrize("n_species", [3, 10, 30])
    def test_drift_bounds_and_floor(self, n_species, rate_dt, eps):
        for seed in range(3):
            state = random_state(np.random.default_rng([seed, n_species]), n_species)
            velocity_rate, _ = conservative_decay_rate(state, HardSphere())
            dt = rate_dt * eps / velocity_rate
            cfg = IntegratorConfig(dt=dt, t_final=8 * dt, eps=eps)
            trajectory = simulate(state, cfg, HardSphere())
            assert len(trajectory.monitors) == 9
            for report in trajectory.monitors:
                assert report.total_momentum_drift <= 1e-9
                assert report.total_energy_drift <= 1e-9
                assert report.velocity_bounds_ok
                assert report.above_floor


class TestIncrementForm:
    """Backward Euler solves for the step's increment and maps it with M_rho and M_n.

    Neither map changes a total in exact arithmetic: rho^T M_rho = 0 and
    1^T M_n = 0.  Computed, each entry of M_rho = (I - 1 rho^T / sum rho)
    P^{-1/2} carries a rounding error of at most gamma_{N+3} (|I| + 1 rho^T /
    sum rho) P^{-1/2}, a sum of N terms, a quotient, a difference, a square
    root and a quotient (gamma_k = k eps / (1 - k eps), Higham, ASNA, ch. 3),
    and that bound's rho-weighted column sums are 2 sqrt(rho)^T; M_n is the
    same with n for rho and 1 for the weights, and Q^{1/2} for P^{-1/2}.
    """

    def test_maps_carry_no_total(self):
        eps = np.finfo(float).eps
        for n_species in (1, 3, 10, 30):
            rng = np.random.default_rng([4, n_species])
            composition = random_state(rng, n_species).composition
            const = run_constants(composition, HardSphere(), 3)
            rho, n = composition.mass_densities, composition.number_densities
            # gamma_{N+3} from the maps, gamma_N from the test's own dot product.
            bound = 2.0 * (2 * n_species + 3) * eps
            assert np.all(abs(rho @ const.momentum_map) <= bound * np.sqrt(rho))
            assert np.all(abs(np.ones(n_species) @ const.energy_map) <= bound * np.sqrt(n))

    def test_a_steady_stiff_step_makes_one_core_call(self, monkeypatch):
        moving = random_state(np.random.default_rng(21), 3)
        state = state_from_temperatures(
            moving.composition,
            np.tile(moving.velocities[0], (3, 1)),
            np.full(3, temperatures_of(moving).mean()),
        )
        dt = 500.0 / conservative_decay_rate(state, HardSphere())[0]
        core, stepper = integrate_mod.relaxation, integrate_mod._picard_solve
        calls, per_step = [], []
        monkeypatch.setattr(
            integrate_mod, "relaxation", lambda *args: calls.append(1) or core(*args)
        )

        def stepping(*args):
            before = len(calls)
            result = stepper(*args)
            per_step.append(len(calls) - before)
            return result

        monkeypatch.setattr(integrate_mod, "_picard_solve", stepping)
        trajectory = simulate(state, IntegratorConfig(dt=dt, t_final=20 * dt), HardSphere())
        # An equilibrium step's right-hand sides are rounding, which the maps
        # keep rounding-sized: the first sweep already meets PICARD_TOL, so
        # each step the run computed calls the core once.
        assert len(trajectory.times) == 21
        assert per_step and per_step == [1] * len(per_step) and len(calls) == len(per_step)
        np.testing.assert_array_equal(trajectory.sweeps[1:], 1)

    @pytest.mark.parametrize("rate_dt", [0.05, 5.0, 500.0, 5e4])
    @pytest.mark.parametrize("n_species", [3, 10, 30])
    def test_one_step_keeps_the_totals_without_restoring_them(self, n_species, rate_dt):
        """Sum rho u and sum E after one step, bounded by the rounding of one M @ d.

        A step returns u = fl(u0 - fl(M dW)) with the stored M = M_rho + E.
        In exact arithmetic rho^T M_rho = 0, so rho^T (u - u0) is rounding:
        rho^T E dW, bounded by gamma_{N+3} 2 sqrt(rho)^T |dW| (class
        docstring); the product's own error F, |F| <= gamma_N |M| |dW|, whose
        rho-weighted sum is at most gamma_N 2 sqrt(rho)^T |dW|; and the
        difference with u0, at most eps rho^T |u|.  To first order in eps,
        dW = P^{1/2} (u0 - u), as the sqrt(rho)-part of an exact increment
        vanishes, so sqrt(rho)^T |dW| = rho^T |u - u0|.  The test's two
        totals add gamma_N rho^T (|u| + |u0|).  With gamma_k = k eps,

            |fl(rho^T u) - fl(rho^T u0)|
                <= eps [(4N + 6) rho^T |u - u0| + (N + 1) rho^T |u| + N rho^T |u0|],

        per velocity component, and the same for sum E with 1 for rho and
        dxi = Q^{-1/2} (e0 - e).
        """
        eps = np.finfo(float).eps
        cell = [0.05, 5.0, 500.0, 5e4].index(rate_dt)
        for seed in range(3):
            state = random_state(np.random.default_rng([seed, n_species, cell, 19]), n_species)
            dt = rate_dt / conservative_decay_rate(state, HardSphere())[0]
            stepped = one_step(state, IntegratorConfig(dt=dt, t_final=dt), HardSphere())
            weights = (state.composition.mass_densities, np.ones(n_species))
            for w, before, after in zip(weights, (state.velocities, state.energies),
                                        (stepped.velocities, stepped.energies)):
                bound = eps * ((4 * n_species + 6) * (w @ abs(after - before))
                               + (n_species + 1) * (w @ abs(after))
                               + n_species * (w @ abs(before)))
                assert np.all(abs(w @ after - w @ before) <= bound), (seed, w @ after - w @ before)


def _reference_backward_errors(state, u, e, dt, model):
    """Normwise backward errors of an iterate (u, e) in its own implicit equations, eps = 1.

    Rebuilt from the reference assembly: S0 = I + dt Z and
    S1 = I + dt Z-hat at the iterate's temperatures, the heating at
    the iterate's velocities and mixing weights, and the infinity-norm
    error |S x - b| / (||S|| |x| + |b|), with |.| the largest entry.
    """
    comp = state.composition
    sqrt_rho = np.sqrt(comp.mass_densities)
    sqrt_n = np.sqrt(comp.number_densities)
    mats = assemble(MomentState(comp, u, e), model)
    kinetic = mats.kinetic_coupling
    heating = (np.diag(kinetic.sum(axis=1)) - kinetic) @ comp.masses
    systems = [
        (mats.momentum_coupling, sqrt_rho[:, None] * u, scaled_velocities(state), sqrt_rho),
        (
            mats.energy_coupling,
            e / sqrt_n,
            scaled_energies(state) + 0.5 * dt * heating / sqrt_n,
            sqrt_n,
        ),
    ]
    errors = []
    for coupling, x, b, sqrt_w in systems:
        z = (np.diag(coupling.sum(axis=1)) - coupling) / np.outer(sqrt_w, sqrt_w)
        s = np.eye(comp.size) + dt * z
        scale = np.linalg.norm(s, np.inf) * np.abs(x).max() + np.abs(b).max()
        errors.append(np.abs(s @ x - b).max() / scale)
    return errors


class TestStiffPicardSteps:
    """Stiff steps end on PICARD_TOL, the one exit of the Picard loop.

    The iterate it returns solves its own implicit equations to roundoff:
    a normwise backward error below N machine eps, what a backward-stable
    N x N solve attains.
    """

    @pytest.mark.parametrize("rate_dt", [5e4, 5e6, 5e8])
    @pytest.mark.parametrize("n_species", [3, 10, 30])
    def test_stiff_steps_take_at_most_two_solves(self, n_species, rate_dt):
        for seed in range(3):
            state = random_state(np.random.default_rng([seed, n_species]), n_species)
            dt = rate_dt / conservative_decay_rate(state, HardSphere())[0]
            trajectory = simulate(state, IntegratorConfig(dt=dt, t_final=8 * dt), HardSphere())
            solves = [report.picard_iterations for report in trajectory.monitors[1:]]
            # The first step moves the temperatures by O(1), so its
            # frozen coefficients need one more solve pair to settle.
            assert len(solves) == 8 and min(solves) >= 1
            assert solves[0] <= 3 and max(solves[1:]) <= 2

    def test_state_at_rest_steps_without_warnings(self):
        moving = random_state(np.random.default_rng(8), 3)
        state = state_from_temperatures(
            moving.composition, np.zeros((3, 3)), temperatures_of(moving)
        )
        dt = 5e4 / conservative_decay_rate(state, HardSphere())[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory = simulate(state, IntegratorConfig(dt=dt, t_final=8 * dt), HardSphere())
        for report in trajectory.monitors:
            assert report.total_momentum_drift <= 1e-9
            assert report.total_energy_drift <= 1e-9
            assert report.above_floor

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    @pytest.mark.parametrize("rate_dt", [500.0, 5e4, 5e6, 5e8])
    def test_returned_iterate_meets_the_reference_equations(self, rate_dt, model_kind):
        for n_species in (3, 10, 30):
            # What a backward-stable N x N solve attains.
            bound = n_species * np.finfo(float).eps
            for seed in range(3):
                state, model, _ = TestBackwardEulerOracle._case(n_species, model_kind, seed)
                dt = rate_dt / conservative_decay_rate(state, model)[0]
                const = run_constants(state.composition, model, state.dimension)
                u, e, _ = integrate_mod._picard_solve(
                    state.velocities, state.energies, dt, 1.0, const
                )
                errors = _reference_backward_errors(state, u, e, dt, model)
                assert max(errors) < bound, (n_species, seed, errors)


class TestSlabSymmetry:
    @pytest.mark.parametrize("method", ["be", "rk4"])
    def test_transverse_velocities_stay_exactly_zero(self, method, preset_states):
        # velocities are full 3-vectors; nothing constrains the transverse
        # components, yet they must remain zero when they start zero
        state, model = preset_states[2]
        from mixbgk import conservative_decay_rate

        velocity_rate, _ = conservative_decay_rate(state, model)
        dt = 0.05 / velocity_rate if method == "be" else 1e-14
        cfg = IntegratorConfig(dt=dt, t_final=30 * dt, method=method)
        trajectory = simulate(state, cfg, model)
        np.testing.assert_array_equal(trajectory.velocities[:, :, 1:], 0.0)
