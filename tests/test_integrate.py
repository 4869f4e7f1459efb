"""Backward-Euler and RK4 steppers, trajectory recording, and monitors."""

import numpy as np
import pytest

import mixbgk.integrate as integrate_mod
from mixbgk import (
    ConstantMatrix,
    HardSphere,
    IntegratorConfig,
    MixtureComposition,
    MomentState,
    PicardDivergenceError,
    RealizabilityError,
    SpeciesParams,
    backward_euler_step,
    conservative_decay_rate,
    kelvin_to_energy,
    presets,
    rk4_step,
    scaled_energies,
    scaled_velocities,
    simulate,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.oracles import assemble, energy_rhs, momentum_rhs, pairwise_mixture

from conftest import core_operators, random_state


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
        stepped = backward_euler_step(state, cfg, ConstantMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_single_species_unchanged(self):
        state = random_state(np.random.default_rng(3), 1)
        cfg = IntegratorConfig(dt=1e-12, t_final=1e-11)
        stepped = backward_euler_step(state, cfg, HardSphere())
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_two_species_gap_update(self):
        # implicit update of the scalar gap ODE: g1 = g0 / (1 + dt*rate)
        state, model, _, rate = two_species_linear(gap=1.0)
        dt = 0.3
        cfg = IntegratorConfig(dt=dt, t_final=1.0)
        stepped = backward_euler_step(state, cfg, model)
        gap = stepped.velocities[0, 0] - stepped.velocities[1, 0]
        assert gap == pytest.approx(1.0 / (1.0 + dt * rate), rel=1e-12)

    def test_conserves_totals_per_step(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_state(rng, int(rng.integers(2, 5)))
            rho = state.composition.mass_densities
            z_scale = 1e12  # typical rate scale for these states
            cfg = IntegratorConfig(dt=0.3 / z_scale, t_final=1.0)
            stepped = backward_euler_step(state, cfg, HardSphere())
            before = rho @ state.velocities
            after = rho @ stepped.velocities
            scale = np.linalg.norm(before) or 1.0
            np.testing.assert_allclose(after, before, atol=1e-10 * scale)
            assert stepped.energies.sum() == pytest.approx(
                state.energies.sum(), rel=1e-10
            )

    def test_picard_divergence_reports_residual(self):
        state, model, _, _ = two_species_linear()
        cfg = IntegratorConfig(dt=0.5, t_final=1.0, picard_tol=1e-12, picard_max_iter=1)
        with pytest.raises(PicardDivergenceError, match="relative change"):
            backward_euler_step(state, cfg, model)

    def test_realizability_loss_triggers_halving(self, monkeypatch):
        state, model, _, _ = two_species_linear()
        cfg = IntegratorConfig(dt=0.4, t_final=1.0)
        original = integrate_mod._picard_solve
        calls = []

        def flaky(st, dt, *args, **kwargs):
            calls.append(dt)
            if dt > 0.15:
                raise RealizabilityError("synthetic loss")
            return original(st, dt, *args, **kwargs)

        monkeypatch.setattr(integrate_mod, "_picard_solve", flaky)
        stepped = backward_euler_step(state, cfg, model)
        # 0.4 fails, two halves of 0.2 fail, four quarters of 0.1 succeed
        assert calls.count(0.4) == 1
        assert calls.count(0.2) == 2
        assert sum(1 for c in calls if c == pytest.approx(0.1)) == 4
        assert np.all(np.isfinite(stepped.energies))

    def test_halving_depth_limit(self, monkeypatch):
        state, model, _, _ = two_species_linear()
        cfg = IntegratorConfig(dt=1.0, t_final=1.0)

        def always_fails(*args, **kwargs):
            raise RealizabilityError("synthetic loss")

        monkeypatch.setattr(integrate_mod, "_picard_solve", always_fails)
        with pytest.raises(RealizabilityError):
            backward_euler_step(state, cfg, model)


def _oracle_solve(state, dt, cfg, model):
    """One backward-Euler step from the reference assembly, without halving.

    Each Picard sweep freezes the coefficients at the iterate (``assemble``),
    forms Z and Z-hat from its couplings directly, solves for the
    velocities, then pairs the new velocities with the iterate's mixing
    weights in the kinetic coupling of the energy solve.  Sweeps stop once
    the relative max-norm change of both fields drops below ``picard_tol``.
    """
    comp = state.composition
    identity = np.eye(comp.size)
    sqrt_rho = np.sqrt(comp.mass_densities)
    sqrt_n = np.sqrt(comp.number_densities)
    momentum_scale = np.outer(sqrt_rho, sqrt_rho)
    energy_scale = np.outer(sqrt_n, sqrt_n)
    w_old, xi_old = scaled_velocities(state), scaled_energies(state)
    u_k, e_k = state.velocities, state.energies
    for _ in range(cfg.picard_max_iter):
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
        if change < cfg.picard_tol:
            return MomentState(comp, u_k, e_k)
    raise AssertionError("oracle Picard iteration did not converge")


def _assert_same_step(stepped, expected):
    u_scale = np.abs(expected.velocities).max()
    np.testing.assert_allclose(
        stepped.velocities, expected.velocities, rtol=0, atol=1e-13 * u_scale
    )
    np.testing.assert_allclose(stepped.energies, expected.energies, rtol=1e-13)


class TestBackwardEulerOracle:
    """backward_euler_step against Picard sweeps built from the reference assembly."""

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
            _assert_same_step(backward_euler_step(state, cfg, model), expected)

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    def test_matches_oracle_through_a_halving(self, model_kind, monkeypatch):
        state, model, cfg = self._case(3, model_kind, 0)
        original = integrate_mod._picard_solve
        calls = []

        def refuse_full_step(st, dt, *args):
            calls.append(dt)
            if dt == cfg.dt:
                raise RealizabilityError("synthetic loss")
            return original(st, dt, *args)

        monkeypatch.setattr(integrate_mod, "_picard_solve", refuse_full_step)
        stepped = backward_euler_step(state, cfg, model)
        assert calls == [cfg.dt, 0.5 * cfg.dt, 0.5 * cfg.dt]
        half = _oracle_solve(state, 0.5 * cfg.dt, cfg, model)
        _assert_same_step(stepped, _oracle_solve(half, 0.5 * cfg.dt, cfg, model))

    def test_nonpositive_iterate_temperature_raises_realizability(self):
        comp = random_state(np.random.default_rng(4), 3).composition
        velocities = np.array([[400.0, 0.0, 0.0], [-300.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        temperatures = kelvin_to_energy(np.array([300.0, 900.0, 0.0]))
        state = state_from_temperatures(comp, velocities, temperatures)
        cfg = IntegratorConfig(dt=1e-13, t_final=1e-13)
        # every halved step fails too, so the typed error surfaces
        with pytest.raises(RealizabilityError, match="iterate temperature"):
            backward_euler_step(state, cfg, HardSphere())

    @pytest.mark.parametrize("model_kind", ["hard_sphere", "constant"])
    def test_single_sweep_limit_raises_divergence(self, model_kind):
        state, model, cfg = self._case(3, model_kind, 1)
        tight = IntegratorConfig(dt=cfg.dt, t_final=cfg.dt, picard_tol=1e-15, picard_max_iter=1)
        with pytest.raises(PicardDivergenceError, match="did not converge in 1 sweeps"):
            backward_euler_step(state, tight, model)


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
            _assert_same_step(rk4_step(state, cfg, model), expected)

    def test_equilibrium_is_fixed_point(self):
        state = uniform_equilibrium_state()
        cfg = IntegratorConfig(dt=0.05, t_final=1.0, method="rk4")
        stepped = rk4_step(state, cfg, ConstantMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(stepped.velocities, state.velocities, rtol=1e-14)
        np.testing.assert_allclose(stepped.energies, state.energies, rtol=1e-14)

    def test_gap_matches_exponential(self):
        state, model, _, rate = two_species_linear(gap=1.0)
        t_final = 1.0 / rate
        steps = 1000
        cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method="rk4")
        current = state
        for _ in range(steps):
            current = rk4_step(current, cfg, model)
        gap = current.velocities[0, 0] - current.velocities[1, 0]
        assert gap == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_unstable_step_reports_realizability(self):
        state = presets()[3].initial_state()
        cfg = IntegratorConfig(dt=1e-10, t_final=1e-9, method="rk4")
        with pytest.raises(RealizabilityError, match="stage"):
            rk4_step(state, cfg, HardSphere())


class TestConvergenceOrders:
    def _final_gap_error(self, method, steps):
        state, model, _, rate = two_species_linear(gap=1.0)
        t_final = 1.0 / rate
        cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method=method)
        trajectory = simulate(state, cfg, model)
        gap = (
            trajectory.final_state.velocities[0, 0]
            - trajectory.final_state.velocities[1, 0]
        )
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
                finals.append(simulate(state, cfg, model).final_state)
            diffs.append(
                np.linalg.norm(finals[0].velocities - finals[1].velocities)
            )
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

    def test_output_stride(self):
        state, model, _, rate = two_species_linear()
        cfg = IntegratorConfig(dt=0.1 / rate, t_final=1.0 / rate, output_stride=3)
        trajectory = simulate(state, cfg, model)
        # initial + steps 3, 6, 9 + final partial
        assert len(trajectory.times) == len(trajectory.states)
        assert len(trajectory.monitors) == len(trajectory.times)
        assert trajectory.times[-1] == cfg.t_final
        steps = np.rint(np.diff(trajectory.times) / cfg.dt)
        assert np.all(steps[:-1] == 3)

    def test_horizon_shorter_than_one_step_takes_one_step(self):
        scenario = presets()[1]
        state, model = scenario.initial_state(), scenario.frequency_model()
        cfg = IntegratorConfig(dt=1e3, t_final=1e-9)
        trajectory = simulate(state, cfg, model)
        np.testing.assert_array_equal(trajectory.times, [0.0, 1e-9])
        assert trajectory.monitors[1].picard_iterations >= 1
        stepped = backward_euler_step(state, IntegratorConfig(dt=1e-9, t_final=1e-9), model)
        np.testing.assert_array_equal(trajectory.final_state.velocities, stepped.velocities)
        np.testing.assert_array_equal(trajectory.final_state.energies, stepped.energies)

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
        trajectory = simulate(state, cfg, scenario.frequency_model())
        for report in trajectory.monitors:
            assert report.realizable
            assert report.velocity_bounds_ok
            assert report.total_momentum_drift <= 1e-12
            assert report.total_energy_drift <= 1e-12
        assert trajectory.monitors[1].picard_iterations >= 1

    def test_failure_carries_time(self):
        state, model, _, _ = two_species_linear()
        cfg = IntegratorConfig(
            dt=0.5, t_final=5.0, picard_tol=1e-12, picard_max_iter=1
        )
        with pytest.raises(PicardDivergenceError) as excinfo:
            simulate(state, cfg, model)
        assert excinfo.value.time == pytest.approx(0.5)
        assert "t = " in str(excinfo.value)

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


class TestIntegratorConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_final=1.0),
            dict(dt=0.1, t_final=-1.0),
            dict(dt=0.1, t_final=1.0, eps=0.0),
            dict(dt=0.1, t_final=1.0, method="euler"),
            dict(dt=0.1, t_final=1.0, output_stride=0),
            dict(dt=0.1, t_final=1.0, picard_max_iter=0),
            dict(dt=0.1, t_final=1.0, picard_tol=0.0),
            dict(dt=0.1, t_final=1.0, picard_tol=float("nan")),
            dict(dt=1e-13, t_final=6e-13, output_stride=1.5),
            dict(dt=1e-13, t_final=6e-13, picard_max_iter=2.5),
            dict(dt=0.1, t_final=1.0, output_stride="2"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        cfg = IntegratorConfig(
            dt=0.1, t_final=1.0, output_stride=np.int64(2), picard_max_iter=np.int32(7)
        )
        assert cfg.output_stride == 2 and cfg.picard_max_iter == 7


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
                assert report.realizable

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
                assert report.realizable


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
        for later in trajectory.states:
            np.testing.assert_array_equal(later.velocities[:, 1:], 0.0)
