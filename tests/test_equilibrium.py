"""Steady states, spectral brackets, decay constants, envelopes, Jacobi."""

import numpy as np
import pytest

from mixbgk import (
    BOLTZMANN_J_PER_K,
    ConstantMatrix,
    DecayConstants,
    EquilibriumData,
    HardSphere,
    MixtureComposition,
    SpeciesParams,
    conservative_decay_rate,
    decay_envelopes,
    energy_to_kelvin,
    presets,
    state_from_temperatures,
    steady_state,
    velocity_component_bound,
    velocity_energy_bound,
)
from mixbgk.collisions import _laplacian
from mixbgk.oracles import assemble, symmetric_eigenvalues

from conftest import core_operators, decay_constants_of, random_composition, random_state


def uniform_constant_mixture(n_species=3, a=2.0, mass=3.0, n=7.0):
    comp = MixtureComposition(
        tuple(
            SpeciesParams(mass=mass, diameter=1.0, label=f"s{i}")
            for i in range(n_species)
        ),
        np.full(n_species, n),
    )
    state = state_from_temperatures(
        comp, np.zeros((n_species, 3)), np.full(n_species, 5.0)
    )
    return state, ConstantMatrix(np.full((n_species, n_species), a))


class TestSteadyState:
    def test_preset1_mean_temperature(self):
        eq = steady_state(presets()[1].initial_state())
        assert energy_to_kelvin(eq.temperature) == pytest.approx(2000.0, rel=1e-14)
        np.testing.assert_array_equal(eq.velocity, np.zeros(3))

    def test_preset2_mass_weighted_velocity(self):
        scenario = presets()[2]
        eq = steady_state(scenario.initial_state())
        # one-line oracle: mass-weighted mean of the initial velocities
        rho = np.array([s.mass for s in scenario.species]) * scenario.number_densities
        expected = rho @ scenario.velocities / rho.sum()
        np.testing.assert_allclose(eq.velocity, expected, rtol=1e-14)
        assert eq.velocity[0] == pytest.approx(28.62062455463919, rel=1e-12)

    def test_uniform_state_is_fixed_point(self):
        comp = random_composition(np.random.default_rng(3), 4)
        u = np.tile([33.0, -5.0, 2.0], (4, 1))
        t = 1500.0 * BOLTZMANN_J_PER_K
        state = state_from_temperatures(comp, u, np.full(4, t))
        eq = steady_state(state)
        np.testing.assert_allclose(eq.velocity, u[0], rtol=1e-13)
        assert eq.temperature == pytest.approx(t, rel=1e-13)

    def test_equilibrium_energies_conserve_total(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_state(rng)
            eq = steady_state(state)
            assert eq.energies.sum() == pytest.approx(state.energies.sum(), rel=1e-12)

    def test_equilibrium_temperature_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert steady_state(random_state(rng)).temperature > 0.0


class TestSpectralBounds:
    def test_constant_uniform_case_is_tight(self):
        state, model = uniform_constant_mixture(n_species=3, a=2.0)
        z, _, _, brackets = core_operators(state, model)
        velocity_lower = brackets[0, 0]
        assert velocity_lower == pytest.approx(3.0, rel=1e-14)  # N*a/2
        eigs = symmetric_eigenvalues(z)
        np.testing.assert_allclose(eigs[1:], velocity_lower, rtol=1e-12)

    def test_brackets_hold_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            state = random_state(rng, int(rng.integers(2, 5)))
            z, z_hat, _, brackets = core_operators(state, HardSphere())
            for operator, (lo, hi) in zip((z, z_hat), brackets):
                eigs = symmetric_eigenvalues(operator)
                assert abs(eigs[0]) <= 1e-12 * hi  # the null mode
                positive = eigs[1:]
                assert np.all(positive >= lo - 1e-12 * hi)
                assert np.all(positive <= hi + 1e-12 * hi)

    def test_single_species_flagged_vacuous(self):
        state = random_state(np.random.default_rng(13), 1)
        # the operator itself is identically zero: nothing to bracket
        z, _, _, _ = core_operators(state, HardSphere())
        np.testing.assert_allclose(z, 0.0, atol=1e-30)


class TestConservativeDecayRate:
    def test_constant_model_matches_instantaneous(self):
        state, model = uniform_constant_mixture()
        velocity_rate, energy_rate = conservative_decay_rate(state, model)
        (velocity_lower, _), (energy_lower, _) = core_operators(state, model)[3]
        assert velocity_rate == pytest.approx(velocity_lower, rel=1e-14)
        assert energy_rate == pytest.approx(energy_lower, rel=1e-14)

    def test_preset1_floor_rate_below_instantaneous(self):
        state = presets()[1].initial_state()
        velocity_rate, energy_rate = conservative_decay_rate(state, HardSphere())
        (velocity_lower, _), (energy_lower, _) = core_operators(state, HardSphere())[3]
        assert velocity_rate <= velocity_lower * (1 + 1e-14)
        assert energy_rate <= energy_lower * (1 + 1e-14)

    def test_warmer_floor_gives_faster_rate(self):
        comp = random_composition(np.random.default_rng(17), 3)
        cold = state_from_temperatures(
            comp, np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]) * 1.5e-20
        )
        warm = state_from_temperatures(
            comp, np.zeros((3, 3)), np.array([2.0, 2.5, 3.0]) * 1.5e-20
        )
        assert conservative_decay_rate(warm, HardSphere())[0] > conservative_decay_rate(
            cold, HardSphere()
        )[0]

    def test_rejects_zero_floor(self):
        comp = MixtureComposition((SpeciesParams(mass=1.0, diameter=1.0),), [1.0])
        boundary = state_from_temperatures(comp, [[1.0, 0.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="positive temperature floor"):
            conservative_decay_rate(boundary, HardSphere())


class TestVelocityBounds:
    def test_component_bound_from_extremes(self):
        comp = random_composition(np.random.default_rng(19), 2)
        u = np.array([[3.0, -4.0, 0.0], [-1.0, 2.0, 0.0]])
        state = state_from_temperatures(comp, u, np.full(2, 1e-20))
        assert velocity_component_bound(state.velocities) == pytest.approx(5.0)

    def test_energy_bound_is_looser_for_presets(self):
        for k in (2, 3):
            state = presets()[k].initial_state()
            assert velocity_energy_bound(state) >= velocity_component_bound(state.velocities)


class TestDecayEnvelopes:
    def test_time_zero_amplitudes(self):
        state = presets()[2].initial_state()
        constants = decay_constants_of(state, HardSphere())
        vel, energy, _ = decay_envelopes(constants, 1.0, 0.0)
        assert vel == pytest.approx(constants.velocity_amplitude, rel=1e-14)
        assert energy == pytest.approx(constants.energy_amplitude, rel=1e-14)

    def test_decays_to_zero(self):
        state = presets()[2].initial_state()
        constants = decay_constants_of(state, HardSphere())
        horizon = 60.0 / min(constants.velocity_rate, constants.energy_rate)
        t = np.linspace(0.0, horizon, 200)
        vel, energy, temp = decay_envelopes(constants, 1.0, t)
        assert vel[-1] < 1e-20 * vel[0]
        assert energy[-1] < 1e-18 * energy[0]
        assert temp[-1] < 1e-18 * temp[0]

    def test_equal_rate_limit_matches_generic(self):
        # analytic limit t e^{-zt} vs the generic quotient at zh = z(1+1e-9)
        base = dict(
            velocity_rate=2.0,
            energy_rate=2.0,
            velocity_rate_t0=2.0,
            velocity_rate_upper_t0=3.0,
            energy_rate_t0=2.0,
            energy_rate_upper_t0=3.0,
            velocity_amplitude=1.3,
            speed_bound=4.0,
            speed_bound_energy=9.0,
            source_amplitude=0.7,
            energy_amplitude=2.2,
            heating_amplitude=0.9,
            coupling_energy_max=1.0,
            dimension=3,
            n_min=1.0,
            m_max=1.0,
            fastest_rate_t0=3.0,
            velocity_gap=2.5,
            energy_gap=2.5,
            equilibrium=EquilibriumData(np.zeros(3), 1.0, np.ones(3)),
        )
        equal = DecayConstants(**base)
        near = DecayConstants(**{**base, "energy_rate": 2.0 * (1.0 + 1e-9)})
        t = np.linspace(0.0, 5.0, 50)
        _, energy_equal, temp_equal = decay_envelopes(equal, 1.0, t)
        _, energy_near, temp_near = decay_envelopes(near, 1.0, t)
        np.testing.assert_allclose(energy_equal, energy_near, rtol=1e-7)
        np.testing.assert_allclose(temp_equal, temp_near, rtol=1e-7)

    def test_kinetic_free_state_has_zero_cross_terms(self):
        # zero velocities: no velocity amplitude, pure thermal relaxation
        constants = decay_constants_of(presets()[1].initial_state(), HardSphere())
        assert constants.velocity_amplitude == 0.0
        assert constants.heating_amplitude == 0.0
        assert constants.speed_bound == 0.0


class TestSymmetricEigenvalues:
    def test_identity(self):
        np.testing.assert_array_equal(symmetric_eigenvalues(np.eye(5)), np.ones(5))

    def test_two_by_two_closed_form(self):
        np.testing.assert_allclose(
            symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0], rtol=1e-15
        )

    def test_rank_deficient_uniform_laplacian(self):
        # constant lam = a, equal rho = r: spectrum {0} + {N a r / 2} * (N-1)
        n_species, a, mass, n = 5, 2.0, 3.0, 7.0
        state, model = uniform_constant_mixture(n_species, a, mass, n)
        laplacian = _laplacian(assemble(state, model).momentum_coupling, np.eye(n_species))
        eigs = symmetric_eigenvalues(laplacian)
        r = mass * n
        np.testing.assert_allclose(eigs[0], 0.0, atol=1e-13 * a * r)
        np.testing.assert_allclose(eigs[1:], n_species * a * r / 2.0, rtol=1e-12)

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 4, 6, 10):
            raw = rng.standard_normal((n, n))
            sym = 0.5 * (raw + raw.T)
            mine = symmetric_eigenvalues(sym)
            reference = np.linalg.eigvalsh(sym)
            np.testing.assert_allclose(mine, reference, rtol=1e-12, atol=1e-13)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigenvalues([[1.0, 2.0], [0.5, 1.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(29)
        raw = rng.standard_normal((5, 5))
        sym = 0.5 * (raw + raw.T)
        big = symmetric_eigenvalues(sym * 1e40)
        np.testing.assert_allclose(big, symmetric_eigenvalues(sym) * 1e40, rtol=1e-12)


class TestEquilibriumInvariance:
    def test_recomputed_along_trajectory(self):
        from mixbgk import IntegratorConfig, simulate

        scenario = presets()[2]
        state = scenario.initial_state()
        model = scenario.model
        velocity_rate, _ = conservative_decay_rate(state, model)
        cfg = IntegratorConfig(dt=0.05 / velocity_rate, t_final=2.0 / velocity_rate)
        trajectory = simulate(state, cfg, model)
        reference = steady_state(state)
        for later in trajectory.states[1:]:
            eq = steady_state(later)
            np.testing.assert_allclose(
                eq.velocity,
                reference.velocity,
                rtol=1e-9,
                atol=1e-9 * np.linalg.norm(reference.velocity),
            )
            assert eq.temperature == pytest.approx(reference.temperature, rel=1e-9)
            np.testing.assert_allclose(eq.energies, reference.energies, rtol=1e-9)
