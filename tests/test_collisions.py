"""Collision frequencies, mixing weights, mixture values, and couplings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbgk import (
    BOLTZMANN_J_PER_K,
    ConstantMatrix,
    GASES,
    HardSphere,
    MixtureComposition,
    SpeciesParams,
    hard_sphere_frequencies,
    presets,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.collisions import _laplacian, _weight_and_coupling, operators, run_constants
from mixbgk.equilibrium import eigenvalue_brackets
from mixbgk.oracles import assemble, closed_form_couplings, pairwise_mixture

from conftest import random_composition, random_state

T1000 = 1000.0 * BOLTZMANN_J_PER_K

# Frozen oracle: lam[Ar, Ar] for n = 1e28 1/m^3 and T = kB * 1000 J,
# evaluated by hand from the frequency formula with scalar math.
LAM_AR_AR_1000K = 5773884255843.473
# Frozen oracles for the Ar-Kr pair with number densities (3, 2)e28 at
# 1000 K: the velocity weight and the pair temperature with a 100 m/s gap.
ALPHA_AR_KR = 0.32282255727520104
T_MIX_AR_KR = 1.3881357845322057e-20


def _hard_sphere_pair(rng=None):
    return (GASES["Ar"], GASES["Kr"]), np.array([3e28, 2e28])


class TestHardSphereFrequencies:
    def test_identical_species_symmetric(self):
        species = (
            SpeciesParams(mass=5e-26, diameter=3e-10, label="a"),
            SpeciesParams(mass=5e-26, diameter=3e-10, label="b"),
        )
        lam = hard_sphere_frequencies(species, [1e28, 1e28], [T1000, T1000])
        assert lam[0, 1] == pytest.approx(lam[1, 0], rel=0)

    def test_sqrt_scaling_in_temperature(self):
        comp = random_composition(np.random.default_rng(3), 3)
        temps = np.array([1.0, 2.0, 3.0]) * T1000
        lam1 = hard_sphere_frequencies(comp.species, comp.number_densities, temps)
        lam4 = hard_sphere_frequencies(comp.species, comp.number_densities, 4.0 * temps)
        np.testing.assert_allclose(lam4, 2.0 * lam1, rtol=1e-15)

    def test_argon_frozen_value(self):
        lam = hard_sphere_frequencies((GASES["Ar"],), [1e28], [T1000])
        assert lam[0, 0] == pytest.approx(LAM_AR_AR_1000K, rel=1e-14)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="'Kr'"):
            hard_sphere_frequencies(*_hard_sphere_pair(), [T1000, 0.0])

    def test_requires_three_dimensions(self):
        rng = np.random.default_rng(5)
        comp = random_composition(rng, 2)
        with pytest.raises(ValueError, match="d = 3"):
            run_constants(comp, HardSphere(), dimension=2)

    @given(factor=st.floats(min_value=1.001, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_temperature(self, factor):
        comp = random_composition(np.random.default_rng(17), 3)
        temps = np.array([0.7, 1.1, 2.9]) * T1000
        lam_low = hard_sphere_frequencies(comp.species, comp.number_densities, temps)
        raised = temps.copy()
        raised[1] *= factor
        lam_high = hard_sphere_frequencies(comp.species, comp.number_densities, raised)
        assert np.all(lam_high >= lam_low)
        assert np.all(lam_high[1, :] > lam_low[1, :])


class TestMixingWeights:
    def test_identical_species_give_half(self):
        lam = np.full((2, 2), 3.0)
        alpha, _ = _weight_and_coupling(lam, [2.0, 2.0])
        beta, _ = _weight_and_coupling(lam, [1.0, 1.0])
        np.testing.assert_allclose(alpha, 0.5)
        np.testing.assert_allclose(beta, 0.5)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_complements_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n_species = int(rng.integers(2, 6))
        lam = rng.uniform(0.1, 10.0, size=(n_species, n_species))
        rho = rng.uniform(0.1, 10.0, size=n_species)
        n = rng.uniform(0.1, 10.0, size=n_species)
        alpha, _ = _weight_and_coupling(lam, rho)
        beta, _ = _weight_and_coupling(lam, n)
        np.testing.assert_allclose(alpha + alpha.T, 1.0, rtol=1e-15)
        np.testing.assert_allclose(beta + beta.T, 1.0, rtol=1e-15)

    def test_argon_krypton_frozen_values(self):
        species, n = _hard_sphere_pair()
        lam = hard_sphere_frequencies(species, n, [T1000, T1000])
        rho = np.array([s.mass for s in species]) * n
        alpha, _ = _weight_and_coupling(lam, rho)
        beta, _ = _weight_and_coupling(lam, n)
        assert alpha[0, 1] == pytest.approx(ALPHA_AR_KR, rel=1e-14)
        # hard-sphere frequencies make the temperature weights exactly 1/2
        assert beta[0, 1] == pytest.approx(0.5, rel=1e-14)

    def test_hard_sphere_velocity_weight_is_mass_fraction(self):
        # rho_i lam_ij is proportional to m_i for hard spheres
        state = random_state(np.random.default_rng(23), 3)
        comp = state.composition
        lam = hard_sphere_frequencies(
            comp.species, comp.number_densities, temperatures_of(state)
        )
        alpha, _ = _weight_and_coupling(lam, comp.mass_densities)
        m = comp.masses
        np.testing.assert_allclose(
            alpha, m[:, None] / (m[:, None] + m[None, :]), rtol=1e-13
        )


class TestPairwiseMixture:
    def test_uniform_state_is_fixed_point(self):
        comp = random_composition(np.random.default_rng(29), 3)
        u = np.tile([120.0, -4.0, 9.0], (3, 1))
        state = state_from_temperatures(comp, u, np.full(3, T1000))
        mats = assemble(state, HardSphere())
        mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
        np.testing.assert_allclose(
            mix.velocities, np.broadcast_to(u[0], (3, 3, 3)), rtol=1e-13
        )
        np.testing.assert_allclose(mix.temperatures, T1000, rtol=1e-13)

    def test_diagonal_collapses_to_species_values(self):
        state = random_state(np.random.default_rng(31), 4)
        mats = assemble(state, HardSphere())
        mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
        temps = temperatures_of(state)
        for i in range(4):
            np.testing.assert_allclose(mix.velocities[i, i], state.velocities[i], rtol=1e-14)
            assert mix.temperatures[i, i] == pytest.approx(temps[i], rel=1e-14)

    def test_preset2_pair_temperature_frozen_value(self):
        state = presets()[2].initial_state()
        mats = assemble(state, HardSphere())
        mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
        assert mix.temperatures[0, 1] == pytest.approx(T_MIX_AR_KR, rel=1e-14)
        assert mix.temperatures[0, 1] > T1000  # relative motion heats the pair

    def test_pair_temperature_at_least_coldest(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            state = random_state(rng)
            mats = assemble(state, HardSphere())
            mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
            temps = temperatures_of(state)
            pair_min = np.minimum(temps[:, None], temps[None, :])
            assert np.all(mix.temperatures >= pair_min * (1 - 1e-12))

    def test_symmetric(self):
        state = random_state(np.random.default_rng(41), 3)
        mats = assemble(state, HardSphere())
        mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
        np.testing.assert_allclose(mix.temperatures, mix.temperatures.T, rtol=1e-13)
        np.testing.assert_allclose(
            mix.velocities, mix.velocities.transpose(1, 0, 2), rtol=1e-13
        )


class TestAssemble:
    def test_constant_frequencies_equal_densities(self):
        # lam = a and equal rho make every momentum coupling entry rho*a/2
        a, mass, n = 2.5, 3.0, 7.0
        comp = MixtureComposition(
            tuple(SpeciesParams(mass=mass, diameter=1.0, label=f"s{i}") for i in range(3)),
            np.full(3, n),
        )
        state = state_from_temperatures(comp, np.zeros((3, 3)), np.full(3, 5.0))
        mats = assemble(state, ConstantMatrix(np.full((3, 3), a)))
        np.testing.assert_allclose(mats.momentum_coupling, mass * n * a / 2.0, rtol=1e-15)

    def test_kinetic_degree_matches_direct_sum(self):
        state = random_state(np.random.default_rng(43), 3)
        mats = assemble(state, HardSphere())
        mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
        direct = np.sum(
            mats.energy_coupling * np.einsum("ijk,ijk->ij", mix.velocities, mix.velocities),
            axis=1,
        )
        np.testing.assert_allclose(mats.kinetic_coupling.sum(axis=1), direct, rtol=1e-14)

    def test_preset1_couplings_match_closed_form(self):
        state = presets()[1].initial_state()
        mats = assemble(state, HardSphere())
        a_direct, b_direct = closed_form_couplings(
            state.composition.species,
            state.composition.number_densities,
            temperatures_of(state),
        )
        np.testing.assert_allclose(mats.momentum_coupling, a_direct, rtol=1e-12)
        np.testing.assert_allclose(mats.energy_coupling, b_direct, rtol=1e-12)

    def test_couplings_symmetric_and_positive(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            state = random_state(rng)
            mats = assemble(state, HardSphere())
            for coupling in (mats.momentum_coupling, mats.energy_coupling):
                np.testing.assert_allclose(coupling, coupling.T, rtol=1e-13)
                assert np.all(coupling > 0.0)

    def test_equal_velocities_make_kinetic_coupling_proportional(self):
        comp = random_composition(np.random.default_rng(53), 3)
        u = np.tile([50.0, -20.0, 5.0], (3, 1))
        state = state_from_temperatures(comp, u, np.array([1.0, 2.0, 3.0]) * T1000)
        mats = assemble(state, HardSphere())
        speed_sq = float(u[0] @ u[0])
        np.testing.assert_allclose(mats.mixture_speed_sq, speed_sq, rtol=1e-13)
        np.testing.assert_allclose(
            mats.kinetic_coupling, speed_sq * mats.energy_coupling, rtol=1e-13
        )

    def test_degree_matrices_are_row_sums(self):
        state = random_state(np.random.default_rng(59), 4)
        mats = assemble(state, HardSphere())
        for coupling in (mats.momentum_coupling, mats.energy_coupling):
            np.testing.assert_array_equal(
                np.diag(_laplacian(coupling)), coupling.sum(axis=1) - np.diag(coupling)
            )


class TestStackedRecords:
    """The helpers broadcast over a leading record axis, bit for bit."""

    @staticmethod
    def _records(rng, comp, count=6):
        velocities = rng.uniform(-500.0, 500.0, size=(count, comp.size, 3))
        temperatures = rng.uniform(200.0, 3000.0, size=(count, comp.size)) * BOLTZMANN_J_PER_K
        return [state_from_temperatures(comp, u, t) for u, t in zip(velocities, temperatures)]

    @pytest.mark.parametrize("constant", [False, True])
    def test_match_per_record_assembly(self, constant):
        rng = np.random.default_rng(79)
        comp = random_composition(rng, 4)
        model = ConstantMatrix(rng.uniform(1e9, 1e12, (4, 4))) if constant else HardSphere()
        states = self._records(rng, comp)
        temps = np.array([temperatures_of(s) for s in states])
        rho, n = comp.mass_densities, comp.number_densities

        const = run_constants(comp, model, 3)
        lam = const.frequencies(temps)
        beta, _ = _weight_and_coupling(lam, n)
        alpha, momentum, energy, momentum_relaxation, energy_relaxation = operators(temps, const)
        brackets = eigenvalue_brackets(momentum, energy, rho, n)
        # Both models give one matrix per record.
        assert lam.shape == momentum_relaxation.shape == energy_relaxation.shape == (6, 4, 4)
        assert brackets.shape == (6, 2, 2)
        for r, state in enumerate(states):
            mats = assemble(state, model)
            np.testing.assert_array_equal(
                brackets[r],
                eigenvalue_brackets(mats.momentum_coupling, mats.energy_coupling, rho, n),
            )
            momentum_laplacian, energy_laplacian = (
                np.diag(c.sum(axis=1)) - c for c in (mats.momentum_coupling, mats.energy_coupling)
            )
            pairs = [
                (lam, mats.frequencies),
                (alpha, mats.velocity_weights),
                (beta, mats.temperature_weights),
                (momentum, mats.momentum_coupling),
                (energy, mats.energy_coupling),
                (_laplacian(momentum), momentum_laplacian),
                (_laplacian(energy), energy_laplacian),
                (momentum_relaxation, momentum_laplacian / np.outer(np.sqrt(rho), np.sqrt(rho))),
                (energy_relaxation, energy_laplacian / np.outer(np.sqrt(n), np.sqrt(n))),
            ]
            for stacked, single in pairs:
                np.testing.assert_array_equal(stacked[r], single)

    def test_bad_temperature_names_its_species(self):
        comp = random_composition(np.random.default_rng(83), 3)
        temps = np.full((4, 3), T1000)
        temps[2, 1] = -1.0
        temps[3, 0] = -2.0
        with pytest.raises(ValueError, match="'s1' has T = -1"):
            hard_sphere_frequencies(comp.species, comp.number_densities, temps)


class TestClosedFormCouplings:
    def test_agrees_with_assembly_on_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_state(rng)
            mats = assemble(state, HardSphere())
            a_direct, b_direct = closed_form_couplings(
                state.composition.species,
                state.composition.number_densities,
                temperatures_of(state),
            )
            np.testing.assert_allclose(mats.momentum_coupling, a_direct, rtol=1e-12)
            np.testing.assert_allclose(mats.energy_coupling, b_direct, rtol=1e-12)

    def test_symmetry_exact(self):
        state = random_state(np.random.default_rng(67), 4)
        a_direct, b_direct = closed_form_couplings(
            state.composition.species,
            state.composition.number_densities,
            temperatures_of(state),
        )
        np.testing.assert_array_equal(a_direct, a_direct.T)
        np.testing.assert_array_equal(b_direct, b_direct.T)

    def test_argon_krypton_dual_path(self):
        species, n = _hard_sphere_pair()
        temps = np.array([T1000, T1000])
        a_direct, b_direct = closed_form_couplings(species, n, temps)
        comp = MixtureComposition(species, n)
        state = state_from_temperatures(comp, np.zeros((2, 3)), temps)
        mats = assemble(state, HardSphere())
        assert np.all(np.isfinite(a_direct)) and np.all(a_direct > 0)
        np.testing.assert_allclose(a_direct, mats.momentum_coupling, rtol=1e-12)
        np.testing.assert_allclose(b_direct, mats.energy_coupling, rtol=1e-12)


class TestConstantMatrixValidation:
    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            ConstantMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            ConstantMatrix(np.ones((2, 3)))

    def test_shape_checked_at_use(self):
        state = random_state(np.random.default_rng(71), 3)
        with pytest.raises(ValueError, match="3 species"):
            assemble(state, ConstantMatrix(np.ones((2, 2))))
