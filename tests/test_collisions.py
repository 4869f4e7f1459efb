"""Collision frequencies, mixing weights, mixture values, and couplings."""

import dataclasses
import warnings

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
    presets,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.collisions import (
    DENSE_OPERATOR_MAX_SPECIES,
    _laplacian,
    heating,
    operators,
    relaxation,
    run_constants,
)
from mixbgk.equilibrium import eigenvalue_brackets
from mixbgk.oracles import (
    assemble,
    closed_form_couplings,
    energy_rhs,
    hard_sphere_frequencies,
    momentum_rhs,
    pairwise_mixture,
    thermal_speed,
    weight_and_coupling,
)

from conftest import random_composition, random_state

T1000 = 1000.0 * BOLTZMANN_J_PER_K

# Frozen oracle: lam[Ar, Ar] for n = 1e28 1/m^3 and T = kB * 1000 J,
# evaluated by hand from the frequency formula with scalar math.
LAM_AR_AR_1000K = 5773884255843.473
# Frozen oracles for the Ar-Kr pair with number densities (3, 2)e28 at
# 1000 K: the velocity weight and the pair temperature with a 100 m/s gap.
ALPHA_AR_KR = 0.32282255727520104
T_MIX_AR_KR = 1.3881357845322057e-20


UNIT = 0.5 * np.finfo(float).eps  # unit roundoff


def _gamma(count):
    """Relative error bound of ``count`` roundings, count u / (1 - count u) (Higham, Lemma 3.1)."""
    return count * UNIT / (1.0 - count * UNIT)


def _assert_within(actual, reference, bound):
    """|actual - reference| <= bound, entrywise and broadcast."""
    excess = np.abs(actual - reference) - bound
    assert np.all(excess <= 0.0), f"largest excess over the bound: {excess.max():.3e}"


def _mixing_weights(const, size):
    """alpha_ij as the pair-velocity map holds it: row i * N + j, column i.

    Off the diagonal the entry is alpha_ij + 0.0, exactly; a self pair's
    row holds alpha_ii twice in one column, an exact doubling.
    """
    i, j = np.indices((size, size))
    return const.mixing.reshape(size, size, size)[i, j, i] / np.where(i == j, 2.0, 1.0)


def _assert_core_matches(const, coupling, relaxation, reference_alpha, reference, comp):
    """The core's alpha, [A, B] and [Z, Z-hat] against per-state reference
    quotients, within the roundings counted in :class:`TestStackedCore`."""
    size = comp.size
    alpha = _mixing_weights(const, size)
    _assert_within(alpha, reference_alpha, _gamma(10) * reference_alpha)
    _assert_within(coupling, reference, _gamma(16) * reference)
    sqrt_rho, sqrt_n = np.sqrt(comp.mass_densities), np.sqrt(comp.number_densities)
    scale = np.stack([np.outer(sqrt_rho, sqrt_rho), np.outer(sqrt_n, sqrt_n)])
    identity = np.eye(size)
    degree = reference.sum(axis=-1)[..., None] * identity
    bound = (_gamma(18) * reference * (1.0 - identity) + _gamma(2 * size + 18) * degree) / scale
    _assert_within(relaxation, (degree - reference) / scale, bound)


def _elementwise(const):
    """The run constants without the dense map of [Z, Z-hat]: the core goes elementwise."""
    return dataclasses.replace(const, pair_sums=None, operator_map=None)


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
        alpha, _ = weight_and_coupling(lam, [2.0, 2.0])
        beta, _ = weight_and_coupling(lam, [1.0, 1.0])
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
        alpha, _ = weight_and_coupling(lam, rho)
        beta, _ = weight_and_coupling(lam, n)
        np.testing.assert_allclose(alpha + alpha.T, 1.0, rtol=1e-15)
        np.testing.assert_allclose(beta + beta.T, 1.0, rtol=1e-15)

    def test_argon_krypton_frozen_values(self):
        species, n = _hard_sphere_pair()
        lam = hard_sphere_frequencies(species, n, [T1000, T1000])
        rho = np.array([s.mass for s in species]) * n
        alpha, _ = weight_and_coupling(lam, rho)
        beta, _ = weight_and_coupling(lam, n)
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
        alpha, _ = weight_and_coupling(lam, comp.mass_densities)
        m = comp.masses
        np.testing.assert_allclose(
            alpha, m[:, None] / (m[:, None] + m[None, :]), rtol=1e-13
        )


class TestClosedFormWeights:
    """The thermal speed cancels from the hard-sphere weights and factors out of the couplings.

    The factor f_ij = g_ij n_j has g formed from symmetric operands only,
    so g_ij = g_ji to the bit, and f_ij carries the one rounding of the
    product with n_j.  With lam = f s and rho = m n (one rounding each),
    rho_i lam_ij = m_i n_i n_j g s within 4 roundings and n_i lam_ij within
    3, the pair sum adds one and the quotient one.  So the reference
    alpha is within gamma_10 of m_i / (m_i + m_j), whose own two roundings
    make 12, and beta within gamma_8 of 1/2.  The run constant skips
    lam: rho_i f_ij carries 3, so alpha is within gamma_8, 10 with the
    closed form's.  C s / s is C within 2 roundings.
    """

    @staticmethod
    def _draw(size):
        rng = np.random.default_rng([107, size])
        comp = random_composition(rng, size)
        # 1 K to 1e6 K, log-uniform: the weights must not see the temperature.
        kelvin = np.exp(rng.uniform(0.0, np.log(1e6), size=(4, size)))
        return comp, kelvin * BOLTZMANN_J_PER_K

    @pytest.mark.parametrize("size", [2, 3, 10, 30])
    def test_weights_are_mass_fractions_and_one_half(self, size):
        comp, temps = self._draw(size)
        m = comp.masses
        closed = m[:, None] / (m[:, None] + m[None, :])
        lam = hard_sphere_frequencies(comp.species, comp.number_densities, temps)
        alpha, _ = weight_and_coupling(lam, comp.mass_densities)
        beta, _ = weight_and_coupling(lam, comp.number_densities)
        _assert_within(alpha, closed, _gamma(12) * closed)
        _assert_within(beta, 0.5, _gamma(8) * 0.5)
        mixing = _mixing_weights(run_constants(comp, HardSphere(), 3), size)
        _assert_within(mixing, closed, _gamma(10) * closed)

    @pytest.mark.parametrize("size", [2, 3, 10, 30])
    def test_couplings_over_thermal_speed_are_temperature_free(self, size):
        comp, temps = self._draw(size)
        const = run_constants(comp, HardSphere(), 3)
        coupling, _ = operators(temps, const)
        unit = coupling / thermal_speed(comp.masses, temps)[:, None]
        _assert_within(unit, const.unit_coupling, _gamma(2) * const.unit_coupling)


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


class TestKineticModel:
    """The moment system against its kinetic model, on the presets' mixtures.

    Species i relaxes towards M_ij, the Maxwellian of its own density and
    mass at the pair velocity u_ij and temperature T_ij, at the rate
    lambda_ij (Haack, Hauck & Murillo, J. Stat. Phys. 168, 2017):

        df_i/dt = (1/eps) sum_j lambda_ij (M_ij - f_i).

    M_ij has the moments rho_i u_ij and rho_i |u_ij|^2 / 2 + (d/2) n_i T_ij.
    With u_ij = u_ji and T_ij = T_ji the pair's two terms conserve momentum
    and energy when

        lambda_ij rho_i (u_ij - u_i) + lambda_ji rho_j (u_ij - u_j) = 0,
        lambda_ij (moment of M_ij - E_i) + lambda_ji (moment of M_ji - E_j) = 0,

    linear in u_ij and then, with u_ij known, in T_ij: each is one division.

    The bounds count roundings to first order in the unit roundoff u; k of
    them bound a relative error by gamma_k.  lambda (from
    ``hard_sphere_frequencies``), a = rho_i lambda_ij, p = n_i lambda_ij and
    their pair sums S_rho = a + b, S_n = p + q (b and q the same for the
    pair j, i) are the same floats here as in ``assemble``.
    * Velocities, per component, against s = (a |u_i| + b |u_j|) / S_rho,
      the largest a pair velocity can be.  The solved quotient rounds its
      two products, their sum and the quotient, 3; ``pairwise_mixture``
      rounds alpha = a / S_rho, its products and their sum, 3: gamma_6.
    * Temperatures against M = 2 (lambda_ij E_i + lambda_ji E_j) / (d S_n),
      the pair temperature if all of the energy were thermal.  With e_i =
      2 E_i / (d n_i) = T_i + k_i, k_i = m_i |u_i|^2 / d, M is beta_ij e_i +
      beta_ji e_j, so the beta-weighted T and k are each at most M, and so
      are |u_ij|^2 S_rho / (d S_n) and m_i alpha_ji beta_ij |u_i - u_j|^2 /
      d, both at most (a |u_i|^2 + b |u_j|^2) / (d S_n).  The solved form
      rounds the sum of lambda E, 2; |u_ij|^2 S_rho / 2, 10 (twice u_ij's
      3, the squares and their sum 3, S_rho 1); the difference, 1; the
      divisor and the quotient, 2: 15.  ``pairwise_mixture``'s T_i is e_i
      within 4 roundings and k_i within 6, and beta, its product and the
      two sums add 4 on beta T_i: 14; its speed term 12 (m alpha beta 4,
      the squared gaps and their sum 5, the product, /d and the last sum
      3): 26.  The two forms agree for exact rho = m n, a, p and pair sums,
      which the shared floats miss by 8: gamma_49.
    * Rates, sum_j lambda_ij (moments of M_ij - those of f_i) / eps at
      ``pairwise_mixture``'s pair values, over N species.  Momentum, per
      component, against sum_j lambda_ij rho_i (s + |u_i|) / eps, which
      bounds the terms of either side (A_ij |u_j| = lambda_ij rho_i
      alpha_ji |u_j| <= lambda_ij rho_i s): the kinetic side carries u_ij's
      3 and N + 3 of its own, ``momentum_rhs`` N + 4, and the identity
      misses 2: gamma_{2N+12}.  Energy against the sum of the magnitudes of
      both sides' terms, with s^2 and M for |u_ij|^2 and T_ij: the kinetic
      side carries T_ij's 26 and N + 5 of its own, ``energy_rhs`` N + 15
      (its kinetic coupling holds |u_mix|^2 within 9), and the identity
      misses 14: gamma_{N+45}, the larger side's count and the identity's.
    """

    @staticmethod
    def _states():
        # Each preset's initial state and 50 random states of its mixture.
        rng = np.random.default_rng(163)
        for scenario in presets().values():
            state = scenario.initial_state()
            yield state
            comp = state.composition
            for _ in range(50):
                velocities = rng.uniform(-500.0, 500.0, size=(comp.size, 3))
                temperatures = rng.uniform(200.0, 3000.0, size=comp.size) * BOLTZMANN_J_PER_K
                yield state_from_temperatures(comp, velocities, temperatures)

    @staticmethod
    def _pair_data(state):
        """(lambda, a, S_rho, S_n, s) of a state, s the pair velocities' scale."""
        comp = state.composition
        lam = hard_sphere_frequencies(comp.species, comp.number_densities, temperatures_of(state))
        a = comp.mass_densities[:, None] * lam
        p = comp.number_densities[:, None] * lam
        speeds = np.abs(state.velocities)
        scale = (a[:, :, None] * speeds[:, None, :] + a.T[:, :, None] * speeds) / (a + a.T)[
            :, :, None
        ]
        return lam, a, a + a.T, p + p.T, scale

    def test_conservation_gives_the_pair_values(self):
        for state in self._states():
            d, u, energies = state.dimension, state.velocities, state.energies
            lam, a, sum_rho, sum_n, scale = self._pair_data(state)
            # Momentum: S_rho u_ij = a u_i + b u_j.
            velocities = (a[:, :, None] * u[:, None, :] + a.T[:, :, None] * u) / sum_rho[
                :, :, None
            ]
            # Energy: (d/2) S_n T_ij = lambda_ij E_i + lambda_ji E_j - |u_ij|^2 S_rho / 2.
            held = lam * energies[:, None]
            total = held + held.T
            kinetic = 0.5 * (velocities * velocities).sum(axis=-1) * sum_rho
            temperatures = (total - kinetic) / ((0.5 * d) * sum_n)
            mats = assemble(state, HardSphere())
            mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
            _assert_within(velocities, mix.velocities, _gamma(6) * scale)
            _assert_within(temperatures, mix.temperatures, _gamma(49) * total / ((0.5 * d) * sum_n))

    def test_the_kinetic_rates_are_the_moment_rates(self):
        eps = 0.3
        for state in self._states():
            comp, d = state.composition, state.dimension
            rho, n, m = comp.mass_densities, comp.number_densities, comp.masses
            u, energies = state.velocities, state.energies
            lam, _, _, sum_n, scale = self._pair_data(state)
            mats = assemble(state, HardSphere())
            mix = pairwise_mixture(state, mats.velocity_weights, mats.temperature_weights)
            pair_u, pair_t = mix.velocities, mix.temperatures

            momentum = (
                lam[:, :, None] * (rho[:, None, None] * pair_u - (rho[:, None] * u)[:, None, :])
            ).sum(axis=1) / eps
            momentum_scale = (
                lam[:, :, None] * rho[:, None, None] * (scale + np.abs(u)[:, None, :])
            ).sum(axis=1) / eps
            _assert_within(
                momentum,
                momentum_rhs(state, mats, eps),
                _gamma(2 * comp.size + 12) * momentum_scale,
            )

            kinetic = 0.5 * rho[:, None] * (pair_u * pair_u).sum(axis=-1)
            thermal = (0.5 * d) * n[:, None] * pair_t
            energy = (lam * (kinetic + thermal - energies[:, None])).sum(axis=1) / eps
            held = lam * energies[:, None]
            ceiling = (held + held.T) / ((0.5 * d) * sum_n)  # M, which bounds T_ij
            square = (scale * scale).sum(axis=-1)  # which bounds |u_ij|^2
            per_particle = energies / n
            magnitudes = (
                lam * (0.5 * rho[:, None] * square + (0.5 * d) * n[:, None] * ceiling
                       + energies[:, None])
                + mats.energy_coupling * (per_particle + per_particle[:, None])
                + 0.5 * mats.energy_coupling * square * (m[:, None] + m)
            ).sum(axis=1) / eps
            _assert_within(
                energy, energy_rhs(state, mats, eps), _gamma(comp.size + 45) * magnitudes
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
                np.diag(_laplacian(coupling, np.eye(4))), coupling.sum(axis=1) - np.diag(coupling)
            )


class TestStackedRecords:
    """`operators` broadcasts over a leading record axis, bit for bit."""

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
        # Hard spheres: the dense map, then the elementwise assembly.
        assert (const.operator_map is None) == constant
        for const in [const] if constant else [const, _elementwise(const)]:
            coupling, relaxation = operators(temps, const)
            brackets = eigenvalue_brackets(coupling, rho, n)
            # Both models give a pair of matrices per record, one for each of
            # the two density weightings.
            assert coupling.shape == relaxation.shape == (6, 2, 4, 4)
            assert brackets.shape == (6, 2, 2)
            for r, state in enumerate(states):
                single_coupling, single_relaxation = operators(temps[r], const)
                np.testing.assert_array_equal(coupling[r], single_coupling)
                np.testing.assert_array_equal(relaxation[r], single_relaxation)
                np.testing.assert_array_equal(
                    brackets[r], eigenvalue_brackets(single_coupling, rho, n)
                )
                mats = assemble(state, model)
                reference = np.stack([mats.momentum_coupling, mats.energy_coupling])
                _assert_core_matches(
                    const, coupling[r], relaxation[r], mats.velocity_weights, reference, comp
                )

    def test_bad_temperature_names_its_species(self):
        comp = random_composition(np.random.default_rng(83), 3)
        temps = np.full((4, 3), T1000)
        temps[2, 1] = -1.0
        temps[3, 0] = -2.0
        with pytest.raises(ValueError, match="'s1' has T = -1"):
            hard_sphere_frequencies(comp.species, comp.number_densities, temps)


class TestOperatorKernels:
    """The dense map of the thermal speeds against the elementwise assembly.

    A column of the map for A or B has one nonzero, C_ij, so both kernels
    form A_ij = C_ij s_ij with one rounding, the same one.  An entry of Z
    or Z-hat takes its roundings in another order (C / scale before the
    product with s, and the diagonal summed over j != i), so the kernels
    agree there within the roundings that :class:`TestStackedCore` counts
    on the diagonal, gamma(2 N + 18), of the largest entry of each operator.
    """

    @staticmethod
    def _temperatures(rng, shape):
        return rng.uniform(200.0, 3000.0, size=shape) * BOLTZMANN_J_PER_K

    @staticmethod
    def _assert_kernels_agree(const, temps):
        coupling, relaxation = operators(temps, const)
        assembled_coupling, assembled = operators(temps, _elementwise(const))
        np.testing.assert_array_equal(coupling, assembled_coupling)
        size = const.identity.shape[0]
        largest = np.abs(assembled).max(axis=(-2, -1), keepdims=True)
        _assert_within(relaxation, assembled, _gamma(2 * size + 18) * largest)
        return coupling, relaxation

    @pytest.mark.parametrize("size", range(2, DENSE_OPERATOR_MAX_SPECIES + 1))
    def test_kernels_agree_and_match_the_oracle(self, size):
        rng = np.random.default_rng([107, size])
        comp = random_composition(rng, size)
        const = run_constants(comp, HardSphere(), 3)
        assert const.operator_map is not None
        temps = self._temperatures(rng, (5, size))
        coupling, relaxation = self._assert_kernels_agree(const, temps)
        lam = hard_sphere_frequencies(comp.species, comp.number_densities, temps)
        alpha, momentum = weight_and_coupling(lam, comp.mass_densities)
        _, energy = weight_and_coupling(lam, comp.number_densities)
        reference = np.stack([momentum, energy], axis=-3)
        _assert_core_matches(const, coupling, relaxation, alpha, reference, comp)

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_kernels_agree_on_the_presets(self, example):
        state = presets()[example].initial_state()
        const = run_constants(state.composition, HardSphere(), 3)
        temps = temperatures_of(state)
        floor = np.full_like(temps, temps.min())
        self._assert_kernels_agree(const, temps)
        self._assert_kernels_agree(const, np.stack([temps, floor]))

    @pytest.mark.parametrize("size", [1, 3, DENSE_OPERATOR_MAX_SPECIES, 10, 30])
    def test_stacked_states_are_single_states_bit_for_bit(self, size):
        # Stacked vector-matrix products up to the threshold and the
        # elementwise Laplacian beyond it, over any leading axes; a plain
        # matrix product over the states would round otherwise.
        rng = np.random.default_rng([109, size])
        const = run_constants(random_composition(rng, size), HardSphere(), 3)
        temps = self._temperatures(rng, (4, 250, size))
        speeds, _ = relaxation(temps, const)
        coupling, stack = operators(temps, const)
        assert speeds.shape == (4, 250, size * size)
        assert coupling.shape == stack.shape == (4, 250, 2, size, size)
        for index in np.ndindex(4, 250):
            single_speeds, _ = relaxation(temps[index], const)
            single_coupling, single_stack = operators(temps[index], const)
            np.testing.assert_array_equal(speeds[index], single_speeds)
            np.testing.assert_array_equal(coupling[index], single_coupling)
            np.testing.assert_array_equal(stack[index], single_stack)

    @staticmethod
    def _indexed_map(const):
        """K entry by entry: row (i, j), the speed s_ij, holds -C_ij / scale_ij
        at Z_ij and Z-hat_ij (i != j) and C_ij / scale_ii at Z_ii and Z-hat_ii;
        a self pair's row is 0."""
        size = len(const.identity)
        i, j = np.indices((size, size))
        apart = i != j
        rows = np.zeros((size, size, 2, size, size))  # (s_ij, stack entry)
        coupling = const.unit_coupling
        rows[i, j, :, i, j] = np.where(apart, -coupling / const.scale, 0.0).transpose(1, 2, 0)
        degree = const.scale.diagonal(axis1=1, axis2=2)[:, :, None]
        rows[i, j, :, i, i] = np.where(apart, coupling / degree, 0.0).transpose(1, 2, 0)
        return rows.reshape(size * size, 2 * size * size)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, DENSE_OPERATOR_MAX_SPECIES])
    def test_the_map_holds_each_entry_bit_for_bit(self, size):
        # The map is the Laplacian of C s at the unit speeds, so each entry
        # is the one quotient of the indexed statement, signed zeros too.
        rng = np.random.default_rng([131, size])
        compositions = [random_composition(rng, size) for _ in range(10)]
        compositions += [
            scenario.initial_state().composition
            for scenario in presets().values() if len(scenario.species) == size
        ]
        for comp in compositions:
            const = run_constants(comp, HardSphere(), 3)
            np.testing.assert_array_equal(
                const.operator_map.view(np.int64), self._indexed_map(const).view(np.int64)
            )

    def test_the_map_is_built_up_to_its_threshold(self):
        # The threshold chooses the map of [Z, Z-hat] of hard spheres alone;
        # the heating's map is built for every mixture and either model.
        rng = np.random.default_rng(113)
        for size in (1, DENSE_OPERATOR_MAX_SPECIES, DENSE_OPERATOR_MAX_SPECIES + 1, 30):
            comp = random_composition(rng, size)
            const = run_constants(comp, HardSphere(), 3)
            constant = run_constants(comp, ConstantMatrix(rng.uniform(1e9, 1e12, (size, size))), 3)
            assert constant.pair_sums is None and constant.operator_map is None
            if size <= DENSE_OPERATOR_MAX_SPECIES:
                assert const.pair_sums.shape == (size, size * size)
                assert const.operator_map.shape == (size * size, 2 * size * size)
            else:
                assert const.pair_sums is None and const.operator_map is None
            for built in (const, constant):
                assert built.heating_map.shape == (size * size, size)

    def test_constant_stacks_are_the_laplacian_of_each_call(self):
        rng = np.random.default_rng(137)
        comp = random_composition(rng, 4)
        const = run_constants(comp, ConstantMatrix(rng.uniform(1e9, 1e12, (4, 4))), 3)
        coupling, relaxation = operators(self._temperatures(rng, (3, 4)), const)
        assert coupling.shape == relaxation.shape == (3, 2, 4, 4)
        laplacian = _laplacian(coupling, np.eye(4)) / const.scale
        np.testing.assert_array_equal(relaxation, laplacian)


class TestHeatingKernels:
    """The heating's one kernel, the dense map H', against the oracles.

    Row (i, j) of the map holds H_ij = C^B_ij (m_i - m_j) / sqrt(n_i) in
    column i and zeros elsewhere, so one product with it sums the N
    products H_ij (s_ij |u_mix,ij|^2) of row i, in some order: within
    gamma(N) of the exact sum of their magnitudes, and so within twice
    that of a reduction over j.  It is held to the oracles' energy rates
    with the relaxation switched off (B = 0 there), sum_j K_ij (m_i - m_j)
    / (2 eps), within the 1e-12 of the size of their terms that
    :class:`TestStackedCore` allows.
    """

    @staticmethod
    def _assert_matches_the_oracle(state, model, eps=0.3):
        comp = state.composition
        m, sqrt_n = comp.masses, np.sqrt(comp.number_densities)
        const = run_constants(comp, model, 3)
        weights = const.unit_coupling[1] * ((m[:, None] - m) / sqrt_n[:, None])
        rows = np.zeros((comp.size, comp.size, comp.size))
        rows[np.arange(comp.size), :, np.arange(comp.size)] = weights
        np.testing.assert_array_equal(const.heating_map, rows.reshape(-1, comp.size))
        speeds, _ = relaxation(temperatures_of(state), const)
        rate = 0.5 / eps
        mapped = heating(speeds, state.velocities, const.mixing, const, rate)
        u_mix = const.mixing @ state.velocities
        products = (speeds * (u_mix * u_mix).sum(axis=-1)).reshape(comp.size, comp.size) * weights
        magnitudes = rate * np.abs(products).sum(axis=1)
        _assert_within(mapped, rate * products.sum(axis=1), 2.0 * _gamma(comp.size) * magnitudes)

        mats = assemble(state, model)
        no_relaxation = dataclasses.replace(mats, energy_coupling=0.0 * mats.energy_coupling)
        reference = energy_rhs(state, no_relaxation, eps)
        terms = rate * (mats.kinetic_coupling * (m[:, None] + m[None, :])).sum(axis=1)
        _assert_within(mapped * sqrt_n, reference, 1e-12 * terms)

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("size", [*range(2, 13), 30])
    def test_matches_the_oracle(self, size, constant):
        rng = np.random.default_rng([149, size, constant])
        state = random_state(rng, size)
        model = ConstantMatrix(rng.uniform(1e9, 1e12, (size, size))) if constant else HardSphere()
        self._assert_matches_the_oracle(state, model)

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_matches_the_oracle_on_the_presets(self, example):
        scenario = presets()[example]
        self._assert_matches_the_oracle(scenario.initial_state(), scenario.model)

    @pytest.mark.parametrize("records", [(), (7,), (2, 3)])
    @pytest.mark.parametrize("size", [1, 3, DENSE_OPERATOR_MAX_SPECIES, 10])
    def test_operators_couplings_are_c_times_s_bit_for_bit(self, size, records):
        rng = np.random.default_rng([157, size, len(records)])
        const = run_constants(random_composition(rng, size), HardSphere(), 3)
        temps = rng.uniform(200.0, 3000.0, size=records + (size,)) * BOLTZMANN_J_PER_K
        for kernel in (const, _elementwise(const)):
            coupling, stack = operators(temps, kernel)
            speeds, relaxation_stack = relaxation(temps, kernel)
            pair_grid = speeds.reshape(records + (1, size, size))
            np.testing.assert_array_equal(coupling, kernel.unit_coupling * pair_grid)
            np.testing.assert_array_equal(stack, relaxation_stack)


class TestStackedCore:
    """The stacked core against one density weighting at a time.

    The core takes each pair quotient once per run, on the frequencies at
    unit thermal speed f (the hard-sphere factor or the constant matrix),
    and scales the couplings C by the thermal speed s; the per-weighting
    reference (``hard_sphere_frequencies`` and ``weight_and_coupling``
    from the oracles) forms lam = f s and takes the quotients at the
    state.  Both read the same f (``hard_sphere_frequencies`` forms it by
    the same expression) and the same rounded s, with s_ij = s_ji to the
    bit, so each side differs from the exact quotients
    of those inputs by its own roundings, counted per entry with w the
    density weighting:

    * weight: the reference 6 (lam and w lam 2, the pair sum 3, the
      quotient 2 + 3 + 1), the core 4 (w f 1, the pair sum 2, the
      quotient 1 + 2 + 1): together 10, of |alpha|;
    * coupling: the reference 9 (the product of two 2-rounding terms 5,
      the quotient by the 3-rounding sum 5 + 3 + 1), the core 7 (C by
      3 + 2 + 1, then C s): together 16, of |A_ij|;
    * Z off the diagonal: one division more on each side, 18 of
      |A_ij| / sqrt(rho_i rho_j);
    * Z on the diagonal: a side with k roundings per term sums N terms
      and subtracts the self term (k + N roundings of the row sum D_i,
      the error of the self term cancelling), then divides: k + N + 1,
      together 2 N + 18 of D_i / rho_i.

    The core's dense map (hard spheres, N <= DENSE_OPERATOR_MAX_SPECIES)
    stays within the same counts: it divides C by the scale before the
    product with s, one rounding more per term, and sums the diagonal over
    the N - 1 terms j != i with no subtraction: at most k + N roundings.

    Each count of k roundings bounds a relative error by
    gamma_k = k u / (1 - k u), u the unit roundoff.  A constant model
    takes the same steps on both sides, with no s, so there the two
    agree to the bit.  The matrix-free heating sums H_ij s_ij
    |u_mix,ij|^2, with H = C^B (m_i - m_j) / sqrt(n_i) formed once per run,
    where the reference multiplies the kinetic Laplacian by m, and takes
    u_mix from the mixing map and the run's weights.  So it is
    held to 1e-12 of the size of its terms, rate * sum_j B_ij max|u|^2
    (m_i + m_j) / sqrt(n_i), about 1e3 machine epsilons above the N eps
    rounding bound of a length-N sum.
    """

    @staticmethod
    def _temperatures(rng, size, records):
        shape = (size,) if records is None else (records, size)
        return rng.uniform(200.0, 3000.0, size=shape) * BOLTZMANN_J_PER_K

    @pytest.mark.parametrize("records", [None, 5])
    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 30])
    def test_matches_per_weighting_reference(self, size, constant, records):
        rng = np.random.default_rng([97, size, constant])
        comp = random_composition(rng, size)
        model = ConstantMatrix(rng.uniform(1e9, 1e12, (size, size))) if constant else HardSphere()
        const = run_constants(comp, model, 3)
        temps = self._temperatures(rng, size, records)
        rho, n = comp.mass_densities, comp.number_densities

        if constant:
            lam = np.broadcast_to(model.frequencies, temps.shape + (size,))
        else:
            lam = hard_sphere_frequencies(comp.species, n, temps)
        coupling, relaxation = operators(temps, const)
        lead = () if records is None else (records,)
        assert const.mixing.shape == (size * size, size)
        assert coupling.shape == relaxation.shape == lead + (2, size, size)
        alpha, momentum = weight_and_coupling(lam, rho)
        _, energy = weight_and_coupling(lam, n)
        reference = np.stack([momentum, energy], axis=-3)
        _assert_core_matches(const, coupling, relaxation, alpha, reference, comp)
        if constant:
            np.testing.assert_array_equal(coupling, reference)

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 30])
    def test_matrix_free_heating_matches_laplacian(self, size, constant):
        rng = np.random.default_rng([101, size, constant])
        comp = random_composition(rng, size)
        model = ConstantMatrix(rng.uniform(1e9, 1e12, (size, size))) if constant else HardSphere()
        state = state_from_temperatures(
            comp,
            rng.uniform(-500.0, 500.0, size=(size, 3)),
            self._temperatures(rng, size, None),
        )
        const = run_constants(comp, model, 3)
        speeds, _ = relaxation(temperatures_of(state), const)
        rate = 0.5 / 0.3
        source = heating(speeds, state.velocities, const.mixing, const, rate)

        mats = assemble(state, model)
        m, sqrt_n = comp.masses, np.sqrt(comp.number_densities)
        laplacian = _laplacian(mats.kinetic_coupling, np.eye(size))
        reference = rate * (laplacian @ m) / sqrt_n
        speed_sq = float(np.abs(state.velocities).max()) ** 2 * 3.0
        terms = rate * (mats.energy_coupling * speed_sq * (m[:, None] + m[None, :])).sum(1) / sqrt_n
        np.testing.assert_array_less(np.abs(source - reference), 1e-12 * terms)
        if size == 1:
            np.testing.assert_array_equal(source, 0.0)


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


class TestRunConstantsRange:
    @pytest.mark.parametrize("model, density, weighting", [
        (HardSphere(), 1e-200, "rho"),  # w_i f_ij underflows: 0 / 0
        (HardSphere(), 1e300, "rho"),  # w_i f_ij overflows: inf / inf
        (ConstantMatrix(np.ones((2, 2))), 1e-200, "rho"),
        (ConstantMatrix(np.ones((2, 2))), 1e160, "n"),  # the sum is finite, the product is not
    ], ids=["hard_sphere_underflow", "hard_sphere_overflow", "constant_underflow",
            "constant_product_overflow"])
    def test_a_product_out_of_range_names_its_pair(self, model, density, weighting):
        comp = MixtureComposition((GASES["Ar"], GASES["Kr"]), np.full(2, density))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                run_constants(comp, model, 3)
        assert str(refused.value).startswith(
            f"species 'Ar' and 'Ar': the pair sum w_i f_ij + w_j f_ji (w = {weighting}) "
        )
        assert "not positive and finite" in str(refused.value)
