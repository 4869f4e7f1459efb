"""Moment right-hand sides: conservation, equivalence, cross-checks."""

import numpy as np
import pytest

from mixbgk import (
    ConstantMatrix,
    HardSphere,
    MixtureComposition,
    MomentState,
    SpeciesParams,
    presets,
    scaled_energies,
    scaled_velocities,
    state_from_temperatures,
)
from mixbgk.collisions import _laplacian
from mixbgk.oracles import assemble, energy_rhs, momentum_rhs, temperature_rhs

from conftest import core_operators, random_composition, random_state


def two_species_constant(u1=(1.0, 0.0, 0.0), lam=1.0):
    comp = MixtureComposition(
        (
            SpeciesParams(mass=1.0, diameter=1.0, label="a"),
            SpeciesParams(mass=2.0, diameter=1.0, label="b"),
        ),
        [1.0, 0.5],
    )
    state = state_from_temperatures(
        comp, np.array([u1, [0.0, 0.0, 0.0]]), np.array([1.0, 1.5])
    )
    return state, ConstantMatrix(np.full((2, 2), lam))


class TestMomentumRhs:
    def test_equal_velocities_give_zero(self):
        comp = random_composition(np.random.default_rng(2), 3)
        u = np.tile([10.0, 5.0, -3.0], (3, 1))
        state = state_from_temperatures(comp, u, np.full(3, 4e-21))
        mats = assemble(state, HardSphere())
        np.testing.assert_array_equal(momentum_rhs(state, mats), np.zeros((3, 3)))

    def test_single_species_is_zero(self):
        state = random_state(np.random.default_rng(3), 1)
        mats = assemble(state, HardSphere())
        np.testing.assert_array_equal(momentum_rhs(state, mats), np.zeros((1, 3)))

    def test_two_species_closed_form(self):
        # hand evaluation of the 2x2 case: rates are -/+ A12/eps * (1,0,0)
        state, model = two_species_constant()
        mats = assemble(state, model)
        rho1, rho2, lam = 1.0, 1.0, 1.0  # rho = m*n = (1*1, 2*0.5)
        a12 = rho1 * rho2 * lam * lam / (rho1 * lam + rho2 * lam)
        eps = 0.25
        rates = momentum_rhs(state, mats, eps)
        np.testing.assert_allclose(rates[0], [-a12 / eps, 0.0, 0.0], rtol=1e-14)
        np.testing.assert_allclose(rates[1], [a12 / eps, 0.0, 0.0], rtol=1e-14)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_state(rng)
            mats = assemble(state, HardSphere())
            rates = momentum_rhs(state, mats)
            scale = np.abs(rates).max() or 1.0
            np.testing.assert_allclose(rates.sum(axis=0) / scale, 0.0, atol=1e-13)

    def test_rejects_nonpositive_eps(self):
        state, model = two_species_constant()
        mats = assemble(state, model)
        with pytest.raises(ValueError, match="eps"):
            momentum_rhs(state, mats, 0.0)


class TestEnergyRhs:
    def test_identical_species_give_zero(self):
        comp = MixtureComposition(
            tuple(SpeciesParams(mass=2.0, diameter=1.0, label=f"s{i}") for i in range(3)),
            np.full(3, 5.0),
        )
        u = np.tile([1.0, 2.0, 3.0], (3, 1))
        state = state_from_temperatures(comp, u, np.full(3, 7.0))
        mats = assemble(state, ConstantMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(energy_rhs(state, mats), 0.0, atol=1e-20)

    def test_equal_masses_equal_energy_per_particle(self):
        # both relaxation terms vanish: equal E/n kills the first, equal
        # masses kill the kinetic-exchange sum even with unequal velocities
        comp = MixtureComposition(
            (
                SpeciesParams(mass=3.0, diameter=1.0, label="a"),
                SpeciesParams(mass=3.0, diameter=2.0, label="b"),
            ),
            [2.0, 4.0],
        )
        energies = np.array([10.0, 20.0])  # E/n = 5 for both
        state_u = np.array([[1.0, 0.0, 0.0], [-2.0, 0.5, 0.0]])
        state = MomentState(comp, state_u, energies)
        mats = assemble(state, ConstantMatrix(np.full((2, 2), 1.5)))
        rates = energy_rhs(state, mats)
        np.testing.assert_allclose(rates, 0.0, atol=1e-16)

    def test_preset1_energy_flows_hot_to_cold(self):
        state = presets()[1].initial_state()
        rates = energy_rhs(state, assemble(state, HardSphere()))
        assert rates[0] > 0.0  # coldest gains
        assert rates[2] < 0.0  # hottest loses

    def test_sums_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(rng)
            mats = assemble(state, HardSphere())
            rates = energy_rhs(state, mats)
            scale = np.abs(rates).max() or 1.0
            assert abs(rates.sum()) / scale < 1e-13


class TestTemperatureRhs:
    def test_uniform_state_gives_zero(self):
        comp = random_composition(np.random.default_rng(11), 3)
        u = np.tile([4.0, -1.0, 0.5], (3, 1))
        state = state_from_temperatures(comp, u, np.full(3, 4e-21))
        mats = assemble(state, HardSphere())
        rates = temperature_rhs(
            state, mats.frequencies, mats.velocity_weights, mats.temperature_weights
        )
        # the derived temperatures agree to rounding only, so the natural
        # zero scale is frequency * temperature * machine precision
        np.testing.assert_allclose(
            rates, 0.0, atol=1e-12 * mats.frequencies.max() * 4e-21
        )

    def test_matches_chain_rule_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            state = random_state(rng)
            comp = state.composition
            mats = assemble(state, HardSphere())
            direct = temperature_rhs(
                state, mats.frequencies, mats.velocity_weights, mats.temperature_weights
            )
            # chain rule through T = (2/(d n)) E - (m/d)|u|^2
            d = state.dimension
            du_dt = momentum_rhs(state, mats) / comp.mass_densities[:, None]
            de_dt = energy_rhs(state, mats)
            chain = (2.0 / (d * comp.number_densities)) * de_dt - (
                2.0 * comp.masses / d
            ) * np.einsum("ik,ik->i", state.velocities, du_dt)
            np.testing.assert_allclose(direct, chain, rtol=1e-10, atol=1e-10 * np.abs(chain).max())

    def test_equal_temperatures_heating_nonnegative(self):
        rng = np.random.default_rng(17)
        comp = random_composition(rng, 3)
        u = rng.uniform(-300, 300, (3, 3))
        state = state_from_temperatures(comp, u, np.full(3, 4e-21))
        mats = assemble(state, HardSphere())
        rates = temperature_rhs(
            state, mats.frequencies, mats.velocity_weights, mats.temperature_weights
        )
        assert np.all(rates >= -1e-13 * np.abs(rates).max())


class TestScaledOperators:
    def test_constant_uniform_spectrum(self):
        # lam = a with equal mass densities: nonzero eigenvalues all N*a/2
        a, mass, n = 2.0, 3.0, 7.0
        n_species = 4
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
        z, _, _, _ = core_operators(state, ConstantMatrix(np.full((4, 4), a)))
        eigs = np.sort(np.linalg.eigvalsh(z))
        np.testing.assert_allclose(eigs[0], 0.0, atol=1e-13 * a)
        np.testing.assert_allclose(eigs[1:], n_species * a / 2.0, rtol=1e-12)

    def test_null_spaces(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            state = random_state(rng)
            comp = state.composition
            z, z_hat, _, _ = core_operators(state, HardSphere())
            z_null = z @ np.sqrt(comp.mass_densities)
            zh_null = z_hat @ np.sqrt(comp.number_densities)
            assert np.abs(z_null).max() <= 1e-12 * np.linalg.norm(z) * np.linalg.norm(
                np.sqrt(comp.mass_densities)
            )
            assert np.abs(zh_null).max() <= 1e-12 * np.linalg.norm(z_hat) * np.linalg.norm(
                np.sqrt(comp.number_densities)
            )

    def test_quadratic_form_identity_and_nonnegativity(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 4)
        mats = assemble(state, HardSphere())
        laplacian = _laplacian(mats.momentum_coupling, np.eye(4))
        coupling = mats.momentum_coupling
        for _ in range(1000):
            y = rng.standard_normal(4)
            quad = y @ laplacian @ y
            pairwise = 0.5 * np.sum(coupling * (y[:, None] - y[None, :]) ** 2)
            assert quad >= -1e-12 * (y @ y) * np.abs(laplacian).max()
            np.testing.assert_allclose(quad, pairwise, rtol=1e-12)

    def test_scaled_system_reproduces_raw_rates(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            state = random_state(rng)
            comp = state.composition
            eps = float(rng.uniform(0.05, 2.0))
            mats = assemble(state, HardSphere())
            z, z_hat, source, _ = core_operators(state, HardSphere(), eps)

            dw_scaled = -z @ scaled_velocities(state) / eps
            dw_raw = momentum_rhs(state, mats, eps) / np.sqrt(comp.mass_densities)[:, None]
            np.testing.assert_allclose(
                dw_scaled, dw_raw, rtol=1e-12, atol=1e-12 * np.abs(dw_raw).max()
            )

            dxi_scaled = -z_hat @ scaled_energies(state) / eps + source
            dxi_raw = energy_rhs(state, mats, eps) / np.sqrt(comp.number_densities)
            np.testing.assert_allclose(
                dxi_scaled, dxi_raw, rtol=1e-12, atol=1e-12 * np.abs(dxi_raw).max()
            )
