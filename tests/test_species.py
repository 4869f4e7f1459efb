"""Moment-state construction, temperature maps, and realizability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbgk import (
    BOLTZMANN_J_PER_K,
    MixtureComposition,
    MomentState,
    SpeciesParams,
    energy_from,
    energy_to_kelvin,
    is_realizable,
    kelvin_to_energy,
    presets,
    state_from_temperatures,
    temperatures_of,
)

from conftest import random_state


def single_species_state(n=1.0, m=1.0, u=(0.0, 0.0, 0.0), energy=1.5):
    comp = MixtureComposition((SpeciesParams(mass=m, diameter=1.0, label="x"),), [n])
    return MomentState(comp, np.array([u]), np.array([energy]))


class TestKelvinConversion:
    def test_zero(self):
        assert kelvin_to_energy(0.0) == 0.0

    def test_thousand_kelvin(self):
        assert kelvin_to_energy(1000.0) == pytest.approx(1.380649e-20, rel=0, abs=0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, t_kelvin):
        assert energy_to_kelvin(kelvin_to_energy(t_kelvin)) == pytest.approx(
            t_kelvin, rel=1e-15
        )


class TestTemperaturesOf:
    def test_rest_gas(self):
        # E = (d/2) n T with zero velocity
        state = single_species_state(n=1.0, m=1.0, u=(0, 0, 0), energy=1.5)
        np.testing.assert_allclose(temperatures_of(state), [1.0], rtol=1e-15)

    def test_moving_gas(self):
        # T = (2/3)*2.5 - (2/3)*1 = 1 for m=2, u=(1,0,0), E=2.5
        state = single_species_state(n=1.0, m=2.0, u=(1, 0, 0), energy=2.5)
        np.testing.assert_allclose(temperatures_of(state), [1.0], rtol=1e-15)

    def test_preset1_argon_is_1000_kelvin(self):
        # oracle: Kelvin -> Joule conversion, then the zero-velocity identity
        state = presets()[1].initial_state()
        expected = 1000.0 * BOLTZMANN_J_PER_K
        assert temperatures_of(state)[0] == pytest.approx(expected, rel=1e-14)

    def test_negative_values_returned_unclamped(self):
        state = single_species_state(n=1.0, m=1.0, u=(10, 0, 0), energy=1.0)
        assert temperatures_of(state)[0] < 0.0


class TestEnergyFrom:
    def test_pure_thermal(self):
        assert energy_from([0.0, 0.0, 0.0], 1.0, 1.0, 1.0, 3) == pytest.approx(1.5)

    def test_pure_kinetic(self):
        assert energy_from([2.0, 0.0, 0.0], 0.0, 3.0, 1.0, 3) == pytest.approx(6.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="negative temperature"):
            energy_from([0.0, 0.0, 0.0], -1.0, 1.0, 1.0, 3)

    @given(
        ux=st.floats(-1e3, 1e3),
        t=st.floats(1e-25, 1e-18),
        n=st.floats(1e26, 1e29),
        m=st.floats(1e-27, 1e-24),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trips_with_temperatures_of(self, ux, t, n, m):
        comp = MixtureComposition((SpeciesParams(mass=m, diameter=1e-10),), [n])
        state = state_from_temperatures(comp, [[ux, 0.0, 0.0]], [t])
        assert temperatures_of(state)[0] == pytest.approx(t, rel=1e-14)


class TestIsRealizable:
    def test_positive_temperature_state(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert is_realizable(random_state(rng))

    def test_boundary_state(self):
        # energy exactly kinetic: temperature 0, still realizable
        state = single_species_state(n=2.0, m=3.0, u=(1, 0, 0), energy=0.5 * 3 * 2 * 1.0)
        assert is_realizable(state)

    def test_below_kinetic_energy(self):
        state = single_species_state(n=2.0, m=3.0, u=(1, 0, 0), energy=0.9 * 3.0)
        assert not is_realizable(state)


class TestValidation:
    def test_nonpositive_mass(self):
        with pytest.raises(ValueError, match="'He'"):
            SpeciesParams(mass=0.0, diameter=1e-10, label="He")

    def test_nonpositive_density_names_species(self):
        with pytest.raises(ValueError, match="'Kr'"):
            MixtureComposition(
                (
                    SpeciesParams(mass=1e-26, diameter=1e-10, label="Ar"),
                    SpeciesParams(mass=2e-26, diameter=1e-10, label="Kr"),
                ),
                [1e28, -1e28],
            )

    @pytest.mark.parametrize("mass, density", [(1e-26, 1e-300), (1e10, 1e300)],
                             ids=["underflow", "overflow"])
    def test_mass_density_out_of_range_names_species(self, mass, density):
        with pytest.raises(ValueError, match="species 'Kr': mass density m \\* n must be "):
            MixtureComposition(
                (
                    SpeciesParams(mass=1e-26, diameter=1e-10, label="Ar"),
                    SpeciesParams(mass=mass, diameter=1e-10, label="Kr"),
                ),
                [1e28, density],
            )

    def test_velocity_shape_mismatch(self):
        comp = MixtureComposition((SpeciesParams(mass=1.0, diameter=1.0),), [1.0])
        with pytest.raises(ValueError, match="velocities"):
            MomentState(comp, np.zeros((2, 3)), np.ones(1))

    def test_mass_densities_are_derived(self):
        comp = MixtureComposition(
            (SpeciesParams(mass=2.0, diameter=1.0), SpeciesParams(mass=3.0, diameter=1.0)),
            [5.0, 7.0],
        )
        np.testing.assert_array_equal(comp.mass_densities, [10.0, 21.0])

    def test_state_arrays_are_frozen(self):
        state = presets()[1].initial_state()
        with pytest.raises(ValueError):
            state.velocities[0, 0] = 1.0


class TestTotalEnergyIdentity:
    def test_preset1_total_energy_is_thermal(self):
        # zero velocities: sum E_i = (d/2) sum n_i T_i
        state = presets()[1].initial_state()
        n = state.composition.number_densities
        temps = temperatures_of(state)
        assert state.energies.sum() == pytest.approx(1.5 * (n @ temps), rel=1e-14)
