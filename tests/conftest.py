"""Shared fixtures: presets and reproducible random realizable states."""

from __future__ import annotations

import numpy as np
import pytest

from mixbgk import (
    MixtureComposition,
    SpeciesParams,
    presets,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.collisions import heating, operators, run_constants
from mixbgk.equilibrium import eigenvalue_brackets
from mixbgk.species import kelvin_to_energy


def random_composition(rng, n_species):
    """Physically plausible random species data across noble-gas scales."""
    masses = np.exp(rng.uniform(np.log(5e-27), np.log(3e-25), size=n_species))
    diameters = rng.uniform(1.5e-10, 6.0e-10, size=n_species)
    densities = np.exp(rng.uniform(np.log(1e27), np.log(3e28), size=n_species))
    species = tuple(
        SpeciesParams(mass=m, diameter=d, label=f"s{i}")
        for i, (m, d) in enumerate(zip(masses, diameters))
    )
    return MixtureComposition(species, densities)


def random_state(rng, n_species=None, dimension=3, max_speed=500.0):
    """A random realizable moment state (temperatures 200..3000 K)."""
    if n_species is None:
        n_species = int(rng.integers(1, 5))
    comp = random_composition(rng, n_species)
    velocities = rng.uniform(-max_speed, max_speed, size=(n_species, dimension))
    temperatures = kelvin_to_energy(rng.uniform(200.0, 3000.0, size=n_species))
    return state_from_temperatures(comp, velocities, temperatures)


def core_operators(state, model, eps=1.0):
    """The runtime operator core at one state: (Z, Z-hat, heating, brackets).

    The heating carries its 1/(2 eps) prefactor; the brackets are
    [[velocity lower, upper], [energy lower, upper]].
    """
    comp = state.composition
    const = run_constants(comp, model, state.dimension)
    alpha, momentum, energy, z, z_hat = operators(temperatures_of(state), const)
    source = heating(energy, alpha, state.velocities, const, 0.5 / eps)
    brackets = eigenvalue_brackets(momentum, energy, comp.mass_densities, comp.number_densities)
    return z, z_hat, source, brackets


@pytest.fixture(scope="session")
def preset_states():
    """(state, model) pairs for the three reference scenarios."""
    out = {}
    for k, scenario in presets().items():
        out[k] = (scenario.initial_state(), scenario.frequency_model())
    return out
