"""Shared fixtures: presets and reproducible random realizable states."""

from __future__ import annotations

import numpy as np
import pytest

from mixbgk import (
    MixtureComposition,
    SpeciesParams,
    presets,
    record_zero,
    resolve_integrator,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.collisions import heating, operators, relaxation, run_constants
from mixbgk.equilibrium import decay_constants, eigenvalue_brackets
from mixbgk.species import kelvin_to_energy


def resolved(scenario):
    """The scenario's integrator settings, derived from its record 0 as a CLI run derives them."""
    return resolve_integrator(scenario, record_zero(scenario))


def decay_constants_of(state, model):
    """``decay_constants`` of a state under a frequency model, with run constants of its own."""
    return decay_constants(state, run_constants(state.composition, model, state.dimension))


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
    temperatures = temperatures_of(state)
    coupling, z = operators(temperatures, const)
    speeds, _ = relaxation(temperatures, const)
    source = heating(speeds, state.velocities, const.mixing, const, 0.5 / eps)
    brackets = eigenvalue_brackets(coupling, comp.mass_densities, comp.number_densities)
    return z[0], z[1], source, brackets


@pytest.fixture(scope="session")
def preset_states():
    """(state, model) pairs for the three reference scenarios."""
    out = {}
    for k, scenario in presets().items():
        out[k] = (scenario.initial_state(), scenario.model)
    return out
