#!/usr/bin/env python3
"""Eigenvalue brackets of the relaxation operators, checked by Jacobi.

Both scaled relaxation operators are symmetric positive semi-definite
with a one-dimensional null space; the positive spectrum lies inside

    [ N min(coupling) / max(weight),  N max(coupling) / min(weight) ]

with weight = mass density (velocities) or number density (energies).
A constant frequency matrix with equal densities collapses the bracket
to a point: the nonzero spectrum is exactly (N-1)-fold N*a/2.

Eigenvalues here come from the package's cyclic Jacobi solver; LAPACK
(numpy.linalg.eigvalsh) is printed alongside as an independent check.
"""

import numpy as np

from mixbgk import (
    ConstantMatrix,
    HardSphere,
    MixtureComposition,
    SpeciesParams,
    state_from_temperatures,
    temperatures_of,
)
from mixbgk.collisions import operators, run_constants
from mixbgk.equilibrium import eigenvalue_brackets
from mixbgk.oracles import symmetric_eigenvalues


def velocity_operator(state, model):
    """Z and its eigenvalue bracket (lower, upper) from the operator core."""
    comp = state.composition
    const = run_constants(comp, model, state.dimension)
    coupling, z = operators(temperatures_of(state), const)
    brackets = eigenvalue_brackets(coupling, comp.mass_densities, comp.number_densities)
    lower, upper = map(float, brackets[0])
    return z[0], lower, upper


def random_mixture_demo(rng, n_species):
    masses = np.exp(rng.uniform(np.log(5e-27), np.log(3e-25), n_species))
    diameters = rng.uniform(1.5e-10, 6e-10, n_species)
    densities = np.exp(rng.uniform(np.log(1e27), np.log(3e28), n_species))
    comp = MixtureComposition(
        tuple(SpeciesParams(m, d, f"s{i}") for i, (m, d) in enumerate(zip(masses, diameters))),
        densities,
    )
    velocities = rng.uniform(-400, 400, (n_species, 3))
    temps = rng.uniform(3e-21, 5e-20, n_species)
    state = state_from_temperatures(comp, velocities, temps)

    z, lower, upper = velocity_operator(state, HardSphere())
    eigs = symmetric_eigenvalues(z)
    lapack = np.linalg.eigvalsh(z)
    inside = np.all(eigs[1:] >= lower * (1 - 1e-10)) and np.all(eigs[1:] <= upper * (1 + 1e-10))
    agreement = np.abs(eigs - np.sort(lapack)).max() / eigs.max()
    print(f"N={n_species}: bracket [{lower:.3e}, {upper:.3e}] 1/s")
    print(f"  Jacobi spectrum: {np.array2string(eigs, precision=3)}")
    print(f"  Jacobi vs LAPACK (relative): {agreement:.2e}; "
          f"positive eigenvalues inside bracket: {inside}")


def tight_witness():
    n_species, a = 4, 2.0
    comp = MixtureComposition(
        tuple(SpeciesParams(mass=3.0, diameter=1.0, label=f"s{i}")
              for i in range(n_species)),
        np.full(n_species, 7.0),
    )
    state = state_from_temperatures(comp, np.zeros((n_species, 3)),
                                    np.full(n_species, 5.0))
    z, lower, upper = velocity_operator(state, ConstantMatrix(np.full((n_species, n_species), a)))
    eigs = symmetric_eigenvalues(z)
    print("\nTight witness (constant frequencies, equal densities):")
    print(f"  nonzero spectrum = {eigs[1:]} (expected N*a/2 = {n_species * a / 2})")
    print(f"  bracket collapses to [{lower}, {upper}]")


def main():
    print(__doc__)
    rng = np.random.default_rng(8)
    for n_species in (2, 3, 4, 6):
        random_mixture_demo(rng, n_species)
    tight_witness()


if __name__ == "__main__":
    main()
