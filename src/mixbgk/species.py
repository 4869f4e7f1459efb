"""Species data, mixture moment states, and temperature/energy conversions.

The dynamical state of a gas mixture is carried by per-species bulk
velocities (m/s) and energy densities (J/m^3); number densities are fixed
in time.  Temperatures are always *derived* from velocity and energy via

    T_i = (2 / (d n_i)) E_i - (m_i / d) |u_i|^2,

and are kept in energy units (Joules) internally.  Kelvin appears only at
the configuration / output boundary (see :mod:`mixbgk.scenarios`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exact SI value of the Boltzmann constant.
BOLTZMANN_J_PER_K = 1.380649e-23


def kelvin_to_energy(temperature_kelvin):
    """Convert a temperature from Kelvin to energy units (J)."""
    return temperature_kelvin * BOLTZMANN_J_PER_K


def energy_to_kelvin(temperature_joule):
    """Convert a temperature from energy units (J) to Kelvin."""
    return temperature_joule / BOLTZMANN_J_PER_K


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpeciesParams:
    """Immutable physical constants of one species.

    Attributes:
        mass: particle mass in kg.
        diameter: hard-sphere reference diameter in m.
        label: short display name ("Ar", "He", ...).
    """

    mass: float
    diameter: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(
                f"species {self.label!r}: mass must be positive and finite, got {self.mass}"
            )
        if not (np.isfinite(self.diameter) and self.diameter > 0.0):
            raise ValueError(
                f"species {self.label!r}: diameter must be positive and finite, "
                f"got {self.diameter}"
            )


@dataclass(frozen=True)
class MixtureComposition:
    """An ordered species list with fixed, strictly positive number densities.

    Mass densities rho_i = m_i * n_i are derived once at construction and
    cached; they are never stored independently.  A species whose m_i * n_i
    underflows to 0 or overflows to inf is refused, by its label.
    """

    species: tuple[SpeciesParams, ...]
    number_densities: np.ndarray  # (N,), 1/m^3

    def __post_init__(self):
        species = tuple(self.species)
        if len(species) == 0:
            raise ValueError("mixture needs at least one species")
        object.__setattr__(self, "species", species)

        n = _readonly(self.number_densities)
        if n.shape != (len(species),):
            raise ValueError(
                f"number_densities shape {n.shape} does not match {len(species)} species"
            )
        bad = ~(np.isfinite(n) & (n > 0.0))
        if np.any(bad):
            label = species[int(np.argmax(bad))].label
            raise ValueError(f"species {label!r}: number density must be positive")
        object.__setattr__(self, "number_densities", n)
        # Python float products: an overflow or underflow gives inf or 0.0
        # without a numpy warning, the same IEEE products as masses * n.
        rho = [s.mass * density for s, density in zip(species, n.tolist())]
        for s, value in zip(species, rho):
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"species {s.label!r}: mass density m * n must be positive and finite, "
                    f"got {value} kg/m^3"
                )

        # Cached derived arrays; frozen alongside the inputs.
        object.__setattr__(self, "masses", _readonly([s.mass for s in species]))
        object.__setattr__(self, "diameters", _readonly([s.diameter for s in species]))
        object.__setattr__(self, "mass_densities", _readonly(rho))
        object.__setattr__(self, "labels", tuple(s.label for s in species))

    @property
    def size(self) -> int:
        return len(self.species)


@dataclass(frozen=True)
class MomentState:
    """Per-species bulk velocities and energy densities of a mixture.

    The spatial dimension d is the trailing axis of ``velocities``
    (default use is d = 3).  Number densities live in ``composition`` and
    are constant along any trajectory.
    """

    composition: MixtureComposition
    velocities: np.ndarray  # (N, d), m/s
    energies: np.ndarray  # (N,), J/m^3

    def __post_init__(self):
        u = _readonly(self.velocities)
        e = _readonly(self.energies)
        n_species = self.composition.size
        if u.ndim != 2 or u.shape[0] != n_species or u.shape[1] < 1:
            raise ValueError(
                f"velocities must have shape ({n_species}, d>=1), got {u.shape}"
            )
        if e.shape != (n_species,):
            raise ValueError(f"energies must have shape ({n_species},), got {e.shape}")
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(e)):
            raise ValueError("velocities and energies must be finite")
        object.__setattr__(self, "velocities", u)
        object.__setattr__(self, "energies", e)

    @property
    def dimension(self) -> int:
        return self.velocities.shape[1]


def temperatures_of(state: MomentState) -> np.ndarray:
    """Per-species temperatures (J) derived from velocity and energy.

    Returns T_i = (2/(d n_i)) E_i - (m_i/d) |u_i|^2 with no clamping:
    negative values are returned as-is so realizability checks can see
    them.  Outside ``simulate`` the floating-point state is the caller's:
    an overflowing |u_i|^2 warns, raises or passes as its ``np.errstate`` says.
    """
    return _temperatures(state.composition, state.velocities, state.energies)


def _temperatures(comp, velocities, energies) -> np.ndarray:
    """The temperature map on a composition's raw arrays, (..., N, d) and (..., N) -> (..., N).

    ``comp`` is anything with the species ``masses`` and ``number_densities``.
    """
    d = velocities.shape[-1]
    weights = _temperature_weights(comp.masses, comp.number_densities, d)
    return _temperature_map(weights, np.ones(d), velocities, energies)


def _temperature_weights(masses, number_densities, dimension: int):
    """The weights (a, b) of the temperature map T = a E - b |u|^2: a = (2/d)/n, b = m/d."""
    return (2.0 / dimension) / number_densities, masses / dimension


def _temperature_map(weights, ones, velocities, energies) -> np.ndarray:
    """a E - b |v|^2 for ``weights`` (a, b), (..., N, d) and (..., N) -> (..., N).

    With the weights of :func:`_temperature_weights` it takes (u, E) to T;
    with a sqrt(n) and b / rho it takes the scaled state (W, xi) to the same
    T.  ``ones`` is the (d,) vector of ones whose dot sums the squares.
    """
    energy_weight, speed_weight = weights
    return energy_weight * energies - speed_weight * (velocities * velocities).dot(ones)


def energy_from(velocity, temperature, number_density, mass, dimension: int = 3):
    """Energy density (J/m^3) realizing a given velocity and temperature.

    Args:
        velocity: bulk velocity, shape (..., d) in m/s.
        temperature: temperature in J, shape (...); must be >= 0.
        number_density: 1/m^3.
        mass: particle mass in kg.
        dimension: spatial dimension d.

    Returns:
        (1/2) m n |u|^2 + (d/2) n T, broadcasting over leading axes.
    """
    temperature = np.asarray(temperature, dtype=float)
    if np.any(temperature < 0.0):
        raise ValueError("cannot build a state with negative temperature")
    velocity = np.asarray(velocity, dtype=float)
    speed_sq = np.einsum("...k,...k->...", velocity, velocity)
    kinetic = 0.5 * np.asarray(mass, dtype=float) * number_density * speed_sq
    thermal = 0.5 * dimension * np.asarray(number_density, dtype=float) * temperature
    return kinetic + thermal


def state_from_temperatures(
    composition: MixtureComposition, velocities, temperatures
) -> MomentState:
    """Build a MomentState whose derived temperatures (J) match exactly."""
    velocities = np.asarray(velocities, dtype=float)
    energies = energy_from(
        velocities,
        temperatures,
        composition.number_densities,
        composition.masses,
        velocities.shape[1],
    )
    return MomentState(composition, velocities, energies)


def is_realizable(state: MomentState) -> bool:
    """True iff every derived temperature is >= 0, membership in the realizable set.

    Under the caller's floating-point state, as :func:`temperatures_of`.
    """
    return bool(np.all(temperatures_of(state) >= 0.0))
