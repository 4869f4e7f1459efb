"""Collision-frequency models and the operator core of the moment system.

Two frequency models are provided:

* :class:`HardSphere` -- temperature-dependent frequencies

      lam[i, j] = PREF * m_i m_j / (m_i + m_j)^2 * (d_i + d_j)^2
                  * n_j * sqrt(T_i / m_i + T_j / m_j)

  with PREF = 32 pi^2 / (3 (2 pi)^{3/2}).  Valid in three spatial
  dimensions only.

* :class:`ConstantMatrix` -- a fixed positive frequency matrix, useful for
  closed-form linear-ODE cross-checks (the couplings below then depend
  only on the constant densities, so they are time-invariant).

From the frequencies the relaxation dynamics uses pairwise mixing weights

    alpha[i, j] = rho_i lam[i, j] / (rho_i lam[i, j] + rho_j lam[j, i])
    beta[i, j]  = n_i  lam[i, j] / (n_i  lam[i, j] + n_j  lam[j, i])

(complements sum to one: alpha[i, j] + alpha[j, i] = 1, same for beta),
the pair mixture velocities u_mix[i, j] = alpha[i, j] u_i + alpha[j, i] u_j,
and the coupling matrices

    momentum_coupling[i, j] = rho_i rho_j lam_ij lam_ji / (rho_i lam_ij + rho_j lam_ji)
    energy_coupling[i, j]   = n_i  n_j  lam_ij lam_ji / (n_i  lam_ij + n_j  lam_ji)
    mixture_speed_sq[i, j]  = |u_mix[i, j]|^2
    kinetic_coupling        = energy_coupling * mixture_speed_sq

with their Laplacians diag(row sums) - coupling.

The operator core works on the temperature-free :class:`RunConstants`,
built once per run by :func:`run_constants`: :func:`couplings` gives
alpha, A and B at (..., N) temperatures as (..., N, N) arrays for either
model, :func:`operators` adds the scaled relaxation operators Z and
Z-hat, and :func:`heating` gives the kinetic heating of the scaled
energies.  Both integrators, the monitors, the decay constants and the
RK4 step size go through it; the independent references the tests hold
it to live in :mod:`mixbgk.oracles`.  Self pairs (i = j) are included
throughout; they cancel identically in all relaxation differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .species import MixtureComposition, _readonly

# 32 pi^2 / (3 (2 pi)^{3/2}), evaluated in full float precision.
HARD_SPHERE_PREFACTOR = 32.0 * np.pi**2 / (3.0 * (2.0 * np.pi) ** 1.5)


@dataclass(frozen=True)
class HardSphere:
    """Hard-sphere collision frequencies (temperature dependent, d = 3)."""


@dataclass(frozen=True)
class ConstantMatrix:
    """Fixed collision-frequency matrix, entries in 1/s, all > 0."""

    frequencies: np.ndarray  # (N, N)

    def __post_init__(self):
        lam = _readonly(self.frequencies)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError(f"frequency matrix must be square, got shape {lam.shape}")
        if not np.all(np.isfinite(lam) & (lam > 0.0)):
            raise ValueError("constant collision frequencies must all be positive")
        object.__setattr__(self, "frequencies", lam)


FrequencyModel = Union[HardSphere, ConstantMatrix]


def _hard_sphere_factor(masses, diameters, number_densities) -> np.ndarray:
    """The temperature-free part of the hard-sphere frequencies, (N, N).

    PREF * m_i m_j / (m_i + m_j)^2 * (d_i + d_j)^2 * n_j is fixed for a
    mixture; the frequencies are this factor times :func:`_thermal_speed`.
    """
    m_i, m_j = masses[:, None], masses[None, :]
    return (
        HARD_SPHERE_PREFACTOR
        * (m_i * m_j) / (m_i + m_j) ** 2
        * (diameters[:, None] + diameters[None, :]) ** 2
        * number_densities[None, :]
    )


def _thermal_speed(masses, temperatures) -> np.ndarray:
    """sqrt(T_i / m_i + T_j / m_j), (..., N) temperatures -> (..., N, N)."""
    return np.sqrt(
        temperatures[..., None] / masses[:, None] + temperatures[..., None, :] / masses[None, :]
    )


def hard_sphere_frequencies(species, number_densities, temperatures) -> np.ndarray:
    """Hard-sphere collision-frequency matrices lam[..., i, j].

    Args:
        species: sequence of SpeciesParams.
        number_densities: (N,) 1/m^3.
        temperatures: (..., N) in J; all entries must be strictly positive
            (the square root is not Lipschitz at zero).

    Returns:
        (..., N, N) array of positive, finite frequencies.

    Raises:
        ValueError naming the first species with a nonpositive temperature.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    bad = ~(np.isfinite(temperatures) & (temperatures > 0.0))
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"hard-sphere frequencies need strictly positive temperatures; "
            f"species {species[first[-1]].label!r} has T = {temperatures[first]:.6e} J"
        )
    composition = MixtureComposition(species, number_densities)
    return run_constants(composition, HardSphere(), 3).frequencies(temperatures)


def _weight_and_coupling(frequencies, weights, with_weight: bool = True):
    """Mixing weight and symmetric coupling of one density weighting w.

        weight[i, j]   = w_i lam_ij / s_ij
        coupling[i, j] = w_i lam_ij * w_j lam_ji / s_ij,  s_ij = w_i lam_ij + w_j lam_ji,

    over leading axes of (..., N, N) frequencies; both share the product
    w lam and the pair sum s.  The weight is None without ``with_weight``.
    """
    scaled = np.asarray(weights, dtype=float)[:, None] * np.asarray(frequencies, dtype=float)
    transposed = scaled.swapaxes(-1, -2)
    total = scaled + transposed
    weight = scaled / total if with_weight else None
    return weight, scaled * transposed / total


def _laplacian(coupling) -> np.ndarray:
    """diag(degree) - coupling over leading axes, the degree being the row sums."""
    degree = coupling.sum(axis=-1)
    laplacian = np.negative(coupling, order="C")
    n = coupling.shape[-1]
    # In C order the diagonal of each trailing N x N block is every (N+1)-th entry.
    laplacian.reshape(*coupling.shape[:-2], n * n)[..., :: n + 1] += degree
    return laplacian


def _kinetic_coupling(energy_coupling, velocities, velocity_weights):
    """energy_coupling * |u_mix|^2, u_mix[i, j] = alpha[i, j] u_i + alpha[j, i] u_j."""
    u = np.asarray(velocities, dtype=float)
    w = velocity_weights
    u_mix = w[:, :, None] * u[:, None, :] + w.T[:, :, None] * u[None, :, :]
    return energy_coupling * np.einsum("ijk,ijk->ij", u_mix, u_mix)


@dataclass(frozen=True)
class RunConstants:
    """The temperature-free data of Z, Z-hat and the heating, built once per run.

    ``frequency_factor`` is the hard-sphere factor (the frequencies are it
    times the thermal speed) or, for a constant model, the frequency matrix.
    ``momentum_scale`` and ``energy_scale`` are sqrt(rho) (x) sqrt(rho) and
    sqrt(n) (x) sqrt(n), the divisors of the scaled Laplacians.  The
    densities and masses are the composition's own cached arrays.
    """

    hard_sphere: bool
    frequency_factor: np.ndarray  # (N, N)
    masses: np.ndarray  # (N,)
    mass_densities: np.ndarray  # (N,)
    number_densities: np.ndarray  # (N,)
    sqrt_rho: np.ndarray  # (N,)
    sqrt_n: np.ndarray  # (N,)
    momentum_scale: np.ndarray  # (N, N)
    energy_scale: np.ndarray  # (N, N)
    identity: np.ndarray  # (N, N)

    def frequencies(self, temperatures) -> np.ndarray:
        """lam at (..., N) temperatures as (..., N, N), which must be positive for hard spheres."""
        if self.hard_sphere:
            return self.frequency_factor * _thermal_speed(self.masses, temperatures)
        return np.broadcast_to(
            self.frequency_factor, np.shape(temperatures)[:-1] + self.frequency_factor.shape
        )


def run_constants(composition, model: FrequencyModel, dimension: int) -> RunConstants:
    """Check a model against a mixture and build its run constants."""
    hard_sphere = isinstance(model, HardSphere)
    if hard_sphere:
        if dimension != 3:
            raise ValueError(
                f"the hard-sphere frequency model is specific to d = 3, got d = {dimension}"
            )
        factor = _hard_sphere_factor(
            composition.masses, composition.diameters, composition.number_densities
        )
    elif isinstance(model, ConstantMatrix):
        if model.frequencies.shape != (composition.size, composition.size):
            raise ValueError(
                f"constant frequency matrix has shape {model.frequencies.shape}, "
                f"mixture has {composition.size} species"
            )
        factor = model.frequencies
    else:
        raise TypeError(f"unknown frequency model: {model!r}")
    sqrt_rho = np.sqrt(composition.mass_densities)
    sqrt_n = np.sqrt(composition.number_densities)
    return RunConstants(
        hard_sphere=hard_sphere,
        frequency_factor=factor,
        masses=composition.masses,
        mass_densities=composition.mass_densities,
        number_densities=composition.number_densities,
        sqrt_rho=sqrt_rho,
        sqrt_n=sqrt_n,
        momentum_scale=np.outer(sqrt_rho, sqrt_rho),
        energy_scale=np.outer(sqrt_n, sqrt_n),
        identity=np.eye(composition.size),
    )


def couplings(temperatures, const: RunConstants):
    """(alpha, A, B) at (..., N) temperatures, over any leading axes.

    One frequency evaluation, then one w lam product and pair sum per
    density weighting (the temperature weights beta are not formed).
    Hard-sphere temperatures must be positive; callers check them.
    """
    lam = const.frequencies(temperatures)
    alpha, momentum_coupling = _weight_and_coupling(lam, const.mass_densities)
    _, energy_coupling = _weight_and_coupling(lam, const.number_densities, with_weight=False)
    return alpha, momentum_coupling, energy_coupling


def operators(temperatures, const: RunConstants):
    """(alpha, A, B, Z, Z-hat) at (..., N) temperatures, over any leading axes.

    The couplings of :func:`couplings` and the scaled Laplacians
    Z = P^{-1/2} (D - A) P^{-1/2}, Z-hat = Q^{-1/2} (F - B) Q^{-1/2}.
    """
    alpha, momentum_coupling, energy_coupling = couplings(temperatures, const)
    return (
        alpha,
        momentum_coupling,
        energy_coupling,
        _laplacian(momentum_coupling) / const.momentum_scale,
        _laplacian(energy_coupling) / const.energy_scale,
    )


def heating(energy_coupling, velocity_weights, velocities, const: RunConstants, rate):
    """rate * Q^{-1/2} (G - C) m, the kinetic heating of the scaled energies, (N,).

    G - C is the Laplacian of the kinetic coupling B |u_mix|^2 built from
    the given velocities and mixing weights; rate is 1/(2 eps) in the ODE.
    """
    kinetic_coupling = _kinetic_coupling(energy_coupling, velocities, velocity_weights)
    return rate * (_laplacian(kinetic_coupling) @ const.masses) / const.sqrt_n
