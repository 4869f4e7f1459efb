"""Collision-frequency models and assembly of the pairwise coupling matrices.

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
mixture velocities/temperatures, and the coupling matrices

    momentum_coupling[i, j] = rho_i rho_j lam_ij lam_ji / (rho_i lam_ij + rho_j lam_ji)
    energy_coupling[i, j]   = n_i  n_j  lam_ij lam_ji / (n_i  lam_ij + n_j  lam_ji)
    mixture_speed_sq[i, j]  = |u_mix[i, j]|^2
    kinetic_coupling        = energy_coupling * mixture_speed_sq

plus their row sums ("degrees") and Laplacians diag(degree) - coupling.
Self pairs (i = j) are included throughout; they cancel identically in
all relaxation differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .species import MomentState, _readonly, temperatures_of

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


def hard_sphere_frequencies(species, number_densities, temperatures) -> np.ndarray:
    """Hard-sphere collision-frequency matrix lam[i, j].

    Args:
        species: sequence of SpeciesParams.
        number_densities: (N,) 1/m^3.
        temperatures: (N,) in J; all entries must be strictly positive
            (the square root is not Lipschitz at zero).

    Returns:
        (N, N) array of positive, finite frequencies.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    bad = ~(np.isfinite(temperatures) & (temperatures > 0.0))
    if np.any(bad):
        label = species[int(np.argmax(bad))].label
        raise ValueError(
            f"hard-sphere frequencies need strictly positive temperatures; "
            f"species {label!r} has T = {temperatures[int(np.argmax(bad))]:.6e} J"
        )
    m = np.asarray([s.mass for s in species], dtype=float)
    diam = np.asarray([s.diameter for s in species], dtype=float)
    n = np.asarray(number_densities, dtype=float)

    m_i, m_j = m[:, None], m[None, :]
    thermal_speed = np.sqrt(temperatures[:, None] / m_i + temperatures[None, :] / m_j)
    return (
        HARD_SPHERE_PREFACTOR
        * (m_i * m_j) / (m_i + m_j) ** 2
        * (diam[:, None] + diam[None, :]) ** 2
        * n[None, :]
        * thermal_speed
    )


def collision_frequencies(
    model: FrequencyModel, state_or_composition, temperatures, dimension: int
) -> np.ndarray:
    """Evaluate a frequency model for a composition at given temperatures (J)."""
    comp = getattr(state_or_composition, "composition", state_or_composition)
    if isinstance(model, HardSphere):
        if dimension != 3:
            raise ValueError(
                f"the hard-sphere frequency model is specific to d = 3, got d = {dimension}"
            )
        return hard_sphere_frequencies(comp.species, comp.number_densities, temperatures)
    if isinstance(model, ConstantMatrix):
        if model.frequencies.shape != (comp.size, comp.size):
            raise ValueError(
                f"constant frequency matrix has shape {model.frequencies.shape}, "
                f"mixture has {comp.size} species"
            )
        return model.frequencies
    raise TypeError(f"unknown frequency model: {model!r}")


def mixing_weights(frequencies, mass_densities, number_densities):
    """Pairwise mixing weights (alpha, beta) from a frequency matrix.

    alpha weights the velocities and beta the temperatures in the pair
    mixture values; each satisfies w[i, j] + w[j, i] = 1.
    """
    lam = np.asarray(frequencies, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("mixing weights need strictly positive frequencies")
    rho_lam = np.asarray(mass_densities, dtype=float)[:, None] * lam
    n_lam = np.asarray(number_densities, dtype=float)[:, None] * lam
    alpha = rho_lam / (rho_lam + rho_lam.T)
    beta = n_lam / (n_lam + n_lam.T)
    return alpha, beta


def _pair_velocities(velocities, velocity_weights) -> np.ndarray:
    """u_mix[i, j] = alpha[i, j] u_i + alpha[j, i] u_j, shape (N, N, d)."""
    u = np.asarray(velocities, dtype=float)
    w = velocity_weights
    return w[:, :, None] * u[:, None, :] + w.T[:, :, None] * u[None, :, :]


@dataclass(frozen=True)
class PairwiseMixture:
    """Pairwise mixture velocities (N, N, d) and temperatures (N, N) in J."""

    velocities: np.ndarray
    temperatures: np.ndarray


def pairwise_mixture(
    state: MomentState, velocity_weights, temperature_weights
) -> PairwiseMixture:
    """Mixture velocities and temperatures for every species pair.

    The pair temperature is the beta-weighted convex combination of the
    two species temperatures plus a nonnegative velocity-difference term:

        T_mix[i, j] = beta[i, j] T_i + beta[j, i] T_j
                      + (1/d) m_i alpha[j, i] beta[i, j] |u_i - u_j|^2
    """
    temps = temperatures_of(state)
    u = state.velocities
    d = state.dimension
    alpha, beta = velocity_weights, temperature_weights

    du = u[:, None, :] - u[None, :, :]
    speed_gap_sq = np.einsum("ijk,ijk->ij", du, du)
    masses = state.composition.masses
    t_mix = (
        beta * temps[:, None]
        + beta.T * temps[None, :]
        + masses[:, None] * alpha.T * beta * speed_gap_sq / d
    )
    return PairwiseMixture(_pair_velocities(u, alpha), t_mix)


@dataclass(frozen=True)
class CollisionMatrices:
    """All per-evaluation coupling data for the moment right-hand sides."""

    frequencies: np.ndarray  # (N, N) lam
    velocity_weights: np.ndarray  # (N, N) alpha
    temperature_weights: np.ndarray  # (N, N) beta
    momentum_coupling: np.ndarray  # (N, N) symmetric, positive entries
    energy_coupling: np.ndarray  # (N, N) symmetric, positive entries
    mixture_speed_sq: np.ndarray  # (N, N) |u_mix|^2
    kinetic_coupling: np.ndarray  # (N, N) energy_coupling * mixture_speed_sq
    momentum_degree: np.ndarray  # (N,) row sums of momentum_coupling
    energy_degree: np.ndarray
    kinetic_degree: np.ndarray

    @property
    def momentum_laplacian(self) -> np.ndarray:
        return _laplacian(self.momentum_coupling, self.momentum_degree)

    @property
    def energy_laplacian(self) -> np.ndarray:
        return _laplacian(self.energy_coupling, self.energy_degree)

    @property
    def kinetic_laplacian(self) -> np.ndarray:
        return _laplacian(self.kinetic_coupling, self.kinetic_degree)


def _laplacian(coupling, degree=None) -> np.ndarray:
    """diag(degree) - coupling, the degree defaulting to the row sums."""
    if degree is None:
        degree = coupling.sum(axis=1)
    return np.diag(degree) - coupling


def _kinetic_coupling(energy_coupling, velocities, velocity_weights):
    """(|u_mix|^2, energy_coupling * |u_mix|^2) over all species pairs."""
    u_mix = _pair_velocities(velocities, velocity_weights)
    mixture_speed_sq = np.einsum("ijk,ijk->ij", u_mix, u_mix)
    return mixture_speed_sq, energy_coupling * mixture_speed_sq


def coupling_from_frequencies(frequencies, weights) -> np.ndarray:
    """Symmetric coupling w_i lam_ij * w_j lam_ji / (w_i lam_ij + w_j lam_ji)."""
    scaled = np.asarray(weights, dtype=float)[:, None] * np.asarray(frequencies, float)
    return scaled * scaled.T / (scaled + scaled.T)


def assemble(state: MomentState, model: FrequencyModel) -> CollisionMatrices:
    """Build every coupling matrix for one state evaluation.

    Matrices are recomputed from scratch (no caching): mixtures are small
    and correctness wins over speed.
    """
    comp = state.composition
    temps = temperatures_of(state)
    lam = collision_frequencies(model, comp, temps, state.dimension)
    alpha, beta = mixing_weights(lam, comp.mass_densities, comp.number_densities)

    momentum_coupling = coupling_from_frequencies(lam, comp.mass_densities)
    energy_coupling = coupling_from_frequencies(lam, comp.number_densities)

    mixture_speed_sq, kinetic_coupling = _kinetic_coupling(
        energy_coupling, state.velocities, alpha
    )

    return CollisionMatrices(
        frequencies=lam,
        velocity_weights=alpha,
        temperature_weights=beta,
        momentum_coupling=momentum_coupling,
        energy_coupling=energy_coupling,
        mixture_speed_sq=mixture_speed_sq,
        kinetic_coupling=kinetic_coupling,
        momentum_degree=momentum_coupling.sum(axis=1),
        energy_degree=energy_coupling.sum(axis=1),
        kinetic_degree=kinetic_coupling.sum(axis=1),
    )


def closed_form_couplings(species, number_densities, temperatures):
    """Hard-sphere momentum/energy couplings by the direct algebraic route.

    Independent of :func:`assemble` (no intermediate frequency matrix):

        A[i, j] = (16/3) sqrt(pi/2) m_i m_j (d_i + d_j)^2 / (m_i + m_j)^3
                  * rho_i rho_j * sqrt(T_i/m_i + T_j/m_j)
        B[i, j] = (8/3)  sqrt(pi/2) (d_i + d_j)^2 / (m_i + m_j)^2
                  * rho_i rho_j * sqrt(T_i/m_i + T_j/m_j)

    Serves as a cross-check oracle for the frequency-based assembly.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    if np.any(temperatures <= 0.0):
        raise ValueError("closed-form couplings need strictly positive temperatures")
    m = np.asarray([s.mass for s in species], dtype=float)
    diam = np.asarray([s.diameter for s in species], dtype=float)
    n = np.asarray(number_densities, dtype=float)
    rho = m * n

    m_i, m_j = m[:, None], m[None, :]
    # Every factor below is an exactly symmetric matrix (commutative binary
    # ops of transposed pairs), so the products are symmetric to the bit.
    mass_prod = m_i * m_j
    mass_sum = m_i + m_j
    d_sum_sq = (diam[:, None] + diam[None, :]) ** 2
    rho_prod = rho[:, None] * rho[None, :]
    thermal_speed = np.sqrt(temperatures[:, None] / m_i + temperatures[None, :] / m_j)

    momentum = (
        (16.0 / 3.0) * np.sqrt(np.pi / 2.0)
        * (mass_prod * d_sum_sq / mass_sum**3)
        * rho_prod * thermal_speed
    )
    energy = (
        (8.0 / 3.0) * np.sqrt(np.pi / 2.0)
        * (d_sum_sq / mass_sum**2)
        * rho_prod * thermal_speed
    )
    return momentum, energy
