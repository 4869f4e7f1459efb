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
built once per run by :func:`run_constants`.  It carries the two density
weightings rho (for A and Z) and n (for B and Z-hat) on one leading axis
of length 2, so each step is one numpy call for both.  :func:`operators`
evaluates the core at (..., N) temperatures, for either model: alpha as
(..., N, N) and the stacks [A, B] of couplings and [Z, Z-hat] of scaled
relaxation operators as (..., 2, N, N).  :func:`heating` gives the
kinetic heating of the scaled energies at given velocities as
sum_j K_ij (m_i - m_j), without forming the Laplacian of K.  Both
integrators, the monitors, the decay constants and the RK4 step size go
through it; the cross-checks the tests hold it to live in
:mod:`mixbgk.oracles`.  Self pairs (i = j) are included throughout; they
cancel identically in all relaxation differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .species import _readonly

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
    mixture; the frequencies are this factor times the thermal speed
    sqrt(T_i / m_i + T_j / m_j).
    """
    m_i, m_j = masses[:, None], masses[None, :]
    return (
        HARD_SPHERE_PREFACTOR
        * (m_i * m_j) / (m_i + m_j) ** 2
        * (diameters[:, None] + diameters[None, :]) ** 2
        * number_densities[None, :]
    )


def _laplacian(coupling) -> np.ndarray:
    """diag(degree) - coupling over leading axes, the degree being the row sums."""
    degree = np.add.reduce(coupling, axis=-1)
    laplacian = np.negative(coupling, order="C")
    n = coupling.shape[-1]
    # In C order the diagonal of each trailing N x N block is every (N+1)-th entry.
    laplacian.reshape(*coupling.shape[:-2], n * n)[..., :: n + 1] += degree
    return laplacian


@dataclass(frozen=True)
class RunConstants:
    """The temperature-free data of Z, Z-hat and the heating, built once per run.

    ``frequency_factor`` is the hard-sphere factor (the frequencies are it
    times the thermal speed) or, for a constant model, the frequency matrix.
    ``weights`` stacks the density weightings rho and n of A and B as
    (2, N, 1) columns; ``scale`` stacks sqrt(rho) (x) sqrt(rho) and
    sqrt(n) (x) sqrt(n), the divisors of the scaled Laplacians Z and Z-hat;
    ``mass_gaps`` is m_i - m_j.  ``momentum_map`` and ``energy_map`` take a
    scaled implicit-step increment to the physical one with no change of
    total momentum or energy (rho^T M_rho = 1^T M_n = 0).  ``kernels``
    stacks q q^T for the unit null vectors sqrt(rho)/|sqrt(rho)| of Z and
    sqrt(n)/|sqrt(n)| of Z-hat.  The densities and masses are the
    composition's own cached arrays.
    """

    hard_sphere: bool
    frequency_factor: np.ndarray  # (N, N)
    masses: np.ndarray  # (N,)
    number_densities: np.ndarray  # (N,)
    sqrt_rho: np.ndarray  # (N,)
    sqrt_n: np.ndarray  # (N,)
    momentum_map: np.ndarray  # (N, N) M_rho = (I - 1 rho^T / sum rho) P^{-1/2}
    energy_map: np.ndarray  # (N, N) M_n = (I - n 1^T / sum n) Q^{1/2}
    weights: np.ndarray  # (2, N, 1)
    scale: np.ndarray  # (2, N, N)
    kernels: np.ndarray  # (2, N, N)
    mass_gaps: np.ndarray  # (N, N)
    identity: np.ndarray  # (N, N)

    def frequencies(self, temperatures) -> np.ndarray:
        """lam at (..., N) temperatures as (..., N, N), which must be positive for hard spheres."""
        if self.hard_sphere:
            # T_i / m_i once per species; a division, not a product with 1/m,
            # keeps the values at which an overflowing step fails.
            per_mass = temperatures / self.masses
            return self.frequency_factor * np.sqrt(per_mass[..., :, None] + per_mass[..., None, :])
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
    masses, rho, n = composition.masses, composition.mass_densities, composition.number_densities
    sqrt_rho, sqrt_n = np.sqrt(rho), np.sqrt(n)
    identity = np.eye(composition.size)
    scale = np.stack([np.outer(sqrt_rho, sqrt_rho), np.outer(sqrt_n, sqrt_n)])
    return RunConstants(
        hard_sphere=hard_sphere,
        frequency_factor=factor,
        masses=masses,
        number_densities=n,
        sqrt_rho=sqrt_rho,
        sqrt_n=sqrt_n,
        momentum_map=(identity - rho / rho.sum()) / sqrt_rho,
        energy_map=(identity - n[:, None] / n.sum()) * sqrt_n,
        weights=np.stack([rho, n])[:, :, None],
        scale=scale,
        kernels=scale / np.stack([rho.sum(), n.sum()])[:, None, None],
        mass_gaps=masses[:, None] - masses[None, :],
        identity=identity,
    )


def operators(temperatures, const: RunConstants):
    """(alpha, [A, B], [Z, Z-hat]) at (..., N) temperatures, over any leading axes.

    One frequency evaluation, then one w lam product, one pair sum
    s = w_i lam_ij + w_j lam_ji and one quotient for both weightings w
    (beta is not formed), then Z = P^{-1/2} (D - A) P^{-1/2} and
    Z-hat = Q^{-1/2} (F - B) Q^{-1/2}.  Hard-sphere temperatures must be
    positive; callers check them.
    """
    scaled = const.weights * const.frequencies(temperatures)[..., None, :, :]
    transposed = scaled.swapaxes(-1, -2)
    total = scaled + transposed
    alpha = scaled[..., 0, :, :] / total[..., 0, :, :]
    coupling = scaled * transposed / total
    return alpha, coupling, _laplacian(coupling) / const.scale


def heating(energy_coupling, velocity_weights, velocities, const: RunConstants, rate):
    """rate * Q^{-1/2} (G - C) m, the kinetic heating of the scaled energies, (..., N).

    G - C is the Laplacian of the kinetic coupling K = B |u_mix|^2, with
    u_mix[i, j] = u_j + alpha[i, j] (u_i - u_j) from the given velocities
    (a float array, (..., N, d)) and mixing weights; it is applied to m
    without being formed, as sum_j K_ij (m_i - m_j).  rate is 1/(2 eps)
    in the ODE.
    """
    u_j = velocities[..., None, :, :]
    u_mix = u_j + velocity_weights[..., None] * (velocities[..., :, None, :] - u_j)
    kinetic = energy_coupling * np.einsum("...k,...k->...", u_mix, u_mix)
    return rate * np.add.reduce(kinetic * const.mass_gaps, axis=-1) / const.sqrt_n
