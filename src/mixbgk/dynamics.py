"""Right-hand sides of the coupled velocity-energy moment ODE system.

Three equivalent formulations are exposed:

* the scaled symmetric form of :func:`scaled_operators` (variables
  W = P^{1/2} U and xi = Q^{-1/2} E), a call into the operator core of
  :mod:`mixbgk.collisions` that both integrators and the monitors use,
* the raw per-species rates :func:`momentum_rhs` / :func:`energy_rhs`
  (conserved variables rho_i u_i and E_i) in pairwise-difference form,
  the reference the tests hold the core to, and
* the derived temperature rate :func:`temperature_rhs`, kept only as an
  independent cross-check of the energy/momentum rates.

Total momentum and total energy rates sum to zero identically: the
coupling Laplacians annihilate the constant vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collisions import CollisionMatrices, ConstantMatrix, _heating, _operators, _run_constants
from .species import MomentState, temperatures_of


def _check_eps(eps: float) -> float:
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"Knudsen number eps must be positive, got {eps}")
    return float(eps)


def momentum_rhs(state: MomentState, mats: CollisionMatrices, eps: float = 1.0):
    """d(rho_i u_i)/dt, shape (N, d): row i is (1/eps) sum_j A_ij (u_j - u_i).

    Computed in pairwise-difference form so that coinciding velocities
    cancel exactly.
    """
    _check_eps(eps)
    u = state.velocities
    gaps = u[None, :, :] - u[:, None, :]  # (i, j, :) = u_j - u_i
    return np.einsum("ij,ijk->ik", mats.momentum_coupling, gaps) / eps


def energy_rhs(state: MomentState, mats: CollisionMatrices, eps: float = 1.0):
    """dE_i/dt, shape (N,): pairwise energy relaxation plus kinetic exchange.

    Entry i is (1/eps) sum_j B_ij (E_j/n_j - E_i/n_i)
             + (1/2 eps) sum_j B_ij |u_mix_ij|^2 (m_i - m_j),

    in pairwise-difference form (equal energies per particle and equal
    masses cancel exactly).
    """
    _check_eps(eps)
    comp = state.composition
    per_particle = state.energies / comp.number_densities
    relaxation = np.sum(
        mats.energy_coupling * (per_particle[None, :] - per_particle[:, None]), axis=1
    )
    mass_gaps = comp.masses[:, None] - comp.masses[None, :]
    kinetic_exchange = 0.5 * np.sum(mats.kinetic_coupling * mass_gaps, axis=1)
    return (relaxation + kinetic_exchange) / eps


def temperature_rhs(
    state: MomentState,
    frequencies,
    velocity_weights,
    temperature_weights,
    eps: float = 1.0,
):
    """dT_i/dt (J/s), shape (N,): relaxation plus frictional heating.

    Cross-check form only; equals the chain-rule combination of
    :func:`momentum_rhs` and :func:`energy_rhs` through the temperature
    map T_i = (2/(d n_i)) E_i - (m_i/d) |u_i|^2.
    """
    _check_eps(eps)
    temps = temperatures_of(state)
    u = state.velocities
    d = state.dimension
    lam = np.asarray(frequencies, dtype=float)
    alpha, beta = velocity_weights, temperature_weights

    relaxation = np.sum(lam * beta.T * (temps[None, :] - temps[:, None]), axis=1)

    du = u[:, None, :] - u[None, :, :]
    speed_gap_sq = np.einsum("ijk,ijk->ij", du, du)
    masses = state.composition.masses
    heating = np.sum(
        lam * masses[:, None] * alpha.T * (alpha.T + beta) * speed_gap_sq, axis=1
    ) / d
    return (relaxation + heating) / eps


@dataclass(frozen=True)
class ScaledOperators:
    """Symmetric relaxation operators and source of the scaled system.

    In the variables W = P^{1/2} U and xi = Q^{-1/2} E the dynamics reads

        dW/dt  = -(1/eps) momentum_relaxation @ W
        dxi/dt = -(1/eps) energy_relaxation @ xi + heating_source,

    with ``heating_source`` already carrying its 1/(2 eps) prefactor.
    Both operators are symmetric positive semi-definite with
    one-dimensional null spaces spanned by sqrt(rho) and sqrt(n).
    """

    momentum_relaxation: np.ndarray  # (N, N), Z
    energy_relaxation: np.ndarray  # (N, N), Z-hat
    heating_source: np.ndarray  # (N,)


def scaled_velocities(state: MomentState) -> np.ndarray:
    """W = P^{1/2} U, shape (N, d)."""
    return np.sqrt(state.composition.mass_densities)[:, None] * state.velocities


def scaled_energies(state: MomentState) -> np.ndarray:
    """xi = Q^{-1/2} E, shape (N,)."""
    return state.energies / np.sqrt(state.composition.number_densities)


def scaled_operators(
    state: MomentState, mats: CollisionMatrices, eps: float = 1.0
) -> ScaledOperators:
    """The scaled-system operators with the frequencies frozen at ``mats.frequencies``.

    Only ``mats.frequencies`` is read: Z, Z-hat and the heating are rebuilt
    from it by the operator core, the heating at ``state.velocities``.
    """
    _check_eps(eps)
    const = _run_constants(state.composition, ConstantMatrix(mats.frequencies), state.dimension)
    alpha, _, energy_coupling, z, z_hat = _operators(temperatures_of(state), const)
    heating = _heating(energy_coupling, alpha, state.velocities, const, 0.5 / eps)
    return ScaledOperators(z, z_hat, heating)
