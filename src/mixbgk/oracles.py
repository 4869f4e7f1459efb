"""Independent references that the tests and demos hold the runtime to.

Nothing here runs in a simulation: no runtime module imports this one,
and ``import mixbgk`` does not load it.  Each reference takes another
route to a quantity the operator core of :mod:`mixbgk.collisions`
computes:

* :func:`assemble` -- every coupling matrix of one state, written out
  from the formulas in the :mod:`mixbgk.collisions` docstring (it shares
  only the frequencies with the core, and follows the core's operation
  order, so the two agree bit for bit);
* :func:`pairwise_mixture` -- pair mixture velocities and temperatures;
* :func:`closed_form_couplings` -- hard-sphere couplings without a
  frequency matrix;
* :func:`momentum_rhs` / :func:`energy_rhs` -- the moment rates in
  pairwise-difference form, and :func:`temperature_rhs`, the temperature
  rate, a chain-rule cross-check of both;
* :func:`symmetric_eigenvalues` -- a cyclic-Jacobi eigensolver
  independent of LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collisions import FrequencyModel, hard_sphere_frequencies, run_constants
from .species import MomentState, temperatures_of


@dataclass(frozen=True)
class CollisionMatrices:
    """All coupling data of one state evaluation."""

    frequencies: np.ndarray  # (N, N) lam
    velocity_weights: np.ndarray  # (N, N) alpha
    temperature_weights: np.ndarray  # (N, N) beta
    momentum_coupling: np.ndarray  # (N, N) symmetric, positive entries
    energy_coupling: np.ndarray  # (N, N) symmetric, positive entries
    mixture_speed_sq: np.ndarray  # (N, N) |u_mix|^2
    kinetic_coupling: np.ndarray  # (N, N) energy_coupling * mixture_speed_sq


def _pair_velocities(velocities, velocity_weights) -> np.ndarray:
    """u_mix[i, j] = alpha[i, j] u_i + alpha[j, i] u_j, shape (N, N, d)."""
    u = np.asarray(velocities, dtype=float)
    w = velocity_weights
    return w[:, :, None] * u[:, None, :] + w.T[:, :, None] * u[None, :, :]


def assemble(state: MomentState, model: FrequencyModel) -> CollisionMatrices:
    """Build every coupling matrix for one state evaluation.

    lam comes from :func:`hard_sphere_frequencies` or the constant matrix;
    alpha, beta, A, B and |u_mix|^2 are then written out term by term.
    """
    comp = state.composition
    # run_constants checks the model against the mixture and the dimension.
    if run_constants(comp, model, state.dimension).hard_sphere:
        lam = hard_sphere_frequencies(comp.species, comp.number_densities, temperatures_of(state))
    else:
        lam = model.frequencies
    rho_lam = comp.mass_densities[:, None] * lam  # rho_i lam_ij
    rho_pair = rho_lam + rho_lam.T
    n_lam = comp.number_densities[:, None] * lam  # n_i lam_ij
    n_pair = n_lam + n_lam.T
    alpha = rho_lam / rho_pair
    energy_coupling = n_lam * n_lam.T / n_pair
    u_mix = _pair_velocities(state.velocities, alpha)
    mixture_speed_sq = np.einsum("ijk,ijk->ij", u_mix, u_mix)
    return CollisionMatrices(
        frequencies=lam,
        velocity_weights=alpha,
        temperature_weights=n_lam / n_pair,
        momentum_coupling=rho_lam * rho_lam.T / rho_pair,
        energy_coupling=energy_coupling,
        mixture_speed_sq=mixture_speed_sq,
        kinetic_coupling=energy_coupling * mixture_speed_sq,
    )


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


def closed_form_couplings(species, number_densities, temperatures):
    """Hard-sphere momentum/energy couplings by the direct algebraic route.

    Independent of :func:`assemble` (no intermediate frequency matrix):

        A[i, j] = (16/3) sqrt(pi/2) m_i m_j (d_i + d_j)^2 / (m_i + m_j)^3
                  * rho_i rho_j * sqrt(T_i/m_i + T_j/m_j)
        B[i, j] = (8/3)  sqrt(pi/2) (d_i + d_j)^2 / (m_i + m_j)^2
                  * rho_i rho_j * sqrt(T_i/m_i + T_j/m_j)
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

    Equals the chain-rule combination of :func:`momentum_rhs` and
    :func:`energy_rhs` through the temperature map
    T_i = (2/(d n_i)) E_i - (m_i/d) |u_i|^2.
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


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] by a symmetric Givens rotation, in place."""
    apq = a[p, q]
    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
    # Smaller-magnitude root of t^2 + 2 tau t - 1 = 0: numerically stable.
    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    row_p, row_q = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    col_p, col_q = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    a[p, q] = 0.0
    a[q, p] = 0.0


def symmetric_eigenvalues(matrix, max_sweeps: int = 60) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Uses closed forms for 1x1 and 2x2 inputs and a cyclic Jacobi rotation
    scheme otherwise, sweeping until the off-diagonal Frobenius norm drops
    below 1e-14 of the matrix norm.  Convergence is quadratic; small dense
    matrices finish in a handful of sweeps.  The runtime path uses
    ``numpy.linalg.eigvalsh``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(norm, 1e-300):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    a = 0.5 * (a + a.T)  # exact symmetry for the rotations

    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    if n == 2:
        mean = 0.5 * (a[0, 0] + a[1, 1])
        radius = np.hypot(0.5 * (a[0, 0] - a[1, 1]), a[0, 1])
        return np.array([mean - radius, mean + radius])
    if norm == 0.0:
        return np.zeros(n)

    off = np.linalg.norm(a - np.diag(a.diagonal()))
    for _ in range(max_sweeps):
        if off <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _jacobi_rotate(a, p, q)
        off = np.linalg.norm(a - np.diag(a.diagonal()))
    else:
        raise RuntimeError(
            f"Jacobi sweep limit {max_sweeps} reached with off-diagonal norm {off:.3e}"
        )
    return np.sort(a.diagonal())
