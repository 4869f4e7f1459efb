"""Equilibria, spectral bounds, decay constants, and analytic decay envelopes.

All mixtures relax to a common bulk velocity and temperature.  The
distance from equilibrium is bounded for all t >= 0 by explicit
exponential envelopes whose rates are lower bounds on the positive
eigenvalues of the scaled relaxation operators.  Because the hard-sphere
couplings grow monotonically with temperature and every species
temperature stays above its initial minimum, evaluating the coupling
minima at that temperature floor yields rates valid along the whole
trajectory; coupling maxima are evaluated at the total-energy temperature
ceiling for the same reason.  Instantaneous t=0 bracket values are
exposed alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collisions import (
    CollisionMatrices,
    FrequencyModel,
    assemble,
    collision_frequencies,
    coupling_from_frequencies,
)
from .dynamics import scaled_energies, scaled_velocities
from .species import MomentState, temperatures_of


@dataclass(frozen=True)
class EquilibriumData:
    """Steady-state velocity (m/s), temperature (J), and energies (J/m^3)."""

    velocity: np.ndarray  # (d,)
    temperature: float
    energies: np.ndarray  # (N,)


def steady_state(state: MomentState) -> EquilibriumData:
    """Equilibrium values implied by a realizable state.

    The common velocity is the mass-weighted mean; the common temperature
    is the density-weighted mean temperature plus the kinetic-energy
    excess released as the velocities equalize:

        u_eq = sum_i rho_i u_i / sum_i rho_i
        T_eq = sum_i n_i T_i / sum_i n_i
               + sum_i rho_i (|u_i|^2 - |u_eq|^2) / (d sum_i n_i)

    Both are invariant along trajectories (they depend only on conserved
    quantities), and the per-species equilibrium energies split T_eq and
    u_eq back into thermal and kinetic parts.
    """
    comp = state.composition
    rho = comp.mass_densities
    n = comp.number_densities
    d = state.dimension
    temps = temperatures_of(state)

    u_eq = rho @ state.velocities / rho.sum()
    speed_sq = np.einsum("ik,ik->i", state.velocities, state.velocities)
    kinetic_excess = rho @ (speed_sq - u_eq @ u_eq)
    t_eq = (n @ temps + kinetic_excess / d) / n.sum()

    energies = 0.5 * (u_eq @ u_eq) * rho + 0.5 * d * t_eq * n
    return EquilibriumData(velocity=u_eq, temperature=float(t_eq), energies=energies)


@dataclass(frozen=True)
class SpectralBounds:
    """Brackets on the positive eigenvalues of the relaxation operators.

    ``vacuous`` flags the single-species case, where both operators are
    identically zero and there is no positive spectrum to bracket.
    """

    velocity_lower: float  # <= every nonzero eigenvalue of Z
    velocity_upper: float
    energy_lower: float  # <= every nonzero eigenvalue of Z-hat
    energy_upper: float
    vacuous: bool = False


def _eigenvalue_brackets(momentum_coupling, energy_coupling, rho, n) -> np.ndarray:
    """The ends of :func:`spectral_bounds` over leading record axes of the couplings.

    Returns (..., 2, 2): [[velocity lower, upper], [energy lower, upper]].
    """
    size, pair = len(rho), (-2, -1)
    return np.stack([
        np.stack([size * c.min(axis=pair) / w.max(), size * c.max(axis=pair) / w.min()], axis=-1)
        for c, w in ((momentum_coupling, rho), (energy_coupling, n))
    ], axis=-2)


def spectral_bounds(mats: CollisionMatrices, mass_densities, number_densities) -> SpectralBounds:
    """Instantaneous eigenvalue brackets from assembled coupling matrices.

    velocity bracket: [N min(A) / max(rho), N max(A) / min(rho)]
    energy bracket:   [N min(B) / max(n),   N max(B) / min(n)]

    Both ends follow from the quadratic-form identity
    y' (D - A) y = (1/2) sum_ij A_ij (y_i - y_j)^2 together with
    sum_ij (y_i - y_j)^2 = 2 N ||y||^2 - 2 (sum_i y_i)^2: bounding A_ij by
    its extremes gives the N-scaled brackets.  Both ends are attained at
    once by a constant-frequency equal-density mixture, where the nonzero
    spectrum is the (N-1)-fold eigenvalue N * min(A) / rho.
    """
    rho = np.asarray(mass_densities, dtype=float)
    n = np.asarray(number_densities, dtype=float)
    brackets = _eigenvalue_brackets(mats.momentum_coupling, mats.energy_coupling, rho, n)
    # Field order: velocity lower/upper, then energy lower/upper.
    return SpectralBounds(*map(float, brackets.ravel()), vacuous=(len(rho) == 1))


def _couplings_at_uniform_temperature(state, model, temperature):
    comp = state.composition
    uniform = np.full(comp.size, temperature)
    lam = collision_frequencies(model, comp, uniform, state.dimension)
    momentum = coupling_from_frequencies(lam, comp.mass_densities)
    energy = coupling_from_frequencies(lam, comp.number_densities)
    return momentum, energy


def conservative_decay_rate(state: MomentState, model: FrequencyModel):
    """Trajectory-uniform decay rates (velocity_rate, energy_rate), 1/time.

    The coupling minima are evaluated with every temperature pinned at the
    floor min_i T_i(0); the hard-sphere couplings are monotone increasing
    in temperature and no temperature ever drops below the floor, so the
    returned rates bound the positive spectrum for all t >= 0.  For a
    constant frequency matrix they coincide with the instantaneous t=0
    bounds.
    """
    temps = temperatures_of(state)
    t_floor = temps.min()
    if not t_floor > 0.0:
        raise ValueError(
            f"conservative decay rates need a positive temperature floor, "
            f"got min T = {t_floor:.6e} J"
        )
    momentum, energy = _couplings_at_uniform_temperature(state, model, t_floor)
    comp = state.composition
    (velocity_rate, _), (energy_rate, _) = _eigenvalue_brackets(
        momentum, energy, comp.mass_densities, comp.number_densities
    )
    return float(velocity_rate), float(energy_rate)


def velocity_component_bound(state: MomentState) -> float:
    """Largest velocity magnitude compatible with the componentwise bounds.

    Componentwise, every bulk velocity stays inside its initial min/max
    envelope, so |u_i(t)| <= || max(|min_j U_jk|, |max_j U_jk|) ||_2.
    """
    return _component_bound(state.velocities)


def _component_bound(velocities) -> float:
    extreme = np.maximum(np.abs(velocities.min(axis=0)), np.abs(velocities.max(axis=0)))
    return float(np.linalg.norm(extreme))


def velocity_energy_bound(state: MomentState) -> float:
    """Looser velocity bound sqrt(2 E_tot / min(rho)) from total energy."""
    return float(
        np.sqrt(2.0 * state.energies.sum() / state.composition.mass_densities.min())
    )


@dataclass(frozen=True)
class DecayConstants:
    """Everything needed to evaluate the analytic decay envelopes.

    Rates are trajectory-uniform lower bounds (temperature floor); the
    ``*_t0`` rates are the sharper instantaneous brackets at t = 0, kept
    for reporting.  Amplitudes depend only on the initial condition:

        velocity_amplitude:  ||W0 - W_eq||_F / sqrt(min rho)
        energy_amplitude:    sqrt(max n) ||xi0 - xi_eq||_2
        source_amplitude:    2 N (N-1) velocity_amplitude * speed_bound
                             * coupling_energy_max * max(m) / sqrt(min n)
        heating_amplitude:   source_amplitude * sqrt(max n)

    ``coupling_energy_max`` is the energy-coupling maximum at the
    temperature ceiling 2 E_tot / (d min n), so the source bound holds for
    all t.  dimension / n_min / m_max feed the temperature envelope.
    """

    velocity_rate: float  # 1/time, conservative
    energy_rate: float  # 1/time, conservative
    velocity_rate_t0: float
    velocity_rate_upper_t0: float
    energy_rate_t0: float
    energy_rate_upper_t0: float
    velocity_amplitude: float  # m/s
    speed_bound: float  # m/s, from the componentwise envelope at t=0
    speed_bound_energy: float  # m/s, looser sqrt(2 E_tot / min rho)
    source_amplitude: float
    energy_amplitude: float
    heating_amplitude: float
    coupling_energy_max: float
    dimension: int
    n_min: float
    m_max: float


def decay_constants(state: MomentState, model: FrequencyModel) -> DecayConstants:
    """Assemble all envelope constants for a realizable initial state."""
    comp = state.composition
    rho = comp.mass_densities
    n = comp.number_densities
    d = state.dimension
    n_species = comp.size

    velocity_rate, energy_rate = conservative_decay_rate(state, model)
    bounds_t0 = spectral_bounds(assemble(state, model), rho, n)

    eq = steady_state(state)
    w_gap = scaled_velocities(state) - np.sqrt(rho)[:, None] * eq.velocity[None, :]
    velocity_amplitude = float(np.linalg.norm(w_gap) / np.sqrt(rho.min()))

    xi_gap = scaled_energies(state) - eq.energies / np.sqrt(n)
    energy_amplitude = float(np.sqrt(n.max()) * np.linalg.norm(xi_gap))

    t_ceiling = 2.0 * state.energies.sum() / (d * n.min())
    _, energy_coupling_ceiling = _couplings_at_uniform_temperature(
        state, model, t_ceiling
    )
    coupling_energy_max = float(energy_coupling_ceiling.max())

    speed_bound = velocity_component_bound(state)
    source_amplitude = (
        0.5
        * 4.0 * n_species * (n_species - 1)
        * velocity_amplitude
        * speed_bound
        * coupling_energy_max
        * comp.masses.max()
        / np.sqrt(n.min())
    )
    heating_amplitude = source_amplitude * float(np.sqrt(n.max()))

    return DecayConstants(
        velocity_rate=velocity_rate,
        energy_rate=energy_rate,
        velocity_rate_t0=bounds_t0.velocity_lower,
        velocity_rate_upper_t0=bounds_t0.velocity_upper,
        energy_rate_t0=bounds_t0.energy_lower,
        energy_rate_upper_t0=bounds_t0.energy_upper,
        velocity_amplitude=velocity_amplitude,
        speed_bound=speed_bound,
        speed_bound_energy=velocity_energy_bound(state),
        source_amplitude=float(source_amplitude),
        energy_amplitude=energy_amplitude,
        heating_amplitude=float(heating_amplitude),
        coupling_energy_max=coupling_energy_max,
        dimension=d,
        n_min=float(n.min()),
        m_max=float(comp.masses.max()),
    )


def decay_envelopes(constants: DecayConstants, eps: float, t):
    """Analytic envelopes (velocity, energy, temperature) at times t.

    velocity_env(t) = C_u exp(-z t / eps)
    energy_env(t)   = C_e exp(-zh t / eps)
                      + C_h (exp(-z t/eps) - exp(-zh t/eps)) / (zh - z)
    temp_env(t)     = 2 energy_env / (d n_min)
                      + 2 m_max speed_bound C_u exp(-z t/eps) / d

    When the two rates coincide the energy envelope switches to its
    analytic limit C_e e^{-z t/eps} + C_h (t/eps) e^{-z t/eps} to avoid
    catastrophic cancellation in the difference quotient.
    """
    t = np.asarray(t, dtype=float)
    z = constants.velocity_rate
    zh = constants.energy_rate
    decay_velocity = np.exp(-z * t / eps)
    decay_energy = np.exp(-zh * t / eps)

    velocity_env = constants.velocity_amplitude * decay_velocity

    if abs(zh - z) < 1e-12 * max(abs(zh), abs(z)):
        cross = (t / eps) * decay_velocity
    else:
        cross = (decay_velocity - decay_energy) / (zh - z)
    energy_env = constants.energy_amplitude * decay_energy + constants.heating_amplitude * cross

    temperature_env = (
        2.0 * energy_env / (constants.dimension * constants.n_min)
        + 2.0
        * constants.m_max
        * constants.speed_bound
        * constants.velocity_amplitude
        * decay_velocity
        / constants.dimension
    )
    return velocity_env, energy_env, temperature_env


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
    matrices finish in a handful of sweeps.  Kept as an oracle independent
    of LAPACK for tests and demos; the runtime path uses
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
