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

The temperatures enter the hard-sphere frequencies only through the
thermal speed s_ij = sqrt(T_i / m_i + T_j / m_j), symmetric in i and j,
so s cancels from every weight and factors out of every coupling:
alpha[i, j] = m_i / (m_i + m_j), beta[i, j] = 1/2 and [A, B] = C s, with
C the couplings at unit speed (s = 1 for a constant model).
:func:`run_constants` builds C, the pair-velocity map, which carries
alpha, and the other temperature-free data once per run, with the
density weightings rho (of A and Z) and n (of B and Z-hat) on one
leading axis of length 2.
It also holds what a stepper needs on either state: the weights of the
temperature map for (u, E) and for the scaled (W, xi), the pair-velocity
map for u and its product with P^{-1/2} for W, and a (d,) vector of ones
whose dot sums the squares over the d axis.
The temperatures enter a call only through s, and every entry of
[Z, Z-hat] and of the kinetic heating is linear in the N * N speeds (or
in the products s_ij |u_mix,ij|^2): an off-diagonal entry of Z is
-C_ij s_ij / sqrt(rho_i rho_j), a diagonal one sum_{j != i} C_ij s_ij /
rho_i (n for Z-hat), and the heating sum_j B_ij |u_mix,ij|^2 (m_i - m_j)
/ sqrt(n_i) is sum_j H_ij s_ij |u_mix,ij|^2 with H = C^B (m_i - m_j) /
sqrt(n_i) fixed per run.  :func:`relaxation` is the steppers' call: the
speeds s and the stack [Z, Z-hat], (..., 2, N, N), at (..., N)
temperatures.  :func:`heating` takes one state's speeds and velocities.
:func:`operators` adds the coupling stack [A, B] = C s for the
verifiers.  :func:`run_constants` folds the heating's linear map into
one fixed matrix for every mixture and either model: the heating is
(s |u_mix|^2) @ H', H' (N * N, N) holding H, of the size of the
pair-velocity map.  For hard-sphere mixtures of at most
DENSE_OPERATOR_MAX_SPECIES species it folds [Z, Z-hat] too: s^2 =
(T / m) @ E, E holding two unit entries per column (an exact sum), and
[Z, Z-hat] = s @ K with K (N * N, 2 N * N) the elementwise form (s on
the pair grid, the Laplacian degree I - C s and one division) at each
unit speed s = e_ij, so every [Z, Z-hat] of the runtime comes from
:func:`_laplacian`.  K grows as N^4 and the elementwise form as N^2, so
larger mixtures keep the elementwise form; that threshold chooses
nothing else.  A constant model has s = 1 and its
[Z, Z-hat] is a run constant, broadcast by a call.  Every runtime path
goes through these calls; the cross-checks, the frequency evaluation
among them, live in :mod:`mixbgk.oracles`.  Self pairs (i = j) are
included throughout; they cancel identically in all relaxation
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .species import _readonly, _temperature_weights

# 32 pi^2 / (3 (2 pi)^{3/2}), evaluated in full float precision.
HARD_SPHERE_PREFACTOR = 32.0 * np.pi**2 / (3.0 * (2.0 * np.pi) ** 1.5)

# The largest hard-sphere mixture whose [Z, Z-hat] is one product with a
# dense map (`RunConstants.operator_map`); larger ones take the Laplacian of
# C s.  Per `relaxation` call, map against elementwise, on one CPU of a
# 2-core machine (Python 3.11, numpy 2.4, OpenBLAS): on one state 2.2
# against 6.8 us at N = 3 and 3.3 against 7.3 at N = 8, on 1000 stacked
# records 0.08 against 0.39 ms at N = 3 and 1.9 against 1.7 ms at N = 8.
# The value is set by the stacked records.  The heating's map, of the size
# of the pair-velocity map, is built at every N.
# `demos/operator_kernels.py` measures both calls again.
DENSE_OPERATOR_MAX_SPECIES = 8


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


def _laplacian(coupling, identity) -> np.ndarray:
    """degree I - coupling over leading axes, the degree being the row sums.

    Off the diagonal 0 - c_ij is exact, and a self pair cancels exactly on
    it, so a single species gets Z = 0.
    """
    return np.add.reduce(coupling, axis=-1, keepdims=True) * identity - coupling


def _dense_operator_map(unit_coupling, scale, identity):
    """(E, K): s^2 = (T / m) @ E and [Z, Z-hat] = s @ K, flattened.

    [Z, Z-hat] is linear in s, so row (i, j) of K is the elementwise stack,
    the Laplacian of C s over the scale, at the unit speed s = e_ij: -C_ij
    / scale_ij at Z_ij and Z-hat_ij (i != j), C_ij / scale_ii at Z_ii and
    Z-hat_ii, and 0 for a self pair, whose row sum and coupling cancel.
    """
    size = len(identity)
    unit_speeds = np.eye(size * size).reshape(size * size, 1, size, size)  # s = e_ij
    rows = _laplacian(unit_coupling * unit_speeds, identity) / scale
    pair_sums = (identity[:, :, None] + identity[:, None, :]).reshape(size, size * size)
    return pair_sums, rows.reshape(size * size, 2 * size * size)


def _dense_heating_map(heating_weights):
    """H' with (s |u_mix|^2) @ H' = sum_j H_ij s_ij |u_mix,ij|^2, flattened.

    Row (i, j) of H', the product s_ij |u_mix,ij|^2, holds H_ij in column i.
    """
    size = len(heating_weights)
    rows = np.zeros((size, size, size))
    species = np.arange(size)
    rows[species, :, species] = heating_weights
    return rows.reshape(size * size, size)


@dataclass(frozen=True)
class RunConstants:
    """The temperature-free data of the operator core, built once per run.

    ``unit_coupling`` is the stack [A, B] at unit thermal speed;
    ``mixing`` maps (N, d) velocities to the (N * N, d) pair velocities
    u_mix, its row (i, j) holding the weights alpha_ij and alpha_ji, and
    ``scaled_mixing`` = ``mixing`` P^{-1/2} maps the scaled velocities
    W = P^{1/2} U to the same u_mix.
    ``temperature_weights`` (a, b) give T = a E - b |u|^2, and
    ``scaled_temperature_weights`` (a sqrt(n), b / rho) give the same T
    from xi and |W|^2; ``ones`` is the (d,) vector of ones whose dot sums
    the squares of a velocity.  ``scale`` stacks sqrt(rho) (x) sqrt(rho) and
    sqrt(n) (x) sqrt(n), the divisors of the scaled Laplacians Z and Z-hat.
    ``momentum_map`` and ``energy_map`` take a scaled implicit-step
    increment to the physical one with no change of total momentum or
    energy (rho^T M_rho = 1^T M_n = 0).  ``kernels`` stacks q q^T for the
    unit null vectors sqrt(rho)/|sqrt(rho)| of Z and sqrt(n)/|sqrt(n)| of
    Z-hat.  The masses are the composition's own cached array.
    ``unit_relaxation`` is [Z, Z-hat] at unit thermal speed, the fixed
    stack of a constant model.  ``heating_map`` holds H = C^B (m_i - m_j)
    / sqrt(n_i), the kinetic heating per unit s_ij |u_mix,ij|^2, as the
    dense map of the heating (:func:`_dense_heating_map`), for every
    mixture and either model.  ``pair_sums`` and ``operator_map`` are the
    dense map of [Z, Z-hat] (:func:`_dense_operator_map`) of a hard-sphere
    mixture of at most DENSE_OPERATOR_MAX_SPECIES species, and None
    otherwise; without them :func:`relaxation` takes the Laplacian of C s.
    """

    hard_sphere: bool
    masses: np.ndarray  # (N,)
    sqrt_rho: np.ndarray  # (N,)
    sqrt_n: np.ndarray  # (N,)
    unit_coupling: np.ndarray  # (2, N, N) C, [A, B] at s = 1
    mixing: np.ndarray  # (N * N, N): row (i, j) is alpha_ij e_i + alpha_ji e_j
    scaled_mixing: np.ndarray  # (N * N, N) mixing P^{-1/2}
    temperature_weights: tuple  # ((N,), (N,)) (2/d)/n and m/d
    scaled_temperature_weights: tuple  # ((N,), (N,)) (2/d)/sqrt(n) and 1/(d n)
    ones: np.ndarray  # (d,)
    momentum_map: np.ndarray  # (N, N) M_rho = (I - 1 rho^T / sum rho) P^{-1/2}
    energy_map: np.ndarray  # (N, N) M_n = (I - n 1^T / sum n) Q^{1/2}
    scale: np.ndarray  # (2, N, N)
    kernels: np.ndarray  # (2, N, N)
    identity: np.ndarray  # (N, N)
    unit_relaxation: np.ndarray  # (2, N, N) [Z, Z-hat] of C, a constant model's
    pair_sums: np.ndarray | None  # (N, N * N): (T / m) @ pair_sums = s^2
    operator_map: np.ndarray | None  # (N * N, 2 N * N): s @ operator_map = [Z, Z-hat]
    heating_map: np.ndarray  # (N * N, N): (s |u_mix|^2) @ heating_map = H (s |u_mix|^2)


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
    # One w f product, pair sum and quotient for both weightings w.  A
    # product that overflows or underflows is refused below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.stack([rho, n])[:, :, None] * factor
        transposed = scaled.swapaxes(-1, -2)
        total = scaled + transposed
        unit_coupling = scaled * transposed / total
    # A pair sum of 0 or inf gives a coupling of NaN or 0, so one test covers both.
    bad = ~((unit_coupling > 0.0) & (unit_coupling < np.inf))
    if bad.any():
        weighting, i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"species {composition.labels[i]!r} and {composition.labels[j]!r}: the pair sum "
            f"w_i f_ij + w_j f_ji (w = {('rho', 'n')[weighting]}) or its coupling is not "
            f"positive and finite; their collision-rate products underflow or overflow"
        )
    alpha = scaled[0] / total[0]
    size, identity = composition.size, np.eye(composition.size)
    mixing = alpha[:, :, None] * identity[:, None, :] + alpha.T[:, :, None] * identity
    mixing = mixing.reshape(size * size, size)
    sqrt_rho, sqrt_n = np.sqrt(rho), np.sqrt(n)
    energy_weight, speed_weight = _temperature_weights(masses, n, dimension)
    scale = np.stack([np.outer(sqrt_rho, sqrt_rho), np.outer(sqrt_n, sqrt_n)])
    heating_weights = unit_coupling[1] * ((masses[:, None] - masses) / sqrt_n[:, None])
    pair_sums, operator_map = (
        _dense_operator_map(unit_coupling, scale, identity)
        if hard_sphere and size <= DENSE_OPERATOR_MAX_SPECIES else (None, None)
    )
    return RunConstants(
        hard_sphere=hard_sphere,
        masses=masses,
        sqrt_rho=sqrt_rho,
        sqrt_n=sqrt_n,
        unit_coupling=unit_coupling,
        mixing=mixing,
        scaled_mixing=mixing / sqrt_rho,
        temperature_weights=(energy_weight, speed_weight),
        scaled_temperature_weights=(energy_weight * sqrt_n, speed_weight / rho),
        ones=np.ones(dimension),
        momentum_map=(identity - rho / rho.sum()) / sqrt_rho,
        energy_map=(identity - n[:, None] / n.sum()) * sqrt_n,
        scale=scale,
        kernels=scale / np.stack([rho.sum(), n.sum()])[:, None, None],
        identity=identity,
        unit_relaxation=_laplacian(unit_coupling, identity) / scale,
        pair_sums=pair_sums,
        operator_map=operator_map,
        heating_map=_dense_heating_map(heating_weights),
    )


def relaxation(temperatures, const: RunConstants):
    """(s, [Z, Z-hat]) at (..., N) temperatures, over any leading axes: the steppers' call.

    s is the thermal speed, (..., N * N) for hard spheres, whose
    temperatures must be positive (callers check them), and 1.0 for a
    constant model; Z = P^{-1/2} (D - A) P^{-1/2} and Z-hat = Q^{-1/2}
    (F - B) Q^{-1/2} with [A, B] = C s.  With ``const.operator_map``
    (hard spheres, N at most DENSE_OPERATOR_MAX_SPECIES) the stack is one
    product of s with the map per state: stacked vector-matrix products
    equal the single-state one bit for bit, where one matrix product over
    all states would not.  Without it the stack is one Laplacian of C s,
    degree I - C s, and one division, which cost N^2 per call against
    the map's N^4; a constant model broadcasts ``const.unit_relaxation``.
    """
    if not const.hard_sphere:
        lead = np.shape(temperatures)[:-1]
        return 1.0, np.broadcast_to(const.unit_relaxation, lead + const.unit_relaxation.shape)
    # T_i / m_i once per species; a division, not a product with 1/m,
    # keeps the values at which an overflowing step fails.
    per_mass = temperatures / const.masses
    if const.operator_map is None:
        # s on a unit axis of the stack: (..., 1, N, N).
        speeds = np.sqrt(per_mass[..., None, :, None] + per_mass[..., None, None, :])
        stack = _laplacian(const.unit_coupling * speeds, const.identity) / const.scale
        return speeds.reshape(per_mass.shape[:-1] + (const.identity.size,)), stack
    speeds = np.sqrt(per_mass.dot(const.pair_sums))  # (..., N * N)
    if speeds.ndim == 1:  # ndarray.dot: the same product as @ at half its call cost
        return speeds, speeds.dot(const.operator_map).reshape(const.scale.shape)
    # One vector-matrix product per state.
    stack = speeds[..., None, :] @ const.operator_map
    return speeds, stack.reshape(per_mass.shape[:-1] + const.scale.shape)


def operators(temperatures, const: RunConstants):
    """([A, B], [Z, Z-hat]) at (..., N) temperatures, over any leading axes.

    [Z, Z-hat] and the speeds s come from :func:`relaxation`, and the
    couplings are C s for hard spheres and C, broadcast, for a constant
    model.  For the verifiers and the derived settings; the steppers read
    only s and [Z, Z-hat].
    """
    speeds, stack = relaxation(temperatures, const)
    if not const.hard_sphere:
        return np.broadcast_to(const.unit_coupling, stack.shape), stack
    pair_grid = speeds.reshape(stack.shape[:-3] + (1,) + stack.shape[-2:])  # (..., 1, N, N)
    return const.unit_coupling * pair_grid, stack


def heating(speeds, velocities, mixing, const: RunConstants, rate):
    """rate * Q^{-1/2} (G - C) m, the kinetic heating of one state's scaled energies, (N,).

    G - C is the Laplacian of the kinetic coupling K = B |u_mix|^2, u_mix =
    ``mixing`` v at the given (N, d) float velocities: ``const.mixing``
    takes the velocities u, ``const.scaled_mixing`` the scaled W.  With
    B = C^B s, ``speeds`` the (N * N,) s of :func:`relaxation` at the same
    state (1.0 for a constant model), it is applied to m unformed, as
    sum_j H_ij s_ij |u_mix,ij|^2: s times |u_mix|^2, then one product with
    ``const.heating_map``, which holds H, then times the rate, an order
    that fixes where an overflowing step fails.  The products are
    ``ndarray.dot``, the same product as @ at half its call cost.  rate is
    1/(2 eps) in the ODE; the Picard sweep passes dt/(2 eps), and an RK4
    stage, whose rates carry eps, 1/2.
    """
    u_mix = mixing.dot(velocities)
    return rate * (speeds * (u_mix * u_mix).dot(const.ones)).dot(const.heating_map)
