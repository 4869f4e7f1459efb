"""The symmetrically scaled variables of the moment system.

In W = P^{1/2} U and xi = Q^{-1/2} E the dynamics reads

    dW/dt  = -(1/eps) Z W
    dxi/dt = -(1/eps) Z-hat xi + heating,

with Z, Z-hat and the heating from the operator core of
:mod:`mixbgk.collisions`.  Both operators are symmetric positive
semi-definite with one-dimensional null spaces spanned by sqrt(rho) and
sqrt(n), so total momentum and total energy are conserved.
"""

from __future__ import annotations

import numpy as np

from .species import MomentState


def scaled_velocities(state: MomentState) -> np.ndarray:
    """W = P^{1/2} U, shape (N, d)."""
    return np.sqrt(state.composition.mass_densities)[:, None] * state.velocities


def scaled_energies(state: MomentState) -> np.ndarray:
    """xi = Q^{-1/2} E, shape (N,)."""
    return state.energies / np.sqrt(state.composition.number_densities)
