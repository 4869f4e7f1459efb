#!/usr/bin/env python3
"""Integrator verification on a problem with a known exact solution.

With a constant frequency matrix the velocity gap of a two-species
mixture obeys a scalar linear ODE,

    d(u1 - u2)/dt = -rate * (u1 - u2),
    rate = A12 (1/rho1 + 1/rho2) / eps,

so the exact trajectory is a pure exponential.  This demo measures the
error of both integrators under step halving (expected orders: 1 for
backward Euler, 4 for RK4) and then pushes backward Euler into the stiff
regime rate*dt >> 1, where the explicit method has long since blown up.
"""

import numpy as np

from mixbgk import (
    ConstantMatrix,
    IntegratorConfig,
    MixtureComposition,
    SpeciesParams,
    simulate,
    state_from_temperatures,
)


def linear_pair(gap=1.0):
    rho = (1.0, 0.5)
    m1, m2 = 1.0, 2.0
    comp = MixtureComposition(
        (SpeciesParams(mass=m1, diameter=1.0, label="a"),
         SpeciesParams(mass=m2, diameter=1.0, label="b")),
        [rho[0] / m1, rho[1] / m2],
    )
    state = state_from_temperatures(
        comp, np.array([[gap, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([1.0, 1.5])
    )
    lam = 1.0
    a12 = rho[0] * rho[1] * lam**2 / (rho[0] * lam + rho[1] * lam)
    rate = a12 * (1.0 / rho[0] + 1.0 / rho[1])
    return state, ConstantMatrix(np.full((2, 2), lam)), rate


def gap(trajectory):
    """u1 - u2 along x at the last record."""
    return trajectory.velocities[-1, 0, 0] - trajectory.velocities[-1, 1, 0]


def convergence_study():
    state, model, rate = linear_pair()
    t_final = 1.0 / rate
    exact = np.exp(-1.0)
    print(f"linear test problem: rate = {rate} 1/s, horizon = 1 e-fold, "
          f"exact final gap = {exact:.12f}\n")
    for method, step_counts in (("be", (32, 64, 128, 256, 512)),
                                ("rk4", (4, 8, 16, 32, 64))):
        print(f"{method}: {'steps':>6} {'final-gap error':>16} {'order':>7}")
        previous = None
        for steps in step_counts:
            cfg = IntegratorConfig(dt=t_final / steps, t_final=t_final, method=method)
            error = abs(gap(simulate(state, cfg, model)) - exact)
            order = "" if previous is None else f"{np.log2(previous / error):7.3f}"
            print(f"     {steps:>6} {error:16.3e} {order:>7}")
            previous = error
        print()


def stiff_regime():
    state, model, rate = linear_pair()
    print("backward Euler in the stiff regime (one step, rate*dt >> 1):")
    print(f"{'rate*dt':>10} {'gap after one step':>20} {'implicit formula':>18}")
    for stiffness in (10.0, 1e3, 1e6):
        dt = stiffness / rate
        cfg = IntegratorConfig(dt=dt, t_final=dt)
        trajectory = simulate(state, cfg, model)
        predicted = 1.0 / (1.0 + stiffness)
        print(f"{stiffness:10.0e} {gap(trajectory):20.6e} {predicted:18.6e}")
    print("\nThe damping matches 1/(1 + rate*dt): unconditionally stable,"
          " no step-size restriction from stiffness.")


def main():
    print(__doc__)
    convergence_study()
    stiff_regime()


if __name__ == "__main__":
    main()
