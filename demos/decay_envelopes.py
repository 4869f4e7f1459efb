#!/usr/bin/env python3
"""Exponential decay envelopes: guaranteed upper bounds on the distance
to equilibrium, evaluated against computed trajectories.

The envelope rates are trajectory-uniform lower bounds on the positive
eigenvalues of the relaxation operators: the coupling minima are taken at
the temperature floor min_i T_i(0) (no species ever cools below it, and
the hard-sphere couplings grow with temperature).  The amplitudes come
from the initial distance to equilibrium in scaled variables.  The bounds
are guaranteed, not sharp -- for the disparate-mass mixture (example 3)
they are very loose, which this demo makes visible.
"""

import numpy as np

from mixbgk import (
    decay_envelopes,
    presets,
    record_zero,
    resolve_integrator,
    simulate,
    steady_state,
)
from mixbgk.output import record_monitors


def show(index):
    scenario = presets()[index]
    first = record_zero(scenario)
    state, constants, model = first.state, first.constants, scenario.model
    cfg = resolve_integrator(scenario, first)
    eq = steady_state(state)

    print(f"\n=== Example {index} ===")
    print(f"conservative rates: velocity {constants.velocity_rate:.3e} 1/s, "
          f"energy {constants.energy_rate:.3e} 1/s")
    print(f"instantaneous t=0 brackets: velocity [{constants.velocity_rate_t0:.3e}, "
          f"{constants.velocity_rate_upper_t0:.3e}], energy "
          f"[{constants.energy_rate_t0:.3e}, {constants.energy_rate_upper_t0:.3e}]")

    trajectory = simulate(state, cfg, model)
    env_u, env_e, env_t = decay_envelopes(constants, cfg.eps, trajectory.times)

    velocities, energies = trajectory.velocities, trajectory.energies
    temps = record_monitors(state.composition, velocities, energies).temperatures
    dev_u = np.linalg.norm(velocities - eq.velocity, axis=2).max(axis=1)
    dev_e = np.linalg.norm(energies - eq.energies, axis=1)
    dev_t = np.abs(temps - eq.temperature).max(axis=1)

    print(f"{'t [s]':>12} {'|u - u_eq|':>12} {'envelope':>12} "
          f"{'|T - T_eq|':>12} {'envelope':>12}")
    for r in np.linspace(0, len(trajectory.times) - 1, 8).astype(int):
        print(f"{trajectory.times[r]:12.3e} {dev_u[r]:12.4e} {env_u[r]:12.4e} "
              f"{dev_t[r]:12.4e} {env_t[r]:12.4e}")

    for name, dev, env in (("velocity", dev_u, env_u),
                           ("energy", dev_e, env_e),
                           ("temperature", dev_t, env_t)):
        dominated = bool(np.all(dev <= env * (1 + 1e-9)))
        with np.errstate(invalid="ignore", divide="ignore"):
            tightness = np.nanmax(np.where(env > 0, dev / env, 0.0))
        print(f"{name:>12} envelope dominates: {dominated}"
              f"  (max dev/env = {tightness:.3e})")


def main():
    print(__doc__)
    for index in (1, 2, 3):
        show(index)
    print("\nNote how loosely the example-3 envelope hangs above its"
          " trajectory: guaranteed bounds trade sharpness for validity.")


if __name__ == "__main__":
    main()
