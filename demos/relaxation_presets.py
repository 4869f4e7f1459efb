#!/usr/bin/env python3
"""Relax the three reference noble-gas mixtures and watch the moments settle.

Each scenario starts away from equilibrium in a different way:

  1. Ar-Kr-Xe at rest with temperatures 1000/2000/3000 K (pure thermal
     relaxation: energy flows from hot xenon to cold argon).
  2. Ar-Kr-Xe at a uniform 1000 K with argon drifting at 100 m/s
     (velocity relaxation; friction heats the gas above 1000 K).
  3. A trace of hot, fast helium (864.8 m/s, 3000 K) against cold heavy
     Kr/Xe -- the disparate-mass case with non-monotonic temperatures.

All three relax to the same kind of steady state: a common velocity
(mass-weighted mean) and a common temperature fixed by total energy.
"""

import numpy as np

from mixbgk import (
    energy_to_kelvin,
    presets,
    record_zero,
    resolve_integrator,
    simulate,
    steady_state,
)
from mixbgk.output import record_monitors


def describe(index, scenario):
    first = record_zero(scenario)
    state, model = first.state, scenario.model
    cfg = resolve_integrator(scenario, first)
    eq = steady_state(state)
    trajectory = simulate(state, cfg, model)

    print(f"\n=== Example {index}: {' / '.join(s.label for s in scenario.species)} ===")
    print(f"integrator: backward Euler, {len(trajectory.times) - 1} error-controlled steps "
          f"from dt = {cfg.dt:.3e} s to the horizon {cfg.t_final:.3e} s")
    print(f"predicted equilibrium: u = {eq.velocity[0]:+.4f} m/s, "
          f"T = {energy_to_kelvin(eq.temperature):.2f} K")

    records = record_monitors(state.composition, trajectory.velocities, trajectory.energies)
    temps = energy_to_kelvin(records.temperatures)
    labels = state.composition.labels
    picks = np.linspace(0, len(trajectory.times) - 1, 6).astype(int)

    header = "t [s]".rjust(12) + "".join(f"  u_{lab} [m/s]".rjust(14) for lab in labels)
    header += "".join(f"  T_{lab} [K]".rjust(12) for lab in labels)
    print(header)
    for r in picks:
        row = f"{trajectory.times[r]:12.3e}"
        row += "".join(f"{u:14.4f}" for u in trajectory.velocities[r, :, 0])
        row += "".join(f"{t:12.2f}" for t in temps[r])
        print(row)

    u_err = np.abs(trajectory.velocities[-1, :, 0] - eq.velocity[0]).max()
    t_err = np.abs(temps[-1] - energy_to_kelvin(eq.temperature)).max()
    drift = max(records.momentum_drift.max(), records.energy_drift.max())
    floor_ok = bool(records.above_floor.all())
    print(f"final distance to equilibrium: {u_err:.2e} m/s, {t_err:.2e} K")
    print(f"conservation drift {drift:.1e}; temperature floor held: {floor_ok}")


def main():
    print(__doc__)
    for index, scenario in presets().items():
        describe(index, scenario)


if __name__ == "__main__":
    main()
