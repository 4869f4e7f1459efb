#!/usr/bin/env python3
"""The measured range of backward Euler, recomputed: stiff steps on random mixtures.

For every cell of N in {3, 10, 30} x rate*dt in {0.05, 5, 500, 5e4} x
eps in {1, 1e-6}, this draws seeded random mixtures as the benchmark's
``stiff_sweep`` does and takes 50 backward-Euler steps of
dt = rate_dt * eps / rate on each, ``rate`` being the conservative
velocity decay rate.  Each run is checked by the verifier's own record
monitors (``mixbgk.output.record_monitors``): the conservation drift
against the gate DRIFT_LIMIT, the componentwise velocity bounds and the
temperature floor.  The report gives, per cell, the failed runs, the
largest drift, the two verdicts and the Picard solve pairs per step.
The script exits 1 if any run fails, drifts past the gate or breaks a
bound or the floor; the README's "Measured range" quotes its output.
"""

import sys

import numpy as np

from mixbgk import (
    HardSphere,
    IntegrationError,
    IntegratorConfig,
    MixtureComposition,
    SpeciesParams,
    conservative_decay_rate,
    kelvin_to_energy,
    simulate,
    state_from_temperatures,
)
from mixbgk.output import DRIFT_LIMIT, record_monitors

SIZES = (3, 10, 30)
RATE_DT = (0.05, 5.0, 500.0, 5e4)
EPS = (1.0, 1e-6)
STEPS = 50
MIXTURES = 4  # per cell, so that the whole grid runs in about a second
SEED = 29


def draw_mixture(rng, n_species):
    """A random mixture as in ``stiff_sweep``: noble-gas scales, 200-3000 K, up to 500 m/s."""
    masses = np.exp(rng.uniform(np.log(5e-27), np.log(3e-25), size=n_species))
    diameters = rng.uniform(1.5e-10, 6.0e-10, size=n_species)
    densities = np.exp(rng.uniform(np.log(1e27), np.log(3e28), size=n_species))
    species = tuple(
        SpeciesParams(mass=m, diameter=d, label=f"s{i}")
        for i, (m, d) in enumerate(zip(masses, diameters))
    )
    velocities = rng.uniform(-500.0, 500.0, size=(n_species, 3))
    temperatures = kelvin_to_energy(rng.uniform(200.0, 3000.0, size=n_species))
    return state_from_temperatures(
        MixtureComposition(species, densities), velocities, temperatures
    )


def run_cell(n_species, rate_dt, eps, rng):
    """(failures, largest drift, bounds held, floor held, solve pairs per step) of one cell."""
    failures, drift, bounds, floor, pairs = 0, 0.0, True, True, []
    model = HardSphere()
    for _ in range(MIXTURES):
        state = draw_mixture(rng, n_species)
        rate, _ = conservative_decay_rate(state, model)
        dt = rate_dt * eps / rate
        try:
            config = IntegratorConfig(dt=dt, t_final=STEPS * dt, eps=eps)
            trajectory = simulate(state, config, model)
        except IntegrationError as err:
            print(f"  N={n_species} rate*dt={rate_dt:g} eps={eps:g}: {err}")
            failures += 1
            continue
        records = record_monitors(state.composition, trajectory.velocities, trajectory.energies)
        drift = max(drift, records.momentum_drift.max(), records.energy_drift.max())
        bounds = bounds and bool(records.velocity_bounds_ok.all())
        floor = floor and bool(records.above_floor.all())
        pairs.extend(trajectory.sweeps[1:].tolist())
    return failures, drift, bounds, floor, pairs


def main():
    print(f"backward Euler, {MIXTURES} mixtures x {STEPS} steps per cell, seed {SEED}\n")
    print(f"{'N':>3} {'rate*dt':>8} {'eps':>6} {'failed':>6} {'max drift':>10} "
          f"{'bounds':>6} {'floor':>6} {'max pairs':>9} {'mean pairs':>10}")
    failures, drift, bounds, floor, pairs = 0, 0.0, True, True, []
    for n_species in SIZES:
        for cell, rate_dt in enumerate(RATE_DT):
            for eps in EPS:
                rng = np.random.default_rng([SEED, n_species, cell, EPS.index(eps)])
                cell_failures, cell_drift, cell_bounds, cell_floor, cell_pairs = run_cell(
                    n_species, rate_dt, eps, rng
                )
                verdicts = ["ok" if held else "BROKEN" for held in (cell_bounds, cell_floor)]
                print(f"{n_species:3d} {rate_dt:8g} {eps:6g} {cell_failures:6d} "
                      f"{cell_drift:10.2e} {verdicts[0]:>6} {verdicts[1]:>6} "
                      f"{max(cell_pairs, default=0):9d} {np.mean(cell_pairs or [0]):10.2f}")
                failures += cell_failures
                drift = max(drift, cell_drift)
                bounds, floor = bounds and cell_bounds, floor and cell_floor
                pairs.extend(cell_pairs)
    runs = len(SIZES) * len(RATE_DT) * len(EPS) * MIXTURES
    print(f"\n{runs} runs, {failures} failed; largest drift {drift:.2e} "
          f"(gate {DRIFT_LIMIT:g}); velocity bounds {'held' if bounds else 'BROKEN'}, "
          f"temperature floor {'held' if floor else 'BROKEN'}; Picard solve pairs per "
          f"step: max {max(pairs, default=0)}, mean {np.mean(pairs or [0]):.2f}")
    return 1 if failures or drift > DRIFT_LIMIT or not (bounds and floor) else 0


if __name__ == "__main__":
    sys.exit(main())
