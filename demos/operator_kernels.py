#!/usr/bin/env python3
"""Cost of the two kernels of the operator core and of the heating's one, per mixture size.

``collisions.relaxation`` gives the thermal speeds and [Z, Z-hat] of a
hard-sphere mixture from one dense linear map of the speeds when the
mixture has at most DENSE_OPERATOR_MAX_SPECIES species, and from the
elementwise Laplacian assembly otherwise.  ``collisions.heating`` is one
product of s |u_mix|^2 with a dense (N * N, N) map at every N.  This
script times the core's kernels at N = 2..12, for one state (a Picard
sweep or an RK4 stage) and for 1000 stacked records (the verifier's
eigenvalue bracket), so the threshold can be measured again on another
machine, and the heating at N = 2..12 and 30 for one state:

    PYTHONPATH=src python demos/operator_kernels.py

Each figure is the best of three repeats of a few milliseconds of calls.
"""

import dataclasses
import timeit

import numpy as np

from mixbgk import BOLTZMANN_J_PER_K, HardSphere, MixtureComposition, SpeciesParams
from mixbgk.collisions import (
    DENSE_OPERATOR_MAX_SPECIES,
    _dense_operator_map,  # to build the map above the threshold too
    heating,
    relaxation,
    run_constants,
)

SIZES = range(2, 13)
HEATING_SIZES = (*SIZES, 30)
RECORDS = 1000
BUDGET_S = 0.003  # per repeat


def mixture(rng, size):
    species = tuple(
        SpeciesParams(mass=m, diameter=d, label=f"s{i}")
        for i, (m, d) in enumerate(
            zip(rng.uniform(5e-27, 3e-25, size), rng.uniform(1.5e-10, 6e-10, size))
        )
    )
    return MixtureComposition(species, rng.uniform(1e27, 3e28, size))


def kernels(composition):
    """(dense, elementwise) run constants of one mixture: with and without
    the dense map of [Z, Z-hat]."""
    const = run_constants(composition, HardSphere(), 3)
    pair_sums, operator_map = _dense_operator_map(const.unit_coupling, const.scale, const.identity)
    return (
        dataclasses.replace(const, pair_sums=pair_sums, operator_map=operator_map),
        dataclasses.replace(const, pair_sums=None, operator_map=None),
    )


def best_us(call):
    """Best µs per call over three repeats of about BUDGET_S each."""
    once = min(timeit.repeat(call, number=1, repeat=2))
    number = max(1, int(BUDGET_S / max(once, 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=3)) / number * 1e6


def winner(times):
    return "dense" if times[0] < times[1] else "elem."


def core_table(rng):
    print(f"relaxation() per call, µs (DENSE_OPERATOR_MAX_SPECIES = {DENSE_OPERATOR_MAX_SPECIES})")
    print(f"{'N':>3} | {'one state':^26} | {f'{RECORDS} stacked records':^30}")
    print(f"{'':>3} | {'dense':>8} {'elementwise':>12} {'':4} |", end="")
    print(f" {'dense':>10} {'elementwise':>12}")
    for size in SIZES:
        dense, elementwise = kernels(mixture(rng, size))
        single = rng.uniform(200.0, 3000.0, size) * BOLTZMANN_J_PER_K
        stacked = rng.uniform(200.0, 3000.0, (RECORDS, size)) * BOLTZMANN_J_PER_K
        row = []
        for temps in (single, stacked):
            times = [best_us(lambda c=c: relaxation(temps, c)) for c in (dense, elementwise)]
            row.append((*times, winner(times)))
        (d1, e1, w1), (dn, en, wn) = row
        print(f"{size:>3} | {d1:8.2f} {e1:12.2f} {w1:>4} | {dn:10.1f} {en:12.1f} {wn:>6}")


def heating_table(rng):
    print()
    print("heating() per call, one state, µs")
    print(f"{'N':>3} | {'map':>8}")
    for size in HEATING_SIZES:
        const = run_constants(mixture(rng, size), HardSphere(), 3)
        temps = rng.uniform(200.0, 3000.0, size) * BOLTZMANN_J_PER_K
        velocities = rng.uniform(-500.0, 500.0, (size, 3))
        speeds, _ = relaxation(temps, const)
        time = best_us(lambda: heating(speeds, velocities, const.mixing, const, 0.5))
        print(f"{size:>3} | {time:8.2f}")


def main():
    rng = np.random.default_rng(2024)
    core_table(rng)
    heating_table(rng)


if __name__ == "__main__":
    main()
