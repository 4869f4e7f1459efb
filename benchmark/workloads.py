"""The workloads: a fixed operation list per workload, built from a seed.

Importing this module imports nothing from mixbgk; ``build`` does, so a
fresh interpreter that calls ``build`` pays the whole set-up a user pays
before the first operation can start.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CLI_EXAMPLES = (1, 2, 3)
# The derived RK4 step of preset 3 is 9.60e-14 s and its capped horizon is
# 5000 steps (~10 s alone, too long to normalise against the reference);
# this horizon keeps the step and runs ~1000 of them.
RK4_EX3_T_FINAL = "9.6e-11"

STIFF_SIZES = (3, 10, 30)
STIFF_RATE_DT = (0.05, 5.0, 500.0, 5e4)
STIFF_STEPS = 50
# Cells whose conservation drift stayed at least 60x below the 1e-9 gate
# over 200 seeds take their mixtures from --seed.  The other cells come near
# or cross the gate (the stiff backward-Euler drift), so they run on fixed
# mixtures and the failure count cannot depend on the seed.
SEEDED_CELLS = frozenset({(3, 0.05), (3, 5.0), (10, 0.05), (30, 0.05)})
# A seeded cell spreads its STIFF_STEPS over several mixtures: Picard sweeps
# per step vary with the mixture, and averaging over more mixtures keeps the
# pass time from depending on the seed.
SEEDED_MIXTURES = 5
FIXED_SEED = 2017


@dataclass
class CliOp:
    """One ``mixbgk run`` invocation through ``cli.main``."""

    name: str
    example: int
    method: str
    argv: list[str]
    t_final: float | None  # horizon override, None for the derived horizon

    def run(self):
        import mixbgk.cli

        return mixbgk.cli.main(self.argv)


@dataclass
class StiffOp:
    """One library ``simulate`` call (backward Euler) on a random mixture."""

    name: str
    n_species: int
    rate_dt: float
    seeded: bool
    state: object  # MomentState
    config: object  # IntegratorConfig
    velocity_rate: float  # conservative velocity decay rate, 1/s

    def run(self):
        import mixbgk.integrate
        from mixbgk.collisions import HardSphere

        return mixbgk.integrate.simulate(self.state, self.config, HardSphere())


def _cli_ops(method: str, out_dir: str) -> list[CliOp]:
    ops = []
    for k in CLI_EXAMPLES:
        argv = ["run", "--example", str(k), "--out", out_dir]
        t_final = None
        if method == "rk4":
            argv += ["--method", "rk4"]
            if k == 3:
                argv += ["--t-final", RK4_EX3_T_FINAL]
                t_final = float(RK4_EX3_T_FINAL)
        ops.append(CliOp(f"{method}_ex{k}", k, method, argv, t_final))
    return ops


def random_mixture(rng, n_species: int):
    """A realizable mixture across noble-gas scales.

    Masses log-uniform in [5e-27, 3e-25] kg, hard-sphere diameters uniform
    in [1.5e-10, 6e-10] m, number densities log-uniform in [1e27, 3e28]
    1/m^3, velocity components uniform in [-500, 500] m/s and temperatures
    uniform in [200, 3000] K.
    """
    from mixbgk.species import (
        MixtureComposition,
        SpeciesParams,
        kelvin_to_energy,
        state_from_temperatures,
    )

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


def _stiff_ops(seed: int) -> list[StiffOp]:
    from mixbgk.collisions import HardSphere
    from mixbgk.equilibrium import conservative_decay_rate
    from mixbgk.integrate import IntegratorConfig

    ops = []
    for n_species in STIFF_SIZES:
        for cell, rate_dt in enumerate(STIFF_RATE_DT):
            seeded = (n_species, rate_dt) in SEEDED_CELLS
            rng = np.random.default_rng([seed if seeded else FIXED_SEED, n_species, cell])
            mixtures = SEEDED_MIXTURES if seeded else 1
            for member in range(mixtures):
                state = random_mixture(rng, n_species)
                velocity_rate, _ = conservative_decay_rate(state, HardSphere())
                dt = rate_dt / velocity_rate
                config = IntegratorConfig(dt=dt, t_final=(STIFF_STEPS // mixtures) * dt)
                name = f"N{n_species}_ratedt{rate_dt:g}" + (f"_m{member}" if seeded else "")
                ops.append(
                    StiffOp(name, n_species, rate_dt, seeded, state, config, velocity_rate)
                )
    return ops


def build(workload: str, seed: int, out_dir: str):
    """Import mixbgk and its CLI and build the workload's operation list."""
    import mixbgk  # noqa: F401  (the import is part of set-up)
    import mixbgk.cli  # noqa: F401

    if workload == "cli_be":
        return _cli_ops("be", out_dir)
    if workload == "cli_rk4":
        return _cli_ops("rk4", out_dir)
    if workload == "stiff_sweep":
        return _stiff_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def output_files(op: CliOp, out_dir: str) -> dict[str, str]:
    """Paths of the three files ``mixbgk run`` writes for one preset."""
    base = os.path.join(out_dir, f"example{op.example}")
    return {
        kind: f"{base}_{kind}.{ext}"
        for kind, ext in (("trajectory", "csv"), ("envelopes", "csv"), ("summary", "txt"))
    }
