"""Per-layer metrics of a traced pass.

Times are per pass in reference units (the pass's reference/raw ratio
applied to every span); ``*_us`` on a function name is the mean per call,
``*_ms`` the total per pass.  A layer that a workload never enters reads 0.
"""

from __future__ import annotations

import glob
import os

# (name, unit, better); the order is the order BENCHMARK.json lists them.
METRICS = (
    ("integrate.us_per_step", "us", "lower"),
    ("integrate.picard_sweeps_mean", "count", "lower"),
    ("integrate.picard_sweeps_max", "count", "lower"),
    ("integrate.steps", "count", "lower"),
    ("collisions.assemble_calls", "count", "lower"),
    ("collisions.assemble_us", "us", "lower"),
    ("collisions.collision_frequencies_calls", "count", "lower"),
    ("dynamics.rhs_us", "us", "lower"),
    ("dynamics.scaled_operators_us", "us", "lower"),
    ("equilibrium.symmetric_eigenvalues_calls", "count", "lower"),
    ("equilibrium.symmetric_eigenvalues_us", "us", "lower"),
    ("equilibrium.decay_constants_ms", "ms", "lower"),
    ("output.monitor_block_ms", "ms", "lower"),
    ("output.monitor_block_us_per_record", "us", "lower"),
    ("output.write_csv_ms", "ms", "lower"),
    ("output.csv_bytes", "bytes", "lower"),
    ("output.build_table_ms", "ms", "lower"),
    ("output.read_trajectory_csv_ms", "ms", "lower"),
    ("scenarios.resolve_integrator_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Counters:
    """Work counts read from the values the traced functions return."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.steps = 0
        self.sweeps: list[int] = []
        self.records = 0

    def _simulate(self, args, trajectory):
        self.steps += len(trajectory.times) - 1
        self.sweeps += [m.picard_iterations for m in trajectory.monitors[1:]]

    def _monitor_block(self, args, lines):
        self.records += len(args[0].times)

    def observers(self):
        return {"integrate.simulate": self._simulate, "output.monitor_block": self._monitor_block}


def pass_metrics(by_name, scale: float, counters: Counters, out_dir: str) -> dict:
    """Every metric of METRICS but the two measured outside the pass."""

    def calls(*names):
        return sum(by_name[n]["calls"] for n in names if n in by_name)

    def total_s(*names):
        return scale * sum(by_name[n]["total_s"] for n in names if n in by_name)

    def us_per_call(*names):
        n = calls(*names)
        return 1e6 * total_s(*names) / n if n else 0.0

    def per(total, count):
        return total / count if count else 0.0

    sweeps = counters.sweeps
    return {
        "integrate.us_per_step": per(1e6 * total_s("integrate.simulate"), counters.steps),
        "integrate.picard_sweeps_mean": per(sum(sweeps), len(sweeps)),
        "integrate.picard_sweeps_max": max(sweeps, default=0),
        "integrate.steps": counters.steps,
        "collisions.assemble_calls": calls("collisions.assemble"),
        "collisions.assemble_us": us_per_call("collisions.assemble"),
        "collisions.collision_frequencies_calls": calls("collisions.collision_frequencies"),
        "dynamics.rhs_us": us_per_call("dynamics.momentum_rhs", "dynamics.energy_rhs"),
        "dynamics.scaled_operators_us": us_per_call("dynamics.scaled_operators"),
        "equilibrium.symmetric_eigenvalues_calls": calls("equilibrium.symmetric_eigenvalues"),
        "equilibrium.symmetric_eigenvalues_us": us_per_call("equilibrium.symmetric_eigenvalues"),
        "equilibrium.decay_constants_ms": 1e3 * total_s("equilibrium.decay_constants"),
        "output.monitor_block_ms": 1e3 * total_s("output.monitor_block"),
        "output.monitor_block_us_per_record": per(
            1e6 * total_s("output.monitor_block"), counters.records
        ),
        "output.write_csv_ms": 1e3 * total_s(
            "output.write_trajectory_csv", "output.write_envelope_csv"
        ),
        "output.csv_bytes": sum(
            os.path.getsize(p) for p in glob.glob(os.path.join(out_dir, "*.csv"))
        ),
        "output.build_table_ms": 1e3 * total_s("output.build_table"),
        "scenarios.resolve_integrator_ms": 1e3 * total_s("scenarios.resolve_integrator"),
        "cli.self_ms": 1e3 * scale * sum(
            row["self_s"] for name, row in by_name.items() if name.startswith("cli.")
        ),
    }
