"""Trajectory/envelope CSV emission and the verification summary.

The trajectory CSV carries, per recorded time: per-species velocities,
temperatures (Kelvin), and energy densities, the conserved totals, the
minimum temperature, and the three analytic decay envelopes on the same
time grid (so plots overlay without interpolation).  Numbers are written
in full round-trip precision, so re-reading a CSV reproduces the exact
binary values; the ``[monitors]`` block of the summary is a pure function
of the table plus the scenario and therefore reproduces bit-for-bit from
a re-read file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collisions import assemble
from .dynamics import scaled_operators
from .equilibrium import DecayConstants, EquilibriumData, spectral_bounds, steady_state
from .integrate import IntegratorConfig, Trajectory, record_monitors
from .scenarios import ScenarioConfig
from .species import MixtureComposition, MomentState, energy_to_kelvin, temperatures_of

DRIFT_LIMIT = 1e-9
ENVELOPE_SLACK = 1e-9
BRACKET_SLACK = 1e-10


def _fmt(x: float) -> str:
    return f"{x:.17e}"


@dataclass
class TrajectoryTable:
    """Columnar view of a recorded trajectory (all CSV-visible data)."""

    labels: tuple[str, ...]
    times: np.ndarray  # (R,)
    velocities: np.ndarray  # (R, N, d) m/s
    temperatures_kelvin: np.ndarray  # (R, N)
    energies: np.ndarray  # (R, N) J/m^3
    momentum_total: np.ndarray  # (R, d)
    energy_total: np.ndarray  # (R,)
    min_temperature_kelvin: np.ndarray  # (R,)
    envelope_velocity: np.ndarray  # (R,) m/s
    envelope_energy: np.ndarray  # (R,) J/m^3
    envelope_temperature_kelvin: np.ndarray  # (R,)

    @property
    def dimension(self) -> int:
        return self.velocities.shape[2]


def build_table(trajectory: Trajectory, envelopes) -> TrajectoryTable:
    """Assemble the columnar table from a trajectory and its envelopes."""
    states = trajectory.states
    comp = states[0].composition
    rho = comp.mass_densities
    velocities = np.array([s.velocities for s in states])
    energies = np.array([s.energies for s in states])
    temps_k = np.array([energy_to_kelvin(temperatures_of(s)) for s in states])
    env_velocity, env_energy, env_temperature = envelopes
    return TrajectoryTable(
        labels=comp.labels,
        times=np.asarray(trajectory.times, dtype=float),
        velocities=velocities,
        temperatures_kelvin=temps_k,
        energies=energies,
        momentum_total=velocities.transpose(0, 2, 1) @ rho,
        energy_total=energies.sum(axis=1),
        min_temperature_kelvin=temps_k.min(axis=1),
        envelope_velocity=np.asarray(env_velocity, dtype=float),
        envelope_energy=np.asarray(env_energy, dtype=float),
        envelope_temperature_kelvin=energy_to_kelvin(
            np.asarray(env_temperature, dtype=float)
        ),
    )


def _trajectory_header(labels, dimension) -> list[str]:
    columns = ["t"]
    for label in labels:
        columns += [f"u_{label}_{k + 1}" for k in range(dimension)]
        columns += [f"T_{label}_K", f"E_{label}"]
    columns += [f"k_tot_{k + 1}" for k in range(dimension)]
    columns += ["E_tot", "T_min_K", "env_velocity", "env_energy", "env_temperature_K"]
    return columns


def write_trajectory_csv(path, table: TrajectoryTable) -> None:
    d = table.dimension
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(_trajectory_header(table.labels, d)) + "\n")
        for r in range(len(table.times)):
            row = [table.times[r]]
            for i in range(len(table.labels)):
                row += list(table.velocities[r, i])
                row += [table.temperatures_kelvin[r, i], table.energies[r, i]]
            row += list(table.momentum_total[r])
            row += [
                table.energy_total[r],
                table.min_temperature_kelvin[r],
                table.envelope_velocity[r],
                table.envelope_energy[r],
                table.envelope_temperature_kelvin[r],
            ]
            handle.write(",".join(_fmt(x) for x in row) + "\n")


def read_trajectory_csv(path) -> TrajectoryTable:
    """Re-read an emitted trajectory CSV into columnar form."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        data = np.array(
            [[float(tok) for tok in line.strip().split(",")] for line in handle if line.strip()]
        )
    labels = tuple(
        col[2:] for col in header if col.startswith("E_") and col != "E_tot"
    )
    if header[0] != "t" or not labels:
        raise ValueError(f"{path}: not a trajectory CSV (header {header[:3]}...)")
    n = len(labels)
    width = len(header) - 1 - (n * 2) - 5  # velocity columns: species + totals
    dimension = width // (n + 1)
    expected = _trajectory_header(labels, dimension)
    if header != expected or data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{path}: unexpected column layout")

    rows = data.shape[0]
    velocities = np.empty((rows, n, dimension))
    temps = np.empty((rows, n))
    energies = np.empty((rows, n))
    col = 1
    for i in range(n):
        velocities[:, i, :] = data[:, col : col + dimension]
        temps[:, i] = data[:, col + dimension]
        energies[:, i] = data[:, col + dimension + 1]
        col += dimension + 2
    momentum_total = data[:, col : col + dimension]
    col += dimension
    return TrajectoryTable(
        labels=labels,
        times=data[:, 0],
        velocities=velocities,
        temperatures_kelvin=temps,
        energies=energies,
        momentum_total=momentum_total,
        energy_total=data[:, col],
        min_temperature_kelvin=data[:, col + 1],
        envelope_velocity=data[:, col + 2],
        envelope_energy=data[:, col + 3],
        envelope_temperature_kelvin=data[:, col + 4],
    )


def write_envelope_csv(path, table: TrajectoryTable, equilibrium: EquilibriumData) -> None:
    """Deviation-from-equilibrium columns next to their analytic envelopes."""
    u_eq = equilibrium.velocity
    t_eq_k = energy_to_kelvin(equilibrium.temperature)
    dev_u = np.linalg.norm(table.velocities - u_eq[None, None, :], axis=2)
    dev_e = np.linalg.norm(table.energies - equilibrium.energies[None, :], axis=1)
    dev_t = np.abs(table.temperatures_kelvin - t_eq_k)

    columns = ["t"]
    columns += [f"dev_u_{label}" for label in table.labels]
    columns += ["env_velocity", "dev_energy", "env_energy"]
    columns += [f"dev_T_{label}_K" for label in table.labels]
    columns += ["env_temperature_K"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for r in range(len(table.times)):
            row = [table.times[r], *dev_u[r], table.envelope_velocity[r]]
            row += [dev_e[r], table.envelope_energy[r]]
            row += [*dev_t[r], table.envelope_temperature_kelvin[r]]
            handle.write(",".join(_fmt(x) for x in row) + "\n")


def monitor_block(table: TrajectoryTable, config: ScenarioConfig) -> list[str]:
    """The ``[monitors]`` summary lines, a pure function of table + scenario.

    Checks conservation drift, the temperature floor, componentwise
    velocity bounds, realizability, dominance of all three decay
    envelopes, and the eigenvalue bracket at every recorded state.
    """
    comp = MixtureComposition(config.species, config.number_densities)
    rho = comp.mass_densities
    model = config.frequency_model()
    records = record_monitors(comp, table.velocities, table.energies)

    lines = ["[monitors]"]
    checks: list[bool] = []

    def report(name: str, ok: bool, detail: str = ""):
        checks.append(ok)
        verdict = "PASS" if ok else "FAIL"
        prefix = f"{name} = {detail}" if detail else name
        lines.append(f"{prefix} -> {verdict}")

    momentum_drift = float(records.momentum_drift.max())
    report("momentum_drift_max", momentum_drift <= DRIFT_LIMIT, _fmt(momentum_drift))
    energy_drift = float(records.energy_drift.max())
    report("energy_drift_max", energy_drift <= DRIFT_LIMIT, _fmt(energy_drift))

    # Every temperature above the floor is both the floor check and realizability.
    above_floor = bool(records.realizable.all())
    min_temperature_k = float(energy_to_kelvin(records.temperatures.min()))
    report("temperature_floor_min_K", above_floor, _fmt(min_temperature_k))
    report("velocity_bounds", bool(records.velocity_bounds_ok.all()))
    report("realizability", above_floor)

    initial = MomentState(comp, table.velocities[0], table.energies[0])
    equilibrium = steady_state(initial)
    dev_u = np.linalg.norm(table.velocities - equilibrium.velocity[None, None, :], axis=2)
    env_u = table.envelope_velocity[:, None] * (1.0 + ENVELOPE_SLACK)
    report("envelope_velocity", bool(np.all(dev_u <= env_u)))

    dev_e = np.linalg.norm(table.energies - equilibrium.energies[None, :], axis=1)
    report(
        "envelope_energy",
        bool(np.all(dev_e <= table.envelope_energy * (1.0 + ENVELOPE_SLACK))),
    )

    t_eq_k = energy_to_kelvin(equilibrium.temperature)
    dev_t = np.abs(table.temperatures_kelvin - t_eq_k)
    env_t = table.envelope_temperature_kelvin[:, None] * (1.0 + ENVELOPE_SLACK)
    report("envelope_temperature", bool(np.all(dev_t <= env_t)))

    bracket_ok = True
    if comp.size > 1:
        operators, brackets = [], []
        for velocities, energies in zip(table.velocities, table.energies):
            state = MomentState(comp, velocities, energies)
            mats = assemble(state, model)
            bounds = spectral_bounds(mats, rho, comp.number_densities)
            ops = scaled_operators(state, mats, 1.0)
            operators.append((ops.momentum_relaxation, ops.energy_relaxation))
            brackets.append(
                ((bounds.velocity_lower, bounds.velocity_upper),
                 (bounds.energy_lower, bounds.energy_upper))
            )
        spectra = np.linalg.eigvalsh(np.array(operators))[..., 1:]  # drop the null mode
        brackets = np.array(brackets)  # (R, operator, end)
        lower, upper = brackets[..., :1], brackets[..., 1:]
        slack = BRACKET_SLACK * np.maximum(upper, np.abs(lower))
        bracket_ok = not (np.any(spectra < lower - slack) or np.any(spectra > upper + slack))
    report("eigenvalue_bracket", bracket_ok)

    overall = all(checks)
    lines.append(f"overall -> {'PASS' if overall else 'FAIL'}")
    return lines


def summary_text(
    config: ScenarioConfig,
    integrator: IntegratorConfig,
    table: TrajectoryTable,
    equilibrium: EquilibriumData,
    constants: DecayConstants,
) -> str:
    """Full verification summary: run settings, equilibria, decay data, monitors."""
    lines = [
        f"scenario = {config.name}",
        f"species = {' '.join(table.labels)}",
        f"model = {config.model_kind}",
        f"method = {integrator.method}",
        f"eps = {_fmt(integrator.eps)}",
        f"dt_s = {_fmt(integrator.dt)}",
        f"t_final_s = {_fmt(integrator.t_final)}",
        f"records = {len(table.times)}",
        "",
        "[equilibrium]",
        f"velocity_ms = {' '.join(_fmt(v) for v in equilibrium.velocity)}",
        f"temperature_K = {_fmt(energy_to_kelvin(equilibrium.temperature))}",
        f"energies_Jm3 = {' '.join(_fmt(e) for e in equilibrium.energies)}",
        "",
        "[decay_constants]",
        f"velocity_rate_per_s = {_fmt(constants.velocity_rate)}",
        f"energy_rate_per_s = {_fmt(constants.energy_rate)}",
        f"velocity_rate_t0_per_s = {_fmt(constants.velocity_rate_t0)}",
        f"velocity_rate_upper_t0_per_s = {_fmt(constants.velocity_rate_upper_t0)}",
        f"energy_rate_t0_per_s = {_fmt(constants.energy_rate_t0)}",
        f"energy_rate_upper_t0_per_s = {_fmt(constants.energy_rate_upper_t0)}",
        f"velocity_amplitude_ms = {_fmt(constants.velocity_amplitude)}",
        f"speed_bound_ms = {_fmt(constants.speed_bound)}",
        f"speed_bound_energy_ms = {_fmt(constants.speed_bound_energy)}",
        f"energy_amplitude = {_fmt(constants.energy_amplitude)}",
        f"heating_amplitude = {_fmt(constants.heating_amplitude)}",
        f"source_amplitude = {_fmt(constants.source_amplitude)}",
        f"energy_coupling_max = {_fmt(constants.coupling_energy_max)}",
        "",
    ]
    lines += monitor_block(table, config)
    return "\n".join(lines) + "\n"
