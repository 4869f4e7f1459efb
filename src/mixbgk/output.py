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

from .collisions import _laplacian, collision_frequencies, coupling_from_frequencies
from .dynamics import _scaled
from .equilibrium import DecayConstants, EquilibriumData, _eigenvalue_brackets, steady_state
from .integrate import IntegratorConfig, Trajectory, record_monitors
from .scenarios import ScenarioConfig
from .species import MixtureComposition, MomentState, _temperatures, energy_to_kelvin

DRIFT_LIMIT = 1e-9
ENVELOPE_SLACK = 1e-9
BRACKET_SLACK = 1e-10
CSV_FORMAT = "%.17e"  # round-trip precision


def _fmt(x: float) -> str:
    return CSV_FORMAT % x


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
    temps_k = energy_to_kelvin(_temperatures(comp, velocities, energies))
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


def _write_csv(path, columns, matrix) -> None:
    header = ",".join(columns)
    np.savetxt(path, matrix, CSV_FORMAT, ",", header=header, comments="", encoding="utf-8")


def write_trajectory_csv(path, table: TrajectoryTable) -> None:
    per_species = np.concatenate(
        [table.velocities, table.temperatures_kelvin[..., None], table.energies[..., None]],
        axis=2,
    )
    matrix = np.column_stack([
        table.times, per_species.reshape(len(table.times), -1), table.momentum_total,
        table.energy_total, table.min_temperature_kelvin, table.envelope_velocity,
        table.envelope_energy, table.envelope_temperature_kelvin,
    ])
    _write_csv(path, _trajectory_header(table.labels, table.dimension), matrix)


def read_trajectory_csv(path) -> TrajectoryTable:
    """Re-read an emitted trajectory CSV into columnar form."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        body = handle.read()
    labels = tuple(
        col[2:] for col in header if col.startswith("E_") and col != "E_tot"
    )
    if header[0] != "t" or not labels:
        raise ValueError(f"{path}: not a trajectory CSV (header {header[:3]}...)")
    n = len(labels)
    width = len(header) - 1 - (n * 2) - 5  # velocity columns: species + totals
    dimension = width // (n + 1)
    if header != _trajectory_header(labels, dimension) or not body.strip():
        raise ValueError(f"{path}: unexpected column layout")
    data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: unexpected column layout")

    species_end = 1 + n * (dimension + 2)
    per_species = data[:, 1:species_end].reshape(len(data), n, dimension + 2)
    totals = data[:, species_end:]
    return TrajectoryTable(
        labels=labels,
        times=data[:, 0],
        velocities=per_species[..., :dimension],
        temperatures_kelvin=per_species[..., dimension],
        energies=per_species[..., dimension + 1],
        momentum_total=totals[:, :dimension],
        energy_total=totals[:, dimension],
        min_temperature_kelvin=totals[:, dimension + 1],
        envelope_velocity=totals[:, dimension + 2],
        envelope_energy=totals[:, dimension + 3],
        envelope_temperature_kelvin=totals[:, dimension + 4],
    )


def _deviations(table: TrajectoryTable, equilibrium: EquilibriumData):
    """Distance from equilibrium per record: dev_u (R, N), dev_e (R,), dev_t (R, N) K."""
    dev_u = np.linalg.norm(table.velocities - equilibrium.velocity[None, None, :], axis=2)
    dev_e = np.linalg.norm(table.energies - equilibrium.energies[None, :], axis=1)
    dev_t = np.abs(table.temperatures_kelvin - energy_to_kelvin(equilibrium.temperature))
    return dev_u, dev_e, dev_t


def write_envelope_csv(path, table: TrajectoryTable, equilibrium: EquilibriumData) -> None:
    """Deviation-from-equilibrium columns next to their analytic envelopes."""
    dev_u, dev_e, dev_t = _deviations(table, equilibrium)
    columns = ["t"]
    columns += [f"dev_u_{label}" for label in table.labels]
    columns += ["env_velocity", "dev_energy", "env_energy"]
    columns += [f"dev_T_{label}_K" for label in table.labels]
    columns += ["env_temperature_K"]
    matrix = np.column_stack([
        table.times, dev_u, table.envelope_velocity, dev_e, table.envelope_energy,
        dev_t, table.envelope_temperature_kelvin,
    ])
    _write_csv(path, columns, matrix)


def monitor_block(table: TrajectoryTable, config: ScenarioConfig) -> list[str]:
    """The ``[monitors]`` summary lines, a pure function of table + scenario.

    Checks conservation drift, the temperature floor, componentwise
    velocity bounds, realizability, dominance of all three decay
    envelopes, and the eigenvalue bracket at every recorded state.
    """
    comp = MixtureComposition(config.species, config.number_densities)
    rho = comp.mass_densities
    n = comp.number_densities
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

    equilibrium = steady_state(MomentState(comp, table.velocities[0], table.energies[0]))
    dev_u, dev_e, dev_t = _deviations(table, equilibrium)
    env_u = table.envelope_velocity[:, None] * (1.0 + ENVELOPE_SLACK)
    report("envelope_velocity", bool(np.all(dev_u <= env_u)))
    env_e = table.envelope_energy * (1.0 + ENVELOPE_SLACK)
    report("envelope_energy", bool(np.all(dev_e <= env_e)))
    env_t = table.envelope_temperature_kelvin[:, None] * (1.0 + ENVELOPE_SLACK)
    report("envelope_temperature", bool(np.all(dev_t <= env_t)))

    bracket_ok = True
    if comp.size > 1:
        # A record with a nonpositive temperature already fails realizability
        # and has no hard-sphere frequencies, so it gets no bracket.
        temps = records.temperatures[np.all(records.temperatures > 0.0, axis=1)]
        lam = collision_frequencies(config.frequency_model(), comp, temps, table.dimension)
        momentum = coupling_from_frequencies(lam, rho)
        energy = coupling_from_frequencies(lam, n)
        brackets = _eigenvalue_brackets(momentum, energy, rho, n)  # (R, operator, end)
        operators = np.stack(
            [_scaled(_laplacian(momentum), np.sqrt(rho)), _scaled(_laplacian(energy), np.sqrt(n))],
            axis=-3,
        )
        spectra = np.linalg.eigvalsh(operators)[..., 1:]  # drop the null mode
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
