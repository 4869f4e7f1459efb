"""The one verifier and writer of a run: its gates, its verdict and its output set.

The gates are DRIFT_LIMIT and the slacks FLOOR_SLACK, BOUND_SLACK,
ENVELOPE_SLACK and BRACKET_SLACK; every bound derives from the first
record.  The trajectory CSV carries, per recorded time: per-species
velocities, temperatures (Kelvin), and energy densities, the conserved
totals, the minimum temperature, and the three analytic decay envelopes
on the same time grid (so plots overlay without interpolation).  Only the
``t``, ``u`` and ``E`` columns are state: ``write_output_set``, the one
writer of a run's files, and ``monitor_block``, the one source of the
summary's ``[monitors]`` block, derive every other value from them plus
the scenario.  A re-read table also keeps its labels and temperature
columns, as the mixture's identity that ``monitor_block`` checks against
the scenario.  Numbers are written in full round-trip precision, so the
block reproduces bit-for-bit from a re-read file of the same mixture.
Conserved totals, the floor and the equilibrium plateau repeat down a
table, and the time and envelope columns across the two CSVs of a run,
so the CSV writer formats each distinct value of an output set once and
indexes the strings back into the rows of each file.
"""

from __future__ import annotations

import contextlib
import errno
import os
from dataclasses import dataclass

import numpy as np

from .collisions import HardSphere, operators, run_constants
from .equilibrium import (
    EquilibriumData,
    decay_constants,
    decay_envelopes,
    eigenvalue_brackets,
    velocity_component_bound,
)
from .integrate import IntegratorConfig, Trajectory
from .scenarios import RecordZero, ScenarioConfig
from .species import MixtureComposition, MomentState, _temperatures, energy_to_kelvin

DRIFT_LIMIT = 1e-9
# Relative slacks: a temperature may sit FLOOR_SLACK below the initial
# minimum, and a velocity component BOUND_SLACK times the initial
# component bound outside its initial range, before a check fails.
FLOOR_SLACK = 1e-9
BOUND_SLACK = 1e-9
ENVELOPE_SLACK = 1e-9
BRACKET_SLACK = 1e-10
CSV_FORMAT = "%.17e"  # round-trip precision


def _fmt(x: float) -> str:
    return CSV_FORMAT % x


@dataclass
class TrajectoryTable:
    """The state columns of a re-read trajectory CSV; every other column derives from them.

    ``labels`` and ``temperatures_kelvin`` are kept as the mixture's
    identity only: ``monitor_block`` refuses a scenario that does not
    give these temperatures from the state, and no verdict reads them.
    """

    labels: tuple[str, ...]
    times: np.ndarray  # (R,)
    velocities: np.ndarray  # (R, N, d) m/s
    energies: np.ndarray  # (R, N) J/m^3
    temperatures_kelvin: np.ndarray  # (R, N) K, the T_<label>_K columns


def _trajectory_header(labels, dimension) -> list[str]:
    columns = ["t"]
    for label in labels:
        columns += [f"u_{label}_{k + 1}" for k in range(dimension)]
        columns += [f"T_{label}_K", f"E_{label}"]
    columns += [f"k_tot_{k + 1}" for k in range(dimension)]
    columns += ["E_tot", "T_min_K", "env_velocity", "env_energy", "env_temperature_K"]
    return columns


def _formatted(keys: np.ndarray) -> list[str]:
    """``CSV_FORMAT`` of each float64 of the int64 bit patterns ``keys``."""
    values = keys.view(np.float64).tolist()
    # One template over all values formats them faster than one % per value.
    return ("\n".join([CSV_FORMAT] * len(values)) % tuple(values)).split("\n") if values else []


def _write_csvs(files) -> None:
    """Write each (path, columns, matrix) of ``files`` in turn: a float (R, C)
    matrix under a header row, every cell as ``CSV_FORMAT``.

    Each distinct value of a matrix is formatted once, and not at all if
    the file before it held the value: values are keyed by their bit
    patterns, so 0.0 and -0.0, NaN payloads and subnormals stay apart, and
    the strings are indexed back into the grid.  Each matrix is keyed on
    its own, and of the file before it only the strings this file shares
    are kept, so one file's keys and strings are alive at a time.  The
    bytes of each file are those of
    ``np.savetxt(path, matrix, CSV_FORMAT, ",", header=..., comments="")``.
    """
    keys, texts = np.empty(0, np.int64), np.empty(0, object)  # the previous file's, sorted
    for path, columns, matrix in files:
        grid_keys, inverse = np.unique(matrix.view(np.int64), return_inverse=True)
        known = np.isin(grid_keys, keys, assume_unique=True)
        grid_texts = np.empty(len(grid_keys), object)
        grid_texts[known] = texts[keys.searchsorted(grid_keys[known])]
        # The previous file's other strings go before this file's new ones are made.
        keys, texts = grid_keys, grid_texts
        texts[~known] = np.array(_formatted(keys[~known]), object)
        rows = texts[inverse.reshape(matrix.shape)]  # inverse is 1-D before numpy 2
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(columns) + "\n")
            handle.writelines(",".join(row) + "\n" for row in rows.tolist())


def _trajectory_file(trajectory: Trajectory, envelopes, temps_k):
    """(header, matrix) of the trajectory CSV, from the run's Kelvin temperatures."""
    rho = trajectory.composition.mass_densities
    velocities, energies = trajectory.velocities, trajectory.energies
    env_velocity, env_energy, env_temperature = envelopes
    per_species = np.concatenate([velocities, temps_k[..., None], energies[..., None]], axis=2)
    matrix = np.column_stack([
        trajectory.times, per_species.reshape(len(trajectory.times), -1),
        velocities.transpose(0, 2, 1) @ rho, energies.sum(axis=1), temps_k.min(axis=1),
        env_velocity, env_energy, energy_to_kelvin(env_temperature),
    ])
    return _trajectory_header(trajectory.composition.labels, velocities.shape[2]), matrix


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
    try:
        data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except ValueError as err:  # ragged rows or fields that are not numbers
        raise ValueError(f"{path}: unexpected column layout") from err
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: unexpected column layout")

    species_end = 1 + n * (dimension + 2)
    per_species = data[:, 1:species_end].reshape(len(data), n, dimension + 2)
    return TrajectoryTable(
        labels=labels,
        times=data[:, 0],
        velocities=per_species[..., :dimension],
        energies=per_species[..., dimension + 1],
        temperatures_kelvin=per_species[..., dimension],
    )


def _deviations(table, temperatures_kelvin, equilibrium: EquilibriumData):
    """Distance from equilibrium per record: dev_u (R, N), dev_e (R,), dev_t (R, N) K."""
    dev_u = np.linalg.norm(table.velocities - equilibrium.velocity[None, None, :], axis=2)
    dev_e = np.linalg.norm(table.energies - equilibrium.energies[None, :], axis=1)
    dev_t = np.abs(temperatures_kelvin - energy_to_kelvin(equilibrium.temperature))
    return dev_u, dev_e, dev_t


def _envelope_file(trajectory: Trajectory, envelopes, equilibrium: EquilibriumData, temps_k):
    """(header, matrix) of the envelope CSV, from the run's Kelvin temperatures."""
    labels = trajectory.composition.labels
    dev_u, dev_e, dev_t = _deviations(trajectory, temps_k, equilibrium)
    env_velocity, env_energy, env_temperature = envelopes
    columns = ["t"]
    columns += [f"dev_u_{label}" for label in labels]
    columns += ["env_velocity", "dev_energy", "env_energy"]
    columns += [f"dev_T_{label}_K" for label in labels]
    columns += ["env_temperature_K"]
    matrix = np.column_stack([
        trajectory.times, dev_u, env_velocity, dev_e, env_energy,
        dev_t, energy_to_kelvin(env_temperature),
    ])
    return columns, matrix


@dataclass(frozen=True)
class RecordMonitors:
    """Monitor values of R stacked records; record 0 sets every reference."""

    momentum_drift: np.ndarray  # (R,) relative to the initial momentum scale
    energy_drift: np.ndarray  # (R,) relative to the initial total energy
    temperatures: np.ndarray  # (R, N), J
    velocity_bounds_ok: np.ndarray  # (R,) bool
    above_floor: np.ndarray  # (R,) bool, temperatures above the initial floor
    realizable: np.ndarray  # (R,) bool, every temperature >= 0, as in is_realizable


def record_monitors(
    composition: MixtureComposition, velocities: np.ndarray, energies: np.ndarray
) -> RecordMonitors:
    """Conservation, temperature-floor, velocity-bound and realizability monitors per record.

    ``velocities`` is (R, N, d) and ``energies`` (R, N).  Velocity
    components must stay inside their initial range and temperatures
    above the initial minimum, each up to its slack.
    """
    rho = composition.mass_densities
    momentum = velocities.transpose(0, 2, 1) @ rho  # (R, d), the CSV k_tot columns
    energy = energies.sum(axis=1)
    # Momentum scale: the initial total momentum when nonzero, else the
    # momentum density carried by the total energy; NaN if either is.
    momentum_scale = np.maximum(
        np.linalg.norm(momentum[0]), np.sqrt(2.0 * rho.sum() * abs(energy[0]))
    )
    temps = _temperatures(composition, velocities, energies)
    u0 = velocities[0]
    tol = BOUND_SLACK * velocity_component_bound(u0)
    inside = (velocities >= u0.min(axis=0) - tol) & (velocities <= u0.max(axis=0) + tol)
    return RecordMonitors(
        momentum_drift=np.linalg.norm(momentum - momentum[0], axis=1) / momentum_scale,
        energy_drift=np.abs(energy - energy[0]) / abs(energy[0]),
        temperatures=temps,
        velocity_bounds_ok=inside.all(axis=(1, 2)),
        above_floor=np.all(temps >= temps[0].min() * (1.0 - FLOOR_SLACK), axis=1),
        realizable=np.all(temps >= 0.0, axis=1),
    )


def _first_record_bounds(table, composition, config: ScenarioConfig):
    """(decay constants, envelopes on ``table.times``, run constants) of
    record 0, the one reference of every bound of a run; its temperatures
    must be positive.  The decay constants carry the equilibrium.  The run
    constants of the scenario's model, built once for the decay constants,
    serve the eigenvalue bracket too."""
    first = MomentState(composition, table.velocities[0], table.energies[0])
    const = run_constants(composition, config.model, first.dimension)
    constants = decay_constants(first, const)
    return constants, decay_envelopes(constants, config.eps, table.times), const


@np.errstate(all="ignore")
def monitor_block(
    table: TrajectoryTable | Trajectory, config: ScenarioConfig, first=None
) -> list[str]:
    """The ``[monitors]`` summary lines, a pure function of the state + scenario.

    Reads ``times``, ``velocities`` and ``energies`` of a re-read CSV or of
    the run.  It refuses, with ``ValueError``, times that no run writes,
    which do not start at 0 or do not strictly increase (a NaN among
    them included): every envelope is largest at t = 0 and grows for
    t < 0, so a table on such times could pass them.  It reads the
    mixture's identity only to refuse, with ``ValueError``, another
    mixture than the scenario's: the species labels of either, the
    species (masses and diameters) and number densities of a run's
    composition, and a table's ``T_<label>_K`` columns, which must equal
    the scenario's temperatures of the table's state bit for bit.  That
    check cannot reveal a wrong mass of a species at rest in every record
    of a table, as T = (2/(d n)) E - (m/d)|u|^2 does not involve m at
    u = 0; a run's composition is compared whole.  Checks conservation
    drift, the temperature floor, componentwise velocity bounds,
    realizability, dominance of all three decay envelopes from the first
    record, and the eigenvalue bracket at every recorded state, evaluated
    once for consecutive records with equal temperatures.  As in a run,
    numpy's floating-point errors are ignored: a value that overflows is
    infinite and fails its comparison.  ``first`` is record 0's (decay
    constants, envelopes on ``table.times``, run constants) if the caller
    derived them; the bracket takes the operators with the same run
    constants.
    """
    comp = MixtureComposition(config.species, config.number_densities)
    reread = isinstance(table, TrajectoryTable)
    labels = table.labels if reread else table.composition.labels
    if labels != comp.labels:
        raise ValueError(f"table species {labels} are not the scenario's {comp.labels}")
    if not reread and not (
        table.composition.species == comp.species
        and np.array_equal(table.composition.number_densities, comp.number_densities)
    ):
        raise ValueError("the run's species or number densities are not the scenario's")
    times = table.times
    if not (times[0] == 0.0 and np.all(times[1:] > times[:-1])):  # False for a NaN too
        raise ValueError("table times must start at 0 s and strictly increase")
    rho, n = comp.mass_densities, comp.number_densities
    velocities, energies = table.velocities, table.energies
    records = record_monitors(comp, velocities, energies)
    temps_k = energy_to_kelvin(records.temperatures)
    # A CSV carries no densities or masses, but its temperatures depend on
    # both; the bit patterns are compared, so NaN payloads must match too.
    if reread and not np.array_equal(
        table.temperatures_kelvin.view(np.int64), temps_k.view(np.int64)
    ):
        raise ValueError(
            "table temperatures T_<label>_K are not the scenario's at the table's state"
        )

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

    min_temperature_k = float(energy_to_kelvin(records.temperatures.min()))
    report("temperature_floor_min_K", bool(records.above_floor.all()), _fmt(min_temperature_k))
    report("velocity_bounds", bool(records.velocity_bounds_ok.all()))
    report("realizability", bool(records.realizable.all()))

    if np.all(records.temperatures[0] > 0.0):  # False for a NaN too
        first = first or _first_record_bounds(table, comp, config)
        constants, envelopes, _ = first
        dev_u, dev_e, dev_t = _deviations(table, temps_k, constants.equilibrium)
    else:  # no decay rates without a positive floor; NaN fails every comparison
        dev_u = dev_e = dev_t = np.nan
        envelopes = np.full((3, len(times)), np.nan)
    # A computed deviation also carries rounding that the exact one of the
    # theorem does not: k unit roundoffs of the run's own scale, k counting
    # the roundings between the stored state and the deviation (README).
    unit, size, d = 0.5 * np.finfo(float).eps, comp.size, velocities.shape[2]
    allow_u = (2 * size + 1) * unit * np.sqrt(d) * np.abs(velocities[0]).max()
    allow_e = (6 * size + d + 7) * unit * np.linalg.norm(energies[0])
    allow_t = (6 * size + d + 5) * unit * temps_k[0].max()
    env_u = envelopes[0][:, None] * (1.0 + ENVELOPE_SLACK) + allow_u
    report("envelope_velocity", bool(np.all(dev_u <= env_u)))
    env_e = envelopes[1] * (1.0 + ENVELOPE_SLACK) + allow_e
    report("envelope_energy", bool(np.all(dev_e <= env_e)))
    env_t = energy_to_kelvin(envelopes[2])[:, None] * (1.0 + ENVELOPE_SLACK) + allow_t
    report("envelope_temperature", bool(np.all(dev_t <= env_t)))

    bracket_ok = True
    if comp.size > 1:
        # A record with a nonpositive temperature has no hard-sphere
        # frequencies, so it gets no bracket, and one whose temperatures
        # repeat the record before it has that record's operators and
        # spectrum, so it is checked once: a run that settles onto a fixed
        # point repeats its last record down to the horizon.
        temps = records.temperatures
        checked = np.all(temps > 0.0, axis=1)
        checked[1:] &= np.any(temps[1:] != temps[:-1], axis=1)
        temps = temps[checked]
        const = first[2] if first else run_constants(comp, config.model, d)
        coupling, z = operators(temps, const)
        brackets = eigenvalue_brackets(coupling, rho, n)  # (R, operator, end)
        spectra = np.linalg.eigvalsh(z)[..., 1:]  # (R, operator, N - 1): drop the null mode
        lower, upper = brackets[..., :1], brackets[..., 1:]
        slack = BRACKET_SLACK * np.maximum(upper, np.abs(lower))
        bracket_ok = not (np.any(spectra < lower - slack) or np.any(spectra > upper + slack))
    report("eigenvalue_bracket", bracket_ok)

    overall = all(checks)
    lines.append(f"overall -> {'PASS' if overall else 'FAIL'}")
    return lines


@np.errstate(all="ignore")
def write_output_set(
    base: str, config: ScenarioConfig, integrator: IntegratorConfig, trajectory: Trajectory,
    first: RecordZero,
) -> bool:
    """Verify a run and write its trajectory, envelope and summary files, or none of them.

    ``first`` is the scenario's ``record_zero``, from which the run's
    settings were derived: its decay constants and run constants are every
    bound of the verdict, so the output set evaluates record 0 no more and
    only the envelopes on the record times.  A trajectory whose record 0
    is not ``first.state``, bit for bit, is refused with ``ValueError``.
    Returns the verdict of the summary's ``[monitors]`` block.  Each file is
    written to a temporary name beside its target, and the three are moved
    into place only once all are written and no target is a directory, the
    one case in which a rename within the directory fails after its files
    could be created.  On failure no temporary file remains.
    """
    comp = trajectory.composition
    if (trajectory.velocities[0].tobytes(), trajectory.energies[0].tobytes()) != (
        first.state.velocities.tobytes(), first.state.energies.tobytes()
    ):
        raise ValueError("record 0 of the trajectory is not the state of its record_zero")
    constants = first.constants
    envelopes = decay_envelopes(constants, config.eps, trajectory.times)
    equilibrium = constants.equilibrium
    monitors = monitor_block(trajectory, config, (constants, envelopes, first.const))
    model = "hard_sphere" if isinstance(config.model, HardSphere) else "constant"
    lines = [
        f"scenario = {config.name}",
        f"species = {' '.join(comp.labels)}",
        f"model = {model}",
        f"method = {integrator.method}",
        f"eps = {_fmt(integrator.eps)}",
        f"dt_s = {_fmt(integrator.dt)}",
        f"t_final_s = {_fmt(integrator.t_final)}",
        f"records = {len(trajectory.times)}",
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
        *monitors,
    ]

    targets = [base + suffix for suffix in ("_trajectory.csv", "_envelopes.csv", "_summary.txt")]
    temporaries = [f"{target}.{os.getpid()}.tmp" for target in targets]
    temps_k = energy_to_kelvin(_temperatures(comp, trajectory.velocities, trajectory.energies))
    try:
        # Both CSVs in one call: the values they share are formatted once.
        _write_csvs([
            (temporaries[0], *_trajectory_file(trajectory, envelopes, temps_k)),
            (temporaries[1], *_envelope_file(trajectory, envelopes, equilibrium, temps_k)),
        ])
        with open(temporaries[2], "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        for target in targets:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for temporary, target in zip(temporaries, targets):
            os.replace(temporary, target)
    finally:
        for temporary in temporaries:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
    return monitors[-1] == "overall -> PASS"
