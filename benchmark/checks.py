"""Correctness checks computed apart from the program.

Each check recomputes a physical property from the written outputs (or the
returned ``Trajectory``) with its own arithmetic and compares it with the
bound the paper proves; none compares against stored copies of earlier
output.  Every function returns a list of problems; an empty list passes.

Conservation drift is reported separately from the other problems because
stiff backward-Euler steps are known to break the 1e-9 gate: there it
marks a failed operation, everywhere else a wrong result.
"""

from __future__ import annotations

import csv

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23  # own copy: the checks use none of the program's conversions
DRIFT_GATE = 1e-9  # the program's own conservation gate
FLOOR_SLACK = 1e-9
BOUND_SLACK = 1e-9
EQUILIBRIUM_TOL = 1e-3  # acceptance criterion 1: within 0.1 %


class Table:
    """Columns of a trajectory CSV parsed with the csv module."""

    def __init__(self, columns: dict[str, np.ndarray], labels, dimension):
        self.columns = columns
        self.labels = labels
        self.dimension = dimension

    def velocities(self) -> np.ndarray:  # (R, N, d)
        return np.stack(
            [
                np.stack(
                    [self.columns[f"u_{s}_{k + 1}"] for k in range(self.dimension)], axis=1
                )
                for s in self.labels
            ],
            axis=1,
        )

    def energies(self) -> np.ndarray:  # (R, N)
        return np.stack([self.columns[f"E_{s}"] for s in self.labels], axis=1)

    def temperatures_kelvin(self) -> np.ndarray:  # (R, N)
        return np.stack([self.columns[f"T_{s}_K"] for s in self.labels], axis=1)


def parse_trajectory_csv(path: str, labels, dimension: int = 3) -> Table:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    expected = ["t"]
    for s in labels:
        expected += [f"u_{s}_{k + 1}" for k in range(dimension)] + [f"T_{s}_K", f"E_{s}"]
    expected += [f"k_tot_{k + 1}" for k in range(dimension)]
    expected += ["E_tot", "T_min_K", "env_velocity", "env_energy", "env_temperature_K"]
    if header != expected:
        raise ValueError(f"{path}: header {header[:4]}... is not the documented layout")
    data = np.array([[float(x) for x in row] for row in body])
    return Table({name: data[:, j] for j, name in enumerate(header)}, labels, dimension)


def state_problems(times, velocities, energies, masses, densities, velocity_rate=None):
    """Conservation, temperature floor, velocity bounds and relaxation.

    Arrays are stacked over records: velocities (R, N, d), energies (R, N),
    SI units.  Returns (drift, problems) where drift is the larger of the
    relative momentum and energy drifts.

    Relaxation: with W = sqrt(rho) u, one implicit step applies
    (I + dt Z)^{-1} to the deviation of W from its mean, and every positive eigenvalue of Z is at
    least the conservative velocity rate, so the distance to equilibrium
    shrinks by at least 1 + rate * dt per step.  Checked only when
    ``velocity_rate`` is given (backward-Euler trajectories).
    """
    problems = []
    rho = masses * densities
    d = velocities.shape[2]
    if not np.all(np.diff(times) > 0.0) or times[0] != 0.0:
        problems.append("record times do not start at 0 and increase")

    momentum = np.einsum("i,rik->rk", rho, velocities)
    energy = energies.sum(axis=1)
    momentum_scale = max(
        float(np.linalg.norm(momentum[0])), float(np.sqrt(2.0 * rho.sum() * abs(energy[0])))
    )
    momentum_drift = float(np.max(np.linalg.norm(momentum - momentum[0], axis=1)))
    energy_drift = float(np.max(np.abs(energy - energy[0])))
    drift = max(momentum_drift / momentum_scale, energy_drift / abs(energy[0]))

    temps = 2.0 * energies / (d * densities) - masses * np.sum(velocities**2, axis=2) / d
    floor = temps[0].min()
    if temps.min() < floor * (1.0 - FLOOR_SLACK):
        problems.append(f"temperature floor broken: {temps.min():.6e} J < {floor:.6e} J")

    u0 = velocities[0]
    tol = BOUND_SLACK * float(np.linalg.norm(np.maximum(np.abs(u0.min(0)), np.abs(u0.max(0)))))
    if np.any(velocities < u0.min(axis=0) - tol) or np.any(velocities > u0.max(axis=0) + tol):
        problems.append("componentwise velocity bounds broken")

    if velocity_rate is not None:
        # Distance to each record's own mean velocity, so that a conservation
        # drift (reported above) does not also show up here.
        u_mean = momentum / rho.sum()
        deviation = np.linalg.norm(
            np.sqrt(rho)[None, :, None] * (velocities - u_mean[:, None, :]), axis=(1, 2)
        )
        slack = tol * float(np.sqrt(rho.sum()))
        allowed = deviation[:-1] / (1.0 + velocity_rate * np.diff(times)) + slack
        worst = int(np.argmax(deviation[1:] - allowed))
        if deviation[1 + worst] > allowed[worst]:
            problems.append(
                f"velocity relaxation slower than the conservative rate at record {worst + 1}"
            )
    return drift, problems


def equilibrium_of(velocities0, energies0, masses, densities):
    """Equilibrium (u_eq, T_eq in J) from the initial conserved totals."""
    rho = masses * densities
    d = velocities0.shape[1]
    u_eq = rho @ velocities0 / rho.sum()
    t_eq = 2.0 * (energies0.sum() - 0.5 * rho.sum() * (u_eq @ u_eq)) / (d * densities.sum())
    return u_eq, t_eq


def _summary_sections(text: str) -> dict[str, list[str]]:
    sections, current = {"": []}, ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif line:
            sections[current].append(line)
    return sections


def _summary_value(section: list[str], key: str) -> np.ndarray:
    for line in section:
        name, _, value = line.partition(" = ")
        if name == key:
            return np.array([float(x) for x in value.split()])
    raise KeyError(key)


def table_problems(table: Table, summary: str, masses, densities, t_final=None,
                   at_equilibrium=False) -> list[str]:
    """Checks on one re-read trajectory CSV and its summary file."""
    cols = table.columns
    velocities, energies = table.velocities(), table.energies()
    d = table.dimension
    rho = masses * densities
    problems = []

    drift, found = state_problems(cols["t"], velocities, energies, masses, densities)
    problems += found
    if drift > DRIFT_GATE:
        problems.append(f"conservation drift {drift:.3e} above {DRIFT_GATE:g}")

    momentum = np.einsum("i,rik->rk", rho, velocities)
    written = np.stack([cols[f"k_tot_{k + 1}"] for k in range(d)], axis=1)
    if not np.allclose(written, momentum, rtol=1e-12, atol=1e-12 * np.abs(momentum).max()):
        problems.append("k_tot columns differ from sum_i rho_i u_i")
    if not np.allclose(cols["E_tot"], energies.sum(axis=1), rtol=1e-13, atol=0.0):
        problems.append("E_tot column differs from sum_i E_i")

    temps_k = (
        2.0 * energies / (d * densities) - masses * np.sum(velocities**2, axis=2) / d
    ) / BOLTZMANN_J_PER_K
    if not np.allclose(table.temperatures_kelvin(), temps_k, rtol=1e-10, atol=0.0):
        problems.append("T columns differ from 2E/(d n) - m|u|^2/d")
    if not np.array_equal(cols["T_min_K"], table.temperatures_kelvin().min(axis=1)):
        problems.append("T_min_K column is not the minimum temperature")

    sections = _summary_sections(summary)
    if t_final is not None and cols["t"][-1] != t_final:
        problems.append(f"last record at t = {cols['t'][-1]!r}, asked for {t_final!r}")
    if cols["t"][-1] != _summary_value(sections[""], "t_final_s")[0]:
        problems.append("last record time differs from the summary's t_final_s")

    u_eq, t_eq = equilibrium_of(velocities[0], energies[0], masses, densities)
    eq = sections["equilibrium"]
    if not np.allclose(_summary_value(eq, "velocity_ms"), u_eq, rtol=1e-12,
                       atol=1e-12 * max(np.abs(velocities[0]).max(), 1.0)):
        problems.append("summary equilibrium velocity differs from the conserved totals")
    if not np.isclose(_summary_value(eq, "temperature_K")[0], t_eq / BOLTZMANN_J_PER_K,
                      rtol=1e-12, atol=0.0):
        problems.append("summary equilibrium temperature differs from the conserved totals")
    if at_equilibrium:
        u_dev = np.abs(velocities[-1] - u_eq).max()
        u_scale = max(np.abs(velocities[0] - u_eq).max(), 1e-300)
        t_dev = np.abs(temps_k[-1] * BOLTZMANN_J_PER_K - t_eq).max()
        if u_dev > EQUILIBRIUM_TOL * u_scale or t_dev > EQUILIBRIUM_TOL * t_eq:
            problems.append(
                f"final state not within 0.1 % of equilibrium "
                f"(du = {u_dev:.3e} m/s, dT = {t_dev:.3e} J)"
            )
    if "overall -> PASS" not in sections.get("monitors", []):
        problems.append("summary [monitors] block does not pass")
    return problems


def monitors_block(summary: str) -> list[str]:
    """The written ``[monitors]`` block, as lines, header included."""
    lines = summary.rstrip("\n").split("\n")
    return lines[lines.index("[monitors]"):]


def _composition_arrays(species, number_densities):
    masses = np.array([s.mass for s in species])
    return masses, np.asarray(number_densities, dtype=float)


def _corrupt(columns: dict, key: str) -> dict:
    """A copy of the columns with one value of ``key`` changed by 1 ppm."""
    changed = dict(columns)
    changed[key] = columns[key].copy()
    changed[key][len(changed[key]) // 2] *= 1.0 + 1e-6
    return changed


def check_cli(ops, exit_codes, out_dir) -> list[str]:
    """Re-read every file the presets wrote and check it (see module docstring)."""
    import mixbgk.output
    from mixbgk.scenarios import presets

    from workloads import output_files

    problems = []
    for op, code in zip(ops, exit_codes):
        scenario = presets()[op.example]
        labels = tuple(s.label for s in scenario.species)
        masses, densities = _composition_arrays(scenario.species, scenario.number_densities)
        files = output_files(op, out_dir)
        with open(files["summary"], encoding="utf-8") as handle:
            summary = handle.read()
        own = parse_trajectory_csv(files["trajectory"], labels)
        found = table_problems(own, summary, masses, densities, op.t_final,
                               at_equilibrium=op.method == "be")

        reread = mixbgk.output.read_trajectory_csv(files["trajectory"])
        if not (np.array_equal(reread.times, own.columns["t"])
                and np.array_equal(reread.velocities, own.velocities())
                and np.array_equal(reread.energies, own.energies())):
            found.append("the program's CSV reader disagrees with the csv module")
        if mixbgk.output.monitor_block(reread, scenario) != monitors_block(summary):
            found.append("[monitors] rebuilt from the re-read CSV differs from the summary")
        with open(files["envelopes"], encoding="utf-8") as handle:
            if sum(1 for _ in handle) != len(own.columns["t"]) + 1:
                found.append("envelope CSV row count differs from the trajectory CSV")
        if code != 0:
            found.append(f"exit code {code}")
        problems += [f"{op.name}: {p}" for p in found]

        # Self-test: the same checks must reject a copy with one energy
        # value changed by one part per million.
        corrupted = Table(_corrupt(own.columns, f"E_{labels[0]}"), labels, own.dimension)
        if not table_problems(corrupted, summary, masses, densities, op.t_final):
            problems.append(f"{op.name}: self-test: a corrupted energy passed the checks")
    return problems


def _stacked(trajectory):
    velocities = np.array([s.velocities for s in trajectory.states])
    energies = np.array([s.energies for s in trajectory.states])
    return np.asarray(trajectory.times), velocities, energies


def _stiff_state_problems(op, trajectory, velocities=None, energies=None):
    times, v, e = _stacked(trajectory)
    masses, densities = _composition_arrays(
        op.state.composition.species, op.state.composition.number_densities
    )
    return state_problems(
        times,
        v if velocities is None else velocities,
        e if energies is None else energies,
        masses, densities, op.velocity_rate,
    )


def stiff_failures(ops, trajectories) -> list[str]:
    """Per operation: why it failed, or "" when it did not.

    The only failure is a conservation drift above the gate, the known
    backward-Euler drift on stiff steps; other problems are wrong results
    and come from ``check_stiff``.
    """
    reasons = []
    for op, trajectory in zip(ops, trajectories):
        drift, _ = _stiff_state_problems(op, trajectory)
        reasons.append(
            f"conservation drift {drift:.3e} above {DRIFT_GATE:g} "
            f"(stiff backward-Euler drift, rate*dt = {op.rate_dt:g})"
            if drift > DRIFT_GATE else ""
        )
    return reasons


def check_stiff(ops, trajectories) -> list[str]:
    """Floor, bounds, relaxation and horizon of every stiff_sweep trajectory."""
    problems = []
    for op, trajectory in zip(ops, trajectories):
        _, found = _stiff_state_problems(op, trajectory)
        steps = round(op.config.t_final / op.config.dt)
        if len(trajectory.times) != steps + 1:
            found.append(f"{len(trajectory.times) - 1} steps recorded, expected {steps}")
        if trajectory.times[-1] != op.config.t_final:
            found.append("last record is not at t_final")
        problems += [f"{op.name}: {p}" for p in found]

    # Self-test on the first member that passes: one energy changed by one
    # part per million must break conservation.
    for op, trajectory in zip(ops, trajectories):
        times, v, e = _stacked(trajectory)
        if _stiff_state_problems(op, trajectory)[0] <= DRIFT_GATE:
            e[len(e) // 2, 0] *= 1.0 + 1e-6
            if _stiff_state_problems(op, trajectory, v, e)[0] <= DRIFT_GATE:
                problems.append(f"{op.name}: self-test: a corrupted energy passed the checks")
            break
    return problems
