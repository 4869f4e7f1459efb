"""Scenario configuration: gas data, presets, and the flat config format.

A scenario is one initial condition plus integrator settings.  Config
files are flat key/value text, one scenario per file::

    labels = Ar Kr Xe
    masses_kg = 66.335209e-27 139.14984e-27 218.01714e-27
    diameters_m = 3.659e-10 4.199e-10 4.939e-10
    number_densities_m3 = 3e28 2e28 1e28
    temperatures_K = 1000 1000 1000
    velocities_ms = 100 0 0 ; 0 0 0 ; 0 0 0
    eps = 1.0
    method = be

Optional keys: ``dt_s``, ``t_final_s`` (defaults derived from the decay
rates when omitted), ``output_stride``, ``name``, ``model``
(``hard_sphere`` or ``constant``), and ``constant_frequencies`` (N*N
values, row-major, required for the constant model).  Temperatures cross
the Kelvin/Joule boundary here and in the CSV writer only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .collisions import ConstantMatrix, FrequencyModel, HardSphere
from .equilibrium import conservative_decay_rate
from .integrate import IntegratorConfig
from .species import (
    MixtureComposition,
    MomentState,
    SpeciesParams,
    kelvin_to_energy,
    state_from_temperatures,
)

# Noble-gas reference data (SI units).
GASES = {
    "He": SpeciesParams(mass=6.6464731e-27, diameter=2.193e-10, label="He"),
    "Ar": SpeciesParams(mass=66.335209e-27, diameter=3.659e-10, label="Ar"),
    "Kr": SpeciesParams(mass=139.14984e-27, diameter=4.199e-10, label="Kr"),
    "Xe": SpeciesParams(mass=218.01714e-27, diameter=4.939e-10, label="Xe"),
}

# Backward-Euler default: ~20 implicit steps per e-fold of the slowest
# conservative velocity rate.  RK4 default: half the stability limit of
# the fastest instantaneous rate, a derived horizon capped at RK4_MAX_STEPS.
BE_RATE_PER_STEP = 0.05
RK4_RATE_PER_STEP = 0.5
RK4_MAX_STEPS = 5_000
HORIZON_EFOLDS = 10.0


class ScenarioError(ValueError):
    """A scenario file or definition could not be turned into a state."""


@dataclass
class ScenarioConfig:
    """One runnable scenario: species data, initial condition, settings."""

    species: tuple[SpeciesParams, ...]
    number_densities: np.ndarray  # (N,) 1/m^3
    velocities: np.ndarray  # (N, d) m/s
    temperatures_kelvin: np.ndarray  # (N,)
    eps: float = 1.0
    method: str = "be"
    dt: float | None = None  # s; derived from the decay rates when None
    t_final: float | None = None  # s
    output_stride: int = 1
    model_kind: str = "hard_sphere"  # "hard_sphere" | "constant"
    constant_frequencies: np.ndarray | None = None
    name: str = "scenario"

    def initial_state(self) -> MomentState:
        if np.any(np.asarray(self.temperatures_kelvin) <= 0.0):
            labels = [s.label for s in self.species]
            bad = int(np.argmax(np.asarray(self.temperatures_kelvin) <= 0.0))
            raise ScenarioError(
                f"species {labels[bad]!r}: initial temperature must be positive Kelvin"
            )
        composition = MixtureComposition(self.species, self.number_densities)
        return state_from_temperatures(
            composition, self.velocities, kelvin_to_energy(np.asarray(self.temperatures_kelvin))
        )

    def frequency_model(self) -> FrequencyModel:
        if self.model_kind == "hard_sphere":
            return HardSphere()
        if self.model_kind == "constant":
            if self.constant_frequencies is None:
                raise ScenarioError(
                    "constant model requires constant_frequencies (N*N values)"
                )
            return ConstantMatrix(self.constant_frequencies)
        raise ScenarioError(f"unknown frequency model {self.model_kind!r}")


def _rk4_stable_dt(state, model, eps) -> float:
    from .collisions import assemble
    from .dynamics import scaled_operators

    ops = scaled_operators(state, assemble(state, model), eps)
    fastest = max(
        np.linalg.eigvalsh(ops.momentum_relaxation).max(),
        np.linalg.eigvalsh(ops.energy_relaxation).max(),
    )
    if fastest <= 0.0:  # single species: nothing moves, any step works
        return 1.0
    return RK4_RATE_PER_STEP * eps / fastest


def resolve_integrator(config: ScenarioConfig, state=None, model=None) -> IntegratorConfig:
    """Fill in dt / t_final defaults and build the integrator settings.

    The default horizon covers HORIZON_EFOLDS e-folds of the slowest
    conservative envelope rate.  The default step is BE_RATE_PER_STEP
    e-folds of the conservative velocity rate for backward Euler and a
    stability-limited step for RK4; with both derived, the RK4 horizon is
    capped at RK4_MAX_STEPS steps.  An explicit horizon is never capped.
    """
    state = config.initial_state() if state is None else state
    model = config.frequency_model() if model is None else model

    dt = config.dt
    t_final = config.t_final
    if dt is None or t_final is None:
        velocity_rate, energy_rate = conservative_decay_rate(state, model)
        rk4_derived = config.method == "rk4" and dt is None
        if dt is None:
            if config.method == "rk4":
                dt = _rk4_stable_dt(state, model, config.eps)
            else:
                dt = BE_RATE_PER_STEP * config.eps / velocity_rate
        if t_final is None:
            t_final = HORIZON_EFOLDS * config.eps / min(velocity_rate, energy_rate)
            if rk4_derived:
                t_final = min(t_final, RK4_MAX_STEPS * dt)
    return IntegratorConfig(
        dt=float(dt),
        t_final=float(t_final),
        eps=config.eps,
        method=config.method,
        output_stride=config.output_stride,
    )


def presets() -> dict[int, ScenarioConfig]:
    """The three reference relaxation experiments.

    1. Ar-Kr-Xe temperature decay: equal densities, zero velocities,
       temperatures 1000/2000/3000 K.
    2. Ar-Kr-Xe velocity decay: densities (3,2,1)e28, argon moving at
       100 m/s, uniform 1000 K.
    3. He-Kr-Xe disparate-mass relaxation: trace hot fast helium
       (864.8 m/s, 3000 K) against cold heavy gases.
    """
    zeros = np.zeros((3, 3))
    example1 = ScenarioConfig(
        species=(GASES["Ar"], GASES["Kr"], GASES["Xe"]),
        number_densities=np.array([1e28, 1e28, 1e28]),
        velocities=zeros.copy(),
        temperatures_kelvin=np.array([1000.0, 2000.0, 3000.0]),
        name="example1",
    )
    velocities2 = zeros.copy()
    velocities2[0, 0] = 100.0
    example2 = ScenarioConfig(
        species=(GASES["Ar"], GASES["Kr"], GASES["Xe"]),
        number_densities=np.array([3e28, 2e28, 1e28]),
        velocities=velocities2,
        temperatures_kelvin=np.array([1000.0, 1000.0, 1000.0]),
        name="example2",
    )
    velocities3 = zeros.copy()
    velocities3[0, 0] = 864.8
    example3 = ScenarioConfig(
        species=(GASES["He"], GASES["Kr"], GASES["Xe"]),
        number_densities=np.array([0.01e28, 1e28, 1e28]),
        velocities=velocities3,
        temperatures_kelvin=np.array([3000.0, 300.0, 300.0]),
        name="example3",
    )
    return {1: example1, 2: example2, 3: example3}


_PER_SPECIES_KEYS = ("masses_kg", "diameters_m", "number_densities_m3", "temperatures_K")
_KNOWN_KEYS = _PER_SPECIES_KEYS + (
    "labels",
    "velocities_ms",
    "eps",
    "method",
    "model",
    "constant_frequencies",
    "dt_s",
    "t_final_s",
    "output_stride",
    "name",
)


def _parse_floats(key: str, tokens: list[str]) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as err:
        raise ScenarioError(f"key {key!r}: {err}") from None


def _require_per_species(key, values, labels):
    if len(values) < len(labels):
        missing = labels[len(values)]
        raise ScenarioError(f"species {missing!r} is missing a value for {key!r}")
    if len(values) > len(labels):
        raise ScenarioError(
            f"key {key!r} has {len(values)} values for {len(labels)} species"
        )
    return values


def parse_config(path) -> ScenarioConfig:
    """Parse a flat key/value scenario file; raises ScenarioError with the
    offending key or species label on malformed input."""
    raw: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ScenarioError(f"{path}:{line_no}: expected 'key = values'")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _KNOWN_KEYS:
                raise ScenarioError(f"{path}:{line_no}: unknown key {key!r}")
            if key in raw:
                raise ScenarioError(f"{path}:{line_no}: duplicate key {key!r}")
            raw[key] = value.split()

    if "labels" not in raw or not raw["labels"]:
        raise ScenarioError(f"{path}: missing species labels")
    labels = raw["labels"]
    n_species = len(labels)

    per_species = {}
    for key in _PER_SPECIES_KEYS:
        if key not in raw:
            raise ScenarioError(f"{path}: missing key {key!r}")
        per_species[key] = _require_per_species(
            key, _parse_floats(key, raw[key]), labels
        )

    if "velocities_ms" not in raw:
        raise ScenarioError(f"{path}: missing key 'velocities_ms'")
    rows = [row.split() for row in " ".join(raw["velocities_ms"]).split(";")]
    rows = [row for row in rows if row]
    if len(rows) != n_species:
        raise ScenarioError(
            f"{path}: velocities_ms has {len(rows)} rows for {n_species} species "
            "(separate rows with ';')"
        )
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ScenarioError(f"{path}: velocity rows have inconsistent lengths {sorted(widths)}")
    velocities = np.array([_parse_floats("velocities_ms", row) for row in rows])

    try:
        species = tuple(
            SpeciesParams(mass=m, diameter=diam, label=lab)
            for lab, m, diam in zip(labels, per_species["masses_kg"], per_species["diameters_m"])
        )
    except ValueError as err:
        raise ScenarioError(str(err)) from None

    def scalar(key, default, cast=float):
        if key not in raw:
            return default
        if len(raw[key]) != 1:
            raise ScenarioError(f"{path}: key {key!r} expects a single value")
        try:
            return cast(raw[key][0])
        except ValueError as err:
            raise ScenarioError(f"{path}: key {key!r}: {err}") from None

    model_kind = scalar("model", "hard_sphere", str)
    constant = None
    if "constant_frequencies" in raw:
        values = _parse_floats("constant_frequencies", raw["constant_frequencies"])
        if len(values) != n_species * n_species:
            raise ScenarioError(
                f"{path}: constant_frequencies needs {n_species * n_species} values, "
                f"got {len(values)}"
            )
        constant = np.array(values).reshape(n_species, n_species)

    method = scalar("method", "be", str)
    if method not in ("be", "rk4"):
        raise ScenarioError(f"{path}: method must be 'be' or 'rk4', got {method!r}")
    if model_kind not in ("hard_sphere", "constant"):
        raise ScenarioError(f"{path}: model must be 'hard_sphere' or 'constant'")

    return ScenarioConfig(
        species=species,
        number_densities=np.array(per_species["number_densities_m3"]),
        velocities=velocities,
        temperatures_kelvin=np.array(per_species["temperatures_K"]),
        eps=scalar("eps", 1.0),
        method=method,
        dt=scalar("dt_s", None),
        t_final=scalar("t_final_s", None),
        output_stride=scalar("output_stride", 1, int),
        model_kind=model_kind,
        constant_frequencies=constant,
        name=scalar("name", os.path.splitext(os.path.basename(path))[0], str),
    )
