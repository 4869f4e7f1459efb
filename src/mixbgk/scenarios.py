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

A label may not be ``tot`` or contain ``,``, so that the trajectory CSV
reads back.  Optional keys: ``dt_s``, ``t_final_s`` (defaults derived
from the decay rates when omitted), ``name``, ``model`` (``hard_sphere``
or ``constant``), and ``constant_frequencies`` (N*N values, row-major,
required for the constant model and refused for the hard-sphere one).
The parser builds the frequency model once; a scenario carries it as a
:class:`HardSphere` or :class:`ConstantMatrix`.  Temperatures cross the
Kelvin/Joule boundary here and in the CSV writer only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .collisions import ConstantMatrix, FrequencyModel, HardSphere, RunConstants, run_constants
from .equilibrium import DecayConstants, decay_constants
from .integrate import BE_ERROR_TOL, BE_SAFETY, IntegratorConfig
from .species import (
    MixtureComposition,
    MomentState,
    SpeciesParams,
    kelvin_to_energy,
    state_from_temperatures,
    temperatures_of,
)

# Noble-gas reference data (SI units).
GASES = {
    "He": SpeciesParams(mass=6.6464731e-27, diameter=2.193e-10, label="He"),
    "Ar": SpeciesParams(mass=66.335209e-27, diameter=3.659e-10, label="Ar"),
    "Kr": SpeciesParams(mass=139.14984e-27, diameter=4.199e-10, label="Kr"),
    "Xe": SpeciesParams(mass=218.01714e-27, diameter=4.939e-10, label="Xe"),
}

# RK4 default: (dt/eps) lambda_max = 0.5, with lambda_max the largest
# eigenvalue of Z and Z-hat at t = 0, about 18 % of classical RK4's
# real-axis stability limit of 2.785.  A run without a given horizon runs
# HORIZON_EFOLDS e-folds of lambda_2 at the temperature floor, a lower bound
# on the decay rate, whatever its step.  A derived backward-Euler step
# follows its local error (integrate.BE_ERROR_TOL) up to
# BE_STEP_BOUND * min(eps / r, t_final / HORIZON_EFOLDS), r the larger of
# the paper's two rates.  The tolerance and this bound replace one fixed
# rate per step, one constant more: the error alone lets the late steps
# grow until 1/(1 + h lambda) falls behind exp(-h r) and the continuous
# envelopes fail (the eps / r term), and lets a horizon pass in so few
# steps that the run ends short of equilibrium (the t_final term).
BE_STEP_BOUND = 0.5
RK4_RATE_PER_STEP = 0.5
RK4_MAX_DERIVED_STEPS = 5_000
HORIZON_EFOLDS = 10.0


class ScenarioError(ValueError):
    """A scenario file or definition could not be turned into a state."""


@dataclass
class ScenarioConfig:
    """One runnable scenario: species data, initial condition, frequency model, settings."""

    species: tuple[SpeciesParams, ...]
    number_densities: np.ndarray  # (N,) 1/m^3
    velocities: np.ndarray  # (N, d) m/s
    temperatures_kelvin: np.ndarray  # (N,)
    eps: float = 1.0
    method: str = "be"
    dt: float | None = None  # s; derived from the decay rates when None
    t_final: float | None = None  # s
    model: FrequencyModel = HardSphere()
    name: str = "scenario"

    def initial_state(self) -> MomentState:
        """The initial state; the velocities must be shaped (N, d), one row per
        species, and each species' temperature must be positive in K, in J and
        as T = (2/(d n)) E - (m/d)|u|^2 of the state, which can round to 0 J or below
        when m |u|^2 dwarfs it, and its energy density E must be finite."""
        labels = [s.label for s in self.species]
        temperatures = kelvin_to_energy(np.asarray(self.temperatures_kelvin))
        if np.any(temperatures <= 0.0):  # a positive Kelvin value may round to 0 J
            bad = int(np.argmax(temperatures <= 0.0))
            raise ScenarioError(
                f"species {labels[bad]!r}: initial temperature must be positive, in K and in J"
            )
        composition = MixtureComposition(self.species, self.number_densities)
        velocities = np.asarray(self.velocities, dtype=float)
        if not (velocities.ndim == 2 and len(velocities) == len(labels) and velocities.shape[1]):
            raise ScenarioError(
                f"velocities must be shaped (N, d) = ({len(labels)}, d) with d >= 1, "
                f"got {velocities.shape}"
            )
        # The energies (1/2) m n |u|^2 + (d/2) n T of the state, as Python
        # float products: an overflow gives inf without a numpy warning.
        rows = zip(composition.masses.tolist(), composition.number_densities.tolist(),
                   velocities.tolist(), temperatures.tolist())
        for label, (m, n, u, t) in zip(labels, rows):
            if not np.isfinite(0.5 * m * n * sum(c * c for c in u) + 0.5 * len(u) * n * t):
                raise ScenarioError(f"species {label!r}: initial energy density overflows")
        state = state_from_temperatures(composition, velocities, temperatures)
        derived = temperatures_of(state)
        if not np.all(derived > 0.0):
            bad = int(np.argmin(derived > 0.0))
            raise ScenarioError(
                f"species {labels[bad]!r}: initial temperature {derived[bad]:.6e} J, derived "
                f"from its energy and velocity, must be positive"
            )
        return state


@dataclass(frozen=True)
class RecordZero:
    """Record 0 of a scenario's run, evaluated once: the initial state, the run
    constants of the scenario's model and the decay constants evaluated with
    them.  ``resolve_integrator`` derives the settings from it and
    ``output.monitor_block`` every bound of the verdict, for a run and a
    re-read CSV alike."""

    state: MomentState
    const: RunConstants
    constants: DecayConstants


def record_zero(config: ScenarioConfig) -> RecordZero:
    """The scenario's ``initial_state`` with its run constants and decay constants.

    A model that does not fit the mixture (hard spheres outside d = 3)
    fails here, before any setting is derived."""
    state = config.initial_state()
    const = run_constants(state.composition, config.model, state.dimension)
    return RecordZero(state, const, decay_constants(state, const))


def resolve_integrator(config: ScenarioConfig, first: RecordZero) -> IntegratorConfig:
    """Fill in dt / t_final defaults and build the integrator settings.

    Every derived setting comes from record 0's spectrum in
    ``first.constants``, the scenario's ``record_zero``.  A run without a
    given ``t_final`` runs HORIZON_EFOLDS * eps / lambda_2, the smaller gap
    of Z and Z-hat at the temperature floor (a single species has none:
    horizon 0, one record), whatever its step.  RK4's derived step is
    RK4_RATE_PER_STEP e-folds of the fastest rate, lambda_max at t = 0.
    Backward Euler takes fixed steps of a given ``dt``; without one, steps
    that follow their local error (``IntegratorConfig.max_dt``) from a
    first step of BE_SAFETY (2 BE_ERROR_TOL)^(1/2) e-folds of the fastest
    rate, whose one-step error (h lambda)^2 / 2 on that mode is then
    BE_SAFETY^2 BE_ERROR_TOL, each at most BE_STEP_BOUND * min(eps / r,
    t_final / HORIZON_EFOLDS), r the larger of the paper's two rates: the
    eps / r term keeps each step's damping 1/(1 + h lambda) close enough
    to the continuous envelopes' exp(-h r), and the t_final term gives the
    horizon at least 2 HORIZON_EFOLDS steps.  Everything is derived, even
    when ``dt`` and ``t_final`` are both given.  A derived horizon that is
    not finite and nonnegative (a gap lost to roundoff), or an RK4 one not
    within RK4_MAX_DERIVED_STEPS steps of the step in use (a mixture too
    stiff for RK4), raises ScenarioError.
    """
    constants = first.constants
    # Backward Euler's first step: its error (h lambda)^2 / 2 on the fastest
    # mode meets BE_ERROR_TOL at h lambda = (2 BE_ERROR_TOL)^(1/2), which the
    # controller's safety factor shortens as it does every step it proposes.
    if config.method == "rk4":
        rate_per_step = RK4_RATE_PER_STEP
    else:
        rate_per_step = BE_SAFETY * math.sqrt(2.0 * BE_ERROR_TOL)
    fastest = constants.fastest_rate_t0
    dt = rate_per_step * config.eps / fastest if fastest > 0.0 else 1.0  # 1.0: nothing moves
    dt = float(dt if config.dt is None else config.dt)
    # np.min keeps a NaN gap, which min drops; a gap of 0 has an infinite horizon.
    gap = float(np.min([constants.velocity_gap, constants.energy_gap]))
    t_final = HORIZON_EFOLDS * config.eps / gap if gap else np.inf
    if config.t_final is not None:
        t_final = config.t_final
    elif 0.0 < config.eps < np.inf and not 0.0 <= t_final < np.inf:
        # lambda_2 <= 0 or NaN; a bad eps is IntegratorConfig's to name.
        raise ScenarioError(
            f"derived {config.method} horizon {t_final:.6e} s is not finite and nonnegative: "
            f"the spectral gap lambda_2 is lost to roundoff; set --t-final"
        )
    elif config.method == "rk4" and dt > 0.0 and not t_final <= RK4_MAX_DERIVED_STEPS * dt:
        raise ScenarioError(
            f"derived rk4 horizon {t_final:.6e} s is not within RK4_MAX_DERIVED_STEPS = "
            f"{RK4_MAX_DERIVED_STEPS} steps of dt = {dt:.6e} s; set --t-final or --method be"
        )
    max_dt = None
    if config.method == "be" and config.dt is None and t_final != 0.0:  # 0: no step to take
        rate = max(constants.velocity_rate, constants.energy_rate)
        max_dt = float(BE_STEP_BOUND * min(config.eps / rate, t_final / HORIZON_EFOLDS))
    return IntegratorConfig(
        dt=dt, t_final=float(t_final), eps=config.eps, method=config.method, max_dt=max_dt
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
    "name",
)


def _parse_floats(key: str, tokens: list[str]) -> list[float]:
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as err:
        raise ScenarioError(f"key {key!r}: {err}") from None
    bad = [tok for tok, value in zip(tokens, values) if not np.isfinite(value)]
    if bad:
        raise ScenarioError(f"key {key!r}: value {bad[0]!r} is not finite")
    return values


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
    bad = [lab for i, lab in enumerate(labels) if lab == "tot" or "," in lab or lab in labels[:i]]
    if bad:  # a label heads its own trajectory CSV columns, which must read back
        raise ScenarioError(
            f"{path}: species label {bad[0]!r} may not be 'tot', contain ',' or repeat"
        )

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
        # A number (dt_s, t_final_s, eps) must be finite, like every value of the file.
        return _parse_floats(key, raw[key])[0] if cast is float else cast(raw[key][0])

    kind = scalar("model", "hard_sphere", str)
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
    if kind == "hard_sphere":
        if constant is not None:
            raise ScenarioError(
                f"{path}: constant_frequencies needs model = constant; "
                "this scenario runs the hard_sphere model"
            )
        model = HardSphere()
    elif kind != "constant":
        raise ScenarioError(f"{path}: model must be 'hard_sphere' or 'constant'")
    elif constant is None:
        raise ScenarioError("constant model requires constant_frequencies (N*N values)")
    else:
        try:
            model = ConstantMatrix(constant)
        except ValueError as err:
            raise ScenarioError(str(err)) from None

    name = scalar("name", os.path.splitext(os.path.basename(path))[0], str)
    if name != os.path.basename(name):  # the output files are <out>/<name>_*
        raise ScenarioError(f"{path}: name {name!r} may not contain a path separator")
    return ScenarioConfig(
        species=species,
        number_densities=np.array(per_species["number_densities_m3"]),
        velocities=velocities,
        temperatures_kelvin=np.array(per_species["temperatures_K"]),
        eps=scalar("eps", 1.0),
        method=method,
        dt=scalar("dt_s", None),
        t_final=scalar("t_final_s", None),
        model=model,
        name=name,
    )
