"""Multi-species BGK moment relaxation: stiff integration, equilibria, bounds."""

from .collisions import ConstantMatrix, FrequencyModel, HardSphere
from .dynamics import scaled_energies, scaled_velocities
from .equilibrium import (
    DecayConstants,
    EquilibriumData,
    conservative_decay_rate,
    decay_constants,
    decay_envelopes,
    steady_state,
    velocity_component_bound,
    velocity_energy_bound,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    MonitorReport,
    PicardDivergenceError,
    RealizabilityError,
    Trajectory,
    simulate,
)
from .scenarios import (
    GASES,
    RecordZero,
    ScenarioConfig,
    ScenarioError,
    parse_config,
    presets,
    record_zero,
    resolve_integrator,
)
from .species import (
    BOLTZMANN_J_PER_K,
    MixtureComposition,
    MomentState,
    SpeciesParams,
    energy_from,
    energy_to_kelvin,
    is_realizable,
    kelvin_to_energy,
    state_from_temperatures,
    temperatures_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
