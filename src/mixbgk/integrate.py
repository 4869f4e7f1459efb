"""Time integration of the moment system with per-step monitors.

The reference scheme is fully implicit backward Euler solved by
frozen-coefficient Picard iteration: within each sweep the coupling
matrices are held at the current iterate, which reduces the implicit
equations to two dense linear solves,

    (P + (dt/eps) (D - A)) U_new = P U_old
    (I + (dt/eps) (F - B) Q^{-1}) E_new = E_old + (dt / 2 eps) (G - C) m,

(velocities first -- the kinetic couplings depend on them), after which
the coefficients are refreshed and the sweep repeats until the joint
relative change drops below ``PICARD_TOL`` (at most ``PICARD_MAX_ITER``
sweeps, else :class:`PicardDivergenceError`).  Both solves conserve total
momentum and total energy in exact arithmetic because the coupling
Laplacians annihilate the constant vector; each step then removes the
roundoff left in those totals along the null vectors.  The velocity solve
is also an M-matrix system, so the componentwise velocity envelopes
survive discretization.

An explicit classical RK4 stepper is provided as the high-order reference
oracle for convergence studies.  It is not suitable for stiff steps.
Both steppers map (state, dt, eps, run constants) to (state, sweeps) and
evaluate the operator core only at admissible temperatures: finite, and
positive for hard spheres.  Leaving that set, an overflowed (singular)
implicit system or a non-finite RK4 result raises RealizabilityError;
backward Euler first halves the step, up to ``_MAX_HALVINGS`` times.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .collisions import FrequencyModel, heating, operators, run_constants
from .equilibrium import _component_bound
from .species import MixtureComposition, MomentState, _temperatures, is_realizable

_MAX_HALVINGS = 10
PICARD_TOL = 1e-12  # the joint relative change that ends a Picard iteration
PICARD_MAX_ITER = 100  # its sweep cap

# Monitor slacks, relative: a temperature may sit FLOOR_SLACK below the
# initial minimum, and a velocity component BOUND_SLACK times the initial
# component bound outside its initial range, before a check fails.
FLOOR_SLACK = 1e-9
BOUND_SLACK = 1e-9


class IntegrationError(RuntimeError):
    """Step failure; ``time`` carries the trajectory time when known."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class PicardDivergenceError(IntegrationError):
    """The frozen-coefficient iteration did not meet its tolerance."""


class RealizabilityError(IntegrationError):
    """An iterate or stage state left the realizable set."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    method is "be" (backward Euler, default) or "rk4".  ``output_stride``
    records every k-th step; the initial and final states are always
    recorded; t_final / dt must stay below ``sys.maxsize``.  The Picard
    settings are the module constants PICARD_TOL and PICARD_MAX_ITER.
    """

    dt: float
    t_final: float
    eps: float = 1.0
    method: str = "be"
    output_stride: int = 1

    def __post_init__(self):
        # eps first: a derived dt and t_final scale with it, so a bad eps
        # would otherwise be reported as a bad dt.
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if self.t_final / self.dt >= sys.maxsize:
            raise ValueError(f"t_final / dt = {self.t_final / self.dt:.3e} steps, too many")
        if self.method not in ("be", "rk4"):
            raise ValueError(f"method must be 'be' or 'rk4', got {self.method!r}")
        stride = self.output_stride
        if not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"output_stride must be a positive integer, got {stride!r}")


@dataclass
class MonitorReport:
    """Per-record verification data.

    Drifts are relative to fixed initial scales; ``min_temperature`` is in
    J; ``realizable`` means every temperature sits above the initial
    floor min T(0), up to FLOOR_SLACK; ``picard_iterations`` is the
    largest sweep count of any step since the previous record (0 for RK4
    and for the initial record).
    """

    total_momentum_drift: float
    total_energy_drift: float
    min_temperature: float
    velocity_bounds_ok: bool
    realizable: bool
    picard_iterations: int


@dataclass
class Trajectory:
    """Recorded times (strictly increasing, starting at 0) with states and monitors."""

    times: np.ndarray
    states: list[MomentState]
    monitors: list[MonitorReport]

    @property
    def final_state(self) -> MomentState:
        return self.states[-1]


def _relative_change(new, old) -> float:
    """Max-norm change of one field relative to the field's max norm.

    Components far below the field scale carry only solver noise (their
    absolute error is eps * ||field||, whatever their size), so measuring
    them against their own magnitude would block convergence whenever a
    velocity component crosses zero.
    """
    scale = max(float(abs(new).max()), 1e-300)
    return float(abs(new - old).max() / scale)


def _admissible_temperatures(comp, velocities, energies, const, where, time=None):
    """Temperatures at which the operator core may be evaluated, else RealizabilityError.

    Finite for every model, and positive for the hard-sphere frequencies;
    under constant ones an unstable explicit step shows in the monitors.
    """
    temps = _temperatures(comp, velocities, energies)
    floor = 0.0 if const.hard_sphere else -np.inf
    if not (temps.min() > floor and temps.max() < np.inf):  # a NaN fails both
        need = "finite and positive" if const.hard_sphere else "finite"
        message = f"{where} temperatures must be {need}, got a minimum of {temps.min():.6e} J"
        raise RealizabilityError(message, time=time)
    return temps


def _picard_solve(state, dt, eps, const):
    """Solve one implicit step; returns (velocities, energies, sweeps).

    The two linear systems are solved in the symmetrically scaled
    variables W = P^{1/2} U and xi = Q^{-1/2} E,

        (I + (dt/eps) Z) W_new  = W_old
        (I + (dt/eps) Zh) xi_new = xi_old + (dt / 2 eps) Q^{-1/2} (G - C) m,

    which are exact diagonal rescalings of the conserved-variable systems
    but symmetric positive definite, so stiff steps do not rattle at the
    roundoff plateau of a badly scaled solve.  Each sweep makes one call
    of the operator core and one of the heating, the latter with the new
    velocities; everything temperature-free comes from ``const``.
    """
    comp = state.composition
    sqrt_rho, sqrt_n, identity = const.sqrt_rho, const.sqrt_n, const.identity
    rate = dt / eps
    heating_rate = 0.5 * dt / eps

    w_old = sqrt_rho[:, None] * state.velocities
    xi_old = state.energies / sqrt_n

    # Attainable iterate agreement is limited by the conditioning of the
    # implicit systems (~cond * machine eps); below that floor the
    # iteration can only rattle.  Stagnation there counts as converged.
    roundoff_floor = 0.0
    best_residual = np.inf
    stalled = 0

    u_k, e_k = state.velocities, state.energies
    for sweep in range(1, PICARD_MAX_ITER + 1):
        temps = _admissible_temperatures(comp, u_k, e_k, const, "iterate")
        alpha, _, energy_coupling, z, z_hat = operators(temps, const)

        momentum_system = identity + rate * z
        energy_system = identity + rate * z_hat
        try:
            u_new = np.linalg.solve(momentum_system, w_old) / sqrt_rho[:, None]
            # The kinetic coupling pairs the new velocities with the mixing
            # weights of the current iterate.
            rhs = xi_old + heating(energy_coupling, alpha, u_new, const, heating_rate)
            e_new = np.linalg.solve(energy_system, rhs) * sqrt_n
        except np.linalg.LinAlgError as err:  # an overflowed system
            raise RealizabilityError(f"implicit system at dt = {dt:.6e}: {err}") from err

        if sweep == 1:
            cond_proxy = max(
                abs(momentum_system).sum(axis=1).max(),
                abs(energy_system).sum(axis=1).max(),
            )
            roundoff_floor = 64.0 * np.finfo(float).eps * cond_proxy

        residual = max(_relative_change(u_new, u_k), _relative_change(e_new, e_k))
        u_k, e_k = u_new, e_new
        if residual < PICARD_TOL:
            return u_k, e_k, sweep
        if residual < roundoff_floor:
            stalled = stalled + 1 if residual > 0.5 * best_residual else 0
            if stalled >= 3:
                return u_k, e_k, sweep
        best_residual = min(best_residual, residual)

    raise PicardDivergenceError(
        f"implicit solve did not converge in {PICARD_MAX_ITER} sweeps "
        f"(last relative change {residual:.3e}, dt = {dt:.6e})"
    )


def _be_advance(state, dt, eps, const, depth=0):
    """Advance by dt with backward Euler, halving on realizability loss.

    The solves conserve the totals only up to their roundoff, which grows
    with the conditioning of stiff steps, so the step then restores them
    along the null vectors sqrt(rho) of Z and sqrt(n) of Z-hat: one common
    velocity shift and an energy correction in proportion to n.
    """
    try:
        u, e, sweeps = _picard_solve(state, dt, eps, const)
    except RealizabilityError:
        if depth >= _MAX_HALVINGS:
            raise
        half, sweeps_a = _be_advance(state, 0.5 * dt, eps, const, depth + 1)
        full, sweeps_b = _be_advance(half, 0.5 * dt, eps, const, depth + 1)
        return full, max(sweeps_a, sweeps_b)
    rho, n = const.mass_densities, const.number_densities
    u = u + (rho @ state.velocities - rho @ u) / rho.sum()
    e = e + n * ((state.energies.sum() - e.sum()) / n.sum())
    return replace(state, velocities=u, energies=e), sweeps


def backward_euler_step(
    state: MomentState, cfg: IntegratorConfig, model: FrequencyModel
) -> MomentState:
    """One implicit step of size cfg.dt from a realizable state."""
    const = run_constants(state.composition, model, state.dimension)
    return _be_advance(state, cfg.dt, cfg.eps, const)[0]


def _rk4_advance(state, dt, eps, const):
    """One classical RK4 step in the scaled variables W = P^{1/2} U, xi = Q^{-1/2} E,

        dW/dt  = -(1/eps) Z W
        dxi/dt = -(1/eps) Z-hat xi + heating,

    with Z, Z-hat and the heating from the same core as the implicit sweep.
    Stages are plain arrays; the step ends in one validated state and
    takes no Picard sweeps.
    """
    comp = state.composition
    sqrt_rho, sqrt_n = const.sqrt_rho[:, None], const.sqrt_n
    heating_rate = 0.5 / eps

    def rates(w, xi):
        u = w / sqrt_rho
        temps = _admissible_temperatures(comp, u, xi * sqrt_n, const, "RK4 stage")
        alpha, _, energy_coupling, z, z_hat = operators(temps, const)
        source = heating(energy_coupling, alpha, u, const, heating_rate)
        return -(z @ w) / eps, source - (z_hat @ xi) / eps

    w, xi = sqrt_rho * state.velocities, state.energies / sqrt_n
    k1 = rates(w, xi)
    k2 = rates(w + 0.5 * dt * k1[0], xi + 0.5 * dt * k1[1])
    k3 = rates(w + 0.5 * dt * k2[0], xi + 0.5 * dt * k2[1])
    k4 = rates(w + dt * k3[0], xi + dt * k3[1])

    w = w + dt * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
    xi = xi + dt * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
    try:
        return replace(state, velocities=w / sqrt_rho, energies=xi * sqrt_n), 0
    except ValueError as err:  # MomentState refuses a non-finite result
        raise RealizabilityError(f"RK4 step at dt = {dt:.6e}: {err}") from err


def rk4_step(
    state: MomentState, cfg: IntegratorConfig, model: FrequencyModel
) -> MomentState:
    """One classical explicit Runge-Kutta step of size cfg.dt."""
    const = run_constants(state.composition, model, state.dimension)
    return _rk4_advance(state, cfg.dt, cfg.eps, const)[0]


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
    # momentum density carried by the total energy.
    momentum_scale = max(
        float(np.linalg.norm(momentum[0])),
        float(np.sqrt(2.0 * rho.sum() * abs(energy[0]))),
    )
    temps = _temperatures(composition, velocities, energies)
    u0 = velocities[0]
    tol = BOUND_SLACK * _component_bound(u0)
    inside = (velocities >= u0.min(axis=0) - tol) & (velocities <= u0.max(axis=0) + tol)
    return RecordMonitors(
        momentum_drift=np.linalg.norm(momentum - momentum[0], axis=1) / momentum_scale,
        energy_drift=np.abs(energy - energy[0]) / abs(energy[0]),
        temperatures=temps,
        velocity_bounds_ok=inside.all(axis=(1, 2)),
        above_floor=np.all(temps >= temps[0].min() * (1.0 - FLOOR_SLACK), axis=1),
        realizable=np.all(temps >= 0.0, axis=1),
    )


def simulate(
    initial: MomentState, cfg: IntegratorConfig, model: FrequencyModel
) -> Trajectory:
    """Integrate from t = 0 to cfg.t_final, recording states and monitors.

    Every ``output_stride``-th step is recorded along with the initial
    state; a final partial step guarantees the last recorded time equals
    ``t_final`` exactly.  Step failures are re-raised with the failing
    time attached.
    """
    if not is_realizable(initial):
        raise RealizabilityError("initial state is not realizable", time=0.0)
    comp = initial.composition
    const = run_constants(comp, model, initial.dimension)
    _admissible_temperatures(comp, initial.velocities, initial.energies, const, "initial", time=0.0)
    advance = _be_advance if cfg.method == "be" else _rk4_advance

    times, states, sweeps_recorded = [0.0], [initial], [0]
    n_steps = int(np.floor(cfg.t_final / cfg.dt * (1.0 + 1e-12)))
    remainder = cfg.t_final - n_steps * cfg.dt
    # Relative to the horizon too, so a horizon shorter than one step
    # takes one step of length t_final.
    partial = remainder > 1e-12 * min(cfg.dt, cfg.t_final)
    n_steps += int(partial)

    state, sweeps_window = initial, 0
    for index in range(1, n_steps + 1):
        is_last = index == n_steps
        t = cfg.t_final if is_last else index * cfg.dt
        dt = remainder if is_last and partial else cfg.dt
        try:
            state, sweeps = advance(state, dt, cfg.eps, const)
        except IntegrationError as err:
            raise type(err)(f"{err} (failed advancing to t = {t:.9e} s)", time=t) from err
        sweeps_window = max(sweeps_window, sweeps)
        if is_last or index % cfg.output_stride == 0:
            times.append(t)
            states.append(state)
            sweeps_recorded.append(sweeps_window)
            sweeps_window = 0

    records = record_monitors(
        comp,
        np.array([s.velocities for s in states]),
        np.array([s.energies for s in states]),
    )
    monitors = [
        MonitorReport(
            total_momentum_drift=float(records.momentum_drift[r]),
            total_energy_drift=float(records.energy_drift[r]),
            min_temperature=float(records.temperatures[r].min()),
            velocity_bounds_ok=bool(records.velocity_bounds_ok[r]),
            realizable=bool(records.above_floor[r]),
            picard_iterations=sweeps,
        )
        for r, sweeps in enumerate(sweeps_recorded)
    ]
    return Trajectory(np.asarray(times), states, monitors)
