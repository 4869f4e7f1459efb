"""Time integration of the moment system: two steppers and one recording loop.

The reference scheme is fully implicit backward Euler solved by
frozen-coefficient Picard iteration: within each sweep the coupling
matrices are held at the current iterate, which reduces the implicit
equations to two dense linear solves for the increment of the step,

    (P + (dt/eps) (D - A)) dU = (dt/eps) (D - A) U_old,  U_new = U_old - dU
    (I + (dt/eps) (F - B) Q^{-1}) dE = (dt/eps) (F - B) Q^{-1} E_old - (dt/2eps) (G - C) m,

(velocities first -- the kinetic couplings depend on them), after which
the coefficients are refreshed and the sweep repeats until the joint
relative change drops below ``PICARD_TOL``, the one exit (at most
``PICARD_MAX_ITER`` solve pairs, else :class:`PicardDivergenceError`).
Each increment reaches the state through a projection that removes any
change of total momentum and total energy, so both are conserved by
construction.  The null vectors of the two systems are shifted to the
scale of the operators, so they stay well conditioned at any step.  The
velocity system is also an M-matrix system, so the componentwise
velocity envelopes survive discretization.

An explicit classical RK4 stepper is provided as the high-order reference
oracle for convergence studies.  It is not suitable for stiff steps.
Both steppers map (u, e, dt, eps, const) to (u, e, sweeps), so the one
loop of :func:`simulate` records every step of either method, the steps
of a fixed schedule or, for backward Euler with ``IntegratorConfig.max_dt``,
those a local-error controller accepts.  Within a
run each is a function of (u, e, dt) that writes nothing it is given,
so :func:`simulate` steps each distinct (u, e, dt) once: a step from an
exact repeat of an earlier one repeats that step's result.  Both
evaluate the operator core only at admissible temperatures: finite, and
positive for hard spheres.  Leaving that set, a singular or overflowed
implicit system or a non-finite RK4 result raises RealizabilityError;
numpy's floating-point errors are ignored inside :func:`simulate`.
The recorded :class:`Trajectory` is verified in ``output``, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .collisions import FrequencyModel, heating, relaxation, run_constants
from .equilibrium import steady_state
from .species import MixtureComposition, MomentState, _temperature_map, is_realizable

PICARD_TOL = 1e-12  # the joint relative change that ends a Picard iteration
PICARD_MAX_ITER = 100  # its cap on solve pairs
# The largest local error, relative to each field's initial deviation from
# equilibrium, of an error-controlled backward-Euler step (IntegratorConfig.max_dt).
BE_ERROR_TOL = 3e-3
# The factor by which the error controller shortens every step it proposes.
BE_SAFETY = 0.9
# The most steps a run may plan: every step is recorded, held in memory
# and written to the CSV files.
MAX_STEPS = 10**6


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
    """Integration settings.

    method is "be" (backward Euler, default) or "rk4".  Without
    ``max_dt`` every step is dt long but the last, which ends at t_final.
    With ``max_dt`` (backward Euler only) dt is the first step of
    error-controlled steps of at most max_dt (:func:`simulate`).  Either
    way t_final over the longest step, dt or max_dt, the fewest steps the
    run can take, must not exceed MAX_STEPS.  Every accepted step is
    recorded.  The Picard settings are the module constants PICARD_TOL
    and PICARD_MAX_ITER, and the error tolerance is BE_ERROR_TOL.
    """

    dt: float
    t_final: float
    eps: float = 1.0
    method: str = "be"
    max_dt: float | None = None

    def __post_init__(self):
        # eps first: a derived dt and t_final scale with it, so a bad eps
        # would otherwise be reported as a bad dt.
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.max_dt is not None and not (np.isfinite(self.max_dt) and self.max_dt > 0.0):
            raise ValueError(f"max_dt must be positive and finite, got {self.max_dt}")
        name, step = ("dt", self.dt) if self.max_dt is None else ("max_dt", self.max_dt)
        if self.t_final / step > MAX_STEPS:
            raise ValueError(f"t_final / {name} = {self.t_final / step:.3e} steps, too many")
        if self.method not in ("be", "rk4"):
            raise ValueError(f"method must be 'be' or 'rk4', got {self.method!r}")
        if self.max_dt is not None and self.method != "be":
            raise ValueError(f"max_dt is a backward-Euler setting, got method {self.method!r}")


@dataclass(frozen=True)
class MonitorReport:
    """Verification data of one record, a view of ``output.RecordMonitors``.

    Drifts are relative to fixed initial scales; ``min_temperature`` is in
    J; ``above_floor`` means every temperature sits above the initial
    floor min T(0), up to ``output.FLOOR_SLACK``; ``picard_iterations`` is
    the record's entry of ``Trajectory.sweeps``.
    """

    total_momentum_drift: float
    total_energy_drift: float
    min_temperature: float
    velocity_bounds_ok: bool
    above_floor: bool
    picard_iterations: int


@dataclass(frozen=True)
class Trajectory:
    """The R records of a run as read-only arrays, record 0 the initial state.

    ``sweeps`` counts the Picard solve pairs of the step that ended at
    each record, 0 for record 0 and for RK4; a step that repeats an
    earlier one was not computed again and repeats its count.
    ``states`` and ``monitors`` are views built on first use.
    """

    times: np.ndarray  # (R,) s, strictly increasing from 0
    velocities: np.ndarray  # (R, N, d) m/s
    energies: np.ndarray  # (R, N) J/m^3
    sweeps: np.ndarray  # (R,) int
    composition: MixtureComposition

    def __post_init__(self):
        for values in (self.times, self.velocities, self.energies, self.sweeps):
            values.setflags(write=False)

    @cached_property
    def states(self) -> tuple[MomentState, ...]:
        return tuple(
            MomentState(self.composition, u, e) for u, e in zip(self.velocities, self.energies)
        )

    @cached_property
    def monitors(self) -> tuple[MonitorReport, ...]:
        from .output import record_monitors  # output imports this module at load

        records = record_monitors(self.composition, self.velocities, self.energies)
        columns = (records.momentum_drift, records.energy_drift, records.temperatures.min(axis=1),
                   records.velocity_bounds_ok, records.above_floor, self.sweeps)
        return tuple(MonitorReport(*row) for row in zip(*(c.tolist() for c in columns)))


def _relative_changes(u_new, u_k, e_new, e_k, segments):
    """Max-norm changes of the velocities and the energies, each relative to its field.

    One ``np.maximum.reduceat`` over |u_new|, |u_new - u_k|, |e_new| and
    |e_new - e_k|, concatenated and cut at ``segments`` =
    [0, N d, 2 N d, 2 N d + N], gives all four max norms.  Each maximum
    is exact and any NaN propagates, so the two quotients are those of
    one reduction per norm.  Components far below the field scale carry
    only solver noise (their absolute error is eps * ||field||, whatever
    their size), so measuring them against their own magnitude would
    block convergence whenever a velocity component crosses zero.
    """
    stacked = np.concatenate((u_new.ravel(), (u_new - u_k).ravel(), e_new, e_new - e_k))
    scale_u, step_u, scale_e, step_e = np.maximum.reduceat(abs(stacked), segments).tolist()
    return step_u / max(scale_u, 1e-300), step_e / max(scale_e, 1e-300)


def _admissible_temperatures(velocities, energies, weights, const, where, time=None):
    """Temperatures at which the operator core may be evaluated, else RealizabilityError.

    ``weights`` are ``const.temperature_weights`` for (u, E) and
    ``const.scaled_temperature_weights`` for (W, xi).  Finite for every
    model, and positive for the hard-sphere frequencies; under constant
    ones an unstable explicit step shows in the monitors.
    """
    temps = _temperature_map(weights, const.ones, velocities, energies)
    floor = 0.0 if const.hard_sphere else -math.inf
    # For the few species of a mixture, one chained comparison per value
    # on a Python list costs less than two numpy reductions.  It is the
    # same predicate: a NaN fails both comparisons, as it failed both
    # reductions, and -0.0 > 0.0 is False for either.
    if not all(floor < t < math.inf for t in temps.tolist()):
        lowest = np.minimum.reduce(temps)
        need = "finite and positive" if const.hard_sphere else "finite"
        message = f"{where} temperatures must be {need}, got a minimum of {lowest:.6e} J"
        raise RealizabilityError(message, time=time)
    return temps


def _solve(system, rhs):
    """``np.linalg.solve`` of one float (N, N) system, without numpy's Python wrapper.

    The same LAPACK gesv gufunc, so the result is the same to the bit;
    the wrapper's type promotion, array conversion and error state are
    skipped, as both operands are already float arrays.  A singular or
    overflowed system gives NaN.  ``rhs`` is (N,) or (N, k).
    """
    gufunc = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    return gufunc(system, rhs, signature="dd->d")


def _picard_solve(u, e, dt, eps, const):
    """Advance (u, e) by dt with backward Euler; returns (velocities, energies, sweeps).

    Both systems are solved for the step's increment in the symmetrically
    scaled variables W = P^{1/2} U and xi = Q^{-1/2} E, with h = dt/eps,

        (I + h Z + sigma q q^T) dW = h Z W_old,  U_new = U_old - M_rho dW
        (I + h Zh + sigma q q^T) dxi = h Zh xi_old - (h/2) Q^{-1/2} (G - C) m,
                                                 E_new = E_old - M_n dxi,

    exact rewritings of the state systems (I + h Z) W_new = W_old and
    its energy twin, symmetric positive definite.  q q^T (``const.kernels``)
    projects onto the null vector sqrt(rho) of Z (sqrt(n) of Zh), along
    which I + h Z keeps an eigenvalue 1 that rounding loses once
    h * lambda_max nears 1/eps_mach.  Neither right-hand side has a
    component along q and M_rho q = M_n q = 0, so the shift leaves the
    update the same in exact arithmetic while it lifts that mode to the
    scale of the operator (Bochev & Lehoucq, SIAM Review 47, 2005): both
    systems stay well conditioned at any step.  sigma, formed once per
    step, is the smallest diagonal entry of h Z (h Zh) at its start, which
    bounds each entry of sigma q q^T by the diagonal at its row and column.

    The rounding of a solve scales with the increment, not with the
    state, so the joint relative change falls below PICARD_TOL even at
    rate * dt >> 1, and that is the one way the iteration ends; a step at
    equilibrium ends after one sweep.  That change is the larger of the
    two fields' max-norm changes relative to their max norms, and one
    ``np.maximum.reduceat`` per sweep takes all four norms, cut at
    ``segments``, formed once per step (:func:`_relative_changes`).  A
    non-finite iterate (a singular or overflowed system) raises
    RealizabilityError.  The maps M_rho and M_n of ``const`` conserve
    total momentum and energy by construction.
    Each sweep calls the operator core once, for the thermal speeds and
    [Z, Z-hat] (``relaxation``; the couplings [A, B] are never formed),
    and the heating once, at those speeds and the new velocities, and
    LAPACK gesv through :func:`_solve` for the two systems; everything
    temperature-free comes from ``const``.
    """
    sqrt_rho, sqrt_n = const.sqrt_rho[:, None], const.sqrt_n
    rate = dt / eps
    heating_rate = 0.5 * dt / eps

    w_old = sqrt_rho * u
    xi_old = e / sqrt_n

    segments = [0, u.size, 2 * u.size, 2 * u.size + e.size]  # see _relative_changes
    u_k, e_k = u, e
    for sweep in range(1, PICARD_MAX_ITER + 1):
        temps = _admissible_temperatures(u_k, e_k, const.temperature_weights, const, "iterate")
        speeds, z = relaxation(temps, const)

        rate_z = rate * z
        if sweep == 1:  # I + sigma q q^T, from the start-of-step operators
            diagonal = rate_z.reshape(2, 1, -1)[..., :: len(u) + 1]  # (2, 1, N)
            sigma = np.minimum.reduce(diagonal, axis=2, keepdims=True)
            shifted_identity = const.identity + sigma * const.kernels
        systems = shifted_identity + rate_z  # the momentum and the energy system
        # ndarray.dot: the same products as @, at half its call cost on N x N.
        u_new = u - const.momentum_map.dot(_solve(systems[0], rate_z[0].dot(w_old)))
        # The heating pairs the new velocities with the thermal speeds of
        # the current iterate.
        kinetic = heating(speeds, u_new, const.mixing, const, heating_rate)
        rhs = rate_z[1].dot(xi_old) - kinetic
        e_new = e - const.energy_map.dot(_solve(systems[1], rhs))

        change_u, change_e = _relative_changes(u_new, u_k, e_new, e_k, segments)
        if not (change_u < np.inf and change_e < np.inf):  # a singular or overflowed system
            raise RealizabilityError(f"implicit system: non-finite solution at dt = {dt:.6e}")
        residual = max(change_u, change_e)
        u_k, e_k = u_new, e_new
        if residual < PICARD_TOL:
            return u_k, e_k, sweep

    raise PicardDivergenceError(
        f"implicit solve did not converge in {PICARD_MAX_ITER} sweeps "
        f"(last relative change {residual:.3e}, dt = {dt:.6e})"
    )


def _rk4_advance(u, e, dt, eps, const):
    """One classical RK4 step of (u, e); returns (velocities, energies, 0).

    The stages run on the scaled state W = P^{1/2} U and xi = Q^{-1/2} E,

        eps dW/dt  = -Z W
        eps dxi/dt = -(Z-hat xi - eps heating),

    with the speeds, Z, Z-hat and the heating from the same core calls as
    the implicit sweep; each stage gives the two right-hand brackets, and
    h = dt/eps scales them.  A stage never returns to (u, e): its temperatures come from xi
    and |W|^2 through ``const.scaled_temperature_weights``, and its heating
    from W through ``const.scaled_mixing``.
    """
    sqrt_rho, sqrt_n = const.sqrt_rho[:, None], const.sqrt_n
    weights, mixing = const.scaled_temperature_weights, const.scaled_mixing
    h = dt / eps
    half_h = 0.5 * h

    def rates(w, xi):
        temps = _admissible_temperatures(w, xi, weights, const, "RK4 stage")
        speeds, z = relaxation(temps, const)
        return z[0].dot(w), z[1].dot(xi) - heating(speeds, w, mixing, const, 0.5)

    w, xi = sqrt_rho * u, e / sqrt_n
    k1w, k1x = rates(w, xi)
    k2w, k2x = rates(w - half_h * k1w, xi - half_h * k1x)
    k3w, k3x = rates(w - half_h * k2w, xi - half_h * k2x)
    k4w, k4x = rates(w - h * k3w, xi - h * k3x)
    w = w - h * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
    xi = xi - h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
    if not all(map(math.isfinite, w.ravel().tolist() + xi.tolist())):
        raise RealizabilityError(
            f"RK4 step at dt = {dt:.6e}: velocities and energies must be finite"
        )
    return w / sqrt_rho, xi * sqrt_n, 0


def _schedule(cfg: IntegratorConfig, records, step):
    """Fixed steps from the last record: steps of cfg.dt, then a partial one to t_final.

    Each step to time t is ``step(t, u, e, dt)``; t and the (u, e, sweeps)
    it returns are appended to ``records``.
    """
    n_steps = int(np.floor(cfg.t_final / cfg.dt * (1.0 + 1e-12)))
    remainder = cfg.t_final - n_steps * cfg.dt
    # Relative to the horizon too, so a horizon shorter than one step
    # takes one step of length t_final.
    partial = remainder > 1e-12 * min(cfg.dt, cfg.t_final)
    last = n_steps + int(partial)
    for index in range(1, last + 1):
        t, dt = index * cfg.dt, cfg.dt
        if index == last:
            t, dt = cfg.t_final, remainder if partial else cfg.dt
        u, e = records[-1][1:3]
        records.append((t, *step(t, u, e, dt)))


def _error_scales(initial, temps, cfg: IntegratorConfig, const):
    """The scale of each field's step error: its initial deviation from equilibrium, or 0.

    A step of h rounds the state by about (h/eps) ||Z|| eps_mach |y|, with
    ||Z|| at most the largest absolute row sum of Z and Z-hat at T(0)
    (``temps``).  A field whose tolerance, BE_ERROR_TOL times its
    deviation, lies within that rounding at max_dt starts at equilibrium as
    far as the steps can tell; it gets scale 0 and is skipped, so that
    rounding does not set the step.
    """
    norm = np.abs(relaxation(temps, const)[1]).sum(axis=2).max()
    rounding = cfg.max_dt / cfg.eps * norm * np.finfo(float).eps / BE_ERROR_TOL
    equilibrium, scales = steady_state(initial), []
    for field, steady in ((initial.velocities, equilibrium.velocity),
                          (initial.energies, equilibrium.energies)):
        deviation = float(np.abs(field - steady).max())
        scales.append(deviation if deviation > rounding * np.abs(field).max() else 0.0)
    return scales


def _controlled_steps(cfg: IntegratorConfig, records, step, scales):
    """Backward-Euler steps that follow their local error, from record 0 to t_final.

    Each step is ``step(t, u, e, dt)``, as in :func:`_schedule`, but a
    rejected step is not recorded.  A step's error is the max norm of its
    local-error estimate per field, relative to that field's ``scales``
    entry; a field of scale 0 is skipped.  The estimate is the divided
    difference of the recorded states,

        s [(y_{n+1} - y_n) - r (y_n - y_{n-1})],  s = h_n / (h_n + h_{n-1}),  r = h_n / h_{n-1},

    about h_n^2 y''/2, backward Euler's local error, and it costs no solve.
    In the step ratios s and r no factor overflows, or gives 0 * inf, at any eps.
    The first step, with no record before it, takes two half steps as
    well: twice the difference of the two results estimates the error of
    the full one, which is the one recorded.  A step whose error exceeds
    BE_ERROR_TOL is taken again from the same record.  Either way the next
    step is h clip(BE_SAFETY (BE_ERROR_TOL / error)^(1/2), 0.2, 5) (Hairer &
    Wanner, Solving ODEs II, 2nd ed., section IV.8), at most cfg.max_dt,
    and the last one lands on t_final exactly: a step that would leave at
    most 1e-12 of itself to t_final (the tolerance of :func:`_schedule`'s
    partial step), as steps of max_dt whose sum rounds short of it do,
    ends there.  Each step is the difference of its end time and its start
    time, so a record's own step is the difference of its time and the one
    before.
    """

    def error(fields):
        return max(
            (float(np.abs(field).max()) / scale for field, scale in zip(fields, scales) if scale),
            default=0.0,
        )

    t, h = 0.0, cfg.dt
    u, e = records[0][1:3]
    while t < cfg.t_final:
        end = min(t + min(h, cfg.max_dt), cfg.t_final)
        if cfg.t_final - end <= 1e-12 * (end - t):
            end = cfg.t_final
        h = end - t
        if not h > 0.0:
            raise IntegrationError(f"error-controlled step vanished at t = {t:.9e} s", time=t)
        result = step(end, u, e, h)
        if len(records) == 1:
            half = step(t + 0.5 * h, u, e, 0.5 * h)
            halves = step(end, *half[:2], 0.5 * h)
            err = 2.0 * error([full - two for full, two in zip(result[:2], halves[:2])])
        else:
            before, u_before, e_before = records[-2][:3]
            h_before = t - before
            share, ratio = h / (h + h_before), h / h_before
            err = error([
                share * ((new - now) - ratio * (now - old))
                for new, now, old in zip(result, (u, e), (u_before, e_before))
            ])
        if err <= BE_ERROR_TOL:
            records.append((end, *result))
            t, u, e = end, result[0], result[1]
        # A NaN or infinite error shrinks the step by 0.2: max keeps 0.2 against NaN.
        h *= min(5.0, max(0.2, BE_SAFETY * math.sqrt(BE_ERROR_TOL / err))) if err else 5.0


def simulate(
    initial: MomentState, cfg: IntegratorConfig, model: FrequencyModel
) -> Trajectory:
    """Integrate from t = 0 to cfg.t_final, recording every step.

    The initial state and every step are recorded, so the monitors see
    each state the integrator produced, and the last recorded time equals
    ``t_final`` exactly.  Without ``cfg.max_dt`` the steps are fixed
    (:func:`_schedule`); with it, backward Euler's steps follow their
    local error (:func:`_controlled_steps`), measured against each
    field's initial deviation from ``steady_state``, and a rejected step
    is not recorded.  Either method carries (u, e) from step to step, so
    a chain of one-step runs, ``simulate(state, replace(cfg, dt=h,
    t_final=h, max_dt=None), model)`` with h each record's own step,
    repeats one run bit for bit.  So a step from a (u, e, dt) that this
    run already stepped from, bit for bit, is not computed again: its
    result, sweeps included, repeats the one that step gave.  A
    fixed-step run that settles onto a fixed point or a short cycle of its
    step map before the horizon computes no step after one pass round it.
    numpy's floating-point errors are ignored; a failed step raises an
    IntegrationError with the failing time attached.
    """
    with np.errstate(all="ignore"):
        if not is_realizable(initial):
            raise RealizabilityError("initial state is not realizable", time=0.0)
        const = run_constants(initial.composition, model, initial.dimension)
        temps = _admissible_temperatures(
            initial.velocities, initial.energies, const.temperature_weights, const, "initial",
            time=0.0,
        )
        advance = _picard_solve if cfg.method == "be" else _rk4_advance
        results = {}  # exact bits of (u, e, dt) -> the (u, e, sweeps) its step gave

        def step(t, u, e, dt):
            key = (u.tobytes(), e.tobytes(), dt)
            result = results.get(key)
            if result is None:  # a new step; a repeated one repeats its result
                try:
                    result = results[key] = advance(u, e, dt, cfg.eps, const)
                except IntegrationError as err:
                    raise type(err)(f"{err} (failed advancing to t = {t:.9e} s)", time=t) from err
            return result

        records = [(0.0, initial.velocities, initial.energies, 0)]
        if cfg.max_dt is None:
            _schedule(cfg, records, step)
        else:
            _controlled_steps(cfg, records, step, _error_scales(initial, temps, cfg, const))
    return Trajectory(*map(np.array, zip(*records)), initial.composition)
