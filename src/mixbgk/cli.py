"""Command-line entry point.

    mixbgk run [--example N | --config PATH] [--method be|rk4]
               [--dt X] [--t-final X] [--eps X] [--out DIR]

Writes ``<name>_trajectory.csv``, ``<name>_envelopes.csv`` and
``<name>_summary.txt`` into the output directory (the ``MIXBGK_OUT``
environment variable overrides ``--out``), all three or none of them.
Exit codes: 0 all monitors pass, 1 configuration error, unusable output
directory (found before the run) or unwritable output file, 2 monitor
violation, 3 integrator failure (a typed error of ``simulate``, which
lets no numpy warning out).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import replace

from .equilibrium import decay_constants, decay_envelopes, steady_state
from .integrate import IntegrationError, simulate
from .output import summary_text, write_envelope_csv, write_trajectory_csv
from .scenarios import ScenarioError, _derived_horizon, parse_config, presets, resolve_integrator

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MONITOR = 2
EXIT_INTEGRATOR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixbgk")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="integrate one scenario and verify its bounds")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", type=int, choices=(1, 2, 3), help="preset scenario")
    source.add_argument("--config", type=str, help="scenario file path")
    run.add_argument("--method", choices=("be", "rk4"), help="time integrator override")
    run.add_argument("--dt", type=float, help="time step override (s)")
    run.add_argument("--t-final", type=float, help="horizon override (s)")
    run.add_argument("--eps", type=float, help="Knudsen number override")
    run.add_argument("--out", type=str, default=".", help="output directory")
    return parser


def _write_output_set(base, trajectory, envelopes, equilibrium, summary) -> None:
    """Write the trajectory, envelope and summary files of ``base``, or none of them.

    Each file is written to a temporary name beside its target, and the
    three are moved into place only once all are written and no target
    is a directory, the one case in which a rename within the directory
    fails after its files could be created.  On failure no temporary
    file remains and an older output set keeps its bytes.
    """
    targets = [base + suffix for suffix in ("_trajectory.csv", "_envelopes.csv", "_summary.txt")]
    temporaries = [f"{target}.{os.getpid()}.tmp" for target in targets]
    try:
        write_trajectory_csv(temporaries[0], trajectory, envelopes)
        write_envelope_csv(temporaries[1], trajectory, envelopes, equilibrium)
        with open(temporaries[2], "w", encoding="utf-8") as handle:
            handle.write(summary)
        for target in targets:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for temporary, target in zip(temporaries, targets):
            os.replace(temporary, target)
    finally:
        for temporary in temporaries:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)


def run(args) -> int:
    try:
        if args.example is not None:
            scenario = presets()[args.example]
        else:
            scenario = parse_config(args.config)
        overrides = {}
        if args.method is not None:
            overrides["method"] = args.method
        if args.dt is not None:
            overrides["dt"] = args.dt
        if args.t_final is not None:
            overrides["t_final"] = args.t_final
        if args.eps is not None:
            overrides["eps"] = args.eps
        if overrides:
            scenario = replace(scenario, **overrides)

        state = scenario.initial_state()
        integrator = resolve_integrator(scenario)
        equilibrium = steady_state(state)
        constants = decay_constants(state, scenario.model)
        out_dir = os.environ.get("MIXBGK_OUT", args.out)
        os.makedirs(out_dir, exist_ok=True)  # a bad directory fails before the run
    except (ScenarioError, ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        trajectory = simulate(state, integrator, scenario.model)
    except IntegrationError as err:
        print(f"integrator failure: {err}", file=sys.stderr)
        return EXIT_INTEGRATOR

    envelopes = decay_envelopes(constants, integrator.eps, trajectory.times)
    base = os.path.join(out_dir, scenario.name)
    summary = summary_text(scenario, integrator, trajectory, equilibrium, constants)
    try:
        _write_output_set(base, trajectory, envelopes, equilibrium, summary)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"wrote {base}_trajectory.csv, {base}_envelopes.csv, {base}_summary.txt")
    horizon = _derived_horizon(integrator.eps, constants.velocity_rate, constants.energy_rate)
    if scenario.t_final is None and integrator.t_final < horizon:  # the RK4 cap fired
        steps = round(integrator.t_final / integrator.dt)
        print(
            f"note: RK4 horizon capped at RK4_MAX_STEPS = {steps} steps, "
            f"covering {integrator.t_final / horizon:.2%} of the derived horizon; "
            "set --t-final to run further"
        )
    sweeps = trajectory.sweeps.max()
    print(f"records = {len(trajectory.times)}, max Picard sweeps per step = {sweeps}")
    passed = summary.rstrip().splitlines()[-1].endswith("PASS")
    print("verification: " + ("PASS" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_MONITOR


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code 2; fold usage errors into the
        # configuration-error class, keep --help's success exit.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    if args.command == "run":
        return run(args)
    parser.print_usage(sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
