"""Command-line entry point.

    mixbgk run [--example N | --config PATH] [--method be|rk4]
               [--dt X] [--t-final X] [--eps X] [--out DIR]

Evaluates the scenario's record 0 once (``record_zero``: the initial
state, the run constants of its model, which it checks against the
mixture, and the decay constants), derives the settings from it
(``resolve_integrator``), runs it, and hands the trajectory and the same
record 0 to ``output.write_output_set``, which verifies the run and writes
``<name>_trajectory.csv``, ``<name>_envelopes.csv`` and
``<name>_summary.txt`` into the output directory (a nonempty
``MIXBGK_OUT`` overrides ``--out``), all three or none of them.  Exit
codes: 0 all monitors pass, 1 configuration error, unusable output
directory (found before the run) or unwritable output file, 2 monitor
violation (the verdict ``write_output_set`` returns), 3 integrator
failure (a typed error of ``simulate``, which lets no numpy warning out).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .integrate import IntegrationError, simulate
from .output import write_output_set
from .scenarios import parse_config, presets, record_zero, resolve_integrator

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


def run(args) -> int:
    try:
        if args.example is not None:
            scenario = presets()[args.example]
        else:
            scenario = parse_config(args.config)
        overrides = {"method": args.method, "dt": args.dt, "t_final": args.t_final, "eps": args.eps}
        scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})

        first = record_zero(scenario)
        integrator = resolve_integrator(scenario, first)
        out_dir = os.environ.get("MIXBGK_OUT") or args.out
        os.makedirs(out_dir, exist_ok=True)  # a bad directory fails before the run
    except (ValueError, OSError) as err:  # ScenarioError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        trajectory = simulate(first.state, integrator, scenario.model)
    except IntegrationError as err:
        print(f"integrator failure: {err}", file=sys.stderr)
        return EXIT_INTEGRATOR

    base = os.path.join(out_dir, scenario.name)
    try:
        passed = write_output_set(base, scenario, integrator, trajectory, first)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"wrote {base}_trajectory.csv, {base}_envelopes.csv, {base}_summary.txt")
    sweeps = trajectory.sweeps.max()
    print(f"records = {len(trajectory.times)}, max Picard sweeps per step = {sweeps}")
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
    return run(args)  # "run" is the one, required, subcommand


if __name__ == "__main__":
    raise SystemExit(main())
