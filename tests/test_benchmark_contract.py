"""The benchmark's own checks and tracer, run on the runtime as it stands.

``benchmark/`` judges a run correct with ``checks`` and reads the runtime
through ``Trajectory.states`` and ``.monitors``, ``read_trajectory_csv``,
``monitor_block`` on a re-read CSV and the module list of ``spans``.  These
tests import those modules read-only and run a short form of each
workload, so a runtime change that the benchmark would reject fails here.
"""

import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
# checks imports workloads by its bare name, as benchmark/run.py does.
sys.path.insert(0, str(BENCHMARK))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
STIFF_OPERATIONS = 6


@pytest.fixture(autouse=True)
def _no_out_override(monkeypatch):
    # The benchmark clears MIXBGK_OUT, which would redirect every CLI file.
    monkeypatch.delenv("MIXBGK_OUT", raising=False)


@pytest.mark.parametrize("workload", ["cli_be", "cli_rk4"])
def test_cli_runs_pass_the_benchmark_checks(workload, tmp_path, capsys):
    ops = workloads.build(workload, SEED, str(tmp_path))
    exit_codes = [op.run() for op in ops]
    capsys.readouterr()
    assert checks.check_cli(ops, exit_codes, str(tmp_path)) == []


def test_stiff_runs_pass_the_benchmark_checks_and_the_tracer_reads_them(tmp_path, capsys):
    ops = workloads.build("stiff_sweep", SEED, str(tmp_path))[:STIFF_OPERATIONS]
    trajectories = [op.run() for op in ops]
    assert set(checks.stiff_failures(ops, trajectories)) == {""}
    assert checks.check_stiff(ops, trajectories) == []

    counters = layers.Counters()
    tracer = spans.Tracer(counters.observers())
    cli_op = workloads.build("cli_be", SEED, str(tmp_path))[0]
    tracer.install()
    try:
        trajectory = ops[0].run()
        assert cli_op.run() == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = layers.pass_metrics(spans.aggregate(tracer.take()), 1.0, counters, str(tmp_path))
    assert {name for name, _, _ in layers.METRICS} - set(metrics) == {
        "output.read_trajectory_csv_ms",
        "trace.overhead_pct",
    }
    # The stiff operation's steps and the CLI run's both reach the counters.
    assert metrics["integrate.steps"] > len(trajectory.times) - 1
    assert metrics["integrate.picard_sweeps_max"] >= 1
    assert metrics["output.monitor_block_ms"] > 0.0
    assert metrics["output.csv_bytes"] > 0
