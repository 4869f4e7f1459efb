"""Benchmark for mixbgk: one workload per run, timed in reference seconds.

    python3 benchmark/run.py --workload cli_be --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run and the
tracing overhead.  The line before it reports the raw seconds and the
reference-computation times behind every normalised figure.  See
``benchmark/README.md`` for the workloads, the metrics and the reference
computation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 9
# A fresh interpreter that imports mixbgk and builds the workload's inputs.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.build(sys.argv[2], int(sys.argv[3]), sys.argv[4])"
)


def _prepare_environment() -> None:
    """One CPU, one BLAS thread, no MIXBGK_OUT, and the checkout's own ``src/``.

    The process and the set-up probes it starts are pinned to one CPU, so
    the reference computation always measures the CPU the timed work runs
    on; the speed of the two CPUs of a shared machine differs from moment
    to moment.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MIXBGK_OUT", None)
    # Every set-up probe then reads the same bytecode cache, whatever the
    # caller's setting.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "mixbgk", "__init__.py")):
        raise SystemExit("benchmark: src/mixbgk not found; run from the repository root")
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")


def _median_quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    def __init__(self, args, work_dir: str):
        import refclock
        import workloads

        self.args = args
        self.work_dir = work_dir
        self.clock = refclock.Clock()
        self.setup_raw, self.setup_ref = self._measure_setup() if not args.trace else ([], [])
        self.ops = workloads.build(args.workload, args.seed, work_dir)
        os.makedirs(work_dir, exist_ok=True)
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.attempted = 0
        self.failures: list[str] = []

    def close(self):
        self.devnull.close()

    def _measure_setup(self):
        cmd = [sys.executable, "-c", SETUP_PROBE, BENCH_DIR, self.args.workload,
               str(self.args.seed), self.work_dir]

        def probe():
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)

        probe()  # untimed: fills the bytecode cache
        raw, ref = [], []
        for _ in range(SETUP_PROBES):
            r, n, _ = self.clock.run([probe])
            raw.append(r)
            ref.append(n)
        return raw, ref

    def run_pass(self, calls):
        """One pass over the operation list; counts attempts and failures."""
        with contextlib.redirect_stdout(self.devnull):
            raw, ref, results = self.clock.run(calls)
        self.attempted += len(self.ops)
        self.failures += self._failed(results)
        return raw, ref, results

    def _failed(self, results) -> list[str]:
        import checks

        if self.args.workload == "stiff_sweep":
            return [f"{op.name}: {reason}" for op, reason in
                    zip(self.ops, checks.stiff_failures(self.ops, results)) if reason]
        return [f"{op.name}: exit code {rc}" for op, rc in zip(self.ops, results) if rc != 0]

    def warm_up(self):
        with contextlib.redirect_stdout(self.devnull):
            self.ops[0].run()

    def timed(self):
        """Whole passes until --seconds have gone by (tracing off)."""
        passes, results = [], None
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.args.seconds:
            raw, ref, results = self.run_pass([op.run for op in self.ops])
            passes.append((raw, ref))
        return passes, results

    def traced(self):
        """Untraced and traced passes in alternation until --seconds are up."""
        import layers
        import spans

        counters = layers.Counters()
        tracer = spans.Tracer(counters.observers())
        plain, traced, per_pass, results = [], [], [], None
        last_spans = []

        def call(op):
            def run():
                with tracer.span(f"op:{op.name}"):
                    return op.run()
            return run

        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.args.seconds:
            plain.append(self.run_pass([op.run for op in self.ops])[1])
            counters.reset()
            tracer.install()
            try:
                raw, ref, results = self.run_pass([call(op) for op in self.ops])
            finally:
                tracer.uninstall()
            last_spans = tracer.take()
            traced.append(ref)
            per_pass.append(layers.pass_metrics(
                spans.aggregate(last_spans), ref / raw, counters, self.work_dir))

        tracer.install()
        try:
            raw, ref, (problems,) = self.clock.run([lambda: self.check(results)])
        finally:
            tracer.uninstall()
        read = spans.aggregate(tracer.take()).get("output.read_trajectory_csv")
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["output.read_trajectory_csv_ms"] = (
            1e3 * read["total_s"] * ref / raw if read else 0.0
        )
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{self.args.workload}-seed{self.args.seed}.json")
        spans.write(path, last_spans, spans.aggregate(last_spans))
        report = {"traced_pass_ref_s": _median_quartiles(traced),
                  "untraced_pass_ref_s": _median_quartiles(plain),
                  "spans_file": os.path.relpath(path)}
        return metrics, problems, report

    def check(self, results) -> list[str]:
        import checks

        if self.args.workload == "stiff_sweep":
            return checks.check_stiff(self.ops, results)
        return checks.check_cli(self.ops, results, self.work_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_be", "cli_rk4", "stiff_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare_environment()
    import layers
    import refclock

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    bench = Bench(args, work_dir)
    try:
        bench.warm_up()
        if args.trace:
            metrics, problems, report = bench.traced()
            units = {name: unit for name, unit, _ in layers.METRICS}
            metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        else:
            passes, results = bench.timed()
            problems = bench.check(results)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pass_ref = [ref for _, ref in passes]
            metrics = {
                "setup_s": {"value": statistics.median(bench.setup_ref), "unit": "s"},
                "pass_s": {"value": statistics.median(pass_ref), "unit": "s"},
                "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
            }
            report = {
                "setup_ref_s": _median_quartiles(bench.setup_ref),
                "setup_raw_s": _median_quartiles(bench.setup_raw),
                "pass_ref_s": _median_quartiles(pass_ref),
                "pass_raw_s": _median_quartiles([raw for raw, _ in passes]),
            }
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    samples = bench.clock.samples
    report["reference_sample_s"] = _median_quartiles(samples)
    report["reference_nominal_s"] = refclock.REFERENCE_NOMINAL_S
    report["failures"] = sorted(set(bench.failures))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
