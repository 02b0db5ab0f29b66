"""Closed-loop benchmark of the momentkit CLI.

One client, one process, one thread: each job is one CLI command run
in-process through ``momentkit.cli.main(argv)`` with its output captured,
and the next job starts when the previous one returns.  Usage, from the
repository root:

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 14 --trace 0

``--trace 0`` runs whole passes over the workload's job list, as many as
fill ``--seconds`` at the workload's nominal pass time and at least 100
jobs, then prints the end-to-end metrics.  ``--trace 1`` runs each pass
once untraced and once traced and prints the per-layer metrics.  Every job
is checked against closed-form answers.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import spans
import speed
import workloads
from speed import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_JOBS = 100  # so at least 10 timed jobs lie beyond p90
# Median pass time of each workload on the machine the baseline was recorded
# on.  The pass count follows from --seconds and this constant, never from
# the clock, so every run of a workload does the same jobs: quantiles and
# peak memory do not jump with the number of passes a slow spell allows.
NOMINAL_PASS_S = {"catalog-sweep": 1.13, "lattice-dilate": 1.87,
                  "gkm-degree": 2.7, "build-ladder": 24.0}
SETUP_ROUNDS = 9
REFERENCE_JOBS = ("validate cube:6:1", "volume cube:6:1",
                  "gkm-dim:3 cube:4:1", "count hirzebruch:2 x200")
END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
    "job_p90_ms": "ms", "answer_s": "s", "oracle_s": "s", "peak_rss_mb": "MB",
}
# hotspot shares printed by a traced run: (numerator, denominator)
HOTSPOTS = (
    ("gkm.rank_s", "answer"),
    ("polar.signed_lattice_count.self_s", "answer"),
    ("polytopes.from_halfspaces.self_s", "answer"),
    ("polytopes.volume_oracle.total_s", "oracle"),
    ("polytopes.lattice_points_oracle.total_s", "oracle"),
)


@dataclass
class Result:
    job: workloads.Job
    took: float  # CPU seconds, ``speed.clock``
    oracle: float  # CPU seconds inside the oracle twins
    code: object
    stdout: str
    wall: float = 0.0  # wall-clock seconds, printed for comparison only
    mark: int = 0  # speed-probe samples taken before the job ended
    factor: float = 1.0  # speed factor that scales ``took`` and ``oracle``


class Runner:
    """Runs jobs through ``cli.main`` and times the two oracle twins.

    ``polytopes.lattice_points_oracle`` and ``polytopes.volume_oracle`` each
    get one timer; the CLI calls each at most once per job, so a job's
    oracle time is what those timers add up while it runs.  The speed probe
    runs between jobs, outside their timing.  Times are CPU seconds from
    ``speed.clock``; a job's wall time is kept for comparison.
    """

    def __init__(self, cli, polytopes, probe: speed.SpeedProbe):
        self.cli = cli
        self.probe = probe
        self.tracer = None
        self._oracle = 0.0
        self._job_id = 0
        for name in ("lattice_points_oracle", "volume_oracle"):
            setattr(polytopes, name, self._timed(getattr(polytopes, name)))

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._oracle += clock() - t0
        return timed

    def run(self, job) -> Result:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.job_id = self._job_id
        self._job_id += 1
        self._oracle = 0.0
        w0, t0 = perf_counter(), clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a job that raises is a failed job, not a stop
            code = "exception: " + traceback.format_exc(limit=-1).strip()
        took, wall = clock() - t0, perf_counter() - w0
        mark = len(self.probe.took)
        self.probe.after(took)
        return Result(job, took, self._oracle, code, out.getvalue(), wall,
                      mark)

    def run_pass(self, jobs) -> list[Result]:
        return [self.run(job) for job in jobs]


def gate_failures(results) -> list[str]:
    failures = []
    for r in results:
        reason = gate.check(r.job.expect, r.code, r.stdout)
        if reason is not None:
            failures.append(f"{r.job.name} [{' '.join(r.job.argv)}]: {reason}")
    return failures


def setup(workload: str, seed: int, outdir: str, probe: speed.SpeedProbe):
    """Import momentkit and write the inputs, SETUP_ROUNDS times over.

    Each round drops momentkit from ``sys.modules`` first, so every round
    pays the import.  Returns the median round time and the last round's
    job templates.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules
                     if m == "momentkit" or m.startswith("momentkit.")]:
            del sys.modules[name]
        t0 = clock()
        importlib.import_module("momentkit.cli")
        templates = workloads.prepare(workload, seed, outdir)
        times.append(clock() - t0)
        probe.after(times[-1])
    return statistics.median(times), templates


def _ms(results, scaled=True):
    return [r.took * (r.factor if scaled else 1.0) * 1e3 for r in results]


def job_metrics(passes, setup_s: float, scaled: bool = True) -> dict:
    """End-to-end time metrics from whole passes of timed jobs; with
    ``scaled``, each job's times are multiplied by its own speed factor."""
    results = [r for rs in passes for r in rs]
    ms = _ms(results, scaled)
    f = {id(r): r.factor if scaled else 1.0 for r in results}
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(results) / (sum(ms) / 1e3),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "answer_s": statistics.median(
            sum((r.took - r.oracle) * f[id(r)] for r in rs) for rs in passes),
        "oracle_s": statistics.median(
            sum(r.oracle * f[id(r)] for r in rs) for rs in passes),
    }


def pass_count(workload: str, seconds: float, jobs_per_pass: int) -> int:
    return max(-(-MIN_JOBS // jobs_per_pass),
               round(seconds / NOMINAL_PASS_S[workload]))


def run_timed(runner, templates, seed, npasses, setup_s):
    passes = [runner.run_pass(workloads.pass_jobs(templates, seed, i))
              for i in range(npasses)]
    results = [r for rs in passes for r in rs]
    for r in results:
        r.factor = runner.probe.factor_at(r.mark)
    factor = runner.probe.factor()
    raw = job_metrics(passes, setup_s, scaled=False)
    wall = sum(r.wall for r in results)
    notes = [f"passes: {len(passes)}, timed jobs (samples): {len(results)}",
             "answer_s and oracle_s: median over passes of the per-pass sum",
             f"job CPU time {sum(r.took for r in results):.4f} s, job wall "
             f"time {wall:.4f} s, unscaled",
             f"speed factor {factor:.4f} over the run, "
             f"{min(r.factor for r in results):.4f} to "
             f"{max(r.factor for r in results):.4f} per job, from "
             f"{len(runner.probe.took)} kernel samples; unscaled: " + ", ".join(
                 f"{k} {v:.6g}" for k, v in raw.items())]
    for name in REFERENCE_JOBS:
        ref = [r for r in results if r.job.name == name]
        if ref:
            notes.append(f"reference job {name!r}: median "
                         f"{statistics.median(_ms(ref)):.1f} ms scaled, "
                         f"{statistics.median(_ms(ref, False)):.1f} ms unscaled")
    return job_metrics(passes, setup_s * factor), results, notes


def check_coverage(runner) -> list[str]:
    """Run the probe jobs traced; return every count that came out wrong."""
    failures = []
    for argv, expected in spans.COVERAGE_PROBES:
        tracer = spans.Tracer()
        runner.tracer = tracer
        with tracer.installed():
            runner.run(workloads.Job("probe", argv + ("--json",), {}))
        runner.tracer = None
        failures += spans.coverage_failures(tracer, argv, expected)
    return failures


def run_traced(runner, templates, seed, npasses, trace_path):
    tracer = spans.Tracer()
    plain, traced = [], []
    # job time of each half at its own speed factor, for the overhead ratio
    plain_s = traced_s = 0.0
    for i in range(npasses):
        jobs = workloads.pass_jobs(templates, seed, i)
        # the first half of a pair pays first-touch costs such as page
        # faults, so the halves take turns going first
        for traced_half in ((True, False) if i % 2 == 0 else (False, True)):
            first = len(runner.probe.took)
            if traced_half:
                runner.tracer = tracer
                with tracer.installed():
                    results = runner.run_pass(jobs)
                runner.tracer = None
            else:
                results = runner.run_pass(jobs)
            seconds = sum(r.took for r in results) * runner.probe.factor(
                first, len(runner.probe.took))
            if traced_half:
                traced_s += seconds
                traced += results
            else:
                plain_s += seconds
                plain += results
    totals = spans.span_totals(tracer)
    metrics = {"cli.refused": sum(1 for r in traced if r.code == 3) / npasses}
    for name in spans.per_layer_units():
        if name in totals:
            value = totals[name]
            metrics[name] = value if name in spans.RATIOS else value / npasses
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    base = {"answer": sum(r.took - r.oracle for r in traced) / npasses,
            "oracle": sum(r.oracle for r in traced) / npasses}
    notes = [f"traced passes: {npasses}, spans: {len(tracer)}; per-layer "
             "values are seconds and counts per pass",
             f"traced answer time {base['answer']:.4f} s/pass, "
             f"oracle time {base['oracle']:.4f} s/pass"]
    for name, of in HOTSPOTS:
        if base[of] > 0:
            notes.append(f"share: {name} / traced {of} = "
                         f"{metrics[name] / base[of]:.3f}")
    tracer.write(trace_path)
    notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    return metrics, plain + traced, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentkit" / "__init__.py").is_file():
        print(f"error: no momentkit sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    outdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    probe = speed.SpeedProbe()
    probe.sample(speed.START_SAMPLES)
    try:
        setup_s, templates = setup(args.workload, args.seed, str(outdir), probe)
        cli = sys.modules["momentkit.cli"]
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported momentkit from {cli.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        runner = Runner(cli, sys.modules["momentkit.polytopes"], probe)
        warmup = [runner.run(job) for job in workloads.warmup_jobs(templates)]
        gc.collect()
        if args.trace:
            missed = check_coverage(runner)
            if missed:
                print("error: trace coverage check failed:", file=sys.stderr)
                for line in missed:
                    print("  " + line, file=sys.stderr)
                return 3
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            # each pass runs twice, untraced and traced
            npasses = max(1, round(args.seconds / 2
                                   / NOMINAL_PASS_S[args.workload]))
            metrics, results, notes = run_traced(
                runner, templates, args.seed, npasses, str(trace_path))
            units = spans.per_layer_units()
        else:
            npasses = pass_count(args.workload, args.seconds, len(templates))
            metrics, results, notes = run_timed(
                runner, templates, args.seed, npasses, setup_s)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failures = gate_failures(warmup + results)
    attempted = len(warmup) + len(results)
    print(f"workload {args.workload}, seed {args.seed}, python "
          f"{platform.python_version()}, trace {args.trace}")
    for line in notes:
        print(line)
    print(f"fail_ratio: {len(failures)}/{attempted} = {len(failures) / attempted}")
    for line in failures[:20]:
        print("FAILED " + line)
    for name, unit in units.items():
        print(f"{name}: {metrics[name]} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
