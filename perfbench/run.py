#!/usr/bin/env python3
"""elgal benchmark: end-to-end and per-layer metrics of the solver.

    python3 perfbench/run.py --workload gl-n32-full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; elgal is imported from its ``src``.  One
process drives closed-loop jobs (see ``workloads.py``) one at a time until
the next job would end after ``--seconds``; at least one job always runs.
It builds the system ``SETUP_REPEATS`` times before the jobs and again in
the time left after them, for the set-up samples, and evaluates one
right-hand side before the jobs to count the transform working set (which
also fills the FFT plan cache).

``--trace 0`` reports the end-to-end metrics: set-up time is the median over
every build, wall time the median over jobs, and steps/s the lower quartile
of the rates over record periods (the steps since the last ledger record
plus that record), i.e. the rate sustained in three periods of four.  The
host the bounds were set on has fast phases lasting seconds that raise the
median rate of the small-array workload by up to a fifth; the lower quartile
(the upper quartile of period time, a timing tail) halves the run-to-run
spread there.  Untraced jobs carry only boundary spans (the run, the build,
each ledger record), none inside a time step.  ``--trace 1`` alternates untraced and fully traced jobs
and reports per-layer metrics from the traced ones; ``trace.overhead`` is
the traced over the untraced median job time, minus one.

The last stdout line is the result JSON; the line before it records the
machine, thread caps, job counts and ledger SHA-256 digests.  Outputs go to
a temporary directory under ``.perfbench_tmp`` that is removed at exit,
unless ``--outdir`` names a directory to keep them in.  Exit status: 0 when
every check passed, 1 when one failed, 2 when there is no elgal source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CAP = 1
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "energy_residual_rel": "ratio",
}

PER_LAYER = {
    "basis.build_s": "s",
    "basis.scatter_ms": "ms",
    "basis.gather_ms": "ms",
    "basis.irfft_ms": "ms",
    "basis.rfft_ms": "ms",
    "basis.irfft_components": "count",
    "basis.rfft_components": "count",
    "basis.fft_bytes_computed": "bytes",
    "basis.scatter_calls_per_rhs": "count",
    "basis.gather_calls_per_rhs": "count",
    "basis.irfft_calls_per_rhs": "count",
    "basis.rfft_calls_per_rhs": "count",
    "energies.pointwise_ms": "ms",
    "energies.pointwise_calls_per_rhs": "count",
    "energies.total_energy_ms": "ms",
    "leslie.stress_ms": "ms",
    "simulate.director_evals_per_step": "count",
    "simulate.rhs_evals_per_step": "count",
    "simulate.rhs_ms": "ms",
    "simulate.rhs_self_ms": "ms",
    "simulate.director_eval_self_ms": "ms",
    "simulate.step_self_ms": "ms",
    "diagnostics.ledger_ms": "ms",
    "diagnostics.ledger_share": "ratio",
    "diagnostics.inequality_ms": "ms",
    "scenarios.io_ms": "ms",
    "config.parse_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def machine_info() -> dict:
    import numpy
    import scipy
    import scipy.fft

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size

    def blas(module):
        dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "cache": caches,
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics from the spans of the traced jobs.

    ``*_ms`` are per call (self time where named), ``energies.pointwise_ms``
    per outermost call; ``*_per_rhs``, the transform components and bytes are
    per right-hand-side evaluation; ``scenarios.io_ms`` (ledger write plus
    ``run_scenario``'s own time, the report write) is per job.
    """
    from tracing import SpanTable

    spans = []
    for job, job_spans in traced:
        offset = len(spans)
        spans += [[n, t0, t1, p + offset if p >= 0 else -1, x] for n, t0, t1, p, x in job_spans]
    table = SpanTable(spans)
    steps = sum(job.steps for job, _ in traced)
    integration = sum(job.integration_s for job, _ in traced)
    rhs = table.count("simulate.rhs")
    in_rhs = table.under("simulate.rhs")

    def per_rhs(name, field=None):
        total = sum(
            1 if field is None else s[4][field]
            for s, inside in zip(spans, in_rhs)
            if inside and s[0] == name
        )
        return total / rhs

    def ms(name, **kw):
        return 1e3 * table.per_call(name, **kw)

    covered = sum(table.dur[i] for i in table.children_of("simulate.run") if spans[i][0] != "simulate.build_system")
    io_total = table.total("diagnostics.write_ledger") + table.total("scenarios.run_scenario", self_only=True)
    return {
        "basis.build_s": table.total("basis.build") / table.count("simulate.build_system"),
        "basis.scatter_ms": ms("basis.scatter"),
        "basis.gather_ms": ms("basis.gather"),
        "basis.irfft_ms": ms("basis.irfft"),
        "basis.rfft_ms": ms("basis.rfft"),
        "basis.irfft_components": per_rhs("basis.irfft", 0),
        "basis.rfft_components": per_rhs("basis.rfft", 0),
        "basis.fft_bytes_computed": per_rhs("basis.irfft", 1) + per_rhs("basis.rfft", 1),
        "basis.scatter_calls_per_rhs": per_rhs("basis.scatter"),
        "basis.gather_calls_per_rhs": per_rhs("basis.gather"),
        "basis.irfft_calls_per_rhs": per_rhs("basis.irfft"),
        "basis.rfft_calls_per_rhs": per_rhs("basis.rfft"),
        "energies.pointwise_ms": ms("energies.pointwise", outermost=True),
        "energies.pointwise_calls_per_rhs": sum(
            1 for i in table.indices("energies.pointwise", outermost=True) if in_rhs[i]
        ) / rhs,
        "energies.total_energy_ms": ms("energies.total_energy"),
        "leslie.stress_ms": ms("leslie.stress"),
        "simulate.director_evals_per_step": table.count("simulate.director_eval") / steps,
        "simulate.rhs_evals_per_step": rhs / steps,
        "simulate.rhs_ms": ms("simulate.rhs"),
        "simulate.rhs_self_ms": ms("simulate.rhs", self_only=True),
        "simulate.director_eval_self_ms": ms("simulate.director_eval", self_only=True),
        "simulate.step_self_ms": ms("simulate.step", self_only=True),
        "diagnostics.ledger_ms": ms("diagnostics.ledger"),
        "diagnostics.ledger_share": table.total("diagnostics.ledger") / integration,
        "diagnostics.inequality_ms": ms("diagnostics.inequality"),
        "scenarios.io_ms": 1e3 * io_total / len(traced),
        "config.parse_ms": ms("config.parse"),
        "trace.coverage": covered / integration,
        "trace.overhead": statistics.median(job.wall_s for job, _ in traced)
        / statistics.median(job.wall_s for job in untraced)
        - 1.0,
    }


def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def measure(args, outdir: Path) -> tuple[dict, dict]:
    import scipy.fft

    from elgal import build_system, initial_state, parse_config
    from tracing import LAYER_TARGETS, Tracer
    from workloads import WORKLOADS, run_job

    workload = WORKLOADS[args.workload]
    cfg_path = workload.write_config(outdir, args.seed, args.quick)
    config = parse_config(str(cfg_path))
    start = time.perf_counter()
    setups = []

    def set_up():
        t0 = time.perf_counter()
        system = build_system(config)
        setups.append(time.perf_counter() - t0)
        return system

    with scipy.fft.set_workers(1):
        for _ in range(1 if args.quick else SETUP_REPEATS):
            system = set_up()
        counter = Tracer()
        with counter.patch({"basis.irfft": LAYER_TARGETS["basis.irfft"], "basis.rfft": LAYER_TARGETS["basis.rfft"]}):
            system.assemble_rhs(initial_state(config, system))
        working_set = sum(s[4][1] for s in counter.spans)
        del system

        untraced, traced = [], []
        while True:
            tracer = Tracer()
            if args.trace and len(untraced) > len(traced):
                traced.append((run_job(workload, cfg_path, config, outdir, tracer, LAYER_TARGETS), tracer.spans))
            else:
                untraced.append(run_job(workload, cfg_path, config, outdir, tracer))
            jobs = untraced + [job for job, _ in traced]
            if args.trace and not traced:
                continue
            if time.perf_counter() - start + statistics.median(job.wall_s for job in jobs) > args.seconds:
                break
        while time.perf_counter() - start + statistics.median(setups) < args.seconds:
            set_up()

    failed = sum(1 for job in jobs if job.problems)
    samples = {
        "setup_s": setups + [job.setup_s for job in jobs],
        "steps_per_s_by_record_period": [rate for job in jobs for rate in job.step_rates],
        "wall_s": [job.wall_s for job in jobs],
    }
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        units = PER_LAYER
        with open(outdir / "trace.json", "w") as fh:
            json.dump([spans for _, spans in traced], fh)
    else:
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "steps_per_s": lower_quartile(samples["steps_per_s_by_record_period"]),
            "wall_s": statistics.median(samples["wall_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "energy_residual_rel": statistics.median(job.residual_rel for job in jobs),
        }
        units = END_TO_END
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "working_set_bytes_computed": working_set,
        "jobs": {"untraced": len(untraced), "traced": len(traced)},
        "samples": samples,
        "calls_per_traced_job": {
            name: sum(1 for _, spans in traced for s in spans if s[0] == name) / len(traced)
            for name in sorted({s[0] for _, spans in traced for s in spans})
        },
        "ledger_sha256": sorted({job.sha256 for job in jobs}),
        "problems": sorted({p for job in jobs for p in job.problems}),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shortened jobs, for the smoke test")
    parser.add_argument("--outdir", help="keep ledgers, reports and the trace in this directory")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    src = ROOT / "src"
    if not (src / "elgal" / "__init__.py").is_file():
        print(f"perfbench: no elgal source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")

    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    else:
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        info, result = measure(args, outdir)
    finally:
        if not args.outdir:
            shutil.rmtree(outdir, ignore_errors=True)
            try:
                outdir.parent.rmdir()
            except OSError:  # another run still uses it
                pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
