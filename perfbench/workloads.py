"""The benchmark's workloads, one job of each, and the checks on its outputs.

A job is one closed-loop use of the ``elgal`` command line, called in
process through ``elgal.cli.main``: parse a config, build the system,
integrate with the energy ledger, write the outputs, evaluate the config's
assertions (and, for ``inequalities``, the six interpolation testers).  The
benchmark then re-reads the ledger the job wrote and checks it.

elgal itself is imported lazily, after the caller has capped thread pools
and put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import PROBE_TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "scripts" / "configs"

LEDGER_COLUMNS = [
    "t", "kinetic", "free", "total", "diss_mu1", "diss_mu4", "diss_A",
    "diss_gamma_q", "cross", "g_power", "residual",
]

GL_N32_FULL = """\
[model]
type = ginzburg_landau
eps = 1.0

[leslie]
mu1 = 1
mu2 = -1
mu3 = 1
mu4 = 1
mu5 = 0
mu6 = 1

[grid]
N = 32

[time]
dt = 1e-3
t_end = {t_end}

[io]
record_every = 1
ledger = gl_n32_full_ledger.csv

[initial]
velocity = random {v_seed} 0.1
director = random {d_seed} 0.1

[assert]
energy_monotonic = on
"""


def _edited(src: Path, dst: Path, edits: dict) -> Path:
    """Copy of a shipped config with some keys replaced."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    with open(src) as fh:
        cp.read_file(fh)
    for (section, key), value in edits.items():
        cp[section][key] = value(cp[section][key]) if callable(value) else value
    with open(dst, "w") as fh:
        cp.write(fh)
    return dst


def _reseed(seed: int) -> Callable[[str], str]:
    """``random <seed> <amp>`` with a new seed and the shipped amplitude."""
    def edit(directive: str) -> str:
        kind, _, amp = directive.split()
        return f"{kind} {seed} {amp}"
    return edit


def _gl_config(outdir: Path, seed: int, quick: bool) -> Path:
    path = outdir / "gl_n32_full.cfg"
    t_end = "0.002" if quick else "0.01"
    path.write_text(GL_N32_FULL.format(t_end=t_end, v_seed=2 * seed, d_seed=2 * seed + 1))
    return path


def _sof_config(outdir: Path, seed: int, quick: bool) -> Path:
    # The shipped config as users run it; it fixes its own random data, so
    # the seed does not enter.
    src = SHIPPED / "sof_twist.cfg"
    if not quick:
        return src
    return _edited(src, outdir / "sof_twist.cfg", {("time", "t_end"): "0.02"})


def _scof_config(outdir: Path, seed: int, quick: bool) -> Path:
    return _edited(
        SHIPPED / "scaled_anisotropy.cfg",
        outdir / "scaled_anisotropy_n16.cfg",
        {
            ("grid", "N"): "16",
            ("time", "t_end"): "0.01" if quick else "0.03",
            ("initial", "velocity"): _reseed(2 * seed),
            ("initial", "director"): _reseed(2 * seed + 1),
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # elgal subcommand
    write_config: Callable[[Path, int, bool], Path]
    monotonic: bool  # total energy must never increase between records
    residual_cap: float  # cap on energy_residual_rel
    inequalities: int  # interpolation verdicts that must all pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gl-n32-full", "run", _gl_config, True, 2e-2, 0),
        Workload("sof-twist-n16", "run", _sof_config, False, 1e-3, 0),
        Workload("scof-n16-inequalities", "inequalities", _scof_config, True, 1e-4, 6),
    )
}


def n_steps(config) -> int:
    return int(round(config.t_end / config.dt))


def expected_rows(config) -> int:
    steps = n_steps(config)
    return 1 + steps // config.record_every + (1 if steps % config.record_every else 0)


def check_ledger(path: Path, workload: Workload, rows: int) -> tuple[list[str], float, str]:
    """Problems found in a ledger file, its energy_residual_rel and SHA-256.

    energy_residual_rel is the largest interior |residual| over the largest
    total dissipation.  Besides the workload's own checks, every value must
    be finite, ``total`` must be ``kinetic + free`` and ``residual`` must
    match the centered-difference energy balance recomputed from the other
    columns.
    """
    raw = path.read_bytes()
    sha = hashlib.sha256(raw).hexdigest()
    table = list(csv.reader(io.StringIO(raw.decode())))
    if not table or table[0] != LEDGER_COLUMNS:
        return ["unexpected ledger header"], math.inf, sha
    data = [[float(x) for x in row] for row in table[1:]]
    problems = []
    if len(data) != rows:
        problems.append(f"{len(data)} ledger rows, expected {rows}")
    if len(data) < 3:
        return problems + ["fewer than three records"], math.inf, sha
    if not all(math.isfinite(x) for row in data for x in row):
        return problems + ["non-finite ledger entry"], math.inf, sha
    col = {name: [row[i] for row in data] for i, name in enumerate(LEDGER_COLUMNS)}
    t, e = col["t"], col["total"]
    diss = [a + b + c + d for a, b, c, d in zip(col["diss_mu1"], col["diss_mu4"], col["diss_A"], col["diss_gamma_q"])]
    scale = max(max(diss), max(abs(x) for x in e), 1e-300)

    if any(abs(k + f - x) > 1e-12 * scale for k, f, x in zip(col["kinetic"], col["free"], e)):
        problems.append("total differs from kinetic + free")
    last = len(data) - 1
    for i in range(len(data)):
        lo, hi = max(i - 1, 0), min(i + 1, last)
        de = (e[hi] - e[lo]) / (t[hi] - t[lo])
        balance = de + diss[i] - col["g_power"][i] - col["cross"][i]
        if abs(balance - col["residual"][i]) > 1e-6 * scale:
            problems.append(f"residual column disagrees with the energy balance at row {i}")
            break
    if workload.monotonic:
        rise = max(b - a for a, b in zip(e, e[1:]))
        if rise > 0.0:
            problems.append(f"total energy increases by {rise:.3e}")
    worst = max(abs(r) for r in col["residual"][1:-1])
    residual_rel = worst / max(diss) if max(diss) > 0.0 else math.inf
    if not residual_rel <= workload.residual_cap:
        problems.append(f"energy_residual_rel {residual_rel:.3e} above cap {workload.residual_cap:.1e}")
    return problems, residual_rel, sha


@dataclass
class JobResult:
    wall_s: float
    setup_s: float
    integration_s: float
    steps: int
    step_rates: list  # steps per second over each record period
    residual_rel: float
    sha256: str
    problems: list


def run_job(workload: Workload, cfg_path: Path, config, outdir: Path, tracer: Tracer, targets=PROBE_TARGETS) -> JobResult:
    """One job under ``tracer``: the elgal command, then the output checks."""
    import numpy as np

    from elgal import cli, diagnostics

    ledger = outdir / config.ledger_name
    ledger.unlink(missing_ok=True)
    problems = []
    with tracer.patch(targets):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([workload.command, str(cfg_path), "--outdir", str(outdir)])
        if code != 0:
            problems.append(f"elgal {workload.command} exited with {code}")
        results = tracer.results
        if workload.command == "inequalities" and results["simulate.run"]:
            result = results["simulate.run"][-1]
            diagnostics.write_ledger(result.records, ledger)
            if not all(np.isfinite(s.v_hat).all() and np.isfinite(s.d_hat).all() for s in result.states):
                problems.append("non-finite state")
        verdicts = [r.passed for r in results.get("diagnostics.inequality", [])]
        if len(verdicts) != workload.inequalities or not all(verdicts):
            problems.append(f"interpolation verdicts {verdicts}, expected {workload.inequalities} passes")
        if ledger.is_file():
            found, residual_rel, sha = check_ledger(ledger, workload, expected_rows(config))
            problems += found
        else:
            problems.append("no ledger written")
            residual_rel, sha = math.inf, ""
        wall = time.perf_counter() - t0

    table = {name: [s for s in tracer.spans if s[0] == name] for name in ("simulate.run", "simulate.build_system", "diagnostics.ledger")}
    run_s = sum(s[2] - s[1] for s in table["simulate.run"])
    setup_s = sum(s[2] - s[1] for s in table["simulate.build_system"])
    steps = n_steps(config)
    # Record period k runs from the end of record k-1 to the end of record k:
    # the steps since the last record plus the record itself.
    ends = [s[2] for s in table["diagnostics.ledger"]]
    done = [min(k * config.record_every, steps) for k in range(len(ends))]
    rates = [(done[k] - done[k - 1]) / (ends[k] - ends[k - 1]) for k in range(1, len(ends))]
    return JobResult(
        wall_s=wall,
        setup_s=setup_s,
        integration_s=run_s - setup_s,
        steps=steps,
        step_rates=rates,
        residual_rel=residual_rel,
        sha256=sha,
        problems=problems,
    )
