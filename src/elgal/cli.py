"""Command-line entry point.

Subcommands:
    run <config> | run --builtin <name>   integrate and emit ledger/report
    validate <config>                     coefficient and energy-class checks
    convergence <config>                  dt, dt/2, dt/4 self-convergence study
    inequalities <config>                 empirical interpolation constants

Exit codes: 0 all assertions pass, 1 assertion failure, 2 configuration
error, 3 numerical blow-up.  Output directory of run: --outdir flag, else
the ELGAL_OUTDIR environment variable, else the config [io] outdir, else ".".
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from . import diagnostics
from .basis import SpectralGrid, build_director_basis, build_velocity_basis
from .config import ConfigError, parse_config
from .energies import (
    check_coercivity,
    check_growth,
    check_legendre_hadamard,
    check_theta_bound,
)
from .leslie import check_dissipativity, check_parodi
from .scenarios import BUILTIN_SCENARIOS, Scenario, convergence_suite, run_scenario
from .simulate import BlowUpError, run, transform_grid


# glibc mallopt parameters and the values pinned for the CLI process: the
# mmap threshold at the 32 MiB ceiling that glibc's dynamic threshold grows
# to on 64-bit, the trim threshold at twice that, the ratio the dynamic
# rule keeps.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _pin_malloc_thresholds() -> None:
    """Keep freed grid and spectrum temporaries in the heap for reuse.

    Every right-hand side allocates and frees tens of MB of arrays.  With
    glibc's dynamic thresholds that memory is unmapped or trimmed after each
    free, so the next RK stage pays a minor page fault on every fresh page.
    Pinning both thresholds (setting only one turns off the dynamic rule for
    both and faults more) keeps it mapped.  The CLI owns its process, so the
    policy lives here and not in library code.  A no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _outdir(args, config) -> str:
    if args.outdir:
        return args.outdir
    env = os.environ.get("ELGAL_OUTDIR")
    if env:
        return env
    if getattr(config, "outdir", ""):
        return config.outdir
    return "."


def _cmd_run(args) -> int:
    if args.builtin:
        if args.builtin not in BUILTIN_SCENARIOS:
            raise ConfigError(
                f"unknown builtin scenario {args.builtin!r}; "
                f"choices: {', '.join(sorted(BUILTIN_SCENARIOS))}"
            )
        scenario = BUILTIN_SCENARIOS[args.builtin]()
    else:
        if not args.config:
            raise ConfigError("run needs a config path or --builtin NAME")
        config = parse_config(args.config)
        name = os.path.splitext(os.path.basename(args.config))[0]
        scenario = Scenario(name, config)
    outcome = run_scenario(scenario, _outdir(args, scenario.config))
    for line in outcome.messages:
        print(line)
    print(f"ledger: {outcome.ledger_path}")
    return outcome.exit_code


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    coeffs = config.build_coefficients()
    model = config.build_model()

    margins = check_dissipativity(coeffs)
    ok = margins.passed
    verdict = "pass" if margins.passed else "FAIL on " + ", ".join(margins.failures)
    print(f"dissipativity: {verdict}")
    for name, value in margins.margins.items():
        print(f"    {name:>11}: {value:+.6g}")
    print(f"    kappa = {margins.kappa:+.6g}  delta = {margins.delta:.6g}")
    print(f"parodi (informational): {'holds' if check_parodi(coeffs) else 'does not hold'}")

    grid = SpectralGrid(config.n)
    basis = build_director_basis(model.d2F_dS2_const(), grid, config.n_d)
    try:
        c_lambda = basis.regularity_constant()
        c_h2 = basis.h2_norm_constant()
    except ValueError as exc:
        raise ConfigError(f"key 'n_d': {exc}; the calibration needs a non-constant mode") from exc
    print(f"calibration: c_lambda = {c_lambda:.6g}, c_h2 = {c_h2:.6g}")
    print(transform_grid(config.n, model, build_velocity_basis(grid, config.n_v), basis))

    for report in (
        check_legendre_hadamard(model),
        check_coercivity(model),
        check_growth(model),
        check_theta_bound(model, c_lambda, c_h2),
    ):
        ok = ok and report.passed
        print(report)
    return 0 if ok else 1


def _cmd_convergence(args) -> int:
    config = parse_config(args.config)
    report = convergence_suite(config)
    print(report.table())
    return 0


_DIRECTOR_MENU = ((6, 2), ("10/3", "10/3"), (2, 4))
_VELOCITY_MENU = ((6, 2), ("30/11", 5), (2, "inf"))


def _cmd_inequalities(args) -> int:
    config = parse_config(args.config)
    result = run(config)
    times = np.array([s.t for s in result.states])
    d_traj = [(times, np.array([s.d_hat for s in result.states]))]
    v_traj = [(times, np.array([s.v_hat for s in result.states]))]
    # L^p norms are not polynomial, so they are sampled on the configured
    # grid, not on the (possibly smaller) transform grid of the run.
    grid = SpectralGrid(config.n)
    director_basis = result.system.director_basis.on_grid(grid)
    velocity_basis = result.system.velocity_basis.on_grid(grid)
    ok = True
    for p, r in _DIRECTOR_MENU:
        rep = diagnostics.test_interpolation_inequality(director_basis, d_traj, p, r)
        ok = ok and rep.passed
        print(
            f"director grad  p={p} r={r}  theta={rep.theta}  "
            f"constant={rep.empirical_constant:.6g}  {'pass' if rep.passed else 'FAIL'}"
        )
    for p, r in _VELOCITY_MENU:
        rep = diagnostics.test_velocity_interpolation(velocity_basis, v_traj, p, r)
        ok = ok and rep.passed
        print(
            f"velocity       p={p} r={r}  "
            f"constant={rep.empirical_constant:.6g}  {'pass' if rep.passed else 'FAIL'}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = argparse.ArgumentParser(prog="elgal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("config", nargs="?", help="config file path")
    p_run.add_argument("--builtin", help="name of a built-in scenario")
    p_run.add_argument("--outdir", default="")

    for name in ("validate", "convergence", "inequalities"):
        p = sub.add_parser(name)
        p.add_argument("config")
        if name == "inequalities":
            # It writes nothing either, but perfbench passes it --outdir.
            p.add_argument("--outdir", default="")

    args = parser.parse_args(argv)
    commands = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "convergence": _cmd_convergence,
        "inequalities": _cmd_inequalities,
    }
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
