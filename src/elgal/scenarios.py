"""Named scenarios, outcome assertions, and the convergence driver."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .config import ConfigError, SimulationConfig
from .simulate import BlowUpError, run, save_checkpoint


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimulationConfig
    description: str = ""


def _base_config(**overrides) -> SimulationConfig:
    cfg = SimulationConfig(
        model_type="ginzburg_landau",
        model_params={"eps": 1.0, "penalty": True},
        base_type="ginzburg_landau",
        base_params={},
        mu=(1.0, -1.0, 1.0, 1.0, 0.0, 1.0),
        allow_nondissipative=False,
        n=16,
        n_v=None,
        n_d=None,
        dt=1e-3,
        t_end=0.1,
    )
    return dataclasses.replace(cfg, **overrides)


def stokes_decay() -> Scenario:
    """Single transverse mode, no director: kinetic energy decays at mu4 |k|^2."""
    cfg = _base_config(
        n=8,
        n_v=12,
        n_d=3,
        t_end=1.0,
        record_every=10,
        ledger_name="stokes_decay_ledger.csv",
        initial_velocity=("mode", (0, 0, 1), 0, "cos", 0.3),
        assertions={"kinetic_decay_rate": (1.0, 1e-6)},
    )
    return Scenario("stokes-decay", cfg, "single-mode viscous decay against the exact envelope")


def director_relaxation() -> Scenario:
    """Pure gradient energy, v = 0: one eigenmode relaxes at rate gamma sigma."""
    cfg = _base_config(
        model_params={"eps": 1.0, "penalty": False},
        mu=(1.0, -0.5, 0.5, 1.0, 0.0, 1.0),  # gamma = 1
        n_v=12,
        n_d=21,
        t_end=1.0,
        record_every=10,
        ledger_name="director_relaxation_ledger.csv",
        initial_director=("mode", (0, 0, 1), 0, "cos", 0.25),
        assertions={"director_energy_decay_rate": (2.0, 1e-8)},
    )
    return Scenario("director-relaxation", cfg, "heat-flow relaxation of one eigenmode")


def gl_dissipation() -> Scenario:
    """Random small data, no forcing: total energy must never increase."""
    cfg = _base_config(
        n_v=36,
        n_d=57,
        t_end=0.5,
        ledger_name="gl_dissipation_ledger.csv",
        initial_velocity=("random", 0, 0.1),
        initial_director=("random", 1, 0.1),
        assertions={"energy_monotonic": 1e-8},
    )
    return Scenario("gl-dissipation", cfg, "energy monotonicity for the coupled system")


def parodi_cross() -> Scenario:
    """Coefficients satisfying Parodi's relation: ledger cross column is zero."""
    cfg = _base_config(
        mu=(1.0, -0.5, 1.5, 1.0, 0.0, 1.0),  # kappa = 0 exactly
        n=8,
        n_v=36,
        n_d=57,
        t_end=0.05,
        ledger_name="parodi_cross_ledger.csv",
        initial_velocity=("random", 2, 0.1),
        initial_director=("random", 3, 0.1),
        assertions={"cross_identically_zero": True, "energy_monotonic": 1e-8},
    )
    return Scenario("parodi-cross", cfg, "vanishing cross term under Parodi's relation")


BUILTIN_SCENARIOS = {
    "stokes-decay": stokes_decay,
    "director-relaxation": director_relaxation,
    "gl-dissipation": gl_dissipation,
    "parodi-cross": parodi_cross,
}


@dataclass
class ScenarioOutcome:
    name: str
    exit_code: int
    messages: list
    ledger_path: str | None = None
    report_path: str | None = None


def _worst_interior_residual(records) -> float:
    """max |residual| over the centered-difference (interior) records, or 0.0."""
    return max([abs(r.residual) for r in records[1:-1]] or [0.0])


def _evaluate_assertions(result) -> list[tuple[str, bool, str]]:
    records = result.records
    checks: list[tuple[str, bool, str]] = []
    for key, payload in result.config.assertions.items():
        if key == "energy_monotonic":
            slack = payload
            diffs = np.diff([r.total for r in records])
            ok = bool(np.all(diffs <= slack))
            checks.append((key, ok, f"max increase {diffs.max() if len(diffs) else 0.0:.3e} vs slack {slack:.1e}"))
        elif key in ("kinetic_decay_rate", "director_energy_decay_rate"):
            attr = "kinetic" if key == "kinetic_decay_rate" else "free"
            rate, rtol = payload
            e0 = getattr(records[0], attr)
            worst = 0.0
            for r in records:
                expect = e0 * np.exp(-rate * r.t)
                if expect > 0:
                    worst = max(worst, abs(getattr(r, attr) - expect) / expect)
                elif e0 == 0.0 and getattr(r, attr) != 0.0:
                    worst = np.inf  # any energy grown from none deviates
            checks.append((key, worst <= rtol, f"worst relative deviation {worst:.3e} vs {rtol:.1e}"))
        elif key == "residual_cap":
            worst = _worst_interior_residual(records)
            checks.append((key, worst <= payload, f"max |residual| {worst:.3e} vs cap {payload:.1e}"))
        elif key == "cross_identically_zero":
            ok = all(r.cross == 0.0 for r in records)
            checks.append((key, ok, "cross column identically zero" if ok else "nonzero cross entry"))
    return checks


def _write_report(path: str, scenario: Scenario, records: list, lines: list) -> None:
    with open(path, "w") as fh:
        fh.write(f"scenario: {scenario.name}\n{scenario.description}\n")
        fh.write(f"records: {len(records)}  t_end: {records[-1].t:.6g}\n")
        for line in lines:
            fh.write(line + "\n")


def run_scenario(scenario: Scenario, outdir: str = ".") -> ScenarioOutcome:
    """Run, write the ledger (and snapshots), evaluate assertions.

    On blow-up the ledger of the records made so far and a report naming
    the last good time are written before the ``BlowUpError`` propagates.
    """
    os.makedirs(outdir, exist_ok=True)
    ledger_path = os.path.join(outdir, scenario.config.ledger_name)
    report_path = os.path.join(outdir, f"{scenario.name}_report.txt")
    try:
        result = run(scenario.config)
    except BlowUpError as exc:
        diagnostics.write_ledger(exc.records, ledger_path)
        _write_report(report_path, scenario, exc.records, [str(exc.grid), f"BLOW-UP  {exc}"])
        raise
    diagnostics.write_ledger(result.records, ledger_path)

    every = scenario.config.snapshot_every
    if every > 0:
        chash = scenario.config.config_hash()
        for i, state in enumerate(result.states):
            if i % every == 0 or i == len(result.states) - 1:
                save_checkpoint(
                    os.path.join(outdir, f"{scenario.name}_snapshot_{i:05d}.ckpt"),
                    state,
                    chash,
                    result.system.velocity_basis.size,
                    result.system.director_basis.size,
                )

    checks = _evaluate_assertions(result)
    messages = [f"{'PASS' if ok else 'FAIL'}  {name}: {info}" for name, ok, info in checks]
    exit_code = 0 if all(ok for _, ok, _ in checks) else 1
    _write_report(report_path, scenario, result.records, [str(result.system.transform)] + messages)
    return ScenarioOutcome(scenario.name, exit_code, messages, ledger_path, report_path)


# ---------------------------------------------------------------------------
# Self-convergence study

_EXACT_FLOOR = 1e-12


@dataclass
class ConvergenceReport:
    dts: list
    state_errors: list
    residuals: list
    state_orders: list
    residual_orders: list

    def table(self) -> str:
        lines = ["      dt     state_error    max|residual|"]
        for dt, err, res in zip(self.dts, self.state_errors, self.residuals):
            err_s = "exact" if err == 0.0 else f"{err:.6e}"
            lines.append(f"{dt:10.3e}  {err_s:>13}  {res:.6e}")
        for name, orders in (("state", self.state_orders), ("residual", self.residual_orders)):
            shown = ", ".join("exact" if o is None else f"{o:.2f}" for o in orders)
            lines.append(f"observed {name} orders: {shown}")
        return "\n".join(lines)


def _orders(values: list) -> list:
    """log2 ratios of successive values; None (exact) where either is zero."""
    return [None if a == 0.0 or b == 0.0 else float(np.log2(a / b)) for a, b in zip(values, values[1:])]


def convergence_suite(config: SimulationConfig) -> ConvergenceReport:
    """Run at dt, dt/2, dt/4 against a dt/64 reference; report observed orders.

    State errors at the reference floor and zero residuals are reported as
    exact (order None).  The dt run needs two steps, so that its ledger has
    an interior (centered-difference) record.
    """
    n_steps = round(config.t_end / config.dt)
    if n_steps < 2:
        raise ConfigError(f"key 't_end': convergence needs at least 2 steps of dt, got {n_steps}")
    base = dataclasses.replace(config, record_every=1)
    final = run(dataclasses.replace(base, dt=base.dt / 64.0)).final_state
    reference = np.concatenate((final.v_hat, final.d_hat))
    ref_norm = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    dts, errors, residuals = [], [], []
    for div in (1, 2, 4):
        result = run(dataclasses.replace(base, dt=base.dt / div))
        final = result.final_state
        err = float(np.max(np.abs(np.concatenate((final.v_hat, final.d_hat)) - reference), initial=0.0))
        if err <= _EXACT_FLOOR * ref_norm:
            err = 0.0
        dts.append(base.dt / div)
        errors.append(err)
        residuals.append(_worst_interior_residual(result.records))
    return ConvergenceReport(dts, errors, residuals, _orders(errors), _orders(residuals))
