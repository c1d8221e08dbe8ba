"""Galerkin ODE assembly and time integration.

The retained-mode system is

    dv_i/dt = <g, w_i> - ((v.grad) v, w_i) + ((grad d)^T q, w_i) - (T : grad w_i)
    dd_i/dt = -((v.grad) d, z_i) + (skw(grad v) d, z_i)
              - lam (sym(grad v) d, z_i) - gamma (q, z_i)

with q the L^2-projected variational derivative of the free energy, taken in
weak form, q_i = (dF_dh, z_i) + (dF_dS, grad z_i), and T the viscous stress
with the co-rotational rate eliminated.  The weak form makes q the exact
coefficient gradient of the quadrature energy for every model.

The principal linear parts are diagonal in the two bases: the z_i are
eigenfunctions of -div(Lam : grad .) and the w_i orthonormal Stokes modes,
so (Lam : grad d, grad z_i) = sigma_i d_i and (mu4 Sv, grad w_i) =
(mu4/2) |k_i|^2 v_i.  Both are applied as these diagonals; only the
remainder dF_dS - Lam : grad d (nonzero only for energies with Theta or
mixed terms) and the coupling stress T - mu4 Sv go through the grid.  All
nonlinear pairings are evaluated pseudospectrally by grid quadrature, so the
semi-discrete energy balance holds to rounding error.  ``build_system`` runs
the transforms on the smallest grid, up to the configured N, on which those
pairings are exact for the retained modes (``transform_grid``).

Time stepping is fixed-step integrating-factor RK4: the diagonal linear
parts (-gamma * sigma_i for director modes, -(mu4/2) |k|^2 for velocity
modes) are integrated exactly through exponential factors, everything else
by classical RK4 on the transformed variable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (
    COS,
    SIN,
    DirectorBasis,
    SpectralGrid,
    VelocityBasis,
    build_director_basis,
    build_velocity_basis,
    transform_grid_size,
)
from .config import ConfigError, SimulationConfig
from .energies import FreeEnergyModel, energy_gradient
from .leslie import LeslieCoefficients, check_dissipativity, coupling_stress, strain_rates

BLOWUP_THRESHOLD = 1e12


class BlowUpError(RuntimeError):
    """A step left a non-finite or huge state.  ``run`` attaches the energy
    records made up to ``last_good_time`` as ``records`` and the run's
    ``TransformGrid`` as ``grid``."""

    def __init__(self, last_good_time: float):
        super().__init__(f"solution blew up; last finite state at t = {last_good_time:.6g}")
        self.last_good_time = last_good_time
        self.records: list = []
        self.grid: TransformGrid | None = None


@dataclass
class SpectralState:
    """Retained-mode coefficients at one instant; treat as immutable."""

    t: float
    v_hat: np.ndarray
    d_hat: np.ndarray

    def copy(self) -> "SpectralState":
        return SpectralState(self.t, self.v_hat.copy(), self.d_hat.copy())


class StateFields(NamedTuple):
    """Grid fields of one state, shared by the ledger and the first RK stage."""

    d: np.ndarray
    grad_d: np.ndarray
    q_hat: np.ndarray
    q: np.ndarray
    v: np.ndarray
    grad_v: np.ndarray
    svd: np.ndarray  # Sv d
    wvd: np.ndarray  # Wv d


class GalerkinSystem:
    """Bundles grid, bases, free energy, and viscosities into one vector field."""

    def __init__(
        self,
        model: FreeEnergyModel,
        coeffs: LeslieCoefficients,
        grid: SpectralGrid,
        velocity_basis: VelocityBasis,
        director_basis: DirectorBasis,
        forcing_v_hat: np.ndarray | None = None,
    ):
        self.model = model
        self.coeffs = coeffs
        self.grid = grid
        self.velocity_basis = velocity_basis
        self.director_basis = director_basis
        if forcing_v_hat is None:
            forcing_v_hat = np.zeros(velocity_basis.size)
        self.forcing_v_hat = np.asarray(forcing_v_hat, dtype=float)
        if self.forcing_v_hat.shape != (velocity_basis.size,):
            raise ValueError("forcing coefficient vector does not match the velocity basis")
        # Stiff diagonal parts integrated exactly by the stepper.
        self.lin_v = -(coeffs.mu4 / 2.0) * velocity_basis.eigs
        self.lin_d = -coeffs.gamma * director_basis.eigs
        self._exp_cache: dict[float, tuple] = {}

    # -- field reconstruction ------------------------------------------------
    def velocity_fields(self, v_hat: np.ndarray, d: np.ndarray):
        """Velocity value and gradient, and Sv d and Wv d for the director field d."""
        v, grad_v = self.velocity_basis.synthesize_with_derivatives(v_hat)
        return (v, grad_v, *strain_rates(grad_v, d))

    def initial_projection(self, v0_field: np.ndarray, d0_field: np.ndarray) -> SpectralState:
        """State at t = 0 from grid fields: Leray-projected velocity, projected director.

        Each field is sampled on the n^3 grid that its own shape (n, n, n, 3)
        gives, which may differ from the transform grid.  The quadrature of
        a field band-limited to the retained modes against each mode is then
        exact, as long as 2 k_max < n; coarser grids are refused.
        """
        return SpectralState(
            t=0.0,
            v_hat=_project_sampled(self.velocity_basis, v0_field),
            d_hat=_project_sampled(self.director_basis, d0_field),
        )

    def director_eval(self, d_hat: np.ndarray):
        """Director value, gradient, and projected variational derivative q_hat."""
        return energy_gradient(self.model, self.director_basis, d_hat)

    def fields(self, state: SpectralState) -> StateFields:
        """Every grid field the right-hand side and the energy ledger read."""
        d, grad_d, q_hat = self.director_eval(state.d_hat)
        v, grad_v, svd, wvd = self.velocity_fields(state.v_hat, d)
        q = self.director_basis.synthesize(q_hat)
        return StateFields(d, grad_d, q_hat, q, v, grad_v, svd, wvd)

    # -- vector field ---------------------------------------------------------
    def assemble_rhs(self, state: SpectralState, fields: StateFields | None = None):
        """(dv_hat, dd_hat) at ``state``; ``fields`` is ``self.fields(state)``
        when the caller already has it."""
        c = self.coeffs
        grid = self.grid
        n = grid.n
        if fields is None:
            fields = self.fields(state)
        d, grad_d, q_hat, q, v, grad_v, svd, wvd = fields
        transport = np.einsum("...ia,...a->...i", grad_d, v) - wvd + c.lam * svd
        convection = np.einsum("...ia,...a->...i", grad_v, v)
        director_force = np.einsum("...ji,...j->...i", grad_d, q)
        # The mu4 Sv part of the stress is the diagonal lin_v, added below.
        stress = coupling_stress(c, d, q, svd)

        # One fused forward transform for every quadrature pairing.
        bundle = np.concatenate(
            [transport, director_force - convection, stress.reshape(n, n, n, 9)], axis=-1
        )
        spec = grid.rfft(bundle).reshape(-1, 15)
        dd_hat = -self.director_basis.analyze_spec_half(spec[:, 0:3]) - c.gamma * q_hat
        dv_hat = (
            self.forcing_v_hat
            + self.lin_v * state.v_hat
            + self.velocity_basis.analyze_spec_half(spec[:, 3:6])
            - self.velocity_basis.project_stress_spec_half(spec[:, 6:15].reshape(-1, 3, 3))
        )
        return dv_hat, dd_hat

    def _nonlinear(self, v_hat, d_hat, rhs=None):
        dv, dd = self.assemble_rhs(SpectralState(0.0, v_hat, d_hat)) if rhs is None else rhs
        return dv - self.lin_v * v_hat, dd - self.lin_d * d_hat

    def _exps(self, dt: float):
        try:
            return self._exp_cache[dt]
        except KeyError:
            exps = (
                np.exp(self.lin_v * dt / 2.0),
                np.exp(self.lin_v * dt),
                np.exp(self.lin_d * dt / 2.0),
                np.exp(self.lin_d * dt),
            )
            self._exp_cache[dt] = exps
            return exps

    def step(self, state: SpectralState, dt: float, rhs=None) -> SpectralState:
        """One integrating-factor RK4 step; dt = 0 is the identity.

        ``rhs`` is ``assemble_rhs(state)`` when the caller already has it.
        """
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        if dt == 0.0:
            return state.copy()
        evh, evf, edh, edf = self._exps(dt)
        v0, d0 = state.v_hat, state.d_hat

        av, ad = self._nonlinear(v0, d0, rhs)
        bv, bd = self._nonlinear(evh * (v0 + 0.5 * dt * av), edh * (d0 + 0.5 * dt * ad))
        cv, cd = self._nonlinear(evh * v0 + 0.5 * dt * bv, edh * d0 + 0.5 * dt * bd)
        dv, dd = self._nonlinear(evf * v0 + dt * evh * cv, edf * d0 + dt * edh * cd)

        v1 = evf * v0 + (dt / 6.0) * (evf * av + 2.0 * evh * (bv + cv) + dv)
        d1 = edf * d0 + (dt / 6.0) * (edf * ad + 2.0 * edh * (bd + cd) + dd)
        if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(d1))):
            raise BlowUpError(state.t)
        if max(np.max(np.abs(v1), initial=0.0), np.max(np.abs(d1), initial=0.0)) > BLOWUP_THRESHOLD:
            raise BlowUpError(state.t)
        return SpectralState(state.t + dt, v1, d1)


def _project_sampled(basis, field: np.ndarray) -> np.ndarray:
    """Coefficients of a grid field, by quadrature on its own grid."""
    n = field.shape[0]
    if n <= 2 * basis.k_max:
        m = max(8, 2 * basis.k_max + 2)
        raise ValueError(
            f"field of shape {field.shape} is too coarse for retained modes up to "
            f"|k|_inf = {basis.k_max}: sample it on at least {(m, m, m, 3)}"
        )
    return basis.on_grid(SpectralGrid(n)).analyze(field)


# ---------------------------------------------------------------------------
# Building a system and running a configuration


def _coefs_from_directive(directive, basis, kind: str) -> np.ndarray:
    coefs = np.zeros(basis.size)
    if directive[0] == "zero":
        return coefs
    if directive[0] == "constant":  # director only; the parser refuses it elsewhere
        const = basis.is_const
        coefs[const] = np.sqrt(basis.grid.volume) * np.vecdot(basis.vecs[const], directive[1])
        return coefs
    if directive[0] == "mode":
        _, k, branch, parity, amp = directive
        m = basis.modes
        hit = np.flatnonzero(
            (m["k"] == k).all(axis=1)
            & (m["branch"] == branch)
            & (m["parity"] == (COS if parity == "cos" else SIN))
        )
        if hit.size == 0:
            raise ConfigError(f"key '{kind}': mode k={k} branch={branch} {parity} not in retained basis")
        coefs[hit[0]] = amp
        return coefs
    if directive[0] == "random":
        _, seed, amp = directive
        rng = np.random.default_rng(seed)
        return rng.uniform(-amp, amp, basis.size)
    raise ConfigError(f"key '{kind}': unknown directive {directive!r}")


# Highest product degree among the right-hand-side and ledger pairings: the
# mu1 stress against grad w_i and mu1 ||d.Sv d||^2 (see the basis module).
FLOW_DEGREE = 6


class TransformGrid(NamedTuple):
    """The quadrature grid chosen for a model and its two bases."""

    n: int  # configured N, the largest transform grid
    n_q: int  # transform grid used
    degree: int | None  # highest product degree, None for a non-polynomial F
    k_max: int

    def __str__(self) -> str:
        if self.degree is None:
            why = "energy not polynomial"
        else:
            why = f"degree {self.degree}, k_max {self.k_max}"
        return f"grid: N = {self.n}, transform grid {self.n_q} ({why})"


def transform_grid(
    n: int, model: FreeEnergyModel, velocity_basis: VelocityBasis, director_basis: DirectorBasis
) -> TransformGrid:
    """The smallest grid on which every pairing of the system is
    quadrature-exact, capped at N = n; n when F is not polynomial."""
    degree = None if model.degree is None else max(FLOW_DEGREE, model.degree)
    k_max = max(velocity_basis.k_max, director_basis.k_max)
    return TransformGrid(n, transform_grid_size(n, k_max, degree), degree, k_max)


def build_system(config: SimulationConfig) -> GalerkinSystem:
    """The configured system, its bases re-homed onto the transform grid."""
    model = config.build_model()
    coeffs = config.build_coefficients()
    margins = check_dissipativity(coeffs)
    if not margins.passed and not config.allow_nondissipative:
        raise ConfigError(
            "key 'allow_nondissipative': Leslie set fails dissipativity on "
            + ", ".join(margins.failures)
        )
    grid = SpectralGrid(config.n)
    vel = build_velocity_basis(grid, config.n_v)
    dirb = build_director_basis(model.d2F_dS2_const(), grid, config.n_d)
    grid = SpectralGrid(transform_grid(config.n, model, vel, dirb).n_q)
    vel, dirb = vel.on_grid(grid), dirb.on_grid(grid)
    forcing = _coefs_from_directive(config.forcing_velocity, vel, "velocity")
    return GalerkinSystem(model, coeffs, grid, vel, dirb, forcing_v_hat=forcing)


@dataclass
class SimulationResult:
    config: SimulationConfig
    system: GalerkinSystem
    states: list
    records: list

    @property
    def final_state(self) -> SpectralState:
        return self.states[-1]


def initial_state(config: SimulationConfig, system: GalerkinSystem) -> SpectralState:
    v_hat = _coefs_from_directive(config.initial_velocity, system.velocity_basis, "velocity")
    d_hat = _coefs_from_directive(config.initial_director, system.director_basis, "director")
    return SpectralState(0.0, v_hat, d_hat)


def run(config: SimulationConfig) -> SimulationResult:
    """Integrate the configured scenario, recording the energy ledger.

    The grid fields of each state are evaluated once: the ledger record (for
    recorded states) and the first RK stage of the next step share them.  A
    ``BlowUpError`` carries the records made before it.
    """
    from . import diagnostics  # local import to keep the module graph acyclic

    system = build_system(config)
    state = initial_state(config, system)
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.dt, config.t_end):
        raise ConfigError("key 't_end': must be an integer multiple of dt (fixed-step scheme)")
    states = [state]
    fields = system.fields(state)
    records = [diagnostics.energy_ledger(system, state, fields=fields)]
    try:
        for i in range(1, n_steps + 1):
            rhs = system.assemble_rhs(state, fields)
            fields = None  # not held through stages 2-4
            state = system.step(state, config.dt, rhs=rhs)
            # Keep recorded times exact multiples of dt.
            state = SpectralState(i * config.dt, state.v_hat, state.d_hat)
            fields = system.fields(state)
            if i % config.record_every == 0 or i == n_steps:
                states.append(state)
                records.append(diagnostics.energy_ledger(system, state, fields=fields))
    except BlowUpError as exc:
        exc.records = records
        exc.grid = transform_grid(config.n, system.model, system.velocity_basis, system.director_basis)
        raise
    finally:
        # Also fills the residuals of a partial ledger.
        if len(records) >= 3:
            diagnostics.energy_residual_series(records)
    return SimulationResult(config=config, system=system, states=states, records=records)


# ---------------------------------------------------------------------------
# Checkpoint files: magic, config hash, t, mode counts, then little-endian
# float64 coefficient arrays.  Reload is bit-exact; files are written to a
# temporary name and renamed into place, and a file whose length does not
# match its mode counts is rejected.

_MAGIC = b"ELGALCK1"
_COUNTS = struct.Struct("<dQQ")
_HEADER_BYTES = len(_MAGIC) + 64 + _COUNTS.size


def save_checkpoint(path, state: SpectralState, config_hash: str, n_v: int, n_d: int) -> None:
    if len(state.v_hat) != n_v or len(state.d_hat) != n_d:
        raise ValueError("mode counts do not match the state")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(config_hash.encode("ascii").ljust(64, b"0")[:64])
            fh.write(_COUNTS.pack(state.t, n_v, n_d))
            fh.write(np.ascontiguousarray(state.v_hat, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(state.d_hat, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[SpectralState, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a checkpoint file")
    if len(data) < _HEADER_BYTES:
        raise ValueError(
            f"checkpoint {path}: expected at least {_HEADER_BYTES} header bytes, got {len(data)}"
        )
    config_hash = data[len(_MAGIC) : len(_MAGIC) + 64].decode("ascii")
    t, n_v, n_d = _COUNTS.unpack_from(data, len(_MAGIC) + 64)
    expected = _HEADER_BYTES + 8 * (n_v + n_d)
    if len(data) != expected:
        raise ValueError(
            f"checkpoint {path}: expected {expected} bytes for {n_v} + {n_d} coefficients, "
            f"got {len(data)}"
        )
    v_hat = np.frombuffer(data, "<f8", n_v, _HEADER_BYTES).astype(np.float64)
    d_hat = np.frombuffer(data, "<f8", n_d, _HEADER_BYTES + 8 * n_v).astype(np.float64)
    state = SpectralState(t, v_hat, d_hat)
    return state, {"config_hash": config_hash, "n_v": n_v, "n_d": n_d}
