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
pairings are exact for the retained modes (``transform_grid``).  An energy
that is not polynomial has no such grid, so ``build_system`` keeps N and
``fit_transform_grid`` then measures, on the initial state, the smallest
grid whose q_hat matches N's to rounding; ``run`` re-checks that at every
record and moves to N for good when it fails.  With -(T : grad w_i) =
(div T, w_i), T's band divergence joins the velocity forcing, so one
``analyze_spec_half`` gathers it all.

Time stepping is fixed-step integrating-factor RK4 on the stacked
coefficient vector u = (v_hat, d_hat): its diagonal linear part ``lin``
(-(mu4/2) |k|^2 for the velocity modes, then -gamma * sigma_i for the
director modes) is integrated exactly through one exponential factor per
step fraction, everything else by classical RK4 on the transformed variable.
Each step forms its two exponential factors for its own dt.  It raises
``BlowUpError`` on a stage vector or result that is not finite or exceeds
``BLOWUP_THRESHOLD``, before any stage evaluates it, so no stage overflows.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diagnostics
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
        transform: TransformGrid | None = None,
    ):
        if not velocity_basis.grid == grid == director_basis.grid:
            raise ValueError("both bases must be on the system's grid (see on_grid)")
        # The grid decision this system runs on; by default the given grid is N.
        if transform is None:
            transform = transform_grid(grid.n, model, velocity_basis, director_basis)._replace(n_q=grid.n)
        self.transform = transform
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
        # Stiff diagonal of u = (v_hat, d_hat), integrated exactly by the stepper.
        self.lin = np.concatenate(
            (-(coeffs.mu4 / 2.0) * velocity_basis.eigs, -coeffs.gamma * director_basis.eigs)
        )

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
        when the caller already has it.

        Every quadrature pairing goes through one forward transform of the
        15-component bundle from ``_pairing_bundle``.  ``rfft``'s argument is
        the bundle's only reference, so ``rfft`` frees its 15 planes after
        its x pass, before the y and z passes allocate theirs."""
        c = self.coeffs
        grid = self.grid
        if fields is None:
            fields = self.fields(state)
        spec = grid.rfft(self._pairing_bundle(fields)).reshape(-1, 15)
        dd_hat = -self.director_basis.analyze_spec_half(spec[:, 0:3]) - c.gamma * fields.q_hat
        force = spec[:, 3:6] + grid.divergence(spec[:, 6:15].reshape(-1, 3, 3))
        dv_hat = self.forcing_v_hat + self.lin[: self.velocity_basis.size] * state.v_hat
        dv_hat += self.velocity_basis.analyze_spec_half(force)
        return dv_hat, dd_hat

    def _pairing_bundle(self, fields: StateFields) -> np.ndarray:
        """Transport, director force - convection and the coupling stress,
        written in place into one component-major (n, n, n, 15) field."""
        c = self.coeffs
        n = self.grid.n
        d, grad_d, _, q, v, grad_v, svd, wvd = fields
        planes = np.empty((15, n, n, n))
        transport, force = planes[0:3].transpose(1, 2, 3, 0), planes[3:6].transpose(1, 2, 3, 0)
        np.einsum("...ia,...a->...i", grad_d, v, out=transport)
        transport -= wvd
        transport += c.lam * svd
        np.einsum("...ji,...j->...i", grad_d, q, out=force)
        force -= np.einsum("...ia,...a->...i", grad_v, v)  # convection
        # The mu4 Sv part of the stress is the velocity slice of the diagonal lin.
        stress = planes[6:15].reshape(3, 3, n, n, n).transpose(2, 3, 4, 0, 1)
        coupling_stress(c, d, q, svd, out=stress)
        return planes.transpose(1, 2, 3, 0)

    def step(self, state: SpectralState, dt: float, rhs=None) -> SpectralState:
        """One integrating-factor RK4 step; at dt = 0 ``state`` itself.

        ``rhs`` is ``assemble_rhs(state)`` when the caller already has it.
        A stage vector above ``BLOWUP_THRESHOLD`` or not finite is refused
        before it is evaluated, and so is such a result.
        """
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        if dt == 0.0:
            return state
        nv = self.velocity_basis.size

        def checked(u):
            if not np.abs(u).max() <= BLOWUP_THRESHOLD:  # NaN fails too
                raise BlowUpError(state.t)
            return u

        def stage(u, rhs=None):
            checked(u)
            if rhs is None:
                rhs = self.assemble_rhs(SpectralState(state.t, u[:nv], u[nv:]))
            return np.concatenate(rhs) - self.lin * u

        eh, ef = np.exp(self.lin * dt / 2.0), np.exp(self.lin * dt)
        u0 = np.concatenate((state.v_hat, state.d_hat))
        a = stage(u0, rhs)
        b = stage(eh * (u0 + 0.5 * dt * a))
        c = stage(eh * u0 + 0.5 * dt * b)
        d = stage(ef * u0 + dt * eh * c)
        u1 = checked(ef * u0 + (dt / 6.0) * (ef * a + 2.0 * eh * (b + c) + d))
        return SpectralState(state.t + dt, u1[:nv], u1[nv:])


def _project_sampled(basis, field: np.ndarray) -> np.ndarray:
    """Coefficients of a grid field, by quadrature on its own grid."""
    n = field.shape[0]
    if n <= 2 * basis.k_max:
        m = max(8, 2 * basis.k_max + 2)
        raise ValueError(
            f"field of shape {field.shape} is too coarse for retained modes up to "
            f"|k|_inf = {basis.k_max}: sample it on at least {(m, m, m, 3)}"
        )
    return basis.on_grid(SpectralGrid(n, basis.k_max)).analyze(field)


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


# Largest max|q_hat on n - q_hat on N| / max|q_hat on N| at which a grid n
# < N stands in for N when F is not polynomial: rounding level.
ALIAS_TOL = 1e-14


class TransformGrid(NamedTuple):
    """The quadrature grid chosen for a model and its two bases: by the
    product degree for a polynomial F, else measured on the initial state
    (``fit_transform_grid``)."""

    n: int  # configured N, the largest transform grid
    n_q: int  # transform grid chosen
    degree: int | None  # highest product degree, None for a non-polynomial F
    k_max: int
    # For a non-polynomial F sized below N: the measured relative q_hat
    # difference from N at t = 0, and the time of the record whose re-check
    # moved the run to N (it ran on n_q before, on N from there).
    estimate: float | None = None
    moved_at: float | None = None

    def __str__(self) -> str:
        if self.degree is not None:
            why = f"degree {self.degree}, k_max {self.k_max}"
        elif self.estimate is None:
            why = "energy not polynomial"
        else:
            why = f"energy not polynomial; q_hat within {self.estimate:.2g} of N = {self.n} at t = 0"
            if self.moved_at is not None:
                why += f"; moved to N at t = {self.moved_at:.6g}"
        return f"grid: N = {self.n}, transform grid {self.n_q} ({why})"


def transform_grid(
    n: int, model: FreeEnergyModel, velocity_basis: VelocityBasis, director_basis: DirectorBasis
) -> TransformGrid:
    """The smallest grid on which every pairing of the system is
    quadrature-exact, capped at N = n.  When F is not polynomial this is n;
    ``fit_transform_grid`` then sizes the grid by measurement."""
    degree = None if model.degree is None else max(FLOW_DEGREE, model.degree)
    k_max = max(velocity_basis.k_max, director_basis.k_max)
    return TransformGrid(n, transform_grid_size(n, k_max, degree), degree, k_max)


def _alias_error(q_hat: np.ndarray, q_ref: np.ndarray) -> float:
    """max|q_hat - q_ref| relative to max|q_ref|; 0 when both vanish."""
    err = float(np.max(np.abs(q_hat - q_ref), initial=0.0))
    scale = float(np.max(np.abs(q_ref), initial=0.0))
    return err / scale if scale > 0.0 else (0.0 if err == 0.0 else np.inf)


def fit_transform_grid(system: GalerkinSystem, state: SpectralState) -> GalerkinSystem:
    """``system`` on the smallest grid whose q_hat at ``state`` is within
    ``ALIAS_TOL`` of the N grid's, for an energy that is not polynomial.

    The candidates are the even n from the grid that makes every flow
    pairing exact (``FLOW_DEGREE``) up to N - 2.  ``system`` itself comes
    back when F is polynomial (``build_system`` already sized it), when it
    holds data sampled on the N grid, when no candidate lies below N or
    when none passes.  Both bases are re-homed with ``on_grid``, so the
    coefficients of ``state`` stay valid.
    """
    tg = system.transform
    start = transform_grid_size(tg.n, tg.k_max, FLOW_DEGREE)
    if tg.degree is not None or system.model.grid_sampled or system.grid.n != tg.n or start >= tg.n:
        return system
    q_ref = system.director_eval(state.d_hat)[2]
    for n_q in range(start, tg.n, 2):
        grid = SpectralGrid(n_q, tg.k_max)
        dirb = system.director_basis.on_grid(grid)
        estimate = _alias_error(energy_gradient(system.model, dirb, state.d_hat)[2], q_ref)
        if estimate <= ALIAS_TOL:
            return GalerkinSystem(
                system.model,
                system.coeffs,
                grid,
                system.velocity_basis.on_grid(grid),
                dirb,
                forcing_v_hat=system.forcing_v_hat,
                transform=tg._replace(n_q=n_q, estimate=estimate),
            )
    return system


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
    tg = transform_grid(config.n, model, vel, dirb)
    grid = SpectralGrid(tg.n_q, tg.k_max)
    vel, dirb = vel.on_grid(grid), dirb.on_grid(grid)
    forcing = _coefs_from_directive(config.forcing_velocity, vel, "velocity")
    return GalerkinSystem(model, coeffs, grid, vel, dirb, forcing_v_hat=forcing, transform=tg)


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

    A run that ``fit_transform_grid`` put below N re-evaluates q_hat on N at
    every later record.  Where the two differ by more than ``ALIAS_TOL``,
    that record and the rest of the run are made on N.
    """
    full = build_system(config)
    state = initial_state(config, full)
    system = fit_transform_grid(full, state)
    n_steps = int(round(config.t_end / config.dt))
    states, records = [], []
    try:
        for i in range(n_steps + 1):
            if i > 0:
                rhs = system.assemble_rhs(state, fields)
                fields = None  # not held through stages 2-4
                state = system.step(state, config.dt, rhs=rhs)
                # Keep recorded times exact multiples of dt.
                state = SpectralState(i * config.dt, state.v_hat, state.d_hat)
            fields = system.fields(state)
            if i % config.record_every == 0 or i == n_steps:
                if i > 0 and system is not full:
                    q_full = full.director_eval(state.d_hat)[2]
                    if _alias_error(fields.q_hat, q_full) > ALIAS_TOL:
                        full.transform = system.transform._replace(moved_at=state.t)
                        system = full
                        fields = system.fields(state)
                states.append(state)
                records.append(diagnostics.energy_ledger(system, state, fields=fields))
    except BlowUpError as exc:
        exc.records = records
        exc.grid = system.transform
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
            fh.write(np.concatenate((state.v_hat, state.d_hat), dtype="<f8").tobytes())
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
    u = np.frombuffer(data, "<f8", n_v + n_d, _HEADER_BYTES).astype(np.float64)
    state = SpectralState(t, u[:n_v], u[n_v:])
    return state, {"config_hash": config_hash, "n_v": n_v, "n_d": n_d}
