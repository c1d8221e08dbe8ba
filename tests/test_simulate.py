import dataclasses
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from elgal import basis as basis_module
from elgal import simulate
from elgal.basis import SpectralGrid, build_director_basis, build_velocity_basis
from elgal.cli import main
from elgal.config import ConfigError, parse_config
from elgal.diagnostics import (
    LEDGER_COLUMNS,
    energy_ledger,
    energy_residual_series,
)
from elgal.energies import (
    GinzburgLandau,
    ScaledOseenFrank,
    SimplifiedOseenFrank,
    WithField,
    WithFreedom,
    energy_gradient,
    variational_derivative,
)
from elgal.leslie import coupling_stress
from elgal.scenarios import _base_config
from elgal.simulate import (
    BLOWUP_THRESHOLD,
    BlowUpError,
    GalerkinSystem,
    SpectralState,
    build_system,
    fit_transform_grid,
    initial_state,
    load_checkpoint,
    run,
    save_checkpoint,
    transform_grid,
)
from elgal.tensors import sym
from oracles import (
    axes_points,
    full_mesh_derivatives,
    gateaux_check,
    gradient_of,
    grid_assemble_rhs,
    if_rk4_step,
    is_component_major,
    l2_norm,
    pairing_bundle,
    traced_peak,
)

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# The benchmark's three workloads.
WORKLOADS = {
    "gl-n32-full": _base_config(
        n=32, initial_velocity=("random", 6, 0.1), initial_director=("random", 7, 0.1)
    ),
    "sof-twist-n16": parse_config(CONFIGS / "sof_twist.cfg"),
    "scof-n16": dataclasses.replace(parse_config(CONFIGS / "scaled_anisotropy.cfg"), n=16),
}

# Configs on which the stepper is checked against the per-component oracle.
STEPPED = {
    "gl-n8": _base_config(
        n=8,
        initial_velocity=("random", 2, 0.3),
        initial_director=("random", 3, 0.3),
        forcing_velocity=("mode", (0, 0, 1), 0, "cos", 0.05),
    ),
    **{
        name: parse_config(CONFIGS / f"{name}.cfg")
        for name in ("sof_twist", "scaled_anisotropy", "with_freedom_anisotropy")
    },
}

WITH_FREEDOM = _base_config(
    n=8,
    n_v=36,
    n_d=57,
    model_type="with_freedom",
    model_params={"b": np.array([0.3, -0.2, 0.4]), "b_bar": 0.5},
)


@pytest.fixture(scope="module")
def gl8():
    """Small coupled system: GL energy, accepted viscosities, N = 8."""
    cfg = _base_config(n=8, n_v=36, n_d=57, dt=1e-3, t_end=0.02)
    return build_system(cfg), cfg


@pytest.fixture(scope="module")
def dirichlet8():
    cfg = _base_config(
        n=8,
        n_v=12,
        n_d=21,
        model_params={"eps": 1.0, "penalty": False},
        mu=(1.0, -0.5, 0.5, 1.0, 0.0, 1.0),  # gamma = 1
    )
    return build_system(cfg), cfg


class TestInitialProjection:
    def test_in_span_fields_reproduce(self, gl8, rng):
        system, _ = gl8
        v_hat = rng.uniform(-0.5, 0.5, system.velocity_basis.size)
        d_hat = rng.uniform(-0.5, 0.5, system.director_basis.size)
        v0 = system.velocity_basis.synthesize(v_hat)
        d0 = system.director_basis.synthesize(d_hat)
        state = system.initial_projection(v0, d0)
        assert state.t == 0.0
        assert np.max(np.abs(state.v_hat - v_hat)) < 1e-12
        assert np.max(np.abs(state.d_hat - d_hat)) < 1e-12

    def test_nonsolenoidal_velocity_gets_projected(self, gl8, rng):
        system, _ = gl8
        grid = system.grid
        x = axes_points(grid)
        v0 = np.zeros((8, 8, 8, 3))
        v0[..., 0] = np.cos(x)[:, None, None]  # pure gradient at k = e1
        v0[..., 2] = np.cos(x)[:, None, None]  # transverse part
        state = system.initial_projection(v0, np.zeros((8, 8, 8, 3)))
        v = system.velocity_basis.synthesize(state.v_hat)
        div = np.einsum("...ii->...", gradient_of(grid, v))
        assert np.max(np.abs(div)) < 1e-12
        assert np.max(np.abs(v[..., 0])) < 1e-12
        assert abs(grid.quad(v[..., 2] ** 2) - grid.quad(v0[..., 2] ** 2)) < 1e-10

    def test_constant_director_coefficient(self, gl8):
        system, _ = gl8
        d0 = np.zeros((8, 8, 8, 3))
        d0[..., 0] = 1.0
        state = system.initial_projection(np.zeros((8, 8, 8, 3)), d0)
        expect = (2 * np.pi) ** 1.5  # sqrt(volume) against the normalized constant mode
        nonzero = state.d_hat[np.abs(state.d_hat) > 1e-12]
        assert len(nonzero) == 1
        assert abs(nonzero[0] - expect) < 1e-12


    def test_field_sampled_on_its_own_grid(self, rng):
        # sof_twist.cfg runs on an 8^3 transform grid; a field sampled on the
        # configured 16^3 grid projects as it does with the 16^3 bases.
        system = build_system(parse_config(str(CONFIGS / "sof_twist.cfg")))
        assert system.grid.n == 8
        grid16 = SpectralGrid(16)
        vel16 = system.velocity_basis.on_grid(grid16)
        dir16 = system.director_basis.on_grid(grid16)
        v0 = vel16.synthesize(rng.uniform(-0.5, 0.5, vel16.size))
        d0 = dir16.synthesize(rng.uniform(-0.5, 0.5, dir16.size))
        state = system.initial_projection(v0, d0)
        assert np.max(np.abs(state.v_hat - vel16.analyze(v0))) <= 1e-13
        assert np.max(np.abs(state.d_hat - dir16.analyze(d0))) <= 1e-13

    def test_grid_too_coarse_for_retained_modes_is_refused(self):
        system = build_system(_base_config(n=16))  # full bases, k_max = 5
        assert system.director_basis.k_max == 5
        ok = np.zeros((12, 12, 12, 3))
        coarse = np.zeros((8, 8, 8, 3))
        system.initial_projection(ok, ok)
        for v0, d0 in ((coarse, ok), (ok, coarse)):
            with pytest.raises(ValueError) as info:
                system.initial_projection(v0, d0)
            assert "(8, 8, 8, 3)" in str(info.value) and "(12, 12, 12, 3)" in str(info.value)


class TestComputeQ:
    def test_constant_unit_director(self, gl8):
        system, _ = gl8
        d_hat = np.zeros(system.director_basis.size)
        d_hat[0] = np.sqrt(system.grid.volume)
        _, _, q_hat = system.director_eval(d_hat)
        assert np.max(np.abs(q_hat)) < 1e-12

    def test_eigenmode_relation(self, dirichlet8):
        system, _ = dirichlet8
        d_hat = np.zeros(system.director_basis.size)
        d_hat[10] = 0.4  # sigma = 1 mode
        _, _, q_hat = system.director_eval(d_hat)
        assert np.max(np.abs(q_hat - d_hat)) < 1e-12

    def test_projection_discards_out_of_span_part(self, gl8, rng):
        system, _ = gl8
        grid = system.grid
        d_hat = rng.uniform(-0.8, 0.8, system.director_basis.size)
        d, gd, hd = full_mesh_derivatives(system.director_basis, d_hat, hessian=True)
        q_grid = variational_derivative(system.model, d, gd, hd)
        _, _, q_hat = system.director_eval(d_hat)
        norm_raw = l2_norm(grid, q_grid)
        norm_proj = float(np.sqrt(q_hat @ q_hat))
        assert norm_proj < norm_raw  # cubic well pushes content past the span
        assert norm_raw < np.inf

    def test_fast_path_matches_full_derivative(self, gl8, rng):
        # The weak-form q_hat against the projected strong-form oracle.
        system, _ = gl8
        basis = system.director_basis
        d_hat = rng.uniform(-0.5, 0.5, basis.size)
        _, _, q_weak = system.director_eval(d_hat)
        d, gd, hd = full_mesh_derivatives(basis, d_hat, hessian=True)
        q_full = basis.analyze(variational_derivative(system.model, d, gd, hd))
        assert np.max(np.abs(q_weak - q_full)) < 1e-11


class TestAssembleRhs:
    def test_zero_state_zero_rhs(self, gl8):
        system, _ = gl8
        state = SpectralState(
            0.0,
            np.zeros(system.velocity_basis.size),
            np.zeros(system.director_basis.size),
        )
        dv, dd = system.assemble_rhs(state)
        assert np.array_equal(dv, np.zeros_like(dv))
        assert np.array_equal(dd, np.zeros_like(dd))

    def test_pure_relaxation_is_diagonal(self, dirichlet8, rng):
        system, _ = dirichlet8
        d_hat = rng.uniform(-0.5, 0.5, system.director_basis.size)
        state = SpectralState(0.0, np.zeros(system.velocity_basis.size), d_hat)
        dv, dd = system.assemble_rhs(state)
        gamma = system.coeffs.gamma
        assert np.max(np.abs(dd + gamma * system.director_basis.eigs * d_hat)) < 1e-12

    def test_single_mode_relaxation_forces_no_flow(self, dirichlet8):
        # For one eigenmode the elastic force (grad d)^T q is a pure gradient
        # and the director stress pairings vanish on the solenoidal span.
        system, _ = dirichlet8
        d_hat = np.zeros(system.director_basis.size)
        d_hat[10] = 0.5
        state = SpectralState(0.0, np.zeros(system.velocity_basis.size), d_hat)
        dv, dd = system.assemble_rhs(state)
        assert np.max(np.abs(dv)) < 1e-13
        assert abs(dd[10] + system.coeffs.gamma * system.director_basis.eigs[10] * 0.5) < 1e-13

    def test_stokes_diagonal_with_quadrature_oracle(self, gl8):
        system, _ = gl8
        v_hat = np.zeros(system.velocity_basis.size)
        v_hat[0] = 0.7
        state = SpectralState(0.0, v_hat, np.zeros(system.director_basis.size))
        dv, dd = system.assemble_rhs(state)
        # Independent oracle: mu4 (sym grad v : grad w_i) by direct quadrature.
        grid = system.grid
        _, grad_v = system.velocity_basis.synthesize_with_derivatives(v_hat)
        sv = sym(grad_v)
        mu4 = system.coeffs.mu4
        oracle = np.empty_like(v_hat)
        for i in range(len(v_hat)):
            _, gw = system.velocity_basis.synthesize_with_derivatives(
                np.eye(len(v_hat))[i]
            )
            oracle[i] = -mu4 * grid.quad(np.sum(sv * gw, axis=(-2, -1)))
        assert np.max(np.abs(dv - oracle)) < 1e-12
        ksq = system.velocity_basis.eigs[0]
        assert abs(dv[0] + 0.5 * mu4 * ksq * v_hat[0]) < 1e-13
        assert np.max(np.abs(dd)) < 1e-13


    @pytest.mark.parametrize(
        "name", ["gl8", "with_freedom", "sof_twist.cfg", "gl_mixing.cfg", "scaled_anisotropy.cfg"]
    )
    def test_matches_grid_pairing_of_every_term(self, name, rng):
        # The solver applies mu4 Sv and Lam : grad d as eigenbasis diagonals;
        # pairing them on the grid instead gives the same right-hand side.
        if name == "gl8":
            cfg = _base_config(n=8, n_v=36, n_d=57)
        elif name == "with_freedom":
            cfg = WITH_FREEDOM
        else:
            cfg = parse_config(str(CONFIGS / name))
        system = build_system(cfg)
        state = SpectralState(
            0.0,
            rng.uniform(-0.5, 0.5, system.velocity_basis.size),
            rng.uniform(-0.5, 0.5, system.director_basis.size),
        )
        for got, want in zip(system.assemble_rhs(state), grid_assemble_rhs(system, state)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStep:
    def test_exact_exponential_single_step(self, dirichlet8):
        system, _ = dirichlet8
        d_hat = np.zeros(system.director_basis.size)
        d_hat[10] = 0.5
        state = SpectralState(0.0, np.zeros(system.velocity_basis.size), d_hat)
        out = system.step(state, 1e-3)
        expect = 0.5 * np.exp(-system.coeffs.gamma * system.director_basis.eigs[10] * 1e-3)
        assert abs(out.d_hat[10] - expect) < 1e-16
        assert out.t == 1e-3

    def test_zero_step_is_identity(self, gl8, rng):
        system, _ = gl8
        state = SpectralState(
            0.5,
            rng.uniform(-1, 1, system.velocity_basis.size),
            rng.uniform(-1, 1, system.director_basis.size),
        )
        out = system.step(state, 0.0)
        assert np.array_equal(out.v_hat, state.v_hat)
        assert np.array_equal(out.d_hat, state.d_hat)

    def test_fourth_order_self_convergence(self, gl8):
        _, cfg = gl8
        base = dataclasses.replace(
            cfg,
            t_end=0.2,
            initial_velocity=("random", 11, 1.0),
            initial_director=("random", 12, 1.0),
        )
        ref = run(dataclasses.replace(base, dt=2e-2 / 64.0)).final_state

        def err(dt):
            final = run(dataclasses.replace(base, dt=dt)).final_state
            return max(
                np.max(np.abs(final.v_hat - ref.v_hat)),
                np.max(np.abs(final.d_hat - ref.d_hat)),
            )

        e1, e2 = err(2e-2), err(1e-2)
        ratio = e1 / e2
        assert 11.0 < ratio < 23.0, (e1, e2, ratio)

    @pytest.mark.parametrize("cfg", STEPPED.values(), ids=STEPPED)
    def test_matches_per_component_oracle(self, cfg):
        system = build_system(cfg)
        state = expect = initial_state(cfg, system)
        for _ in range(3):
            state, expect = system.step(state, cfg.dt), if_rk4_step(system, expect, cfg.dt)
            assert state.t == expect.t
            assert state.v_hat.tobytes() == expect.v_hat.tobytes()
            assert state.d_hat.tobytes() == expect.d_hat.tobytes()

    @pytest.mark.parametrize("value", [np.nan, 2.0 * BLOWUP_THRESHOLD], ids=["nan", "huge"])
    def test_director_blow_up_detected(self, dirichlet8, value):
        # Only the director is bad, in a constant mode: under the Dirichlet
        # energy that mode neither relaxes nor drives the flow, so a huge
        # value stays in the director and only its threshold test sees it.
        system, _ = dirichlet8
        d_hat = np.zeros(system.director_basis.size)
        d_hat[np.flatnonzero(system.director_basis.is_const)[0]] = value
        state = SpectralState(0.5, np.zeros(system.velocity_basis.size), d_hat)
        with pytest.raises(BlowUpError) as info:
            system.step(state, 1e-3)
        assert info.value.last_good_time == 0.5

    def test_stage_refused_before_it_is_evaluated(self, gl8, monkeypatch):
        # A finite state under the threshold whose cubic GL force throws the
        # second stage past it: only the first stage is evaluated, and no
        # stage overflows on the way to the BlowUpError.
        _, cfg = gl8
        cfg = dataclasses.replace(cfg, initial_director=("random", 3, 1e6))
        system = build_system(cfg)
        start = initial_state(cfg, system)
        state = SpectralState(0.25, start.v_hat, start.d_hat)
        assert np.abs(state.d_hat).max() <= BLOWUP_THRESHOLD
        calls = []
        assemble_rhs = GalerkinSystem.assemble_rhs

        def counted(self, state, fields=None):
            calls.append(1)
            return assemble_rhs(self, state, fields)

        monkeypatch.setattr(GalerkinSystem, "assemble_rhs", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError) as info:
                system.step(state, cfg.dt)
        assert info.value.last_good_time == 0.25
        assert len(calls) == 1
        assert [str(w.message) for w in caught] == []


class TestRun:
    def test_zero_t_end_single_record(self, gl8):
        _, cfg = gl8
        result = run(dataclasses.replace(cfg, t_end=0.0))
        assert len(result.records) == 1
        assert result.records[0].t == 0.0

    def test_zero_data_stays_zero(self, gl8):
        _, cfg = gl8
        result = run(dataclasses.replace(cfg, t_end=0.01))
        final = result.final_state
        assert np.array_equal(final.v_hat, np.zeros_like(final.v_hat))
        assert np.array_equal(final.d_hat, np.zeros_like(final.d_hat))

    def test_energy_monotone_without_forcing(self, gl8):
        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg,
            t_end=0.05,
            initial_velocity=("random", 5, 0.1),
            initial_director=("random", 6, 0.1),
        )
        result = run(cfg)
        totals = np.array([r.total for r in result.records])
        assert np.all(np.diff(totals) <= 1e-10)

    def test_solenoidality_and_reality_along_trajectory(self, gl8):
        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg,
            t_end=0.02,
            initial_velocity=("random", 7, 0.2),
            initial_director=("random", 8, 0.2),
        )
        result = run(cfg)
        grid = result.system.grid
        for state in result.states[:: max(1, len(result.states) // 4)]:
            v = result.system.velocity_basis.synthesize(state.v_hat)
            div = np.einsum("...ii->...", gradient_of(grid, v))
            assert np.max(np.abs(div)) < 1e-12
            assert np.all(np.isfinite(v))

    def test_galerkin_weak_residual_order(self, gl8):
        """Centered differences of retained coefficients converge to the
        assembled right-hand side at second order in the record spacing."""
        _, cfg = gl8

        def max_residual(dt):
            c = dataclasses.replace(
                cfg,
                dt=dt,
                t_end=20 * dt,
                initial_velocity=("random", 5, 0.1),
                initial_director=("random", 6, 0.1),
            )
            result = run(c)
            worst = 0.0
            for i in range(1, len(result.states) - 1):
                prev, cur, nxt = result.states[i - 1 : i + 2]
                fd_v = (nxt.v_hat - prev.v_hat) / (nxt.t - prev.t)
                fd_d = (nxt.d_hat - prev.d_hat) / (nxt.t - prev.t)
                dv, dd = result.system.assemble_rhs(cur)
                worst = max(worst, np.max(np.abs(fd_v - dv)), np.max(np.abs(fd_d - dd)))
            return worst

        r1, r2 = max_residual(4e-3), max_residual(2e-3)
        assert 3.0 < r1 / r2 < 5.5, (r1, r2)

    def test_energy_residual_order_scaled_oseen_frank(self):
        """The energy-balance residual of a non-polynomial energy falls at
        second order in dt: the projected q is the exact gradient of the
        quadrature energy, so no spatial error floor remains."""
        cfg = parse_config(CONFIGS / "scaled_anisotropy.cfg")
        cfg = dataclasses.replace(
            cfg,
            model_params={**cfg.model_params, "k3": 0.3, "k4": 0.2},
            n=12,
            n_v=None,
            n_d=None,
            initial_director=("random", 5, 0.3),
            record_every=1,
            t_end=0.02,
        )
        worst = []
        for dt in (2e-3, 1e-3, 5e-4):
            residuals, _ = energy_residual_series(run(dataclasses.replace(cfg, dt=dt)).records)
            worst.append(float(np.max(np.abs(residuals[1:-1]))))
        ratios = [worst[0] / worst[1], worst[1] / worst[2]]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios

    def test_dissipativity_gate(self):
        cfg = _base_config(n=8, mu=(1.0, -1.0, 1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ConfigError, match="dissipativity"):
            build_system(cfg)

    def test_non_divisible_horizon_rejected(self, gl8):
        _, cfg = gl8
        with pytest.raises(ConfigError, match="t_end"):
            run(dataclasses.replace(cfg, dt=3e-3, t_end=0.01))

    def test_blow_up_detected(self):
        cfg = _base_config(
            n=8,
            n_v=12,
            n_d=3,
            mu=(1.0, -1.0, 1.0, -40.0, 0.0, 1.0),  # negative bulk viscosity
            allow_nondissipative=True,
            dt=0.01,
            t_end=2.0,
            initial_velocity=("mode", (0, 0, 1), 0, "cos", 1.0),
        )
        with pytest.raises(BlowUpError) as info:
            run(cfg)
        assert 0.0 < info.value.last_good_time <= 2.0


class TestFieldSharing:
    """``run`` evaluates the fields of each state once, for the ledger and the
    first RK stage together, and the records stay those of a fresh ledger."""

    @pytest.mark.parametrize("record_every, t_end", [(1, 0.005), (3, 0.007)])
    def test_one_director_eval_per_state(self, gl8, monkeypatch, record_every, t_end):
        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg,
            t_end=t_end,
            record_every=record_every,
            initial_velocity=("random", 5, 0.1),
            initial_director=("random", 6, 0.1),
        )
        calls = []
        director_eval = GalerkinSystem.director_eval

        def counted(self, d_hat):
            calls.append(1)
            return director_eval(self, d_hat)

        monkeypatch.setattr(GalerkinSystem, "director_eval", counted)
        result = run(cfg)
        steps = round(t_end / cfg.dt)
        assert len(calls) == 4 * steps + 1
        monkeypatch.undo()

        assert [s.t for s in result.states] == [r.t for r in result.records]
        fresh = [energy_ledger(result.system, s) for s in result.states]
        energy_residual_series(fresh)
        for rec, ref in zip(result.records, fresh, strict=True):
            assert np.array(rec.row()).tobytes() == np.array(ref.row()).tobytes()


class TestFieldLayout:
    """Every grid field of a state is component-major, as the transforms
    write it: the pointwise layer then runs on contiguous n^3 planes."""

    @pytest.mark.parametrize("cfg", WORKLOADS.values(), ids=WORKLOADS)
    def test_fields_are_component_major(self, cfg, monkeypatch):
        system = build_system(cfg)
        fields = system.fields(initial_state(cfg, system))
        n = system.grid.n
        for name in ("d", "grad_d", "q", "v", "grad_v", "svd", "wvd"):
            field = getattr(fields, name)
            assert field.shape[:3] == (n, n, n)
            assert is_component_major(field), name
        stress = coupling_stress(system.coeffs, fields.d, fields.q, fields.svd)
        assert is_component_major(stress)
        # With out=, the stress is written into it and returned, bytes unchanged.
        out = np.empty((3, 3, n, n, n)).transpose(2, 3, 4, 0, 1)
        assert coupling_stress(system.coeffs, fields.d, fields.q, fields.svd, out=out) is out
        assert out.tobytes() == stress.tobytes()
        assert is_component_major(out)
        # The 15-component bundle assemble_rhs hands to rfft, written in
        # place: byte for byte the bundle joined from separate arrays.
        bundles = []
        rfft = SpectralGrid.rfft

        def recording_rfft(grid, field):
            bundles.append(field)
            return rfft(grid, field)

        monkeypatch.setattr(SpectralGrid, "rfft", recording_rfft)
        system.assemble_rhs(initial_state(cfg, system), fields)
        assert [b.shape for b in bundles] == [(n, n, n, 15)]
        assert is_component_major(bundles[0])
        assert bundles[0].tobytes() == pairing_bundle(system, fields).tobytes()


class TestEnergyIdentity:
    """q_hat is the exact coefficient gradient of the quadrature energy, so
    the semi-discrete system has dE/dt = v_hat.f_v + q_hat.f_d exactly, with
    (f_v, f_d) from assemble_rhs: at every state that power equals the
    ledger's g_power + cross - D to rounding, for any energy and dt."""

    @pytest.mark.parametrize(
        "cfg",
        [
            *WORKLOADS.values(),
            dataclasses.replace(
                WITH_FREEDOM,
                initial_velocity=("random", 6, 0.3),
                initial_director=("random", 7, 0.3),
            ),
        ],
        ids=[*WORKLOADS, "with_freedom"],
    )
    def test_power_matches_the_ledger_at_each_state(self, cfg):
        system = build_system(cfg)
        state = initial_state(cfg, system)
        for _ in range(4):
            fields = system.fields(state)
            rhs = system.assemble_rhs(state, fields)
            f_v, f_d = rhs
            rec = energy_ledger(system, state, fields)
            power = state.v_hat @ f_v + fields.q_hat @ f_d
            delta = power - (rec.g_power + rec.cross - rec.dissipation)
            assert rec.dissipation > 0.0
            assert abs(delta) <= 1e-14 * rec.dissipation
            state = system.step(state, cfg.dt, rhs)


class TestWorkingSet:
    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11 the caller holds its arguments during a call"
    )
    def test_assemble_rhs_stays_within_28_planes(self):
        # gl-n32-full, (32, 10): the 15-plane bundle, then at most the stress's
        # w (3 planes) and one w x d temporary (9); rfft frees the bundle after
        # its x pass (output 0.69 of it).
        cfg = WORKLOADS["gl-n32-full"]
        system = build_system(cfg)
        assert (system.grid.n, system.grid.k_max) == (32, 10)
        state = initial_state(cfg, system)
        fields = system.fields(state)
        plane_bytes = 8 * 32**3
        assert traced_peak(lambda s: system.assemble_rhs(s, fields), state) <= 28 * plane_bytes

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11 the caller holds its arguments during a call"
    )
    def test_run_hands_step_the_rhs_not_the_fields(self):
        # gl-n32-full, three recorded steps: 115.1 planes when run drops a
        # state's 33-plane fields before step, 148.9 when it holds them
        # through stages 2-4.
        cfg = WORKLOADS["gl-n32-full"]
        cfg = dataclasses.replace(cfg, t_end=3 * cfg.dt, record_every=1)
        plane_bytes = 8 * 32**3
        assert traced_peak(run, cfg) <= 125 * plane_bytes


def _assert_runs_agree(reduced, reference):
    """Ledgers within 1e-13 of each column's largest value, final states
    within 1e-13 relative."""
    got = np.array([r.row() for r in reduced.records])
    ref = np.array([r.row() for r in reference.records])
    scale = np.max(np.abs(ref), axis=0)
    # The residual holds a centered difference of `total`, so its
    # rounding scale is that of `total` over the record spacing.
    col = LEDGER_COLUMNS.index
    scale[col("residual")] = scale[col("total")] / np.min(np.diff(ref[:, col("t")]))
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    for a, b in (
        (reduced.final_state.v_hat, reference.final_state.v_hat),
        (reduced.final_state.d_hat, reference.final_state.d_hat),
    ):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def _scof_n16(seed, amp=0.1, **overrides):
    """The scof-n16-inequalities workload's config for one seed, with the
    director amplitude ``amp``."""
    initial = {
        "initial_velocity": ("random", 2 * seed, 0.05),
        "initial_director": ("random", 2 * seed + 1, amp),
    }
    return dataclasses.replace(WORKLOADS["scof-n16"], **{**initial, **overrides})


def _fitted(cfg):
    system = build_system(cfg)
    return fit_transform_grid(system, initial_state(cfg, system))


class TestTransformGrid:
    """``build_system`` runs the transforms on the smallest even grid n >= 8
    with P k_max < n, P = max(6, deg F), capped at N; a non-polynomial
    energy keeps N there, and ``fit_transform_grid`` sizes it on the
    initial state."""

    def test_shipped_k_max_1_config_picks_8(self):
        system = build_system(parse_config(CONFIGS / "sof_twist.cfg"))
        assert system.grid.n == 8
        assert system.velocity_basis.grid is system.grid
        assert system.director_basis.grid is system.grid

    def test_k_max_2_on_16_picks_14(self):
        # 52 velocity modes have |k|_inf = 1; the 53rd to 64th have 2.
        system = build_system(_base_config(n=16, n_v=64, n_d=57))
        assert system.velocity_basis.k_max == 2
        assert system.grid.n == 14

    def test_full_bases_keep_n(self):
        # The benchmark's gl-n32-full bases: k_max = 10 and 6 * 10 >= 32.
        system = build_system(_base_config(n=32))
        assert system.velocity_basis.k_max == 10
        assert system.grid.n == 32

    def test_scaled_oseen_frank_keeps_n(self):
        cfg = dataclasses.replace(parse_config(CONFIGS / "scaled_anisotropy.cfg"), n=16)
        assert build_system(cfg).grid.n == 16

    def test_non_polynomial_wrappers_keep_n(self):
        grid = SpectralGrid(16)
        gl = GinzburgLandau(1.0)
        vel = build_velocity_basis(grid, 36)
        dirb = build_director_basis(gl.d2F_dS2_const(), grid, 57)
        h = np.array([0.3, -0.2, 0.5])
        on_grid = WithField(gl, np.broadcast_to(h, (16, 16, 16, 3)), 0.4, 1.1)
        assert transform_grid(16, on_grid, vel, dirb).n_q == 16
        assert transform_grid(16, WithField(gl, h, 0.4, 1.1), vel, dirb).n_q == 8
        scaled = ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=1.0)
        assert transform_grid(16, WithFreedom(scaled, h, 0.7), vel, dirb).n_q == 16

    def test_scof_workload_fits_10(self):
        # k_max 1, so every flow pairing is exact from 8 up; 8 misses q_hat
        # on 16 by about 1e-13, 10 is within rounding.
        for seed in range(1, 13):
            system = _fitted(_scof_n16(seed))
            tg = system.transform
            assert (system.grid.n, tg.n_q, tg.n) == (10, 10, 16)
            assert system.velocity_basis.grid is system.grid is system.director_basis.grid
            assert 0.0 <= tg.estimate <= simulate.ALIAS_TOL and tg.moved_at is None
            assert str(tg).startswith("grid: N = 16, transform grid 10 (energy not polynomial; q_hat within ")
            assert str(tg).endswith(" of N = 16 at t = 0)")

    @pytest.mark.parametrize("seed, amp, n_q", [(1, 0.5, 14), (2, 0.5, 16), (1, 1.0, 16)])
    def test_larger_director_needs_finer_grid(self, seed, amp, n_q):
        tg = _fitted(_scof_n16(seed, amp)).transform
        assert tg.n_q == n_q
        if n_q == 16:
            assert tg.estimate is None
            assert str(tg) == "grid: N = 16, transform grid 16 (energy not polynomial)"

    def test_full_bases_evaluate_no_candidate(self, monkeypatch):
        # k_max 5: the flow alone needs n >= 31, so no grid below 16 is tried.
        cfg = dataclasses.replace(WORKLOADS["scof-n16"], n_v=None, n_d=None)
        system = build_system(cfg)
        assert system.grid.k_max == 5

        def refuse(*args):
            raise AssertionError("no candidate grid should be evaluated")

        monkeypatch.setattr(simulate, "energy_gradient", refuse)
        monkeypatch.setattr(GalerkinSystem, "director_eval", refuse)
        assert fit_transform_grid(system, initial_state(cfg, system)) is system
        assert system.transform.n_q == 16 and system.transform.estimate is None

    def test_grid_sampled_field_runs_on_n(self, monkeypatch):
        grid = SpectralGrid(16, 1)
        gl = GinzburgLandau(1.0)
        vel = build_velocity_basis(grid, 36)
        dirb = build_director_basis(gl.d2F_dS2_const(), grid, 57)
        x = np.arange(16) * (2.0 * np.pi / 16)
        h = np.zeros((16, 16, 16, 3))
        h[..., 0] = 0.3 * np.sin(x)[:, None, None]
        h[..., 2] = 0.5
        model = WithField(gl, h, 0.4, 1.1)
        assert model.grid_sampled and WithFreedom(model, (0.1, 0.0, 0.0), 0.5).grid_sampled
        assert not WithField(gl, (0.0, 0.0, 0.5), 0.4, 1.1).grid_sampled
        cfg = _base_config(
            n=16,
            n_v=36,
            n_d=57,
            t_end=0.01,
            initial_velocity=("random", 2, 0.05),
            initial_director=("random", 3, 0.1),
        )
        tg = transform_grid(16, model, vel, dirb)
        system = GalerkinSystem(model, cfg.build_coefficients(), vel, dirb, np.zeros(vel.size), tg)
        monkeypatch.setattr(simulate, "build_system", lambda config: system)
        result = run(cfg)
        assert result.system is system and system.grid.n == 16
        assert str(system.transform) == "grid: N = 16, transform grid 16 (energy not polynomial)"
        assert np.isfinite(result.records[-1].total)

    def test_degenerate_start_is_rechecked_at_every_record(self):
        # A constant director has q_hat = 0 to rounding on every grid, so the
        # smallest candidate passes at t = 0; the flow then excites it.
        cfg = dataclasses.replace(
            WORKLOADS["scof-n16"],
            initial_velocity=("random", 3, 0.05),
            initial_director=("constant", np.array([0.0, 0.0, 1.0])),
            t_end=0.05,
        )
        result = run(cfg)
        tg = result.system.transform
        assert tg.n_q == 8 and tg.estimate <= simulate.ALIAS_TOL
        assert tg.moved_at is not None
        full = build_system(cfg).director_basis
        for state in result.states:
            n = tg.n_q if tg.moved_at is None or state.t < tg.moved_at else tg.n
            basis = full.on_grid(SpectralGrid(n, tg.k_max))
            q_ref = energy_gradient(result.system.model, full, state.d_hat)[2]
            q_hat = energy_gradient(result.system.model, basis, state.d_hat)[2]
            assert np.max(np.abs(q_hat - q_ref)) <= simulate.ALIAS_TOL * np.max(np.abs(q_ref))

    def test_move_to_n_leaves_the_built_system_alone(self, monkeypatch):
        # The run moves to N on a new system; the one build_system returned
        # keeps its own grid decision.
        cfg = dataclasses.replace(
            WORKLOADS["scof-n16"],
            initial_velocity=("random", 3, 0.05),
            initial_director=("constant", np.array([0.0, 0.0, 1.0])),
            t_end=0.05,
        )
        built = build_system(cfg)
        monkeypatch.setattr(simulate, "build_system", lambda config: built)
        result = run(cfg)
        assert result.system.transform.moved_at == 0.005 and result.system is not built
        assert result.system.grid == built.grid and result.system.model is built.model
        assert built.transform.moved_at is None and built.transform.n_q == 16
        assert str(built.transform) == "grid: N = 16, transform grid 16 (energy not polynomial)"

    def test_on_grid_keeps_the_system_and_takes_the_decision(self):
        system = build_system(_scof_n16(1, forcing_velocity=("random", 7, 0.1)))
        tg = system.transform._replace(n_q=10, estimate=0.0)
        moved = system.on_grid(SpectralGrid(10, 1), tg)
        assert moved.transform is tg and system.transform.n_q == 16
        assert moved.grid == SpectralGrid(10, 1) == moved.velocity_basis.grid == moved.director_basis.grid
        assert (moved.model, moved.coeffs) == (system.model, system.coeffs)
        assert np.array_equal(moved.forcing_v_hat, system.forcing_v_hat) and np.any(moved.forcing_v_hat)
        assert np.array_equal(moved.lin, system.lin)
        for a, b in ((moved.velocity_basis, system.velocity_basis), (moved.director_basis, system.director_basis)):
            assert type(a) is type(b) and np.array_equal(a.modes, b.modes)

    @pytest.mark.parametrize("cfg, built, n_q", [(_base_config(n=16), 2, 16), (_scof_n16(1), 4, 10)])
    def test_no_basis_is_built_twice(self, cfg, built, n_q, monkeypatch):
        # build_system builds each basis once on N and re-homes it once; the
        # fit's candidates keep the band, so they share its operators.
        inits = []
        init = basis_module._TrigBasis.__init__

        def counted(self, grid, modes):
            inits.append((type(self).__name__, grid))
            init(self, grid, modes)

        monkeypatch.setattr(basis_module._TrigBasis, "__init__", counted)
        system = build_system(cfg)
        assert len(inits) == built and len(set(inits)) == built
        fitted = fit_transform_grid(system, initial_state(cfg, system))
        assert len(inits) == built and fitted.grid.n == n_q

    @pytest.mark.parametrize("cfg, fitted", [(_base_config(n=16), False), (_scof_n16(1), True)])
    def test_one_system_per_grid_decision(self, cfg, fitted, monkeypatch):
        # build_system constructs one system, on the sized grid.  The fit
        # re-homes the director basis for each candidate (8 fails, 10 passes)
        # and constructs only the passing grid's system.
        systems, moves = [], []
        init, on_grid = GalerkinSystem.__init__, basis_module._TrigBasis.on_grid

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(self.transform)

        def counted_on_grid(self, grid):
            moves.append((type(self).__name__, grid.n))
            return on_grid(self, grid)

        monkeypatch.setattr(GalerkinSystem, "__init__", counted_init)
        monkeypatch.setattr(basis_module._TrigBasis, "on_grid", counted_on_grid)
        system = build_system(cfg)
        assert systems == [system.transform] and len(moves) == 2
        del systems[:], moves[:]
        fitted_system = fit_transform_grid(system, initial_state(cfg, system))
        if not fitted:
            assert fitted_system is system and systems == moves == []
            return
        assert systems == [fitted_system.transform] and fitted_system.grid.n == 10
        assert moves == [("DirectorBasis", 8), ("DirectorBasis", 10), ("VelocityBasis", 10), ("DirectorBasis", 10)]

    def test_blow_up_carries_the_fitted_grid(self):
        cfg = _scof_n16(
            1,
            mu=(1.0, -1.0, 1.0, -40.0, 0.0, 1.0),  # negative bulk viscosity
            allow_nondissipative=True,
            dt=0.01,
            t_end=2.0,
            initial_velocity=("mode", (0, 0, 1), 0, "cos", 1.0),
        )
        with pytest.raises(BlowUpError) as info:
            run(cfg)
        assert info.value.grid.n_q == 10 and info.value.grid.estimate <= simulate.ALIAS_TOL

    def test_blow_up_prints_one_line_and_no_warning(self, tmp_path, capsys):
        # The config of test_blow_up_carries_the_fitted_grid, as a file.
        text = (CONFIGS / "scaled_anisotropy.cfg").read_text()
        for old, new in [
            ("N = 8", "N = 16"),
            ("mu4 = 1", "mu4 = -40\nallow_nondissipative = on"),
            ("dt = 1e-3", "dt = 0.01"),
            ("t_end = 0.2", "t_end = 2.0"),
            ("velocity = random 4 0.05", "velocity = mode 0 0 1 0 cos 1.0"),
            ("director = random 5 0.1", "director = random 3 0.1"),
        ]:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        path = tmp_path / "diverging.cfg"
        path.write_text(text)
        cfg = _scof_n16(
            1,
            mu=(1.0, -1.0, 1.0, -40.0, 0.0, 1.0),
            allow_nondissipative=True,
            dt=0.01,
            t_end=2.0,
            initial_velocity=("mode", (0, 0, 1), 0, "cos", 1.0),
        )
        assert parse_config(path).config_hash() == cfg.config_hash()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--outdir", str(tmp_path)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert err == ["blow-up: solution blew up; last finite state at t = 0.45"]

    @pytest.mark.parametrize("seed", [1, 3])
    def test_fitted_run_matches_run_on_n(self, seed, monkeypatch):
        cfg = _scof_n16(seed, t_end=0.03)
        reduced = run(cfg)
        assert reduced.system.grid.n == 10 and reduced.system.transform.moved_at is None
        monkeypatch.setattr(simulate, "fit_transform_grid", lambda system, state: system)
        reference = run(cfg)
        assert reference.system.grid.n == 16
        _assert_runs_agree(reduced, reference)

    def test_bases_on_another_grid_refused(self):
        s = build_system(dataclasses.replace(parse_config(CONFIGS / "scaled_anisotropy.cfg"), n=16))
        assert s.grid == SpectralGrid(16, 1)
        for grid in (SpectralGrid(16), SpectralGrid(8, 1)):
            with pytest.raises(ValueError):
                GalerkinSystem(
                    s.model, s.coeffs, s.velocity_basis.on_grid(grid), s.director_basis, s.forcing_v_hat, s.transform
                )

    @pytest.mark.parametrize("name", ["sof_twist.cfg", "gl_mixing.cfg"])
    def test_ledger_matches_configured_grid(self, name, monkeypatch):
        cfg = dataclasses.replace(parse_config(CONFIGS / name), t_end=0.05)
        reduced = run(cfg)
        s = reduced.system
        assert s.grid.n == 8 < cfg.n
        grid = SpectralGrid(cfg.n)
        full = GalerkinSystem(
            s.model,
            s.coeffs,
            s.velocity_basis.on_grid(grid),
            s.director_basis.on_grid(grid),
            s.forcing_v_hat,
            s.transform._replace(n_q=cfg.n),
        )
        monkeypatch.setattr(simulate, "build_system", lambda config: full)
        reference = run(cfg)
        assert reference.system.grid.n == cfg.n
        _assert_runs_agree(reduced, reference)

    @pytest.mark.parametrize(
        "model",
        [
            GinzburgLandau(1.0),
            WithField(GinzburgLandau(1.5), (0.3, -0.2, 0.5), 0.4, 1.1),
            WithFreedom(GinzburgLandau(1.0), (0.2, -0.1, 0.3), 0.7),
            SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=1.0),
        ],
        ids=["gl", "with_field", "with_freedom", "sof"],
    )
    def test_gateaux_check_on_reduced_grid(self, model):
        grid = SpectralGrid(16)
        vel = build_velocity_basis(grid, 36)
        dirb = build_director_basis(model.d2F_dS2_const(), grid, 57)
        n_q = transform_grid(16, model, vel, dirb).n_q
        assert n_q < 16
        basis = dirb.on_grid(SpectralGrid(n_q))
        rng = np.random.default_rng(16)
        for _ in range(5):
            d_hat = rng.uniform(-0.5, 0.5, basis.size)
            psi = rng.uniform(-1.0, 1.0, basis.size)
            assert gateaux_check(model, basis, d_hat, psi) <= 1e-6


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the CLI pins malloc thresholds only under glibc"
)
def test_cli_process_reuses_freed_step_memory(capsys):
    # With glibc's dynamic thresholds every RK stage's freed temporaries are
    # returned to the kernel and re-faulted by the next stage (about 10k
    # minor faults over these three steps); the CLI pins the thresholds.
    import resource

    assert main(["validate", str(CONFIGS / "sof_twist.cfg")]) == 0
    cfg = parse_config(CONFIGS / "sof_twist.cfg")
    system = build_system(cfg)
    state = initial_state(cfg, system)
    for _ in range(2):
        state = system.step(state, cfg.dt)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        state = system.step(state, cfg.dt)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


class TestCheckpoint:
    def test_bit_exact_round_trip(self, gl8, rng, tmp_path):
        system, cfg = gl8
        state = SpectralState(
            0.375,
            rng.standard_normal(system.velocity_basis.size),
            rng.standard_normal(system.director_basis.size),
        )
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, state, cfg.config_hash(), len(state.v_hat), len(state.d_hat))
        loaded, header = load_checkpoint(path)
        assert loaded.t == state.t
        assert np.array_equal(loaded.v_hat, state.v_hat)
        assert np.array_equal(loaded.d_hat, state.d_hat)
        assert header["config_hash"] == cfg.config_hash()
        assert header["n_v"] == len(state.v_hat)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_mode_count_mismatch_rejected(self, gl8, tmp_path):
        system, cfg = gl8
        state = SpectralState(0.0, np.zeros(3), np.zeros(5))
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", state, cfg.config_hash(), 4, 5)

    def _saved(self, tmp_path, cfg):
        state = SpectralState(0.25, np.arange(4.0), np.arange(7.0))
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, state, cfg.config_hash(), 4, 7)
        return path, path.read_bytes()

    def test_truncated_file_rejected(self, gl8, tmp_path):
        _, cfg = gl8
        path, data = self._saved(tmp_path, cfg)
        expected = 8 + 64 + 24 + 8 * (4 + 7)
        assert len(data) == expected
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match=f"expected {expected} bytes.*got {expected - 16}"):
            load_checkpoint(path)
        path.write_bytes(data[:50])
        with pytest.raises(ValueError, match="got 50"):
            load_checkpoint(path)

    def test_over_long_file_rejected(self, gl8, tmp_path):
        _, cfg = gl8
        path, data = self._saved(tmp_path, cfg)
        path.write_bytes(data + bytes(8))
        with pytest.raises(ValueError, match=f"expected {len(data)} bytes.*got {len(data) + 8}"):
            load_checkpoint(path)

    def test_save_replaces_atomically(self, gl8, tmp_path):
        _, cfg = gl8
        path, _ = self._saved(tmp_path, cfg)
        state = SpectralState(0.5, -np.arange(4.0), -np.arange(7.0))
        save_checkpoint(path, state, cfg.config_hash(), 4, 7)
        loaded, _ = load_checkpoint(path)
        assert loaded.t == 0.5 and np.array_equal(loaded.d_hat, state.d_hat)
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


class TestInitialDirectives:
    def test_mode_directive_sets_single_coefficient(self, dirichlet8):
        system, cfg = dirichlet8
        cfg = dataclasses.replace(cfg, initial_director=("mode", (0, 0, 1), 0, "cos", 0.25))
        state = initial_state(cfg, system)
        assert np.count_nonzero(state.d_hat) == 1
        assert state.d_hat.max() == 0.25

    def test_mode_outside_basis_rejected(self, dirichlet8):
        system, cfg = dirichlet8
        cfg = dataclasses.replace(cfg, initial_director=("mode", (2, 2, 2), 0, "cos", 0.25))
        with pytest.raises(ConfigError, match="not in retained basis"):
            initial_state(cfg, system)

    def test_random_directive_bounded(self, gl8):
        system, cfg = gl8
        cfg = dataclasses.replace(cfg, initial_velocity=("random", 0, 0.1))
        state = initial_state(cfg, system)
        assert np.max(np.abs(state.v_hat)) <= 0.1
        again = initial_state(cfg, system)
        assert np.array_equal(state.v_hat, again.v_hat)
