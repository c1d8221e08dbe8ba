import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from elgal.basis import (
    DirectorBasis,
    SpectralGrid,
    VelocityBasis,
    build_director_basis,
    build_velocity_basis,
)
from elgal.diagnostics import (
    LEDGER_COLUMNS,
    apriori_monitor,
    energy_ledger,
    energy_residual_series,
    write_ledger,
)
from elgal.diagnostics import test_interpolation_inequality as interpolation_report
from elgal.diagnostics import test_velocity_interpolation as velocity_interpolation_report
from elgal.energies import GinzburgLandau, variational_derivative
from elgal.scenarios import _base_config
from elgal.simulate import SpectralState, build_system, run
from oracles import (
    ericksen_identity_residual,
    full_mesh_derivatives,
    gateaux_check,
    sym_grad_sq_quadrature,
)


@pytest.fixture(scope="module")
def gl8():
    cfg = _base_config(n=8, n_v=36, n_d=57, dt=1e-3, t_end=0.02)
    return build_system(cfg), cfg


@pytest.fixture(scope="module")
def relaxation_cfg():
    return _base_config(
        n=8,
        n_v=12,
        n_d=21,
        model_params={"eps": 1.0, "penalty": False},
        mu=(1.0, -0.5, 0.5, 1.0, 0.0, 1.0),
        dt=1e-3,
        t_end=0.2,
        initial_director=("mode", (0, 0, 1), 0, "cos", 0.5),
    )


class TestEnergyLedger:
    def test_zero_state(self, gl8):
        system, _ = gl8
        state = SpectralState(
            0.0, np.zeros(system.velocity_basis.size), np.zeros(system.director_basis.size)
        )
        rec = energy_ledger(system, state)
        assert rec.kinetic == 0.0
        assert rec.diss_mu1 == rec.diss_mu4 == rec.diss_a == rec.diss_gamma_q == 0.0
        assert rec.cross == 0.0 and rec.g_power == 0.0
        assert rec.free == pytest.approx((2 * np.pi) ** 3 / 4, rel=1e-12)

    def test_single_velocity_mode_terms(self, gl8):
        system, _ = gl8
        v_hat = np.zeros(system.velocity_basis.size)
        v_hat[0] = 0.8
        state = SpectralState(0.0, v_hat, np.zeros(system.director_basis.size))
        rec = energy_ledger(system, state)
        assert rec.kinetic == pytest.approx(0.32, rel=1e-14)
        assert rec.free == pytest.approx((2 * np.pi) ** 3 / 4, rel=1e-12)
        # mu4 ||sym grad v||^2 = mu4 |k|^2 |v|^2 / ... = mu4 * ksq * amp^2 / 2 * ... checked
        ksq = system.velocity_basis.eigs[0]
        assert rec.diss_mu4 == pytest.approx(system.coeffs.mu4 * 0.5 * ksq * 0.8**2 * 2 * 0.5, rel=1e-12)

    def test_parodi_cross_term_identically_zero(self):
        cfg = _base_config(
            n=8,
            mu=(1.0, -0.5, 1.5, 1.0, 0.0, 1.0),  # Parodi: kappa = 0 exactly
            t_end=0.02,
            initial_velocity=("random", 0, 0.1),
            initial_director=("random", 1, 0.1),
        )
        result = run(cfg)
        assert result.system.coeffs.kappa == 0.0
        assert all(rec.cross == 0.0 for rec in result.records)


class TestResidualSeries:
    def test_relaxation_residual_second_order(self, relaxation_cfg):
        def max_interior_residual(dt):
            result = run(dataclasses.replace(relaxation_cfg, dt=dt))
            residuals, monotone = energy_residual_series(result.records)
            assert monotone
            return np.max(np.abs(residuals[1:-1]))

        dts = np.array([1e-3, 5e-4, 2.5e-4])
        res = np.array([max_interior_residual(dt) for dt in dts])
        assert 3.5 < res[0] / res[1] < 4.5, res
        order = np.polyfit(np.log(dts), np.log(res), 1)[0]
        assert 1.8 <= order <= 2.2, order

    def test_equilibrium_residual_zero(self, gl8):
        system, cfg = gl8
        cfg = dataclasses.replace(cfg, initial_director=("constant", np.array([1.0, 0, 0])))
        result = run(cfg)
        residuals, monotone = energy_residual_series(result.records)
        assert monotone
        assert np.max(np.abs(residuals)) < 1e-13

    def test_needs_three_records(self, gl8):
        system, cfg = gl8
        result = run(dataclasses.replace(cfg, t_end=0.0))
        with pytest.raises(ValueError):
            energy_residual_series(result.records)

    def test_dissipation_dominates_cross_term_at_every_record(self, gl8):
        # dissipation - cross >= alpha ||Sv d||^2 + beta ||q||^2 with the
        # residual weights from the accepted coefficient margins.
        from elgal.leslie import check_dissipativity

        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg,
            t_end=0.03,
            initial_velocity=("random", 20, 0.3),
            initial_director=("random", 21, 0.3),
        )
        result = run(cfg)
        c = result.system.coeffs
        margins = check_dissipativity(c)
        for rec in result.records:
            svd_sq = rec.diss_a / c.anisotropy
            q_sq = rec.diss_gamma_q / c.gamma
            floor = margins.alpha * svd_sq + margins.beta * q_sq
            lhs = rec.dissipation - rec.cross
            assert lhs >= floor - 1e-12 * max(1.0, abs(lhs))

    def test_nondissipative_coefficients_flagged_not_fatal(self):
        # Coupling condition violated: the verdict may fail but nothing raises.
        cfg = _base_config(
            n=8,
            mu=(1.0, -1.0, 1.0, 0.01, -2.0, 3.0),
            allow_nondissipative=True,
            t_end=0.02,
            initial_velocity=("random", 2, 0.1),
            initial_director=("random", 3, 0.1),
        )
        result = run(cfg)
        residuals, monotone = energy_residual_series(result.records)
        assert isinstance(monotone, bool)
        assert np.all(np.isfinite(residuals))


class TestAprioriMonitor:
    def test_zero_trajectory(self, gl8):
        system, cfg = gl8
        result = run(dataclasses.replace(cfg, t_end=0.01))
        report = apriori_monitor(system, result.states)
        assert report.sup_velocity_l2 == 0.0
        assert report.sup_director_h1 == 0.0
        assert report.int_mu4_sym_sq == 0.0
        assert report.int_lap_d_sq == 0.0

    def test_relaxation_energy_identity(self, relaxation_cfg):
        # With v = 0 and no forcing the integrated gamma ||q||^2 equals the
        # free-energy drop.
        result = run(relaxation_cfg)
        t = np.array([r.t for r in result.records])
        diss = np.array([r.diss_gamma_q for r in result.records])
        drop = result.records[0].free - result.records[-1].free
        integral = float(np.trapezoid(diss, t))
        assert abs(integral - drop) < 1e-4 * drop

    def test_bounds_monotone_in_horizon(self, gl8):
        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg,
            t_end=0.05,
            initial_velocity=("random", 4, 0.2),
            initial_director=("random", 5, 0.2),
        )
        result = run(cfg)
        prev = None
        for upto in (10, 25, len(result.states)):
            rep = apriori_monitor(result.system, result.states[:upto])
            vals = (
                rep.sup_velocity_l2,
                rep.sup_director_h1,
                rep.int_mu4_sym_sq,
                rep.int_svd_sq,
                rep.int_lap_d_sq,
            )
            if prev is not None:
                assert all(b >= a - 1e-15 for a, b in zip(prev, vals))
            prev = vals

    def test_caps_checked(self, gl8):
        system, cfg = gl8
        result = run(dataclasses.replace(cfg, initial_velocity=("random", 6, 0.2), t_end=0.01))
        ok = apriori_monitor(system, result.states, caps={"sup_velocity_l2": 1e3})
        assert ok.within_caps is True
        bad = apriori_monitor(system, result.states, caps={"sup_velocity_l2": 1e-9})
        assert bad.within_caps is False


    def test_mu4_term_matches_grid_quadrature(self, gl8):
        # int_mu4_sym_sq and the ledger's diss_mu4 use the closed form
        # (1/2) sum |k_i|^2 v_i^2; grid quadrature of |sym grad v|^2 agrees.
        system, cfg = gl8
        result = run(
            dataclasses.replace(
                cfg, initial_velocity=("random", 7, 0.3), initial_director=("random", 8, 0.3)
            )
        )
        mu4 = system.coeffs.mu4
        quad = np.array(
            [sym_grad_sq_quadrature(system.velocity_basis, s.v_hat) for s in result.states]
        )
        assert np.min(quad) > 0.0
        ledger = np.array([r.diss_mu4 for r in result.records])
        assert np.max(np.abs(ledger - mu4 * quad)) <= 1e-12 * np.max(mu4 * quad)
        t = np.array([s.t for s in result.states])
        expect = mu4 * float(np.trapezoid(quad, t))
        got = apriori_monitor(system, result.states).int_mu4_sym_sq
        assert abs(got - expect) <= 1e-12 * expect


def _director_trajectories(basis, n_traj, seed, amplitude=0.5, nt=3):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, nt)
    out = []
    for _ in range(n_traj):
        c0 = rng.uniform(-amplitude, amplitude, basis.size)
        c1 = rng.uniform(-amplitude, amplitude, basis.size)
        coefs = np.array([np.cos(t) * c0 + np.sin(2 * t) * c1 for t in times])
        out.append((times, coefs))
    return out


@pytest.fixture(scope="module")
def bases():
    grid = SpectralGrid(8)
    return (
        build_director_basis(GinzburgLandau(1.0).d2F_dS2_const(), grid),
        build_velocity_basis(grid),
    )


class TestInterpolationInequalities:
    def test_exponent_relation_p6_r2(self, bases):
        db, _ = bases
        rep = interpolation_report(db, _director_trajectories(db, 3, 0), 6, 2)
        assert rep.theta == Fraction(2)
        assert rep.passed and math.isfinite(rep.empirical_constant)

    def test_p_out_of_range_rejected(self, bases):
        db, _ = bases
        with pytest.raises(ValueError, match="outside"):
            interpolation_report(db, [], 7, 2)

    def test_theta_out_of_range_rejected(self, bases):
        db, _ = bases
        with pytest.raises(ValueError, match="theta"):
            interpolation_report(db, [], 6, 4)  # theta = 4 > 2

    def test_containment_case_unit_constant(self, bases):
        # p = 2 gives theta = 0; for a time-constant trajectory on [0, 1]
        # the ratio is exactly one.
        db, _ = bases
        times = np.linspace(0.0, 1.0, 5)
        coefs = np.zeros(db.size)
        coefs[4] = 0.8
        traj = [(times, np.tile(coefs, (5, 1)))]
        rep = interpolation_report(db, traj, 2, 4)
        assert rep.theta == Fraction(0)
        assert rep.empirical_constant == pytest.approx(1.0, abs=1e-12)

    def test_velocity_relation_exact(self, bases):
        _, vb = bases
        rep = velocity_interpolation_report(vb, _director_trajectories(vb, 3, 1), 6, 2)
        assert rep.passed

    def test_velocity_relation_violation_rejected(self, bases):
        _, vb = bases
        with pytest.raises(ValueError, match="violates"):
            velocity_interpolation_report(vb, [], 4, 2)

    def test_velocity_rational_exponents(self, bases):
        _, vb = bases
        rep = velocity_interpolation_report(vb, _director_trajectories(vb, 2, 2), "30/11", 5)
        assert rep.passed

    def test_velocity_infinite_r_containment(self, bases):
        _, vb = bases
        rep = velocity_interpolation_report(vb, _director_trajectories(vb, 2, 3), 2, math.inf)
        assert rep.empirical_constant == 1.0
        with pytest.raises(ValueError, match="r = inf"):
            velocity_interpolation_report(vb, [], 6, math.inf)

    def test_empirical_constants_stable_across_sample_sets(self, bases):
        db, _ = bases
        c = []
        for seed in (10, 11):
            rep = interpolation_report(
                db, _director_trajectories(db, 200, seed), 6, 2
            )
            assert rep.passed
            c.append(rep.empirical_constant)
        assert max(c) / min(c) < 10.0


@pytest.fixture(scope="module")
def ericksen_setup():
    model = GinzburgLandau(1.0)
    g16, g32 = SpectralGrid(16), SpectralGrid(32)
    db16 = build_director_basis(model.d2F_dS2_const(), g16)
    vb16 = build_velocity_basis(g16)
    db32 = DirectorBasis(g32, db16.lam4, db16.modes)
    vb32 = VelocityBasis(g32, vb16.modes)
    return model, db16, vb16, db32, vb32


class TestEricksenIdentity:
    def test_constant_director_both_pairings_vanish(self, ericksen_setup):
        model, db16, vb16, _, _ = ericksen_setup
        d_hat = np.zeros(db16.size)
        d_hat[0] = 2.0
        v_hat = np.zeros(vb16.size)
        v_hat[3] = 1.0
        assert ericksen_identity_residual(model, db16, vb16, d_hat, v_hat) == 0.0

    def test_band_limited_residual_small_and_refining(self, ericksen_setup, rng):
        model, db16, vb16, db32, vb32 = ericksen_setup
        ksq_d = np.sum(db16.kvecs**2, axis=1)
        ksq_v = np.sum(vb16.kvecs**2, axis=1)
        worst16, worst32 = 0.0, 0.0
        for _ in range(10):
            d_hat = rng.standard_normal(db16.size) * np.exp(-0.4 * ksq_d)
            v_hat = rng.standard_normal(vb16.size) * np.exp(-0.4 * ksq_v)
            worst16 = max(worst16, ericksen_identity_residual(model, db16, vb16, d_hat, v_hat))
            worst32 = max(worst32, ericksen_identity_residual(model, db32, vb32, d_hat, v_hat))
        assert worst16 <= 1e-9
        assert worst32 < worst16  # consistency under grid refinement

    def test_undersized_grid_shows_aliasing(self, rng):
        # The same coefficients on a grid too coarse for the quartic products
        # leave a visible quadrature defect; the production cutoff keeps the
        # margin that removes it.
        model = GinzburgLandau(1.0)
        g8, g16 = SpectralGrid(8), SpectralGrid(16)
        db8 = build_director_basis(model.d2F_dS2_const(), g8)  # |k|inf <= 2
        vb8 = build_velocity_basis(g8)
        db16 = DirectorBasis(g16, db8.lam4, db8.modes)
        vb16 = VelocityBasis(g16, vb8.modes)
        d_hat = rng.uniform(-0.5, 0.5, db8.size)
        v_hat = rng.uniform(-0.5, 0.5, vb8.size)
        res8 = ericksen_identity_residual(model, db8, vb8, d_hat, v_hat)
        res16 = ericksen_identity_residual(model, db16, vb16, d_hat, v_hat)
        assert res8 > 100.0 * max(res16, 1e-16)
        assert res16 < 1e-12


@pytest.fixture(scope="module")
def gl_basis():
    grid = SpectralGrid(8)
    return build_director_basis(GinzburgLandau(1.0).d2F_dS2_const(), grid, 57)


class TestGateaux:
    def test_direction_orthogonal_to_q(self, gl_basis, rng):
        model = GinzburgLandau(1.0)
        d_hat = rng.uniform(-0.5, 0.5, gl_basis.size)
        d, gd, hd = full_mesh_derivatives(gl_basis, d_hat, hessian=True)
        q_hat = gl_basis.analyze(variational_derivative(model, d, gd, hd))
        psi = rng.standard_normal(gl_basis.size)
        psi -= (q_hat @ psi) / (q_hat @ q_hat) * q_hat
        err = gateaux_check(model, gl_basis, d_hat, psi)
        assert err < 1e-6

    def test_eigenmode_pairing_value(self):
        grid = SpectralGrid(8)
        model = GinzburgLandau(eps=None)
        basis = build_director_basis(model.d2F_dS2_const(), grid, 21)
        d_hat = np.zeros(21)
        d_hat[10] = 0.6  # sigma = 1
        psi = np.eye(21)[10]
        d, gd, hd = full_mesh_derivatives(basis, d_hat, hessian=True)
        q_hat = basis.analyze(variational_derivative(model, d, gd, hd))
        assert q_hat @ psi == pytest.approx(0.6, rel=1e-12)
        assert gateaux_check(model, basis, d_hat, psi) < 1e-9

    def test_minimizer_stationary_for_all_directions(self, gl_basis, rng):
        model = GinzburgLandau(1.0)
        d_hat = np.zeros(gl_basis.size)
        d_hat[0] = np.sqrt(gl_basis.grid.volume)
        for _ in range(5):
            psi = rng.standard_normal(gl_basis.size)
            assert gateaux_check(model, gl_basis, d_hat, psi) < 1e-8


class TestLedgerCsv:
    def test_columns_and_determinism(self, gl8, tmp_path):
        _, cfg = gl8
        cfg = dataclasses.replace(
            cfg, t_end=0.005, initial_velocity=("random", 9, 0.1), initial_director=("random", 10, 0.1)
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ledger(run(cfg).records, p1)
        write_ledger(run(cfg).records, p2)
        text = p1.read_text()
        assert text.splitlines()[0] == ",".join(LEDGER_COLUMNS)
        assert text == p2.read_text()
        assert len(text.splitlines()) == 7  # header + six records
