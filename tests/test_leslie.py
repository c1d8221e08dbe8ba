import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from elgal.basis import SpectralGrid, build_director_basis, build_velocity_basis
from elgal.energies import GinzburgLandau
from elgal.leslie import (
    LeslieCoefficients,
    check_dissipativity,
    check_parodi,
    ericksen_stress,
    leslie_stress_discrete,
)
from elgal.tensors import sym
from oracles import ericksen_pairing, leslie_stress, leslie_stress_original

mu_float = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def coeffs(mu1=1.0, mu2=-1.0, mu3=1.0, mu4=1.0, mu5=0.0, mu6=1.0):
    return LeslieCoefficients(mu1, mu2, mu3, mu4, mu5, mu6)


class TestDerivedConstants:
    def test_reference_values(self):
        c = coeffs(mu2=-1.0, mu3=1.0, mu5=0.0, mu6=1.0)
        assert c.gamma == 0.5
        assert c.lam == 0.5

    def test_equal_rotational_viscosities_give_zero_lam(self):
        assert coeffs(mu5=0.7, mu6=0.7).lam == 0.0

    def test_gamma_undefined(self):
        with pytest.raises(ValueError, match="gamma undefined"):
            LeslieCoefficients(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)

    @given(mu_float, mu_float)
    def test_gamma_is_negative_reciprocal_lam1(self, mu2, mu3):
        assume(mu2 != mu3)
        c = coeffs(mu2=mu2, mu3=mu3)
        assert c.gamma == -1.0 / c.lam1

    def test_mu1_zero_warns(self):
        with pytest.warns(UserWarning, match="mu1"):
            coeffs(mu1=0.0)


class TestDissipativity:
    def test_accepts_reference_set(self):
        m = check_dissipativity(coeffs(1.0, -1.0, 1.0, 1.0, 0.0, 1.0))
        assert m.passed
        assert m.gamma == 0.5
        assert m.anisotropy == 1.0
        assert m.margins["coupling"] == 4 * 0.5 * 1.0 - 0.25
        assert m.kappa == -0.5

    def test_rejects_zero_mu4(self):
        m = check_dissipativity(coeffs(1.0, -1.0, 1.0, 0.0, 0.0, 1.0))
        assert not m.passed
        assert m.failures == ["mu4"]

    def test_rejects_negative_anisotropy(self):
        # gamma = 1, lam = 1, A = 1 - 3 = -2 < 0
        m = check_dissipativity(coeffs(1.0, 1.0, 2.0, 1.0, 0.0, 1.0))
        assert not m.passed
        assert "anisotropy" in m.failures
        assert m.anisotropy == -2.0

    def test_margins_continuous_under_perturbation(self, rng):
        base = np.array([1.0, -1.0, 1.0, 1.0, 0.0, 1.0])
        for _ in range(20):
            mu = base + 1e-9 * rng.standard_normal(6)
            assert check_dissipativity(LeslieCoefficients(*mu)).passed

    def test_pointwise_dissipation_margin(self, rng):
        c = coeffs(1.0, -1.0, 1.0, 1.0, 0.0, 1.0)
        m = check_dissipativity(c)
        assert 0 < m.delta < 1
        assert m.alpha > 0 and m.beta > 0
        for _ in range(200):
            d = rng.standard_normal(3)
            gv = rng.standard_normal((3, 3))
            q = rng.standard_normal(3)
            sv = sym(gv)
            svd = sv @ d
            quad = (
                c.mu1 * (d @ svd) ** 2
                + c.mu4 * np.sum(sv * sv)
                + c.anisotropy * svd @ svd
                + c.gamma * q @ q
                - c.kappa * (q @ svd)
            )
            floor = m.pointwise_margin * (svd @ svd + q @ q)
            assert quad >= floor - 1e-12 * max(1.0, abs(quad))


class TestParodi:
    def test_holds(self):
        assert check_parodi(coeffs(mu2=-0.5, mu3=1.5, mu5=0.0, mu6=1.0))

    def test_fails(self):
        assert not check_parodi(coeffs(mu2=-1.0, mu3=1.0, mu5=0.0, mu6=1.0))

    def test_termwise_zero(self):
        assert check_parodi(coeffs(mu2=-0.8, mu3=0.8, mu5=0.3, mu6=0.3))

    @given(mu_float, mu_float, mu_float)
    @example(-1.59375, -1.5977033331566743, -1.0)  # gamma = -253
    def test_parodi_implies_zero_cross_coefficient(self, mu2, mu3, mu5):
        assume(abs(mu3 - mu2) > 1e-3)
        mu6 = mu5 + mu2 + mu3  # forces lam2 + mu2 + mu3 = 0
        c = LeslieCoefficients(1.0, mu2, mu3, 1.0, mu5, mu6)
        # kappa cancels terms of size |gamma| (|mu2| + |mu3|); gamma may be negative.
        assert abs(c.kappa) <= 1e-13 * max(1.0, abs(c.gamma) * (abs(mu2) + abs(mu3)))


class TestStressForms:
    def test_rest_state_vanishes(self):
        c = coeffs()
        z3, z33 = np.zeros(3), np.zeros((3, 3))
        assert np.array_equal(leslie_stress(c, np.array([1.0, 0, 0]), z3, z33), z33)
        assert np.array_equal(leslie_stress_discrete(c, np.array([1.0, 0, 0]), z3, z33), z33)

    def test_hand_evaluated_stress(self):
        # mu1 = mu4 = 1, mu5 + mu6 = 1 with lam = 0, mu2 + mu3 = 0 and e = 0:
        # T = (d.Sv d) d x d + Sv + (d x Sv d)_sym = diag(3, -1, 0) for d = e1.
        c = coeffs(1.0, -1.0, 1.0, 1.0, 0.5, 0.5)
        d = np.array([1.0, 0.0, 0.0])
        gv = np.diag([1.0, -1.0, 0.0])
        t = leslie_stress(c, d, np.zeros(3), gv)
        assert np.allclose(t, np.diag([3.0, -1.0, 0.0]), atol=1e-15)

    def test_discrete_skew_only_term(self):
        with pytest.warns(UserWarning):
            c = LeslieCoefficients(0.0, -1.0, 1.0, 0.0, 0.0, 0.0)
        d = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        t = leslie_stress_discrete(c, d, q, np.zeros((3, 3)))
        expect = 0.5 * (np.outer(q, d) - np.outer(d, q))
        assert np.allclose(t, expect, atol=1e-15)

    def test_sorted_form_matches_classic_form(self, rng):
        c = coeffs(1.3, -0.7, 0.9, 2.0, 0.4, 1.1)
        d = rng.standard_normal((1000, 3))
        e = rng.standard_normal((1000, 3))
        gv = rng.standard_normal((1000, 3, 3))
        t_sorted = leslie_stress(c, d, e, gv)
        t_classic = leslie_stress_original(c, d, e, gv)
        assert np.max(np.abs(t_sorted - t_classic)) < 1e-12 * max(1, np.max(np.abs(t_classic)))

    def test_discrete_form_is_substitution(self, rng):
        c = coeffs(1.0, -1.0, 1.0, 1.0, 0.0, 1.0)
        d = rng.standard_normal((1000, 3))
        q = rng.standard_normal((1000, 3))
        gv = rng.standard_normal((1000, 3, 3))
        svd = np.einsum("...ij,...j->...i", sym(gv), d)
        e = -c.lam * svd - c.gamma * q
        t_sub = leslie_stress(c, d, e, gv)
        t_disc = leslie_stress_discrete(c, d, q, gv)
        assert np.max(np.abs(t_sub - t_disc)) < 1e-12 * max(1, np.max(np.abs(t_sub)))


class TestEricksenStress:
    def test_constant_director(self):
        model = GinzburgLandau(1.0)
        d = np.array([0.3, -1.0, 0.2])
        assert np.array_equal(ericksen_stress(model, d, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_gradient_energy_gram_form(self, rng):
        # With F = |S|^2/2 the stress is (grad d)^T grad d, a PSD Gram matrix.
        model = GinzburgLandau(1.0, penalty=False)
        x = np.linspace(0, 2 * np.pi, 9)[:-1]
        grad_d = np.zeros((8, 3, 3))
        grad_d[:, 0, 0] = np.cos(x)
        te = ericksen_stress(model, np.zeros((8, 3)), grad_d)
        expect = np.zeros_like(te)
        expect[:, 0, 0] = np.cos(x) ** 2
        assert np.allclose(te, expect, atol=1e-15)
        gd = rng.standard_normal((50, 3, 3))
        te = ericksen_stress(model, rng.standard_normal((50, 3)), gd)
        eigs = np.linalg.eigvalsh(te)
        assert eigs.min() > -1e-12

    def test_pairing_matches_quadrature(self, rng):
        grid = SpectralGrid(8)
        model = GinzburgLandau(1.0)
        db = build_director_basis(model.d2F_dS2_const(), grid, 21)
        vb = build_velocity_basis(grid, 12)
        d, grad_d, _ = db.synthesize_with_derivatives(rng.uniform(-0.3, 0.3, 21))
        _, grad_v, _ = vb.synthesize_with_derivatives(rng.uniform(-0.3, 0.3, 12))
        val = ericksen_pairing(model, d, grad_d, grad_v, grid.cell_volume)
        te = ericksen_stress(model, d, grad_d)
        direct = grid.quad(np.sum(te * grad_v, axis=(-2, -1)))
        assert abs(val - direct) < 1e-14 * max(1.0, abs(direct))
