import numpy as np
import pytest

from elgal.basis import (
    SpectralGrid,
    build_director_basis,
    build_velocity_basis,
    symbol_matrix,
)
from elgal.energies import (
    GinzburgLandau,
    GrowthExponents,
    ScaledOseenFrank,
    SimplifiedOseenFrank,
    WithField,
    WithFreedom,
    _halton_points,
    check_coercivity,
    check_growth,
    check_legendre_hadamard,
    check_theta_bound,
    energy_gradient,
    total_energy,
    variational_derivative,
)
from elgal.simulate import transform_grid_size
from elgal.tensors import contract42, curl_quadratic_4, identity_4, trace_outer_4, transpose_4
from oracles import (
    complex_step_gradients,
    component_major,
    ericksen_pairing,
    full_mesh_derivatives,
    gateaux_check,
    is_component_major,
    is_symmetric_pair,
    weak_form_q_hat,
)

E1 = np.array([1.0, 0.0, 0.0])
Z3 = np.zeros(3)
Z33 = np.zeros((3, 3))


def builtin_models():
    return {
        "gl": GinzburgLandau(1.0),
        "with_field": WithField(GinzburgLandau(1.5), (0.3, -0.2, 0.5), 0.4, 1.1),
        "with_freedom": WithFreedom(GinzburgLandau(1.0), (0.2, -0.1, 0.3), 0.7),
        "sof": SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=1.0),
        "scaled_of": ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=1.0),
    }


def scaled_wrapper_models():
    """Both wrappers over scaled Oseen-Frank, with k3 != k4 so that every
    (k3 - k4) term is live."""
    scaled_of = ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=1.0)
    return {
        "with_field_scaled_of": WithField(scaled_of, (0.3, -0.2, 0.5), 0.4, 1.1),
        "with_freedom_scaled_of": WithFreedom(scaled_of, (0.2, -0.1, 0.3), 0.7),
    }


def remainder_models():
    return {**builtin_models(), **scaled_wrapper_models()}


class TestHessianStructure:
    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_constant_part_has_pair_symmetry(self, name):
        lam = builtin_models()[name].d2F_dS2_const()
        assert is_symmetric_pair(lam)  # exact over all 81 entries

    def test_state_dependent_part_has_pair_symmetry(self, rng):
        model = builtin_models()["scaled_of"]
        for _ in range(10):
            th = model.d2F_dS2_vary(rng.standard_normal(3), rng.standard_normal((3, 3)))
            assert np.max(np.abs(th - np.einsum("ijkl->klij", th))) < 1e-15


def _sof_lam(k1, k2, alpha):
    # Simplified Oseen-Frank's Lam written out term by term: the byte oracle.
    return 2.0 * k2 * identity_4() + 2.0 * (k1 - alpha) * trace_outer_4() - 2.0 * (k2 - alpha) * transpose_4()


def _scaled_lam(k1, k2):
    # Scaled Oseen-Frank's Lam written out term by term: the byte oracle.
    a0 = 0.5 * min(k1, k2)
    return k1 * trace_outer_4() + k2 * curl_quadratic_4() + 2.0 * a0 * (transpose_4() - trace_outer_4())


class TestBaseEnergies:
    """The three base energies share one base: Lam, eps and the well."""

    CASES = {
        "gl": (lambda: GinzburgLandau(1.0), identity_4),
        "gl_no_well": (lambda: GinzburgLandau(None), identity_4),
        "sof": (lambda: SimplifiedOseenFrank(2, 0.5, 0.5), lambda: _sof_lam(2, 0.5, 0.5)),
        "sof_alpha": (lambda: SimplifiedOseenFrank(2.0, 1.0, 0.3, eps=1.0), lambda: _sof_lam(2.0, 1.0, 0.3)),
        "scaled_of": (lambda: ScaledOseenFrank(1.5, 1, 0.009, 0.009, 0.25), lambda: _scaled_lam(1.5, 1.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_constant_hessian_is_a_fresh_copy_of_lam(self, name):
        make, oracle = self.CASES[name]
        model = make()
        first, second = model.d2F_dS2_const(), model.d2F_dS2_const()
        assert first is not second
        assert first.tobytes() == oracle().tobytes()
        first[...] = 0.0
        assert second.tobytes() == model.d2F_dS2_const().tobytes() == oracle().tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda eps: GinzburgLandau(eps),
            lambda eps: SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=eps),
            lambda eps: ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=eps),
        ],
        ids=["gl", "sof", "scaled_of"],
    )
    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_eps_must_be_positive(self, make, eps):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            make(eps)

    def test_k_checks_come_before_eps(self):
        with pytest.raises(ValueError, match="^k1 and k2 must be positive$"):
            SimplifiedOseenFrank(0.0, 1.0, 0.5, eps=0.0)
        with pytest.raises(ValueError, match="^k1 and k2 must be positive$"):
            ScaledOseenFrank(1.5, -1.0, 0.3, 0.2, 0.25, eps=0.0)
        with pytest.raises(ValueError, match="^k3 and k4 must be nonnegative$"):
            ScaledOseenFrank(1.5, 1.0, -0.3, 0.2, 0.25, eps=0.0)

    @pytest.mark.parametrize("eps, weight", [(None, 0.0), (1.0, 0.25), (0.5, 1.0)])
    def test_penalty_weight_from_eps(self, eps, weight):
        for model in (
            GinzburgLandau(eps),
            SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=eps),
            ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=eps),
        ):
            assert model.eps == eps and model.penalty_weight == weight


class TestEvaluate:
    def test_gl_unit_director(self):
        assert GinzburgLandau(1.0).evaluate(E1, Z33) == 0.0

    def test_gl_zero_state(self):
        assert GinzburgLandau(1.0).evaluate(Z3, Z33) == 0.25

    def test_sof_pure_splay(self):
        model = SimplifiedOseenFrank(2.0, 1.0, 0.0, eps=None)
        s = np.outer(E1, E1)  # div = 1, curl = 0, tr(S^2) = 1
        assert abs(model.evaluate(E1, s) - 2.0) < 1e-15

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GinzburgLandau(eps=0.0)
        with pytest.raises(ValueError):
            SimplifiedOseenFrank(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ScaledOseenFrank(1.0, 1.0, -0.1, 0.0, 0.25)


class TestRemainderGradients:
    """remainder_gradients(h, S) is (dF_dh, dF_dS - Lam : S), checked against
    the model's own dF_dh and dF_dS and against a complex-step derivative
    of its evaluate."""

    @pytest.mark.parametrize("name", sorted(remainder_models()))
    def test_matches_dF_dh_and_dF_dS(self, name, rng):
        model = remainder_models()[name]
        h = rng.uniform(-2, 2, (200, 3))
        s = rng.standard_normal((200, 3, 3))
        s *= (rng.uniform(0, 6, 200) / np.linalg.norm(s, axis=(1, 2)))[:, None, None]
        dh, rem = model.remainder_gradients(h, s)
        lam = model.d2F_dS2_const()
        ref_dh = model.dF_dh(h, s)
        ref_ds = model.dF_dS(h, s)
        assert np.max(np.abs(dh - ref_dh)) <= 1e-14 * np.max(np.abs(ref_dh))
        ref_rem = ref_ds - contract42(lam, s)
        assert np.max(np.abs(rem - ref_rem)) <= 1e-13 * np.max(np.abs(ref_ds))
        cs_dh, cs_ds = complex_step_gradients(model, h, s)
        assert np.max(np.abs(dh - cs_dh)) <= 1e-14 * np.max(np.abs(cs_dh))
        cs_rem = cs_ds - contract42(lam, s)
        assert np.max(np.abs(rem - cs_rem)) <= 1e-13 * np.max(np.abs(cs_ds))

    @pytest.mark.parametrize("name", ["gl", "sof", "scaled_of"])
    def test_keeps_the_grid_layout(self, name, rng):
        # What energy_gradient transforms, on component-major grid fields as
        # the transforms write them, for the energies the benchmark runs.
        model = builtin_models()[name]
        h = component_major(rng.uniform(-1, 1, (8, 8, 8, 3)))
        s = component_major(rng.standard_normal((8, 8, 8, 3, 3)))
        if model.has_theta or model.has_mixed:
            outs = model.remainder_gradients(h, s)
        else:
            outs = (model.dF_dh(h, s),)
        for out in outs:
            assert is_component_major(out)


class TestGradients:
    def test_gl_penalty_gradient(self):
        model, h = GinzburgLandau(1.0), np.array([2.0, 0.0, 0.0])
        gh, gs = model.dF_dh(h, Z33), model.dF_dS(h, Z33)
        assert np.allclose(gh, [6.0, 0.0, 0.0], atol=1e-14)
        assert np.array_equal(gs, Z33)

    def test_minimizer_is_stationary(self):
        # (e1, 0) is an exact stationary point of the quartic-well models;
        # the field and freedom terms move it, so those are left out.
        models = builtin_models()
        for model in (models["gl"], models["sof"], models["scaled_of"], GinzburgLandau(2.0)):
            assert np.array_equal(model.dF_dh(E1, Z33), Z3)
            assert np.array_equal(model.dF_dS(E1, Z33), Z33)

    def test_freedom_shifts_gradient_by_outer_product(self, rng):
        b = np.array([0.4, -0.2, 0.9])
        base = GinzburgLandau(1.0)
        model = WithFreedom(base, b, 0.3)
        h = rng.standard_normal((20, 3))
        s = rng.standard_normal((20, 3, 3))
        expect = base.dF_dS(h, s) - np.einsum("...i,j->...ij", h, b)
        assert np.allclose(model.dF_dS(h, s), expect, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(remainder_models()))
    def test_finite_difference_consistency(self, name, rng):
        model = remainder_models()[name]
        h = rng.uniform(-3, 3, (100, 3))
        s = rng.uniform(-3, 3, (100, 3, 3))
        step = 1e-5
        gh = np.zeros((100, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            gh[:, i] = (model.evaluate(h + e, s) - model.evaluate(h - e, s)) / (2 * step)
        gs = np.zeros((100, 3, 3))
        for i in range(3):
            for j in range(3):
                em = np.zeros((3, 3))
                em[i, j] = step
                gs[:, i, j] = (model.evaluate(h, s + em) - model.evaluate(h, s - em)) / (2 * step)
        ah, as_ = model.dF_dh(h, s), model.dF_dS(h, s)
        assert np.max(np.abs(gh - ah)) <= 1e-6 * max(1.0, np.max(np.abs(ah)))
        assert np.max(np.abs(gs - as_)) <= 1e-6 * max(1.0, np.max(np.abs(as_)))

    @pytest.mark.parametrize("name", sorted(remainder_models()))
    def test_second_derivative_consistency(self, name, rng):
        model = remainder_models()[name]
        h = rng.uniform(-3, 3, (50, 3))
        s = rng.uniform(-3, 3, (50, 3, 3))
        step = 1e-5
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        um = rng.standard_normal((3, 3))
        um /= np.linalg.norm(um)
        mixed_fd = (model.dF_dS(h + step * u, s) - model.dF_dS(h - step * u, s)) / (2 * step)
        mixed = np.einsum("...ijk,k->...ij", model.d2F_dSdh(h, s), u)
        assert np.max(np.abs(mixed_fd - mixed)) <= 1e-5 * max(1.0, np.max(np.abs(mixed_fd)))
        hess_fd = (model.dF_dS(h, s + step * um) - model.dF_dS(h, s - step * um)) / (2 * step)
        hess = contract42(model.d2F_dS2_const(), um) + contract42(model.d2F_dS2_vary(h, s), um)
        assert np.max(np.abs(hess_fd - hess)) <= 1e-5 * max(1.0, np.max(np.abs(hess_fd)))


@pytest.fixture(scope="module")
def vd_setup():
    grid = SpectralGrid(16)
    model = GinzburgLandau(1.0)
    basis = build_director_basis(model.d2F_dS2_const(), grid, 21)
    return grid, model, basis


class TestVariationalDerivative:
    def _fields(self, basis, coefs):
        return full_mesh_derivatives(basis, coefs, hessian=True)

    def test_constant_unit_director(self, vd_setup):
        grid, model, basis = vd_setup
        coefs = np.zeros(21)
        coefs[0] = np.sqrt(grid.volume)  # constant (1, 0, 0)
        d, gd, hd = self._fields(basis, coefs)
        q = variational_derivative(model, d, gd, hd)
        assert np.max(np.abs(q)) < 1e-14

    def test_constant_stretched_director(self, vd_setup):
        grid, model, basis = vd_setup
        coefs = np.zeros(21)
        coefs[0] = 2.0 * np.sqrt(grid.volume)  # constant (2, 0, 0)
        d, gd, hd = self._fields(basis, coefs)
        q = variational_derivative(model, d, gd, hd)
        assert np.max(np.abs(q - np.array([6.0, 0.0, 0.0]))) < 1e-12

    def test_single_mode_is_eigenfunction(self, vd_setup):
        grid, _, basis = vd_setup
        model = GinzburgLandau(eps=None)
        coefs = np.zeros(21)
        coefs[5] = 0.7  # a |k|^2 = 1 mode: q = -Delta d = d
        d, gd, hd = self._fields(basis, coefs)
        q = variational_derivative(model, d, gd, hd)
        assert np.max(np.abs(q - d)) < 1e-12

    def test_shape_mismatch_rejected(self, vd_setup):
        _, model, basis = vd_setup
        d, gd, hd = self._fields(basis, np.zeros(21))
        with pytest.raises(ValueError, match="shape"):
            variational_derivative(model, d, gd[:-1], hd)


class TestEnergyGradient:
    """The solver's q_hat at N = 16 with the full 3993-mode basis."""

    @pytest.mark.parametrize("name", sorted(remainder_models()))
    def test_exact_gradient_of_quadrature_energy(self, name):
        model = remainder_models()[name]
        basis = build_director_basis(model.d2F_dS2_const(), SpectralGrid(16))
        rng = np.random.default_rng(16)
        for _ in range(5):
            d_hat = rng.uniform(-0.5, 0.5, basis.size)
            psi = rng.uniform(-1.0, 1.0, basis.size)
            assert gateaux_check(model, basis, d_hat, psi) <= 1e-6

    @pytest.mark.parametrize("name", ["gl", "with_field", "with_freedom", "sof"])
    def test_matches_strong_form_oracle(self, name):
        # Constant-Hessian models: integration by parts is exact on the span.
        model = builtin_models()[name]
        basis = build_director_basis(model.d2F_dS2_const(), SpectralGrid(16))
        d_hat = np.random.default_rng(17).uniform(-0.5, 0.5, basis.size)
        _, _, q_weak = energy_gradient(model, basis, d_hat)
        d, gd, hd = full_mesh_derivatives(basis, d_hat, hessian=True)
        q_oracle = basis.analyze(variational_derivative(model, d, gd, hd))
        assert np.max(np.abs(q_weak - q_oracle)) <= 1e-12 * np.max(np.abs(q_oracle))


def split_models():
    models = remainder_models()
    models["with_freedom_b0"] = WithFreedom(GinzburgLandau(1.0), (0.0, 0.0, 0.0), 0.7)
    return models


def _constant_principal_part_models():
    """Every catalog energy whose S-Hessian is constant and has no mixed part."""
    sof = SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=1.0)
    return {
        "gl": GinzburgLandau(1.0),
        "gl_dirichlet": GinzburgLandau(eps=None),
        "sof": sof,
        "sof_no_well": SimplifiedOseenFrank(1.5, 0.7, -0.2),
        "with_field_gl": WithField(GinzburgLandau(1.5), (0.3, -0.2, 0.5), 0.4, 1.1),
        "with_field_sof": WithField(sof, (0.0, 0.0, 1.0), 0.1, 0.6),
        "with_freedom_b0": WithFreedom(GinzburgLandau(1.0), (0.0, 0.0, 0.0), 0.7),
        "with_freedom_b0_sof": WithFreedom(sof, (0.0, 0.0, 0.0), -0.3),
    }


class TestPrincipalSplit:
    """energy_gradient applies (Lam : S, grad z_i) as sigma_i d_i and pairs
    only the remainder R = dF_dS - Lam : S on the grid."""

    @pytest.mark.parametrize("name", sorted(split_models()))
    def test_matches_full_weak_form_at_n16(self, name):
        model = split_models()[name]
        basis = build_director_basis(model.d2F_dS2_const(), SpectralGrid(16))
        d_hat = np.random.default_rng(18).uniform(-0.5, 0.5, basis.size)
        _, _, q_hat = energy_gradient(model, basis, d_hat)
        oracle = weak_form_q_hat(model, basis, d_hat)
        assert np.max(np.abs(q_hat - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("name", sorted(split_models()))
    def test_matches_full_weak_form_on_reduced_grid(self, name):
        model = split_models()[name]
        basis = build_director_basis(model.d2F_dS2_const(), SpectralGrid(16), 57)
        n_q = transform_grid_size(16, basis.k_max, 6)
        assert n_q < 16
        basis = basis.on_grid(SpectralGrid(n_q))
        d_hat = np.random.default_rng(19).uniform(-0.5, 0.5, basis.size)
        _, _, q_hat = energy_gradient(model, basis, d_hat)
        oracle = weak_form_q_hat(model, basis, d_hat)
        assert np.max(np.abs(q_hat - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("name", sorted(_constant_principal_part_models()))
    def test_remainder_constant_without_theta_or_mixed(self, name, rng):
        model = _constant_principal_part_models()[name]
        assert not (model.has_theta or model.has_mixed)
        h = 2.0 * rng.standard_normal((200, 3))
        s = 2.0 * rng.standard_normal((200, 3, 3))
        ds = model.dF_dS(h, s)
        rem = ds - contract42(model.d2F_dS2_const(), s)
        assert np.max(np.abs(rem - rem[0])) <= 1e-12 * np.max(np.abs(ds))

    @pytest.mark.parametrize("name", ["with_freedom", "scaled_of"])
    def test_remainder_varies_with_theta_or_mixed(self, name, rng):
        model = builtin_models()[name]
        assert model.has_theta or model.has_mixed
        h = 2.0 * rng.standard_normal((200, 3))
        s = 2.0 * rng.standard_normal((200, 3, 3))
        rem = model.dF_dS(h, s) - contract42(model.d2F_dS2_const(), s)
        assert np.max(np.abs(rem - rem[0])) > 1e-3

    def test_basis_of_another_tensor_is_refused(self):
        model = builtin_models()["sof"]
        basis = build_director_basis(GinzburgLandau(1.0).d2F_dS2_const(), SpectralGrid(8), 21)
        with pytest.raises(ValueError, match="d2F_dS2_const"):
            energy_gradient(model, basis, np.zeros(basis.size))


@pytest.fixture(scope="module")
def te_setup():
    grid = SpectralGrid(16)
    basis = build_director_basis(np.eye(3)[:, None, :, None] * np.eye(3)[None, :, None, :], grid, 21)
    return grid, basis


class TestTotalEnergy:
    def test_global_minimizer(self, te_setup):
        grid, basis = te_setup
        coefs = np.zeros(21)
        coefs[0] = np.sqrt(grid.volume)
        d, gd = basis.synthesize_with_derivatives(coefs)
        assert abs(total_energy(GinzburgLandau(1.0), d, gd, grid.cell_volume)) < 1e-13

    def test_zero_director(self, te_setup):
        grid, basis = te_setup
        d, gd = basis.synthesize_with_derivatives(np.zeros(21))
        expect = (2 * np.pi) ** 3 / 4
        val = total_energy(GinzburgLandau(1.0), d, gd, grid.cell_volume)
        assert abs(val - expect) < 1e-11 * expect

    def test_single_sine_mode(self, te_setup):
        grid, basis = te_setup
        # a sin(x) e_j has gradient energy a^2 (2 pi)^3 / 4
        a = 0.8
        coefs = np.zeros(21)
        idx = None
        for i, m in enumerate(basis.modes):
            if m["eig"] == 1.0 and m["parity"] == 1:
                idx = i
                break
        coefs[idx] = a * np.sqrt(grid.volume / 2.0)  # amplitude a in physical units
        d, gd = basis.synthesize_with_derivatives(coefs)
        expect = a * a * (2 * np.pi) ** 3 / 4
        val = total_energy(GinzburgLandau(eps=None), d, gd, grid.cell_volume)
        assert abs(val - expect) < 1e-11 * expect


class TestLegendreHadamard:
    def test_sof_closed_form(self, rng):
        for _ in range(200):
            k1, k2 = rng.uniform(0.05, 10.0, 2)
            alpha = rng.uniform(-5.0, 5.0)
            model = SimplifiedOseenFrank(k1, k2, alpha, eps=None)
            lam = model.d2F_dS2_const()
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            form = np.einsum("i,j,ijkl,k,l->", a, b, lam, a, b)
            closed = 2 * k2 * (a @ a) * (b @ b) + 2 * (k1 - k2) * (a @ b) ** 2
            assert abs(form - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_sof_axis_value(self):
        lam = SimplifiedOseenFrank(2.0, 1.0, 0.0, eps=None).d2F_dS2_const()
        val = np.einsum("i,j,ijkl,k,l->", E1, E1, lam, E1, E1)
        assert val == 4.0

    def test_identity_tensor_unit_form(self):
        report = check_legendre_hadamard(GinzburgLandau(1.0), 500)
        assert report.passed
        assert abs(report.worst_value - 1.0) < 1e-12

    def test_sampled_minimum_matches_2min(self, rng):
        for _ in range(5):
            k1, k2 = rng.uniform(0.2, 10.0, 2)
            report = check_legendre_hadamard(SimplifiedOseenFrank(k1, k2, 1.0, eps=None), 2000)
            assert report.passed
            assert abs(report.worst_value - 2 * min(k1, k2)) <= 1e-3

    def test_overclaimed_bound_fails(self):
        class Overclaimed(GinzburgLandau):
            def ellipticity_constant(self):
                return 2.0

        assert not check_legendre_hadamard(Overclaimed(1.0), 500).passed

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            check_legendre_hadamard(GinzburgLandau(1.0), 0)


class TestCoercivity:
    def test_gl_declared_constants_hold(self):
        model = GinzburgLandau(1.0)
        assert model.coercivity_constants() == (0.5, 0.5, 0.25)
        report = check_coercivity(model, 3000, radius=3.0)
        assert report.passed and report.worst_value >= 0.0

    def test_pure_gradient_energy_is_sharp(self):
        model = GinzburgLandau(eps=None)
        assert model.coercivity_constants() == (0.5, 0.0, 0.0)
        report = check_coercivity(model, 3000, radius=3.0)
        assert report.passed
        assert report.worst_value == 0.0

    def test_overclaimed_eta1_fails_with_negative_margin(self):
        class Overclaimed(GinzburgLandau):
            def coercivity_constants(self):
                return (2.0, 0.5, 0.25)

        report = check_coercivity(Overclaimed(1.0), 3000, radius=3.0)
        assert not report.passed
        assert report.worst_value < 0.0
        h, s = report.worst_point["h"], report.worst_point["S"]
        model = Overclaimed(1.0)
        margin = model.evaluate(h, s) - 2.0 * np.sum(s * s) + 0.5 * h @ h + 0.25
        assert margin < 0.0

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_all_builtins_pass(self, name):
        assert check_coercivity(builtin_models()[name], 2000, radius=3.0).passed

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            check_coercivity(GinzburgLandau(1.0), 100, radius=0.0)


class TestGrowth:
    def test_gl_mixed_bound_trivial(self):
        report = check_growth(GinzburgLandau(1.0), 2000, radius=10.0)
        assert report.passed
        assert not GinzburgLandau(1.0).has_mixed

    def test_gl_declared_exponents(self):
        ge = GinzburgLandau(1.0).growth_exponents()
        assert (ge.gamma1, ge.gamma2, ge.c_h) == (2.0, 6.0, 2.0)
        assert ge.gamma3 == 0.0

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_all_builtins_pass_at_large_radius(self, name):
        report = check_growth(builtin_models()[name], 3000, radius=1000.0)
        assert report.passed, report

    def test_undersized_scaling_exponent_fails_at_large_radius(self):
        # s <= 1/6 makes dF_dh grow faster than any admissible |S| power.
        model = ScaledOseenFrank(1.0, 1.0, 1.0, 1.0, s=0.05, eps=None)
        report = check_growth(model, 3000, radius=1e6)
        assert not report.passed
        assert report.worst_value > 1.0

    def test_growth_exponent_validation(self):
        with pytest.raises(ValueError):
            GrowthExponents(1.9, 6.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GrowthExponents(10.0 / 3.0, 6.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GrowthExponents(2.0, 10.0, 1.0, 1.0)
        ge = GrowthExponents(3.0, 6.0, 1.0, 1.0)
        assert ge.gamma3 == (3.0 - 2.0) * 6.0 / (2.0 * 3.0)


@pytest.fixture(scope="module")
def calibration():
    grid = SpectralGrid(16)
    model = ScaledOseenFrank(1.5, 1.0, 0.009, 0.009, 0.25, eps=1.0)
    basis = build_director_basis(model.d2F_dS2_const(), grid)
    return basis.regularity_constant(), basis.h2_norm_constant()


class TestThetaBound:
    def test_quadratic_model_trivially_passes(self, calibration):
        c_lam, c_h2 = calibration
        report = check_theta_bound(GinzburgLandau(1.0), c_lam, c_h2)
        assert report.passed and report.worst_value == 0.0

    def test_small_anisotropy_passes(self, calibration):
        c_lam, c_h2 = calibration
        k3 = k4 = 0.009
        assert 53.0 * (k3 + k4) <= c_lam / c_h2
        model = ScaledOseenFrank(1.5, 1.0, k3, k4, 0.25, eps=1.0)
        report = check_theta_bound(model, c_lam, c_h2, 2000)
        assert report.passed, report

    def test_hundredfold_anisotropy_fails(self, calibration):
        c_lam, c_h2 = calibration
        model = ScaledOseenFrank(1.5, 1.0, 0.9, 0.9, 0.25, eps=1.0)
        report = check_theta_bound(model, c_lam, c_h2, 2000)
        assert not report.passed

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            check_theta_bound(GinzburgLandau(1.0), 0.0, 1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_invalid_radius(self, calibration, radius):
        # This model fails at the default radius; a ball of radius 0 would
        # sample only h = 0, S = 0, where Theta vanishes, and pass.
        c_lam, c_h2 = calibration
        model = ScaledOseenFrank(1.5, 1.0, 0.5, 0.2, 0.25, eps=1.0)
        assert not check_theta_bound(model, c_lam, c_h2, 2000).passed
        with pytest.raises(ValueError, match="radius"):
            check_theta_bound(model, c_lam, c_h2, 2000, radius=radius)


PRIMES_14 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class TestHaltonPoints:
    def test_leading_rows_are_radical_inverses(self):
        u = _halton_points(3, 14)
        assert np.array_equal(u[0], np.zeros(14))
        assert np.array_equal(u[1], [1 / p for p in PRIMES_14])
        assert np.array_equal(u[2], [1 / 4] + [2 / p for p in PRIMES_14[1:]])

    @pytest.mark.parametrize("n", [16, 2000, 4000, 20000])
    def test_equal_to_scipy_unscrambled_halton(self, n):
        from scipy.stats import qmc

        want = qmc.Halton(d=14, scramble=False, seed=0).random(n)
        assert np.array_equal(_halton_points(n, 14), want)


@pytest.mark.parametrize("n_samples", [0, -3])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: check_legendre_hadamard(GinzburgLandau(1.0), n),
        lambda n: check_coercivity(GinzburgLandau(1.0), n),
        lambda n: check_growth(GinzburgLandau(1.0), n),
        # Without Theta the check returns before it samples.
        lambda n: check_theta_bound(GinzburgLandau(1.0), 1.0, 1.0, n),
        lambda n: check_theta_bound(ScaledOseenFrank(1.5, 1.0, 0.009, 0.009, 0.25, eps=1.0), 1.0, 1.0, n),
    ],
    ids=["legendre_hadamard", "coercivity", "growth", "theta_bound_no_theta", "theta_bound"],
)
def test_checkers_reject_sample_count_below_one(check, n_samples):
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        check(n_samples)


class TestNullLagrangianProperties:
    def test_freedom_terms_do_not_change_flow_coupling(self, rng):
        grid = SpectralGrid(8)
        base = GinzburgLandau(1.0)
        model = WithFreedom(base, (0.4, -0.3, 0.8), 1.2)
        db = build_director_basis(base.d2F_dS2_const(), grid, 57)
        vb = build_velocity_basis(grid, 36)
        for _ in range(5):
            d, gd = db.synthesize_with_derivatives(rng.uniform(-0.5, 0.5, 57))
            _, gv = vb.synthesize_with_derivatives(rng.uniform(-0.5, 0.5, 36))
            p_base = ericksen_pairing(base, d, gd, gv, grid.cell_volume)
            p_model = ericksen_pairing(model, d, gd, gv, grid.cell_volume)
            assert abs(p_base - p_model) <= 1e-10 * max(1.0, abs(p_base))

    def test_sof_symbol_is_alpha_invariant(self):
        # The alpha term is a null Lagrangian: identical symbol matrices,
        # exactly, for dyadic moduli and integer wavevectors.
        for k in ([1, 0, 0], [1, 2, 3], [0, -2, 1]):
            symbols = [
                symbol_matrix(SimplifiedOseenFrank(2.0, 1.5, alpha, eps=None).d2F_dS2_const(), k)
                for alpha in (-1.0, 0.0, 1.0)
            ]
            assert np.array_equal(symbols[0], symbols[1])
            assert np.array_equal(symbols[1], symbols[2])


class TestWithFieldGrid:
    def test_grid_field_broadcasts(self, rng):
        base = GinzburgLandau(1.0)
        field = rng.uniform(-0.5, 0.5, (4, 4, 4, 3))
        model = WithField(base, field, 0.3, 0.9)
        h = rng.standard_normal((4, 4, 4, 3))
        s = rng.standard_normal((4, 4, 4, 3, 3))
        vals = model.evaluate(h, s)
        i, j, k = 1, 2, 3
        point = WithField(base, field[i, j, k], 0.3, 0.9).evaluate(h[i, j, k], s[i, j, k])
        assert abs(vals[i, j, k] - point) < 1e-14 * max(1.0, abs(point))
        assert model.field_bound == np.max(np.linalg.norm(field.reshape(-1, 3), axis=1))

    def test_mismatched_grid_field_raises(self, rng):
        model = WithField(GinzburgLandau(1.0), rng.uniform(-0.5, 0.5, (4, 4, 4, 3)), 0.3, 0.9)
        h = rng.standard_normal((5, 3))
        s = rng.standard_normal((5, 3, 3))
        with pytest.raises(ValueError):
            model.evaluate(h, s)
        with pytest.raises(ValueError):
            model.dF_dh(h, s)
