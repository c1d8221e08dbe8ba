import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from elgal.basis import (
    COS,
    MODE_DTYPE,
    SIN,
    DirectorBasis,
    SpectralGrid,
    VelocityBasis,
    build_director_basis,
    build_velocity_basis,
    symbol_matrix,
)
from elgal.energies import ScaledOseenFrank, SimplifiedOseenFrank
from elgal.tensors import identity_4
from oracles import (
    axes_points,
    component_major,
    divergence_of,
    elliptic_apply,
    fft,
    full_mesh_derivatives,
    gradient_of,
    is_component_major,
    l2_norm,
    laplacian_of,
    manifest,
    per_mode_analyze,
    per_mode_stress,
    traced_peak,
)

SOF_LAM = SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=None).d2F_dS2_const()


@pytest.fixture(scope="module")
def grid16():
    return SpectralGrid(16)


@pytest.fixture(scope="module")
def gl_basis(grid16):
    return build_director_basis(identity_4(), grid16, 57)


@pytest.fixture(scope="module")
def vel_basis(grid16):
    return build_velocity_basis(grid16, 36)


class TestGrid:
    def test_resolution_guards(self):
        for bad in (4, 6, 7, 9):
            with pytest.raises(ValueError):
                SpectralGrid(bad)

    def test_strict_two_thirds_cutoff(self):
        assert SpectralGrid(16).cutoff == 5
        assert SpectralGrid(8).cutoff == 2
        for n in (8, 12, 16, 32):
            assert 3 * SpectralGrid(n).cutoff < n


def _band_rows(n, k_max):
    """Full-spectrum indices of wavenumbers 0..k_max, then -k_max..-1."""
    return np.concatenate([np.arange(k_max + 1), np.arange(n - k_max, n)])


class TestBandTransforms:
    @pytest.mark.parametrize(
        "n, k_max", [(n, k) for n in (8, 16, 32) for k in sorted({1, 2, (n - 1) // 2})]
    )
    def test_match_scipy_on_zero_padded_half_spectrum(self, n, k_max, rng):
        grid = SpectralGrid(n, k_max)
        b, h = 2 * k_max + 1, k_max + 1
        rows = _band_rows(n, k_max)
        assert grid.band_shape == (h, b, b)
        for c in (3, 9, 12, 15):
            # Column slices of a wider array, as the right-hand side passes them.
            field = rng.standard_normal((n, n, n, c + 3))[..., 3:]
            # The half axis is x, the first: scipy takes it last in ``axes``.
            half = scipy.fft.rfftn(field, axes=(1, 2, 0), norm="forward")
            want = half[:h][:, rows][:, :, rows]
            got = grid.rfft(field)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            # A random band: its k_1 = 0 plane is not Hermitian.
            band = (rng.standard_normal((h, b, b, c + 3)) + 1j * rng.standard_normal((h, b, b, c + 3)))[..., 3:]
            padded = np.zeros((n // 2 + 1, n, n, c), complex)
            padded[np.ix_(np.arange(h), rows, rows)] = band
            want = scipy.fft.irfftn(padded, s=(n,) * 3, axes=(1, 2, 0), norm="forward")
            got = grid.irfft(band)
            assert got.shape == want.shape == (n, n, n, c)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_wrapping_band_refused(self):
        assert SpectralGrid(16, 7).band_shape == (8, 15, 15)
        for n, k_max in ((8, 4), (16, 8), (32, 16), (16, -1)):
            with pytest.raises(ValueError):
                SpectralGrid(n, k_max)

    def test_default_band_is_cutoff(self):
        assert SpectralGrid(16) == SpectralGrid(16, 5)
        assert SpectralGrid(32).k_max == 10

    def test_modes_outside_band_refused(self):
        basis = build_director_basis(SOF_LAM, SpectralGrid(16), 200)
        assert basis.k_max == 2
        basis.on_grid(SpectralGrid(16, 2))
        with pytest.raises(ValueError):
            basis.on_grid(SpectralGrid(16, 1))

    @pytest.mark.parametrize("build", ["director", "velocity"])
    def test_same_band_shares_operators(self, build, rng):
        # The scatter and gather index the band only, so a grid with the
        # same band reuses them and gives a fresh build's bytes.
        grid = SpectralGrid(16, 2)
        if build == "director":
            basis = build_director_basis(SOF_LAM, grid, 200)
            fresh = DirectorBasis(SpectralGrid(10, 2), basis.lam4, basis.modes)
        else:
            basis = build_velocity_basis(grid, 100)
            fresh = VelocityBasis(SpectralGrid(10, 2), basis.modes)
        moved = basis.on_grid(SpectralGrid(10, 2))
        assert type(moved) is type(basis) and moved.grid == fresh.grid and basis.grid is grid
        assert moved._scatter is basis._scatter and moved._gather is basis._gather
        coefs = rng.uniform(-1.0, 1.0, basis.size)
        assert_bytes_equal(moved.synthesize(coefs), fresh.synthesize(coefs))
        field = fresh.synthesize(coefs)
        assert_bytes_equal(moved.analyze(field), fresh.analyze(field))
        wide = basis.on_grid(SpectralGrid(16))
        assert wide._scatter is not basis._scatter and wide.grid.k_max == 5

    def test_shape_mismatch_refused(self):
        grid = SpectralGrid(16, 1)
        with pytest.raises(ValueError):
            grid.irfft(np.zeros((5, 5, 3, 3), complex))
        with pytest.raises(ValueError):
            grid.rfft(np.zeros((8, 8, 8, 3)))

    def test_negative_first_component_refused(self):
        basis = build_velocity_basis(SpectralGrid(8), 4)
        modes = basis.modes.copy()
        modes["k"][2] = (-1, 0, 1)
        with pytest.raises(ValueError, match=r"k=\(-1, 0, 1\) has k_1 < 0"):
            VelocityBasis(basis.grid, modes)

    def test_band_of_another_grid_refused(self):
        basis = build_velocity_basis(SpectralGrid(16, 1), 26)
        wide = SpectralGrid(16).rfft(np.zeros((16, 16, 16, 12))).reshape(-1, 12)
        with pytest.raises(ValueError):
            basis.analyze_spec_half(wide[:, :3])
        with pytest.raises(ValueError):
            basis.project_stress_spec_half(wide[:, 3:].reshape(-1, 3, 3))
        with pytest.raises(ValueError):
            basis.grid.divergence(wide[:, 3:].reshape(-1, 3, 3))


class TestFieldLayout:
    """Grid fields are component-major: each component one contiguous n^3
    plane, viewed as (n, n, n, C) with the last axis strided by n^3."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_irfft_writes_component_planes(self, n, rng):
        grid = SpectralGrid(n)
        h, b, _ = grid.band_shape
        for c in (3, 12):
            band = rng.standard_normal((h, b, b, c)) + 1j * rng.standard_normal((h, b, b, c))
            field = grid.irfft(band)
            assert field.shape == (n, n, n, c)
            assert np.moveaxis(field, -1, 0).flags.c_contiguous
        matrix = grid.irfft(band[..., 3:].reshape(h, b, b, 3, 3))
        assert matrix.shape == (n, n, n, 3, 3)
        assert is_component_major(matrix)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rfft_does_not_depend_on_the_input_layout(self, n, rng):
        grid = SpectralGrid(n)
        for c in (3, 12, 15):
            field = component_major(rng.standard_normal((n, n, n, c)))
            copy = np.ascontiguousarray(field)
            assert copy.flags.c_contiguous and not field.flags.c_contiguous
            assert grid.rfft(field).tobytes() == grid.rfft(copy).tobytes()


class TestPassWorkingSet:
    def test_passes_stay_near_the_field_size(self, rng):
        # gl-n32-full's transform grid: the forward's real x pass writes only
        # the k_1 >= 0 half, so no pass outgrows the field it reads or writes,
        # in either layout.
        grid = SpectralGrid(32, 10)
        field = rng.standard_normal((32, 32, 32, 15))
        assert traced_peak(grid.rfft, field) <= 1.5 * field.nbytes
        assert traced_peak(grid.rfft, component_major(field)) <= 1.5 * field.nbytes
        band = grid.rfft(field)[..., :12].copy()
        out_bytes = 32**3 * 12 * 8
        assert traced_peak(grid.irfft, band) <= 2.0 * out_bytes

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11 the caller holds its arguments during a call"
    )
    def test_rfft_frees_its_input_after_the_x_pass(self, rng):
        # A field made inside the traced call has rfft's argument as its only
        # reference, so rfft frees it before the y pass allocates: the peak
        # is the field and the x pass's (c, yz, 2 (k_max+1)) output together.
        grid = SpectralGrid(32, 10)
        shape = (15, 32, 32, 32)
        field_bytes = 8 * np.prod(shape)
        x_out_bytes = 8 * 15 * 32**2 * 2 * (grid.k_max + 1)
        peak = traced_peak(lambda s: grid.rfft(rng.standard_normal(s).transpose(1, 2, 3, 0)), shape)
        assert peak <= 1.05 * (field_bytes + x_out_bytes)


class TestSymbolMatrix:
    def test_laplacian_symbol(self, rng):
        for _ in range(10):
            k = rng.integers(-5, 6, 3)
            m = symbol_matrix(identity_4(), k)
            assert np.allclose(m, (k @ k) * np.eye(3), atol=0)

    def test_sof_symbol_axis(self):
        m = symbol_matrix(SOF_LAM, [1, 0, 0])
        assert np.array_equal(m, np.diag([4.0, 2.0, 2.0]))
        w = np.linalg.eigvalsh(symbol_matrix(SOF_LAM, [1, 2, -1]))
        ksq = 6.0
        assert np.allclose(sorted(w), [2 * 1.0 * ksq, 2 * 1.0 * ksq, 2 * 2.0 * ksq], atol=1e-12)


class TestDirectorBasis:
    def test_mode_counting_first_shell(self, gl_basis):
        sig = gl_basis.eigs
        assert np.array_equal(sig[:3], [0.0, 0.0, 0.0])  # constants retained
        assert np.count_nonzero(sig == 1.0) == 18  # 3 wavevectors x 3 axes x 2 parities

    def test_orthonormality(self, gl_basis, grid16):
        fields = [gl_basis.synthesize(row) for row in np.eye(gl_basis.size)[:24]]
        gram = np.array(
            [[grid16.quad(np.sum(f * g, axis=-1)) for g in fields] for f in fields]
        )
        assert np.max(np.abs(gram - np.eye(24))) < 1e-12

    def test_eigen_relation(self, grid16):
        basis = build_director_basis(SOF_LAM, grid16, 40)
        for i in (3, 17, 39):
            z = basis.synthesize(np.eye(basis.size)[i])
            az = elliptic_apply(basis.lam4, grid16, z)
            scale = max(1.0, basis.eigs[i])
            assert np.max(np.abs(az - basis.eigs[i] * z)) < 1e-10 * scale

    def test_eigenvalue_lower_bound(self, grid16):
        model = SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=None)
        basis = build_director_basis(SOF_LAM, grid16)
        eta = model.ellipticity_constant()
        ksq = np.sum(basis.kvecs**2, axis=1)
        keep = ksq > 0
        assert np.all(basis.eigs[keep] >= eta * ksq[keep] - 1e-9)

    def test_not_elliptic_refused(self, grid16):
        with pytest.raises(ValueError, match=r"elliptic.* at k=\(0, 0, 1\)"):
            build_director_basis(-identity_4(), grid16, 10)

    def test_asymmetric_symbol_refused(self, grid16):
        lam = identity_4()
        lam[0, 1, 1, 1] += 0.1
        with pytest.raises(ValueError, match="not symmetric"):
            build_director_basis(lam, grid16, 10)

    def test_deterministic_rebuild(self, grid16):
        a = build_director_basis(SOF_LAM, grid16, 60)
        b = build_director_basis(SOF_LAM, grid16, 60)
        assert manifest(a) == manifest(b)
        assert np.array_equal(a.vecs, b.vecs)

    def test_calibration_constants(self, gl_basis):
        # H2/laplacian ratio peaks at |k|^2 = 1: sqrt(1 + 1 + 1) = sqrt(3);
        # for the laplacian sigma = |k|^2, so both constants agree.
        assert abs(gl_basis.h2_norm_constant() - np.sqrt(3.0)) < 1e-12
        assert abs(gl_basis.regularity_constant() - np.sqrt(3.0)) < 1e-12

    def test_mode_count_guard(self, grid16):
        with pytest.raises(ValueError):
            build_director_basis(identity_4(), grid16, 10**9)


class TestVelocityBasis:
    def test_first_shell_count(self, grid16):
        basis = build_velocity_basis(grid16, 12)
        assert np.all(basis.eigs == 1.0)
        with_next = build_velocity_basis(grid16, 13)
        assert with_next.eigs[12] == 2.0

    def test_divergence_free_polarizations(self, vel_basis):
        for m in vel_basis.modes:
            k = np.array(m["k"], dtype=float)
            dot = float(k @ m["vec"])
            if (k == 0).any():
                assert dot == 0.0
            else:
                assert abs(dot) <= 4e-16 * np.linalg.norm(k)

    def test_synthesized_fields_solenoidal(self, vel_basis, grid16, rng):
        v = vel_basis.synthesize(rng.uniform(-1, 1, vel_basis.size))
        div = np.einsum("...ii->...", gradient_of(grid16, v))
        assert np.max(np.abs(div)) < 1e-12

    def test_leray_projection_of_longitudinal_part(self, vel_basis, grid16):
        x = axes_points(grid16)
        cosx = np.cos(x)[:, None, None] * np.ones((1, 16, 16))
        field = np.zeros((16, 16, 16, 3))
        field[..., 0] = cosx  # longitudinal at k = (1,0,0)
        field[..., 1] = cosx  # transverse
        projected = vel_basis.synthesize(vel_basis.analyze(field))
        expect = np.zeros_like(field)
        expect[..., 1] = cosx
        assert np.max(np.abs(projected - expect)) < 1e-12

    def test_solenoidal_input_reproduced(self, vel_basis, rng):
        coefs = rng.uniform(-1, 1, vel_basis.size)
        again = vel_basis.analyze(vel_basis.synthesize(coefs))
        assert np.max(np.abs(again - coefs)) < 1e-12

    def test_constant_field_projects_to_zero(self, vel_basis):
        field = np.ones((16, 16, 16, 3))
        assert np.max(np.abs(vel_basis.analyze(field))) < 1e-13

    def test_projection_contracts(self, vel_basis, grid16, rng):
        field = rng.standard_normal((16, 16, 16, 3))
        coefs = vel_basis.analyze(field)
        assert np.sqrt(coefs @ coefs) <= l2_norm(grid16, field) + 1e-12


class TestProjections:
    def test_basis_mode_gives_unit_vector(self, gl_basis):
        f = gl_basis.synthesize(np.eye(gl_basis.size)[7])
        coefs = gl_basis.analyze(f)
        assert np.max(np.abs(coefs - np.eye(gl_basis.size)[7])) < 1e-12

    def test_out_of_span_mode_projects_to_zero(self, grid16, gl_basis):
        full = build_director_basis(identity_4(), grid16)
        outside = full.synthesize(np.eye(full.size)[gl_basis.size + 5])
        assert np.max(np.abs(gl_basis.analyze(outside))) < 1e-12

    def test_projection_contracts(self, grid16, gl_basis, rng):
        full = build_director_basis(identity_4(), grid16)
        field = full.synthesize(rng.uniform(-1, 1, full.size))
        coefs = gl_basis.analyze(field)
        assert np.sqrt(coefs @ coefs) <= l2_norm(grid16, field) + 1e-12

    def test_idempotent(self, gl_basis, rng):
        coefs = rng.uniform(-1, 1, gl_basis.size)
        once = gl_basis.analyze(gl_basis.synthesize(coefs))
        assert np.max(np.abs(once - coefs)) < 1e-12


class TestSpectralDerivatives:
    def test_laplacian_of_single_mode(self, grid16):
        x = axes_points(grid16)
        field = np.zeros((16, 16, 16, 3))
        field[..., 1] = 0.7 * np.sin(x)[:, None, None]
        lap = laplacian_of(grid16, field)
        assert np.max(np.abs(lap + field)) < 1e-13

    def test_round_trip(self, gl_basis, rng):
        coefs = rng.uniform(-1, 1, gl_basis.size)
        assert np.max(np.abs(gl_basis.analyze(gl_basis.synthesize(coefs)) - coefs)) < 1e-12

    def test_transport_gradient_product_rule(self, grid16, rng):
        # grad((v.grad) d) = grad d grad v + (v.grad) grad d for band-limited
        # fields narrow enough that the product stays below the cutoff.
        narrow_d = build_director_basis(identity_4(), grid16, 57)  # |k|^2 <= 2
        narrow_v = build_velocity_basis(grid16, 36)
        d, gd, hd = full_mesh_derivatives(narrow_d, rng.uniform(-0.5, 0.5, 57), hessian=True)
        v, gv = narrow_v.synthesize_with_derivatives(rng.uniform(-0.5, 0.5, 36))
        transport = np.einsum("...ia,...a->...i", gd, v)
        lhs = gradient_of(grid16, transport)
        rhs = np.einsum("...ia,...ab->...ib", gd, gv) + np.einsum(
            "...iab,...b->...ia", np.swapaxes(hd, -1, -2), v
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_divergence_matches_gradient_trace(self, grid16, gl_basis, rng):
        coefs = rng.uniform(-1, 1, gl_basis.size)
        field = gl_basis.synthesize(coefs)
        mat = np.einsum("...i,j->...ij", field, np.array([1.0, 0.5, -0.25]))
        div = divergence_of(grid16, mat)
        grad = gradient_of(grid16, field)
        expect = (
            grad * np.array([1.0, 0.5, -0.25])[None, None, None, None, :]
        ).sum(axis=-1)
        assert np.max(np.abs(div - expect)) < 1e-12

    def test_reality_of_synthesis(self, gl_basis, grid16, rng):
        coefs = rng.uniform(-1, 1, gl_basis.size)
        f = gl_basis.synthesize(coefs)
        spec = fft(f)
        back = np.fft.ifftn(spec * grid16.n**3, axes=(0, 1, 2))
        assert np.max(np.abs(back.imag)) < 1e-13


def add_at_scatter(basis, coefs):
    """Oracle: the band spectrum built entry by entry with complex np.add.at.

    Each mode adds amp * {1, -1j} (times 1/2 off k = 0) at its representative
    entry, conjugated when that entry stores -k; modes with k_1 = 0 also add
    the conjugate at the in-plane mirror entry -k.
    """
    grid = basis.grid
    b, nh, v = 2 * grid.k_max + 1, grid.k_max + 1, grid.volume
    kv = basis.kvecs
    conj = kv[:, 0] < 0
    rep = np.where(conj[:, None], -kv, kv)
    half_flat = np.ravel_multi_index((rep[:, 0], rep[:, 1] % b, rep[:, 2] % b), (nh, b, b))
    plane = (kv[:, 0] == 0) & ~basis.is_const
    mirror = -kv[plane]
    mirror_flat = np.ravel_multi_index((mirror[:, 0], mirror[:, 1] % b, mirror[:, 2] % b), (nh, b, b))
    scale = np.where(basis.is_const, 1.0 / np.sqrt(v), np.sqrt(2.0 / v))
    amp = (coefs * scale)[:, None] * basis.vecs
    half = np.where(basis.is_const, 1.0, 0.5)[:, None]
    phase = np.where(basis.parity == COS, 1.0, -1.0j)[:, None]
    vals = amp * half * phase
    spec = np.zeros((nh * b * b, 3), dtype=complex)
    np.add.at(spec, half_flat, np.where(conj[:, None], np.conj(vals), vals))
    np.add.at(spec, mirror_flat, np.conj(vals[plane]))
    return spec.reshape(nh, b, b, 3)


class TestScatter:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("n_modes", [None, 57])
    @pytest.mark.parametrize("kind", ["director", "velocity"])
    def test_byte_equal_to_add_at_oracle(self, kind, n_modes, n, rng):
        grid = SpectralGrid(n)
        if kind == "director":
            basis = build_director_basis(SOF_LAM, grid, n_modes)
            assert basis.is_const.sum() == 3
        else:
            basis = build_velocity_basis(grid, n_modes)
        assert np.any(basis.kvecs[:, 0] == 0) and np.any(basis.kvecs[:, 0] != 0)
        for coefs in (rng.standard_normal(basis.size), np.zeros(basis.size)):
            spec = basis.synthesize_spec_half(coefs)
            oracle = add_at_scatter(basis, coefs)
            assert spec.shape == oracle.shape and spec.dtype == oracle.dtype
            assert spec.tobytes() == oracle.tobytes()


def _oracle_basis(kind, n, n_modes, rehomed):
    """A basis for the oracle and pairing tests, optionally built on the n
    grid and re-homed onto a finer one."""
    grid = SpectralGrid(n)
    if kind == "director":
        basis = build_director_basis(SOF_LAM, grid, n_modes)
    else:
        basis = build_velocity_basis(grid, n_modes)
    return basis.on_grid(SpectralGrid(n + 8)) if rehomed else basis


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestDerivativesAndGathers:
    @pytest.mark.parametrize("rehomed", [False, True])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("n_modes", [None, 57])
    @pytest.mark.parametrize("kind", ["director", "velocity"])
    def test_derivatives_byte_equal_to_full_mesh_oracle(self, kind, n_modes, n, rehomed, rng):
        basis = _oracle_basis(kind, n, n_modes, rehomed)
        for coefs in (rng.standard_normal(basis.size), np.zeros(basis.size)):
            got = basis.synthesize_with_derivatives(coefs)
            want = full_mesh_derivatives(basis, coefs)
            assert len(got) == 2 and want[2] is None
            for g, w in zip(got, want[:2]):
                assert_bytes_equal(g, w)

    @pytest.mark.parametrize("rehomed", [False, True])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("n_modes", [None, 57])
    @pytest.mark.parametrize("kind", ["director", "velocity"])
    def test_gathers_byte_equal_to_per_mode_oracle(self, kind, n_modes, n, rehomed, rng):
        basis = _oracle_basis(kind, n, n_modes, rehomed)
        if n_modes == 57 and kind == "velocity":
            # An odd count of travelling modes: the last pair lost its sin mode.
            assert basis.parity[-1] == COS and not np.array_equal(basis.kvecs[-1], basis.kvecs[-2])
        m = basis.grid.n
        vec = basis.grid.rfft(rng.standard_normal((m, m, m, 3))).reshape(-1, 3)
        mat = basis.grid.rfft(rng.standard_normal((m, m, m, 9))).reshape(-1, 3, 3)
        # Column slices of one bundle spectrum, as the right-hand side passes them.
        bundle = basis.grid.rfft(rng.standard_normal((m, m, m, 15))).reshape(-1, 15)
        cases = (
            (vec, mat),
            (bundle[:, 3:6], bundle[:, 6:15].reshape(-1, 3, 3)),
            (np.zeros_like(vec), np.zeros_like(mat)),
        )
        for spec, stress in cases:
            assert_bytes_equal(basis.analyze_spec_half(spec), per_mode_analyze(basis, spec))
            assert_bytes_equal(basis.project_stress_spec_half(stress), per_mode_stress(basis, stress))


class TestBandLayout:
    """Band spectra are component-major behind their (k_max+1, b, b, C)
    shape: each component one contiguous run of the band's entries."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rfft_and_scatter_write_component_runs(self, n, rng):
        grid = SpectralGrid(n)
        h, b, _ = grid.band_shape
        field = rng.standard_normal((n, n, n, 15))
        for f in (field, component_major(field)):
            band = grid.rfft(f)
            assert band.shape == (h, b, b, 15) and is_component_major(band)
        matrix = grid.rfft(component_major(field[..., :9].reshape(n, n, n, 3, 3)))
        assert matrix.shape == (h, b, b, 3, 3) and is_component_major(matrix)
        for basis in (build_director_basis(SOF_LAM, grid), build_velocity_basis(grid, 57)):
            coefs = rng.standard_normal(basis.size)
            for gradient, c in ((False, 3), (True, 12)):
                band = basis.synthesize_spec_half(coefs, gradient=gradient)
                assert band.shape == (h, b, b, c) and is_component_major(band)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("kind", ["director", "velocity"])
    def test_gathers_do_not_depend_on_the_band_layout(self, kind, n, rng):
        basis = _oracle_basis(kind, n, None, False)
        grid = basis.grid
        bundle = grid.rfft(rng.standard_normal((n, n, n, 15))).reshape(-1, 15)
        vec, mat = bundle[:, 3:6], bundle[:, 6:15].reshape(-1, 3, 3)
        c_vec, c_mat = np.ascontiguousarray(vec), np.ascontiguousarray(mat)
        assert c_vec.flags.c_contiguous and not vec.flags.c_contiguous
        assert_bytes_equal(basis.analyze_spec_half(vec), basis.analyze_spec_half(c_vec))
        assert_bytes_equal(basis.project_stress_spec_half(mat), basis.project_stress_spec_half(c_mat))
        div = grid.divergence(mat)
        assert div.T.flags.c_contiguous
        assert_bytes_equal(div, grid.divergence(c_mat))


class TestTableMemory:
    def test_tables_retained_per_mode(self):
        # gl-n32-full's bases, 27,783 director and 18,520 velocity modes on
        # the 32^3 grid.  Beyond the builder's mode array, a basis keeps its
        # columns and its scatter and gather operators: 132 and 134 bytes
        # per mode measured; the same operators built through COO retain 189.
        grid = SpectralGrid(32)
        director = build_director_basis(identity_4(), grid)
        velocity = build_velocity_basis(grid)
        for make in (
            lambda: DirectorBasis(grid, director.lam4, director.modes),
            lambda: VelocityBasis(grid, velocity.modes),
        ):
            tracemalloc.start()
            try:
                basis = make()
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert retained <= 150 * basis.size


class TestStressPairing:
    @pytest.mark.parametrize(
        "kind, n, n_modes, rehomed",
        [
            (kind, n, n_modes, False)
            for kind in ("director", "velocity")
            for n, n_modes in ((8, None), (16, 57))
        ]
        + [("director", 8, None, True)],
    )
    def test_matches_grid_quadrature(self, kind, n, n_modes, rehomed, rng):
        """(T : grad w_i) through the band divergence against the grid
        quadrature of T : grad w_i, grad w_i synthesized from a unit vector."""
        basis = _oracle_basis(kind, n, n_modes, rehomed)
        grid = basis.grid
        m = grid.n
        stress = rng.standard_normal((m, m, m, 3, 3))
        got = basis.project_stress_spec_half(grid.rfft(stress.reshape(m, m, m, 9)).reshape(-1, 3, 3))
        want = np.array(
            [
                grid.quad(np.sum(stress * basis.synthesize_with_derivatives(unit)[1], axis=(-2, -1)))
                for unit in np.eye(basis.size)
            ]
        )
        assert np.all(got[basis.is_const] == 0.0) and np.all(want[basis.is_const] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _reference_sign_fix(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _reference_eigvecs(m):
    ms = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(ms)
    scale = max(abs(w[0]), abs(w[2]), 1.0)
    out = np.empty((3, 3))
    start = 0
    for stop in range(1, 4):
        if stop < 3 and abs(w[stop] - w[start]) <= 1e-8 * scale:
            continue
        sub = v[:, start:stop]
        if stop - start == 1:
            out[:, start] = _reference_sign_fix(sub[:, 0])
        else:
            proj = sub @ sub.T
            cols = []
            for e in np.eye(3):
                c = proj @ e
                for prev in cols:
                    c = c - (prev @ c) * prev
                nc = np.linalg.norm(c)
                if nc > 1e-8:
                    cols.append(c / nc)
                if len(cols) == stop - start:
                    break
            for j, cvec in enumerate(cols):
                out[:, start + j] = _reference_sign_fix(cvec)
        start = stop
    return w, out


def _reference_wavevectors(cutoff):
    out = []
    rng = range(-cutoff, cutoff + 1)
    for kx in rng:
        for ky in rng:
            for kz in rng:
                if (kx, ky, kz) == (0, 0, 0):
                    continue
                if kx > 0 or (kx == 0 and (ky > 0 or (ky == 0 and kz > 0))):
                    out.append((kx, ky, kz))
    return out


def _reference_modes(entries):
    """Mode array of (key, k, branch, parity, vec, eig) tuples in sorted order."""
    entries.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    modes = np.zeros(len(entries), MODE_DTYPE)
    for i, (_, k, branch, parity, vec, eig) in enumerate(entries):
        modes[i] = (k, vec, eig, parity, branch)
    return modes


def reference_director_modes(lam4, grid):
    """Oracle: the director basis built one wavevector at a time, each symbol
    diagonalized by its own eigh with a Python Gram-Schmidt inside
    degenerate eigenspaces."""
    entries = [(0.0, (0, 0, 0), i, COS, e, 0.0) for i, e in enumerate(np.eye(3))]
    for k in _reference_wavevectors(grid.cutoff):
        m = np.einsum("ijml,j,l->im", lam4, np.asarray(k, dtype=float), np.asarray(k, dtype=float))
        w, vecs = _reference_eigvecs(m)
        for branch in range(3):
            for parity in (COS, SIN):
                sig = float(f"{w[branch]:.10e}")
                entries.append((sig, k, branch, parity, vecs[:, branch], w[branch]))
    return _reference_modes(entries)


def reference_velocity_modes(grid):
    """Oracle: the velocity basis built one wavevector at a time."""
    entries = []
    for k in _reference_wavevectors(grid.cutoff):
        ka = np.array(k)
        e = np.zeros(3)
        e[int(np.argmin(np.abs(ka)))] = 1.0
        p1 = np.cross(e, ka.astype(float))
        p1 = _reference_sign_fix(p1 / np.linalg.norm(p1))
        p2 = np.cross(ka.astype(float), p1)
        p2 = _reference_sign_fix(p2 / np.linalg.norm(p2))
        for pol, p in enumerate((p1, p2)):
            for parity in (COS, SIN):
                entries.append((float(ka @ ka), k, pol, parity, p, float(ka @ ka)))
    return _reference_modes(entries)


def _random_elliptic_lam(seed):
    """Pair-symmetric Lam_ijml = S_(ij)(ml) with S symmetric positive definite."""
    b = np.random.default_rng(seed).standard_normal((9, 9))
    return (b @ b.T + 0.5 * np.eye(9)).reshape(3, 3, 3, 3)


# Eigenvalue multiplicities per wavevector: GL [3], SOF [2, 1], scaled OF
# with k1 < k2 [1, 2], the random tensor [1, 1, 1].
ORACLE_LAMS = {
    "gl": identity_4,
    "sof": lambda: SOF_LAM,
    "scaled_of": lambda: ScaledOseenFrank(0.7, 1.0, 0.3, 0.2, 0.25).d2F_dS2_const(),
    "random": lambda: _random_elliptic_lam(20),
}


def assert_same_modes(basis, oracle):
    got = {
        "kvecs": basis.kvecs,
        "vecs": basis.vecs,
        "eigs": basis.eigs,
        "parity": basis.parity,
        "branch": basis.modes["branch"],
    }
    want = {
        "kvecs": oracle["k"],
        "vecs": oracle["vec"],
        "eigs": oracle["eig"],
        "parity": oracle["parity"],
        "branch": oracle["branch"],
    }
    for name in got:
        assert got[name].shape == want[name].shape, name
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == np.ascontiguousarray(want[name]).tobytes(), name


class TestBuilderOracle:
    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("lam", sorted(ORACLE_LAMS))
    def test_director_byte_equal(self, lam, n):
        grid = SpectralGrid(n)
        lam4 = ORACLE_LAMS[lam]()
        oracle = reference_director_modes(lam4, grid)
        assert_same_modes(build_director_basis(lam4, grid), oracle)
        for n_modes in (1, 57, len(oracle) - 1):
            assert_same_modes(build_director_basis(lam4, grid, n_modes), oracle[:n_modes])

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_velocity_byte_equal(self, n):
        grid = SpectralGrid(n)
        oracle = reference_velocity_modes(grid)
        assert_same_modes(build_velocity_basis(grid), oracle)
        for n_modes in (1, 36, len(oracle) - 1):
            assert_same_modes(build_velocity_basis(grid, n_modes), oracle[:n_modes])


class TestManifest:
    def test_velocity_manifest_regression(self):
        grid = SpectralGrid(8)
        basis = build_velocity_basis(grid, 4)
        lines = manifest(basis).strip().split("\n")
        assert len(lines) == 4
        assert "k=(+0,+0,+1)" in lines[0]
        assert "parity=cos" in lines[0] and "parity=sin" in lines[1]
        assert "eig=1.000000000000e+00" in lines[0]

    def test_rebuild_on_finer_grid_keeps_modes(self, gl_basis):
        fine = SpectralGrid(32)
        rebuilt = DirectorBasis(fine, gl_basis.lam4, gl_basis.modes)
        assert rebuilt.size == gl_basis.size
        coefs = np.zeros(gl_basis.size)
        coefs[5] = 1.0
        coarse_field = gl_basis.synthesize(coefs)
        fine_field = rebuilt.synthesize(coefs)
        # same trigonometric function sampled on both grids
        assert np.allclose(fine_field[::2, ::2, ::2], coarse_field, atol=1e-13)
