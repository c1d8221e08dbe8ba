import numpy as np
import pytest

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
    divergence_of,
    elliptic_apply,
    fft,
    full_mesh_derivatives,
    gradient_of,
    l2_norm,
    laplacian_of,
    manifest,
    per_mode_analyze,
    per_mode_stress,
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
    """Oracle: the half spectrum built entry by entry with complex np.add.at.

    Each mode adds amp * {1, -1j} (times 1/2 off k = 0) at its representative
    entry, conjugated when that entry stores -k; modes with k_3 = 0 also add
    the conjugate at the in-plane mirror entry -k.
    """
    grid = basis.grid
    n, nh, v = grid.n, grid.n // 2 + 1, grid.volume
    kv = basis.kvecs
    conj = kv[:, 2] < 0
    rep = np.where(conj[:, None], -kv, kv)
    half_flat = np.ravel_multi_index((rep[:, 0] % n, rep[:, 1] % n, rep[:, 2]), (n, n, nh))
    plane = (kv[:, 2] == 0) & ~basis.is_const
    mirror = -kv[plane]
    mirror_flat = np.ravel_multi_index((mirror[:, 0] % n, mirror[:, 1] % n, mirror[:, 2]), (n, n, nh))
    scale = np.where(basis.is_const, 1.0 / np.sqrt(v), np.sqrt(2.0 / v))
    amp = (coefs * scale)[:, None] * basis.vecs
    half = np.where(basis.is_const, 1.0, 0.5)[:, None]
    phase = np.where(basis.parity == COS, 1.0, -1.0j)[:, None]
    vals = amp * half * phase
    spec = np.zeros((n * n * nh, 3), dtype=complex)
    np.add.at(spec, half_flat, np.where(conj[:, None], np.conj(vals), vals))
    np.add.at(spec, mirror_flat, np.conj(vals[plane]))
    return spec.reshape(n, n, nh, 3)


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
        assert np.any(basis.kvecs[:, 2] == 0) and np.any(basis.kvecs[:, 2] != 0)
        for coefs in (rng.standard_normal(basis.size), np.zeros(basis.size)):
            spec = basis.synthesize_spec_half(coefs)
            oracle = add_at_scatter(basis, coefs)
            assert spec.shape == oracle.shape and spec.dtype == oracle.dtype
            assert spec.tobytes() == oracle.tobytes()


def _touched_basis(kind, n, n_modes, rehomed):
    """A basis for the touched-entry and pair tests, optionally built on the
    n grid and re-homed onto a finer one."""
    grid = SpectralGrid(n)
    if kind == "director":
        basis = build_director_basis(SOF_LAM, grid, n_modes)
    else:
        basis = build_velocity_basis(grid, n_modes)
    return basis.on_grid(SpectralGrid(n + 8)) if rehomed else basis


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestTouchedEntries:
    @pytest.mark.parametrize("rehomed", [False, True])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("n_modes", [None, 57])
    @pytest.mark.parametrize("kind", ["director", "velocity"])
    def test_derivatives_byte_equal_to_full_mesh_oracle(self, kind, n_modes, n, rehomed, rng):
        basis = _touched_basis(kind, n, n_modes, rehomed)
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
        basis = _touched_basis(kind, n, n_modes, rehomed)
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
