"""Reference operators for the tests.

A few small tensor and grid helpers, and a tracemalloc peak of one call,
come first.  The solver works on band spectra only (the real-transform
half spectrum cut to the retained band); the next helpers apply
derivatives through the full ``scipy.fft.fftn`` spectrum instead, so the
tests can check the Galerkin bases against an independent path.  The next
ones move coefficients to and from the band the long way: the derivative
spectra formed over the whole band mesh (the only source of second
derivatives), and one contraction per mode rather than per (wavevector,
branch) pair.  The next ones pair every term on the grid, the principal
parts included, which the solver applies as eigenbasis diagonals, and
build the right-hand side's 15-component bundle from separate arrays.  One
advances velocity and director by integrating-factor RK4 apart.  One
recomputes the interpolation testers' constant with every norm taken by
grid quadrature.  The last ones are the other two forms of the Leslie
stress, a complex-step derivative of the energy density, the elastic
stress with its pairing and the strong-form cancellation identity, and a
centered difference of the energy functional against the solver's q_hat.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import scipy.fft

from elgal.basis import COS
from elgal.energies import energy_gradient, total_energy, variational_derivative
from elgal.leslie import coupling_stress, leslie_stress_discrete
from elgal.simulate import SpectralState
from elgal.tensors import contract42, sym


def outer(a, b):
    """Outer product (a x b)_ij = a_i b_j."""
    return np.einsum("...i,...j->...ij", a, b)


def sym_skw(a):
    """Split a matrix into its symmetric and skew-symmetric parts."""
    at = np.matrix_transpose(a)
    return 0.5 * (a + at), 0.5 * (a - at)


def is_symmetric_pair(g):
    """Exact check of the pair symmetry G_ijkl = G_klij over all 81 entries."""
    return bool(np.array_equal(g, np.swapaxes(np.swapaxes(g, 0, 2), 1, 3)))


def component_major(field):
    """A copy of a grid field (n, n, n, ...) laid out as the transforms
    write fields: each component one contiguous n^3 plane."""
    k = field.ndim - 3
    planes = np.ascontiguousarray(field.transpose(*range(3, field.ndim), 0, 1, 2))
    return planes.transpose(k, k + 1, k + 2, *range(k))


def is_component_major(field):
    """Whether each component of a grid field (n, n, n, ...) is one
    contiguous n^3 plane, the planes in C order."""
    return field.transpose(*range(3, field.ndim), 0, 1, 2).flags.c_contiguous


def traced_peak(call, arg):
    """Peak bytes numpy allocates during one ``call(arg)`` (``arg`` not
    counted).  A first untraced call builds what is cached, such as the
    DFT matrices."""
    call(arg)
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def axes_points(grid):
    """The n grid coordinates along one axis of [0, 2pi)."""
    return np.arange(grid.n) * (2.0 * np.pi / grid.n)


def l2_norm(grid, field):
    """L^2 norm of a grid field by quadrature."""
    return float(np.sqrt(np.sum(field * field) * grid.cell_volume))


def fft(field):
    """Normalized forward transform: field(x) = sum_k spec(k) e^{i k.x}."""
    return scipy.fft.fftn(field, axes=(0, 1, 2), norm="forward")


def ifft(spec):
    return np.real(scipy.fft.ifftn(spec, axes=(0, 1, 2), norm="forward"))


def k_mesh(grid):
    """(n, n, n, 3) integer wavevector mesh in FFT layout."""
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
    return np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)


def dealias_mask(grid):
    return (np.abs(k_mesh(grid)) <= grid.cutoff).all(axis=-1)


def gradient_of(grid, field):
    """Dealiased spectral gradient; result[..., i, a] = d_a field_i."""
    spec = fft(field) * dealias_mask(grid)[..., None]
    gspec = spec[..., :, None] * (1j * k_mesh(grid))[..., None, :]
    return ifft(gspec)


def divergence_of(grid, mat_field):
    """Dealiased spectral row divergence; result_i = sum_j d_j mat_ij."""
    spec = fft(mat_field) * dealias_mask(grid)[..., None, None]
    dspec = np.sum(spec * (1j * k_mesh(grid))[..., None, :], axis=-1)
    return ifft(dspec)


def laplacian_of(grid, field):
    spec = fft(field) * dealias_mask(grid)[..., None]
    ksq = np.sum(k_mesh(grid) ** 2, axis=-1)
    return ifft(-(ksq[..., None]) * spec)


def elliptic_apply(lam4, grid, field):
    """Pseudospectral application of z -> -div(Lam : grad z)."""
    flux = contract42(lam4, gradient_of(grid, field))
    return -divergence_of(grid, flux)


def manifest(basis):
    """One line per retained mode: index, wavevector, eigenvalue, parity, vector."""
    lines = []
    for i, (k, vec, eig, parity) in enumerate(zip(basis.kvecs, basis.vecs, basis.eigs, basis.parity)):
        vec = " ".join(f"{c:+.12e}" for c in vec)
        par = "cos" if parity == COS else "sin"
        lines.append(
            f"{i:4d}  k=({k[0]:+d},{k[1]:+d},{k[2]:+d})  "
            f"eig={eig:.12e}  parity={par}  vec=[{vec}]"
        )
    return "\n".join(lines) + "\n"


def k_mesh_band(grid):
    """(k_max+1, b, b, 3) integer wavevector mesh of the band spectrum,
    b = 2 k_max + 1, wavenumber k of the last two axes at index k mod b."""
    b = 2 * grid.k_max + 1
    k = np.array([i if i <= grid.k_max else i - b for i in range(b)])
    kx, ky, kz = np.meshgrid(np.arange(grid.k_max + 1), k, k, indexing="ij")
    return np.stack([kx, ky, kz], axis=-1)


def full_mesh_derivatives(basis, coefs, hessian=False):
    """``synthesize_with_derivatives`` with the gradient spectra multiplied
    out over the whole band mesh and concatenated: (value, grad,
    hess).  With ``hessian`` the second gradient comes from the same
    transform, hess[..., i, a, b] = d_a d_b f_i; otherwise hess is None.
    The solver never forms a second derivative; the strong-form tests do."""
    grid = basis.grid
    n = grid.n
    spec = basis.synthesize_spec_half(coefs)
    km = k_mesh_band(grid)
    grad_spec = spec[..., :, None] * (1j * km)[..., None, :]
    parts = [spec, grad_spec.reshape(*spec.shape[:3], 9)]
    if hessian:
        kk = -km[..., None, :, None] * km[..., None, None, :]
        parts.append((spec[..., :, None, None] * kk).reshape(*spec.shape[:3], 27))
    out = grid.irfft(np.concatenate(parts, axis=-1))
    value = out[..., :3]
    grad = out[..., 3:12].reshape(n, n, n, 3, 3)
    hess = out[..., 12:].reshape(n, n, n, 3, 3, 3) if hessian else None
    return value, grad, hess


def gn_constant_on_grid(basis, trajectories, p, r, director):
    """Empirical constant of the interpolation testers with u and grad u
    from ``full_mesh_derivatives`` and every norm by grid quadrature:
    u = grad d with ||Delta d|| from the Hessian's trace (``director``), or
    u = v with ||grad v||.  theta is pinned by 1/p = 1/2 - theta/(3r)."""
    grid = basis.grid
    theta = float(3 * Fraction(r) * (Fraction(1, 2) - 1 / Fraction(p)))
    p, r = float(Fraction(p)), float(Fraction(r))
    worst = 0.0
    for times, coefs in trajectories:
        lp, low_sq, high_sq = [], [], []
        for c in coefs:
            value, grad, hess = full_mesh_derivatives(basis, c, hessian=director)
            u, du = (grad, np.einsum("...iaa->...i", hess)) if director else (value, grad)
            mag_sq = np.sum(u.reshape(*u.shape[:3], -1) ** 2, axis=-1)
            lp.append(grid.quad(mag_sq ** (p / 2)) ** (1 / p))
            low_sq.append(grid.quad(mag_sq))
            high_sq.append(grid.quad(np.sum(du.reshape(*du.shape[:3], -1) ** 2, axis=-1)))
        lhs = np.trapezoid(np.array(lp) ** r, times)
        if lhs == 0.0:
            continue
        denom = np.trapezoid(high_sq, times) ** (theta / 2) * max(low_sq) ** ((r - theta) / 2)
        worst = max(worst, lhs / denom)
    return worst


def _representatives(basis):
    """Flat band index of each mode's representative entry (first
    wavevector component >= 0), the wavevector stored there, and whether
    that is -k."""
    k_max = basis.grid.k_max
    b = 2 * k_max + 1
    kv = basis.kvecs
    conj = kv[:, 0] < 0
    rep = np.where(conj[:, None], -kv, kv)
    flat = np.ravel_multi_index((rep[:, 0], rep[:, 1] % b, rep[:, 2] % b), (k_max + 1, b, b))
    return flat, rep, conj


def _per_mode_coefs(basis, values, conj):
    """Coefficients from each mode's representative-entry values (M, 3),
    one complex dot product per mode."""
    z = np.einsum("mc,mc->m", basis.vecs, values)
    zr = z.real
    zi = np.where(conj, -z.imag, z.imag)
    v = basis.grid.volume
    coefs = np.where(basis.parity == COS, np.sqrt(2.0 * v) * zr, -np.sqrt(2.0 * v) * zi)
    return np.where(basis.is_const, np.sqrt(v) * zr, coefs)


def per_mode_analyze(basis, band_flat):
    """``analyze_spec_half`` with one complex dot product per mode."""
    flat, _, conj = _representatives(basis)
    return _per_mode_coefs(basis, band_flat[flat], conj)


def per_mode_stress(basis, band_flat):
    """``project_stress_spec_half`` per mode: -(div T) at each mode's
    representative entry, then ``per_mode_analyze``'s dot and scaling."""
    flat, rep, conj = _representatives(basis)
    div = np.einsum("mia,ma->mi", band_flat[flat], 1j * rep)
    return _per_mode_coefs(basis, -div, conj)


def weak_form_q_hat(model, basis, coefs):
    """q_hat_i = (dF_dh, z_i) + (dF_dS, grad z_i) with the whole of dF_dS
    transformed and gathered, the principal part Lam : S included."""
    grid = basis.grid
    n = grid.n
    d, grad_d = basis.synthesize_with_derivatives(coefs)
    dh, ds = model.dF_dh(d, grad_d), model.dF_dS(d, grad_d)
    spec = grid.rfft(np.concatenate([dh, ds.reshape(n, n, n, 9)], axis=-1)).reshape(-1, 12)
    return basis.analyze_spec_half(spec[:, 0:3]) + basis.project_stress_spec_half(
        spec[:, 3:12].reshape(-1, 3, 3)
    )


def grid_assemble_rhs(system, state):
    """(dv_hat, dd_hat) with every pairing taken on the grid: q_hat by
    ``weak_form_q_hat`` and the full Leslie stress, mu4 Sv included."""
    c = system.coeffs
    grid = system.grid
    n = grid.n
    dirb, vel = system.director_basis, system.velocity_basis
    d, grad_d = dirb.synthesize_with_derivatives(state.d_hat)
    q_hat = weak_form_q_hat(system.model, dirb, state.d_hat)
    q = dirb.synthesize(q_hat)
    v, grad_v = vel.synthesize_with_derivatives(state.v_hat)
    sv, wv = sym_skw(grad_v)
    transport = (
        np.einsum("...ia,...a->...i", grad_d, v)
        - np.einsum("...ij,...j->...i", wv, d)
        + c.lam * np.einsum("...ij,...j->...i", sv, d)
    )
    convection = np.einsum("...ia,...a->...i", grad_v, v)
    director_force = np.einsum("...ji,...j->...i", grad_d, q)
    stress = leslie_stress_discrete(c, d, q, grad_v)
    bundle = np.concatenate(
        [transport, director_force - convection, stress.reshape(n, n, n, 9)], axis=-1
    )
    spec = grid.rfft(bundle).reshape(-1, 15)
    dd_hat = -dirb.analyze_spec_half(spec[:, 0:3]) - c.gamma * q_hat
    dv_hat = (
        system.forcing_v_hat
        + vel.analyze_spec_half(spec[:, 3:6])
        - vel.project_stress_spec_half(spec[:, 6:15].reshape(-1, 3, 3))
    )
    return dv_hat, dd_hat


def pairing_bundle(system, fields):
    """The 15-component bundle ``assemble_rhs`` transforms, built from
    separate arrays: transport, director force - convection and the coupling
    stress (without ``out``), joined by ``np.concatenate``."""
    c = system.coeffs
    n = system.grid.n
    d, grad_d, _, q, v, grad_v, svd, wvd = fields
    transport = np.einsum("...ia,...a->...i", grad_d, v) - wvd + c.lam * svd
    convection = np.einsum("...ia,...a->...i", grad_v, v)
    director_force = np.einsum("...ji,...j->...i", grad_d, q)
    stress = coupling_stress(c, d, q, svd)
    return np.concatenate(
        [transport, director_force - convection, stress.reshape(n, n, n, 9)], axis=-1
    )


def if_rk4_step(system, state, dt):
    """One integrating-factor RK4 step written per component: velocity and
    director advanced apart, each with its own exponential factors built
    from the Leslie coefficients and the bases' eigenvalues."""
    c = system.coeffs
    lin_v = -(c.mu4 / 2.0) * system.velocity_basis.eigs
    lin_d = -c.gamma * system.director_basis.eigs
    evh, evf = np.exp(lin_v * dt / 2.0), np.exp(lin_v * dt)
    edh, edf = np.exp(lin_d * dt / 2.0), np.exp(lin_d * dt)

    def nonlinear(v_hat, d_hat):
        dv, dd = system.assemble_rhs(SpectralState(0.0, v_hat, d_hat))
        return dv - lin_v * v_hat, dd - lin_d * d_hat

    v0, d0 = state.v_hat, state.d_hat
    av, ad = nonlinear(v0, d0)
    bv, bd = nonlinear(evh * (v0 + 0.5 * dt * av), edh * (d0 + 0.5 * dt * ad))
    cv, cd = nonlinear(evh * v0 + 0.5 * dt * bv, edh * d0 + 0.5 * dt * bd)
    dv, dd = nonlinear(evf * v0 + dt * evh * cv, edf * d0 + dt * edh * cd)
    v1 = evf * v0 + (dt / 6.0) * (evf * av + 2.0 * evh * (bv + cv) + dv)
    d1 = edf * d0 + (dt / 6.0) * (edf * ad + 2.0 * edh * (bd + cd) + dd)
    return SpectralState(state.t + dt, v1, d1)


def sym_grad_sq_quadrature(basis, v_hat):
    """||sym(grad v)||^2 by grid quadrature."""
    _, grad_v = basis.synthesize_with_derivatives(v_hat)
    sv = sym(grad_v)
    return basis.grid.quad(np.sum(sv * sv, axis=(-2, -1)))


def leslie_stress(c, d, e, grad_v):
    """Viscous stress in the symmetric/skew-sorted form.

    T = mu1 (d.Sv d) d x d + mu4 Sv + (mu5+mu6) (d x Sv d)_sym
        + (mu2+mu3) (d x e)_sym + (lam/gamma) (d x Sv d)_skw
        + (1/gamma) (d x e)_skw,          Sv = sym(grad_v).
    """
    sv = sym(grad_v)
    svd = np.einsum("...ij,...j->...i", sv, d)
    d_svd = np.einsum("...i,...i->...", d, svd)
    o_svd_sym, o_svd_skw = sym_skw(outer(d, svd))
    o_e_sym, o_e_skw = sym_skw(outer(d, e))
    return (
        c.mu1 * d_svd[..., None, None] * outer(d, d)
        + c.mu4 * sv
        + (c.mu5 + c.mu6) * o_svd_sym
        + (c.mu2 + c.mu3) * o_e_sym
        + (c.lam / c.gamma) * o_svd_skw
        + (1.0 / c.gamma) * o_e_skw
    )


def leslie_stress_original(c, d, e, grad_v):
    """Classic six-term Leslie stress, kept as an independent oracle.

    T = mu1 (d.Sv d) d x d + mu2 e x d + mu3 d x e + mu4 Sv
        + mu5 Sv d x d + mu6 d x Sv d.
    """
    sv = sym(grad_v)
    svd = np.einsum("...ij,...j->...i", sv, d)
    d_svd = np.einsum("...i,...i->...", d, svd)
    return (
        c.mu1 * d_svd[..., None, None] * outer(d, d)
        + c.mu2 * outer(e, d)
        + c.mu3 * outer(d, e)
        + c.mu4 * sv
        + c.mu5 * outer(svd, d)
        + c.mu6 * outer(d, svd)
    )


def complex_step_gradients(model, h, s, eps=1e-30):
    """(dF_dh, dF_dS) of ``model.evaluate`` by the complex step
    Im F(x + i eps e) / eps in each entry e of h and of S, which has no
    cancellation error; it needs ``evaluate`` to be complex-analytic."""
    dh = np.empty(np.shape(h))
    for i in range(3):
        e = np.zeros(3, dtype=complex)
        e[i] = 1j * eps
        dh[..., i] = model.evaluate(h + e, s).imag / eps
    ds = np.empty(np.shape(s))
    for a in range(3):
        for b in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[a, b] = 1j * eps
            ds[..., a, b] = model.evaluate(h, s + e).imag / eps
    return dh, ds


def ericksen_stress(model, d, grad_d):
    """Elastic stress (grad d)^T dF_dS(d, grad d)."""
    return np.einsum("...ki,...kj->...ij", grad_d, model.dF_dS(d, grad_d))


def ericksen_pairing(model, d, grad_d, grad_v, cell_volume):
    """Grid quadrature of (elastic stress) : grad v over the periodic box."""
    te = ericksen_stress(model, d, grad_d)
    return float(np.sum(te * grad_v) * cell_volume)


def ericksen_identity_residual(model, director_basis, velocity_basis, d_hat, v_hat):
    """Relative residual of (T_E : grad v) = ((grad d)^T q, v) on the box.

    Uses the unprojected variational derivative; with a solenoidal v both
    pairings reduce to a divergence, so the quadrature residual vanishes up
    to aliasing of the highest product harmonics.  The identity holds for
    potentials without explicit spatial dependence.
    """
    grid = director_basis.grid
    d, grad_d, hess_d = full_mesh_derivatives(director_basis, d_hat, hessian=True)
    v, grad_v = velocity_basis.synthesize_with_derivatives(v_hat)
    q = variational_derivative(model, d, grad_d, hess_d)
    te_pair = ericksen_stress(model, d, grad_d) * grad_v
    force = np.einsum("...ji,...j->...i", grad_d, q) * v
    lhs = grid.quad(np.sum(te_pair, axis=(-2, -1)))
    rhs = grid.quad(np.sum(force, axis=-1))
    scale = grid.quad(np.abs(te_pair).sum(axis=(-2, -1))) + grid.quad(
        np.abs(force).sum(axis=-1)
    )
    return abs(lhs - rhs) / max(scale, 1e-30)


def gateaux_check(model, basis, d_hat, psi_hat, eps=1e-5):
    """Centered difference of the energy functional against (q, psi).

    Returns |(E(d + eps psi) - E(d - eps psi)) / (2 eps) - (q, psi)|
    over max(1, |(q, psi)|).
    """
    grid = basis.grid

    def energy(coefs):
        val, grad = basis.synthesize_with_derivatives(coefs)
        return total_energy(model, val, grad, grid.cell_volume)

    e_plus = energy(d_hat + eps * psi_hat)
    e_minus = energy(d_hat - eps * psi_hat)
    _, _, q_hat = energy_gradient(model, basis, d_hat)
    pairing = float(q_hat @ psi_hat)
    return abs((e_plus - e_minus) / (2.0 * eps) - pairing) / max(1.0, abs(pairing))
