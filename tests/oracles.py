"""Reference operators for the tests.

A few small tensor and grid helpers come first.  The solver works on
real-transform half spectra only; the next helpers apply derivatives
through the full ``scipy.fft.fftn`` spectrum instead, so the tests can
check the Galerkin bases against an independent path.  The next ones move
coefficients to and from the half spectrum the long way: the derivative
spectra formed over the whole half-spectrum mesh (the only source of
second derivatives), and one contraction per mode rather than per
(wavevector, branch) pair.  The next ones pair every term on the grid, the
principal parts included, which the solver applies as eigenbasis
diagonals.  The last ones are the other two forms of the Leslie stress, a
complex-step derivative of the energy density, the elastic stress with its
pairing and the strong-form cancellation identity, and a centered
difference of the energy functional against the solver's q_hat.
"""

import numpy as np
import scipy.fft

from elgal.basis import COS
from elgal.energies import energy_gradient, total_energy, variational_derivative
from elgal.leslie import leslie_stress_discrete
from elgal.tensors import contract42, outer, sym


def sym_skw(a):
    """Split a matrix into its symmetric and skew-symmetric parts."""
    at = np.matrix_transpose(a)
    return 0.5 * (a + at), 0.5 * (a - at)


def is_symmetric_pair(g):
    """Exact check of the pair symmetry G_ijkl = G_klij over all 81 entries."""
    return bool(np.array_equal(g, np.swapaxes(np.swapaxes(g, 0, 2), 1, 3)))


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
    k = grid.wavenumbers
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


def k_mesh_half(grid):
    """(n, n, n/2+1, 3) integer wavevector mesh of the real-transform half spectrum."""
    k = grid.wavenumbers
    kx, ky, kz = np.meshgrid(k, k, np.arange(grid.n // 2 + 1), indexing="ij")
    return np.stack([kx, ky, kz], axis=-1)


def full_mesh_derivatives(basis, coefs, hessian=False):
    """``synthesize_with_derivatives`` with the gradient spectra multiplied
    out over the whole half-spectrum mesh and concatenated: (value, grad,
    hess).  With ``hessian`` the second gradient comes from the same
    transform, hess[..., i, a, b] = d_a d_b f_i; otherwise hess is None.
    The solver never forms a second derivative; the strong-form tests do."""
    grid = basis.grid
    n = grid.n
    spec = basis.synthesize_spec_half(coefs)
    km = k_mesh_half(grid)
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


def _representatives(basis):
    """Flat half-spectrum index of each mode's representative entry (third
    wavevector component >= 0), and whether that entry stores -k."""
    n = basis.grid.n
    kv = basis.kvecs
    conj = kv[:, 2] < 0
    rep = np.where(conj[:, None], -kv, kv)
    flat = np.ravel_multi_index((rep[:, 0] % n, rep[:, 1] % n, rep[:, 2]), (n, n, n // 2 + 1))
    return flat, conj


def per_mode_analyze(basis, spec_half_flat):
    """``analyze_spec_half`` with one complex dot product per mode."""
    flat, conj = _representatives(basis)
    z = np.einsum("mc,mc->m", basis.vecs, spec_half_flat[flat])
    zr = z.real
    zi = np.where(conj, -z.imag, z.imag)
    v = basis.grid.volume
    coefs = np.where(basis.parity == COS, np.sqrt(2.0 * v) * zr, -np.sqrt(2.0 * v) * zi)
    return np.where(basis.is_const, np.sqrt(v) * zr, coefs)


def per_mode_stress(basis, spec_half_flat):
    """``project_stress_spec_half`` with one contraction per mode."""
    flat, conj = _representatives(basis)
    z = np.einsum("mi,mj,mij->m", basis.vecs, basis.kvecs.astype(float), spec_half_flat[flat])
    zr = z.real
    zi = np.where(conj, -z.imag, z.imag)
    root = np.sqrt(2.0 * basis.grid.volume)
    return np.where(basis.parity == COS, root * zi, root * zr)


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
