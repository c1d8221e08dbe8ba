"""Reference operators for the tests.

The solver works on real-transform half spectra only; the first helpers
apply derivatives through the full ``scipy.fft.fftn`` spectrum instead, so
the tests can check the Galerkin bases against an independent path.  The
last ones pair every term on the grid, the principal parts included, which
the solver applies as eigenbasis diagonals.
"""

import numpy as np
import scipy.fft

from elgal.basis import COS
from elgal.leslie import leslie_stress_discrete
from elgal.tensors import contract42, sym, sym_skw


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


def weak_form_q_hat(model, basis, coefs):
    """q_hat_i = (dF_dh, z_i) + (dF_dS, grad z_i) with the whole of dF_dS
    transformed and gathered, the principal part Lam : S included."""
    grid = basis.grid
    n = grid.n
    d, grad_d, _ = basis.synthesize_with_derivatives(coefs)
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
    d, grad_d, _ = dirb.synthesize_with_derivatives(state.d_hat)
    q_hat = weak_form_q_hat(system.model, dirb, state.d_hat)
    q = dirb.synthesize(q_hat)
    v, grad_v, _ = vel.synthesize_with_derivatives(state.v_hat)
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
    _, grad_v, _ = basis.synthesize_with_derivatives(v_hat)
    sv = sym(grad_v)
    return basis.grid.quad(np.sum(sv * sv, axis=(-2, -1)))
