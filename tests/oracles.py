"""Full complex-spectrum reference operators for the tests.

The solver works on real-transform half spectra only; these helpers apply
derivatives through the full ``scipy.fft.fftn`` spectrum instead, so the
tests can check the Galerkin bases against an independent path.
"""

import numpy as np
import scipy.fft

from elgal.basis import COS
from elgal.tensors import contract42


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
