"""Dense tensor algebra on R^3 / R^3x3 / rank-3 / rank-4 arrays.

All operations accept leading batch axes (grid fields are arrays shaped
``(..., 3)``, ``(..., 3, 3)`` and so on), are pure, and never mutate their
arguments.  Everything is stored dense; the largest object has 81 entries.
"""

from __future__ import annotations

import numpy as np

# Aliases used throughout the package for readability; shapes are
# (..., 3), (..., 3, 3), (..., 3, 3, 3), (..., 3, 3, 3, 3).
Vec3 = np.ndarray
Mat3 = np.ndarray
Tensor3 = np.ndarray
Tensor4 = np.ndarray


def sym(a: Mat3) -> Mat3:
    return 0.5 * (a + np.matrix_transpose(a))


def frob(a: Mat3, b: Mat3) -> np.ndarray:
    """Frobenius pairing A:B = sum_ij A_ij B_ij."""
    return np.einsum("...ij,...ij->...", a, b)


def contract42(g: Tensor4, a: Mat3) -> Mat3:
    """(G:A)_ij = sum_kl G_ijkl A_kl."""
    if g.ndim == 4:
        # A constant tensor acts as one 9x9 matrix on the (9, batch) planes,
        # so a component-major field stays component-major.
        return (g.reshape(9, 9) @ a.reshape(-1, 9).T).T.reshape(a.shape)
    return np.einsum("...ijkl,...kl->...ij", g, a)


def contract43(g: Tensor4, t: Tensor3) -> Vec3:
    """Triple contraction of a rank-4 with a rank-3 tensor, result_i = sum_jkl G_ijkl T_jkl."""
    return np.einsum("...ijkl,...jkl->...i", g, t)


def contract32(t: Tensor3, a: Mat3) -> Vec3:
    """(T:A)_i = sum_jk T_ijk A_jk."""
    return np.einsum("...ijk,...jk->...i", t, a)


def _delta_tensor(pattern: str) -> Tensor4:
    d = np.eye(3)
    return np.einsum(pattern, d, d)


# The four building-block rank-4 tensors for quadratic gradient energies:
#   identity_4        : |A|^2        = A : identity_4 : A   (G_ijkl = d_ik d_jl)
#   trace_outer_4     : (tr A)^2     = A : trace_outer_4 : A (G_ijkl = d_ij d_kl)
#   transpose_4       : tr(A^2)      = A : transpose_4 : A   (G_ijkl = d_il d_jk)
#   curl_quadratic_4  : |curl-part|^2 = identity_4 - transpose_4
def identity_4() -> Tensor4:
    return _delta_tensor("ik,jl->ijkl")


def trace_outer_4() -> Tensor4:
    return _delta_tensor("ij,kl->ijkl")


def transpose_4() -> Tensor4:
    return _delta_tensor("il,jk->ijkl")


def curl_quadratic_4() -> Tensor4:
    return identity_4() - transpose_4()


def curl_from_gradient(grad: Mat3) -> Vec3:
    """Curl of a vector field from its gradient matrix S_ij = d_j f_i.

    (curl f)_i = eps_ijk d_j f_k = eps_ijk S_kj; returned componentwise,
    laid out as a row of grad is, so a component-major field stays so.
    """
    curl = np.empty_like(grad[..., 0, :])
    np.subtract(grad[..., 2, 1], grad[..., 1, 2], out=curl[..., 0])
    np.subtract(grad[..., 0, 2], grad[..., 2, 0], out=curl[..., 1])
    np.subtract(grad[..., 1, 0], grad[..., 0, 1], out=curl[..., 2])
    return curl
