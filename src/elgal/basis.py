"""Trigonometric Galerkin bases on the periodic box [0, 2pi)^3.

Two orthonormal real bases, each one structured array of modes (``MODE_DTYPE``):

* velocity modes: divergence-free fields p * sqrt(2/V) * cos/sin(k.x) with
  p.k = 0, two polarizations per canonical wavevector, k = 0 excluded
  (zero-mean velocity); each carries the Stokes eigenvalue |k|^2;
* director modes: q_m * sqrt(2/V) * cos/sin(k.x) where q_m are the
  orthonormal eigenvectors of the 3x3 symbol matrix

      M(k)_im = sum_jl  Lam_ijml k_j k_l

  of the strongly elliptic operator z -> -div(Lam : grad z), with
  eigenvalue sigma_m; the three constant modes (k = 0, sigma = 0) are
  included.

Coefficient vectors are real; ``analyze`` is the grid-quadrature L^2
projection onto the retained span and ``synthesize`` its right inverse.
Both move coefficients through only the half-spectrum entries the modes
touch (see ``_TrigBasis``): the scatter accumulates on a compact table of
those entries and forms the gradient spectra there, and the gathers
contract once per retained (wavevector, branch) pair, whose cosine and sine
modes take the real and imaginary part of the same value.

Quadrature exactness and the transform grid
-------------------------------------------
The builders draw modes from the wavevectors with 3 |k|_inf < N on the
configured N^3 grid (``SpectralGrid.cutoff``).  ``on_grid`` re-homes the same
mode array onto another grid.  The n^3-point quadrature integrates
exp(i k.x) exactly unless every component of a nonzero k is a multiple of
n, so a product of P retained fields (derivatives included; a gather at a
retained mode is one more factor), each with |k|_inf <= k_max, is exact
when P k_max < n.  The solver's pairings, with q the synthesized
projection q_hat (one retained director field) and S = grad d:

    q_hat:   (dF_dh, z_i) + (dF_dS, grad z_i)               deg F
    ledger:  quad(F(d, S))                                  deg F
    d-eq:    ((grad d) v - skw(grad v) d + lam Sv d, z_i)   3
    v-eq:    ((grad v) v, w_i),  ((grad d)^T q, w_i)        3
    stress:  (mu4 Sv : grad w_i)                            2
             ((d x q), (q x d) : grad w_i)                  3
             ((d x Sv d), (Sv d x d) : grad w_i)            4
             (mu1 (d.Sv d) d x d : grad w_i)                6
    ledger:  mu4 ||Sv||^2 2,  kappa (q, Sv d) 3,  A ||Sv d||^2 4,
             mu1 ||d.Sv d||^2 6

so all are exact once P k_max < n with P = max(6, deg F), and
``transform_grid_size`` picks the smallest such even n >= 8, capped at N.
The bases then give the same coefficients on that grid as on the N grid,
up to rounding.  An energy that is not a polynomial in (d, S) has no P and
keeps N; so do bases too rich for P k_max < N, where, as the cutoff
guarantees, products of up to three retained fields stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.fft as _fft

from .tensors import Tensor4


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform n^3 grid on [0, 2pi)^3 with strict 2/3-rule mode cutoff."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("grid resolution must be even and >= 8")

    @property
    def cutoff(self) -> int:
        # Largest |k|_inf the builders draw on this grid.  The strict
        # two-thirds rule 3 * cutoff < n makes cubic products exact; higher
        # products need P * k_max < n (see the module docstring).
        return (self.n - 1) // 3

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** 3

    @property
    def cell_volume(self) -> float:
        return (2.0 * np.pi / self.n) ** 3

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64)

    def rfft(self, field: np.ndarray) -> np.ndarray:
        """Half-spectrum transform of a real field (same normalization)."""
        return _fft.rfftn(field, axes=(0, 1, 2), norm="forward")

    def irfft(self, spec_half: np.ndarray) -> np.ndarray:
        return _fft.irfftn(spec_half, s=(self.n,) * 3, axes=(0, 1, 2), norm="forward")

    def quad(self, scalar_field: np.ndarray) -> float:
        """Grid quadrature of a scalar field over the box."""
        return float(np.sum(scalar_field) * self.cell_volume)


def transform_grid_size(n: int, k_max: int, degree: int | None) -> int:
    """Smallest even grid size >= 8 with degree * k_max < size, capped at n;
    n itself when degree is None (no polynomial product bound)."""
    if degree is None:
        return n
    size = max(8, degree * k_max + 1)
    return min(n, size + size % 2)


def symbol_matrix(lam4: Tensor4, k) -> np.ndarray:
    """Fourier symbol M(k)_im = sum_jl Lam_ijml k_j k_l of -div(Lam : grad .),
    for one wavevector or a stack of them (..., 3) -> (..., 3, 3)."""
    k = np.asarray(k, dtype=float)
    return np.einsum("ijml,...j,...l->...im", lam4, k, k)


def _canonical_wavevectors(cutoff: int) -> np.ndarray:
    """One representative per +-k pair, first nonzero component positive,
    as a (K, 3) array in lexicographic order."""
    r = np.arange(-cutoff, cutoff + 1)
    k = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    kx, ky, kz = k.T
    return k[(kx > 0) | ((kx == 0) & ((ky > 0) | ((ky == 0) & (kz > 0))))]


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Flip each vector (last axis) so that its largest-magnitude entry is positive."""
    i = np.argmax(np.abs(v), axis=-1)[..., None]
    return np.where(np.take_along_axis(v, i, axis=-1) < 0, -v, v)


def _norm(v: np.ndarray) -> np.ndarray:
    # np.vecdot, unlike einsum or sum(axis=-1), adds in the order of the
    # 1-D dot product, so each norm equals np.linalg.norm of its vector.
    return np.sqrt(np.vecdot(v, v))[..., None]


def _sig(x: np.ndarray) -> np.ndarray:
    """Round to 11 significant digits so analytically equal eigenvalues tie."""
    return np.char.mod("%.10e", x).astype(float)


def _eigenspace_frames(sub: np.ndarray) -> np.ndarray:
    """Rows: (e1, e2, e3) projected onto each eigenspace spanned by the columns
    of sub (B, 3, g), Gram-Schmidt in that order, the first g survivors kept."""
    g = sub.shape[-1]
    proj = np.matmul(sub, sub.swapaxes(-1, -2))
    frame = np.zeros((len(sub), g, 3))
    found = np.zeros(len(sub), dtype=np.int64)
    for j in range(3):
        c = proj[:, :, j]
        for p in range(g - 1):
            prev = frame[:, p]
            c = np.where((found > p)[:, None], c - np.vecdot(prev, c)[:, None] * prev, c)
        nc = _norm(c)
        rows = np.flatnonzero((nc[:, 0] > 1e-8) & (found < g))
        frame[rows, found[rows]] = c[rows] / nc[rows]
        found[rows] += 1
    return _sign_fix(frame)


def _deterministic_eigvecs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a stack of symmetric 3x3 matrices (K, 3, 3) with a
    reproducible basis inside (near-)degenerate eigenspaces.  Returns the
    eigenvalues (K, 3) and the eigenvectors as rows (K, 3, 3)."""
    w, v = np.linalg.eigh(0.5 * (m + m.swapaxes(-1, -2)))
    tol = 1e-8 * np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, 2])), 1.0)
    # An eigenvalue opens a new group when it is apart from the group's first.
    new1 = np.abs(w[:, 1] - w[:, 0]) > tol
    new2 = np.abs(w[:, 2] - np.where(new1, w[:, 1], w[:, 0])) > tol
    rows = _sign_fix(v.swapaxes(-1, -2))
    for start, stop, sel in ((0, 3, ~new1 & ~new2), (0, 2, ~new1 & new2), (1, 3, new1 & ~new2)):
        rows[sel, start:stop] = _eigenspace_frames(v[sel, :, start:stop])
    return w, rows


COS, SIN = 0, 1

# One real trigonometric basis field vec * scale * {cos, sin}(k.x) per entry.
MODE_DTYPE = np.dtype(
    [("k", np.int64, 3), ("vec", float, 3), ("eig", float), ("parity", np.int8), ("branch", np.int8)]
)


def _wave_modes(k: np.ndarray, vecs: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """Cosine and sine mode of branch b of each wavevector k (K, 3), with
    vector vecs (K, B, 3) and eigenvalue eigs (K, B)."""
    n_k, n_b = eigs.shape
    modes = np.zeros((n_k, n_b, 2), MODE_DTYPE)
    modes["k"] = k[:, None, None]
    modes["vec"] = vecs[:, :, None]
    modes["eig"] = eigs[:, :, None]
    modes["branch"] = np.arange(n_b)[:, None]
    modes["parity"] = (COS, SIN)
    return modes.ravel()


def _leading_modes(modes: np.ndarray, key: np.ndarray, n_modes: Optional[int]) -> np.ndarray:
    """The first n_modes (default all) ordered by key, then lexicographic k,
    then branch, then parity with cosine first."""
    if n_modes is None:
        n_modes = len(modes)
    if not 1 <= n_modes <= len(modes):
        raise ValueError(f"n_modes must be in [1, {len(modes)}]")
    k = modes["k"]
    order = np.lexsort((modes["parity"], modes["branch"], k[:, 2], k[:, 1], k[:, 0], key))
    return modes[order[:n_modes]]


class _TrigBasis:
    """A basis over a ``MODE_DTYPE`` array, whose columns it keeps contiguous.

    Hot-path transforms run on the real half spectrum and touch only the
    entries the modes reach, through two tables built once:

    * the touched entries: each mode's representative entry (the one with
      nonnegative third wavevector component, conjugated when it stores -k)
      and, for modes whose third component vanishes, the in-plane mirror
      entry -k, each with its wavevector.  The scatter accumulates there
      and forms the gradient spectra there;
    * the pairs: runs of consecutive modes with the same wavevector and
      vector, i.e. the cosine and sine mode of one (wavevector, branch),
      ordered by first mode.  Both read the same spectrum entry with the
      same vector, so a gather contracts once per pair and each mode takes
      the real or imaginary part of its pair's value."""

    def __init__(self, grid: SpectralGrid, modes: np.ndarray):
        self.grid = grid
        self.modes = modes
        n = grid.n
        nh = n // 2 + 1
        self.size = len(modes)
        self.kvecs = kv = np.ascontiguousarray(modes["k"])
        self.vecs = np.ascontiguousarray(modes["vec"])
        self.eigs = np.ascontiguousarray(modes["eig"])
        self.parity = np.ascontiguousarray(modes["parity"])
        self.is_const = (kv == 0).all(axis=1)
        conj = kv[:, 2] < 0
        rep = np.where(conj[:, None], -kv, kv)
        half_flat = np.ravel_multi_index((rep[:, 0] % n, rep[:, 1] % n, rep[:, 2]), (n, n, nh))
        self._plane = (kv[:, 2] == 0) & ~self.is_const
        mirror = -kv[self._plane]
        mirror_flat = np.ravel_multi_index(
            (mirror[:, 0] % n, mirror[:, 1] % n, mirror[:, 2]), (n, n, nh)
        )
        touched = np.concatenate([half_flat, mirror_flat])
        used = np.zeros(n * n * nh, dtype=bool)
        used[touched] = True
        self._entries = np.flatnonzero(used)
        entry = (np.cumsum(used) - 1)[touched]
        i, j, l = np.unravel_index(self._entries, (n, n, nh))
        self._entry_k = np.stack([grid.wavenumbers[i], grid.wavenumbers[j], l], axis=-1)
        v = grid.volume
        # L^2-normalization: sqrt(2/V) for travelling modes, 1/sqrt(V) for
        # constants (directors only).
        self._scale = np.where(self.is_const, 1.0 / np.sqrt(v), np.sqrt(2.0 / v))
        # The scatter fills the touched entries viewed as float64: component
        # c of entry e has its real part in slot 6 e + 2 c and its imaginary
        # part in the next.  A cos mode adds its weight to the real part; a
        # sin mode adds -1j times it, so -weight to the imaginary part, or
        # +weight where the entry holds the conjugate (stored -k, mirrors).
        self._half = np.where(self.is_const, 1.0, 0.5)[:, None]
        sin = self.parity != COS
        self._sign = np.where(sin & ~conj, -1.0, 1.0)[:, None]
        self._slots = (
            (6 * entry + np.concatenate([sin, sin[self._plane]]))[:, None] + 2 * np.arange(3)
        ).astype(np.int32).ravel()
        # A pair starts wherever the wavevector (its signed entry index) or
        # the vector changes from the previous mode.
        signed = np.where(conj, -1 - half_flat, half_flat)
        new_vec = self.vecs[1:] != self.vecs[:-1]
        new_pair = np.ones(self.size, dtype=bool)
        new_pair[1:] = (signed[1:] != signed[:-1]) | new_vec[:, 0] | new_vec[:, 1] | new_vec[:, 2]
        first = np.flatnonzero(new_pair)
        # Mode i of pair p reads entry 2 p + parity of the per-pair
        # (real part, imaginary part) values, flattened.
        self._part = (2 * (np.cumsum(new_pair) - 1) + sin).astype(np.int32)
        self._pair_flat = half_flat[first]
        self._pair_k = kv[first].astype(np.int32)  # int32 keeps the table small
        self._pair_vecs = self.vecs[first]
        self._pair_conj = conj[first]
        self._pair_const = self.is_const[first]

    @property
    def k_max(self) -> int:
        """Largest |k|_inf over the retained modes."""
        return int(np.abs(self.kvecs).max(initial=0))

    def on_grid(self, grid: SpectralGrid) -> "_TrigBasis":
        """The same modes over another grid, without a new eigen-build."""
        return self if grid == self.grid else type(self)(grid, self.modes)

    def _check_coefs(self, coefs: np.ndarray):
        if coefs.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {coefs.shape}")

    def synthesize_spec_half(self, coefs: np.ndarray, gradient: bool = False) -> np.ndarray:
        """Half-spectrum array (n, n, n/2+1, C) of the coefficient state: its
        3 components, then with ``gradient`` the 9 of its gradient
        (component 3 + 3 i + a holds d_a f_i).  The director equation pairs
        with each mode's value and gradient only, so no higher derivative
        is ever formed."""
        self._check_coefs(coefs)
        n = self.grid.n
        w = (coefs * self._scale)[:, None] * self.vecs
        w *= self._half
        weights = np.empty(len(self._slots))
        np.multiply(w, self._sign, out=weights[: w.size].reshape(w.shape))
        np.compress(self._plane, w, axis=0, out=weights[w.size :].reshape(-1, 3))
        s = np.bincount(self._slots, weights, minlength=6 * len(self._entries))
        s = s.view(complex).reshape(-1, 3)
        touched = s
        if gradient:
            touched = np.empty((len(s), 12), complex)
            touched[:, :3] = s
            ik = 1j * self._entry_k
            np.multiply(s[:, :, None], ik[:, None, :], out=touched[:, 3:].reshape(-1, 3, 3))
        spec = np.zeros((n * n * (n // 2 + 1), touched.shape[1]), complex)
        spec[self._entries] = touched
        return spec.reshape(n, n, n // 2 + 1, -1)

    def synthesize(self, coefs: np.ndarray) -> np.ndarray:
        return self.grid.irfft(self.synthesize_spec_half(coefs))

    def synthesize_with_derivatives(self, coefs: np.ndarray):
        """Grid value and gradient of a state, (value, grad) with
        grad[..., i, a] = d_a f_i, from one fused inverse transform."""
        n = self.grid.n
        out = self.grid.irfft(self.synthesize_spec_half(coefs, gradient=True))
        return out[..., :3], out[..., 3:].reshape(n, n, n, 3, 3)

    @staticmethod
    def _scaled_parts(z: np.ndarray, real_scale, imag_scale) -> np.ndarray:
        """The pair values z as (P, 2) rows (real part * real_scale, imaginary
        part * imag_scale), scaled in place."""
        parts = z.view(float).reshape(-1, 2)
        parts[:, 0] *= real_scale
        parts[:, 1] *= imag_scale
        return parts

    def analyze_spec_half(self, spec_half_flat: np.ndarray) -> np.ndarray:
        """Coefficients from an already-transformed (n^2 (n/2+1), 3) array."""
        z = np.einsum("pc,pc->p", self._pair_vecs, spec_half_flat[self._pair_flat])
        v = self.grid.volume
        root = np.sqrt(2.0 * v)
        # cos: root Re z (sqrt(V) Re z for a constant); sin: -root Im z, of
        # the conjugate where the entry stores -k.
        real_scale = np.where(self._pair_const, np.sqrt(v), root)
        parts = self._scaled_parts(z, real_scale, np.where(self._pair_conj, root, -root))
        return np.take(parts, self._part)

    def project_stress_spec_half(self, spec_half_flat: np.ndarray) -> np.ndarray:
        """Pairings (T : grad w_i) from a transformed (n^2 (n/2+1), 3, 3) array.

        Constant modes have zero gradient and get zero pairings.
        """
        k = self._pair_k.astype(float)
        z = np.einsum("pi,pj,pij->p", self._pair_vecs, k, spec_half_flat[self._pair_flat])
        root = np.sqrt(2.0 * self.grid.volume)
        # cos: root Im z (of the conjugate where the entry stores -k); sin:
        # root Re z.  So a cos mode reads the imaginary part, a sin mode the real.
        parts = self._scaled_parts(z, root, np.where(self._pair_conj, -root, root))
        return np.take(parts, self._part ^ 1)

    def analyze(self, field: np.ndarray) -> np.ndarray:
        """Grid-quadrature L^2 inner products with every retained mode."""
        n = self.grid.n
        if field.shape != (n, n, n, 3):
            raise ValueError(f"expected field of shape {(n, n, n, 3)}, got {field.shape}")
        return self.analyze_spec_half(self.grid.rfft(field).reshape(-1, 3))


class DirectorBasis(_TrigBasis):
    """Eigenmodes of -div(Lam : grad .), constants included."""

    def __init__(self, grid: SpectralGrid, lam4: Tensor4, modes: np.ndarray):
        super().__init__(grid, modes)
        self.lam4 = np.array(lam4)

    def on_grid(self, grid: SpectralGrid) -> "DirectorBasis":
        return self if grid == self.grid else DirectorBasis(grid, self.lam4, self.modes)

    def h2_norm_constant(self) -> float:
        """Largest ||z||_H2 / ||Delta z||_L2 over retained non-constant modes."""
        return self._h2_ratio(np.sum(self.kvecs**2, axis=1).astype(float))

    def regularity_constant(self) -> float:
        """Largest ||z||_H2 / ||div(Lam : grad z)||_L2 over non-constant modes."""
        return self._h2_ratio(self.eigs)

    def _h2_ratio(self, denominator: np.ndarray) -> float:
        keep = ~self.is_const
        if not keep.any():
            raise ValueError("basis holds only constant modes")
        ksq = np.sum(self.kvecs[keep] ** 2, axis=1).astype(float)
        return float(np.max(np.sqrt(1.0 + ksq + ksq**2) / denominator[keep]))


class VelocityBasis(_TrigBasis):
    """Divergence-free transverse modes; k = 0 excluded."""


def build_director_basis(
    lam4: Tensor4, grid: SpectralGrid, n_modes: Optional[int] = None
) -> DirectorBasis:
    """Eigenmode basis of the elliptic operator, sorted by eigenvalue.

    Ties are broken by lexicographic wavevector, then branch (eigenvector
    index for that wavevector), then parity with cosine first.  Refuses
    tensors whose symbol is not positive definite away from k = 0.
    """
    k = _canonical_wavevectors(grid.cutoff)
    m = symbol_matrix(lam4, k)
    asym = np.max(np.abs(m - m.swapaxes(1, 2)), axis=(1, 2))
    if np.any(asym > 1e-10 * np.maximum(1.0, np.max(np.abs(m), axis=(1, 2)))):
        raise ValueError("symbol matrix not symmetric; tensor lacks pair symmetry")
    w, vecs = _deterministic_eigvecs(m)
    if np.any(w[:, 0] <= 0.0):
        i = int(np.argmax(w[:, 0] <= 0.0))
        raise ValueError(
            f"operator not strongly elliptic: symbol eigenvalue {w[i, 0]:.3e} "
            f"at k={tuple(k[i].tolist())}"
        )
    constants = np.zeros(3, MODE_DTYPE)
    constants["vec"] = np.eye(3)
    constants["branch"] = np.arange(3)
    modes = np.concatenate([constants, _wave_modes(k, vecs, w)])
    return DirectorBasis(grid, lam4, _leading_modes(modes, _sig(modes["eig"]), n_modes))


def build_velocity_basis(grid: SpectralGrid, n_modes: Optional[int] = None) -> VelocityBasis:
    """Transverse trigonometric basis sorted by |k|^2 then lexicographic k."""
    k = _canonical_wavevectors(grid.cutoff)
    kf = k.astype(float)
    e = np.eye(3)[np.argmin(np.abs(k), axis=1)]
    p1 = np.cross(e, kf)
    p1 = _sign_fix(p1 / _norm(p1))
    p2 = np.cross(kf, p1)
    p2 = _sign_fix(p2 / _norm(p2))
    ksq = np.vecdot(k, k).astype(float)
    modes = _wave_modes(k, np.stack([p1, p2], axis=1), np.repeat(ksq[:, None], 2, axis=1))
    return VelocityBasis(grid, _leading_modes(modes, modes["eig"], n_modes))
