"""Trigonometric Galerkin bases on the periodic box [0, 2pi)^3.

Two orthonormal real bases are built mode by mode:

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
Products of up to three retained fields are integrated exactly by the grid
quadrature because retained modes satisfy 3 * |k|_inf < n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.fft as _fft

from .tensors import Tensor4, contract42


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform n^3 grid on [0, 2pi)^3 with strict 2/3-rule mode cutoff."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("grid resolution must be even and >= 8")

    @property
    def cutoff(self) -> int:
        # Strict two-thirds rule: 3 * cutoff < n, so cubic products of
        # retained fields are quadrature-exact.
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

    @cached_property
    def k_mesh(self) -> np.ndarray:
        """(n, n, n, 3) integer wavevector mesh in FFT layout."""
        k = self.wavenumbers
        kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
        return np.stack([kx, ky, kz], axis=-1)

    @cached_property
    def k_mesh_half(self) -> np.ndarray:
        """Wavevector mesh of the real-transform half spectrum, (n, n, n/2+1, 3)."""
        k = self.wavenumbers
        kh = np.arange(self.n // 2 + 1)
        kx, ky, kz = np.meshgrid(k, k, kh, indexing="ij")
        return np.stack([kx, ky, kz], axis=-1)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return (np.abs(self.k_mesh) <= self.cutoff).all(axis=-1)

    def axes_points(self) -> np.ndarray:
        return np.arange(self.n) * (2.0 * np.pi / self.n)

    def fft(self, field: np.ndarray) -> np.ndarray:
        """Normalized forward transform: field(x) = sum_k spec(k) e^{i k.x}."""
        return _fft.fftn(field, axes=(0, 1, 2), norm="forward")

    def ifft(self, spec: np.ndarray) -> np.ndarray:
        return np.real(_fft.ifftn(spec, axes=(0, 1, 2), norm="forward"))

    def rfft(self, field: np.ndarray) -> np.ndarray:
        """Half-spectrum transform of a real field (same normalization)."""
        return _fft.rfftn(field, axes=(0, 1, 2), norm="forward")

    def irfft(self, spec_half: np.ndarray) -> np.ndarray:
        return _fft.irfftn(spec_half, s=(self.n,) * 3, axes=(0, 1, 2), norm="forward")

    def quad(self, scalar_field: np.ndarray) -> float:
        """Grid quadrature of a scalar field over the box."""
        return float(np.sum(scalar_field) * self.cell_volume)

    def l2_norm(self, field: np.ndarray) -> float:
        return float(np.sqrt(np.sum(field * field) * self.cell_volume))


def gradient_of(grid: SpectralGrid, field: np.ndarray) -> np.ndarray:
    """Dealiased spectral gradient; result[..., i, a] = d_a field_i."""
    spec = grid.fft(field) * grid.dealias_mask[..., None]
    gspec = spec[..., :, None] * (1j * grid.k_mesh)[..., None, :]
    return grid.ifft(gspec)


def divergence_of(grid: SpectralGrid, mat_field: np.ndarray) -> np.ndarray:
    """Dealiased spectral row divergence; result_i = sum_j d_j mat_ij."""
    spec = grid.fft(mat_field) * grid.dealias_mask[..., None, None]
    dspec = np.sum(spec * (1j * grid.k_mesh)[..., None, :], axis=-1)
    return grid.ifft(dspec)


def laplacian_of(grid: SpectralGrid, field: np.ndarray) -> np.ndarray:
    spec = grid.fft(field) * grid.dealias_mask[..., None]
    ksq = np.sum(grid.k_mesh**2, axis=-1)
    return grid.ifft(-(ksq[..., None]) * spec)


def symbol_matrix(lam4: Tensor4, k) -> np.ndarray:
    """Fourier symbol M(k)_im = sum_jl Lam_ijml k_j k_l of -div(Lam : grad .)."""
    k = np.asarray(k, dtype=float)
    return np.einsum("ijml,j,l->im", lam4, k, k)


def elliptic_apply(lam4: Tensor4, grid: SpectralGrid, field: np.ndarray) -> np.ndarray:
    """Pseudospectral application of z -> -div(Lam : grad z)."""
    flux = contract42(lam4, gradient_of(grid, field))
    return -divergence_of(grid, flux)


def _canonical_wavevectors(cutoff: int) -> list[tuple[int, int, int]]:
    """One representative per +-k pair, first nonzero component positive."""
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


def _sign_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _sig(x: float) -> float:
    """Round to 11 significant digits so analytically equal eigenvalues tie."""
    return float(f"{x:.10e}")


def _deterministic_eigvecs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a symmetric 3x3 matrix with a reproducible
    choice of basis inside (near-)degenerate eigenspaces: project the frame
    (e1, e2, e3) onto the eigenspace and Gram-Schmidt in that order."""
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
            out[:, start] = _sign_fix(sub[:, 0])
        else:
            proj = sub @ sub.T
            cols: list[np.ndarray] = []
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
                out[:, start + j] = _sign_fix(cvec)
        start = stop
    return w, out


def _velocity_polarizations(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(3)
    e[axis] = 1.0
    p1 = np.cross(e, k.astype(float))
    p1 /= np.linalg.norm(p1)
    p1 = _sign_fix(p1)
    p2 = np.cross(k.astype(float), p1)
    p2 /= np.linalg.norm(p2)
    p2 = _sign_fix(p2)
    return p1, p2


COS, SIN = 0, 1


@dataclass(frozen=True)
class Mode:
    """One real trigonometric basis field u * scale * {cos, sin}(k.x)."""

    k: tuple[int, int, int]
    vec: np.ndarray
    eig: float
    parity: int  # COS or SIN
    branch: int


class _TrigBasis:
    """Hot-path transforms run on the real half spectrum: each mode stores the
    flat index of its representative entry (the one with nonnegative third
    wavevector component) plus a conjugation flag, and modes whose third
    component vanishes also scatter the in-plane mirror entry."""

    def __init__(self, grid: SpectralGrid, modes: list[Mode]):
        self.grid = grid
        self.modes = modes
        n = grid.n
        nh = n // 2 + 1
        self.size = len(modes)
        kv = np.array([m.k for m in modes], dtype=np.int64).reshape(self.size, 3)
        self.kvecs = kv
        self.vecs = np.array([m.vec for m in modes]).reshape(self.size, 3)
        self.eigs = np.array([m.eig for m in modes])
        self.parity = np.array([m.parity for m in modes], dtype=np.int8)
        self.is_const = (kv == 0).all(axis=1)
        self._conj = kv[:, 2] < 0
        rep = np.where(self._conj[:, None], -kv, kv)
        self._half_flat = np.ravel_multi_index(
            (rep[:, 0] % n, rep[:, 1] % n, rep[:, 2]), (n, n, nh)
        )
        self._plane = (kv[:, 2] == 0) & ~self.is_const
        mirror = -kv[self._plane]
        mirror_flat = np.ravel_multi_index(
            (mirror[:, 0] % n, mirror[:, 1] % n, mirror[:, 2]), (n, n, nh)
        )
        v = grid.volume
        # L^2-normalization: sqrt(2/V) for travelling modes, 1/sqrt(V) for
        # constants (directors only).
        self._scale = np.where(self.is_const, 1.0 / np.sqrt(v), np.sqrt(2.0 / v))
        # The scatter fills the half spectrum viewed as float64: component c
        # of entry f has its real part in slot 6 f + 2 c and its imaginary
        # part in the next.  A cos mode adds its weight to the real part; a
        # sin mode adds -1j times it, so -weight to the imaginary part, or
        # +weight where the entry holds the conjugate (stored -k, mirrors).
        self._half = np.where(self.is_const, 1.0, 0.5)[:, None]
        sin = self.parity != COS
        self._sign = np.where(sin & ~self._conj, -1.0, 1.0)[:, None]
        comp = 2 * np.arange(3)
        self._slots = np.concatenate(
            [
                (6 * self._half_flat + sin)[:, None] + comp,
                (6 * mirror_flat + sin[self._plane])[:, None] + comp,
            ]
        ).astype(np.int32).ravel()
        self._spec_len = 6 * n * n * nh

    def _check_coefs(self, coefs: np.ndarray):
        if coefs.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {coefs.shape}")

    def synthesize_spec_half(self, coefs: np.ndarray) -> np.ndarray:
        """Half-spectrum array (n, n, n/2+1, 3) of the coefficient state."""
        self._check_coefs(coefs)
        n = self.grid.n
        w = ((coefs * self._scale)[:, None] * self.vecs) * self._half
        weights = np.concatenate([(w * self._sign).ravel(), w[self._plane].ravel()])
        spec = np.bincount(self._slots, weights, minlength=self._spec_len)
        return spec.view(complex).reshape(n, n, n // 2 + 1, 3)

    def synthesize(self, coefs: np.ndarray) -> np.ndarray:
        return self.grid.irfft(self.synthesize_spec_half(coefs))

    def synthesize_with_derivatives(self, coefs: np.ndarray, hessian: bool = False):
        """Grid value, gradient (and optionally second gradient) of a state.

        Returns (value, grad, hess) with grad[..., i, a] = d_a f_i and
        hess[..., i, a, b] = d_a d_b f_i (hess is None unless requested).
        One fused inverse transform covers all requested components.
        """
        grid = self.grid
        n = grid.n
        spec = self.synthesize_spec_half(coefs)
        km = grid.k_mesh_half
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

    def analyze_spec_half(self, spec_half_flat: np.ndarray) -> np.ndarray:
        """Coefficients from an already-transformed (n^2 (n/2+1), 3) array."""
        z = np.einsum("mc,mc->m", self.vecs, spec_half_flat[self._half_flat])
        zr = z.real
        zi = np.where(self._conj, -z.imag, z.imag)
        v = self.grid.volume
        coefs = np.where(self.parity == COS, np.sqrt(2.0 * v) * zr, -np.sqrt(2.0 * v) * zi)
        return np.where(self.is_const, np.sqrt(v) * zr, coefs)

    def project_stress_spec_half(self, spec_half_flat: np.ndarray) -> np.ndarray:
        """Pairings (T : grad w_i) from a transformed (n^2 (n/2+1), 3, 3) array.

        Constant modes have zero gradient and get zero pairings.
        """
        z = np.einsum(
            "mi,mj,mij->m", self.vecs, self.kvecs.astype(float), spec_half_flat[self._half_flat]
        )
        zr = z.real
        zi = np.where(self._conj, -z.imag, z.imag)
        root = np.sqrt(2.0 * self.grid.volume)
        return np.where(self.parity == COS, root * zi, root * zr)

    def analyze(self, field: np.ndarray) -> np.ndarray:
        """Grid-quadrature L^2 inner products with every retained mode."""
        n = self.grid.n
        if field.shape != (n, n, n, 3):
            raise ValueError(f"expected field of shape {(n, n, n, 3)}, got {field.shape}")
        return self.analyze_spec_half(self.grid.rfft(field).reshape(-1, 3))

    def manifest(self) -> str:
        lines = []
        for i, m in enumerate(self.modes):
            vec = " ".join(f"{c:+.12e}" for c in m.vec)
            par = "cos" if m.parity == COS else "sin"
            lines.append(
                f"{i:4d}  k=({m.k[0]:+d},{m.k[1]:+d},{m.k[2]:+d})  "
                f"eig={m.eig:.12e}  parity={par}  vec=[{vec}]"
            )
        return "\n".join(lines) + "\n"


class DirectorBasis(_TrigBasis):
    """Eigenmodes of -div(Lam : grad .), constants included."""

    def __init__(self, grid: SpectralGrid, lam4: Tensor4, modes: list[Mode]):
        super().__init__(grid, modes)
        self.lam4 = np.array(lam4)

    @property
    def sigmas(self) -> np.ndarray:
        return self.eigs

    def h2_norm_constant(self) -> float:
        """Largest ||z||_H2 / ||Delta z||_L2 over retained non-constant modes."""
        ksq = np.sum(self.kvecs**2, axis=1).astype(float)
        ksq = ksq[~self.is_const]
        if len(ksq) == 0:
            raise ValueError("basis holds only constant modes")
        return float(np.max(np.sqrt(1.0 + ksq + ksq**2) / ksq))

    def regularity_constant(self) -> float:
        """Largest ||z||_H2 / ||div(Lam : grad z)||_L2 over non-constant modes."""
        ksq = np.sum(self.kvecs**2, axis=1).astype(float)
        keep = ~self.is_const
        return float(np.max(np.sqrt(1.0 + ksq[keep] + ksq[keep] ** 2) / self.eigs[keep]))


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
    entries: list[tuple] = []
    for i, e in enumerate(np.eye(3)):
        entries.append((0.0, (0, 0, 0), i, COS, e, 0.0))
    for k in _canonical_wavevectors(grid.cutoff):
        m = symbol_matrix(lam4, k)
        if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise ValueError("symbol matrix not symmetric; tensor lacks pair symmetry")
        w, vecs = _deterministic_eigvecs(m)
        if w[0] <= 0.0:
            raise ValueError(
                f"operator not strongly elliptic: symbol eigenvalue {w[0]:.3e} at k={k}"
            )
        for branch in range(3):
            for parity in (COS, SIN):
                entries.append((_sig(w[branch]), k, branch, parity, vecs[:, branch], w[branch]))
    entries.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    if n_modes is None:
        n_modes = len(entries)
    if not 1 <= n_modes <= len(entries):
        raise ValueError(f"n_modes must be in [1, {len(entries)}]")
    modes = [Mode(k=e[1], vec=e[4], eig=e[5], parity=e[3], branch=e[2]) for e in entries[:n_modes]]
    return DirectorBasis(grid, lam4, modes)


def build_velocity_basis(grid: SpectralGrid, n_modes: Optional[int] = None) -> VelocityBasis:
    """Transverse trigonometric basis sorted by |k|^2 then lexicographic k."""
    entries: list[tuple] = []
    for k in _canonical_wavevectors(grid.cutoff):
        ka = np.array(k)
        ksq = float(ka @ ka)
        p1, p2 = _velocity_polarizations(ka)
        for pol, p in enumerate((p1, p2)):
            for parity in (COS, SIN):
                entries.append((ksq, k, pol, parity, p))
    entries.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    if n_modes is None:
        n_modes = len(entries)
    if not 1 <= n_modes <= len(entries):
        raise ValueError(f"n_modes must be in [1, {len(entries)}]")
    modes = [Mode(k=e[1], vec=e[4], eig=e[0], parity=e[3], branch=e[2]) for e in entries[:n_modes]]
    return VelocityBasis(grid, modes)

