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
Both move coefficients through the grid's band spectrum, the entries with
|k|_inf <= k_max of the half spectrum k_1 >= 0, which holds every retained
(canonical) wavevector (see ``SpectralGrid`` and ``_TrigBasis``).  Each
basis scatters into the band and gathers from it by two sparse operators
built once, and the gradient spectra are formed on the band; the one
gather is ``analyze_spec_half``.  A stress T pairs through its band
divergence, (T : grad w_i) = -(div T, w_i), in that same gather; the
gradient and the divergence share one derivative table, ``band_ik``.  The
band goes to and from the grid by three per-axis DFT-matrix passes
(``SpectralGrid.rfft`` and ``irfft``), so no transform touches the entries
outside it.

Field memory layout
-------------------
Grid fields are component-major.  ``irfft`` writes each component as one
contiguous n^3 plane and returns the (n, n, n, ...) view whose component
axes have strides of whole planes; ``rfft`` reads such a field in place.
NumPy's ufuncs, ``einsum`` and ``concatenate`` allocate their results in
the memory order of their operands, so the pointwise layer keeps its
trailing-axis indexing and still runs on whole planes: at 32^3 an
``einsum("...ia,...a->...i")`` over planes is 3-4x faster than over
interleaved rows of 3 and 9 values.  A hot-path operation that allocates
a C-order result from such fields (``np.stack(..., axis=-1)``, a matmul
over the trailing axis) would mix the layouts downstream, so there is none.

Band spectra are component-major too: ``rfft`` and the scatter write each
component as one contiguous run of the E band entries behind the same
(k_max+1, b, b, C) shape, so a band flattened to (E, C) is the transpose
of a C-order (C, E) array.  The scatter, the gradient spectra,
``divergence`` and the gather run on those contiguous rows; a C-order band
gives them the same bytes.

Quadrature exactness
--------------------
The builders draw modes from the wavevectors with 3 |k|_inf < N on the
configured N^3 grid (``SpectralGrid.cutoff``), so products of up to three
retained fields are exact there.  ``on_grid`` re-homes the same mode array
onto another grid.  The n^3-point quadrature integrates exp(i k.x) exactly
unless every component of a nonzero k is a multiple of n, so a product of
P band fields (derivatives included; a gather at a retained mode is one
more factor), each with |k|_inf <= k_max, is exact when P k_max < n, and
the bases give the same coefficients on every such grid up to rounding.
Which P the solver's pairings need is the solver's rule (see ``simulate``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

from .tensors import Tensor4


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform n^3 grid on [0, 2pi)^3 whose spectra hold the band |k|_inf <= k_max.

    A band spectrum is a (k_max+1, b, b, C) complex array, b = 2 k_max + 1,
    holding the real-transform half spectrum's entries with 0 <= k_1 <=
    k_max and |k_2|, |k_3| <= k_max; the half axis is the first, and
    wavenumber k of the last two axes sits at index k mod b.  ``k_max``
    defaults to the builders' ``cutoff``.  A band wider than the grid would
    wrap onto itself and is refused.  Bands and grid fields (n, n, n, ...)
    are component-major (see the module docstring): ``rfft`` reads fields in
    place and writes bands, ``irfft`` writes fields."""

    n: int
    k_max: Optional[int] = None

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("grid resolution must be even and >= 8")
        if self.k_max is None:
            object.__setattr__(self, "k_max", self.cutoff)
        if not 0 <= self.k_max <= (self.n - 1) // 2:
            raise ValueError(f"band |k|_inf <= {self.k_max} does not fit the {self.n}^3 grid")

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

    @property
    def band_shape(self) -> tuple[int, int, int]:
        b = 2 * self.k_max + 1
        return (self.k_max + 1, b, b)

    @cached_property
    def _band_k(self) -> np.ndarray:
        """Wavenumber of each index along a full band axis, k mod b order."""
        b = 2 * self.k_max + 1
        return np.fft.fftfreq(b, 1.0 / b).astype(np.int64)

    @cached_property
    def band_wavevectors(self) -> np.ndarray:
        """(k_max+1, b, b, 3) integer wavevector of each band entry."""
        k = self._band_k
        return np.stack(np.meshgrid(k[: self.k_max + 1], k, k, indexing="ij"), axis=-1)

    @cached_property
    def band_ik(self) -> np.ndarray:
        """(3, E) symbol 1j k of the flattened band, for gradients and ``divergence``."""
        return 1j * np.ascontiguousarray(self.band_wavevectors.reshape(-1, 3).T)

    def _check_flat(self, band_flat: np.ndarray):
        n_e = self.band_ik.shape[1]
        if band_flat.shape[0] != n_e:
            raise ValueError(f"expected the {n_e} band entries, got {band_flat.shape[0]}")

    def divergence(self, band_flat: np.ndarray) -> np.ndarray:
        """Row divergence sum_a d_a T_ia of a band flattened to (E, 3, 3), as
        a component-major (E, 3)."""
        self._check_flat(band_flat)
        return np.einsum("iae,ae->ie", band_flat.transpose(1, 2, 0), self.band_ik).T

    @cached_property
    def _passes(self):
        """Per-axis DFT matrices of the band transforms, ((x, yz) forward,
        (yz, x) inverse).  The x pass is one real GEMM against an
        (n, 2 (k_max+1)) matrix whose columns interleave cos(k x) and
        -sin(k x), 0 <= k <= k_max, so its product is the complex
        (.., k_max+1) array viewed as float; the y and z passes are complex.
        The inverse x matrix weighs k_1 > 0 by 2, so the synthesis keeps
        irfftn's real part.

        The forward x pass costs 2 (k_max+1) n^3 C multiply-adds and
        already shrinks the data.  On component-major fields the x and y
        passes run one GEMM per component and the z pass one GEMM after a
        transpose of the (k_max+1) b n C partial band."""
        n = self.n
        h = self.k_max + 1
        # The exact phase index k x mod n keeps every angle in [0, 2pi).
        e = np.exp((2j * np.pi / n) * ((np.arange(n)[:, None] * self._band_k) % n))
        cos_sin = np.stack([e[:, :h].real, -e[:, :h].imag], axis=-1).reshape(n, 2 * h)
        weight = np.where(np.arange(2 * h) < 2, 1.0, 2.0)
        return (cos_sin / n**3, e.conj().T.copy()), (e, cos_sin * weight)

    def rfft(self, field: np.ndarray) -> np.ndarray:
        """Band spectrum of a real field (n, n, n, ...), normalized so that
        field(x) = sum_k spec(k) e^{i k.x} for a field on the band.  A
        component-major field is read in place.  A field of any other layout
        goes through its C-order copy (none for a C-order field) in one x
        GEMM, and only the smaller (yz, c, kx) result is reordered, so every
        GEMM operand is BLAS-readable on any NumPy version (planes with no
        unit stride would take NumPy's non-BLAS loop on some).  Both layouts
        give the byte-identical band.

        The x pass's output holds everything the later passes read, so
        ``rfft`` drops its references to ``field`` right after it: a field
        whose only reference is this argument (a temporary such as
        ``grid.rfft(bundle())``) is freed before the y and z passes
        allocate their buffers."""
        n = self.n
        if field.shape[:3] != (n, n, n):
            raise ValueError(f"expected a field on the {n}^3 grid, got shape {field.shape}")
        h, b, _ = self.band_shape
        fx, fyz = self._passes[0]
        planes = field.reshape(n, n * n, -1)  # (x, yz, c)
        if planes.transpose(2, 0, 1).flags.c_contiguous:
            # One real x GEMM per (x, yz) plane, read transposed.
            p = np.matmul(planes.transpose(2, 1, 0), fx)  # (c, yz, kx)
        else:
            p = planes.reshape(n, -1).T @ fx  # (yz, c, kx)
            p = np.ascontiguousarray(p.reshape(n * n, -1, 2 * h).transpose(1, 0, 2))
        tail = field.shape[3:]
        del field, planes
        p = np.matmul(fyz, p.view(complex).reshape(-1, n, n * h))  # (c, ky, z, kx)
        p = fyz @ p.reshape(-1, b, n, h).transpose(2, 0, 1, 3).reshape(n, -1)  # (kz, c, ky, kx)
        p = np.ascontiguousarray(p.reshape(b, -1, b, h).transpose(1, 3, 2, 0))  # (c, kx, ky, kz)
        k = len(tail)
        return p.reshape(*tail, h, b, b).transpose(k, k + 1, k + 2, *range(k))

    def irfft(self, band: np.ndarray) -> np.ndarray:
        """Real field (n, n, n, ...) of a band spectrum, component-major.  As
        in ``irfftn``, only the real part of the k_1 = 0 plane's synthesis is
        kept."""
        n = self.n
        if band.shape[:3] != self.band_shape:
            raise ValueError(f"expected a band spectrum {self.band_shape}, got shape {band.shape}")
        tail = band.shape[3:]
        h, b, _ = self.band_shape
        iyz, ix = self._passes[1]
        p = iyz @ band.reshape(h, b, b, -1).transpose(2, 3, 1, 0).reshape(b, -1)  # (z, c, ky, kx)
        p = p.reshape(n, -1, b, h).transpose(1, 2, 0, 3).reshape(-1, b, n * h)  # (c, ky, z, kx)
        p = np.matmul(iyz, p)  # (c, y, z, kx)
        # (c, x, yz): each real x GEMM reads the (.., kx) parts transposed.
        p = np.matmul(ix, p.view(float).reshape(-1, n * n, 2 * h).transpose(0, 2, 1))
        k = len(tail)
        return p.reshape(*tail, n, n, n).transpose(k, k + 1, k + 2, *range(k))

    def quad(self, scalar_field: np.ndarray) -> float:
        """Grid quadrature of a scalar field over the box."""
        return float(np.sum(scalar_field) * self.cell_volume)


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
    """Round to 11 significant digits so analytically equal eigenvalues tie;
    only the distinct values go through the string formatting."""
    distinct, inverse = np.unique(x, return_inverse=True)
    return np.char.mod("%.10e", distinct).astype(float)[inverse]


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

    Hot-path transforms run on the grid's component-major band spectrum
    (see ``SpectralGrid``), viewed as 6 E floats, through two CSR operators
    built once.  Each mode owns three float slots: its vector's components
    at the entry that stores its wavevector k (modes need k_1 >= 0, as the
    builders' canonical wavevectors have), real parts for a cosine mode and
    imaginary parts for a sine mode.

    * The scatter S (6 E x M) writes the band as S @ (coefs * weight).
      Column i holds vec_i at mode i's slots, negated for a sine mode
      (which adds -1j times its weight), and for k_1 = 0, k != 0 also
      +vec_i at the same slots of the mirror entry -k, which holds the
      conjugate.
    * The gather G (M x 6 E) holds vec_i at mode i's slots; G @ band, times
      one scale per mode, gives the coefficients."""

    def __init__(self, grid: SpectralGrid, modes: np.ndarray):
        self.grid = grid
        self.modes = modes
        self.size = len(modes)
        self.kvecs = kv = np.ascontiguousarray(modes["k"])
        self.vecs = np.ascontiguousarray(modes["vec"])
        self.eigs = np.ascontiguousarray(modes["eig"])
        self.parity = np.ascontiguousarray(modes["parity"])
        if self.k_max > grid.k_max:
            raise ValueError(
                f"modes up to |k|_inf = {self.k_max} lie outside the grid's band {grid.k_max}"
            )
        if (kv[:, 0] < 0).any():
            k = kv[np.argmax(kv[:, 0] < 0)]
            raise ValueError(f"mode wavevector k={tuple(k.tolist())} has k_1 < 0, off the band")
        self.is_const = (kv == 0).all(axis=1)
        shape = grid.band_shape
        n_e = int(np.prod(shape))
        # k_1 lies in [0, k_max], so k mod b indexes all three axes.
        rep = np.ravel_multi_index((kv % shape[1]).T, shape)
        plane = (kv[:, 0] == 0) & ~self.is_const
        mirror = np.ravel_multi_index((-kv[plane] % shape[1]).T, shape)
        sin = (self.parity != COS).astype(np.int64)
        v = grid.volume
        # L^2-normalization sqrt(2/V), shared by the entries +-k, or 1/sqrt(V)
        # for constants (directors only).  A gathered cos mode is root times
        # the real part of its contraction with the band (sqrt(V) for a
        # constant), a sin mode -root times the imaginary part.
        self._weight = np.where(self.is_const, 1.0 / np.sqrt(v), 0.5 * np.sqrt(2.0 / v))
        root = np.sqrt(2.0 * v)
        self._gather_scale = np.where(self.is_const, np.sqrt(v), np.where(sin, -root, root))
        # Float slot 2 (c E + e) + part holds component c of entry e, its real
        # (part 0) or imaginary (part 1) part; a mode's slots are at its
        # entry, in the part of its parity.
        key = 2 * rep + sin
        slots = (key[:, None] + 2 * n_e * np.arange(3)).astype(np.int32).ravel()
        indptr = np.arange(0, 3 * self.size + 1, 3, dtype=np.int32)
        self._gather = sparse.csr_array((self.vecs.ravel(), slots, indptr), shape=(self.size, 6 * n_e))
        # Each scatter row sums its modes in order, representatives before
        # mirrors, as adding them entry by entry does; one stable sort by
        # slot serves all three components.
        keys = np.concatenate([key, 2 * mirror + sin[plane]])
        order = np.argsort(keys, kind="stable")
        cols = np.concatenate([np.arange(self.size), np.flatnonzero(plane)])[order].astype(np.int32)
        vals = np.concatenate([self.vecs * np.where(sin, -1.0, 1.0)[:, None], self.vecs[plane]])[order]
        indptr = np.zeros(6 * n_e + 1, np.int32)
        np.cumsum(np.tile(np.bincount(keys, minlength=2 * n_e), 3), out=indptr[1:], dtype=np.int32)
        self._scatter = sparse.csr_array((vals.T.ravel(), np.tile(cols, 3), indptr), shape=(6 * n_e, self.size))

    @property
    def k_max(self) -> int:
        """Largest |k|_inf over the retained modes."""
        return int(np.abs(self.kvecs).max(initial=0))

    def on_grid(self, grid: SpectralGrid) -> "_TrigBasis":
        """The same modes over another grid, without a new eigen-build.  The
        scatter and gather depend on the band only, so a grid with the same
        band shares them and any other band rebuilds them."""
        moved = copy.copy(self)
        if grid.k_max == self.grid.k_max:
            moved.grid = grid
        else:
            _TrigBasis.__init__(moved, grid, self.modes)
        return moved

    def _check_coefs(self, coefs: np.ndarray):
        if coefs.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {coefs.shape}")

    def synthesize_spec_half(self, coefs: np.ndarray, gradient: bool = False) -> np.ndarray:
        """Band spectrum (k_max+1, b, b, C) of the coefficient state: its 3
        components, then with ``gradient`` the 9 of its gradient (component
        3 + 3 i + a holds d_a f_i).  The director equation pairs with each
        mode's value and gradient only, so no higher derivative is ever
        formed."""
        self._check_coefs(coefs)
        s = (self._scatter @ (coefs * self._weight)).view(complex).reshape(3, -1)
        if gradient:
            spec = np.empty((12, s.shape[1]), complex)
            spec[:3] = s
            np.multiply(s[:, None], self.grid.band_ik, out=spec[3:].reshape(3, 3, -1))
            s = spec
        return s.reshape(-1, *self.grid.band_shape).transpose(1, 2, 3, 0)

    def synthesize(self, coefs: np.ndarray) -> np.ndarray:
        return self.grid.irfft(self.synthesize_spec_half(coefs))

    def synthesize_with_derivatives(self, coefs: np.ndarray):
        """Grid value and gradient of a state, (value, grad) with
        grad[..., i, a] = d_a f_i, from one fused inverse transform."""
        n = self.grid.n
        out = self.grid.irfft(self.synthesize_spec_half(coefs, gradient=True))
        return out[..., :3], out[..., 3:].reshape(n, n, n, 3, 3)

    def analyze_spec_half(self, band_flat: np.ndarray) -> np.ndarray:
        """Coefficients from an already-transformed band, flattened to (E, 3): the
        one gather, which a stress reaches through ``SpectralGrid.divergence``."""
        self.grid._check_flat(band_flat)
        parts = np.ascontiguousarray(band_flat.T, dtype=complex).view(float).reshape(-1)
        return self._gather_scale * (self._gather @ parts)

    def project_stress_spec_half(self, band_flat: np.ndarray) -> np.ndarray:
        """Pairings (T : grad w_i) = -(div T, w_i) from a transformed band,
        flattened to (E, 3, 3); constant modes get zero."""
        return self.analyze_spec_half(-self.grid.divergence(band_flat))

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
