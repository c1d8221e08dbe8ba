"""Free-energy potentials F(h, S) for the director equation.

``h`` stands for the pointwise director value and ``S`` for its gradient
matrix.  Every model exposes

    evaluate(h, S)        -> F
    dF_dh(h, S)           -> (..., 3)
    remainder_gradients(h, S) -> (dF_dh, R), R = 0 unless overridden
    dF_dS(h, S)           -> (..., 3, 3), defined once as d2F_dS2_const() : S + R
    d2F_dS2_const()       -> constant (3,3,3,3) part of the S-Hessian
    d2F_dS2_vary(h, S)    -> state-dependent remainder of the S-Hessian
    d2F_dSdh(h, S)        -> mixed second derivative, T_ijk = d2F / dS_ij dh_k
    growth_exponents()    -> declared polynomial growth data
    coercivity_constants()-> (eta1, eta2, eta3) with F >= eta1|S|^2 - eta2|h|^2 - eta3
    ellipticity_constant()-> declared rank-one lower bound of the constant Hessian part
    degree                -> total polynomial degree in (h, S), None if not polynomial

All methods broadcast over leading axes so grid fields evaluate in one call.

Built-in models
---------------
GinzburgLandau(eps)
    F = |S|^2 / 2 + (|h|^2 - 1)^2 / (4 eps^2); ``eps=None`` drops the
    quartic well and leaves the plain gradient (Dirichlet) energy.
WithField(base, field, chi_perp, chi_par)
    base - chi_perp |H|^2 - (chi_par - chi_perp) (h.H)^2 for a bounded,
    constant or grid-sampled field H.
WithFreedom(base, b, b_bar)
    base - h.(S b) + (b_bar/2) |h|^2; the extra terms are a null Lagrangian
    for the flow coupling, so only the director dynamics change.
SimplifiedOseenFrank(k1, k2, alpha, eps)
    Quadratic form S:L:S / 2 with
    L = 2 k2 I4 + 2 (k1 - alpha) TrOuter - 2 (k2 - alpha) Transp,
    i.e. k1 (div d)^2 + k2 |curl d|^2 plus the alpha null-Lagrangian term,
    optionally with the quartic well.
ScaledOseenFrank(k1, k2, k3, k4, s, eps)
    k1/2 (div d)^2 + k2/2 |curl d|^2 plus the anisotropic terms
    (1+|S|^2)^(-s) (1+|h|^2)^(-1) (k3/2 (h.curl)^2 + k4/2 |h x curl|^2),
    optionally with the quartic well.  The S-Hessian splits into a constant
    part and a bounded state-dependent remainder; the remainder must stay
    below the ratio supplied to ``check_theta_bound`` for the dissipation
    estimates to close.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .tensors import (
    Mat3,
    Tensor3,
    Tensor4,
    Vec3,
    contract32,
    contract42,
    contract43,
    curl_from_gradient,
    curl_quadratic_4,
    frob,
    identity_4,
    trace_outer_4,
    transpose_4,
)

GAMMA1_MAX = 10.0 / 3.0
GAMMA2_MAX = 10.0

# Levi-Civita symbol, used by the curl chain rules.
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


@dataclass(frozen=True)
class GrowthExponents:
    """Declared growth data: |d2F_dSdh| <= c_mixed (|S|^(g1/2-1) + |h|^g3 + 1)
    and |dF_dh| <= c_h (|S|^(g1/2) + |h|^(g2/2) + 1), g3 = (g1-2) g2 / (2 g1)."""

    gamma1: float
    gamma2: float
    c_mixed: float
    c_h: float

    def __post_init__(self):
        if not 2.0 <= self.gamma1 < GAMMA1_MAX:
            raise ValueError(f"gamma1 = {self.gamma1} outside [2, 10/3)")
        if not 6.0 <= self.gamma2 < GAMMA2_MAX:
            raise ValueError(f"gamma2 = {self.gamma2} outside [6, 10)")
        if self.c_mixed <= 0 or self.c_h <= 0:
            raise ValueError("growth constants must be positive")

    @property
    def gamma3(self) -> float:
        return (self.gamma1 - 2.0) * self.gamma2 / (2.0 * self.gamma1)


class FreeEnergyModel(ABC):
    """Behavioral contract shared by all free-energy potentials."""

    # Models with identically-zero terms advertise it so the checkers, the
    # strong-form variational derivative and energy_gradient skip work.
    has_theta: bool = False
    has_mixed: bool = False
    # Total polynomial degree of F in (h, S), or None when F is not a
    # polynomial; the solver sizes its quadrature grid from it.
    degree: int | None = None

    @abstractmethod
    def evaluate(self, h: Vec3, s: Mat3) -> np.ndarray: ...

    @abstractmethod
    def dF_dh(self, h: Vec3, s: Mat3) -> Vec3: ...

    @abstractmethod
    def d2F_dS2_const(self) -> Tensor4: ...

    def d2F_dS2_vary(self, h: Vec3, s: Mat3) -> Tensor4:
        return np.zeros(np.broadcast_shapes(h.shape[:-1], s.shape[:-2]) + (3, 3, 3, 3))

    def d2F_dSdh(self, h: Vec3, s: Mat3) -> Tensor3:
        return np.zeros(np.broadcast_shapes(h.shape[:-1], s.shape[:-2]) + (3, 3, 3))

    @abstractmethod
    def growth_exponents(self) -> GrowthExponents: ...

    @abstractmethod
    def coercivity_constants(self) -> tuple[float, float, float]: ...

    @abstractmethod
    def ellipticity_constant(self) -> float: ...

    def remainder_gradients(self, h: Vec3, s: Mat3) -> tuple[Vec3, Mat3]:
        """(dF_dh, R) with R = dF_dS - Lam : S, Lam = d2F_dS2_const().

        R is the part of dF_dS that the solver pairs on the grid; the
        principal part Lam : S it applies through the eigenbasis.  This
        default is for energies whose dF_dS is exactly Lam : S, so R = 0.
        """
        return self.dF_dh(h, s), np.zeros(np.broadcast_shapes(h.shape[:-1], s.shape[:-2]) + (3, 3))

    def dF_dS(self, h: Vec3, s: Mat3) -> Mat3:
        return contract42(self.d2F_dS2_const(), s) + self.remainder_gradients(h, s)[1]


def _norm2(a, axes):
    return np.sum(a * a, axis=axes)


def _well(w, m):
    """The quartic unit-length well w (m - 1)^2 at m = |h|^2."""
    return w * (m - 1.0) ** 2


def _well_slope(w, m):
    """4 w (m - 1): the well's h-gradient is this times h."""
    return 4.0 * w * (m - 1.0)


class GinzburgLandau(FreeEnergyModel):
    """Gradient energy with quartic unit-length well, F = |S|^2/2 + w (|h|^2-1)^2."""

    degree = 4

    def __init__(self, eps: float | None = 1.0):
        if eps is not None and eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps if eps is None else float(eps)
        self.penalty_weight = 1.0 / (4.0 * eps * eps) if eps is not None else 0.0

    def evaluate(self, h, s):
        return 0.5 * _norm2(s, (-2, -1)) + _well(self.penalty_weight, _norm2(h, -1))

    def dF_dh(self, h, s):
        return _well_slope(self.penalty_weight, _norm2(h, -1))[..., None] * h

    def d2F_dS2_const(self):
        return identity_4()

    def growth_exponents(self):
        return GrowthExponents(2.0, 6.0, c_mixed=1.0, c_h=max(8.0 * self.penalty_weight, 1.0))

    def coercivity_constants(self):
        if self.penalty_weight > 0:
            return (0.5, 0.5, 0.25)
        return (0.5, 0.0, 0.0)

    def ellipticity_constant(self):
        return 1.0


class WithField(FreeEnergyModel):
    """Base energy plus the coupling to a bounded external field H."""

    def __init__(self, base: FreeEnergyModel, field, chi_perp: float, chi_par: float):
        self.base = base
        self.field = np.asarray(field, dtype=float)
        if self.field.shape[-1:] != (3,):
            raise ValueError("field must have a trailing component axis of length 3")
        self.chi_perp = float(chi_perp)
        self.chi_par = float(chi_par)
        self.field_bound = float(np.max(np.linalg.norm(self.field.reshape(-1, 3), axis=-1)))
        self.has_theta = base.has_theta
        self.has_mixed = base.has_mixed
        # A grid-sampled H is not a polynomial in (h, S).
        self.degree = base.degree if self.field.ndim == 1 else None

    def evaluate(self, h, s):
        hdot = np.einsum("...i,...i->...", h, self.field)
        return (
            self.base.evaluate(h, s)
            - self.chi_perp * _norm2(self.field, -1)
            - (self.chi_par - self.chi_perp) * hdot**2
        )

    def _field_force(self, h):
        hdot = np.einsum("...i,...i->...", h, self.field)
        return 2.0 * (self.chi_par - self.chi_perp) * hdot[..., None] * self.field

    def dF_dh(self, h, s):
        return self.base.dF_dh(h, s) - self._field_force(h)

    def remainder_gradients(self, h, s):
        dh, rem = self.base.remainder_gradients(h, s)
        return dh - self._field_force(h), rem

    def d2F_dS2_const(self):
        return self.base.d2F_dS2_const()

    def d2F_dS2_vary(self, h, s):
        return self.base.d2F_dS2_vary(h, s)

    def d2F_dSdh(self, h, s):
        return self.base.d2F_dSdh(h, s)

    def growth_exponents(self):
        ge = self.base.growth_exponents()
        extra = 2.0 * abs(self.chi_par - self.chi_perp) * self.field_bound**2
        return GrowthExponents(ge.gamma1, ge.gamma2, ge.c_mixed, ge.c_h + extra)

    def coercivity_constants(self):
        e1, e2, e3 = self.base.coercivity_constants()
        cb2 = self.field_bound**2
        return (e1, e2 + abs(self.chi_par - self.chi_perp) * cb2, e3 + abs(self.chi_perp) * cb2)

    def ellipticity_constant(self):
        return self.base.ellipticity_constant()


class WithFreedom(FreeEnergyModel):
    """Base energy plus the two extra degrees of freedom (b, b_bar)."""

    def __init__(self, base: FreeEnergyModel, b, b_bar: float):
        self.base = base
        self.b = np.asarray(b, dtype=float).reshape(3)
        self.b_bar = float(b_bar)
        self.has_theta = base.has_theta
        self.has_mixed = base.has_mixed or bool(np.any(self.b != 0.0))
        # The added terms are quadratic, no higher than any base.
        self.degree = base.degree

    def evaluate(self, h, s):
        sb = np.einsum("...ij,j->...i", s, self.b)
        return (
            self.base.evaluate(h, s)
            - np.einsum("...i,...i->...", h, sb)
            + 0.5 * self.b_bar * _norm2(h, -1)
        )

    def _shift_dh(self, dh, h, s):
        return dh - np.einsum("...ij,j->...i", s, self.b) + self.b_bar * h

    def dF_dh(self, h, s):
        return self._shift_dh(self.base.dF_dh(h, s), h, s)

    def remainder_gradients(self, h, s):
        dh, rem = self.base.remainder_gradients(h, s)
        return self._shift_dh(dh, h, s), rem - np.einsum("...i,j->...ij", h, self.b)

    def d2F_dS2_const(self):
        return self.base.d2F_dS2_const()

    def d2F_dS2_vary(self, h, s):
        return self.base.d2F_dS2_vary(h, s)

    def d2F_dSdh(self, h, s):
        t = self.base.d2F_dSdh(h, s)
        return t - np.einsum("ik,j->ijk", np.eye(3), self.b)

    def growth_exponents(self):
        ge = self.base.growth_exponents()
        bn = float(np.linalg.norm(self.b))
        return GrowthExponents(
            ge.gamma1,
            ge.gamma2,
            ge.c_mixed + 2.0 * bn,
            ge.c_h + bn + abs(self.b_bar),
        )

    def coercivity_constants(self):
        e1, e2, e3 = self.base.coercivity_constants()
        bn = float(np.linalg.norm(self.b))
        return (0.5 * e1, e2 + bn * bn / (2.0 * e1) + 0.5 * abs(self.b_bar), e3)

    def ellipticity_constant(self):
        return self.base.ellipticity_constant()


def _quadratic_eta1(a: float, b: float, c: float) -> float:
    """Sharp constant with S:(a I4 + b TrOuter + c Transp):S >= 2 eta1 |S|^2.

    Decompose S into skew, deviatoric-symmetric, and trace parts; the form is
    diagonal in that splitting with weights (a-c), (a+c), (a+3b+c).
    """
    return 0.5 * min(a + c, a - c, a + 3.0 * b + c)


class SimplifiedOseenFrank(FreeEnergyModel):
    """Splay/twist-bend quadratic energy with the null-Lagrangian alpha term."""

    degree = 4

    def __init__(self, k1: float, k2: float, alpha: float, eps: float | None = None):
        if k1 <= 0 or k2 <= 0:
            raise ValueError("k1 and k2 must be positive")
        if eps is not None and eps <= 0:
            raise ValueError("eps must be positive")
        self.k1, self.k2, self.alpha = float(k1), float(k2), float(alpha)
        self.penalty_weight = 1.0 / (4.0 * eps * eps) if eps is not None else 0.0
        self._lam = (
            2.0 * k2 * identity_4()
            + 2.0 * (k1 - alpha) * trace_outer_4()
            - 2.0 * (k2 - alpha) * transpose_4()
        )

    def evaluate(self, h, s):
        quad = 0.5 * frob(s, contract42(self._lam, s))
        return quad + _well(self.penalty_weight, _norm2(h, -1))

    def dF_dh(self, h, s):
        return _well_slope(self.penalty_weight, _norm2(h, -1))[..., None] * h

    def d2F_dS2_const(self):
        return self._lam.copy()

    def growth_exponents(self):
        return GrowthExponents(2.0, 6.0, c_mixed=1.0, c_h=max(8.0 * self.penalty_weight, 1.0))

    def coercivity_constants(self):
        # The quartic well is nonnegative, so only the quadratic form matters.
        a = 2.0 * self.k2
        b = 2.0 * (self.k1 - self.alpha)
        c = -2.0 * (self.k2 - self.alpha)
        return (_quadratic_eta1(a, b, c), 0.0, 0.0)

    def ellipticity_constant(self):
        return 2.0 * min(self.k1, self.k2)


class ScaledOseenFrank(FreeEnergyModel):
    """Anisotropic energy whose non-quadratic part is damped by (1+|S|^2)^(-s).

    The stored density adds the null-Lagrangian term
    ``a0 (tr(S^2) - (tr S)^2)`` with ``a0 = min(k1, k2)/2``; it changes
    neither the variational derivative, the flow coupling, nor the box
    integral, but makes the density pointwise coercive in |S|^2.
    """

    has_theta = True
    has_mixed = True

    def __init__(self, k1, k2, k3, k4, s: float, eps: float | None = None):
        if k1 <= 0 or k2 <= 0:
            raise ValueError("k1 and k2 must be positive")
        if k3 < 0 or k4 < 0:
            raise ValueError("k3 and k4 must be nonnegative")
        if eps is not None and eps <= 0:
            raise ValueError("eps must be positive")
        self.k1, self.k2, self.k3, self.k4 = map(float, (k1, k2, k3, k4))
        self.s = float(s)
        self.penalty_weight = 1.0 / (4.0 * eps * eps) if eps is not None else 0.0
        self._a0 = 0.5 * min(self.k1, self.k2)
        self._lam = (
            self.k1 * trace_outer_4()
            + self.k2 * curl_quadratic_4()
            + 2.0 * self._a0 * (transpose_4() - trace_outer_4())
        )

    # -- scalar building blocks of the damped anisotropic part ---------------
    def _parts(self, h, s):
        """c = curl S, m = |h|^2, u = h.c, base = 1 + |S|^2, phi = base^(-s),
        psi = 1/(1+m), k4 |c|^2 and g = ((k3-k4) u^2 + k4 m |c|^2) / 2."""
        c = curl_from_gradient(s)
        m = np.einsum("...i,...i->...", h, h)
        u = np.einsum("...i,...i->...", h, c)
        base = 1.0 + np.einsum("...ij,...ij->...", s, s)
        phi = base ** (-self.s)
        psi = 1.0 / (1.0 + m)
        k4_wc = self.k4 * np.einsum("...i,...i->...", c, c)
        g = 0.5 * ((self.k3 - self.k4) * u**2 + m * k4_wc)
        return c, m, u, base, phi, psi, k4_wc, g

    def evaluate(self, h, s):
        _, m, _, _, phi, psi, _, g = self._parts(h, s)
        quad = 0.5 * frob(s, contract42(self._lam, s))
        return quad + phi * psi * g + _well(self.penalty_weight, m)

    def remainder_gradients(self, h, s):
        """(dF_dh, R) in one pass over shared parts, never forming Lam : S.

        With c = curl S, u = h.c, base = 1 + |S|^2, p = phi psi, w the well
        weight, and dphi/dS = -2 s phi S / base,

            dF_dh = p (k3-k4) u c + (p (k4 |c|^2 - 2 psi g) + 4 w (|h|^2-1)) h,
            R     = -2 s p g S / base + [a],  a = p ((k3-k4) u h + k4 |h|^2 c),

        where [a] is the skew matrix with [a] : T = a . curl T; the
        S-derivatives of (h.c)^2 and |c|^2 both fold into it.
        """
        c, m, u, base, phi, psi, k4_wc, g = self._parts(h, s)
        p = phi * psi
        pu = ((self.k3 - self.k4) * p * u)[..., None]
        pm = (self.k4 * p * m)[..., None]
        dh = pu * c + (p * (k4_wc - 2.0 * psi * g) + _well_slope(self.penalty_weight, m))[..., None] * h
        a = pu * h + pm * c
        rem = (-2.0 * self.s * p * g / base)[..., None, None] * s
        # [a] is the adjoint of curl_from_gradient: curl_i = S_kj - S_jk over
        # the cyclic (i, j, k).
        rem[..., 2, 1] += a[..., 0]
        rem[..., 1, 2] -= a[..., 0]
        rem[..., 0, 2] += a[..., 1]
        rem[..., 2, 0] -= a[..., 1]
        rem[..., 1, 0] += a[..., 2]
        rem[..., 0, 1] -= a[..., 2]
        return dh, rem

    def dF_dh(self, h, s):
        return self.remainder_gradients(h, s)[0]

    def d2F_dS2_const(self):
        return self._lam.copy()

    def _hessian_parts(self, h, s):
        """_parts plus phi/base, [h] and [c] (the skew matrices U, W of h and
        c), dphi/dS and dg/dS = (k3-k4) u U + k4 |h|^2 W."""
        parts = c, m, u, base, phi, _, _, _ = self._parts(h, s)
        phi1 = phi / base
        umat = np.einsum("ilk,...i->...kl", _EPS3, h)
        wmat = np.einsum("ilk,...i->...kl", _EPS3, c)
        phi_s = -2.0 * self.s * phi1[..., None, None] * s
        g_s = (self.k3 - self.k4) * u[..., None, None] * umat + self.k4 * m[..., None, None] * wmat
        return parts, phi1, umat, wmat, phi_s, g_s

    def d2F_dS2_vary(self, h, s):
        (_, m, _, base, phi, psi, _, g), phi1, umat, _, phi_s, g_s = self._hessian_parts(h, s)
        phi_ss = (
            -2.0 * self.s * phi1[..., None, None, None, None] * identity_4()
            + 4.0 * self.s * (self.s + 1.0) * (phi1 / base)[..., None, None, None, None]
            * np.einsum("...ij,...kl->...ijkl", s, s)
        )
        g_ss = (self.k3 - self.k4) * np.einsum("...ij,...kl->...ijkl", umat, umat) + self.k4 * (
            m[..., None, None, None, None] * curl_quadratic_4()
        )
        sym_cross = np.einsum("...ij,...kl->...ijkl", phi_s, g_s)
        sym_cross = sym_cross + np.einsum("...ijkl->...klij", sym_cross)
        return psi[..., None, None, None, None] * (
            phi_ss * g[..., None, None, None, None]
            + sym_cross
            + phi[..., None, None, None, None] * g_ss
        )

    def d2F_dSdh(self, h, s):
        (c, _, u, _, phi, psi, k4_wc, g), _, umat, wmat, phi_s, g_s = self._hessian_parts(h, s)
        psi_h = -2.0 * (psi**2)[..., None] * h
        g_h = (self.k3 - self.k4) * u[..., None] * c + k4_wc[..., None] * h
        # dg_S / dh_k = (k3-k4) (c_k U_ij + u eps_kji) + 2 k4 h_k W_ij
        dgs_dh = (
            (self.k3 - self.k4)
            * (
                np.einsum("...k,...ij->...ijk", c, umat)
                + u[..., None, None, None] * np.einsum("kji->ijk", _EPS3)
            )
            + 2.0 * self.k4 * np.einsum("...k,...ij->...ijk", h, wmat)
        )
        bracket = psi_h * g[..., None] + psi[..., None] * g_h
        return (
            np.einsum("...ij,...k->...ijk", phi_s, bracket)
            + np.einsum("...k,...ij->...ijk", psi_h, phi[..., None, None] * g_s)
            + (phi * psi)[..., None, None, None] * dgs_dh
        )

    def growth_exponents(self):
        # dF_dh of the damped part grows like |S|^(2-2s); gamma1 = 4 - 4s is
        # admissible exactly when s > 1/6.  Smaller s gets the largest legal
        # exponent so the growth checker can exhibit the violation.
        g1 = min(max(2.0, 4.0 - 4.0 * self.s), GAMMA1_MAX - 1e-9)
        k34 = abs(self.k3 - self.k4) + self.k4
        c_h = 4.0 * k34 + 8.0 * self.penalty_weight + 2.0
        c_mixed = (8.0 * self.s + 16.0) * k34 + 1.0
        return GrowthExponents(g1, 6.0, c_mixed=c_mixed, c_h=c_h)

    def coercivity_constants(self):
        # Damped part and quartic well are nonnegative.
        return (0.5 * min(self.k1, self.k2), 0.0, 0.0)

    def ellipticity_constant(self):
        return min(self.k1, self.k2)


# ---------------------------------------------------------------------------
# Field-level operations


def energy_gradient(model: FreeEnergyModel, basis, coefs):
    """Director value, gradient and projected variational derivative of a state.

    Returns ``(d, grad_d, q_hat)`` with

        q_hat_i = (dF_dh(d, S), z_i) + (dF_dS(d, S), grad z_i),   S = grad d,

    both pairings taken by grid quadrature over the retained modes z_i of
    ``basis``.  This is the exact coefficient gradient of the quadrature
    energy quad(F(d, grad d)), for every model.

    The principal part is split off: dF_dS = Lam : S + R with Lam =
    d2F_dS2_const().  The z_i are eigenfunctions of -div(Lam : grad .), so
    (Lam : S, grad z_i) = sigma_i d_i, a degree-2 pairing that the grid
    integrates exactly.  Only R, from ``model.remainder_gradients``, goes
    through the grid, and only for models with Theta or mixed terms:
    otherwise d2F_dS2 = Lam and d2F_dSdh = 0, so R is constant and pairs to
    zero with every grad z_i.
    """
    if not np.array_equal(basis.lam4, model.d2F_dS2_const()):
        raise ValueError("director basis was not built from the model's d2F_dS2_const()")
    grid = basis.grid
    n = grid.n
    d, grad_d = basis.synthesize_with_derivatives(coefs)
    q_hat = basis.eigs * coefs
    if not (model.has_theta or model.has_mixed):
        q_hat += basis.analyze_spec_half(grid.rfft(model.dF_dh(d, grad_d)).reshape(-1, 3))
        return d, grad_d, q_hat
    dh, rem = model.remainder_gradients(d, grad_d)
    spec = grid.rfft(np.concatenate([dh, rem.reshape(n, n, n, 9)], axis=-1)).reshape(-1, 12)
    q_hat += basis.analyze_spec_half(spec[:, 0:3])
    q_hat += basis.project_stress_spec_half(spec[:, 3:12].reshape(-1, 3, 3))
    return d, grad_d, q_hat


def variational_derivative(model: FreeEnergyModel, d, grad_d, hess_d):
    """Pointwise (strong-form) variational derivative of the energy functional.

    q = dF_dh(d, S) - (Lam + Theta(d, S)) applied to the second gradient
        - d2F_dSdh(d, S) : S^T,   with S = grad d.

    ``hess_d[..., i, a, b]`` holds the second partials of component i.  The
    solver pairs dF_dS with grad z_i in weak form (``energy_gradient``) and
    never forms a second derivative, so this is a test oracle.  It stays in
    the package only because the benchmark's tracer wraps it by name.
    """
    if grad_d.shape != d.shape + (3,) or hess_d.shape != d.shape + (3, 3):
        raise ValueError("grid shape mismatch between d, grad_d, hess_d")
    t = np.swapaxes(hess_d, -3, -2)  # T_jkl = d_j d_l of component k
    q = model.dF_dh(d, grad_d) - contract43(model.d2F_dS2_const(), t)
    if model.has_theta:
        q = q - contract43(model.d2F_dS2_vary(d, grad_d), t)
    if model.has_mixed:
        q = q - contract32(model.d2F_dSdh(d, grad_d), np.swapaxes(grad_d, -1, -2))
    return q


def total_energy(model: FreeEnergyModel, d, grad_d, cell_volume: float) -> float:
    """Quadrature of F(d, grad d) over the periodic box."""
    return float(np.sum(model.evaluate(d, grad_d)) * cell_volume)


# ---------------------------------------------------------------------------
# Structural-condition checkers


@dataclass
class ConditionReport:
    name: str
    passed: bool
    worst_value: float
    bound: float
    worst_point: dict
    n_samples: int
    note: str = ""

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {verdict}  worst={self.worst_value:.6g} "
            f"bound={self.bound:.6g}  ({self.n_samples} samples){' - ' + self.note if self.note else ''}"
        )


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)


def _matrix_directions() -> np.ndarray:
    dirs = []
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            dirs.append(e)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e = np.zeros((3, 3))
        e[i, j], e[j, i] = 1.0, -1.0
        dirs.append(e / np.sqrt(2.0))
        e2 = np.zeros((3, 3))
        e2[i, j], e2[j, i] = 1.0, 1.0
        dirs.append(e2 / np.sqrt(2.0))
    dirs.append(np.eye(3) / np.sqrt(3.0))
    dirs.append(np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0))
    dirs.append(np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0))
    return np.array(dirs)


def _halton_points(n: int, dim: int) -> np.ndarray:
    return qmc.Halton(d=dim, scramble=False, seed=0).random(n)


def _sample_h_s(n_samples: int, radius: float, log_radial: bool = False):
    """Deterministic (h, S) samples with |h|, |S| <= radius."""
    u = _halton_points(max(n_samples, 16), 14)
    hdir = u[:, 0:3] * 2.0 - 1.0
    hdir /= np.maximum(np.linalg.norm(hdir, axis=-1, keepdims=True), 1e-12)
    sdir = (u[:, 3:12] * 2.0 - 1.0).reshape(-1, 3, 3)
    sdir /= np.maximum(np.linalg.norm(sdir, axis=(-2, -1)).reshape(-1, 1, 1), 1e-12)
    if log_radial:
        lo = 1e-2
        rh = lo * (radius / lo) ** u[:, 12]
        rs = lo * (radius / lo) ** u[:, 13]
    else:
        rh = radius * u[:, 12]
        rs = radius * u[:, 13]
    h = hdir * rh[:, None]
    s = sdir * rs[:, None, None]

    # Coordinate-axis and curl-rich scans at a ladder of magnitudes.
    if log_radial:
        radii = np.geomspace(1e-2, radius, 8)
    else:
        radii = np.linspace(0.0, radius, 5)
    axes_h = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])
    mdirs = _matrix_directions()
    extra_h, extra_s = [], []
    for r in radii:
        for ah in axes_h:
            for ms in mdirs:
                extra_h.append(r * ah if np.linalg.norm(ah) else ah)
                extra_s.append(r * ms)
    h = np.concatenate([h, np.array(extra_h)])
    s = np.concatenate([s, np.array(extra_s)])
    return h, s


def check_legendre_hadamard(model: FreeEnergyModel, n_samples: int = 2000) -> ConditionReport:
    """Sampled rank-one lower bound of the constant Hessian part."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lam = model.d2F_dS2_const()
    n = max(n_samples, 16)
    a = _fibonacci_sphere(n)
    b = np.roll(_fibonacci_sphere(n), n // 3, axis=0)
    eye = np.eye(3)
    pairs_a = [a, a]  # parallel pairs probe the (a.b)^2 = 1 extreme
    pairs_b = [b, a]
    for i in range(3):
        for j in range(3):
            pairs_a.append(eye[i][None, :])
            pairs_b.append(eye[j][None, :])
    aa = np.concatenate(pairs_a)
    bb = np.concatenate(pairs_b)
    form = np.einsum("mi,mj,ijkl,mk,ml->m", aa, bb, lam, aa, bb)
    idx = int(np.argmin(form))
    eta = model.ellipticity_constant()
    passed = eta > 0.0 and form[idx] >= eta * (1.0 - 1e-12) - 1e-14
    return ConditionReport(
        name="legendre_hadamard",
        passed=bool(passed),
        worst_value=float(form[idx]),
        bound=eta,
        worst_point={"a": aa[idx], "b": bb[idx]},
        n_samples=len(form),
    )


def check_coercivity(model: FreeEnergyModel, n_samples: int = 4000, radius: float = 3.0) -> ConditionReport:
    """Sampled margins of F(h,S) >= eta1 |S|^2 - eta2 |h|^2 - eta3."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    e1, e2, e3 = model.coercivity_constants()
    h, s = _sample_h_s(n_samples, radius)
    f = model.evaluate(h, s)
    margin = f - e1 * _norm2(s, (-2, -1)) + e2 * _norm2(h, -1) + e3
    idx = int(np.argmin(margin))
    tol = 1e-10 * max(1.0, radius * radius)
    return ConditionReport(
        name="coercivity",
        passed=bool(margin[idx] >= -tol),
        worst_value=float(margin[idx]),
        bound=0.0,
        worst_point={"h": h[idx], "S": s[idx]},
        n_samples=len(margin),
        note=f"eta=({e1:.3g},{e2:.3g},{e3:.3g})",
    )


def check_growth(model: FreeEnergyModel, n_samples: int = 4000, radius: float = 10.0) -> ConditionReport:
    """Sampled ratios against the declared polynomial growth bounds."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    ge = model.growth_exponents()
    h, s = _sample_h_s(n_samples, radius, log_radial=True)
    sn = np.sqrt(_norm2(s, (-2, -1)))
    hn = np.sqrt(_norm2(h, -1))
    bound_h = ge.c_h * (sn ** (ge.gamma1 / 2.0) + hn ** (ge.gamma2 / 2.0) + 1.0)
    ratio_h = np.sqrt(_norm2(model.dF_dh(h, s), -1)) / bound_h
    if model.has_mixed:
        mixed = model.d2F_dSdh(h, s)
        bound_m = ge.c_mixed * (sn ** (ge.gamma1 / 2.0 - 1.0) + hn**ge.gamma3 + 1.0)
        ratio_m = np.sqrt(np.sum(mixed * mixed, axis=(-3, -2, -1))) / bound_m
    else:
        ratio_m = np.zeros_like(ratio_h)
    ratios = np.maximum(ratio_h, ratio_m)
    idx = int(np.argmax(ratios))
    return ConditionReport(
        name="growth",
        passed=bool(ratios[idx] <= 1.0 + 1e-12),
        worst_value=float(ratios[idx]),
        bound=1.0,
        worst_point={"h": h[idx], "S": s[idx]},
        n_samples=len(ratios),
        note=f"gamma=({ge.gamma1:.4g},{ge.gamma2:.4g},{ge.gamma3:.4g})",
    )


def check_theta_bound(
    model: FreeEnergyModel,
    c_lambda: float,
    c_h2: float,
    n_samples: int = 2000,
    radius: float = 5.0,
) -> ConditionReport:
    """Sampled sup of the state-dependent Hessian part against c_lam/(16 c_h2)."""
    if c_lambda <= 0 or c_h2 <= 0:
        raise ValueError("c_lambda and c_h2 must be positive")
    bound = c_lambda / (16.0 * c_h2)
    if not model.has_theta:
        return ConditionReport(
            name="theta_bound",
            passed=True,
            worst_value=0.0,
            bound=bound,
            worst_point={},
            n_samples=0,
            note="state-dependent Hessian part vanishes identically",
        )
    h, s = _sample_h_s(n_samples, radius)
    th = model.d2F_dS2_vary(h, s)
    norms = np.sqrt(np.sum(th * th, axis=(-4, -3, -2, -1)))
    idx = int(np.argmax(norms))
    return ConditionReport(
        name="theta_bound",
        passed=bool(norms[idx] <= bound),
        worst_value=float(norms[idx]),
        bound=bound,
        worst_point={"h": h[idx], "S": s[idx]},
        n_samples=len(norms),
    )
