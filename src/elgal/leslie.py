"""Leslie viscosity bookkeeping and the anisotropic stress tensors.

The six Leslie viscosities mu1..mu6 determine the derived constants

    lam1 = mu2 - mu3,   lam2 = mu5 - mu6,
    gamma = 1 / (mu3 - mu2) = -1 / lam1,
    lam   = gamma * (mu6 - mu5) = lam2 / lam1,

the dissipativity conditions

    mu1 > 0,  mu4 > 0,  gamma > 0,
    A := mu5 + mu6 - lam * (mu2 + mu3) > 0,
    4 * gamma * A > kappa^2   with   kappa := gamma * (mu2 + mu3) - lam,

and Parodi's relation lam2 + mu2 + mu3 = 0 (optional; when it holds the
cross coefficient kappa vanishes).

The solver assembles the stress with the co-rotational rate eliminated
through e = -lam * Sv d - gamma * q.  The classic six-term sum and the
symmetric/skew-sorted form it is equivalent to live in the tests as oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensors import Mat3, Vec3, sym


@dataclass(frozen=True)
class LeslieCoefficients:
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    mu5: float
    mu6: float

    def __post_init__(self):
        mus = (self.mu1, self.mu2, self.mu3, self.mu4, self.mu5, self.mu6)
        if not all(np.isfinite(mus)):
            raise ValueError("Leslie coefficients must be finite")
        if self.mu3 == self.mu2:
            raise ValueError("gamma undefined: mu3 == mu2")
        if self.mu1 == 0.0:
            warnings.warn("mu1 = 0: stretching dissipation channel disabled", stacklevel=2)

    @property
    def lam1(self) -> float:
        return self.mu2 - self.mu3

    @property
    def lam2(self) -> float:
        return self.mu5 - self.mu6

    @property
    def gamma(self) -> float:
        return 1.0 / (self.mu3 - self.mu2)

    @property
    def lam(self) -> float:
        return self.gamma * (self.mu6 - self.mu5)

    @property
    def anisotropy(self) -> float:
        """A = mu5 + mu6 - lam * (mu2 + mu3), the coefficient of |Sv d|^2."""
        return self.mu5 + self.mu6 - self.lam * (self.mu2 + self.mu3)

    @property
    def kappa(self) -> float:
        """Cross coefficient gamma*(mu2+mu3) - lam multiplying (q, Sv d)."""
        return self.gamma * (self.mu2 + self.mu3) - self.lam


_CONDITION_NAMES = ("mu1", "mu4", "gamma", "anisotropy", "coupling")


@dataclass(frozen=True)
class DissipationMargins:
    """The five left-minus-right margins of the dissipativity conditions.

    ``margins`` maps condition name -> margin (strictly positive when the
    condition is satisfied).  ``delta`` is |kappa| / (2 sqrt(gamma A)); when
    every condition holds, delta < 1 and

        alpha = (1 - delta) * A,   beta = (1 - delta) * gamma

    are the residual positive weights of |Sv d|^2 and |q|^2 after the cross
    term is absorbed by Young's inequality.
    """

    margins: dict = field(repr=False)
    kappa: float
    anisotropy: float
    gamma: float
    delta: float
    alpha: float
    beta: float
    passed: bool

    @property
    def failures(self) -> list[str]:
        return [k for k in _CONDITION_NAMES if not self.margins[k] > 0.0]

    @property
    def pointwise_margin(self) -> float:
        """(1 - delta) * min(A, gamma), lower bound in |Sv d|^2 + |q|^2."""
        return (1.0 - self.delta) * min(self.anisotropy, self.gamma)


def check_dissipativity(c: LeslieCoefficients) -> DissipationMargins:
    """Evaluate the five dissipativity conditions; pass iff all are strict."""
    a = c.anisotropy
    g = c.gamma
    kap = c.kappa
    margins = {
        "mu1": c.mu1,
        "mu4": c.mu4,
        "gamma": g,
        "anisotropy": a,
        "coupling": 4.0 * g * a - kap * kap,
    }
    passed = all(m > 0.0 for m in margins.values())
    if g > 0.0 and a > 0.0:
        delta = abs(kap) / (2.0 * np.sqrt(g * a))
    else:
        delta = np.nan
    return DissipationMargins(
        margins=margins,
        kappa=kap,
        anisotropy=a,
        gamma=g,
        delta=delta,
        alpha=(1.0 - delta) * a,
        beta=(1.0 - delta) * g,
        passed=passed,
    )


def check_parodi(c: LeslieCoefficients, tol: float = 1e-14) -> bool:
    """True iff lam2 + mu2 + mu3 = 0 within ``tol``."""
    return abs(c.lam2 + c.mu2 + c.mu3) <= tol


def strain_rates(grad_v: Mat3, d: Vec3) -> tuple[Vec3, Vec3]:
    """(Sv d, Wv d), the symmetric and skew parts of grad v applied to d,
    from grad v . d and (grad v)^T . d without forming Sv or Wv."""
    gd = np.einsum("...ia,...a->...i", grad_v, d)
    gtd = np.einsum("...ai,...a->...i", grad_v, d)
    svd = gd + gtd
    svd *= 0.5
    gd -= gtd
    gd *= 0.5
    return svd, gd


def coupling_stress(
    c: LeslieCoefficients, d: Vec3, q: Vec3, svd: Vec3, out: Mat3 | None = None
) -> Mat3:
    """The stress of ``leslie_stress_discrete`` without its mu4 Sv term,

    T - mu4 Sv = mu1 (d.Sv d) d x d - gamma(mu2+mu3) (d x q)_sym
                 - (d x q)_skw + A (d x Sv d)_sym,

    from d, q and svd = Sv d.  The solver pairs mu4 Sv with the velocity
    modes in closed form, so only this part goes through the grid.

    As with NumPy's ``out=``, the stress is written into ``out`` when it is
    given and returned; otherwise it is allocated component-major (each
    entry one contiguous plane).
    """
    # Grouped as d x u + w x d to keep temporaries down; expanding u and w
    # reproduces the sym/skw combination above term by term.
    a = c.gamma * (c.mu2 + c.mu3)
    d_svd = np.einsum("...i,...i->...", d, svd)
    u = -0.5 * (a + 1.0) * q + 0.5 * c.anisotropy * svd + (c.mu1 * d_svd)[..., None] * d
    del d_svd
    if out is None:
        k = d.ndim - 1
        out = np.empty((3, 3, *d.shape[:-1])).transpose(*range(2, k + 2), 0, 1)
    np.einsum("...i,...j->...ij", d, u, out=out)
    del u
    w = -0.5 * (a - 1.0) * q + 0.5 * c.anisotropy * svd
    out += np.einsum("...i,...j->...ij", w, d)
    return out


def leslie_stress_discrete(c: LeslieCoefficients, d: Vec3, q: Vec3, grad_v: Mat3) -> Mat3:
    """Stress with the co-rotational rate eliminated via e = -lam Sv d - gamma q.

    T = mu1 (d.Sv d) d x d + mu4 Sv - gamma(mu2+mu3) (d x q)_sym
        - (d x q)_skw + A (d x Sv d)_sym,    A = mu5+mu6-lam(mu2+mu3).
    """
    sv = sym(grad_v)
    return c.mu4 * sv + coupling_stress(c, d, q, np.einsum("...ij,...j->...i", sv, d))
