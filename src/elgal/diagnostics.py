"""Numerical certification of the scheme's analytic structure.

* energy ledger: every term of the semi-discrete energy balance

      d/dt (kinetic + free) + mu1 ||d.Sv d||^2 + mu4 ||Sv||^2
          + A ||Sv d||^2 + gamma ||q||^2  =  <g, v> + kappa (q, Sv d)

  with the time derivative supplied by centered differences of adjacent
  records (one-sided at the ends);
* a priori monitors (running suprema / time integrals);
* empirical Gagliardo-Nirenberg-type interpolation testers.  Both check
      ||u||_{L^r(L^p)}^r <= C ||grad u||_{L^2(L^2)}^theta ||u||_{L^inf(L^2)}^(r-theta),
      1/p = 1/2 - theta/(3r),
  for u = grad d (theta in [0, 2]) and u = v (theta = 2), the two fields the
  a priori bounds put in L^inf(L^2) and L^2(H^1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energies import total_energy

LEDGER_COLUMNS = (
    "t",
    "kinetic",
    "free",
    "total",
    "diss_mu1",
    "diss_mu4",
    "diss_A",
    "diss_gamma_q",
    "cross",
    "g_power",
    "residual",
)


@dataclass
class EnergyRecord:
    t: float
    kinetic: float
    free: float
    diss_mu1: float
    diss_mu4: float
    diss_A: float
    diss_gamma_q: float
    cross: float
    g_power: float
    residual: float = 0.0

    @property
    def total(self) -> float:
        return self.kinetic + self.free

    @property
    def dissipation(self) -> float:
        return self.diss_mu1 + self.diss_mu4 + self.diss_A + self.diss_gamma_q

    def row(self) -> tuple:
        return tuple(getattr(self, c) for c in LEDGER_COLUMNS)


def energy_ledger(system, state, fields=None) -> EnergyRecord:
    """All terms of the energy balance at one instant, by dealiased quadrature.

    The residual is left for ``energy_residual_series``, which fills it from
    adjacent records.  ``fields`` is ``system.fields(state)`` when the caller
    already has it.
    """
    c = system.coeffs
    grid = system.grid
    if fields is None:
        fields = system.fields(state)
    d, grad_d, q_hat, q, svd = fields.d, fields.grad_d, fields.q_hat, fields.q, fields.svd
    d_svd_sq, svd_sq = _svd_squares(grid, d, svd)

    return EnergyRecord(
        t=state.t,
        kinetic=0.5 * float(state.v_hat @ state.v_hat),
        free=total_energy(system.model, d, grad_d, grid.cell_volume),
        diss_mu1=c.mu1 * d_svd_sq,
        diss_mu4=c.mu4 * sym_grad_sq(system.velocity_basis, state.v_hat),
        diss_A=c.anisotropy * svd_sq,
        diss_gamma_q=c.gamma * float(q_hat @ q_hat),
        cross=c.kappa * grid.quad(np.einsum("...i,...i->...", q, svd)),
        g_power=float(system.forcing_v_hat @ state.v_hat),
    )


def _svd_squares(grid, d, svd) -> tuple[float, float]:
    """Quadratures of (d . Sv d)^2 and |Sv d|^2, the mu1 and A dissipations."""
    d_svd = np.einsum("...i,...i->...", d, svd)
    return grid.quad(d_svd**2), grid.quad(np.sum(svd * svd, axis=-1))


def sym_grad_sq(velocity_basis, v_hat: np.ndarray) -> float:
    """||sym(grad v)||^2 = (1/2) sum |k_i|^2 v_i^2, exact for the orthonormal
    divergence-free basis, where ((grad v)^T, grad v) = ||div v||^2 = 0."""
    return 0.5 * float((v_hat * v_hat) @ velocity_basis.eigs)


def energy_residual_series(records: list) -> tuple[np.ndarray, bool]:
    """Residuals of the energy balance along a trajectory, plus a verdict.

    Fills each record's ``residual`` in place using centered differences of
    kinetic + free (one-sided at the two ends).  The verdict is True when
    the total energy is non-increasing between records.
    """
    if len(records) < 3:
        raise ValueError("need at least three records for centered differences")
    t = np.array([r.t for r in records])
    e = np.array([r.total for r in records])
    de = np.empty_like(e)
    de[1:-1] = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    de[0] = (e[1] - e[0]) / (t[1] - t[0])
    de[-1] = (e[-1] - e[-2]) / (t[-1] - t[-2])
    residuals = np.array(
        [de[i] + r.dissipation - r.g_power - r.cross for i, r in enumerate(records)]
    )
    for r, res in zip(records, residuals):
        r.residual = float(res)
    monotone = bool(np.all(np.diff(e) <= 0.0))
    return residuals, monotone


def write_ledger(records: list, path) -> None:
    """CSV ledger with a fixed column order and 17-significant-digit floats."""
    with open(path, "w") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(f"{x:.17g}" for x in r.row()) + "\n")


@dataclass
class AprioriReport:
    sup_velocity_l2: float
    sup_director_h1: float
    int_mu1_d_svd_sq: float
    int_mu4_sym_sq: float
    int_svd_sq: float
    int_lap_d_sq: float
    within_caps: bool | None
    caps: dict | None


def apriori_monitor(system, states: list, caps: dict | None = None) -> AprioriReport:
    """Running suprema and time integrals of the standard a priori bounds."""
    if not states:
        raise ValueError("empty trajectory")
    grid = system.grid
    dk = system.director_basis.kvecs
    dksq = np.sum(dk * dk, axis=1).astype(float)
    t = np.array([s.t for s in states])
    v_l2 = np.array([np.sqrt(s.v_hat @ s.v_hat) for s in states])
    d_h1 = np.array([np.sqrt(np.sum(s.d_hat**2 * (1.0 + dksq))) for s in states])
    lap_sq = np.array([np.sum(s.d_hat**2 * dksq**2) for s in states])

    mu4_term = np.array([sym_grad_sq(system.velocity_basis, s.v_hat) for s in states])
    mu1_term = np.empty(len(states))
    svd_term = np.empty(len(states))
    for i, s in enumerate(states):
        d = system.director_basis.synthesize(s.d_hat)
        _, _, svd, _ = system.velocity_fields(s.v_hat, d)
        mu1_term[i], svd_term[i] = _svd_squares(grid, d, svd)

    def integral(y):
        return float(np.trapezoid(y, t)) if len(t) > 1 else 0.0

    report = AprioriReport(
        sup_velocity_l2=float(v_l2.max()),
        sup_director_h1=float(d_h1.max()),
        int_mu1_d_svd_sq=system.coeffs.mu1 * integral(mu1_term),
        int_mu4_sym_sq=system.coeffs.mu4 * integral(mu4_term),
        int_svd_sq=integral(svd_term),
        int_lap_d_sq=integral(lap_sq),
        within_caps=None,
        caps=caps,
    )
    if caps is not None:
        report.within_caps = all(
            getattr(report, key) <= bound for key, bound in caps.items()
        )
    return report


# ---------------------------------------------------------------------------
# Interpolation-inequality testers


@dataclass
class InequalityReport:
    p: Fraction
    r: object  # Fraction or math.inf
    theta: Fraction | None
    empirical_constant: float
    passed: bool


def _as_fraction(x) -> Fraction:
    if isinstance(x, numbers.Rational):  # NumPy integers too, held as Python ints
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("exponent must be finite here")
        return Fraction(x)
    raise TypeError(f"cannot interpret exponent {x!r}")


def _is_inf(r) -> bool:
    return r in ("inf", math.inf) or (isinstance(r, float) and math.isinf(r))


def _lp_norm(grid, field: np.ndarray, p: float) -> float:
    mag = np.sqrt(np.sum(field * field, axis=tuple(range(3, field.ndim))))
    return grid.quad(mag**p) ** (1.0 / p)


def _gn_constant(basis, trajectories, field, w_low, w_high, p, r, theta) -> float:
    """Worst ratio over ``trajectories`` of ||u||_{L^r(L^p)}^r to
    ||grad u||_{L^2(L^2)}^theta ||u||_{L^inf(L^2)}^(r - theta), u = field(coefs),
    where ||u||^2 = coefs^2 @ w_low and ||grad u||^2 = coefs^2 @ w_high."""
    worst = 0.0
    for times, coefs in trajectories:
        times = np.asarray(times, dtype=float)
        coefs = np.asarray(coefs, dtype=float)
        lp = np.array([_lp_norm(basis.grid, field(c), float(p)) for c in coefs])
        sq = coefs**2
        lhs = float(np.trapezoid(lp ** float(r), times))
        l2_h1 = float(np.trapezoid(sq @ w_high, times))
        linf_l2 = float(np.sqrt(sq @ w_low).max())
        denom = l2_h1 ** (float(theta) / 2.0) * linf_l2 ** float(r - theta)
        if lhs == 0.0:
            continue
        worst = max(worst, math.inf if denom == 0.0 else lhs / denom)
    return worst


def test_interpolation_inequality(basis, trajectories, p, r) -> InequalityReport:
    """Empirical constant of the relation for u = grad d, any theta in
    [0, 2]: ||grad d||_{L^r(L^p)}^r against ||Delta d||_{L^2(L^2)}^theta
    ||grad d||_{L^inf(L^2)}^(r - theta) (||Delta d|| = ||grad grad d||).

    ``trajectories`` is a sequence of (times, coefficient rows) pairs in the
    director basis.  Exponent bookkeeping is exact rational arithmetic; pass
    non-dyadic exponents as strings ("10/3").
    """
    pf, rf = _as_fraction(p), _as_fraction(r)
    if not Fraction(2) <= pf <= Fraction(6):
        raise ValueError(f"p = {pf} outside [2, 6]")
    theta = 3 * rf * (Fraction(1, 2) - 1 / pf)
    if not Fraction(0) <= theta <= Fraction(2):
        raise ValueError(f"theta = {theta} outside [0, 2] for (p, r) = ({pf}, {rf})")
    ksq = np.sum(basis.kvecs.astype(float) ** 2, axis=1)

    def grad_d(c):
        # Only the 9 gradient components of each spectrum are transformed.
        return basis.grid.irfft(basis.synthesize_spec_half(c, gradient=True)[..., 3:])

    worst = _gn_constant(basis, trajectories, grad_d, ksq, ksq**2, pf, rf, theta)
    return InequalityReport(pf, rf, theta, worst, math.isfinite(worst))


def test_velocity_interpolation(basis, trajectories, p, r) -> InequalityReport:
    """Empirical constant of the relation for u = v with theta = 2:
    ||v||_{L^r(L^p)}^r against ||grad v||_{L^2(L^2)}^2 ||v||_{L^inf(L^2)}^(r-2),
    so 1/p = 1/2 - 2/(3r) exactly (r = inf forces p = 2 and reduces to a
    containment)."""
    pf = _as_fraction(p)
    if not Fraction(2) <= pf <= Fraction(6):
        raise ValueError(f"p = {pf} outside [2, 6]")
    if _is_inf(r):
        if pf != 2:
            raise ValueError("r = inf requires p = 2")
        # sup-in-time of the L^2 norm against itself: the containment case.
        worst = 0.0
        for _, coefs in trajectories:
            if np.any(np.asarray(coefs) != 0.0):
                worst = 1.0
        return InequalityReport(pf, math.inf, None, worst, True)
    rf = _as_fraction(r)
    if rf < 2:
        raise ValueError(f"r = {rf} outside [2, inf]")
    if Fraction(1) / pf != Fraction(1, 2) - Fraction(2) / (3 * rf):
        raise ValueError(f"(p, r) = ({pf}, {rf}) violates 1/p = 1/2 - 2/(3r)")
    ksq = np.sum(basis.kvecs.astype(float) ** 2, axis=1)
    worst = _gn_constant(basis, trajectories, basis.synthesize, np.ones_like(ksq), ksq, pf, rf, 2)
    return InequalityReport(pf, rf, None, worst, math.isfinite(worst))
