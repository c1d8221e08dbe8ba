"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from elgal.basis import (
    DirectorBasis,
    SpectralGrid,
    VelocityBasis,
    build_director_basis,
    build_velocity_basis,
)
from elgal.diagnostics import energy_residual_series
from elgal.diagnostics import test_ericksen_identity as ericksen_identity_residual
from elgal.diagnostics import test_interpolation_inequality as interpolation_report
from elgal.diagnostics import test_velocity_interpolation as velocity_interpolation_report
from elgal.energies import (
    GinzburgLandau,
    ScaledOseenFrank,
    SimplifiedOseenFrank,
    WithField,
    WithFreedom,
    check_legendre_hadamard,
)
from elgal.leslie import (
    LeslieCoefficients,
    check_dissipativity,
    leslie_stress_discrete,
)
from elgal.scenarios import _base_config, director_relaxation, gl_dissipation, stokes_decay
from elgal.simulate import run
from elgal.tensors import contract42, sym
from oracles import gateaux_check, leslie_stress, leslie_stress_original


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def monotone_run():
    """Shared heavyweight run for criteria 3 and 4 (N = 16, dt = 1e-3)."""
    return run(gl_dissipation().config)


@pytest.fixture(scope="module")
def monotone_run_half(monotone_run):
    cfg = dataclasses.replace(monotone_run.config, dt=5e-4)
    return run(cfg)


def test_criterion_01_director_relaxation_oracle():
    result = run(director_relaxation().config)
    first, last = result.states[0], result.states[-1]
    idx = int(np.argmax(np.abs(first.d_hat)))
    sigma = result.system.director_basis.eigs[idx]
    gamma = result.system.coeffs.gamma
    assert sigma == 1.0 and gamma == 1.0 and last.t == pytest.approx(1.0)
    expect = first.d_hat[idx] * math.exp(-1.0)
    rel = abs(last.d_hat[idx] - expect) / abs(expect)
    ok = rel <= 1e-10
    report(1, ok, f"single-eigenmode relaxation at t=1: relative error {rel:.3e} <= 1e-10")
    assert ok


def test_criterion_02_stokes_decay_oracle():
    result = run(stokes_decay().config)
    k0 = result.records[0].kinetic
    worst = max(
        abs(r.kinetic - k0 * math.exp(-r.t)) / (k0 * math.exp(-r.t)) for r in result.records
    )
    ok = worst <= 1e-6
    report(2, ok, f"kinetic energy follows exp(-|k|^2 t): worst relative error {worst:.3e} <= 1e-6")
    assert ok


def test_criterion_03_energy_monotonicity(monotone_run):
    totals = np.array([r.total for r in monotone_run.records])
    increase = float(np.max(np.diff(totals)))
    ok = increase <= 1e-8
    report(3, ok, f"total energy non-increasing: max increase {increase:.3e} <= 1e-8")
    assert ok


def test_criterion_04_energy_residual_order(monotone_run, monotone_run_half):
    r_full, _ = energy_residual_series(monotone_run.records)
    r_half, _ = energy_residual_series(monotone_run_half.records)
    m_full = float(np.max(np.abs(r_full[1:-1])))
    m_half = float(np.max(np.abs(r_half[1:-1])))
    ratio = m_full / m_half
    ok = 3.5 <= ratio <= 4.5
    report(4, ok, f"energy-balance residual drop at dt/2: factor {ratio:.3f} in [3.5, 4.5]")
    assert ok


def test_criterion_05_parodi_zero_cross_term():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        mu2, mu3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if abs(mu3 - mu2) < 1e-2:
            mu3 = mu2 + 1.0
        mu5 = rng.uniform(-2, 2)
        mu6 = mu5 + mu2 + mu3  # Parodi's relation
        c = LeslieCoefficients(1.0, mu2, mu3, 1.0, mu5, mu6)
        worst = max(worst, abs(c.kappa))
    cfg = _base_config(
        n=8,
        mu=(1.0, -0.5, 1.5, 1.0, 0.0, 1.0),  # Parodi with kappa = 0 in floats
        t_end=0.05,
        initial_velocity=("random", 0, 0.1),
        initial_director=("random", 1, 0.1),
    )
    result = run(cfg)
    cross_zero = all(r.cross == 0.0 for r in result.records)
    ok = worst <= 1e-14 and cross_zero
    report(
        5,
        ok,
        f"1000 Parodi sets: max |kappa| {worst:.2e} <= 1e-14; ledger cross column identically zero: {cross_zero}",
    )
    assert ok


def test_criterion_06_dissipativity_checker():
    accept = check_dissipativity(LeslieCoefficients(1.0, -1.0, 1.0, 1.0, 0.0, 1.0))
    reject_mu4 = check_dissipativity(LeslieCoefficients(1.0, -1.0, 1.0, 0.0, 0.0, 1.0))
    reject_aniso = check_dissipativity(LeslieCoefficients(1.0, 1.0, 2.0, 1.0, 0.0, 1.0))
    ok = (
        accept.passed
        and not reject_mu4.passed
        and reject_mu4.failures == ["mu4"]
        and not reject_aniso.passed
        and "anisotropy" in reject_aniso.failures
    )
    report(6, ok, "verdicts: accept / reject-on-mu4 / reject-on-fourth-condition, exactly")
    assert ok


def test_criterion_07_legendre_hadamard_closed_form():
    rng = np.random.default_rng(7)
    n = 10_000
    k1 = rng.uniform(1e-6, 10.0, n)
    k2 = rng.uniform(1e-6, 10.0, n)
    alpha = rng.uniform(-5.0, 5.0, n)
    a = rng.standard_normal((n, 3))
    b = rng.standard_normal((n, 3))
    # Assemble the quadratic form directly from the three delta tensors.
    aa = np.einsum("mi,mi->m", a, a)
    bb = np.einsum("mi,mi->m", b, b)
    ab = np.einsum("mi,mi->m", a, b)
    form = (
        2 * k2 * aa * bb
        + 2 * (k1 - alpha) * ab**2
        - 2 * (k2 - alpha) * ab**2
        + 2 * alpha * 0.0
    )
    # evaluate through the tensors for a subsample (full tensor contraction)
    worst_form = 0.0
    for i in range(0, n, 97):
        lam = SimplifiedOseenFrank(k1[i], k2[i], alpha[i], eps=None).d2F_dS2_const()
        val = np.einsum("i,j,ijkl,k,l->", a[i], b[i], lam, a[i], b[i])
        closed = 2 * k2[i] * aa[i] * bb[i] + 2 * (k1[i] - k2[i]) * ab[i] ** 2
        worst_form = max(worst_form, abs(val - closed) / max(1.0, abs(closed)))
    closed_all = 2 * k2 * aa * bb + 2 * (k1 - k2) * ab**2
    worst_vec = float(np.max(np.abs(form - closed_all) / np.maximum(1.0, np.abs(closed_all))))
    worst_min = 0.0
    for i in range(0, n, 2500):
        rep = check_legendre_hadamard(SimplifiedOseenFrank(k1[i], k2[i], alpha[i], eps=None), 4000)
        worst_min = max(worst_min, abs(rep.worst_value - 2 * min(k1[i], k2[i])))
    ok = worst_form <= 1e-12 and worst_vec <= 1e-12 and worst_min <= 1e-3
    report(
        7,
        ok,
        f"rank-one form matches 2k2|a|^2|b|^2 + 2(k1-k2)(a.b)^2 "
        f"(worst {worst_form:.2e}); sampled min within {worst_min:.2e} of 2 min(k1, k2)",
    )
    assert ok


def _builtin_models():
    return {
        "gl": GinzburgLandau(1.0),
        "with_field": WithField(GinzburgLandau(1.5), (0.3, -0.2, 0.5), 0.4, 1.1),
        "with_freedom": WithFreedom(GinzburgLandau(1.0), (0.2, -0.1, 0.3), 0.7),
        "sof": SimplifiedOseenFrank(2.0, 1.0, 0.5, eps=1.0),
        "scaled_of": ScaledOseenFrank(1.5, 1.0, 0.3, 0.2, 0.25, eps=1.0),
    }


def test_criterion_08_derivative_consistency():
    rng = np.random.default_rng(8)
    grid = SpectralGrid(8)
    worst = {"grad": 0.0, "second": 0.0, "gateaux": 0.0}
    for name, model in _builtin_models().items():
        h = rng.uniform(-3, 3, (100, 3))
        s = rng.uniform(-3, 3, (100, 3, 3))
        step = 1e-5
        gh = np.zeros((100, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            gh[:, i] = (model.evaluate(h + e, s) - model.evaluate(h - e, s)) / (2 * step)
        gs = np.zeros((100, 3, 3))
        for i in range(3):
            for j in range(3):
                em = np.zeros((3, 3))
                em[i, j] = step
                gs[:, i, j] = (model.evaluate(h, s + em) - model.evaluate(h, s - em)) / (2 * step)
        ah, as_ = model.dF_dh(h, s), model.dF_dS(h, s)
        worst["grad"] = max(
            worst["grad"],
            np.max(np.abs(gh - ah)) / max(1.0, np.max(np.abs(ah))),
            np.max(np.abs(gs - as_)) / max(1.0, np.max(np.abs(as_))),
        )
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        um = rng.standard_normal((3, 3))
        um /= np.linalg.norm(um)
        mixed_fd = (model.dF_dS(h + step * u, s) - model.dF_dS(h - step * u, s)) / (2 * step)
        mixed = np.einsum("...ijk,k->...ij", model.d2F_dSdh(h, s), u)
        hess_fd = (model.dF_dS(h, s + step * um) - model.dF_dS(h, s - step * um)) / (2 * step)
        hess = contract42(model.d2F_dS2_const(), um) + contract42(model.d2F_dS2_vary(h, s), um)
        worst["second"] = max(
            worst["second"],
            np.max(np.abs(mixed_fd - mixed)) / max(1.0, np.max(np.abs(mixed_fd))),
            np.max(np.abs(hess_fd - hess)) / max(1.0, np.max(np.abs(hess_fd))),
        )
        basis = build_director_basis(model.d2F_dS2_const(), grid, 57)
        for _ in range(100):
            d_hat = rng.uniform(-0.5, 0.5, basis.size)
            psi = rng.uniform(-1.0, 1.0, basis.size)
            worst["gateaux"] = max(worst["gateaux"], gateaux_check(model, basis, d_hat, psi))
    ok = all(v <= 1e-5 for v in worst.values())
    report(
        8,
        ok,
        "five models x 100 points: gradient FD {grad:.2e}, second-derivative FD {second:.2e}, "
        "Gateaux {gateaux:.2e}, all <= 1e-5".format(**worst),
    )
    assert ok


def test_criterion_09_ericksen_identity():
    model = GinzburgLandau(1.0)
    g16, g32 = SpectralGrid(16), SpectralGrid(32)
    db16 = build_director_basis(model.d2F_dS2_const(), g16)
    vb16 = build_velocity_basis(g16)
    db32 = DirectorBasis(g32, db16.lam4, db16.modes)
    vb32 = VelocityBasis(g32, vb16.modes)
    ksq_d = np.sum(db16.kvecs**2, axis=1)
    ksq_v = np.sum(vb16.kvecs**2, axis=1)
    rng = np.random.default_rng(9)
    worst16, worst32 = 0.0, 0.0
    for _ in range(100):
        d_hat = rng.standard_normal(db16.size) * np.exp(-0.4 * ksq_d)
        v_hat = rng.standard_normal(vb16.size) * np.exp(-0.4 * ksq_v)
        worst16 = max(worst16, ericksen_identity_residual(model, db16, vb16, d_hat, v_hat))
        worst32 = max(worst32, ericksen_identity_residual(model, db32, vb32, d_hat, v_hat))
    ok = worst16 <= 1e-9 and worst32 <= 1e-9 and worst32 < worst16
    report(
        9,
        ok,
        f"100 pairs: residual {worst16:.2e} (N=16) and {worst32:.2e} (N=32), both <= 1e-9, decreasing",
    )
    assert ok


def test_criterion_10_interpolation_relations():
    grid = SpectralGrid(8)
    db = build_director_basis(GinzburgLandau(1.0).d2F_dS2_const(), grid)
    vb = build_velocity_basis(grid)

    def trajectories(basis, n, seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, 3)
        out = []
        for _ in range(n):
            c0 = rng.uniform(-0.5, 0.5, basis.size)
            c1 = rng.uniform(-0.5, 0.5, basis.size)
            out.append((times, np.array([np.cos(t) * c0 + np.sin(2 * t) * c1 for t in times])))
        return out

    rep = interpolation_report(db, trajectories(db, 2, 100), 6, 2)
    exact_theta = rep.theta == Fraction(2)
    vrep = velocity_interpolation_report(vb, trajectories(vb, 2, 101), 6, 2)
    rejects = 0
    for bad in (
        lambda: interpolation_report(db, [], 7, 2),
        lambda: velocity_interpolation_report(vb, [], 4, 2),
        lambda: velocity_interpolation_report(vb, [], 6, math.inf),
    ):
        try:
            bad()
        except ValueError:
            rejects += 1
    constants_d, constants_v = [], []
    for seed in (200, 300):
        constants_d.append(
            interpolation_report(db, trajectories(db, 1000, seed), 6, 2).empirical_constant
        )
        constants_v.append(
            velocity_interpolation_report(vb, trajectories(vb, 1000, seed + 1), 6, 2).empirical_constant
        )
    stable = (
        all(math.isfinite(c) for c in constants_d + constants_v)
        and max(constants_d) / min(constants_d) < 10.0
        and max(constants_v) / min(constants_v) < 10.0
    )
    ok = exact_theta and vrep.passed and rejects == 3 and stable
    report(
        10,
        ok,
        f"(p=6, r=2) -> theta=2 exact; velocity relation exact; 3 invalid combos rejected; "
        f"constants over 2x1000 trajectories stable (director {constants_d[0]:.3g}/{constants_d[1]:.3g}, "
        f"velocity {constants_v[0]:.3g}/{constants_v[1]:.3g})",
    )
    assert ok


def test_criterion_11_leslie_equivalences():
    rng = np.random.default_rng(11)
    n = 10_000
    c = LeslieCoefficients(1.3, -0.7, 0.9, 2.0, 0.4, 1.1)
    d = rng.standard_normal((n, 3))
    e = rng.standard_normal((n, 3))
    gv = rng.standard_normal((n, 3, 3))
    q = rng.standard_normal((n, 3))
    sorted_vs_classic = np.max(
        np.abs(leslie_stress(c, d, e, gv) - leslie_stress_original(c, d, e, gv))
    )
    svd = np.einsum("...ij,...j->...i", sym(gv), d)
    e_sub = -c.lam * svd - c.gamma * q
    disc_vs_sub = np.max(
        np.abs(leslie_stress_discrete(c, d, q, gv) - leslie_stress(c, d, e_sub, gv))
    )
    scale = max(1.0, np.max(np.abs(leslie_stress(c, d, e, gv))))
    ok = sorted_vs_classic <= 1e-12 * scale and disc_vs_sub <= 1e-12 * scale
    report(
        11,
        ok,
        f"10^4 random inputs: sorted == classic ({sorted_vs_classic:.2e}), "
        f"discrete == substituted ({disc_vs_sub:.2e}), both <= 1e-12 (scaled)",
    )
    assert ok
