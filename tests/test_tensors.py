import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elgal.tensors import (
    contract32,
    contract42,
    contract43,
    curl_from_gradient,
    frob,
    identity_4,
    outer,
    trace_outer_4,
    transpose_4,
)
from oracles import is_symmetric_pair, sym_skw

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
mat3 = arrays(np.float64, (3, 3), elements=finite)


def test_sym_skw_shear():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s, w = sym_skw(a)
    assert np.array_equal(s, [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
    assert np.array_equal(w, [[0, 0.5, 0], [-0.5, 0, 0], [0, 0, 0]])


def test_sym_skw_identity():
    s, w = sym_skw(np.eye(3))
    assert np.array_equal(s, np.eye(3))
    assert np.array_equal(w, np.zeros((3, 3)))


@given(mat3)
def test_sym_skw_reassembles(a):
    s, w = sym_skw(a)
    assert np.allclose(s + w, a, rtol=0, atol=1e-14 * max(1.0, np.abs(a).max()))
    assert np.array_equal(s, s.T)
    assert np.array_equal(w, -w.T)


def test_outer_basis_case():
    e = np.eye(3)
    m = outer(e[0], e[1])
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    assert np.array_equal(m, expect)


def test_outer_self():
    a = np.array([1.0, 1.0, 0.0])
    assert np.array_equal(outer(a, a), [[1, 1, 0], [1, 1, 0], [0, 0, 0]])


def test_outer_trace_is_dot(rng):
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert abs(np.trace(outer(a, b)) - a @ b) < 1e-14 * max(1, abs(a @ b))


def test_contract42_identity_tensor(rng):
    a = rng.standard_normal((3, 3))
    assert np.allclose(contract42(identity_4(), a), a, atol=0)


def test_contract42_trace_outer():
    # (G:A)_ij = delta_ij tr A with G_ijkl = d_ij d_kl, so G:I = 3 I.
    assert np.array_equal(contract42(trace_outer_4(), np.eye(3)), 3.0 * np.eye(3))


def test_contract42_transpose(rng):
    a = rng.standard_normal((3, 3))
    assert np.array_equal(contract42(transpose_4(), a), a.T)


def _contract43_bruteforce(g, t):
    out = np.zeros(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    out[i] += g[i, j, k, l] * t[j, k, l]
    return out


def test_contract43_single_entry():
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = 1.0
    g = identity_4()
    expect = _contract43_bruteforce(g, t)
    assert np.array_equal(expect, np.zeros(3))
    assert np.array_equal(contract43(g, t), expect)


def test_contract43_all_ones():
    g = np.ones((3, 3, 3, 3))
    t = np.ones((3, 3, 3))
    assert np.array_equal(contract43(g, t), [27.0, 27.0, 27.0])


def test_contract43_linearity(rng):
    g = rng.standard_normal((3, 3, 3, 3))
    t = rng.standard_normal((3, 3, 3))
    assert np.allclose(contract43(g, 2.5 * t), 2.5 * contract43(g, t), atol=1e-13)
    assert np.allclose(contract43(g, t), _contract43_bruteforce(g, t), atol=1e-13)


def test_contract32_single_entry():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    assert np.array_equal(contract32(t, np.eye(3)), [1.0, 0.0, 0.0])


def test_contract32_all_ones():
    assert np.array_equal(contract32(np.ones((3, 3, 3)), np.eye(3)), [3.0, 3.0, 3.0])


def test_contract32_bilinear(rng):
    t = rng.standard_normal((3, 3, 3))
    a = rng.standard_normal((3, 3))
    assert np.allclose(contract32(3.0 * t, 2.0 * a), 6.0 * contract32(t, a), atol=1e-12)


def test_frobenius_pairing_selects_matching_part(rng):
    for _ in range(30):
        b = rng.standard_normal((3, 3))
        b_sym, b_skw = sym_skw(b)
        a = rng.standard_normal((3, 3))
        a_sym, a_skw = sym_skw(a)
        scale = max(1.0, abs(frob(a_sym, b)))
        assert abs(frob(a_sym, b) - frob(a_sym, b_sym)) < 1e-14 * scale
        assert abs(frob(a_skw, b) - frob(a_skw, b_skw)) < 1e-14 * scale


def test_product_identities(rng):
    for _ in range(30):
        a, b, c = rng.standard_normal((3, 3, 3))
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert abs(frob(a.T @ b, c) - frob(b, a @ c)) < 1e-13
        assert abs(frob(outer(u, v), a) - u @ (a @ v)) < 1e-14 * max(1, abs(u @ a @ v))
        a_sym = 0.5 * (a + a.T)
        assert abs(frob(outer(u, u), a) - u @ (a_sym @ u)) < 1e-13


def test_symmetric_pair_flags():
    for g in (identity_4(), trace_outer_4(), transpose_4()):
        assert is_symmetric_pair(g)
    g = identity_4()
    g[0, 1, 2, 0] += 1e-300  # any asymmetry, however tiny, must be caught
    assert not is_symmetric_pair(g)


def test_curl_from_gradient_matches_levi_civita(rng):
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    s = rng.standard_normal((5, 3, 3))
    expect = np.einsum("ijk,...kj->...i", eps, s)
    assert np.allclose(curl_from_gradient(s), expect, atol=1e-15)


def test_batched_operations_match_loop(rng):
    g = rng.standard_normal((3, 3, 3, 3))
    a = rng.standard_normal((7, 3, 3))
    batched = contract42(g, a)
    for i in range(7):
        assert np.allclose(batched[i], contract42(g, a[i]), atol=0)
