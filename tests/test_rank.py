"""The shared SVD rank rule against scipy's independent bases.

`rank_split` decides the numerical rank for every range and null-space
basis in the package (cone span bases, supporting directions of
rank-deficient cones, boundary annihilators).  On matrices of planted rank
whose nonzero singular values sit far above the 1e-12 cut, its bases must
have the planted dimension, be orthonormal, and span the same subspaces as
`scipy.linalg.orth` and `scipy.linalg.null_space`.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space as scipy_null_space, orth as scipy_orth

from pmpkit.cone_geometry import (GeneratedCone, null_space, rank_split,
                                  supporting_hyperplane)


def planted(n, m, rank, seed, scale, spread):
    """n x m matrix with `rank` singular values in scale * [1, spread]."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    V = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :rank]
    s = scale * spread ** rng.uniform(0.0, 1.0, rank)
    return (U * s) @ V.T


def projector(B):
    return B @ B.T


def assert_orthonormal(B):
    assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-10)


def same_subspace(B, C):
    return B.shape == C.shape and np.allclose(projector(B), projector(C), atol=1e-8)


@st.composite
def planted_matrices(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n, m)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = 10.0 ** draw(st.integers(-4, 4))
    spread = 10.0 ** draw(st.integers(0, 3))
    return planted(n, m, rank, seed, scale, spread), rank


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planted_matrices())
def test_bases_match_scipy(case):
    A, rank = case
    n, m = A.shape
    U, r, Vt = rank_split(A)
    assert r == rank

    span = U[:, :r]
    assert_orthonormal(span)
    assert same_subspace(span, scipy_orth(A))

    null = null_space(list(A), m)
    assert null.shape == (m, m - rank)
    assert_orthonormal(null)
    assert same_subspace(null, scipy_null_space(A))
    assert np.allclose(A @ null, 0.0, atol=1e-8 * max(1.0, np.abs(A).max()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planted_matrices())
def test_cone_sites_use_the_same_rank(case):
    A, rank = case
    n = A.shape[0]
    cone = GeneratedCone(list(A.T), n)
    basis = cone.span_basis()
    assert basis.shape == (n, rank)
    assert_orthonormal(basis)
    assert same_subspace(basis, scipy_orth(A))
    if 0 < rank < n:
        # a rank-deficient cone is supported by a unit normal to its span
        alpha = supporting_hyperplane(cone)
        assert np.isclose(np.linalg.norm(alpha), 1.0)
        assert np.allclose(scipy_orth(A).T @ alpha, 0.0, atol=1e-8)


def test_no_rows_leave_the_whole_space():
    assert np.array_equal(null_space([], 3), np.eye(3))
    assert np.array_equal(null_space((), 2), np.eye(2))


def test_cut_is_relative_above_one_and_absolute_below():
    # above s_max = 1 the cut is 1e-12 s_max = 1e-9 here
    assert rank_split(np.diag([1e3, 1e-8]))[1] == 2
    assert rank_split(np.diag([1e3, 1e-10]))[1] == 1
    # small matrices keep the absolute floor: 1e-13 is cut, 1e-11 is not
    assert rank_split(np.diag([1e-3, 1e-13]))[1] == 1
    assert rank_split(np.diag([1e-3, 1e-11]))[1] == 2
    assert rank_split(np.zeros((2, 3)))[1] == 0
