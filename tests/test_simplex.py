import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog as scipy_linprog

from pmpkit._simplex import linprog_dense, solve_standard


def test_standard_basic():
    # min -x1 - x2 s.t. x1 + x2 + s = 1 -> optimum -1 on the segment
    res = solve_standard([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert res.ok
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_standard_infeasible():
    # x1 + x2 = -1 with x >= 0
    res = solve_standard([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    assert res.status == "infeasible"


def test_standard_unbounded():
    # min -x1 with x1 - x2 = 0: both can grow together
    res = solve_standard([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_standard_redundant_rows():
    A = [[1.0, 1.0], [2.0, 2.0]]
    res = solve_standard([1.0, 0.0], A, [1.0, 2.0])
    assert res.ok
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_standard_no_vars_no_rows():
    assert solve_standard(np.zeros(0), np.zeros((1, 0)), [0.0]).ok
    assert solve_standard(np.zeros(0), np.zeros((1, 0)), [1.0]).status == "infeasible"
    assert solve_standard([1.0], np.zeros((0, 1)), np.zeros(0)).value == 0.0
    assert solve_standard([-1.0], np.zeros((0, 1)), np.zeros(0)).status == "unbounded"


def test_linprog_bounds_free_and_two_sided():
    # min x subject to -2 <= x <= 3 -> -2
    res = linprog_dense([1.0], bounds=[(-2.0, 3.0)])
    assert res.ok and res.x[0] == pytest.approx(-2.0, abs=1e-9)
    # free variable with equality pin
    res = linprog_dense([1.0], A_eq=[[1.0]], b_eq=[-5.0], bounds=[(None, None)])
    assert res.ok and res.x[0] == pytest.approx(-5.0, abs=1e-9)
    # crossed bounds
    assert linprog_dense([1.0], bounds=[(1.0, 0.0)]).status == "infeasible"


def test_linprog_mixed_rows():
    # min -x - y, x + y <= 1, x - y = 0.2, 0 <= x,y <= 1
    res = linprog_dense([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                        A_eq=[[1.0, -1.0]], b_eq=[0.2],
                        bounds=[(0.0, 1.0), (0.0, 1.0)])
    assert res.ok
    assert res.value == pytest.approx(-1.0, abs=1e-8)
    assert res.x[0] == pytest.approx(0.6, abs=1e-8)


def _random_instance(rng):
    n = rng.integers(1, 7)
    m_ub = rng.integers(0, 4)
    m_eq = rng.integers(0, 3)
    c = rng.standard_normal(n)
    A_ub = rng.standard_normal((m_ub, n)) if m_ub else None
    b_ub = rng.standard_normal(m_ub) if m_ub else None
    A_eq = rng.standard_normal((m_eq, n)) if m_eq else None
    b_eq = rng.standard_normal(m_eq) if m_eq else None
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            bounds.append((0.0, None))
        elif kind == 1:
            lo = float(rng.standard_normal())
            bounds.append((lo, lo + float(rng.uniform(0.1, 3.0))))
        elif kind == 2:
            bounds.append((None, float(rng.standard_normal())))
        else:
            bounds.append((None, None))
    return c, A_ub, b_ub, A_eq, b_eq, bounds


def test_against_scipy_linprog():
    rng = np.random.default_rng(7)
    checked_optimal = 0
    for _ in range(150):
        c, A_ub, b_ub, A_eq, b_eq, bounds = _random_instance(rng)
        ours = linprog_dense(c, A_ub, b_ub, A_eq, b_eq, bounds)
        ref = scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=bounds, method="highs")
        if ref.status == 0:
            assert ours.ok, (c, A_ub, b_ub, A_eq, b_eq, bounds)
            assert ours.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            checked_optimal += 1
        elif ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"
    assert checked_optimal >= 40


@st.composite
def standard_lps(draw):
    """min c.x, A x = b, x >= 0 with small integer data, built to be
    degenerate (b = A x0 with zeros in x0), to carry a redundant row, to be
    infeasible or unbounded, or left random."""
    kind = draw(st.sampled_from(("degenerate", "redundant", "infeasible", "unbounded", "random")))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    ints = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)),
                 dtype=float)
    c = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    if kind == "random":
        b = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
        return kind, c, A, b
    b = A @ np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    if kind == "redundant":
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        A, b = np.vstack([A, A[i] - 2.0 * A[j]]), np.append(b, b[i] - 2.0 * b[j])
    elif kind == "infeasible":
        # the negated sum of the rows with a right-hand side off by one
        A, b = np.vstack([A, -A.sum(axis=0)]), np.append(b, -b.sum() - 1.0)
    elif kind == "unbounded":
        # columns a and -a: x_a = x_-a grows freely and lowers the cost
        a = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
        A, c = np.hstack([A, a[:, None], -a[:, None]]), np.append(c, [-1.0, 0.0])
    return kind, c, A, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(standard_lps())
def test_solve_standard_matches_highs(lp):
    kind, c, A, b = lp
    ref = scipy_linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assume(ref.status in (0, 2, 3))
    want = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if kind in ("infeasible", "unbounded"):
        assert want == kind
    ours = solve_standard(c, A, b)
    assert ours.status == want
    if not ours.ok:
        return
    assert ours.value == pytest.approx(ref.fun, abs=1e-8, rel=1e-9)
    # the point on the original rows
    assert np.all(ours.x >= 0.0)
    assert np.allclose(A @ ours.x, b, rtol=0.0, atol=1e-9)
    assert float(c @ ours.x) == ours.value
    # the row duals: dual feasible with the same value
    assert np.all(A.T @ ours.y <= c + 1e-9)
    assert float(ours.y @ b) == pytest.approx(ours.value, abs=1e-9)


def test_duals_of_a_known_lp():
    # min x1 + 2 x2 s.t. x1 + x2 - s = 1: the dual max y s.t. y <= 1, y <= 2, -y <= 0
    res = solve_standard([1.0, 2.0, 0.0], [[1.0, 1.0, -1.0]], [1.0])
    assert res.ok and res.value == pytest.approx(1.0)
    assert res.y == pytest.approx([1.0])
