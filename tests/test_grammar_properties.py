"""Property tests of the expression grammar's exact derivatives and degree.

Expressions are drawn as small trees over x0, x1, u0, u1 and rendered to
grammar strings.  The oracles are central finite differences for the
partial derivatives, the maximizer's own three-probe fit check for the
degree analysis, and the undeclared maximizer path for the declared one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmpkit import cli, pmp
from pmpkit.control_system import _fd_jacobian

M, K = 2, 2
EXPONENTS = (0, 1, 2, 3, -1, 0.5, 1.5)


_LEAVES = st.one_of(
    st.tuples(st.just("c"), st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))),
    st.tuples(st.just("n"), st.sampled_from(("x0", "x1", "u0", "u1"))))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("^"), children, st.sampled_from(EXPONENTS)),
        st.tuples(st.sampled_from(("neg", "sin", "cos", "exp")), children))


def trees():
    return st.recursive(_LEAVES, _extend, max_leaves=8)


def render(t):
    op = t[0]
    if op == "c":
        return repr(t[1])
    if op == "n":
        return t[1]
    if op == "neg":
        return f"(-{render(t[1])})"
    if op in ("sin", "cos", "exp"):
        return f"{op}({render(t[1])})"
    if op == "^":
        return f"({render(t[1])})^({t[2]!r})"
    return f"({render(t[1])} {op} {render(t[2])})"


def well_conditioned(t, x, u):
    """Denominators, non-polynomial powers and exp stay away from trouble.

    Finite differences lose accuracy next to poles and in steep growth, so
    those points say nothing about the exact derivatives.
    """
    def value(sub):
        return cli.parse_expression(render(sub), M, K)(x, u)

    op = t[0]
    if op in ("c", "n"):
        return True
    if op == "/" and not abs(value(t[2])) >= 0.2:
        return False
    if op == "^" and not (t[2] >= 0 and float(t[2]).is_integer()):
        if not value(t[1]) >= 0.2:
            return False
    if op == "exp" and not abs(value(t[1])) <= 4.0:
        return False
    return all(well_conditioned(c, x, u) for c in t[1:] if isinstance(c, tuple))


points = st.lists(st.floats(-2.0, 2.0), min_size=M + K, max_size=M + K)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees(), points)
def test_exact_partials_match_finite_differences(t, pt):
    x, u = np.array(pt[:M]), np.array(pt[M:])
    src = render(t)
    fn = cli.parse_expression(src, M, K)
    value = fn(x, u)
    assume(np.isfinite(value) and abs(value) <= 1e4 and well_conditioned(t, x, u))
    partials, _ = cli.expression_structure(src, M, K)
    exact = np.array([d(x, u) if callable(d) else d for d in partials])
    fd = _fd_jacobian(lambda y: np.array([fn(y, u)]), x).ravel()
    assert np.all(np.isfinite(exact)), src
    assert np.all(np.abs(exact - fd) <= 1e-6 * np.maximum(1.0, np.abs(exact))), \
        (src, exact, fd)


@pytest.mark.parametrize("src, degree", [
    ("1", 0), ("sin(x0) / x1", 0), ("u0 / (1 + x0)", 1), ("u0 * u1 + x0", 2),
    ("u0^2 * x0^3", 2), ("u0^3", 3), ("(1 + x0) / u0", None), ("u0^0.5", None),
    ("2^u0", None), ("u0^x0", None), ("sin(u0)", None)])
def test_degree_in_u(src, degree):
    assert cli.expression_structure(src, M, K)[1] == degree


def test_state_in_exponent_keeps_finite_differences():
    partials, degree = cli.expression_structure("x0^x1 + u0", M, K)
    assert partials is None and degree == 1
    problem = cli.Problem({
        "dynamics": {"expressions": ["x1", "2^x0 + u0"]},
        "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "cost": {"expression": "x0^2 + u0^2"}})
    assert problem.sys.df_dx is None and problem.sys.dF_dx is not None
    assert problem.sys.u_degree == 2


def _quadratic_problem(dyn, cost, cset):
    data = {"dynamics": {"expressions": [render(dyn[0]), render(dyn[1])]},
            "control_set": cset,
            "cost": {"expression": render(cost)}}
    problem = cli.Problem(data)
    assume(problem.sys.u_degree is not None and problem.sys.u_degree <= 2)
    return problem.sys


control_sets = st.sampled_from((
    {"kind": "box", "lo": [-1.0, -0.5], "hi": [1.0, 2.0]},
    {"kind": "box", "lo": [0.0, 0.0], "hi": [0.0, 1.0]},
    {"kind": "ball", "center": [0.5, -0.25], "radius": 1.5},
))
states = st.lists(st.floats(-2.0, 2.0), min_size=2 * M, max_size=2 * M)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(trees(), trees()), trees(), control_sets, states,
       st.sampled_from((-1.0, 0.0)))
def test_degree_at_most_two_passes_the_fit_probes(dyn, cost, cset, xp, p0):
    sys = _quadratic_problem(dyn, cost, cset)
    x, p = np.array(xp[:M]), np.array(xp[M:])

    def H(u):
        return pmp.hamiltonian(sys, p0, p, x, u)

    U = sys.control_set
    if U.kind == "ball":
        u0, delta = U.center.copy(), np.full(K, max(U.radius, 1.0) / 4.0)
    else:
        u0, delta = 0.5 * (U.lo + U.hi), (U.hi - U.lo) / 4.0
    assume(np.isfinite(H(u0)))
    assert pmp._fit_quadratic(H, u0, delta, pmp.MaximizeOptions().fit_tol) is not None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(trees(), trees()), trees(), control_sets, states,
       st.sampled_from((-1.0, 0.0)))
def test_declared_degree_maximizes_bit_for_bit(dyn, cost, cset, xp, p0):
    declared = _quadratic_problem(dyn, cost, cset)
    undeclared = dataclasses.replace(declared, u_degree=None)
    x, p = np.array(xp[:M]), np.array(xp[M:])
    assume(np.isfinite(pmp.hamiltonian(declared, p0, p, x, np.zeros(K))))
    a = pmp.maximize_hamiltonian(declared, p0, p, x)
    b = pmp.maximize_hamiltonian(undeclared, p0, p, x)
    assert np.array_equal(a.u_star, b.u_star)
    assert a.value == b.value or (np.isnan(a.value) and np.isnan(b.value))
