"""Property tests of the expression grammar's exact derivatives and degree.

Expressions are drawn as small trees over x0, x1, u0, u1 and rendered to
grammar strings.  The oracles are central finite differences for the
partial derivatives, the maximizer's own three-probe fit check for the
degree analysis, and the undeclared maximizer path for the declared one.
Random trees and token soup as a problem file's dynamics and cost, run
through the CLI's simulate, shoot, cones and reach, must end in one of its
exit codes with no exception.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmpkit import cli, grammar, pmp
from pmpkit.control_system import _fd_jacobian

M, K = 2, 2
EXPONENTS = (0, 1, 2, 3, -1, 0.5, 1.5)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("^"), children, st.sampled_from(EXPONENTS)),
        st.tuples(st.sampled_from(("neg", "sin", "cos", "exp")), children))


def trees(m=M, k=K, names=None):
    """Expression trees over x0..x{m-1} and u0..u{k-1}, or over `names`."""
    names = names or [f"x{j}" for j in range(m)] + [f"u{j}" for j in range(k)]
    leaves = st.one_of(st.tuples(st.just("c"), st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))),
                       st.tuples(st.just("n"), st.sampled_from(names)))
    return st.recursive(leaves, _extend, max_leaves=8)


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
    gradient, _ = grammar.compile_gradient(src, M, K)
    exact = np.array(gradient(x, u))
    fd = _fd_jacobian(lambda y: np.array([fn(y, u)]), x).ravel()
    assert np.all(np.isfinite(exact)), src
    assert np.all(np.abs(exact - fd) <= 1e-6 * np.maximum(1.0, np.abs(exact))), \
        (src, exact, fd)


@pytest.mark.parametrize("src, degree", [
    ("1", 0), ("sin(x0) / x1", 0), ("u0 / (1 + x0)", 1), ("u0 * u1 + x0", 2),
    ("u0^2 * x0^3", 2), ("u0^3", 3), ("(1 + x0) / u0", None), ("u0^0.5", None),
    ("2^u0", None), ("u0^x0", None), ("sin(u0)", None)])
def test_degree_in_u(src, degree):
    assert grammar.compile_gradient(src, M, K)[1] == degree


def test_state_in_exponent_keeps_finite_differences():
    gradient, degree = grammar.compile_gradient("x0^x1 + u0", M, K)
    assert gradient is None and degree == 1
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

    probes = pmp._probes(sys.control_set)
    assume(np.isfinite(H(probes.u0)))
    assert pmp._fit_quadratic([H(u) for u in probes.points], probes, pmp.FIT_TOL, H) is not None


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


# the grammar's tokens, some it rejects, and literals at and past the float range
TOKENS = ("x0", "x1", "x2", "u0", "u1", "q0", "+", "-", "*", "/", "^", "**", "(", ")",
          "sin", "cos", "exp", "log", "0", "1", "0.5", "1e308", "1" + "0" * 400,
          "nan", "inf", ",", ".", "lambda", "__import__")
soup = st.tuples(st.lists(st.sampled_from(TOKENS), max_size=12),
                 st.sampled_from(("", " "))).map(lambda t: t[1].join(t[0]))
# two trees for one soup, so that most problems reach the solvers
expressions = st.one_of(trees(2, 1).map(render), trees(2, 1).map(render), soup)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("simulate", "shoot", "cones", "reach")),
       st.lists(expressions, min_size=2, max_size=2), st.one_of(st.none(), expressions))
def test_fuzzed_problem_exits_with_a_cli_code(command, dynamics, cost):
    # bad input exits 2 and a numerical failure 3; no error escapes main,
    # also where the cones sweep random dynamics back or reach samples them,
    # nor where check reads what shoot wrote (nothing, where shoot exited 2)
    data = {"dynamics": {"expressions": dynamics},
            "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "horizon": {"a": 0.0, "b": 1.0}, "integrator": {"step": 0.1},
            "control": {"switch_times": [0.5], "values": [[1.0], [-1.0]]},
            "boundary": {"mode": "fixed_time", "initial": {"point": [0.5, 0.0]},
                         "final": {"anchor": [0.0, 0.0], "normals": []}},
            "shooting": {"max_iter": 1},
            "cones": {"time": 1.0, "times": [0.3, 0.7], "controls": [[-1.0], [0.0], [1.0]],
                      "queries": [[1.0, 0.0], [0.0, -1.0]]},
            "reach": {"n_controls": 3, "max_switches": 2, "seed": 0}}
    if cost is not None:
        data["cost"] = {"expression": cost}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "problem.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(d, "out")
        rc = cli.main([command, "--problem", path, "--out", out])
        if command == "shoot":
            assert cli.main(["check", "--problem", path, "--out", out]) in (0, 1, 2, 3)
    assert rc in (0, 2, 3)
