"""`flows.rk4_step`, the package's only RK4 step.

It runs the stage arithmetic on Python floats; `rk4_step_arrays` in
`oracles.py` is the same step on numpy arrays, and both must feed the
right-hand side the same stages and return the same bits (NaN compared as
NaN), also at signed zeros, subnormal and huge steps of either sign, and
infinite or NaN states.  A scan of the package's source holds the README's
promise that no second RK4 step exists beside it, and that only three
loops call it.
"""

import ast
import glob
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import rk4_step_arrays
from pmpkit.flows import rk4_step

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "pmpkit")


def bits(v):
    """The bytes of v as a float array with each NaN made the one NaN.

    CPython 3.11 may flip the sign of a NaN made from two NaNs once it has
    specialized the instruction, so NaN signs are not compared."""
    a = np.array(v, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.shape, a.tobytes()


entries = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                     math.inf, -math.inf, math.nan)))
steps = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from((0.01, -0.01, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     1e300, -1e300)))


@st.composite
def cases(draw):
    """(f, t, y, h): a linear-plus-quadratic right-hand side in m = 1..6
    whose coefficients include zeros of both signs and huge values."""
    m = draw(st.integers(1, 6))
    y = [draw(entries) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-2.0, 2.0, (m, m))
    A[rng.random((m, m)) < 0.3] = draw(st.sampled_from((0.0, -0.0, 1e300)))
    q = rng.uniform(-1.0, 1.0, m)
    c = draw(st.sampled_from((0.0, -0.0, 1.0, -1e300)))

    def f(t, x):
        return A @ x + q * x * x + c * math.cos(t)

    t = draw(st.sampled_from((0.0, -0.0, 0.75, -2.5, 1e300)))
    return f, t, y, draw(steps)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(cases())
def test_float_step_matches_array_step_bit_for_bit(case):
    f, t, y, h = case
    seen = {"arrays": [], "floats": []}

    def recorded(side):
        def rhs(tt, x):
            assert type(x) is np.ndarray and x.dtype == np.float64
            seen[side].append((tt, bits(x)))
            k = f(tt, x)
            return k if side == "arrays" else k.tolist()
        return rhs

    with np.errstate(all="ignore"):
        k1 = f(t, np.array(y))
        want = rk4_step_arrays(recorded("arrays"), t, np.array(y), h, k1)
        got = rk4_step(recorded("floats"), t, list(y), h, k1.tolist())
    assert type(got) is list and all(type(v) is float for v in got)
    assert bits(got) == bits(want)
    assert seen["floats"] == seen["arrays"]


@pytest.mark.parametrize("k", [[1.0, 2.0, 3.0], [1.0]])
def test_right_hand_side_of_the_wrong_length_raises(k):
    # numpy's broadcasting used to reject an f(t, y) of length 3 for a
    # state of length 2; the float step must not drop the extra entry
    with pytest.raises(ValueError):
        rk4_step(lambda t, x: list(k), 0.0, [0.0, 0.0], 0.1, list(k))


def _doubled(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == 2
                    for side in (node.left, node.right)))


def rk4_combinations(source):
    """Names of the functions holding an RK4 stage combination: a sum of
    four terms, two of them doubled, as in k1 + 2 k2 + 2 k3 + k4."""
    found = []

    def terms(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return terms(node.left) + terms(node.right)
        return [node]

    def visit(node, func, in_sum):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        is_sum = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        if is_sum and not in_sum:
            parts = terms(node)
            if len(parts) == 4 and sum(map(_doubled, parts)) == 2:
                found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func, is_sum)

    visit(ast.parse(source), None, False)
    return found


def test_scan_finds_the_combinations_of_the_oracles():
    # the scan is not vacuous: it sees every plain RK4 loop kept as an oracle
    found = set(rk4_combinations(inspect.getsource(oracles)))
    assert {"rk4_step_arrays", "adjoint_flow_loop", "tangent_lift_stacked",
            "rk4_blow_up_time"} <= found


def test_package_has_one_rk4_step():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found += [(os.path.basename(path), func) for func in rk4_combinations(fh.read())]
    assert found == [("flows.py", "rk4_step")]


def test_rk4_step_runs_only_in_the_three_path_loops():
    # flows._lifted_path is the one forward path loop (simulate, flow and
    # the lifts); the backward adjoint and the shooting propagation, which
    # picks its controls step by step, keep their own
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == "rk4_step")
                        or (isinstance(node, ast.Attribute) and node.attr == "rk4_step")):
                    found.add((os.path.basename(path), getattr(top, "name", None)))
    assert found == {("flows.py", "_lifted_path"), ("pmp.py", "adjoint_flow"),
                     ("shooting.py", "_propagate")}
