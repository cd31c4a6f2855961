"""`flows.rk4_step`, the package's only RK4 step.

It runs the stage arithmetic on Python floats and hands the right-hand
side its stages as lists; `rk4_step_arrays` in `oracles.py` is the same
step on numpy arrays, and both must feed the right-hand side the same
stages and return the same bits (NaN compared as NaN), also at signed
zeros, subnormal and huge steps of either sign, and infinite or NaN
states.  A scan of the package's source holds the README's promise that no
second RK4 step exists beside it, that only three loops and the one step
that linearizes its stages call it, and that it makes no numpy call; that
the adjoint interpolates no state; and that the Hamiltonian maximizer has
one implementation, which shooting and `check_pmp` bind once.
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
from pmpkit import flows
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
        # the oracle hands its stages to f as float64 arrays, rk4_step as
        # lists of Python floats
        def rhs(tt, x):
            if side == "arrays":
                assert type(x) is np.ndarray and x.dtype == np.float64
            else:
                assert type(x) is list and all(type(v) is float for v in x)
            seen[side].append((tt, bits(x)))
            k = f(tt, np.array(x))
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


def test_rk4_step_makes_no_numpy_call():
    # its stages stay lists of floats: a right-hand side that needs an
    # array makes it itself
    with open(os.path.join(SRC, "flows.py")) as fh:
        tree = ast.parse(fh.read())
    (step,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "rk4_step"]
    # what each name in its body means in the module: not numpy, nor
    # anything numpy defines
    used = [getattr(flows, node.id, None) for node in ast.walk(step)
            if isinstance(node, ast.Name)]
    assert not [obj for obj in used
                if obj is np or (getattr(obj, "__module__", None) or "").startswith("numpy")]


def _top_functions():
    """(file name, top-level node) of every top-level statement of the package."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            yield os.path.basename(path), top


def _calls(node, name):
    return any(isinstance(n, ast.Call)
               and getattr(n.func, "id", getattr(n.func, "attr", None)) == name
               for n in ast.walk(node))


def test_rk4_step_runs_only_in_the_three_path_loops():
    # flows._recorded_step is the one step that linearizes its stages;
    # flows._lifted_path is the one forward path loop (simulate, flow and
    # the lifts) and steps each lifted vector on the stages it recorded;
    # pmp.adjoint_flows steps a block of covectors back on the stages of the
    # forward steps it retraces (pmp.adjoint_flow is its one-column case);
    # shooting._propagate picks its controls step by step, so it keeps its
    # own loop; grammar._rk4_step_code runs it on no path but once, on
    # symbolic operands, to write the generated step of expression dynamics
    found = set()
    for name, top in _top_functions():
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "rk4_step")
                    or (isinstance(node, ast.Attribute) and node.attr == "rk4_step")):
                found.add((name, getattr(top, "name", None)))
    assert found == {("flows.py", "_recorded_step"), ("flows.py", "_lifted_path"),
                     ("pmp.py", "adjoint_flows"), ("shooting.py", "_propagate"),
                     ("grammar.py", "_rk4_step_code")}


def test_rk4_stages_are_linearized_in_one_function():
    # a right-hand side that records something at each stage it is called
    # with (it appends) is written once, in flows._recorded_step; the lifts
    # and the adjoint both get their stage linearizations from it, so the
    # adjoint sees the stage states of the forward step
    recording, callers = set(), set()
    for name, top in _top_functions():
        if not isinstance(top, ast.FunctionDef):
            continue
        nested = [node for node in ast.walk(top) if node is not top
                  and isinstance(node, (ast.FunctionDef, ast.Lambda))]
        if _calls(top, "rk4_step") and any(_calls(node, "append") for node in nested):
            recording.add((name, top.name))
        if _calls(top, "_recorded_step"):
            callers.add((name, top.name))
    assert recording == {("flows.py", "_recorded_step")}
    assert callers == {("flows.py", "_lifted_path"), ("pmp.py", "adjoint_flows")}


def test_package_interpolates_no_state():
    # the adjoint retraces the stored steps, and check_pmp, the cones, the
    # perturbation vectors and the transport and reach checks read node
    # states (`control_system._event_path`): no module reads or defines a
    # state between grid nodes
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found += [(os.path.basename(path), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "state_at"
                  or isinstance(node, ast.FunctionDef) and node.name == "state_at"]
    assert not found


def test_package_has_one_hamiltonian_maximizer():
    # the quadratic fit, the axis maximum, the grid refinement and the pick
    # of the best candidate run only in the bound maximizer (grid refinement
    # picks the best of each grid by `_pick_best`), and shooting and
    # check_pmp bind it rather than calling the public wrapper per state
    helpers = {"_fit_quadratic", "_axis_max", "_grid_refine", "_pick_best"}
    helper_calls, public_calls = set(), set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            where = (os.path.basename(path), getattr(top, "name", None))
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in helpers:
                    helper_calls.add(where + (name,))
                elif name == "maximize_hamiltonian":
                    public_calls.add(where)
    assert {call[:2] for call in helper_calls} == {("pmp.py", "_maximizer"),
                                                   ("pmp.py", "_grid_refine")}
    assert {call[2] for call in helper_calls} == helpers
    assert not [where for where in public_calls
                if where[0] == "shooting.py" or where == ("pmp.py", "check_pmp")]
