"""`flows.rk4_step`, the package's only RK4 step.

It runs the stage arithmetic on Python floats and hands the right-hand
side its stages as lists; `rk4_step_arrays` in `oracles.py` is the same
step on numpy arrays, and both must feed the right-hand side the same
stages and return the same bits (NaN compared as NaN), also at signed
zeros, subnormal and huge steps of either sign, and infinite or NaN
states.  A scan of the package's source holds the README's promise that no
second RK4 step exists beside it, that only three loops and the one step
that linearizes its stages call it, and that it makes no numpy call; that
the adjoint interpolates no state; that only the rank rule calls numpy's
SVD; that the Hamiltonian maximizer has one implementation, which
shooting and `check_pmp` bind once, and whose fit reads values; that no
numpy product pairs a covector with a rate or a Jacobian; and that the
ordered sum of those pairings is written once, in `flows._dot`.  The scan
reads the templates of generated code in the package too.
"""

import ast
import glob
import inspect
import math
import os
import string

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


def _templates(tree):
    """The parsed code of each string of tree that is a template of Python
    code: a string that parses once each of its `str.format` fields reads
    as a name."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        try:
            yield ast.parse("".join(literal + ("" if field is None else f"_{field or 'f'}")
                                    for literal, field, _, _ in
                                    string.Formatter().parse(node.value)))
        except (SyntaxError, ValueError):
            continue


def rk4_combinations(source):
    """Names of the functions holding an RK4 stage combination: a sum of
    four terms, two of them doubled, as in k1 + 2 k2 + 2 k3 + k4, in source
    or in a template in it (None outside a function)."""
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

    tree = ast.parse(source)
    for code in (tree, *_templates(tree)):
        visit(code, None, False)
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


def _generated_tops():
    """(file name, top-level node) of every top-level statement of the
    templates of generated code in the package."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for template in _templates(tree):
            for top in template.body:
                yield os.path.basename(path), top


def _top_functions():
    """(file name, top-level node) of every top-level statement of the
    package and of its templates of generated code."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            yield os.path.basename(path), top
    yield from _generated_tops()


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
    # shooting._propagator picks its controls step by step, and steps by the
    # pair of shooting._coupled_field, whose fallback is rk4_step;
    # grammar._rk4_step_code runs it on no path but once, on symbolic
    # operands, to write the generated steps of expression dynamics
    found = set()
    for name, top in _top_functions():
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "rk4_step")
                    or (isinstance(node, ast.Attribute) and node.attr == "rk4_step")):
                found.add((name, getattr(top, "name", None)))
    assert found == {("flows.py", "_recorded_step"), ("flows.py", "_lifted_path"),
                     ("pmp.py", "adjoint_flows"), ("shooting.py", "_coupled_field"),
                     ("grammar.py", "_rk4_step_code")}


def test_costate_rate_is_written_once():
    # -dH/dx = c grad_x F - (df/dx)^T p is written once, in pmp._costate:
    # the adjoint and shooting's fallback coupled field both call it, so no
    # other function reads both a system's Jacobian and its cost gradient
    found = set()
    for name, top in _top_functions():
        loads = {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and node.attr in ("_jac", "_grad")}
        if len(loads) == 2:
            found.add((name, getattr(top, "name", None)))
    assert found == {("pmp.py", "_costate")}


def test_rk4_stages_are_linearized_in_one_function():
    # a right-hand side that records something at each stage it is called
    # with (it appends) is written once, in flows._recorded_step; the lifts
    # and the adjoint both get their stage linearizations from it, so the
    # adjoint sees the stage states of the forward step, and
    # grammar._adjoint_run_code runs it once on symbolic operands to write
    # the generated adjoint sweep
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
    assert callers == {("flows.py", "_lifted_path"), ("pmp.py", "adjoint_flows"),
                       ("grammar.py", "_adjoint_run_code")}


def test_svd_runs_only_in_the_rank_rule():
    # every rank, null space and orthogonal complement the package takes
    # comes from cone_geometry.rank_split, the one place that calls
    # np.linalg.svd and counts singular values above its tolerance
    found = set()
    for name, top in _top_functions():
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "svd"):
                found.add((name, getattr(top, "name", None), ast.unparse(node.func)))
    assert found == {("cone_geometry.py", "rank_split", "np.linalg.svd")}


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
    # the quadratic fit, the separable decision (the axis maximum per axis),
    # the grid refinement and the pick of the best candidate run only in
    # the bound maximizer (grid refinement picks the best of each grid by
    # `_pick_best`, and `_axis_maxima` takes `_axis_max` per axis), and
    # shooting and check_pmp bind it rather than calling the public
    # wrapper per state.  The one other user of the fit and of the decision
    # is the grammar's tracer, which runs them on operands to write the
    # generated probe fit and the generated arc loop's decision, with
    # `_axis_max` bound for the generated code to call
    helpers = {"_fit_quadratic", "_axis_maxima", "_axis_max", "_grid_refine", "_pick_best"}
    helper_calls, public_calls = set(), set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            where = (os.path.basename(path), getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in helpers:
                    helper_calls.add(where + (node.id,))
                elif (isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)) == "maximize_hamiltonian"):
                    public_calls.add(where)
    traced = {("grammar.py", "_probe_fit_code", "_fit_quadratic"),
              ("grammar.py", "_arc_code", "_axis_maxima"), ("grammar.py", None, "_axis_max")}
    assert traced <= helper_calls
    helper_calls -= traced
    assert {call[:2] for call in helper_calls} == {("pmp.py", "_maximizer"),
                                                   ("pmp.py", "_grid_refine"),
                                                   ("pmp.py", "_axis_maxima")}
    assert {call[2] for call in helper_calls} == helpers
    assert not [where for where in public_calls
                if where[0] == "shooting.py" or where == ("pmp.py", "check_pmp")]


def _innermost(top):
    """(node, name of the innermost function that holds it) of each node
    under the top-level statement top."""
    stack = [(top, getattr(top, "name", None))]
    while stack:
        node, where = stack.pop()
        yield node, where
        stack += [(child, child.name if isinstance(child, ast.FunctionDef) else where)
                  for child in ast.iter_child_nodes(node)]


def test_maximizer_fits_values_once():
    # the quadratic fit and the separable decision run on floats only in
    # the bound maximizer, and the fit reads values: it evaluates H only at
    # the three probes that verify it.  Their one other user is the
    # grammar's tracer, which runs them on operands
    def uses(helper):
        return {(name, top.name) for name, top in _top_functions() for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == helper}

    assert uses("_fit_quadratic") == {("pmp.py", "_maximizer"), ("grammar.py", "_probe_fit_code")}
    assert uses("_axis_maxima") == {("pmp.py", "_maximizer"), ("grammar.py", "_arc_code")}
    fit = next(top for name, top in _top_functions()
               if name == "pmp.py" and getattr(top, "name", None) == "_fit_quadratic")
    evaluations = [ast.unparse(node) for node in ast.walk(fit)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "H"]
    assert evaluations == ["H(probe)"]


def _products(top):
    """(innermost function, text) of each numpy product under top: an `@`,
    or a call of dot, einsum, vecdot, inner or matmul."""
    for node, where in _innermost(top):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield where, ast.unparse(node)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                "dot", "einsum", "vecdot", "inner", "matmul"):
            yield where, ast.unparse(node)


def test_no_numpy_product_pairs_a_covector_with_a_rate_or_a_jacobian():
    # the Hamiltonian, the costate rate, the lifts, shooting's coupled
    # field and check_pmp's pairings all take `flows._dot`, so their bits
    # depend on no BLAS.  The numpy products left in pmp, shooting and flows
    # pair no covector with a rate or a Jacobian: the fit's verification
    # model (its gradient and Hessian with a control offset), and
    # shooting's residual (a state mismatch projected on a complement, and
    # the transversality of p with the tangent vectors of a boundary)
    found = {(name, where, text) for name, top in _top_functions()
             if name in ("pmp.py", "shooting.py", "flows.py") for where, text in _products(top)}
    assert found == {
        ("pmp.py", "model", "bv @ d"), ("pmp.py", "model", "0.5 * d @ A"),
        ("pmp.py", "model", "0.5 * d @ A @ d"),
        ("shooting.py", "_residual", "comp.T @ (prop.x_b - problem.x_b)"),
        ("shooting.py", "_residual", "prop.p_b @ np.asarray(w, float)"),
        ("shooting.py", "_residual", "p_a @ np.asarray(w, float)"),
    }


def _sums_products(node, generated=False):
    """Whether node adds up products: s += a * b into a name, or s += v for
    v over a map of a multiplication; a sum, fsum,
    sumprod or reduce of products, or of a sequence of them; the grammar's
    writing of an addition whose terms hold a written product; or, in
    generated code, an addition of a product."""
    def product(n):
        if isinstance(n, (ast.GeneratorExp, ast.ListComp)):
            n = n.elt
        return isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)

    def written(n, op):
        return (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_written"
                and bool(n.args) and isinstance(n.args[0], ast.Constant) and n.args[0].value == op)

    def accumulates(n):
        return (isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
                and isinstance(n.target, ast.Name))

    if generated and isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return product(node.left) or product(node.right)
    if accumulates(node):
        return product(node.value)
    if isinstance(node, ast.For):
        return any(getattr(n, "attr", getattr(n, "id", None)) == "mul"
                   for n in ast.walk(node.iter)) and any(map(accumulates, node.body))
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    if name in ("sum", "fsum", "sumprod", "reduce"):
        return any(map(product, node.args)) or name == "sumprod"
    return written(node, "+") and any(written(n, "*") for n in ast.walk(node))


def test_ordered_sum_is_written_once():
    # every pairing of a covector with a rate, a Jacobian column or a
    # tangent vector is `flows._dot`, run on floats or, by the grammar, on
    # symbolic values: no other function of the package adds up products,
    # and _dot uses no builtin sum (compensated from Python 3.12 on), fsum
    # or sumprod (extended-precision)
    writers = {(name, where) for name, top in _top_functions()
               for node, where in _innermost(top) if _sums_products(node)}
    writers |= {(name, where) for name, top in _generated_tops()
                for node, where in _innermost(top) if _sums_products(node, generated=True)}
    assert writers == {("flows.py", "_dot")}
    dot = next(top for name, top in _top_functions()
               if name == "flows.py" and getattr(top, "name", None) == "_dot")
    assert not [node for node in ast.walk(dot) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("sum", "fsum", "sumprod")]


def test_guards_see_the_forms_they_forbid():
    # the scans are not vacuous: they see a numpy pairing of p with a rate,
    # the old Python forms of the ordered sum, its writing by the grammar
    # and a template that writes it or an RK4 combination out
    top = ast.parse("def H(u):\n    return float(pa @ np.array(rate(x, u)))\n").body[0]
    assert list(_products(top)) == [("H", "pa @ np.array(rate(x, u))")]
    for source in ("s = 0.0\nfor v in map(operator.mul, p, r):\n    s += v",
                   "q = sum((J[k] * p[k] for k in range(m)), 0.0)",
                   "s = _written('+', [(s, 1), (_written('*', [pi, f]), 2)])"):
        assert any(map(_sums_products, ast.walk(ast.parse(source)))), source
    template = ('_H = """\\\ndef H({p}, f):\n'
                '    return {p0f} * F + {p}[0] * f[0] + {p}[1] * f[1]"""')
    assert [any(_sums_products(node, generated=True) for node in ast.walk(code))
            for code in _templates(ast.parse(template))] == [True]
    assert rk4_combinations('_STEP = "{y} + {h} / 6.0 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"') \
        == [None]
