"""Generated grammar functions against the closure-tree interpreter.

Every value, partial derivative, dynamics vector, Jacobian and cost
gradient that `pmpkit.grammar` generates must carry the bits of the tree
interpreter in `oracles.py`, so arrays are compared through `.tobytes()`
with NaN equal to NaN.  Expressions are the random trees of the grammar property
tests; the points mix ordinary values with ones that divide by zero,
overflow `exp`, raise a negative base to a fractional power and take
`sin(inf)`.  The generated RK4 step of a dynamics must carry the bits of
`flows.rk4_step` on the generated dynamics, and the generated coupled
(x, p) stage and step those of the fallback pair of shooting's
`_coupled_field`, `flows.rk4_step` on f and `pmp._costate`, wherever that
is finite; the source scan of `test_rk4_step.py` must see in both RK4's
combination and no numpy call.  The generated adjoint sweep must carry the
bits of `pmp.adjoint_flows` on the same system with f wrapped as a plain
function, and raise `FlowBlowUpError` at the same time, on dense Jacobians
too; the benchmark's systems and every system with generated derivatives
must get it, and the others must not.  Every form compiled for trees of
one shape and bound to other trees' numbers must carry the bits of a fresh
compile of those trees.  Generated code is text: the package's numbers
read back from it with their bits, an ordered sum of any length compiles,
a traceback shows the generated line, and a compile leaves no cyclic
garbage and holds its text in `linecache` only while it is kept.
"""

import ast
import gc
import inspect
import linecache
import math
import os
import re
import struct
import traceback
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import grammar_tree_array, grammar_tree_function
from pmpkit import cli, grammar, pmp
from pmpkit.control_system import ControlSignal, ControlSystem, Trajectory, box, extend, simulate
from pmpkit.flows import FlowBlowUpError, IntegratorConfig, _dot, _runs, rk4_step
from test_grammar_properties import K, M, render, trees
from test_list_rate import fallback_field, plain
from test_rk4_step import rk4_combinations

SPECIAL = (0.0, -0.0, 800.0, -800.0, -2.0, math.inf, -math.inf, math.nan)
coordinates = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL))
points = st.lists(coordinates, min_size=M + K, max_size=M + K)


def forget_compiles():
    """Drop every compile the grammar keeps in this process: the ones kept
    per text and the ones kept per shape, which later trees of the same
    shape would otherwise share."""
    for cache in (grammar.compile_dynamics, grammar.parse_expression, grammar.compile_gradient):
        cache.cache_clear()
    grammar._FORMS.clear()


def bits(v):
    """The bytes of v with each NaN replaced by the one canonical NaN.

    The sign of a NaN that an operation makes from two NaNs depends on
    whether CPython has specialized that bytecode instruction yet (it does
    after a few runs), so it differs between two runs of one function.
    Every other bit, the sign of zero included, is compared.
    """
    a = np.array(v, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def oracle_partials(body):
    """The tree interpreter's partials of one validated tree (a float when
    constant), or None when a state is in an exponent."""
    if not grammar._exact(body):
        return None
    partials = [grammar._derivative(body, j) for j in range(M)]
    return [float(d.value) if grammar._is_num(d) else grammar_tree_function(d)
            for d in partials]


def check_against_oracle(srcs, x, u):
    bodies = [grammar._tree(src, M, K, "expression") for src in srcs]
    trees_ = [grammar_tree_function(b) for b in bodies]
    rows = [oracle_partials(b) for b in bodies]

    for src, tree, row in zip(srcs, trees_, rows):
        assert bits(grammar.parse_expression(src, M, K)(x, u)) == bits(tree(x, u)), src
        gradient, _ = grammar.compile_gradient(src, M, K)
        assert (gradient is None) == (row is None), src
        if row is not None:
            assert bits(gradient(x, u)) == bits(grammar_tree_array(row, (M,))(x, u)), src

    f, df_dx, _ = grammar.compile_dynamics(tuple(srcs), M, K)
    # the dynamics vector is a list of Python floats, the same bits as the
    # array the interpreter's values make
    value = f(x, u)
    assert type(value) is list and len(value) == M
    assert all(type(v) is float for v in value), srcs
    assert bits(np.array(value)) == bits(np.array([tree(x, u) for tree in trees_])), srcs
    if any(row is None for row in rows):
        assert df_dx is None
    else:
        J = df_dx(x, u)
        assert J.shape == (M, M)
        want = grammar_tree_array([d for row in rows for d in row], (M, M))(x, u)
        assert bits(J) == bits(want), srcs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(trees(), min_size=M, max_size=M), points)
def test_generated_functions_match_tree_interpreter(ts, pt):
    check_against_oracle([render(t) for t in ts], np.array(pt[:M]), np.array(pt[M:]))


@pytest.mark.parametrize("srcs, x", [
    (["x0 / x1", "u0 - x0 / (x1 * u1)"], [1.0, 0.0]),          # division by zero
    (["exp(x0) + x1", "x1 * exp(x0 * x0)"], [800.0, 1.0]),     # exp overflow
    (["x0^0.5 + u0", "(x0 - x1)^1.5 * u1"], [-2.0, 1.0]),      # no real power
    (["sin(x0) * u0", "cos(x1 + x0) - x0"], [math.inf, 0.5]),  # sin(inf)
    (["2^x0 + u0", "x1^x0"], [1.5, -0.5]),                     # state in an exponent
])
def test_non_finite_cases_match_tree_interpreter(srcs, x):
    u = np.array([0.5, -1.0])
    f, _, _ = grammar.compile_dynamics(tuple(srcs), M, K)
    assert np.isnan(f(np.array(x), u)).any()
    check_against_oracle(srcs, np.array(x), u)


def with_unary_plus(src):
    """src with a unary plus before each name and each call."""
    return re.sub(r"\b([xu]\d+|sin\(|cos\(|exp\()", r"+\1", src)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(trees(), min_size=M, max_size=M), points)
def test_unary_plus_compiles_to_the_bits_of_the_plain_expression(ts, pt):
    # the dynamics, its Jacobian and RK4 runner, and each gradient
    plain = tuple(render(t) for t in ts)
    plus = tuple(map(with_unary_plus, plain))
    x, u = np.array(pt[:M]), np.array(pt[M:])
    (f, df, degree), (g, dg, plus_degree) = (grammar.compile_dynamics(srcs, M, K)
                                             for srcs in (plain, plus))
    assert plus_degree == degree
    assert bits(g(x, u)) == bits(f(x, u)), plus
    assert (dg is None) == (df is None)
    if df is not None:
        assert bits(dg(x, u)) == bits(df(x, u)), plus
    runs = [[], []]
    nodes = [fn.runner()(pt[:M], [pt[M:]], [(0, 2, 0)], [0.0, 0.1, 0.25], xs)
             for fn, xs in zip((f, g), runs)]
    assert nodes[1] == nodes[0]
    assert [bits(v) for v in runs[1]] == [bits(v) for v in runs[0]], plus
    for src in plain:
        grad, grad_plus = (grammar.compile_gradient(s, M, K)[0]
                           for s in (src, with_unary_plus(src)))
        assert (grad_plus is None) == (grad is None)
        if grad is not None:
            assert bits(grad_plus(x, u)) == bits(grad(x, u)), src


def test_constant_jacobian_entries_keep_their_sign():
    # d(-x1)/dx0 folds to -0.0, which the generated Jacobian must return
    _, df_dx, _ = grammar.compile_dynamics(("-x1", "0.1 + 0.2 * x0"), M, K)
    J = df_dx(np.array([1.0, 2.0]), np.zeros(K))
    assert bits(J) == bits([[-0.0, -1.0], [0.2, 0.0]])


def generated_statements(src):
    """The number of statements generated for d/dx0 of one expression."""
    code = grammar._Code()
    value = code.entry(grammar._derivative(grammar._tree(src, M, K, "expression"), 0))
    (fn,) = ast.parse(code.define("d", ("x", "u"), value.expr()).source).body
    return sum(len(stmt.body) for stmt in fn.body if isinstance(stmt, ast.Try))


def test_shared_derivative_subtrees_are_emitted_once():
    # d(a x0) = da x0 + a reuses the product a of the earlier factors, so
    # emitting each occurrence grew with the square of the chain length
    chains = {n: "*".join(["x0"] * n) for n in (25, 50, 100)}
    counts = {n: generated_statements(src) for n, src in chains.items()}
    assert counts[100] - counts[50] == 2 * (counts[50] - counts[25])
    for src in chains.values():
        body = grammar._tree(src, M, K, "expression")
        want = grammar_tree_function(grammar._derivative(body, 0))
        gradient, _ = grammar.compile_gradient(src, M, K)
        for x0 in (1.0, 1.01, -1.3, 0.0, -0.0, 1e10, math.inf, math.nan):
            x, u = np.array([x0, 0.5]), np.zeros(K)
            assert bits(gradient(x, u)[0]) == bits(want(x, u)), (src, x0)


states = st.one_of(coordinates, st.sampled_from((1e300, -1e300)))
steps = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from((0.01, -0.01, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     1e300, -1e300)))


def entries(m, k):
    """A dynamics entry in x0..x{m-1} and u0..u{k-1}: a random tree, a
    constant, or a tree that reads no state."""
    controls = [f"u{j}" for j in range(k)]
    return st.one_of(st.builds(render, trees(m, k)),
                     st.sampled_from(("0", "1.5", "(-2.0)")),
                     st.builds(render, trees(names=controls)) if controls else st.just("3.0"))


@st.composite
def run_cases(draw):
    """(srcs, m, k, x, u, ts, i0, i1): a dynamics of m = 1..3 entries in
    k = 0..2 controls, a state with signed zeros, infinities, NaN and huge
    entries, a control, and a grid of 1..5 uneven steps, each of either
    sign, subnormal or huge, with a run from node i0 to node i1 > i0."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    srcs = draw(st.lists(entries(m, k), min_size=m, max_size=m))
    x = draw(st.lists(states, min_size=m, max_size=m))
    u = draw(st.lists(coordinates, min_size=k, max_size=k))
    ts = [draw(st.sampled_from((0.0, -0.0, 1.0, -3.5)))]
    for h in draw(st.lists(steps, min_size=1, max_size=5)):
        ts.append(ts[-1] + h)
    i0 = draw(st.integers(0, len(ts) - 2))
    return srcs, m, k, x, u, ts, i0, draw(st.integers(i0 + 1, len(ts) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_cases())
def test_generated_step_matches_rk4_step_bit_for_bit(case):
    srcs, m, k, x, u, ts, i0, i1 = case
    f, _, _ = grammar.compile_dynamics(tuple(srcs), m, k)
    # signal_field hands the dynamics a piece's control as an array and the
    # runner the same control as a list; each step of the run is one
    # rk4_step by ts[i + 1] - ts[i] from the state the step before it left,
    # and the run stops at the first node whose state is not finite
    u_array = np.array(u)
    want, want_node, y = [], None, x
    for i in range(i0, i1):
        y = rk4_step(lambda t, v: f(v, u_array), ts[i], y, ts[i + 1] - ts[i], f(y, u_array))
        want.append(y)
        if not all(map(math.isfinite, y)):
            want_node = i + 1
            break
    xs, ends = [], []
    node = f.runner()(x, [u], [(i0, i1, 0)], ts, xs)
    assert all(type(v) is list and all(type(c) is float for c in v) for v in xs)
    assert len(xs) == len(want) and all(bits(g) == bits(w) for g, w in zip(xs, want)), case
    assert node == want_node, case
    # the endpoint form takes the same steps and keeps only the last state
    assert f.runner(True)(x, [u], [(i0, i1, 0)], ts, ends) == node
    assert len(ends) == 1 and bits(ends[0]) == bits(xs[-1]), case


@pytest.mark.parametrize("srcs", [["-x0 + u0"], ["x1", "-sin(x0) + u0"],
                                  ["x1 * x2", "2 * x0 - u0", "x0^2 / (1 + x2)"]])
def test_generated_step_is_one_rk4_step_without_numpy(srcs):
    m = len(srcs)
    bodies = [grammar._tree(src, m, 1, "expression") for src in srcs]
    _, step = grammar._dynamics_run_code(bodies, 1)
    # one RK4 combination k1 + 2 k2 + 2 k3 + k4 per state component
    assert rk4_combinations(step.source) == ["dynamics_run"] * m
    used = [grammar._GLOBALS.get(node.id) for node in ast.walk(ast.parse(step.source))
            if isinstance(node, ast.Name)]
    assert not [obj for obj in used
                if obj is np or (getattr(obj, "__module__", None) or "").startswith("numpy")]


costates = st.one_of(coordinates, st.sampled_from((5e-324, -5e-324, 1e-310, 1e300, -1e300)))


@st.composite
def coupled_step_cases(draw):
    """(sys, p0, y, u, h, single): a generated system with m = 1..3 whose
    cost is absent, generated, or has a state in an exponent (so that its
    gradient is not generated), with (x, p), u and h as for the dynamics
    step.  When single, component i of the dynamics reads only x_s(i) of
    the states for a permutation s, so every Jacobian column has at most
    one entry that is not 0; else it reads any state, and a column may
    have several."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    controls = [f"u{j}" for j in range(k)]
    single = draw(st.booleans())
    if single:
        perm = draw(st.permutations(range(m)))
        srcs = [render(draw(trees(names=[f"x{perm[i]}"] + controls))) for i in range(m)]
    else:
        srcs = [render(draw(trees(m, k))) for _ in range(m)]
    f, df_dx, _ = grammar.compile_dynamics(tuple(srcs), m, k)
    F = dF = None
    cost = draw(st.sampled_from(("none", "generated", "state_exponent")))
    if cost != "none":
        src = render(draw(trees(m, k)))
        if cost == "state_exponent":
            src = f"2^x{draw(st.integers(0, m - 1))} + ({src})"
        F = grammar.parse_expression(src, m, k)
        dF, _ = grammar.compile_gradient(src, m, k)
    sys = ControlSystem(m=m, k=k, f=f, control_set=box([-2.0] * k, [2.0] * k),
                        F=F, df_dx=df_dx, dF_dx=dF)
    y = draw(st.lists(states, min_size=m, max_size=m)) + \
        draw(st.lists(costates, min_size=m, max_size=m))
    u = draw(st.lists(coordinates, min_size=k, max_size=k))
    return sys, draw(st.sampled_from((-1.0, 0.0))), y, u, draw(steps), single


def all_finite(v):
    return all(map(math.isfinite, v))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coupled_step_cases())
def test_generated_coupled_step_matches_rk4_step_on_coupled_rhs(case):
    sys, p0, y, u, h, single = case
    m = sys.m
    generated = sys.f.coupled_step(sys.df_dx, sys.F, sys.dF_dx)
    # every system with generated derivatives gets the generated step
    exact = sys.df_dx is not None and (sys.F is None or sys.dF_dx is not None)
    assert (generated is not None) == exact
    if generated is None:
        return
    stage, step = generated
    # shooting hands both pairs the maximizer's control as a list; the
    # fallback hands its callables the float64 array of it
    fallback_stage, fallback_step = fallback_field(sys, p0)
    with np.errstate(all="ignore"):
        k1 = fallback_stage(y, u, -p0)
        want = fallback_step(y, u, h, k1, -p0)
    got_k1 = stage(y, u, -p0)
    got = step(y, u, h, got_k1, -p0)
    for g, w in ((got_k1, k1), (got, want)):
        assert type(g) is list and len(g) == 2 * m and all(type(v) is float for v in g)
        if all_finite(w):
            assert bits(g) == bits(w), (p0, y, u, h)
        else:
            # all that shooting reads of a step that is not finite
            assert not all_finite(g), (p0, y, u, h)


# per kind of sweep case: its states and controls, steps, and block entries;
# a rough block's products with a Jacobian entry round to a signed zero or
# overflow, a tiny one's with a Jacobian entry +-1e-200 underflow
smooth = st.floats(-2.0, 2.0)
KINDS = {
    "smooth": (smooth, smooth, (0.25, 0.1, 1e-3), smooth),
    "rough": (states, coordinates, (0.25, 0.1, 1e-3, 3e-310, 1e300), st.one_of(
        smooth, st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-200, 1e300, -1e300,
                                 math.inf, math.nan)))),
    "tiny": (smooth, coordinates, (0.25, 0.1, 1e-3), st.sampled_from((-0.0, 1e-200, -1e-200))),
}


@st.composite
def sweep_cases(draw):
    """(sys, traj, P_b, p0): a generated system of m = 1..3 entries with no
    cost or a generated one; node states and a control on a grid of 1..5
    uneven steps with switches at 0..2 inner nodes; an m x r block, r =
    1..3, and p0 per column in {0.0, -1.0}.  A smooth case is finite
    throughout; a rough one mixes signed zeros, subnormals, huge and
    non-finite numbers into the states, the control, the steps and the
    block; in a tiny one the system has no cost, component i is +-1e-200
    x_s(i) plus a tree of the controls, the block's entries are -0.0 and
    +-1e-200 and p0 is 0.0, so that products underflow to signed zeros,
    and their signs reach the block.  Component i reads only x_s(i) for a
    permutation s, so that every Jacobian column has at most one entry
    that is not 0, or, when dense, any state; a linear case is x' = A x +
    B u with a dense A, as the builtin `linear_system` is, written as
    expressions."""
    m, k, r = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(sorted(KINDS)))
    state, control, steps_, entry = KINDS[kind]
    controls = [f"u{j}" for j in range(k)]
    perm = draw(st.permutations(range(m)))
    columns = draw(st.sampled_from(("single", "dense", "linear")))
    if kind == "tiny":
        srcs = [f"{draw(st.sampled_from(('1e-200', '-1e-200')))} * x{perm[i]}"
                f" + ({render(draw(trees(names=controls)))})" for i in range(m)]
    elif columns == "linear":
        srcs = [" + ".join([f"({draw(smooth)!r})*x{j}" for j in range(m)]
                           + [f"({draw(smooth)!r})*u{j}" for j in range(k)]) for _ in range(m)]
    elif columns == "dense":
        srcs = [render(draw(trees(m, k))) for _ in range(m)]
    else:
        srcs = [render(draw(trees(names=[f"x{perm[i]}"] + controls))) for i in range(m)]
    f, df_dx, _ = grammar.compile_dynamics(tuple(srcs), m, k)
    F = dF = None
    if kind != "tiny" and draw(st.booleans()):
        src = render(draw(trees(m, k)))
        F = grammar.parse_expression(src, m, k)
        dF, _ = grammar.compile_gradient(src, m, k)
    sys = ControlSystem(m=m, k=k, f=f, control_set=box([-2.0] * k, [2.0] * k),
                        F=F, df_dx=df_dx, dF_dx=dF)
    ts = [draw(st.sampled_from((0.0, 1.0, -3.5)))]
    ts.append(ts[0] + draw(st.sampled_from((0.25, 0.7))))
    for h in draw(st.lists(st.sampled_from(steps_), max_size=4)):
        # a subnormal step moves no time but 0.0
        if ts[-1] + h > ts[-1]:
            ts.append(ts[-1] + h)
    inner = sorted(draw(st.sets(st.sampled_from(ts[1:-1]), max_size=2))) if len(ts) > 2 else []
    values = [tuple(draw(st.lists(control, min_size=k, max_size=k)))
              for _ in range(len(inner) + 1)]
    signal = ControlSignal(ts[0], ts[-1], tuple(inner), tuple(values))
    nodes = [draw(st.lists(state, min_size=m, max_size=m)) for _ in ts]
    traj = Trajectory(np.array(ts), np.array(nodes), signal, sys)
    P_b = np.array(draw(st.lists(entry, min_size=m * r, max_size=m * r))).reshape(m, r)
    # with no cost, only p0 = 0.0 lets the sign of q's zero reach the block
    p0 = draw(st.lists(st.sampled_from((0.0,) if kind == "tiny" else (0.0, -1.0)),
                       min_size=r, max_size=r))
    return sys, traj, P_b, p0


def sweep(sys, traj, P_b, p0):
    """adjoint_flows' blocks as bytes, or the time of its FlowBlowUpError."""
    try:
        with np.errstate(all="ignore"):
            return pmp.adjoint_flows(sys, traj, P_b, p0).tobytes()
    except FlowBlowUpError as e:
        return ("blow-up", e.t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep_cases())
def test_generated_adjoint_sweep_matches_the_array_sweep_bit_for_bit(case):
    sys, traj, P_b, p0 = case
    m, r = P_b.shape
    assert sys.f.adjoint_run(sys.df_dx, sys.F, sys.dF_dx, r) is not None
    assert sweep(sys, traj, P_b, p0) == sweep(plain(sys), traj, P_b, p0), case


# the extension of a grammar system: one grammar dynamics of m + 1 states,
# against `extend`'s f_hat and df_hat on the system with f wrapped

SHOT = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300)
shot_numbers = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SHOT))


@st.composite
def extension_cases(draw):
    """(sys, u, x0, step): a grammar system of m = 1..2 states and k = 1..2
    controls with no cost or a grammar cost, on a box wide enough for every
    value drawn; a shot-like control on [0, 1] of up to 12 pieces, whose
    values, like the initial state, mix signed zeros, subnormals and
    +-1e300 (so that states overflow) into finite numbers; and a step."""
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    f, df_dx, _ = grammar.compile_dynamics(tuple(render(draw(trees(m, k))) for _ in range(m)),
                                           m, k)
    F = dF = None
    if draw(st.booleans()):
        src = render(draw(trees(m, k)))
        F, (dF, _) = grammar.parse_expression(src, m, k), grammar.compile_gradient(src, m, k)
    sys = ControlSystem(m=m, k=k, f=f, control_set=box([-1e301] * k, [1e301] * k), F=F,
                        df_dx=df_dx, dF_dx=dF)
    switches = sorted(draw(st.sets(st.floats(0.01, 0.99), max_size=11)))
    values = [draw(st.lists(shot_numbers, min_size=k, max_size=k)) for _ in range(len(switches) + 1)]
    x0 = [0.0] + draw(st.lists(shot_numbers, min_size=m, max_size=m))
    return (sys, ControlSignal(0.0, 1.0, tuple(switches), tuple(values)), x0,
            draw(st.sampled_from((0.25, 0.1, 0.03))))


def path(sys, u, x0, step):
    """simulate's states as bytes, or the time of its FlowBlowUpError."""
    try:
        with np.errstate(all="ignore"):
            return simulate(sys, u, x0, IntegratorConfig(step=step)).states.tobytes()
    except FlowBlowUpError as e:
        return ("blow-up", e.t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extension_cases(), st.lists(st.one_of(shot_numbers, st.sampled_from(SPECIAL)),
                                   min_size=3, max_size=3))
def test_the_extension_of_a_grammar_system_is_generated_bit_for_bit(case, point):
    # its dynamics, its Jacobian with the zero column of x0 and its path
    # have the bits of f_hat, df_hat and rk4_step on f_hat, and its path
    # takes the generated runner
    sys, u, x0, step = case
    ext, hat = extend(sys), extend(plain(sys))
    assert ext.f.runner() is not None and not hasattr(hat.f, "runner")
    x, v = point[:sys.m + 1], u.values[-1]
    with np.errstate(all="ignore"):
        assert ext.dynamics(x, v).tobytes() == hat.dynamics(x, v).tobytes()
        assert ext.jac_x(x, v).tobytes() == hat.jac_x(x, v).tobytes()
    assert path(ext, u, x0, step) == path(hat, u, x0, step)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep_cases(), st.data())
def test_the_extension_sweeps_as_the_array_sweep_bit_for_bit(case, data):
    # the cost coordinate's states and covector entries are drawn as the
    # others are, non-finite ones included
    sys, traj, P_b, p0 = case
    (m, r), n = P_b.shape, len(traj.grid)
    cost = data.draw(st.lists(states, min_size=n, max_size=n))
    row = data.draw(st.lists(shot_numbers, min_size=r, max_size=r))
    ext = extend(sys)
    assert ext.f.adjoint_run(ext.df_dx, ext.F, ext.dF_dx, r) is not None
    ext_traj = Trajectory(traj.grid, np.column_stack([cost, traj.states]), traj.control, ext)
    P = np.vstack([row, P_b])
    assert sweep(ext, ext_traj, P, p0) == sweep(extend(plain(sys)), ext_traj, P, p0), case


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def benchmarked_systems():
    """The pendulum of flow_sample, the double_integrator builtin of
    bang_shoot with its cost 1, and the scalar LQR of lqr_shoot with its
    cost q x0^2 + u0^2: (name, problem) of each golden."""
    for name in ("pendulum_flow_sample", "min_time_double_integrator", "lqr_expression_shoot"):
        yield name, cli.load_problem(os.path.join(GOLDEN, name, "problem.json"))


@pytest.mark.parametrize("name, problem", list(benchmarked_systems()))
def test_benchmarked_systems_sweep_through_generated_code(name, problem, monkeypatch):
    # every cone, classifier and shoot sweep of these systems steps an m x r
    # block back over every control run in one generated call, for r = 1
    # (adjoint_flow) and r = m (the cones)
    sys = problem.sys
    control = problem.control or ControlSignal(0.0, 1.0, (0.5,), ((1.0,) * sys.k,
                                                                 (-1.0,) * sys.k))
    traj = simulate(sys, control, np.full(sys.m, 0.3), cli._cfg(problem))
    generated = sys.f.adjoint_run
    for r in sorted({1, sys.m}):
        calls = []

        def spy(*args):
            run = generated(*args)
            assert run is not None, (name, r)
            return lambda *a: calls.append(a[2]) or run(*a)

        monkeypatch.setattr(sys.f, "adjoint_run", spy)
        pmp.adjoint_flows(sys, traj, np.ones((sys.m, r)), -1.0)
        # one call over each run of the control, last first
        assert calls == [_runs(traj.grid, control.switch_times)[::-1]], (name, r)


def no_sweep(sys, r):
    adjoint_run = getattr(sys.f, "adjoint_run", None)
    return adjoint_run is None or adjoint_run(sys.df_dx, sys.F, sys.dF_dx, r) is None


@pytest.mark.parametrize("r", (1, 2))
def test_systems_with_generated_derivatives_sweep_through_generated_code(r):
    cset = {"kind": "box", "lo": [-1.0], "hi": [1.0]}

    def system(dynamics, cost=None):
        data = {"dynamics": {"expressions": dynamics}, "control_set": cset}
        if cost is not None:
            data["cost"] = {"expression": cost}
        return cli.Problem(data).sys

    # the pendulum, and a column with two entries that are not 0, sweep
    # through generated code, bit for bit as the array loop on the same
    # system with f wrapped
    pendulum = system(["x1", "-sin(x0) + u0"])
    dense = system(["x0 * x1", "x0 + u0"], "x0 * x1 + u0^2")
    control = ControlSignal(0.0, 1.0, (0.4,), ((1.0,), (-0.5,)))
    P_b = np.arange(1.0, 2 * r + 1.0).reshape(2, r) / 3.0
    for sys in (pendulum, dense):
        assert not no_sweep(sys, r)
        traj = simulate(sys, control, np.array([0.3, -0.7]), IntegratorConfig(step=0.05))
        for p0 in (0.0, -1.0):
            assert sweep(sys, traj, P_b, p0) == sweep(plain(sys), traj, P_b, p0)
    # a wrapped user callable and finite differences for df/dx or for dF/dx
    # keep the array loop
    assert no_sweep(plain(pendulum), r)
    assert no_sweep(system(["x1", "2^x0 + u0"]), r)
    assert no_sweep(system(["x1", "-sin(x0) + u0"], "x1^x0 + u0^2"), r)
    # the extension of a grammar system is a grammar system, and sweeps
    # through generated code bit for bit as the array loop on the extension
    # of the system with f wrapped; the extension of that one, or of a
    # system whose cost gradient is finite differences, does not
    P_b = np.arange(1.0, 3 * r + 1.0).reshape(3, r) / 3.0
    for sys in (pendulum, dense, system(["x1", "-sin(x0) + u0"], "x0^2 + u0^2")):
        assert not no_sweep(extend(sys), r)
        traj = simulate(extend(sys), control, np.array([0.0, 0.3, -0.7]),
                        IntegratorConfig(step=0.05))
        for p0 in (0.0, -1.0):
            assert sweep(extend(sys), traj, P_b, p0) == sweep(extend(plain(sys)), traj, P_b, p0)
        assert no_sweep(extend(plain(sys)), r)
    assert no_sweep(extend(system(["x1", "-sin(x0) + u0"], "x1^x0 + u0^2")), r)


def test_probe_fit_is_compiled_once_and_replaces_the_closure_fit(tmp_path):
    # a shoot and a check of the min-time golden load the problem twice and
    # compile its probe fit once, keyed on the cost's tree and the probes'
    # floats, and p0 = -1 and p0 = 0 share it; neither shoot of the two
    # shooting goldens, nor the check, fits H's values on the closure path,
    # where they are floats (compiling runs the fit on operands)
    forget_compiles()
    built = []
    emit, fit = grammar._probe_fit_code, pmp._fit_quadratic

    def counted(*args):
        built.append(args)
        return emit(*args)

    def closure_fit(values, *args):
        if any(isinstance(v, float) for v in values):
            raise AssertionError("the closure path's fit ran")
        return fit(values, *args)

    with mock.patch.object(grammar, "_probe_fit_code", counted), \
            mock.patch.object(pmp, "_fit_quadratic", closure_fit):
        problem = os.path.join(GOLDEN, "min_time_double_integrator", "problem.json")
        for command in ("shoot", "check"):
            assert cli.main([command, "--problem", problem, "--out", str(tmp_path / "di")]) == 0
        assert len(built) == 1
        sys = cli.load_problem(problem).sys
        for p0 in (-1.0, 0.0):
            pmp.maximize_hamiltonian(sys, p0, [0.5, -0.25], [1.0, 0.0])
        assert len(built) == 1
        problem = os.path.join(GOLDEN, "lqr_expression_shoot", "problem.json")
        assert cli.main(["shoot", "--problem", problem, "--out", str(tmp_path / "lqr")]) == 0
        assert len(built) == 2


def test_probe_fit_evaluates_an_entry_that_names_no_control_once(monkeypatch):
    # one call of the generated probe fit on a k = 2 box evaluates an f
    # entry that reads no control once for all probes, and each entry of f
    # and of the cost that reads a control once per probe
    calls = {}

    def counted(name, fn):
        def call(v, *args):
            calls[name] = calls.get(name, 0) + 1
            return fn(v, *args)
        return call

    for name in ("_sin", "_cos", "_exp", "_real_pow"):
        monkeypatch.setitem(grammar._GLOBALS, name, counted(name, grammar._GLOBALS[name]))
    forget_compiles()
    try:
        f, _, _ = grammar.compile_dynamics(("sin(x1)", "cos(x0) * u0 + u1"), 2, 2)
        # a fractional power goes through _real_pow, which counts it
        F = grammar.parse_expression("exp(x0) + u0^1.5", 2, 2)
        probes = pmp._probes(box([-1.0, 0.0], [1.0, 2.0]))
        fit = f.probe_fit(F, probes.points, probes.axes, probes.pairs)
        calls.clear()
        fit([0.5, -0.25], [0.3, 0.7], -1.0)
    finally:
        # the compiled functions hold the counting helpers
        forget_compiles()
    n = len(probes.points)
    assert n == 6
    assert calls == {"_sin": 1, "_cos": n, "_exp": n, "_real_pow": n}


def test_a_constant_integral_power_is_written_inline():
    # x0^3 and u0^2 are `**` in the generated code, x0^0.5 and x0^-2 (a
    # negated number) go through _real_pow; every value, a NaN where a
    # power overflows or divides by zero included, has the bits _real_pow
    # gives
    powers = [grammar._tree(src, 1, 1, "expression") for src in ("x0^3 + u0^2", "x0^0.5", "x0^-2")]
    text = ast.unparse(ast.parse(grammar._entries_code(powers, "powers", (3,))[1].source))
    assert text.count("_real_pow(") == 2 and text.count(" ** ") == 2
    fn = grammar._entries_function(powers, "powers", (3,))
    pow_ = grammar._real_pow

    def reference(x, u):
        out = []
        for value in (lambda: pow_(x, 3.0) + pow_(u, 2.0), lambda: pow_(x, 0.5),
                      lambda: pow_(x, -2.0)):
            try:
                out.append(value())
            except (OverflowError, ZeroDivisionError):
                out.append(math.nan)
        return out

    for x, u in ((2.0, -3.0), (1e200, 0.5), (0.0, -0.0), (-4.0, 1e155), (-0.0, -1.5)):
        assert np.array(fn([x], [u])).tobytes() == np.array(reference(x, u)).tobytes(), (x, u)


# Compiles shared by shape.  A problem whose trees differ from an earlier
# one's only in their numbers (a power's exponent aside) gets the earlier
# compile bound to its own numbers, which must be the function a fresh
# compile of its own trees gives, bit for bit, in every generated form.

# numbers other than 0 and 1, which `_derivative` folds away, so a tree
# renumbered with them mostly keeps its shape; products of 1e300 overflow
RENUMBERS = (0.5, 1.5, 2.0, 3.0, 0.1, 7.25, 1e-300, 1e300)


def renumbered(t, numbers):
    """The tree t of `trees` with each number, bar a power's exponent,
    the next of the iterator numbers."""
    if t[0] == "c":
        return ("c", next(numbers))
    if t[0] == "n":
        return t
    if t[0] == "^":
        return ("^", renumbered(t[1], numbers), t[2])
    return (t[0], *(renumbered(c, numbers) for c in t[1:]))


def count_numbers(t):
    """The numbers of the tree t that `renumbered` replaces."""
    if t[0] in ("c", "n"):
        return t[0] == "c"
    return sum(count_numbers(c) for c in t[1:] if isinstance(c, tuple))


@st.composite
def shape_cases(draw):
    """(m, k, (srcs, cost), (twin srcs, twin cost)): dynamics of m = 1..2
    random trees in k = 1..2 controls and a random cost, and their twins
    with every number but the exponents drawn anew."""
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ts = draw(st.lists(trees(m, k), min_size=m + 1, max_size=m + 1))
    n = sum(map(count_numbers, ts))
    numbers = iter(draw(st.lists(st.sampled_from(RENUMBERS), min_size=n, max_size=n)))
    twins = [renumbered(t, numbers) for t in ts]
    return m, k, ([render(t) for t in ts[:m]], render(ts[m])), \
        ([render(t) for t in twins[:m]], render(twins[m]))


def generated_forms(srcs, cost, m, k):
    """Every form the grammar generates from trees for the dynamics srcs
    and the cost: name -> function of (x, u, p, h, c) that evaluates it."""
    f, df, _ = grammar.compile_dynamics(tuple(srcs), m, k)
    F = grammar.parse_expression(cost, m, k)
    dF, _ = grammar.compile_gradient(cost, m, k)
    ts = [0.0, 0.25, 0.5]
    forms = {"dynamics": lambda x, u, p, h, c: f(x, u),
             "cost": lambda x, u, p, h, c: F(x, u),
             "runner": lambda x, u, p, h, c: (lambda xs: (
                 f.runner()(x, [u], [(0, 2, 0)], ts, xs), xs))([]),
             "endpoint": lambda x, u, p, h, c: (lambda xs: (
                 f.runner(True)(x, [u], [(0, 2, 0)], ts, xs), xs))([])}
    if df is not None:
        forms["jacobian"] = lambda x, u, p, h, c: df(x, u)
    if dF is not None:
        forms["gradient"] = lambda x, u, p, h, c: dF(x, u)
    if df is not None and dF is not None:
        stage, step = f.coupled_step(df, F, dF)
        run = f.adjoint_run(df, F, dF, 1)
        forms["coupled"] = lambda x, u, p, h, c: (lambda k1: (k1, step(x + p, u, h, k1, c)))(
            stage(x + p, u, c))
        forms["adjoint"] = lambda x, u, p, h, c: (lambda out: (
            run(p, [u], [(0, 2, 0)], [c], ts, [x] * len(ts), out), out))([])
    probes = pmp._probes(box([-1.0] * k, [2.0] * k))
    fit = f.probe_fit(F, probes.points, probes.axes, probes.pairs)
    if fit is not None:
        forms["probe_fit"] = lambda x, u, p, h, c: fit(p, x, -c)
    return forms


def flat(value):
    """The floats of value, nested lists and tuples of floats, ints and None,
    in order, with None as NaN."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [v for item in value for v in flat(item)]
    return [math.nan if value is None else float(value)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shape_cases(), st.lists(coordinates, min_size=2, max_size=2),
       st.lists(coordinates, min_size=2, max_size=2), st.lists(costates, min_size=2, max_size=2),
       steps, st.sampled_from((1.0, 0.0)))
def test_a_compile_shared_by_shape_is_a_fresh_compile_bit_for_bit(case, x, u, p, h, c):
    m, k, (srcs, cost), (twin_srcs, twin_cost) = case
    x, u, p = x[:m], u[:k], p[:m]
    forget_compiles()
    fresh = generated_forms(twin_srcs, twin_cost, m, k)
    forget_compiles()
    generated_forms(srcs, cost, m, k)
    compiles = []
    with mock.patch.object(grammar._Code, "compile",
                           lambda self, fn, compile_=grammar._Code.compile:
                           compiles.append(fn.name) or compile_(self, fn)):
        shared = generated_forms(twin_srcs, twin_cost, m, k)
    assert shared.keys() == fresh.keys()
    with np.errstate(all="ignore"):
        for name, form in fresh.items():
            assert bits(flat(shared[name](x, u, p, h, c))) == bits(flat(form(x, u, p, h, c))), \
                (name, srcs, cost, twin_srcs, twin_cost)

    def shapes(dynamics, cost):
        # the shapes of the trees and of their derivatives
        bodies = [grammar._tree(src, m, k, "expression") for src in dynamics]
        body = grammar._tree(cost, m, k, "cost")
        return [grammar._shape([bodies, [body]])[0]] + [
            grammar._shape([[grammar._derivative(tree, j) for j in range(m)]])[0]
            for tree in [*bodies, body] if grammar._exact(tree)]

    # where the twin's trees have the shapes of the first, nothing compiles
    if shapes(srcs, cost) == shapes(twin_srcs, twin_cost):
        assert compiles == [], (srcs, cost, twin_srcs, twin_cost)
    forget_compiles()


# Generated code as text.

def written(text):
    """The generated function x -> the expression text, compiled as the
    grammar compiles its forms."""
    code = grammar._Code()
    return code.compile(code.define("written", ("x",), text))(())


def outcome(fn, x, raw=False):
    """The bits of fn(x), a float or a complex, with NaN as the one
    canonical NaN unless raw, or the type of the error it raises."""
    try:
        v = complex(fn(x))
    except ArithmeticError as e:
        return type(e)
    if raw:
        return struct.pack("dd", v.real, v.imag)
    return bits([v.real, v.imag])


LITERALS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310,
            1e300, -1e300, -2.0, 0.5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(LITERALS), st.floats(allow_nan=False)),
       st.one_of(st.sampled_from(LITERALS), st.floats(-4.0, 4.0)))
def test_the_package_numbers_are_written_back_bit_for_bit(v, x):
    # a number of the package's own code is a literal of the generated
    # text: alone and negated it has its bits, and as either operand of
    # each operator it groups as in the code run on operands.  -2.0 ** x is
    # -(2.0 ** x), so a negative base is written in parentheses
    operand = grammar._Operand(grammar._Code(), "x")
    name, number = ("x", grammar._ATOM), grammar._number(v)
    assert outcome(written(grammar._returned(v)), x, True) == outcome(lambda x: v, x, True)
    assert outcome(written(grammar._written("-x", [number])), x, True) == \
        outcome(lambda x: -v, x, True)
    cases = [(lambda x: x + v, (operand + v).expr()), (lambda x: v + x, (v + operand).expr()),
             (lambda x: x - v, (operand - v).expr()), (lambda x: x * v, (operand * v).expr()),
             (lambda x: v * x, (v * operand).expr()), (lambda x: x / v, (operand / v).expr()),
             (lambda x: v / x, (v / operand).expr()),
             (lambda x: v ** x, grammar._written("**", [number, name])),
             (lambda x: x ** v, grammar._written("**", [name, number]))]
    for want, text in cases:
        assert outcome(written(text), x) == outcome(want, x), (text, v, x)


def test_an_ordered_sum_of_250_products_compiles_to_the_bits_of_dot():
    # flows._dot run on operands writes ((0.0 + a0 b0) + a1 b1) + ... with
    # no parentheses, which Python's tokenizer takes at most 200 deep
    code = grammar._Code()
    a, b = ([grammar._read(code, vec, i) for i in range(250)] for vec in "ab")
    fn = code.compile(code.define("dot", ("a", "b"), grammar._returned(_dot(a, b))))(())
    rng = np.random.default_rng(250)
    for scale in (1.0, 1e-160, 1e150, 1e300):
        x, y = (rng.standard_normal(250) * scale for _ in range(2))
        x[::7] = -0.0
        assert bits(fn(x, y)) == bits(_dot(x.tolist(), y.tolist())), scale


def test_a_traceback_shows_the_generated_line():
    # each compile has a file name of its own, whose text linecache holds
    forget_compiles()
    f, _, _ = grammar.compile_dynamics(("x1", "-sin(x0) + u0"), 2, 1)
    with pytest.raises(IndexError) as raised:
        f([1.0], [0.0])
    frame = traceback.extract_tb(raised.value.__traceback__)[-1]
    assert "x[1]" in frame.line and frame.line in inspect.getsource(f)
    assert frame.filename.startswith("<pmpkit.grammar dynamics ") and frame.name == "dynamics"


def test_the_arc_loop_runs_on_lines_of_its_own():
    # a profiler names the line of the loop where time goes, in both forms
    # (the trial that calls the maximizer has 8 lines)
    sides = pmp._probes(box([-1.0], [1.0])).sides
    for form, trial_lines in ((sides, 10), (None, 5)):
        run, trial = grammar.arc_loop(2, 1, form, 1e-9, 0.1)(0.1, 1.0, -1.0, *[None] * 4)
        for fn, lines in ((run, 10), (trial, trial_lines)):
            assert len({line for _, _, line in fn.__code__.co_lines()}) > lines


def test_a_fresh_compile_leaves_no_cyclic_garbage():
    # the tracer's operands hold their code and its operations hold them:
    # compiling lets the operations go, so a compile's garbage is freed at
    # once, not at a full collection that a short run may never make
    forget_compiles()
    gc.collect()
    gc.disable()
    try:
        generated_forms(["x1", "-sin(x0) + u0"], "x0^2 + u0^2", 2, 1)
        assert grammar.arc_loop(2, 1, pmp._probes(box([-1.0], [1.0])).sides, 1e-9, 0.1)
        assert grammar.arc_loop(2, 1, None, 1e-9, 0.1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_source_is_held_only_as_long_as_its_compile():
    # _FORMS keeps 512 compiles; the text of each one it lets go, and of
    # every one forget_compiles clears, leaves linecache with it
    def held():
        return sum(name.startswith("<pmpkit.grammar ") for name in linecache.cache)

    forget_compiles()
    assert held() == 0
    for n in range(1, 530):
        grammar.parse_expression(" * ".join(["x0"] * n), 1, 0)
    assert held() == len(grammar._FORMS) == 512
    forget_compiles()
    assert held() == 0
