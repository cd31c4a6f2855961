"""Independent brute-force oracles for the test suite.

Everything here is written against the mathematics directly (angle sweeps,
cross products, textbook ODE solutions, scipy integrators) and never calls
into the package's LP or RK4 code, so these functions can serve as
cross-checks for the implementations.  A few exceptions keep an earlier
form of a package routine as its reference:
- `adjoint_flow_loop`, the backward RK4 over Hermite-interpolated states
  (`hermite_state`, the interpolant the package no longer has) that
  `pmp.adjoint_flow` replaced by the discrete adjoint (agreement to
  fourth order);
- `tangent_lift_stacked`, the per-vector lift of the stacked (x, v) that
  the shared lift of many vectors replaced (bit for bit), holding the
  control of each grid segment at its midpoint value, and
  `carried_on_grid` and `needle_vector_on_grid`, that lift one grid step
  at a time, against which the adjoint sweep of the cones holds to
  rounding;
- `membership_margin_bisect`, the bisection form of
  `cone_geometry.membership_margin`;
- `generated_cone_loop`, the loop over generators that
  `GeneratedCone.__post_init__` replaced by one pass over a 2-D array
  (same generators, `kept` and errors);
- `grammar_tree_function` and `grammar_tree_array`, the closure-tree
  interpreter that the expression grammar's generated functions replaced
  (bit for bit);
- `maximize_hamiltonian_arrays`, the Hamiltonian maximizer on numpy arrays
  that `pmp.maximize_hamiltonian` replaced (bit for bit), with one later
  fix that both carry: a coupled box model that is not finite skips
  `eigvalsh`;
- `rk4_step_arrays`, the RK4 step on numpy arrays that `flows.rk4_step`
  replaced by the same arithmetic on Python floats (bit for bit);
- `integration_grid_loop`, the loop over nodes and events that
  `flows.integration_grid` replaced by numpy passes, now one nearest-event
  pass (bit for bit);
- `signal_path_per_step`, the forward path loop that looked up each grid
  step's control at its midpoint, which `flows._lifted_path` replaced by
  one lookup per run of steps between switches (bit for bit);
- `coupled_rhs_arrays` and `propagate_arrays`, shooting's coupled (x, p)
  step and propagation on numpy arrays, which the fallback field of
  `shooting._coupled_field` and the propagation of `shooting._propagator`
  replaced by lists of Python floats (bit for bit);
- `BUILTINS_ARRAYS`, the CLI's builtin dynamics and Jacobians as array
  functions, which the builtins on lists replaced (bit for bit);
- `signal_of_pieces_loop`, the per-piece merge loop that
  `control_system._signal_of_pieces` replaced by one comparison of
  consecutive rows (bit for bit);
- `derivative_recursive`, `u_degree_recursive` and `exact_scan`, the
  recursive forms of the grammar's derivative and degree in u and the scan
  of every exponent for a state, which loops over one walk of the tree
  (`grammar._nodes`) replaced (the same trees and answers);
- `draw_value_uniform` and `draw_times_uniform`, the reach sampler's draws
  by `Generator.uniform`, which `Generator.random` and the same arithmetic
  replaced (the same bits and generator state);
- `signal_path_lists`, the path of a signal stepped by `flows.rk4_step`
  on Python floats with each step's control looked up at its midpoint, the
  steps that the generated runner took one control piece a call before it
  took every piece of a signal in one call (bit for bit);
- `cone_residual_one`, `conic_membership_one` and `membership_margin_one`,
  the cone queries one vector a call, which stacks of vectors replaced
  (the same answers, bits and errors), each taking the LP stack solver.

The oracles that pair a covector with a rate or a Jacobian take numpy's
products elsewhere, but `ordered_dot`, a fold of the products into one sum
from 0.0 in index order, where the package pairs them: the package's one
rule for those pairings, whose bits depend on no BLAS.  `dot_bound` is the
rounding bound that relates such a sum to numpy's dot in any order.
"""
import ast
import functools
import itertools
import math

import numpy as np

from pmpkit import grammar
from pmpkit.cone_geometry import unit_directions
from pmpkit.control_system import ControlSystem
from pmpkit.pmp import (MaximizationResult, UnboundedHamiltonianError,
                        UnsupportedMaximizationError, hamiltonian)


def ordered_dot(a, b):
    """((0.0 + a_0 b_0) + a_1 b_1) + ... of two vectors, on Python floats."""
    a, b = (np.asarray(v, dtype=float).ravel().tolist() for v in (a, b))
    assert len(a) == len(b)
    return functools.reduce(lambda s, ab: s + ab[0] * ab[1], zip(a, b), 0.0)


def ordered_matvec(A, v):
    """A v with each entry an `ordered_dot` of a row of A with v."""
    return np.array([ordered_dot(row, v) for row in np.asarray(A, dtype=float)])


# A bound of 2^970 or more says nothing: below it every |value| < 2^1021,
# so every sum of the products is finite
BOUND_CAP = 2.0 ** 970


def dot_bound(p, r, h):
    """A bound e on |h - (A + numpy's p . r)| for h = A + `ordered_dot`(p, r).

    A dot product of m terms summed in any order, with or without fused
    multiply-adds, lies within gamma_m T + m lambda of the exact sum, T =
    sum |p_i r_i|, gamma_m = m u / (1 - m u), u = 2^-53 and lambda =
    2^-1075 the error of an underflowing product (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sections 2.6
    and 3.1).  So two such sums differ by at most m (2^-51 T' + 2^-1072),
    T' the ordered sum of the |p_i r_i|, and the two values by at most
    twice that plus 2^-51 |h|, the rounding of the additions of A: e = m
    2^-50 T' + 2^-51 |h| + m 2^-1071, each term twice what the analysis
    needs or more.  With m = 1 the bound is 0.0: numpy's one-term dot adds
    its product to 0.0 too."""
    m = len(p)
    if m == 1:
        return 0.0
    t = ordered_dot(np.abs(p), np.abs(r))
    return m * 2.0 ** -50 * t + 2.0 ** -51 * abs(h) + m * 2.0 ** -1071


def _angles(vectors):
    return [float(np.arctan2(g[1], g[0])) for g in vectors]


def sweep_separation_candidates_2d(G1, G2, eps=1e-6, dense=2048):
    """Candidate separating normals: generator angles rotated by multiples of
    pi/2, each nudged by +-eps, plus a dense sweep."""
    cand = []
    for th in _angles(list(G1) + list(G2)):
        for quarter in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi):
            for d in (0.0, eps, -eps):
                cand.append(th + quarter + d)
    cand.extend(2.0 * np.pi * np.arange(dense) / dense)
    return [np.array([np.cos(a), np.sin(a)]) for a in cand]


def separated_2d(G1, G2, tol=1e-9):
    """Brute-force separation verdict for cone pairs in R^2.

    Separated iff some candidate unit normal alpha has alpha.g <= tol for all
    of G1 and alpha.g >= -tol for all of G2.  The candidate set contains every
    exact generator perpendicular, which pins down isolated separators.
    """
    if not G1 and not G2:
        return True  # two copies of {0}: any hyperplane contains both
    for alpha in sweep_separation_candidates_2d(G1, G2):
        if all(alpha @ g <= tol for g in G1) and all(alpha @ g >= -tol for g in G2):
            return True
    return False


def separated_3d(G1, G2, tol=1e-9):
    """Brute-force separation verdict for cone pairs in R^3.

    A separating normal of cone(G1 u -G2) != R^3 is either orthogonal to the
    span (rank-deficient case) or normal to a facet, and every facet of a
    finitely generated cone contains two independent generators, so the
    candidate list of all pair cross products plus null-space directions is
    exhaustive.
    """
    D = [np.asarray(g, float) for g in G1] + [-np.asarray(g, float) for g in G2]
    if not D:
        return True
    A = np.array(D)
    cand = []
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    for j in range(rank, 3):
        cand.append(Vt[j])
        cand.append(-Vt[j])
    for i in range(len(D)):
        for j in range(i + 1, len(D)):
            c = np.cross(D[i], D[j])
            nc = np.linalg.norm(c)
            if nc > 1e-12:
                cand.append(c / nc)
                cand.append(-c / nc)
    scale = max(1.0, max(np.linalg.norm(g) for g in D))
    for alpha in cand:
        if all(alpha @ g <= tol * scale for g in D):
            # alpha supports the difference cone, hence separates the pair
            return True
    return False


def membership_2d(G, v, tol=1e-9, dense=4096):
    """Brute-force closed-cone membership in R^2 via a dense polar sample.

    v is in the closed cone iff every sampled polar direction also pairs
    nonpositively with v.  Reliable away from the boundary at sweep
    resolution; callers should avoid adversarially thin queries.
    """
    if not G:
        return bool(np.linalg.norm(v) <= tol)
    scale = max(1.0, max(np.linalg.norm(g) for g in G))
    for alpha in sweep_separation_candidates_2d(G, [], dense=dense):
        if all(alpha @ g <= 1e-10 * scale for g in G) and alpha @ v > tol * max(1.0, np.linalg.norm(v)):
            return False
    return True


def facet_margin(G, v, Q, cap, eps=1e-10):
    """Largest r <= cap with v +- r q in cone(G) for every column q of Q.

    For a pointed full-dimensional cone in R^2 or R^3, read off its facet
    inequalities.  Every facet contains n - 1 independent generators, so its
    inward normal is a perpendicular (R^2) or a pair cross product (R^3) of
    generators that every generator pairs nonnegatively with.
    """
    G = np.asarray(G, float)
    n = G.shape[1]
    if n == 2:
        C = np.column_stack([-G[:, 1], G[:, 0]])
    elif n == 3:
        i, j = np.triu_indices(len(G), k=1)
        C = np.cross(G[i], G[j])
    else:
        raise ValueError("facet margin supports n = 2 and 3 only")
    norms = np.linalg.norm(C, axis=1)
    C = C[norms > 1e-12] / norms[norms > 1e-12, None]
    C = np.vstack([C, -C])
    Gu = G / np.linalg.norm(G, axis=1)[:, None]
    N = C[np.all(C @ Gu.T >= -eps, axis=1)]
    slack = N @ np.asarray(v, float)
    out = cap
    for q in np.asarray(Q, float).T:
        for d in (q, -q):
            rate = N @ d
            leaving = rate < 0
            if np.any(leaving):
                out = min(out, float(np.min(slack[leaving] / -rate[leaving])))
    return out


def generated_cone_loop(generators, n=0):
    """GeneratedCone's cleaning as it stood, one generator at a time:
    (generators, n, kept), or raises the ValueError it raised."""
    gens = [np.atleast_1d(np.asarray(g, dtype=float)) for g in generators]
    if n == 0:
        if not gens:
            raise ValueError("dimension required for a cone with no generators")
        n = len(gens[0])
    cleaned, kept, seen = [], [], set()
    for i, g in enumerate(gens):
        if g.shape != (n,):
            raise ValueError("dimension mismatch in generator list")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite generator")
        key = (g + 0.0).tobytes()  # + 0.0 maps -0.0 to 0.0: equal values, equal keys
        if not g.any() or key in seen:
            continue
        seen.add(key)
        cleaned.append(g)
        kept.append(i)
    return cleaned, n, tuple(kept)


def membership_margin_bisect(cone, v, tol=1e-9, cap=None):
    """`membership_margin` as a 40-step bisection per +-q direction.

    Accepts r when `cone_residual(v + r d) <= tol`, so it may overshoot the
    exact margin by the distance a residual of tol allows.
    """
    from pmpkit.cone_geometry import cone_residual

    v = np.asarray(v, float)
    if cone_residual(cone, v, tol) > tol:
        return 0.0
    Q = cone.span_basis()
    if Q.shape[1] == 0:
        return np.inf
    if cap is None:
        cap = max(1.0, float(np.linalg.norm(v)))
    out = np.inf
    for j in range(Q.shape[1]):
        for sgn in (1.0, -1.0):
            d = sgn * Q[:, j]
            lo, hi = 0.0, cap
            if cone_residual(cone, v + hi * d, tol) <= tol:
                out = min(out, hi)
                continue
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if cone_residual(cone, v + mid * d, tol) <= tol:
                    lo = mid
                else:
                    hi = mid
            out = min(out, lo)
    return out


def riccati_lqr_reference(ts):
    """Scalar LQR oracle: dx = u, cost x^2 + u^2, x(0)=1, x(1) free, T=1.

    Integrates the Riccati equation dP/dt = P^2 - 1, P(1) = 0 backwards with
    scipy, then the closed-loop state dx = -P x forwards.  Returns (x, p)
    sampled on ts, with the adjoint p = -2 P x.  Closed forms for
    verification: P(t) = tanh(1-t), x(t) = cosh(1-t)/cosh(1).
    """
    from scipy.integrate import solve_ivp

    ts = np.asarray(ts, float)
    sol_P = solve_ivp(lambda t, P: P * P - 1.0, (1.0, 0.0), [0.0],
                      dense_output=True, rtol=1e-12, atol=1e-14)
    P = lambda t: sol_P.sol(t)[0]
    sol_x = solve_ivp(lambda t, x: -P(t) * x, (0.0, 1.0), [1.0],
                      dense_output=True, rtol=1e-12, atol=1e-14)
    xs = np.array([sol_x.sol(t)[0] for t in ts])
    ps = np.array([-2.0 * P(t) * sol_x.sol(t)[0] for t in ts])
    return xs, ps


def double_integrator_time_optimal(d=1.0):
    """Analytic bang-bang oracle for (d, 0) -> (0, 0) with |u| <= 1.

    Minimum time 2 sqrt(d), control u = -1 then +1 with the switch at
    sqrt(d).  Returns (t_star, t_switch)."""
    return 2.0 * np.sqrt(d), np.sqrt(d)


def variation_of_constants(A, b, t, x0):
    """Endpoint of dx = A x + b at time t from x0 via the matrix exponential."""
    from scipy.linalg import expm

    A = np.asarray(A, float)
    n = A.shape[0]
    # augmented system [[A, b], [0, 0]] integrates the affine field exactly
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = np.asarray(b, float)
    E = expm(M * t)
    aug = np.append(np.asarray(x0, float), 1.0)
    return (E @ aug)[:n]


def hermite_state(traj, t):
    """gamma(t) by cubic Hermite interpolation on traj's grid segment that
    holds t, with the velocities f(x, c) at its ends, c the control at the
    segment's midpoint (one-sided at a switch node); the end states
    outside [a, b]."""
    grid, states = traj.grid, traj.states
    if t <= grid[0]:
        return states[0].copy()
    if t >= grid[-1]:
        return states[-1].copy()
    i = min(int(np.searchsorted(grid, t, side="right")) - 1, len(grid) - 2)
    t0, t1 = float(grid[i]), float(grid[i + 1])
    h = t1 - t0
    c = traj.control.value_at(0.5 * (t0 + t1))
    x0, x1 = states[i], states[i + 1]
    v0, v1 = traj.system.dynamics(x0, c), traj.system.dynamics(x1, c)
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * x0 + h * h10 * v0 + h01 * x1 + h * h11 * v1


def adjoint_flow_loop(sys, traj, p0, p_b):
    """Backward RK4 adjoint with `hermite_state` and the linearization per
    stage.

    An RK4 of its own on the adjoint equation, linearized at cubic-Hermite
    states, where `pmp.adjoint_flow` transposes the forward step; the two
    differ by this scheme's O(h^4) error.
    """
    p = np.asarray(p_b, dtype=float).ravel()
    grid = traj.grid
    n = len(grid)
    sigma = np.empty((n, sys.m))
    sigma[n - 1] = p
    for i in range(n - 1, 0, -1):
        t1, t0 = float(grid[i]), float(grid[i - 1])
        h = t0 - t1
        uval = traj.control.value_at(0.5 * (t0 + t1))

        def rhs(t, q):
            xx = hermite_state(traj, t)
            return -p0 * sys.cost_grad_x(xx, uval) - sys.jac_x(xx, uval).T @ q

        k1 = rhs(t1, p)
        k2 = rhs(t1 + 0.5 * h, p + 0.5 * h * k1)
        k3 = rhs(t1 + 0.5 * h, p + 0.5 * h * k2)
        k4 = rhs(t0, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sigma[i - 1] = p
    return sigma


def tangent_lift_stacked(sys, u, t, s, x0, v0, cfg=None):
    """(x(t), v(t)) of the complete lift of x' = f(x, u(t)) as one RK4 path
    of y = (x, v) with y' = (f(x, c), df/dx(x, c) v), on the package's
    integration grid hitting u's switch times.  c is the value of u at the
    midpoint of each grid segment, so a step that ends on a switch keeps
    its arc's control at every stage."""
    from pmpkit.flows import IntegratorConfig, integration_grid

    m = sys.m
    cfg = cfg or IntegratorConfig()
    grid = integration_grid(s, t, IntegratorConfig(
        step=cfg.step, event_times=tuple(cfg.event_times) + tuple(u.switch_times)))
    y = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    for i in range(len(grid) - 1):
        t0 = grid[i]
        h = grid[i + 1] - t0
        c = u.value_at(0.5 * (t0 + grid[i + 1]))

        def f(tt, y):
            x = y[:m]
            return np.concatenate([sys.dynamics(x, c), ordered_matvec(sys.jac_x(x, c), y[m:])])

        k1 = f(t0, y)
        k2 = f(t0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[:m], y[m:]


def carried_on_grid(sys, path, s, v, t):
    """The vector v at the node of path at time s carried to t by
    `tangent_lift_stacked` one step of path's grid at a time: the forward
    lift on the grid the adjoint sweep of a cone runs on.  s and t must be
    nodes of path's grid."""
    from pmpkit.flows import IntegratorConfig

    grid = path.grid.tolist()
    v = np.asarray(v, float)
    for n in range(grid.index(s), grid.index(t)):
        h = grid[n + 1] - grid[n]
        v = tangent_lift_stacked(sys, path.control, grid[n + 1], grid[n], path.states[n], v,
                                 IntegratorConfig(step=h))[1]
    return v


def needle_vector_on_grid(sys, path, tau, u1, t):
    """The unit-rate class-I vector of the needle (tau, u1) at the node
    state of path at tau, carried to t by `carried_on_grid`."""
    x = path.states[path.grid.tolist().index(tau)]
    v = 1.0 * (sys.dynamics(x, np.asarray(u1, float)) - sys.dynamics(x, path.control.value_at(tau)))
    return carried_on_grid(sys, path, tau, v, t)


# The closure-tree interpreter of the expression grammar: one closure per
# node, called once per node per evaluation, with one guard around a whole
# expression.  `pmpkit.grammar` replaced it by generated functions that must
# return the same bits.

_TREE_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _tree_pow(a, b):
    r = a ** b
    return r if r.__class__ is float else math.nan


_TREE_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
                ast.Pow: _tree_pow}


def _tree_node(node):
    if isinstance(node, ast.Constant):
        v = float(node.value)
        return lambda x, u: v
    if isinstance(node, ast.Name):
        idx = int(node.id[1:])
        if node.id[0] == "x":
            return lambda x, u: float(x[idx])
        return lambda x, u: float(u[idx])
    if isinstance(node, ast.BinOp):
        fa, fb = _tree_node(node.left), _tree_node(node.right)
        op = _TREE_BINOPS[type(node.op)]
        return lambda x, u: op(fa(x, u), fb(x, u))
    if isinstance(node, ast.UnaryOp):
        fa = _tree_node(node.operand)
        if isinstance(node.op, ast.USub):
            return lambda x, u: -fa(x, u)
        return fa
    fn = _TREE_FUNCS[node.func.id]
    fa = _tree_node(node.args[0])
    return lambda x, u: fn(fa(x, u))


def grammar_tree_function(node):
    """(x, u) -> float for a validated grammar tree, by the closure tree;
    overflow, division by zero and domain errors give NaN."""
    fn = _tree_node(node)

    def guarded(x, u):
        try:
            return fn(x, u)
        except (OverflowError, ZeroDivisionError, ValueError):
            return math.nan

    return guarded


def grammar_tree_array(entries, shape):
    """(x, u) -> array of `shape` from entries in row-major order, each a
    float or an (x, u) -> float callable: a constant template, copied per
    call, with the callable entries written in."""
    template = np.zeros(shape)
    live = []
    for idx, d in zip(np.ndindex(shape), entries):
        if callable(d):
            live.append((idx, d))
        else:
            template[idx] = d

    def evaluate(x, u):
        out = template.copy()
        for idx, d in live:
            out[idx] = d(x, u)
        return out

    return evaluate


def derivative_recursive(node, j):
    """d node / d x_j for a validated tree with no state in an exponent, by
    recursion on the operands."""
    g = grammar
    if isinstance(node, ast.Constant):
        return g._num(0.0)
    if isinstance(node, ast.Name):
        return g._num(1.0 if node.id == f"x{j}" else 0.0)
    if isinstance(node, ast.UnaryOp):
        da = derivative_recursive(node.operand, j)
        return g._neg(da) if isinstance(node.op, ast.USub) else da
    if isinstance(node, ast.Call):
        a = node.args[0]
        if node.func.id == "sin":
            outer = g._call("cos", a)
        elif node.func.id == "cos":
            outer = g._neg(g._call("sin", a))
        else:
            outer = node
        return g._mul(outer, derivative_recursive(a, j))
    a, b = node.left, node.right
    da, db = derivative_recursive(a, j), derivative_recursive(b, j)
    op = type(node.op)
    if op is ast.Add:
        return g._add(da, db)
    if op is ast.Sub:
        return g._sub(da, db)
    if op is ast.Mult:
        return g._add(g._mul(da, b), g._mul(a, db))
    if op is ast.Div:
        return g._sub(g._div(da, b), g._div(g._mul(a, db), g._pow(b, g._num(2.0))))
    return g._mul(g._mul(b, g._pow(a, g._sub(b, g._num(1.0)))), da)


def u_degree_recursive(node):
    """The degree in u of a validated tree, None where it is no polynomial
    in u, by recursion on the operands."""
    if isinstance(node, ast.Constant):
        return 0
    if isinstance(node, ast.Name):
        return 1 if node.id.startswith("u") else 0
    if isinstance(node, ast.UnaryOp):
        return u_degree_recursive(node.operand)
    if isinstance(node, ast.Call):
        return 0 if u_degree_recursive(node.args[0]) == 0 else None
    da, db = u_degree_recursive(node.left), u_degree_recursive(node.right)
    if da is None or db is None:
        return None
    op = type(node.op)
    if op in (ast.Add, ast.Sub):
        return max(da, db)
    if op is ast.Mult:
        return da + db
    if db:
        return None
    if op is ast.Div or da == 0:
        return da
    c = node.right
    if isinstance(c, ast.Constant) and c.value >= 0 and float(c.value).is_integer():
        return da * int(c.value)
    return None


def exact_scan(body):
    """Whether no exponent in body names a state, by `ast.walk`."""
    return not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                   and any(isinstance(s, ast.Name) and s.id.startswith("x")
                           for s in ast.walk(n.right))
                   for n in ast.walk(body))


def rk4_blow_up_time(f, jac, grid, x0, v0=None):
    """First grid node at which a plain RK4 loop of the scalar x' = f(x) (and,
    given v0, of v' = jac(x) v along it) leaves the finite floats; None if
    it never does.  Python floats, one step at a time."""
    x, v = float(x0), None if v0 is None else float(v0)
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h = float(t1) - float(t0)
        s1 = x
        k1 = f(s1)
        s2 = x + 0.5 * h * k1
        k2 = f(s2)
        s3 = x + 0.5 * h * k2
        k3 = f(s3)
        s4 = x + h * k3
        k4 = f(s4)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(x):
            return float(t1)
        if v is not None:
            l1 = jac(s1) * v
            l2 = jac(s2) * (v + 0.5 * h * l1)
            l3 = jac(s3) * (v + 0.5 * h * l2)
            l4 = jac(s4) * (v + h * l3)
            v = v + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
            if not math.isfinite(v):
                return float(t1)
    return None


# ---------------------------------------------------------------------------
# The Hamiltonian maximizer on numpy arrays, verbatim as it stood before
# `pmp.maximize_hamiltonian` bound H once per call and fitted its model on
# per-axis scalars, except that its refusal of a coupled concave model with
# mixed infinite bounds raises the package's UnsupportedMaximizationError
# (was RuntimeError), which ends a trial of `propagate_arrays` as it ends
# one of shooting; both must return the same u_star and value bits and
# raise the same exception types.

def _arrays_pick_best(cands, H):
    best_u, best_v = None, -np.inf
    for u in cands:
        v = H(u)
        if v > best_v:
            best_u, best_v = np.asarray(u, dtype=float), v
    return MaximizationResult(best_u, best_v)


def _arrays_fit_quadratic(H, u0, delta, fit_tol, verify=True):
    """Exact-fit quadratic model around u0, or None if H is not quadratic.

    verify=False skips the three probes that test the fit, for an H known
    to be at most quadratic in u.
    """
    k = u0.size
    f0 = H(u0)
    b = np.zeros(k)
    A = np.zeros((k, k))
    live = [j for j in range(k) if delta[j] > 0]
    for j in live:
        e = np.zeros(k)
        e[j] = delta[j]
        fp, fm = H(u0 + e), H(u0 - e)
        b[j] = (fp - fm) / (2.0 * delta[j])
        A[j, j] = (fp - 2.0 * f0 + fm) / delta[j] ** 2
    for i, j in itertools.combinations(live, 2):
        e = np.zeros(k)
        e[i] = delta[i]
        e[j] = delta[j]
        ei = np.zeros(k)
        ei[i] = delta[i]
        ej = np.zeros(k)
        ej[j] = delta[j]
        mixed = (H(u0 + e) - H(u0 + ei) - H(u0 + ej) + f0) / (delta[i] * delta[j])
        A[i, j] = A[j, i] = mixed

    if not verify:
        return f0, b, A

    def model(u):
        d = u - u0
        return f0 + b @ d + 0.5 * d @ A @ d

    scale = 1.0 + abs(f0) + float(np.max(np.abs(b))) + float(np.max(np.abs(A)))
    for coeffs in ((0.37,) * k, (-0.61,) * k,
                   tuple(0.5 if j % 2 == 0 else -0.5 for j in range(k))):
        probe = u0 + np.array(coeffs) * delta
        if abs(H(probe) - model(probe)) > fit_tol * scale:
            return None
    return f0, b, A


def _arrays_axis_max(b, a, lo, hi, u0j, tol):
    """Maximize b t + a t^2 / 2 for u0j + t in [lo, hi]; returns the u value."""
    if abs(a) <= tol:
        if b > tol:
            if np.isinf(hi):
                raise UnboundedHamiltonianError("linear growth toward +inf")
            return hi
        if b < -tol:
            if np.isinf(lo):
                raise UnboundedHamiltonianError("linear growth toward -inf")
            return lo
        if np.isfinite(lo):
            return lo
        if np.isfinite(hi):
            return hi
        return u0j
    if a < 0:
        return float(np.clip(u0j - b / a, lo, hi))
    # convex axis: maximum at an endpoint
    if np.isinf(lo) or np.isinf(hi):
        raise UnboundedHamiltonianError("convex growth on an unbounded axis")
    tl, th = lo - u0j, hi - u0j
    return lo if b * tl + 0.5 * a * tl * tl >= b * th + 0.5 * a * th * th else hi


def _arrays_grid_refine(H, lo, hi, resolution, grid_points):
    if lo.size > 3:
        raise ValueError("grid refinement supports at most 3 control dimensions")
    cur_lo, cur_hi = lo.copy(), hi.copy()
    g = grid_points
    best = None
    for _ in range(60):
        axes = [np.linspace(cur_lo[j], cur_hi[j], g) for j in range(lo.size)]
        best_u, best_v = None, -np.inf
        for combo in itertools.product(*axes):
            u = np.array(combo)
            v = H(u)
            if v > best_v:
                best_u, best_v = u, v
        best = MaximizationResult(best_u, best_v)
        cell = (cur_hi - cur_lo) / (g - 1)
        # changed since the rewrite, as in the maximizer: with no H above
        # -inf on the grid there is nothing to refine around, and u_star is
        # None
        if np.max(cell) <= resolution or best_u is None:
            return best
        cur_lo = np.maximum(lo, best_u - cell)
        cur_hi = np.minimum(hi, best_u + cell)
    return best


def maximize_hamiltonian_arrays(sys: ControlSystem, p0: float, p, x,
                                resolution=1e-6, grid_points=9) -> MaximizationResult:
    """Pointwise supremum of H over the control set.

    Finite sets are enumerated (first listed wins ties).  Boxes are handled
    exactly whenever H is numerically quadratic in u (verified by an
    exact-fit test, unless `sys.u_degree` declares degree <= 2): linear
    coefficients pick vertices, concave axes or a concave coupled model
    pick stationary points, with unbounded growth along an infinite side
    reported as an error.  Non-quadratic H on a finite box falls back to
    deterministic grid refinement.
    """
    fit_tol = 1e-9

    def H(u):
        return hamiltonian(sys, p0, p, x, u)

    verify = sys.u_degree is None or sys.u_degree > 2
    U = sys.control_set
    if U.kind == "finite":
        return _arrays_pick_best(U.points, H)

    if U.kind == "ball":
        c, R = U.center, U.radius
        k = c.size
        delta = np.full(k, max(R, 1.0) / 4.0)
        fit = _arrays_fit_quadratic(H, c.copy(), delta, fit_tol, verify)
        if fit is not None:
            _, b, A = fit
            scale = 1.0 + np.max(np.abs(b)) + np.max(np.abs(A))
            if np.max(np.abs(A)) <= fit_tol * scale:
                nb = np.linalg.norm(b)
                u = c + R * b / nb if nb > fit_tol * scale else c.copy()
                return MaximizationResult(u, H(u))
        cands = [c.copy()]
        for r in np.linspace(R / 8.0, R, 8):
            for d in unit_directions(k, 32, seed=0):
                cands.append(c + r * d)
        return _arrays_pick_best(cands, H)

    lo, hi = U.lo, U.hi
    k = lo.size
    u0 = np.empty(k)
    delta = np.empty(k)
    for j in range(k):
        if np.isfinite(lo[j]) and np.isfinite(hi[j]):
            u0[j] = 0.5 * (lo[j] + hi[j])
            delta[j] = (hi[j] - lo[j]) / 4.0
        elif np.isfinite(lo[j]):
            u0[j], delta[j] = lo[j] + 1.0, 1.0
        elif np.isfinite(hi[j]):
            u0[j], delta[j] = hi[j] - 1.0, 1.0
        else:
            u0[j], delta[j] = 0.0, 1.0

    fit = _arrays_fit_quadratic(H, u0, delta, fit_tol, verify)
    if fit is not None:
        _, b, A = fit
        scale = 1.0 + float(np.max(np.abs(b))) + float(np.max(np.abs(A)))
        ztol = fit_tol * scale
        off_diag = np.max(np.abs(A - np.diag(np.diag(A)))) if k > 1 else 0.0
        if off_diag <= ztol:
            u = np.array([
                _arrays_axis_max(b[j], A[j, j], lo[j], hi[j], u0[j], ztol)
                if delta[j] > 0 else lo[j]
                for j in range(k)
            ])
            return MaximizationResult(u, H(u))
        # changed since the rewrite, as in the maximizer: a model that is not
        # finite skips eigvalsh, which need not converge on it (it raised
        # for k = 3), and goes where k = 1 and 2 went
        if np.isfinite(ztol) and np.linalg.eigvalsh(A).max() < -ztol:
            u_star = u0 + np.linalg.solve(A, -b)
            if np.all(u_star >= lo - 1e-12) and np.all(u_star <= hi + 1e-12):
                u_star = np.clip(u_star, lo, hi)
                return MaximizationResult(u_star, H(u_star))
            if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
                return _arrays_grid_refine(H, lo, hi, resolution, grid_points)
            raise UnsupportedMaximizationError("coupled concave maximization with mixed "
                                               "infinite bounds is not supported")
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
            return _arrays_grid_refine(H, lo, hi, resolution, grid_points)
        raise UnboundedHamiltonianError("non-concave quadratic on an unbounded box")
    if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
        return _arrays_grid_refine(H, lo, hi, resolution, grid_points)
    raise UnboundedHamiltonianError("non-quadratic Hamiltonian on an unbounded box")


# ---------------------------------------------------------------------------
# The RK4 step and the integration grid on numpy arrays, verbatim as they
# stood before `flows.rk4_step` moved its stage arithmetic to Python floats
# and `flows.integration_grid` dropped its loop over nodes and events; both
# must give the same bits.

def rk4_step_arrays(f, t, y, h, k1):
    """One classical RK4 step of y' = f(t, y) from (t, y) with step h.

    k1 = f(t, y) is passed in, so callers that also need it (node
    velocities, a stage shared by several trial steps) evaluate it once.
    """
    k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = np.asarray(f(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integration_grid_loop(s, t, cfg=None):
    """Monotone grid from s to t, uniform at the base step but hitting every
    event time exactly.  Base nodes closer than 1e-9 of the span to an event
    are replaced by the event node.  An event equal to an earlier one (0.0
    and -0.0 included) is left out."""
    from pmpkit.flows import IntegratorConfig

    cfg = cfg or IntegratorConfig()
    s = float(s)
    t = float(t)
    if t == s:
        return np.array([s])
    lo, hi = (s, t) if t > s else (t, s)
    span = hi - lo
    step = cfg.step if cfg.step is not None else 1e-3 * span
    n = max(1, math.ceil(span / step - 1e-12))
    base = list(np.linspace(lo, hi, n + 1))
    events = []
    for e in cfg.event_times:
        if lo < e < hi and e not in events:
            events.append(e)
    events.sort()
    if events:
        merged = [lo]
        for b in base[1:-1]:
            if all(abs(b - e) > 1e-9 * span for e in events):
                merged.append(b)
        merged.extend(events)
        merged.append(hi)
        base = sorted(merged)
    grid = np.array(base)
    if t < s:
        grid = grid[::-1]
    return grid


def signal_path_per_step(sys, u, s, t, x0, cfg=None):
    """(grid, states, blow_up): the RK4 path of x' = f(x, u) from (s, x0) to
    t as the forward path loop made it before it walked control pieces: on
    the grid hitting cfg's events and u's switches, each step holds
    u.value_at of its own midpoint and is one `rk4_step_arrays` step of
    `sys.dynamics` with h = t1 - t0.  blow_up is the first node time whose
    state is not finite, the path stopping before it, or None."""
    from pmpkit.flows import IntegratorConfig

    cfg = cfg or IntegratorConfig()
    grid = integration_grid_loop(s, t, IntegratorConfig(
        cfg.step, tuple(cfg.event_times) + tuple(u.switch_times)))
    x = np.array(x0, dtype=float)
    states = [x]
    with np.errstate(all="ignore"):
        for t0, t1 in zip(grid.tolist(), grid[1:].tolist()):
            c = u.value_at(0.5 * (t0 + t1))

            def f(_, y):
                return np.asarray(sys.dynamics(y, c))

            x = rk4_step_arrays(f, t0, x, t1 - t0, f(t0, x))
            if not np.all(np.isfinite(x)):
                return grid, np.array(states), t1
            states.append(x)
    return grid, np.array(states), None


# ---------------------------------------------------------------------------
# Shooting's coupled (x, p) step and propagation on numpy arrays, verbatim as
# they stood before the propagation state became a list of Python floats,
# with the array RK4 step and the array maximizer above; the loop here
# maximizes again at the state a bisection returns and propagates from the
# start only.  Both must give the same bits.

def coupled_rhs_arrays(sys, p0, u):
    """(x', p') of the stacked state-costate y = (x, p) at a frozen control,
    as a list of floats; y is a list of floats or an array."""
    m, rate = sys.m, sys._rate

    def f(_, y):
        y = np.asarray(y, dtype=float)
        x, p = y[:m], y[m:]
        q = ordered_matvec(sys.jac_x(x, u).T, p)
        return rate(x, u) + (-p0 * sys.cost_grad_x(x, u) - q).tolist()

    return f


def propagate_arrays(problem, z, opts, step):
    """The coupled (x, p) system integrated from the start encoded in z:
    (steps, x_b, p_b, sup_h) as `shooting._propagator` gives them, or None
    for a failed trial."""
    from pmpkit.shooting import _TRIAL_FAILURES, _auto_jump_tol

    sys = problem.sys
    m = sys.m
    d_a = len(problem.bounds.initial or ())
    free = problem.bounds.mode == "free_time"
    b = float(z[m + d_a]) if free else problem.b
    if not b > problem.a + 1e-9 * (1.0 + abs(problem.a)):
        return None
    jump_tol = _auto_jump_tol(sys.control_set)

    def argmax(yc):
        best = maximize_hamiltonian_arrays(sys, problem.p0, yc[m:], yc[:m])
        if best.u_star is None:
            raise FloatingPointError("no control gives a Hamiltonian above -inf")
        return best

    def jumped(u1, u2):
        return float(np.abs(u1 - u2).max()) > jump_tol

    x = problem.x_a.copy()
    for ci, w in zip(z[m:m + d_a], problem.bounds.initial or ()):
        x = x + ci * np.asarray(w, float)
    y = np.concatenate([x, np.asarray(z[:m], dtype=float)])
    t = problem.a
    try:
        cur = argmax(y)
    except _TRIAL_FAILURES:
        return None
    steps = []
    n_sw = 0
    while b - t > 1e-13 * (1.0 + abs(b)):
        h = min(step, b - t)
        stages = {}

        def advance(u, dt):
            key = u.tobytes()
            if key not in stages:
                rhs = coupled_rhs_arrays(sys, problem.p0, u)
                stages[key] = (rhs, np.array(rhs(t, y)))
            rhs, k1 = stages[key]
            return rk4_step_arrays(rhs, t, y, dt, k1)

        def bisect(u_frozen, hi, y_hi):
            lo = 0.0
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                ym = advance(u_frozen, mid)
                if not np.isfinite(ym).all():
                    raise FloatingPointError
                if jumped(argmax(ym).u_star, u_frozen):
                    hi, y_hi = mid, ym
                else:
                    lo = mid
            return hi, y_hi

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                yh = advance(cur.u_star, 0.5 * h)
                if not np.isfinite(yh).all():
                    return None
                u_mid = argmax(yh).u_star
                if jumped(u_mid, cur.u_star):
                    u_step = cur.u_star
                    dt, yn = bisect(u_step, 0.5 * h, yh)
                    end = None
                else:
                    u_step = u_mid
                    y1 = advance(u_mid, h)
                    if not np.isfinite(y1).all():
                        return None
                    end = argmax(y1)
                    if jumped(end.u_star, u_mid):
                        dt, yn = bisect(u_mid, h, y1)
                        end = None
                    else:
                        dt, yn = h, y1
                steps.append((t, np.asarray(u_step, float)))
                t, y = t + dt, yn
                if end is None:
                    cur = argmax(y)
                    n_sw += 1
                else:
                    cur = end
        except _TRIAL_FAILURES:
            return None
        if n_sw > opts.max_switches:
            return None
    return steps, y[:m], y[m:], cur.value


# The CLI's builtin dynamics and state Jacobians as they stood, returning
# fresh arrays: name -> (f, df_dx).
BUILTINS_ARRAYS = {
    "double_integrator": (lambda x, u: np.array([x[1], u[0]]),
                          lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]])),
    "scalar_integrator": (lambda x, u: np.atleast_1d(u[0]),
                          lambda x, u: np.zeros((1, 1))),
}


def signal_of_pieces_loop(pieces):
    """(switch times, values) of pieces, (start, value) pairs in time order:
    a piece whose value equals the last value kept, entry by entry, is
    merged into it, and every other piece starts at a switch."""
    switches, values = [], []
    for start, value in pieces:
        if values and len(value) == len(values[-1]) and all(
                v == w for v, w in zip(value, values[-1])):
            continue
        if values:
            switches.append(start)
        values.append(value)
    return switches, values


# ---------------------------------------------------------------------------
# The reach sampler's draws, a signal's path and the cone queries as they
# stood before a sample's draws came from `Generator.random`, a signal ran
# in one generated call and a stack of vectors shared each LP kind's stack.

def draw_value_uniform(rng, control_set):
    """A control value as `reachable._draw_value` drew it: one
    `Generator.uniform` a box value, with -1 or 1 in place of an infinite
    side (numpy raises where that leaves lo > hi)."""
    k = control_set.dim
    if control_set.kind == "finite":
        return tuple(np.atleast_1d(
            control_set.points[int(rng.integers(len(control_set.points)))]))
    if control_set.kind == "box":
        lo = np.where(np.isfinite(control_set.lo), control_set.lo, -1.0)
        hi = np.where(np.isfinite(control_set.hi), control_set.hi, 1.0)
        return tuple(rng.uniform(lo, hi))
    d = rng.normal(size=k)
    n = np.linalg.norm(d)
    d = d / n if n > 0 else np.zeros(k)
    r = control_set.radius * rng.uniform() ** (1.0 / max(k, 1))
    return tuple(control_set.center + r * d)


def draw_times_uniform(rng, T, n):
    """A sample's n switch times as `reachable.sample_reachable` drew them."""
    while True:
        times = np.sort(rng.uniform(0.0, T, size=n))
        if len(np.unique(times)) == n and np.all(times > 0) and np.all(times < T):
            return times


def signal_path_lists(f, u, x0, ts):
    """(states, node): the RK4 path on the grid ts of x' = f(x, u(t)), f a
    function of lists of floats, as the generated runner took it one piece
    a call: each step one `flows.rk4_step` on f with the control looked up
    at the step's midpoint, as a list of floats.  The path stops at the
    first node whose state is not finite, that state kept, and node is its
    index, or None."""
    import bisect

    from pmpkit.flows import rk4_step

    x = [float(v) for v in x0]
    states = [x]
    for i in range(len(ts) - 1):
        v = u.values[bisect.bisect_right(u.switch_times, 0.5 * (ts[i] + ts[i + 1]))].tolist()
        x = rk4_step(lambda _, y: f(y, v), ts[i], x, ts[i + 1] - ts[i], f(x, v))
        states.append(x)
        if not all(map(math.isfinite, x)):
            return states, i + 1
    return states, None


def _residual_fan_one(W, V, tol, stack):
    from pmpkit.cone_geometry import ConeCertificateError

    m, ng = W.shape
    A = np.hstack([W, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(ng), np.ones(2 * m)])
    for res in stack(c, A, V, tol=min(tol, 1e-10)):
        if not res.ok:
            raise ConeCertificateError("membership LP returned " + res.status)
        yield res


def _vector(cone, v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (cone.n,):
        raise ValueError("dimension mismatch")
    return v


def cone_residual_one(cone, v, tol=1e-9, stack=None):
    """`cone_geometry.cone_residual` of one vector, its LP solved by stack
    (`_simplex.solve_stack` by default)."""
    from pmpkit._simplex import solve_stack

    v = _vector(cone, v)
    return max(next(_residual_fan_one(cone.matrix, v, tol, stack or solve_stack)).value, 0.0)


def conic_membership_one(cone, v, tol=1e-9, stack=None):
    """`cone_geometry.conic_membership` of one vector, its LPs solved by
    stack: the residual LP, then the +-fan up to the LP that decides."""
    from pmpkit._simplex import solve_stack
    from pmpkit.cone_geometry import _fan

    stack = stack or solve_stack
    v = _vector(cone, v)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not cone.generators:
        return "interior" if np.all(np.abs(v) <= tol) else "outside"
    if cone_residual_one(cone, v, tol, stack) > tol:
        return "outside"
    Q = cone.span_basis()
    j, sgn = _fan(Q.shape[1])
    for res in _residual_fan_one(cone.matrix, v + sgn[:, None] * tol * Q.T[j], tol, stack):
        if max(res.value, 0.0) > 0.5 * tol:
            return "boundary"
    return "interior"


def membership_margin_one(cone, v, tol=1e-9, stack=None):
    """`cone_geometry.membership_margin` of one vector, its LPs solved by
    stack: the residual LP, then the margin LPs up to one that decides."""
    from pmpkit._simplex import solve_stack
    from pmpkit.cone_geometry import ConeCertificateError, _fan

    stack = stack or solve_stack
    v = _vector(cone, v)
    if cone_residual_one(cone, v, tol, stack) > tol:
        return 0.0
    Q = cone.span_basis()
    k = Q.shape[1]
    if k == 0:
        return np.inf
    cap = max(1.0, float(np.linalg.norm(v)))
    W = cone.matrix
    ng = W.shape[1]
    j, sgn = _fan(k)
    A = np.zeros((2 * k, k + 1, ng + 2))
    A[:, :k, :ng] = Q.T @ W
    A[np.arange(2 * k), j, ng] = -sgn
    A[:, k, ng:] = 1.0
    b = np.append(Q.T @ v, cap)
    c = np.zeros(ng + 2)
    c[ng] = -1.0
    out = np.inf
    for i, res in enumerate(stack(c, A, b, tol=min(tol, 1e-10))):
        if not res.ok:
            return 0.0
        lam, r = res.x[:ng], res.x[ng]
        miss = np.abs(W @ lam - r * sgn[i] * Q[:, j[i]] - Q @ b[:k]).sum()
        if not miss <= tol:
            raise ConeCertificateError(
                "margin certificate misses v + r d by %.3e (r = %.6g)" % (miss, r))
        out = min(out, r)
    return out
