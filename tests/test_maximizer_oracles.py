"""The Hamiltonian maximizer against two oracles.

`maximize_hamiltonian_arrays` in `oracles.py` is the maximizer as it stood
on numpy arrays; the scalar rewrite must return the same u_star and value
bits (NaN compared as NaN) and raise the same exception types, also at
boxes with infinite, degenerate (-0.0 included), huge and tiny sides and
at Hamiltonians that are inf or NaN.  Dense brute force checks the answers
themselves on concave, linear, convex and non-quadratic H.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import maximize_hamiltonian_arrays
from pmpkit import pmp, shooting
from pmpkit.control_system import ControlSystem, ball, box, finite

INF, NAN = math.inf, math.nan


def bits(v):
    """The bytes of v as a float array with each NaN made the one NaN.

    CPython 3.11 may flip the sign of a NaN made from two NaNs once it has
    specialized the instruction, so NaN signs are not compared."""
    if v is None:
        return None
    a = np.array(v, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.shape, a.tobytes()


def outcome(maximize, sys, p0, p, x, *grid):
    with np.errstate(all="ignore"):
        try:
            res = maximize(sys, p0, p, x, *grid)
        except Exception as exc:  # the exception type is part of the outcome
            return type(exc)
    return bits(res.u_star), bits(res.value)


# one side of a box: finite, half-infinite, infinite, degenerate (signed
# zeros included), and widths whose square overflows or whose square
# underflows to zero (a NaN bound is rejected by the box itself)
sides = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.sampled_from((0.5, 2.0, 1e200, 1e-170)))
    .map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from(((-1.0, INF), (-INF, 2.0), (-0.0, INF), (-INF, INF),
                     (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (1.5, 1.5),
                     (-1e308, 1e308), (-1e200, 1e200), (-1e-170, 1e-170))))
values = st.sampled_from((0.0, -0.0, 1.5, -2.0, 0.25))


@st.composite
def control_sets(draw, k):
    kind = draw(st.sampled_from(("box", "box", "ball", "finite")))
    if kind == "box":
        lo, hi = zip(*[draw(sides) for _ in range(k)])
        return box(lo, hi)
    if kind == "ball":
        radius = draw(st.sampled_from((0.0, 1e-170, 0.5, 3.0, 1e200)))
        return ball([draw(values) for _ in range(k)], radius)
    n = draw(st.integers(1, 4))
    return finite([[draw(values) for _ in range(k)] for _ in range(n)])


coefficients = st.one_of(st.floats(-3.0, 3.0),
                         st.sampled_from((0.0, -0.0, 1e300, -1e300, INF, -INF, NAN)))


@st.composite
def hamiltonians(draw, k):
    """(f, F) with H = p0 F + p f quadratic in u, plus an optional
    non-quadratic term, an optional term that tells -0.0 from +0.0 and an
    optional region where f is inf or NaN."""
    c = draw(coefficients)
    g = np.array([draw(coefficients) for _ in range(k)])
    Q = np.array([[draw(coefficients) for _ in range(k)] for _ in range(k)])
    with np.errstate(invalid="ignore"):  # inf + -inf gives a NaN entry, as intended
        Q = Q + Q.T if draw(st.booleans()) else np.diag(np.diag(Q))
    w = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(k)])
    wiggle = draw(st.sampled_from((0.0, 0.0, 0.3, 1e-12)))
    signs = draw(st.sampled_from((0.0, 0.0, 1.0)))
    special = draw(st.sampled_from((None, None, INF, -INF, NAN)))
    cut = draw(st.floats(-1.0, 1.0))

    def f(x, u):
        val = (c + g @ u + 0.5 * u @ Q @ u + wiggle * np.sum(np.sin(3.0 * u))
               + signs * np.sum(np.copysign(1.0, u)))
        if special is not None and u[0] > cut:
            val = special
        return np.array([val + x[0]])

    def F(x, u):
        return float(w @ u + 0.5 * u @ u)

    return f, F


@st.composite
def cases(draw):
    k = draw(st.integers(1, 3))
    f, F = draw(hamiltonians(k))
    sys = ControlSystem(m=1, k=k, f=f, control_set=draw(control_sets(k)), F=F,
                        u_degree=draw(st.sampled_from((None, 1, 2))))
    p0 = draw(st.sampled_from((-1.0, 0.0)))
    p = [draw(st.sampled_from((1.0, -0.5, 2.0)))]
    # coarse grids keep grid refinement cheap; (resolution, points per axis)
    grid = (draw(st.sampled_from((1e-6, 1e-3))), draw(st.sampled_from((3, 5))))
    return sys, p0, p, [0.0], grid


@contextmanager
def refining_on(resolution, points):
    """pmp's grid refinement with this final cell width and points per axis."""
    with mock.patch.object(pmp, "GRID_RESOLUTION", resolution), \
            mock.patch.object(pmp, "GRID_POINTS", points):
        yield


def expected(sys, p0, p, x, grid=()):
    """The array maximizer's outcome, with its two deliberate changes."""
    want = outcome(maximize_hamiltonian_arrays, sys, p0, p, x, *grid)
    if want is TypeError:
        # the array grid refinement subtracted a step from u_star None when
        # no grid point had H above -inf; the rewrite returns that level's
        # result, as the finite set and the ball always did
        return None, bits(-INF)
    if want is RuntimeError:
        # a coupled concave model with mixed infinite bounds: the same
        # refusal, now under its own RuntimeError subclass
        return pmp.UnsupportedMaximizationError
    return want


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cases())
def test_scalar_maximizer_matches_array_maximizer_bit_for_bit(case):
    sys, p0, p, x, grid = case
    want = expected(sys, p0, p, x, grid)
    with refining_on(*grid):
        assert outcome(pmp.maximize_hamiltonian, sys, p0, p, x) == want
        # a second call reads the probes kept on the control set
        assert outcome(pmp.maximize_hamiltonian, sys, p0, p, x) == want


def bound_outcome(sys, p0, p, x):
    """u_star and H(u_star) of the bound maximizer at lists p and x, as
    `outcome` gives them; a value its search returns must be H(u_star)."""
    with np.errstate(all="ignore"):
        try:
            u, H, value = pmp._maximizer(sys, p0)([float(v) for v in p],
                                                  [float(v) for v in x])
        except Exception as exc:
            return type(exc)
        if u is None:
            return None, bits(value)
        if value is not None:
            assert bits(value) == bits(H(u))
        return bits(u), bits(H(u))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cases())
def test_bound_maximizer_matches_public_maximizer_bit_for_bit(case):
    # boxes of k = 1..3 with finite, half-infinite and signed-zero sides,
    # balls and finite sets, u_degree declared or not
    sys, p0, p, x, grid = case
    with refining_on(*grid):
        assert bound_outcome(sys, p0, p, x) == outcome(pmp.maximize_hamiltonian,
                                                       sys, p0, p, x)


@pytest.mark.parametrize("U", (box([-1.0], [2.0]), box([-1.0, -0.0], [1.0, 0.0]),
                               box([-1.0, 0.0], [1.0, 3.0]), ball([0.5, -0.0], 2.0),
                               finite([[1.0], [-0.0]]), box([-1.0] * 2, [1.0] * 2),
                               box([-1.0] * 3, [1.0] * 3)), ids=repr)
@pytest.mark.parametrize("degree", (None, 1, 2))
def test_bound_maximizer_of_nan_hamiltonian_has_no_u_star(U, degree):
    # a coupled model that is not finite goes to grid refinement, as it
    # does for k = 2, and eigvalsh never sees it (it need not converge)
    sys = ControlSystem(m=1, k=U.dim, f=lambda x, u: np.array([np.nan]), control_set=U,
                        F=lambda x, u: 1.0, u_degree=degree)
    want = outcome(pmp.maximize_hamiltonian, sys, -1.0, [1.0], [0.0])
    assert want == (None, bits(-INF))
    assert bound_outcome(sys, -1.0, [1.0], [0.0]) == want


@st.composite
def dense_cases(draw):
    """Dynamics with m = 2 or 3 states, each component quadratic in every
    control: every H value is then p . f over m products, whose rounding
    depends on how the products are summed (at m = 1 a single product is
    exact, so `cases` cannot tell)."""
    m, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0)

    def array(*shape):
        return np.array([draw(entries) for _ in range(math.prod(shape))]).reshape(shape)

    c, G, Q, w = array(m), array(m, k), array(m, k, k), array(k)
    Q = Q + Q.transpose(0, 2, 1) if draw(st.booleans()) else Q * np.eye(k)

    def f(x, u):
        return np.array([c[i] + G[i] @ u + 0.5 * u @ Q[i] @ u for i in range(m)]) + x

    def F(x, u):
        return float(w @ u + 0.5 * u @ u)

    sys = ControlSystem(m=m, k=k, f=f, control_set=draw(control_sets(k)),
                        F=draw(st.sampled_from((None, F))),
                        u_degree=draw(st.sampled_from((None, 2))))
    p0 = draw(st.sampled_from((-1.0, 0.0)))
    p = [draw(entries) for _ in range(m)]
    x = [draw(entries) for _ in range(m)]
    return sys, p0, p, x, (1e-3, 3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dense_cases())
def test_bound_maximizer_matches_array_maximizer_at_dense_dynamics(case):
    # each H is one numpy dot of p with the rate at one probe, as
    # `pmp.hamiltonian` computes it; a batched R @ p or a sum in Python
    # rounds some of them differently, which moves u_star or H(u_star)
    sys, p0, p, x, grid = case
    want = expected(sys, p0, p, x, grid)
    with refining_on(*grid):
        assert bound_outcome(sys, p0, p, x) == want


jump_values = st.one_of(st.floats(-3.0, 3.0),
                        st.sampled_from((0.0, -0.0, INF, -INF, NAN, 1e308, -1e308)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.lists(jump_values, min_size=k,
                                                              max_size=k),
                                                     st.lists(jump_values, min_size=k,
                                                              max_size=k))),
       st.sampled_from((0.0, 0.05, 1.0)))
def test_jump_test_on_floats_matches_numpy(pair, tol):
    u1, u2 = (np.array(v) for v in pair)
    with np.errstate(all="ignore"):
        want = float(np.abs(u1 - u2).max()) > tol
    assert shooting._jumped(u1, u2, tol) is want


def _concave_plus_signs(x, u):
    # concave in u1, and copysign tells the sign of every zero
    return np.array([-(u[-1] - 0.3) ** 2 + np.sum(np.copysign(1.0, u))])


# combinations that random draws rarely make, one per way a scalar rewrite
# can drift from the arrays
TRAPS = {
    # the probes along u1 must read the degenerate u0 = -0.0 as u0 + e does
    "signed_zero_probe": box([-0.0, -1.0], [-0.0, 1.0]),
    # a step that squares to zero makes the Hessian diagonal -inf, so the
    # off-diagonal part of the matrix is NaN
    "underflowed_step": box([-1e-170, -1.0], [1e-170, 1.0]),
    # the square of the step overflows to inf
    "overflowed_step": box([-1e200, -1.0], [1e200, 1.0]),
    "signed_zero_centre": ball([-0.0, 0.5], 1.0),
}


@pytest.mark.parametrize("name", sorted(TRAPS))
@pytest.mark.parametrize("degree", (None, 2))
def test_trap_cases_match_array_maximizer(name, degree):
    U = TRAPS[name]
    sys = ControlSystem(m=1, k=U.dim, f=_concave_plus_signs, control_set=U,
                        F=lambda x, u: float(u @ u), u_degree=degree)
    for p0 in (-1.0, 0.0):
        want = expected(sys, p0, [1.0], [0.0])
        assert outcome(pmp.maximize_hamiltonian, sys, p0, [1.0], [0.0]) == want


def test_probes_are_read_only_and_rebuild_signed_zeros():
    U = box([-0.0, -1.0], [-0.0, 1.0])
    probes = pmp._probes(U)
    assert pmp._probes(U) is probes
    assert bits(probes.u0) == bits([-0.0, 0.0])
    # the probes along axis 1 are u0 + e and u0 - e: on the degenerate axis
    # -0.0 + 0.0 reads +0.0 and -0.0 - 0.0 keeps -0.0
    plus, minus = probes.axis[1]
    assert bits(plus) == bits([0.0, 0.5]) and bits(minus) == bits([-0.0, -0.5])
    assert all(not u.flags.writeable for u in (probes.u0, *probes.axis[1]))


def test_control_set_arrays_are_read_only_copies():
    # the probes kept on a control set cannot go stale: its bounds and
    # centre can be changed neither in place nor through the caller's array
    lo, hi, c = np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([0.5])
    U, B = box(lo, hi), ball(c, 1.0)
    lo[0] = c[0] = 9.0
    assert U.lo[0] == -1.0 and B.center[0] == 0.5
    for a in (U.lo, U.hi, B.center):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_more_than_three_controls_refuse_grid_refinement_as_runtime_error():
    # k = 4 on a finite box with a coupled convex H has no exact branch;
    # the refusal is a RuntimeError, which ends one shooting propagation only
    Q = np.eye(4) + 0.3 * np.ones((4, 4))
    sys = ControlSystem(m=1, k=4, f=lambda x, u: np.array([u @ Q @ u]),
                        control_set=box([-1.0] * 4, [1.0] * 4), u_degree=2)
    with pytest.raises(pmp.UnsupportedMaximizationError, match="at most 3"):
        pmp.maximize_hamiltonian(sys, 0.0, [1.0], [0.0])


# --- brute force --------------------------------------------------------

SHAPES = ("concave", "linear", "convex", "quartic")


def brute_points(U, n):
    """Points of U: a dense grid of a box, a polar grid of a ball, the
    points of a finite set."""
    if U.kind == "finite":
        return list(U.points)
    if U.kind == "box":
        axes = [np.linspace(lo, hi, n) for lo, hi in zip(U.lo, U.hi)]
        return [np.array(u) for u in np.stack(np.meshgrid(*axes), -1).reshape(-1, U.dim)]
    c, R = U.center, U.radius
    if U.dim == 1:
        return [c + np.array([t]) for t in np.linspace(-R, R, 4 * n)]
    return [c + r * np.array([np.cos(a), np.sin(a)])
            for r in np.linspace(0.0, R, n) for a in np.linspace(0.0, 2 * np.pi, 8 * n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("box", "ball", "finite")), k=st.integers(1, 3),
       shape=st.sampled_from(SHAPES), declared=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_maximizer_reaches_brute_force_maximum(kind, k, shape, declared, seed):
    rng = np.random.default_rng(seed)
    if kind == "ball":
        k = min(k, 2)
    g = rng.uniform(-2.0, 2.0, k)
    M = rng.uniform(-1.0, 1.0, (k, k))
    Q = {"concave": -(M @ M.T + 0.5 * np.eye(k)), "linear": np.zeros((k, k)),
         "convex": M @ M.T + 0.5 * np.eye(k), "quartic": np.zeros((k, k))}[shape]
    s, c4 = rng.uniform(-1.0, 1.0, k), rng.uniform(0.5, 2.0, k)

    def H(u):
        val = g @ u + 0.5 * u @ Q @ u
        return val - np.sum(c4 * (u - s) ** 4) if shape == "quartic" else val

    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, k)
        U = box(lo, lo + rng.uniform(0.5, 3.0, k))
        reach = np.max(np.abs(np.concatenate([U.lo, U.hi])))
    elif kind == "ball":
        U = ball(rng.uniform(-1.0, 1.0, k), rng.uniform(0.5, 2.0))
        reach = np.max(np.abs(U.center)) + U.radius
    else:
        U = finite(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 6)), k)))
        reach = 2.0
    degree = {"linear": 1, "quartic": None}.get(shape, 2)
    sys = ControlSystem(m=1, k=k, f=lambda x, u: np.array([H(u)]), control_set=U,
                        u_degree=degree if declared else None)
    res = pmp.maximize_hamiltonian(sys, 0.0, [1.0], [0.0])

    assert U.contains(res.u_star)
    assert res.value == H(res.u_star)
    best = max(H(u) for u in brute_points(U, {1: 201, 2: 41, 3: 15}[k]))
    # a bound on |grad H| over the set
    lip = (np.abs(g).sum() + np.abs(Q).sum() * reach
           + (4.0 * np.sum(c4) * (reach + 1.0) ** 3 if shape == "quartic" else 0.0))
    if kind == "finite":
        tol = 0.0
    elif kind == "ball" and shape != "linear":
        # 8 radii x 32 directions: every point of a disc lies within R / 4
        # of a candidate
        tol = lip * U.radius / 4.0
    else:
        tol = 1e-9 * (1.0 + abs(best)) + 1e-5 * lip
    assert res.value >= best - tol
