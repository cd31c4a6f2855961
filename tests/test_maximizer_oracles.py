"""The Hamiltonian maximizer against two oracles.

`maximize_hamiltonian_arrays` in `oracles.py` is the maximizer as it stood
on numpy arrays; the scalar rewrite must return the same u_star and value
bits (NaN compared as NaN) and raise the same exception types, also at
boxes with infinite, degenerate (-0.0 included), huge and tiny sides and
at Hamiltonians that are inf or NaN.  Dense brute force checks the answers
themselves on concave, linear, convex and non-quadratic H.  The vertex is
held to the array oracle where the switching function sits at the
tolerance and p . f cancels, and the ordered sum of p . f to numpy's dot
within a rounding bound.  The generated probe fit of a grammar system is
held to the fit of the maximizer's H values bit for bit, signs of zero
compared.
"""

import dataclasses
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import BOUND_CAP, dot_bound, maximize_hamiltonian_arrays, ordered_dot
from pmpkit import flows, grammar, pmp
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
    """The array maximizer's outcome, with its deliberate change."""
    want = outcome(maximize_hamiltonian_arrays, sys, p0, p, x, *grid)
    if want is TypeError:
        # the array grid refinement subtracted a step from u_star None when
        # no grid point had H above -inf; the rewrite returns that level's
        # result, as the finite set and the ball always did
        return None, bits(-INF)
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
    assert flows._jumped(u1, u2, tol) is want


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
    # the refusal is an UnsupportedMaximizationError (a RuntimeError),
    # which ends one shooting propagation only
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


# --- the ordered sums and their rounding bound ------------------------------

def _magnitudes(draw, exponents):
    """A float of either sign, |v| in [0.5, 1) times 10 to one of
    exponents, now and then a subnormal or a signed zero."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320)))
    return draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.5, 1.0)) * 10.0 ** draw(
        st.sampled_from(exponents))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_python_sum_is_within_its_bound_of_numpys_dot(data):
    # H's ordered sum of p . r (`flows._dot`) lies within `dot_bound` of
    # numpy's dot, which holds for any summation order, with or without
    # fused multiply-adds, so every value that moved from numpy's dot to
    # the ordered sum moved by at most that bound; with one product numpy's
    # dot is 0.0 + p_0 r_0, the ordered sum's own bits, signed zeros and
    # subnormals included.  Entries run from 1e-300 to 1e300, or, so that
    # the products cancel and the two sums round apart, within a factor of
    # 100 of one power of ten
    m = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        exponents = tuple(range(-300, 301))
    else:
        e0 = data.draw(st.integers(-150, 150))
        exponents = (e0 - 1, e0, e0 + 1)
    p = [_magnitudes(data.draw, exponents) for _ in range(m)]
    r = [_magnitudes(data.draw, exponents) for _ in range(m)]
    A = data.draw(st.sampled_from((0.0, -0.0, 1.0, -3.5e7))) if data.draw(
        st.booleans()) else _magnitudes(data.draw, exponents)
    sys = ControlSystem(m=m, k=1, f=lambda x, u: np.array(r), control_set=box([0.0], [0.0]),
                        F=lambda x, u: A)
    h = pmp.hamiltonian(sys, 1.0, p, [0.0] * m, [0.0])
    assert bits(h) == bits(A + ordered_dot(p, r))
    e = dot_bound(p, r, h)
    with np.errstate(all="ignore"):
        want = A + float(np.array(p) @ np.array(r))
    if m == 1:
        assert bits(h) == bits(want) and e == 0.0
    elif e < BOUND_CAP:
        # a bound below the cap leaves every value finite
        assert math.isfinite(h) and math.isfinite(want) and abs(h - want) <= e


# --- the vertex at the tolerance ---------------------------------------------

SPECIALS = (0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1e300, INF, -INF, NAN)


def _draw_entry(draw, lo=-2.0, hi=2.0):
    """A float in [lo, hi], now and then a signed zero, a subnormal, +-1e300,
    inf or NaN."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(SPECIALS))
    return draw(st.floats(lo, hi))


def _ztol(sys, p0, p, x):
    """ztol = FIT_TOL (1 + bmax + cmax) of the fit to H's own values."""
    probes = pmp._probes(sys.control_set)
    with np.errstate(all="ignore"):
        values = [pmp.hamiltonian(sys, p0, p, x, u) for u in probes.points]
        fit = pmp._fit_quadratic(values, probes, pmp.FIT_TOL)
        return pmp.FIT_TOL * (1.0 + fit[3] + fit[4])


@st.composite
def tolerance_cases(draw):
    """m = 2..4 states and k = 1..3 controls on a finite box, f and F of
    declared degree 1 or 2 in u, and p . f summed over terms that cancel:
    f_0 holds L u_0 and f_1 holds -L u_0, with p_0 = p_1 (u_0 = 0 at the
    centre, so only the probes off it along axis 0 carry them), so that
    numpy's dot and the ordered sum round apart by up to an ulp of L.

    On one axis j the switching function b_j is placed from an ulp to half
    of ztol away from +ztol or -ztol of numpy's own fit ("near"), or
    the cost term A dwarfs it ("big_cost"), with coefficients, p and x now
    and then signed zeros, subnormals, +-1e300, inf or NaN.  In "across",
    k >= 2 and the rest is clean: axis 0 carries a large b_0 and a
    cancellation small enough to keep |a_0| and the mixed entries within
    ztol, so that ztol, which b_0 scales, differs between numpy and the
    ordered sum by more than the bound of b_j on axis j >= 1, placed
    beside it."""
    mode = draw(st.sampled_from(("near", "near", "near_neg", "big_cost", "across", "across")))
    m = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3)) if mode == "across" else draw(st.integers(1, 3))
    degree = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((0.7, 0.1, 1.3, 3.0 ** 0.5, 2.0 / 3.0)))
    p0 = draw(st.sampled_from((-1.0, 0.0)))
    Qd = np.array([[draw(st.floats(-2.0, 2.0)) if degree == 2 else 0.0 for _ in range(k)]
                   for _ in range(m)])
    w = np.zeros(m)
    w[0], w[1] = 1.0, -1.0
    half = draw(st.sampled_from((0.5, 1.0, 2.0, 1e-3)))
    sides = [(-half, half)]
    for _ in range(k - 1):
        lo = draw(st.floats(-2.0, 1.0))
        sides.append((lo, lo + draw(st.sampled_from((0.5, 1.0, 3.0)))))
    if mode == "across":
        p = [q, q] + [draw(st.floats(0.5, 2.0)) for _ in range(m - 2)]
        x, c, Fc, wF = [0.0] * m, np.zeros(m), 0.0, np.zeros(k)
        G = np.zeros((m, k))
        G[0, 0] = draw(st.sampled_from((1.0, 7.0, 300.0)))
        # the largest `dot_bound` of a probe off axis 0, about m 2^-49 q L
        # delta_0, is one to four hundredths of ztol delta_0^2, so |a_0| and
        # the mixed entries stay within ztol
        L = draw(st.sampled_from((5e3, 1e4, 2e4))) * abs(q * G[0, 0]) * (half / 2) / (m * q)
        Qd[:, 0] = 0.0
    else:
        p = [q, q] + [_draw_entry(draw) for _ in range(m - 2)]
        x = [_draw_entry(draw) for _ in range(m)]
        c = np.array([_draw_entry(draw) for _ in range(m)])
        G = np.array([[_draw_entry(draw, -3.0, 3.0) for _ in range(k)] for _ in range(m)])
        L = draw(st.sampled_from((0.0, 1e3, 1e8, 1e12, 1e16)))
        Fc = draw(st.sampled_from((1e6, 1e12) if mode == "big_cost" else (0.0, 1.0, -0.5)))
        wF = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(k)])
    U = box(*zip(*sides))

    def system(G):
        def f(x, u):
            return (c + G @ u + 0.5 * Qd @ (u * u) + L * u[0] * w) + x

        def F(x, u):
            return float(Fc + wF @ u + (0.5 * u @ u if degree == 2 else 0.0))

        return ControlSystem(m=m, k=k, f=f, control_set=U, F=F, u_degree=degree)

    j = draw(st.integers(1, k - 1)) if mode == "across" else draw(st.integers(0, k - 1))
    i = draw(st.integers(0, m - 1))
    if mode != "big_cost" and math.isfinite(p[i]) and abs(p[i]) > 1e-300:
        # H's ztol with b_j left out, then b_j placed beside it
        G[:, j] = 0.0
        ztol = _ztol(system(G), p0, p, x)
        if math.isfinite(ztol):
            # across, numpy's dot and the ordered sum part ztol by about 2^-40
            lowest = (36, 50) if mode == "across" else (1, 53)
            rho = draw(st.sampled_from((0.0, 1.0, -1.0))) * 2.0 ** -draw(st.integers(*lowest))
            G[i, j] = (-1.0 if mode == "near_neg" else 1.0) * ztol * (1.0 + rho) / p[i]
    return system(G), p0, p, x


@settings(max_examples=800, deadline=None, derandomize=True)
@given(tolerance_cases())
def test_vertex_at_the_tolerance_matches_array_maximizer_bit_for_bit(case):
    # the switching function b_j within ulps of +-ztol, where the last bit
    # of a sum decides the vertex: the maximizer decides on the ordered
    # sums of H (`pmp.hamiltonian`), as the array maximizer does, so
    # u_star and H(u_star) keep its bits
    sys, p0, p, x = case
    want = expected(sys, p0, p, x, (1e-3, 3))
    with refining_on(1e-3, 3):
        assert outcome(pmp.maximize_hamiltonian, sys, p0, p, x) == want
        assert bound_outcome(sys, p0, p, x) == want


# --- the generated probe fit ------------------------------------------------

# factors of x: states and numbers, and now and then a zero, a huge number
# or a tree that raises inside the guard (division by zero, overflow, a
# math domain error) for some x or for every x
X_ATOMS = ("x{i}", "x{i}", "0.7", "-1.3", "2.5")
X_TRAPS = ("0", "1e300", "(x{i} - x{i})", "1/(x{i} - x{i})", "exp(1e3*x{i})", "x{i}^-1",
           "sin(1e308*x{i}*10)", "x{i}^0.5")


def _state_factor(draw, m, depth=2):
    """A grammar expression over the states, with no control."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        atoms = X_TRAPS if draw(st.integers(0, 7)) == 0 else X_ATOMS
        return draw(st.sampled_from(atoms)).format(i=draw(st.integers(0, m - 1)))
    a, b = _state_factor(draw, m, depth - 1), _state_factor(draw, m, depth - 1)
    return draw(st.sampled_from(("({a} + {b})", "({a} - {b})", "({a} * {b})", "({a} / {b})",
                                 "sin({a})", "cos({a})", "exp({a})", "-{a}", "{a}^2"))
                ).format(a=a, b=b)


def _ragged_entry(draw):
    """A float in [-4, 4] with a random 53-bit mantissa, so that sums of
    its products round, now and then a signed zero, a subnormal, +-1e300,
    inf or NaN."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(SPECIALS))
    return draw(st.integers(-2 ** 53, 2 ** 53)) * 2.0 ** -51


@st.composite
def probe_fit_cases(draw):
    """A grammar system of m = 1..4 states and k = 1..3 controls, f of
    degree at most 1 in u and no cost, a number, a cost of x alone or one
    quadratic in u, on a finite box whose axes may have zero width (a
    -0.0 centre included), with p and x entries that are now and then
    signed zeros, subnormals, +-1e300, inf or NaN."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    srcs = []
    for _ in range(m):
        terms = [_state_factor(draw, m)] + [
            f"{_state_factor(draw, m)}*u{j}" for j in range(k) if draw(st.booleans())]
        srcs.append(" + ".join(terms))
    cost = draw(st.sampled_from((None, "2.5", "x", "u")))
    if cost == "x":
        cost = _state_factor(draw, m)
    elif cost == "u":
        cost = " + ".join([f"{_state_factor(draw, m, 1)}*u{j}" for j in range(k)]
                          + [f"0.5*u{j}^2" for j in range(k)] + ["u0*u%d" % (k - 1)])
    f, df, degree = grammar.compile_dynamics(tuple(srcs), m, k)
    F = None if cost is None else grammar.parse_expression(cost, m, k)
    if cost is not None:
        degree = max(degree, grammar.compile_gradient(cost, m, k)[1])
    sides = []
    for _ in range(k):
        lo = draw(st.sampled_from((-1.0, -0.0, 0.0, 0.3, -2.5)))
        width = draw(st.sampled_from((0.0, 0.5, 2.0, 3.0)))
        sides.append((lo, lo + width) if width else (lo, lo))
    U = box(*zip(*sides))
    sys = ControlSystem(m=m, k=k, f=f, control_set=U, F=F, df_dx=df, u_degree=degree)
    p = [_ragged_entry(draw) for _ in range(m)]
    x = [_ragged_entry(draw) for _ in range(m)]
    return sys, draw(st.sampled_from((-1.0, 0.0))), p, x


def exact_bits(v):
    """v with every float as its bytes, so that -0.0 and 0.0 differ, and
    every NaN as one NaN."""
    if isinstance(v, (tuple, list)):
        return type(v)(exact_bits(w) for w in v)
    if isinstance(v, float):
        return "nan" if v != v else v.hex()
    return v


def on_closures(sys):
    """sys with f and F behind closures that carry no generated form, so
    the maximizer takes the path of user callables on lists."""
    def rate(x, u):
        return sys.f(x, u)

    def cost(x, u):
        return sys.F(x, u)

    rate.on_lists = cost.on_lists = True
    return dataclasses.replace(sys, f=rate, F=None if sys.F is None else cost)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(probe_fit_cases())
def test_generated_probe_fit_matches_the_fit_of_h_bit_for_bit(case):
    # the generated probe fit is `_fit_quadratic` of the values of the H
    # the maximizer binds, signs of zero included, and the maximizer that
    # reads it returns the closure path's u_star and H(u_star)
    sys, p0, p, x = case
    probes = pmp._probes(sys.control_set)
    probe_fit = sys.f.probe_fit(sys.F, probes.points, probes.axes, probes.pairs)
    assert probe_fit is not None and probes.plain_divisors
    H = pmp._maximizer(on_closures(sys), p0)(p, x)[1]
    want = pmp._fit_quadratic([H(u) for u in probes.points], probes, pmp.FIT_TOL)
    assert exact_bits(probe_fit(p, x, p0)) == exact_bits(want)
    assert bound_outcome(sys, p0, p, x) == bound_outcome(on_closures(sys), p0, p, x)
