"""solve_stack against solve_standard, LP by LP and bit for bit.

`solve_stack` solves a fan of same-shape LPs in lockstep, with one batched
inverse per round.  Each LP must take the pivots, end in the basis and
return the status, x, y and value that `solve_standard` gives it alone,
and a loop over the stack must see the results and errors that a loop
over `solve_standard` sees, in the same order.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmpkit import _simplex, cone_geometry
from pmpkit._simplex import SimplexError, solve_stack, solve_standard
from pmpkit.cone_geometry import GeneratedCone

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cone_lp_regressions.json")
with open(DATA) as fh:
    REGRESSIONS = json.load(fh)["cases"]


def lp(x, i, core):
    """LP i's copy of x, which is shared when it has only `core` axes."""
    x = np.asarray(x, dtype=float)
    return x[i] if x.ndim > core else x


def one_by_one(c, A, b, stop=None):
    """solve_standard on each LP in order, up to the first error (kept as
    the last entry) or the first result that `stop` accepts."""
    count = max(len(x) if np.ndim(x) > core else 1 for x, core in ((c, 1), (A, 2), (b, 1)))
    out = []
    for i in range(count):
        try:
            out.append(solve_standard(lp(c, i, 1), lp(A, i, 2), lp(b, i, 1)))
        except (np.linalg.LinAlgError, SimplexError) as err:
            return out + [err]
        if stop is not None and stop(out[-1]):
            break
    return out


def stacked(c, A, b, stop=None):
    """The same loop over solve_stack."""
    out = []
    try:
        for res in solve_stack(c, A, b):
            out.append(res)
            if stop is not None and stop(res):
                break
    except (np.linalg.LinAlgError, SimplexError) as err:
        out.append(err)
    return out


def fingerprint(res):
    if isinstance(res, Exception):
        return type(res), str(res)
    bits = [None if v is None else np.asarray(v, dtype=float).tobytes()
            for v in (res.x, res.y, res.value)]
    return (res.status, *bits)


def assert_same(c, A, b, stop=None):
    want = one_by_one(c, A, b, stop)
    assert [fingerprint(r) for r in stacked(c, A, b, stop)] == [fingerprint(r) for r in want]
    return want


def residual_form(W):
    """c and A of the L1 residual LP of cone_geometry against cone(W)."""
    m, ng = W.shape
    return np.concatenate([np.zeros(ng), np.ones(2 * m)]), np.hstack([W, np.eye(m), -np.eye(m)])


def margin_form(W, v, cap=2.0):
    """c, A (one per +-e_j) and b of membership_margin's fan in plain
    coordinates: max r with W lam - r d = v and r + s = cap."""
    k, ng = W.shape
    j, sgn = cone_geometry._fan(k)
    A = np.zeros((2 * k, k + 1, ng + 2))
    A[:, :k, :ng] = W
    A[np.arange(2 * k), j, ng] = -sgn
    A[:, k, ng:] = 1.0
    c = np.zeros(ng + 2)
    c[ng] = -1.0
    return c, A, np.append(v, cap)


ints = st.integers(-3, 3)


@st.composite
def fans(draw):
    """Fans of small integer LPs, so that ties and degenerate pivots abound:
    residual fans over +-e_j or around one point (all LPs alike),
    margin fans (phase 1 with k artificials), fans whose LPs differ in c
    (some unbounded) or in b (some infeasible), and fans with a redundant
    row, which phase 1 drops; and residual and margin fans of random
    floats, whose products round."""
    kind = draw(st.sampled_from(("residual", "margin", "costs", "rhs", "redundant", "floats")))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    if kind == "floats":
        # a cone fan as the cone routines pose it, in rounded arithmetic
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        W = rng.standard_normal((m + 1, 2 * n + 2)) + draw(st.sampled_from((0.0, 1.5)))
        v = W @ rng.uniform(0.0, 1.5, W.shape[1])
        if draw(st.booleans()):
            return (kind,) + margin_form(W[:m], v[:m], max(1.0, float(np.linalg.norm(v))))
        j, sgn = cone_geometry._fan(m + 1)
        c, A = residual_form(W)
        return kind, c, A, v + sgn[:, None] * 10.0 ** rng.uniform(-9, 0) * np.eye(m + 1)[j]
    W = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)),
                 dtype=float)
    size = draw(st.integers(1, 8))
    x0 = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    if kind == "residual":
        c, A = residual_form(W)
        if draw(st.booleans()):
            return kind, c, A, np.vstack((np.eye(m), -np.eye(m)))
        v = W @ np.array(draw(x0), dtype=float)
        scale = draw(st.sampled_from((0.0, 1e-9, 1.0)))
        shifts = draw(st.lists(ints, min_size=size * m, max_size=size * m))
        return kind, c, A, v + scale * np.array(shifts, dtype=float).reshape(size, m)
    if kind == "margin":
        return (kind,) + margin_form(W, W @ np.array(draw(x0), dtype=float))
    if kind == "costs":
        C = np.array(draw(st.lists(ints, min_size=size * n, max_size=size * n)), dtype=float)
        return kind, C.reshape(size, n), W, W @ np.array(draw(x0), dtype=float)
    if kind == "redundant":
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        W = np.vstack([W, W[i] - 2.0 * W[k]])
    B = np.array([W @ np.array(draw(x0), dtype=float) for _ in range(size)])
    if kind == "rhs":
        B += np.array(draw(st.lists(ints, min_size=size * len(W), max_size=size * len(W))),
                      dtype=float).reshape(B.shape)
    return kind, np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float), W, B


@settings(max_examples=500, deadline=None, derandomize=True)
@given(fans())
def test_stack_matches_one_by_one(fan):
    _, c, A, b = fan
    assert_same(c, A, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fans())
def test_lockstep_rounds_end_in_iterates_bases(fan):
    _, c, A, b = fan
    if np.ndim(A) != 2 or np.ndim(c) != 1 or np.ndim(b) != 2:
        return
    A3 = np.repeat(A[None], len(b), axis=0)
    start = _simplex._crash(A3, b)
    if (start < 0).any():
        return  # phase 1 comes first; solve_stack's oracle covers it
    want = []
    for i in range(len(b)):
        basis = start[i].copy()
        want.append((_simplex._iterate(A, b[i], c, basis, _simplex.DEFAULT_TOL), basis))
    bases = start.copy()
    got = {}
    for done in _simplex._rounds(A3, b, np.repeat(c[None], len(b), axis=0), bases,
                                 _simplex.DEFAULT_TOL):
        got.update(done)
    assert [got[i] for i in range(len(b))] == [status for status, _ in want]
    assert np.array_equal(bases, np.array([basis for _, basis in want]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 13), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_batched_products_give_each_lp_its_own_bits(m, size, seed):
    """What the rounds rest on: numpy's batched inverse and the stacked
    vector products of `_rounds` give each LP the bits of `_iterate`'s
    single calls, whatever the stack size."""
    rng = np.random.default_rng(seed)
    n = m + 6
    A, b, c = (rng.standard_normal(shape) for shape in ((size, m, n), (size, m), (size, n)))
    basis = np.argsort(rng.random((size, n)), axis=1)[:, :m]
    enter = rng.integers(0, n, size)
    at = np.arange(size)
    AT = A.transpose(0, 2, 1).copy()
    Binv = np.linalg.inv(AT[at[:, None], basis].transpose(0, 2, 1))
    y = (c[at[:, None], basis][:, None, :] @ Binv @ A)[:, 0]
    col = (Binv @ AT[at, enter][:, :, None])[:, :, 0]
    xB = (Binv @ b[:, :, None])[:, :, 0]
    for k in range(size):
        inv = np.linalg.inv(A[k][:, basis[k]])
        assert inv.tobytes() == Binv[k].tobytes()
        assert ((c[k][basis[k]] @ inv) @ A[k]).tobytes() == y[k].tobytes()
        assert (inv @ A[k][:, enter[k]]).tobytes() == col[k].tobytes()
        assert (inv @ b[k]).tobytes() == xB[k].tobytes()


@pytest.mark.parametrize("case", REGRESSIONS,
                         ids=["seed%d-op%d-%s" % (c["seed"], c["op"], c["kind"])
                              for c in REGRESSIONS])
def test_regression_fans_match_one_by_one(case):
    n = case["n"]
    W = GeneratedCone(np.vstack((case["G1"], -np.array(case["G2"]))), n).matrix
    c, A = residual_form(W / np.linalg.norm(W, axis=0))
    assert_same(c, A, cone_geometry._pm_axes(n))
    G1 = GeneratedCone(case["G1"], n)
    Q = G1.span_basis()
    assert_same(*margin_form(Q.T @ G1.matrix, Q.T @ G1.matrix.sum(axis=1)))


# ---------------------------------------------------------------------------
# errors come out where a loop over solve_standard raises them

def singular_at(monkeypatch, bad):
    """np.linalg.inv that finds every basis matrix equal to `bad` singular,
    alone or in a stack, as LAPACK would for a singular one."""
    inv = np.linalg.inv

    def fake(B):
        B = np.asarray(B)
        hit = B.shape[-2:] == bad.shape and np.any(np.all(B == bad, axis=(-2, -1)))
        if hit:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(B)

    monkeypatch.setattr(np.linalg, "inv", fake)


# a residual fan in R^2 around v = (1, 1): the crash basis of an LP is
# diag(sign(b)), so only the LP with b < 0 starts from -I
QUAD_C, QUAD_A = residual_form(np.eye(2))
FAN = np.array([[1.0, 1.0], [2.0, 0.5], [-1.0, -1.0], [1.5, 1.0]])


def test_later_singular_lp_leaves_the_earlier_exit(monkeypatch):
    singular_at(monkeypatch, -np.eye(2))
    # LP 1 decides, in the lockstep round where LP 2's basis is singular
    want = assert_same(QUAD_C, QUAD_A, FAN, stop=lambda res: res.x[0] == 2.0)
    assert len(want) == 2
    # with nothing to stop at, the singular LP raises in its turn
    want = assert_same(QUAD_C, QUAD_A, FAN)
    assert [type(r) for r in want] == [_simplex.LpResult] * 2 + [np.linalg.LinAlgError]


def test_singular_first_lp_raises_as_solve_standard_does(monkeypatch):
    singular_at(monkeypatch, -np.eye(2))
    with pytest.raises(np.linalg.LinAlgError) as alone:
        solve_standard(QUAD_C, QUAD_A, FAN[2])
    with pytest.raises(np.linalg.LinAlgError) as fan:
        next(solve_stack(QUAD_C, QUAD_A, FAN[2:]))
    assert str(fan.value) == str(alone.value)


def test_iteration_limit_raises_in_turn(monkeypatch):
    # alone, these LPs make 4, 4, 5, 6 and 3 inverses: with 5 allowed the
    # fourth raises, after the first three finish
    monkeypatch.setattr(_simplex, "_MAX_ITER", 5)
    W = np.array([[3.0, 2.0, 3.0, 3.0, 2.0, 3.0], [3.0, 1.0, 1.0, 1.0, 1.0, 3.0],
                  [3.0, 1.0, 2.0, 3.0, 1.0, 3.0]])
    c, A = residual_form(W)
    B = [[19.0, 12.0, 14.0], [18.0, 11.0, 13.0], [22.0, 12.0, 17.0], [10.0, 5.0, 8.0],
         [12.0, 8.0, 7.0]]
    want = assert_same(c, A, B)
    assert [type(r) for r in want] == [_simplex.LpResult] * 3 + [SimplexError]
    assert str(want[-1]) == "simplex iteration limit reached"


def test_dropped_row_finishes_alone(monkeypatch):
    # row 2 = row 0 + row 1 and no column is a unit column: every LP ends
    # phase 1 with an artificial on a redundant row, which is dropped
    W = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0], [1.0, 3.0, 3.0, 2.0]])
    B = np.array([[1, 0, 1, 0], [0, 1, 1, 1], [2, 1, 0, 1], [1, 1, 1, 1]], dtype=float) @ W.T
    c = np.array([1.0, -1.0, 2.0, 0.0])
    rows = []
    phase2 = _simplex._phase2
    monkeypatch.setattr(_simplex, "_phase2",
                        lambda *args: rows.append(args[4].size) or phase2(*args))
    assert all(res.ok for res in solve_stack(c, W, B))
    assert rows == [2] * len(B)
    assert_same(c, W, B)


# ---------------------------------------------------------------------------
# the work of a fan

def test_membership_fan_inverts_once_per_round(monkeypatch):
    """A mem_in query: the residual LP of v, the first LP of the +-q fan
    alone, then one batched inverse per round while two or more LPs are
    left, an LP leaving the stack when it finishes, and the last one
    alone."""
    rng = np.random.default_rng(3)
    d = rng.standard_normal(4)
    d /= np.linalg.norm(d)
    P = np.linalg.svd(d[None, :])[2][1:]
    R = rng.standard_normal((8, 3))
    R /= np.linalg.norm(R, axis=1)[:, None]
    cone = GeneratedCone([d + 0.4 * r for r in np.vstack((R, -R)) @ P], 4)
    v = cone.matrix @ rng.uniform(0.5, 1.5, 16)
    tol = 1e-9
    c, A = residual_form(cone.matrix)
    Q = cone.span_basis()
    j, sgn = cone_geometry._fan(Q.shape[1])
    fan = v + sgn[:, None] * tol * Q.T[j]

    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda B: calls.append(np.shape(B)) or inv(B))
    per_lp = []  # inverses of each LP solved alone: its pivots + 1
    for b in [v] + list(fan):
        solve_standard(c, A, b, min(tol, 1e-10))
        per_lp.append(len(calls))
        calls.clear()
    assert cone_geometry.conic_membership(cone, v, tol) == "interior"
    batched = [shape[0] for shape in calls if len(shape) == 3]
    rest = sorted(per_lp[2:])
    # round r holds every lockstep LP that makes more than r inverses
    assert batched == [sum(k > r for k in rest) for r in range(rest[-2])]
    assert len(calls) - len(batched) == per_lp[0] + per_lp[1] + rest[-1] - rest[-2]
