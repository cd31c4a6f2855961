"""The cone LPs in their small form, and the checks on their answers.

Benchmark instances that the dense-tableau simplex got wrong or crashed on
are frozen in `data/cone_lp_regressions.json`.  `membership_margin` is
checked against the bisection it replaced and against facet enumeration;
the hyperplane, positive-combination, witness and margin certificates must
reject a damaged LP answer instead of returning it.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pmpkit import cone_geometry
from pmpkit.cone_geometry import (ConeCertificateError, GeneratedCone, cone_residual,
                                  membership_margin, positive_combination, separate,
                                  supporting_hyperplane)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cone_lp_regressions.json")
with open(DATA) as fh:
    REGRESSIONS = json.load(fh)["cases"]


def unit_rows(G):
    G = np.asarray(G, float)
    return G / np.linalg.norm(G, axis=1)[:, None]


@pytest.mark.parametrize("case", REGRESSIONS,
                         ids=["seed%d-op%d-%s" % (c["seed"], c["op"], c["kind"])
                              for c in REGRESSIONS])
def test_benchmark_regression(case):
    # before: wrong verdicts, hyperplanes off by up to 9.9e-4 and
    # "phase-1 simplex returned unbounded"
    n = case["n"]
    res = separate(GeneratedCone(case["G1"], n), GeneratedCone(case["G2"], n))
    built = case["kind"] == "sep_yes"
    assert res.separated == built
    if built:
        alpha = res.hyperplane / np.linalg.norm(res.hyperplane)
        worst = max(np.max(unit_rows(case["G1"]) @ alpha),
                    np.max(-(unit_rows(case["G2"]) @ alpha)))
        assert worst <= 1e-8
    else:
        assert np.linalg.norm(res.witness) > 0


# ---------------------------------------------------------------------------
# membership margin against the bisection and facet enumeration

@st.composite
def interior_queries(draw):
    """A cone in a random subspace of R^n, generators of random lengths,
    and a strictly positive combination v of them."""
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, n))
    ng = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = draw(st.floats(0.1, 2.0))
    P = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    axis = rng.standard_normal(rank)
    axis /= np.linalg.norm(axis)
    gens = []
    for _ in range(ng):
        r = rng.standard_normal(rank)
        r -= (r @ axis) * axis
        nr = np.linalg.norm(r)
        g = axis + rho * r / nr if nr > 1e-12 else axis
        gens.append(10.0 ** rng.uniform(-1.0, 1.0) * (P @ g))
    cone = GeneratedCone(gens, n)
    v = cone.matrix @ rng.uniform(0.2, 2.0, len(cone.generators))
    return cone, v


@settings(max_examples=150, deadline=None, derandomize=True)
@given(interior_queries())
def test_margin_matches_bisection(query):
    cone, v = query
    r = membership_margin(cone, v)
    assert abs(r - oracles.membership_margin_bisect(cone, v)) <= 1e-8
    Q = cone.span_basis()
    for j in range(Q.shape[1]):
        for sgn in (1.0, -1.0):
            assert cone_residual(cone, v + sgn * r * Q[:, j]) <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(interior_queries())
def test_margin_matches_facets(query):
    cone, v = query
    Q = cone.span_basis()
    if not 2 <= cone.n <= 3 or Q.shape[1] < cone.n:
        return  # facet enumeration needs a full-dimensional cone in R^2 or R^3
    ref = oracles.facet_margin(np.array(cone.generators), v, Q,
                               max(1.0, float(np.linalg.norm(v))))
    assert abs(membership_margin(cone, v) - ref) <= 1e-9 * (1.0 + ref)


def test_margin_is_exact_on_the_quadrant():
    quad = GeneratedCone([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)
    # the span basis may be rotated, but +-r q stays in the quadrant for
    # r = min over the two axes of the distance to a wall along q
    Q = quad.span_basis()
    v = np.array([1.0, 1.0])
    want = min(1.0 / max(abs(Q[0, j]), abs(Q[1, j])) for j in range(2))
    assert membership_margin(quad, v) == pytest.approx(want, abs=1e-12)
    assert membership_margin(quad, np.array([2.0, 0.0])) == 0.0


# ---------------------------------------------------------------------------
# a damaged LP answer is never returned

def damage(patch, field, delta):
    """Add `delta` to the x or y of every optimum that cone_geometry gets
    from solve_standard, for a single LP, or from solve_stack, for a fan."""
    solve, stack = cone_geometry.solve_standard, cone_geometry.solve_stack

    def hurt(res):
        if res.ok:
            setattr(res, field, getattr(res, field) + delta)
        return res

    patch.setattr(cone_geometry, "solve_standard", lambda *a, **k: hurt(solve(*a, **k)))
    patch.setattr(cone_geometry, "solve_stack", lambda *a, **k: map(hurt, stack(*a, **k)))


QUAD = GeneratedCone([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)


def test_damaged_hyperplane_rejected(monkeypatch):
    good = supporting_hyperplane(QUAD)
    assert np.max(QUAD.matrix.T @ good) <= 1e-12
    damage(monkeypatch, "y", 1e-3)
    with pytest.raises(ConeCertificateError, match="hyperplane"):
        supporting_hyperplane(QUAD)


def test_damaged_positive_combination_rejected(monkeypatch):
    v = np.array([1.0, 1.0])
    lam, t = positive_combination(QUAD, v)
    assert t > 0 and np.array_equal(QUAD.matrix @ lam, v)
    with monkeypatch.context() as patch:
        damage(patch, "x", 1e-3)
        with pytest.raises(ConeCertificateError, match="positive combination"):
            positive_combination(QUAD, v)
    # W lam = v holds exactly, but lam is not strictly positive
    tri = GeneratedCone([np.array([1.0, 0.0]), np.array([0.0, 1.0]), v], 2)
    monkeypatch.setattr(cone_geometry, "_positive_lp",
                        lambda M, rhs, tol: (np.array([1.0, 1.0, 0.0]), 0.25))
    with pytest.raises(ConeCertificateError, match="positive combination"):
        positive_combination(tri, v)


def test_damaged_witness_rejected(monkeypatch):
    full = GeneratedCone([np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                          np.array([0.0, 1.0]), np.array([0.0, -1.0])], 2)
    ray = GeneratedCone([np.array([1.0, 1.0])], 2)
    assert not separate(full, ray).separated
    damage(monkeypatch, "x", 1e-3)
    with pytest.raises(ConeCertificateError, match="witness"):
        separate(full, ray)


def test_damaged_margin_rejected(monkeypatch):
    v = np.array([1.0, 1.0])
    assert membership_margin(QUAD, v) > 0
    damage(monkeypatch, "x", 1e-3)
    with pytest.raises(ConeCertificateError, match="margin"):
        membership_margin(QUAD, v)
