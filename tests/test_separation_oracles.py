"""Independent oracles for the separation of the extended needle cone at b.

The stage-1 LP of `perturbations.terminal_covector_from_cone` is checked against
scipy's HiGHS on random cones, and the multipliers that `shoot` finds on
two golden problems are checked to separate the extended needle cone that
`perturbations` builds for the extended system.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog as scipy_linprog

from pmpkit import cli, perturbations
from pmpkit.cone_geometry import GeneratedCone
from pmpkit.control_system import extend
from pmpkit.flows import IntegratorConfig
from pmpkit.perturbations import build_tangent_cone, build_time_cone
from pmpkit.shooting import ShootingOptions, ShootingProblem, shoot

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@st.composite
def cones(draw):
    """Small integer cones in R^n, n = 2..4, with up to 30 generators and a
    final basis of up to n - 2 vectors in R^(n-1), possibly none.  Random
    cones of many generators have no normal covector, so half of the cones
    get costs g_0 = p . g_x + s with s >= 0 for an integer p, and a basis
    orthogonal to p, which makes the LP feasible with an optimum of its
    own."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, 30))
    ints = st.integers(-4, 4)
    vectors = st.lists(ints, min_size=n - 1, max_size=n - 1).map(np.array)
    gens = [np.array(g, dtype=float)
            for g in draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                   min_size=k, max_size=k))]
    basis = draw(st.lists(vectors, max_size=n - 2))
    if draw(st.booleans()):
        p = draw(vectors)
        basis = [(p @ p) * w - (w @ p) * p for w in basis]
        for g in gens:
            g[0] = p @ g[1:] + draw(st.integers(0, 3))
    return n, gens, [w.astype(float) for w in basis]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cones())
def test_stage_one_matches_highs(case):
    n, gens, basis = case
    m = n - 1
    W = GeneratedCone(gens + perturbations._lifted(basis), n=n).matrix
    sigma_hat, ray = perturbations._normal_separation(W, 1e-9)
    # the primal, posed apart: min |p|_1 over p = p+ - p- with
    # p . g_x <= g_0 for every generator and p . w = 0 for every basis vector
    A_ub = [np.concatenate((g[1:], -g[1:])) for g in gens]
    A_eq = [np.concatenate((w, -w)) for w in basis]
    ref = scipy_linprog(np.ones(2 * m),
                        A_ub=A_ub or None, b_ub=[g[0] for g in gens] or None,
                        A_eq=A_eq or None, b_eq=[0.0] * len(basis) or None,
                        bounds=(0, None), method="highs")
    assert ref.status in (0, 2)
    assert (sigma_hat is not None) == (ref.status == 0)
    if ref.status == 0:
        assert sigma_hat[0] == -1.0
        assert np.abs(sigma_hat[1:]).sum() == pytest.approx(ref.fun, abs=1e-9)
    else:
        # the Farkas ray: lam >= 0, G_x lam = 0 and g_0 . lam < 0
        assert np.all(ray >= 0.0)
        assert np.max(np.abs(W[1:] @ ray)) <= 1e-9 * (1.0 + np.max(np.abs(W[1:]) @ ray))
        assert W[0] @ ray < 0.0


def shot(case):
    """The golden problem and the extremal `shoot` finds for it, as the
    CLI's shoot command sets it up."""
    problem = cli.load_problem(os.path.join(GOLDEN, case, "problem.json"))
    sp = ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                         x_a=problem.x_a, x_b=problem.x_b, a=problem.a, b=problem.b)
    result = shoot(sp, opts=ShootingOptions(tol=problem.tol, step=problem.step))
    assert result.converged
    return problem, result.extremal


def worst_pairing(problem, extremal, sigma_hat):
    """max of sigma_hat . g / (|sigma_hat| |g|) over the extended needle cone
    at b: needles at every step's midpoint to 21 controls across the box,
    the final-time axis in free time, and +- the lifted final basis."""
    traj = extremal.ext_traj
    mids = (0.5 * (traj.grid[:-1] + traj.grid[1:])).tolist()
    U = problem.sys.control_set
    controls = [[v] for v in np.linspace(U.lo[0], U.hi[0], 21)]
    build = build_time_cone if problem.boundary.mode == "free_time" else build_tangent_cone
    cone = build(extend(problem.sys), traj, traj.b, {"times": mids, "controls": controls},
                 IntegratorConfig(step=problem.step))
    W = np.column_stack(cone.cone.generators + [np.concatenate(([0.0], s * w))
                                                for w in problem.boundary.final or ()
                                                for s in (1.0, -1.0)])
    return float(np.max(sigma_hat @ W / np.linalg.norm(W, axis=0))) / np.linalg.norm(sigma_hat)


# the LQR golden's final point is free, so p(b) vanishes (1.5e-8 here) and
# flipping its sign changes nothing; that case flips the cost multiplier
@pytest.mark.parametrize("case, flip", [("min_time_double_integrator", (1.0, -1.0)),
                                        ("lqr_expression_shoot", (-1.0, 1.0))])
def test_shot_multiplier_separates_the_needle_cone(case, flip):
    problem, extremal = shot(case)
    sigma_hat = np.concatenate(([extremal.adjoint.sigma0], extremal.adjoint.sigma[-1]))
    assert worst_pairing(problem, extremal, sigma_hat) <= problem.tol
    flipped = sigma_hat * np.concatenate(([flip[0]], np.full(problem.sys.m, flip[1])))
    assert worst_pairing(problem, extremal, flipped) > problem.tol

