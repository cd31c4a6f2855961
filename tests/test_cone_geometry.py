import numpy as np
import pytest

from pmpkit.cone_geometry import (
    BoundaryConditionError,
    ConeCertificateError,
    GeneratedCone,
    RootSearchError,
    _checked_hyperplane,
    conic_membership,
    cone_residual,
    covered_point_root,
    difference_spans,
    membership_margin,
    positive_combination,
    separate,
    supporting_hyperplane,
    unit_directions,
)

from oracles import membership_2d, separated_2d, separated_3d


def cone(*gens, n=None):
    return GeneratedCone([np.array(g, float) for g in gens], n or len(gens[0]))


QUAD = cone((1.0, 0.0), (0.0, 1.0))


class TestMembership:
    def test_interior(self):
        assert conic_membership(QUAD, np.array([1.0, 1.0]), 1e-9) == "interior"

    def test_boundary_generator(self):
        assert conic_membership(QUAD, np.array([1.0, 0.0]), 1e-9) == "boundary"

    def test_outside_sign_obstruction(self):
        assert conic_membership(QUAD, np.array([-1.0, 0.0]), 1e-9) == "outside"

    def test_relative_interior_on_a_line(self):
        line = cone((1.0, 0.0), (-1.0, 0.0))
        assert conic_membership(line, np.array([0.5, 0.0]), 1e-9) == "interior"
        assert conic_membership(line, np.array([0.0, 0.0]), 1e-9) == "interior"
        assert conic_membership(line, np.array([0.0, 0.1]), 1e-9) == "outside"

    def test_trivial_cone(self):
        z = GeneratedCone([], 2)
        assert conic_membership(z, np.zeros(2), 1e-9) == "interior"
        assert conic_membership(z, np.array([1e-3, 0.0]), 1e-9) == "outside"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conic_membership(QUAD, np.zeros(3), 1e-9)

    def test_zero_and_duplicate_generators_normalized(self):
        c = GeneratedCone([np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])], 2)
        assert len(c.generators) == 1


def in_polar(c, alpha, tol=1e-9):
    """Whether `_checked_hyperplane`, the package's polar test, accepts alpha."""
    try:
        return _checked_hyperplane(c.matrix, alpha, tol) is alpha
    except ConeCertificateError:
        return False


class TestPolar:
    def test_contained(self):
        assert in_polar(QUAD, np.array([-1.0, -1.0]))

    def test_not_contained(self):
        assert not in_polar(QUAD, np.array([1.0, 0.0]))

    def test_empty_cone_vacuous(self):
        assert in_polar(GeneratedCone([], 3), np.array([5.0, -2.0, 1.0]))

    def test_polar_duality_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            gens = [rng.standard_normal(n) for _ in range(rng.integers(1, 6))]
            c = GeneratedCone(gens, n)
            alpha = rng.standard_normal(n)
            assert in_polar(c, alpha) == all(
                alpha @ g <= 1e-9 * np.linalg.norm(alpha) * np.linalg.norm(g)
                for g in c.generators)


class TestSupportingHyperplane:
    def test_quadrant_sign_conditions(self):
        alpha = supporting_hyperplane(QUAD)
        assert alpha is not None
        assert np.linalg.norm(alpha) > 1e-9
        for g in QUAD.generators:
            assert alpha @ g <= 1e-9

    def test_full_plane_absent(self):
        full = cone((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        assert supporting_hyperplane(full) is None

    def test_empty_cone_any_alpha(self):
        alpha = supporting_hyperplane(GeneratedCone([], 2))
        assert alpha is not None and np.linalg.norm(alpha) > 0

    def test_halfspace_touching_support(self):
        half = cone((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
        alpha = supporting_hyperplane(half)
        assert alpha is not None
        assert all(alpha @ g <= 1e-8 for g in half.generators)


class TestSeparate:
    def test_two_rays(self):
        c1, c2 = cone((1.0, 0.0)), cone((0.0, 1.0))
        res = separate(c1, c2)
        assert res.separated and res.hyperplane is not None
        assert res.hyperplane @ np.array([1.0, 0.0]) <= 1e-9
        assert res.hyperplane @ np.array([0.0, 1.0]) >= -1e-9

    def test_plane_vs_ray_not_separated(self):
        full = cone((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        res = separate(full, cone((1.0, 0.0)))
        assert not res.separated
        assert res.witness is not None
        # witness in the relative interior of the ray: positive multiple of (1,0)
        assert res.witness[0] > 0 and abs(res.witness[1]) <= 1e-9

    def test_identical_rays_contained_in_hyperplane(self):
        c = cone((1.0, 0.0))
        res = separate(c, cone((1.0, 0.0)))
        assert res.separated
        assert abs(res.hyperplane @ np.array([1.0, 0.0])) <= 1e-8

    def test_crossing_axes_witness_zero(self):
        c1 = cone((1.0, 0.0), (-1.0, 0.0))
        c2 = cone((0.0, 1.0), (0.0, -1.0))
        res = separate(c1, c2)
        assert not res.separated
        assert np.linalg.norm(res.witness) <= 1e-9

    def test_separation_soundness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            c1 = GeneratedCone([rng.standard_normal(n) for _ in range(rng.integers(1, 5))], n)
            c2 = GeneratedCone([rng.standard_normal(n) for _ in range(rng.integers(1, 5))], n)
            res = separate(c1, c2)
            if res.separated:
                a = res.hyperplane
                assert max((a @ g for g in c1.generators), default=0.0) <= 1e-8
                assert min((a @ g for g in c2.generators), default=0.0) >= -1e-8
            else:
                w = res.witness
                assert conic_membership(c1, w, 1e-9) != "outside"
                assert conic_membership(c2, w, 1e-9) != "outside"


class TestDifferenceSpans:
    def test_spans(self):
        c1 = cone((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
        assert difference_spans(c1, cone((0.0, 1.0)))

    def test_does_not_span(self):
        assert not difference_spans(QUAD, cone((-1.0, -1.0)))

    def test_trivial_pair(self):
        assert not difference_spans(GeneratedCone([], 1), GeneratedCone([], 1))

    def test_agrees_with_separate_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            c1 = GeneratedCone([rng.standard_normal(n) for _ in range(rng.integers(1, 5))], n)
            c2 = GeneratedCone([rng.standard_normal(n) for _ in range(rng.integers(1, 5))], n)
            # difference_spans raises if its two routes ever disagree
            spans = difference_spans(c1, c2)
            assert spans == (not separate(c1, c2).separated)


class TestSweepOracleAgreement:
    def test_separation_matches_sweep_2d(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            G1 = [rng.standard_normal(2) for _ in range(rng.integers(1, 5))]
            G2 = [rng.standard_normal(2) for _ in range(rng.integers(1, 5))]
            got = separate(GeneratedCone(G1, 2), GeneratedCone(G2, 2)).separated
            assert got == separated_2d(G1, G2)

    def test_separation_matches_cross_product_3d(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            G1 = [rng.standard_normal(3) for _ in range(rng.integers(1, 6))]
            G2 = [rng.standard_normal(3) for _ in range(rng.integers(1, 6))]
            got = separate(GeneratedCone(G1, 3), GeneratedCone(G2, 3)).separated
            assert got == separated_3d(G1, G2)

    def test_membership_matches_sweep_2d(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(120):
            G = [rng.standard_normal(2) for _ in range(rng.integers(1, 5))]
            c = GeneratedCone(G, 2)
            v = rng.standard_normal(2)
            # skip near-boundary queries where sweep resolution is ambiguous
            r = cone_residual(c, v)
            if r < 1e-4 and conic_membership(c, v, 1e-9) != "interior":
                continue
            inside = conic_membership(c, v, 1e-9) != "outside"
            assert inside == membership_2d(G, v, tol=1e-6)
            checked += 1
        assert checked >= 60

    def test_bipolar_desk_scale(self):
        # interior-or-boundary membership iff the vector passes every sampled
        # polar direction
        rng = np.random.default_rng(37)
        for _ in range(40):
            G = [rng.standard_normal(2) for _ in range(rng.integers(1, 5))]
            c = GeneratedCone(G, 2)
            v = rng.standard_normal(2)
            r = cone_residual(c, v)
            if r < 1e-5:
                continue  # clearly outside only
            assert conic_membership(c, v, 1e-9) == "outside"
            assert not membership_2d(G, v, tol=1e-6)


class TestCombinations:
    def test_positive_combination_interior(self):
        lam, t = positive_combination(QUAD, np.array([1.0, 1.0]))
        assert lam is not None and t > 0
        assert np.all(lam >= t - 1e-12)
        assert np.allclose(QUAD.matrix @ lam, [1.0, 1.0], atol=1e-9)

    def test_positive_combination_boundary_fails(self):
        lam, t = positive_combination(QUAD, np.array([1.0, 0.0]))
        assert lam is None and t <= 1e-9

    def test_membership_margin(self):
        m = membership_margin(QUAD, np.array([1.0, 1.0]))
        assert 0.5 <= m <= 1.5  # true boundary distance is 1 along each axis
        assert membership_margin(QUAD, np.array([-1.0, 0.0])) == 0.0


class TestCoveredPointRoot:
    def test_identity(self):
        x = covered_point_root(lambda x: x, np.zeros(2), 1.0, np.array([0.3, 0.0]))
        assert np.allclose(x, [0.3, 0.0], atol=1e-8)

    def test_constant_shift(self):
        g = lambda x: x + np.array([0.1, 0.0])
        x = covered_point_root(g, np.zeros(2), 1.0, np.zeros(2))
        assert np.allclose(x, [-0.1, 0.0], atol=1e-8)

    def test_linear_scaling(self):
        x = covered_point_root(lambda x: 0.5 * x, np.zeros(2), 1.0, np.array([0.2, 0.0]))
        assert np.allclose(x, [0.4, 0.0], atol=1e-8)

    def test_nonlinear(self):
        def g(x):
            return x + 0.05 * np.array([np.sin(x[1]), np.cos(x[0]) - 1.0])

        p = np.array([0.1, -0.2])
        x = covered_point_root(g, np.zeros(2), 1.0, p)
        assert np.linalg.norm(g(x) - p) <= 1e-8

    def test_one_dimensional_ball(self):
        g = lambda x: x + 0.1 * np.cos(x)
        x = covered_point_root(g, np.zeros(1), 1.0, np.array([0.3]))
        assert np.linalg.norm(g(x) - 0.3) <= 1e-8

    def test_boundary_violation_reported(self):
        g = lambda x: x + np.array([5.0, 0.0])  # breaks ||g(x)-x|| < ||x-p||
        with pytest.raises(BoundaryConditionError) as err:
            covered_point_root(g, np.zeros(2), 1.0, np.zeros(2))
        assert err.value.x is not None and err.value.margin >= 0

    def test_budget_exhaustion_reports_best(self):
        # discontinuous map (cheats the sampled hypothesis): pulls every point
        # onto the sphere of radius 0.05 around p, so no root exists
        p = np.array([0.2, 0.0])

        def g(x):
            d = x - p
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                d, nd = np.array([1.0, 0.0]), 1.0
            return p + 0.05 * d / nd

        with pytest.raises(RootSearchError) as err:
            covered_point_root(g, np.zeros(2), 1.0, p)
        assert err.value.best_residual == pytest.approx(0.05, abs=1e-6)

    def test_p_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            covered_point_root(lambda x: x, np.zeros(2), 0.5, np.array([1.0, 0.0]))


def test_unit_directions_deterministic():
    a = unit_directions(3, 10, seed=0)
    b = unit_directions(3, 10, seed=0)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(unit_directions(2, 8), axis=1), 1.0)
    assert set(unit_directions(1, 4).ravel()) == {1.0, -1.0}
