import math

import numpy as np
import pytest

from pmpkit.flows import (
    CotangentState,
    FlowBlowUpError,
    IntegratorConfig,
    SingularTransportError,
    TangentState,
    TimeVectorField,
    cotangent_lift_flow,
    flow,
    flow_decomposition_residual,
    integration_grid,
    pairing_drift,
    pullback_field,
    tangent_lift_flow,
)

from oracles import variation_of_constants

ZERO2 = TimeVectorField(2, lambda t, x: np.zeros(2), lambda t, x: np.zeros((2, 2)))
NILP = TimeVectorField(2, lambda t, x: np.array([x[1], 0.0]),
                       lambda t, x: np.array([[0.0, 1.0], [0.0, 0.0]]))
SCALAR = TimeVectorField(1, lambda t, x: x.copy(), lambda t, x: np.ones((1, 1)))


class TestFlow:
    def test_zero_field_identity(self):
        x = flow(ZERO2, 3.0, 0.0, np.array([1.0, -2.0]))
        assert np.array_equal(x, [1.0, -2.0])

    def test_scalar_exponential(self):
        x = flow(SCALAR, 1.0, 0.0, np.array([1.0]))
        assert x[0] == pytest.approx(math.e, abs=1e-6)

    def test_double_integrator_unit_control(self):
        X = TimeVectorField(2, lambda t, x: np.array([x[1], 1.0]))
        x = flow(X, 1.0, 0.0, np.zeros(2))
        assert np.allclose(x, [0.5, 1.0], atol=1e-9)

    def test_backward_integration_inverts(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1]) + t, np.cos(x[0])]))
        x0 = np.array([0.3, -0.4])
        fwd = flow(X, 1.0, 0.0, x0)
        back = flow(X, 0.0, 1.0, fwd)
        assert np.allclose(back, x0, atol=1e-9)

    def test_composition_law(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1] + t), np.cos(x[0])]))
        x0 = np.array([0.2, 0.1])
        cfg = IntegratorConfig(step=1e-3)
        direct = flow(X, 1.0, 0.0, x0, cfg)
        scale = max(1.0, float(np.linalg.norm(direct)))
        for r in (0.25, 1.0 / 3.0, 0.6180339887):
            via = flow(X, 1.0, r, flow(X, r, 0.0, x0, cfg), cfg)
            assert np.linalg.norm(direct - via) < 10.0 * (1e-3) ** 4 * scale

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_raises(self):
        X = TimeVectorField(1, lambda t, x: x * x)
        with pytest.raises(FlowBlowUpError):
            flow(X, 2.0, 0.0, np.array([1.0]), IntegratorConfig(step=0.05))


class TestGrid:
    def test_hits_event_times_exactly(self):
        cfg = IntegratorConfig(step=0.1, event_times=(0.123456, 0.77))
        g = integration_grid(0.0, 1.0, cfg)
        assert 0.123456 in g and 0.77 in g
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_event_swallows_near_node(self):
        cfg = IntegratorConfig(step=0.1, event_times=(0.1 + 1e-12,))
        g = integration_grid(0.0, 1.0, cfg)
        assert 0.1 + 1e-12 in g
        assert np.all(np.diff(g) > 1e-10)

    def test_descending_for_backward(self):
        g = integration_grid(1.0, 0.0, IntegratorConfig(step=0.25, event_times=(0.4,)))
        assert g[0] == 1.0 and g[-1] == 0.0
        assert np.all(np.diff(g) < 0)
        assert 0.4 in g

    def test_default_step_is_relative(self):
        g = integration_grid(0.0, 2.0)
        assert len(g) == 1001

    def test_bad_config_rejected(self):
        for step in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step)
        # RK4 is the only scheme, so there is no method option to pass
        with pytest.raises(TypeError):
            IntegratorConfig(method="euler")


class TestTangentLift:
    def test_zero_field_keeps_v(self):
        out = tangent_lift_flow(ZERO2, 2.0, 0.0, TangentState(np.ones(2), np.array([3.0, 4.0])))
        assert np.array_equal(out.v, [3.0, 4.0])

    def test_nilpotent_closed_form(self):
        tau = 0.7
        out = tangent_lift_flow(NILP, tau, 0.0, TangentState(np.zeros(2), np.array([0.0, 1.0])))
        assert np.allclose(out.v, [tau, 1.0], atol=1e-10)

    def test_zero_vector_stays_zero(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1]), x[0] ** 2]))
        out = tangent_lift_flow(X, 1.0, 0.0, TangentState(np.array([0.1, 0.2]), np.zeros(2)))
        assert np.array_equal(out.v, np.zeros(2))

    def test_variational_fd_consistency_ratio(self):
        X = TimeVectorField(2, lambda t, x: np.array([np.sin(x[1] + 0.3 * t), np.cos(x[0])]))
        x0 = np.array([0.2, -0.1])
        w = np.array([0.6, 0.8])
        lifted = tangent_lift_flow(X, 1.0, 0.0, TangentState(x0, w)).v
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            fd = (flow(X, 1.0, 0.0, x0 + h * w) - flow(X, 1.0, 0.0, x0)) / h
            errs.append(np.linalg.norm(fd - lifted))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_curve_of_initial_conditions(self):
        # transporting the tangent of a curve of initial conditions equals the
        # tangent of the transported curve
        X = TimeVectorField(2, lambda t, x: np.array([x[1] ** 2, np.sin(x[0])]))
        x0 = np.array([1.0, 0.5])
        w = np.array([-0.3, 0.9])
        lifted = tangent_lift_flow(X, 0.8, 0.0, TangentState(x0, w)).v
        h = 1e-6
        fd = (flow(X, 0.8, 0.0, x0 + h * w) - flow(X, 0.8, 0.0, x0 - h * w)) / (2.0 * h)
        assert np.allclose(fd, lifted, atol=1e-7)


class TestCotangentLift:
    def test_zero_field_keeps_p(self):
        out = cotangent_lift_flow(ZERO2, 2.0, 0.0, CotangentState(np.ones(2), np.array([3.0, 4.0])))
        assert np.array_equal(out.p, [3.0, 4.0])

    def test_nilpotent_closed_form(self):
        tau = 0.7
        out = cotangent_lift_flow(NILP, tau, 0.0, CotangentState(np.zeros(2), np.array([1.0, 0.0])))
        assert np.allclose(out.p, [1.0, -tau], atol=1e-10)

    def test_zero_covector_stays_zero(self):
        out = cotangent_lift_flow(NILP, 1.0, 0.0, CotangentState(np.zeros(2), np.zeros(2)))
        assert np.array_equal(out.p, np.zeros(2))

    def test_transpose_inverse_identity(self):
        # tangent columns M and cotangent columns N satisfy M^T N = I
        for X, m in ((NILP, 2), (SCALAR, 1)):
            M = np.column_stack([
                tangent_lift_flow(X, 1.0, 0.0, TangentState(np.full(m, 0.5), e)).v
                for e in np.eye(m)
            ])
            N = np.column_stack([
                cotangent_lift_flow(X, 1.0, 0.0, CotangentState(np.full(m, 0.5), e)).p
                for e in np.eye(m)
            ])
            assert np.allclose(M.T @ N, np.eye(m), atol=1e-6)


class TestPairing:
    def test_zero_field_zero_drift(self):
        d = pairing_drift(ZERO2, (0.0, 1.0), np.ones(2), np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert d == 0.0

    def test_nilpotent(self):
        d = pairing_drift(NILP, (0.0, 1.0), np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert d < 1e-10

    def test_scalar(self):
        d = pairing_drift(SCALAR, (0.0, 1.0), np.array([1.0]), np.array([2.0]), np.array([3.0]))
        assert d < 1e-8


class TestPullback:
    def test_zero_base_field(self):
        Y = TimeVectorField(2, lambda t, x: np.array([x[0] + t, 1.0]))
        Z = pullback_field(ZERO2, Y, 0.0)
        x = np.array([0.4, -0.2])
        assert np.allclose(Z.eval(0.7, x), Y.eval(0.7, x), atol=1e-9)

    def test_constant_commuting_fields(self):
        X = TimeVectorField(2, lambda t, x: np.array([1.0, 0.0]), lambda t, x: np.zeros((2, 2)))
        Y = TimeVectorField(2, lambda t, x: np.array([0.0, 2.0]), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0)
        assert np.allclose(Z.eval(0.9, np.array([5.0, 6.0])), [0.0, 2.0], atol=1e-9)

    def test_linear_flow_closed_form(self):
        A = np.array([[0.0, 1.0], [-0.5, 0.0]])
        b = np.array([1.0, 2.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0, IntegratorConfig(step=1e-3))
        from scipy.linalg import expm
        t = 0.8
        want = expm(-A * t) @ b
        assert np.allclose(Z.eval(t, np.array([0.3, 0.4])), want, atol=1e-8)

    def test_singular_transport_raises(self):
        # anisotropic contraction makes the differential nearly singular
        A = np.diag([-40.0, 0.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: np.ones(2), lambda t, x: np.zeros((2, 2)))
        Z = pullback_field(X, Y, 0.0, IntegratorConfig(step=1e-3))
        with pytest.raises(SingularTransportError):
            Z.eval(1.0, np.array([0.1, 0.1]))


class TestDecomposition:
    def test_zero_base(self):
        Y = TimeVectorField(2, lambda t, x: np.array([x[1], -x[0]]),
                            lambda t, x: np.array([[0.0, 1.0], [-1.0, 0.0]]))
        r = flow_decomposition_residual(ZERO2, Y, 1.0, 0.0, np.array([1.0, 0.0]),
                                        IntegratorConfig(step=1e-2))
        assert r < 1e-10

    def test_constant_commuting(self):
        X = TimeVectorField(2, lambda t, x: np.array([1.0, 0.0]), lambda t, x: np.zeros((2, 2)))
        Y = TimeVectorField(2, lambda t, x: np.array([0.0, 2.0]), lambda t, x: np.zeros((2, 2)))
        r = flow_decomposition_residual(X, Y, 1.0, 0.0, np.zeros(2), IntegratorConfig(step=1e-2))
        assert r < 1e-8

    def test_linear_plus_constant_with_oracle(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.3]])
        b = np.array([0.5, 1.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        x0 = np.array([1.0, -1.0])
        cfg = IntegratorConfig(step=1e-2)
        r = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, cfg)
        assert r < 1e-6
        # the direct endpoint itself must match variation of constants
        XY = TimeVectorField(2, lambda t, x: A @ x + b, lambda t, x: A)
        direct = flow(XY, 1.0, 0.0, x0, cfg)
        assert np.allclose(direct, variation_of_constants(A, b, 1.0, x0), atol=1e-8)

    def test_step_order_decay(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        X = TimeVectorField(2, lambda t, x: A @ x, lambda t, x: A)
        Y = TimeVectorField(2, lambda t, x: b.copy(), lambda t, x: np.zeros((2, 2)))
        x0 = np.array([0.5, 0.5])
        r_coarse = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, IntegratorConfig(step=0.05))
        r_fine = flow_decomposition_residual(X, Y, 1.0, 0.0, x0, IntegratorConfig(step=0.025))
        assert r_fine < r_coarse / 8.0  # fourth-order scheme
