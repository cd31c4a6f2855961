import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmpkit.control_system import (
    ControlSignal,
    ControlSystem,
    Trajectory,
    _switches_at,
    ball,
    box,
    constant_signal,
    cost,
    extend,
    finite,
    lebesgue_times,
    signal_field,
    simulate,
)
from pmpkit.flows import FlowBlowUpError, IntegratorConfig, TimeVectorField
from pmpkit.perturbations import _clip_signal


def double_integrator():
    return ControlSystem(
        m=2, k=1,
        f=lambda x, u: np.array([x[1], u[0]]),
        df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        control_set=box([-1.0], [1.0]),
    )


def scalar_with_cost():
    return ControlSystem(
        m=1, k=1,
        f=lambda x, u: np.array([u[0]]),
        F=lambda x, u: float(u[0] ** 2),
        df_dx=lambda x, u: np.zeros((1, 1)),
        dF_dx=lambda x, u: np.zeros(1),
        control_set=box([-2.0], [2.0]),
    )


class TestControlSet:
    def test_box_contains(self):
        U = box([-1.0, 0.0], [1.0, 2.0])
        assert U.contains([0.5, 1.0])
        assert not U.contains([1.5, 1.0])
        assert U.dim == 2

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box([1.0], [0.0])

    @pytest.mark.parametrize("lo, hi", [([math.nan], [1.0]), ([-1.0], [math.nan]),
                                        ([0.0, math.nan], [1.0, 2.0])])
    def test_box_rejects_nan_bounds(self, lo, hi):
        # lo > hi is False at a NaN, which let such a box through
        with pytest.raises(ValueError):
            box(lo, hi)

    def test_box_keeps_infinite_and_degenerate_bounds(self):
        U = box([-math.inf, 0.5], [1.0, 0.5])
        assert U.contains([-1e300, 0.5])

    def test_ball_rejects_nan_radius(self):
        with pytest.raises(ValueError):
            ball([0.0, 0.0], math.nan)
        with pytest.raises(ValueError):
            ball([0.0], -1.0)

    @pytest.mark.parametrize("center", [[math.nan], [math.inf], [0.0, -math.inf]])
    def test_ball_rejects_non_finite_center(self, center):
        # such a ball used to be accepted, and simulate then rejected every
        # control signal as outside the control set
        with pytest.raises(ValueError):
            ball(center, 1.0)

    def test_finite_contains(self):
        U = finite([[-1.0], [1.0]])
        assert U.contains([1.0])
        assert not U.contains([0.0])

    def test_finite_rejects_empty(self):
        with pytest.raises(ValueError):
            finite([])

    def test_ball_contains(self):
        U = ball([0.0, 0.0], 1.0)
        assert U.contains([0.6, 0.8])
        assert not U.contains([0.8, 0.8])


class TestSignal:
    def test_value_lookup_right_continuous(self):
        u = ControlSignal(a=0.0, b=2.0, switch_times=(1.0,),
                          values=(np.array([1.0]), np.array([-1.0])))
        assert u.value_at(0.5)[0] == 1.0
        assert u.value_at(1.0)[0] == -1.0
        assert u.value_at(1.5)[0] == -1.0

    def test_rejects_unsorted_switches(self):
        with pytest.raises(ValueError):
            ControlSignal(a=0.0, b=3.0, switch_times=(2.0, 1.0),
                          values=(np.zeros(1),) * 3)

    def test_rejects_switch_outside_interval(self):
        with pytest.raises(ValueError):
            ControlSignal(a=0.0, b=1.0, switch_times=(1.0,), values=(np.zeros(1),) * 2)

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(ValueError):
            ControlSignal(a=0.0, b=1.0, switch_times=(), values=(np.zeros(1), np.zeros(1)))

    @pytest.mark.parametrize("switch_times", [(math.nan,), (0.5, math.nan), (math.nan, 0.5)])
    def test_rejects_nan_switch(self, switch_times):
        # NaN fails every "<=" test, so such a signal used to be accepted
        # and held its last value on the whole horizon
        with pytest.raises(ValueError, match=r"strictly inside \(a, b\)"):
            ControlSignal(a=0.0, b=1.0, switch_times=switch_times,
                          values=(np.zeros(1),) * (len(switch_times) + 1))


@st.composite
def signal_specs(draw):
    """(a, b, switch_times, number of values): switch times inside [a, b],
    on or one ulp inside its ends, outside it, NaN or infinite, sorted and
    deduplicated or not, with one value per piece or one too many or few,
    and sometimes b <= a."""
    a = draw(st.sampled_from((0.0, -1.5, 2.0)))
    b = a + draw(st.sampled_from((1.0, 0.25, 3.0, 3.0, 0.0, -1.0, math.nan)))
    ends = (a, b) if b > a else (a, a + 1.0)
    special = st.sampled_from((*ends, math.nextafter(ends[0], math.inf),
                               math.nextafter(ends[1], -math.inf), ends[0] - 1.0,
                               ends[1] + 1.0, math.nan, math.inf, -math.inf))
    inside = st.floats(*ends)
    times = draw(st.lists(st.one_of(inside, inside, special), max_size=5))
    if draw(st.booleans()):
        times = sorted(set(times))
    return a, b, tuple(times), len(times) + 1 + draw(st.sampled_from((0, 0, 0, -1, 1)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(signal_specs())
def test_signal_invariants(spec):
    a, b, times, n = spec
    values = tuple(np.array([float(i)]) for i in range(n))
    ok = (b > a and all(a < t < b for t in times)
          and all(s < t for s, t in zip(times, times[1:])) and n == len(times) + 1)
    if not ok:
        with pytest.raises(ValueError):
            ControlSignal(a, b, times, values)
        return
    u = ControlSignal(a, b, times, values)
    assert u.switch_times == times
    # right-continuous: from each switch on, the next piece's value
    nudged = [math.nextafter(t, d) for t in (a, b, *times) for d in (-math.inf, math.inf)]
    probes = [a, b, *times, *nudged, *(0.5 * (s + t) for s, t in zip((a, *times), (*times, b)))]
    for t in probes:
        assert u.value_at(t)[0] == sum(s <= t for s in times)
    for j, s in enumerate(times):
        assert u.value_at(s)[0] == j + 1
        assert u.value_at(math.nextafter(s, -math.inf))[0] == j
    # a clipped or extended signal agrees with u where both are defined
    for b_new in (*times, 0.5 * (a + b), math.nextafter(b, -math.inf), b, b + 0.5):
        clip = _clip_signal(u, b_new)
        assert (clip.a, clip.b) == (a, b_new)
        for t in probes:
            if a <= t < min(b, b_new):
                assert clip.value_at(t)[0] == u.value_at(t)[0]


class TestExtend:
    def test_time_optimal_dynamics(self):
        sys = double_integrator()
        sys.F = lambda x, u: 1.0
        ext = extend(sys)
        out = ext.dynamics(np.array([0.0, 1.0, 2.0]), np.array([0.5]))
        assert np.allclose(out, [1.0, 2.0, 0.5])

    def test_quadratic_cost_dynamics(self):
        ext = extend(scalar_with_cost())
        out = ext.dynamics(np.array([0.0, 3.0]), np.array([2.0]))
        assert np.allclose(out, [4.0, 2.0])

    def test_idempotence_guard(self):
        ext = extend(scalar_with_cost())
        with pytest.raises(ValueError):
            extend(ext)

    def test_jacobian_zero_cost_column(self):
        ext = extend(scalar_with_cost())
        J = ext.jac_x(np.array([0.3, 1.2]), np.array([0.7]))
        assert np.allclose(J[:, 0], 0.0)


class TestSignalField:
    def test_segment_holds_the_midpoint_value(self):
        # every stage of a step that ends on the switch at 1 runs on the
        # value before it; at a single time the field reads u(t)
        sys = double_integrator()
        u = ControlSignal(a=0.0, b=2.0, switch_times=(1.0,),
                          values=(np.array([1.0]), np.array([-1.0])))
        X = signal_field(sys, u)
        x = np.array([0.3, -0.2])
        assert X.switch_times == (1.0,)
        assert list(X.on(0.9, 1.0).eval(1.0, x)) == [-0.2, 1.0]
        assert list(X.on(1.0, 1.1).eval(1.0, x)) == [-0.2, -1.0]
        assert list(X.on(1.1, 1.0).eval(1.0, x)) == [-0.2, -1.0]
        assert list(X.eval(1.0, x)) == [-0.2, -1.0]
        assert list(X.eval(0.5, x)) == [-0.2, 1.0]
        assert np.array_equal(X.on(0.9, 1.0).jac(1.0, x), sys.jac_x(x, [1.0]))


class TestSimulate:
    def test_constant_control_closed_form(self):
        traj = simulate(double_integrator(), constant_signal(0.0, 1.0, [1.0]), [0.0, 0.0])
        assert np.allclose(traj.endpoint, [0.5, 1.0], atol=1e-12)

    def test_one_switch_closed_form(self):
        # accelerate then brake: x(2) = 1, v(2) = 0
        u = ControlSignal(a=0.0, b=2.0, switch_times=(1.0,),
                          values=(np.array([1.0]), np.array([-1.0])))
        traj = simulate(double_integrator(), u, [0.0, 0.0])
        assert np.allclose(traj.endpoint, [1.0, 0.0], atol=1e-12)
        assert 1.0 in traj.grid

    def test_zero_field_constant(self):
        sys = ControlSystem(m=2, k=1, f=lambda x, u: np.zeros(2), control_set=box([-1.0], [1.0]))
        traj = simulate(sys, constant_signal(0.0, 3.0, [0.0]), [2.0, -1.0])
        assert np.allclose(traj.states, [2.0, -1.0])

    def test_rejects_value_outside_set(self):
        with pytest.raises(ValueError):
            simulate(double_integrator(), constant_signal(0.0, 1.0, [3.0]), [0.0, 0.0])

    def test_blow_up(self):
        sys = ControlSystem(m=1, k=1, f=lambda x, u: x * x, control_set=box([0.0], [1.0]))
        with pytest.raises(FlowBlowUpError):
            with np.errstate(over="ignore", invalid="ignore"):
                simulate(sys, constant_signal(0.0, 2.0, [0.0]), [1.0],
                         IntegratorConfig(step=0.05))

    def test_determinism_bit_identical(self):
        u = ControlSignal(a=0.0, b=2.0, switch_times=(0.7,),
                          values=(np.array([1.0]), np.array([-0.5])))
        sys = double_integrator()
        t1 = simulate(sys, u, [0.1, 0.2])
        t2 = simulate(sys, u, [0.1, 0.2])
        assert np.array_equal(t1.grid, t2.grid)
        assert np.array_equal(t1.states, t2.states)

    def test_rk4_step_consistency(self):
        # each consecutive state pair reproduces one RK4 step under the
        # active control value
        sys = double_integrator()
        u = ControlSignal(a=0.0, b=1.0, switch_times=(0.4,),
                          values=(np.array([1.0]), np.array([-1.0])))
        traj = simulate(sys, u, [0.0, 0.0], IntegratorConfig(step=0.05))
        for i in range(len(traj.grid) - 1):
            t0, t1 = traj.grid[i], traj.grid[i + 1]
            h = t1 - t0
            uval = u.value_at(0.5 * (t0 + t1))
            x = traj.states[i]
            k1 = sys.dynamics(x, uval)
            k2 = sys.dynamics(x + 0.5 * h * k1, uval)
            k3 = sys.dynamics(x + 0.5 * h * k2, uval)
            k4 = sys.dynamics(x + h * k3, uval)
            step = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.allclose(step, traj.states[i + 1], atol=1e-15)


class TestFiniteDifferences:
    """A missing state Jacobian or cost gradient is the central difference
    (g(x + h e_j) - g(x - h e_j)) / (2 h), h = 1e-6 (1 + |x|), bit for bit,
    for systems and for time-dependent fields alike."""

    @staticmethod
    def loop(g, x):
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        cols = []
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = h
            cols.append((np.atleast_1d(g(x + e)) - np.atleast_1d(g(x - e))) / (2.0 * h))
        return np.column_stack(cols)

    @pytest.mark.parametrize("x", [[0.3, -1.7, 2.0], [0.0, 5.0, -0.25], [1e3, 1e-3, 7.0]])
    def test_missing_derivatives_match_the_loop(self, x):
        x, u = np.array(x), np.array([0.4])

        def f(y, v):
            return np.array([np.sin(y[1]) * y[2], y[0] ** 2 + v[0],
                             np.exp(1e-3 * y[0]) - y[1] * v[0]])

        def F(y, v):
            return float(y[0] * y[1] + np.cos(y[2]) + v[0] ** 2)

        sys = ControlSystem(m=3, k=1, f=f, F=F, control_set=box([-1.0], [1.0]))
        X = TimeVectorField(3, lambda t, y: t * f(y, u))
        pairs = ((sys.jac_x(x, u), self.loop(lambda y: f(y, u), x)),
                 (sys.cost_grad_x(x, u), self.loop(lambda y: F(y, u), x).ravel()),
                 (X.jac(0.7, x), self.loop(lambda y: X.eval(0.7, y), x)))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCost:
    def test_time_optimal_cost_is_duration(self):
        sys = double_integrator()
        sys.F = lambda x, u: 1.0
        traj = simulate(extend(sys), constant_signal(0.0, 2.0, [1.0]), [0.0, 0.0, 0.0])
        assert cost(traj) == pytest.approx(2.0, abs=1e-12)

    def test_zero_control_zero_cost(self):
        traj = simulate(extend(scalar_with_cost()), constant_signal(0.0, 1.0, [0.0]), [0.0, 0.0])
        assert cost(traj) == pytest.approx(0.0, abs=1e-15)

    def test_constant_integrand(self):
        traj = simulate(extend(scalar_with_cost()), constant_signal(0.0, 1.0, [0.5]), [0.0, 0.0])
        assert cost(traj) == pytest.approx(0.25, abs=1e-12)

    def test_additivity_at_switch_aligned_cut(self):
        ext = extend(scalar_with_cost())
        u = ControlSignal(a=0.0, b=2.0, switch_times=(0.8,),
                          values=(np.array([1.0]), np.array([-0.5])))
        full = simulate(ext, u, [0.0, 0.5])
        left = simulate(ext, ControlSignal(a=0.0, b=0.8, switch_times=(), values=(np.array([1.0]),)),
                        [0.0, 0.5])
        mid = left.endpoint
        right = simulate(ext, ControlSignal(a=0.8, b=2.0, switch_times=(), values=(np.array([-0.5]),)),
                         np.array([0.0, mid[1]]))
        assert cost(full) == pytest.approx(cost(left) + cost(right), abs=1e-9)

    def test_nondecreasing_for_nonnegative_rate(self):
        ext = extend(scalar_with_cost())
        traj = simulate(ext, constant_signal(0.0, 1.0, [1.5]), [0.0, 0.0])
        assert traj.states[0, 0] == 0.0
        assert np.all(np.diff(traj.states[:, 0]) >= -1e-15)


class TestExtendedConsistency:
    def test_projection_matches_plain_simulation(self):
        sys = scalar_with_cost()
        u = ControlSignal(a=0.0, b=1.5, switch_times=(0.6,),
                          values=(np.array([1.0]), np.array([-1.0])))
        plain = simulate(sys, u, [0.25])
        exttraj = simulate(extend(sys), u, [0.0, 0.25])
        assert np.array_equal(plain.grid, exttraj.grid)
        assert np.max(np.abs(exttraj.states[:, 1:] - plain.states)) < 1e-12

    def test_nonlinear_projection(self):
        sys = ControlSystem(
            m=2, k=1,
            f=lambda x, u: np.array([np.sin(x[1]) + u[0], x[0] ** 2]),
            F=lambda x, u: float(x[0] ** 2 + u[0] ** 2),
            control_set=box([-1.0], [1.0]),
        )
        u = constant_signal(0.0, 1.0, [0.5])
        plain = simulate(sys, u, [0.3, -0.2])
        exttraj = simulate(extend(sys), u, [0.0, 0.3, -0.2])
        assert np.max(np.abs(exttraj.states[:, 1:] - plain.states)) < 1e-12


class TestLebesgueTimes:
    def test_excludes_switches(self):
        u = ControlSignal(a=0.0, b=2.0, switch_times=(1.0,),
                          values=(np.array([1.0]), np.array([-1.0])))
        assert lebesgue_times(u, [0.5, 1.0, 1.5]) == [0.5, 1.5]

    def test_no_switches_keeps_interior(self):
        u = constant_signal(0.0, 2.0, [0.0])
        assert lebesgue_times(u, [0.3, 1.9]) == [0.3, 1.9]

    def test_excludes_endpoints(self):
        u = constant_signal(0.0, 2.0, [0.0])
        assert lebesgue_times(u, [0.0, 1.0, 2.0]) == [1.0]


def _tolerance(s):
    return 1e-12 * (1.0 + abs(s))


@st.composite
def switch_window_cases(draw):
    """(switch_times, t): strictly increasing switches, some closer than
    1e-12 to each other and to t, and t on, inside or one ulp outside a
    switch's tolerance, with signed zeros and huge, tiny and subnormal
    magnitudes."""
    base = draw(st.sampled_from((0.0, -0.0, 1.0, -3.7, 1e6, -1e12, 1e-300, 5e-324, 1e300)))
    offsets = st.one_of(
        st.sampled_from((0.0, -0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, 3e-12)),
        st.floats(-1e-11, 1e-11))
    raw = [base + d * (1.0 + abs(base)) for d in draw(st.lists(offsets, max_size=6))]
    raw += draw(st.lists(st.floats(-10.0, 10.0), max_size=3))
    switches = sorted({s for s in raw if math.isfinite(s)})
    near = st.sampled_from(switches or [base])
    t = draw(st.one_of(
        st.tuples(near, offsets).map(lambda sd: sd[0] + sd[1] * (1.0 + abs(sd[0]))),
        near.map(lambda s: s + _tolerance(s)),
        near.map(lambda s: math.nextafter(s + _tolerance(s), math.inf)),
        near.map(lambda s: math.nextafter(s - _tolerance(s), -math.inf)),
        st.sampled_from((0.0, -0.0)),
        st.floats(-10.0, 10.0)))
    return tuple(switches), t


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(switch_window_cases())
@example(((-1e-13, 0.0, 1e-13), -0.0))
@example(((-0.0, 1e-12), 0.0))
@example(((1.0, 1.0 + 1e-13, 1.0 + 2e-13), 1.0 + 4e-12))
def test_switch_window_finds_what_the_scan_finds(case):
    # check_pmp, lebesgue_times and the classifier find the switches a
    # time falls on by two bisections; the scan tests every switch
    switch_times, t = case
    assert _switches_at(switch_times, t) == [
        j for j, s in enumerate(switch_times) if abs(t - s) <= _tolerance(s)]


class TestCsvExport:
    def test_plain_header_and_digits(self):
        traj = simulate(double_integrator(), constant_signal(0.0, 0.1, [1.0]), [0.0, 0.0],
                        IntegratorConfig(step=0.05))
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x0,x1"
        assert len(lines) == 1 + len(traj.grid)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 0.1
        # round trip at 17 significant digits is exact
        assert last[1] == traj.states[-1, 0]
        assert last[2] == traj.states[-1, 1]

    def test_extended_header_puts_cost_last(self):
        traj = simulate(extend(scalar_with_cost()), constant_signal(0.0, 0.1, [1.0]), [0.0, 0.0],
                        IntegratorConfig(step=0.05))
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x0,xcost"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == cost(traj)
