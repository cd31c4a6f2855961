"""The generated arc loop of a shooting propagation against the Python step.

A propagation of `shooting._propagator` hands the whole steps of each arc
of a grammar system on a finite box with a declared degree of at most 2 to
one generated loop (`f.arc_run` of `grammar.compile_dynamics`), and its own
trial steps to the generated trial.  With `shooting._arc_run` replaced by
one that builds nothing, the same propagation runs in the Python step alone,
with the maximizer and `shooting._jumped` in Python.  The two give the same
`_Propagation`, bit for bit, on random systems that blow up, jump at the
half and at the full step, and have fits that are not separable.
"""

import collections
import math
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from pmpkit import cli, pmp, shooting
from pmpkit.control_system import ControlSystem, box

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def bits(v):
    """The bytes of v, each NaN replaced by the one canonical NaN (an
    operation on two NaNs signs its NaN as CPython's specialization of the
    instruction at the time decides)."""
    a = np.array(v, dtype=float)
    return np.where(np.isnan(a), math.nan, a).tobytes()


def summary(prop):
    """Everything a propagation holds, as comparable bits."""
    if prop is None:
        return None
    t, y, cur, n_sw, n_steps = prop.resume
    return (bits(prop.x_b), bits(prop.p_b), bits(prop.sup_h),
            [(bits(t0), np.array(u).tobytes()) for t0, u in prop.steps],
            (bits(t), bits(y), np.array(cur).tobytes(), n_sw, n_steps))


# x-only parts of a rate and factors of a control; x0^2 and x0*x1 grow
# without bound from a large start, so some propagations blow up
X_TERMS = ("0", "1.5", "-x0", "x{l}", "sin(x{l})", "0.5*x0^2", "x0*x{l}", "-0.25*x{l}^2")
BOXES = ((-1.0, 1.0), (-2.0, 0.5), (-0.0, 1.0), (0.0, 2.0), (-1.0, -0.0), (-1.5, 0.0))


@st.composite
def arc_cases(draw):
    """(problem, z, b2, h): a grammar system of m = 1..2 states and k = 1..2
    controls, affine in each control (bang-bang arcs, so jumps) with an
    optional u0*u1 in a rate or the cost (fits that are not separable) or
    a clock, a cost that is absent, 1, or concave in u, a box with
    signed-zero bounds, p0 in {-1, 0}, free final time, a start z = (p(a),
    b) and a larger final time b2, which the final-time column resumes
    to."""
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def term(source):
        return "(" + source.format(l=draw(st.integers(0, m - 1))) + ")"

    rates = []
    for i in range(m):
        rate = term(draw(st.sampled_from(X_TERMS)))
        for j in range(k):
            factor = draw(st.sampled_from(("0", "1", "-1", "2*x{l}", "cos(x{l})", "x{l}")))
            if factor != "0":
                rate += f" + {term(factor)}*u{j}"
        rates.append(rate)
    mixed = k == 2 and draw(st.booleans())
    if mixed and draw(st.booleans()):
        rates[0] += " + 0.5*u0*u1"
        mixed = False
    # a clock: x1 = t - h/2 and a cost term x1*u0*u1, so that the fit is
    # separable at the half step and not at the full step
    clock = m == 2 and k == 2 and not mixed and draw(st.booleans())
    if clock:
        rates[1] = "1"
    cost = draw(st.sampled_from(("one", "quadratic") if clock else ("none", "one", "quadratic")))
    data = {"dynamics": {"expressions": rates},
            "control_set": {"kind": "box", "lo": [], "hi": []},
            "horizon": {"a": 0.0, "b": 1.0}, "p0": draw(st.sampled_from((-1.0, 0.0))),
            "boundary": {"mode": "free_time", "initial": {"point": [0.0] * m},
                         "final": {"point": [0.0] * m}}}
    for _ in range(k):
        lo, hi = draw(st.sampled_from(BOXES))
        data["control_set"]["lo"].append(lo)
        data["control_set"]["hi"].append(hi)
    if cost != "none":
        src = "1" if cost == "one" else "0.5*x0^2 + " + " + ".join(
            f"{draw(st.sampled_from((0.5, 1.0, 3.0)))}*u{j}^2" for j in range(k))
        data["cost"] = {"expression": src + (" + 0.75*u0*u1" if mixed else "")
                        + (" + x1*u0*u1" if clock else "")}
    problem = cli.Problem(data)
    assert problem.sys.u_degree is not None and problem.sys.u_degree <= 2
    start = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1e150, -1e150)))
    x_a = draw(st.lists(start, min_size=m, max_size=m))
    p_a = draw(st.lists(start, min_size=m, max_size=m))
    b = draw(st.floats(0.05, 2.5))
    h = draw(st.sampled_from((0.1, 0.05, 0.3)))
    if clock:
        x_a[1] = -0.5 * h
    sp = shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                                  x_a=x_a, x_b=[0.0] * m, a=0.0, b=b)
    return sp, np.array(p_a + [b]), b + draw(st.floats(0.01, 1.0)), h


def trial_step(dt, h):
    return f"the {'half' if dt == 0.5 * h else 'full'} step"


def stop_kind(ran, h):
    """Where a run of the generated loop handed back."""
    if ran is None:
        return "blow-up"
    bracket = ran[3]
    return "end" if bracket is None else "jump at " + trial_step(bracket[3], h)


def test_arc_loop_gives_the_python_loops_propagation(monkeypatch):
    seen, build = collections.Counter(), shooting._arc_run

    def recorded(*args):
        bind = build(*args)
        if bind is None:
            return None

        def bound(h, c, p0f, stage, step, fit, decide):
            # the run's stops, and its decisions from a fit that is not
            # separable, by the trial step that made the fit
            last = {"run": False}

            def stepped(y, u, dt, k1, c):
                last["dt"] = dt
                return step(y, u, dt, k1, c)

            def decided(y, fitted):
                if last["run"]:
                    seen["decided at " + trial_step(last["dt"], h)] += 1
                return decide(y, fitted)

            run, trial = bind(h, c, p0f, stage, stepped, fit, decided)

            def recorded_run(*run_args):
                last["run"] = True
                try:
                    ran = run(*run_args)
                finally:
                    last["run"] = False
                seen[stop_kind(ran, h)] += 1
                return ran

            return recorded_run, trial

        return bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arc_cases())
    def check(case):
        sp, z, b2, h = case
        opts = shooting.ShootingOptions(step=h)
        zp = z.copy()
        zp[-1] = b2
        props = []
        for arc in (recorded, lambda *args: None):
            monkeypatch.setattr(shooting, "_arc_run", arc)
            propagate = shooting._propagator(sp, opts)
            prop = propagate(z)
            # the final-time column resumes prop to a larger b
            props.append((summary(prop), summary(propagate(zp, prop))))
        assert props[0] == props[1]

    check()
    # every way the generated loop ends was met, and a decision from a fit
    # that is not separable at each of its trial steps
    assert set(seen) == {"blow-up", "end", "jump at the half step", "jump at the full step",
                         "decided at the half step", "decided at the full step"}, seen


def di_user_callables():
    """The double integrator with minimum-time cost as user callables."""
    return ControlSystem(m=2, k=1, f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]), F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2), u_degree=1)


def test_shooting_goldens_take_the_arc_loop_and_user_callables_do_not(monkeypatch):
    runs, build = collections.Counter(), shooting._arc_run

    def counted(*args):
        built = build(*args)
        runs["built" if built else "none"] += 1
        return built

    monkeypatch.setattr(shooting, "_arc_run", counted)
    for name in ("min_time_double_integrator", "lqr_expression_shoot"):
        runs.clear()
        problem = cli.load_problem(os.path.join(GOLDEN, name, "problem.json"))
        sp = shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                                      x_a=problem.x_a, x_b=problem.x_b, a=problem.a, b=problem.b)
        opts = shooting.ShootingOptions(tol=problem.tol, step=problem.step)
        assert shooting.shoot(sp, opts=opts).converged
        assert runs["built"] > 0 and runs["none"] == 0, (name, runs)
    runs.clear()
    sp = shooting.ShootingProblem(sys=di_user_callables(), bounds=pmp.BoundarySpec("free_time"),
                                  p0=-1.0, x_a=[1.2, 0.0], x_b=[0.0, 0.0], a=0.0, b=3.0)
    assert shooting.shoot(sp, opts=shooting.ShootingOptions(step=0.1)).converged
    assert runs["none"] > 0 and runs["built"] == 0, runs
