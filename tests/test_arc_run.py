"""Shooting's one arc loop against the array loop of the oracles.

Every step of a propagation of `shooting._propagator` is made by the one
generated arc loop, `grammar.arc_loop`: the whole steps of each arc by its
run, bound once for the step h, and the step that the final time cuts
short by its run bound again to that step.  On a grammar system on a
finite box with a declared degree of at most 2 it decides from the
generated probe fit, else it calls the maximizer.  Both forms give the
`_Propagation` of `oracles.propagate_arrays`, bit for bit, on random
systems that blow up, jump at the half and at the full step (whole or cut
short), and have fits that are not separable.
"""

import collections
import dataclasses
import math
import os
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import propagate_arrays
from test_shared_work import counted_compiles, shooting_problem
from pmpkit import cli, grammar, pmp, shooting
from pmpkit.control_system import ControlSystem, box

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def bits(v):
    """The bytes of v, each NaN replaced by the one canonical NaN (an
    operation on two NaNs signs its NaN as CPython's specialization of the
    instruction at the time decides)."""
    a = np.array(v, dtype=float)
    return np.where(np.isnan(a), math.nan, a).tobytes()


def summary(prop):
    """A propagation's steps, x_b, p_b and sup_h, as comparable bits: prop
    as `oracles.propagate_arrays` returns it, or a `shooting._Propagation`."""
    if prop is None:
        return None
    if isinstance(prop, shooting._Propagation):
        prop = (prop.steps, prop.x_b, prop.p_b, prop.sup_h)
    steps, x_b, p_b, sup_h = prop
    return ([(bits(t0), np.array(u).tobytes()) for t0, u in steps],
            bits(x_b), bits(p_b), bits(sup_h))


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
    start = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1e150, -1e150)))
    x_a = draw(st.lists(start, min_size=m, max_size=m))
    p_a = draw(st.lists(start, min_size=m, max_size=m))
    b = draw(st.floats(0.05, 2.5))
    h = draw(st.sampled_from((0.1, 0.05, 0.3)))
    if clock:
        x_a[1] = -0.5 * h
    case = free_time_case(data, x_a, p_a, b, b + draw(st.floats(0.01, 1.0)), h)
    assert case[0].sys.u_degree is not None and case[0].sys.u_degree <= 2
    return case


def free_time_case(data, x_a, p_a, b, b2, h):
    """(problem, z, b2, h) of `arc_cases` for the problem data from x_a,
    with z = (p_a, b)."""
    problem = cli.Problem(data)
    sp = shooting.ShootingProblem(sys=problem.sys, bounds=problem.boundary, p0=problem.p0,
                                  x_a=x_a, x_b=[0.0] * len(x_a), a=0.0, b=b)
    return sp, np.array(p_a + [b]), b2, h


def short_step_cases():
    """Cases whose step that the final time cuts short blows up or jumps at
    its half or its full step: the minimum-time double integrator, whose
    control switches at t = p_2(a) / p_1(a), with h = 0.3 and b = 1.05 (a
    short step from 0.9 to 1.05), and x0' = 0.5 x0^2 + u0 from 1e150 with
    b < h."""
    di = {"dynamics": {"expressions": ["x1", "u0"]}, "cost": {"expression": "1"},
          "control_set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
          "boundary": {"mode": "free_time", "initial": {"point": [0.0, 0.0]},
                       "final": {"point": [0.0, 0.0]}}}
    blowing = dict(di, dynamics={"expressions": ["0.5*x0^2 + u0"]}, cost=None,
                   boundary={"mode": "free_time", "initial": {"point": [0.0]},
                             "final": {"point": [0.0]}})
    del blowing["cost"]
    return [free_time_case(di, [1.2, 0.0], [1.0, 0.95], 1.05, 1.5, 0.3),
            free_time_case(di, [1.2, 0.0], [1.0, 1.0], 1.05, 1.5, 0.3),
            free_time_case(blowing, [1e150], [1.0], 0.05, 0.3, 0.1)]


def trial_step(dt, h):
    return f"the {'half' if dt == 0.5 * h else 'full'} step"


def stop_kind(ran, h):
    """Where a run of the generated loop handed back."""
    if ran is None:
        return "blow-up"
    bracket = ran[3]
    return "end" if bracket is None else "jump at " + trial_step(bracket[3], h)


def test_arc_loop_gives_the_array_loops_propagation(monkeypatch):
    seen, case_step = collections.Counter(), [None]

    def recorded(m, k, sides, fit_tol, jump_tol, build=grammar.arc_loop):
        arc = build(m, k, sides, fit_tol, jump_tol)

        def bound(h, c, p0f, stage, step, fit, decide):
            # the run's stops, by the step it made (whole or cut short by
            # the final time), and its decisions from a fit that is not
            # separable, by the trial step that made the fit
            last = {"run": False}
            where = "a whole step" if h == case_step[0] else "the short step"

            def stepped(y, u, dt, k1, c):
                last["dt"] = dt
                return step(y, u, dt, k1, c)

            def decided(y, fitted):
                if last["run"] and fitted is not None:
                    seen["decided at " + trial_step(last["dt"], h)] += 1
                return decide(y, fitted)

            run, trial = arc(h, c, p0f, stage, stepped, fit, decided)

            def recorded_run(*run_args):
                last["run"] = True
                try:
                    ran = run(*run_args)
                finally:
                    last["run"] = False
                seen[(where, stop_kind(ran, h))] += 1
                return ran

            return recorded_run, trial

        return bound

    def decide_form(m, k, sides, fit_tol, jump_tol):
        return recorded(m, k, None, fit_tol, jump_tol)

    def compare(case):
        sp, z, b2, h = case
        case_step[0] = h
        opts = shooting.ShootingOptions(step=h)
        zp = z.copy()
        zp[-1] = b2
        want = [summary(propagate_arrays(sp, v, opts, h)) for v in (z, zp)]
        for form in (recorded, decide_form):
            monkeypatch.setattr(shooting, "arc_loop", form)
            propagate = shooting._propagator(sp, opts)
            prop = propagate(z)
            # the final-time column resumes prop to a larger b
            later = propagate(zp, prop) if prop else propagate(zp)
            assert [summary(prop), summary(later)] == want

    settings(max_examples=200, deadline=None, derandomize=True)(given(arc_cases())(compare))()
    for case in short_step_cases():
        compare(case)
    # every way the loop ends was met on whole steps and on the step that
    # the final time cuts short, and a decision from a fit that is not
    # separable at each of its trial steps
    assert set(seen) == {(where, kind) for where in ("a whole step", "the short step")
                         for kind in ("blow-up", "end", "jump at the half step",
                                      "jump at the full step")} | {
        "decided at the half step", "decided at the full step"}, seen


def di_user_callables():
    """The double integrator with minimum-time cost as user callables."""
    return ControlSystem(m=2, k=1, f=lambda x, u: np.array([x[1], u[0]]),
                         control_set=box([-1.0], [1.0]), F=lambda x, u: 1.0,
                         df_dx=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dF_dx=lambda x, u: np.zeros(2), u_degree=1)


def test_every_propagation_takes_the_one_arc_loop(monkeypatch):
    # the goldens run on the form that decides from the generated probe
    # fit, user callables and a finite set on the form that calls the
    # maximizer; `_propagator` makes no step and tests no jump itself, and
    # the decide form compiles once per m, k and jump tolerance
    _, compiled = counted_compiles(monkeypatch)
    work, build, bind = collections.Counter(), grammar.arc_loop, shooting._propagator

    def counted_loop(m, k, sides, fit_tol, jump_tol):
        arc = build(m, k, sides, fit_tol, jump_tol)
        form = "decide" if sides is None else "fit"

        def bound(*problem_args):
            run, trial = arc(*problem_args)

            def counted_run(*run_args):
                work[form] += 1
                return run(*run_args)

            return counted_run, trial

        return bound

    def counted_propagator(*args):
        propagate = bind(*args)

        def counted(*prop_args):
            runs = work["fit"] + work["decide"]
            prop = propagate(*prop_args)
            work["propagations"] += 1
            assert prop is None or work["fit"] + work["decide"] > runs
            return prop

        return counted

    def in_the_loop(fn):
        # a coupled stage or step, called from the generated arc loop only
        def called(*args):
            assert sys._getframe(1).f_code.co_filename.startswith("<pmpkit.grammar arc ")
            return fn(*args)
        return called

    def forbidden(*args):
        raise AssertionError("the propagator tested a jump itself")

    field = shooting._coupled_field
    monkeypatch.setattr(shooting, "arc_loop", counted_loop)
    monkeypatch.setattr(shooting, "_propagator", counted_propagator)
    monkeypatch.setattr(shooting, "_coupled_field",
                        lambda *args: tuple(map(in_the_loop, field(*args))))
    monkeypatch.setattr(shooting, "_jumped", forbidden)
    for name in ("min_time_double_integrator", "lqr_expression_shoot"):
        work.clear()
        problem = cli.load_problem(os.path.join(GOLDEN, name, "problem.json"))
        opts = shooting.ShootingOptions(tol=problem.tol, step=problem.step)
        assert shooting.shoot(shooting_problem(problem), opts=opts).converged
        assert work["fit"] > 0 and work["decide"] == 0 and work["propagations"] > 0, (name, work)
    assert compiled["arc"] == 2
    finite_di = shooting_problem(cli.Problem({
        "dynamics": {"builtin": "double_integrator"}, "cost": {"expression": "1 + x0^2"},
        "control_set": {"kind": "finite", "points": [[-1.0], [0.0], [1.0]]},
        "horizon": {"a": 0.0, "b": 3.0}, "p0": -1.0,
        "boundary": {"mode": "free_time", "initial": {"point": [1.2, 0.0]},
                     "final": {"point": [0.0, 0.0]}}}))
    user_di = shooting.ShootingProblem(sys=di_user_callables(),
                                       bounds=pmp.BoundarySpec("free_time"), p0=-1.0,
                                       x_a=[1.2, 0.0], x_b=[0.0, 0.0], a=0.0, b=3.0)
    for sp in (user_di, finite_di):
        work.clear()
        shooting.shoot(sp, opts=shooting.ShootingOptions(step=0.1, max_iter=3))
        assert work["decide"] > 0 and work["fit"] == 0 and work["propagations"] > 0, work
    # another user-callable system of the same m, k and jump tolerance
    # shares the first one's compile
    work.clear()
    sp = dataclasses.replace(user_di, sys=dataclasses.replace(user_di.sys, F=None, dF_dx=None))
    assert shooting._propagator(sp, shooting.ShootingOptions(step=0.1))(np.array([1.0, 0.5, 2.05]))
    assert work["decide"] > 0 and compiled["arc"] == 4, (work, compiled)

