"""Indirect shooting: root-find boundary residuals of the Hamiltonian system.

The maximum principle supplies necessary conditions, not an algorithm; the
standard indirect realization integrates the coupled (x, p) system forward
with the control chosen by pointwise Hamiltonian maximization and roots the
endpoint defect over the unknown initial covector (plus the final time in
free-time mode, plus initial-manifold coordinates).  The control is held
constant within a step, refreshed at the step midpoint; discontinuities of
the maximizer are located by bisection and become exact switch times of the
returned piecewise-constant control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cone_geometry import null_space, unit_directions
from .control_system import ControlSignal, ControlSystem, _derived, extend, simulate
from .flows import IntegratorConfig, _all_finite, rk4_step
from .pmp import BoundarySpec, Extremal, _maximizer, adjoint_flow


@dataclass
class ShootingProblem:
    """Two-point boundary-value problem for extremal candidates.

    Unknowns: initial covector p(a) in R^m, plus the final time b in
    free-time mode, plus the coordinates of the initial point along the
    initial tangent basis in manifold mode (x(a) = x_a + sum c_i w_i).
    `b` is the horizon in fixed-time mode and the starting guess for it in
    free-time mode; `x_b` anchors the final point or manifold.
    """

    sys: ControlSystem
    bounds: BoundarySpec
    p0: float
    x_a: np.ndarray
    x_b: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.p0 not in (-1.0, 0.0):
            raise ValueError("p0 must be -1 or 0")
        self.x_a = np.asarray(self.x_a, dtype=float).ravel()
        self.x_b = np.asarray(self.x_b, dtype=float).ravel()
        if self.x_a.size != self.sys.m or self.x_b.size != self.sys.m:
            raise ValueError("anchor dimension mismatch")
        if not self.b > self.a:
            raise ValueError("need b > a")

    @property
    def n_unknowns(self) -> int:
        d_a = len(self.bounds.initial or ())
        return self.sys.m + d_a + (1 if self.bounds.mode == "free_time" else 0)


@dataclass
class ShootingResult:
    extremal: Extremal
    residual_norm: float
    iterations: int
    converged: bool
    jacobian_rank: int
    n_unknowns: int


@dataclass
class ShootingOptions:
    tol: float = 1e-6
    max_iter: int = 40
    step: Optional[float] = None
    n_starts: int = 8
    scales: Tuple[float, ...] = (0.1, 1.0, 10.0)
    seed: int = 0
    fd_h: float = 1e-6
    max_switches: int = 200


@dataclass
class SwitchingStructure:
    switch_times: Tuple[float, ...]
    arc_labels: Tuple[str, ...]


class ShootingFailure(RuntimeError):
    """Every trial blew up or produced no finite residual."""


# the failures that end one propagation: floating point (overflow, a
# Hamiltonian NaN at every control), blow-up, unbounded H and a maximization
# the maximizer does not support at this costate (all three RuntimeError)
# and singular linear algebra; any other error, such as one raised by a
# user's dynamics, propagates as itself
_TRIAL_FAILURES = (ArithmeticError, RuntimeError, np.linalg.LinAlgError)


def _auto_jump_tol(control_set) -> float:
    """The jump tolerance of control_set: a maximizer that moves by more
    is a switch.  It is made on first use and kept on the set, as
    `pmp._probes` keeps the fit's probes."""
    return _derived(control_set, "_jump_tol", _make_jump_tol)


def _make_jump_tol(control_set) -> float:
    if control_set.kind == "finite":
        pts = [np.asarray(p, float) for p in control_set.points]
        return 1e-9 if len(pts) < 2 else 0.5 * min(
            np.linalg.norm(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])
    if control_set.kind == "box":
        span = control_set.hi - control_set.lo
        finite = span[np.isfinite(span)]
        diam = float(np.max(finite)) if finite.size else 1.0
        return 0.05 * max(1.0, diam)
    return 0.05 * max(1.0, 2.0 * control_set.radius)


def _coupled_rhs(sys, p0, u):
    """(x', p') of the stacked state-costate y = (x, p) at a frozen control,
    as a list of floats; y is a list of floats.  J^T p stays a numpy
    reduction and the rest is the array form's elementwise arithmetic.
    `_propagate` steps it for the systems the grammar's coupled step does
    not cover: user callables, finite-difference Jacobians or cost
    gradients, a dense `linear_system` and Jacobians with a column of two
    entries that are not the number 0."""
    m, rate, grad, jac, c = sys.m, sys._rate, sys._grad, sys._jac, -p0

    def f(_, y):
        x, p = y[:m], y[m:]
        return rate(x, u) + [c * g - q for g, q in
                             zip(grad(x, u), (jac(x, u).T @ np.array(p)).tolist())]

    return f


def _jumped(u1, u2, tol) -> bool:
    """float(np.abs(u1 - u2).max()) > tol, on the components of two controls
    as Python floats (whose overflow and inf - inf warn of nothing): a NaN
    difference gives False, as it makes numpy's max NaN."""
    jump = False
    for v, w in zip(u1, u2):
        d = abs(float(v) - float(w))
        if d != d:
            return False
        if d > tol:
            jump = True
    return jump


class _Propagation:
    def __init__(self, x_b, p_b, steps, sup_h, resume):
        self.x_b = np.array(x_b)
        self.p_b = np.array(p_b)
        self.steps = steps      # list of (t_start, u_value)
        self.sup_h = sup_h      # max_u H at the endpoint
        # loop state (t, (x, p), maximizer, switches, steps taken) where the
        # final time first cut a step short, or at the end of the loop
        self.resume = resume


def _propagate(problem: ShootingProblem, z, opts: ShootingOptions,
               step: float, base: Optional[_Propagation] = None
               ) -> Optional[_Propagation]:
    """Integrate the coupled (x, p) system from the start encoded in z.

    Each step is the grammar's generated coupled step where `sys.f`
    carries one for the system's Jacobian and cost gradient (expression
    dynamics and the integrator builtins whose Jacobian columns each have
    at most one entry that is not the number 0, with no cost or a cost
    whose gradient is generated; see `grammar.compile_dynamics`), and
    `flows.rk4_step` on
    `_coupled_rhs` for every other system; both give the same bits.

    `base` is an optional propagation of an unknown vector that differs
    from z only by a smaller final time.  Up to its `resume` state every
    step was a full `step` long, which a later final time does not change,
    so the loop continues from there with the same result as a fresh run.
    """
    sys = problem.sys
    m = sys.m
    d_a = len(problem.bounds.initial or ())
    free = problem.bounds.mode == "free_time"
    b = float(z[m + d_a]) if free else problem.b
    if not b > problem.a + 1e-9 * (1.0 + abs(problem.a)):
        return None
    jump_tol = _auto_jump_tol(sys.control_set)
    maximize = _maximizer(sys, problem.p0)
    # the coupled field at a held control: held = hold(best) for best a
    # maximizer as argmax gives it, then coupled_stage(y, held, c) is the
    # field at y and coupled_step(y, held, h, k1, c) one RK4 step from y with
    # first stage k1
    c = -problem.p0
    generate = getattr(sys.f, "coupled_step", None)
    generated = generate and generate(sys.df_dx, sys.F, sys.dF_dx)
    if generated:
        hold, (coupled_stage, coupled_step) = (lambda best: best[2]), generated
    else:
        def hold(best):
            return _coupled_rhs(sys, problem.p0, best[0])

        def coupled_stage(y, rhs, c):
            return rhs(0.0, y)

        def coupled_step(y, rhs, h, k1, c):
            return rk4_step(rhs, 0.0, y, h, k1)

    def argmax(yc):
        # the maximizer at the stacked state yc = (x, p): u, H bound there
        # and u's components as floats for the jump test; H that is NaN or
        # -inf at every control ends the trial like a blow-up
        u, H, _ = maximize(yc[m:], yc[:m])
        if u is None:
            raise FloatingPointError("no control gives a Hamiltonian above -inf")
        return u, H, u.tolist()

    def advance(best, dt):
        # every trial step of one loop iteration starts from y: its first
        # RK4 stage is evaluated once per control value, keyed by its bytes,
        # which tell -0.0 from 0.0 where a tuple of floats would not
        key = best[0].tobytes()
        if key not in stages:
            held = hold(best)
            stages[key] = (held, coupled_stage(y, held, c))
        held, k1 = stages[key]
        return coupled_step(y, held, dt, k1, c)

    def bisect(arc, lo, hi, y_hi, best_hi):
        # largest substep keeping the maximizer on the current arc, with
        # the state it reaches and the maximizer there; arc is the
        # maximizer the arc holds, as argmax gives it, and it holds at lo;
        # y_hi is the state at hi and best_hi the maximizer at y_hi
        frozen = arc[2]
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            ym = advance(arc, mid)
            if not _all_finite(ym):
                raise FloatingPointError
            best = argmax(ym)
            if _jumped(best[2], frozen, jump_tol):
                hi, y_hi, best_hi = mid, ym, best
            else:
                lo = mid
        return hi, y_hi, best_hi

    steps: List[Tuple[float, np.ndarray]]
    if base is None:
        x = problem.x_a.copy()
        for ci, w in zip(z[m:m + d_a], problem.bounds.initial or ()):
            x = x + ci * np.asarray(w, float)
        y = np.concatenate([x, np.asarray(z[:m], dtype=float)]).tolist()
        t, steps, n_sw = problem.a, [], 0
    else:
        t, y, cur, n_sw, n_steps = base.resume
        steps = base.steps[:n_steps]
    resume = None
    try:
        # numpy stays quiet on overflow and invalid values, from the first
        # maximization to H at the end: the loop checks its states are finite
        with np.errstate(over="ignore", invalid="ignore"):
            if base is None:
                cur = argmax(y)
            while b - t > 1e-13 * (1.0 + abs(b)):
                h = min(step, b - t)
                if resume is None and h != step:
                    resume = (t, y, cur, n_sw, len(steps))
                stages = {}
                yh = advance(cur, 0.5 * h)
                if not _all_finite(yh):
                    return None
                end = argmax(yh)
                if _jumped(end[2], cur[2], jump_tol):
                    arc = cur
                    dt, yn, end = bisect(arc, 0.0, 0.5 * h, yh, end)
                    n_sw += 1
                else:
                    arc = end
                    y1 = advance(arc, h)
                    if not _all_finite(y1):
                        return None
                    end = argmax(y1)
                    if _jumped(end[2], arc[2], jump_tol):
                        # on cur's control the arc holds at yh, the first midpoint
                        lo = 0.5 * h if arc[0].tobytes() == cur[0].tobytes() else 0.0
                        dt, yn, end = bisect(arc, lo, h, y1, end)
                        n_sw += 1
                    else:
                        dt, yn = h, y1
                steps.append((t, np.asarray(arc[0], float)))
                t, y, cur = t + dt, yn, end
                if n_sw > opts.max_switches:
                    return None
            if resume is None:
                resume = (t, y, cur, n_sw, len(steps))
            # sup_h, the one H(u_star) that a propagation reads
            return _Propagation(y[:m], y[m:], steps, cur[1](cur[0]), resume)
    except _TRIAL_FAILURES:
        return None


def _step(problem: ShootingProblem, opts: ShootingOptions) -> float:
    return opts.step or 1e-3 * (problem.b - problem.a)


def boundary_residual(problem: ShootingProblem, z,
                      opts: Optional[ShootingOptions] = None) -> Optional[np.ndarray]:
    """Residual vector of the shooting system at the unknown vector z.

    Layout: final-point mismatch (or manifold normal defect followed by
    final transversality), then initial transversality, then sup_u H(b) in
    free-time mode.  None signals a blown-up or invalid trial.
    """
    opts = opts or ShootingOptions()
    prop = _propagate(problem, z, opts, _step(problem, opts))
    return None if prop is None else _residual(problem, z, prop)


def _residual(problem: ShootingProblem, z, prop: _Propagation) -> np.ndarray:
    """`boundary_residual` assembled from the propagation of z."""
    m = problem.sys.m
    d_a = len(problem.bounds.initial or ())
    parts = []
    if problem.bounds.final is None:
        parts.append(prop.x_b - problem.x_b)
    else:
        comp = null_space(problem.bounds.final, m)
        parts.append(comp.T @ (prop.x_b - problem.x_b))
        parts.append(np.array([float(prop.p_b @ np.asarray(w, float))
                               for w in problem.bounds.final]))
    if d_a:
        p_a = np.array(z[:m], dtype=float)
        parts.append(np.array([float(p_a @ np.asarray(w, float))
                               for w in problem.bounds.initial]))
    if problem.bounds.mode == "free_time":
        parts.append(np.array([prop.sup_h]))
    return np.concatenate([np.atleast_1d(p) for p in parts])


def _fd_jacobian(problem, z, R0, prop, opts):
    """Forward differences of the residual at z, whose propagation is prop.

    A final-time column that moves b up resumes prop instead of
    propagating again from the start.
    """
    h = opts.fd_h
    step = _step(problem, opts)
    m = problem.sys.m
    i_b = (m + len(problem.bounds.initial or ())
           if problem.bounds.mode == "free_time" else None)
    n = len(z)
    J = np.zeros((len(R0), n))
    for j in range(n):
        zp = z.copy()
        zp[j] += h * (1.0 + abs(z[j]))
        base = prop if j == i_b and zp[j] > z[j] else None
        prop_p = _propagate(problem, zp, opts, step, base)
        if prop_p is None:
            continue
        Rp = _residual(problem, zp, prop_p)
        J[:, j] = (Rp - R0) / (h * (1.0 + abs(z[j])))
    return J


def _newton(problem, z0, opts):
    """Damped Newton from z0: (z, |R|, iterations, converged, propagation of z)."""
    step = _step(problem, opts)
    z = np.asarray(z0, dtype=float).copy()
    prop = _propagate(problem, z, opts, step)
    if prop is None:
        return z, np.inf, 0, False, None
    R = _residual(problem, z, prop)
    rn = float(np.linalg.norm(R))
    for it in range(1, opts.max_iter + 1):
        if rn <= opts.tol:
            return z, rn, it - 1, True, prop
        J = _fd_jacobian(problem, z, R, prop, opts)
        try:
            s = np.linalg.lstsq(J, -R, rcond=None)[0]
        except np.linalg.LinAlgError:
            return z, rn, it, False, prop
        if not np.all(np.isfinite(s)):
            return z, rn, it, False, prop
        alpha, accepted = 1.0, False
        while alpha >= 1.0 / 64.0:
            z_try = z + alpha * s
            prop_try = _propagate(problem, z_try, opts, step)
            if prop_try is not None:
                R_try = _residual(problem, z_try, prop_try)
                rn_try = float(np.linalg.norm(R_try))
                if rn_try < (1.0 - 0.25 * alpha) * rn or rn_try <= opts.tol:
                    z, R, rn, prop, accepted = z_try, R_try, rn_try, prop_try, True
                    break
            alpha *= 0.5
        if not accepted:
            return z, rn, it, False, prop
    return z, rn, opts.max_iter, rn <= opts.tol, prop


def _build_extremal(problem, z, prop, step):
    m = problem.sys.m
    d_a = len(problem.bounds.initial or ())
    free = problem.bounds.mode == "free_time"
    b = float(z[m + d_a]) if free else problem.b
    x0 = problem.x_a.copy()
    for ci, w in zip(z[m:m + d_a], problem.bounds.initial or ()):
        x0 = x0 + ci * np.asarray(w, float)

    switches: List[float] = []
    values: List[Tuple[float, ...]] = [tuple(prop.steps[0][1])]
    for (t_s, u_s) in prop.steps[1:]:
        if not np.array_equal(np.asarray(u_s), np.asarray(values[-1])):
            switches.append(t_s)
            values.append(tuple(u_s))
    sig = ControlSignal(problem.a, b, tuple(switches), tuple(values))
    ext_traj = simulate(extend(problem.sys), sig,
                        np.concatenate(([0.0], x0)), IntegratorConfig(step=step))
    adj = adjoint_flow(problem.sys, ext_traj.project(problem.sys), problem.p0, prop.p_b)
    return Extremal(ext_traj, sig, adj)


def shoot(problem: ShootingProblem, guess=None,
          opts: Optional[ShootingOptions] = None) -> ShootingResult:
    """Solve the shooting system by damped Newton with deterministic multistart.

    Starts: the caller's guess (if any), the zero covector, then seeded unit
    covectors scaled by opts.scales.  Trials run in listed order and the
    first converged one is selected; otherwise the best residual wins (ties
    to the earlier start).  A non-converged result is returned flagged, with
    the best iterate's extremal attached.
    """
    opts = opts or ShootingOptions()
    m = problem.sys.m
    d_a = len(problem.bounds.initial or ())
    free = problem.bounds.mode == "free_time"

    def pad(p_part):
        tail = [problem.b] if free else []
        return np.concatenate([p_part, np.zeros(d_a), tail])

    starts: List[np.ndarray] = []
    if guess is not None:
        g = np.asarray(guess, dtype=float).ravel()
        if g.size != problem.n_unknowns:
            raise ValueError("guess dimension does not match the unknowns")
        starts.append(g)
    starts.append(pad(np.zeros(m)))
    for s in opts.scales:
        for d in unit_directions(m, opts.n_starts, seed=opts.seed):
            starts.append(pad(s * d))

    best = None  # (residual_norm, index, z, iterations, converged, propagation)
    for idx, z0 in enumerate(starts):
        z, rn, iters, conv, prop = _newton(problem, z0, opts)
        if conv:
            best = (rn, idx, z, iters, True, prop)
            break
        if np.isfinite(rn) and (best is None or rn < best[0]):
            best = (rn, idx, z, iters, False, prop)
    if best is None:
        raise ShootingFailure("all starts blew up")
    rn, _, z, iters, conv, prop = best
    extremal = _build_extremal(problem, z, prop, _step(problem, opts))
    R = _residual(problem, z, prop)
    J = _fd_jacobian(problem, z, R, prop, opts)
    jrank = int(np.linalg.matrix_rank(J, tol=1e-8 * max(1.0, float(np.max(np.abs(J))))))
    return ShootingResult(extremal=extremal, residual_norm=rn, iterations=iters,
                          converged=conv, jacobian_rank=jrank,
                          n_unknowns=problem.n_unknowns)


def _format_value(u) -> str:
    comps = ["%+g" % c for c in np.atleast_1d(u)]
    return "u=" + (comps[0] if len(comps) == 1 else "(" + ", ".join(comps) + ")")


def switching_structure(extremal: Extremal) -> SwitchingStructure:
    """Control discontinuities of an extremal with the arc value labels.

    Step-to-step drift below the jump tolerance of the control set, the one
    shooting locates switches with (a smoothly varying maximizer sampled per
    step), is not a switch; only genuine jumps are reported.  Labels carry
    the value at the start of each arc.
    """
    sig = extremal.control
    vals = [np.asarray(v, dtype=float) for v in sig.values]
    jump_tol = _auto_jump_tol(extremal.ext_traj.system.control_set)
    times: List[float] = []
    labels: List[str] = [_format_value(vals[0])]
    for i, sw in enumerate(sig.switch_times):
        if _jumped(vals[i + 1], vals[i], jump_tol):
            times.append(float(sw))
            labels.append(_format_value(vals[i + 1]))
    return SwitchingStructure(tuple(times), tuple(labels))
