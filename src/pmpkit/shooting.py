"""Indirect shooting: root-find boundary residuals of the Hamiltonian system.

The maximum principle supplies necessary conditions, not an algorithm; the
standard indirect realization integrates the coupled (x, p) system forward
with the control chosen by pointwise Hamiltonian maximization and roots the
endpoint defect over the unknown initial covector (plus the final time in
free-time mode, plus initial-manifold coordinates).  The control is held
constant within a step, refreshed at the step midpoint; discontinuities of
the maximizer are located by bisection and become exact switch times of the
returned piecewise-constant control.

Everything fixed for a problem (step, jump tolerance, maximizer, coupled
field) is bound once per `shoot` by `_propagator`.  For a grammar system on
a finite box whose coupled step and probe fit are generated, the whole
steps of each arc run in one generated loop, and the other trial steps in
one generated trial (`grammar.compile_dynamics`, `f.arc_run`).  The loop
hands back to Python only at a jump, with the bracket that Python bisects,
after its last whole step, and with None at a state that is not finite;
a fit that is not separable is decided inside it, by a call into the
maximizer.  The step that the final time cuts short is Python's.  The
results are the bits of the Python step alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cone_geometry import null_space, unit_directions
from .control_system import ControlSystem, _signal_of_pieces, extend, simulate
from .flows import IntegratorConfig, _all_finite, rk4_step
from .pmp import (FIT_TOL, BoundarySpec, Extremal, UnboundedHamiltonianError,
                  UnsupportedMaximizationError, _costate, _maximizer, adjoint_flow)


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
        # the complement of the final tangent space, which every residual reads
        self._final_complement = null_space(self.bounds.final or (), self.sys.m)

    @property
    def n_unknowns(self) -> int:
        d_a = len(self.bounds.initial or ())
        return self.sys.m + d_a + (1 if self.bounds.mode == "free_time" else 0)

    def decode(self, z):
        """(x(a), b) of the unknown vector z = (p(a), c_1..c_d, b): x(a) =
        x_a + sum c_i w_i over the initial tangent basis, b the final time in
        free-time mode, else the horizon's b: the one decoding of the
        entries after p(a)."""
        m, basis = self.sys.m, self.bounds.initial or ()
        x = self.x_a.copy()
        for ci, w in zip(z[m:m + len(basis)], basis):
            x = x + ci * np.asarray(w, float)
        return x, (float(z[m + len(basis)]) if self.bounds.mode == "free_time" else self.b)


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
# Hamiltonian NaN at every control), unbounded H, a maximization the
# maximizer does not support at this costate and singular linear algebra;
# any other error, such as one raised by a user's dynamics (a
# NotImplementedError or RecursionError included), propagates as itself
_TRIAL_FAILURES = (ArithmeticError, UnboundedHamiltonianError, UnsupportedMaximizationError,
                   np.linalg.LinAlgError)


def _auto_jump_tol(control_set) -> float:
    """The jump tolerance of control_set: a maximizer that moves by more
    is a switch."""
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


def _coupled_field(sys, p0):
    """x' = f(x, u), p' = -dH/dx of y = (x, p) with u held, as (stage,
    step): stage(y, u, c) is the field at y and step(y, u, h, k1, c) one RK4
    step from y whose first stage is k1, for lists y and u and c = -p0.
    It is the grammar's generated pair where `sys.f` carries one (see
    `grammar.compile_dynamics`), else `flows.rk4_step` on f and
    `pmp._costate` bound to p0, which get u as a float64 array (user
    callables, finite-difference derivatives, `linear_system`); both give
    the same bits."""
    generate = getattr(sys.f, "coupled_step", None)
    generated = generate and generate(sys.df_dx, sys.F, sys.dF_dx)
    if generated:
        return generated
    m, rate, costate = sys.m, sys._rate, _costate(sys, p0, 1)

    def field(u):
        u = np.array(u)
        linearize = costate(u)
        return lambda _, y: rate(y[:m], u) + linearize(_, y[:m])(y[m:])

    def step(y, u, h, k1, c):
        return rk4_step(field(u), 0.0, y, h, k1)

    return (lambda y, u, c: field(u)(0.0, y)), step


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
        self.steps = steps      # list of (t_start, u_value as a list of floats)
        self.sup_h = sup_h      # max_u H at the endpoint
        # loop state (t, (x, p), maximizer, switches, steps taken) where the
        # final time first cut a step short, or at the end of the loop
        self.resume = resume


def _arc_run(sys, maximize, jump_tol):
    """arc(h, c, p0f, stage, step, fit, decide) -> (run, trial) of
    `grammar.compile_dynamics`'s `f.arc_run`, which binds the generated arc
    loop and trial to a problem, for a system whose coupled field and probe
    fit are generated; None for any other."""
    build = maximize.probe_fit and getattr(sys.f, "arc_run", None)
    return build and build(sys.df_dx, sys.F, sys.dF_dx, maximize.sides, FIT_TOL, jump_tol)


def _propagator(problem: ShootingProblem, opts: ShootingOptions):
    """propagate(z, base=None): the coupled (x, p) field `_coupled_field`
    integrated from the start that z encodes (`ShootingProblem.decode`), as
    a `_Propagation`, or None for a failed trial.  The step, the jump
    tolerance, the maximizer, the coupled field and the generated arc loop
    are fixed for the problem and bound once, here.

    `base` is an optional propagation of an unknown vector that differs
    from z only by a smaller final time.  Up to its `resume` state every
    step was a full step long, which a later final time does not change,
    so the loop continues from there with the same result as a fresh run.

    trial(y, u, dt, k1) -> (state, control, jumped) steps dt from y with
    the control u, a list of floats, held and k1 its first stage.  A step
    of h is the trial of h / 2 with the current control, then, unless the
    control there jumps, the trial of h with the control there.  Where
    `_arc_run` gives the generated trial and arc loop, the loop makes the
    whole steps of each arc; the step that b cuts short, and every step of
    any other system, is `stepped` here.  A step ends in a bracket: the
    control it held, that control's first stage, the last time known on
    the arc (None where the control does not jump) and the time of the
    jump with the state and control there, which one bisection narrows.
    """
    sys, a = problem.sys, problem.a
    m, step, max_switches = sys.m, _step(problem, opts), opts.max_switches
    jump_tol = _auto_jump_tol(sys.control_set)
    maximize = _maximizer(sys, problem.p0)
    field_stage, field_step = _coupled_field(sys, problem.p0)
    c = -problem.p0

    def argmax(y, fit=None):
        # the maximizer at the stacked state y = (x, p) as a list; fit,
        # where it is given, is the probe fit at y, which the decision
        # reads.  H that is NaN or -inf at every control ends the trial
        # like a blow-up
        u = maximize(y[m:], y[:m], fit)[0]
        if u is None:
            raise FloatingPointError("no control gives a Hamiltonian above -inf")
        return u.tolist()

    def trial(y, u, dt, k1):
        ym = field_step(y, u, dt, k1, c)
        if not _all_finite(ym):
            raise FloatingPointError
        um = argmax(ym)
        return ym, um, _jumped(um, u, jump_tol)

    arc = _arc_run(sys, maximize, jump_tol)
    run = None
    if arc:
        run, trial = arc(step, c, float(problem.p0), field_stage, field_step,
                         maximize.probe_fit, argmax)

    def stepped(y, u, h):
        # the bracket of one step of h from y with u
        k1 = field_stage(y, u, c)
        yh, uh, jumped = trial(y, u, 0.5 * h, k1)
        if jumped:
            return u, k1, 0.0, 0.5 * h, yh, uh
        # on u's control, whose first stage is k1, the arc holds at yh
        same = np.array(uh).tobytes() == np.array(u).tobytes()
        k1h, lo = (k1, 0.5 * h) if same else (field_stage(y, uh, c), 0.0)
        y1, u1, jumped = trial(y, uh, h, k1h)
        return uh, k1h, lo if jumped else None, h, y1, u1

    def propagate(z, base: Optional[_Propagation] = None) -> Optional[_Propagation]:
        x, b = problem.decode(z)
        if not b > a + 1e-9 * (1.0 + abs(a)):
            return None
        eps = 1e-13 * (1.0 + abs(b))
        if base is None:
            y = np.concatenate([x, np.asarray(z[:m], dtype=float)]).tolist()
            t, steps, n_sw = a, [], 0
        else:
            t, y, cur, n_sw, n_steps = base.resume
            steps = base.steps[:n_steps]
        resume = None
        try:
            # numpy stays quiet on overflow and invalid values, from the
            # first maximization to H at the end: the loop checks its states
            # are finite, and a state that is not ends the trial like a
            # blow-up
            with np.errstate(over="ignore", invalid="ignore"):
                if base is None:
                    cur = argmax(y)
                while b - t > eps:
                    h = min(step, b - t)
                    if resume is None and h != step:
                        resume = (t, y, cur, n_sw, len(steps))
                    if run and h == step:
                        ran = run(y, cur, t, b, eps, steps)
                        if ran is None:
                            return None
                        t, y, cur, bracket = ran
                        if bracket is None:
                            continue
                    else:
                        bracket = stepped(y, cur, h)
                    held, k1, lo, dt, yn, end = bracket
                    if lo is not None:
                        # the largest substep keeping the maximizer on the
                        # arc, and the state and the maximizer there
                        n_sw += 1
                        while dt - lo > 1e-10:
                            mid = 0.5 * (lo + dt)
                            ym, um, jumped = trial(y, held, mid, k1)
                            if jumped:
                                dt, yn, end = mid, ym, um
                            else:
                                lo = mid
                    steps.append((t, held))
                    t, y, cur = t + dt, yn, end
                    if n_sw > max_switches:
                        return None
                if resume is None:
                    resume = (t, y, cur, n_sw, len(steps))
                # sup_h, the one H(u_star) that a propagation reads, at the
                # state y where cur is the maximizer
                sup_h = maximize.hamiltonian(y[m:], y[:m])(np.array(cur))
                return _Propagation(y[:m], y[m:], steps, sup_h, resume)
        except _TRIAL_FAILURES:
            return None

    return propagate


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
    prop = _propagator(problem, opts)(z)
    return None if prop is None else _residual(problem, z, prop)


def _residual(problem: ShootingProblem, z, prop: _Propagation) -> np.ndarray:
    """`boundary_residual` assembled from the propagation of z."""
    m = problem.sys.m
    d_a = len(problem.bounds.initial or ())
    parts = []
    if problem.bounds.final is None:
        parts.append(prop.x_b - problem.x_b)
    else:
        comp = problem._final_complement
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


def _fd_jacobian(problem, propagate, z, R0, prop, opts):
    """Forward differences of the residual at z, whose propagation is prop.

    A column that moves b up (the final-time column, in free-time mode)
    resumes prop instead of propagating again from the start.
    """
    h = opts.fd_h
    b = problem.decode(z)[1]
    n = len(z)
    J = np.zeros((len(R0), n))
    for j in range(n):
        zp = z.copy()
        zp[j] += h * (1.0 + abs(z[j]))
        base = prop if problem.decode(zp)[1] > b else None
        prop_p = propagate(zp, base)
        if prop_p is None:
            continue
        Rp = _residual(problem, zp, prop_p)
        J[:, j] = (Rp - R0) / (h * (1.0 + abs(z[j])))
    return J


def _newton(problem, propagate, z0, opts):
    """Damped Newton from z0: (z, |R|, iterations, converged, propagation of z)."""
    z = np.asarray(z0, dtype=float).copy()
    prop = propagate(z)
    if prop is None:
        return z, np.inf, 0, False, None
    R = _residual(problem, z, prop)
    rn = float(np.linalg.norm(R))
    for it in range(1, opts.max_iter + 1):
        if rn <= opts.tol:
            return z, rn, it - 1, True, prop
        J = _fd_jacobian(problem, propagate, z, R, prop, opts)
        try:
            s = np.linalg.lstsq(J, -R, rcond=None)[0]
        except np.linalg.LinAlgError:
            return z, rn, it, False, prop
        if not np.all(np.isfinite(s)):
            return z, rn, it, False, prop
        alpha, accepted = 1.0, False
        while alpha >= 1.0 / 64.0:
            z_try = z + alpha * s
            prop_try = propagate(z_try)
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
    x0, b = problem.decode(z)
    sig = _signal_of_pieces(problem.a, b, prop.steps)
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

    # a start with the bits of an earlier one (m = 1 repeats its two unit
    # directions) would end as that one did, and selection keeps the earlier
    starts = {z0.tobytes(): z0 for z0 in starts}.values()
    propagate = _propagator(problem, opts)
    best = None  # (residual_norm, index, z, iterations, converged, propagation)
    for idx, z0 in enumerate(starts):
        z, rn, iters, conv, prop = _newton(problem, propagate, z0, opts)
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
    J = _fd_jacobian(problem, propagate, z, R, prop, opts)
    jrank = int(np.linalg.matrix_rank(J, tol=1e-8 * max(1.0, float(np.max(np.abs(J))))))
    return ShootingResult(extremal=extremal, residual_norm=rn, iterations=iters,
                          converged=conv, jacobian_rank=jrank,
                          n_unknowns=problem.n_unknowns)


def _format_value(u) -> str:
    comps = ["%+g" % c for c in u]
    return "u=" + (comps[0] if len(comps) == 1 else "(" + ", ".join(comps) + ")")


def switching_structure(extremal: Extremal) -> SwitchingStructure:
    """Control discontinuities of an extremal with the arc value labels.

    Step-to-step drift below the jump tolerance of the control set, the one
    shooting locates switches with (a smoothly varying maximizer sampled per
    step), is not a switch; only genuine jumps are reported.  Labels carry
    the value at the start of each arc.
    """
    sig = extremal.control
    vals = sig.values.tolist()
    jump_tol = _auto_jump_tol(extremal.ext_traj.system.control_set)
    times: List[float] = []
    labels: List[str] = [_format_value(vals[0])]
    for i, sw in enumerate(sig.switch_times):
        if _jumped(vals[i + 1], vals[i], jump_tol):
            times.append(sw)
            labels.append(_format_value(vals[i + 1]))
    return SwitchingStructure(tuple(times), tuple(labels))
