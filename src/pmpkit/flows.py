"""Time-dependent vector fields and their evolution operators.

Integration is fixed-step RK4 on a grid refined to hit every event time
exactly (control switches, needle boundaries); backward integration is the
same scheme with negative steps.  The complete (tangent) lift transports
tangent vectors by v' = (dX/dx) v, the cotangent lift transports covectors by
p' = -(dX/dx)^T p, and their pairing <p, v> is an invariant of the transport,
which pairing_drift measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class FlowBlowUpError(RuntimeError):
    """Non-finite state encountered during integration."""

    def __init__(self, t):
        super().__init__("non-finite state at t=%r (blow-up)" % (t,))
        self.t = t


class SingularTransportError(RuntimeError):
    """Transported differential too ill-conditioned to invert."""

    def __init__(self, cond):
        super().__init__("transported Jacobian condition estimate %.3e" % cond)
        self.cond = cond


_FD_H = 1e-6


def _fd_jacobian(g, x):
    """Central differences of g at x, step 1e-6 (1 + |x|); column j from
    g(x + h e_j) and g(x - h e_j)."""
    x = np.asarray(x, dtype=float)
    h = _FD_H * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((np.asarray(g(x + e), dtype=float) - np.asarray(g(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


@dataclass
class TimeVectorField:
    """Field X(t, x) on R^dim with an optional analytic state Jacobian.

    When `jacobian` is None, central finite differences with step
    1e-6 (1 + |x|) are used.
    """

    dim: int
    eval: Callable
    jacobian: Callable | None = None

    def jac(self, t, x):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, x), dtype=float)
        return _fd_jacobian(lambda y: self.eval(t, y), x)


@dataclass
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    step None means 1e-3 times the integration span; otherwise it must be
    positive and finite.  event_times are hit exactly by the grid.
    """

    step: float | None = None
    event_times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.step is not None and not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        self.event_times = tuple(float(t) for t in self.event_times)


@dataclass
class TangentState:
    x: np.ndarray
    v: np.ndarray


@dataclass
class CotangentState:
    x: np.ndarray
    p: np.ndarray


def integration_grid(s, t, cfg=None):
    """Monotone grid from s to t, uniform at the base step but hitting every
    event time exactly.  Base nodes closer than 1e-9 of the span to an event
    are replaced by the event node."""
    cfg = cfg or IntegratorConfig()
    s = float(s)
    t = float(t)
    if t == s:
        return np.array([s])
    lo, hi = (s, t) if t > s else (t, s)
    span = hi - lo
    step = cfg.step if cfg.step is not None else 1e-3 * span
    n = max(1, math.ceil(span / step - 1e-12))
    base = list(np.linspace(lo, hi, n + 1))
    events = sorted(e for e in cfg.event_times if lo < e < hi)
    if events:
        merged = [lo]
        for b in base[1:-1]:
            if all(abs(b - e) > 1e-9 * span for e in events):
                merged.append(b)
        merged.extend(events)
        merged.append(hi)
        base = sorted(merged)
    grid = np.array(base)
    if t < s:
        grid = grid[::-1]
    return grid


def rk4_step(f, t, y, h, k1):
    """One classical RK4 step of y' = f(t, y) from (t, y) with step h.

    k1 = f(t, y) is passed in, so callers that also need it (node
    velocities, a stage shared by several trial steps) evaluate it once.
    """
    k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = np.asarray(f(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_path(f, grid, x0):
    """RK4 states along a (possibly descending) grid; raises on blow-up."""
    x = np.array(x0, dtype=float)
    out = np.empty((len(grid), len(x)))
    out[0] = x
    for i in range(len(grid) - 1):
        t0 = grid[i]
        x = rk4_step(f, t0, x, grid[i + 1] - t0, np.asarray(f(t0, x)))
        if not np.all(np.isfinite(x)):
            raise FlowBlowUpError(grid[i + 1])
        out[i + 1] = x
    return out


def flow(X, t, s, x0, cfg=None):
    """Endpoint of the evolution operator from (s, x0) to time t."""
    grid = integration_grid(s, t, cfg)
    return _rk4_path(X.eval, grid, x0)[-1]


def _lifted_path(X, lift, s, t, x0, ws, cfg):
    """RK4 paths from s to t of x' = X and, along that one base path, of each
    w' = lift(dX/dx, w) with w(s) in ws.  Returns the x path and one path per w.

    x advances once per step by rk4_step, recording dX/dx at its four stages;
    each nonzero w then advances by rk4_step on the recorded Jacobians.  RK4
    is elementwise outside its right-hand side, so every w path has the bits
    of the RK4 path of the stacked (x, w).  A zero w stays zero.
    """
    grid = integration_grid(s, t, cfg)
    x = np.array(x0, dtype=float)
    ws = [np.array(w, dtype=float) for w in ws]
    xs = np.empty((len(grid), x.size))
    xs[0] = x
    paths = [np.tile(w, (len(grid), 1)) for w in ws]
    live = [j for j, w in enumerate(ws) if w.any()]
    for i in range(len(grid) - 1):
        t0 = grid[i]
        h = grid[i + 1] - t0
        jacs = []

        def base(tt, xx):
            k = np.asarray(X.eval(tt, xx))
            jacs.append(X.jac(tt, xx))
            return k

        x = rk4_step(base, t0, x, h, base(t0, x))
        if not np.all(np.isfinite(x)):
            raise FlowBlowUpError(grid[i + 1])
        xs[i + 1] = x
        for j in live:
            stage = iter(jacs[1:])
            w = rk4_step(lambda tt, ww: lift(next(stage), ww), t0, ws[j], h,
                         lift(jacs[0], ws[j]))
            if not np.all(np.isfinite(w)):
                raise FlowBlowUpError(grid[i + 1])
            ws[j] = paths[j][i + 1] = w
    return xs, paths


def tangent_lift_flows(X, t, s, x0, vs, cfg=None):
    """Transport the tangent vectors vs at x0 by the complete lift along one
    base path: x' = X, v' = (dX/dx) v.  Returns x(t) and the list of v(t)."""
    xs, paths = _lifted_path(X, lambda J, v: J @ v, s, t, x0, vs, cfg)
    return xs[-1], [path[-1] for path in paths]


def tangent_lift_flow(X, t, s, init, cfg=None):
    """Transport (x, v) by the complete lift: x' = X, v' = (dX/dx) v."""
    x, (v,) = tangent_lift_flows(X, t, s, init.x, [init.v], cfg)
    return TangentState(x, v)


def cotangent_lift_flow(X, t, s, init, cfg=None):
    """Transport (x, p) by the cotangent lift: x' = X, p' = -(dX/dx)^T p."""
    xs, (path,) = _lifted_path(X, lambda J, p: -J.T @ p, s, t, init.x, [init.p], cfg)
    return CotangentState(xs[-1], path[-1])


def pairing_drift(X, interval, x0, v0, p0, cfg=None):
    """Max over the grid of |<p(t), v(t)> - <p0, v0>| for both lifts run
    along the same base trajectory."""
    a, b = interval
    m = X.dim

    def both(J, w):
        return np.concatenate([J @ w[:m], -J.T @ w[m:]])

    _, (path,) = _lifted_path(X, both, a, b, x0, [np.concatenate([v0, p0])], cfg)
    ref = float(np.dot(p0, v0))
    pairings = np.einsum("ij,ij->i", path[:, m:], path[:, :m])
    return float(np.max(np.abs(pairings - ref)))


def _transport_matrix(X, t, s, x, cfg=None):
    """Differential of the flow map at x, T_x Phi_(t,s), as an m x m matrix,
    together with the transported base point."""
    m = X.dim
    xs, (path,) = _lifted_path(X, lambda J, M: (J @ M.reshape(m, m)).ravel(), s, t,
                               x, [np.eye(m).ravel()], cfg)
    return xs[-1], path[-1].reshape(m, m)


def pullback_field(X, Y, s, cfg=None):
    """Field Z with Z(t, x) = (T Phi^X_(t,s))^{-1} Y(t, Phi^X_(t,s)(x)).

    The transported differential is inverted by a dense solve; condition
    estimates above 1e12 raise SingularTransportError.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")

    def zeval(t, x):
        base, M = _transport_matrix(X, t, s, x, cfg)
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularTransportError(cond)
        return np.linalg.solve(M, np.asarray(Y.eval(t, base), dtype=float))

    return TimeVectorField(dim=X.dim, eval=zeval)


def flow_decomposition_residual(X, Y, t, s, x0, cfg=None):
    """Norm of Phi^{X+Y}(t,s,x0) - Phi^X(t,s, Phi^Z(t,s,x0)) with Z the
    pulled-back difference field."""
    XY = TimeVectorField(
        dim=X.dim,
        eval=lambda tt, xx: np.asarray(X.eval(tt, xx)) + np.asarray(Y.eval(tt, xx)),
        jacobian=(None if (X.jacobian is None or Y.jacobian is None)
                  else lambda tt, xx: np.asarray(X.jacobian(tt, xx)) + np.asarray(Y.jacobian(tt, xx))),
    )
    direct = flow(XY, t, s, x0, cfg)
    Z = pullback_field(X, Y, s, cfg)
    composed = flow(X, t, s, flow(Z, t, s, x0, cfg), cfg)
    return float(np.linalg.norm(direct - composed))
