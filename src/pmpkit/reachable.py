"""Reachable-set sampling and cone-approximation diagnostics.

The tangent perturbation cone at a trajectory point approximates the
reachable set to first order.  The operational check adopted here: slice a
sampled endpoint cloud to a ball of radius s around the reference point and
measure, for each sliced point, the distance of its offset to the cone; the
fraction passing a tolerance that shrinks faster than s must grow as s
shrinks.  No sharper error bound is asserted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .cone_geometry import cone_residual
from .control_system import (ControlSignal, ControlSystem, Trajectory, _endpoint, _event_path,
                             _write_csv, signal_field)
from .flows import (FlowBlowUpError, IntegratorConfig, combined_field,
                    flow_decomposition_residual)


@dataclass
class SamplePolicy:
    """Value sampling is uniform over the control set unless `near` is set,
    in which case arc values are drawn around the reference signal with the
    given spread and projected back into the set."""

    n_controls: int = 64
    max_switches: int = 3
    seed: int = 0
    step: Optional[float] = None   # integrator step; default 1e-2 * T
    near: Optional[ControlSignal] = None
    spread: float = 0.25


@dataclass
class ReachCloud:
    """Endpoint cloud with full provenance.

    `controls[i]` holds the switch times and values that reproduce
    `points[i]` bit-exactly through simulate with the stored step.
    """

    x0: np.ndarray
    horizon: float
    step: float
    points: np.ndarray
    controls: Tuple[dict, ...]
    skipped: Tuple[dict, ...] = field(default=())

    def signal(self, i: int) -> ControlSignal:
        rec = self.controls[i]
        return ControlSignal(0.0, self.horizon, tuple(rec["switch_times"]), rec["values"])

    def to_csv(self, path) -> None:
        header = ",".join(f"x{j}" for j in range(self.points.shape[1])) + ",provenance_id"
        _write_csv(path, header, [[*y, i] for i, y in enumerate(self.points)])

    def provenance_json(self) -> str:
        return json.dumps({
            "x0": self.x0.tolist(),
            "horizon": self.horizon,
            "step": self.step,
            "controls": [
                {"id": i,
                 "switch_times": list(rec["switch_times"]),
                 "values": [list(v) for v in rec["values"]]}
                for i, rec in enumerate(self.controls)
            ],
            "skipped": list(self.skipped),
        })

    def save_provenance(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.provenance_json() + "\n")


def _box_window(control_set):
    """(lo, width) of each axis of the box's draws: an infinite side stands
    at -1 or 1, or, if that is past the finite side, 2 beyond it."""
    lo, width = [], []
    for a, b in zip(control_set.lo.tolist(), control_set.hi.tolist()):
        a2, b2 = (a if math.isfinite(a) else -1.0), (b if math.isfinite(b) else 1.0)
        if a2 > b2:
            a2, b2 = (a, a + 2.0) if math.isfinite(a) else (b - 2.0, b)
        lo.append(a2)
        width.append(b2 - a2)
    return lo, width


def _draw_times(rng, T, n):
    """n distinct sorted times T r in (0, T), r from one `Generator.random`
    (the bits and stream of `Generator.uniform(0.0, T, n)`), or drawn anew."""
    while True:
        times = sorted(T * r for r in rng.random(n).tolist())
        if len(set(times)) == n and all(0.0 < t < T for t in times):
            return times


def _draw_value(rng, control_set, window):
    """A value of the set; on a box, lo + width r in its `_box_window`, the
    bits and stream of `Generator.uniform(lo, lo + width)`."""
    k = control_set.dim
    if window:
        return tuple(a + w * r for a, w, r in zip(*window, rng.random(k).tolist()))
    if control_set.kind == "finite":
        return tuple(np.atleast_1d(
            control_set.points[int(rng.integers(len(control_set.points)))]))
    d = rng.normal(size=k)
    n = np.linalg.norm(d)
    d = d / n if n > 0 else np.zeros(k)
    r = control_set.radius * rng.uniform() ** (1.0 / max(k, 1))
    return tuple(control_set.center + r * d)


def _project_value(control_set, v):
    v = np.asarray(v, dtype=float).ravel()
    if control_set.kind == "finite":
        pts = np.array([np.atleast_1d(p) for p in control_set.points])
        return tuple(pts[int(np.argmin(np.linalg.norm(pts - v[None, :], axis=1)))])
    if control_set.kind == "box":
        return tuple(np.clip(v, control_set.lo, control_set.hi))
    off = v - control_set.center
    n = np.linalg.norm(off)
    if n > control_set.radius:
        off = off * (control_set.radius / n)
    return tuple(control_set.center + off)


def _draw_near(rng, control_set, base, spread, window):
    k = control_set.dim
    if control_set.kind == "box":
        half = 0.5 * np.array(window[1])
    elif control_set.kind == "ball":
        half = np.full(k, control_set.radius)
    else:
        pts = np.array([np.atleast_1d(p) for p in control_set.points])
        half = 0.5 * (pts.max(axis=0) - pts.min(axis=0)) if len(pts) > 1 else np.ones(k)
    v = np.asarray(base, dtype=float).ravel() + spread * half * rng.uniform(-1.0, 1.0, size=k)
    return _project_value(control_set, v)


def sample_reachable(sys: ControlSystem, x0, T: float,
                     policy: Optional[SamplePolicy] = None) -> ReachCloud:
    """Endpoints of deterministic pseudo-random piecewise-constant controls.

    Blow-ups are recorded in `skipped` and the point dropped; everything
    else is reproducible from the provenance records.
    """
    policy = policy or SamplePolicy()
    T = float(T)
    if not T > 0.0:
        raise ValueError("need T > 0")
    x0 = np.asarray(x0, dtype=float).ravel()
    step = policy.step or 1e-2 * T
    cfg = IntegratorConfig(step=step)
    cs = sys.control_set
    window = _box_window(cs) if cs.kind == "box" else None
    rng = np.random.default_rng(policy.seed)
    pts, recs, skipped = [], [], []
    for i in range(policy.n_controls):
        n_sw = int(rng.integers(0, policy.max_switches + 1))
        times = _draw_times(rng, T, n_sw)
        if policy.near is not None:
            edges = [0.0, *times, T]
            values = tuple(_draw_near(rng, cs, policy.near.value_at(0.5 * (t0 + t1)),
                                      policy.spread, window)
                           for t0, t1 in zip(edges, edges[1:]))
        else:
            values = tuple(_draw_value(rng, cs, window) for _ in range(n_sw + 1))
        sig = ControlSignal(0.0, T, tuple(times), values)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                end = _endpoint(sys, sig, x0, cfg)
        except FlowBlowUpError as e:
            skipped.append({"draw": i, "reason": f"blow-up at t={e.t}"})
            continue
        pts.append(end)
        recs.append({"switch_times": sig.switch_times,
                     "values": tuple(map(tuple, sig.values.tolist()))})
    points = np.array(pts) if pts else np.empty((0, sys.m))
    return ReachCloud(x0=x0, horizon=T, step=step, points=points,
                      controls=tuple(recs), skipped=tuple(skipped))


def reproduce_point(sys: ControlSystem, cloud: ReachCloud, i: int) -> np.ndarray:
    """Re-simulate provenance record i; must reproduce points[i] bit-exactly."""
    return _endpoint(sys, cloud.signal(i), cloud.x0, IntegratorConfig(step=cloud.step))


@dataclass
class ConeApproxStats:
    s_scale: float
    tolerance: float
    n_slice: int
    n_inside: int
    fraction: float
    max_distance: float


def cone_approximation_check(sys: ControlSystem, traj: Trajectory, t: float,
                             cone, cloud: ReachCloud, s_scale: float) -> ConeApproxStats:
    """Fraction of near-reference endpoints explained by the cone.

    Slices the cloud to ||y - gamma(t)|| <= s_scale, measures the distance
    of each offset to the cone and counts it inside when the distance is at
    most s_scale**1.5.  That tolerance is o(s_scale), so the fraction must
    climb as s_scale shrinks whenever the cone really is a first-order model
    of the reachable set.
    """
    if abs(cloud.horizon - float(t)) > 1e-9 * (1.0 + abs(t)):
        raise ValueError("cloud horizon does not match the slice time")
    # at or past the end of traj the slice reads its last node
    t = min(float(t), traj.b)
    path, node = _event_path(sys, traj, [t], None)
    gam = path.states[node[t]]
    geom = cone.cone if hasattr(cone, "cone") else cone
    offsets = cloud.points - gam[None, :]
    norms = np.linalg.norm(offsets, axis=1)
    idx = np.nonzero(norms <= s_scale)[0]
    if idx.size == 0:
        raise ValueError("empty slice: no cloud point within s_scale of the reference")
    tolerance = float(s_scale) ** 1.5
    dists = np.array(cone_residual(geom, offsets[idx]))
    inside = int(np.sum(dists <= tolerance))
    return ConeApproxStats(s_scale=float(s_scale), tolerance=tolerance,
                           n_slice=int(idx.size), n_inside=inside,
                           fraction=inside / idx.size,
                           max_distance=float(np.max(dists)))


def decomposition_reach_check(sys: ControlSystem, u_ref: ControlSignal,
                              u_alt: ControlSignal, t1: float, x0,
                              cfg: Optional[IntegratorConfig] = None) -> float:
    """Alternate endpoint, direct versus composed-flow route.

    The alternate flow factors as the reference flow applied after the flow
    of the difference field pulled back along the reference; the returned
    norm measures how far the two endpoint computations drift apart.

    Each evaluation of the pulled-back field costs a transport integration
    of its own, so the default step is coarse (2e-2 of the span); fourth
    order convergence keeps that plenty at the tolerances of interest.
    """
    t1 = float(t1)
    if abs(u_ref.a - u_alt.a) > 1e-12:
        raise ValueError("signals must share the initial time")
    if t1 > u_ref.b or t1 > u_alt.b:
        raise ValueError("t1 beyond a signal horizon")
    x0 = np.asarray(x0, dtype=float).ravel()
    X = signal_field(sys, u_ref)
    Y = combined_field(signal_field(sys, u_alt), X, np.subtract)
    cfg = cfg or IntegratorConfig(step=2e-2 * (t1 - u_ref.a))
    return flow_decomposition_residual(X, Y, t1, u_ref.a, x0, cfg)
