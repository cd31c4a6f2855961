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
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .cone_geometry import cone_residual
from .control_system import (ControlSignal, ControlSystem, Trajectory, _write_csv,
                             signal_field, simulate)
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
        return ControlSignal(0.0, self.horizon,
                             tuple(rec["switch_times"]),
                             tuple(tuple(v) for v in rec["values"]))

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


def _draw_value(rng, control_set):
    k = control_set.dim
    if control_set.kind == "finite":
        return tuple(np.atleast_1d(
            control_set.points[int(rng.integers(len(control_set.points)))]))
    if control_set.kind == "box":
        lo = np.where(np.isfinite(control_set.lo), control_set.lo, -1.0)
        hi = np.where(np.isfinite(control_set.hi), control_set.hi, 1.0)
        return tuple(rng.uniform(lo, hi))
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


def _draw_near(rng, control_set, base, spread):
    k = control_set.dim
    if control_set.kind == "box":
        lo = np.where(np.isfinite(control_set.lo), control_set.lo, -1.0)
        hi = np.where(np.isfinite(control_set.hi), control_set.hi, 1.0)
        half = 0.5 * (hi - lo)
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
    rng = np.random.default_rng(policy.seed)
    pts, recs, skipped = [], [], []
    for i in range(policy.n_controls):
        n_sw = int(rng.integers(0, policy.max_switches + 1))
        while True:
            times = np.sort(rng.uniform(0.0, T, size=n_sw))
            if len(np.unique(times)) == n_sw and np.all(times > 0) and np.all(times < T):
                break
        if policy.near is not None:
            edges = np.concatenate(([0.0], times, [T]))
            mids = 0.5 * (edges[:-1] + edges[1:])
            values = tuple(_draw_near(rng, sys.control_set,
                                      policy.near.value_at(tm), policy.spread)
                           for tm in mids)
        else:
            values = tuple(_draw_value(rng, sys.control_set) for _ in range(n_sw + 1))
        sig = ControlSignal(0.0, T, tuple(float(t) for t in times), values)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                traj = simulate(sys, sig, x0, cfg)
        except FlowBlowUpError as e:
            skipped.append({"draw": i, "reason": f"blow-up at t={e.t}"})
            continue
        pts.append(traj.endpoint)
        recs.append({"switch_times": tuple(sig.switch_times),
                     "values": tuple(tuple(v) for v in sig.values)})
    points = np.array(pts) if pts else np.empty((0, sys.m))
    return ReachCloud(x0=x0, horizon=T, step=step, points=points,
                      controls=tuple(recs), skipped=tuple(skipped))


def reproduce_point(sys: ControlSystem, cloud: ReachCloud, i: int) -> np.ndarray:
    """Re-simulate provenance record i; must reproduce points[i] bit-exactly."""
    cfg = IntegratorConfig(step=cloud.step)
    return simulate(sys, cloud.signal(i), cloud.x0, cfg).endpoint


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
    gam = traj.state_at(float(t))
    geom = cone.cone if hasattr(cone, "cone") else cone
    offsets = cloud.points - gam[None, :]
    norms = np.linalg.norm(offsets, axis=1)
    idx = np.nonzero(norms <= s_scale)[0]
    if idx.size == 0:
        raise ValueError("empty slice: no cloud point within s_scale of the reference")
    tolerance = float(s_scale) ** 1.5
    dists = np.array([cone_residual(geom, offsets[i]) for i in idx])
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
