"""Needle variations, perturbation vectors and cones, and direction realization.

A needle variation replaces the reference control by a fixed value u1 on the
shrinking interval [t1 - l1 s, t1].  To first order in s the endpoint of the
perturbed trajectory moves along the class-I vector l1 (f(x, u1) - f(x, u)),
and transporting these vectors along the reference flow and taking conic
combinations produces the perturbation cones.  `realize_direction` is the
effective converse: given an interior direction of a cone, it assembles an
actual composite needle perturbation whose endpoint lands on the ray through
that direction, by solving a small fixed-point problem in the hyperplane
transverse to the direction.  `classify_extremal` separates the extended
needle cone at the endpoint, as the principle's proof does, by two small
LPs: one for a lift with p0 = -1 and one for p0 = 0.  When one LP has no
solution, that proves that no lift of its kind exists, and the result
carries a strict certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._simplex import DEFAULT_TOL, solve_stack, solve_standard
from .cone_geometry import (
    BoundaryConditionError,
    ConeCertificateError,
    GeneratedCone,
    RootSearchError,
    _checked_hyperplane,
    _residual_lp,
    cone_residual,
    conic_membership,
    covered_point_root,
    membership_margin,
    positive_combination,
    rank_split,
    supporting_hyperplane,
)
from .control_system import (
    ControlSignal,
    ControlSystem,
    Trajectory,
    _event_path,
    _signal_of_pieces,
    _switches_at,
    _write_csv,
    extend,
    lebesgue_times,
    signal_field,
    simulate,
)
from .flows import IntegratorConfig, tangent_lift_flows
from .pmp import (AdjointCurve, BoundarySpec, Extremal, UnboundedHamiltonianError, _probes,
                  adjoint_flows, check_pmp)


class NeedleLayoutError(ValueError):
    """Needle interval escapes the horizon or overlaps another needle."""


class NeedleOverflowError(RuntimeError):
    """A cone generator is not finite, at its time or carried on: a
    numerical failure of the dynamics at its control, not bad input."""


class RealizationError(RuntimeError):
    """Direction realization exhausted its budget; carries the best residual."""

    def __init__(self, best_residual, last_s):
        super().__init__(
            "could not realize the direction: best residual %.3e at s=%.3e"
            % (best_residual, last_s))
        self.best_residual = best_residual
        self.last_s = last_s


class _TransverseFailure(RuntimeError):
    """Endpoint deviation lost the positive component along the target."""


@dataclass(frozen=True)
class NeedleData:
    """Needle variation data: value u1 on [t1 - l1 s, t1]."""

    t1: float
    l1: float
    u1: np.ndarray

    def __post_init__(self):
        if self.l1 < 0:
            raise ValueError("needle length rate must be nonnegative")
        object.__setattr__(self, "u1", np.asarray(self.u1, dtype=float).ravel())


@dataclass(frozen=True)
class TimePerturbationData:
    """Needle data plus a final-time rate delta_tau."""

    tau: float
    l_tau: float
    delta_tau: float
    u_tau: np.ndarray

    def __post_init__(self):
        if self.l_tau < 0:
            raise ValueError("needle length rate must be nonnegative")
        object.__setattr__(self, "u_tau", np.asarray(self.u_tau, dtype=float).ravel())


@dataclass(frozen=True)
class PerturbationVector:
    base_time: float
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite perturbation vector")
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class Provenance:
    """How a cone generator was produced.

    kind is one of "needle", "axis+", "axis-", "init+", "init-".  Needle
    generators carry their NeedleData, axis generators a final-time rate of
    +-1, initial-manifold generators the signed tangent vector at the start.
    A needle's reference control is u(t1) at a Lebesgue time t1 when
    `reference` is None; a record that names its reference may sit at an
    endpoint, or at a switch with either one-sided value.
    """

    kind: str
    source_time: float
    needle: Optional[NeedleData] = None
    delta_tau: float = 0.0
    initial_vector: Optional[np.ndarray] = None
    reference: Optional[np.ndarray] = None


@dataclass
class PerturbationCone:
    """Generated cone at a fixed time with per-generator provenance."""

    at_time: float
    cone: GeneratedCone
    provenance: Tuple[Provenance, ...]
    control_dim: int = 0

    def to_csv(self, path) -> None:
        k = self.control_dim
        header = "tau,l," + ",".join(f"u{j}" for j in range(k)) + ",kind"
        rows = []
        for p in self.provenance:
            if p.kind == "needle":
                tau, l, u = p.needle.t1, p.needle.l1, p.needle.u1
            else:
                tau, l, u = p.source_time, 0.0, np.zeros(k)
            rows.append([tau, l, *u, p.kind])
        _write_csv(path, header, rows)


def _require_lebesgue(u: ControlSignal, t: float) -> None:
    if not lebesgue_times(u, [t]):
        raise ValueError(f"t={t!r} is not an interior Lebesgue time (switch or endpoint)")


def _override(u: ControlSignal, lo: float, hi: float, val: np.ndarray) -> ControlSignal:
    pts = sorted({u.a, u.b, lo, hi, *u.switch_times})
    pieces = []
    for p, q in zip(pts, pts[1:]):
        mid = 0.5 * (p + q)
        pieces.append((p, val if lo <= mid < hi else u.value_at(mid)))
    return _signal_of_pieces(u.a, u.b, pieces)


def apply_needle_suite(u: ControlSignal, needles: Sequence[NeedleData],
                       s: float) -> ControlSignal:
    """Apply several needles at scale s.

    Needles sharing a time are stacked leftward with the later-listed needle
    innermost: for lengths l', l'' at t1 the intervals are
    [t1-(l'+l'')s, t1-l''s] and [t1-l''s, t1].  Needle groups at distinct
    times must produce disjoint intervals.
    """
    if s <= 0:
        raise ValueError("needle scale s must be positive")
    groups: dict = {}
    order: List[float] = []
    for n in needles:
        if n.l1 == 0.0:
            continue
        if n.t1 not in groups:
            groups[n.t1] = []
            order.append(n.t1)
        groups[n.t1].append(n)
    pieces: List[Tuple[float, float, np.ndarray]] = []
    spans: List[Tuple[float, float]] = []
    for t1 in order:
        hi = t1
        for n in reversed(groups[t1]):
            lo = hi - n.l1 * s
            pieces.append((lo, hi, n.u1))
            hi = lo
        if not (u.a < hi and t1 <= u.b):
            raise NeedleLayoutError(
                f"stacked needle interval [{hi!r}, {t1!r}] escapes ({u.a!r}, {u.b!r}]")
        spans.append((hi, t1))
    spans.sort()
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise NeedleLayoutError(
                f"needle intervals [{lo1!r},{hi1!r}] and [{lo2!r},{hi2!r}] overlap")
    out = u
    for lo, hi, val in pieces:
        out = _override(out, lo, hi, val)
    return out


def _finite(v, what):
    """v, or NeedleOverflowError naming `what` if it is not finite."""
    if not np.all(np.isfinite(v)):
        raise NeedleOverflowError(f"non-finite {what}")
    return v


def _class1_vectors(sys: ControlSystem, ref: np.ndarray, t1: float, x,
                    needles: Sequence[NeedleData]) -> List[np.ndarray]:
    """Class-I vectors of needles that all sit at time t1 against the
    reference control ref, at the state x there, sharing f(x, ref)."""
    drift = sys.dynamics(x, ref)
    return [_finite(n.l1 * (sys.dynamics(x, n.u1) - drift),
                    f"needle vector at t={t1!r}, u={n.u1.tolist()!r}") for n in needles]


def class1_vector(sys: ControlSystem, traj: Trajectory, pi: NeedleData) -> PerturbationVector:
    """l1 (f(x, u1) - f(x, u(t1))) at x = gamma(t1), the node state at t1
    (`_event_path`)."""
    _require_lebesgue(traj.control, pi.t1)
    path, node = _event_path(sys, traj, [pi.t1], None)
    vecs = _class1_vectors(sys, traj.control.value_at(pi.t1), pi.t1,
                           path.states[node[pi.t1]], [pi])
    return PerturbationVector(base_time=pi.t1, vector=vecs[0])


def multi_needle_vector(sys: ControlSystem, traj: Trajectory,
                        needles: Sequence[NeedleData], t: float,
                        cfg: Optional[IntegratorConfig] = None) -> PerturbationVector:
    """Sum of the transported class-I vectors of an ordered needle list."""
    if not needles:
        raise ValueError("need at least one needle")
    times = [n.t1 for n in needles]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("needles must be ordered by time")
    if times[-1] > t:
        raise ValueError("needle times must not exceed the evaluation time")
    prov = [Provenance(kind="needle", source_time=n.t1, needle=n) for n in needles]
    vectors = _generators(sys, traj, prov, t, cfg)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(vectors, np.zeros(sys.m))
    return PerturbationVector(base_time=float(t), vector=_finite(
        total, f"sum of {len(needles)} needle vectors at t={float(t)!r}"))


def time_perturbation_vector(sys: ControlSystem, traj: Trajectory,
                             pi: TimePerturbationData) -> PerturbationVector:
    """delta_tau f(x, u(tau)) + l_tau (f(x, u_tau) - f(x, u(tau))) at
    x = gamma(tau), the node state at tau: the axis and needle generators
    of `_generators` at tau, weighted delta_tau and l_tau."""
    tau = pi.tau
    _require_lebesgue(traj.control, tau)
    path, node = _event_path(sys, traj, [tau], None)
    x, uref = path.states[node[tau]], traj.control.value_at(tau)
    needle, = _class1_vectors(sys, uref, tau, x, [NeedleData(tau, pi.l_tau, pi.u_tau)])
    vec = _finite(pi.delta_tau * sys.dynamics(x, uref) + needle,
                  f"time perturbation vector at t={tau!r}")
    return PerturbationVector(base_time=tau, vector=vec)


def _carried(B, v, what):
    """B^T v: the vector v at a node carried to the end of the sweep whose
    block there is B, checked finite (`_finite`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(B.T @ v, "transported " + what)


def _generators(sys: ControlSystem, traj: Trajectory, prov: Sequence[Provenance],
                t: float, cfg: Optional[IntegratorConfig]
                ) -> Tuple[List[np.ndarray], np.ndarray]:
    """The generator at t of each provenance record, in order, and the sweep
    that carried them: the one rule every perturbation cone is built by.

    All are read on one path with t and every source time as grid nodes
    (`_event_path`).  An axis gives delta_tau f(x_t, u(t)), u(b-) at t = b.
    A needle's class-I vector against its reference control, or an
    initial-manifold vector, v at the node of time s arrives at t as
    (p_i(s) . v)_i, p_i the adjoint of e_i from t: one sweep of m covectors
    back from t carries them all, and its blocks at the path's nodes are
    returned (`adjoint_flows`).  Each generator is checked finite
    (NeedleOverflowError).
    """
    u = traj.control
    needles: dict = {}
    for i, p in enumerate(prov):
        if p.kind == "needle":
            ref = p.reference
            if ref is None:
                _require_lebesgue(u, p.source_time)
            # needles that share a time and a reference share f(x, reference)
            key = (p.source_time, None if ref is None else ref.tobytes())
            needles.setdefault(key, []).append(i)
    path, node = _event_path(sys, traj, [p.source_time for p in prov] + [t], cfg)
    sweep = adjoint_flows(sys, path, np.eye(sys.m))
    gens: List[np.ndarray] = [None] * len(prov)
    for (s, _), idx in needles.items():
        ref = prov[idx[0]].reference
        vecs = _class1_vectors(sys, u.value_at(s) if ref is None else ref, s,
                               path.states[node[s]], [prov[i].needle for i in idx])
        for i, v in zip(idx, vecs):
            what = f"needle vector at t={s!r}, u={prov[i].needle.u1.tolist()!r}"
            gens[i] = _carried(sweep[node[s]], v, what)
    for i, p in enumerate(prov):
        if p.kind in ("axis+", "axis-"):
            gens[i] = _finite(p.delta_tau * sys.dynamics(path.states[node[t]], u.value_at(t)),
                              f"final-time axis at t={t!r}")
        elif p.kind in ("init+", "init-"):
            gens[i] = _carried(sweep[node[p.source_time]], p.initial_vector,
                               "initial-manifold vector")
    return gens, sweep


def _assemble_cone(sys: ControlSystem, traj: Trajectory, t: float, prov: Sequence[Provenance],
                   cfg: Optional[IntegratorConfig]) -> PerturbationCone:
    """The cone at t of the provenance's generators; each kept generator
    keeps its record."""
    cone = GeneratedCone(_generators(sys, traj, prov, t, cfg)[0], n=sys.m)
    return PerturbationCone(at_time=float(t), cone=cone,
                            provenance=tuple(prov[i] for i in cone.kept), control_dim=sys.k)


def _needle_provenance(t: float, sampling) -> List[Provenance]:
    """One unit-rate needle per (time, control) of the sampling, time-major."""
    times = [float(tau) for tau in sampling["times"]]
    controls = [np.asarray(c, dtype=float).ravel() for c in sampling["controls"]]
    if not times or not controls:
        raise ValueError("sampling must list at least one time and one control")
    if any(tau > t for tau in times):
        raise ValueError("sampled times must not exceed the cone time")
    return [Provenance(kind="needle", source_time=tau, needle=NeedleData(t1=tau, l1=1.0, u1=u1))
            for tau in times for u1 in controls]


def _axis_provenance(traj: Trajectory, t: float) -> List[Provenance]:
    # at b the axis takes the last arc's control, u(b-)
    if t != traj.control.b:
        _require_lebesgue(traj.control, t)
    return [Provenance(kind="axis+", source_time=float(t), delta_tau=1.0),
            Provenance(kind="axis-", source_time=float(t), delta_tau=-1.0)]


def _initial_provenance(a: float, basis) -> List[Provenance]:
    """+- each initial-manifold tangent vector of basis, carried from a."""
    return [Provenance(kind=kind, source_time=a, initial_vector=sgn * w)
            for w in basis for sgn, kind in ((1.0, "init+"), (-1.0, "init-"))]


def build_tangent_cone(sys: ControlSystem, traj: Trajectory, t: float, sampling,
                       cfg: Optional[IntegratorConfig] = None) -> PerturbationCone:
    """Cone of transported unit-rate class-I vectors over a (times x controls) sampling.

    The closure over all Lebesgue times and all admissible values is
    approximated by the finite sampling the caller supplies; provenance makes
    every generator reproducible.  One adjoint sweep back from t carries
    every needle (`_generators`).
    """
    return _assemble_cone(sys, traj, t, _needle_provenance(t, sampling), cfg)


def build_time_cone(sys: ControlSystem, traj: Trajectory, t: float, sampling,
                    cfg: Optional[IntegratorConfig] = None) -> PerturbationCone:
    """Tangent cone plus the +-f(gamma(t), u(t)) final-time axis, with u(b-)
    at t = b."""
    axis = _axis_provenance(traj, t)
    return _assemble_cone(sys, traj, t, _needle_provenance(t, sampling) + axis, cfg)


def build_initial_cone(sys: ControlSystem, traj: Trajectory, t: float,
                       Sa_tangent_basis: Sequence[np.ndarray], sampling,
                       cfg: Optional[IntegratorConfig] = None) -> PerturbationCone:
    """Time cone plus +- the transported initial-manifold tangent basis."""
    axis = _axis_provenance(traj, t)
    basis = [np.asarray(w, dtype=float).ravel() for w in Sa_tangent_basis]
    if not all(np.all(np.isfinite(w)) for w in basis):
        raise ValueError("non-finite initial-manifold tangent vector")
    init = _initial_provenance(traj.a, basis)
    return _assemble_cone(sys, traj, t, _needle_provenance(t, sampling) + axis + init, cfg)


def _normal_separation(W, tol):
    """Stage 1 on the generator columns W, cost row first: (sigma_hat, None),
    sigma_hat = (-1, p) with p the l1-smallest covector with p . g_x <= g_0
    on every column, or (None, lam) when there is none, lam >= 0 a Farkas
    ray with W lam = -e_0.  The LP is the dual of min |p|_1: min g_0 . lam
    over lam >= 0 with |G_x lam| <= 1, 2m rows for any number of columns; p
    is its row duals y+ - y-, and it is unbounded exactly when there is no
    p.  Both answers are checked on W (ConeCertificateError)."""
    m, k = W.shape[0] - 1, W.shape[1]
    A = np.hstack((np.vstack((W[1:], -W[1:])), np.eye(2 * m)))
    res = solve_standard(np.concatenate((W[0], np.zeros(2 * m))), A, np.ones(2 * m))
    if res.ok:
        return _checked_hyperplane(W, np.concatenate(([-1.0], res.y[:m] - res.y[m:])), tol), None
    down = -np.eye(m + 1)[0]
    lam = _residual_lp(W, down, tol).x[:k]
    miss = float(np.abs(W @ lam - down).sum())
    if not miss <= tol * (1.0 + float(np.abs(W).sum(axis=0) @ lam)):
        raise ConeCertificateError("Farkas ray misses W lam = -e_0 by %.3e" % miss)
    return None, lam


def _lifted(basis):
    """+- each final basis vector with a zero cost entry in front."""
    return [np.concatenate(([0.0], s * np.asarray(w, dtype=float).ravel()))
            for s in (1.0, -1.0) for w in basis or ()]


def terminal_covector_from_cone(cone_b, final_tangent_basis=None,
                                tol: float = 1e-9) -> Optional[np.ndarray]:
    """Nonzero sigma_hat (cost component first), sigma_hat_0 <= 0, with
    sigma_hat . g <= 0 on every generator and on +- the lifted final tangent
    basis: stage 1 (`_normal_separation`) with sigma_hat_0 = -1, else stage 2
    with sigma_hat_0 = 0, a supporting hyperplane of the state parts.  None
    certifies that the downward cost direction is interior to the cone.  The
    answer is checked to tol |sigma_hat| |g| (ConeCertificateError)."""
    cone = cone_b.cone if hasattr(cone_b, "cone") else cone_b
    W = GeneratedCone(cone.generators + _lifted(final_tangent_basis), n=cone.n).matrix
    sigma_hat, _ = _normal_separation(W, tol)
    if sigma_hat is not None or cone.n == 1:
        return sigma_hat
    alpha = supporting_hyperplane(GeneratedCone(list(W[1:].T), n=cone.n - 1), tol)
    return None if alpha is None else np.concatenate(([0.0], alpha))


def _spanning_margin(cone) -> float:
    """r with alpha . g >= r |alpha| |g| on some generator g for every
    alpha != 0, or 0.0 when the cone does not span R^n.  Each +-e_j is a
    combination of the unit generators of least weight sum L_j, so the
    ball of radius r = 1 / (sqrt(n) max L_j) about 0 lies in their hull.
    Each combination is checked; ConeCertificateError is raised otherwise."""
    unit = cone.matrix / np.linalg.norm(cone.matrix, axis=0)
    Z = np.vstack((np.eye(cone.n), -np.eye(cone.n)))
    most = 0.0
    for z, res in zip(Z, solve_stack(np.ones(unit.shape[1]), unit, Z)):
        if not res.ok:
            return 0.0
        miss = float(np.abs(unit @ res.x - z).sum())
        if not miss <= DEFAULT_TOL * (1.0 + res.value):
            raise ConeCertificateError("spanning combination misses e_j by %.3e" % miss)
        most = max(most, res.value)
    return 1.0 / (math.sqrt(cone.n) * most)


# classify_extremal's residual tolerance of a lift
CLASSIFY_TOL = 1e-6


@dataclass
class ClassificationResult:
    classification: str
    certificate: Optional[str]
    normal_terminal: Optional[np.ndarray]
    abnormal_terminal: Optional[np.ndarray]
    attempts: Tuple[dict, ...]


def classify_extremal(sys: ControlSystem, traj: Trajectory,
                      bounds: BoundarySpec) -> ClassificationResult:
    """Find lifts with p0 = -1 and p0 = 0 by separating the extended needle
    cone at b, as the multiplier (p0, p_b) does in the principle's proof
    (Agrachev & Sachkov, Control Theory from the Geometric Viewpoint, ch. 12).

    The cone is built by the rule of every perturbation cone (`_generators`)
    for extend(sys), along traj under its control on traj's own grid.  At
    each node a needle goes to each test control v against u(t), or at a
    switch against either one-sided value.  The controls v are a bounded
    box's vertices, a finite set's points, or else the maximizer's probe
    points (`_probes`).  Free time adds the final-time axis with u(b-), and
    an initial manifold +- each tangent vector carried from a.  The adjoint
    is linear in (p0, p_b), so the rule's one sweep of the m + 1 unit
    covectors also gives each candidate's adjoint.  Stage 1 of
    `terminal_covector_from_cone` gives the normal candidate and stage 2
    the abnormal one; `check_pmp` verifies each at CLASSIFY_TOL, and
    `attempts` holds one entry per stage.  A stage without a covector
    proves that no lift of its kind exists, certified by a Farkas ray or
    for p0 = 0 by the cone's `_spanning_margin` above CLASSIFY_TOL.
    """
    if sys.extended:
        raise ValueError("classify_extremal expects the base control system")
    m, u = sys.m, traj.control
    x0 = np.asarray(traj.states[0], dtype=float).ravel()
    if x0.size != m:
        raise ValueError("trajectory state dimension does not match the system")
    xsys = extend(sys)
    # a base step of the whole horizon leaves traj's nodes as the grid
    ext_traj = simulate(xsys, u, np.concatenate(([0.0], x0)),
                        IntegratorConfig(step=traj.b - traj.a, event_times=tuple(traj.grid)))

    U = sys.control_set
    if U.kind == "finite":
        tests = list(U.points)
    elif U.kind == "box" and np.all(np.isfinite(U.lo)) and np.all(np.isfinite(U.hi)):
        tests = [np.array(v) for v in itertools.product(*zip(U.lo, U.hi))]
    else:
        pr = _probes(U)
        tests = ([pr.u0] + [v for pair in pr.axis.values() for v in pair]
                 + [v for _, _, v, _ in pr.pairs] + [v for v, _ in pr.checks])
    prov: List[Provenance] = []
    for t in ext_traj.grid.tolist():
        sw = _switches_at(u.switch_times, t)
        refs = u.values[sw[0]:sw[0] + 2] if sw else [u.value_at(t)]
        prov += [Provenance(kind="needle", source_time=t, needle=NeedleData(t, 1.0, v),
                            reference=ref) for ref in refs for v in tests]
    if bounds.mode == "free_time":
        prov += _axis_provenance(ext_traj, ext_traj.b)
    prov += _initial_provenance(ext_traj.a, [np.concatenate(([0.0], w))
                                             for w in bounds.initial or ()])
    gens, sweep = _generators(xsys, ext_traj, prov, ext_traj.b, None)
    W = GeneratedCone(gens + _lifted(bounds.final), n=m + 1).matrix

    def lift(p0, p_b):
        """(feasible, reason): check_pmp's verdict on the lift (p0, p_b)."""
        # the state part of the sweep of (p0, p_b), summed as p_b's part
        # first and p0's second
        sigma = sweep[:, 1:, 1:] @ p_b + p0 * sweep[:, 1:, 0]
        adj = AdjointCurve(grid=ext_traj.grid.copy(), sigma0=p0, sigma=sigma)
        try:
            rep = check_pmp(sys, Extremal(ext_traj, u, adj), bounds, CLASSIFY_TOL)
        except UnboundedHamiltonianError as e:
            return False, f"unbounded Hamiltonian: {e}"
        worst = max(rep.res_3a, rep.res_3b, *rep.res_3e)
        # the p0 = 0 problem is homogeneous, so its lift is judged by the
        # scale-invariant ratio residual / covector norm
        scale, least = (1.0, CLASSIFY_TOL) if p0 else (rep.res_3c, 0.0)
        return (worst <= CLASSIFY_TOL * scale and rep.res_3c > least,
                f"worst residual {worst:.3e}, least |(p0, p)| {rep.res_3c:.3e}")

    sigma_hat, ray = _normal_separation(W, DEFAULT_TOL)
    proj = GeneratedCone(list(W[1:].T), n=m)
    alpha = supporting_hyperplane(proj)
    margin = 0.0 if alpha is not None else _spanning_margin(proj)
    no_normal = (f"a Farkas ray on {np.count_nonzero(ray)} of the {W.shape[1]} generators "
                 "gives W lam = -e_0" if sigma_hat is None else "")
    no_abnormal = (f"the state parts of the {len(proj.generators)} generators and +- the "
                   f"final basis span R^{m} with margin {margin:.3e}")
    attempts, found = [], []
    for p0, p_b, why in ((-1.0, None if no_normal else sigma_hat[1:], no_normal),
                         (0.0, alpha, no_abnormal)):
        feasible, reason = (False, why) if p_b is None else lift(p0, p_b)
        attempts.append({"p0": p0, "p_b": None if p_b is None else p_b.tolist(),
                         "feasible": feasible, "reason": reason})
        found.append(p_b if feasible else None)
    normal_terminal, abnormal_terminal = found

    certificate = None
    if normal_terminal is not None:
        classification = "normal"
        if margin > CLASSIFY_TOL:
            classification = "strict_normal_certificate"
            certificate = "no abnormal lift exists: " + no_abnormal
    elif abnormal_terminal is not None:
        classification = "abnormal"
        if no_normal:
            classification = "strict_abnormal_certificate"
            certificate = "no normal lift exists: " + no_normal
    else:
        classification = "undetermined"
    return ClassificationResult(classification, certificate, normal_terminal,
                                abnormal_terminal, tuple(attempts))


@dataclass
class TransportReport:
    """Result of pushing a cone forward and re-checking membership."""

    max_violation: float
    axis_defect: float
    memberships: Tuple[str, ...]
    cone: PerturbationCone


def cone_transport_check(sys: ControlSystem, traj: Trajectory, t1: float, t2: float,
                         cone_t1: PerturbationCone,
                         cfg: Optional[IntegratorConfig] = None) -> TransportReport:
    """Transport every generator from t1 to t2 and check membership in the
    cone rebuilt at t2 from the same provenance.

    Also reports the drift-axis identity defect: the transported
    f(gamma(t1), u(t1)) against f(gamma(t2), u(t2)), equal when the control
    does not switch in between.
    """
    if t2 < t1:
        raise ValueError("need t1 <= t2")
    cone2 = _assemble_cone(sys, traj, t2, cone_t1.provenance, cfg)
    # the generators at t1 and the drift there share one base path to t2,
    # from the node state at t1 of the path that holds t1 and t2
    u = traj.control
    path, node = _event_path(sys, traj, [t1, t2], cfg)
    x1 = path.states[node[t1]]
    drift1 = _finite(sys.dynamics(x1, u.value_at(t1)), f"drift at t={t1!r}")
    drift2 = sys.dynamics(path.states[node[t2]], u.value_at(t2))
    _, (*moved, moved_drift) = tangent_lift_flows(
        signal_field(sys, u), t2, t1, x1, list(cone_t1.cone.generators) + [drift1], cfg)
    worst = 0.0
    verdicts = []
    for g in moved:
        worst = max(worst, cone_residual(cone2.cone, g))
        verdicts.append(conic_membership(cone2.cone, g))

    axis_defect = float(np.linalg.norm(moved_drift - drift2))
    return TransportReport(max_violation=worst, axis_defect=axis_defect,
                           memberships=tuple(verdicts), cone=cone2)


@dataclass
class RealizationOptions:
    """Tuning for realize_direction.

    tol bounds the final ray-miss distance relative to s; cfg is the
    integrator configuration used for every endpoint simulation.  The first
    needle scale tried is 1e-2, halved on each geometric failure.
    """

    tol: float = 0.02
    max_attempts: int = 8
    cfg: Optional[IntegratorConfig] = None
    root_max_iter: int = 60


@dataclass
class RealizationResult:
    s: float
    s_prime: float
    control: ControlSignal
    endpoint: np.ndarray
    eval_time: float
    residual: float


def _clip_signal(u: ControlSignal, b_new: float) -> ControlSignal:
    """Restrict (or extend, holding the last value) the signal to [a, b_new]."""
    if b_new == u.b:
        return u
    if b_new > u.b:
        return ControlSignal(a=u.a, b=b_new, switch_times=u.switch_times, values=u.values)
    keep = [s for s in u.switch_times if s < b_new]
    return ControlSignal(a=u.a, b=b_new, switch_times=tuple(keep),
                         values=u.values[:len(keep) + 1])


def realize_direction(sys: ControlSystem, traj: Trajectory, t: float, v,
                      cone: PerturbationCone,
                      opts: Optional[RealizationOptions] = None) -> RealizationResult:
    """Build a composite needle perturbation whose endpoint meets gamma(t) + s'v.

    v must be interior to the (full-dimensional) cone.  The direction is
    written as a strictly positive combination of the generators; each nearby
    direction v + r gets its own combination lam(r) = lam* + W^+ r, and the
    associated perturbation scales the provenance needles by lam and collects
    the net final-time rate from the axis generators (free-time evaluation at
    t + s delta_t).  A fixed-point search over r in the hyperplane orthogonal
    to v zeroes the transverse endpoint deviation; the surviving component
    along v gives s'.
    """
    opts = opts or RealizationOptions()
    v = np.asarray(v, dtype=float).ravel()
    m = sys.m
    if v.shape != (m,) or not v.any():
        raise ValueError("need a nonzero direction of the state dimension")
    if conic_membership(cone.cone, v) != "interior":
        raise ValueError("direction is not interior to the cone")
    rank = cone.cone.span_basis().shape[1]
    if rank < m:
        raise ValueError("realization needs a full-dimensional cone")
    if any(p.kind in ("init+", "init-") for p in cone.provenance):
        raise ValueError("initial-manifold generators are not realizable by "
                         "control perturbations alone")

    lam_star, tstar = positive_combination(cone.cone, v)
    if lam_star is None or tstar <= 0:
        raise ValueError("direction is not interior to the cone")
    W = cone.cone.matrix
    Wp = np.linalg.pinv(W)

    # orthonormal basis of the hyperplane orthogonal to v: the left singular
    # vectors after v's own
    U, _, _ = rank_split(v.reshape(-1, 1))
    Q = U[:, 1:]
    Mmap = Wp @ Q  # coefficient response to transverse offsets

    margin = membership_margin(cone.cone, v)
    R = 0.5 * margin
    delta2 = R
    if Mmap.size:
        rows = np.linalg.norm(Mmap, axis=1)
        with np.errstate(divide="ignore"):
            bounds = np.where(rows > 0, lam_star / np.maximum(rows, 1e-300), np.inf)
        delta2 = min(delta2, 0.5 * float(np.min(bounds)))
    if not delta2 > 0:
        raise ValueError("degenerate interior margin")

    needle_ix = [i for i, p in enumerate(cone.provenance) if p.kind == "needle"]
    plus_ix = [i for i, p in enumerate(cone.provenance) if p.kind == "axis+"]
    minus_ix = [i for i, p in enumerate(cone.provenance) if p.kind == "axis-"]
    free_time = bool(plus_ix or minus_ix)

    x0 = traj.states[0]
    cfg = opts.cfg or IntegratorConfig()
    ref_end = simulate(sys, _clip_signal(traj.control, float(t)), x0, cfg).endpoint
    vv = float(v @ v)
    nq = Q.shape[1]

    def build(lam, s):
        needles = [NeedleData(t1=cone.provenance[i].needle.t1,
                              l1=lam[i] * cone.provenance[i].needle.l1,
                              u1=cone.provenance[i].needle.u1)
                   for i in needle_ix]
        sig = apply_needle_suite(traj.control, needles, s)
        dt = float(sum(lam[i] for i in plus_ix) - sum(lam[i] for i in minus_ix))
        eval_time = float(t) + s * dt if free_time else float(t)
        if eval_time <= sig.a:
            raise NeedleLayoutError("evaluation time collapsed to the start")
        return _clip_signal(sig, eval_time), eval_time

    def endpoint(lam, s):
        sig, eval_time = build(lam, s)
        return simulate(sys, sig, x0, cfg).endpoint, sig, eval_time

    best_res = np.inf
    s = 1e-2
    last_s = s
    for _ in range(opts.max_attempts):
        last_s = s

        def G(rho):
            lam = lam_star + Mmap @ rho if nq else lam_star
            d = endpoint(lam, s)[0] - ref_end
            dv = float(d @ v)
            if dv <= 0:
                raise _TransverseFailure()
            return Q.T @ ((vv / dv) * d - v)

        try:
            if nq == 0:
                rho = np.zeros(0)
            else:
                # residual along the ray is s' * |G|, so a G-space tolerance
                # of 0.3 tol keeps the final check satisfiable
                rho = covered_point_root(G, np.zeros(nq), delta2, np.zeros(nq),
                                         tol=0.3 * opts.tol,
                                         boundary_samples={0: 2, 1: 2, 2: 16}.get(nq, 8 * nq),
                                         max_iter=opts.root_max_iter)
            lam = lam_star + Mmap @ rho if nq else lam_star
            end, sig, eval_time = endpoint(lam, s)
            d = end - ref_end
            s_prime = float(d @ v) / vv
            if s_prime <= 0:
                raise _TransverseFailure()
            residual = float(np.linalg.norm(d - s_prime * v))
            best_res = min(best_res, residual)
            if residual > opts.tol * s:
                raise RootSearchError(rho, residual)
            return RealizationResult(s=s, s_prime=s_prime, control=sig,
                                     endpoint=end, eval_time=eval_time,
                                     residual=residual)
        except (BoundaryConditionError, _TransverseFailure, NeedleLayoutError):
            s *= 0.5
        except RootSearchError as e:
            r = float(getattr(e, "best_residual", np.inf))
            if np.isfinite(r):
                best_res = min(best_res, r)
            s *= 0.5
    raise RealizationError(best_res, last_s)
