"""Polyhedral convex-cone operations.

A cone is represented by a finite generator list, C = { sum_i lam_i g_i :
lam_i >= 0 }.  Membership, supporting hyperplanes, separation of cone pairs
and Minkowski-difference spanning are all decided by small dense linear
programs (see _simplex), each posed with n or n + 1 rows.  Hyperplanes,
positive combinations, separation witnesses and margins are checked on the
original generators before they are returned.  "Interior" always means
relative interior, i.e. interior within span(C).

Vectors and covectors are plain 1-D numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._simplex import DEFAULT_TOL, solve_stack, solve_standard


class ConeCertificateError(RuntimeError):
    """A cone LP's answer failed its check on the original generators."""


class BoundaryConditionError(RuntimeError):
    """The covered-point boundary hypothesis failed at a sampled point."""

    def __init__(self, x, margin):
        super().__init__(
            "boundary condition ||g(x)-x|| < ||x-p|| violated at x=%s (margin %.3e)" % (x, margin)
        )
        self.x = x
        self.margin = margin


class RootSearchError(RuntimeError):
    """The covered-point root search exhausted its budget."""

    def __init__(self, best_x, best_residual):
        super().__init__(
            "root search budget exhausted, best residual %.3e" % best_residual
        )
        self.best_x = best_x
        self.best_residual = best_residual


RANK_TOL = 1e-12


def rank_split(A):
    """(U, r, Vt): the full SVD factors of the matrix A and its numerical rank.

    Singular values above max(1e-12, 1e-12 s_max) count toward r.  The
    columns U[:, :r] span the range of A, U[:, r:] its orthogonal
    complement, and the rows Vt[r:] the null space of A.
    """
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > max(RANK_TOL, RANK_TOL * s[0])))
    return U, rank, Vt


def null_space(rows, m):
    """Orthonormal basis (as columns) of the vectors in R^m orthogonal to
    every row; the identity when there are no rows."""
    if not rows:
        return np.eye(m)
    _, rank, Vt = rank_split(np.vstack(rows))
    return Vt[rank:].T


def _generator_rows(gens, n):
    """(G, n, good): the generators as the rows of a float array G, the
    dimension, and the count of leading generators of shape (n,), which
    are G's rows.  A list that numpy cannot stack into rows is converted
    one generator at a time, each as np.atleast_1d makes it."""
    try:
        G = np.array(gens, dtype=float) if len(gens) else np.zeros((0, n))
    except (ValueError, TypeError):
        G = None
    if G is not None and G.ndim in (1, 2):
        G = G.reshape(len(G), -1) if G.ndim == 1 else G
        n = n or G.shape[1]
        return G, n, len(G) if G.shape[1] == n else 0
    rows = [np.atleast_1d(np.asarray(g, dtype=float)) for g in gens]
    n = n or len(rows[0])
    good = next((i for i, g in enumerate(rows) if g.shape != (n,)), len(rows))
    return np.array(rows[:good]).reshape(good, n), n, good


@dataclass
class GeneratedCone:
    """Finitely generated convex cone { sum lam_i g_i : lam_i >= 0 } in R^n.

    Exact-zero and exact-duplicate generators are dropped on construction,
    and `kept` lists the input indices of the generators that remain; an
    empty generator list represents the cone {0}.  The generators are the
    read-only rows of one array, and `matrix` holds them as columns.
    """

    generators: list = field(default_factory=list)
    n: int = 0
    kept: tuple = field(init=False, repr=False, compare=False)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n == 0 and not len(self.generators):
            raise ValueError("dimension required for a cone with no generators")
        G, self.n, good = _generator_rows(self.generators, self.n)
        # the first bad generator in index order names the fault
        if not np.isfinite(G).all():
            raise ValueError("non-finite generator")
        if good < len(self.generators):
            raise ValueError("dimension mismatch in generator list")
        kept = np.flatnonzero(G.any(axis=1))
        if kept.size > 1:
            # + 0.0 maps -0.0 to 0.0: equal values, equal bytes
            key = np.ascontiguousarray(G[kept] + 0.0).view(np.dtype((np.void, 8 * self.n)))
            kept = kept[np.sort(np.unique(key[:, 0], return_index=True)[1])]
        rows = G[kept]
        rows.flags.writeable = False
        self.generators = list(rows)
        self.kept = tuple(kept.tolist())
        self._matrix = np.ascontiguousarray(rows.T)
        self._matrix.flags.writeable = False

    @property
    def matrix(self):
        """Generators as columns, shape (n, len(generators)); read-only."""
        return self._matrix

    def span_basis(self):
        """Orthonormal basis of span(generators), shape (n, rank)."""
        W = self.matrix
        if W.shape[1] == 0:
            return np.zeros((self.n, 0))
        U, rank, _ = rank_split(W)
        return U[:, :rank]


@dataclass
class SeparationResult:
    separated: bool
    hyperplane: np.ndarray | None = None
    witness: np.ndarray | None = None


def _check_dim(cone, v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (cone.n,):
        raise ValueError("dimension mismatch")
    return v


def _residual_fan(W, V, tol):
    """Yield, for each row v of V in order, the optimum of
    min sum(s+ + s-) subject to W lam + s+ - s- = v, all variables >= 0.

    The value is the L1 distance from v to cone(W).  The row duals alpha
    solve the Farkas dual, max v.alpha subject to alpha.g <= 0 for every
    generator and |alpha_i| <= 1.  The LPs differ only in v and are solved
    in lockstep (solve_stack).
    """
    m, ng = W.shape
    A = np.hstack([W, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(ng), np.ones(2 * m)])
    for res in solve_stack(c, A, V, tol=min(tol, 1e-10)):
        if not res.ok:  # pragma: no cover - the slack formulation is always feasible
            raise ConeCertificateError("membership LP returned " + res.status)
        yield res


def _residual_lp(W, v, tol):
    """The residual LP of v against cone(W) alone (see _residual_fan)."""
    return next(_residual_fan(W, v, tol))


def _fan(k):
    """Direction index and sign of each LP of a +-fan over k directions, in
    the order +d_0, -d_0, +d_1, -d_1, ..."""
    return np.arange(2 * k) // 2, np.tile((1.0, -1.0), k)


def _pm_axes(n):
    """+e_0, -e_0, +e_1, ... in R^n, as rows."""
    j, sgn = _fan(n)
    E = np.zeros((2 * n, n))
    E[np.arange(2 * n), j] = sgn
    return E


def _positive_lp(M, rhs, tol):
    """(lam, t) maximizing t <= 1 over lam >= t >= 0 with M lam = rhs.

    Posed with lam = lam' + t, so the rows are M lam' + t M 1 = rhs and
    t + s = 1.  Returns (None, 0.0) when no lam >= 0 solves M lam = rhs.
    """
    n, k = M.shape
    A = np.zeros((n + 1, k + 2))
    A[:n, :k] = M
    A[:n, k] = M.sum(axis=1)
    A[n, k:] = 1.0
    c = np.zeros(k + 2)
    c[k] = -1.0
    res = solve_standard(c, A, np.append(rhs, 1.0), tol=min(tol, 1e-10))
    if not res.ok:
        return None, 0.0
    t = res.x[k]
    return res.x[:k] + t, float(t)


def cone_residual(cone, v, tol=DEFAULT_TOL):
    """L1 distance from v to the cone (0 when v is representable).

    Phase-1 formulation: min sum(s+ + s-) with W lam + s+ - s- = v over
    nonnegative variables.
    """
    v = _check_dim(cone, v)
    return max(_residual_lp(cone.matrix, v, tol).value, 0.0)


def positive_combination(cone, v, tol=DEFAULT_TOL):
    """Strictly positive conic coefficients for a relative-interior v.

    Solves max t s.t. W lam = v, lam_i >= t, t <= 1 and returns (lam, t*).
    t* > 0 exactly characterizes the relative interior of a finitely
    generated cone.  Returns (None, 0.0) when no positive representation
    exists.  The returned lam is checked to satisfy W lam = v with lam > 0;
    ConeCertificateError is raised otherwise.
    """
    v = _check_dim(cone, v)
    W = cone.matrix
    if W.shape[1] == 0:
        return (np.zeros(0), 1.0) if np.all(np.abs(v) <= tol) else (None, 0.0)
    lam, t = _positive_lp(W, v, tol)
    if lam is None or t <= tol:
        return None, t
    return _checked_combination(W, lam, v, tol, "positive combination misses W lam = v"), t


def conic_membership(cone, v, tol=DEFAULT_TOL):
    """Classify v against the cone: "outside", "boundary" or "interior".

    Interior means relative interior: v is representable and stays
    representable under every perturbation of magnitude tol within
    span(cone) (checked on the +-span-basis cross-polytope, which covers
    the full ball by convexity).
    """
    v = _check_dim(cone, v)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not cone.generators:
        return "interior" if np.all(np.abs(v) <= tol) else "outside"
    if cone_residual(cone, v, tol) > tol:
        return "outside"
    Q = cone.span_basis()
    j, sgn = _fan(Q.shape[1])
    for res in _residual_fan(cone.matrix, v + sgn[:, None] * tol * Q.T[j], tol):
        if max(res.value, 0.0) > 0.5 * tol:
            return "boundary"
    return "interior"


def membership_margin(cone, v, tol=DEFAULT_TOL):
    """Largest r <= cap such that v +- r q stays in the cone for every span-basis q.

    cap = max(1, |v|) keeps each LP bounded.  One LP per direction d = +-q:
    max r subject to W lam - r d = v, r <= cap and lam >= 0, with the rows
    taken in span coordinates (v is projected onto span(C); it lies within
    tol of the cone).  The minimum over directions is a lower bound on the
    distance from v to the relative boundary (cross-polytope inradius).
    Returns 0.0 when v is not in the cone.  Raises ConeCertificateError
    when a direction's lam fails ||W lam - r d - v||_1 <= tol.
    """
    v = _check_dim(cone, v)
    if cone_residual(cone, v, tol) > tol:
        return 0.0
    Q = cone.span_basis()
    k = Q.shape[1]
    if k == 0:
        return np.inf
    cap = max(1.0, float(np.linalg.norm(v)))
    W = cone.matrix
    ng = W.shape[1]
    # variables (lam, r, s): Q^T W lam - r Q^T d = Q^T v and r + s = cap
    # one LP per direction, in the order +q_0, -q_0, +q_1, ...
    j, sgn = _fan(k)
    A = np.zeros((2 * k, k + 1, ng + 2))
    A[:, :k, :ng] = Q.T @ W
    A[np.arange(2 * k), j, ng] = -sgn
    A[:, k, ng:] = 1.0
    b = np.append(Q.T @ v, cap)
    c = np.zeros(ng + 2)
    c[ng] = -1.0
    out = np.inf
    for i, res in enumerate(solve_stack(c, A, b, tol=min(tol, 1e-10))):
        if not res.ok:
            return 0.0  # v lies on the relative boundary within tol
        lam, r = res.x[:ng], res.x[ng]
        miss = np.abs(W @ lam - r * sgn[i] * Q[:, j[i]] - Q @ b[:k]).sum()
        if not miss <= tol:
            raise ConeCertificateError(
                "margin certificate misses v + r d by %.3e (r = %.6g)" % (miss, r))
        out = min(out, r)
    return out


def _checked_combination(M, coef, rhs, tol, what):
    """coef, after checking max |M coef - rhs| <= tol (1 + max |M| coef) and
    coef > 0."""
    miss = float(np.max(np.abs(M @ coef - rhs)))
    if not (miss <= tol * (1.0 + float(np.max(np.abs(M) @ coef))) and np.all(coef > 0)):
        raise ConeCertificateError("%s by %.3e" % (what, miss))
    return coef


def _checked_hyperplane(W, alpha, tol):
    """alpha, after checking alpha.g <= tol |alpha| |g| for every generator."""
    if not (np.all(np.isfinite(alpha)) and alpha.any()):
        raise ConeCertificateError("hyperplane certificate is zero or not finite")
    if W.shape[1]:
        worst = float(np.max(alpha @ W / np.linalg.norm(W, axis=0))) / np.linalg.norm(alpha)
        if not worst <= tol:
            raise ConeCertificateError(
                "hyperplane certificate misses a generator by %.3e (normalized)" % worst)
    return alpha


def supporting_hyperplane(cone, tol=DEFAULT_TOL):
    """Nonzero alpha with alpha.g <= 0 for all generators, or None.

    None is returned exactly when the cone is the whole space (its polar is
    {0}).  Rank-deficient cones use an orthogonal-complement direction; full
    span cones solve the n-row L1 residual LP of +-e_j against the unit
    generators, one per direction, and read alpha from its row duals (the
    Farkas dual: max alpha_j subject to alpha.g <= 0, |alpha_i| <= 1).
    Soundness: a nonzero polar element has a nonzero pairing with some
    +-e_j, so all optima ~0 forces polar = {0}.  The returned alpha is
    checked to satisfy alpha.g <= tol |alpha| |g| for every generator;
    ConeCertificateError is raised otherwise.
    """
    if not cone.generators:
        alpha = np.zeros(cone.n)
        alpha[0] = 1.0
        return alpha
    W = cone.matrix
    U, rank, _ = rank_split(W)
    if rank < cone.n:
        return _checked_hyperplane(W, U[:, rank], tol)
    unit = W / np.linalg.norm(W, axis=0)
    for res in _residual_fan(unit, _pm_axes(cone.n), tol):
        if res.value > max(tol, 1e-8):
            return _checked_hyperplane(W, res.y, tol)
    return None


def separate(c1, c2, tol=DEFAULT_TOL):
    """Decide separation of two cones with a common vertex at 0.

    Separated iff the difference cone cone(G1 u -G2) is not the whole
    space; the supporting hyperplane of the difference cone is then a
    separating hyperplane with alpha(C1) <= 0 <= alpha(C2).  When not
    separated, a common relative-interior witness is returned (strictly
    positive combinations on both sides agreeing), checked to satisfy
    W1 lam = W2 mu with lam, mu > 0; ConeCertificateError is raised
    otherwise.
    """
    if c1.n != c2.n:
        raise ValueError("dimension mismatch")
    n = c1.n
    diff = GeneratedCone(np.vstack((c1.matrix.T, -c2.matrix.T)), n)
    alpha = supporting_hyperplane(diff, tol)
    if alpha is not None:
        return SeparationResult(True, hyperplane=alpha)
    W1, W2 = c1.matrix, c2.matrix
    n1 = W1.shape[1]
    # max t with W1 lam = W2 mu, lam_i >= t, mu_j >= t, t <= 1
    M = np.hstack([W1, -W2])
    coef, t = _positive_lp(M, np.zeros(n), tol)
    if coef is None or t < 0.5:
        raise ConeCertificateError("separation witness LP inconsistent with hyperplane search")
    _checked_combination(M, coef, 0.0, tol, "separation witness misses W1 lam = W2 mu")
    witness = W1 @ coef[:n1] if n1 else np.zeros(n)
    return SeparationResult(False, witness=witness)


def difference_spans(c1, c2, tol=DEFAULT_TOL):
    """True iff cone(G1 u -G2) is all of R^n.

    Two independent routes are computed and cross-checked: direct +-e_j
    membership in the difference cone (primal) and NOT separate(...)
    .separated (dual certificate search).  A mismatch raises.
    """
    if c1.n != c2.n:
        raise ValueError("dimension mismatch")
    n = c1.n
    diff = GeneratedCone(np.vstack((c1.matrix.T, -c2.matrix.T)), n)
    spans = all(max(res.value, 0.0) <= tol for res in _residual_fan(diff.matrix, _pm_axes(n), tol))
    sep = separate(c1, c2, tol).separated
    if spans == sep:
        raise RuntimeError("difference_spans cross-check failed: spans=%s separated=%s"
                           % (spans, sep))
    return spans


def unit_directions(n, count, seed=0):
    """Deterministic unit directions in R^n (boundary samples, multistarts)."""
    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    if n == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    if n == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    k = 0
    while k < count:
        d = rng.standard_normal(n)
        nrm = np.linalg.norm(d)
        if nrm > 1e-8:
            out[k] = d / nrm
            k += 1
    return out


def covered_point_root(g, center, radius, p, tol=DEFAULT_TOL, boundary_samples=None,
                       max_iter=60):
    """Find x in the closed ball B(center, radius) with g(x) ~= p.

    First verifies the covering hypothesis ||g(x) - x|| < ||x - p|| on a
    deterministic boundary sample (default 64 n points), raising
    BoundaryConditionError with the violating point otherwise.  The root is
    then located by damped Newton iterations with finite-difference
    Jacobians, restarted from a deterministic interior grid on stall;
    RootSearchError carries the best residual when the budget runs out.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = len(center)
    if len(p) != n:
        raise ValueError("dimension mismatch")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if np.linalg.norm(p - center) >= radius:
        raise ValueError("p must lie strictly inside the ball")

    nb = boundary_samples if boundary_samples is not None else 64 * n
    for d in unit_directions(n, nb, seed=0):
        x = center + radius * d
        gap = np.linalg.norm(np.asarray(g(x)) - x) - np.linalg.norm(x - p)
        if gap >= 0.0:
            raise BoundaryConditionError(x, gap)

    def clip(x):
        dx = x - center
        r = np.linalg.norm(dx)
        if r > radius:
            return center + (radius / r) * dx
        return x

    starts = [center.copy()]
    for scale in (0.3, 0.7):
        for d in unit_directions(n, min(16, 4 * n), seed=1):
            starts.append(center + scale * radius * d)

    best_x, best_res = None, np.inf
    for x0 in starts:
        x = x0.copy()
        fx = np.asarray(g(x)) - p
        for _ in range(max_iter):
            nf = np.linalg.norm(fx)
            if nf < best_res:
                best_res, best_x = nf, x.copy()
            if nf <= tol:
                return x
            J = np.empty((n, n))
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            for j in range(n):
                xp = x.copy()
                xp[j] += h
                J[:, j] = (np.asarray(g(clip(xp))) - p - fx) / h
            try:
                step = np.linalg.lstsq(J, -fx, rcond=None)[0]
            except np.linalg.LinAlgError:  # pragma: no cover
                break
            lam, accepted = 1.0, False
            for _ in range(10):
                xn = clip(x + lam * step)
                fn = np.asarray(g(xn)) - p
                if np.linalg.norm(fn) < nf * (1.0 - 1e-4 * lam):
                    x, fx, accepted = xn, fn, True
                    break
                lam *= 0.5
            if not accepted:
                break
        else:
            continue
        if best_res <= tol:
            return best_x
    if best_res <= tol:
        return best_x
    raise RootSearchError(best_x, best_res)
