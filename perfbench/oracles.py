"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into pmpkit: closed forms for the two shooting problems,
brute-force facet enumeration for cones in R^2 and R^3, a 2-D angle sweep,
and a plain RK4 reference integrator.
"""

import math

import numpy as np


def double_integrator_min_time(d):
    """Minimum time and switch time from rest at (d, 0) to the origin, |u| <= 1."""
    s = math.sqrt(abs(d))
    return 2.0 * s, s


def lqr_state(t, q, x0):
    """Optimal state of min int q x^2 + u^2 on [0, 1], x' = u, free endpoint."""
    r = math.sqrt(q)
    return x0 * np.cosh(r * (1.0 - np.asarray(t))) / math.cosh(r)


# ---------------------------------------------------------------------------
# cones in R^2 and R^3 by brute force

def _candidate_normals(gens):
    """Normals orthogonal to n-1 generators (perpendiculars in R^2, pair
    cross products in R^3), both signs, unit length."""
    G = np.asarray(gens, dtype=float)
    n = G.shape[1]
    if n == 2:
        C = np.column_stack([-G[:, 1], G[:, 0]])
    elif n == 3:
        i, j = np.triu_indices(len(G), k=1)
        C = np.cross(G[i], G[j])
    else:
        raise ValueError("brute-force cone oracle supports n = 2 and 3 only")
    norms = np.linalg.norm(C, axis=1)
    C = C[norms > 1e-12] / norms[norms > 1e-12, None]
    return np.vstack([C, -C])


def facet_normals(gens, eps=1e-10):
    """Inward unit facet normals of a pointed full-dimensional cone.

    Every facet of cone(G) in R^2 or R^3 contains n-1 independent
    generators, so its normal is among the candidates; a candidate is a
    facet normal when every generator lies on its nonnegative side.
    """
    G = np.asarray(gens, dtype=float)
    Gu = G / np.linalg.norm(G, axis=1)[:, None]
    C = _candidate_normals(G)
    keep = np.all(C @ Gu.T >= -eps, axis=1)
    return C[keep]


def membership_status(gens, v, eps=1e-7):
    """'interior', 'boundary' or 'outside' for a pointed full-dimensional cone."""
    N = facet_normals(gens)
    s = float(np.min(N @ np.asarray(v, float))) / max(1.0, float(np.linalg.norm(v)))
    if s > eps:
        return "interior"
    if s >= -eps:
        return "boundary"
    return "outside"


def cross_polytope_margin(gens, v, Q, cap):
    """Largest r <= cap with v +- r q_j in the cone for every column q_j of Q."""
    N = facet_normals(gens)
    slack = N @ np.asarray(v, float)
    out = cap
    for j in range(Q.shape[1]):
        for d in (Q[:, j], -Q[:, j]):
            rate = N @ d
            leaving = rate < 0
            if np.any(leaving):
                out = min(out, float(np.min(slack[leaving] / -rate[leaving])))
    return out


def separated_brute(G1, G2, eps=1e-9):
    """True iff some nonzero alpha has alpha.g1 <= 0 <= alpha.g2 for all pairs.

    That holds iff cone(G1 u -G2) is not the whole space; a nonzero element
    of its polar may be taken extreme, i.e. orthogonal to n-1 independent
    generators, so the candidate normals are exhaustive.
    """
    D = np.vstack([np.asarray(G1, float), -np.asarray(G2, float)])
    Du = D / np.linalg.norm(D, axis=1)[:, None]
    _, s, vt = np.linalg.svd(D)
    rank = int(np.sum(s > 1e-12 * s[0]))
    if rank < D.shape[1]:
        return True
    C = _candidate_normals(D)
    return bool(np.any(np.all(C @ Du.T <= eps, axis=1)))


# ---------------------------------------------------------------------------
# 2-D angle sweep

def sweep_status_2d(gens, v, band=1e-7):
    """Membership of v in cone(gens) in R^2 by sorting generator angles.

    Returns 'interior', 'boundary', 'outside', or None when v lies within
    `band` radians of a boundary ray, where rounding decides the verdict.
    Interior means relative interior, as in pmpkit.
    """
    G = [np.asarray(g, float) for g in gens if np.any(g)]
    phi = math.atan2(v[1], v[0])
    if not G:
        return None
    ang = sorted(math.atan2(g[1], g[0]) for g in G)
    gaps = [(ang[(i + 1) % len(ang)] - ang[i]) % (2.0 * math.pi) for i in range(len(ang))]
    if len(ang) == 1:
        gaps = [2.0 * math.pi]
    widest = max(gaps)
    if abs(widest - math.pi) <= band:
        return None  # half-plane or line: rank and boundary decided by rounding
    if widest < math.pi:
        return "interior"  # the generators positively span the plane
    i = gaps.index(widest)
    start = ang[(i + 1) % len(ang)]  # sector runs counter-clockwise start -> end
    width = 2.0 * math.pi - widest
    off = (phi - start) % (2.0 * math.pi)
    dist_out = min(abs(off), abs(off - 2.0 * math.pi), abs(off - width))
    if dist_out <= band:
        return None
    if width <= band:
        return "outside"  # a single ray; v is off it
    return "interior" if off < width else "outside"


# ---------------------------------------------------------------------------
# reference integrator

def rk4_piecewise(f, x0, times, values, T, step):
    """RK4 endpoint of x' = f(x, u) with piecewise-constant u, each piece
    integrated on its own uniform grid of at most `step`."""
    x = np.array(x0, dtype=float)
    edges = [0.0] + list(times) + [T]
    for (a, b), u in zip(zip(edges[:-1], edges[1:]), values):
        n = max(1, math.ceil((b - a) / step))
        h = (b - a) / n
        for _ in range(n):
            k1 = f(x, u)
            k2 = f(x + 0.5 * h * k1, u)
            k3 = f(x + 0.5 * h * k2, u)
            k4 = f(x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x
