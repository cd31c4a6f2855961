"""Revised two-phase simplex for the small linear programs of the cone routines.

Every LP in this package is small (a handful of rows, at most a few hundred
columns), so a dense revised simplex with Bland's rule is adequate and keeps
the package free of solver dependencies.  Each iteration inverts the basis
matrix afresh from the original A and takes the basic solution, the row
duals and the entering column from it, so no rounding carries over from one
pivot to the next; the returned point and duals are solved from the final
basis.  The public entry points are ``solve_standard``
(equality standard form, with the row duals of the final basis) and
``linprog_dense`` (a small modeling layer with inequality rows and
per-variable bounds).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

_MAX_ITER = 50000


class SimplexError(RuntimeError):
    """The simplex failed in a way exact arithmetic rules out."""


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    y: np.ndarray | None = None  # row duals at an optimum of solve_standard

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _crash(A, b):
    """Starting basis: for each row, the first column a e_r with b_r / a >= 0.

    Such a column holds the row's value alone and nonnegative, so these
    columns start the simplex feasible; -1 marks a row without one.
    """
    nz = A != 0.0
    row = nz.argmax(axis=0)
    cand = np.flatnonzero((nz.sum(axis=0) == 1) & (A[row, np.arange(A.shape[1])] * b[row] >= 0.0))
    rows, first = np.unique(row[cand], return_index=True)
    basis = np.full(A.shape[0], -1)
    basis[rows] = cand[first]
    return basis


def _iterate(A, b, c, basis, tol):
    """Revised simplex iterations from the feasible `basis`, updated in place.

    Each iteration inverts the basis matrix afresh from A.  Bland's rule:
    the first column with reduced cost below -tol enters, and the smallest
    basic index leaves among the tied ratios.  Returns "optimal" or
    "unbounded".
    """
    for _ in range(_MAX_ITER):
        Binv = np.linalg.inv(A[:, basis])
        d = c - (c[basis] @ Binv) @ A
        d[basis] = 0.0
        enter = np.flatnonzero(d < -tol)
        if not enter.size:
            return "optimal"
        col = Binv @ A[:, enter[0]]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            return "unbounded"
        ratio = np.maximum(Binv[rows] @ b, 0.0) / col[rows]
        best = ratio.min()
        ties = rows[ratio <= best + 1e-12 * (1.0 + best)]
        basis[ties[np.argmin(basis[ties])]] = enter[0]
    raise SimplexError("simplex iteration limit reached")


def solve_standard(c, A, b, tol=DEFAULT_TOL):
    """min c.x  subject to  A x = b, x >= 0.

    At an optimum the result also carries the row duals y of the final
    basis: A^T y <= c up to tol, and b.y equals the optimal value.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float)).astype(float)
    c = np.atleast_1d(np.asarray(c, dtype=float)).astype(float)
    m, n = A.shape if A.size else (len(b), len(c))
    if n == 0:
        if np.all(np.abs(b) <= tol):
            return LpResult("optimal", np.zeros(0), 0.0, np.zeros(m))
        return LpResult("infeasible")
    if m == 0:
        if np.any(c < -tol):
            return LpResult("unbounded")
        return LpResult("optimal", np.zeros(n), 0.0, np.zeros(0))

    basis = _crash(A, b)
    rows = np.arange(m)
    short = np.flatnonzero(basis < 0)
    if short.size:
        # phase 1: an artificial column sign(b_r) e_r for each row without a
        # unit column; minimize their sum
        k = short.size
        art = np.zeros((m, k))
        art[short, np.arange(k)] = np.where(b[short] < 0.0, -1.0, 1.0)
        A1 = np.hstack((A, art))
        c1 = np.concatenate((np.zeros(n), np.ones(k)))
        basis[short] = n + np.arange(k)
        status = _iterate(A1, b, c1, basis, tol)
        if status != "optimal":
            raise SimplexError("phase-1 simplex returned " + status)
        if c1[basis] @ np.linalg.solve(A1[:, basis], b) > tol * (1.0 + np.abs(b).max()):
            return LpResult("infeasible")
        # move the artificials left in the basis out; a row on which no
        # original column can replace one is redundant and is dropped
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= n):
            row = np.linalg.inv(A1[:, basis])[i] @ A
            row[basis[basis < n]] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > tol:
                basis[i] = j
            else:
                keep[short[basis[i] - n]] = False
        basis = basis[basis < n]
        rows = rows[keep]

    # phase 2 with the real objective on the original columns
    A2, b2 = A[rows], b[rows]
    if _iterate(A2, b2, c, basis, tol) == "unbounded":
        return LpResult("unbounded")
    B = A2[:, basis]
    x = np.zeros(n)
    x[basis] = np.linalg.solve(B, b2)
    x[(x < 0.0) & (x > -10 * tol)] = 0.0
    y = np.zeros(m)
    y[rows] = np.linalg.solve(B.T, c[basis])
    return LpResult("optimal", x, float(c @ x), y)


def linprog_dense(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, tol=DEFAULT_TOL):
    """min c.x with A_ub x <= b_ub, A_eq x = b_eq and per-variable (lo, hi) bounds.

    `bounds` is a sequence of (lo, hi) pairs; None in either slot means
    unbounded on that side.  Default bound is (0, None), matching the usual
    linprog convention.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float)).astype(float)
    nvar = len(c)
    if bounds is None:
        bounds = [(0.0, None)] * nvar
    if len(bounds) != nvar:
        raise ValueError("bounds length mismatch")

    lo = np.array([(-np.inf if b_[0] is None else float(b_[0])) for b_ in bounds])
    hi = np.array([(np.inf if b_[1] is None else float(b_[1])) for b_ in bounds])
    if np.any(lo > hi):
        return LpResult("infeasible")

    # substitution x = offset + S y with y >= 0 in standard form
    offset = np.zeros(nvar)
    cols = []          # (var index, sign) per standard-form column
    extra_ub = []      # (column index, ub value) for two-sided bounds
    for j in range(nvar):
        if np.isfinite(lo[j]):
            offset[j] = lo[j]
            cols.append((j, 1.0))
            if np.isfinite(hi[j]):
                extra_ub.append((len(cols) - 1, hi[j] - lo[j]))
        elif np.isfinite(hi[j]):
            offset[j] = hi[j]
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    ny = len(cols)
    S = np.zeros((nvar, ny))
    for idx, (j, sgn) in enumerate(cols):
        S[j, idx] = sgn

    rows = []
    rhs = []
    if A_eq is not None and len(np.atleast_2d(A_eq)):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        for i in range(A_eq.shape[0]):
            rows.append((A_eq[i] @ S, None))
            rhs.append(b_eq[i] - A_eq[i] @ offset)
    if A_ub is not None and len(np.atleast_2d(A_ub)):
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        for i in range(A_ub.shape[0]):
            rows.append((A_ub[i] @ S, "slack"))
            rhs.append(b_ub[i] - A_ub[i] @ offset)
    for col_idx, ubval in extra_ub:
        r = np.zeros(ny)
        r[col_idx] = 1.0
        rows.append((r, "slack"))
        rhs.append(ubval)

    nslack = sum(1 for _, kind in rows if kind == "slack")
    A_std = np.zeros((len(rows), ny + nslack))
    b_std = np.array(rhs, dtype=float)
    si = 0
    for i, (r, kind) in enumerate(rows):
        A_std[i, :ny] = r
        if kind == "slack":
            A_std[i, ny + si] = 1.0
            si += 1
    c_std = np.concatenate([c @ S, np.zeros(nslack)])

    res = solve_standard(c_std, A_std, b_std, tol=tol)
    if not res.ok:
        return res
    x = offset + S @ res.x[:ny]
    return LpResult("optimal", x, float(c @ x))
