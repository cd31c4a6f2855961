"""Revised two-phase simplex for the small linear programs of the cone routines.

Every LP in this package is small (a handful of rows, at most a few hundred
columns), so a dense revised simplex with Bland's rule is adequate and keeps
the package free of solver dependencies.  Each iteration inverts the basis
matrix afresh from the original A and takes the basic solution, the row
duals and the entering column from it, so no rounding carries over from one
pivot to the next; the returned point and duals are solved from the final
basis.  The public entry points are ``solve_standard``
(equality standard form, with the row duals of the final basis),
``solve_stack`` (the same for a fan of same-shape LPs, solved in lockstep)
and ``linprog_dense`` (a small modeling layer with inequality rows and
per-variable bounds).

In lockstep each LP keeps its own basis and its own Bland decisions; one
round makes one pivot of every LP still active, with one batched inverse
for all their bases, and an LP that finishes leaves the stack.  At these
sizes a pivot costs numpy's call overhead rather than arithmetic: a round
of nine LPs of five rows took about the time of three single pivots.
Every batched product is one whose bits equal the single call's for each
LP (numpy runs a stack of vector products as one gemv per LP), so a
stacked LP pivots and ends exactly as it does alone.  That is why the
ratio test's numerators are rows of the basic solution Binv @ b, computed
once per pivot: that is what a stack computes, while the form
Binv[rows] @ b, whose gemv bits depend on the row count, gave other bits
in 569 of 2,602 measured fan cases.
"""
from __future__ import annotations

import functools
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
    """Starting bases of a stack of LPs, A (L, m, n) and b (L, m): for each
    row, the first column a e_r with b_r / a >= 0.

    Such a column holds the row's value alone and nonnegative, so these
    columns start the simplex feasible; -1 marks a row without one.
    """
    nz = A != 0.0
    row = nz.argmax(axis=1)
    at = np.arange(len(A))[:, None]
    cand = (nz.sum(axis=1) == 1) & (A[at, row, np.arange(A.shape[2])] * b[at, row] >= 0.0)
    # hits[l, r, j]: column j is a candidate for row r of LP l
    hits = cand[:, None, :] & (row[:, None, :] == np.arange(A.shape[1])[:, None])
    return np.where(hits.any(axis=2), hits.argmax(axis=2), -1)


def _iterate(A, b, c, basis, tol, start=0):
    """Revised simplex iterations from the feasible `basis`, updated in place.

    Each iteration inverts the basis matrix afresh from A.  Bland's rule:
    the first column with reduced cost below -tol enters, and the smallest
    basic index leaves among the tied ratios, whose numerators are the
    entries of the basic solution Binv @ b.  Returns "optimal" or
    "unbounded".
    """
    for _ in range(start, _MAX_ITER):
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
        ratio = np.maximum((Binv @ b)[rows], 0.0) / col[rows]
        best = ratio.min()
        ties = rows[ratio <= best + 1e-12 * (1.0 + best)]
        basis[ties[np.argmin(basis[ties])]] = enter[0]
    raise SimplexError("simplex iteration limit reached")


def _rounds(A, b, c, basis, tol):
    """`_iterate` in lockstep over a stack of LPs: A (L, m, n), b (L, m),
    c (L, n) and their feasible bases (L, m), updated in place.

    Each round makes one pivot of every active LP, with one batched inverse
    and the same products LP by LP as `_iterate`, so each LP takes the
    pivots and ends in the basis that `_iterate` gives it.  After each round
    this yields the (index, outcome) pairs of the LPs that finished in it;
    an outcome is "optimal", "unbounded" or the error the LP raised.  The
    last active LP steps on through `_iterate` alone.
    """
    live = np.arange(len(basis))
    # the active LPs' data, their bases as they pivot, and A's columns as rows
    Al, bl, cl, bas = A, b, c, basis.copy()
    ATl = A.transpose(0, 2, 1).copy()
    for it in range(_MAX_ITER):
        if live.size <= 1:
            for i in live:
                basis[i] = bas[0]
                try:
                    yield [(i, _iterate(A[i], b[i], c[i], basis[i], tol, it))]
                except (np.linalg.LinAlgError, SimplexError) as err:
                    yield [(i, err)]
            return
        at = np.arange(live.size)
        rows = at[:, None]
        Binv, failed = _inverses(ATl[rows, bas].transpose(0, 2, 1))
        d = cl - (cl[rows, bas][:, None, :] @ Binv @ Al)[:, 0]
        d[rows, bas] = 0.0
        neg = d < -tol
        enter = neg.argmax(axis=1)
        col = (Binv @ ATl[at, enter][:, :, None])[:, :, 0]
        pos = col > tol
        ratio = np.divide(np.maximum((Binv @ bl[:, :, None])[:, :, 0], 0.0), col,
                          out=np.full(col.shape, np.inf), where=pos)
        best = ratio.min(axis=1, keepdims=True)
        leave = np.where(ratio <= best + 1e-12 * (1.0 + best), bas, Al.shape[2]).argmin(axis=1)
        go = neg[at, enter] & pos.any(axis=1)
        go[list(failed)] = False
        done = []
        if not go.all():
            for k in np.flatnonzero(~go):
                basis[live[k]] = bas[k]
                done.append((live[k], failed[k] if k in failed else
                             "unbounded" if neg[k, enter[k]] else "optimal"))
            live, Al, ATl, bl, cl, bas = (v[go] for v in (live, Al, ATl, bl, cl, bas))
            at, enter, leave = at[:live.size], enter[go], leave[go]
        bas[at, leave] = enter
        yield done
    basis[live] = bas
    yield [(i, SimplexError("simplex iteration limit reached")) for i in live]


def _inverses(B):
    """Inverses of a stack of bases and {index: LinAlgError} of the singular
    ones, each inverted alone so that its error belongs to its LP."""
    try:
        return np.linalg.inv(B), {}
    except np.linalg.LinAlgError:
        Binv, failed = np.empty_like(B), {}
        for k in range(len(B)):
            try:
                Binv[k] = np.linalg.inv(B[k])
            except np.linalg.LinAlgError as err:
                failed[k] = err
                Binv[k] = np.eye(B.shape[1])
        return Binv, failed


def _phase1(A, b, basis):
    """Phase-1 columns, objective and short rows: an artificial column
    sign(b_r) e_r for each row without a crash column, placed in `basis`."""
    m, n = A.shape
    short = np.flatnonzero(basis < 0)
    k = short.size
    art = np.zeros((m, k))
    art[short, np.arange(k)] = np.where(b[short] < 0.0, -1.0, 1.0)
    basis[short] = n + np.arange(k)
    return np.hstack((A, art)), np.concatenate((np.zeros(n), np.ones(k))), short


def _leave_phase1(A, A1, b, c1, basis, short, tol):
    """(basis, rows) for phase 2 after an optimal phase 1, or None when the
    LP is infeasible.

    The artificials left in the basis move out; a row on which no original
    column can replace one is redundant and is dropped.
    """
    n = A.shape[1]
    if c1[basis] @ np.linalg.solve(A1[:, basis], b) > tol * (1.0 + np.abs(b).max()):
        return None
    keep = np.ones(len(b), dtype=bool)
    for i in np.flatnonzero(basis >= n):
        row = np.linalg.inv(A1[:, basis])[i] @ A
        row[basis[basis < n]] = 0.0
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > tol:
            basis[i] = j
        else:
            keep[short[basis[i] - n]] = False
    return basis[basis < n], np.flatnonzero(keep)


def _optima(A, b, c, basis, tol):
    """The optimal results at the final phase-2 bases of a stack of LPs:
    A (L, m, n), b (L, m), c (L, n) and basis (L, m).  An LP whose basis
    is singular gets its error in place of a result."""
    at = np.arange(len(A))[:, None]
    B = A.transpose(0, 2, 1)[at, basis].transpose(0, 2, 1)
    try:
        xB = np.linalg.solve(B, b[:, :, None])[:, :, 0]
        y = np.linalg.solve(B.transpose(0, 2, 1), c[at, basis][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as err:
        if len(A) == 1:
            return [err]
        return [_optima(A[k:k + 1], b[k:k + 1], c[k:k + 1], basis[k:k + 1], tol)[0]
                for k in range(len(A))]
    x = np.zeros(c.shape)
    x[at, basis] = xB
    x[(x < 0.0) & (x > -10 * tol)] = 0.0
    return [LpResult("optimal", x[k], float(c[k] @ x[k]), y[k]) for k in range(len(A))]


def _phase2(A, b, c, basis, rows, tol):
    """Phase 2 alone from a feasible basis on rows `rows` of A x = b."""
    A2, b2 = A[rows], b[rows]
    if _iterate(A2, b2, c, basis, tol) == "unbounded":
        return LpResult("unbounded")
    res = _optima(A2[None], b2[None], c[None], basis[None], tol)[0]
    if isinstance(res, Exception):
        raise res
    res.y, y = np.zeros(len(b)), res.y
    res.y[rows] = y
    return res


def _floats(c, A, b):
    return (np.atleast_1d(np.asarray(c, dtype=float)), np.atleast_2d(np.asarray(A, dtype=float)),
            np.atleast_1d(np.asarray(b, dtype=float)))


def solve_standard(c, A, b, tol=DEFAULT_TOL):
    """min c.x  subject to  A x = b, x >= 0.

    At an optimum the result also carries the row duals y of the final
    basis: A^T y <= c up to tol, and b.y equals the optimal value.
    """
    c, A, b = _floats(c, A, b)
    m, n = A.shape if A.size else (len(b), len(c))
    if n == 0:
        if np.all(np.abs(b) <= tol):
            return LpResult("optimal", np.zeros(0), 0.0, np.zeros(m))
        return LpResult("infeasible")
    if m == 0:
        if np.any(c < -tol):
            return LpResult("unbounded")
        return LpResult("optimal", np.zeros(n), 0.0, np.zeros(0))
    basis = _crash(A[None], b[None])[0]
    rows = np.arange(m)
    if np.any(basis < 0):
        A1, c1, short = _phase1(A, b, basis)
        status = _iterate(A1, b, c1, basis, tol)
        if status != "optimal":
            raise SimplexError("phase-1 simplex returned " + status)
        kept = _leave_phase1(A, A1, b, c1, basis, short, tol)
        if kept is None:
            return LpResult("infeasible")
        basis, rows = kept
    return _phase2(A, b, c, basis, rows, tol)


def solve_stack(c, A, b, tol=DEFAULT_TOL):
    """Yield solve_standard(c[i], A[i], b[i], tol) for i = 0, 1, ... of a
    stack of LPs of one shape.

    Each of c, A and b is either one array shared by every LP or a stack
    of them along a new first axis.  The first LP is solved alone, so a
    caller that stops at it pays for no lockstep round; the others go
    through phase 1 (those with the first one's count of artificials) and
    phase 2 in lockstep (`_rounds`), and an LP that needs anything else
    finishes alone when its turn comes.  Results come in stack order, and
    an LP's error is raised in its turn, so a loop over this generator
    sees what a loop over solve_standard sees; the LPs after the one where
    it stops are left unsolved.
    """
    c, A, b = _floats(c, A, b)
    if c.ndim == 1 and A.ndim == 2 and b.ndim == 1:
        yield solve_standard(c, A, b, tol)
        return
    lead = np.broadcast_shapes(c.shape[:-1], A.shape[:-2], b.shape[:-1])
    L, m, n = (lead[0] if lead else 1), A.shape[-2], c.shape[-1]
    c = np.broadcast_to(c, (L, n))
    A = np.broadcast_to(A, (L, m, A.shape[-1]))
    b = np.broadcast_to(b, (L, m))
    if L < 3 or not (m and n):  # no lockstep round for one LP after the first
        for i in range(L):
            yield solve_standard(c[i], A[i], b[i], tol)
        return
    yield solve_standard(c[0], A[0], b[0], tol)
    yield from _lockstep(c[1:].copy(), A[1:].copy(), b[1:].copy(), tol)


def _lockstep(c, A, b, tol):
    """solve_stack's LPs after the first: c (L, n), A (L, m, n), b (L, m)."""
    L, m, n = A.shape
    out = [None] * L  # per LP: its result, its error, or a call that solves it alone
    head = 0

    def ready():
        nonlocal head
        while head < L and out[head] is not None:
            res = out[head]
            head += 1
            if callable(res):
                res = res()
            if isinstance(res, Exception):
                raise res
            yield res

    basis = _crash(A, b)
    short = (basis < 0).sum(axis=1)
    phase2 = {i: basis[i] for i in np.flatnonzero(short == 0)}
    if short.any():
        k = short[np.argmax(short > 0)]
        for i in np.flatnonzero((short > 0) & (short != k)):
            out[i] = functools.partial(solve_standard, c[i], A[i], b[i], tol)
        grp = np.flatnonzero(short == k)
        setup = [_phase1(A[i], b[i], basis[i]) for i in grp]
        A1, c1 = np.array([s[0] for s in setup]), setup[0][1]
        bases = basis[grp]
        for done in _rounds(A1, b[grp], np.broadcast_to(c1, (grp.size, n + k)), bases, tol):
            for j, status in done:
                i = grp[j]
                if status != "optimal":
                    out[i] = (SimplexError("phase-1 simplex returned unbounded")
                              if status == "unbounded" else status)
                    continue
                try:
                    kept = _leave_phase1(A[i], A1[j], b[i], c1, bases[j], setup[j][2], tol)
                except np.linalg.LinAlgError as err:
                    out[i] = err
                    continue
                if kept is None:
                    out[i] = LpResult("infeasible")
                elif kept[1].size < m:  # a dropped row: this LP finishes alone
                    out[i] = functools.partial(_phase2, A[i], b[i], c[i], *kept, tol)
                else:
                    phase2[i] = kept[0]
            yield from ready()
    grp = np.array(sorted(phase2), dtype=int)
    if grp.size:
        bases = np.array([phase2[i] for i in grp])
        for done in _rounds(A[grp], b[grp], c[grp], bases, tol):
            opt = [j for j, status in done if status == "optimal"]
            if opt:
                ids = grp[opt]
                for i, res in zip(ids, _optima(A[ids], b[ids], c[ids], bases[opt], tol)):
                    out[i] = res
            for j, status in done:
                if status != "optimal":
                    out[grp[j]] = LpResult("unbounded") if status == "unbounded" else status
            yield from ready()
    yield from ready()


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
