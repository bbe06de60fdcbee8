"""Exact revised simplex for small set-covering LPs, in integer arithmetic.

Solves  min c'w  s.t.  Aw >= 1, w >= 0  where A is the 0/1 vertex-part
incidence matrix.  Costs arrive as integers c~_j over one common denominator
C, so c_j = c~_j / C, and every step of the solve works on Python integers;
the optimum, the basic weights and the duals are exact for the given costs.
Pricing is screened in floating point for speed, but every entering column is
re-priced exactly and optimality is certified by a final exact sweep, so the
float pass can only cost time, never correctness.

Integer representation.  For the basis B (its columns are parts a_j and
surplus columns -e_v) the solver keeps D = det B > 0 and the integer matrix
M = D B^-1 = adj(B), so B^-1 = M / D.  The basic solution and the duals
y = c_B B^-1 are kept scaled to integers as well:

    x~ = D x_B = M 1,        y~ = C D y = c~_B M.

The start basis is the identity of singletons: D = 1, M = I, x~ = 1.  With q
entering at row r, d~ = M a_q and pivot p = d~_r > 0, the new basis B' has
det B' = det B * (p / D) = p, and

    M'_r = M_r,    M'_i = (p M_i - d~_i M_r) / D    (i != r),
    x~ the same way,    y~' = (p y~ + rc~_q M_r) / D,

where rc~_q = C D rc_q is q's scaled exact reduced cost.  Every quotient is
exact: the results are adj(B'), adj(B') 1 and c~_B' adj(B'), integers since
B' is an integer matrix with determinant D' = p.  This is Sylvester's identity
behind Bareiss' integer-preserving elimination (Math. Comp. 22, 1968), and it
keeps the numbers as small as a determinant rather than a product of pivots.
``//`` only rounds if that invariant breaks, so ``solve`` checks B x~ = D 1,
x~ >= 0 and y~ B = D c~_B exactly before it returns.

No test needs a division.  The ratio test compares x~_i / d~_i with
x~_b / d~_b by comparing x~_i d~_b with x~_b d~_i (both d~ are positive), and
column j's reduced cost c_j - y a_j has the sign of c~_j D - sum_{v in j} y~_v.

The float view is the one a Fraction solve would see: costs c~_j / C and
duals y~_v / (C D) are computed by int true division, which Python rounds
correctly, as it does ``float(Fraction)``.  So the Dantzig candidates and the
Bland-sweep margin, and therefore the pivot path, do not depend on the scaling.

The duals are updated at each pivot rather than rebuilt, and the final Bland
sweep prices exactly only the columns whose float reduced cost is at most
1e-9 * (1 + max|c| + sum|y|).  Computing c_j - a_j . y in doubles from
correctly rounded c and y errs by at most about
(n + 2) * 2^-53 * (|c_j| + sum|y|), below that margin for any n under about
10^7, so a column above it has a positive exact reduced cost and the full
sweep would skip it too.  The rest are visited in ascending index, so
the sweep returns the same column, and certifies the same optimum, as an
exact pass over every column.

A column is a bitmask with bit v set for each vertex v of its part: an int64
while every bit fits (n < 63), a Python int in an object array past that.
The pool must hold the mask 1 << v of every singleton {v}: those columns
form the identity start basis, which makes the covering LP feasible without
a phase 1.
``CoverLp`` keeps its basis across ``add_column`` calls, so column generation
re-optimizes in a handful of pivots instead of from scratch.  Fractions are
built only for the returned ``CoverLpResult``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import VerificationError

_SCREEN_TOL = 1e-9
_BLAND_AFTER = 5000  # switch to Bland's rule if Dantzig-style pricing runs long

_SURPLUS_BASE = 10**9  # Bland priority offset for surplus columns


def _dantzig_candidates(reduced_f: np.ndarray, k: int) -> np.ndarray:
    """Up to k columns with float reduced cost below -tol, most negative first.

    Ties go to the lower index, so this is the first k of a stable argsort of
    ``reduced_f`` cut at the first value >= -tol, without sorting every column.
    """
    cand = np.flatnonzero(reduced_f < -_SCREEN_TOL)
    vals = reduced_f[cand]
    if len(cand) > k:
        keep = vals <= np.partition(vals, k - 1)[k - 1]
        cand, vals = cand[keep], vals[keep]
    return cand[np.argsort(vals, kind="stable")][:k]


def column_mask(part: Iterable[int]) -> int:
    """The bitmask of a part, bit v set for each vertex v."""
    return sum(1 << v for v in part)


def members(mask: int) -> list[int]:
    """The vertices of a bitmask column, ascending, peeled off one low bit at a time."""
    mask, out = int(mask), []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _incidence(n: int, columns: np.ndarray) -> np.ndarray:
    """The 0/1 part-vertex matrix in float64, one row per bitmask column."""
    return (columns[:, None] >> np.arange(1, n + 1) & 1).astype(np.float64)


@dataclass
class CoverLpResult:
    objective: Fraction
    weights: dict[int, Fraction]  # column index -> positive weight
    duals: tuple[Fraction, ...]
    iterations: int


class CoverLp:
    """Warm-startable exact covering LP.  Surplus column ids are -v (v a vertex).

    ``costs`` are integers over ``denominator``: column j costs
    ``costs[j] / denominator``.
    """

    def __init__(
        self, n: int, columns: np.ndarray | list[int], costs: list[int], denominator: int = 1
    ):
        if len(columns) != len(costs):
            raise ValueError("columns and costs length mismatch")
        if denominator <= 0:
            raise ValueError(f"cost denominator must be positive, got {denominator}")
        self.n = n
        self.columns = np.asarray(columns, dtype=np.int64 if n < 63 else object)
        self.costs = list(costs)
        self.denominator = denominator
        self._incidence = _incidence(n, self.columns)
        # the first singleton column of each vertex
        singles = np.flatnonzero(self._incidence.sum(axis=1) == 1)
        vertex, first = np.unique(np.nonzero(self._incidence[singles])[1], return_index=True)
        if len(vertex) != n:
            missing = [v for v in range(1, n + 1) if v - 1 not in vertex]
            raise VerificationError(f"column pool lacks singleton parts for {missing}")
        self.basis = singles[first].tolist()
        self.det = 1  # D = det B
        self.adj = [[int(i == j) for j in range(n)] for i in range(n)]  # M = D B^-1
        self.x = [1] * n  # D x_B
        self.y = [self.costs[j] for j in self.basis]  # C D y
        self.iterations = 0
        self._costs_f = np.fromiter(
            (c / denominator for c in self.costs), dtype=np.float64, count=len(self.costs)
        )
        self._max_cost = float(np.abs(self._costs_f).max()) if len(self.columns) else 0.0

    def add_column(self, column: int, cost: int) -> int:
        """Append a bitmask column costing ``cost / denominator``; the basis stays feasible."""
        self.columns = np.append(self.columns, column)
        self.costs.append(cost)
        cost_f = cost / self.denominator
        self._incidence = np.vstack((self._incidence, _incidence(self.n, self.columns[-1:])))
        self._costs_f = np.append(self._costs_f, cost_f)
        self._max_cost = max(self._max_cost, abs(cost_f))
        return len(self.columns) - 1

    @staticmethod
    def _priority(ident: int) -> int:
        return ident if ident >= 0 else _SURPLUS_BASE - ident

    def _reduced(self, j: int) -> int:
        """C D times the exact reduced cost of part column j (``_entering`` prices surplus inline)."""
        return self.costs[j] * self.det - sum(self.y[v - 1] for v in members(self.columns[j]))

    def _entering(self) -> tuple[int, int] | None:
        """The entering column and its scaled reduced cost, or None at an optimum."""
        y = self.y
        scale = self.denominator * self.det
        y_f = np.array([v / scale for v in y], dtype=np.float64)
        reduced_f = self._costs_f - self._incidence @ y_f
        if self.iterations <= _BLAND_AFTER:
            for j in _dantzig_candidates(reduced_f, max(8, self.n)).tolist():
                rc = self._reduced(j)
                if rc < 0:
                    return j, rc
            for v in range(self.n):
                if y_f[v] < -_SCREEN_TOL and y[v] < 0:
                    return -(v + 1), y[v]
        # exact sweep, Bland order: certifies optimality when nothing is found.
        # Columns whose float reduced cost exceeds the margin are provably
        # positive, so only the rest are priced exactly.
        margin = _SCREEN_TOL * (1.0 + self._max_cost + float(np.abs(y_f).sum()))
        in_basis = set(self.basis)
        for j in np.flatnonzero(reduced_f <= margin).tolist():
            if j not in in_basis:
                rc = self._reduced(j)
                if rc < 0:
                    return j, rc
        for v in range(self.n):
            if -(v + 1) not in in_basis and y[v] < 0:
                return -(v + 1), y[v]
        return None

    def _pivot(self, entering: int, rc: int) -> None:
        """Bring in column ``entering``, of scaled reduced cost ``rc``, by the ratio test."""
        adj, x, basis, det = self.adj, self.x, self.basis, self.det
        if entering >= 0:
            part = [v - 1 for v in members(self.columns[entering])]
            d = [sum(row[v] for v in part) for row in adj]
        else:
            d = [-row[-entering - 1] for row in adj]
        leave = -1
        for i, di in enumerate(d):
            if di > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = x[i] * d[leave], x[leave] * di
                if lhs < rhs or (
                    lhs == rhs and self._priority(basis[i]) < self._priority(basis[leave])
                ):
                    leave = i
        if leave < 0:
            raise VerificationError("covering LP reported unbounded; data is inconsistent")
        p, prow, xr = d[leave], adj[leave], x[leave]
        for i, di in enumerate(d):
            if i == leave:
                continue
            if di:
                adj[i] = [(p * a - di * b) // det for a, b in zip(adj[i], prow)]
                x[i] = (p * x[i] - di * xr) // det
            elif p != det:
                adj[i] = [p * a // det for a in adj[i]]
                x[i] = p * x[i] // det
        self.y = [(p * yv + rc * b) // det for yv, b in zip(self.y, prow)]
        self.det = p
        basis[leave] = entering

    def _check_basis(self) -> None:
        """B x~ = D 1 with x~ >= 0, and y~ B = D c~_B, exactly."""
        det, x, y = self.det, self.x, self.y
        coverage = [0] * self.n
        ok = det > 0 and all(xi >= 0 for xi in x)
        for i, ident in enumerate(self.basis):
            if ident >= 0:
                col = members(self.columns[ident])
                for v in col:
                    coverage[v - 1] += x[i]
                ok = ok and sum(y[v - 1] for v in col) == self.costs[ident] * det
            else:
                coverage[-ident - 1] -= x[i]
                ok = ok and y[-ident - 1] == 0
        if not ok or any(c != det for c in coverage):
            raise VerificationError("exact basis check failed: B x = 1 or y B = c_B does not hold")

    def solve(self) -> CoverLpResult:
        while True:
            self.iterations += 1
            found = self._entering()
            if found is None:
                break
            self._pivot(*found)
        self._check_basis()
        det, scale = self.det, self.denominator * self.det
        weights: dict[int, Fraction] = {}
        total = 0
        for j, xj in zip(self.basis, self.x):
            if j >= 0 and xj > 0:
                weights[j] = Fraction(xj, det)
                total += self.costs[j] * xj
        return CoverLpResult(
            objective=Fraction(total, scale),
            weights=weights,
            duals=tuple(Fraction(v, scale) for v in self.y),
            iterations=self.iterations,
        )


def solve_min_cover_lp(
    n: int, columns: np.ndarray | list[int], costs: list[int], denominator: int = 1
) -> CoverLpResult:
    return CoverLp(n, columns, costs, denominator).solve()
