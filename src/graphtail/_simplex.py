"""Exact revised simplex for small set-covering LPs over rational data.

Solves  min c'w  s.t.  Aw >= 1, w >= 0  where A is the 0/1 vertex-part
incidence matrix.  All basis arithmetic is done in Fractions, so the optimum
and the basic weights are exact for the given costs.  Pricing is screened in
floating point for speed, but every entering column is re-priced exactly and
optimality is certified by a final exact sweep, so the float pass can only
cost time, never correctness.

The duals y = c_B B^-1 are built once per ``solve`` and then updated exactly
at each pivot: with q entering at row r, y <- y + rc_q * (row r of the new
B^-1), where rc_q is q's exact reduced cost.  That touches only the nonzeros
of the pivot row and gives the same Fractions as a rebuild from scratch.

The final Bland sweep prices exactly only the columns whose float reduced
cost is at most 1e-9 * (1 + max|c| + sum|y|).  Computing c_j - a_j . y in
doubles from correctly rounded c and y errs by at most about
(n + 2) * 2^-53 * (|c_j| + sum|y|), below that margin for any n under about
10^7, so a column above it has a positive exact reduced cost and the full
sweep would skip it too.  The rest are visited in ascending index, so
the sweep returns the same column, and certifies the same optimum, as an
exact pass over every column.

The column pool must contain every singleton {v}: those columns form the
identity start basis, which makes the covering LP feasible without a phase 1.
``CoverLp`` keeps its basis across ``add_column`` calls, so column generation
re-optimizes in a handful of pivots instead of from scratch.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import VerificationError

_ZERO = Fraction(0)
_ONE = Fraction(1)
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


@dataclass
class CoverLpResult:
    objective: Fraction
    weights: dict[int, Fraction]  # column index -> positive weight
    duals: tuple[Fraction, ...]
    iterations: int


class CoverLp:
    """Warm-startable exact covering LP.  Surplus column ids are -v (v a vertex)."""

    def __init__(self, n: int, columns: list[frozenset[int]], costs: list[Fraction]):
        if len(columns) != len(costs):
            raise ValueError("columns and costs length mismatch")
        self.n = n
        self.columns = list(columns)
        self.costs = list(costs)
        singleton_col: dict[int, int] = {}
        for j, col in enumerate(self.columns):
            if len(col) == 1:
                v = next(iter(col))
                singleton_col.setdefault(v, j)
        if len(singleton_col) != n:
            missing = [v for v in range(1, n + 1) if v not in singleton_col]
            raise VerificationError(f"column pool lacks singleton parts for {missing}")
        self.basis = [singleton_col[v] for v in range(1, n + 1)]
        self.b_inv: list[list[Fraction]] = [
            [_ONE if i == j else _ZERO for j in range(n)] for i in range(n)
        ]
        self.x_b: list[Fraction] = [_ONE] * n
        self.iterations = 0
        self._rebuild_float_view()

    def _rebuild_float_view(self) -> None:
        k = len(self.columns)
        self._incidence = np.zeros((k, self.n), dtype=np.float64)
        for j, col in enumerate(self.columns):
            for v in col:
                self._incidence[j, v - 1] = 1.0
        self._costs_f = np.array([float(c) for c in self.costs], dtype=np.float64)
        self._max_cost = float(np.abs(self._costs_f).max()) if k else 0.0

    def add_column(self, column: frozenset[int], cost: Fraction) -> int:
        """Append a column; the current basis stays feasible."""
        self.columns.append(column)
        self.costs.append(cost)
        self._rebuild_float_view()
        return len(self.columns) - 1

    # column ids: j >= 0 are parts, -v are surplus for vertex v
    def _col_cost(self, ident: int) -> Fraction:
        return self.costs[ident] if ident >= 0 else _ZERO

    @staticmethod
    def _priority(ident: int) -> int:
        return ident if ident >= 0 else _SURPLUS_BASE - ident

    def _duals(self) -> list[Fraction]:
        y = [_ZERO] * self.n
        for i in range(self.n):
            ci = self._col_cost(self.basis[i])
            if ci:
                row = self.b_inv[i]
                for j in range(self.n):
                    if row[j]:
                        y[j] += ci * row[j]
        return y

    def _exact_reduced(self, ident: int, y: list[Fraction]) -> Fraction:
        if ident >= 0:
            return self.costs[ident] - sum(y[v - 1] for v in self.columns[ident])
        return y[-ident - 1]

    def _entering(self, y: list[Fraction]) -> tuple[int, Fraction] | None:
        """The entering column and its exact reduced cost, or None at an optimum."""
        y_f = np.array([float(v) for v in y], dtype=np.float64)
        reduced_f = self._costs_f - self._incidence @ y_f
        if self.iterations <= _BLAND_AFTER:
            for j in _dantzig_candidates(reduced_f, max(8, self.n)).tolist():
                rc = self._exact_reduced(j, y)
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
                rc = self._exact_reduced(j, y)
                if rc < 0:
                    return j, rc
        for v in range(self.n):
            if -(v + 1) not in in_basis and y[v] < 0:
                return -(v + 1), y[v]
        return None

    def solve(self) -> CoverLpResult:
        n = self.n
        y = self._duals()
        while True:
            self.iterations += 1
            found = self._entering(y)
            if found is None:
                break
            entering, rc = found
            if entering >= 0:
                d = [sum(row[v - 1] for v in self.columns[entering]) for row in self.b_inv]
            else:
                d = [-row[-entering - 1] for row in self.b_inv]
            leave = -1
            best: Fraction | None = None
            for i in range(n):
                if d[i] > 0:
                    ratio = self.x_b[i] / d[i]
                    if (
                        best is None
                        or ratio < best
                        or (
                            ratio == best
                            and self._priority(self.basis[i]) < self._priority(self.basis[leave])
                        )
                    ):
                        best, leave = ratio, i
            if leave < 0:
                raise VerificationError("covering LP reported unbounded; data is inconsistent")
            theta = best
            piv = d[leave]
            prow = [val / piv for val in self.b_inv[leave]]
            self.b_inv[leave] = prow
            nonzero = [j for j in range(n) if prow[j]]
            for i in range(n):
                if i != leave and d[i]:
                    di = d[i]
                    row = self.b_inv[i]
                    for j in nonzero:
                        row[j] -= di * prow[j]
                    self.x_b[i] -= di * theta
            self.x_b[leave] = theta
            self.basis[leave] = entering
            for j in nonzero:  # y <- y + rc * (row `leave` of the new inverse)
                y[j] += rc * prow[j]

        weights: dict[int, Fraction] = {}
        for i in range(n):
            if self.basis[i] >= 0 and self.x_b[i] > 0:
                weights[self.basis[i]] = weights.get(self.basis[i], _ZERO) + self.x_b[i]
        objective = sum((self.costs[j] * w for j, w in weights.items()), _ZERO)
        return CoverLpResult(
            objective=objective,
            weights=weights,
            duals=tuple(y),
            iterations=self.iterations,
        )


def solve_min_cover_lp(
    n: int,
    columns: list[frozenset[int]],
    costs: list[Fraction],
) -> CoverLpResult:
    return CoverLp(n, columns, costs).solve()
