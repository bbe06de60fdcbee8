"""Exact revised simplex for small set-covering LPs, in integer arithmetic.

Solves  min c'w  s.t.  Aw >= 1, w >= 0  where A is the 0/1 vertex-part
incidence matrix.  Costs arrive as integers c~_j over one common denominator
C, so c_j = c~_j / C, and every step of the solve is exact integer arithmetic,
in int64 arrays while a checked bound holds and in Python integers past it;
the optimum, the basic weights and the duals are exact for the given costs.
Pricing may be screened in floating point for speed, but the entering column
is chosen, and optimality certified, by exact reduced costs, so the float
pass can only cost time, never correctness.

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

M and x~ are int64 arrays, and a pivot updates them whole, as
(p M - d~ (x) M_r) // D with row r put back.  Before each pivot the solver
reads t = max(max|M|, max x~) and checks 2 |F| t^2 < 2^63, F the entering
part (|F| = 1 for a surplus column).  As p <= max|d~| <= |F| t, that bounds
p max|M| + max|d~| max|M|, the same for x~, and d~'s own sums, before any of
them is formed.  Once the check fails, ``widen`` makes M and x~ object arrays
of Python integers for the rest of the solve, through the same code.  The
duals y~ stay Python integers.

No test needs a division.  The ratio test compares x~_i / d~_i with
x~_b / d~_b by comparing x~_i d~_b with x~_b d~_i (both d~ are positive), and
column j's reduced cost c_j - y a_j has the sign of c~_j D - sum_{v in j} y~_v.

Pricing.  When the solver has read every cost itself (the caller gave no
screen), it prices every column exactly in int64 while max|c~| D and
n max|y~| stay below 2^62, checked on each iteration's values: then
|c~_j D - y~(F_j)| < 2^63.  The byte tables below, built from y~ as int64,
give every y~(F) exactly.  Dantzig's rule enters the first column of least
exact reduced cost (``argmin``), Bland's rule the first negative one, and the
surplus columns follow as on the band route.  The unit-cost LPs (fractional
chromatic number and vertex arboricity) take this route, and so does the
column-generation master while its costs fit.

Otherwise each iteration screens every column in floating point and then
prices a band of them exactly, skipping basic columns, whose exact reduced
cost is 0.  With r_f the float reduced costs and
E = 1e-9 * (1 + max|c| + sum|y|), the band is the columns with
r_f <= min(min r_f + 2E, E).  While Dantzig's rule runs, the band column of
least exact reduced cost enters, the lowest index among equals; if none is
negative, the lowest surplus column with exact y_v < 0 enters; if there is
none, the basis is optimal.  A column outside the band has
r_f > E or r_f > min r_f + 2E, so once the float error is below E its exact
reduced cost is positive or above that of the band's float minimum: the band
holds every column of least exact reduced cost, and it certifies optimality.
Past ``_BLAND_AFTER`` iterations the lowest-index column with r_f <= E and a
negative exact reduced cost enters instead (Bland's rule), then the lowest
surplus as before.  So the pivot path is a function of exact values only: the
float screen decides how many columns are priced, never which one enters, and
the witness is the same on every machine.  The int64 route makes the same
choice: the band holds every column of least exact reduced cost, so the
band's lowest index among them is the ``argmin`` over all columns; and every
column of negative exact reduced cost has r_f < E, so Bland's rule scans it
on the band route too and finds the same first one.  Which route an
iteration takes changes its cost, never its pivot.

The float error stays far below E.  The screen holds each cost to within
2^-50 relative (c~_j / C in floats, three roundings at most, when the caller
gives none); the duals y~_v / (C D) are correctly rounded; and
y(F) = sum_{v in F} y_v adds at most n floats, so r_f errs by at most
(2^-49 + (n + 2) 2^-53) (1 + max|c| + sum|y|), below E for any n under about
10^6.  The dual sums come from subset-sum tables, one per byte of the
bitmask: entry b of table k is the sum of y over the vertices 8k + 1 .. 8k + 8
whose bits b sets, and y(F) adds one entry per byte of F's mask in byte order.
No float step calls BLAS, whose kernel the host picks at run time; and a
float that rounds differently could only change the band's size, not its
least exact reduced cost.  Given a float screen, the solver reads costs only
where it prices them exactly or they enter a basis, so a lazy sequence
computes only those.

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
from typing import Iterable, Sequence

import numpy as np

from .errors import VerificationError

_SCREEN_TOL = 1e-9
_BLAND_AFTER = 5000  # switch to Bland's rule if Dantzig-style pricing runs long
_INT64_STATE = 2**63  # int64 holds every integer below this: M, x~ and ``int_dtype``'s bound
_INT64_PRICES = _INT64_STATE // 2  # price in int64 while max|c~| D and n max|y~| stay below this

_SURPLUS_BASE = 10**9  # Bland priority offset for surplus columns


def int_dtype(bound: int):
    """The package's one width rule: int64 while ``bound`` < 2^63, else Python ints (``object``)."""
    return np.int64 if bound < _INT64_STATE else object


def widen(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves while ``bound`` fits an int64, else as object arrays of Python ints."""
    return arrays if int_dtype(bound) is np.int64 else tuple(a.astype(object, copy=False) for a in arrays)


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


def _byte_indices(n: int, columns: np.ndarray) -> list[np.ndarray]:
    """Byte k of every bitmask column, the bits of vertices 8k + 1 .. 8k + 8, as uint8."""
    return [(columns >> (8 * k + 1) & 0xFF).astype(np.uint8) for k in range((n + 7) // 8)]


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Row k, entry b: the sum of ``values[8k + i]`` over the set bits i of b.

    Starts from a table [0, v] per bit and joins neighbouring groups of bits
    three times, entry (high, low) of a joined table being the high group's
    entry plus the low group's: the same additions in the same order each time.
    """
    tables = np.zeros((-(-len(values) // 8) * 8, 2), dtype=values.dtype)
    tables[: len(values), 1] = values
    for _ in range(3):
        tables = (tables[1::2, :, None] + tables[0::2, None, :]).reshape(len(tables) // 2, -1)
    return tables


def _dual_sums(tables: np.ndarray, indices: list[np.ndarray]) -> np.ndarray:
    """y(F) for each column F given by its byte ``indices``: one table entry per byte, in byte order."""
    total = np.take(tables[0], indices[0])
    for table, index in zip(tables[1:], indices[1:]):
        total += np.take(table, index)
    return total


@dataclass
class CoverLpResult:
    objective: Fraction
    weights: dict[int, Fraction]  # column index -> positive weight
    duals: tuple[Fraction, ...]
    iterations: int


class CoverLp:
    """Warm-startable exact covering LP.  Surplus column ids are -v (v a vertex).

    ``costs`` are integers over ``denominator``: column j costs
    ``costs[j] / denominator``.  ``screen`` holds each ``costs[j] / denominator``
    to within 2^-50 relative error, as floats.  Given a screen, any integer
    sequence will do for ``costs``: it is read only at the columns the solver
    prices exactly or puts in a basis.  Without one, the solver reads every
    cost, divides it in floating point, and prices in int64 while the costs
    and duals fit (see the module docstring).
    """

    def __init__(
        self,
        n: int,
        columns: np.ndarray | list[int],
        costs: Sequence[int],
        denominator: int = 1,
        screen: np.ndarray | None = None,
    ):
        if len(columns) != len(costs):
            raise ValueError("columns and costs length mismatch")
        if denominator <= 0:
            raise ValueError(f"cost denominator must be positive, got {denominator}")
        self.n = n
        self.columns = np.asarray(columns, dtype=int_dtype(1 << n))
        self.costs = costs
        self.denominator = denominator
        self._int_costs = None  # c~ as int64, when the solver reads every cost and they fit
        if screen is None:
            exact = np.asarray(costs)
            self._top_cost = int(np.abs(exact).max(initial=0))  # max|c~|
            if self._top_cost < _INT64_PRICES:
                self._int_costs = exact.astype(np.int64)
            # numpy divides by a Python int only while it fits an int64
            screen = widen(denominator, exact)[0] / denominator
        self._screen = np.asarray(screen, dtype=np.float64)
        self._max_cost = float(np.abs(self._screen).max(initial=0.0))
        self._bytes = _byte_indices(n, self.columns)
        # the first singleton column of each vertex
        cols, first = self.columns, {}
        for j in np.flatnonzero((cols != 0) & ((cols & (cols - 1)) == 0)).tolist():
            first.setdefault(int(cols[j]).bit_length() - 1, j)
        missing = [v for v in range(1, n + 1) if v not in first]
        if missing:
            raise VerificationError(f"column pool lacks singleton parts for {missing}")
        self.basis = [first[v] for v in range(1, n + 1)]
        self._parts: dict[int, list[int]] = {}  # column -> its vertices' rows, once read
        self.det = 1  # D = det B
        self.adj = np.eye(n, dtype=np.int64)  # M = D B^-1
        self.x = np.ones(n, dtype=np.int64)  # D x_B
        self.y = [self._cost(j) for j in self.basis]  # C D y
        self.iterations = 0

    def add_column(self, column: int, cost: int) -> int:
        """Append a bitmask column costing ``cost / denominator``; the basis stays feasible."""
        self.costs = [*self.costs, cost]  # a new list: the caller's sequence stays as it was
        self.columns = np.append(self.columns, column)
        self._bytes = [
            np.append(b, new) for b, new in zip(self._bytes, _byte_indices(self.n, self.columns[-1:]))
        ]
        cost_f = cost / self.denominator
        self._screen = np.append(self._screen, cost_f)
        self._max_cost = max(self._max_cost, abs(cost_f))
        if self._int_costs is not None:  # the int64 route ends for good once a cost outgrows it
            self._top_cost = max(self._top_cost, abs(cost))
            self._int_costs = np.append(self._int_costs, cost) if self._top_cost < _INT64_PRICES else None
        return len(self.columns) - 1

    @staticmethod
    def _priority(ident: int) -> int:
        return ident if ident >= 0 else _SURPLUS_BASE - ident

    def _cost(self, j: int) -> int:
        """c~_j as a Python int, whatever integer type the cost sequence holds."""
        return int(self.costs[j])

    def _part(self, j: int) -> list[int]:
        """The rows v - 1 of part column j's vertices v, peeled from its mask the first time."""
        part = self._parts.get(j)
        if part is None:
            part = self._parts[j] = [v - 1 for v in members(self.columns[j])]
        return part

    def _reduced(self, j: int) -> int:
        """C D times the exact reduced cost of part column j (``_entering`` prices surplus inline)."""
        y = self.y
        return self._cost(j) * self.det - sum(y[v] for v in self._part(j))

    def _int64_reduced(self) -> np.ndarray | None:
        """C D times every part column's exact reduced cost, in int64, or None if one may not fit."""
        det, y = self.det, self.y
        if (
            self._int_costs is None
            or self._top_cost * det >= _INT64_PRICES
            or self.n * max(map(abs, y)) >= _INT64_PRICES
        ):
            return None
        return self._int_costs * det - _dual_sums(_subset_sums(np.array(y, dtype=np.int64)), self._bytes)

    def _entering(self) -> tuple[int, int] | None:
        """The entering column and its scaled reduced cost, or None at an optimum."""
        y = self.y
        reduced = self._int64_reduced()
        if reduced is not None:  # every column priced exactly
            # Dantzig: the least, the first index among equals; Bland: the first negative
            j = int(reduced.argmin() if self.iterations <= _BLAND_AFTER else (reduced < 0).argmax())
            if reduced[j] < 0:
                return j, int(reduced[j])
        else:
            scale = self.denominator * self.det
            y_f = np.array([v / scale for v in y], dtype=np.float64)
            reduced_f = self._screen - _dual_sums(_subset_sums(y_f), self._bytes)
            # E of the module docstring: every float reduced cost is within E of its exact value
            margin = _SCREEN_TOL * (1.0 + self._max_cost + float(np.abs(y_f).sum()))
            basic = set(self.basis)  # exact reduced cost 0: never enters
            if self.iterations <= _BLAND_AFTER:  # Dantzig's rule, over the band that certifies it
                band = np.flatnonzero(reduced_f <= min(float(reduced_f.min()) + 2 * margin, margin))
                rc, j = min(
                    ((self._reduced(k), k) for k in band.tolist() if k not in basic), default=(0, -1)
                )
                if rc < 0:  # the least exact reduced cost, the lowest index among equals
                    return j, rc
            else:  # Bland's rule: the lowest index with a negative exact reduced cost
                for j in np.flatnonzero(reduced_f <= margin).tolist():
                    if j not in basic:
                        rc = self._reduced(j)
                        if rc < 0:
                            return j, rc
        for v in range(self.n):  # a basic surplus column has y_v = 0
            if y[v] < 0:
                return -(v + 1), y[v]
        return None

    def _pivot(self, entering: int, rc: int) -> None:
        """Bring in column ``entering``, of scaled reduced cost ``rc``, by the ratio test."""
        basis, det = self.basis, self.det
        part = self._part(entering) if entering >= 0 else [-entering - 1]
        if self.adj.dtype != object:  # Python ints for good once a product may leave int64
            top = max(int(np.abs(self.adj).max()), int(self.x.max()))
            self.adj, self.x = widen(2 * len(part) * top * top, self.adj, self.x)
        adj, x = self.adj, self.x
        d = adj[:, part].sum(axis=1) if entering >= 0 else -adj[:, part[0]]
        dl, xl = d.tolist(), x.tolist()
        leave = -1
        for i, di in enumerate(dl):
            if di > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = xl[i] * dl[leave], xl[leave] * di
                if lhs < rhs or (
                    lhs == rhs and self._priority(basis[i]) < self._priority(basis[leave])
                ):
                    leave = i
        if leave < 0:
            raise VerificationError("covering LP reported unbounded; data is inconsistent")
        p, prow = dl[leave], adj[leave]  # a row of the old M: the update makes a new one
        self.adj = (p * adj - np.outer(d, prow)) // det
        self.adj[leave] = prow
        self.x = (p * x - d * xl[leave]) // det
        self.x[leave] = xl[leave]
        self.y = [(p * yv + rc * b) // det for yv, b in zip(self.y, prow.tolist())]
        self.det = p
        basis[leave] = entering

    def _check_basis(self) -> None:
        """B x~ = D 1 with x~ >= 0, and y~ B = D c~_B, exactly."""
        det, x, y = self.det, self.x.tolist(), self.y
        coverage = [0] * self.n
        ok = det > 0 and all(xi >= 0 for xi in x)
        for i, ident in enumerate(self.basis):
            if ident >= 0:
                col = self._part(ident)
                for v in col:
                    coverage[v] += x[i]
                ok = ok and sum(y[v] for v in col) == self._cost(ident) * det
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
        for j, xj in zip(self.basis, self.x.tolist()):
            if j >= 0 and xj > 0:
                weights[j] = Fraction(xj, det)
                total += self._cost(j) * xj
        return CoverLpResult(
            objective=Fraction(total, scale),
            weights=weights,
            duals=tuple(Fraction(v, scale) for v in self.y),
            iterations=self.iterations,
        )


def solve_min_cover_lp(
    n: int,
    columns: np.ndarray | list[int],
    costs: Sequence[int],
    denominator: int = 1,
    screen: np.ndarray | None = None,
) -> CoverLpResult:
    return CoverLp(n, columns, costs, denominator, screen).solve()
