import functools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtail._simplex as simplexmod
from conftest import decoded, encoded, lp_cover_oracle, over_common_denominator, sqrt_fraction
from graphtail._simplex import CoverLp, CoverLpResult, column_mask, int_dtype, solve_min_cover_lp, widen
from graphtail.covers import (
    enumerate_independent_sets,
    enumerate_induced_forests,
    lipschitz_profile,
    part_cost_radicand,
)
from graphtail.errors import VerificationError
from graphtail.graph import build_graph


class TestWidthRule:
    """``int_dtype`` and ``widen`` at the one bound, 2^63."""

    @pytest.mark.parametrize("bound, dtype", [(0, np.int64), (2**63 - 1, np.int64), (2**63, object)])
    def test_int64_iff_the_bound_fits(self, bound, dtype):
        assert int_dtype(bound) is dtype

    @pytest.mark.parametrize("bound", [2**63 - 1, 2**63])
    def test_widen_makes_python_ints_only_at_the_bound(self, bound):
        a, b = np.arange(3, dtype=np.int64), np.array([7, 2**62], dtype=object)
        got = widen(bound, a, b)
        assert len(got) == 2 and got[1] is b  # an object array is never copied
        if bound < 2**63:
            assert got[0] is a
        else:
            assert got[0].dtype == object and all(type(v) is int for v in got[0])
            assert got[0].tolist() == [0, 1, 2] and a.dtype == np.int64  # the input is left as it was


def random_instance(rng, n=None, extra=None):
    n = n if n is not None else rng.randint(1, 10)
    extra = extra if extra is not None else rng.randint(0, 25)
    columns = [frozenset({v}) for v in range(1, n + 1)]
    for _ in range(extra):
        size = rng.randint(1, n)
        columns.append(frozenset(rng.sample(range(1, n + 1), size)))
    costs = [F(rng.randint(1, 20), rng.randint(1, 6)) for _ in columns]
    return n, columns, costs


class TestExactness:
    def test_strong_duality_certificate_on_random_instances(self):
        """Primal value == dual value exactly, with both sides feasible.

        This certifies true optimality of every solve without reference to
        any other solver: coverage >= 1 and weights >= 0 (primal), y >= 0 and
        y'A_j <= c_j for every column (dual), objective == 1'y (equality).
        """
        rng = random.Random(271828)
        for _ in range(60):
            n, columns, costs = random_instance(rng)
            res = solve_min_cover_lp(n, encoded(columns), *over_common_denominator(costs))
            coverage = {v: F(0) for v in range(1, n + 1)}
            for j, w in res.weights.items():
                assert w > 0
                for v in columns[j]:
                    coverage[v] += w
            assert all(coverage[v] >= 1 for v in coverage)
            assert all(y >= 0 for y in res.duals)
            for j, col in enumerate(columns):
                assert sum(res.duals[v - 1] for v in col) <= costs[j]
            assert sum(res.duals) == res.objective

    def test_matches_float_oracle(self):
        rng = random.Random(314159)
        for _ in range(25):
            n, columns, costs = random_instance(rng)
            res = solve_min_cover_lp(n, encoded(columns), *over_common_denominator(costs))
            oracle = lp_cover_oracle(n, columns, [float(c) for c in costs])
            assert math.isclose(float(res.objective), oracle, rel_tol=1e-9, abs_tol=1e-9)

    def test_zero_cost_columns(self):
        res = solve_min_cover_lp(
            2, encoded([frozenset({1}), frozenset({2}), frozenset({1, 2})]), [1, 1, 0]
        )
        assert res.objective == 0

    def test_missing_singletons_rejected(self):
        with pytest.raises(VerificationError, match="singleton"):
            solve_min_cover_lp(2, encoded([frozenset({1})]), [1])


class TestWarmStart:
    def test_incremental_equals_from_scratch(self):
        rng = random.Random(161803)
        for _ in range(15):
            n, columns, costs = random_instance(rng, extra=rng.randint(5, 15))
            base = n  # singleton prefix
            nums, den = over_common_denominator(costs)
            masks = encoded(columns)
            lp = CoverLp(n, masks[:base], nums[:base], den)
            lp.solve()
            for j in range(base, len(columns)):
                lp.add_column(masks[j], nums[j])
            warm = lp.solve()
            cold = solve_min_cover_lp(n, masks, nums, den)
            assert warm.objective == cold.objective
            # the warm path must spend far fewer pivots than re-solving cold
            assert warm.iterations <= cold.iterations + len(columns)

    def test_adding_a_useless_column_is_free(self):
        n, columns, costs = 3, [frozenset({1}), frozenset({2}), frozenset({3})], [1] * 3
        lp = CoverLp(n, encoded(columns), costs)
        first = lp.solve()
        lp.add_column(column_mask(frozenset({1, 2})), 5)  # dominated: never enters
        second = lp.solve()
        assert second.objective == first.objective == 3


    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_add_column_to_a_cost_array(self, dtype):
        """The costs become a list, and the warm solve matches a cold one."""
        masks = encoded([frozenset({1}), frozenset({2}), frozenset({1, 2})])
        lp = CoverLp(2, masks[:2], np.array([2, 2], dtype=dtype))
        assert lp.solve().objective == 4
        lp.add_column(masks[2], 3)
        assert lp.costs == [2, 2, 3]
        warm, cold = lp.solve(), CoverLp(2, masks, [2, 2, 3]).solve()
        assert (warm.objective, warm.weights, warm.duals) == (cold.objective, cold.weights, cold.duals)
        assert warm.objective == 3

    def test_add_column_leaves_the_callers_costs_alone(self):
        masks = encoded([frozenset({1}), frozenset({2}), frozenset({1, 2})])
        for screen in (None, np.array([2.0, 2.0])):
            costs = [2, 2]
            lp = CoverLp(2, masks[:2], costs, 1, screen)
            lp.add_column(masks[2], 3)
            assert costs == [2, 2]
            assert lp.costs == [2, 2, 3]


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, [0b010, 0b100], [1]), "columns and costs length mismatch"),
            ((2, [0b010, 0b100], [1, 1], 0), "cost denominator must be positive, got 0"),
        ],
    )
    def test_inconsistent_pools_are_refused(self, args, message):
        with pytest.raises(ValueError) as exc:
            CoverLp(*args)
        assert str(exc.value) == message

    def test_a_pivot_with_no_positive_entry_is_a_certification_failure(self):
        # a surplus column entering the identity basis has direction -e_v: the
        # ratio test finds no leaving row, which an LP with coverage >= 1 never meets
        lp = CoverLp(2, [0b010, 0b100], [1, 1])
        with pytest.raises(VerificationError, match="unbounded"):
            lp._pivot(-1, -1)


class ReferenceLp:
    """The plain exact Fraction solve loop, as the reference for ``CoverLp``'s pivot path.

    A standalone copy of the Fraction simplex that ``CoverLp`` replaced: B^-1,
    x_B and the costs are Fractions, duals are rebuilt from scratch each
    iteration, and pricing is exact over every column, with no float screen:
    Dantzig's rule takes the least reduced cost and Bland's the lowest index
    with a negative one.  It shares only ``_BLAND_AFTER`` with ``CoverLp``.
    """

    SURPLUS_BASE = 10**9

    def __init__(self, n, columns, costs):
        self.n = n
        self.columns = list(columns)
        self.costs = list(costs)
        singleton_col = {}
        for j, col in enumerate(self.columns):
            if len(col) == 1:
                singleton_col.setdefault(next(iter(col)), j)
        self.basis = [singleton_col[v] for v in range(1, n + 1)]
        self.b_inv = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        self.x_b = [F(1)] * n
        self.iterations = 0

    def add_column(self, column, cost):
        self.columns.append(column)
        self.costs.append(cost)
        return len(self.columns) - 1

    def _priority(self, ident):
        return ident if ident >= 0 else self.SURPLUS_BASE - ident

    def _duals(self):
        y = [F(0)] * self.n
        for i, ident in enumerate(self.basis):
            ci = self.costs[ident] if ident >= 0 else F(0)
            for j in range(self.n):
                y[j] += ci * self.b_inv[i][j]
        return y

    def _exact_reduced(self, ident, y):
        if ident >= 0:
            return self.costs[ident] - sum(y[v - 1] for v in self.columns[ident])
        return y[-ident - 1]

    def _entering(self, y):
        parts = range(len(self.columns))
        if self.iterations <= simplexmod._BLAND_AFTER:
            # Dantzig: the least exact reduced cost, lowest index among equals
            best = min(parts, key=lambda j: (self._exact_reduced(j, y), j))
            if self._exact_reduced(best, y) < 0:
                return best
        else:
            for j in parts:
                if j not in self.basis and self._exact_reduced(j, y) < 0:
                    return j
        for v in range(self.n):
            if -(v + 1) not in self.basis and y[v] < 0:
                return -(v + 1)
        return None

    def _col_vec(self, ident):
        vec = [F(0)] * self.n
        if ident >= 0:
            for v in self.columns[ident]:
                vec[v - 1] = F(1)
        else:
            vec[-ident - 1] = F(-1)
        return vec

    def solve(self):
        n = self.n
        while True:
            self.iterations += 1
            y = self._duals()
            entering = self._entering(y)
            if entering is None:
                break
            a_j = self._col_vec(entering)
            d = [sum(self.b_inv[i][j] * a_j[j] for j in range(n) if a_j[j]) for i in range(n)]
            leave, best = -1, None
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
            theta, piv = best, d[leave]
            self.b_inv[leave] = [val / piv for val in self.b_inv[leave]]
            for i in range(n):
                if i != leave and d[i]:
                    di, row, prow = d[i], self.b_inv[i], self.b_inv[leave]
                    self.b_inv[i] = [row[j] - di * prow[j] for j in range(n)]
                    self.x_b[i] -= di * theta
            self.x_b[leave] = theta
            self.basis[leave] = entering
        weights = {}
        for i in range(n):
            if self.basis[i] >= 0 and self.x_b[i] > 0:
                weights[self.basis[i]] = weights.get(self.basis[i], F(0)) + self.x_b[i]
        objective = sum((self.costs[j] * w for j, w in weights.items()), F(0))
        return CoverLpResult(objective, weights, tuple(self._duals()), self.iterations)


def scaled_lp(n, columns, costs):
    """``CoverLp`` on rational costs, put over their least common denominator."""
    return CoverLp(n, encoded(columns), *over_common_denominator(costs))


def basis_matrix(n, basis, columns):
    """B as Fractions: column i is basic column i, a part or a surplus column -e_v."""
    b = [[F(0)] * n for _ in range(n)]
    for i, ident in enumerate(basis):
        if ident >= 0:
            for v in columns[ident]:
                b[v - 1][i] = F(1)
        else:
            b[-ident - 1][i] = F(-1)
    return b


def basis_duals(basis, columns, costs):
    """y with y B = c_B for the final basis, by exact Gauss-Jordan on B^T."""
    n = len(basis)
    rows = []
    for ident in basis:  # row i of B^T is basic column i
        if ident >= 0:
            row = [F(1) if v in columns[ident] else F(0) for v in range(1, n + 1)]
            rows.append(row + [costs[ident]])
        else:
            rows.append([F(-1) if v == -ident else F(0) for v in range(1, n + 1)] + [F(0)])
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return tuple(rows[v][n] for v in range(n))


def det_and_inverse(b):
    """(det B, B^-1) by exact Gauss-Jordan with row swaps."""
    n = len(b)
    rows = [row[:] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(b)]
    det = F(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * e for a, e in zip(rows[r], rows[c])]
    return det, [row[n:] for row in rows]


def forest_pool(rng, n):
    """The induced forests of a random graph with 128-bit sqrt part costs."""
    g = build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                        if rng.random() < 0.35])
    profile = lipschitz_profile([F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)])
    columns = decoded(enumerate_induced_forests(g))
    return columns, [sqrt_fraction(part_cost_radicand(g, p, profile)) for p in columns]


def near_tie_pool(rng, n):
    """Random parts whose costs sit 2^-120 above or below their dual price.

    Float pricing cannot tell these columns from zero reduced cost, so only
    the exact sweep can decide whether they enter.
    """
    n, columns, costs = random_instance(rng, n=n, extra=rng.randint(10, 30))
    costs = [sqrt_fraction(F(c)) for c in costs]
    duals = ReferenceLp(n, columns, costs).solve().duals
    for _ in range(6):
        part = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n)))
        price = sum(duals[v - 1] for v in part)
        if price == 0:
            continue  # a negative cost would make the LP unbounded
        columns.append(part)
        costs.append(price + rng.choice((-1, 1)) * F(1, 2**120))
        columns.append(part)
        costs.append(costs[-1] + F(1, 2**120))
    return n, columns, costs


def oracle_pools():
    rng = random.Random(20070601)
    for k in range(12):
        n, columns, costs = random_instance(rng, n=rng.randint(3, 9), extra=rng.randint(10, 40))
        yield f"unit-{k}", n, columns, [F(1)] * len(columns)
    for k in range(6):
        n = rng.randint(4, 9)
        yield f"forest-sqrt-{k}", n, *forest_pool(rng, n)
    for k in range(10):
        yield f"near-tie-{k}", *near_tie_pool(rng, rng.randint(3, 8))


POOLS = list(oracle_pools())


@st.composite
def near_tie_pools(draw):
    """A random pool plus columns priced 2^-120 off, or exactly at, its optimal duals."""
    n = draw(st.integers(2, 7))
    parts = st.frozensets(st.integers(1, n), min_size=2)
    columns = [frozenset({v}) for v in range(1, n + 1)] + draw(st.lists(parts, max_size=20))
    costs = [F(draw(st.integers(1, 20)), draw(st.integers(1, 6))) for _ in columns]
    duals = ReferenceLp(n, columns, costs).solve().duals
    for part in draw(st.lists(parts, min_size=1, max_size=6)):
        price = sum(duals[v - 1] for v in part)
        if price > 0:  # a negative cost would make the LP unbounded
            columns.append(part)
            costs.append(price + draw(st.sampled_from((-1, 0, 1))) * F(1, 2**120))
    return n, columns, costs


class TestDualSums:
    @pytest.mark.parametrize("n", [1, 8, 9, 25, 64])
    def test_byte_tables_match_a_fraction_loop(self, n):
        """Float sums stay within the pricing error bound of the exact ones.

        n = 25 is the enumeration's vertex limit; n = 64 has masks past an int64.
        """
        rng = random.Random(n)
        columns = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(2000)]
        masks = encoded(columns)
        assert decoded(masks) == columns
        indices = simplexmod._byte_indices(n, masks)
        y = [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
        exact = [sum((y[v - 1] for v in col), F(0)) for col in columns]
        tables = simplexmod._subset_sums(np.array([float(v) for v in y]))
        bound = (n + 1) * 2.0**-53 * float(sum(abs(v) for v in y))
        for got, want in zip(simplexmod._dual_sums(tables, indices).tolist(), exact):
            assert abs(F(got) - want) <= bound

    @pytest.mark.parametrize("n", [9, 25, 64])
    def test_python_int_tables_are_exact(self, n):
        """Past int64 the exact route sums duals of Python ints through the same tables."""
        rng = random.Random(n)
        columns = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(500)]
        masks = encoded(columns)
        y = [rng.choice((-1, 1)) * rng.randint(2**63, 2**70) for _ in range(n)]
        tables = simplexmod._subset_sums(np.array(y, dtype=object))
        got = simplexmod._dual_sums(tables, simplexmod._byte_indices(n, masks))
        assert got.dtype == object
        assert got.tolist() == [sum(y[v - 1] for v in col) for col in columns]


class TestRouteViews:
    def test_start_basis_takes_the_first_singleton_of_each_vertex(self):
        columns = [{1, 2}, {2}, {3}, {1}, {2}, {1}]
        assert CoverLp(3, encoded(columns), [1] * 6).basis == [3, 1, 2]

    def test_a_denominator_past_int64_solves_exactly_without_a_screen(self):
        lp = CoverLp(2, [0b010, 0b100], np.array([3, 5], dtype=np.int64), 10**20)
        assert lp._screen is None
        assert lp.solve().objective == F(8, 10**20)

    def test_add_column_appends_what_a_fresh_build_has(self):
        rng = random.Random(12)
        n, columns, costs = random_instance(rng, n=6, extra=20)
        nums, den = over_common_denominator(costs)
        masks = encoded(columns)
        grown = CoverLp(n, masks[:n], nums[:n], den)
        for col, num in zip(masks[n:], nums[n:]):
            grown.add_column(col, num)
        fresh = CoverLp(n, masks, nums, den)
        assert len(grown._bytes) == len(fresh._bytes) == 1
        assert np.array_equal(grown._bytes[0], fresh._bytes[0])
        assert grown._bytes[0].dtype == np.uint8
        assert grown.costs == fresh.costs == nums
        assert grown._top_cost == fresh._top_cost == max(nums)
        assert grown._exact_costs.dtype == np.int64
        assert grown._exact_costs.tolist() == fresh._exact_costs.tolist() == nums

    def test_a_pool_grown_past_the_int64_cost_bound_prices_in_python_ints(self):
        masks = encoded([frozenset({1}), frozenset({2}), frozenset({3}), frozenset({1, 2}), frozenset({1, 2, 3})])
        costs = [3, 3, 3, 4, 2**64]
        lp = CoverLp(3, masks[:3], costs[:3])
        assert lp._exact_costs.dtype == np.int64
        for mask, cost in zip(masks[3:], costs[3:]):
            lp.add_column(mask, cost)
        fresh = CoverLp(3, masks, costs)
        assert lp._exact_costs.dtype == fresh._exact_costs.dtype == object
        assert lp._exact_costs.tolist() == fresh._exact_costs.tolist() == costs
        log = logged_routes(lp)
        assert lp.solve() == fresh.solve()
        assert lp.solve().objective == 7 and lp.basis == fresh.basis
        assert log and not any(int64 for int64, _ in log)

    def test_a_screened_lp_never_builds_the_exact_costs(self):
        lp = CoverLp(2, [0b010, 0b100, 0b110], [1, 1, 1], 1, np.array([1.0, 1.0, 1.0]))
        assert lp._exact_costs is None
        log = logged_routes(lp)
        assert lp.solve().objective == 1
        assert log == []


class TestPivotPathOracle:
    """Same pivots, basis, weights and duals as the from-scratch reference loop."""

    @staticmethod
    def assert_same(lp, ref, res, expected):
        assert res.weights == expected.weights
        assert res.duals == expected.duals
        assert res.objective == expected.objective
        assert res.iterations == expected.iterations
        assert lp.basis == ref.basis
        assert res.duals == basis_duals(lp.basis, ref.columns, ref.costs)

    @pytest.mark.parametrize("bland_after", [simplexmod._BLAND_AFTER, 0])
    @pytest.mark.parametrize("name, n, columns, costs", POOLS, ids=[p[0] for p in POOLS])
    def test_cold_solve(self, name, n, columns, costs, bland_after, monkeypatch):
        monkeypatch.setattr(simplexmod, "_BLAND_AFTER", bland_after)
        lp, ref = scaled_lp(n, columns, costs), ReferenceLp(n, columns, costs)
        self.assert_same(lp, ref, lp.solve(), ref.solve())

    @staticmethod
    def check_warm_starts(name, n, columns, costs):
        rng = random.Random(name)
        nums, den = over_common_denominator(costs)
        order = [j for j, col in enumerate(columns) if len(col) > 1]
        rng.shuffle(order)
        start = [j for j, col in enumerate(columns) if len(col) == 1] + order[: len(order) // 3]
        masks = encoded(columns)
        lp = CoverLp(n, masks[start], [nums[j] for j in start], den)
        ref = ReferenceLp(n, [columns[j] for j in start], [costs[j] for j in start])
        TestPivotPathOracle.assert_same(lp, ref, lp.solve(), ref.solve())
        rest = order[len(order) // 3 :]
        for batch in (rest[: len(rest) // 2], rest[len(rest) // 2 :]):
            for j in batch:
                assert lp.add_column(masks[j], nums[j]) == ref.add_column(columns[j], costs[j])
            TestPivotPathOracle.assert_same(lp, ref, lp.solve(), ref.solve())

    @pytest.mark.parametrize("name, n, columns, costs", POOLS, ids=[p[0] for p in POOLS])
    def test_warm_starts_after_add_column(self, name, n, columns, costs):
        self.check_warm_starts(name, n, columns, costs)

    @pytest.mark.parametrize("n, dtype", [(62, np.int64), (63, object), (64, object)])
    def test_columns_are_int64_while_bit_n_fits(self, n, dtype):
        """Vertex n's bit is 1 << n: int64 masks through n = 62, an object array of Python ints past it."""
        rng = random.Random(n)
        columns = [frozenset({v}) for v in range(1, n + 1)] + [frozenset({1, n}), frozenset({n - 1, n})]
        columns += [frozenset(rng.sample(range(1, n + 1), rng.randint(2, 6))) for _ in range(12)]
        costs = [F(rng.randint(1, 20), rng.randint(1, 6)) for _ in columns]
        given = np.array([column_mask(col) for col in columns], dtype=object)
        lp = CoverLp(n, given, *over_common_denominator(costs))
        assert lp.columns.dtype == dtype and lp.columns.tolist() == given.tolist()
        self.check_warm_starts(f"n{n}", n, columns, costs)

    def test_near_ties_are_decided_exactly(self):
        """A column 2^-120 below its dual price must still enter."""
        n, columns, scale = 3, [frozenset({v}) for v in (1, 2, 3)], 2**120
        lp = CoverLp(n, encoded(columns), [scale] * 3, scale)
        assert lp.solve().objective == 3
        lp.add_column(column_mask(frozenset({1, 2, 3})), 3 * scale + 1)
        assert lp.solve().objective == 3
        lp.add_column(column_mask(frozenset({1, 2})), 2 * scale - 1)
        res = lp.solve()
        assert res.objective == 3 - F(1, 2**120)
        assert res.weights == {4: F(1), 2: F(1)}

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pool=near_tie_pools(), bland=st.booleans())
    def test_random_near_tie_pools(self, pool, bland):
        """Random pools with columns 2^-120 off their dual price, cold and warm."""
        n, columns, costs = pool
        with mock.patch.object(simplexmod, "_BLAND_AFTER", 0 if bland else simplexmod._BLAND_AFTER):
            lp, ref = scaled_lp(n, columns, costs), ReferenceLp(n, columns, costs)
            self.assert_same(lp, ref, lp.solve(), ref.solve())
            self.check_warm_starts(repr(pool), n, columns, costs)


class TestPricingIsExact:
    """The entering column is a function of exact reduced costs, never of float rounding."""

    @staticmethod
    def solve_wobbled(n, columns, costs, seed):
        """``CoverLp`` with its screen costs and float dual sums off by up to 2^-40 relative."""
        rng = np.random.default_rng(seed)

        def wobble(values):
            return values * (1 + rng.uniform(-(2.0**-40), 2.0**-40, len(values)))

        dual_sums, calls = simplexmod._dual_sums, []

        def wobbled_sums(tables, indices):
            calls.append(1)
            return wobble(dual_sums(tables, indices))

        nums, den = over_common_denominator(costs)
        with mock.patch.object(simplexmod, "_dual_sums", wobbled_sums):
            lp = CoverLp(n, encoded(columns), nums, den, wobble(np.array([c / den for c in nums])))
            res = lp.solve()
        # a screened LP prices every pass on its (wobbled) screen
        assert len(calls) == res.iterations
        return lp, res

    @pytest.mark.parametrize("bland_after", [simplexmod._BLAND_AFTER, 0])
    @pytest.mark.parametrize("name, n, columns, costs", POOLS, ids=[p[0] for p in POOLS])
    def test_screen_errors_keep_the_pivot_path(self, name, n, columns, costs, bland_after, monkeypatch):
        monkeypatch.setattr(simplexmod, "_BLAND_AFTER", bland_after)
        lp = scaled_lp(n, columns, costs)
        expected = lp.solve()
        for seed in range(3):
            wobbled, res = self.solve_wobbled(n, columns, costs, seed)
            assert wobbled.basis == lp.basis
            assert res == expected  # weights, duals, objective and iterations

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pool=near_tie_pools(), seed=st.integers(0, 2**32 - 1))
    def test_screen_errors_keep_the_path_on_near_ties(self, pool, seed):
        n, columns, costs = pool
        lp = scaled_lp(n, columns, costs)
        expected = lp.solve()
        wobbled, res = self.solve_wobbled(n, columns, costs, seed)
        assert wobbled.basis == lp.basis
        assert res == expected


class InvariantCheckedLp(CoverLp):
    """``CoverLp`` that checks its integer state against B before each pricing.

    Pricing runs once per iteration, so this sees the start basis and the
    state after every pivot.
    """

    checked = 0

    def _entering(self):
        b = basis_matrix(self.n, self.basis, decoded(self.columns))
        det, inverse = det_and_inverse(b)
        assert self.det == det
        adj = self.adj.tolist()
        assert adj == [[det * v for v in row] for row in inverse]
        assert self.x.tolist() == [sum(row) for row in adj]
        c_b = [self.costs[j] if j >= 0 else 0 for j in self.basis]
        assert self.y == [sum(c * row[v] for c, row in zip(c_b, adj)) for v in range(self.n)]
        InvariantCheckedLp.checked += 1
        return super()._entering()


class TestBareissInvariant:
    @pytest.mark.parametrize("name, n, columns, costs", POOLS, ids=[p[0] for p in POOLS])
    def test_adjugate_and_determinant_after_each_pivot(self, name, n, columns, costs):
        """D = det B and M = D B^-1 hold exactly at every basis the solve visits."""
        InvariantCheckedLp.checked = 0
        lp = InvariantCheckedLp(n, encoded(columns), *over_common_denominator(costs))
        res = lp.solve()
        assert InvariantCheckedLp.checked == res.iterations
        assert res == ReferenceLp(n, columns, costs).solve()

    @pytest.mark.parametrize("field, value", [("x", 2), ("y", 0), ("det", 2)])
    def test_a_broken_invariant_raises(self, field, value):
        """The exact basis check catches a state off B x = 1, y B = c_B or D = det B."""
        lp = CoverLp(2, encoded([frozenset({1}), frozenset({2})]), [1, 1])
        if field == "det":
            lp.det = value
        else:
            getattr(lp, field)[0] = value
        with pytest.raises(VerificationError, match="exact basis check"):
            lp.solve()


def logged_routes(lp):
    """Log each exact pricing pass of ``lp``: (priced in int64, M and x~ held as Python ints)."""
    log, price = [], lp._all_reduced

    def logged():
        reduced = price()
        assert reduced.dtype in (np.int64, object)  # an unscreened LP computes no float
        log.append((reduced.dtype == np.int64, lp.adj.dtype == object))
        return reduced

    lp._all_reduced = logged
    return log


def screened(lp):
    """The same LP as ``lp``, given its costs in floats as a screen."""
    screen = np.array([int(c) / lp.denominator for c in lp.costs])
    return CoverLp(lp.n, lp.columns, lp.costs, lp.denominator, screen)


def g16_unit_lp(family):
    """The unit-cost LP over ``family``'s columns of ``tests/data/g16_0.json``."""
    data = json.loads((Path(__file__).resolve().parent / "data" / "g16_0.json").read_text())
    g = build_graph(data["n"], [tuple(e) for e in data["edges"]])
    columns = family(g)
    return CoverLp(g.n, columns, np.ones(len(columns), dtype=np.int64))


G16_FAMILIES = [enumerate_independent_sets, enumerate_induced_forests]
# priced in int64, unlike POOLS' non-unit costs: small integers over a denominator up to 60,
# and a column whose cost alone nears the int64 bound of c~ D
INT64_POOLS = [(f"small-cost-{k}", *random_instance(random.Random(k), n=9, extra=40)) for k in range(3)]
INT64_POOLS.append(("costly-column", 3, [{1}, {2}, {3}, {1, 2}, {1, 2, 3}], [1, 1, 1, 2**58, 2]))


class TestInt64Route:
    """Both routes pivot alike, and so does an unscreened LP in int64 or in Python ints."""

    @staticmethod
    def solve_logged(make_lp, state=simplexmod._INT64_STATE):
        with mock.patch.object(simplexmod, "_INT64_STATE", state):
            lp = make_lp()
            log = logged_routes(lp)
            return lp, lp.solve(), log

    def assert_routes_alike(self, make_lp):
        """Priced exactly on every pass without a screen, never with one; same result and basis."""
        lp, res, log = self.solve_logged(make_lp)
        assert len(log) == res.iterations
        screened_lp, expected, screened_log = self.solve_logged(lambda: screened(make_lp()))
        assert screened_log == []
        assert (res, lp.basis) == (expected, screened_lp.basis)
        return log

    @pytest.mark.parametrize("bland_after", [simplexmod._BLAND_AFTER, 0])
    @pytest.mark.parametrize("name, n, columns, costs", POOLS + INT64_POOLS, ids=[p[0] for p in POOLS + INT64_POOLS])
    def test_both_routes_pivot_alike_on_the_pools(self, name, n, columns, costs, bland_after, monkeypatch):
        monkeypatch.setattr(simplexmod, "_BLAND_AFTER", bland_after)
        log = self.assert_routes_alike(lambda: scaled_lp(n, columns, costs))
        # the unit and small-cost pools price in int64; the roots and 2^-120 offsets do not fit
        assert [int64 for int64, _ in log] == [not name.startswith(("forest", "near-tie"))] * len(log)

    @pytest.mark.parametrize("bland_after", [simplexmod._BLAND_AFTER, 0])
    @pytest.mark.parametrize("family", G16_FAMILIES, ids=["chi-f", "arboricity"])
    def test_both_routes_pivot_alike_on_g16(self, family, bland_after, monkeypatch):
        monkeypatch.setattr(simplexmod, "_BLAND_AFTER", bland_after)
        log = self.assert_routes_alike(lambda: g16_unit_lp(family))
        assert all(int64 for int64, _ in log)

    @pytest.mark.parametrize("shift", [20, 40, 60])
    @pytest.mark.parametrize(
        "make_lp",
        [lambda p=p: scaled_lp(*p[1:]) for p in POOLS + INT64_POOLS]
        + [lambda f=f: g16_unit_lp(f) for f in G16_FAMILIES],
        ids=[p[0] for p in POOLS + INT64_POOLS] + ["g16-chi-f", "g16-arboricity"],
    )
    def test_a_scaled_state_past_int64_solves_alike(self, make_lp, shift):
        """The width rule at its real bound.

        Each pivot's update is homogeneous: from D, M, x~ and y~ all times
        2^shift it reaches the usual next state times 2^shift, so the solve
        takes the same path to the same result.  From 2^40 on, the pivot
        products and the dual sums outgrow int64, and only ``int_dtype``
        keeps them exact.
        """
        lp = make_lp()
        expected = lp.solve()
        scaled, s = make_lp(), 2**shift
        scaled.det, scaled.adj, scaled.x = s, scaled.adj * s, scaled.x * s
        scaled.y = [s * v for v in scaled.y]
        assert (scaled.solve(), scaled.basis) == (expected, lp.basis)

    @staticmethod
    def mid_solve_limits(solve):
        """The least powers of two at which pricing, and M and x~, leave int64 mid-solve.

        ``solve(limit)`` solves with ``_INT64_STATE`` at ``limit`` and returns
        its pricing log.  Pricing trips when a later pass leaves the int64 that
        the first pass took; the state, when M and x~ stay int64 through the
        first pivot and end as Python ints.
        """
        prices = state = None
        for k in range(1, 63):
            log = solve(2**k)
            if prices is None and log[0][0] and not all(int64 for int64, _ in log):
                prices = 2**k
            if state is None and not log[1][1] and log[-1][1]:
                state = 2**k
        assert prices is not None and state is not None, "the width trips in the middle of no solve"
        return prices, state

    @pytest.mark.parametrize("family", G16_FAMILIES, ids=["chi-f", "arboricity"])
    def test_widths_tripping_mid_solve_keep_the_result(self, family):
        """Cold solves: widening mid-solve ends where a Python-int solve does."""
        make_lp = functools.partial(g16_unit_lp, family)
        reference, expected, reference_log = self.solve_logged(make_lp, state=0)
        assert not any(int64 for int64, _ in reference_log)
        for limit in self.mid_solve_limits(lambda limit: self.solve_logged(make_lp, limit)[2]):
            lp, res, _ = self.solve_logged(make_lp, limit)
            assert (res, lp.basis) == (expected, reference.basis)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])  # seed 3's state trips at the first pivot or never
    def test_widths_tripping_in_warm_solves_keep_the_result(self, seed):
        """Warm solves after ``add_column``: the cost array and bytes stay in step."""
        rng = random.Random(seed)
        n, columns, costs = random_instance(rng, n=10, extra=60)
        nums, den = over_common_denominator(costs)
        masks = encoded(columns)

        def warm_solve(limit, start=n + 20):
            with mock.patch.object(simplexmod, "_INT64_STATE", limit):
                lp = CoverLp(n, masks[:start], nums[:start], den)
                log = logged_routes(lp)
                lp.solve()
                for mask, num in zip(masks[start:], nums[start:]):
                    lp.add_column(mask, num)
                assert len(lp._bytes[0]) == len(columns)
                assert lp._exact_costs.tolist() == nums
                return lp.solve(), lp.basis, log

        *expected, reference_log = warm_solve(0)
        assert not any(int64 for int64, _ in reference_log)
        for limit in self.mid_solve_limits(lambda limit: warm_solve(limit)[2]):
            assert warm_solve(limit)[:2] == tuple(expected)
