import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_independent_sets,
    brute_induced_forests,
    complete_graph,
    cover_weighted_cost,
    cycle_graph,
    decoded,
    encoded,
    lp_cover_oracle,
    random_profile,
    sqrt_fraction,
)
from graphtail import covers
from graphtail import graph as graphmod
from graphtail._simplex import solve_min_cover_lp
from graphtail.covers import (
    CoverKind,
    Optimality,
    Strategy,
    cover_from_json_dict,
    cover_to_json_dict,
    enumerate_independent_sets,
    enumerate_induced_forests,
    fractional_chromatic_number,
    fractional_vertex_arboricity,
    lipschitz_profile,
    make_cover,
    optimize_decomposable_denominator,
    part_cost_radicand,
    squared_objective_exact,
    uniform_profile,
    validate_cover,
)
from graphtail.errors import InputError, KindError, ScaleError, VerificationError
from graphtail.graph import build_graph


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return build_graph(n, edges)


class TestEnumeration:
    def test_triangle_independent_sets(self, k3):
        assert set(decoded(enumerate_independent_sets(k3))) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_two_isolated_vertices(self):
        g = build_graph(2, [])
        assert set(decoded(enumerate_independent_sets(g))) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_path_independent_sets(self, path3):
        assert set(decoded(enumerate_independent_sets(path3))) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 3}),
        }

    def test_triangle_forests_are_proper_subsets(self, k3):
        forests = set(decoded(enumerate_induced_forests(k3)))
        assert len(forests) == 6  # everything except the full triangle
        assert frozenset({1, 2, 3}) not in forests

    def test_tree_admits_every_subset(self, path3):
        assert len(enumerate_induced_forests(path3)) == 2**3 - 1

    def test_example_graph_column_count(self, example9):
        assert len(enumerate_induced_forests(example9)) == 447

    def test_cap_raises_scale_error(self, example9, monkeypatch):
        monkeypatch.setattr(covers, "COLUMN_CAP", 100)
        with pytest.raises(ScaleError, match="more than 100 induced forests; use column generation"):
            enumerate_induced_forests(example9)
        with pytest.raises(ScaleError, match="more than 100 independent sets; use column generation"):
            enumerate_independent_sets(build_graph(8, []))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.1, max_value=0.8), st.integers())
    def test_matches_brute_force(self, n, p, seed):
        g = random_graph(n, p, random.Random(seed))
        assert set(decoded(enumerate_independent_sets(g))) == brute_independent_sets(g)
        assert set(decoded(enumerate_induced_forests(g))) == brute_induced_forests(g)


def reference_forest_order(g):
    """The plain forest walk, copying the union-find map at each vertex."""
    out = []

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def extend(chosen, parent, start):
        for v in range(start, g.n + 1):
            roots = set()
            for u in g.neighbors(v):
                if u in chosen:
                    r = find(parent, u)
                    if r in roots:
                        break
                    roots.add(r)
            else:
                new_parent = dict(parent)
                new_parent[v] = v
                for r in roots:
                    new_parent[r] = v
                out.append(chosen | {v})
                extend(chosen | {v}, new_parent, v + 1)

    extend(frozenset(), {}, 1)
    return out


def recursive_walk(g, scaled, independent=False):
    """The depth-first union-find walk the vector family build replaced, as its oracle.

    Lists the induced forests (with ``independent``, the independent sets) as
    frozensets in lexicographic order, each with its radicand: adding v to a
    partial forest adds (a_v + a_u)**2 for each chosen neighbour u, and merges
    the trees holding those neighbours into one, so each merged tree's min**2
    is subtracted and the new tree's min**2 added.
    """
    n = g.n
    a = [0, *scaled]
    lower = [()] + [tuple(u for u in g.neighbors(v) if u < v) for v in g.vertices]
    parent = list(range(n + 1))  # union-find over the chosen vertices
    tree_min = [0] * (n + 1)  # min of a over a tree, kept at its root
    columns, radicands = [], []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def extend(chosen, radicand, start):
        for v in range(start, n + 1):
            av = a[v]
            roots = []
            total, low = radicand, av
            for u in lower[v]:  # every chosen vertex is below v
                if u in chosen:
                    r = find(u)
                    if independent or r in roots:
                        break  # an edge or a cycle: supersets keep it, later vertices may not
                    roots.append(r)
                    m = tree_min[r]
                    total += (av + a[u]) ** 2 - m * m
                    low = min(low, m)
            else:
                total += low * low
                tree_min[v] = low
                for r in roots:
                    parent[r] = v
                new = chosen | {v}
                columns.append(new)
                radicands.append(total)
                extend(new, total, v + 1)
                for r in roots:
                    parent[r] = r

    extend(frozenset(), 0, 1)
    return columns, radicands


def walk_checked_against_oracle(g, scaled, independent):
    """The family build's masks and radicands, once they equal the recursive walk's."""
    masks, radicands = covers._walk_induced_forests(g, scaled, independent)
    columns, expected = recursive_walk(g, scaled, independent)
    assert masks.dtype == np.int64
    assert masks.tolist() == encoded(columns).tolist()
    assert radicands.tolist() == expected
    return masks, radicands


class TestForestWalker:
    @pytest.mark.parametrize("independent", [False, True])
    def test_family_build_matches_the_recursive_walk(self, independent):
        rng = random.Random(20261020)
        for trial in range(24):
            n = rng.randint(1, 16)
            g = random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
            scaled = [rng.choice((0, 0, rng.randint(1, 40))) for _ in range(n)]
            assert walk_checked_against_oracle(g, scaled, independent)[1].dtype == np.int64

    @pytest.mark.parametrize("independent", [False, True])
    def test_radicands_past_int64_stay_exact(self, independent):
        # distinct prime denominators: their lcm puts a_v**2 far past 2**63
        rng = random.Random(20261021)
        primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099]
        for trial in range(6):
            n = rng.randint(8, 11)
            g = random_graph(n, rng.choice((0.2, 0.4)), rng)
            profile = lipschitz_profile(
                [Fraction(rng.choice((0, rng.randint(1, 9))), primes[v]) for v in range(n)]
            )
            denom, scaled = covers._profile_scale(profile)
            masks, radicands = walk_checked_against_oracle(g, scaled, independent)
            assert radicands.dtype == object
            for part, radicand in zip(decoded(masks), radicands.tolist()):
                assert Fraction(radicand, denom * denom) == part_cost_radicand(g, part, profile)

    @pytest.mark.parametrize("independent", [False, True])
    def test_cap_admits_exactly_cap_columns(self, independent, monkeypatch):
        g = random_graph(12, 0.3, random.Random(3))
        total = len(covers._walk_induced_forests(g, [1] * 12, independent)[0])
        monkeypatch.setattr(covers, "COLUMN_CAP", total)
        assert len(covers._walk_induced_forests(g, [1] * 12, independent)[0]) == total
        monkeypatch.setattr(covers, "COLUMN_CAP", total - 1)
        with pytest.raises(ScaleError, match=f"more than {total - 1} "):
            covers._walk_induced_forests(g, [1] * 12, independent)

    def test_walk_memory_per_column(self):
        # measured 74 B per column (int64 mask and radicand, one int8 tree
        # label per vertex, and the arrays of one step); a frozenset per
        # column in a list, with Python int radicands, took 583 B here
        g = random_graph(18, 0.25, random.Random(0))
        profile = random_profile(18, random.Random(1), allow_zero=True)
        scaled = covers._profile_scale(profile)[1]
        tracemalloc.start()
        try:
            masks, _ = covers._walk_induced_forests(g, scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) > 50_000
        assert peak < 128 * len(masks)

    def test_order_and_radicands_match_part_cost_radicand(self):
        rng = random.Random(20240611)
        for trial in range(24):
            n = rng.randint(1, 11)
            g = random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
            # zeros and mixed denominators; the common denominator is their lcm
            profile = lipschitz_profile(
                [Fraction(rng.choice((0, rng.randint(1, 9))), rng.choice((1, 2, 3, 5, 7)))
                 for _ in range(n)]
            )
            denom = math.lcm(*(c.denominator for c in profile))
            scaled = [int(c * denom) for c in profile]
            masks, radicands = covers._walk_induced_forests(g, scaled)
            columns = decoded(masks)
            assert columns == reference_forest_order(g) == decoded(enumerate_induced_forests(g))
            for part, radicand in zip(columns, radicands.tolist()):
                assert Fraction(radicand, denom * denom) == part_cost_radicand(g, part, profile)

    def test_independent_set_order_is_lexicographic(self):
        # the chromatic LP's column indices, and so its pivots, follow this order
        rng = random.Random(20240612)
        for trial in range(24):
            g = random_graph(rng.randint(1, 11), rng.choice((0.15, 0.3, 0.5)), rng)
            expected = sorted(brute_independent_sets(g), key=sorted)
            assert decoded(enumerate_independent_sets(g)) == expected

    def test_enumerated_lp_prices_parts_only_for_witnesses(self, monkeypatch):
        g = random_graph(12, 0.3, random.Random(7))
        profile = random_profile(12, random.Random(8), allow_zero=True)
        calls = []
        priced = covers.part_cost_radicand

        def counting(g, part, profile):
            calls.append(frozenset(part))
            return priced(g, part, profile)

        monkeypatch.setattr(covers, "part_cost_radicand", counting)
        sol = optimize_decomposable_denominator(g, profile, strategy=Strategy.ENUMERATED_LP)
        chi = fractional_chromatic_number(g)
        assert sorted(map(sorted, calls)) == sorted(
            sorted(s) for cover in (sol.cover, chi.cover) for s, _ in cover.parts
        )
        assert len(calls) < len(enumerate_induced_forests(g)) / 10

    def test_enumerated_lp_roots_only_the_radicands_it_prices(self, monkeypatch):
        g = random_graph(13, 0.3, random.Random(5))
        profile = random_profile(13, random.Random(6))
        denom, scaled = covers._profile_scale(profile)
        columns, radicands = covers._walk_induced_forests(g, scaled)
        root = covers._sqrt_numerator
        # the LP over one root per column, as the solution must come out
        scale = denom * denom
        per_column = [root(r, scale, covers.SQRT_BITS) for r in radicands.tolist()]
        lp = solve_min_cover_lp(g.n, columns, per_column, scale << covers.SQRT_BITS)
        expected = covers._trim_to_exact_cover(g, CoverKind.FOREST, columns, lp.weights)
        calls = []

        def counting(radicand, scale, bits):
            calls.append(radicand)
            return root(radicand, scale, bits)

        monkeypatch.setattr(covers, "_sqrt_numerator", counting)
        sol = optimize_decomposable_denominator(g, profile, strategy=Strategy.ENUMERATED_LP)
        distinct = set(radicands.tolist())
        assert len(distinct) < len(radicands)
        assert len(set(calls)) == len(calls)  # no radicand rooted twice
        assert 0 < len(calls) < 0.05 * len(distinct)
        assert sol.cover == expected

    @pytest.mark.parametrize("exponent", [10, 160])
    def test_a_profile_scale_past_int64_still_screens(self, exponent):
        """L^2 = 10^20 (past int64, over int64 radicands) or 10^320 (past float max) still screens."""
        g = cycle_graph(5)
        tiny = Fraction(1, 10**exponent)
        profile = lipschitz_profile([tiny, 2 * tiny, tiny, 3 * tiny, tiny])
        assert covers._profile_scale(profile)[0] ** 2 > 2**63
        sol = optimize_decomposable_denominator(g, profile, strategy=Strategy.ENUMERATED_LP)
        scaled = lipschitz_profile([v * 10**exponent for v in profile.values])
        ref = optimize_decomposable_denominator(g, scaled, strategy=Strategy.ENUMERATED_LP)
        assert sol.cover == ref.cover


class TestValidateCover:
    def test_paper_style_edge_cover_is_valid_forest_cover(self, k3):
        cover = make_cover(
            CoverKind.FOREST,
            [({1, 2}, Fraction(1, 2)), ({1, 3}, Fraction(1, 2)), ({2, 3}, Fraction(1, 2))],
        )
        assert validate_cover(k3, cover) == []

    def test_same_parts_fail_as_independent(self, k3):
        cover = make_cover(
            CoverKind.INDEPENDENT,
            [({1, 2}, Fraction(1, 2)), ({1, 3}, Fraction(1, 2)), ({2, 3}, Fraction(1, 2))],
        )
        bad = validate_cover(k3, cover)
        assert any(v.code == "kind" for v in bad)

    def test_whole_tree_single_part(self, path3):
        cover = make_cover(CoverKind.FOREST, [({1, 2, 3}, Fraction(1))])
        assert validate_cover(path3, cover) == []

    def test_coverage_violation_reported_per_vertex(self, path3):
        cover = make_cover(CoverKind.FOREST, [({1, 2}, Fraction(1))])
        bad = validate_cover(path3, cover)
        assert any("vertex 3" in v.detail for v in bad)

    def test_empty_part_forbidden(self, path3):
        cover = make_cover(CoverKind.FOREST, [(set(), Fraction(1)), ({1, 2, 3}, Fraction(1))])
        assert any(v.code == "empty-part" for v in validate_cover(path3, cover))

    def test_negative_weight_is_named(self, path3):
        cover = make_cover(CoverKind.FOREST, [({1, 2, 3}, Fraction(2)), ({1, 2, 3}, Fraction(-1))])
        bad = validate_cover(path3, cover)
        assert [(v.code, v.detail) for v in bad] == [
            ("negative-weight", "part [1, 2, 3] has weight -1")
        ]

    def test_out_of_range_vertex_is_named(self, path3):
        cover = make_cover(CoverKind.FOREST, [({1, 2, 3}, Fraction(1)), ({4}, Fraction(1))])
        bad = validate_cover(path3, cover)
        assert [(v.code, v.detail) for v in bad] == [("kind", "part [4] has out-of-range vertices")]

    def test_cyclic_forest_part_is_named(self, k3):
        cover = make_cover(CoverKind.FOREST, [({1, 2, 3}, Fraction(1))])
        bad = validate_cover(k3, cover)
        assert [(v.code, v.detail) for v in bad] == [("kind", "part [1, 2, 3] induces a cycle")]


class TestFractionalChromatic:
    def test_triangle(self, k3):
        assert fractional_chromatic_number(k3).objective_exact == 3

    def test_any_tree_with_an_edge_is_two(self, path3):
        sol = fractional_chromatic_number(path3)
        assert sol.objective_exact == 2
        assert validate_cover(path3, sol.cover) == []

    def test_five_cycle(self):
        c5 = cycle_graph(5)
        sol = fractional_chromatic_number(c5)
        assert sol.objective_exact == Fraction(5, 2)
        columns = sorted(brute_independent_sets(c5), key=sorted)
        oracle = lp_cover_oracle(5, columns, [1.0] * len(columns))
        assert math.isclose(sol.objective, oracle, abs_tol=1e-9)

    def test_edgeless(self, empty3):
        assert fractional_chromatic_number(empty3).objective_exact == 1

    def test_witness_is_exact_cover(self, example9):
        sol = fractional_chromatic_number(example9)
        assert sol.objective_exact == 3
        assert validate_cover(example9, sol.cover) == []


class TestFractionalArboricity:
    def test_forest_is_one(self, path3):
        assert fractional_vertex_arboricity(path3).objective_exact == 1

    def test_triangle_is_three_halves(self, k3):
        sol = fractional_vertex_arboricity(k3)
        assert sol.objective_exact == Fraction(3, 2)
        columns = sorted(brute_induced_forests(k3), key=sorted)
        oracle = lp_cover_oracle(3, columns, [1.0] * len(columns))
        assert math.isclose(sol.objective, oracle, abs_tol=1e-9)

    def test_k4_is_two(self):
        k4 = complete_graph(4)
        sol = fractional_vertex_arboricity(k4)
        assert sol.objective_exact == 2
        columns = sorted(brute_induced_forests(k4), key=sorted)
        oracle = lp_cover_oracle(4, columns, [1.0] * len(columns))
        assert math.isclose(sol.objective, oracle, abs_tol=1e-9)


class TestForestPartCost:
    def test_edge_plus_four_isolated_uniform(self, example9):
        # an edge of the triangle plus four free vertices: sqrt(2^2 + 1 + 4)
        part = frozenset({1, 2, 4, 5, 6, 7})
        assert part_cost_radicand(example9, part, uniform_profile(9)) == 9

    def test_singleton(self, k3):
        c = lipschitz_profile([5, 1, 2])
        assert part_cost_radicand(k3, {2}, c) == 1

    def test_path_mixed_coefficients(self, path3):
        c = lipschitz_profile([1, 2, 3])
        rad = part_cost_radicand(path3, frozenset({1, 2, 3}), c)
        assert rad == (1 + 2) ** 2 + (2 + 3) ** 2 + 1**2 == 35

    def test_cyclic_part_rejected(self, k3):
        with pytest.raises(KindError):
            part_cost_radicand(k3, {1, 2, 3}, uniform_profile(3))


class TestIntegerLpCosts:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        root=st.fractions(min_value=0, max_value=50, max_denominator=40),
        radicand=st.fractions(min_value=0, max_value=2000, max_denominator=40),
        extra=st.integers(1, 12),
        bits=st.sampled_from((0, 1, 48, 128)),
    )
    def test_numerator_equals_the_rounded_fraction_root(self, root, radicand, extra, bits):
        """Scaled by scale * 2**bits, the integer cost is exactly the Fraction root."""
        for x in (root * root, radicand):  # rational squares take the exact branch
            scale = x.denominator * extra
            numerator = covers._sqrt_numerator(x.numerator * extra, scale, bits)
            assert numerator == sqrt_fraction(x, bits) * (scale << bits)



def _float_cost_loop(g, part, c):
    """The float loop ``_part_cost_float`` ran before it shared ``_part_radicand``: its oracle."""
    total = 0.0
    for u, v in graphmod.edges_within(g, part):
        s = c[u - 1] + c[v - 1]
        total += s * s
    for tree in graphmod.components_within(g, part):
        m = min(c[v - 1] for v in tree)
        total += m * m
    return math.sqrt(total)


def _colgen_cost_from_the_fraction(g, part, profile, square_scale):
    """Column generation's integer cost as it was taken: from the Fraction radicand."""
    radicand = part_cost_radicand(g, part, profile)
    unit, rest = divmod(square_scale, radicand.denominator)
    assert rest == 0
    return covers._sqrt_numerator(radicand.numerator * unit, square_scale, 48)


class TestOnePartCostSum:
    """Fraction, integer and float part costs all come from one summation."""

    @staticmethod
    def _case(seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.6)), rng)
        return g, random_profile(n, rng, allow_zero=True), rng

    @staticmethod
    def _acyclic_parts(g, rng):
        """Forests of every size up to a maximal one, grown vertex by vertex in random orders."""
        parts = []
        for _ in range(4):
            order, part = list(g.vertices), frozenset()
            rng.shuffle(order)
            for v in order:
                if graphmod.is_acyclic_subset(g, part | {v}):
                    part = part | {v}
                    parts.append(part)
        return parts

    @staticmethod
    def _column_generation(g, profile, monkeypatch):
        """The master and every float cost the pricing searches cached, from one search."""
        masters, caches = [], []
        price = covers._price_forest_column

        class Recorded(covers.CoverLp):
            def __init__(self, *args):
                super().__init__(*args)
                masters.append(self)

        def recorded(g, c, small, duals, cache):
            caches.append(cache)
            return price(g, c, small, duals, cache)

        monkeypatch.setattr(covers, "CoverLp", Recorded)
        monkeypatch.setattr(covers, "_price_forest_column", recorded)
        optimize_decomposable_denominator(g, profile, strategy=Strategy.COLUMN_GENERATION)
        monkeypatch.undo()
        (master,) = masters
        return master, {part: cost for cache in caches for part, cost in cache.items()}

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_sum_is_the_scaled_fraction_sum(self, seed):
        g, profile, rng = self._case(seed)
        denom, scaled = covers._profile_scale(profile)
        for part in self._acyclic_parts(g, rng):
            assert covers._part_radicand(g, part, scaled) == denom**2 * part_cost_radicand(g, part, profile)

    @pytest.mark.parametrize("seed", range(8))
    def test_column_generation_costs_are_unchanged(self, seed, monkeypatch):
        g, profile, _ = self._case(seed)
        square_scale = covers._profile_scale(profile)[0] ** 2
        master, searched = self._column_generation(g, profile, monkeypatch)
        assert master.denominator == square_scale << 48
        assert master.costs == [
            _colgen_cost_from_the_fraction(g, part, profile, square_scale)
            for part in decoded(master.columns)
        ]
        assert g.n < 4 or any(len(part) > 3 for part in searched)  # the local search's parts
        c = [float(x) for x in profile.values]
        assert all(cost == _float_cost_loop(g, part, c) for part, cost in searched.items())

    @pytest.mark.parametrize("seed", range(8))
    def test_float_cost_is_the_loop_bit_for_bit(self, seed):
        g, profile, rng = self._case(seed)
        c = [float(x) for x in profile.values]
        for part in self._acyclic_parts(g, rng):
            assert covers._part_cost_float(g, part, c).hex() == _float_cost_loop(g, part, c).hex()


class TestOptimizeDecomposable:
    def test_example_graph_certified_below_paper_value(self, example9):
        c = uniform_profile(9)
        sol = optimize_decomposable_denominator(example9, c)
        assert sol.optimality is Optimality.EXACT
        assert validate_cover(example9, sol.cover) == []
        # the optimum is certified <= 81/4 by the explicit three-part witness
        witness = make_cover(
            CoverKind.FOREST,
            [
                ({1, 2, 4, 5, 6, 7}, Fraction(1, 2)),
                ({1, 3, 4, 5, 8, 9}, Fraction(1, 2)),
                ({2, 3, 6, 7, 8, 9}, Fraction(1, 2)),
            ],
        )
        witness_value = cover_weighted_cost(example9, witness, c) ** 2
        assert math.isclose(witness_value, 81 / 4, abs_tol=1e-12)
        assert sol.objective <= witness_value + 1e-9

    def test_example_graph_matches_float_oracle(self, example9):
        c = uniform_profile(9)
        sol = optimize_decomposable_denominator(example9, c)
        columns = sorted(brute_induced_forests(example9), key=sorted)
        costs = [math.sqrt(float(part_cost_radicand(example9, col, c))) for col in columns]
        oracle = lp_cover_oracle(9, columns, costs) ** 2
        assert math.isclose(sol.objective, oracle, rel_tol=1e-9)
        # frozen from the oracle: optimum is (1 + sqrt(11))^2 = 12 + 2*sqrt(11)
        assert math.isclose(sol.objective, 12 + 2 * math.sqrt(11), rel_tol=1e-12)

    def test_edgeless_graph_single_part(self, empty3):
        sol = optimize_decomposable_denominator(empty3, uniform_profile(3))
        assert sol.objective_exact == 3  # the norm itself; splitting cannot win

    def test_single_edge_prefers_singletons(self):
        k2 = build_graph(2, [(1, 2)])
        sol = optimize_decomposable_denominator(k2, uniform_profile(2))
        assert sol.objective_exact == 4
        parts = {s for s, _ in sol.cover.parts}
        assert parts == {frozenset({1}), frozenset({2})}

    def test_forest_bounded_by_single_part_cover(self, path3):
        c = lipschitz_profile([2, 1, 3])
        sol = optimize_decomposable_denominator(path3, c)
        single_part = float(part_cost_radicand(path3, frozenset({1, 2, 3}), c))
        assert sol.objective <= single_part + 1e-9

    def test_dominated_by_independent_route(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_graph(6, 0.5, rng)
            c = random_profile(6, rng)
            sol = optimize_decomposable_denominator(g, c)
            chi = fractional_chromatic_number(g)
            janson = float(chi.objective_exact * c.norm_sq)
            assert sol.objective <= janson + 1e-9

    def test_scaling_is_quadratic_and_witness_stable(self, example9):
        c = uniform_profile(9)
        lam = Fraction(7, 3)
        scaled = lipschitz_profile([lam * x for x in c])
        sol1 = optimize_decomposable_denominator(example9, c)
        sol2 = optimize_decomposable_denominator(example9, scaled)
        assert math.isclose(sol2.objective, float(lam * lam) * sol1.objective, rel_tol=1e-12)
        assert {s for s, _ in sol1.cover.parts} == {s for s, _ in sol2.cover.parts}

    def test_monotone_under_edge_addition(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_graph(5, 0.4, rng)
            candidates = [
                (i, j)
                for i in range(1, 6)
                for j in range(i + 1, 6)
                if j not in g.neighbors(i)
            ]
            if not candidates:
                continue
            g2 = build_graph(5, list(g.edges) + [rng.choice(candidates)])
            c = random_profile(5, rng)
            assert (
                optimize_decomposable_denominator(g2, c).objective
                >= optimize_decomposable_denominator(g, c).objective - 1e-9
            )
            assert (
                fractional_chromatic_number(g2).objective_exact
                >= fractional_chromatic_number(g).objective_exact
            )
            assert (
                fractional_vertex_arboricity(g2).objective_exact
                >= fractional_vertex_arboricity(g).objective_exact
            )

    def test_heuristic_strategies_are_upper_bounds(self):
        rng = random.Random(11)
        for _ in range(6):
            g = random_graph(6, 0.5, rng)
            c = random_profile(6, rng)
            exact = optimize_decomposable_denominator(g, c, strategy=Strategy.ENUMERATED_LP)
            for strat in (Strategy.GREEDY, Strategy.COLUMN_GENERATION):
                ub = optimize_decomposable_denominator(g, c, strategy=strat)
                assert ub.optimality is Optimality.UPPER_BOUND
                assert ub.objective >= exact.objective - 1e-9
                assert validate_cover(g, ub.cover) == []

    def test_column_generation_beyond_enumeration_scale(self):
        # n = 30 refuses enumeration outright; column generation still answers
        rng = random.Random(19)
        n = 30
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.15]
        g = build_graph(n, edges)
        c = uniform_profile(n)
        with pytest.raises(ScaleError):
            optimize_decomposable_denominator(g, c, strategy=Strategy.ENUMERATED_LP)
        sol = optimize_decomposable_denominator(g, c, strategy=Strategy.COLUMN_GENERATION)
        assert sol.optimality is Optimality.UPPER_BOUND
        assert validate_cover(g, sol.cover) == []
        assert sol.objective >= float(c.norm_sq)  # never below the independent case

    def test_zero_coefficients_allowed(self):
        k2 = build_graph(2, [(1, 2)])
        sol = optimize_decomposable_denominator(k2, lipschitz_profile([0, 1]))
        assert validate_cover(k2, sol.cover) == []
        assert sol.objective <= 1 + 1e-12

    def test_profile_length_mismatch(self, k3):
        with pytest.raises(InputError):
            optimize_decomposable_denominator(k3, uniform_profile(2))


class TestExactReconstruction:
    def test_shared_kernel(self):
        # 2*sqrt(8) + sqrt(2) = 5 sqrt(2); squared = 50
        parts = [(Fraction(2), Fraction(8)), (Fraction(1), Fraction(2))]
        assert squared_objective_exact(parts) == 50

    def test_mixed_kernels_give_none(self):
        parts = [(Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))]
        assert squared_objective_exact(parts) is None

    def test_rational_radicands(self):
        parts = [(Fraction(1, 2), Fraction(9)), (Fraction(1), Fraction(1, 4))]
        assert squared_objective_exact(parts) == Fraction(4)

    def test_zero_weight_ignored(self):
        parts = [(Fraction(0), Fraction(3)), (Fraction(1), Fraction(4))]
        assert squared_objective_exact(parts) == 4

    def test_large_prime_kernel_needs_no_factoring(self):
        # 1/2 sqrt(p) + 1/2 sqrt(4p) = 3/2 sqrt(p), p prime
        p = 99_999_999_999_973
        parts = [(Fraction(1, 2), Fraction(p)), (Fraction(1, 2), Fraction(4 * p))]
        assert squared_objective_exact(parts) == Fraction(9 * p, 4)

    def test_matches_the_kernel_factoring_it_replaced(self):
        rng = random.Random(11)
        compared = 0
        for _ in range(400):
            kernels = rng.choice([[1], [2], [3], [6], [5, 5, 20], [2, 3], [1, 7]])
            parts = []
            for _ in range(rng.randint(1, 5)):
                d = rng.choice(kernels)
                r = d * Fraction(rng.randint(0, 40), rng.randint(1, 40)) ** 2
                parts.append((Fraction(rng.randint(0, 9), rng.randint(1, 9)), r))
            old = _squared_objective_by_factoring(parts)
            new = squared_objective_exact(parts)
            assert new == old
            compared += old is not None
        assert compared > 200


def _squared_objective_by_factoring(parts):
    """The reference: each radicand a/b is sqrt(s^2 d)/b with d square-free, by trial division."""
    kernel, rational_sum = None, Fraction(0)
    for w, r in parts:
        if w == 0 or r == 0:
            continue
        m, s, d, f = r.numerator * r.denominator, 1, 1, 2
        while f * f <= m:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            d *= f ** (e % 2)
            f += 1 if f == 2 else 2
        if kernel is not None and kernel != d * m:
            return None
        kernel = d * m
        rational_sum += w * Fraction(s, r.denominator)
    return Fraction(0) if kernel is None else kernel * rational_sum * rational_sum


class TestCoverJson:
    def test_round_trip(self, k3):
        cover = make_cover(
            CoverKind.FOREST, [({1, 2}, Fraction(1, 2)), ({3}, Fraction(1))]
        )
        data = cover_to_json_dict(cover)
        assert data["parts"][0]["w"] in {"1/2", "1"}
        assert cover_from_json_dict(data) == cover

    def test_bad_kind(self):
        with pytest.raises(InputError):
            cover_from_json_dict({"kind": "clique", "parts": []})


_PATH3 = [(1, 2), (2, 3)]


class TestArgumentRules:
    """One test per library argument check: each refuses with its one message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: part_cost_radicand(build_graph(3, _PATH3), {1, 2}, uniform_profile(2)),
             "profile has 2 coefficients for 3 vertices"),
            (lambda: optimize_decomposable_denominator(build_graph(3, _PATH3), uniform_profile(4)),
             "profile has 4 coefficients for 3 vertices"),
            (lambda: optimize_decomposable_denominator(build_graph(3, _PATH3), uniform_profile(3), "greedy"),
             "unknown strategy 'greedy'"),
            (lambda: covers._sqrt_numerator(-3, 4, 8), "square root of negative value -3/4"),
            (lambda: cover_from_json_dict({"kind": "forest", "parts": [{"s": [1]}]}),
             "bad cover part {'s': [1]}: 'w'"),
        ],
        ids=["part-cost-profile", "decomposable-profile", "unknown-strategy", "negative-radicand",
             "cover-part-without-weight"],
    )
    def test_bad_arguments_are_refused_with_one_message(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message


class TestCertificationFaults:
    """The exact checks after each LP catch a result that is wrong by construction."""

    def test_a_cyclic_column_fails_the_trimmed_forest_cover(self, k3):
        columns = encoded([frozenset({1, 2, 3})])
        with pytest.raises(VerificationError, match=r"trimmed cover failed validation: part \[1, 2, 3\]"):
            covers._trim_to_exact_cover(k3, CoverKind.FOREST, columns, {0: Fraction(1)})

    def test_a_wrong_lp_objective_fails_the_unit_cover(self, path3, monkeypatch):
        solve = covers.solve_min_cover_lp

        def off_by_one(*args):
            res = solve(*args)
            return dataclasses.replace(res, objective=res.objective + 1)

        monkeypatch.setattr(covers, "solve_min_cover_lp", off_by_one)
        with pytest.raises(VerificationError, match="trimming changed the total weight"):
            fractional_chromatic_number(path3)

    def test_an_optimum_above_the_independent_cover_bound_is_caught(self, path3, monkeypatch):
        candidate = covers._janson_candidate

        def lowered(g, profile, chi):
            return dataclasses.replace(candidate(g, profile, chi), objective=0.0)

        monkeypatch.setattr(covers, "_janson_candidate", lowered)
        with pytest.raises(VerificationError, match="exceeds the independent-cover bound"):
            optimize_decomposable_denominator(path3, uniform_profile(3))


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(),
)
@settings(max_examples=15, deadline=None)
def test_every_solution_witness_is_consistent(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    c = random_profile(n, rng)
    sol = optimize_decomposable_denominator(g, c)
    assert validate_cover(g, sol.cover) == []
    recomputed = cover_weighted_cost(g, sol.cover, c) ** 2
    assert math.isclose(recomputed, sol.objective, rel_tol=1e-9)
    if sol.objective_exact is not None:
        assert math.isclose(float(sol.objective_exact), sol.objective, rel_tol=1e-9)


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=0.9), st.integers())
@settings(max_examples=15, deadline=None)
def test_unit_cover_witnesses_recompute_exactly(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    for solver in (fractional_chromatic_number, fractional_vertex_arboricity):
        sol = solver(g)
        assert validate_cover(g, sol.cover) == []
        assert sol.cover.total_weight == sol.objective_exact  # exact rational identity
