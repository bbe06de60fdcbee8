import csv
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_forest_edges, random_profile
from graphtail.bounds import (
    DECOMPOSABLE,
    FOREST,
    JANSON,
    M_DEPENDENT,
    M_DEPENDENT_PAULIN,
    MCDIARMID,
    MIN_BLOCK,
    PAULIN,
    TREE,
    compare_bounds,
    decomposable_denominator,
    forest_denominator,
    janson_denominator,
    m_dependent_denominator,
    mcdiarmid_denominator,
    report_to_json_dict,
    reports_to_csv,
    tail_bound,
)
from graphtail import covers as coversmod
from graphtail.covers import lipschitz_profile, uniform_profile
from graphtail.errors import DegenerateProfileError, InputError, KindError
from graphtail.graph import build_graph


class TestMcdiarmid:
    def test_uniform_four(self):
        assert mcdiarmid_denominator(uniform_profile(4)) == 4

    def test_zero_profile_is_degenerate(self):
        assert mcdiarmid_denominator(lipschitz_profile([0, 0, 0])) == 0
        with pytest.raises(DegenerateProfileError):
            tail_bound(0, 1.0)

    def test_mixed(self):
        assert mcdiarmid_denominator(lipschitz_profile([1, 2, 3])) == 14


class TestJanson:
    def test_example_graph(self, example9):
        den, chi = janson_denominator(example9, uniform_profile(9))
        assert den == 27
        assert chi.objective_exact == 3

    def test_tree_uniform_is_twice_n(self, path3):
        den, _ = janson_denominator(path3, uniform_profile(3))
        assert den == 6

    def test_edgeless_recovers_norm(self, empty3):
        c = lipschitz_profile([2, 3, 4])
        den, _ = janson_denominator(empty3, c)
        assert den == c.norm_sq


class TestForest:
    def test_path_uniform(self, path3):
        assert forest_denominator(path3, uniform_profile(3)) == 1 + 4 + 4

    def test_edgeless_recovers_mcdiarmid(self, empty3):
        c = lipschitz_profile([Fraction(3, 2), 2, 5])
        assert forest_denominator(empty3, c) == mcdiarmid_denominator(c)

    def test_uniform_forest_closed_form(self):
        rng = random.Random(99)
        for n in range(2, 11):
            for k in range(1, n + 1):
                g = build_graph(n, random_forest_edges(n, k, rng))
                c_val = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                c = lipschitz_profile([c_val] * n)
                assert forest_denominator(g, c) == (4 * n - 3 * k) * c_val**2

    def test_non_forest_redirects_to_decomposable(self, k3):
        with pytest.raises(KindError, match="decomposable"):
            forest_denominator(k3, uniform_profile(3))


class TestDecomposable:
    def test_example_graph_below_janson(self, example9):
        c = uniform_profile(9)
        den, sol = decomposable_denominator(example9, c)
        assert den <= 81 / 4 + 1e-9
        jan, _ = janson_denominator(example9, c)
        assert den <= float(jan) + 1e-9

    def test_forest_leq_forest_denominator(self, path3):
        c = lipschitz_profile([1, 5, 2])
        den, _ = decomposable_denominator(path3, c)
        assert den <= float(forest_denominator(path3, c)) + 1e-9


class TestMDependent:
    def test_divisible_uniform_matches_closed_form(self):
        c = uniform_profile(9)
        den, part = m_dependent_denominator(9, 3, c, variant=MIN_BLOCK)
        assert den == 81
        assert part.blocks == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        # (2mc)^2 (n/m - 1) + m^2 c^2 with n=9, m=3, c=1
        assert den == 36 * 2 + 9

    def test_remainder_block(self):
        den, _ = m_dependent_denominator(7, 3, uniform_profile(7))
        assert den == 36 + 16 + 1 == 53

    def test_one_block_collapse(self):
        c = lipschitz_profile([1, 2, 3])
        den, part = m_dependent_denominator(3, 5, c)
        assert den == 36  # (1+2+3)^2, no edge terms
        assert len(part.blocks) == 1

    def test_min_block_never_exceeds_paulin(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 40)
            m = rng.randint(1, 10)
            c = random_profile(n, rng, allow_zero=True)
            lo, _ = m_dependent_denominator(n, m, c, variant=MIN_BLOCK)
            hi, _ = m_dependent_denominator(n, m, c, variant=PAULIN)
            assert lo <= hi

    def test_uniform_divisible_below_4mn(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 6)
            n = m * rng.randint(1, 8)
            c_val = Fraction(rng.randint(1, 5))
            c = lipschitz_profile([c_val] * n)
            den, _ = m_dependent_denominator(n, m, c)
            assert den == (2 * m * c_val) ** 2 * (n // m - 1) + m**2 * c_val**2
            assert den <= 4 * m * n * c_val**2


class TestTailBound:
    def test_plug_in(self):
        assert math.isclose(tail_bound(4, 2), math.exp(-2))

    def test_path_forest_case(self):
        assert math.isclose(tail_bound(9, 3), math.exp(-2))

    def test_inverting_the_exponent(self):
        # with denominator 81/4: t = 9/2 gives e^-2, t = 9/(2 sqrt 2) gives e^-1
        assert math.isclose(tail_bound(81 / 4, 4.5), math.exp(-2))
        assert math.isclose(tail_bound(81 / 4, 4.5 / math.sqrt(2)), math.exp(-1))

    def test_clamped_at_one(self):
        assert tail_bound(1e12, 1e-9) == 1.0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(InputError):
            tail_bound(4, 0)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=1.001, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_t_and_denominator(self, den, t, factor):
        assert tail_bound(den, t * factor) <= tail_bound(den, t)
        assert tail_bound(den * factor, t) >= tail_bound(den, t)

    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, lam, t):
        c = lipschitz_profile([1, 2, 3])
        scaled = lipschitz_profile([lam * x for x in c])
        d1 = mcdiarmid_denominator(c)
        d2 = mcdiarmid_denominator(scaled)
        assert d2 == lam * lam * d1
        assert math.isclose(tail_bound(d2, lam * t), tail_bound(d1, t), rel_tol=1e-12)


class TestCompareBounds:
    def test_example_graph_decomposable_beats_janson(self, example9):
        reports = compare_bounds(example9, uniform_profile(9), t=3.0)
        by_method = {r.method: r for r in reports if r.applicable}
        assert by_method[DECOMPOSABLE].bound < by_method[JANSON].bound
        order = [r.method for r in reports if r.applicable]
        assert order.index(DECOMPOSABLE) < order.index(JANSON)

    def test_forest_with_many_trees_beats_janson(self):
        # n = 6, k = 5 >= 2n/3 = 4: forest denominator (4n-3k)c^2 = 9 < 12 = 2n
        g = build_graph(6, [(1, 2)])
        reports = compare_bounds(g, uniform_profile(6), t=1.0)
        by_method = {r.method: r for r in reports if r.applicable}
        assert by_method[FOREST].denominator_exact == 9
        assert by_method[FOREST].bound < by_method[JANSON].bound

    def test_edgeless_everything_collapses(self, empty3):
        reports = compare_bounds(empty3, uniform_profile(3), t=1.0, include_mcdiarmid=True)
        dens = {r.method: r.denominator_exact for r in reports if r.applicable}
        assert dens[FOREST] == dens[JANSON] == dens[MCDIARMID] == 3

    def test_tree_inapplicable_on_triangle(self, k3):
        reports = compare_bounds(k3, uniform_profile(3), t=1.0)
        skipped = {r.method: r for r in reports if not r.applicable}
        assert TREE in skipped and FOREST in skipped
        assert "not a" in skipped[TREE].reason

    def test_mcdiarmid_absent_unless_flagged(self, k3):
        methods = {r.method for r in compare_bounds(k3, uniform_profile(3), t=1.0)}
        assert MCDIARMID not in methods
        flagged = compare_bounds(k3, uniform_profile(3), t=1.0, include_mcdiarmid=True)
        mc = next(r for r in flagged if r.method == MCDIARMID)
        assert mc.valid_under == "independence-only"

    def test_scale_limited_methods_are_skipped_with_reason(self, example9, monkeypatch):
        monkeypatch.setattr(coversmod, "COLUMN_CAP", 5)
        reports = compare_bounds(example9, uniform_profile(9), t=1.0)
        skipped = {r.method: r for r in reports if not r.applicable}
        assert JANSON in skipped and DECOMPOSABLE in skipped
        assert skipped[JANSON].reason.startswith("scale:")
        # structure-independent methods still report
        assert any(r.method == M_DEPENDENT for r in reports)

    def test_m_dependent_needs_gap(self, path3):
        reports = compare_bounds(path3, uniform_profile(3), t=1.0)
        skipped = {r.method for r in reports if not r.applicable}
        assert M_DEPENDENT in skipped
        with_gap = compare_bounds(path3, uniform_profile(3), t=1.0, m=1)
        assert any(r.method == M_DEPENDENT and r.applicable for r in with_gap)

    def test_chi_f_solved_once_per_call(self, example9, monkeypatch):
        solve = coversmod.fractional_chromatic_number
        calls = []

        def counted(g):
            calls.append(g)
            return solve(g)

        monkeypatch.setattr(coversmod, "fractional_chromatic_number", counted)
        reports = compare_bounds(example9, uniform_profile(9), t=3.0)
        assert {r.method for r in reports if r.applicable} >= {JANSON, DECOMPOSABLE}
        assert len(calls) == 1

    def test_min_block_sorts_before_paulin(self):
        g = build_graph(7, [])
        c = lipschitz_profile([1, 1, 1, 1, 1, 1, 7])
        reports = compare_bounds(g, c, t=2.0, m=3, methods=(M_DEPENDENT, M_DEPENDENT_PAULIN))
        assert reports[0].method == M_DEPENDENT
        assert reports[0].bound < reports[1].bound


_PATH3 = [(1, 2), (2, 3)]


class TestOneTableRow:
    """Each public denominator is one row of the method table, with its checks."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: janson_denominator(build_graph(3, _PATH3), uniform_profile(2)),
             "profile has 2 coefficients for 3 vertices"),
            (lambda: forest_denominator(build_graph(3, _PATH3), uniform_profile(4)),
             "profile has 4 coefficients for 3 vertices"),
            (lambda: decomposable_denominator(build_graph(3, _PATH3), uniform_profile(2)),
             "profile has 2 coefficients for 3 vertices"),
            (lambda: m_dependent_denominator(3, 1, uniform_profile(2)),
             "profile has 2 coefficients for 3 vertices"),
            (lambda: m_dependent_denominator(3, 0, uniform_profile(3)), "need block size m >= 1, got 0"),
            (lambda: m_dependent_denominator(3, 1, uniform_profile(3), variant="nope"),
             "unknown m-dependent variant 'nope'"),
            (lambda: compare_bounds(build_graph(3, _PATH3), uniform_profile(2), t=1.0),
             "profile has 2 coefficients for 3 vertices"),
            (lambda: compare_bounds(build_graph(3, _PATH3), uniform_profile(3), t=1.0, m=0),
             "need block size m >= 1, got 0"),
        ],
        ids=["janson-profile", "forest-profile", "decomposable-profile", "m-dependent-profile",
             "m-dependent-gap", "m-dependent-variant", "compare-profile", "compare-gap"],
    )
    def test_bad_arguments_are_refused_with_one_message(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_an_unmet_precondition_is_a_kind_error_naming_the_reason(self, k3):
        with pytest.raises(KindError) as exc:
            forest_denominator(k3, uniform_profile(3))
        assert str(exc.value) == "graph is not a forest (use the decomposable bound)"

    def test_a_gap_below_1_is_refused_before_any_lp(self, example9, monkeypatch):
        def no_lp(*args):
            raise AssertionError("an LP ran before the gap was checked")

        monkeypatch.setattr(coversmod, "fractional_chromatic_number", no_lp)
        monkeypatch.setattr(coversmod, "solve_min_cover_lp", no_lp)
        with pytest.raises(InputError, match="need block size m >= 1, got 0"):
            compare_bounds(example9, uniform_profile(9), t=1.0, m=0)

    @pytest.mark.parametrize("graph", ["k3", "path3", "empty3", "example9", "one_edge6", "edgeless7"])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "mixed"])
    def test_decomposable_denominator_is_the_reported_one(self, graph, uniform, request):
        built = {"one_edge6": build_graph(6, [(1, 2)]), "edgeless7": build_graph(7, [])}
        g = built[graph] if graph in built else request.getfixturevalue(graph)
        c = uniform_profile(g.n) if uniform else lipschitz_profile([1 + v % 3 for v in g.vertices])
        den, _ = decomposable_denominator(g, c)
        report = next(r for r in compare_bounds(g, c, t=1.0) if r.method == DECOMPOSABLE)
        assert den == (report.denominator_exact if report.denominator_exact is not None
                       else report.denominator)


class TestSerialization:
    def test_json_dict_round_trips_fractions_as_strings(self, example9):
        reports = compare_bounds(example9, uniform_profile(9), t=3.0)
        payload = [report_to_json_dict(r) for r in reports]
        jan = next(p for p in payload if p["method"] == JANSON)
        assert jan["denominator_exact"] == "27"
        assert jan["witness"]["cover"]["kind"] == "independent"

    def test_csv_parses_back(self, path3):
        text = reports_to_csv(compare_bounds(path3, uniform_profile(3), t=1.0))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {r["method"] for r in rows} >= {FOREST, JANSON}
        forest_row = next(r for r in rows if r["method"] == FOREST)
        assert float(forest_row["denominator"]) == 9.0

    def test_forest_witness_lists_trees_and_minima(self):
        g = build_graph(5, [(1, 2), (4, 5)])
        c = lipschitz_profile([3, 1, 7, 2, 2])
        reports = compare_bounds(g, c, t=1.0)
        forest = next(r for r in reports if r.method == FOREST)
        payload = report_to_json_dict(forest)["witness"]
        assert payload["trees"] == [
            {"vertices": [1, 2], "minimum": "1"},
            {"vertices": [3], "minimum": "7"},
            {"vertices": [4, 5], "minimum": "2"},
        ]
