import csv
import io
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from graphtail import covers as coversmod
from graphtail.bounds import (
    DECOMPOSABLE,
    FOREST,
    JANSON,
    MCDIARMID,
    M_DEPENDENT,
    M_DEPENDENT_PAULIN,
    compare_bounds,
)
from graphtail.coupling import verify_dependency
from graphtail.errors import InputError
from graphtail.graph import build_graph
from graphtail.montecarlo import (
    EmitRule,
    analytic_mean,
    bernoulli,
    binomial_upper_ci,
    block_factor_spec,
    discrete,
    dist_mean,
    estimate_tail,
    estimate_tails,
    exact_joint,
    latent_graph_spec,
    resolve_methods,
    sample,
    uniform,
    validate_bounds,
    validation_to_csv,
)


def complete(n):
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestDistributions:
    def test_uniform_mean_and_validation(self):
        d = uniform(0, 1)
        assert dist_mean(d) == F(1, 2)
        with pytest.raises(InputError):
            uniform(1, 1)

    def test_bernoulli(self):
        d = bernoulli(F(1, 4))
        assert dist_mean(d) == F(1, 4)
        with pytest.raises(InputError):
            bernoulli(F(5, 4))

    def test_discrete(self):
        d = discrete([0, 2, 5], [F(1, 2), F(1, 4), F(1, 4)])
        assert dist_mean(d) == F(0) + F(2, 4) + F(5, 4)
        with pytest.raises(InputError):
            discrete([0, 1], [F(1, 2), F(1, 3)])


class TestSpecs:
    def test_latent_scope_must_be_clique(self):
        g = build_graph(3, [(1, 2)])
        with pytest.raises(InputError, match="clique"):
            latent_graph_spec(g, [((1, 3), uniform(0, 1))])

    def test_every_vertex_needs_a_latent(self):
        g = build_graph(2, [])
        with pytest.raises(InputError, match="no latent"):
            latent_graph_spec(g, [((1,), uniform(0, 1))])

    def test_profile_from_derived_ranges(self):
        g = build_graph(2, [(1, 2)])
        spec = latent_graph_spec(
            g, [((1,), uniform(0, 2)), ((2,), uniform(0, 1)), ((1, 2), uniform(0, 1))]
        )
        # vertex 1 sums two latents: range length 3; vertex 2: length 2
        assert spec.profile.values == (F(3), F(2))

    def test_declared_clamp_overrides_range(self):
        g = build_graph(1, [])
        spec = latent_graph_spec(
            g,
            [((1,), uniform(0, 4))],
            emit={1: EmitRule(kind="sum", clamp=(F(0), F(1)))},
        )
        assert spec.profile.values == (F(1),)
        values = sample(spec, seed=3, count=256)
        assert values.max() <= 1.0

    def test_block_factor_gap(self):
        spec = block_factor_spec(10, 3, uniform(0, 1))
        assert spec.dependence_gap == 2
        assert resolve_methods(spec) == (M_DEPENDENT, M_DEPENDENT_PAULIN)


class TestDeterminism:
    def test_worker_count_invariance(self):
        g = build_graph(4, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        runs = [
            estimate_tails(spec, [0.5, 1.0], seed=13, n_samples=150_000, workers=w)
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_sample_slices_are_stream_consistent(self):
        spec = block_factor_spec(5, 2, uniform(0, 1))
        full = sample(spec, seed=99, count=64)
        part = sample(spec, seed=99, count=16, start=37)
        assert np.array_equal(full[37:53], part)

    def test_different_seeds_differ(self):
        spec = block_factor_spec(5, 2, uniform(0, 1))
        assert not np.array_equal(sample(spec, 1, 32), sample(spec, 2, 32))

    def test_discrete_draw_frequencies(self):
        g = build_graph(1, [])
        d = discrete([0, 5, 9], [F(1, 2), F(1, 3), F(1, 6)])
        spec = latent_graph_spec(g, [((1,), d)], emit="identity")
        values = sample(spec, seed=23, count=120_000)[:, 0]
        for value, prob in zip((0, 5, 9), (1 / 2, 1 / 3, 1 / 6)):
            assert abs((values == value).mean() - prob) < 0.01


class TestAnalyticMean:
    def test_sum_of_uniforms(self):
        g = build_graph(3, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        assert analytic_mean(spec) == 1.5

    def test_max_of_uniform_window(self):
        spec = block_factor_spec(12, 3, uniform(0, 1), combine="max")
        assert analytic_mean(spec) == 12 * 0.75

    def test_clamp_disables_analytic_route(self):
        g = build_graph(1, [])
        spec = latent_graph_spec(
            g, [((1,), uniform(0, 2))], emit={1: EmitRule(kind="sum", clamp=(F(0), F(1)))}
        )
        assert analytic_mean(spec) is None
        # the estimation-pass route still produces a sane estimate
        est = estimate_tail(spec, 0.25, seed=21, n_samples=20_000)
        assert 0 < est.p_hat < 1

    def test_sample_mean_agrees_with_analytic(self):
        ex9 = build_graph(9, [(1, 2), (1, 3), (2, 3)])
        lat = [((1, 2, 3), uniform(0, 1))] + [((v,), uniform(0, 1)) for v in range(4, 10)]
        spec = latent_graph_spec(ex9, lat)
        assert analytic_mean(spec) == 4.5
        values = sample(spec, seed=4, count=120_000).sum(axis=1)
        assert abs(values.mean() - 4.5) < 0.02


class TestEstimateTail:
    def test_independent_uniform_sum(self):
        g = build_graph(4, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        est = estimate_tail(spec, 2.0, seed=7, n_samples=200_000)
        assert est.p_hat <= math.exp(-2)
        assert est.ci_upper < 1

    def test_near_zero_threshold_has_half_mass(self):
        g = build_graph(4, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        est = estimate_tail(spec, 1e-9, seed=7, n_samples=100_000)
        assert abs(est.p_hat - 0.5) < 0.01

    def test_ci_is_exact_binomial(self):
        assert math.isclose(binomial_upper_ci(0, 100), 1 - 0.01 ** (1 / 100))
        assert binomial_upper_ci(100, 100) == 1.0
        assert binomial_upper_ci(3, 50) > 3 / 50


class TestValidateBounds:
    def test_forest_spec_passes(self):
        g = build_graph(6, [(1, 2), (3, 4), (4, 5)])
        lat = [((v,), uniform(0, 1)) for v in g.vertices] + [
            (e, uniform(0, 1)) for e in g.edges
        ]
        spec = latent_graph_spec(g, lat, emit="mean")
        assert resolve_methods(spec) == (FOREST,)
        rows = validate_bounds(spec, [0.5, 1.0, 2.0, 3.0], seed=31, n_samples=150_000)
        assert all(r.verdict == "PASS" for r in rows)

    def test_block_factor_spec_passes(self):
        spec = block_factor_spec(18, 3, uniform(0, 1), combine="max")
        rows = validate_bounds(spec, [1.0, 2.0, 4.0], seed=37, n_samples=150_000)
        assert {r.method for r in rows} == {M_DEPENDENT, M_DEPENDENT_PAULIN}
        assert all(r.verdict == "PASS" for r in rows)

    def test_perfectly_correlated_control_fails_mcdiarmid(self):
        g = complete(10)
        spec = latent_graph_spec(g, [(tuple(range(1, 11)), uniform(0, 1))], emit="identity")
        rows = validate_bounds(
            spec, [2.0, 3.0, 4.0], seed=41, n_samples=150_000, methods=(MCDIARMID,)
        )
        assert any(r.verdict == "FAIL" for r in rows)

    def test_denominators_match_compare_bounds(self, monkeypatch):
        # on this 4-cycle the decomposable optimum is exactly 72, and its
        # float objective is 71.99999999999999
        g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        lat = [((v,), uniform(0, 1)) for v in g.vertices] + [(e, uniform(0, 1)) for e in g.edges]
        spec = latent_graph_spec(g, lat)
        assert resolve_methods(spec) == (JANSON, DECOMPOSABLE)
        solve = coversmod.fractional_chromatic_number
        calls = []
        monkeypatch.setattr(
            coversmod, "fractional_chromatic_number", lambda g, cap: calls.append(g) or solve(g, cap=cap)
        )
        rows = validate_bounds(spec, [1.0], seed=3, n_samples=1000)
        assert len(calls) == 1
        reports = compare_bounds(g, spec.profile, t=1.0, methods=(JANSON, DECOMPOSABLE))
        assert {r.method: r.denominator for r in rows} == {
            r.method: r.denominator for r in reports
        } == {JANSON: 72.0, DECOMPOSABLE: 72.0}

    def test_csv_round_trip(self):
        spec = block_factor_spec(8, 2, uniform(0, 1))
        rows = validate_bounds(spec, [1.0], seed=43, n_samples=50_000)
        parsed = list(csv.DictReader(io.StringIO(validation_to_csv(rows))))
        assert parsed[0]["method"] == M_DEPENDENT
        assert parsed[0]["verdict"] == "PASS"
        assert int(parsed[0]["N"]) == 50_000


class TestEmpiricalStructure:
    def test_block_factor_independence_screen(self):
        """Coordinates further apart than the window overlap are uncorrelated."""
        n_samples = 60_000
        spec = block_factor_spec(8, 3, uniform(0, 1), combine="sum")
        values = sample(spec, seed=53, count=n_samples)
        limit = 4 / math.sqrt(n_samples)
        for i, j in itertools.combinations(range(8), 2):
            corr = np.corrcoef(values[:, i], values[:, j])[0, 1]
            if j - i > spec.dependence_gap:
                assert abs(corr) < limit
            elif j - i == 1:
                assert corr > limit  # overlapping windows really correlate

    def test_independent_bernoulli_log_tail_slope(self):
        """On an edgeless graph the empirical tail decays at the independent rate."""
        n = 64
        g = build_graph(n, [])
        spec = latent_graph_spec(g, [((v,), bernoulli(F(1, 2))) for v in g.vertices])
        t_grid = [6.5, 8.5, 10.5]
        ests = estimate_tails(spec, t_grid, seed=61, n_samples=400_000)
        assert all(e.hits > 0 for e in ests)
        t2 = np.array([t * t for t in t_grid])
        logp = np.log([e.p_hat for e in ests])
        slope = float(np.polyfit(t2, logp, 1)[0])
        target = -2.0 / float(spec.profile.norm_sq)
        assert abs(slope - target) <= 0.25 * abs(target)


class TestTableStatistic:
    def test_table_statistic_matches_exact_joint(self):
        from graphtail.coupling import exact_mean, lipschitz_function
        from graphtail.montecarlo import table_statistic

        g = build_graph(2, [(1, 2)])
        lat = [((1, 2), bernoulli(F(1, 2))), ((1,), bernoulli(F(1, 3))), ((2,), bernoulli(F(1, 4)))]
        plain = latent_graph_spec(g, lat)
        joint = exact_joint(plain)
        # an arbitrary non-linear statistic over the emitted alphabets
        table = {x: F(x[0] * x[0] + 3 * x[1]) for x in itertools.product(*joint.spaces)}
        spec = latent_graph_spec(g, lat, statistic=table_statistic(joint.spaces, table))
        f = lipschitz_function(joint.spaces, table)
        truth = float(exact_mean(joint, f))
        # no analytic route for tables: the estimation pass must kick in
        assert analytic_mean(spec) is None
        est = estimate_tail(spec, 1e-9, seed=17, n_samples=40_000)
        # exact tail above the (margin-lowered) mean, from the pmf
        assert 0 < est.p_hat < 1
        values = sample(spec, seed=17, count=40_000)
        # spot-check the vectorized table evaluation against the dict
        from graphtail.montecarlo import _statistic_values

        evaluated = _statistic_values(spec, values[:256].T)
        for row, got in zip(values[:256], evaluated):
            assert float(table[tuple(int(v) for v in row)]) == got


class TestDecomposableEndToEnd:
    def test_exact_tail_below_decomposable_bound_on_dependent_joint(self):
        """Sum statistics of dependent vectors obey the optimized cover bound.

        Exact counterpart of the Monte Carlo soundness screen: a clique-latent
        joint on a non-forest graph, with the tail computed from the pmf."""
        from graphtail.bounds import decomposable_denominator, janson_denominator, tail_bound
        from graphtail.coupling import coordinate_sum, exact_mean, exact_tail

        g = build_graph(4, [(1, 2), (1, 3), (2, 3)])  # triangle plus an isolated vertex
        lat = [((1, 2, 3), bernoulli(F(1, 2)))] + [
            ((v,), bernoulli(F(1, 3))) for v in range(1, 5)
        ]
        spec = latent_graph_spec(g, lat)
        joint = exact_joint(spec)
        f = coordinate_sum(joint.spaces)
        assert f.profile.values == spec.profile.values  # derived == declared ranges

        den, _ = decomposable_denominator(g, spec.profile)
        jan, _ = janson_denominator(g, spec.profile)
        assert den <= float(jan) + 1e-9
        mean = exact_mean(joint, f)
        spread = max(f.value(x) for x in joint.pmf) - mean
        for k in range(1, 21):
            t = F(spread) * k / 20
            assert float(exact_tail(joint, f, t)) <= tail_bound(den, float(t)) + 1e-12


class TestExactBridge:
    def test_downscaled_example_matches_brute_force(self):
        g = build_graph(4, [(1, 2), (1, 3), (2, 3)])
        lat = [((1, 2, 3), bernoulli(F(1, 2)))] + [
            ((v,), bernoulli(F(1, 3))) for v in range(1, 5)
        ]
        spec = latent_graph_spec(g, lat)
        joint = exact_joint(spec)
        assert verify_dependency(joint, g).deviation == 0
        assert verify_dependency(joint, build_graph(4, [])).deviation > 0
        # brute-force oracle over the 2^5 latent configurations
        oracle = {}
        shared_dist = [(0, F(1, 2)), (1, F(1, 2))]
        own_dist = [(0, F(2, 3)), (1, F(1, 3))]
        for shared, _p0 in shared_dist:
            for owns in itertools.product([0, 1], repeat=4):
                p = F(1, 2)
                for o in owns:
                    p *= own_dist[o][1]
                x = (
                    shared + owns[0],
                    shared + owns[1],
                    shared + owns[2],
                    owns[3],
                )
                oracle[x] = oracle.get(x, F(0)) + p
        assert joint.pmf == oracle

    def test_uniform_latents_refuse_exact_joint(self):
        g = build_graph(2, [])
        spec = latent_graph_spec(g, [((1,), uniform(0, 1)), ((2,), bernoulli(F(1, 2)))])
        with pytest.raises(InputError, match="finite"):
            exact_joint(spec)
