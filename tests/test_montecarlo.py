import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtail import cli
from graphtail import covers as coversmod
from graphtail import montecarlo as mcmod
from graphtail.bounds import (
    DECOMPOSABLE,
    FOREST,
    JANSON,
    MCDIARMID,
    M_DEPENDENT,
    M_DEPENDENT_PAULIN,
    compare_bounds,
    m_dependent_denominator,
)
from graphtail.coupling import finite_joint, verify_dependency
from graphtail.errors import InputError, ScaleError
from graphtail.graph import build_graph, m_dependence_graph
from graphtail.montecarlo import (
    CHUNK,
    EmitRule,
    analytic_mean,
    bernoulli,
    binomial_lower_ci,
    binomial_upper_ci,
    block_factor_spec,
    discrete,
    dist_finite_support,
    dist_mean,
    estimate_tails,
    exact_joint,
    latent_graph_spec,
    resolve_methods,
    sample,
    uniform,
    validate_bounds,
    validation_to_csv,
)
from graphtail.montecarlo import (
    _chunk_ranges,
    _combine,
    _combine_scalar,
    _draw,
    _emit_chunk,
    _fold,
    _stream_uniforms,
    _threshold_counts,
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

    def test_block_factor_latents_are_scoped_to_their_readers(self):
        spec = block_factor_spec(4, 3, uniform(0, 1))
        # Y_j at index j-1, read by vertices max(1, j-2)..min(4, j)
        assert [lat.scope for lat in spec.latents] == [
            (1,), (1, 2), (1, 2, 3), (2, 3, 4), (3, 4), (4,)
        ]
        assert spec.readers == ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5))
        assert spec.profile.values == (F(3),) * 4

    def test_empty_declared_range_is_named(self):
        with pytest.raises(InputError, match=r"declared range \[1, 0\] of vertex 1 is empty"):
            latent_graph_spec(
                build_graph(1, []), [((1,), uniform(0, 1))],
                emit={1: EmitRule(kind="sum", clamp=(F(1), F(0)))},
            )

    @pytest.mark.parametrize(
        "values", [("a", "b"), (0, None), (True, 1), (0, float("nan")), (0, 10**400)]
    )
    def test_latent_values_must_be_finite_numbers(self, values):
        with pytest.raises(InputError, match="not a finite number"):
            bernoulli(F(1, 2), values)
        with pytest.raises(InputError, match="not a finite number"):
            discrete(values, [F(1, 2), F(1, 2)])

    def test_emit_rule_for_a_missing_vertex_is_refused(self):
        with pytest.raises(InputError, match="vertex 3 outside 1..2"):
            latent_graph_spec(build_graph(2, []), [((1,), uniform(0, 1)), ((2,), uniform(0, 1))],
                              emit={3: EmitRule()})


class TestDeterminism:
    def test_worker_count_invariance(self):
        g = build_graph(4, [])
        for spec, t_grid in (
            (latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices]), [0.5, 1.0]),
            (_pinned_specs()["bool"], [0.5, 1.5]),  # 0/1 Bernoulli rows
        ):
            runs = [
                estimate_tails(spec, t_grid, seed=13, n_samples=150_000, workers=w)
                for w in (1, 2, 8)
            ]
            assert runs[0] == runs[1] == runs[2]

    def test_sample_slices_are_stream_consistent(self):
        spec = block_factor_spec(5, 2, uniform(0, 1))
        full = sample(spec, seed=99, count=64)
        part = sample(spec, seed=99, count=16, start=37)
        assert np.array_equal(full[37:53], part)

    @pytest.mark.parametrize("kind", ["sum", "mean"])
    def test_one_sample_chunks_hold_the_same_bits(self, kind):
        # 12 rows a vertex, which numpy would reduce pairwise in a one-sample stack
        spec = latent_graph_spec(build_graph(1, []), [((1,), uniform(0, 1))] * 12, emit=kind)
        full = sample(spec, seed=5, count=10)
        for i in range(10):
            assert sample(spec, seed=5, count=1, start=i).tobytes() == full[i].tobytes(), i

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


class TestStreaming:
    def test_one_chunk_holds_a_few_rows_whatever_n(self):
        # 202 latents and 200 coordinates; only a window of 3 latents is live
        spec = block_factor_spec(200, 3, uniform(0, 1), combine="max")
        tracemalloc.start()
        try:
            _threshold_counts(spec, seed=5, n_samples=CHUNK, thresholds=[150.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * CHUNK * 8

    def test_live_zero_one_latents_are_held_as_bools(self):
        # a star's 40 edge latents are all live from the centre until their leaf
        star = build_graph(41, [(1, leaf) for leaf in range(2, 42)])
        spec = latent_graph_spec(star, [((1, leaf), bernoulli(F(1, 3))) for leaf in range(2, 42)])
        tracemalloc.start()
        try:
            _threshold_counts(spec, seed=5, n_samples=CHUNK, thresholds=[20.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * CHUNK * 8  # 40 bool rows are 5 float rows

    @pytest.mark.parametrize("n", [1, 2, 9, 60, 200])
    def test_streamed_sum_adds_rows_as_the_axis_0_reduction_does(self, n):
        """Bit for bit, for chunks of two or more samples.

        A one-sample chunk is the exception: numpy reduces an (n, 1) stack
        pairwise, as a vector of n floats, not row by row.
        """
        rng = np.random.default_rng(n)
        for count in (2, 7, 4099):
            # magnitudes spread over 12 decades, so a change of order shows in the bits
            rows = [rng.standard_normal(count) * 10.0 ** rng.integers(-6, 6) for _ in range(n)]
            stacked = np.stack(rows).sum(axis=0)
            assert _fold(np.add, iter(rows), np.empty(count)).tobytes() == stacked.tobytes()
            first = rows[0].copy()  # folded into in place
            assert _fold(np.add, iter([first, *rows[1:]]), first).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 7, 4099])
    def test_combined_rows_match_the_stacked_reductions(self, count):
        """Row by row for every count: numpy's axis-0 reduction for two or more
        samples, and a left-to-right fold for one, which numpy sums pairwise.

        Into a scratch row or into the first row itself, with every other row
        a bool row or not.
        """
        rng = np.random.default_rng(count)
        for k, bools in itertools.product(range(1, 13), (False, True)):
            rows = [rng.random(count) < 0.5 if bools and j % 2
                    else rng.standard_normal(count) * 10.0 ** rng.integers(-6, 6) for j in range(k)]
            rows[0][0] = -0.0  # max keeps one of two equal zeros, the same one for a bool 0
            rows[-1][0] = 0
            stacked = np.stack(rows)
            assert stacked.dtype == np.float64

            def fold(ufunc):  # numpy reduces a one-sample stack pairwise, so fold that one here
                return ufunc.reduce(stacked) if count > 1 else functools.reduce(ufunc, stacked)

            for kind, want in (
                ("sum", fold(np.add)),
                ("mean", fold(np.add) / k),
                ("max", fold(np.maximum)),
            ):
                got = _combine(kind, list(rows), np.empty(count))
                assert got.tobytes() == want.tobytes(), (kind, k, bools)
                first = rows[0].copy()
                assert _combine(kind, [first, *rows[1:]], first).tobytes() == want.tobytes()
            assert all(np.asarray(a, np.float64).tobytes() == b.tobytes()
                       for a, b in zip(rows, stacked)), k

    @pytest.mark.parametrize("values", [(0, 1), (0.0, 1.0), (2, -5), (-0.0, 1)])
    def test_bernoulli_draws_match_the_where_form(self, values):
        p = F(1, 3)
        u = np.random.default_rng(7).random(4099)
        u[:3] = (0.0, float(p), np.nextafter(float(p), 0.0))
        want = np.where(u < float(p), float(values[1]), float(values[0]))
        row = _draw(bernoulli(p, values), u.copy())
        assert np.asarray(row, np.float64).tobytes() == want.tobytes()
        assert row.dtype == _draw_dtype(values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.fractions(0, 1, max_denominator=1000),
        values=st.sampled_from([(1, 0), (0, 1), (1.0, 0.0), (2, -5), (1, -0.0), (-0.0, 1), (0.5, 0.5)]),
    )
    def test_two_point_draws_match_the_generic_form(self, p, values):
        d = discrete(values, [p, 1 - p])
        for count in (1, 7, CHUNK):
            u = np.random.default_rng(count).random(count)
            u[:3] = (float(p), np.nextafter(float(p), 0.0), 0.0)[:count]
            cum = np.cumsum([float(q) for q in d.probs])
            idx = np.minimum(np.searchsorted(cum, u, side="right"), 1)
            want = np.asarray([float(v) for v in d.values])[idx]
            row = _draw(d, u.copy())
            assert np.asarray(row, np.float64).tobytes() == want.tobytes(), count
            assert row.dtype == _draw_dtype(values), count

    def test_clamped_identity_leaves_the_shared_draw_to_its_neighbour(self):
        # latent 1 is read by vertex 1 (identity, clamped) and vertex 2 (sum, unclamped)
        spec = _pinned_specs()["shared"]
        assert spec.readers == ((1,), (0, 1))
        draws = [_draw(lat.dist, _stream_uniforms(11, i, 3, 500, np.empty(503)))
                 for i, lat in enumerate(spec.latents)]
        first, second = (row.copy() for row in _emit_chunk(spec, 11, 3, 500))  # rows are reused
        assert first.tobytes() == np.clip(draws[1], 0.25, 0.75).tobytes()
        assert (first != draws[1]).any()
        assert second.tobytes() == (draws[0] + draws[1]).tobytes()


def _draw_dtype(values):
    """Bool for a law on 0 and 1, whose draws numpy reads as 1.0 and 0.0; a -0.0 keeps floats."""
    return bool if sorted(values) == [0, 1] and math.copysign(1, min(values)) > 0 else np.float64


def _pinned_specs():
    """Specs that reach every dist, emit and clamp kind the sampler's hot loop has."""
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    mixed = latent_graph_spec(
        g,
        [
            ((1, 2, 3), uniform(-1, 3)),
            ((2, 3), bernoulli(F(1, 3))),
            ((3, 4), bernoulli(F(2, 5), (2, -5))),
            ((1,), discrete([0, 1.5, 4], [F(1, 2), F(1, 4), F(1, 4)])),
            ((2,), discrete([-1, 3], [F(1, 3), F(2, 3)])),
            ((4,), uniform(F(1, 2), 2)),
        ],
        emit={
            1: EmitRule(kind="sum", clamp=(F(-1, 2), F(3))),
            2: EmitRule(kind="max", clamp=(F(0), F(5, 2))),
            3: EmitRule(kind="mean", clamp=(F(-1), F(1))),
            4: EmitRule(kind="sum"),
        },
    )
    # vertex 1 clamps the latent it shares with vertex 2, which reads it unclamped
    shared = latent_graph_spec(
        build_graph(2, [(1, 2)]),
        [((1, 2), uniform(0, 1)), ((2,), bernoulli(F(1, 2)))],
        emit={1: EmitRule(kind="identity", clamp=(F(1, 4), F(3, 4)))},
    )
    # 0/1 Bernoulli latents read as identity (unclamped and clamped), as the
    # only latent of a sum, mean and max, first in a max with a float latent,
    # and shared by two sums; vertex 7 draws a 0/1 discrete law in (0, 1) order
    zero_one = latent_graph_spec(
        build_graph(8, [(6, 7), (7, 8)]),
        [
            *(((v,), bernoulli(p)) for v, p in enumerate(
                (F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1, 5), F(2, 3)), start=1)),
            ((6,), uniform(F(-1, 2), F(1, 2))),
            ((7,), discrete([0, 1], [F(1, 3), F(2, 3)])),
            ((7, 8), bernoulli(F(1, 4))),
            ((8,), uniform(0, 2)),
        ],
        emit={
            1: EmitRule(kind="identity"),
            2: EmitRule(kind="identity", clamp=(F(1, 4), F(3, 4))),
            4: EmitRule(kind="mean", clamp=(F(1, 8), F(7, 8))),
            5: EmitRule(kind="max"),
            6: EmitRule(kind="max"),
        },
    )
    # the block sum and mean read 8 or more rows per vertex, which numpy would
    # sum pairwise in a one-sample chunk; the sampler folds them row by row
    return {
        "mixed": mixed,
        "block-max": block_factor_spec(6, 3, uniform(-2, 1), combine="max"),
        "block-sum": block_factor_spec(6, 9, uniform(-1, F(1, 3)), combine="sum"),
        "block-mean": block_factor_spec(
            6, 8, discrete([0, 0.1, 7], [F(1, 2), F(1, 3), F(1, 6)]), combine="mean"
        ),
        "shared": shared,
        "bool": zero_one,
    }


_PIN_SLICES = ((1, 0), (1, 7), (2, 3), (5, 13), (CHUNK + 3, 1))

# Per spec: the first 16 hex digits of the sha256 of sample()'s bytes at each of
# _PIN_SLICES, then thresholds, counts and running sum of _threshold_counts over
# 2 * CHUNK + 1 samples from start 5 on two workers (its last chunk has one sample).
_PINNED = {
    "mixed": (
        ("78865bd9a290c98b", "2a91316a02f29869", "e276844232c84e23", "a9b905e8677864a0",
         "068d64f4fc57a352"),
        (6.0, 9.5, 10.4), [67600, 17312, 1092], "0x1.1fced8811303dp+19",
    ),
    "block-max": (
        ("f28c13baa3cdf730", "267666fa51925d2e", "e806a7d8b3625a97", "389d45285b62cfbb",
         "7997c6a75079d63a"),
        (1.7, 4.1, 5.2), [66765, 12544, 1452], "0x1.7d519b99e8fa8p+17",
    ),
    "block-sum": (
        ("74313db4fad2878f", "8483d2545736cc8a", "c20c4da0ac70708b", "9435eaaa60ed0355",
         "e8ef8d80bfcecdea"),
        (-18.0, -12.0, -6.0), [65388, 21812, 3257], "-0x1.2012699530adbp+21",
    ),
    "block-mean": (
        ("a0424815eebf95e2", "e2208f96391fe8ba", "96dec3e450e06486", "3a91f3f37df5686e",
         "09923a8ad68ba75e"),
        (7.0, 10.0, 13.0), [64152, 32813, 17051], "0x1.cd77eb999999ap+19",
    ),
    "shared": (
        ("7d294f5b96e67be2", "0ae23ceff5eb7345", "5205eadafee27eee", "832064537c6676b8",
         "73aeb8c6586800fd"),
        (1.5, 2.5, 2.7), [65547, 16203, 3338], "0x1.7fe0191cefe97p+17",
    ),
    "bool": (
        ("894b8701625dd189", "e974a1c8e0cba76f", "cd681cc4b1e1e93d", "5c9c4f19e5c3fa0b",
         "ccaeba3cf8bfbd59"),
        (4.0, 5.5, 7.0), [97726, 48224, 14049], "0x1.42fbdaa9f7752p+19",
    ),
}


class TestPinnedBits:
    """The sampler's output, pinned to the last bit of every float.

    The golden ``simulate`` cases pin threshold counts only, so a change of
    rounding in the hot loop could pass them; these pins cannot.
    """

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_sample_bytes(self, name):
        spec = _pinned_specs()[name]
        digests = tuple(
            hashlib.sha256(sample(spec, seed=2718, count=count, start=start).tobytes()).hexdigest()[:16]
            for count, start in _PIN_SLICES
        )
        assert digests == _PINNED[name][0]

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_threshold_counts_and_running_sum(self, name):
        _, thresholds, counts, total = _PINNED[name]
        spec = _pinned_specs()[name]
        got = _threshold_counts(spec, 2718, 2 * CHUNK + 1, thresholds, start=5, workers=2)
        running = 0.0
        for a, m in _chunk_ranges(2 * CHUNK + 1, 5):  # chunk order, as the sum was recorded
            running += float(_fold(np.add, _emit_chunk(spec, 2718, a, m), np.empty(m)).sum())
        assert (got, running.hex()) == (counts, total)


def _one_vertex_spec(dists, rule):
    return latent_graph_spec(build_graph(1, []), [((1,), d) for d in dists], emit={1: rule})


def _in_large_sample_ci(spec, mean):
    """Whether ``mean`` lies in a two-sided 99.999% normal interval of a 2M-sample mean."""
    values = np.concatenate(
        [sample(spec, seed=17, count=m, start=a).sum(axis=1) for a, m in _chunk_ranges(2_000_000)]
    )
    return abs(mean - values.mean()) < 4.42 * values.std() / math.sqrt(len(values))


class TestAnalyticMean:
    def test_sum_of_uniforms(self):
        g = build_graph(3, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        assert analytic_mean(spec) == 1.5

    def test_max_of_uniform_window(self):
        spec = block_factor_spec(12, 3, uniform(0, 1), combine="max")
        assert analytic_mean(spec) == 12 * 0.75

    def test_term_cap_bounds_the_clamped_sum_products(self):
        # two latents whose sums are all distinct take k + k**2 products:
        # 361 values per latent fit MEAN_TERM_CAP, 362 do not
        def spec(size):
            lat = [discrete([size**j * i for i in range(size)], [F(1, size)] * size) for j in range(2)]
            return _one_vertex_spec(lat, EmitRule("sum", (F(1), F(9))))

        assert 361 * 362 <= mcmod.MEAN_TERM_CAP < 362 * 363
        assert analytic_mean(spec(361)) == float(9 - F(44, 361**2))  # S is uniform on 0..361**2 - 1
        with pytest.raises(ScaleError, match="more than 131072 steps, running out at vertex 1$"):
            analytic_mean(spec(362))

    def test_term_cap_bounds_the_max_segments(self):
        # U(0, 1) and m atoms i/m: m segments, each reading m atoms and updating 2 coefficients
        def spec(m):
            atoms = discrete([F(i, m) for i in range(m)], [F(1, m)] * m)
            return _one_vertex_spec([uniform(0, 1), atoms], EmitRule("max"))

        assert 361 * 363 <= mcmod.MEAN_TERM_CAP < 362 * 364
        want = sum((1 + F(i, 361) ** 2) / (2 * 361) for i in range(361))  # E max(i/m, U), averaged
        assert analytic_mean(spec(361)) == float(want)
        with pytest.raises(ScaleError, match="more than 131072 steps, running out at vertex 1$"):
            analytic_mean(spec(362))

    def test_term_cap_bounds_the_whole_spec(self):
        # two latents of 100 values whose sums are all distinct take 100 + 100**2 products
        def spec(n, shared=False):
            def laws(v):
                shift = 0 if shared else 5 * v
                return [discrete([100**j * i + shift for i in range(100)], [F(1, 100)] * 100)
                        for j in range(2)]

            g = build_graph(n, [])
            return latent_graph_spec(g, [((v,), d) for v in g.vertices for d in laws(v)],
                                     emit={v: EmitRule("sum", (F(1), F(9))) for v in g.vertices})

        assert 12 * 10_100 <= mcmod.MEAN_TERM_CAP < 13 * 10_100
        assert analytic_mean(spec(12)) == 12 * 9.0  # every sum is at least 10, so it clamps to 9
        assert analytic_mean(spec(100, shared=True)) == 100 * float(9 - F(44, 100**2))  # counted once
        with pytest.raises(ScaleError, match="more than 131072 steps, running out at vertex 13$"):
            analytic_mean(spec(100))

    @pytest.mark.parametrize(
        "latents, rule",
        [
            ([{"kind": "bernoulli", "p": "1/3"}] * 4000, {"kind": "sum", "range": [0, 2000]}),
            ([{"kind": "uniform", "lo": f"{i}/1000", "hi": f"{997 + i}/997"} for i in range(200)],
             {"kind": "max"}),
        ],
        ids=["clamped-sum-4000-bernoulli", "max-200-staggered-uniform"],
    )
    def test_vertex_past_the_cap_exits_2(self, tmp_path, capsys, latents, rule):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "model": "latent_graph",
            "graph": {"n": 1, "edges": []},
            "latents": [{"scope": [1], "dist": d} for d in latents],
            "emit": {"1": rule},
        }))
        started = time.process_time()  # CPU time: other processes' load does not count
        code = cli.run(["simulate", "--spec", str(path), "--t", "1", "--n", "1000", "--seed", "1"])
        assert time.process_time() - started < 1  # uncapped, the two integrals take 14 s and 102 s
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"scale error: the exact mean takes more than {mcmod.MEAN_TERM_CAP} steps,"
            " running out at vertex 1\n"
        )

    def test_staggered_max_lies_in_a_large_sample_ci(self):
        # one segment per uniform above the greatest lo, with one live uniform fewer each
        spec = _one_vertex_spec([uniform(F(i, 1000), 1 + F(i, 997)) for i in range(20)], EmitRule("max"))
        assert _in_large_sample_ci(spec, analytic_mean(spec))

    def test_matches_the_exact_joint_on_clamped_finite_specs(self):
        from graphtail.coupling import coordinate_sum, exact_mean

        rng = random.Random(1729)
        checked = 0
        for trial in range(120):
            n = rng.randint(1, 4)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            g = build_graph(n, [e for e in pairs if rng.random() < 0.6])
            scopes = [(v,) for v in g.vertices] + [e for e in g.edges if rng.random() < 0.5]
            latents = [(sc, random_finite_latent(rng)) for sc in scopes]
            emit = {}
            for v in g.vertices:
                kinds = ["sum", "mean", "max"]
                if sum(v in sc for sc in scopes) == 1:
                    kinds.append("identity")
                lo = F(rng.randint(-2, 4), rng.randint(1, 3))
                hi = lo + F(rng.randint(0, 4), rng.randint(1, 3))
                emit[v] = EmitRule(rng.choice(kinds), (lo, hi) if rng.random() < 0.7 else None)
            spec = latent_graph_spec(g, latents, emit=emit)
            try:
                joint = exact_joint(spec)
            except ScaleError:  # more than 6 symbols at some coordinate
                continue
            want = float(exact_mean(joint, coordinate_sum(joint.spaces)))
            assert analytic_mean(spec) == want, trial
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("kind", ["sum", "mean", "max", "identity"])
    def test_lies_in_a_large_sample_ci_on_uniform_and_mixed_specs(self, kind):
        g = build_graph(3, [(1, 2), (2, 3)])
        latents = [
            ((1, 2), uniform(-1, 2)),
            ((2, 3), uniform(0, F(1, 2))),
            ((1,), bernoulli(F(1, 3), (0, 2))),
            ((2,), discrete([0, 1, 5], [F(1, 2), F(1, 4), F(1, 4)])),
            ((3,), uniform(1, 4)),
        ]
        if kind == "identity":
            latents = [((1, 2), uniform(-1, 2)), ((2,), uniform(F(1, 3), 3)), ((3,), uniform(1, 4))]
        clamps = {1: (F(0), F(5, 2)), 2: (F(1, 2), F(3)), 3: (F(-1), F(3))}
        emit = {v: EmitRule(kind, clamp) for v, clamp in clamps.items()}
        if kind == "identity":
            emit[2] = EmitRule("sum", clamps[2])  # vertex 2 reads two latents
        spec = latent_graph_spec(g, latents, emit=emit)
        assert _in_large_sample_ci(spec, analytic_mean(spec))

    @pytest.mark.parametrize("k", [13, 30, 60])
    def test_lies_in_a_large_sample_ci_on_clamped_sums_of_equal_width_uniforms(self, k):
        # equal widths keep k + 1 terms whatever the offsets; the clamp cuts both tails
        centre = sum(F(i, 7) + F(1, 2) for i in range(k))
        spec = _one_vertex_spec([uniform(F(i, 7) - 1, F(i, 7) + 2) for i in range(k)],
                                EmitRule("sum", (centre - 3, centre + 2)))
        assert _in_large_sample_ci(spec, analytic_mean(spec))

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
        est = estimate_tails(spec, [2.0], seed=7, n_samples=200_000)[0]
        assert est.p_hat <= math.exp(-2)
        assert est.ci_upper < 1

    def test_near_zero_threshold_has_half_mass(self):
        g = build_graph(4, [])
        spec = latent_graph_spec(g, [((v,), uniform(0, 1)) for v in g.vertices])
        est = estimate_tails(spec, [1e-9], seed=7, n_samples=100_000)[0]
        assert abs(est.p_hat - 0.5) < 0.01

    def test_ci_is_exact_binomial(self):
        assert math.isclose(binomial_upper_ci(0, 100), 1 - 0.01 ** (1 / 100))
        assert binomial_upper_ci(100, 100) == 1.0
        assert binomial_upper_ci(3, 50) > 3 / 50

    def test_ci_is_the_beta_quantile(self):
        from scipy.stats import beta

        rng = random.Random(8)
        for n in [1, 2, 7, 100, 20_000, 3_000_000]:
            for hits in {0, min(1, n - 1), n // 2, n - 1, rng.randrange(n)}:
                assert binomial_upper_ci(hits, n) == float(beta.ppf(0.99, hits + 1, n - hits))

    def test_lower_ci_is_the_beta_quantile(self):
        from scipy.stats import beta

        rng = random.Random(9)
        for n in [1, 2, 7, 100, 20_000, 3_000_000]:
            assert binomial_lower_ci(0, n) == 0.0
            for hits in {1, n // 2 or 1, n, rng.randrange(1, n + 1)}:
                want = float(beta.ppf(1 - mcmod.CI_LEVEL, hits, n - hits + 1))
                assert binomial_lower_ci(hits, n) == want
                assert binomial_lower_ci(hits, n) < binomial_upper_ci(hits, n)

    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        import graphtail

        src = os.path.dirname(os.path.dirname(graphtail.__file__))
        code = "import sys, graphtail.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout == "False\n"


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
            coversmod, "fractional_chromatic_number", lambda g: calls.append(g) or solve(g)
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

    def test_matches_full_product_on_random_clique_specs(self):
        rng = random.Random(8086)
        built_count = 0
        for trial in range(60):
            n = rng.randint(1, 5)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            g = build_graph(n, [e for e in pairs if rng.random() < 0.5])
            scopes = [(v,) for v in g.vertices if rng.random() < 0.7]
            scopes += [e for e in g.edges if rng.random() < 0.6]
            scopes += [
                (a, b, c) for a, b, c in itertools.combinations(g.vertices, 3)
                if {(a, b), (a, c), (b, c)} <= set(g.edges) and rng.random() < 0.5
            ]
            scopes += [(v,) for v in g.vertices if not any(v in sc for sc in scopes)]
            latents = [(sc, random_finite_latent(rng)) for sc in scopes]
            emit = {}
            for v in g.vertices:
                kinds = ["sum", "mean", "max"]
                if sum(v in sc for sc in scopes) == 1:
                    kinds.append("identity")
                emit[v] = EmitRule(kind=rng.choice(kinds))
            spec = latent_graph_spec(g, latents, emit=emit)
            try:
                oracle = full_product_exact_joint(spec)
            except ScaleError:  # more than 6 symbols at some coordinate
                with pytest.raises(ScaleError):
                    exact_joint(spec)
                continue
            built = exact_joint(spec)
            assert built.pmf == oracle.pmf, trial
            assert built.spaces == oracle.spaces, trial
            assert built.dependency == g
            built_count += 1
        assert built_count >= 40

    def test_declared_clamp_gives_the_sampled_support(self):
        # one vertex emitting the sum of two fair bits, clamped to [0, 1]
        spec = latent_graph_spec(
            build_graph(1, []), [((1,), bernoulli(F(1, 2)))] * 2,
            emit={1: EmitRule(kind="sum", clamp=(F(0), F(1)))},
        )
        joint = exact_joint(spec)
        assert joint.spaces == ((0, 1),)
        assert joint.pmf == {(0,): F(1, 4), (1,): F(3, 4)}
        assert set(np.unique(sample(spec, seed=3, count=1000))) == {0.0, 1.0}

    def test_cap_counts_reachable_states_only(self):
        # one six-valued latent read by every vertex of K8: 6 reachable states
        # at each vertex, although the emitted prefixes alone span 6**7 cells
        spec = latent_graph_spec(
            complete(8), [(tuple(range(1, 9)), discrete(range(6), [F(1, 6)] * 6))],
            emit={v: EmitRule(kind="identity") for v in range(1, 9)},
        )
        joint = exact_joint(spec)
        assert joint.spaces == (tuple(range(6)),) * 8
        assert joint.pmf == {(k,) * 8: F(1, 6) for k in range(6)}

    def test_vertex_with_21_binary_latents_refused(self):
        spec = latent_graph_spec(build_graph(1, []), [((1,), bernoulli(F(1, 2)))] * 21)
        with pytest.raises(ScaleError, match="exceed cap"):
            exact_joint(spec)

    def test_block_factor_joint_is_m_dependent(self):
        from graphtail.bounds import tail_bound
        from graphtail.coupling import coordinate_sum, exact_mean, exact_tail

        spec = block_factor_spec(5, 3, discrete([0, 1, 3], [F(1, 2), F(1, 3), F(1, 6)]), "max")
        joint = exact_joint(spec)
        assert joint.dependency == m_dependence_graph(5, 2)
        assert verify_dependency(joint, m_dependence_graph(5, 2)).deviation == 0
        assert verify_dependency(joint, m_dependence_graph(5, 1)).deviation > 0
        f = coordinate_sum(joint.spaces)
        assert f.profile.values == spec.profile.values
        den = float(m_dependent_denominator(5, 2, spec.profile)[0])
        spread = max(f.value(x) for x in joint.pmf) - exact_mean(joint, f)
        for k in range(1, 21):
            t = F(spread) * k / 20
            assert float(exact_tail(joint, f, t)) <= tail_bound(den, float(t))

    def test_width_one_block_factor_joint_is_independent(self):
        joint = exact_joint(block_factor_spec(3, 1, bernoulli(F(1, 3))))
        assert joint.dependency == build_graph(3, [])
        assert verify_dependency(joint, build_graph(3, [])).deviation == 0

    @pytest.mark.parametrize("kind, mean", [("mean", F(5, 8)), ("sum", F(5, 4)), ("max", F(1))])
    def test_float_latent_values_are_read_exactly(self, kind, mean):
        from graphtail.coupling import coordinate_sum, exact_mean

        spec = latent_graph_spec(
            build_graph(1, []),
            [((1,), discrete([0, 1.5], [F(1, 2), F(1, 2)])), ((1,), bernoulli(F(1, 2)))],
            emit=kind,
        )
        joint = exact_joint(spec)
        assert all(isinstance(v, (int, F)) for v in joint.spaces[0])
        assert exact_mean(joint, coordinate_sum(joint.spaces)) == mean
        assert analytic_mean(spec) == float(mean)

    def test_uniform_latents_refuse_exact_joint(self):
        g = build_graph(2, [])
        spec = latent_graph_spec(g, [((1,), uniform(0, 1)), ((2,), bernoulli(F(1, 2)))])
        with pytest.raises(InputError, match="finite"):
            exact_joint(spec)


def random_finite_latent(rng):
    """A Bernoulli (sometimes degenerate, so some outcomes have zero mass) or a discrete law."""
    if rng.random() < 0.5:
        p = rng.choice([F(0), F(1, 3), F(1, 2), F(1)])
        return bernoulli(p, values=rng.choice([(0, 1), (0, 2)]))
    values = rng.sample([0, 1, 2], rng.randint(1, 3))
    weights = [rng.randint(0, 3) for _ in values]
    weights[0] += 1
    return discrete(values, [F(w, sum(weights)) for w in weights])


def full_product_exact_joint(spec):
    """Reference: the clique-latent joint summed over every latent configuration at once."""
    supports = [dist_finite_support(lat.dist) for lat in spec.latents]
    pmf = {}
    for combo in itertools.product(*supports):
        p = F(1)
        for _, q in combo:
            p *= q
        values = [val for val, _ in combo]
        x = []
        for v in range(1, spec.n + 1):
            mine = [values[i] for i, lat in enumerate(spec.latents) if v in lat.scope]
            x.append(_combine_scalar(spec.emit[v - 1].kind, mine))
        key = tuple(x)
        pmf[key] = pmf.get(key, F(0)) + p
    spaces = [sorted({x[k] for x in pmf}) for k in range(spec.n)]
    return finite_joint(spaces, pmf, dependency=spec.graph)
