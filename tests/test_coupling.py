import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from graphtail.bounds import forest_denominator, tail_bound
from conftest import (
    SwingViolation,
    _table_emit,
    copied_coordinates,
    coupling_disagreements,
    dependency_per_subset,
    latent_joint_per_point,
    mgf_envelope_ratio,
    product_joint,
    random_finite_dist,
    random_tree_edges,
)
from graphtail.coupling import (
    MAX_LATENT_CONFIGS,
    CouplingContext,
    CouplingPair,
    DependencyViolation,
    FiniteJoint,
    all_coupling_contexts,
    build_coupling,
    build_tree_joint,
    coordinate_sum,
    coupling_effective_profile,
    exact_mean,
    exact_tail,
    finite_dist,
    finite_joint,
    latent_tree_spec,
    lipschitz_function,
    relabel_joint,
    verify_all_couplings,
    verify_coupling_marginals,
    verify_dependency,
    verify_difference_bound,
    verify_independence_lemma,
)
from graphtail import coupling as coupling_module
from graphtail._simplex import column_mask, int_dtype
from graphtail.cli import _emit_callable
from graphtail.coupling import (
    _context_batches,
    _conditional_swings,
    _couple,
    _latent_joint,
    _marginal_gap,
    _maximal_couplings,
    _pair_laws,
)
from graphtail.covers import lipschitz_profile
from graphtail.errors import InputError, KindError, ScaleError
from graphtail.graph import build_graph, rooted_order


def xor_pair_joint():
    """X_i = xi_i XOR eps with xi ~ Bern(1/4), eps ~ Bern(1/2), shared eps."""
    g = build_graph(2, [(1, 2)])
    spec = latent_tree_spec(
        g,
        vertex_latents={v: [(0, F(3, 4)), (1, F(1, 4))] for v in (1, 2)},
        edge_latents={(1, 2): [(0, F(1, 2)), (1, F(1, 2))]},
        emit={v: (lambda xi, ev: xi ^ ev[(1, 2)]) for v in (1, 2)},
    )
    return build_tree_joint(spec), spec


def xor_chain_joint():
    """Path 1-2-3 with X1 = e12, X2 = e12 xor e23, X3 = e23 (edge latents only)."""
    g = build_graph(3, [(1, 2), (2, 3)])
    point = [(0, F(1))]
    spec = latent_tree_spec(
        g,
        vertex_latents={v: point for v in (1, 2, 3)},
        edge_latents={e: [(0, F(1, 2)), (1, F(1, 2))] for e in g.edges},
        emit={
            1: lambda xi, ev: ev[(1, 2)],
            2: lambda xi, ev: ev[(1, 2)] ^ ev[(2, 3)],
            3: lambda xi, ev: ev[(2, 3)],
        },
    )
    return build_tree_joint(spec), spec


class TestBuildTreeJoint:
    def test_xor_pair_matches_latent_enumeration(self):
        joint, _ = xor_pair_joint()
        # independent oracle: direct sum over the 8 latent configurations
        oracle = {}
        for x1 in (0, 1):
            for x2 in (0, 1):
                for e in (0, 1):
                    p = (
                        (F(1, 4) if x1 else F(3, 4))
                        * (F(1, 4) if x2 else F(3, 4))
                        * F(1, 2)
                    )
                    key = (x1 ^ e, x2 ^ e)
                    oracle[key] = oracle.get(key, F(0)) + p
        assert joint.pmf == oracle

    def test_degenerate_edge_latents_give_product(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        spec = latent_tree_spec(
            g,
            vertex_latents={v: [(0, F(1, 2)), (1, F(1, 2))] for v in g.vertices},
            edge_latents={e: [(0, F(1))] for e in g.edges},
            emit={v: (lambda xi, ev: xi) for v in g.vertices},
        )
        joint = build_tree_joint(spec)
        assert verify_dependency(joint, build_graph(3, [])).deviation == 0

    def test_star_with_shared_latents_fails_empty_declaration(self):
        # biased shared edge latents, no masking vertex noise: the leaves
        # correlate with the center, so the edgeless declaration must fail
        g = build_graph(3, [(1, 2), (1, 3)])
        spec = latent_tree_spec(
            g,
            vertex_latents={v: [(0, F(1))] for v in g.vertices},
            edge_latents={e: [(0, F(2, 3)), (1, F(1, 3))] for e in g.edges},
            emit={
                1: lambda xi, ev: ev[(1, 2)] ^ ev[(1, 3)],
                2: lambda xi, ev: ev[(1, 2)],
                3: lambda xi, ev: ev[(1, 3)],
            },
        )
        joint = build_tree_joint(spec)
        assert verify_dependency(joint, g).deviation == 0
        assert verify_dependency(joint, build_graph(3, [])).deviation > 0

    def test_non_tree_rejected(self, k3):
        with pytest.raises(KindError):
            latent_tree_spec(k3, {}, {}, {})


def full_product_tree_joint(spec):
    """Reference: the latent-tree joint summed over every latent configuration at once."""
    g = spec.graph
    vorder = list(g.vertices)
    eorder = list(g.edges)
    incident = {v: [e for e in eorder if v in e] for v in vorder}
    pmf = {}
    vertex_choices = [spec.vertex_latents[v] for v in vorder]
    edge_choices = [spec.edge_latents[e] for e in eorder]
    for vcombo in itertools.product(*vertex_choices):
        pv = F(1)
        for _, q in vcombo:
            pv *= q
        xi = {v: val for v, (val, _) in zip(vorder, vcombo)}
        for ecombo in itertools.product(*edge_choices):
            p = pv
            for _, q in ecombo:
                p *= q
            eps = {e: val for e, (val, _) in zip(eorder, ecombo)}
            x = tuple(spec.emit[v](xi[v], {e: eps[e] for e in incident[v]}) for v in vorder)
            pmf[x] = pmf.get(x, F(0)) + p
    spaces = [sorted({x[k] for x in pmf}) for k in range(g.n)]
    return finite_joint(spaces, pmf, dependency=g)


def ternary_xor_path(n):
    """The xor path of the coupling benchmark: ternary latents in eighths everywhere."""
    g = build_graph(n, [(v, v + 1) for v in range(1, n)])
    third = [(0, F(3, 8)), (1, F(2, 8)), (2, F(3, 8))]

    def xor(xi, ev):
        out = xi
        for e in sorted(ev):
            out ^= ev[e]
        return out

    spec = latent_tree_spec(
        g, {v: third for v in g.vertices}, {e: third for e in g.edges},
        {v: xor for v in g.vertices},
    )
    return build_tree_joint(spec)


class TestLatentJointBuilder:
    def test_matches_full_product_on_random_table_specs(self):
        rng = random.Random(5150)
        for trial in range(40):
            n = rng.randint(1, 6)
            g = build_graph(n, random_tree_edges(n, rng)) if n > 1 else build_graph(1, [])
            top = 3 if n <= 4 else 2  # largest latent support
            vertex_latents = {v: random_finite_dist(rng.randint(1, top), rng) for v in g.vertices}
            edge_latents = {e: random_finite_dist(rng.randint(1, top), rng) for e in g.edges}
            emit = {}
            for v in g.vertices:
                incident = sorted(e for e in g.edges if v in e)
                sizes = [len(vertex_latents[v])] + [len(edge_latents[e]) for e in incident]
                out_size = rng.randint(1, 4)
                combos = itertools.product(*map(range, sizes))
                table = {c: rng.randrange(out_size) for c in combos}
                emit[v] = _table_emit(incident, table)
            spec = latent_tree_spec(g, vertex_latents, edge_latents, emit)
            built, oracle = build_tree_joint(spec), full_product_tree_joint(spec)
            assert built.pmf == oracle.pmf, trial
            assert built.spaces == oracle.spaces, trial
            assert built.dependency == g

    def test_states_times_joining_supports_is_capped(self):
        # 21 binary latents join at vertex 1: 2**21 states, over the cap
        bit = [(0, F(1, 2)), (1, F(1, 2))]
        with pytest.raises(ScaleError, match="at vertex 1 exceed cap"):
            _latent_joint(1, [((1,), bit)] * 21, [sum], None)

    def test_latents_are_summed_out_after_their_last_vertex(self):
        # 10**7 edge-latent configurations in all, but each edge latent leaves
        # the state at its second vertex, so no vertex does more than 12 800 steps
        decimal = [(d, F(1, 10)) for d in range(10)]
        n = 8
        latents = [((v, v + 1), decimal) for v in range(1, n)]
        parity = [lambda supports: [sum(x) % 2 for x in itertools.product(*supports)]] * n
        joint = _latent_joint(n, latents, parity, None)
        assert 10 ** (n - 1) > MAX_LATENT_CONFIGS
        # the 7 edge parities are fair bits and fix the emitted vector
        assert set(joint.pmf.values()) == {F(1, 2 ** (n - 1))}
        assert len(joint.pmf) == 2 ** (n - 1)

    def test_ternary_xor_path_n7_builds(self):
        # 3**13 latent configurations, which the full product refused
        joint = ternary_xor_path(7)
        assert len(joint.pmf) == 4**7
        assert sum(joint.pmf.values()) == 1
        assert joint.spaces == ((0, 1, 2, 3),) * 7


class TestVerifyDependency:
    def test_product_is_dependent_for_any_graph(self, k3):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 3)
        assert verify_dependency(joint, k3).deviation == 0
        assert verify_dependency(joint, build_graph(3, [])).deviation == 0

    def test_perfectly_correlated_pair_deviates_by_half(self):
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        joint = finite_joint([[0, 1], [0, 1]], pmf)
        report = verify_dependency(joint, build_graph(2, []))
        assert report.deviation == F(1, 2)
        assert report.worst_pair == (frozenset({1}), frozenset({2}))

    def test_built_joint_passes_its_own_tree(self):
        joint, spec = xor_chain_joint()
        assert verify_dependency(joint, spec.graph).deviation == 0

    def test_complete_graph_declares_nothing(self):
        # every pair of vertex sets is adjacent in K_2, so even perfectly
        # correlated coordinates satisfy the (vacuous) declaration
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        joint = finite_joint([[0, 1], [0, 1]], pmf)
        report = verify_dependency(joint, build_graph(2, [(1, 2)]))
        assert report.deviation == 0 and report.worst_pair is None


def random_block_joint(n, rng):
    """Independent blocks of coordinates, each block with a random exact law.

    Returns the joint and the union of the block cliques, a graph the joint
    is dependent along by construction.
    """
    spaces = [list(range(rng.randint(2, 3))) for _ in range(n)]
    blocks = {}
    for v in range(1, n + 1):
        blocks.setdefault(rng.randrange(n), []).append(v)
    laws = []
    for verts in blocks.values():
        points = list(itertools.product(*(spaces[v - 1] for v in verts)))
        weights = [rng.randint(0, 3) for _ in points]
        weights[rng.randrange(len(points))] += 1
        total = sum(weights)
        laws.append((verts, {x: F(w, total) for x, w in zip(points, weights) if w}))
    pmf = {}
    for combo in itertools.product(*(law.items() for _, law in laws)):
        x = [None] * n
        p = F(1)
        for (verts, _), (values, q) in zip(laws, combo):
            for v, value in zip(verts, values):
                x[v - 1] = value
            p *= q
        pmf[tuple(x)] = p
    cliques = [e for verts in blocks.values() for e in itertools.combinations(verts, 2)]
    return finite_joint(spaces, pmf), build_graph(n, cliques)


def pair_gap(joint, s, t):
    """TV between the law of (X_S, X_T) and the product of its marginals."""

    def law(coords):
        out = {}
        for x, p in joint.pmf.items():
            key = tuple(x[c - 1] for c in coords)
            out[key] = out.get(key, F(0)) + p
        return out

    ps, pt, pst = law(s), law(t), law(s + t)
    total = sum(
        abs(pst.get(a + b, F(0)) - ps.get(a, F(0)) * pt.get(b, F(0)))
        for a in itertools.product(*(joint.spaces[c - 1] for c in s))
        for b in itertools.product(*(joint.spaces[c - 1] for c in t))
    )
    return total / 2


def adjacent(g, s, t):
    return any((u in s and w in t) or (w in s and u in t) for u, w in g.edges)


def all_pairs_deviation(joint, g):
    """Worst gap over every disjoint non-adjacent pair (S, T): the definition."""
    verts = range(1, joint.n + 1)
    subsets = [c for r in range(1, joint.n) for c in itertools.combinations(verts, r)]
    return max(
        (
            pair_gap(joint, s, t)
            for s in subsets
            for t in subsets
            if not set(s) & set(t) and not adjacent(g, s, t)
        ),
        default=F(0),
    )


class TestReducedDependencySweep:
    def test_matches_all_pairs_oracle_on_random_joints(self):
        rng = random.Random(20261017)
        dependent = not_dependent = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            joint, honest = random_block_joint(n, rng)
            pairs = itertools.combinations(range(1, n + 1), 2)
            random_graph = build_graph(n, [e for e in pairs if rng.random() < 0.4])
            for g in (honest, random_graph):
                expected = all_pairs_deviation(joint, g)
                report = verify_dependency(joint, g)
                assert report.deviation == expected
                if expected == 0:
                    dependent += 1
                    assert report.worst_pair is None
                    continue
                not_dependent += 1
                s, t = report.worst_pair
                assert s and t and not s & t and not adjacent(g, s, t)
                assert pair_gap(joint, tuple(sorted(s)), tuple(sorted(t))) == expected
        assert dependent >= 20 and not_dependent >= 20


def random_pmf_joint(n, rng, copy=False):
    """A joint with random small integer weights on a product of 2- or 3-symbol alphabets.

    Zero cells and equal weights are common, so are tied gaps.  With
    ``copy``, one random coordinate is set equal to another, which puts the
    worst gaps on the pairs that split those two.
    """
    spaces = [list(range(rng.randint(2, 3))) for _ in range(n)]
    source, target = rng.sample(range(n), 2)
    if copy:
        spaces[target] = spaces[source]
    pmf = {}
    for x in itertools.product(*spaces):
        w = rng.choice((0, 1, 1, 2, 3)) + (x == (0,) * n)
        if copy:
            x = x[:target] + (x[source],) + x[target + 1 :]
        pmf[x] = pmf.get(x, 0) + w
    total = sum(pmf.values())
    return finite_joint(spaces, {x: F(w, total) for x, w in pmf.items() if w})


def on_python_ints(joint):
    return FiniteJoint(joint.spaces, joint.weights.astype(object), joint.scale, joint.dependency)


def shaped_graphs(n, rng):
    """Edgeless, complete, star, path and random graphs on n vertices."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [
        build_graph(n, []),
        build_graph(n, pairs),
        build_graph(n, [(1, v) for v in range(2, n + 1)]),
        build_graph(n, [(v, v + 1) for v in range(1, n)]),
        build_graph(n, [e for e in pairs if rng.random() < 0.4]),
    ]


def closure(g, s):
    """S* = V minus N[V minus N[S]]: the doubly maximal set that S's pair widens to."""
    def outside(a):
        return set(g.vertices) - set(a).union(*(g.neighbors(v) for v in a))

    return frozenset(outside(outside(s)))


class TestDoublyMaximalPairs:
    """``verify_dependency`` against the per-subset loop it replaced (``dependency_per_subset``)."""

    def test_matches_the_per_subset_loop_on_random_joints(self):
        rng = random.Random(20261021)
        widened = violated = 0
        for _ in range(50):
            n = rng.randint(2, 5)
            pick = rng.random()
            joint = random_block_joint(n, rng)[0] if pick < 0.3 else random_pmf_joint(n, rng, copy=pick < 0.7)
            for g in shaped_graphs(n, rng):
                for table in (joint, on_python_ints(joint)):
                    report = verify_dependency(table, g)
                    assert (report.deviation, report.worst_pair) == dependency_per_subset(table, g)
                if report.worst_pair:
                    violated += 1
                    widened += closure(g, report.worst_pair[0]) != report.worst_pair[0]
        # the reported S is often not doubly maximal itself, so the second pass matters
        assert violated >= 100 and widened >= 10

    def test_tied_maxima_report_the_first_subset(self):
        # X2 = X4 fair bits, X1 and X3 free: on the path 1-2-3-4, S = {2} and
        # its doubly maximal pair ({1, 2}, {4}) tie, as do S = {4} and T = {2}
        bit = [0, 1]
        pmf = {(a, b, c, b): F(1, 8) for a in bit for b in bit for c in bit}
        joint = finite_joint([bit] * 4, pmf)
        path = build_graph(4, [(1, 2), (2, 3), (3, 4)])
        for table in (joint, on_python_ints(joint)):
            report = verify_dependency(table, path)
            assert report.worst_pair == (frozenset({2}), frozenset({4}))
            assert (report.deviation, report.worst_pair) == dependency_per_subset(table, path)
        # two copied pairs, X1 = X2 and X3 = X4, on the edgeless graph: the
        # sets that split both pairs tie, and the first in combinations order is {1, 3}
        pmf = {(a, a, b, b): F(1, 4) for a in bit for b in bit}
        joint = finite_joint([bit] * 4, pmf)
        edgeless = build_graph(4, [])
        for table in (joint, on_python_ints(joint)):
            report = verify_dependency(table, edgeless)
            assert report.deviation == F(3, 4)
            assert report.worst_pair == (frozenset({1, 3}), frozenset({2, 4}))
            assert (report.deviation, report.worst_pair) == dependency_per_subset(table, edgeless)


class TestVertexSetMasks:
    """``verify_dependency``'s vertex sets as ``column_mask`` bitmasks, bit v for vertex v."""

    def test_one_vertex_has_no_pair(self):
        joint = finite_joint([[0, 1]], {(0,): F(1, 3), (1,): F(2, 3)})
        for table in (joint, on_python_ints(joint)):
            report = verify_dependency(table, build_graph(1, []))
            assert (report.deviation, report.worst_pair) == (0, None)
            assert dependency_per_subset(table, build_graph(1, [])) == (0, None)

    def test_eight_vertices_reach_the_full_mask(self):
        """Every vertex set up to 2**9 - 2, with vertex 8, the top bit, in the worst pair."""
        assert column_mask(range(1, 9)) == 2**9 - 2
        rng = random.Random(9)
        # X8 copies X1, and X7 copies X2: the worst pairs split a copied pair
        spaces = [(0, 1)] * 8
        points = [x[:6] + (x[1], x[0]) for x in itertools.product(*spaces)]
        weights = {}
        for x in points:
            weights[x] = weights.get(x, 0) + rng.randint(1, 3)
        total = sum(weights.values())
        joint = finite_joint(spaces, {x: F(w, total) for x, w in weights.items()})
        reported = set()
        for g in shaped_graphs(8, rng):
            for table in (joint, on_python_ints(joint)):
                report = verify_dependency(table, g)
                assert (report.deviation, report.worst_pair) == dependency_per_subset(table, g)
            if report.worst_pair:
                reported |= set().union(*report.worst_pair)
        assert 8 in reported


def latent_tree_case(kind, n, rng, wide_scale):
    """(graph, vertex latents, edge latents, CLI emits) for a random tree under one emit kind.

    Sum latents mix ints and floats such as 0.1, 0.2 and 0.3, whose float
    sums depend on the order they are added in.  ``wide_scale`` draws
    probabilities whose common denominator passes 2**31, so the joint's
    table is Python ints.
    """
    g = build_graph(n, random_tree_edges(n, rng)) if n > 1 else build_graph(1, [])
    symbols = [0.1, 0.2, 0.3, 1, 2, 0.7] if kind == "sum" else [0, 1, 2, 3]

    def law(size):
        values = rng.sample(symbols, size)
        if size == 1:
            return [(values[0], F(1))]
        den = rng.choice((65537, 65539, 65543)) if wide_scale else rng.randint(2, 9)
        cut = rng.randint(1, den - 1)
        return list(zip(values, [F(cut, den), F(den - cut, den)]))

    while True:  # at most 6 points per vertex, so a sum emits at most 6 symbols
        vertex = {v: law(2 if wide_scale else rng.randint(1, 2)) for v in g.vertices}
        edge = {e: law(rng.randint(1, 2)) for e in g.edges}
        sizes = {v: len(vertex[v]) * math.prod(len(edge[e]) for e in g.edges if v in e) for v in g.vertices}
        if max(sizes.values()) <= 6:
            break
    emits = {}
    for v in g.vertices:
        incident = [e for e in g.edges if v in e]
        table = None
        if kind == "table":
            supports = [[x for x, _ in vertex[v]], *([x for x, _ in edge[e]] for e in incident)]
            table = {",".join(map(str, key)): rng.choice("abc") for key in itertools.product(*supports)}
        emits[v] = _emit_callable(kind, table, incident)
    return g, vertex, edge, emits


class TestLatentJointOverProducts:
    """One emit call per vertex over the product of its supports, against one call per point."""

    @pytest.mark.parametrize("wide_scale", [False, True], ids=["int64", "python-ints"])
    @pytest.mark.parametrize("kind", ["xor", "sum", "table"])
    def test_matches_the_per_point_walk(self, kind, wide_scale):
        rng = random.Random(f"{kind}:{wide_scale}")
        for _ in range(12):
            n = rng.randint(2 if wide_scale else 1, 5)
            g, vertex, edge, emits = latent_tree_case(kind, n, rng, wide_scale)
            latents = [((v,), vertex[v]) for v in g.vertices] + [(e, edge[e]) for e in g.edges]

            def per_point(v):
                incident = [e for e in g.edges if v in e]
                return lambda values: emits[v](values[0], dict(zip(incident, values[1:])))

            old = latent_joint_per_point(n, latents, [per_point(v) for v in g.vertices], g)
            new = build_tree_joint(latent_tree_spec(g, vertex, edge, emits))
            assert repr(new.spaces) == repr(old.spaces)
            assert new.scale == old.scale and new.weights.dtype == old.weights.dtype
            assert new.weights.dtype == (object if wide_scale else np.int64)
            assert np.array_equal(new.weights, old.weights)

    def test_sum_adds_the_edges_before_the_latent(self):
        # 0.1 + (0.2 + 0.3) is 0.6; (0.1 + 0.2) + 0.3 would be 0.6000000000000001
        g = build_graph(3, [(1, 2), (2, 3)])
        one = [(0.1, F(1))]
        edges = {(1, 2): [(0.2, F(1))], (2, 3): [(0.3, F(1))]}
        emits = {v: _emit_callable("sum", None, [e for e in g.edges if v in e]) for v in g.vertices}
        joint = build_tree_joint(latent_tree_spec(g, {1: one, 2: one, 3: one}, edges, emits))
        assert joint.spaces == ((0.30000000000000004,), (0.6,), (0.4,))

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            # the first point holding a refused value is (0, 2.5), not ("a", 1)
            ("xor", ([0, "a"], [1, 2.5]), "xor emit cannot combine the latent value 2.5"),
            ("sum", ([1.5, "b"], ["c", 2]), "sum emit cannot combine the latent value 'c'"),
            ("sum", ([1e308], [1e308, 1.0]), "sum emit of (1e+308, 1e+308) overflows a float"),
            ("table", ([0, 1], [0, 1]), "emit table has no entry for latent combination (1, 0)"),
        ],
        ids=["xor-two-refused", "sum-two-refused", "sum-overflow", "table-missing"],
    )
    def test_refusals_name_the_first_point_in_product_order(self, kind, values, message):
        g = build_graph(2, [(1, 2)])
        latent, shared = ([(x, F(1, len(s))) for x in s] for s in values)
        table = {"0,0": 1, "0,1": 2, "1,1": 3}
        emits = {v: _emit_callable(kind, table, [(1, 2)]) for v in (1, 2)}
        with pytest.raises(InputError) as exc:
            build_tree_joint(latent_tree_spec(g, {1: latent, 2: latent}, {(1, 2): shared}, emits))
        assert str(exc.value) == message
        per_point = [lambda values, v=v: emits[v](values[0], {(1, 2): values[1]}) for v in (1, 2)]
        latents = [((1,), latent), ((2,), latent), ((1, 2), shared)]
        with pytest.raises(InputError) as oracle:
            latent_joint_per_point(2, latents, per_point, g)
        assert str(oracle.value) == message


def conditional_law(joint, fixed: dict) -> dict:
    """P(other coordinates | ``fixed``), read off the joint's pmf."""
    hits = {x: p for x, p in joint.pmf.items() if all(x[c - 1] == v for c, v in fixed.items())}
    total = sum(hits.values())
    return {tuple(v for c, v in enumerate(x, 1) if c not in fixed): p / total for x, p in hits.items()}


class TestConditional:
    def test_product_prefix_conditioning_keeps_product(self):
        joint = product_joint([[(0, F(1, 3)), (1, F(2, 3))], [(0, F(1, 4)), (1, F(3, 4))]])
        assert conditional_law(joint, {1: 1}) == {(0,): F(1, 4), (1,): F(3, 4)}

    def test_xor_pair_conditional_from_latent_oracle(self):
        joint, _ = xor_pair_joint()
        cond = conditional_law(joint, {1: 1})
        # oracle: P(X2=1 | X1=1) via the latent sums
        num = F(1, 2) * F(1, 4) * F(1, 4) + F(1, 2) * F(3, 4) * F(3, 4)
        den = F(1, 2)
        assert cond[(1,)] == num / den == F(5, 8)


class TestBuildCoupling:
    def test_xor_pair_marginals_and_support(self):
        joint, spec = xor_pair_joint()
        pair = build_coupling(joint, spec.tree, 1, (), 0, 1)
        assert verify_coupling_marginals(pair, joint, spec.tree) == 0
        for (y, z) in pair.pmf:
            assert y[0] == 0 and z[0] == 1

    def test_product_joint_identity_on_parent(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))], [(0, F(1, 3)), (1, F(2, 3))]])
        joint = finite_joint(joint.spaces, joint.pmf, dependency=build_graph(2, [(1, 2)]))
        tree = rooted_order(joint.dependency, [F(1), F(1)])
        pair = build_coupling(joint, tree, 1, (), 0, 1)
        dis = coupling_disagreements(pair)
        assert dis[1] == 1 and dis[2] == 0  # identity coupling on the parent

    def test_equal_substitution_couples_pointwise(self):
        joint, spec = xor_chain_joint()
        pair = build_coupling(joint, spec.tree, 1, (), 0, 0)
        assert all(y == z for (y, z) in pair.pmf)

    def test_coordinates_off_i_and_parent_always_agree(self):
        joint, spec = xor_chain_joint()
        for i in (1, 2):
            heads = sorted({x[:i] for x in relabel_joint(joint, spec.tree).pmf})
            for head in heads:
                prefix, a = head[:-1], head[-1]
                for b in (0, 1):
                    if (prefix + (b,)) not in {h for h in heads}:
                        continue
                    pair = build_coupling(joint, spec.tree, i, prefix, a, b)
                    dis = coupling_disagreements(pair)
                    allowed = {i, spec.tree.parent[i - 1]}
                    for j, p in dis.items():
                        if j not in allowed:
                            assert p == 0

    def test_non_tree_dependent_joint_rejected(self):
        pmf = {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)}  # all three equal
        path = build_graph(3, [(1, 2), (2, 3)])
        joint = finite_joint([[0, 1]] * 3, pmf, dependency=path)
        tree = rooted_order(path, [F(1)] * 3)
        with pytest.raises(KindError) as exc:
            build_coupling(joint, tree, 1, (), 0, 1)
        assert isinstance(exc.value, DependencyViolation)
        assert exc.value.report == verify_dependency(joint, path)
        assert exc.value.report.deviation == F(1, 2)

    def test_null_prefix_rejected(self):
        joint, spec = xor_pair_joint()
        with pytest.raises(InputError):
            build_coupling(joint, spec.tree, 1, (), 0, 7)


class TestNegativeControls:
    def test_corrupted_coupling_violates_marginals(self):
        """Skipping the conditional redraw (using the unconditional parent law)
        must be caught by the marginal check on a correlated chain."""
        joint, spec = xor_chain_joint()
        tree = spec.tree
        rl = relabel_joint(joint, tree)
        i = 1
        parent_coord = tree.parent[i - 1]
        rest = sorted(copied_coordinates(tree, i))
        heads = sorted({x[:i] for x in rl.pmf})
        worst = F(0)
        for head in heads:
            prefix, a = head[:-1], head[-1]
            for b in (0, 1):
                if prefix + (b,) not in heads or a == b:
                    continue
                lhs = {x[i:]: p for x, p in rl.pmf.items() if x[:i] == prefix + (a,)}
                rhs = {x[i:]: p for x, p in rl.pmf.items() if x[:i] == prefix + (b,)}
                z_l = sum(lhs.values())
                z_r = sum(rhs.values())
                lhs = {k: v / z_l for k, v in lhs.items()}
                # unconditional parent law under the rhs prefix: the corruption
                par_law: dict = {}
                for tail, p in rhs.items():
                    v = tail[parent_coord - i - 1]
                    par_law[v] = par_law.get(v, F(0)) + p / z_r
                pmf = {}
                for tail, p in lhs.items():
                    for v, q in par_law.items():
                        z_tail = list(tail)
                        z_tail[parent_coord - i - 1] = v
                        key = (prefix + (a,) + tail, prefix + (b,) + tuple(z_tail))
                        pmf[key] = pmf.get(key, F(0)) + p * q
                corrupted = CouplingPair(
                    spaces=rl.spaces,
                    pmf=pmf,
                    context=CouplingContext(i=i, prefix=prefix, lhs_value=a, rhs_value=b),
                )
                worst = max(worst, verify_coupling_marginals(corrupted, joint, tree))
        assert worst > 0

    def test_false_dependency_declaration_fails(self):
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        joint = finite_joint([[0, 1], [0, 1]], pmf, dependency=build_graph(2, []))
        tree = rooted_order(build_graph(2, [(1, 2)]), [F(1), F(1)])
        with pytest.raises(KindError):
            verify_all_couplings(joint, tree)


class TestVerifyDifferenceBound:
    def test_constant_function_has_zero_swing(self):
        joint, spec = xor_chain_joint()
        f = lipschitz_function(joint.spaces, lambda x: F(7))
        assert f.profile.values == (F(0), F(0), F(0))
        assert verify_difference_bound(joint, spec.tree, f) == 0

    def test_sum_on_xor_pair(self):
        joint, spec = xor_pair_joint()
        f = coordinate_sum(joint.spaces)
        assert verify_difference_bound(joint, spec.tree, f) <= 0

    def test_single_coordinate_function_is_tight(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        joint = finite_joint(joint.spaces, joint.pmf, dependency=build_graph(2, [(1, 2)]))
        tree = rooted_order(joint.dependency, [F(1), F(0)])
        f = lipschitz_function(joint.spaces, lambda x: F(x[0]))
        assert f.profile.values == (F(1), F(0))
        # the swing at the leaf step is exactly 1 = c_1 + c_2
        assert verify_difference_bound(joint, tree, f) == 0

    def test_swings_match_the_per_value_fraction_form(self):
        rng = random.Random(699)
        checked = 0
        for _ in range(60):
            joint, _ = random_block_joint(rng.randint(1, 5), rng)
            table = np.array([rng.randint(-9, 9) for _ in range(joint.weights.size)], dtype=object)
            table = table.reshape(joint.weights.shape)
            scale = rng.randint(1, 6)
            got = list(swings_per_prefix(joint.weights, table, scale))
            assert got == list(swings_per_value(joint.weights, table, scale))
            checked += len(got)
        assert checked > 500

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_exact_ties_with_different_masses(self, dtype):
        # x_1 = 0 and 1 both have mean 1, from masses 2 and 6; x_1 = 2 has mean 5
        weights = np.array([[1, 1], [3, 3], [1, 0]], dtype=dtype)
        table = np.array([[0, 2], [0, 2], [5, 0]], dtype=object)
        got = list(swings_per_prefix(weights, table, 1))
        assert got == list(swings_per_value(weights, table, 1))
        assert got[0] == (1, (), F(4))

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_means_closer_than_float_resolution(self, dtype):
        # x_1 = 1 has mean 1 + 2**-30, the largest; x_1 = 0 has 1 + 1/(2**30 + 1),
        # the same float, and comes first
        m = 2**30
        weights = np.array([[m, 1], [m - 1, 1], [1, 0]], dtype=dtype)
        table = np.array([[1, 2], [1, 2], [0, 0]], dtype=object)
        assert F(m + 2, m + 1) < F(m + 1, m) and float(F(m + 2, m + 1)) == float(F(m + 1, m))
        got = list(swings_per_prefix(weights, table, 3))
        assert got == list(swings_per_value(weights, table, 3))
        assert got[0] == (1, (), F(m + 1, 3 * m))

    @pytest.mark.parametrize("big", [2**28, 2**30])
    def test_worst_prefix_is_settled_exactly(self, big):
        """Two prefixes whose swings are one float: the later one is larger.

        At 2**30 the scale is past 2**31 and the table Python ints."""
        # step 2 swing at prefix x_1 = p: B / (A + B), from (A, B) at x_2 = 0
        cells = {0: (big + 1, big + 2), 1: (big, big + 1)}
        counts = {(p, 0, x3): cells[p][x3] for p in (0, 1) for x3 in (0, 1)}
        counts.update({(p, 1, 0): 1 for p in (0, 1)})
        total = sum(counts.values())
        joint = finite_joint([(0, 1)] * 3, {x: F(c, total) for x, c in counts.items()})
        assert (joint.scale >= 2**31) == (joint.weights.dtype == object)
        tree = rooted_order(build_graph(3, [(1, 2), (2, 3)]), [1, 1, 0])
        assert tree.order == (1, 2, 3)
        f = lipschitz_function(joint.spaces, lambda x: x[2], profile=[1, 1, 1])
        swings = [F(b, a + b) for a, b in cells.values()]
        assert swings[0] < swings[1] and float(swings[0]) == float(swings[1])
        expected = difference_bound_per_value(joint, tree, f)
        assert verify_difference_bound(joint, tree, f) == expected == swings[1] - 2

    def test_difference_bound_matches_the_per_value_form(self, toy_joints):
        rng = random.Random(4111)
        for joint, tree, _ in toy_joints:
            table = {x: F(rng.randint(-4, 4), rng.randint(1, 3)) for x in itertools.product(*joint.spaces)}
            for f in (coordinate_sum(joint.spaces), lipschitz_function(joint.spaces, table)):
                for version in (joint, as_python_ints(joint)):
                    got = verify_difference_bound(version, tree, f)
                    assert got == difference_bound_per_value(joint, tree, f)
                    assert_python_fractions(got)

    @pytest.mark.parametrize("power", [62, 63])
    def test_products_past_int64_take_python_ints(self, power):
        # the total weight times the table's range passes 2**power: at 63 the
        # moments leave int64, at 62 only the cross products of each step do
        joint, spec = xor_pair_joint()
        big = 2**power // joint.scale + 1
        f = lipschitz_function(joint.spaces, lambda x: big * x[0] - x[1])
        assert verify_difference_bound(joint, spec.tree, f) == difference_bound_per_value(
            joint, spec.tree, f
        )

    def test_a_mean_past_the_float_range_is_settled_exactly(self):
        # 2**1100 / 3 overflows a float, so the float screen tells nothing
        weights = np.array([[1, 2], [3, 0], [0, 1]], dtype=object)
        table = np.array([[2**1100, 0], [7, 0], [0, -(2**1100)]], dtype=object)
        assert list(swings_per_prefix(weights, table, 5)) == list(swings_per_value(weights, table, 5))


class TestSwingWidth:
    """``_conditional_swings`` on each side of its moment bound S * R, S the total weight and R max |f|."""

    @pytest.mark.parametrize(
        "weights, top, dtype",
        [([[1, 2], [3, 1]], (2**63 - 1) // 7, np.int64), ([[1, 2], [3, 2]], 2**60, object)],
        ids=["2**63-1", "2**63"],
    )
    def test_moments_at_the_bound_give_the_same_swings(self, weights, top, dtype, monkeypatch):
        weights = np.array(weights, dtype=np.int64)
        table = np.array([[top, -top], [0, top - 5]], dtype=object)
        assert int(weights.sum()) * top in (2**63 - 1, 2**63)
        widths = []

        def recorded(bound):
            widths.append((bound, int_dtype(bound)))
            return widths[-1][1]

        monkeypatch.setattr(coupling_module, "int_dtype", recorded)
        got = list(swings_per_prefix(weights, table, 3))
        assert widths == [(int(weights.sum()) * top, dtype)]
        assert got == list(swings_per_value(weights, table, 3))
        assert got == list(swings_per_prefix(weights.astype(object), table, 3))
        assert len(got) == 3  # step 1, and step 2 under each prefix


def swings_per_value(weights, table, scale):
    """Oracle: (i, prefix positions, spread of E[f | prefix, x_i]) from one Fraction per value."""
    n = weights.ndim
    for i in range(1, n + 1):
        axes = tuple(range(i, n))
        m, q = weights.sum(axis=axes), (weights * table).sum(axis=axes)
        for idx in np.ndindex(m.shape[:-1]):
            means = [F(int(b), int(a) * scale) for a, b in zip(m[idx], q[idx]) if a]
            if len(means) >= 2:
                yield i, idx, max(means) - min(means)


def swings_per_prefix(weights, table, scale):
    """``_conditional_swings`` as (i, prefix positions, Fraction(num, den * scale)) per prefix."""
    for i, rows, num, den in _conditional_swings(weights, table, scale, weights.ndim):
        prefixes = list(np.ndindex(weights.shape[: i - 1]))
        for r, a, b in zip(rows.tolist(), num.tolist(), den.tolist()):
            yield i, prefixes[r], F(a, b * scale)


def difference_bound_per_value(joint, tree, f):
    """Oracle for ``verify_difference_bound``: the worst excess over every per-value swing."""
    n = joint.n
    perm = [tree.original(k) - 1 for k in range(1, n + 1)]
    budgets = coupling_effective_profile(tree, f.profile)
    swings = swings_per_value(relabel_joint(joint, tree).weights, f.table.transpose(perm), f.scale)
    excesses = [swing - budgets[i - 1] for i, _, swing in swings if i < n]
    return max(excesses, default=-max(f.profile.values, default=F(0)))


class TestVerifyIndependenceLemma:
    def test_path_leaf_step(self):
        joint, spec = xor_chain_joint()
        assert verify_independence_lemma(joint, spec.tree, 1) == 0

    def test_product_every_step(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 3)
        g = build_graph(3, [(1, 2), (2, 3)])
        joint = finite_joint(joint.spaces, joint.pmf, dependency=g)
        tree = rooted_order(g, [F(1)] * 3)
        for i in (1, 2):
            assert verify_independence_lemma(joint, tree, i) == 0

    def test_star_leaf(self):
        g = build_graph(3, [(1, 2), (1, 3)])
        spec = latent_tree_spec(
            g,
            vertex_latents={v: [(0, F(1, 2)), (1, F(1, 2))] for v in g.vertices},
            edge_latents={e: [(0, F(2, 3)), (1, F(1, 3))] for e in g.edges},
            emit={
                1: lambda xi, ev: xi ^ ev[(1, 2)] ^ ev[(1, 3)],
                2: lambda xi, ev: xi ^ ev[(1, 2)],
                3: lambda xi, ev: xi ^ ev[(1, 3)],
            },
        )
        joint = build_tree_joint(spec)
        for i in range(1, 3):
            assert verify_independence_lemma(joint, spec.tree, i) == 0


class TestMgfCheck:
    def test_independent_bernoulli_sum(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        f = coordinate_sum(joint.spaces)
        ratio = mgf_envelope_ratio(joint, f, [F(1), F(1)], [0.5, 1, 2])
        assert ratio <= 1 + 1e-9

    def test_constant_function(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        f = lipschitz_function(joint.spaces, lambda x: F(3))
        assert mgf_envelope_ratio(joint, f, [F(1), F(1)], [1.0]) <= 1

    def test_tree_effective_profile_mechanism(self):
        joint, spec = xor_pair_joint()
        f = coordinate_sum(joint.spaces)
        rl = relabel_joint(joint, spec.tree)
        f_rl = coordinate_sum(rl.spaces)
        eff = coupling_effective_profile(spec.tree, f.profile)
        assert mgf_envelope_ratio(rl, f_rl, eff, [0.25, 0.5, 1, 2, 4]) <= 1 + 1e-9

    def test_sup_inf_violation_reports_step_and_prefix(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        f = coordinate_sum(joint.spaces)
        with pytest.raises(SwingViolation) as err:
            mgf_envelope_ratio(joint, f, [F(0), F(1)], [1.0])
        assert err.value.i == 1
        assert err.value.prefix == ()


class TestLipschitzValidation:
    def brute_force_all_pairs(self, spaces, table, profile):
        """The all-pairs Hamming-weighted check, as an independent oracle."""
        for x in itertools.product(*spaces):
            for y in itertools.product(*spaces):
                budget = sum(
                    c for c, xv, yv in zip(profile.values, x, y) if xv != yv
                )
                if abs(table[x] - table[y]) > budget:
                    return False
        return True

    def test_single_coordinate_check_matches_all_pairs(self):
        rng = random.Random(5)
        for _ in range(30):
            spaces = [list(range(rng.randint(2, 3))) for _ in range(rng.randint(1, 3))]
            table = {
                x: F(rng.randint(-6, 6), rng.randint(1, 3))
                for x in itertools.product(*spaces)
            }
            declared = lipschitz_profile(
                [F(rng.randint(0, 4), rng.randint(1, 2)) for _ in spaces]
            )
            ok_oracle = self.brute_force_all_pairs(spaces, table, declared)
            try:
                lipschitz_function(spaces, table, declared)
                ok_lib = True
            except InputError:
                ok_lib = False
            assert ok_lib == ok_oracle

    def test_derived_profile_is_tight_and_valid(self):
        rng = random.Random(11)
        for _ in range(10):
            spaces = [list(range(rng.randint(2, 3))) for _ in range(2)]
            table = {x: F(rng.randint(-5, 5)) for x in itertools.product(*spaces)}
            prof = lipschitz_function(spaces, table).profile
            assert self.brute_force_all_pairs(spaces, table, prof)
            for i in range(len(spaces)):
                if prof.values[i] == 0:
                    continue
                smaller = list(prof.values)
                smaller[i] = prof.values[i] - F(1, 1000)
                assert not self.brute_force_all_pairs(
                    spaces, table, lipschitz_profile(smaller)
                )

    def test_violation_names_the_pair(self):
        with pytest.raises(InputError, match="coordinate 1"):
            lipschitz_function([[0, 1]], {(0,): F(0), (1,): F(5)}, lipschitz_profile([1]))

    @pytest.mark.parametrize(
        "spaces",
        [
            [[0, 1], [0, 2]],
            [[-3, 5, 2], [7], [0, 1, 1, 4]],
            [[F(1, 2), F(3, 2)], [F(1, 2)], [F(-1, 6), F(1, 3)]],
            [[F(1, 3), 1, 0.5], [0.25, -2], [F(5, 4)]],
            [[0.1, 0.2], [1e300, -1e300]],
            [[True, False], [0, 3]],
            [[2**70, -(2**70)], [F(1, 2**70)]],
        ],
    )
    def test_coordinate_sum_is_the_sum_as_lipschitz_function_builds_it(self, spaces):
        exact_sum = (lambda x: sum(map(F, x))) if any(isinstance(v, float) for s in spaces for v in s) else sum
        f, g = coordinate_sum(spaces), lipschitz_function(spaces, exact_sum)
        assert f.spaces == g.spaces and f.scale == g.scale and f.profile == g.profile
        assert f.table.dtype == g.table.dtype == object and f.table.shape == g.table.shape
        assert f.table.tolist() == g.table.tolist()
        assert {type(v) for v in f.table.ravel()} == {int}
        assert_python_fractions(f.profile.values)

    def test_one_coordinate_spread_is_a_python_int(self):
        # a numpy integer numerator made every comparison a numpy bool
        assert type(coordinate_sum([[0, 1]]).profile.values[0].numerator) is int


def greedy_maximal_coupling(p, q):
    """Reference: a deterministic maximal coupling of two pmfs over the same value set.

    Shared mass sits on the diagonal; the leftovers are matched in sorted
    value order.  Equal inputs couple to the identity.
    """
    out = {}
    left_p, left_q = [], []
    for v in sorted(set(p) | set(q)):
        shared = min(p.get(v, F(0)), q.get(v, F(0)))
        if shared:
            out[(v, v)] = shared
        if p.get(v, F(0)) > shared:
            left_p.append([v, p[v] - shared])
        if q.get(v, F(0)) > shared:
            left_q.append([v, q[v] - shared])
    a = b = 0
    while a < len(left_p) and b < len(left_q):
        y, wp = left_p[a]
        z, wq = left_q[b]
        w = min(wp, wq)
        out[(y, z)] = out.get((y, z), F(0)) + w
        left_p[a][1] -= w
        left_q[b][1] -= w
        if left_p[a][1] == 0:
            a += 1
        if left_q[b][1] == 0:
            b += 1
    return out


class TestMaximalCouplingHelper:
    def test_marginals_and_minimal_disagreement(self):
        rng = random.Random(8)
        for _ in range(40):
            size = rng.randint(1, 5)
            values = list(range(size))

            def rand_dist():
                weights = [rng.randint(0, 4) for _ in values]
                if sum(weights) == 0:
                    weights[0] = 1
                total = sum(weights)
                return {v: F(w, total) for v, w in zip(values, weights) if w}

            p, q = rand_dist(), rand_dist()
            # the array coupling works on integer masses over a common denominator
            scale = math.lcm(*(w.denominator for w in [*p.values(), *q.values()]))
            masses = [np.array([int(d.get(v, 0) * scale) for v in values], dtype=object)
                      for d in (p, q)]
            array = _maximal_couplings(*masses)
            m = {(y, z): F(array[y, z], scale) for y in values for z in values if array[y, z]}
            assert m == greedy_maximal_coupling(p, q)
            assert sum(m.values()) == 1
            for y in p:
                assert sum(w for (a, _), w in m.items() if a == y) == p[y]
            for z in q:
                assert sum(w for (_, b), w in m.items() if b == z) == q[z]
            disagreement = sum(w for (a, b), w in m.items() if a != b)
            tv = sum(abs(p.get(v, F(0)) - q.get(v, F(0))) for v in values) / 2
            assert disagreement == tv  # maximal coupling attains the TV distance


class TestFloatPmfRejected:
    def test_float_probabilities_raise_input_error(self):
        # the product law of TestVerifyDependency written with floats
        pmf = {(a, b): 0.5 * (0.25 if b == 0 else 0.75) for a in (0, 1) for b in (0, 1)}
        with pytest.raises(InputError, match="not an int or Fraction"):
            finite_joint([[0, 1], [0, 1]], pmf, dependency=build_graph(2, [(1, 2)]))
        with pytest.raises(InputError, match="not an int or Fraction"):
            product_joint([[(0, 0.5), (1, 0.5)]])
        with pytest.raises(InputError, match="not an int or Fraction"):
            finite_dist([(0, 0.5), (1, 0.5)])


class TestScaleGuards:
    def test_alphabet_cap(self):
        with pytest.raises(ScaleError):
            finite_joint([list(range(7))], {(0,): F(1)})

    def test_coordinate_cap(self):
        spaces = [[0]] * 9
        with pytest.raises(ScaleError):
            finite_joint(spaces, {tuple([0] * 9): F(1)})

    def test_bad_sum_rejected(self):
        with pytest.raises(InputError, match="sum"):
            finite_joint([[0, 1]], {(0,): F(1, 3)})

    def test_negative_probability_rejected(self):
        with pytest.raises(InputError, match="negative"):
            finite_joint([[0, 1]], {(0,): F(3, 2), (1,): F(-1, 2)})

    def test_wrong_arity_rejected(self):
        with pytest.raises(InputError, match="arity"):
            finite_joint([[0, 1], [0, 1]], {(0,): F(1)})

    def test_value_outside_alphabet_rejected(self):
        with pytest.raises(InputError, match="outside"):
            finite_joint([[0, 1]], {(7,): F(1)})

    @pytest.mark.parametrize(
        "pmf, message",
        [
            ({(0, 0): F(1, 2), (0,): F(1, 2)}, "assignment (0,) has wrong arity"),
            ({(0, 0): F(1, 2), (0, 7): F(1, 2)}, "value 7 of coordinate 2 outside its alphabet"),
            ({(0, 0): F(1, 2), (0, 0.5): F(1, 2)}, "value 0.5 of coordinate 2 outside its alphabet"),
            ({(7, 0): 0.5}, "value 7 of coordinate 1 outside its alphabet"),
            ({(0, 0): 0.5, (1, 1): 0.5}, "probability 0.5 at (0, 0) is not an int or Fraction"),
            ({(0, 0): F(3, 2), (1, 1): F(-1, 2)}, "negative probability -1/2 at (1, 1)"),
            ({(0, 0): F(1, 3), (1, 1): 0}, "probabilities sum to 1/3, need exactly 1"),
            ({}, "probabilities sum to 0, need exactly 1"),
        ],
    )
    def test_each_refusal_names_the_first_bad_point(self, pmf, message):
        with pytest.raises(InputError) as exc:
            finite_joint([[0, 1], [0, 1]], pmf)
        assert str(exc.value) == message


def _fair_pair(dependency=True):
    """Two independent fair bits, declared dependent along the edge 1-2 unless told not to."""
    g = build_graph(2, [(1, 2)])
    pmf = {(a, b): F(1, 4) for a in (0, 1) for b in (0, 1)}
    return finite_joint([[0, 1], [0, 1]], pmf, dependency=g if dependency else None), rooted_order(g, [1, 1])


def _spec_without_emit_for_vertex_2():
    g = build_graph(2, [(1, 2)])
    bit = [(0, F(1, 2)), (1, F(1, 2))]
    return latent_tree_spec(g, {1: bit, 2: bit}, {(1, 2): bit}, {1: lambda xi, ev: xi})


class TestArgumentRules:
    """One test per library argument check: each refuses with its one message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: finite_joint([[0, 1], []], {(0, 0): F(1)}), "alphabet of coordinate 2 is empty"),
            (lambda: coordinate_sum([[1, 2], []]), "alphabet of coordinate 2 is empty"),
            (lambda: lipschitz_function([[1, 2], []], sum), "alphabet of coordinate 2 is empty"),
            (lambda: finite_joint([[0, 1]], {(0,): F(1)}, dependency=build_graph(3, [])),
             "graph has 3 vertices, joint has 1"),
            (lambda: verify_dependency(_fair_pair()[0], build_graph(3, [])), "graph has 3 vertices, joint has 2"),
            (lambda: relabel_joint(_fair_pair()[0], rooted_order(build_graph(1, []), [1])),
             "graph has 1 vertices, joint has 2"),
            (lambda: lipschitz_function([[0, 1], [0, 1]], {(0, 0): 0, (1, 0): 1, (1, 1): 2}),
             "function table is missing assignment (0, 1)"),
            (lambda: lipschitz_function([[0, 1], [0, 1]], sum, profile=[1]),
             "profile has 1 coefficients for 2 vertices"),
            (lambda: coupling_effective_profile(_fair_pair()[1], lipschitz_profile([1])),
             "profile has 1 coefficients for 2 vertices"),
            (lambda: exact_mean(_fair_pair()[0], coordinate_sum([[0, 1], [0, 2]])),
             "the function and the joint have different alphabets"),
            (_spec_without_emit_for_vertex_2, "no emit rule for vertex 2"),
            (lambda: verify_all_couplings(*_fair_pair(dependency=False)),
             "joint declares no dependency graph to verify against"),
            (lambda: build_coupling(*_fair_pair(), 0, (), 0, 1), "coordinate i must be in 1..1, got 0"),
            (lambda: build_coupling(*_fair_pair(), 1, (0,), 0, 1), "prefix has 1 values, needs 0"),
            (lambda: verify_independence_lemma(*_fair_pair(), 2), "coordinate i must be in 1..1, got 2"),
        ],
        ids=["empty-alphabet", "sum-empty-alphabet", "function-empty-alphabet", "joint-graph-size", "dependency-graph-size", "relabel-tree-size",
             "table-missing-point", "function-profile", "effective-profile", "alphabets-differ",
             "missing-emit", "no-dependency-graph", "coupling-step", "coupling-prefix", "lemma-step"],
    )
    def test_bad_arguments_are_refused_with_one_message(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_copied_mass_with_none_under_the_rhs_is_a_kind_error(self):
        # a step table (prefix row, x_i, copied block, parent) whose copied block
        # has mass under x_i = 0 only: no tree-dependent joint has such a context
        t = np.array([[[[1, 0]], [[0, 0]]]])
        with pytest.raises(KindError, match="coupling context unreachable"):
            _couple(*_pair_laws(t, [0], 0, 1))


class TestEndToEndOnToyJoints:
    def test_lemma_sweeps_are_exact_on_a_few_joints(self, toy_joints):
        for joint, tree, g in toy_joints[:6]:
            assert verify_dependency(joint, g).deviation == 0
            assert verify_all_couplings(joint, tree) == (0, 0)
            for i in range(1, joint.n):
                assert verify_independence_lemma(joint, tree, i) == 0

    def test_sweep_equals_the_per_context_and_per_step_checks(self, toy_joints, monkeypatch):
        def one_by_one(joint, tree):
            pairs = (
                build_coupling(joint, tree, *context) for context in all_coupling_contexts(joint, tree)
            )
            coupling = max(
                (verify_coupling_marginals(pair, joint, tree) for pair in pairs), default=F(0)
            )
            lemma = max(verify_independence_lemma(joint, tree, i) for i in range(1, joint.n))
            return coupling, lemma

        for joint, tree, g in toy_joints[:8]:
            assert verify_all_couplings(joint, tree) == one_by_one(joint, tree)
        # full-support joints dependent along no path: with the dependency
        # check switched off, both gaps are positive and must still agree
        monkeypatch.setattr(coupling_module, "_require_dependent", lambda joint: None)
        rng = random.Random(31)
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
        tree = rooted_order(g, [1, 1, 1, 1])
        for _ in range(5):
            points = list(itertools.product((0, 1), repeat=4))
            weights = [rng.randint(1, 9) for _ in points]
            pmf = {x: F(w, sum(weights)) for x, w in zip(points, weights)}
            joint = finite_joint([(0, 1)] * 4, pmf)
            expected = one_by_one(joint, tree)
            assert min(expected) > 0
            assert verify_all_couplings(joint, tree) == expected

    def test_deviations_are_the_gaps_between_the_copied_laws(self, toy_joints, monkeypatch):
        """Over every context, the coupling deviation is the worst TV distance
        between the lhs and rhs laws of the copied coordinates, and the lemma
        gap the worst sup-norm of the same difference."""

        def copied_law_gaps(joint, tree):
            pmf = relabel_joint(joint, tree).pmf
            tv = sup = F(0)
            for i, prefix, a, b in all_coupling_contexts(joint, tree):
                cut = tree.parent[i - 1] - i - 1  # the parent's index in a suffix
                laws = []
                for head in (prefix + (a,), prefix + (b,)):
                    total = sum(p for x, p in pmf.items() if x[:i] == head)
                    law = {}
                    for x, p in pmf.items():
                        if x[:i] == head:
                            key = x[i:][:cut] + x[i:][cut + 1 :]
                            law[key] = law.get(key, F(0)) + p / total
                    laws.append(law)
                gaps = [abs(laws[0].get(k, F(0)) - laws[1].get(k, F(0))) for k in {*laws[0], *laws[1]}]
                tv, sup = max(tv, sum(gaps) / 2), max(sup, max(gaps))
            return tv, sup

        for joint, tree, g in toy_joints:
            assert verify_all_couplings(joint, tree) == copied_law_gaps(joint, tree) == (0, 0)
        # full-support joints dependent along no tree: both gaps are positive
        monkeypatch.setattr(coupling_module, "_require_dependent", lambda joint: None)
        rng = random.Random(47)
        g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
        tree = rooted_order(g, [1, 2, 1, 1])
        spaces = [(0, 1, 2), (0, 1), (0, 1), (0, 1, 2)]
        for _ in range(5):
            points = list(itertools.product(*spaces))
            weights = [rng.randint(1, 9) for _ in points]
            joint = finite_joint(spaces, {x: F(w, sum(weights)) for x, w in zip(points, weights)})
            expected = copied_law_gaps(joint, tree)
            assert min(expected) > 0
            assert verify_all_couplings(joint, tree) == expected

    def test_theorem_chain_on_one_joint(self, toy_joints):
        joint, tree, g = toy_joints[5]
        f = lipschitz_function(joint.spaces, lambda x: sum(F(v) for v in x))
        den = float(forest_denominator(g, f.profile))
        spread = float(sum(f.profile.values))
        for k in range(1, 21):
            t = spread * k / 20 if spread else k / 20
            assert float(exact_tail(joint, f, F(t))) <= tail_bound(den, t) + 1e-12


def mod6_path_joint(n):
    """Path of n coordinates, each (own uniform 6-symbol latent + its edge bits) mod 6."""
    g = build_graph(n, [(v, v + 1) for v in range(1, n)])
    spec = latent_tree_spec(
        g,
        vertex_latents={v: [(k, F(1, 6)) for k in range(6)] for v in g.vertices},
        edge_latents={e: [(0, F(2, 3)), (1, F(1, 3))] for e in g.edges},
        emit={v: (lambda xi, ev: (xi + sum(ev.values())) % 6) for v in g.vertices},
    )
    return build_tree_joint(spec), spec.tree


class TestSweepBatches:
    def test_no_call_passes_the_cell_cap_unless_one_context_does(self, monkeypatch):
        joint, tree = mod6_path_joint(5)
        expected = verify_all_couplings(joint, tree)
        contexts = len(list(all_coupling_contexts(joint, tree)))
        pair_laws = coupling_module._pair_laws
        calls_at, shipped = {}, coupling_module._CELL_CAP
        for cap in (shipped, 10**5, 5000, 1296, 1000):
            calls = calls_at[cap] = []

            def recorded(t, rows, a, b):
                laws = pair_laws(t, rows, a, b)
                calls.append((len(rows), laws[0][0].size * t.shape[3]))  # one context's largest
                return laws

            monkeypatch.setattr(coupling_module, "_CELL_CAP", cap)
            monkeypatch.setattr(coupling_module, "_pair_laws", recorded)
            assert verify_all_couplings(joint, tree) == expected
            assert sum(rows for rows, _ in calls) == contexts
            for rows, cells in calls:
                assert rows * cells <= cap or (rows == 1 and cells > cap)
            if cap < 7776:  # a step-1 context: 6**3 copied cells times 6**2
                assert (1, 7776) in calls
        # at the shipped cap each step of this joint is one call, and below it more
        assert len(calls_at[shipped]) == joint.n - 1 < len(calls_at[10**5])

    def test_an_unreachable_context_in_a_stacked_call_is_a_kind_error(self, monkeypatch):
        # x_3 = 1 has mass under x_1 = 2 only: of the six step-1 contexts, just
        # (2, 3) copies mass that its rhs cannot carry
        points = [(x1, x2, x3) for x1 in range(4) for x2 in (0, 1) for x3 in (0, 1) if x3 == 0 or x1 == 2]
        joint = finite_joint([range(4), (0, 1), (0, 1)], {x: F(1, len(points)) for x in points})
        tree = rooted_order(build_graph(3, [(1, 2), (2, 3)]), [1, 1, 0])
        monkeypatch.setattr(coupling_module, "_require_dependent", lambda joint: None)
        sizes = []
        pair_laws = coupling_module._pair_laws

        def recorded(t, rows, a, b):
            sizes.append(len(rows))
            return pair_laws(t, rows, a, b)

        monkeypatch.setattr(coupling_module, "_pair_laws", recorded)
        with pytest.raises(KindError, match="coupling context unreachable"):
            verify_all_couplings(joint, tree)
        assert sizes == [6]


def as_python_ints(joint):
    """The same joint on a ``dtype=object`` table of Python ints."""
    return dataclasses.replace(joint, weights=joint.weights.astype(object))


def assert_python_fractions(value):
    """Every Fraction in ``value`` (nested in tuples, lists and dicts) has int parts."""
    if isinstance(value, F):
        assert type(value.numerator) is int and type(value.denominator) is int, value
    elif isinstance(value, dict):
        for item in value.values():
            assert_python_fractions(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_python_fractions(item)


def every_check(joint, tree, g, f):
    """The result of every exact check on ``joint``, as comparable values."""
    report = verify_dependency(joint, g)
    contexts = list(all_coupling_contexts(joint, tree))[:12]
    pairs = [build_coupling(joint, tree, *context) for context in contexts]
    mean = exact_mean(joint, f)
    return [
        (report.deviation, report.worst_pair),
        verify_all_couplings(joint, tree),
        [verify_independence_lemma(joint, tree, i) for i in range(1, joint.n)],
        verify_difference_bound(joint, tree, f),
        mean,
        [exact_tail(joint, f, t) for t in (F(-1), F(0), mean / 3, F(1, 2))],
        dict(joint.pmf),
        [pair.pmf for pair in pairs],
        [verify_coupling_marginals(pair, joint, tree) for pair in pairs],
    ]


def exact_marginal_gap(pair, lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs):
    """Reference: the worst TV gap of the coupled masses to A / hA and B / hB, in Fractions."""
    worst = F(0)
    for r in range(pair.shape[0]):
        y_tv = z_tv = F(0)
        for k in range(pair.shape[1]):
            den = int(h_lhs[r]) * int(w_rhs[r, k])
            if den == 0:  # both copied laws put no mass on k
                continue
            for v in range(pair.shape[2]):
                y_tv += abs(F(int(pair[r, k, v, :].sum()), den) - F(int(lhs[r, k, v]), int(h_lhs[r])))
                z_tv += abs(F(int(pair[r, k, :, v].sum()), den) - F(int(rhs[r, k, v]), int(h_rhs[r])))
        worst = max(worst, y_tv / 2, z_tv / 2)
    return worst


class TestTableDtype:
    @pytest.mark.parametrize("scale, dtype", [(2**31 - 1, np.int64), (2**31, object)])
    def test_int64_iff_twice_the_squared_scale_fits(self, scale, dtype):
        assert int_dtype(2 * scale * scale) is dtype
        law = [(0, F(1, scale)), (1, F(scale - 1, scale))]
        raw = finite_joint([[0, 1]], dict(((v,), p) for v, p in law))
        latent = _latent_joint(1, [((1,), law)], [lambda supports: list(supports[0])], None)
        for joint in (raw, latent):
            assert joint.scale == scale and joint.weights.dtype == dtype
            assert joint.pmf == {(0,): F(1, scale), (1,): F(scale - 1, scale)}
            assert_python_fractions(dict(joint.pmf))

    def test_states_merge_to_totals_near_the_scale(self):
        """Scale 2**31 - 1, the widest int64 table: three vertices, states merged up to the scale."""
        scale = 2**31 - 1  # a prime, so one latent carries the whole denominator
        shared = [(0, F(1, scale)), (1, F(2**30, scale)), (2, F(2**30 - 2, scale))]
        sure = [(5, F(1))]
        latents = [((1, 2), shared), ((2,), sure), ((2, 3), sure)]
        # X1 hides the shared latent and X2 merges two of its values, 2**30 + 2**30 - 2
        rules = [lambda x: 0, lambda x: min(x[0], 1), lambda x: x[0]]

        def over(rule):
            return lambda supports: [rule(x) for x in itertools.product(*supports)]

        joint = _latent_joint(3, latents, [over(rule) for rule in rules], None)
        oracle = latent_joint_per_point(3, latents, rules, None)
        assert joint.scale == oracle.scale == scale and joint.weights.dtype == oracle.weights.dtype == np.int64
        assert joint.spaces == oracle.spaces == ((0,), (0, 1), (5,))
        assert np.array_equal(joint.weights, oracle.weights)
        assert joint.weights.ravel().tolist() == [1, scale - 1]

    def test_every_check_is_the_same_on_python_ints(self, toy_joints, monkeypatch):
        rng = random.Random(2531)
        cases = []
        for joint, tree, g in toy_joints[:12]:
            raw = finite_joint(joint.spaces, joint.pmf, dependency=g)
            cases += [(joint, tree, g), (raw, tree, g)]
        for joint, tree, g in cases:
            assert joint.weights.dtype == np.int64
            table = {x: F(rng.randint(-6, 6), rng.randint(1, 3)) for x in itertools.product(*joint.spaces)}
            for f in (coordinate_sum(joint.spaces), lipschitz_function(joint.spaces, table)):
                got = every_check(joint, tree, g, f)
                assert got == every_check(as_python_ints(joint), tree, g, f)
                assert_python_fractions(got)
        # joints dependent along no tree, with the dependency check switched
        # off: every deviation is positive and still the same on both tables
        monkeypatch.setattr(coupling_module, "_require_dependent", lambda joint: None)
        g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
        tree = rooted_order(g, [1, 2, 1, 1])
        spaces = [(0, 1, 2), (0, 1), (0, 1), (0, 1, 2)]
        points = list(itertools.product(*spaces))
        for _ in range(4):
            weights = [rng.randint(1, 9) for _ in points]
            joint = finite_joint(spaces, {x: F(w, sum(weights)) for x, w in zip(points, weights)})
            got = verify_all_couplings(joint, tree)
            assert min(got) > 0
            assert got == verify_all_couplings(as_python_ints(joint), tree)
            assert_python_fractions(got)

    def test_sweep_computes_a_nonzero_gap_exactly(self, toy_joints):
        rng = random.Random(77)
        perturbed = 0
        for joint, tree, _ in toy_joints[:12]:
            for version in (joint, as_python_ints(joint)):
                for _, t, a, b, rows in _context_batches(version, tree):
                    laws = _pair_laws(t, rows, a, b)
                    pair = _couple(*laws)
                    assert _marginal_gap(pair, *laws) == 0
                    if pair.shape[2] == 1:
                        continue  # a one-value parent has nowhere to move mass
                    # in each context, move one unit of coupled mass to another y, or another z
                    for r in range(pair.shape[0]):
                        k, y, z = map(int, rng.choice(np.argwhere(pair[r])))
                        moved = pair.copy()
                        moved[r, k, y, z] -= 1
                        if rng.random() < 0.5:
                            moved[r, k, (y + 1) % pair.shape[2], z] += 1
                        else:
                            moved[r, k, y, (z + 1) % pair.shape[3]] += 1
                        gap = _marginal_gap(moved, *laws)
                        assert gap == exact_marginal_gap(moved, *laws) > 0
                        assert_python_fractions(gap)
                        perturbed += 1
        assert perturbed > 50
