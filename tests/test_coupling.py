import itertools
import random
from fractions import Fraction as F

import pytest

from graphtail.bounds import forest_denominator, tail_bound
from graphtail.coupling import (
    CouplingContext,
    CouplingPair,
    DependencyViolation,
    SupInfViolation,
    build_coupling,
    build_tree_joint,
    conditional,
    coordinate_sum,
    coupling_disagreements,
    coupling_effective_profile,
    derive_profile,
    exact_tail,
    finite_dist,
    finite_joint,
    latent_tree_spec,
    lipschitz_function,
    mgf_check,
    product_joint,
    relabel_joint,
    verify_all_couplings,
    verify_coupling_marginals,
    verify_dependency,
    verify_difference_bound,
    verify_independence_lemma,
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


class TestConditional:
    def test_product_prefix_conditioning_keeps_product(self):
        joint = product_joint([[(0, F(1, 3)), (1, F(2, 3))], [(0, F(1, 4)), (1, F(3, 4))]])
        cond = conditional(joint, {1: 1})
        assert cond.pmf == {(0,): F(1, 4), (1,): F(3, 4)}

    def test_full_conditioning_is_point_mass(self):
        joint, _ = xor_pair_joint()
        cond = conditional(joint, {1: 0, 2: 1})
        assert cond.pmf == {(): F(1)}

    def test_xor_pair_conditional_from_latent_oracle(self):
        joint, _ = xor_pair_joint()
        cond = conditional(joint, {1: 1})
        # oracle: P(X2=1 | X1=1) via the latent sums
        num = F(1, 2) * F(1, 4) * F(1, 4) + F(1, 2) * F(3, 4) * F(3, 4)
        den = F(1, 2)
        assert cond.pmf[(1,)] == num / den == F(5, 8)

    def test_null_event_rejected(self):
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        joint = finite_joint([[0, 1], [0, 1]], pmf)
        with pytest.raises(InputError, match="probability zero"):
            conditional(joint, {1: 0, 2: 1})


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
        tree = rooted_order(joint.dependency, [1, 2], [F(1), F(1)])
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
        tree = rooted_order(path, [1, 2, 3], [F(1)] * 3)
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
        rest = sorted(tree.exposure_rest[i - 1])
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
                    parent_coord=parent_coord,
                )
                worst = max(worst, verify_coupling_marginals(corrupted, joint, tree))
        assert worst > 0

    def test_false_dependency_declaration_fails(self):
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        joint = finite_joint([[0, 1], [0, 1]], pmf, dependency=build_graph(2, []))
        tree = rooted_order(build_graph(2, [(1, 2)]), [1, 2], [F(1), F(1)])
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
        tree = rooted_order(joint.dependency, [1, 2], [F(1), F(0)])
        f = lipschitz_function(joint.spaces, lambda x: F(x[0]))
        assert f.profile.values == (F(1), F(0))
        # the swing at the leaf step is exactly 1 = c_1 + c_2
        assert verify_difference_bound(joint, tree, f) == 0


class TestVerifyIndependenceLemma:
    def test_path_leaf_step(self):
        joint, spec = xor_chain_joint()
        assert verify_independence_lemma(joint, spec.tree, 1) == 0

    def test_product_every_step(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 3)
        g = build_graph(3, [(1, 2), (2, 3)])
        joint = finite_joint(joint.spaces, joint.pmf, dependency=g)
        tree = rooted_order(g, [1, 2, 3], [F(1)] * 3)
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
        ratio = mgf_check(joint, f, [F(1), F(1)], [0.5, 1, 2])
        assert ratio <= 1 + 1e-9

    def test_constant_function(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        f = lipschitz_function(joint.spaces, lambda x: F(3))
        assert mgf_check(joint, f, [F(1), F(1)], [1.0]) <= 1

    def test_tree_effective_profile_mechanism(self):
        joint, spec = xor_pair_joint()
        f = coordinate_sum(joint.spaces)
        rl = relabel_joint(joint, spec.tree)
        f_rl = coordinate_sum(rl.spaces)
        eff = coupling_effective_profile(spec.tree, f.profile)
        assert mgf_check(rl, f_rl, eff, [0.25, 0.5, 1, 2, 4]) <= 1 + 1e-9

    def test_sup_inf_violation_reports_step_and_prefix(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]] * 2)
        f = coordinate_sum(joint.spaces)
        with pytest.raises(SupInfViolation) as err:
            mgf_check(joint, f, [F(0), F(1)], [1.0])
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
            prof = derive_profile(spaces, table)
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


class TestMaximalCouplingHelper:
    def test_marginals_and_minimal_disagreement(self):
        from graphtail.coupling import _maximal_coupling

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
            m = _maximal_coupling(p, q)
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

    def test_conditional_coordinate_out_of_range(self):
        joint = product_joint([[(0, F(1, 2)), (1, F(1, 2))]])
        with pytest.raises(InputError):
            conditional(joint, {3: 0})


class TestEndToEndOnToyJoints:
    def test_lemma_sweeps_are_exact_on_a_few_joints(self, toy_joints):
        for joint, tree, g in toy_joints[:6]:
            assert verify_dependency(joint, g).deviation == 0
            assert verify_all_couplings(joint, tree) == 0
            for i in range(1, joint.n):
                assert verify_independence_lemma(joint, tree, i) == 0

    def test_theorem_chain_on_one_joint(self, toy_joints):
        joint, tree, g = toy_joints[5]
        f = lipschitz_function(joint.spaces, lambda x: sum(F(v) for v in x))
        den = float(forest_denominator(g, f.profile))
        spread = float(sum(f.profile.values))
        for k in range(1, 21):
            t = spread * k / 20 if spread else k / 20
            assert float(exact_tail(joint, f, F(t))) <= tail_bound(den, t) + 1e-12
