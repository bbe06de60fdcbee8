"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines (pytest captures stdout otherwise).  Tolerances are pinned here:
exact-rational equalities carry zero tolerance, floating comparisons carry
the stated 1e-9 / 1e-12, and Monte Carlo soundness uses the exact 99%
one-sided binomial upper limit with a single-retry policy for the 1% CI
miss mass.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from conftest import random_forest_edges, random_profile
from graphtail import cli
from graphtail.bounds import (
    MCDIARMID,
    MIN_BLOCK,
    PAULIN,
    forest_denominator,
    janson_denominator,
    m_dependent_denominator,
    mcdiarmid_denominator,
    tail_bound,
)
from graphtail.coupling import (
    CouplingContext,
    CouplingPair,
    coordinate_sum,
    coupling_effective_profile,
    exact_mean,
    exact_tail,
    finite_joint,
    lipschitz_function,
    mgf_check,
    relabel_joint,
    verify_all_couplings,
    verify_coupling_marginals,
    verify_dependency,
    verify_difference_bound,
    verify_independence_lemma,
)
from graphtail.covers import (
    CoverKind,
    Optimality,
    fractional_chromatic_number,
    lipschitz_profile,
    make_cover,
    optimize_decomposable_denominator,
    part_cost_radicand,
    uniform_profile,
    validate_cover,
)
from graphtail.errors import KindError
from graphtail.graph import build_graph, rooted_order
from graphtail.montecarlo import (
    block_factor_spec,
    latent_graph_spec,
    uniform,
    validate_bounds,
)


class _criterion:
    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.time() - self.start
        print(f"\nACCEPTANCE {self.number}: {status} ({elapsed:.1f}s) {self.text}")
        return False


EXAMPLE9 = build_graph(9, [(1, 2), (1, 3), (2, 3)])


def test_criterion_1_worked_example():
    with _criterion(1, "worked example: chi_f=3, Janson 27, optimum <= 81/4, witness exact") as c:
        ones = uniform_profile(9)
        chi = fractional_chromatic_number(EXAMPLE9)
        assert chi.objective_exact == F(3)

        janson, _ = janson_denominator(EXAMPLE9, ones)
        assert janson == F(27)

        sol = optimize_decomposable_denominator(EXAMPLE9, ones)
        assert sol.optimality is Optimality.EXACT
        assert validate_cover(EXAMPLE9, sol.cover) == []

        # the three-part witness: weight 1/2 each, part cost exactly 3
        witness = make_cover(
            CoverKind.FOREST,
            [
                ({1, 2, 4, 5, 6, 7}, F(1, 2)),
                ({1, 3, 4, 5, 8, 9}, F(1, 2)),
                ({2, 3, 6, 7, 8, 9}, F(1, 2)),
            ],
        )
        assert validate_cover(EXAMPLE9, witness) == []
        for part, w in witness.parts:
            assert w == F(1, 2)
            assert part_cost_radicand(EXAMPLE9, part, ones) == F(9)  # cost exactly 3
        # exact certificate: the optimum is at most the witness value 81/4
        witness_objective = sum(w * 3 for _, w in witness.parts)  # 9/2, exactly
        assert witness_objective == F(9, 2)
        assert sol.objective <= float(witness_objective) ** 2 + 1e-12
        # and the optimum itself is strictly better here: (1 + sqrt 11)^2
        assert math.isclose(sol.objective, 12 + 2 * math.sqrt(11), rel_tol=1e-12)
        assert time.time() - c.start < 5.0


def test_criterion_2_forest_identities():
    with _criterion(2, "forest bound identities and the k >= 2n/3 crossover"):
        rng = random.Random(20240201)
        # edgeless graphs: the independent-case denominator, exactly
        for _ in range(50):
            n = rng.randint(1, 12)
            g = build_graph(n, [])
            c = random_profile(n, rng, allow_zero=True)
            assert forest_denominator(g, c) == mcdiarmid_denominator(c) == c.norm_sq

        # uniform coefficients: (4n - 3k) c^2 for every realizable (n, k)
        for n in range(1, 11):
            for k in range(1, n + 1):
                for _ in range(3):
                    g = build_graph(n, random_forest_edges(n, k, rng))
                    c_val = F(rng.randint(1, 6), rng.randint(1, 4))
                    c = lipschitz_profile([c_val] * n)
                    den = forest_denominator(g, c)
                    assert den == (4 * n - 3 * k) * c_val**2
                    # crossover against the chromatic route (2n c^2 with >= 1 edge)
                    if k < n:
                        jan, _ = janson_denominator(g, c)
                        assert jan == 2 * n * c_val**2
                        if 3 * k >= 2 * n:
                            assert den <= jan
                        else:
                            assert den > jan


def test_criterion_3_dominance_over_janson():
    with _criterion(3, "decomposable optimum <= chi_f * norm^2 on exhaustive + random corpus"):
        import networkx as nx
        from networkx.generators.atlas import graph_atlas_g

        rng = random.Random(20240301)
        checked = 0
        for G in graph_atlas_g():
            n = G.number_of_nodes()
            if n < 1 or n > 7 or not nx.is_connected(G):
                continue
            g = build_graph(n, [(u + 1, v + 1) for u, v in G.edges()])
            c = random_profile(n, rng)
            sol = optimize_decomposable_denominator(g, c)
            chi = fractional_chromatic_number(g)
            janson = chi.objective_exact * c.norm_sq
            if sol.objective_exact is not None:
                assert sol.objective_exact <= janson
            assert sol.objective <= float(janson) + 1e-9
            checked += 1
        assert checked == 996  # all connected graphs on 1..7 vertices

        for _ in range(100):
            n = rng.randint(8, 12)
            p = rng.uniform(0.3, 0.6)
            edges = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < p
            ]
            g = build_graph(n, edges)
            c = random_profile(n, rng)
            sol = optimize_decomposable_denominator(g, c)
            chi = fractional_chromatic_number(g)
            assert sol.objective <= float(chi.objective_exact * c.norm_sq) + 1e-9


def test_criterion_4_m_dependent_identities():
    with _criterion(4, "m-dependent block identities and min-block dominance"):
        rng = random.Random(20240401)
        # uniform coefficients, n divisible by m: the closed form, exactly
        for m in range(1, 7):
            for blocks in range(1, 8):
                n = m * blocks
                c_val = F(rng.randint(1, 5), rng.randint(1, 3))
                c = lipschitz_profile([c_val] * n)
                den, _ = m_dependent_denominator(n, m, c, variant=MIN_BLOCK)
                assert den == (2 * m * c_val) ** 2 * (n // m - 1) + m**2 * c_val**2
                assert den <= 4 * m * n * c_val**2

        for _ in range(200):
            n = rng.randint(1, 40)
            m = rng.randint(1, 12)
            c = random_profile(n, rng, allow_zero=True)
            lo, _ = m_dependent_denominator(n, m, c, variant=MIN_BLOCK)
            hi, _ = m_dependent_denominator(n, m, c, variant=PAULIN)
            assert lo <= hi


def _random_table_function(joint, rng):
    table = {
        x: F(rng.randint(-8, 8), rng.randint(1, 3))
        for x in itertools.product(*joint.spaces)
    }
    return lipschitz_function(joint.spaces, table)


def test_criterion_5_coupling_exactness(toy_joints):
    with _criterion(5, "lemma checks exactly zero on 20 tree joints; controls fail") as c:
        rng = random.Random(20240501)
        assert len(toy_joints) == 20
        for joint, tree, g in toy_joints:
            assert all(isinstance(p, F) for p in joint.pmf.values())
            assert joint.n <= 6 and all(len(s) <= 4 for s in joint.spaces)
            assert verify_dependency(joint, g).deviation == 0
            assert verify_all_couplings(joint, tree) == 0
            for i in range(1, joint.n):
                assert verify_independence_lemma(joint, tree, i) == 0
            for f in (coordinate_sum(joint.spaces), _random_table_function(joint, rng)):
                assert verify_difference_bound(joint, tree, f) <= 0

        # negative control: a corrupted redraw must violate the marginals
        assert _worst_corrupted_deviation(*toy_joints[4][:2]) > 0
        # negative control: a false dependency declaration must be rejected
        pmf = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        lying = finite_joint([[0, 1], [0, 1]], pmf, dependency=build_graph(2, []))
        assert verify_dependency(lying, build_graph(2, [])).deviation == F(1, 2)
        tree2 = rooted_order(build_graph(2, [(1, 2)]), [1, 2], [F(1), F(1)])
        with pytest.raises(KindError):
            verify_all_couplings(lying, tree2)
        assert time.time() - c.start < 60.0


def _worst_corrupted_deviation(joint, tree):
    """Rebuild couplings with the parent coordinate drawn unconditionally."""
    rl = relabel_joint(joint, tree)
    worst = F(0)
    for i in range(1, joint.n):
        parent_coord = tree.parent[i - 1]
        heads = sorted({x[:i] for x in rl.pmf})
        by_prefix = {}
        for head in heads:
            by_prefix.setdefault(head[:-1], []).append(head[-1])
        for prefix, values in by_prefix.items():
            for a, b in itertools.combinations(sorted(values), 2):
                lhs = {x[i:]: p for x, p in rl.pmf.items() if x[:i] == prefix + (a,)}
                rhs = {x[i:]: p for x, p in rl.pmf.items() if x[:i] == prefix + (b,)}
                z_l, z_r = sum(lhs.values()), sum(rhs.values())
                par_law = {}
                for tail, p in rhs.items():
                    v = tail[parent_coord - i - 1]
                    par_law[v] = par_law.get(v, F(0)) + p / z_r
                pmf = {}
                for tail, p in lhs.items():
                    for v, q in par_law.items():
                        z_tail = list(tail)
                        z_tail[parent_coord - i - 1] = v
                        key = (prefix + (a,) + tail, prefix + (b,) + tuple(z_tail))
                        pmf[key] = pmf.get(key, F(0)) + (p / z_l) * q
                pair = CouplingPair(
                    spaces=rl.spaces,
                    pmf=pmf,
                    context=CouplingContext(i=i, prefix=prefix, lhs_value=a, rhs_value=b),
                    parent_coord=parent_coord,
                )
                worst = max(worst, verify_coupling_marginals(pair, joint, tree))
    return worst


def test_criterion_6_tree_bound_end_to_end(toy_joints):
    with _criterion(6, "exact tails below the tree bound on a 20-point grid, all joints"):
        for joint, tree, g in toy_joints:
            f = coordinate_sum(joint.spaces)
            den = forest_denominator(g, f.profile)
            if den == 0:
                continue  # constant function: nothing to bound
            mean = exact_mean(joint, f)
            spread = max(f.value(x) for x in joint.pmf) - mean
            if spread <= 0:
                continue
            for k in range(1, 21):
                t = F(spread) * k / 20
                exact = exact_tail(joint, f, t)
                assert float(exact) <= tail_bound(float(den), float(t)) + 1e-12


def test_criterion_7_mgf_envelope(toy_joints):
    with _criterion(7, "mgf within the sub-Gaussian envelope on every joint"):
        grid = [0.25, 0.5, 1, 2, 4]
        for joint, tree, g in toy_joints:
            f = coordinate_sum(joint.spaces)
            rl = relabel_joint(joint, tree)
            f_rl = coordinate_sum(rl.spaces)
            eff = coupling_effective_profile(tree, f.profile)
            assert mgf_check(rl, f_rl, eff, grid) <= 1 + 1e-9


def _forest_mc_spec():
    g = build_graph(7, [(1, 2), (2, 3), (5, 6)])
    latents = [((v,), uniform(0, 1)) for v in g.vertices] + [
        (e, uniform(0, 1)) for e in g.edges
    ]
    return latent_graph_spec(g, latents, emit="mean")


def _example_mc_spec():
    latents = [((1, 2, 3), uniform(0, 1))] + [((v,), uniform(0, 1)) for v in range(4, 10)]
    return latent_graph_spec(EXAMPLE9, latents, emit="sum")


def _correlated_control_spec():
    n = 10
    g = build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    return latent_graph_spec(g, [(tuple(range(1, n + 1)), uniform(0, 1))], emit="identity")


def test_criterion_8_monte_carlo_soundness():
    with _criterion(8, "1e6-sample soundness for forest / m-dependent / example specs") as c:
        n_samples = 1_000_000
        grids = {
            "forest": (_forest_mc_spec(), [0.25 * k for k in range(1, 11)], None),
            "m_dependent": (
                block_factor_spec(24, 3, uniform(0, 1), combine="max"),
                [0.5 * k for k in range(1, 11)],
                None,
            ),
            "example": (_example_mc_spec(), [0.4 * k for k in range(1, 11)], None),
        }
        for name, (spec, t_grid, methods) in grids.items():
            rows = validate_bounds(spec, t_grid, seed=20240801, n_samples=n_samples, methods=methods)
            failed = [r for r in rows if r.verdict == "FAIL"]
            if failed:  # one retry: the CI itself has a 1% one-sided miss mass
                rows = validate_bounds(
                    spec, t_grid, seed=20240802, n_samples=n_samples, methods=methods
                )
                failed = [r for r in rows if r.verdict == "FAIL"]
            assert not failed, (name, failed[:3])

        # the example spec must come in under the worked-example bound at t = 4
        example_rows = validate_bounds(
            _example_mc_spec(), [4.0], seed=20240801, n_samples=n_samples
        )
        decomposable = [r for r in example_rows if r.method == "decomposable"]
        assert decomposable and decomposable[0].ci_upper <= math.exp(-8 * 16 / 81)

        # negative control: the independence-only reference must break
        control = validate_bounds(
            _correlated_control_spec(),
            [2.0, 3.0, 4.0],
            seed=20240801,
            n_samples=200_000,
            methods=(MCDIARMID,),
        )
        assert any(r.verdict == "FAIL" for r in control)
        assert time.time() - c.start < 600.0


def test_criterion_9_determinism(tmp_path):
    with _criterion(9, "byte-identical reports across runs and 1 vs 8 workers"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "model": "block_factor",
                    "n": 16,
                    "k": 2,
                    "dist": {"kind": "uniform", "lo": 0, "hi": 1},
                    "combine": "sum",
                }
            )
        )
        outputs = []
        for run, workers in ((1, "1"), (2, "8"), (3, "1")):
            out = tmp_path / f"run{run}.csv"
            code = cli.run(
                [
                    "simulate", "--spec", str(spec_path), "--t-grid", "0.5:4:8",
                    "--seed", "777", "--n", "120000", "--validate",
                    "--workers", workers, "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps({"n": 9, "edges": [[1, 2], [1, 3], [2, 3]]}))
        reports = []
        for run in (1, 2):
            out = tmp_path / f"bounds{run}.json"
            code = cli.run(
                ["bounds", "--graph", str(graph_path), "--t", "3",
                 "--format", "json", "--out", str(out)]
            )
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
