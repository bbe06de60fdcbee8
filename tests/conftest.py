"""Shared fixtures: standard graphs, seeded random structures, and oracles.

The scipy covering-LP oracle and the brute-force enumerations here are kept
independent of the library's own simplex / backtracking code on purpose:
golden values asserted in the tests were computed through these paths.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from graphtail._simplex import column_mask, int_dtype, members
from graphtail.coupling import CouplingPair, FiniteJoint, build_tree_joint, finite_joint
from graphtail.coupling import latent_tree_spec
from graphtail.covers import LipschitzProfile, WeightedCover, lipschitz_profile, part_cost_radicand
from graphtail.graph import Graph, OrderedTree, build_graph


# ---------------------------------------------------------------------------
# Standard graphs

@pytest.fixture
def k3() -> Graph:
    return build_graph(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def path3() -> Graph:
    return build_graph(3, [(1, 2), (2, 3)])


@pytest.fixture
def empty3() -> Graph:
    return build_graph(3, [])


@pytest.fixture
def example9() -> Graph:
    """Triangle on {1,2,3} plus six isolated vertices."""
    return build_graph(9, [(1, 2), (1, 3), (2, 3)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Brute-force enumeration oracles

def brute_independent_sets(g: Graph) -> set[frozenset[int]]:
    out = set()
    verts = list(g.vertices)
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(verts, r):
            cset = set(combo)
            if not any(u in cset and v in cset for u, v in g.edges):
                out.add(frozenset(combo))
    return out


def brute_induced_forests(g: Graph) -> set[frozenset[int]]:
    out = set()
    verts = list(g.vertices)
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(verts, r):
            if _acyclic_brute(g, set(combo)):
                out.add(frozenset(combo))
    return out


def _acyclic_brute(g: Graph, subset: set[int]) -> bool:
    edges = [(u, v) for u, v in g.edges if u in subset and v in subset]
    parent = {v: v for v in subset}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# ---------------------------------------------------------------------------
# Covering-LP oracle (floating point, scipy HiGHS)

def lp_cover_oracle(n: int, columns: list[frozenset[int]], costs: list[float]) -> float:
    """Optimal value of min c'w s.t. coverage >= 1, via an independent solver."""
    a_ub = np.zeros((n, len(columns)))
    for j, col in enumerate(columns):
        for v in col:
            a_ub[v - 1, j] = -1.0
    res = linprog(costs, A_ub=a_ub, b_ub=-np.ones(n), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def encoded(columns) -> np.ndarray:
    """Vertex sets as bitmask columns: int64 while every bit fits, else Python ints."""
    masks = [column_mask(col) for col in columns]
    return np.array(masks, dtype=np.int64 if max(masks, default=0) < 2**63 else object)


def decoded(masks) -> list[frozenset[int]]:
    """Bitmask columns as vertex sets, through the LP's own decoder."""
    return [frozenset(members(mask)) for mask in masks]


def sqrt_fraction(x: Fraction, bits: int = 128) -> Fraction:
    """Exact square root when x is a rational square, else rounded down to 2^-bits / den.

    The Fraction form in which part costs were once handed to the LP; the
    integer costs ``covers`` builds must equal it exactly.
    """
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return Fraction(math.isqrt((x.numerator * x.denominator) << (2 * bits)), x.denominator << bits)


def over_common_denominator(costs: list[Fraction]) -> tuple[list[int], int]:
    """Rational costs as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in costs))
    return [c.numerator * (den // c.denominator) for c in costs], den


def cover_weighted_cost(g: Graph, cover: WeightedCover, profile: LipschitzProfile) -> float:
    """sum_k w_k * cost(F_k) of a forest cover, recomputed in floating point."""
    return sum(float(w) * math.sqrt(part_cost_radicand(g, s, profile)) for s, w in cover.parts)


# ---------------------------------------------------------------------------
# Joints, couplings and rooted trees

def product_joint(marginals) -> FiniteJoint:
    """Independent product of per-coordinate (value, probability) lists."""
    pmf = {
        tuple(v for v, _ in combo): math.prod((q for _, q in combo), start=Fraction(1))
        for combo in itertools.product(*marginals)
    }
    return finite_joint([[v for v, _ in m] for m in marginals], pmf)


def dependency_per_subset(joint: FiniteJoint, g: Graph) -> tuple[Fraction, tuple | None]:
    """Oracle for ``verify_dependency``: (deviation, worst_pair) from every S and T = V∖N[S].

    Computes the gap of every nonempty S with its T, in ``combinations``
    order, and keeps the first S that reaches the largest.
    """
    weights, scale = joint.weights, joint.scale
    verts = range(1, joint.n + 1)
    worst, worst_pair = 0, None
    for r in range(1, joint.n):
        for s in itertools.combinations(verts, r):
            closed = set(s).union(*(g.neighbors(v) for v in s))
            t = tuple(v for v in verts if v not in closed)
            if not t:
                continue
            both = weights.sum(axis=tuple(v - 1 for v in closed if v not in s), keepdims=True)
            ws = both.sum(axis=tuple(v - 1 for v in t), keepdims=True)
            wt = both.sum(axis=tuple(v - 1 for v in s), keepdims=True)
            gap = int(abs(scale * both - ws * wt).sum())
            if gap > worst:
                worst, worst_pair = gap, (frozenset(s), frozenset(t))
    return Fraction(worst, 2 * scale * scale), worst_pair


def latent_joint_per_point(n: int, latents, emit, dependency) -> FiniteJoint:
    """Oracle for ``coupling._latent_joint`` with one ``emit[v-1](values)`` call per point.

    The same vertex-by-vertex state walk, with the emitted values read one
    combination of the latents covering v at a time and the states merged
    by ``np.add.at``.
    """
    dens = [math.lcm(*(q.denominator for _, q in support)) for _, support in latents]
    scale = math.prod(dens)
    dtype = int_dtype(2 * scale * scale)
    live = []
    codes, mass, spaces = np.zeros(1, dtype=np.int64), np.ones(1, dtype=dtype), []
    for v in range(1, n + 1):
        joining = [k for k, (scope, _) in enumerate(latents) if min(scope) == v]
        for k in joining:
            weights = np.array([int(q * dens[k]) for _, q in latents[k][1]], dtype=dtype)
            codes = (codes[:, None] * len(weights) + np.arange(len(weights))).ravel()
            mass = np.multiply.outer(mass, weights).ravel()
        order = live + joining
        supports = [len(latents[k][1]) for k in order]
        sizes = [*map(len, spaces), *supports]
        digits = np.unravel_index(codes, sizes) if sizes else ()
        held = digits[v - 1 :]
        reads = [order.index(k) for k, (scope, _) in enumerate(latents) if v in scope]
        kept = [pos for pos, k in enumerate(order) if max(latents[k][0]) > v]
        shape = [supports[pos] for pos in reads]
        values = [
            emit[v - 1](tuple(latents[order[pos]][1][u][0] for pos, u in zip(reads, idx)))
            for idx in np.ndindex(*shape)
        ]
        spaces.append(tuple(sorted(set(values))))
        position = {value: u for u, value in enumerate(spaces[-1])}
        emitted = np.array([position[value] for value in values]).reshape(shape)
        x = np.broadcast_to(emitted[tuple(held[pos] for pos in reads)], len(codes))
        merged = [*digits[: v - 1], x, *(held[pos] for pos in kept)]
        radices = [*map(len, spaces), *(supports[pos] for pos in kept)]
        codes, which = np.unique(np.ravel_multi_index(merged, radices), return_inverse=True)
        mass, summands = np.zeros(len(codes), dtype=dtype), mass
        np.add.at(mass, which.reshape(-1), summands)
        live = [order[pos] for pos in kept]
    weights = np.zeros(tuple(map(len, spaces)), dtype=dtype)
    weights.flat[codes] = mass
    return FiniteJoint(tuple(spaces), weights, scale, dependency)


def coupling_disagreements(pair: CouplingPair) -> dict[int, Fraction]:
    """P(Y_j != Z_j) per relabeled coordinate, from the coupled pmf."""
    n = len(pair.spaces)
    return {
        j: sum((p for (y, z), p in pair.pmf.items() if y[j - 1] != z[j - 1]), Fraction(0))
        for j in range(1, n + 1)
    }


def subtree(tree: OrderedTree, i: int) -> set[int]:
    """The relabeled vertices of the subtree rooted at relabeled vertex i, read off ``parent``."""
    out = set()
    for j in range(1, tree.size + 1):
        a = j
        while a and a != i:
            a = tree.parent[a - 1]
        if a == i:
            out.add(j)
    return out


def copied_coordinates(tree: OrderedTree, i: int) -> set[int]:
    """[i+1, size] minus the parent of i: the coordinates a coupling at step i copies."""
    return set(range(i + 1, tree.size + 1)) - {tree.parent[i - 1]} if tree.parent[i - 1] else set()


# ---------------------------------------------------------------------------
# The sub-Gaussian mgf envelope, summed point by point over the pmf

class SwingViolation(AssertionError):
    """A conditional-mean swing above its step's bound; carries the step and prefix."""

    def __init__(self, i: int, prefix: tuple, swing: Fraction, budget: Fraction):
        self.i, self.prefix = i, prefix
        super().__init__(f"swing {swing} at coordinate {i}, prefix {prefix!r}, exceeds {budget}")


def mgf_envelope_ratio(joint: FiniteJoint, f, effective_c, s_grid) -> float:
    """Worst ratio, over ``s_grid``, of E exp(s (f - Ef)) to exp(s^2 sum_i c_i^2 / 8).

    First checks, in the joint's own coordinate order, that at every step i
    and positive prefix the conditional means E[f | prefix, x_i] over the
    positive values x_i spread by at most effective_c[i-1], raising
    ``SwingViolation`` at the first step and prefix that do not.
    """
    pmf = joint.pmf
    value = {x: f.value(x) for x in pmf}
    eff = [Fraction(c) for c in effective_c]
    assert len(eff) == joint.n
    for i in range(1, joint.n + 1):
        heads: dict[tuple, list[Fraction]] = {}  # (prefix, x_i) -> [mass, moment]
        for x, p in pmf.items():
            acc = heads.setdefault(x[:i], [Fraction(0), Fraction(0)])
            acc[0] += p
            acc[1] += p * value[x]
        means: dict[tuple, list[Fraction]] = {}
        for head, (mass, moment) in heads.items():
            means.setdefault(head[:-1], []).append(moment / mass)
        for prefix in sorted(means):
            swing = max(means[prefix]) - min(means[prefix])
            if swing > eff[i - 1]:
                raise SwingViolation(i, prefix, swing, eff[i - 1])
    mean = sum((p * value[x] for x, p in pmf.items()), Fraction(0))
    var_budget = float(sum(c * c for c in eff))
    ratios = (
        sum(float(p) * math.exp(s * float(value[x] - mean)) for x, p in pmf.items())
        / math.exp(s * s * var_budget / 8.0)
        for s in s_grid
    )
    return max(ratios, default=0.0)


# ---------------------------------------------------------------------------
# Random structures (all seeded by the caller)

def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform-ish random labeled tree via random attachment."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [(order[i], order[rng.randrange(i)]) for i in range(1, n)]


def random_forest_edges(n: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """A labeled forest on n vertices with exactly k trees."""
    comp = {v: v for v in range(1, n + 1)}

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    edges = []
    while len({find(v) for v in range(1, n + 1)}) > k:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        ru, rv = find(u), find(v)
        if ru != rv:
            edges.append((u, v))
            comp[ru] = rv
    return edges


def random_profile(n: int, rng: random.Random, allow_zero: bool = False):
    lo = 0 if allow_zero else 1
    return lipschitz_profile([Fraction(rng.randint(lo, 8), rng.randint(1, 4)) for _ in range(n)])


def random_finite_dist(size: int, rng: random.Random) -> list[tuple[int, Fraction]]:
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    return [(v, Fraction(w, total)) for v, w in enumerate(weights)]


def random_tree_joint(n: int, rng: random.Random, max_alphabet: int = 3):
    """A random latent-tree joint: tree, per-vertex/edge latents, random emit tables."""
    g = build_graph(n, random_tree_edges(n, rng)) if n > 1 else build_graph(1, [])
    vertex_latents = {v: random_finite_dist(rng.randint(2, 3), rng) for v in g.vertices}
    edge_latents = {e: random_finite_dist(rng.randint(2, 3), rng) for e in g.edges}
    emit = {}
    for v in g.vertices:
        incident = sorted(e for e in g.edges if v in e)
        out_size = rng.randint(2, max_alphabet)
        table = {}
        combos = itertools.product(
            range(len(vertex_latents[v])),
            *[range(len(edge_latents[e])) for e in incident],
        )
        for combo in combos:
            table[combo] = rng.randrange(out_size)
        emit[v] = _table_emit(incident, table)
    profile = random_profile(n, rng)
    spec = latent_tree_spec(g, vertex_latents, edge_latents, emit, profile=profile)
    return build_tree_joint(spec), spec.tree, g


def _table_emit(incident, table):
    def fn(xi, ev):
        return table[(xi,) + tuple(ev[e] for e in incident)]

    return fn


TOY_JOINT_SIZES = [2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 3, 4]


@pytest.fixture(scope="session")
def toy_joints():
    """Twenty seeded tree-dependent joints (n <= 6, alphabets <= 4)."""
    rng = random.Random(20240817)
    out = []
    for n in TOY_JOINT_SIZES:
        max_alpha = 4 if n <= 4 else (3 if n == 5 else 2)
        out.append(random_tree_joint(n, rng, max_alphabet=max_alpha))
    return out
