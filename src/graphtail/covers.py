"""Fractional vertex covers by independent sets and induced forests.

Solves three covering LPs over a dependency graph G with per-vertex Lipschitz
coefficients c:

* the fractional chromatic number (independent-set parts, unit costs),
* the fractional vertex arboricity (forest parts, unit costs),
* the decomposable-bound denominator: minimize the weighted sum of part costs

      cost(F) = sqrt( sum_{edges {i,j} of G[F]} (c_i + c_j)^2
                      + sum_{trees T of G[F]} (min_{i in T} c_i)^2 ),

  whose squared optimum is the denominator used by the decomposable tail
  bound.

LPs are solved with coverage >= 1 (always feasible via singleton parts) and
the witness is then trimmed part-by-part to an exact cover; dropping a
covered-elsewhere vertex from a part keeps independence and acyclicity and
never increases its cost, so the trimmed witness attains the same optimum.

One walk lists the columns of every enumerated LP, in lexicographic order,
as int64 bitmasks (bit v for vertex v): the induced forests, and with a flag
the independent sets (the forests with no edge).  It builds the family in
array steps, one vertex at a time, and past ``COLUMN_CAP`` columns it raises
ScaleError before building them.  The enumerated decomposable LP gets its
radicands from that walk itself: over the profile's common denominator L
every coefficient is an integer a_v = L * c_v, and each partial forest
carries L**2 times its radicand as an integer, updated as vertices join and
trees merge.
Witness parts (``part_cost_radicand``), column generation's pool (over the
a_v) and its search (in floats) are priced by one sum, ``_part_radicand``.

Part costs are square roots of rationals.  Roots of perfect squares are kept
exact; other roots enter the LP as 128-bit rational approximations, which is
far below the separation of distinct cover values at this scale, so basis
selection is unaffected.  Both reach the LP as integers over the one
denominator L**2 * 2**128, computed from the integer radicands without a
Fraction per column.  Basic weights always come out exact, and the
squared objective is reconstructed exactly whenever the support radicands
share a square-free kernel (covering every rational-valued case).
"""

import functools
import itertools
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt
from sys import float_info
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import graph as graphmod
from ._simplex import CoverLp, column_mask, int_dtype, members, solve_min_cover_lp
from .errors import FloatRangeError, InputError, KindError, ScaleError, VerificationError
from .graph import Graph

_ZERO = Fraction(0)
_ONE = Fraction(1)

ENUMERATION_VERTEX_LIMIT = 25
COLUMN_CAP = 200_000  # enumerated LP columns; past it, ScaleError
SQRT_BITS = 128


# ---------------------------------------------------------------------------
# Lipschitz profiles

@dataclass(frozen=True)
class LipschitzProfile:
    """Per-coordinate Lipschitz coefficients, stored as exact rationals."""

    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def coefficient(self, v: int) -> Fraction:
        """Coefficient of vertex v (1-based)."""
        return self.values[v - 1]

    @property
    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.values), _ZERO)


def lipschitz_profile(values: Iterable) -> LipschitzProfile:
    converted = []
    for i, v in enumerate(values):
        c = v if isinstance(v, Fraction) else Fraction(v)
        if c < 0:
            raise InputError(f"Lipschitz coefficient {i + 1} is negative: {v}")
        converted.append(c)
    return LipschitzProfile(values=tuple(converted))


def uniform_profile(n: int) -> LipschitzProfile:
    return lipschitz_profile([1] * n)


# ---------------------------------------------------------------------------
# Weighted covers

class CoverKind(Enum):
    INDEPENDENT = "independent"
    FOREST = "forest"


@dataclass(frozen=True)
class WeightedCover:
    kind: CoverKind
    parts: tuple[tuple[frozenset[int], Fraction], ...]

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.parts), _ZERO)


@dataclass(frozen=True)
class CoverViolation:
    code: str  # "coverage" | "kind" | "empty-part" | "negative-weight"
    detail: str


def make_cover(kind: CoverKind, parts: Iterable[tuple[Iterable[int], object]]) -> WeightedCover:
    norm = []
    for verts, w in parts:
        weight = w if isinstance(w, Fraction) else Fraction(w)
        norm.append((frozenset(verts), weight))
    norm.sort(key=lambda p: (sorted(p[0]), p[1]))
    return WeightedCover(kind=kind, parts=tuple(norm))


def validate_cover(g: Graph, cover: WeightedCover) -> list[CoverViolation]:
    """Check exact coverage and part kinds; violations are data, not errors."""
    out: list[CoverViolation] = []
    coverage = dict.fromkeys(g.vertices, _ZERO)
    for part, w in cover.parts:
        for v in part & coverage.keys():
            coverage[v] += w
        if not part:
            out.append(CoverViolation("empty-part", "a part with no vertices carries weight"))
            continue
        if w < 0:
            out.append(CoverViolation("negative-weight", f"part {sorted(part)} has weight {w}"))
        if any(v < 1 or v > g.n for v in part):
            out.append(CoverViolation("kind", f"part {sorted(part)} has out-of-range vertices"))
            continue
        if cover.kind is CoverKind.INDEPENDENT:
            bad = graphmod.edges_within(g, part)
            if bad:
                out.append(
                    CoverViolation("kind", f"part {sorted(part)} is not independent (edge {bad[0]})")
                )
        elif not graphmod.is_acyclic_subset(g, part):
            out.append(CoverViolation("kind", f"part {sorted(part)} induces a cycle"))
    for v, cov in coverage.items():
        if cov != 1:
            out.append(CoverViolation("coverage", f"vertex {v} has coverage {cov}, needs 1"))
    return out


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_independent_sets(g: Graph) -> np.ndarray:
    """All nonempty independent sets, lexicographic, as int64 bitmasks (bit v: vertex v)."""
    return _walk_induced_forests(g, [0] * g.n, independent=True)[0]


def enumerate_induced_forests(g: Graph) -> np.ndarray:
    """All nonempty vertex sets inducing a forest, lexicographic, as int64 bitmasks."""
    return _walk_induced_forests(g, [0] * g.n)[0]


def _walk_induced_forests(
    g: Graph, scaled: Sequence[int], independent: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The induced forests in ``enumerate_induced_forests`` order, with radicands.

    ``scaled[v - 1]`` is the integer a_v = L * c_v for a common denominator L
    of the profile, and the radicand of part F is the integer
    L**2 * part_cost_radicand(g, F, profile).

    Builds L_v, the forests with every vertex >= v in lexicographic order,
    from v = n down to 1: L_v = [{v}] ++ [{v} | T for T in L_{v+1} if adding
    v closes no cycle] ++ L_{v+1}.  Each row labels each vertex of T by the
    vertex of least a in its tree; adding v is acyclic iff its higher
    neighbours in T carry distinct labels, and then adds (a_v + a_u)**2 per
    such neighbour u, subtracts each merged tree's min**2 and adds the new
    tree's.  Radicands take ``int_dtype``'s width for twice the largest possible one.

    With ``independent`` set it lists only the edgeless forests, the
    independent sets, dropping T at any neighbour of v, not just at a cycle.
    """
    if g.n > ENUMERATION_VERTEX_LIMIT:
        raise ScaleError(
            f"enumeration supports n <= {ENUMERATION_VERTEX_LIMIT}, got n = {g.n};"
            " use column generation instead"
        )
    n, a = g.n, [0, *scaled]
    largest = sum((a[u] + a[v]) ** 2 for u, v in g.edges) + sum(x * x for x in a)
    a = np.array(a, dtype=int_dtype(2 * largest))
    # the family is [{}] ++ L_v, so {v} comes in as the empty set's child
    masks, radicands = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=a.dtype)
    labels = np.zeros((1, n + 1), dtype=np.int8)
    for v in range(n, 0, -1):
        higher = [u for u in g.neighbors(v) if u > v]
        present = {u: masks >> u & 1 == 1 for u in higher}
        keep = np.ones(len(masks), dtype=bool)
        for i, u in enumerate(higher):
            if independent:
                keep &= ~present[u]
            else:  # two neighbours in one tree close a cycle
                for w in higher[:i]:
                    keep &= ~(present[u] & present[w] & (labels[:, u] == labels[:, w]))
        count = int(keep.sum())
        if count + len(masks) - 1 > COLUMN_CAP:  # read here, so tests can lower it
            what = "independent sets" if independent else "induced forests"
            raise ScaleError(f"more than {COLUMN_CAP} {what}; use column generation instead")
        grown, kept = radicands[keep], labels[keep]
        low, merged = np.full(count, v, dtype=np.int8), np.zeros(kept.shape, dtype=bool)
        for u in higher:
            hit, tree = present[u][keep], kept[:, u]
            grown[hit] += (a[v] + a[u]) ** 2 - a[tree[hit]] ** 2
            low = np.where(hit & (a[tree] < a[low]), tree, low)
            merged |= hit[:, None] & (kept == tree[:, None])
        grown += a[low] ** 2
        kept = np.where(merged, low[:, None], kept)
        kept[:, v] = low
        masks = np.concatenate((masks[:1], masks[keep] | 1 << v, masks[1:]))
        radicands = np.concatenate((radicands[:1], grown, radicands[1:]))
        labels = np.concatenate((labels[:1], kept, labels[1:]))
    return masks[1:], radicands[1:]


# ---------------------------------------------------------------------------
# Part costs

def _profile_scale(profile: LipschitzProfile) -> tuple[int, list[int]]:
    """The profile's common denominator L and the integers a_v = L * c_v."""
    denom = lcm(*(c.denominator for c in profile))
    return denom, [c.numerator * (denom // c.denominator) for c in profile]


def _part_radicand(g: Graph, part: frozenset[int] | set[int], c: Sequence):
    """The part cost's radicand in the number type of ``c``, ``c[v - 1]`` being vertex v's coefficient.

    Adds the squared sums of the part's edges in ``g.edges`` order, then each
    tree's squared minimum by the tree's smallest vertex; KindError on a cycle.
    """
    edges = graphmod.edges_within(g, part)
    trees = graphmod.components_within(g, part)
    if not graphmod.induces_forest(len(edges), len(part), len(trees)):
        raise KindError(f"part {sorted(part)} induces a cycle; forest parts must be acyclic")
    total = 0
    for u, v in edges:
        s = c[u - 1] + c[v - 1]
        total += s * s
    for tree in trees:
        m = min(c[v - 1] for v in tree)
        total += m * m
    return total


def part_cost_radicand(g: Graph, part: frozenset[int] | set[int], profile: LipschitzProfile) -> Fraction:
    """Exact value under the square root of the forest-part cost."""
    graphmod.check_profile_length(len(profile), g.n)
    return _part_radicand(g, part, profile.values)


def _sqrt_numerator(radicand: int, scale: int, bits: int) -> int:
    """scale * 2**bits times the root of radicand / scale, as an integer.

    With radicand / scale = num / den in lowest terms, the root taken is
    isqrt(num * den * 4**bits) / (den * 2**bits): exact when num / den is a
    rational square, else less than 2^-bits / den below the true root.
    Scaled by scale * 2**bits it is isqrt(num * den << 2 bits) * (scale / den),
    an integer since den divides scale; so costs computed with one scale and
    bits lie over the one denominator ``scale << bits``.
    """
    if radicand < 0:
        raise InputError(f"square root of negative value {radicand}/{scale}")
    unit = gcd(radicand, scale)
    num, den = radicand // unit, scale // unit
    return isqrt((num * den) << (2 * bits)) * unit


class _RootsOnDemand(Sequence[int]):
    """Column j's cost ``_sqrt_numerator(radicands[j], scale, bits)``, rooted when first read.

    Columns that share a radicand share one root.
    """

    def __init__(self, radicands: np.ndarray, scale: int, bits: int):
        self._radicands = radicands
        self._root = functools.cache(lambda radicand: _sqrt_numerator(radicand, scale, bits))

    def __len__(self) -> int:
        return len(self._radicands)

    def __getitem__(self, j: int) -> int:
        return self._root(int(self._radicands[j]))


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) for x >= 0 when it is rational, else None."""
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None


def squared_objective_exact(parts: Sequence[tuple[Fraction, Fraction]]) -> Fraction | None:
    """Exact (sum_k w_k sqrt(r_k))^2 when all support radicands share a kernel.

    r_k shares the first radicand r_1's square-free kernel iff r_k * r_1 is a
    rational square q_k^2.  Then sum_k w_k sqrt(r_k) = (sum_k w_k q_k) / sqrt(r_1),
    whose square is exact.  Returns None when radicands mix kernels.
    """
    first: Fraction | None = None
    rational_sum = _ZERO
    for w, r in parts:
        if w == 0 or r == 0:
            continue
        if first is None:
            first = r
        q = _rational_sqrt(r * first)
        if q is None:
            return None
        rational_sum += w * q
    if first is None:
        return _ZERO
    return rational_sum * rational_sum / first


# ---------------------------------------------------------------------------
# LP solving and witnesses

class Strategy(Enum):
    ENUMERATED_LP = "enumerated_lp"
    COLUMN_GENERATION = "column_generation"
    GREEDY = "greedy"


class Optimality(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class CoverSolution:
    """A cover witness plus its objective.

    ``objective_form`` is "total_weight" for the chromatic/arboricity LPs and
    "squared_cost" for the decomposable denominator (where ``objective`` is
    already the squared optimum).
    """

    objective: float
    objective_exact: Fraction | None
    cover: WeightedCover
    method: Strategy
    optimality: Optimality
    objective_form: str


def _trim_to_exact_cover(
    g: Graph,
    kind: CoverKind,
    columns: np.ndarray,
    lp_weights: dict[int, Fraction],
) -> WeightedCover:
    """Shrink a >=1 fractional cover to an exact one by dropping surplus coverage.

    ``lp_weights`` maps indices of the bitmask ``columns`` to LP weights;
    equal columns pool theirs.
    """
    weights: dict[frozenset[int], Fraction] = {}
    for j, w in lp_weights.items():
        part = frozenset(members(columns[j]))
        weights[part] = weights.get(part, _ZERO) + w
    parts = {s: w for s, w in weights.items() if w > 0}
    coverage: dict[int, Fraction] = {v: _ZERO for v in g.vertices}
    for s, w in parts.items():
        for v in s:
            coverage[v] += w
    for v in g.vertices:
        while coverage[v] > 1:
            holders = sorted(
                (s for s in parts if v in s and parts[s] > 0),
                key=lambda s: (-len(s), sorted(s)),
            )
            if not holders:
                raise VerificationError(f"vertex {v} over-covered with no trimmable part")
            s = holders[0]
            delta = min(parts[s], coverage[v] - 1)
            parts[s] -= delta
            if parts[s] == 0:
                del parts[s]
            s2 = s - {v}
            if s2:
                parts[s2] = parts.get(s2, _ZERO) + delta
            coverage[v] -= delta
    cover = make_cover(kind, parts.items())
    bad = validate_cover(g, cover)
    if bad:
        raise VerificationError(f"trimmed cover failed validation: {bad[0].detail}")
    return cover


def _solve_unit_cover(g: Graph, kind: CoverKind, columns: np.ndarray) -> CoverSolution:
    res = solve_min_cover_lp(g.n, columns, np.ones(len(columns), dtype=np.int64))
    cover = _trim_to_exact_cover(g, kind, columns, res.weights)
    objective = cover.total_weight
    if objective != res.objective:
        raise VerificationError("trimming changed the total weight of a unit-cost cover")
    return CoverSolution(
        objective=float(objective),
        objective_exact=objective,
        cover=cover,
        method=Strategy.ENUMERATED_LP,
        optimality=Optimality.EXACT,
        objective_form="total_weight",
    )


def fractional_chromatic_number(g: Graph) -> CoverSolution:
    """Minimum total weight of an exact fractional cover by independent sets."""
    return _solve_unit_cover(g, CoverKind.INDEPENDENT, enumerate_independent_sets(g))


def fractional_vertex_arboricity(g: Graph) -> CoverSolution:
    """Minimum total weight of an exact fractional cover by forest-inducing sets."""
    return _solve_unit_cover(g, CoverKind.FOREST, enumerate_induced_forests(g))


def _package_d_solution(
    g: Graph,
    cover: WeightedCover,
    profile: LipschitzProfile,
    method: Strategy,
    optimality: Optimality,
) -> CoverSolution:
    parts = [(w, part_cost_radicand(g, s, profile)) for s, w in cover.parts]
    objective = sum(float(w) * sqrt(r) for w, r in parts)
    exact = squared_objective_exact(parts)
    return CoverSolution(
        objective=objective * objective,
        objective_exact=exact,
        cover=cover,
        method=method,
        optimality=optimality,
        objective_form="squared_cost",
    )


def _janson_candidate(
    g: Graph, profile: LipschitzProfile, chi: Callable[[], CoverSolution]
) -> CoverSolution | None:
    """The chromatic-number witness reinterpreted as a forest cover, when enumerable."""
    try:
        witness = chi()
    except ScaleError:
        return None
    cover = make_cover(CoverKind.FOREST, witness.cover.parts)
    return _package_d_solution(g, cover, profile, Strategy.GREEDY, Optimality.UPPER_BOUND)


def greedy_forest_partition(g: Graph) -> list[frozenset[int]]:
    """First-fit partition of the vertices into acyclic classes."""
    classes: list[set[int]] = []
    for v in g.vertices:
        for cls in classes:
            if graphmod.is_acyclic_subset(g, cls | {v}):
                cls.add(v)
                break
        else:
            classes.append({v})
    return [frozenset(c) for c in classes]


def _greedy_d_solution(g: Graph, profile: LipschitzProfile) -> CoverSolution:
    cover = make_cover(CoverKind.FOREST, [(c, _ONE) for c in greedy_forest_partition(g)])
    return _package_d_solution(g, cover, profile, Strategy.GREEDY, Optimality.UPPER_BOUND)


class _SmallParts(NamedTuple):
    """Column generation's pricing data for the parts of up to 3 vertices."""

    parts: list[frozenset[int]]  # the acyclic ones, in itertools.combinations order
    orders: list[np.ndarray]  # per size: 0-based vertices, each part in its iteration order
    costs: np.ndarray  # float part costs, aligned with parts
    index: dict[frozenset[int], int]  # position of each part in parts


def _part_cost_float(g: Graph, part: frozenset[int], c: list[float]) -> float:
    """Float twin of the part cost, for heuristic search only."""
    return sqrt(_part_radicand(g, part, c))


def _small_forest_parts(g: Graph, c: list[float]) -> _SmallParts:
    """The acyclic parts of up to 3 vertices in ``itertools.combinations`` order, with costs.

    Each cost is bit for bit ``_part_cost_float``'s: the squared sums of the
    part's edges added in ``g.edges`` order, then each tree's squared minimum
    in order of the tree's smallest vertex.  A part's vertices are sorted, so
    its edges in ``g.edges`` order are its position pairs in lexicographic
    order, and parts with the same edge pattern add the same terms in the
    same order.
    """
    n = g.n
    cv = np.array(c, dtype=np.float64)
    adjacent = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        adjacent[u - 1, v - 1] = adjacent[v - 1, u - 1] = True
    parts: list[frozenset[int]] = []
    orders: list[np.ndarray] = []
    costs: list[np.ndarray] = []
    for size in range(1, min(3, n) + 1):
        combos = np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
        pairs = list(itertools.combinations(range(size), 2))
        pattern = np.zeros(len(combos), dtype=np.intp)  # bit k: pair k is an edge
        for k, (i, j) in enumerate(pairs):
            pattern |= adjacent[combos[:, i], combos[:, j]].astype(np.intp) << k
        if size == 3:  # a triangle is the one cycle on 3 vertices
            combos, pattern = combos[pattern != 7], pattern[pattern != 7]
        total = np.zeros(len(combos))
        for code in set(pattern.tolist()):
            mask = pattern == code
            rows = combos[mask]
            edges = [pair for k, pair in enumerate(pairs) if code >> k & 1]
            terms = [cv[rows[:, i]] + cv[rows[:, j]] for i, j in edges]
            positions = graphmod.build_graph(size, [(i + 1, j + 1) for i, j in edges])
            for tree in graphmod.components_within(positions, positions.vertices):
                terms.append(cv[rows[:, [p - 1 for p in tree]]].min(axis=1))
            total[mask] = sum((x * x for x in terms), np.zeros(len(rows)))
        costs.append(np.sqrt(total))
        sized = [frozenset(combo) for combo in (combos + 1).tolist()]
        parts += sized
        orders.append(np.array([tuple(p) for p in sized], dtype=np.intp).reshape(-1, size) - 1)
    return _SmallParts(parts, orders, np.concatenate(costs), {p: i for i, p in enumerate(parts)})


def _price_forest_column(
    g: Graph,
    c: list[float],
    small: _SmallParts,
    duals: Sequence[Fraction],
    cache: dict[frozenset[int], float],
) -> frozenset[int] | None:
    """Heuristic pricing: a forest part with negative reduced cost, or None.

    Prices all parts of up to 3 vertices at once, then runs add/drop local
    search from the best seeds.  Finding the true minimizer is itself hard,
    so a None here does not certify optimality (results stay labeled as
    bounds).  ``cache`` keeps float part costs across the rounds of one
    search, the small parts' included.

    Every sum of duals is taken in the part's own iteration order, as
    Python's ``sum`` over it would, and the winner is the first minimum in
    the order the parts were priced: the small parts, where a local-search
    result that is itself a small part keeps its place, then larger results.
    """
    y = [float(d) for d in duals]
    yv = np.array(y)
    # ((y[i0] + y[i1]) + y[i2]), a column of duals per position in the part
    paid = [functools.reduce(np.add, yv[order].T) for order in small.orders]
    best = small.costs - np.concatenate(paid)

    def reduced(part: frozenset[int]) -> float:
        cost = cache.get(part)
        if cost is None:
            cost = cache[part] = _part_cost_float(g, part, c)
        return cost - sum(y[v - 1] for v in part)

    larger: dict[frozenset[int], float] = {}
    for seed in np.argsort(best, kind="stable")[:3].tolist():
        current, value = small.parts[seed], best[seed].item()
        tree_of: dict[int, int] | None = None  # vertex -> its tree in current
        improved = True
        while improved:
            improved = False
            for v in g.vertices:
                if v in current:
                    cand = current - {v}
                    if not cand:
                        continue
                else:
                    # current is a forest: v closes a cycle iff two of its
                    # neighbours in current lie in one tree
                    if tree_of is None:
                        trees = graphmod.components_within(g, current)
                        tree_of = {u: k for k, tree in enumerate(trees) for u in tree}
                    hit = [tree_of[u] for u in g.neighbors(v) if u in tree_of]
                    if len(hit) != len(set(hit)):
                        continue
                    cand = current | {v}
                r = reduced(cand)
                if r < value - 1e-12:
                    current, value, improved, tree_of = cand, r, True, None
        if len(current) <= 3:
            best[small.index[current]] = value
        else:
            larger[current] = value
    first = int(np.argmin(best))
    winner, value = small.parts[first], best[first].item()
    for part, r in larger.items():
        if r < value:
            winner, value = part, r
    return winner if value < -1e-9 else None


def _column_generation_d(g: Graph, profile: LipschitzProfile) -> CoverSolution:
    # At most 30 pricing rounds.  The master runs on coarser (48-bit) cost
    # approximations: precision only steers which cover the heuristic lands
    # on, never the reported value, which is recomputed exactly from the
    # returned cover.  The basis is kept warm across rounds, so each new
    # column costs a handful of pivots.
    bits = 48
    denom, scaled = _profile_scale(profile)
    square_scale = denom * denom

    def cost(part: frozenset[int]) -> int:  # over square_scale << bits
        return _sqrt_numerator(_part_radicand(g, part, scaled), square_scale, bits)

    c = [float(x) for x in profile.values]
    small = _small_forest_parts(g, c)
    cost_cache = dict(zip(small.parts, small.costs.tolist()))
    # the singletons, then the greedy classes; these are disjoint, so only a
    # one-vertex class could repeat a singleton
    pool = [frozenset({v}) for v in g.vertices]
    pool += [cls for cls in greedy_forest_partition(g) if len(cls) > 1]
    master = CoverLp(g.n, [column_mask(p) for p in pool], [cost(p) for p in pool], square_scale << bits)
    res = master.solve()
    for _ in range(30):
        new_col = _price_forest_column(g, c, small, res.duals, cost_cache)
        if new_col is None or column_mask(new_col) in master.columns:
            break
        master.add_column(column_mask(new_col), cost(new_col))
        res = master.solve()
    cover = _trim_to_exact_cover(g, CoverKind.FOREST, master.columns, res.weights)
    return _package_d_solution(
        g, cover, profile, Strategy.COLUMN_GENERATION, Optimality.UPPER_BOUND
    )


def optimize_decomposable_denominator(
    g: Graph,
    profile: LipschitzProfile,
    strategy: Strategy = Strategy.ENUMERATED_LP,
) -> CoverSolution:
    """Minimize the weighted forest-cover cost; the objective is the squared optimum.

    ENUMERATED_LP is exact; COLUMN_GENERATION and GREEDY return certified
    upper bounds.  Every result is capped by the independent-cover route
    (which can never beat it when the LP is exact, and improves the
    heuristics when it can be computed).
    """
    graphmod.check_profile_length(len(profile), g.n)
    return _optimize_decomposable(g, profile, strategy, lambda: fractional_chromatic_number(g))


def _check_float_costs(g: Graph, profile: LipschitzProfile) -> None:
    """FloatRangeError unless floats hold every part cost and cover objective the search can meet.

    No part's radicand exceeds R = sum over edges of (c_u + c_v)^2 plus sum of
    c_v^2, and a cover's weights sum to at most n, so its squared cost is at
    most n^2 R.
    """
    edges = sum(((profile.coefficient(u) + profile.coefficient(v)) ** 2 for u, v in g.edges), _ZERO)
    if g.n * g.n * (edges + profile.norm_sq) > float_info.max:
        raise FloatRangeError("the profile is too large for float part costs; rescale it")


def _optimize_decomposable(
    g: Graph,
    profile: LipschitzProfile,
    strategy: Strategy,
    chi: Callable[[], CoverSolution],
) -> CoverSolution:
    """``optimize_decomposable_denominator``, with ``chi()`` supplying the χ_f witness.

    ``chi`` raises ScaleError when the independent sets are too many to
    enumerate; it is called once, after the decomposable LP or heuristic.
    """
    _check_float_costs(g, profile)
    if strategy is Strategy.ENUMERATED_LP:
        denom, scaled = _profile_scale(profile)
        columns, radicands = _walk_induced_forests(g, scaled)
        square_scale = denom * denom
        # the LP screens on float roots and reads exact ones only where it
        # prices exactly or builds a basis: about 100 of 25 000 columns at n = 16
        distinct, inverse = np.unique(radicands, return_inverse=True)
        # Python ints divide correctly rounded at any scale, int64 radicands or not
        screen = np.sqrt(np.array([r / square_scale for r in distinct.tolist()]))[inverse]
        costs = _RootsOnDemand(radicands, square_scale, SQRT_BITS)
        res = solve_min_cover_lp(g.n, columns, costs, square_scale << SQRT_BITS, screen)
        cover = _trim_to_exact_cover(g, CoverKind.FOREST, columns, res.weights)
        solution = _package_d_solution(
            g, cover, profile, Strategy.ENUMERATED_LP, Optimality.EXACT
        )
        upper = _janson_candidate(g, profile, chi)
        if upper is not None and solution.objective > upper.objective + 1e-9:
            raise VerificationError(
                "enumerated decomposable optimum exceeds the independent-cover bound"
            )
        return solution

    if strategy is Strategy.GREEDY:
        solution = _greedy_d_solution(g, profile)
    elif strategy is Strategy.COLUMN_GENERATION:
        solution = _column_generation_d(g, profile)
    else:
        raise InputError(f"unknown strategy {strategy!r}")
    upper = _janson_candidate(g, profile, chi)
    if upper is not None and upper.objective < solution.objective:
        solution = replace(upper, method=strategy)
    return solution


# ---------------------------------------------------------------------------
# JSON forms

def solution_to_json_dict(sol: CoverSolution) -> dict:
    return {
        "objective": sol.objective,
        "objective_exact": str(sol.objective_exact) if sol.objective_exact is not None else None,
        "objective_form": sol.objective_form,
        "method": sol.method.value,
        "optimality": sol.optimality.value,
        "cover": cover_to_json_dict(sol.cover),
    }


def cover_to_json_dict(cover: WeightedCover) -> dict:
    return {
        "kind": cover.kind.value,
        "parts": [{"s": sorted(s), "w": str(w)} for s, w in cover.parts],
    }


def cover_from_json_dict(data: dict) -> WeightedCover:
    try:
        kind = CoverKind(data["kind"])
        raw = data["parts"]
    except (KeyError, ValueError) as exc:
        raise InputError(f"cover JSON needs 'kind' and 'parts': {exc}") from exc
    parts = []
    for item in raw:
        try:
            parts.append((frozenset(int(v) for v in item["s"]), Fraction(item["w"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad cover part {item!r}: {exc}") from exc
    return make_cover(kind, parts)
