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

Part costs are square roots of rationals.  Roots of perfect squares are kept
exact; other roots enter the LP as 128-bit rational approximations, which is
far below the separation of distinct cover values at this scale, so basis
selection is unaffected.  Basic weights always come out exact, and the
squared objective is reconstructed exactly whenever the support radicands
share a square-free kernel (covering every rational-valued case).
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, sqrt
from typing import Callable, Iterable, Sequence

from . import graph as graphmod
from ._simplex import CoverLp, solve_min_cover_lp
from .errors import InputError, KindError, ScaleError, VerificationError
from .graph import Graph

_ZERO = Fraction(0)
_ONE = Fraction(1)

ENUMERATION_VERTEX_LIMIT = 25
DEFAULT_COLUMN_CAP = 200_000
SQRT_BITS = 128
_SQUAREFREE_LIMIT = 10**14


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

    @property
    def minimum(self) -> Fraction:
        return min(self.values)

    @property
    def is_degenerate(self) -> bool:
        return all(c == 0 for c in self.values)


def lipschitz_profile(values: Iterable) -> LipschitzProfile:
    converted = []
    for i, v in enumerate(values):
        c = v if isinstance(v, Fraction) else Fraction(v)
        if c < 0:
            raise InputError(f"Lipschitz coefficient {i + 1} is negative: {v}")
        converted.append(c)
    return LipschitzProfile(values=tuple(converted))


def uniform_profile(n: int, value=1) -> LipschitzProfile:
    return lipschitz_profile([value] * n)


# ---------------------------------------------------------------------------
# Weighted covers

class CoverKind(Enum):
    INDEPENDENT = "independent"
    FOREST = "forest"


@dataclass(frozen=True)
class WeightedCover:
    kind: CoverKind
    parts: tuple[tuple[frozenset[int], Fraction], ...]

    def coverage(self, n: int) -> list[Fraction]:
        cov = [_ZERO] * n
        for part, w in self.parts:
            for v in part:
                cov[v - 1] += w
        return cov

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


def validate_cover(g: Graph, cover: WeightedCover, tol: Fraction = _ZERO) -> list[CoverViolation]:
    """Check exact coverage and part kinds; violations are data, not errors."""
    out: list[CoverViolation] = []
    for part, w in cover.parts:
        if not part:
            out.append(CoverViolation("empty-part", "a part with no vertices carries weight"))
            continue
        if w < 0:
            out.append(CoverViolation("negative-weight", f"part {sorted(part)} has weight {w}"))
        if any(v < 1 or v > g.n for v in part):
            out.append(CoverViolation("kind", f"part {sorted(part)} has out-of-range vertices"))
            continue
        if cover.kind is CoverKind.INDEPENDENT:
            bad = [e for e in graphmod.edges_within(g, part)]
            if bad:
                out.append(
                    CoverViolation("kind", f"part {sorted(part)} is not independent (edge {bad[0]})")
                )
        elif not graphmod.is_acyclic_subset(g, part):
            out.append(CoverViolation("kind", f"part {sorted(part)} induces a cycle"))
    for v, cov in enumerate(cover.coverage(g.n), start=1):
        if abs(cov - 1) > tol:
            out.append(CoverViolation("coverage", f"vertex {v} has coverage {cov}, needs 1"))
    return out


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_independent_sets(g: Graph, cap: int = DEFAULT_COLUMN_CAP) -> list[frozenset[int]]:
    """All nonempty independent sets in lexicographic order."""
    _check_enumeration_scale(g)
    out: list[frozenset[int]] = []

    def extend(chosen: tuple[int, ...], candidates: list[int]) -> None:
        for idx, v in enumerate(candidates):
            new = chosen + (v,)
            sub = [w for w in candidates[idx + 1 :] if w not in g.neighbors(v)]
            out.append(frozenset(new))
            if len(out) > cap:
                raise ScaleError(f"more than {cap} independent sets; use column generation instead")
            extend(new, sub)

    extend((), list(g.vertices))
    return out


def enumerate_induced_forests(g: Graph, cap: int = DEFAULT_COLUMN_CAP) -> list[frozenset[int]]:
    """All nonempty vertex sets whose induced subgraph is acyclic, lexicographic."""
    _check_enumeration_scale(g)
    out: list[frozenset[int]] = []

    def find(parent: dict[int, int], x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def extend(chosen: frozenset[int], parent: dict[int, int], start: int) -> None:
        for v in range(start, g.n + 1):
            roots = set()
            cyclic = False
            for u in g.neighbors(v):
                if u in chosen:
                    r = find(parent, u)
                    if r in roots:
                        cyclic = True
                        break
                    roots.add(r)
            if cyclic:
                continue  # any superset keeps the cycle, but later vertices may not
            new_parent = dict(parent)
            new_parent[v] = v
            for r in roots:
                new_parent[r] = v
            new = chosen | {v}
            out.append(new)
            if len(out) > cap:
                raise ScaleError(
                    f"more than {cap} induced forests; use column generation instead"
                )
            extend(new, new_parent, v + 1)

    extend(frozenset(), {}, 1)
    return out


def _check_enumeration_scale(g: Graph) -> None:
    if g.n > ENUMERATION_VERTEX_LIMIT:
        raise ScaleError(
            f"enumeration supports n <= {ENUMERATION_VERTEX_LIMIT}, got n = {g.n};"
            " use column generation instead"
        )


# ---------------------------------------------------------------------------
# Part costs

def part_cost_radicand(g: Graph, part: frozenset[int] | set[int], profile: LipschitzProfile) -> Fraction:
    """Exact value under the square root of the forest-part cost."""
    if not graphmod.is_acyclic_subset(g, part):
        raise KindError(f"part {sorted(part)} induces a cycle; forest parts must be acyclic")
    total = _ZERO
    for u, v in graphmod.edges_within(g, part):
        s = profile.coefficient(u) + profile.coefficient(v)
        total += s * s
    for tree in graphmod.components_within(g, part):
        m = min(profile.coefficient(v) for v in tree)
        total += m * m
    return total


def forest_part_cost(g: Graph, part: Iterable[int], profile: LipschitzProfile) -> float:
    """sqrt of edge-inflated coefficients plus one minimum per tree of G[part]."""
    return sqrt(part_cost_radicand(g, frozenset(part), profile))


def _sqrt_fraction(x: Fraction, bits: int = SQRT_BITS) -> Fraction:
    """Exact square root when x is a perfect square, else a 2^-bits approximation."""
    if x < 0:
        raise InputError(f"square root of negative value {x}")
    if x == 0:
        return _ZERO
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    r = isqrt((num * den) << (2 * bits))
    return Fraction(r, den << bits)


def _squarefree_split(m: int) -> tuple[int, int] | None:
    """m = s^2 * d with d square-free, by trial division; None when m is too big."""
    if m > _SQUAREFREE_LIMIT:
        return None
    s, d, f = 1, 1, 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * m


def squared_objective_exact(parts: Sequence[tuple[Fraction, Fraction]]) -> Fraction | None:
    """Exact (sum_k w_k sqrt(r_k))^2 when all support radicands share a kernel.

    Each radicand a/b contributes sqrt(a*b)/b; if every a*b has the same
    square-free part d, the sum is sqrt(d) times a rational and its square is
    exact.  Returns None when radicands mix incompatible kernels.
    """
    kernel: int | None = None
    rational_sum = _ZERO
    for w, r in parts:
        if w == 0 or r == 0:
            continue
        split = _squarefree_split(r.numerator * r.denominator)
        if split is None:
            return None
        s, d = split
        if kernel is None:
            kernel = d
        elif kernel != d:
            return None
        rational_sum += w * Fraction(s, r.denominator)
    if kernel is None:
        return _ZERO
    return kernel * rational_sum * rational_sum


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
    g: Graph, kind: CoverKind, weights: dict[frozenset[int], Fraction]
) -> WeightedCover:
    """Shrink a >=1 fractional cover to an exact one by dropping surplus coverage."""
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


def _solve_unit_cover(g: Graph, kind: CoverKind, cap: int) -> CoverSolution:
    if kind is CoverKind.INDEPENDENT:
        columns = enumerate_independent_sets(g, cap=cap)
    else:
        columns = enumerate_induced_forests(g, cap=cap)
    res = solve_min_cover_lp(g.n, columns, [_ONE] * len(columns))
    weights: dict[frozenset[int], Fraction] = {}
    for j, w in res.weights.items():
        weights[columns[j]] = weights.get(columns[j], _ZERO) + w
    cover = _trim_to_exact_cover(g, kind, weights)
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


def fractional_chromatic_number(g: Graph, cap: int = DEFAULT_COLUMN_CAP) -> CoverSolution:
    """Minimum total weight of an exact fractional cover by independent sets."""
    return _solve_unit_cover(g, CoverKind.INDEPENDENT, cap)


def fractional_vertex_arboricity(g: Graph, cap: int = DEFAULT_COLUMN_CAP) -> CoverSolution:
    """Minimum total weight of an exact fractional cover by forest-inducing sets."""
    return _solve_unit_cover(g, CoverKind.FOREST, cap)


def _cover_cost_parts(
    g: Graph, cover: WeightedCover, profile: LipschitzProfile
) -> list[tuple[Fraction, Fraction]]:
    return [(w, part_cost_radicand(g, s, profile)) for s, w in cover.parts]


def cover_weighted_cost(g: Graph, cover: WeightedCover, profile: LipschitzProfile) -> float:
    """Recompute sum_k w_k * cost(F_k) for a forest cover, in floating point."""
    return sum(float(w) * sqrt(r) for w, r in _cover_cost_parts(g, cover, profile))


def _package_d_solution(
    g: Graph,
    cover: WeightedCover,
    profile: LipschitzProfile,
    method: Strategy,
    optimality: Optimality,
) -> CoverSolution:
    parts = _cover_cost_parts(g, cover, profile)
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


def _part_cost_float(g: Graph, part: frozenset[int], c: list[float]) -> float:
    """Float twin of the part cost, for heuristic search only."""
    total = 0.0
    for u, v in graphmod.edges_within(g, part):
        s = c[u - 1] + c[v - 1]
        total += s * s
    for tree in graphmod.components_within(g, part):
        m = min(c[v - 1] for v in tree)
        total += m * m
    return sqrt(total)


def _price_forest_column(
    g: Graph,
    profile: LipschitzProfile,
    duals: Sequence[Fraction],
    size_limit: int = 3,
    cost_cache: dict[frozenset[int], float] | None = None,
) -> frozenset[int] | None:
    """Heuristic pricing: a forest part with negative reduced cost, or None.

    Exhausts all parts up to ``size_limit`` vertices, then runs add/drop local
    search from the best seeds.  Finding the true minimizer is itself hard, so
    a None here does not certify optimality (results stay labeled as bounds).
    """
    y = [float(d) for d in duals]
    c = [float(x) for x in profile.values]
    cache = cost_cache if cost_cache is not None else {}

    def reduced(part: frozenset[int]) -> float:
        cost = cache.get(part)
        if cost is None:
            cost = cache[part] = _part_cost_float(g, part, c)
        return cost - sum(y[v - 1] for v in part)

    best: dict[frozenset[int], float] = {}
    verts = list(g.vertices)
    for size in range(1, min(size_limit, g.n) + 1):
        for combo in itertools.combinations(verts, size):
            part = frozenset(combo)
            if part in cache or graphmod.is_acyclic_subset(g, part):
                best[part] = reduced(part)
    seeds = sorted(best, key=lambda p: best[p])[:3]
    for seed in seeds:
        current, value = seed, best[seed]
        improved = True
        while improved:
            improved = False
            for v in g.vertices:
                if v in current:
                    cand = current - {v}
                    if not cand:
                        continue
                else:
                    cand = current | {v}
                    if not graphmod.is_acyclic_subset(g, cand):
                        continue
                r = reduced(cand)
                if r < value - 1e-12:
                    current, value, improved = cand, r, True
            best[current] = value
    winner = min(best, key=lambda p: best[p])
    return winner if best[winner] < -1e-9 else None


def _column_generation_d(
    g: Graph, profile: LipschitzProfile, max_rounds: int = 30
) -> CoverSolution:
    # The master runs on coarser (48-bit) cost approximations: precision only
    # steers which cover the heuristic lands on, never the reported value,
    # which is recomputed exactly from the returned cover.  The basis is kept
    # warm across rounds, so each new column costs a handful of pivots.
    bits = 48
    pool: list[frozenset[int]] = [frozenset({v}) for v in g.vertices]
    for cls in greedy_forest_partition(g):
        if cls not in pool:
            pool.append(cls)
    master = CoverLp(
        g.n, pool, [_sqrt_fraction(part_cost_radicand(g, p, profile), bits) for p in pool]
    )
    res = master.solve()
    cost_cache: dict[frozenset[int], float] = {}
    for _ in range(max_rounds):
        new_col = _price_forest_column(g, profile, res.duals, cost_cache=cost_cache)
        if new_col is None or new_col in pool:
            break
        pool.append(new_col)
        master.add_column(new_col, _sqrt_fraction(part_cost_radicand(g, new_col, profile), bits))
        res = master.solve()
    weights: dict[frozenset[int], Fraction] = {}
    for j, w in res.weights.items():
        weights[pool[j]] = weights.get(pool[j], _ZERO) + w
    cover = _trim_to_exact_cover(g, CoverKind.FOREST, weights)
    return _package_d_solution(
        g, cover, profile, Strategy.COLUMN_GENERATION, Optimality.UPPER_BOUND
    )


def optimize_decomposable_denominator(
    g: Graph,
    profile: LipschitzProfile,
    strategy: Strategy = Strategy.ENUMERATED_LP,
    cap: int = DEFAULT_COLUMN_CAP,
) -> CoverSolution:
    """Minimize the weighted forest-cover cost; the objective is the squared optimum.

    ENUMERATED_LP is exact; COLUMN_GENERATION and GREEDY return certified
    upper bounds.  Every result is capped by the independent-cover route
    (which can never beat it when the LP is exact, and improves the
    heuristics when it can be computed).
    """
    if len(profile) != g.n:
        raise InputError(f"profile length {len(profile)} != vertex count {g.n}")
    return _optimize_decomposable(
        g, profile, strategy, cap, lambda: fractional_chromatic_number(g, cap=cap)
    )


def _optimize_decomposable(
    g: Graph,
    profile: LipschitzProfile,
    strategy: Strategy,
    cap: int,
    chi: Callable[[], CoverSolution],
) -> CoverSolution:
    """``optimize_decomposable_denominator``, with ``chi()`` supplying the χ_f witness.

    ``chi`` raises ScaleError when the independent sets are too many to
    enumerate; it is called once, after the decomposable LP or heuristic.
    """
    if strategy is Strategy.ENUMERATED_LP:
        columns = enumerate_induced_forests(g, cap=cap)
        costs = [_sqrt_fraction(part_cost_radicand(g, p, profile)) for p in columns]
        res = solve_min_cover_lp(g.n, columns, costs)
        weights: dict[frozenset[int], Fraction] = {}
        for j, w in res.weights.items():
            weights[columns[j]] = weights.get(columns[j], _ZERO) + w
        cover = _trim_to_exact_cover(g, CoverKind.FOREST, weights)
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
        solution = _package_d_solution(
            g, upper.cover, profile, strategy, Optimality.UPPER_BOUND
        )
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
