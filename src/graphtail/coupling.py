"""Exact finite-probability engine for tree-dependent joints and their couplings.

Everything here is an exhaustive finite sum: a joint's law is one dense
integer table with one axis per coordinate and one ``scale``, so that
P(x) = weights[idx(x)] / scale.  Every check is integer array arithmetic on
that table, and every lemma-style statement becomes a deviation that must be
exactly zero, so no check needs a tolerance.  The module refuses instances
beyond its caps rather than subsampling; its whole value is exactness.

The table is int64 while 2·scale² fits (``_simplex.int_dtype``) and Python
ints (``dtype=object``) otherwise, on one code path.  Each check states the
bound that keeps its int64 intermediates within 2·scale², except the
difference bound, whose moments and cross products carry f's range too and
are widened by bounds read from the values.  The one quantity that reaches
scale³, a nonzero marginal gap of the coupling sweep, is computed in Python
ints.  A value leaves an int64 table through ``int()`` or ``.tolist()``, so
no numpy scalar enters a Fraction.  Vertex sets are ``column_mask`` bitmasks.

Coordinate conventions: a joint's coordinates are the vertex labels 1..n of
its dependency graph.  Coupling-related operations re-express the joint in
the relabeled order of a rooted ``OrderedTree`` (descendants before
ancestors, root last); contexts such as ``(i, prefix, a, b)`` always refer to
that relabeled order.  ``relabel_joint`` exposes the permutation.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._simplex import column_mask, int_dtype, members, widen
from .covers import LipschitzProfile, lipschitz_profile, uniform_profile
from .errors import InputError, KindError, ScaleError
from .graph import Graph, OrderedTree, check_profile_length, check_vertex, rooted_order

MAX_COORDINATES = 8
MAX_ALPHABET = 6
MAX_LATENT_CONFIGS = 10**6
_CELL_CAP = 2**17  # the largest intermediate of one coupling-sweep call, in table cells

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Joints

@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """Exact joint distribution of a random vector over a finite product space.

    P(x) = weights[idx(x)] / scale, idx(x) being x's positions in ``spaces``.
    """

    spaces: tuple[tuple, ...]
    weights: np.ndarray
    scale: int
    dependency: Graph | None = None

    @property
    def n(self) -> int:
        return len(self.spaces)

    @property
    def pmf(self) -> Mapping[tuple, Fraction]:
        """P(x) at each positive point x, read from ``weights`` on each access."""
        points = zip(itertools.product(*self.spaces), self.weights.ravel().tolist())
        return MappingProxyType({x: Fraction(w, self.scale) for x, w in points if w})


def _exact(p, where: tuple) -> int | Fraction:
    """p itself, once it is an int or a Fraction: a probability must be exact."""
    if not isinstance(p, (int, Fraction)):
        raise InputError(f"probability {p!r} at {where!r} is not an int or Fraction")
    return p


def _sorted_alphabets(spaces: Iterable[Iterable]) -> tuple[tuple, ...]:
    try:
        return tuple(tuple(sorted(set(s))) for s in spaces)
    except TypeError as exc:
        raise InputError(f"alphabet values must be hashable and mutually ordered: {exc}") from exc


def check_coordinates(n: int) -> None:
    """Refuse (``ScaleError``) a joint of more than ``MAX_COORDINATES`` coordinates."""
    if n > MAX_COORDINATES:
        raise ScaleError(f"exhaustive verification supports n <= {MAX_COORDINATES}, got {n}")


def _check_vertex_count(vertices: int, n: int) -> None:
    """The one rule for a graph or tree declared over a joint: one vertex per coordinate."""
    if vertices != n:
        raise InputError(f"graph has {vertices} vertices, joint has {n}")


def _check_step(n: int, i: int) -> None:
    """The one rule for a substitution step: coordinate i in 1..n-1 (the root, n, is none)."""
    if not 1 <= i <= n - 1:
        raise InputError(f"coordinate i must be in 1..{n - 1}, got {i}")


def _capped(spaces: tuple[tuple, ...]) -> tuple[tuple, ...]:
    check_coordinates(len(spaces))
    for k, s in enumerate(spaces, start=1):
        if not s:
            raise InputError(f"alphabet of coordinate {k} is empty")
        if len(s) > MAX_ALPHABET:
            raise ScaleError(f"alphabet of coordinate {k} has {len(s)} symbols; cap is {MAX_ALPHABET}")
    return spaces


def finite_joint(
    spaces: Sequence[Sequence],
    pmf: Mapping[tuple, object],
    dependency: Graph | None = None,
) -> FiniteJoint:
    """The joint of an explicit pmf, read in one pass over its points.

    One dict lookup per coordinate gives a value's membership and its share
    of the point's flat table index; the scale is the lcm of the distinct
    denominators, and the masses go into the table in one scatter.
    """
    spaces_t = _capped(_sorted_alphabets(spaces))
    n = len(spaces_t)
    strides = [math.prod(map(len, spaces_t[k + 1 :])) for k in range(n)]
    offsets = [{v: k * stride for k, v in enumerate(s)} for s, stride in zip(spaces_t, strides)]
    flat, probs = [], []
    for x, p in pmf.items():
        if len(x) != n:
            raise InputError(f"assignment {x!r} has wrong arity")
        try:
            at = sum(map(dict.__getitem__, offsets, x))
        except KeyError:  # not a symbol of its alphabet
            k, xi = next((k, xi) for k, (xi, s) in enumerate(zip(x, spaces_t), 1) if xi not in s)
            raise InputError(f"value {xi!r} of coordinate {k} outside its alphabet") from None
        if _exact(p, x) < 0:
            raise InputError(f"negative probability {p} at {x!r}")
        if p:
            flat.append(at)
            probs.append(p)
    scale = math.lcm(*{p.denominator for p in probs})
    masses = [p.numerator * (scale // p.denominator) for p in probs]
    if sum(masses) != scale:  # the probabilities do not sum to 1
        raise InputError(f"probabilities sum to {Fraction(sum(masses), scale)}, need exactly 1")
    if dependency is not None:
        _check_vertex_count(dependency.n, n)
    dtype = int_dtype(2 * scale * scale)
    weights = np.zeros(tuple(map(len, spaces_t)), dtype=dtype)
    weights.flat[flat] = np.array(masses, dtype=dtype)
    return FiniteJoint(spaces=spaces_t, weights=weights, scale=scale, dependency=dependency)


# ---------------------------------------------------------------------------
# Latent-tree construction of dependent joints

@dataclass(frozen=True)
class LatentTreeSpec:
    """Generative model whose output is dependent exactly along a tree.

    Each vertex emits a symbol from its own latent plus the latents of its
    incident edges, so two vertex sets sharing no edge see disjoint latents
    and are independent by construction.  ``emit[v]`` is called per point
    as (own latent value, {edge: value}); an emit that also has
    ``over(supports)``, its values at every point of the product of the
    supports it reads (its own latent's, then its edges' in ``graph.edges``
    order) in one call, is read through that instead.
    """

    graph: Graph
    tree: OrderedTree
    vertex_latents: dict[int, tuple[tuple[object, Fraction], ...]]
    edge_latents: dict[tuple[int, int], tuple[tuple[object, Fraction], ...]]
    emit: dict[int, Callable[[object, dict[tuple[int, int], object]], object]]


def finite_dist(pairs: Iterable[tuple[object, object]]) -> tuple[tuple[object, Fraction], ...]:
    out = []
    total = _ZERO
    for v, p in pairs:
        q = Fraction(_exact(p, (v,)))
        if q < 0:
            raise InputError(f"negative latent probability {p}")
        if q:
            out.append((v, q))
            total += q
    if total != 1:
        raise InputError(f"latent probabilities sum to {total}, need 1")
    return tuple(out)


def latent_tree_spec(
    g: Graph,
    vertex_latents: Mapping[int, Iterable[tuple[object, object]]],
    edge_latents: Mapping[tuple[int, int], Iterable[tuple[object, object]]],
    emit: Mapping[int, Callable],
    profile: LipschitzProfile | None = None,
) -> LatentTreeSpec:
    prof = profile if profile is not None else uniform_profile(g.n)
    tree = rooted_order(g, prof.values)  # KindError unless g is a single tree
    for v in vertex_latents:
        check_vertex(v, g.n, "vertex latent for vertex")
    try:
        vl = {v: finite_dist(vertex_latents[v]) for v in g.vertices}
    except KeyError as exc:
        raise InputError(f"no vertex latent for vertex {exc}") from exc
    normalized_edges = {}
    for (a, b), dist in edge_latents.items():
        edge = (a, b) if a < b else (b, a)
        if edge not in g.edges:
            raise InputError(f"edge latent for {a}-{b}, which is not an edge of the tree")
        if edge in normalized_edges:
            raise InputError(f"edge latent for {a}-{b} repeats edge {edge[0]}-{edge[1]}")
        normalized_edges[edge] = dist
    el = {}
    for edge in g.edges:
        if edge not in normalized_edges:
            raise InputError(f"no edge latent for edge {edge}")
        el[edge] = finite_dist(normalized_edges[edge])
    try:
        em = {v: emit[v] for v in g.vertices}
    except KeyError as exc:
        raise InputError(f"no emit rule for vertex {exc}") from exc
    return LatentTreeSpec(graph=g, tree=tree, vertex_latents=vl, edge_latents=el, emit=em)


def build_tree_joint(spec: LatentTreeSpec) -> FiniteJoint:
    """Exact law of the emitted vector, with the latents summed out by ``_latent_joint``."""
    g = spec.graph
    latents = [((v,), spec.vertex_latents[v]) for v in g.vertices]
    latents += [(e, spec.edge_latents[e]) for e in g.edges]

    def reader(v):
        emit = spec.emit[v]
        if hasattr(emit, "over"):  # the emit reads a product of supports in one call itself
            return emit.over
        incident = [e for e in g.edges if v in e]
        return lambda supports: [
            emit(x[0], dict(zip(incident, x[1:]))) for x in itertools.product(*supports)
        ]

    return _latent_joint(g.n, latents, [reader(v) for v in g.vertices], g)


def _latent_joint(n: int, latents: Sequence, emit: Sequence[Callable], dependency) -> FiniteJoint:
    """Exact joint of X_v = emit[v-1] at the values of the latents covering v.

    ``latents`` holds (scope, support) pairs of independent latents.
    ``emit[v-1]`` takes the value tuples of the supports covering v, in list
    order, and returns X_v at each point of their product, in
    ``itertools.product`` order.  Vertices are visited in label order,
    keeping each reachable state (emitted prefix, values of the latents a
    later vertex reads) with its integer mass: a latent joins at the first
    vertex of its scope and is summed out after its last.  The work at a
    vertex, its states times the supports joining there, is capped by
    ``MAX_LATENT_CONFIGS`` (``ScaleError``).  Zero-mass states are kept, so
    alphabets hold every value emitted.  The scale, the product of the
    latents' lcm denominators, is known before any latent joins, so the
    masses take the table's dtype from the start; each is at most the scale.
    """
    check_coordinates(n)
    dens = [math.lcm(*(q.denominator for _, q in support)) for _, support in latents]
    scale = math.prod(dens)
    dtype = int_dtype(2 * scale * scale)
    live: list[int] = []  # the latents in the state, in the order of its trailing digits
    # each state as one mixed-radix code: emitted prefix positions, then live latent values
    codes, mass, spaces = np.zeros(1, dtype=np.int64), np.ones(1, dtype=dtype), []
    for v in range(1, n + 1):
        joining = [k for k, (scope, _) in enumerate(latents) if min(scope) == v]
        work = len(codes) * math.prod(len(latents[k][1]) for k in joining)
        if work > MAX_LATENT_CONFIGS:
            raise ScaleError(f"{work} latent states at vertex {v} exceed cap {MAX_LATENT_CONFIGS}")
        for k in joining:
            weights = np.array([int(q * dens[k]) for _, q in latents[k][1]], dtype=dtype)
            codes = (codes[:, None] * len(weights) + np.arange(len(weights))).ravel()
            mass = np.multiply.outer(mass, weights).ravel()
        order = live + joining
        supports = [len(latents[k][1]) for k in order]
        sizes = [*map(len, spaces), *supports]
        digits = np.unravel_index(codes, sizes) if sizes else ()
        held = digits[v - 1 :]  # the live latents' values, in the order of ``order``
        reads = [order.index(k) for k, (scope, _) in enumerate(latents) if v in scope]
        kept = [pos for pos, k in enumerate(order) if max(latents[k][0]) > v]
        # the value emitted at each combination of the latents read, in one emit call
        shape = [supports[pos] for pos in reads]
        values = emit[v - 1]([tuple(u for u, _ in latents[order[pos]][1]) for pos in reads])
        spaces.append(_sorted_alphabets([values])[0])
        _capped(tuple(spaces))  # keeps the codes within int64
        position = {value: u for u, value in enumerate(spaces[-1])}
        emitted = np.array([position[value] for value in values]).reshape(shape)
        x = np.broadcast_to(emitted[tuple(held[pos] for pos in reads)], len(codes))
        # states agreeing on (emitted prefix, kept latents) merge into one
        merged = [*digits[: v - 1], x, *(held[pos] for pos in kept)]
        radices = [*map(len, spaces), *(supports[pos] for pos in kept)]
        codes, which = np.unique(np.ravel_multi_index(merged, radices), return_inverse=True)
        mass, summands = np.zeros(len(codes), dtype=dtype), mass
        np.add.at(mass, which.reshape(-1), summands)
        live = [order[pos] for pos in kept]
    weights = np.zeros(tuple(map(len, spaces)), dtype=dtype)
    weights.flat[codes] = mass  # every latent is summed out: a code is a flat table index
    return FiniteJoint(tuple(spaces), weights, scale, dependency)


# ---------------------------------------------------------------------------
# Dependency verification

@dataclass(frozen=True)
class DependencyReport:
    deviation: Fraction
    worst_pair: tuple[frozenset[int], frozenset[int]] | None

    def ok(self) -> bool:
        return self.deviation == 0


class DependencyViolation(KindError):
    """A joint is not dependent along its declared graph; carries the report."""

    def __init__(self, report: DependencyReport):
        self.report = report
        super().__init__(
            "joint is not dependent along its declared tree"
            f" (deviation {report.deviation} on pair {report.worst_pair})"
        )


def verify_dependency(joint: FiniteJoint, g: Graph) -> DependencyReport:
    """Largest total-variation gap over disjoint non-adjacent vertex-set pairs.

    Compares the joint law on S and T against the product of their marginals;
    a declared dependency graph is honest iff the worst gap is zero.  With
    scale S, the summed gap Σ|S·w(s,t) − w(s)·w(t)| is at most 2S², twice a
    total variation, and it is symmetric in S and T.

    Only doubly maximal pairs are computed: S = V∖N[T] and T = V∖N[S], each
    unordered pair once.  Marginalising out part of either side cannot
    increase the gap, so for any S the pair (S, V∖N[S]) is the worst with S
    on one side: every T' disjoint from and non-adjacent to S lies inside
    V∖N[S].  With T = V∖N[S], the set S* = V∖N[T] contains S and has
    V∖N[S*] = T, so gap(S, T) <= gap(S*, T), and the worst gap over all
    pairs is the worst over the doubly maximal ones.  The reported pair is
    the first (S, V∖N[S]) in ``combinations`` order that reaches the worst
    gap; only an S whose doubly maximal pair reaches it can, so that search
    computes a gap only for those.  Each marginal is summed from the
    smallest one already computed that covers it, and all are kept until
    the check returns.
    """
    _check_vertex_count(g.n, joint.n)
    weights, scale, n = joint.weights, joint.scale, joint.n
    full = column_mask(range(1, n + 1))  # bit v for vertex v, so every vertex-set mask is even
    near = [0] + [column_mask({v, *g.neighbors(v)}) for v in range(1, n + 1)]
    closed = [0] * (full + 1)  # closed[mask] = N[mask], from mask without its lowest vertex
    for mask in range(2, full + 1, 2):
        closed[mask] = closed[mask & (mask - 1)] | near[(mask & -mask).bit_length() - 1]

    def pair_of(s: int) -> tuple[int, int, tuple[int, int]]:
        """(S*, T, the unordered doubly maximal pair) for T = V∖N[S]; T is 0 when N[S] = V."""
        t = full & ~closed[s]
        s_star = full & ~closed[t]
        return s_star, t, (min(s_star, t), max(s_star, t))

    laws = {full: weights}  # the marginal on each vertex set, other axes kept with length 1

    def law(keep: int) -> np.ndarray:
        """The marginal on ``keep``, summed from the smallest one held that covers it."""
        if keep not in laws:
            cover = min((k for k in laws if k & keep == keep), key=lambda k: laws[k].size)
            laws[keep] = laws[cover].sum(axis=tuple(v - 1 for v in members(cover & ~keep)), keepdims=True)
        return laws[keep]

    def gap(s: int, t: int) -> int:
        return int(abs(scale * law(s | t) - law(s) * law(t)).sum())

    gaps = {}
    for s in range(2, full, 2):
        s_star, t, pair = pair_of(s)
        if t and pair not in gaps:
            gaps[pair] = gap(s_star, t)
    worst = max(gaps.values(), default=0)
    worst_pair = None
    if worst:
        subsets = (c for r in range(1, n) for c in itertools.combinations(range(1, n + 1), r))
        for s in subsets:
            mask = column_mask(s)
            s_star, t, pair = pair_of(mask)
            if t and gaps[pair] == worst and (mask == s_star or gap(mask, t) == worst):
                worst_pair = (frozenset(s), frozenset(members(t)))
                break
    return DependencyReport(deviation=Fraction(worst, 2 * scale * scale), worst_pair=worst_pair)


def _require_dependent(joint: FiniteJoint) -> None:
    """Raise ``DependencyViolation`` unless the joint honours its declared graph."""
    if joint.dependency is None:
        raise InputError("joint declares no dependency graph to verify against")
    report = verify_dependency(joint, joint.dependency)
    if not report.ok():
        raise DependencyViolation(report)


# ---------------------------------------------------------------------------
# Lipschitz functions

@dataclass(frozen=True, eq=False)
class LipschitzFunction:
    """A function on the product space with an exhaustively validated profile.

    f(x) = table[idx(x)] / scale, with ``table`` an integer array on the axes
    of a ``FiniteJoint`` over the same ``spaces``.
    """

    spaces: tuple[tuple, ...]
    table: np.ndarray
    scale: int
    profile: LipschitzProfile

    def value(self, x: tuple) -> Fraction:
        return Fraction(self.table[tuple(s.index(v) for s, v in zip(self.spaces, x))], self.scale)


def _spreads(table: np.ndarray, scale: int) -> tuple[Fraction, ...]:
    """Per coordinate, the largest change of f when that coordinate alone moves."""
    return tuple(
        Fraction(int(np.max(table.max(axis=k) - table.min(axis=k), initial=0)), scale)
        for k in range(table.ndim)
    )


def check_lipschitz(f: LipschitzFunction) -> None:
    """Exhaustive validation of ``f``'s declared profile against its spreads.

    Pairs differing in one coordinate bound every pair by the triangle
    inequality along a coordinate-by-coordinate path, so the Hamming-weighted
    condition holds for all pairs iff it holds here.  Raises naming the first
    violating pair.
    """
    for i, (spread, ci) in enumerate(zip(_spreads(f.table, f.scale), f.profile.values)):
        if spread <= ci:
            continue
        for x in itertools.product(*f.spaces):
            for y in (x[:i] + (alt,) + x[i + 1 :] for alt in f.spaces[i] if alt > x[i]):
                if (gap := abs(f.value(x) - f.value(y))) > ci:
                    raise InputError(
                        f"not {ci}-Lipschitz in coordinate {i + 1}: |f{x} - f{y}| = {gap}"
                    )


def lipschitz_function(
    spaces: Sequence[Sequence],
    fn: Callable[[tuple], object] | Mapping[tuple, object],
    profile: LipschitzProfile | Sequence | None = None,
) -> LipschitzFunction:
    """Build a function with a validated profile (derived tight when omitted)."""
    spaces_t = _capped(_sorted_alphabets(spaces))
    if not callable(fn):
        given = {tuple(k): v for k, v in fn.items()}
        for x in itertools.product(*spaces_t):
            if x not in given:
                raise InputError(f"function table is missing assignment {x!r}")
        fn = given.__getitem__
    values = [fn(x) for x in itertools.product(*spaces_t)]
    exact = {q: Fraction(q) for q in set(values)}  # each distinct value converted once
    scale = math.lcm(*(q.denominator for q in exact.values()))
    scaled = {q: int(e * scale) for q, e in exact.items()}
    table = np.array([scaled[q] for q in values], dtype=object).reshape(tuple(map(len, spaces_t)))
    if profile is None:
        return LipschitzFunction(spaces_t, table, scale, LipschitzProfile(_spreads(table, scale)))
    prof = profile if isinstance(profile, LipschitzProfile) else lipschitz_profile(profile)
    check_profile_length(len(prof), len(spaces_t))
    f = LipschitzFunction(spaces_t, table, scale, prof)
    check_lipschitz(f)
    return f


def coordinate_sum(spaces: Sequence[Sequence]) -> LipschitzFunction:
    """f(x) = sum of coordinates, with the tight derived profile.

    The table is one broadcast sum of the alphabets over their common
    denominator, reduced to lowest terms, and stays Python ints.  Coordinate
    k moves f by at most its alphabet's max - min, and by exactly that.
    """
    spaces_t = _capped(_sorted_alphabets(spaces))
    # int and Fraction symbols are exact as they are, others become Fractions
    exact = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in s] for s in spaces_t]
    den = math.lcm(*(v.denominator for s in exact for v in s))
    scaled = [[v.numerator * (den // v.denominator) for v in s] for s in exact]
    # every sum is the sum of the least symbols plus one offset from each
    base = sum(s[0] for s in scaled)
    g = math.gcd(den, base, *(v - s[0] for s in scaled for v in s))
    offsets = (np.array([(v - s[0]) // g for v in s], dtype=object) for s in scaled)
    table = functools.reduce(np.add.outer, offsets, np.array(base // g, dtype=object))
    spreads = LipschitzProfile(tuple(Fraction(s[-1] - s[0], den) for s in scaled))
    return LipschitzFunction(spaces_t, table, den // g, spreads)


def _table_on(joint: FiniteJoint, f: LipschitzFunction) -> np.ndarray:
    if f.spaces != joint.spaces:
        raise InputError("the function and the joint have different alphabets")
    return f.table


def exact_mean(joint: FiniteJoint, f: LipschitzFunction) -> Fraction:
    return Fraction(int((joint.weights * _table_on(joint, f)).sum()), joint.scale * f.scale)


def exact_tail(joint: FiniteJoint, f: LipschitzFunction, t) -> Fraction:
    """P(f - E f >= t), exactly; the summed mass is at most the scale."""
    threshold = (exact_mean(joint, f) + Fraction(t)) * f.scale
    return Fraction(int(joint.weights[_table_on(joint, f) >= threshold].sum()), joint.scale)


# ---------------------------------------------------------------------------
# Relabeling to the rooted order

def relabel_joint(joint: FiniteJoint, tree: OrderedTree) -> FiniteJoint:
    """The same distribution with coordinate k = relabeled vertex k of the tree, no graph declared."""
    _check_vertex_count(tree.size, joint.n)
    perm = [tree.original(k) - 1 for k in range(1, joint.n + 1)]
    spaces = tuple(joint.spaces[p] for p in perm)
    return FiniteJoint(spaces, joint.weights.transpose(perm), joint.scale)


def coupling_effective_profile(tree: OrderedTree, profile: LipschitzProfile) -> tuple[Fraction, ...]:
    """Per-step conditional-difference bounds in relabeled order.

    Step i < size is bounded by c_i + c_{parent(i)}; the root step (exposed
    last) is bounded by its own coefficient, the tree minimum.
    """
    check_profile_length(len(profile), tree.size)
    c = [profile.coefficient(v) for v in tree.order]  # c[i - 1] for relabeled vertex i
    return tuple(ci + c[par - 1] if par else ci for ci, par in zip(c, tree.parent))


# ---------------------------------------------------------------------------
# The coupling construction
#
# For a value pair (a, b) at step i, A and B are the step table's slices at a
# and b over some prefix rows; the conditional laws are A / hA and B / hB, and
# WA / hA and WB / hB those of the copied coordinates (all but the parent).

@dataclass(frozen=True)
class CouplingContext:
    i: int
    prefix: tuple
    lhs_value: object  # substituted value on the Y side
    rhs_value: object  # substituted value on the Z side


@dataclass(frozen=True)
class CouplingPair:
    """Explicit joint pmf of (Y, Z) in relabeled coordinates.

    Y's first i coordinates equal (prefix, lhs_value); Z's equal
    (prefix, rhs_value); Z copies Y verbatim outside {i, parent(i)}, and
    Z's parent coordinate is redrawn from its conditional law given the
    copied coordinates under the rhs prefix.
    """

    spaces: tuple[tuple, ...]
    pmf: dict[tuple[tuple, tuple], Fraction]
    context: CouplingContext


def _step_table(weights: np.ndarray, i: int, parent: int) -> np.ndarray:
    """The relabeled table as (prefix row, x_i, copied coordinates, parent coordinate)."""
    copied = [k for k in range(i, weights.ndim) if k != parent - 1]
    t = weights.transpose(list(range(i)) + copied + [parent - 1])
    return t.reshape(-1, t.shape[i - 1], math.prod(t.shape[i:-1]), t.shape[-1])


def _pair_laws(t: np.ndarray, rows, a, b) -> tuple:
    """(A, B, WA, WB, hA, hB) of the contexts (rows[k], a[k], b[k]), one per leading row."""
    lhs, rhs = t[rows, a], t[rows, b]
    w_lhs, w_rhs = lhs.sum(axis=-1), rhs.sum(axis=-1)
    return lhs, rhs, w_lhs, w_rhs, w_lhs.sum(axis=-1), w_rhs.sum(axis=-1)


def _maximal_couplings(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximal couplings of the laws on the last axis of p and q, batched over the others.

    Each pair of laws has equal totals.  Shared mass sits on the diagonal; the
    leftovers are matched in value order by the north-west-corner rule: value
    y of p sends to value z of q the overlap of their intervals of cumulative
    leftover mass.  Equal inputs couple to the identity.  Every mass and
    cumulative sum stays within the laws' common total.
    """
    shared = np.minimum(p, q)
    left_p, left_q = p - shared, q - shared
    top_p, top_q = np.cumsum(left_p, axis=-1), np.cumsum(left_q, axis=-1)
    low = np.maximum((top_p - left_p)[..., :, None], (top_q - left_q)[..., None, :])
    out = np.minimum(top_p[..., :, None], top_q[..., None, :])
    out -= low
    np.maximum(out, 0, out=out)
    diagonal = np.arange(p.shape[-1])
    out[..., diagonal, diagonal] += shared
    return out


def _couple(lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs) -> np.ndarray:
    """The coupling of ``build_coupling`` per prefix row: masses C, pair mass C / (hA * WB).

    The copied coordinates keep the lhs law; given them, the Z side's parent
    coordinate is redrawn with its rhs conditional law, coupled maximally to
    the Y side.  Both parent laws are cross-multiplied to denominator WA * WB:
    with scale S, lhs * WB and its cumulative sums stay within WA * WB <= S².
    """
    if ((w_lhs != 0) & (w_rhs == 0)).any():
        raise KindError(
            "coupling context unreachable: the copied coordinates have zero"
            " probability under the substituted prefix, so the joint is not"
            " tree-dependent for this tree"
        )
    return _maximal_couplings(lhs * w_rhs[..., None], rhs * w_lhs[..., None])


def _worst_tv(num, den, target, tden) -> Fraction:
    """Largest total variation, over the leading axis, between num / den and target / tden.

    Each law lives on the last two axes; ``den`` may vary along all but the
    last, ``tden`` along the leading one only.  Integer-only when no gap is.
    Computes in Python ints: the cross products reach scale³.
    """
    num, den, target, tden = (np.asarray(a).astype(object) for a in (num, den, target, tden))
    gaps = abs(num * tden - target * den).sum(axis=-1)
    if not (gaps != 0).any():
        return _ZERO
    dens = np.broadcast_to(den * tden, num.shape)[..., 0]
    rows = zip(gaps.tolist(), dens.tolist())
    return max(sum(Fraction(g, d) for g, d in zip(*row) if g) for row in rows) / 2


def _marginal_gap(pair, lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs) -> Fraction:
    """Worst TV gap of the coupled masses ``pair`` (worth pair / (hA * WB)) to A / hA and B / hB.

    Cross-multiplied, the Y side's gap is hA * y_err, with y_err the pair's
    Y marginal minus A * WB, and the Z side's is hB * z_err + B * L, with
    z_err its Z marginal minus B * WA and L = hB * WA - hA * WB.  With scale
    S, y_err, z_err and L lie within S², so they decide a zero gap in the
    table's dtype; any other gap is computed by ``_worst_tv`` in Python ints.
    """
    y_marginal, z_marginal = pair.sum(axis=-1), pair.sum(axis=-2)
    y_err = y_marginal - lhs * w_rhs[..., None]
    z_err = z_marginal - rhs * w_lhs[..., None]
    lemma = h_rhs[:, None] * w_lhs - h_lhs[:, None] * w_rhs
    z_lemma = (rhs != 0) & (lemma[..., None] != 0)  # where B * L is nonzero
    if not ((y_err != 0).any() or (z_err != 0).any() or z_lemma.any()):
        return _ZERO
    den = (h_lhs[:, None] * w_rhs)[..., None]
    y_gap = _worst_tv(y_marginal, den, lhs, h_lhs[:, None, None])
    return max(y_gap, _worst_tv(z_marginal, den, rhs, h_rhs[:, None, None]))


def _lemma_gap(lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs) -> Fraction:
    """Largest |WA / hA - WB / hB| over the prefix rows and the copied coordinates.

    With scale S, each cross product h * W is at most S².
    """
    gaps = abs(h_rhs[:, None] * w_lhs - h_lhs[:, None] * w_rhs).max(axis=-1).tolist()
    return max((Fraction(g, d) for g, d in zip(gaps, (h_lhs * h_rhs).tolist()) if g), default=_ZERO)


def _head(rl: FiniteJoint, head: tuple) -> tuple[int, ...]:
    """Alphabet positions of a head (prefix + value), which must have positive probability."""
    if all(v in s for s, v in zip(rl.spaces, head)):
        positions = tuple(s.index(v) for s, v in zip(rl.spaces, head))
        if rl.weights[positions].sum():
            return positions
    raise InputError(f"conditioning event {head!r} has probability zero")


def build_coupling(
    joint: FiniteJoint,
    tree: OrderedTree,
    i: int,
    prefix: tuple,
    lhs_value,
    rhs_value,
) -> CouplingPair:
    """Couple the two conditional laws that differ only in coordinate i.

    ``prefix`` fixes relabeled coordinates 1..i-1; the Y side conditions on
    coordinate i = lhs_value, the Z side on rhs_value.  Requires a
    tree-dependent joint (raising ``DependencyViolation`` otherwise): without
    tree-dependence the redraw of the parent coordinate can hit a
    zero-probability conditioning event while carrying mass.
    """
    _check_step(joint.n, i)
    if len(prefix) != i - 1:
        raise InputError(f"prefix has {len(prefix)} values, needs {i - 1}")
    _require_dependent(joint)
    rl = relabel_joint(joint, tree)
    context = CouplingContext(i=i, prefix=prefix, lhs_value=lhs_value, rhs_value=rhs_value)
    parent = tree.parent[i - 1]
    lhs_head, rhs_head = prefix + (lhs_value,), prefix + (rhs_value,)
    lhs_pos, rhs_pos = _head(rl, lhs_head), _head(rl, rhs_head)
    # the prefix's slice of the table, viewed as step 1 of the remaining coordinates
    t = _step_table(rl.weights[lhs_pos[:-1]], 1, parent - i + 1)
    laws = _pair_laws(t, [0], lhs_pos[-1], rhs_pos[-1])
    masses, den = _couple(*laws)[0], laws[4][0] * laws[3][0]  # pair mass: masses / (hA * WB)
    keys = list(itertools.product(*(s for k, s in enumerate(rl.spaces[i:], i) if k != parent - 1)))
    values, cut = rl.spaces[parent - 1], parent - i - 1  # the parent's alphabet and suffix index
    pair_pmf = {}
    for k, y, z in zip(*np.nonzero(masses)):
        y_point = lhs_head + keys[k][:cut] + (values[y],) + keys[k][cut:]
        z_point = rhs_head + keys[k][:cut] + (values[z],) + keys[k][cut:]
        pair_pmf[(y_point, z_point)] = Fraction(int(masses[k, y, z]), int(den[k]))
    return CouplingPair(spaces=rl.spaces, pmf=pair_pmf, context=context)


def verify_coupling_marginals(pair: CouplingPair, joint: FiniteJoint, tree: OrderedTree) -> Fraction:
    """Worst TV gap between the coupled suffix marginals and their target laws."""
    rl = relabel_joint(joint, tree)
    ctx = pair.context
    den = math.lcm(*(p.denominator for p in pair.pmf.values()))
    gaps = []
    for side, value in enumerate((ctx.lhs_value, ctx.rhs_value)):
        target = rl.weights[_head(rl, ctx.prefix + (value,))]
        marginal = np.zeros(target.shape, dtype=object)
        for points, p in pair.pmf.items():
            suffix = points[side][ctx.i :]
            marginal[tuple(s.index(v) for s, v in zip(rl.spaces[ctx.i :], suffix))] += int(p * den)
        flat = (1, 1, -1)  # one prefix row, one copied block, the whole suffix
        gaps.append(_worst_tv(marginal.reshape(flat), den, target.reshape(flat), int(target.sum())))
    return max(gaps)


def all_coupling_contexts(joint: FiniteJoint, tree: OrderedTree):
    """Every (i, prefix, a, b) with positive prefix-value probabilities, a < b.

    Contexts come out grouped by step i, in ascending order, then by prefix.
    """
    rl = relabel_joint(joint, tree)
    for i in range(1, joint.n):
        heads = rl.weights.sum(axis=tuple(range(i, joint.n)))
        positive = heads.reshape(-1, len(rl.spaces[i - 1])) != 0
        for prefix, row in zip(itertools.product(*rl.spaces[: i - 1]), positive):
            values = [v for v, ok in zip(rl.spaces[i - 1], row) if ok]
            for a, b in itertools.combinations(values, 2):
                yield i, prefix, a, b


def _context_batches(joint: FiniteJoint, tree: OrderedTree):
    """Yield (i, step table, a, b, prefix rows): a step's contexts as index arrays.

    The contexts of ``all_coupling_contexts`` at step i go in row chunks whose
    largest intermediate, rows x copied cells x parent alphabet², stays
    within ``_CELL_CAP``; a context past the cap alone goes in a chunk of one.
    """
    rl = relabel_joint(joint, tree)
    for i, group in itertools.groupby(all_coupling_contexts(joint, tree), key=lambda c: c[0]):
        rows = {prefix: r for r, prefix in enumerate(itertools.product(*rl.spaces[: i - 1]))}
        position = {v: k for k, v in enumerate(rl.spaces[i - 1])}
        index = np.array([(rows[p], position[a], position[b]) for _, p, a, b in group])
        t = _step_table(rl.weights, i, tree.parent[i - 1])
        size = max(1, _CELL_CAP // (t.shape[2] * t.shape[3] ** 2))
        for start in range(0, len(index), size):
            r, a, b = index[start : start + size].T
            yield i, t, a, b, r


def verify_all_couplings(joint: FiniteJoint, tree: OrderedTree) -> tuple[Fraction, Fraction]:
    """Worst exact deviations of the substitution coupling, over every step.

    Returns (the worst marginal deviation over every context of
    ``all_coupling_contexts``, the worst ``verify_independence_lemma`` gap
    over steps 1..n-1); both are 0 on a tree-dependent joint.  Checks
    tree-dependence once (raising ``DependencyViolation``), then checks each
    step's contexts in array operations, a few calls per step, the lemma
    from the laws their couplings are built from.
    """
    _require_dependent(joint)
    coupling = independence = _ZERO
    # a step without contexts has one value per prefix, so no lemma gap
    for _, t, a, b, rows in _context_batches(joint, tree):
        laws = _pair_laws(t, rows, a, b)
        coupling = max(coupling, _marginal_gap(_couple(*laws), *laws))
        independence = max(independence, _lemma_gap(*laws))
    return coupling, independence


# ---------------------------------------------------------------------------
# Lemma-style exhaustive checks

def verify_independence_lemma(joint: FiniteJoint, tree: OrderedTree, i: int) -> Fraction:
    """Largest change in the copied coordinates' law when coordinate i is swapped.

    For each context of step i in ``all_coupling_contexts``, compares the
    conditional law of the non-parent future coordinates across its two
    values at i; under tree-dependence the value at i cannot matter.
    """
    _check_step(joint.n, i)
    batches = _context_batches(joint, tree)
    gaps = (_lemma_gap(*_pair_laws(t, rows, a, b)) for step, t, a, b, rows in batches if step == i)
    return max(gaps, default=_ZERO)


def _float_ratios(num, den) -> np.ndarray:
    """num / den in floats, a screen only: exact comparisons settle what it picks."""
    try:
        return np.asarray(num / den, dtype=float)
    except OverflowError:  # a ratio past the float range: the screen tells nothing
        return np.zeros(np.shape(num))


def _largest(nums: list, dens: list) -> int:
    """Position of the first largest nums[k] / dens[k] (every dens[k] > 0), compared exactly."""
    best = 0
    for k in range(1, len(nums)):
        if nums[k] * dens[best] > nums[best] * dens[k]:
            best = k
    return best


def _extremes(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the value of largest q / m and the value of least, among those with m > 0.

    Returns picks[0] (the largest) and picks[1], the largest of -q / m.  Each
    is picked by float argmax, then confirmed by cross-multiplying against
    every value of its row (a zero mass has a zero moment, so it never
    refutes a pick); a row where the float pick fails is picked exactly.
    """
    signed, positive, rows = np.stack([q, -q]), m != 0, np.arange(len(m))
    mean = np.where(positive, _float_ratios(signed, np.where(positive, m, 1)), -np.inf)
    picks = mean.argmax(axis=2)
    q_pick, m_pick = signed[[[0], [1]], rows, picks], m[rows, picks]
    for side, r in zip(*np.nonzero((q_pick[..., None] * m < signed * m_pick[..., None]).any(axis=2))):
        values = np.flatnonzero(positive[r])
        picks[side, r] = values[_largest(signed[side, r, values].tolist(), m[r, values].tolist())]
    return picks


def _conditional_swings(weights: np.ndarray, table: np.ndarray, scale: int, steps: int) -> list:
    """(i, rows, num, den) for i = 1..steps: the spread of E[f | prefix, x_i] over x_i.

    ``table`` is f times ``scale`` on the axes of ``weights``.  ``rows`` are
    the flat positions, in lexicographic order, of the prefixes with two or
    more positive values at i, and the spread at rows[k] is
    num[k] / (den[k] * scale).  A conditional mean is an integer pair (mass
    m, moment q) worth q / (m * scale).  Every step's rows are stacked,
    padded with zero mass to the widest alphabet, and their extremes come
    from one ``_extremes`` call.  With S the total weight and R the largest
    |table| entry, the moments are widened by the bound S * R, and the cross
    products by twice the largest m * |q| over the rows.
    """
    if not steps:
        return []
    n = weights.ndim
    table_range = max(abs(int(table.min())), abs(int(table.max())))
    moment = weights * table.astype(int_dtype(int(weights.sum()) * table_range), copy=False)
    mass, laws = weights, {}  # laws[i]: step i's rows, with their masses and moments
    for i in range(n, 0, -1):  # mass and moment are summed over the coordinates after i
        if i <= steps:
            m = mass.reshape(-1, weights.shape[i - 1])
            rows = np.flatnonzero(np.count_nonzero(m, axis=1) >= 2)
            laws[i] = rows, m[rows], moment.reshape(m.shape)[rows]
        if i > 1:
            mass, moment = mass.sum(axis=-1), moment.sum(axis=-1)
    # every step's rows in one table, padded with zero mass to the widest alphabet
    steps_in = range(1, steps + 1)
    starts = list(itertools.accumulate((len(laws[i][0]) for i in steps_in), initial=0))
    m = np.zeros((starts[-1], max(weights.shape[:steps])), dtype=weights.dtype)
    q = np.zeros(m.shape, dtype=moment.dtype)
    for i, a in zip(steps_in, starts):
        rows, m_i, q_i = laws[i]
        m[a : a + len(rows), : m_i.shape[1]], q[a : a + len(rows), : q_i.shape[1]] = m_i, q_i
    m, q = widen(2 * int(m.max(initial=0)) * int(abs(q).max(initial=0)), m, q)
    k, picks = np.arange(len(m)), _extremes(m, q)
    (q_hi, q_lo), (m_hi, m_lo) = q[k, picks], m[k, picks]
    num, den = q_hi * m_lo - q_lo * m_hi, m_hi * m_lo
    return [(i, laws[i][0], num[a:b], den[a:b]) for i, a, b in zip(steps_in, starts, starts[1:])]


def verify_difference_bound(
    joint: FiniteJoint, tree: OrderedTree, f: LipschitzFunction
) -> Fraction:
    """Worst excess of conditional-expectation swings over c_i + c_{parent(i)}.

    Nonpositive means the one-substitution bound holds at every non-root
    step, for every positive prefix and value pair.  Each step's worst
    prefix is picked by float, settled exactly among those within float
    error of it; only its swing becomes a Fraction.
    """
    n = joint.n
    rl = relabel_joint(joint, tree)
    perm = [tree.original(k) - 1 for k in range(1, n + 1)]
    budgets = coupling_effective_profile(tree, f.profile)
    worst = None
    # the root step n substitutes nothing
    swings = _conditional_swings(rl.weights, _table_on(joint, f).transpose(perm), f.scale, n - 1)
    for i, _, num, den in swings:
        if not len(num):
            continue
        ratio = _float_ratios(num, den)  # swings are >= 0, each float a few ulps off
        near = np.flatnonzero(ratio >= ratio.max() * (1 - 2.0**-40))
        top = near[_largest(num[near].tolist(), den[near].tolist())]
        excess = Fraction(int(num[top]), int(den[top]) * f.scale) - budgets[i - 1]
        if worst is None or excess > worst:
            worst = excess
    return worst if worst is not None else -max(f.profile.values, default=_ZERO)
