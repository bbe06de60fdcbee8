"""Exact finite-probability engine for tree-dependent joints and their couplings.

Everything here is an exhaustive finite sum: a joint's law is one dense
table, a ``dtype=object`` array of Python ints (int64 would overflow: the
checks' cross products pass 2**80 at eight coordinates) with one axis per
coordinate and one ``scale``, so that P(x) = weights[idx(x)] / scale.  Every
check is integer array arithmetic on that table, and every lemma-style
statement becomes a deviation that must be exactly zero, so no check needs a
tolerance.  The module refuses instances beyond its caps rather than
subsampling; its whole value is exactness.

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

from .covers import LipschitzProfile, lipschitz_profile, uniform_profile
from .errors import InputError, KindError, ScaleError
from .graph import Graph, OrderedTree, rooted_order

MAX_COORDINATES = 8
MAX_ALPHABET = 6
MAX_LATENT_CONFIGS = 10**6

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
        points = zip(itertools.product(*self.spaces), self.weights.flat)
        return MappingProxyType({x: Fraction(w, self.scale) for x, w in points if w})


def _exact(p, where: tuple) -> Fraction:
    if not isinstance(p, (int, Fraction)):
        raise InputError(f"probability {p!r} at {where!r} is not an int or Fraction")
    return Fraction(p)


def _sorted_alphabets(spaces: Iterable[Iterable]) -> tuple[tuple, ...]:
    try:
        return tuple(tuple(sorted(set(s))) for s in spaces)
    except TypeError as exc:
        raise InputError(f"alphabet values must be hashable and mutually ordered: {exc}") from exc


def _capped(spaces: tuple[tuple, ...]) -> tuple[tuple, ...]:
    n = len(spaces)
    if n > MAX_COORDINATES:
        raise ScaleError(f"exhaustive verification supports n <= {MAX_COORDINATES}, got {n}")
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
    spaces_t = _capped(_sorted_alphabets(spaces))
    n = len(spaces_t)
    index = [{v: k for k, v in enumerate(s)} for s in spaces_t]
    points: list[tuple[tuple, Fraction]] = []
    total = _ZERO
    for x, p in pmf.items():
        if len(x) != n:
            raise InputError(f"assignment {x!r} has wrong arity")
        for k, (xi, space) in enumerate(zip(x, spaces_t), start=1):
            if xi not in space:
                raise InputError(f"value {xi!r} of coordinate {k} outside its alphabet")
        prob = _exact(p, x)
        if prob < 0:
            raise InputError(f"negative probability {p} at {x!r}")
        if prob:
            points.append((tuple(positions[xi] for xi, positions in zip(x, index)), prob))
            total += prob
    if total != 1:
        raise InputError(f"probabilities sum to {total}, need exactly 1")
    if dependency is not None and dependency.n != n:
        raise InputError(f"dependency graph has {dependency.n} vertices, joint has {n}")
    scale = math.lcm(*(p.denominator for _, p in points))
    weights = np.zeros(tuple(map(len, spaces_t)), dtype=object)
    for idx, p in points:
        weights[idx] += int(p * scale)
    return FiniteJoint(spaces=spaces_t, weights=weights, scale=scale, dependency=dependency)


# ---------------------------------------------------------------------------
# Latent-tree construction of dependent joints

@dataclass(frozen=True)
class LatentTreeSpec:
    """Generative model whose output is dependent exactly along a tree.

    Each vertex emits a symbol from its own latent plus the latents of its
    incident edges, so two vertex sets sharing no edge see disjoint latents
    and are independent by construction.
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
        q = _exact(p, (v,))
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
        if v not in g.vertices:
            raise InputError(f"vertex latent for vertex {v}, which is not in the tree 1..{g.n}")
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
        incident = [e for e in g.edges if v in e]
        return lambda values: spec.emit[v](values[0], dict(zip(incident, values[1:])))

    return _latent_joint(g.n, latents, [reader(v) for v in g.vertices], g)


def _latent_joint(n: int, latents: Sequence, emit: Sequence[Callable], dependency) -> FiniteJoint:
    """Exact joint of X_v = emit[v-1](values of the latents covering v, in list order).

    ``latents`` holds (scope, support) pairs of independent latents.  Vertices
    are visited in label order, keeping each reachable state (emitted prefix,
    values of the latents a later vertex reads) with its integer mass: a
    latent joins at the first vertex of its scope and is summed out after its
    last.  The work at a vertex, its states times the supports joining there,
    is capped by ``MAX_LATENT_CONFIGS`` (``ScaleError``).  Zero-mass states
    are kept, so alphabets hold every value emitted.
    """
    if n > MAX_COORDINATES:
        raise ScaleError(f"exhaustive verification supports n <= {MAX_COORDINATES}, got {n}")
    live: list[int] = []  # the latents in the state, in the order of its trailing digits
    # each state as one mixed-radix code: emitted prefix positions, then live latent values
    codes, mass, scale, spaces = np.zeros(1, dtype=np.int64), np.ones(1, dtype=object), 1, []
    for v in range(1, n + 1):
        joining = [k for k, (scope, _) in enumerate(latents) if min(scope) == v]
        work = len(codes) * math.prod(len(latents[k][1]) for k in joining)
        if work > MAX_LATENT_CONFIGS:
            raise ScaleError(f"{work} latent states at vertex {v} exceed cap {MAX_LATENT_CONFIGS}")
        for k in joining:
            den = math.lcm(*(q.denominator for _, q in latents[k][1]))
            weights = np.array([int(q * den) for _, q in latents[k][1]], dtype=object)
            codes = (codes[:, None] * len(weights) + np.arange(len(weights))).ravel()
            mass = np.multiply.outer(mass, weights).ravel()
            scale *= den
        order = live + joining
        supports = [len(latents[k][1]) for k in order]
        sizes = [*map(len, spaces), *supports]
        digits = np.unravel_index(codes, sizes) if sizes else ()
        held = digits[v - 1 :]  # the live latents' values, in the order of ``order``
        reads = [order.index(k) for k, (scope, _) in enumerate(latents) if v in scope]
        kept = [pos for pos, k in enumerate(order) if max(latents[k][0]) > v]
        # the value emitted at each combination of the latents read, one emit call each
        shape = [supports[pos] for pos in reads]
        values = [
            emit[v - 1](tuple(latents[order[pos]][1][u][0] for pos, u in zip(reads, idx)))
            for idx in np.ndindex(*shape)
        ]
        spaces.append(_sorted_alphabets([values])[0])
        _capped(tuple(spaces))  # keeps the codes within int64
        position = {value: u for u, value in enumerate(spaces[-1])}
        emitted = np.array([position[value] for value in values]).reshape(shape)
        x = np.broadcast_to(emitted[tuple(held[pos] for pos in reads)], len(codes))
        # states agreeing on (emitted prefix, kept latents) merge into one
        merged = [*digits[: v - 1], x, *(held[pos] for pos in kept)]
        radices = [*map(len, spaces), *(supports[pos] for pos in kept)]
        codes, which = np.unique(np.ravel_multi_index(merged, radices), return_inverse=True)
        mass, summands = np.zeros(len(codes), dtype=object), mass
        np.add.at(mass, which.reshape(-1), summands)
        live = [order[pos] for pos in kept]
    weights = np.zeros(tuple(map(len, spaces)), dtype=object)
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
    a declared dependency graph is honest iff the worst gap is zero.  Only
    T = V minus S and its neighbours is checked for each nonempty S: every
    other T' disjoint from and non-adjacent to S lies inside that T, and
    marginalising out the rest of T cannot increase the gap, so the worst
    gap over all pairs is the same.
    """
    if g.n != joint.n:
        raise InputError(f"graph has {g.n} vertices, joint has {joint.n}")
    weights, scale = joint.weights, joint.scale
    verts = range(1, joint.n + 1)
    worst = 0
    worst_pair = None
    for r in range(1, joint.n):
        for s in itertools.combinations(verts, r):
            closed = set(s).union(*(g.neighbors(v) for v in s))
            t = tuple(v for v in verts if v not in closed)
            if not t:
                continue
            rest = tuple(v - 1 for v in closed if v not in s)
            both = weights.sum(axis=rest, keepdims=True)
            ws = both.sum(axis=tuple(v - 1 for v in t), keepdims=True)
            wt = both.sum(axis=tuple(v - 1 for v in s), keepdims=True)
            gap = abs(scale * both - ws * wt).sum()
            if gap > worst:
                worst, worst_pair = gap, (frozenset(s), frozenset(t))
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
        Fraction(np.max(table.max(axis=k) - table.min(axis=k), initial=0), scale)
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
    spaces_t = _sorted_alphabets(spaces)
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
    if len(prof) != len(spaces_t):
        raise InputError(f"profile length {len(prof)} != {len(spaces_t)} coordinates")
    f = LipschitzFunction(spaces_t, table, scale, prof)
    check_lipschitz(f)
    return f


def coordinate_sum(spaces: Sequence[Sequence]) -> LipschitzFunction:
    """f(x) = sum of coordinates, with the tight derived profile."""
    # int and Fraction symbols add exactly as they are (ints fast), others become Fractions
    exact = {v: v if isinstance(v, (int, Fraction)) else Fraction(v) for s in spaces for v in s}
    return lipschitz_function(spaces, lambda x: sum(map(exact.__getitem__, x)))


def _table_on(joint: FiniteJoint, f: LipschitzFunction) -> np.ndarray:
    if f.spaces != joint.spaces:
        raise InputError("the function and the joint have different alphabets")
    return f.table


def exact_mean(joint: FiniteJoint, f: LipschitzFunction) -> Fraction:
    return Fraction((joint.weights * _table_on(joint, f)).sum(), joint.scale * f.scale)


def exact_tail(joint: FiniteJoint, f: LipschitzFunction, t) -> Fraction:
    """P(f - E f >= t), exactly."""
    threshold = (exact_mean(joint, f) + Fraction(t)) * f.scale
    return Fraction(joint.weights[_table_on(joint, f) >= threshold].sum(), joint.scale)


# ---------------------------------------------------------------------------
# Relabeling to the rooted order

def relabel_joint(joint: FiniteJoint, tree: OrderedTree) -> FiniteJoint:
    """The same distribution with coordinate k = relabeled vertex k of the tree, no graph declared."""
    if tree.size != joint.n or set(tree.order) != set(range(1, joint.n + 1)):
        raise InputError("ordered tree does not cover the joint's coordinates")
    perm = [tree.original(k) - 1 for k in range(1, joint.n + 1)]
    spaces = tuple(joint.spaces[p] for p in perm)
    return FiniteJoint(spaces, joint.weights.transpose(perm), joint.scale)


def coupling_effective_profile(tree: OrderedTree, profile: LipschitzProfile) -> tuple[Fraction, ...]:
    """Per-step conditional-difference bounds in relabeled order.

    Step i < size is bounded by c_i + c_{parent(i)}; the root step (exposed
    last) is bounded by its own coefficient, the tree minimum.
    """
    eff = []
    for i in range(1, tree.size + 1):
        ci = profile.coefficient(tree.original(i))
        par = tree.parent[i - 1]
        eff.append(ci + profile.coefficient(tree.original(par)) if par else ci)
    return tuple(eff)


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
    parent_coord: int


def _step_table(weights: np.ndarray, i: int, parent: int) -> np.ndarray:
    """The relabeled table as (prefix row, x_i, copied coordinates, parent coordinate)."""
    copied = [k for k in range(i, weights.ndim) if k != parent - 1]
    t = weights.transpose(list(range(i)) + copied + [parent - 1])
    return t.reshape(-1, t.shape[i - 1], math.prod(t.shape[i:-1]), t.shape[-1])


def _pair_laws(t: np.ndarray, rows, a: int, b: int) -> tuple:
    """(A, B, WA, WB, hA, hB) of the value pair (a, b) at the given prefix rows."""
    lhs, rhs = t[rows, a], t[rows, b]
    w_lhs, w_rhs = lhs.sum(axis=-1), rhs.sum(axis=-1)
    return lhs, rhs, w_lhs, w_rhs, w_lhs.sum(axis=-1), w_rhs.sum(axis=-1)


def _maximal_couplings(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximal couplings of the laws on the last axis of p and q, batched over the others.

    Each pair of laws has equal totals.  Shared mass sits on the diagonal; the
    leftovers are matched in value order by the north-west-corner rule: value
    y of p sends to value z of q the overlap of their intervals of cumulative
    leftover mass.  Equal inputs couple to the identity.
    """
    shared = np.minimum(p, q)
    left_p, left_q = p - shared, q - shared
    top_p, top_q = np.cumsum(left_p, axis=-1), np.cumsum(left_q, axis=-1)
    low = np.maximum((top_p - left_p)[..., :, None], (top_q - left_q)[..., None, :])
    out = np.maximum(np.minimum(top_p[..., :, None], top_q[..., None, :]) - low, 0)
    diagonal = np.arange(p.shape[-1])
    out[..., diagonal, diagonal] += shared
    return out


def _couple(lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs) -> np.ndarray:
    """The coupling of ``build_coupling`` per prefix row: masses C, pair mass C / (hA * WB).

    The copied coordinates keep the lhs law; given them, the Z side's parent
    coordinate is redrawn with its rhs conditional law, coupled maximally to
    the Y side.  Both parent laws are cross-multiplied to denominator WA * WB.
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
    """
    gaps = abs(num * tden - target * den).sum(axis=-1)
    if not (gaps != 0).any():
        return _ZERO
    dens = np.broadcast_to(den * tden, num.shape)[..., 0]
    return max(sum(Fraction(g, d) for g, d in zip(*row) if g) for row in zip(gaps, dens)) / 2


def _lemma_gap(lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs) -> Fraction:
    """Largest |WA / hA - WB / hB| over the prefix rows and the copied coordinates."""
    gaps = abs(h_rhs[:, None] * w_lhs - h_lhs[:, None] * w_rhs).max(axis=-1)
    return max((Fraction(g, d) for g, d in zip(gaps, h_lhs * h_rhs) if g), default=_ZERO)


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
    n = joint.n
    if not (1 <= i <= n - 1):
        raise InputError(f"coordinate i must be in 1..{n - 1}, got {i}")
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
        pair_pmf[(y_point, z_point)] = Fraction(masses[k, y, z], den[k])
    return CouplingPair(spaces=rl.spaces, pmf=pair_pmf, context=context, parent_coord=parent)


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
        gaps.append(_worst_tv(marginal.reshape(flat), den, target.reshape(flat), target.sum()))
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
    """Yield (i, step table, a, b, prefix rows) for the contexts sharing a step and value pair."""
    rl = relabel_joint(joint, tree)
    for i, group in itertools.groupby(all_coupling_contexts(joint, tree), key=lambda c: c[0]):
        rows = {prefix: r for r, prefix in enumerate(itertools.product(*rl.spaces[: i - 1]))}
        position = {v: k for k, v in enumerate(rl.spaces[i - 1])}
        batch: dict[tuple[int, int], list[int]] = {}
        for _, prefix, a, b in group:
            batch.setdefault((position[a], position[b]), []).append(rows[prefix])
        t = _step_table(rl.weights, i, tree.parent[i - 1])
        for (a, b), pair_rows in batch.items():
            yield i, t, a, b, pair_rows


def verify_all_couplings(joint: FiniteJoint, tree: OrderedTree) -> tuple[Fraction, Fraction]:
    """Worst exact deviations of the substitution coupling, over every step.

    Returns (the worst marginal deviation over every context of
    ``all_coupling_contexts``, the worst ``verify_independence_lemma`` gap
    over steps 1..n-1); both are 0 on a tree-dependent joint.  Checks
    tree-dependence once (raising ``DependencyViolation``), then checks the
    contexts sharing a step and value pair in array operations over all
    their prefixes, the lemma from the laws their couplings are built from.
    """
    _require_dependent(joint)
    coupling = independence = _ZERO
    # a step without contexts has one value per prefix, so no lemma gap
    for _, t, a, b, rows in _context_batches(joint, tree):
        lhs, rhs, w_lhs, w_rhs, h_lhs, h_rhs = laws = _pair_laws(t, rows, a, b)
        pair, den = _couple(*laws), (h_lhs[:, None] * w_rhs)[..., None]
        y_gap = _worst_tv(pair.sum(axis=-1), den, lhs, h_lhs[:, None, None])
        z_gap = _worst_tv(pair.sum(axis=-2), den, rhs, h_rhs[:, None, None])
        coupling = max(coupling, y_gap, z_gap)
        independence = max(independence, _lemma_gap(*laws))
    return coupling, independence


# ---------------------------------------------------------------------------
# Lemma-style exhaustive checks

def verify_independence_lemma(joint: FiniteJoint, tree: OrderedTree, i: int) -> Fraction:
    """Largest change in the copied coordinates' law when coordinate i is swapped.

    For each positive prefix of length i-1, compares the conditional law of
    the non-parent future coordinates across the possible values at i; under
    tree-dependence the value at i cannot matter.
    """
    n = joint.n
    if not (1 <= i <= n - 1):
        raise InputError(f"coordinate i must be in 1..{n - 1}, got {i}")
    rl = relabel_joint(joint, tree)
    t = _step_table(rl.weights, i, tree.parent[i - 1])
    positive = t.sum(axis=(2, 3)) != 0  # per prefix row and value at i
    pairs = itertools.combinations(range(t.shape[1]), 2)
    rows = ((a, b, np.flatnonzero(positive[:, a] & positive[:, b])) for a, b in pairs)
    return max((_lemma_gap(*_pair_laws(t, r, a, b)) for a, b, r in rows if r.size), default=_ZERO)


def _conditional_swings(weights: np.ndarray, table: np.ndarray, scale: int):
    """Yield (i, prefix positions, spread of E[f | prefix, x_i] over x_i) for i = 1..n.

    ``table`` is f times ``scale`` on the axes of ``weights``.  Prefixes come
    in lexicographic order; those with one positive value at i are skipped.
    Each conditional mean is an integer pair (mass a, moment b) worth
    b / (a scale), so the extremes are picked by cross-multiplying.
    """
    n = weights.ndim
    mass, moment = [weights], [weights * table]  # entry j sums out the last j coordinates
    for _ in range(n - 1):
        mass.append(mass[-1].sum(axis=-1))
        moment.append(moment[-1].sum(axis=-1))
    by_mean = functools.cmp_to_key(lambda x, y: x[1] * y[0] - y[1] * x[0])
    for i in range(1, n + 1):
        m, q = mass[n - i], moment[n - i]
        for idx in np.ndindex(m.shape[:-1]):
            pairs = [(a, b) for a, b in zip(m[idx], q[idx]) if a]
            if len(pairs) >= 2:
                (a_hi, b_hi), (a_lo, b_lo) = max(pairs, key=by_mean), min(pairs, key=by_mean)
                yield i, idx, Fraction(b_hi, a_hi * scale) - Fraction(b_lo, a_lo * scale)


def verify_difference_bound(
    joint: FiniteJoint, tree: OrderedTree, f: LipschitzFunction
) -> Fraction:
    """Worst excess of conditional-expectation swings over c_i + c_{parent(i)}.

    Nonpositive means the one-substitution bound holds at every non-root
    step, for every positive prefix and value pair.
    """
    n = joint.n
    rl = relabel_joint(joint, tree)
    perm = [tree.original(k) - 1 for k in range(1, n + 1)]
    budgets = coupling_effective_profile(tree, f.profile)
    worst = None
    for i, _, swing in _conditional_swings(rl.weights, _table_on(joint, f).transpose(perm), f.scale):
        if i == n:  # the root step is not a substitution step
            break
        excess = swing - budgets[i - 1]
        if worst is None or excess > worst:
            worst = excess
    return worst if worst is not None else -max(f.profile.values, default=_ZERO)


class SupInfViolation(InputError):
    """The per-step swing condition failed; carries the violating step and prefix."""

    def __init__(self, i: int, prefix: tuple, swing, budget):
        self.i = i
        self.prefix = prefix
        self.swing = swing
        self.budget = budget
        super().__init__(
            f"conditional swing {swing} at coordinate {i}, prefix {prefix!r},"
            f" exceeds the declared bound {budget}"
        )


def mgf_check(
    joint: FiniteJoint,
    f: LipschitzFunction,
    effective_c: Sequence,
    s_grid: Sequence[float],
) -> float:
    """Worst ratio of the exact mgf to its sub-Gaussian envelope.

    First exhaustively verifies the swing condition in the joint's own
    coordinate order: for every step i and positive prefix, the spread of
    E[f | prefix, value] over values at i must be within effective_c[i-1]
    (raising ``SupInfViolation`` otherwise).  Then returns
    max over s of  E exp(s (f - Ef)) / exp(s^2 sum_i c_i^2 / 8).
    """
    n = joint.n
    eff = [c if isinstance(c, Fraction) else Fraction(c) for c in effective_c]
    if len(eff) != n:
        raise InputError(f"effective profile has {len(eff)} entries, needs {n}")
    for i, idx, swing in _conditional_swings(joint.weights, _table_on(joint, f), f.scale):
        if swing > eff[i - 1]:
            prefix = tuple(s[k] for s, k in zip(joint.spaces, idx))
            raise SupInfViolation(i, prefix, swing, eff[i - 1])

    mean = exact_mean(joint, f)
    var_budget = float(sum((c * c for c in eff), _ZERO))
    worst = 0.0
    for s in s_grid:
        if s <= 0:
            raise InputError(f"mgf grid points must be positive, got {s}")
        mgf = sum(float(p) * math.exp(s * float(f.value(x) - mean)) for x, p in joint.pmf.items())
        envelope = math.exp(s * s * var_budget / 8.0)
        worst = max(worst, mgf / envelope)
    return worst
