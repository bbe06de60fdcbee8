"""Exact finite-probability engine for tree-dependent joints and their couplings.

Everything here is an exhaustive finite sum: joints are explicit pmfs over a
small product space, couplings are explicit pmfs over the product of two
copies of that space, and every lemma-style statement becomes a deviation
that must be exactly zero.  Probabilities are ints or Fractions, never
floats, so no check needs a tolerance.  The module refuses instances beyond
its caps rather than subsampling; its whole value is exactness.

Coordinate conventions: a joint's coordinates are the vertex labels 1..n of
its dependency graph.  Coupling-related operations re-express the joint in
the relabeled order of a rooted ``OrderedTree`` (descendants before
ancestors, root last); contexts such as ``(i, prefix, a, b)`` always refer to
that relabeled order.  ``relabel_joint`` exposes the permutation.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import graph as graphmod
from .covers import LipschitzProfile, lipschitz_profile, uniform_profile
from .errors import InputError, KindError, ScaleError
from .graph import Graph, OrderedTree, rooted_order

MAX_COORDINATES = 8
MAX_ALPHABET = 6
MAX_LATENT_CONFIGS = 10**6

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Joints

@dataclass(frozen=True)
class FiniteJoint:
    """Exact joint distribution of a random vector over a finite product space."""

    spaces: tuple[tuple, ...]
    pmf: dict[tuple, Fraction]
    dependency: Graph | None = None

    @property
    def n(self) -> int:
        return len(self.spaces)


def _exact(p, where: tuple) -> Fraction:
    if not isinstance(p, (int, Fraction)):
        raise InputError(f"probability {p!r} at {where!r} is not an int or Fraction")
    return Fraction(p)


def finite_joint(
    spaces: Sequence[Sequence],
    pmf: Mapping[tuple, object],
    dependency: Graph | None = None,
) -> FiniteJoint:
    spaces_t = tuple(tuple(sorted(set(s))) for s in spaces)
    n = len(spaces_t)
    if n > MAX_COORDINATES:
        raise ScaleError(f"exhaustive verification supports n <= {MAX_COORDINATES}, got {n}")
    for k, s in enumerate(spaces_t, start=1):
        if not s:
            raise InputError(f"alphabet of coordinate {k} is empty")
        if len(s) > MAX_ALPHABET:
            raise ScaleError(
                f"alphabet of coordinate {k} has {len(s)} symbols; cap is {MAX_ALPHABET}"
            )
    clean: dict[tuple, Fraction] = {}
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
        if prob == 0:
            continue
        clean[tuple(x)] = clean.get(tuple(x), _ZERO) + prob
        total += prob
    if total != 1:
        raise InputError(f"probabilities sum to {total}, need exactly 1")
    if dependency is not None and dependency.n != n:
        raise InputError(f"dependency graph has {dependency.n} vertices, joint has {n}")
    return FiniteJoint(spaces=spaces_t, pmf=clean, dependency=dependency)


def product_joint(marginals: Sequence[Sequence[tuple]]) -> FiniteJoint:
    """Independent product of per-coordinate (value, probability) lists."""
    spaces = [tuple(v for v, _ in m) for m in marginals]
    pmf: dict[tuple, Fraction] = {}
    for combo in itertools.product(*marginals):
        x = tuple(v for v, _ in combo)
        pmf[x] = math.prod((_exact(q, (v,)) for v, q in combo), start=Fraction(1))
    return finite_joint(spaces, pmf)


def conditional(joint: FiniteJoint, fixed: Mapping[int, object]) -> FiniteJoint:
    """Exact conditional joint over the coordinates not in ``fixed``.

    The result's coordinates are the remaining original coordinates in
    ascending order; conditioning on every coordinate yields a point mass on
    the empty tuple.  Conditioning on a null event is an error.
    """
    for c in fixed:
        if not (1 <= c <= joint.n):
            raise InputError(f"coordinate {c} outside 1..{joint.n}")
    rest = [c for c in range(1, joint.n + 1) if c not in fixed]
    num: dict[tuple, Fraction] = {}
    z = _ZERO
    for x, p in joint.pmf.items():
        if all(x[c - 1] == v for c, v in fixed.items()):
            key = tuple(x[c - 1] for c in rest)
            num[key] = num.get(key, _ZERO) + p
            z += p
    if z == 0:
        raise InputError(f"conditioning event {dict(fixed)!r} has probability zero")
    spaces = tuple(joint.spaces[c - 1] for c in rest)
    return FiniteJoint(
        spaces=spaces, pmf={k: p / z for k, p in num.items()}, dependency=None
    )


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
    cls = graphmod.classify(g)
    if not (cls.is_forest and cls.tree_count == 1):
        raise KindError("latent-tree specs need a single tree as dependency graph")
    prof = profile if profile is not None else uniform_profile(g.n)
    tree = rooted_order(g, g.vertices, prof.values)
    try:
        vl = {v: finite_dist(vertex_latents[v]) for v in g.vertices}
    except KeyError as exc:
        raise InputError(f"no vertex latent for vertex {exc}") from exc
    normalized_edges = {}
    for (a, b), dist in edge_latents.items():
        normalized_edges[(a, b) if a < b else (b, a)] = dist
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
    """Exact pmf of the emitted vector, by summing over all latent configurations."""
    g = spec.graph
    vorder = list(g.vertices)
    eorder = list(g.edges)
    configs = 1
    for v in vorder:
        configs *= len(spec.vertex_latents[v])
    for e in eorder:
        configs *= len(spec.edge_latents[e])
    if configs > MAX_LATENT_CONFIGS:
        raise ScaleError(f"{configs} latent configurations exceed cap {MAX_LATENT_CONFIGS}")

    incident = {v: [e for e in eorder if v in e] for v in vorder}
    pmf: dict[tuple, Fraction] = {}
    vertex_choices = [spec.vertex_latents[v] for v in vorder]
    edge_choices = [spec.edge_latents[e] for e in eorder]
    for vcombo in itertools.product(*vertex_choices):
        pv = Fraction(1)
        for _, q in vcombo:
            pv *= q
        xi = {v: val for v, (val, _) in zip(vorder, vcombo)}
        for ecombo in itertools.product(*edge_choices):
            p = pv
            for _, q in ecombo:
                p *= q
            eps = {e: val for e, (val, _) in zip(eorder, ecombo)}
            x = tuple(
                spec.emit[v](xi[v], {e: eps[e] for e in incident[v]}) for v in vorder
            )
            pmf[x] = pmf.get(x, _ZERO) + p
    spaces = [sorted({x[k] for x in pmf}) for k in range(g.n)]
    return finite_joint(spaces, pmf, dependency=g)


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
    # integer weights over a common denominator keep the sums exact and cheap
    scale = math.lcm(*(p.denominator for p in joint.pmf.values()))
    weights = {x: int(p * scale) for x, p in joint.pmf.items()}
    verts = range(1, joint.n + 1)
    worst = 0
    worst_pair = None
    for r in range(1, joint.n):
        for s in itertools.combinations(verts, r):
            closed = set(s).union(*(g.neighbors(v) for v in s))
            t = tuple(v for v in verts if v not in closed)
            if not t:
                continue
            gap = _independence_gap(weights, scale, s, t)
            if gap > worst:
                worst, worst_pair = gap, (frozenset(s), frozenset(t))
    return DependencyReport(deviation=Fraction(worst, 2 * scale * scale), worst_pair=worst_pair)


def _independence_gap(weights: Mapping[tuple, int], scale: int, s: tuple, t: tuple) -> int:
    """Twice the TV between (X_S, X_T) and its product law, times ``scale`` squared.

    ``weights`` is the pmf times ``scale``, in integers.
    """
    both: dict[tuple, int] = {}
    ws: dict[tuple, int] = {}
    wt: dict[tuple, int] = {}
    for x, w in weights.items():
        xs = tuple(x[c - 1] for c in s)
        xt = tuple(x[c - 1] for c in t)
        both[xs, xt] = both.get((xs, xt), 0) + w
        ws[xs] = ws.get(xs, 0) + w
        wt[xt] = wt.get(xt, 0) + w
    return sum(
        abs(scale * both.get((a, b), 0) - wa * wb) for a, wa in ws.items() for b, wb in wt.items()
    )


def _require_dependent(joint: FiniteJoint) -> None:
    """Raise ``DependencyViolation`` unless the joint honours its declared graph."""
    if joint.dependency is None:
        raise InputError("joint declares no dependency graph to verify against")
    report = verify_dependency(joint, joint.dependency)
    if not report.ok():
        raise DependencyViolation(report)


# ---------------------------------------------------------------------------
# Lipschitz functions

@dataclass(frozen=True)
class LipschitzFunction:
    """A function on the product space with an exhaustively validated profile."""

    spaces: tuple[tuple, ...]
    table: dict[tuple, Fraction]
    profile: LipschitzProfile

    def value(self, x: tuple) -> Fraction:
        return self.table[x]


def _full_table(spaces: Sequence[Sequence], fn: Callable[[tuple], object]) -> dict[tuple, Fraction]:
    table = {}
    for x in itertools.product(*spaces):
        v = fn(x)
        table[x] = v if isinstance(v, Fraction) else Fraction(v)
    return table


def check_lipschitz(
    spaces: Sequence[Sequence], table: Mapping[tuple, Fraction], profile: LipschitzProfile
) -> None:
    """Exhaustive validation of a declared profile.

    Checks every pair of assignments differing in a single coordinate, which
    bounds every pair by the triangle inequality along a coordinate-by-
    coordinate path, so the Hamming-weighted condition holds for all pairs
    iff it holds here.  Raises naming the first violating pair.
    """
    spaces_t = [tuple(s) for s in spaces]
    for i, space in enumerate(spaces_t):
        ci = profile.values[i]
        for x in itertools.product(*spaces_t):
            fx = table[x]
            for alt in space:
                if alt <= x[i]:
                    continue
                y = x[:i] + (alt,) + x[i + 1 :]
                if abs(fx - table[y]) > ci:
                    raise InputError(
                        f"not {ci}-Lipschitz in coordinate {i + 1}:"
                        f" |f{x} - f{y}| = {abs(fx - table[y])}"
                    )


def derive_profile(spaces: Sequence[Sequence], table: Mapping[tuple, Fraction]) -> LipschitzProfile:
    """Tightest per-coordinate profile of a finite function (exact)."""
    spaces_t = [tuple(s) for s in spaces]
    coeffs = []
    for i, space in enumerate(spaces_t):
        worst = _ZERO
        for x in itertools.product(*spaces_t):
            for alt in space:
                if alt <= x[i]:
                    continue
                y = x[:i] + (alt,) + x[i + 1 :]
                worst = max(worst, abs(table[x] - table[y]))
        coeffs.append(worst)
    return LipschitzProfile(values=tuple(coeffs))


def lipschitz_function(
    spaces: Sequence[Sequence],
    fn: Callable[[tuple], object] | Mapping[tuple, object],
    profile: LipschitzProfile | Sequence | None = None,
) -> LipschitzFunction:
    """Build a function with a validated profile (derived tight when omitted)."""
    spaces_t = tuple(tuple(sorted(set(s))) for s in spaces)
    if callable(fn):
        table = _full_table(spaces_t, fn)
    else:
        table = {tuple(k): (v if isinstance(v, Fraction) else Fraction(v)) for k, v in fn.items()}
        for x in itertools.product(*spaces_t):
            if x not in table:
                raise InputError(f"function table is missing assignment {x!r}")
    if profile is None:
        prof = derive_profile(spaces_t, table)
    else:
        prof = profile if isinstance(profile, LipschitzProfile) else lipschitz_profile(profile)
        if len(prof) != len(spaces_t):
            raise InputError(f"profile length {len(prof)} != {len(spaces_t)} coordinates")
        check_lipschitz(spaces_t, table, prof)
    return LipschitzFunction(spaces=spaces_t, table=table, profile=prof)


def coordinate_sum(spaces: Sequence[Sequence]) -> LipschitzFunction:
    """f(x) = sum of coordinates, with the tight derived profile."""
    return lipschitz_function(spaces, lambda x: sum(Fraction(v) for v in x))


def exact_mean(joint: FiniteJoint, f: LipschitzFunction) -> Fraction:
    return sum((p * f.value(x) for x, p in joint.pmf.items()), _ZERO)


def exact_tail(joint: FiniteJoint, f: LipschitzFunction, t) -> Fraction:
    """P(f - E f >= t), exactly."""
    mean = exact_mean(joint, f)
    threshold = mean + (t if isinstance(t, Fraction) else Fraction(t))
    return sum((p for x, p in joint.pmf.items() if f.value(x) >= threshold), _ZERO)


# ---------------------------------------------------------------------------
# Relabeling to the rooted order

def relabel_joint(joint: FiniteJoint, tree: OrderedTree) -> FiniteJoint:
    """The same distribution with coordinate k = relabeled vertex k of the tree."""
    if tree.size != joint.n or set(tree.order) != set(range(1, joint.n + 1)):
        raise InputError("ordered tree does not cover the joint's coordinates")
    perm = [tree.original(k) - 1 for k in range(1, joint.n + 1)]
    spaces = tuple(joint.spaces[p] for p in perm)
    pmf = {tuple(x[p] for p in perm): prob for x, prob in joint.pmf.items()}
    dep = None
    if joint.dependency is not None:
        dep = graphmod.build_graph(
            joint.n,
            [(tree.rank(u), tree.rank(v)) for u, v in joint.dependency.edges],
        )
    return FiniteJoint(spaces=spaces, pmf=pmf, dependency=dep)


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


def _suffix_conditionals(
    pmf: Mapping[tuple, Fraction], i: int
) -> dict[tuple, dict[tuple, Fraction]]:
    """Map (first i coordinates) -> normalized pmf of the remaining ones."""
    grouped: dict[tuple, dict[tuple, Fraction]] = {}
    totals: dict[tuple, Fraction] = {}
    for x, p in pmf.items():
        head, tail = x[:i], x[i:]
        grouped.setdefault(head, {})
        grouped[head][tail] = grouped[head].get(tail, _ZERO) + p
        totals[head] = totals.get(head, _ZERO) + p
    for head, dist in grouped.items():
        z = totals[head]
        for tail in dist:
            dist[tail] /= z
    return grouped


def _maximal_coupling(p: Mapping, q: Mapping) -> dict[tuple, Fraction]:
    """Deterministic maximal coupling of two pmfs over the same value set.

    Shared mass sits on the diagonal; the leftovers are matched in sorted
    value order.  Equal inputs couple to the identity.
    """
    out: dict[tuple, Fraction] = {}
    left_p: list[list] = []
    left_q: list[list] = []
    for v in sorted(set(p) | set(q)):
        shared = min(p.get(v, _ZERO), q.get(v, _ZERO))
        if shared:
            out[(v, v)] = shared
        if p.get(v, _ZERO) > shared:
            left_p.append([v, p[v] - shared])
        if q.get(v, _ZERO) > shared:
            left_q.append([v, q[v] - shared])
    a = b = 0
    while a < len(left_p) and b < len(left_q):
        y, wp = left_p[a]
        z, wq = left_q[b]
        w = min(wp, wq)
        out[(y, z)] = out.get((y, z), _ZERO) + w
        left_p[a][1] -= w
        left_q[b][1] -= w
        if left_p[a][1] == 0:
            a += 1
        if left_q[b][1] == 0:
            b += 1
    return out


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
    return _couple(rl.spaces, tree, _suffix_conditionals(rl.pmf, i), context)


def _couple(
    spaces: tuple[tuple, ...],
    tree: OrderedTree,
    conds: Mapping[tuple, Mapping[tuple, Fraction]],
    context: CouplingContext,
) -> CouplingPair:
    """The coupling of ``build_coupling``, from the step's suffix conditionals."""
    i = context.i
    parent_coord = tree.parent[i - 1]
    cut = parent_coord - i - 1  # the parent's index in a suffix; the rest are copied
    lhs_head = context.prefix + (context.lhs_value,)
    rhs_head = context.prefix + (context.rhs_value,)
    for head in (lhs_head, rhs_head):
        if head not in conds:
            raise InputError(f"conditioning event {head!r} has probability zero")

    def parent_laws(suffix: Mapping[tuple, Fraction]):
        """Copied coordinates -> (their mass, law of the parent coordinate given them)."""
        by_key: dict[tuple, dict[object, Fraction]] = {}
        for tail, p in suffix.items():
            by_key.setdefault(tail[:cut] + tail[cut + 1 :], {})[tail[cut]] = p
        laws = {}
        for key, dist in by_key.items():
            mass = sum(dist.values(), _ZERO)
            laws[key] = (mass, {v: w / mass for v, w in dist.items()})
        return laws

    lhs_laws = parent_laws(conds[lhs_head])
    rhs_laws = parent_laws(conds[rhs_head])

    # The copied coordinates keep the lhs law; given them, the parent
    # coordinate of the Z side is redrawn with its rhs conditional law,
    # coupled maximally to the Y side so equal laws coincide pointwise.
    pair_pmf: dict[tuple[tuple, tuple], Fraction] = {}
    for key, (mass, p_dist) in lhs_laws.items():
        if key not in rhs_laws:
            raise KindError(
                "coupling context unreachable: the copied coordinates have zero"
                " probability under the substituted prefix, so the joint is not"
                " tree-dependent for this tree"
            )
        for (y_par, z_par), w in _maximal_coupling(p_dist, rhs_laws[key][1]).items():
            y_point = lhs_head + key[:cut] + (y_par,) + key[cut:]
            z_point = rhs_head + key[:cut] + (z_par,) + key[cut:]
            weight = mass * w
            if weight:
                pair_pmf[(y_point, z_point)] = (
                    pair_pmf.get((y_point, z_point), _ZERO) + weight
                )
    return CouplingPair(spaces=spaces, pmf=pair_pmf, context=context, parent_coord=parent_coord)


def coupling_disagreements(pair: CouplingPair) -> dict[int, Fraction]:
    """P(Y_j != Z_j) per relabeled coordinate, from the coupled pmf."""
    n = len(pair.spaces)
    out = {j: _ZERO for j in range(1, n + 1)}
    for (y, z), p in pair.pmf.items():
        for j in range(1, n + 1):
            if y[j - 1] != z[j - 1]:
                out[j] += p
    return out


def _tv(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction]) -> Fraction:
    keys = set(a) | set(b)
    gap = sum((abs(a.get(k, _ZERO) - b.get(k, _ZERO)) for k in keys), _ZERO)
    return gap / 2


def verify_coupling_marginals(
    pair: CouplingPair, joint: FiniteJoint, tree: OrderedTree
) -> Fraction:
    """Worst TV gap between the coupled suffix marginals and their target laws."""
    rl = relabel_joint(joint, tree)
    return _marginal_gap(pair, _suffix_conditionals(rl.pmf, pair.context.i))


def _marginal_gap(pair: CouplingPair, conds: Mapping[tuple, Mapping[tuple, Fraction]]) -> Fraction:
    """``verify_coupling_marginals`` against the step's suffix conditionals."""
    ctx = pair.context
    i = ctx.i
    y_marg: dict[tuple, Fraction] = {}
    z_marg: dict[tuple, Fraction] = {}
    for (y, z), p in pair.pmf.items():
        y_marg[y[i:]] = y_marg.get(y[i:], _ZERO) + p
        z_marg[z[i:]] = z_marg.get(z[i:], _ZERO) + p
    return max(
        _tv(y_marg, conds[ctx.prefix + (ctx.lhs_value,)]),
        _tv(z_marg, conds[ctx.prefix + (ctx.rhs_value,)]),
    )


def all_coupling_contexts(joint: FiniteJoint, tree: OrderedTree):
    """Every (i, prefix, a, b) with positive prefix-value probabilities, a < b.

    Contexts come out grouped by step i, in ascending order.
    """
    rl = relabel_joint(joint, tree)
    n = joint.n
    for i in range(1, n):
        by_prefix: dict[tuple, list] = {}
        for head in sorted({x[:i] for x in rl.pmf}):
            by_prefix.setdefault(head[:-1], []).append(head[-1])
        for prefix, values in by_prefix.items():
            for a, b in itertools.combinations(values, 2):
                yield i, prefix, a, b


def verify_all_couplings(joint: FiniteJoint, tree: OrderedTree) -> Fraction:
    """Max marginal deviation of the coupling over every valid context.

    Checks tree-dependence once (raising ``DependencyViolation``), then
    builds the suffix conditionals once per step and shares them across
    that step's contexts.
    """
    _require_dependent(joint)
    rl = relabel_joint(joint, tree)
    worst = _ZERO
    for i, contexts in itertools.groupby(all_coupling_contexts(joint, tree), key=lambda c: c[0]):
        conds = _suffix_conditionals(rl.pmf, i)
        for _, prefix, a, b in contexts:
            pair = _couple(rl.spaces, tree, conds, CouplingContext(i, prefix, a, b))
            worst = max(worst, _marginal_gap(pair, conds))
    return worst


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
    cut = tree.parent[i - 1] - i - 1  # the parent's index in a suffix
    conds = _suffix_conditionals(rl.pmf, i)
    by_prefix: dict[tuple, list[tuple]] = {}
    for head in conds:
        by_prefix.setdefault(head[:-1], []).append(head)
    worst = _ZERO
    for heads in by_prefix.values():
        dists = []
        for head in heads:
            proj: dict[tuple, Fraction] = {}
            for tail, p in conds[head].items():
                key = tail[:cut] + tail[cut + 1 :]
                proj[key] = proj.get(key, _ZERO) + p
            dists.append(proj)
        for da, db in itertools.combinations(dists, 2):
            for key in set(da) | set(db):
                gap = abs(da.get(key, _ZERO) - db.get(key, _ZERO))
                if gap > worst:
                    worst = gap
    return worst


def _conditional_swings(pmf: Mapping[tuple, Fraction], values: Mapping[tuple, Fraction], i: int):
    """(prefix, spread of E[f | prefix, x_i] over x_i) for each prefix of length i-1.

    ``values`` maps each point to f there; prefixes with a single positive
    value at coordinate i have no spread and are skipped.
    """
    sums: dict[tuple, Fraction] = {}
    totals: dict[tuple, Fraction] = {}
    for x, p in pmf.items():
        head = x[:i]
        sums[head] = sums.get(head, _ZERO) + p * values[x]
        totals[head] = totals.get(head, _ZERO) + p
    by_prefix: dict[tuple, list[Fraction]] = {}
    for head, tot in totals.items():
        by_prefix.setdefault(head[:-1], []).append(sums[head] / tot)
    for prefix, means in by_prefix.items():
        if len(means) >= 2:
            yield prefix, max(means) - min(means)


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
    f_rl = {tuple(x[p] for p in perm): f.value(x) for x in joint.pmf}
    worst = None
    for i in range(1, n):
        ci = f.profile.coefficient(tree.original(i))
        cp = f.profile.coefficient(tree.original(tree.parent[i - 1]))
        budget = ci + cp
        for _, swing in _conditional_swings(rl.pmf, f_rl, i):
            excess = swing - budget
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
    for i in range(1, n + 1):
        for prefix, swing in _conditional_swings(joint.pmf, f.table, i):
            if swing > eff[i - 1]:
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
