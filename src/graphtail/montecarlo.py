"""Sampling of graph-dependent vectors at scale and empirical bound validation.

A sampler has one model: independent latent variables, each scoped to the
vertices that read it, and coordinate v emitted from the latents it reads.
Two constructors build it, both dependent by construction:

* latent-graph specs: every latent's scope is a clique of the declared
  dependency graph (a vertex, an edge, or a larger clique), so two
  non-adjacent vertex sets share no latent, which is exactly the declared
  dependence.
* block factors: X_i = g(Y_i, ..., Y_{i+k-1}) over an i.i.d. stream; Y_j is
  read by vertices max(1, j-k+1)..min(n, j), a clique of the
  (k-1)-dependence graph.

Randomness is counter-based (Philox): every latent owns a stream keyed by
(seed, latent index) and sample i always consumes draw i of each stream, so
results are bit-identical for a given (spec, seed, N) no matter how the
index range is chunked across workers.  A chunk's coordinates stream vertex
by vertex: a latent is drawn when its first reader needs it and dropped
after its last, so a worker holds O(live latents x CHUNK) floats, whatever n.

The sampler screens sums: the statistic is the sum of the coordinates, whose
Lipschitz profile is the coordinate ranges the bounds are computed from.
Other statistics of finite specs go through the exact bridge instead:
``exact_joint`` + ``coupling.lipschitz_function`` + ``coupling.exact_tail``
derive and check their own profile.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from math import copysign, factorial, lcm, log, prod, sqrt
from sys import float_info
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import bounds as boundsmod
from . import coupling as couplingmod
from .bounds import DECOMPOSABLE, FOREST, JANSON, M_DEPENDENT, M_DEPENDENT_PAULIN
from .covers import LipschitzProfile, lipschitz_profile
from .errors import InputError, ScaleError
from .graph import Graph, build_graph, m_dependence_graph, read_vertex_id
from .graph import classify  # noqa: F401  (perfbench/tracer.py patches montecarlo.classify)

CHUNK = 1 << 16
MEAN_PASS_FACTOR = 10
MEAN_CONFIDENCE = 0.995
MEAN_UNIFORM_CAP = 12  # uniform readers of a clamped sum whose mean is integrated exactly
MEAN_TERM_CAP = 1 << 16  # terms of that integral: finite states times subsets of uniforms
CI_LEVEL = 0.99
THRESHOLD_CAP = 10_000  # thresholds per run: each costs a pass over every chunk


# ---------------------------------------------------------------------------
# Latent distributions (each draw consumes exactly one uniform)

@dataclass(frozen=True)
class Uniform:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Discrete:
    values: tuple
    probs: tuple[Fraction, ...]


Dist = Uniform | Discrete


def uniform(lo, hi) -> Uniform:
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if hi_f <= lo_f:
        raise InputError(f"uniform needs lo < hi, got [{lo}, {hi}]")
    return Uniform(lo=lo_f, hi=hi_f)


def bernoulli(p, values=(0, 1)) -> Discrete:
    """values[1] with probability p, else values[0]: the two-point law listing values[1] first."""
    pf = Fraction(p)
    if not (0 <= pf <= 1):
        raise InputError(f"Bernoulli probability {p} outside [0, 1]")
    if len(values) != 2:
        raise InputError("Bernoulli needs exactly two values")
    return Discrete(values=_latent_values(values[::-1]), probs=(pf, 1 - pf))


def discrete(values: Sequence, probs: Sequence) -> Discrete:
    pf = [Fraction(p) for p in probs]
    if len(values) != len(pf) or not values:
        raise InputError("discrete needs matching nonempty values/probs")
    if any(p < 0 for p in pf) or sum(pf) != 1:
        raise InputError("discrete probabilities must be nonnegative and sum to 1")
    return Discrete(values=_latent_values(values), probs=tuple(pf))


def _latent_values(values: Sequence) -> tuple:
    """The values as a tuple, once each is a number a float holds: coordinates are floats."""
    for v in values:
        numeric = isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)
        if not (numeric and abs(v) <= float_info.max):  # exact for ints, false for nan
            raise InputError(f"latent value {v!r} is not a finite number")
    return tuple(values)


def dist_bounds(d: Dist) -> tuple[Fraction, Fraction]:
    if isinstance(d, Uniform):
        return d.lo, d.hi
    vals = [Fraction(v) for v in d.values]
    return min(vals), max(vals)


def dist_mean(d: Dist) -> Fraction:
    if isinstance(d, Uniform):
        return (d.lo + d.hi) / 2
    return sum((Fraction(v) * p for v, p in zip(d.values, d.probs)), Fraction(0))


def dist_finite_support(d: Dist) -> tuple[tuple[object, Fraction], ...] | None:
    return tuple(zip(d.values, d.probs)) if isinstance(d, Discrete) else None


def _draw(d: Dist, u: np.ndarray) -> np.ndarray:
    """Draws of ``d`` from the uniforms ``u``, which it may overwrite."""
    if isinstance(d, Uniform):
        u *= float(d.hi - d.lo)
        return np.add(u, float(d.lo), out=u)
    if len(d.values) == 2:  # the first value iff u < p0, as the searchsorted below draws it
        p0 = float(d.probs[0])
        if d.values == (1, 0) and copysign(1, d.values[1]) > 0:  # not (1, -0.0): -0.0 == 0
            return (u < p0).astype(np.float64)
        return np.where(u < p0, float(d.values[0]), float(d.values[1]))
    cum = np.cumsum([float(p) for p in d.probs])
    idx = np.searchsorted(cum, u, side="right")
    return np.asarray([float(v) for v in d.values])[np.minimum(idx, len(d.values) - 1)]


# ---------------------------------------------------------------------------
# Sampler specs

EMIT_KINDS = ("sum", "mean", "max", "identity")


@dataclass(frozen=True)
class Latent:
    scope: tuple[int, ...]  # the vertices that read it, sorted: a clique of the dependency graph
    dist: Dist


@dataclass(frozen=True)
class EmitRule:
    kind: str = "sum"
    clamp: tuple[Fraction, Fraction] | None = None  # declared output range


@dataclass(frozen=True)
class SamplerSpec:
    n: int
    graph: Graph | None  # None for a block factor, whose dependence is its gap
    latents: tuple[Latent, ...]  # a latent's index keys its Philox stream
    readers: tuple[tuple[int, ...], ...]  # per vertex, the indices of the latents it reads
    emit: tuple[EmitRule, ...]  # one rule per coordinate
    block_width: int | None
    profile: LipschitzProfile
    ranges: tuple[tuple[Fraction, Fraction], ...]

    @property
    def dependence_gap(self) -> int | None:
        """m such that the coordinates are m-dependent, for block factors."""
        return self.block_width - 1 if self.block_width else None


def latent_graph_spec(
    g: Graph,
    latents: Iterable[tuple[Sequence[int], Dist]],
    emit: str | Mapping[int, EmitRule] = "sum",
) -> SamplerSpec:
    """Sampler over a dependency graph, with clique-scoped latents.

    Every latent's scope must induce a clique (so sharing it cannot create
    dependence outside the declared graph), and every vertex needs at least
    one latent to emit from.
    """
    lat = []
    for scope, dist in latents:
        sc = tuple(sorted({read_vertex_id(v, "latent scope vertex") for v in scope}))
        if not sc:
            raise InputError("latent scope is empty")
        for v in sc:
            if not (1 <= v <= g.n):
                raise InputError(f"latent scope vertex {v} outside 1..{g.n}")
        for ai in range(len(sc)):
            for bi in range(ai + 1, len(sc)):
                if sc[bi] not in g.neighbors(sc[ai]):
                    raise InputError(
                        f"latent scope {sc} is not a clique: {sc[ai]} and {sc[bi]} not adjacent"
                    )
        lat.append(Latent(scope=sc, dist=dist))
    lat.sort(key=lambda l: (len(l.scope), l.scope))
    if isinstance(emit, str):
        rules = [EmitRule(kind=emit) for _ in range(g.n)]
    else:
        stray = [v for v in emit if v not in g.vertices]
        if stray:
            raise InputError(f"emit rule for vertex {stray[0]!r} outside 1..{g.n}")
        rules = [emit.get(v, EmitRule()) for v in g.vertices]
    return _sampler_spec(g.n, g, lat, rules, None)


def block_factor_spec(n: int, k: int, dist: Dist, combine: str = "sum") -> SamplerSpec:
    """X_i = combine(Y_i, ..., Y_{i+k-1}) over an i.i.d. latent stream.

    Latent Y_j sits at index j-1 and is read by vertices max(1, j-k+1)..min(n, j).
    """
    if n < 1 or k < 1:
        raise InputError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if combine not in ("sum", "mean", "max"):
        raise InputError(f"block factor combine must be sum/mean/max, got {combine!r}")
    lat = [Latent(scope=tuple(range(max(1, j - k + 1), min(n, j) + 1)), dist=dist)
           for j in range(1, n + k)]
    return _sampler_spec(n, None, lat, [EmitRule(kind=combine)] * n, k)


def _sampler_spec(n, graph, latents, rules, block_width) -> SamplerSpec:
    """The spec of coordinates 1..n read from ``latents``, with ranges and profile derived."""
    readers = [[] for _ in range(n)]
    for i, lat in enumerate(latents):
        for v in lat.scope:
            readers[v - 1].append(i)
    ranges = []
    for v, (reads, rule) in enumerate(zip(readers, rules), start=1):
        if not reads:
            raise InputError(f"vertex {v} has no latent to emit from")
        bounds = [dist_bounds(latents[i].dist) for i in reads]
        _check_float_span(bounds, f"the latents of vertex {v}")  # draws and emits are floats
        # every emit kind is monotone in each latent, so the ends map to the ends
        derived = tuple(_combine_scalar(rule.kind, ends) for ends in zip(*bounds))
        if rule.clamp is not None and rule.clamp[0] > rule.clamp[1]:
            lo, hi = rule.clamp
            raise InputError(f"declared range [{lo}, {hi}] of vertex {v} is empty")
        ranges.append(rule.clamp if rule.clamp is not None else derived)
    _check_float_span(ranges, "the coordinates")  # so is the sum, and its mean's margin
    return SamplerSpec(
        n=n,
        graph=graph,
        latents=tuple(latents),
        readers=tuple(map(tuple, readers)),
        emit=tuple(rules),
        block_width=block_width,
        profile=lipschitz_profile([hi - lo for lo, hi in ranges]),
        ranges=tuple(ranges),
    )


def _check_float_span(bounds: list[tuple[Fraction, Fraction]], what: str) -> None:
    """InputError unless floats hold each partial sum of values in ``bounds`` and their spread."""
    reach = sum(max(abs(lo), abs(hi)) for lo, hi in bounds)
    if max(reach, sum(hi - lo for lo, hi in bounds)) > float_info.max:
        raise InputError(f"{what} span more than a float holds")


# ---------------------------------------------------------------------------
# Deterministic streams

def _stream_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the (seed, stream) Philox stream."""
    aligned = start & ~3  # Philox advances in blocks of 4 doubles
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    if aligned:
        bitgen.advance(aligned >> 2)
    vals = np.random.Generator(bitgen).random(count + (start - aligned))
    return vals[start - aligned :]


def _emit_chunk(spec: SamplerSpec, seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Coordinates of samples [start, start+count), one row per vertex in vertex order.

    A latent is drawn when its first reader needs it and dropped after its
    last.  A row may be a latent's own draw: consumers must not write to it.
    """
    live: dict[int, np.ndarray] = {}
    for v, (reads, rule) in enumerate(zip(spec.readers, spec.emit), start=1):
        for i in reads:
            if i not in live:
                live[i] = _draw(spec.latents[i].dist, _stream_uniforms(seed, i, start, count))
        row = _combine(rule.kind, [live[i] for i in reads])
        for i in reads:
            if max(spec.latents[i].scope) == v:
                del live[i]
        if rule.clamp is not None:  # in place, unless the row is a latent's own draw
            out = None if rule.kind == "identity" else row
            row = np.clip(row, *map(float, rule.clamp), out=out)
        yield row


def _combine(kind: str, arrays: list[np.ndarray]) -> np.ndarray:
    """A fresh row unless ``kind`` is identity: bit for bit numpy's reduction of the row stack."""
    if kind == "identity":
        return arrays[0]
    ufunc = np.maximum if kind == "max" else np.add
    # numpy sums a one-sample stack pairwise, not row by row
    out = ufunc.reduce(arrays) if len(arrays[0]) == 1 else _fold(ufunc, arrays)
    if kind == "mean":
        out /= len(arrays)
    return out


def _fold(ufunc: np.ufunc, rows: Iterable[np.ndarray]) -> np.ndarray:
    """``ufunc`` over the rows in order, into one fresh row.

    For rows of two or more samples that is bit for bit numpy's axis-0
    reduction of their stack.
    """
    rows = iter(rows)
    out = next(rows).copy()
    for row in rows:
        ufunc(out, row, out=out)
    return out


def sample(spec: SamplerSpec, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Samples [start, start+count) as an array of shape (count, n)."""
    return np.stack(list(_emit_chunk(spec, _check_seed(seed), start, count))).T


def _check_seed(seed: int) -> int:
    """A seed keys the Philox streams as one 64-bit word, so it must fit one."""
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must be in [0, 2**64), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Tail estimation

@dataclass(frozen=True)
class TailEstimate:
    t: float
    n_samples: int
    hits: int
    p_hat: float
    ci_upper: float
    seed: int


def binomial_upper_ci(hits: int, n: int) -> float:
    """Exact (Clopper-Pearson) one-sided upper confidence limit for a proportion.

    That is the ``CI_LEVEL`` quantile of Beta(hits + 1, n - hits).
    """
    if hits >= n:
        return 1.0
    from scipy.special import betaincinv  # its only user: importing the package loads no scipy

    return float(betaincinv(hits + 1, n - hits, CI_LEVEL))


def _chunk_ranges(total: int, start: int = 0):
    a = start
    while a < start + total:
        b = min(a + CHUNK, start + total)
        yield a, b - a
        a = b


def _threshold_counts(
    spec: SamplerSpec,
    seed: int,
    n_samples: int,
    thresholds: Sequence[float],
    start: int = 0,
    workers: int = 1,
) -> tuple[list[int], float]:
    """Hit counts per threshold plus the statistic's running sum, chunk-merged.

    The merge is a sum of per-chunk integer counts in fixed chunk order, so
    the result is identical for any worker count.
    """
    ths = np.asarray(list(thresholds), dtype=np.float64)

    def one(args):
        a, m = args
        vals = _fold(np.add, _emit_chunk(spec, seed, a, m))  # coordinate sums, in vertex order
        return [int((vals >= th).sum()) for th in ths], float(vals.sum())

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(one, _chunk_ranges(n_samples, start)))
    counts = [0] * len(ths)
    total = 0.0
    for cnts, s in parts:  # fixed order: deterministic float accumulation
        for j, c in enumerate(cnts):
            counts[j] += c
        total += s
    return counts, total


def analytic_mean(spec: SamplerSpec) -> float | None:
    """Exact mean of the coordinate sum, or None when a vertex is past the caps.

    Ef = sum_v E[X_v] however the coordinates depend on each other, and each
    X_v is a function of the independent latents v reads, so every term is
    an exact Fraction: by linearity for an unclamped sum, mean or identity,
    by integrating the vertex's law for a clamped one (``_clamped_sum_mean``)
    and for a max (``_max_mean``).  Vertices with the same rule and reader
    laws share one computation, and the total is rounded to a float once.
    A clamped sum or mean reading more than ``MEAN_UNIFORM_CAP`` uniforms,
    or whose integral has more than ``MEAN_TERM_CAP`` terms, gives None.
    """
    total = Fraction(0)
    means: dict[tuple, Fraction | None] = {}
    for rule, reads, (lo, hi) in zip(spec.emit, spec.readers, spec.ranges):
        key = (rule, tuple(spec.latents[i].dist for i in reads))
        if key not in means:
            means[key] = _vertex_mean(rule, key[1], lo, hi)
        if means[key] is None:
            return None
        total += means[key]
    return float(total)


def _vertex_mean(rule: EmitRule, dists: tuple, lo: Fraction, hi: Fraction) -> Fraction | None:
    """E[X_v] for a vertex emitting from independent ``dists``, with [lo, hi] its range."""
    if rule.kind == "max":
        return _max_mean(dists, lo, hi)
    m = len(dists) if rule.kind == "mean" else 1
    if rule.clamp is None:
        return sum(map(dist_mean, dists), Fraction(0)) / m
    mean = _clamped_sum_mean(dists, m * lo, m * hi)  # a mean's clamp, in units of the sum
    return None if mean is None else mean / m


def _clamped_sum_mean(dists: tuple, a: Fraction, b: Fraction) -> Fraction | None:
    """E[clamp(S, a, b)] for S the sum of independent ``dists``, or None past the caps.

    E[clamp(S, a, b)] = b - int_a^b F_S.  Given the finite latents' sum s,
    the k uniforms U[lo_i, lo_i + w_i] add a part whose CDF is, by
    inclusion-exclusion over the subsets T of the uniforms,

        sum_T (-1)^|T| (x - c_T)_+^k / (k! prod w_i),   c_T = s + sum lo_i + sum_{i in T} w_i,

    so int_a^b F_S = sum over (s, T) of P(s) (-1)^|T| [(b - c_T)_+^(k+1) -
    (a - c_T)_+^(k+1)] / ((k+1)! prod w_i).  The weights P(s) (-1)^|T| are
    convolved as one signed measure over c, keyed by value, so equal c merge.
    Values run as integers over one common denominator ``scale``, and the
    weights over ``mass``, the product of each law's denominator.
    """
    uniforms, laws = _split(dists)
    if len(uniforms) > MEAN_UNIFORM_CAP:
        return None
    laws += [[(Fraction(0), Fraction(1)), (u.hi - u.lo, Fraction(-1))] for u in uniforms]
    scale = lcm(a.denominator, b.denominator, *(u.lo.denominator for u in uniforms),
                *(v.denominator for law in laws for v, _ in law))
    terms = {int(sum((u.lo for u in uniforms), Fraction(0)) * scale): 1}
    mass = 1
    for law in laws:
        den = lcm(*(p.denominator for _, p in law))
        mass *= den
        steps = [(int(v * scale), int(p * den)) for v, p in law]
        convolved: dict[int, int] = {}
        for c, weight in terms.items():
            for v, p in steps:
                convolved[c + v] = convolved.get(c + v, 0) + weight * p
        terms = {c: weight for c, weight in convolved.items() if weight}
        if len(terms) > MEAN_TERM_CAP:
            return None
    k = len(uniforms)
    lo, hi = int(a * scale), int(b * scale)
    area = sum(w * (max(hi - c, 0) ** (k + 1) - max(lo - c, 0) ** (k + 1)) for c, w in terms.items())
    widths = prod(int((u.hi - u.lo) * scale) for u in uniforms)
    return b - Fraction(area, mass * scale * factorial(k + 1) * widths)


def _max_mean(dists: tuple, a: Fraction, b: Fraction) -> Fraction:
    """E[clamp(M, a, b)] for M the max of independent ``dists``.

    E[clamp(M, a, b)] = b - int_a^b F_M with F_M = prod F_i.  Between two
    consecutive breakpoints (uniform ends, finite atoms, a and b) each
    finite F_i is constant and each uniform's F_i is 0, 1 or (x - lo_i)/w_i,
    so F_M is a polynomial there and is integrated exactly.
    """
    uniforms, laws = _split(dists)
    cuts = {a, b} | {end for u in uniforms for end in (u.lo, u.hi)}
    cuts |= {value for law in laws for value, _ in law}
    cuts = sorted(x for x in cuts if a <= x <= b)
    area = Fraction(0)
    for x0, x1 in zip(cuts, cuts[1:]):
        poly = [prod((sum(p for value, p in law if value <= x0) for law in laws), start=Fraction(1))]
        for u in uniforms:
            if x1 <= u.lo:
                poly = []
                break
            if x0 < u.hi:  # times (x - lo) / w, with [x0, x1] inside [lo, hi]
                w = u.hi - u.lo
                poly = [(q - c * u.lo) / w for q, c in zip([0, *poly], [*poly, 0])]
        area += sum(c * (x1 ** (j + 1) - x0 ** (j + 1)) / (j + 1) for j, c in enumerate(poly))
    return b - area


def _split(dists: tuple) -> tuple[list[Uniform], list[list[tuple[Fraction, Fraction]]]]:
    """The uniform laws, and the (value, probability) pairs of each finite law."""
    uniforms = [d for d in dists if isinstance(d, Uniform)]
    laws = [[(Fraction(v), p) for v, p in dist_finite_support(d)] for d in dists
            if not isinstance(d, Uniform)]
    return uniforms, laws


def _estimated_mean(
    spec: SamplerSpec, seed: int, n_samples: int, workers: int
) -> tuple[float, float]:
    """Dedicated mean pass of 10x the sample budget, with a one-sided margin.

    Returns (mean estimate, margin) where the true mean exceeds estimate -
    margin except with probability 1 - MEAN_CONFIDENCE (Hoeffding's bound
    over the width of the sum's range).
    """
    m = MEAN_PASS_FACTOR * n_samples
    start = ((n_samples + 3) // 4) * 4  # disjoint, block-aligned index range
    _, total = _threshold_counts(spec, seed, m, [], start=start, workers=workers)
    spread = float(sum((hi - lo for lo, hi in spec.ranges), Fraction(0)))
    margin = spread * sqrt(log(1.0 / (1.0 - MEAN_CONFIDENCE)) / (2.0 * m))
    return total / m, margin


def _check_run(t_grid: Sequence[float], seed: int, n_samples: int, workers: int) -> list[float]:
    """The thresholds as floats, once every input of a sampling run is in range."""
    if len(t_grid) > THRESHOLD_CAP:
        raise ScaleError(f"{len(t_grid)} thresholds given; at most {THRESHOLD_CAP} per run")
    t_grid = [boundsmod.check_threshold(t, allow_zero=True) for t in t_grid]
    if n_samples < 1:
        raise InputError(f"sample count must be at least 1, got {n_samples}")
    if workers < 1:
        raise InputError(f"worker count must be at least 1, got {workers}")
    _check_seed(seed)
    return t_grid


def estimate_tails(
    spec: SamplerSpec,
    t_grid: Sequence[float],
    seed: int,
    n_samples: int,
    workers: int = 1,
) -> list[TailEstimate]:
    """One sampling pass, counting threshold exceedances for the whole grid.

    The deviation is measured against the exact mean (``analytic_mean``).
    Only past its per-vertex caps does a separate mean pass of 10x the
    samples supply an estimate, whose one-sided Hoeffding margin is folded
    into the thresholds conservatively; a PASS then holds at about
    CI_LEVEL x MEAN_CONFIDENCE rather than at CI_LEVEL.
    """
    t_grid = _check_run(t_grid, seed, n_samples, workers)
    mu = analytic_mean(spec)
    if mu is None:
        mu, margin = _estimated_mean(spec, seed, n_samples, workers)
        mu -= margin
    thresholds = [mu + t for t in t_grid]
    counts, _ = _threshold_counts(spec, seed, n_samples, thresholds, workers=workers)
    return [
        TailEstimate(
            t=t,
            n_samples=n_samples,
            hits=hits,
            p_hat=hits / n_samples,
            ci_upper=binomial_upper_ci(hits, n_samples),
            seed=seed,
        )
        for t, hits in zip(t_grid, counts)
    ]


# ---------------------------------------------------------------------------
# Bound validation

@dataclass(frozen=True)
class ValidationRow:
    method: str
    t: float
    denominator: float
    bound: float
    p_hat: float
    ci_upper: float
    verdict: str  # "PASS" | "FAIL"
    seed: int
    n_samples: int


# Default screens, most specific first: a spec is screened with the first
# one whose every method applies to it.
DEFAULT_SCREENS = ((M_DEPENDENT, M_DEPENDENT_PAULIN), (FOREST,), (JANSON, DECOMPOSABLE))


def _method_inputs(spec: SamplerSpec) -> boundsmod.MethodInputs:
    # a block factor of width 1 is 0-dependent, and so also 1-dependent
    gap = max(spec.dependence_gap, 1) if spec.dependence_gap is not None else None
    return boundsmod.MethodInputs(spec.graph, spec.n, spec.profile, m=gap)


def resolve_methods(spec: SamplerSpec) -> tuple[str, ...]:
    """Bound methods applicable to a spec's declared dependence structure."""
    inputs = _method_inputs(spec)
    return next(
        screen
        for screen in DEFAULT_SCREENS
        if all(method.unmet(inputs) is None for method in boundsmod.bound_methods(screen))
    )


def validate_bounds(
    spec: SamplerSpec,
    t_grid: Sequence[float],
    seed: int,
    n_samples: int,
    methods: Sequence[str] | None = None,
    workers: int = 1,
) -> list[ValidationRow]:
    """Empirical soundness screen: PASS iff the CI upper limit is under the bound.

    A FAIL on a method that is valid for the spec signals an implementation
    defect (the bounds are theorems); FAILs are expected when deliberately
    misapplying a method, e.g. the independence-only reference on a
    dependent spec.
    """
    _check_run(t_grid, seed, n_samples, workers)  # before any LP is solved
    inputs = _method_inputs(spec)
    chosen = boundsmod.bound_methods(methods if methods is not None else resolve_methods(spec))
    denominators = []
    for method in chosen:
        reason = method.unmet(inputs)
        if reason is not None:
            raise InputError(f"method {method.name!r} does not apply to this spec: {reason}")
        denominators.append(boundsmod.float_denominator(method.denominator(inputs)[0]))
    estimates = estimate_tails(spec, t_grid, seed, n_samples, workers=workers)
    rows = []
    for method, den in zip(chosen, denominators):
        for est in estimates:
            bound = boundsmod.tail_bound(den, est.t) if est.t > 0 else 1.0
            rows.append(
                ValidationRow(
                    method=method.name,
                    t=est.t,
                    denominator=den,
                    bound=bound,
                    p_hat=est.p_hat,
                    ci_upper=est.ci_upper,
                    verdict="PASS" if est.ci_upper <= bound else "FAIL",
                    seed=seed,
                    n_samples=est.n_samples,
                )
            )
    return rows


def _json_name(field: str) -> str:
    return "N" if field == "n_samples" else field


def row_to_json_dict(row: ValidationRow | TailEstimate) -> dict:
    """A sampler row's JSON form, which its CSV row is read from too."""
    return {_json_name(f.name): getattr(row, f.name) for f in fields(row)}


VALIDATION_CSV_COLUMNS = tuple(_json_name(f.name) for f in fields(ValidationRow))
ESTIMATE_CSV_COLUMNS = tuple(_json_name(f.name) for f in fields(TailEstimate))


def validation_to_csv(rows: Sequence[ValidationRow]) -> str:
    return boundsmod.csv_table(VALIDATION_CSV_COLUMNS, map(row_to_json_dict, rows))


def estimates_to_csv(estimates: Sequence[TailEstimate]) -> str:
    return boundsmod.csv_table(ESTIMATE_CSV_COLUMNS, map(row_to_json_dict, estimates))


# ---------------------------------------------------------------------------
# Exact bridge for down-scaled specs

def exact_joint(spec: SamplerSpec):
    """Exact joint of a finite-latent spec, declared dependent along its graph.

    A block factor of width k declares its (k-1)-dependence graph.  The
    latents are summed out by ``coupling._latent_joint``, and each output is
    clamped to its declared range, as ``sample`` clamps it.  Latent values
    are read exactly: a float becomes its Fraction, and ints stay ints.
    """
    graph = spec.graph
    if graph is None:
        gap = spec.dependence_gap
        graph = m_dependence_graph(spec.n, gap) if gap else build_graph(spec.n, ())
    supports = [dist_finite_support(lat.dist) for lat in spec.latents]
    if None in supports:
        raise InputError("exact joints need finite-support latents everywhere")
    latents = [
        (lat.scope, [(v if isinstance(v, (int, Fraction)) else Fraction(v), p) for v, p in support])
        for lat, support in zip(spec.latents, supports)
    ]
    emit = [partial(_exact_emit, rule) for rule in spec.emit]
    return couplingmod._latent_joint(spec.n, latents, emit, graph)


def _exact_emit(rule: EmitRule, values: Sequence):
    out = _combine_scalar(rule.kind, values)
    return out if rule.clamp is None else min(max(out, rule.clamp[0]), rule.clamp[1])


def _combine_scalar(kind: str, values: Sequence):
    if kind == "identity":
        if len(values) != 1:
            raise InputError("identity emit needs exactly one latent on the vertex")
        return values[0]
    if kind == "sum":
        return sum(values)
    if kind == "mean":
        return Fraction(sum(values), len(values))
    if kind == "max":
        return max(values)
    raise InputError(f"unknown emit kind {kind!r}; choose from {EMIT_KINDS}")
