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
index range is chunked: each sample is folded from its own draws, row by
row, whatever the chunk length, one sample included.  A chunk's coordinates
stream vertex by vertex: a latent is drawn when its first reader needs it
and dropped after its last, so a worker holds O(live latents x CHUNK)
floats, whatever n.

The sampler screens sums: the statistic is the sum of the coordinates, whose
Lipschitz profile is the coordinate ranges the bounds are computed from.
Other statistics of finite specs go through the exact bridge instead:
``exact_joint`` + ``coupling.lipschitz_function`` + ``coupling.exact_tail``
derive and check their own profile.
"""

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import product
from math import copysign, factorial, lcm, prod
from sys import float_info
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import bounds as boundsmod
from . import coupling as couplingmod
from .bounds import DECOMPOSABLE, FOREST, JANSON, M_DEPENDENT, M_DEPENDENT_PAULIN
from .covers import LipschitzProfile, lipschitz_profile
from .errors import InputError, ScaleError
from .graph import MAX_VERTICES, Graph, build_graph, check_positive, check_vertex, m_dependence_graph
from .graph import read_vertex_id
from .graph import classify  # noqa: F401  (perfbench/tracer.py patches montecarlo.classify)

CHUNK = 1 << 16
MEAN_TERM_CAP = 1 << 17  # steps of a spec's exact mean: convolution products, polynomial updates
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


_FLOAT_MAX = int(float_info.max)


def finite_number(v) -> bool:
    """An int, float or Fraction, not a bool, that a float holds: coordinates are floats."""
    if isinstance(v, (int, float)):
        return not isinstance(v, bool) and abs(v) <= float_info.max  # exact for ints, false for nan
    if isinstance(v, Fraction):  # as integers: no float conversion on each call
        return abs(v.numerator) <= _FLOAT_MAX * v.denominator
    return False


def _latent_values(values: Sequence) -> tuple:
    """The values as a tuple, once each is a finite number."""
    for v in values:
        if not finite_number(v):
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
    """Draws of ``d`` from the uniforms ``u``, which it may overwrite; a 0/1 law's are bools."""
    if isinstance(d, Uniform):
        if d.hi - d.lo != 1:
            u *= float(d.hi - d.lo)
        if d.lo:  # u * width is never -0.0, so adding 0 would change no bit
            u += float(d.lo)
        return u
    if len(d.values) == 2:  # the first value iff u < p0, as the searchsorted below draws it
        p0 = float(d.probs[0])
        if sorted(d.values) == [0, 1] and all(copysign(1, x) > 0 for x in d.values):  # no -0.0
            return u < p0 if d.values[0] == 1 else u >= p0
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
            check_vertex(v, g.n, "latent scope vertex")
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
        for v in emit:
            check_vertex(v, g.n, "emit rule for vertex")
        rules = [emit.get(v, EmitRule()) for v in g.vertices]
    return _sampler_spec(g.n, g, lat, rules, None)


def block_factor_spec(n: int, k: int, dist: Dist, combine: str = "sum") -> SamplerSpec:
    """X_i = combine(Y_i, ..., Y_{i+k-1}) over an i.i.d. latent stream.

    Latent Y_j sits at index j-1 and is read by vertices max(1, j-k+1)..min(n, j).
    """
    check_positive(n, "n")
    check_positive(k, "k")
    if n * k > MAX_VERTICES:
        raise ScaleError(f"n * k = {n * k} latent reads exceed the cap of {MAX_VERTICES}")
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
    _check_float_span(ranges, "the coordinates")  # so is their sum
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

def _stream_uniforms(seed: int, stream: int, start: int, count: int, out: np.ndarray) -> np.ndarray:
    """Draws [start, start+count) of the (seed, stream) Philox stream, written into ``out``."""
    aligned = start & ~3  # Philox advances in blocks of 4 doubles: out holds count + start % 4
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    if aligned:
        bitgen.advance(aligned >> 2)
    vals = np.random.Generator(bitgen).random(count + (start - aligned), out=out)
    return vals[start - aligned :]


def _emit_chunk(spec: SamplerSpec, seed: int, start: int, count: int) -> Iterator[np.ndarray]:
    """Coordinates of samples [start, start+count), one row per vertex in vertex order.

    A latent is drawn into a pooled buffer when its first reader needs it and
    dropped after its last.  A vertex combines into its first latent's float
    row if it is that row's last reader, else into a scratch row.  A row is
    valid until the next is requested, and consumers must not write to it.
    """
    pool: list[np.ndarray] = []
    owned: dict[int, np.ndarray] = {}  # the pool buffer a live latent's row lives in
    live: dict[int, np.ndarray] = {}
    scratch = np.empty(count)
    for v, (reads, rule) in enumerate(zip(spec.readers, spec.emit), start=1):
        for i in reads:
            if i not in live:
                buf = pool.pop() if pool else np.empty(count + (start & 3))
                u = _stream_uniforms(seed, i, start, count, buf)
                live[i] = _draw(spec.latents[i].dist, u)
                if live[i] is u:
                    owned[i] = buf
                else:
                    pool.append(buf)
        done = [i for i in reads if spec.latents[i].scope[-1] == v]
        first = live[reads[0]]
        out = first if reads[0] in done and first.dtype == np.float64 else scratch
        row = _combine(rule.kind, [live[i] for i in reads], out)
        if rule.clamp is not None:
            row = np.clip(row, *map(float, rule.clamp), out=out)
        yield row
        for i in done:
            del live[i]
            if i in owned:
                pool.append(owned.pop(i))


def _combine(kind: str, arrays: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """The rows folded by ``_fold`` into ``out``, bit-identical for every chunk length.

    An identity vertex returns its one row as it is.
    """
    if kind == "identity":
        return arrays[0]
    _fold(np.maximum if kind == "max" else np.add, arrays, out)
    if kind == "mean":
        out /= len(arrays)
    return out


def _fold(ufunc: np.ufunc, rows: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``ufunc`` over the rows in order, into ``out``, which may be the first row.

    Sample j is folded from the rows' entries j alone, left to right, so its
    bits do not depend on the chunk length.  For rows of two or more samples
    that is bit for bit numpy's axis-0 reduction of their stack; numpy
    reduces a one-sample stack pairwise instead.
    """
    rows = iter(rows)
    if (first := next(rows)) is not out:
        np.copyto(out, first)
    for row in rows:
        ufunc(out, row, out=out)
    return out


def sample(spec: SamplerSpec, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Samples [start, start+count) as an array of shape (count, n)."""
    check_positive(count, "sample count")
    if start < 0:
        raise InputError(f"need sample start >= 0, got {start}")
    out = np.empty((spec.n, count))
    for coordinate, row in zip(out, _emit_chunk(spec, _check_seed(seed), start, count)):
        coordinate[...] = row
    return out.T


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
    from scipy.special import betaincinv  # lazy in both CI helpers: the package loads no scipy

    return float(betaincinv(hits + 1, n - hits, CI_LEVEL))


def binomial_lower_ci(hits: int, n: int) -> float:
    """Exact (Clopper-Pearson) one-sided lower confidence limit for a proportion.

    That is the ``1 - CI_LEVEL`` quantile of Beta(hits, n - hits + 1), and 0
    when there is no hit.
    """
    if hits == 0:
        return 0.0
    from scipy.special import betaincinv

    return float(betaincinv(hits, n - hits + 1, 1 - CI_LEVEL))


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
) -> list[int]:
    """Hit counts per threshold, chunk-merged.

    The merge is a sum of per-chunk integer counts, so the result is
    identical for any worker count.
    """
    ths = np.asarray(list(thresholds), dtype=np.float64)

    def one(args):
        a, m = args
        vals = _fold(np.add, _emit_chunk(spec, seed, a, m), np.empty(m))  # in vertex order
        return [int((vals >= th).sum()) for th in ths]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(one, _chunk_ranges(n_samples, start)))
    return [sum(column) for column in zip(*parts)]


def analytic_mean(spec: SamplerSpec) -> float:
    """Exact mean of the coordinate sum, the one mean the sampler screens against.

    Ef = sum_v E[X_v] however the coordinates depend on each other, and each
    X_v is a function of the independent latents v reads, so every term is
    an exact Fraction: by linearity for an unclamped sum, mean or identity,
    by integrating the vertex's law for a clamped one (``_clamped_sum_mean``)
    and for a max (``_max_mean``).  Vertices with the same rule and reader
    laws share one computation, and the total is rounded to a float once.
    The integrals of all vertices share ``MEAN_TERM_CAP`` steps, a shared
    computation counting once.  A vertex whose integral would take more
    steps than are left raises ScaleError naming it, the spec having taken
    at most the cap's steps: the mean is exact or refused, never estimated.
    """
    total = Fraction(0)
    means: dict[tuple, Fraction] = {}
    spent = 0
    for v, (rule, reads, (lo, hi)) in enumerate(zip(spec.emit, spec.readers, spec.ranges), start=1):
        key = (rule, tuple(spec.latents[i].dist for i in reads))
        if key not in means:
            try:
                means[key], steps = _vertex_mean(rule, key[1], lo, hi, MEAN_TERM_CAP - spent)
            except ScaleError:
                raise ScaleError(
                    f"the exact mean takes more than {MEAN_TERM_CAP} steps, running out at vertex {v}"
                ) from None
            spent += steps
        total += means[key]
    return float(total)


def _vertex_mean(
    rule: EmitRule, dists: tuple, lo: Fraction, hi: Fraction, budget: int
) -> tuple[Fraction, int]:
    """E[X_v] for a vertex emitting from independent ``dists``, with [lo, hi] its range.

    Returns the mean and the steps its integral took; past ``budget`` steps
    it raises ScaleError.
    """
    if rule.kind == "max":
        return _max_mean(dists, lo, hi, budget)
    m = len(dists) if rule.kind == "mean" else 1
    if rule.clamp is None:
        return sum(map(dist_mean, dists), Fraction(0)) / m, 0
    mean, steps = _clamped_sum_mean(dists, m * lo, m * hi, budget)  # a clamp in units of the sum
    return mean / m, steps


def _clamped_sum_mean(dists: tuple, a: Fraction, b: Fraction, budget: int) -> tuple[Fraction, int]:
    """E[clamp(S, a, b)] for S the sum of independent ``dists``.

    E[clamp(S, a, b)] = b - int_a^b F_S.  Given the finite latents' sum s,
    the k uniforms U[lo_i, lo_i + w_i] add a part whose CDF is, by
    inclusion-exclusion over the subsets T of the uniforms,

        sum_T (-1)^|T| (x - c_T)_+^k / (k! prod w_i),   c_T = s + sum lo_i + sum_{i in T} w_i,

    so int_a^b F_S = sum over (s, T) of P(s) (-1)^|T| [(b - c_T)_+^(k+1) -
    (a - c_T)_+^(k+1)] / ((k+1)! prod w_i).  The weights P(s) (-1)^|T| are
    convolved as one signed measure over c, keyed by value, so equal c merge.
    Values run as integers over one common denominator ``scale``, and the
    weights over ``mass``, the product of each law's denominator.  Each
    convolution step's (term, value) products are counted before it is
    taken, and past ``budget`` in all it raises ScaleError; else it returns
    the mean and that count.
    """
    uniforms, laws = _split(dists)
    laws += [[(Fraction(0), Fraction(1)), (u.hi - u.lo, Fraction(-1))] for u in uniforms]
    scale = lcm(a.denominator, b.denominator, *(u.lo.denominator for u in uniforms),
                *(v.denominator for law in laws for v, _ in law))
    terms = {int(sum((u.lo for u in uniforms), Fraction(0)) * scale): 1}
    mass, work = 1, 0
    for law in laws:
        work += len(terms) * len(law)
        if work > budget:
            raise ScaleError
        den = lcm(*(p.denominator for _, p in law))
        mass *= den
        steps = [(int(v * scale), int(p * den)) for v, p in law]
        convolved: dict[int, int] = {}
        for c, weight in terms.items():
            for v, p in steps:
                convolved[c + v] = convolved.get(c + v, 0) + weight * p
        terms = {c: weight for c, weight in convolved.items() if weight}
    k = len(uniforms)
    lo, hi = int(a * scale), int(b * scale)
    area = sum(w * (max(hi - c, 0) ** (k + 1) - max(lo - c, 0) ** (k + 1)) for c, w in terms.items())
    widths = prod(int((u.hi - u.lo) * scale) for u in uniforms)
    return b - Fraction(area, mass * scale * factorial(k + 1) * widths), work


def _max_mean(dists: tuple, a: Fraction, b: Fraction, budget: int) -> tuple[Fraction, int]:
    """E[clamp(M, a, b)] for M the max of independent ``dists``.

    E[clamp(M, a, b)] = b - int_a^b F_M with F_M = prod F_i, which is 0
    below ``floor``, the greatest of a and the laws' least values.  Between
    two consecutive breakpoints above it (uniform tops, finite atoms and b)
    each finite F_i is constant and each uniform's F_i is 1 or
    (x - lo_i)/w_i, so F_M is a polynomial there and is integrated exactly.
    Values run as integers over ``scale``, the polynomial's coefficients over
    ``den``.  The steps, each segment's finite atoms and polynomial updates,
    are counted before any is taken; past ``budget`` it raises ScaleError,
    else it returns the mean and that count.
    """
    uniforms, laws = _split(dists)
    uniforms.sort(key=lambda u: u.hi)
    tops = [u.hi for u in uniforms]
    floor = max([a, *(u.lo for u in uniforms), *(min(v for v, _ in law) for law in laws)])
    cuts = sorted(x for x in {floor, b, *tops, *(v for law in laws for v, _ in law)} if floor <= x <= b)
    live = [len(tops) - bisect_right(tops, x0) for x0 in cuts[:-1]]  # the uniforms with x0 < hi
    atoms = sum(map(len, laws))
    steps = sum(atoms + d * (d + 3) // 2 for d in live)
    if steps > budget:
        raise ScaleError
    scale = lcm(*(x.denominator for x in cuts), *(x.denominator for u in uniforms for x in (u.lo, u.hi)))
    bounds = [(int(u.lo * scale), int((u.hi - u.lo) * scale)) for u in uniforms]
    area = Fraction(0)
    for x0, x1, d in zip(cuts, cuts[1:], live):
        poly, den = [1], scale
        for lo, w in bounds[len(bounds) - d:]:  # times (x - lo) / w, with [x0, x1] inside [lo, hi]
            poly = [q - c * lo for q, c in zip([0, *poly], [*poly, 0])]
            den *= w
        y0, y1 = int(x0 * scale), int(x1 * scale)
        integral = sum(Fraction(c * (y1 ** (j + 1) - y0 ** (j + 1)), j + 1) for j, c in enumerate(poly))
        area += prod((sum(p for value, p in law if value <= x0) for law in laws), start=integral) / den
    return b - area, steps


def _split(dists: tuple) -> tuple[list[Uniform], list[list[tuple[Fraction, Fraction]]]]:
    """The uniform laws, and the (value, probability) pairs of each finite law."""
    uniforms = [d for d in dists if isinstance(d, Uniform)]
    laws = [[(Fraction(v), p) for v, p in dist_finite_support(d)] for d in dists
            if not isinstance(d, Uniform)]
    return uniforms, laws


def check_threshold_count(count: int) -> None:
    """The one cap on a run's thresholds: ``ScaleError`` past ``THRESHOLD_CAP``."""
    if count > THRESHOLD_CAP:
        raise ScaleError(f"{count} thresholds asked for; at most {THRESHOLD_CAP} per run")


def _check_run(t_grid: Sequence[float], seed: int, n_samples: int, workers: int) -> list[float]:
    """The thresholds as floats, once every input of a sampling run is in range."""
    check_threshold_count(len(t_grid))
    t_grid = [boundsmod.check_threshold(t, allow_zero=True) for t in t_grid]
    check_positive(n_samples, "sample count")
    check_positive(workers, "worker count")
    _check_seed(seed)
    return t_grid


def estimate_tails(
    spec: SamplerSpec,
    t_grid: Sequence[float],
    seed: int,
    n_samples: int,
    workers: int = 1,
    mean: float | None = None,
) -> list[TailEstimate]:
    """One sampling pass, counting exceedances of Ef + t for the whole grid.

    Ef is the exact mean (``analytic_mean``), so a PASS holds at CI_LEVEL.
    A spec whose exact mean is past ``MEAN_TERM_CAP`` raises ScaleError
    before any sample is drawn: there is no estimated mean to fall back on.
    A caller passing ``mean`` has taken its exact mean; the run is checked either way.
    """
    t_grid = _check_run(t_grid, seed, n_samples, workers)
    if mean is None:
        mean = analytic_mean(spec)
    thresholds = [mean + t for t in t_grid]
    counts = _threshold_counts(spec, seed, n_samples, thresholds, workers=workers)
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
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
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
    """Empirical soundness screen at ``CI_LEVEL``, one verdict per (method, t).

    PASS when the Clopper-Pearson upper limit is at most the bound, FAIL
    when the lower limit is above it, and INCONCLUSIVE otherwise: a sample
    too small to tell proves nothing either way.  A FAIL on a method that is
    valid for the spec signals an implementation defect (the bounds are
    theorems); FAILs are expected when deliberately misapplying a method,
    e.g. the independence-only reference on a dependent spec.
    """
    t_grid = _check_run(t_grid, seed, n_samples, workers)  # this, preconditions and mean before LPs
    inputs = _method_inputs(spec)
    chosen = boundsmod.bound_methods(methods if methods is not None else resolve_methods(spec))
    for method in chosen:
        reason = method.unmet(inputs)
        if reason is not None:
            raise InputError(f"method {method.name!r} does not apply to this spec: {reason}")
    mean = analytic_mean(spec)
    denominators = [boundsmod.float_denominator(method.denominator(inputs)[0]) for method in chosen]
    estimates = estimate_tails(spec, t_grid, seed, n_samples, workers=workers, mean=mean)
    lower = [binomial_lower_ci(est.hits, est.n_samples) for est in estimates]
    rows = []
    for method, den in zip(chosen, denominators):
        for est, ci_lower in zip(estimates, lower):
            bound = boundsmod.tail_bound(den, est.t) if est.t > 0 else 1.0
            if est.ci_upper <= bound:
                verdict = "PASS"
            else:
                verdict = "FAIL" if ci_lower > bound else "INCONCLUSIVE"
            rows.append(
                ValidationRow(
                    method=method.name,
                    t=est.t,
                    denominator=den,
                    bound=bound,
                    p_hat=est.p_hat,
                    ci_upper=est.ci_upper,
                    verdict=verdict,
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


def _exact_emit(rule: EmitRule, supports: Sequence) -> list:
    """The rule's clamped output at every point of the supports' product, in product order."""
    outs = (_combine_scalar(rule.kind, values) for values in product(*supports))
    return [out if rule.clamp is None else min(max(out, rule.clamp[0]), rule.clamp[1]) for out in outs]


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
