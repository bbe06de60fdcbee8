"""Sampling of graph-dependent vectors at scale and empirical bound validation.

Two generative families are supported, both dependent-by-construction:

* latent-graph models: every latent variable is attached to a clique of the
  dependency graph (a vertex, an edge, or a larger clique) and each
  coordinate is emitted from the latents whose clique contains it.  Two
  non-adjacent vertex sets then share no latent, which is exactly the
  declared dependence.
* block factors: X_i = g(Y_i, ..., Y_{i+k-1}) over an i.i.d. stream, which
  is (k-1)-dependent.

Randomness is counter-based (Philox): every latent owns a stream keyed by
(seed, latent index) and sample i always consumes draw i of each stream, so
results are bit-identical for a given (spec, seed, N) no matter how the
index range is chunked across workers.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from math import log, sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.stats import beta as _beta_dist

from . import bounds as boundsmod
from . import coupling as couplingmod
from .bounds import DECOMPOSABLE, FOREST, JANSON, M_DEPENDENT, M_DEPENDENT_PAULIN
from .covers import LipschitzProfile, Strategy, lipschitz_profile
from .errors import InputError, ScaleError
from .graph import Graph, classify  # noqa: F401  (perfbench/tracer.py patches montecarlo.classify)

CHUNK = 1 << 16
MEAN_PASS_FACTOR = 10
MEAN_CONFIDENCE = 0.995
CI_LEVEL = 0.99

LATENT_GRAPH = "latent_graph"
BLOCK_FACTOR = "block_factor"


# ---------------------------------------------------------------------------
# Latent distributions (each draw consumes exactly one uniform)

@dataclass(frozen=True)
class Uniform:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Bernoulli:
    p: Fraction
    values: tuple = (0, 1)


@dataclass(frozen=True)
class Discrete:
    values: tuple
    probs: tuple[Fraction, ...]


Dist = Uniform | Bernoulli | Discrete


def uniform(lo, hi) -> Uniform:
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if hi_f <= lo_f:
        raise InputError(f"uniform needs lo < hi, got [{lo}, {hi}]")
    return Uniform(lo=lo_f, hi=hi_f)


def bernoulli(p, values=(0, 1)) -> Bernoulli:
    pf = Fraction(p)
    if not (0 <= pf <= 1):
        raise InputError(f"Bernoulli probability {p} outside [0, 1]")
    if len(values) != 2:
        raise InputError("Bernoulli needs exactly two values")
    return Bernoulli(p=pf, values=tuple(values))


def discrete(values: Sequence, probs: Sequence) -> Discrete:
    pf = [Fraction(p) for p in probs]
    if len(values) != len(pf) or not values:
        raise InputError("discrete needs matching nonempty values/probs")
    if any(p < 0 for p in pf) or sum(pf) != 1:
        raise InputError("discrete probabilities must be nonnegative and sum to 1")
    return Discrete(values=tuple(values), probs=tuple(pf))


def dist_bounds(d: Dist) -> tuple[Fraction, Fraction]:
    if isinstance(d, Uniform):
        return d.lo, d.hi
    if isinstance(d, Bernoulli):
        vals = [Fraction(v) for v in d.values]
        return min(vals), max(vals)
    vals = [Fraction(v) for v in d.values]
    return min(vals), max(vals)


def dist_mean(d: Dist) -> Fraction:
    if isinstance(d, Uniform):
        return (d.lo + d.hi) / 2
    if isinstance(d, Bernoulli):
        return Fraction(d.values[0]) * (1 - d.p) + Fraction(d.values[1]) * d.p
    return sum((Fraction(v) * p for v, p in zip(d.values, d.probs)), Fraction(0))


def dist_finite_support(d: Dist) -> tuple[tuple[object, Fraction], ...] | None:
    if isinstance(d, Bernoulli):
        return ((d.values[0], 1 - d.p), (d.values[1], d.p))
    if isinstance(d, Discrete):
        return tuple(zip(d.values, d.probs))
    return None


def _draw(d: Dist, u: np.ndarray) -> np.ndarray:
    if isinstance(d, Uniform):
        return float(d.lo) + u * float(d.hi - d.lo)
    if isinstance(d, Bernoulli):
        return np.where(u < float(d.p), float(d.values[1]), float(d.values[0]))
    cum = np.cumsum([float(p) for p in d.probs])
    idx = np.searchsorted(cum, u, side="right")
    return np.asarray([float(v) for v in d.values])[np.minimum(idx, len(d.values) - 1)]


# ---------------------------------------------------------------------------
# Sampler specs

EMIT_KINDS = ("sum", "mean", "max", "identity")


@dataclass(frozen=True)
class Latent:
    scope: tuple[int, ...]  # a clique of the dependency graph
    dist: Dist


@dataclass(frozen=True)
class EmitRule:
    kind: str = "sum"
    clamp: tuple[Fraction, Fraction] | None = None  # declared output range


@dataclass(frozen=True)
class Statistic:
    kind: str  # "sum" | "table"
    table: tuple[tuple[tuple, Fraction], ...] | None = None
    spaces: tuple[tuple, ...] | None = None


@dataclass(frozen=True)
class SamplerSpec:
    model: str
    n: int
    graph: Graph | None
    latents: tuple[Latent, ...]
    emit: tuple[EmitRule, ...]  # one rule per coordinate
    block_width: int | None
    statistic: Statistic
    profile: LipschitzProfile
    ranges: tuple[tuple[Fraction, Fraction], ...]

    @property
    def dependence_gap(self) -> int | None:
        """m such that the coordinates are m-dependent, for block factors."""
        return self.block_width - 1 if self.block_width else None


def _vertex_range(kind: str, bounds: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    los = [b[0] for b in bounds]
    his = [b[1] for b in bounds]
    if kind == "sum":
        return sum(los, Fraction(0)), sum(his, Fraction(0))
    if kind == "mean":
        m = len(bounds)
        return sum(los, Fraction(0)) / m, sum(his, Fraction(0)) / m
    if kind == "max":
        return max(los), max(his)
    if kind == "identity":
        if len(bounds) != 1:
            raise InputError("identity emit needs exactly one latent on the vertex")
        return bounds[0]
    raise InputError(f"unknown emit kind {kind!r}; choose from {EMIT_KINDS}")


def latent_graph_spec(
    g: Graph,
    latents: Iterable[tuple[Sequence[int], Dist]],
    emit: str | Mapping[int, EmitRule] = "sum",
    statistic: Statistic | str = "sum",
) -> SamplerSpec:
    """Sampler over a dependency graph, with clique-scoped latents.

    Every latent's scope must induce a clique (so sharing it cannot create
    dependence outside the declared graph), and every vertex needs at least
    one latent to emit from.
    """
    lat = []
    for scope, dist in latents:
        sc = tuple(sorted(set(scope)))
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
        rules = [emit.get(v, EmitRule()) for v in g.vertices]
    ranges = []
    for v in g.vertices:
        covering = [l for l in lat if v in l.scope]
        if not covering:
            raise InputError(f"vertex {v} has no latent to emit from")
        derived = _vertex_range(rules[v - 1].kind, [dist_bounds(l.dist) for l in covering])
        ranges.append(rules[v - 1].clamp if rules[v - 1].clamp is not None else derived)
    profile = lipschitz_profile([hi - lo for lo, hi in ranges])
    stat = _make_statistic(statistic)
    return SamplerSpec(
        model=LATENT_GRAPH,
        n=g.n,
        graph=g,
        latents=tuple(lat),
        emit=tuple(rules),
        block_width=None,
        statistic=stat,
        profile=profile,
        ranges=tuple(ranges),
    )


def block_factor_spec(
    n: int,
    k: int,
    dist: Dist,
    combine: str = "sum",
    statistic: Statistic | str = "sum",
) -> SamplerSpec:
    """X_i = combine(Y_i, ..., Y_{i+k-1}) over an i.i.d. latent stream."""
    if n < 1 or k < 1:
        raise InputError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if combine not in ("sum", "mean", "max"):
        raise InputError(f"block factor combine must be sum/mean/max, got {combine!r}")
    lat = tuple(Latent(scope=(j,), dist=dist) for j in range(1, n + k))
    rng = _vertex_range(combine, [dist_bounds(dist)] * k)
    ranges = tuple(rng for _ in range(n))
    profile = lipschitz_profile([hi - lo for lo, hi in ranges])
    rules = tuple(EmitRule(kind=combine) for _ in range(n))
    return SamplerSpec(
        model=BLOCK_FACTOR,
        n=n,
        graph=None,
        latents=lat,
        emit=rules,
        block_width=k,
        statistic=_make_statistic(statistic),
        profile=profile,
        ranges=ranges,
    )


def _make_statistic(statistic) -> Statistic:
    if isinstance(statistic, Statistic):
        return statistic
    if statistic == "sum":
        return Statistic(kind="sum")
    raise InputError(f"unknown statistic {statistic!r}")


def table_statistic(spaces: Sequence[Sequence], table: Mapping[tuple, object]) -> Statistic:
    spaces_t = tuple(tuple(sorted(set(s))) for s in spaces)
    entries = []
    for key, val in table.items():
        entries.append((tuple(key), val if isinstance(val, Fraction) else Fraction(val)))
    return Statistic(kind="table", table=tuple(sorted(entries)), spaces=spaces_t)


# ---------------------------------------------------------------------------
# Deterministic streams

def _stream_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the (seed, stream) Philox stream."""
    aligned = start & ~3  # Philox advances in blocks of 4 doubles
    bitgen = np.random.Philox(key=np.array([seed & (2**64 - 1), stream], dtype=np.uint64))
    if aligned:
        bitgen.advance(aligned >> 2)
    vals = np.random.Generator(bitgen).random(count + (start - aligned))
    return vals[start - aligned :]


def _emit_chunk(spec: SamplerSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Coordinates of samples [start, start+count), shape (n, count)."""
    draws = [
        _draw(lat.dist, _stream_uniforms(seed, idx, start, count))
        for idx, lat in enumerate(spec.latents)
    ]
    out = np.empty((spec.n, count), dtype=np.float64)
    if spec.model == BLOCK_FACTOR:
        k = spec.block_width
        for v in range(1, spec.n + 1):
            window = draws[v - 1 : v - 1 + k]
            out[v - 1] = _combine(spec.emit[v - 1].kind, window)
    else:
        for v in range(1, spec.n + 1):
            mine = [draws[i] for i, lat in enumerate(spec.latents) if v in lat.scope]
            out[v - 1] = _combine(spec.emit[v - 1].kind, mine)
    for v in range(1, spec.n + 1):
        rule = spec.emit[v - 1]
        if rule.clamp is not None:
            np.clip(out[v - 1], float(rule.clamp[0]), float(rule.clamp[1]), out=out[v - 1])
    return out


def _combine(kind: str, arrays: list[np.ndarray]) -> np.ndarray:
    if kind == "identity":
        return arrays[0]
    if kind == "sum":
        return np.add.reduce(arrays)
    if kind == "mean":
        return np.add.reduce(arrays) / len(arrays)
    if kind == "max":
        return np.maximum.reduce(arrays)
    raise InputError(f"unknown emit kind {kind!r}")


def _statistic_values(spec: SamplerSpec, coords: np.ndarray) -> np.ndarray:
    if spec.statistic.kind == "sum":
        return coords.sum(axis=0)
    spaces = spec.statistic.spaces
    flat = np.zeros(coords.shape[1], dtype=np.int64)
    for v in range(spec.n):
        space = [float(s) for s in spaces[v]]
        idx = np.searchsorted(space, coords[v])
        idx = np.clip(idx, 0, len(space) - 1)
        flat = flat * len(space) + idx
    lookup = np.empty(int(np.prod([len(s) for s in spaces])), dtype=np.float64)
    for key, val in spec.statistic.table:
        pos = 0
        for v in range(spec.n):
            pos = pos * len(spaces[v]) + spaces[v].index(key[v])
        lookup[pos] = float(val)
    return lookup[flat]


def sample(spec: SamplerSpec, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Samples [start, start+count) as an array of shape (count, n)."""
    return _emit_chunk(spec, seed, start, count).T


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


def binomial_upper_ci(hits: int, n: int, level: float = CI_LEVEL) -> float:
    """Exact (Clopper-Pearson) one-sided upper confidence limit for a proportion."""
    if hits >= n:
        return 1.0
    return float(_beta_dist.ppf(level, hits + 1, n - hits))


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
        vals = _statistic_values(spec, _emit_chunk(spec, seed, a, m))
        return [int((vals >= th).sum()) for th in ths], float(vals.sum())

    ranges = list(_chunk_ranges(n_samples, start))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, ranges))
    else:
        parts = [one(r) for r in ranges]
    counts = [0] * len(ths)
    total = 0.0
    for cnts, s in parts:  # fixed order: deterministic float accumulation
        for j, c in enumerate(cnts):
            counts[j] += c
        total += s
    return counts, total


def analytic_mean(spec: SamplerSpec) -> float | None:
    """Exact mean of the statistic when the emit structure allows it.

    Linear emits (sum/mean/identity) always do; max is handled for i.i.d.
    uniform windows.  Declared clamps disable the analytic route.
    """
    if spec.statistic.kind != "sum":
        return None
    total = Fraction(0)
    for v in range(1, spec.n + 1):
        rule = spec.emit[v - 1]
        if rule.clamp is not None:
            return None
        if spec.model == BLOCK_FACTOR:
            covering = [spec.latents[j] for j in range(v - 1, v - 1 + spec.block_width)]
        else:
            covering = [l for l in spec.latents if v in l.scope]
        if rule.kind in ("sum", "mean", "identity"):
            s = sum((dist_mean(l.dist) for l in covering), Fraction(0))
            total += s / len(covering) if rule.kind == "mean" else s
        elif rule.kind == "max":
            dists = [l.dist for l in covering]
            first = dists[0]
            if not all(isinstance(d, Uniform) and d == first for d in dists):
                return None
            k = len(dists)
            total += first.lo + (first.hi - first.lo) * Fraction(k, k + 1)
        else:
            return None
    return float(total)


def _statistic_spread(spec: SamplerSpec) -> float:
    """Width of the statistic's range (for the range-based mean margin)."""
    if spec.statistic.kind == "table":
        values = [float(v) for _, v in spec.statistic.table]
        return max(values) - min(values)
    return float(sum((hi - lo for lo, hi in spec.ranges), Fraction(0)))


def _estimated_mean(spec: SamplerSpec, seed: int, n_samples: int) -> tuple[float, float]:
    """Dedicated mean pass of 10x the sample budget, with a one-sided margin.

    Returns (mean estimate, margin) where the true mean exceeds estimate -
    margin except with probability 1 - MEAN_CONFIDENCE (range-based bound).
    """
    m = MEAN_PASS_FACTOR * n_samples
    start = ((n_samples + 3) // 4) * 4  # disjoint, block-aligned index range
    _, total = _threshold_counts(spec, seed, m, [], start=start)
    margin = _statistic_spread(spec) * sqrt(log(1.0 / (1.0 - MEAN_CONFIDENCE)) / (2.0 * m))
    return total / m, margin


def estimate_tail(
    spec: SamplerSpec, t: float, seed: int, n_samples: int, workers: int = 1
) -> TailEstimate:
    return estimate_tails(spec, [t], seed, n_samples, workers)[0]


def estimate_tails(
    spec: SamplerSpec,
    t_grid: Sequence[float],
    seed: int,
    n_samples: int,
    workers: int = 1,
) -> list[TailEstimate]:
    """One sampling pass, counting threshold exceedances for the whole grid.

    The deviation is measured against the analytic mean when available;
    otherwise a separate (larger) mean pass supplies an estimate whose
    one-sided error margin is folded into the thresholds conservatively.
    """
    t_grid = [boundsmod.check_threshold(t, allow_zero=True) for t in t_grid]
    if n_samples < 1:
        raise InputError(f"sample count must be at least 1, got {n_samples}")
    mu = analytic_mean(spec)
    if mu is None:
        mu, margin = _estimated_mean(spec, seed, n_samples)
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


def _method_inputs(spec: SamplerSpec, strategy: Strategy) -> boundsmod.MethodInputs:
    # a block factor of width 1 is 0-dependent, and so also 1-dependent
    gap = max(spec.dependence_gap, 1) if spec.dependence_gap is not None else None
    return boundsmod.MethodInputs(spec.graph, spec.n, spec.profile, m=gap, strategy=strategy)


def resolve_methods(spec: SamplerSpec) -> tuple[str, ...]:
    """Bound methods applicable to a spec's declared dependence structure."""
    inputs = _method_inputs(spec, Strategy.ENUMERATED_LP)
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
    strategy: Strategy = Strategy.ENUMERATED_LP,
    workers: int = 1,
) -> list[ValidationRow]:
    """Empirical soundness screen: PASS iff the CI upper limit is under the bound.

    A FAIL on a method that is valid for the spec signals an implementation
    defect (the bounds are theorems); FAILs are expected when deliberately
    misapplying a method, e.g. the independence-only reference on a
    dependent spec.
    """
    inputs = _method_inputs(spec, strategy)
    chosen = boundsmod.bound_methods(methods if methods is not None else resolve_methods(spec))
    denominators = []
    for method in chosen:
        reason = method.unmet(inputs)
        if reason is not None:
            raise InputError(f"method {method.name!r} does not apply to this spec: {reason}")
        denominators.append(float(method.denominator(inputs)[0]))
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


def row_to_json_dict(row: ValidationRow | TailEstimate) -> dict:
    """A sampler row's JSON form, which its CSV row is read from too."""
    return {("N" if f.name == "n_samples" else f.name): getattr(row, f.name) for f in fields(row)}


VALIDATION_CSV_COLUMNS = (
    "method", "t", "denominator", "bound", "p_hat", "ci_upper", "verdict", "seed", "N"
)
ESTIMATE_CSV_COLUMNS = ("t", "N", "hits", "p_hat", "ci_upper", "seed")


def validation_to_csv(rows: Sequence[ValidationRow]) -> str:
    return boundsmod.csv_table(VALIDATION_CSV_COLUMNS, map(row_to_json_dict, rows))


def estimates_to_csv(estimates: Sequence[TailEstimate]) -> str:
    return boundsmod.csv_table(ESTIMATE_CSV_COLUMNS, map(row_to_json_dict, estimates))


# ---------------------------------------------------------------------------
# Exact bridge for down-scaled specs

def exact_joint(spec: SamplerSpec, cap: int = couplingmod.MAX_LATENT_CONFIGS):
    """Exact joint of a finite-latent latent-graph spec, for exhaustive checks.

    Only defined when every latent has finite support; the result carries the
    spec's graph as its declared dependency, ready for verification.
    """
    if spec.model != LATENT_GRAPH:
        raise InputError("exact joints are available for latent-graph specs only")
    supports = []
    for lat in spec.latents:
        sup = dist_finite_support(lat.dist)
        if sup is None:
            raise InputError("exact joints need finite-support latents everywhere")
        supports.append(sup)
    configs = 1
    for sup in supports:
        configs *= len(sup)
    if configs > cap:
        raise ScaleError(f"{configs} latent configurations exceed cap {cap}")

    import itertools

    pmf: dict[tuple, Fraction] = {}
    for combo in itertools.product(*supports):
        p = Fraction(1)
        for _, q in combo:
            p *= q
        values = [val for val, _ in combo]
        x = []
        for v in range(1, spec.n + 1):
            mine = [values[i] for i, lat in enumerate(spec.latents) if v in lat.scope]
            rule = spec.emit[v - 1]
            x.append(_combine_scalar(rule.kind, mine))
        key = tuple(x)
        pmf[key] = pmf.get(key, Fraction(0)) + p
    spaces = [sorted({x[k] for x in pmf}) for k in range(spec.n)]
    return couplingmod.finite_joint(spaces, pmf, dependency=spec.graph)


def _combine_scalar(kind: str, values: list):
    if kind == "identity":
        return values[0]
    if kind == "sum":
        return sum(values)
    if kind == "mean":
        return Fraction(sum(values), len(values))
    if kind == "max":
        return max(values)
    raise InputError(f"unknown emit kind {kind!r}")
