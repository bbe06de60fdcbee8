"""Closed-form tail-bound denominators and cross-method comparison reports.

Every method produces a denominator D such that

    P( f(X) - E f(X) >= t )  <=  exp( -2 t^2 / D )

under its own validity assumptions.  ``METHODS`` is the one method table,
read by ``compare_bounds`` and ``montecarlo.validate_bounds`` alike.
``compare_bounds`` never silently applies an inapplicable method: reports
carry the assumption each method needs, and methods whose structural
precondition fails (a tree bound on a non-forest, say) are listed with the
reason instead of a number.
"""

import csv
import io
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from . import covers as coversmod
from . import graph as graphmod
from .covers import CoverSolution, LipschitzProfile, Strategy
from .errors import DegenerateProfileError, InputError, KindError, ScaleError
from .graph import BlockPartition, Graph

MCDIARMID = "mcdiarmid"
JANSON = "janson"
TREE = "tree"
FOREST = "forest"
DECOMPOSABLE = "decomposable"
M_DEPENDENT = "m_dependent"
M_DEPENDENT_PAULIN = "m_dependent_paulin"

MIN_BLOCK = "min_block"
PAULIN = "paulin"


@dataclass(frozen=True)
class BoundReport:
    method: str
    t: float
    denominator: float | None
    denominator_exact: Fraction | None
    bound: float | None
    valid_under: str  # "dependence" or "independence-only"
    assumes: str | None = None
    witness: object | None = None  # CoverSolution | BlockPartition | tree decomposition
    applicable: bool = True
    reason: str | None = None


def mcdiarmid_denominator(profile: LipschitzProfile) -> Fraction:
    """Sum of squared coefficients (valid for independent coordinates only)."""
    return profile.norm_sq


def janson_denominator(
    g: Graph, profile: LipschitzProfile, cap: int = coversmod.DEFAULT_COLUMN_CAP
) -> tuple[Fraction, CoverSolution]:
    """Fractional chromatic number times the squared coefficient norm."""
    return _janson(MethodInputs(g, g.n, profile, cap=cap))


def forest_denominator(g: Graph, profile: LipschitzProfile) -> Fraction:
    """One squared minimum per tree plus the squared coefficient sum per edge.

    Requires the dependency graph to be a forest; on an edgeless graph this
    collapses to the independent-case denominator.
    """
    _check_profile(g, profile)
    cls = graphmod.classify(g)
    if not cls.is_forest:
        raise KindError(
            "graph contains a cycle; the forest bound does not apply"
            " (use the decomposable bound instead)"
        )
    total = Fraction(0)
    for comp in cls.components:
        m = min(profile.coefficient(v) for v in comp)
        total += m * m
    for u, v in g.edges:
        s = profile.coefficient(u) + profile.coefficient(v)
        total += s * s
    return total


def decomposable_denominator(
    g: Graph,
    profile: LipschitzProfile,
    strategy: Strategy = Strategy.ENUMERATED_LP,
    cap: int = coversmod.DEFAULT_COLUMN_CAP,
) -> tuple[float, CoverSolution]:
    """Optimal (or upper-bounded) squared weighted forest-cover cost."""
    _check_profile(g, profile)
    sol = coversmod.optimize_decomposable_denominator(g, profile, strategy=strategy, cap=cap)
    return sol.objective, sol


def m_dependent_denominator(
    n: int,
    m: int,
    profile: LipschitzProfile,
    variant: str = MIN_BLOCK,
    blocks: BlockPartition | None = None,
) -> tuple[Fraction, BlockPartition]:
    """Block-path denominator for an m-dependent sequence.

    With block sums S_1..S_p over consecutive size-m blocks, this is
    sum_{i<p} (S_i + S_{i+1})^2 plus min_i S_i^2 (or the last block's S_p^2
    under the "paulin" variant, which is never smaller).  A custom grouping
    may be supplied via ``blocks``; no grouping search is attempted.
    """
    if len(profile) != n:
        raise InputError(f"profile length {len(profile)} != n = {n}")
    if variant not in (MIN_BLOCK, PAULIN):
        raise InputError(f"unknown m-dependent variant {variant!r}")
    part = blocks if blocks is not None else graphmod.block_partition(n, m)
    sums = [sum((profile.coefficient(v) for v in blk), Fraction(0)) for blk in part.blocks]
    total = Fraction(0)
    for a, b in zip(sums, sums[1:]):
        total += (a + b) ** 2
    if variant == MIN_BLOCK:
        total += min(s * s for s in sums)
    else:
        total += sums[-1] ** 2
    return total, part


def check_threshold(t, allow_zero: bool = False) -> float:
    """t as a float; InputError unless it is finite and positive (or zero, if allowed)."""
    t = float(t)
    if not (math.isfinite(t) and (t > 0 or (allow_zero and t == 0))):
        sign = "nonnegative" if allow_zero else "positive"
        raise InputError(f"deviation threshold must be finite and {sign}, got {t}")
    return t


def tail_bound(denominator, t) -> float:
    """exp(-2 t^2 / denominator), clamped to at most 1."""
    t = check_threshold(t)
    if denominator <= 0:
        raise DegenerateProfileError(
            "denominator is zero (all-zero Lipschitz profile); the bound is undefined"
        )
    return min(1.0, math.exp(-2.0 * t * t / float(denominator)))


def _check_profile(g: Graph, profile: LipschitzProfile) -> None:
    if len(profile) != g.n:
        raise InputError(f"profile length {len(profile)} != vertex count {g.n}")


# ---------------------------------------------------------------------------
# The method table

@dataclass
class MethodInputs:
    """What the methods of one call read, with the forest classification and
    the fractional chromatic number computed at most once, on first use.

    ``g`` is None without a dependency graph, ``m`` without a dependence gap.
    """

    g: Graph | None
    n: int
    profile: LipschitzProfile
    m: int | None = None
    strategy: Strategy = Strategy.ENUMERATED_LP
    cap: int = coversmod.DEFAULT_COLUMN_CAP

    def __post_init__(self):
        if len(self.profile) != self.n:
            raise InputError(f"profile length {len(self.profile)} != vertex count {self.n}")

    @cached_property
    def forest_class(self) -> graphmod.ForestClassification:
        return graphmod.classify(self.g)

    @cached_property
    def _chi(self) -> CoverSolution | ScaleError:
        try:
            return coversmod.fractional_chromatic_number(self.g, cap=self.cap)
        except ScaleError as exc:
            return exc

    def chi(self) -> CoverSolution:
        """The fractional chromatic number's witness; raises ScaleError when out of scale."""
        if isinstance(self._chi, ScaleError):
            raise self._chi
        return self._chi


# Structural preconditions: each returns why a method does not apply, or None.

def _needs_gap(x: MethodInputs) -> str | None:
    return None if x.m is not None else "no dependence gap m supplied"


def _needs_graph(x: MethodInputs) -> str | None:
    return None if x.g is not None else "no dependency graph supplied"


def _needs_forest(x: MethodInputs) -> str | None:
    if x.g is None or x.forest_class.is_forest:
        return _needs_graph(x)
    return "graph is not a forest (use the decomposable bound)"


def _needs_tree(x: MethodInputs) -> str | None:
    if x.g is None or (x.forest_class.is_forest and x.forest_class.tree_count == 1):
        return _needs_graph(x)
    return "graph is not a single tree"


@dataclass(frozen=True)
class BoundMethod:
    name: str
    unmet: Callable[[MethodInputs], str | None]  # the structural precondition
    denominator: Callable[[MethodInputs], tuple[object, object]]  # -> (denominator, witness)
    assumes: str | None = None  # "{m}" stands for the dependence gap
    valid_under: str = "dependence"


def _janson(x: MethodInputs) -> tuple[Fraction, CoverSolution]:
    chi = x.chi()
    return chi.objective_exact * x.profile.norm_sq, chi


def _forest(x: MethodInputs) -> tuple[Fraction, list]:
    witness = [  # the trees with the minimum coefficient each contributes
        (tuple(sorted(comp)), min(x.profile.coefficient(v) for v in comp))
        for comp in x.forest_class.components
    ]
    return forest_denominator(x.g, x.profile), witness


def _decomposable(x: MethodInputs) -> tuple[Fraction | float, CoverSolution]:
    sol = coversmod._optimize_decomposable(x.g, x.profile, x.strategy, x.cap, x.chi)
    return (sol.objective_exact if sol.objective_exact is not None else sol.objective), sol


def _m_dependent(variant: str) -> Callable[[MethodInputs], tuple[Fraction, BlockPartition]]:
    return lambda x: m_dependent_denominator(x.n, x.m, x.profile, variant=variant)


_M_DEPENDENT_ASSUMES = "coordinates form an {m}-dependent sequence"

METHODS: dict[str, BoundMethod] = {
    method.name: method
    for method in (
        BoundMethod(
            MCDIARMID,
            lambda x: None,
            lambda x: (mcdiarmid_denominator(x.profile), None),
            assumes="independent coordinates",
            valid_under="independence-only",
        ),
        BoundMethod(
            JANSON, _needs_graph, _janson, assumes="sum-type statistic (interval-valued coordinates)"
        ),
        BoundMethod(TREE, _needs_tree, _forest),
        BoundMethod(FOREST, _needs_forest, _forest),
        BoundMethod(
            DECOMPOSABLE,
            _needs_graph,
            _decomposable,
            assumes="forest-decomposable statistic (sums qualify)",
        ),
        BoundMethod(M_DEPENDENT, _needs_gap, _m_dependent(MIN_BLOCK), _M_DEPENDENT_ASSUMES),
        BoundMethod(M_DEPENDENT_PAULIN, _needs_gap, _m_dependent(PAULIN), _M_DEPENDENT_ASSUMES),
    )
}
ALL_METHODS = tuple(METHODS)


def bound_methods(names) -> tuple[BoundMethod, ...]:
    """The table rows named by ``names``, in order."""
    for name in names:
        if name not in METHODS:
            raise InputError(f"unknown method {name!r}; choose from {ALL_METHODS}")
    return tuple(METHODS[name] for name in names)


def _report(method: BoundMethod, t: float, m: int | None, den, witness) -> BoundReport:
    den_f = float(den)
    degenerate = den_f <= 0
    return BoundReport(
        method=method.name,
        t=t,
        denominator=den_f,
        denominator_exact=den if isinstance(den, Fraction) else None,
        bound=None if degenerate else tail_bound(den_f, t),
        valid_under=method.valid_under,
        assumes=method.assumes.format(m=m) if method.assumes else None,
        witness=witness,
        applicable=not degenerate,
        reason="degenerate: all-zero Lipschitz profile" if degenerate else None,
    )


def _skipped(method: BoundMethod, t: float, reason: str) -> BoundReport:
    return BoundReport(
        method=method.name,
        t=t,
        denominator=None,
        denominator_exact=None,
        bound=None,
        valid_under=method.valid_under,
        applicable=False,
        reason=reason,
    )


def compare_bounds(
    g: Graph,
    profile: LipschitzProfile,
    t: float,
    methods: tuple[str, ...] | None = None,
    m: int | None = None,
    include_mcdiarmid: bool = False,
    strategy: Strategy = Strategy.ENUMERATED_LP,
    cap: int = coversmod.DEFAULT_COLUMN_CAP,
) -> list[BoundReport]:
    """Every applicable bound at threshold t, best (smallest) first.

    Inapplicable methods are appended with the reason.  The independence-only
    McDiarmid line is included only on request, as a reference that is not
    valid under dependence.  ``m`` activates the m-dependent methods, which
    treat the coordinates as an m-dependent sequence (the caller asserts that
    reading).
    """
    inputs = MethodInputs(g, g.n, profile, m, strategy, cap)
    t = check_threshold(t)
    if methods is None:
        methods = tuple(mm for mm in ALL_METHODS if mm != MCDIARMID or include_mcdiarmid)
    if include_mcdiarmid and MCDIARMID not in methods:
        methods = methods + (MCDIARMID,)

    reports: list[BoundReport] = []
    for method in bound_methods(methods):
        reason = method.unmet(inputs)
        if reason is not None:
            reports.append(_skipped(method, t, reason))
            continue
        try:
            den, witness = method.denominator(inputs)
        except ScaleError as exc:
            reports.append(_skipped(method, t, f"scale: {exc}"))
            continue
        reports.append(_report(method, t, m, den, witness))
    applicable = [r for r in reports if r.applicable]
    skipped = [r for r in reports if not r.applicable]
    applicable.sort(key=lambda r: (r.bound, r.method))
    return applicable + skipped


# ---------------------------------------------------------------------------
# Report serialization: each row type has one JSON-form dict, and its CSV
# row is read from that dict.

_COVER_WITNESS_KEYS = ("objective", "objective_exact", "optimality", "cover")


def _witness_json(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, list):  # forest witness: (tree vertices, minimum) pairs
        return {"trees": [{"vertices": list(t), "minimum": str(m)} for t, m in witness]}
    if isinstance(witness, CoverSolution):
        full = coversmod.solution_to_json_dict(witness)
        return {key: full[key] for key in _COVER_WITNESS_KEYS}
    if isinstance(witness, BlockPartition):
        return {"m": witness.m, "blocks": [list(b) for b in witness.blocks]}
    return str(witness)


def report_to_json_dict(r: BoundReport) -> dict:
    data = {f.name: getattr(r, f.name) for f in fields(r)}
    data["denominator_exact"] = str(r.denominator_exact) if r.denominator_exact is not None else None
    data["witness"] = _witness_json(r.witness)
    return data


REPORT_CSV_COLUMNS = tuple(f.name for f in fields(BoundReport) if f.name != "witness")


def reports_to_csv(reports: list[BoundReport]) -> str:
    return csv_table(REPORT_CSV_COLUMNS, (report_to_json_dict(r) for r in reports))


def csv_table(columns: tuple[str, ...], rows: Iterable[dict]) -> str:
    """CSV text of JSON-form rows: floats as repr, None empty, booleans yes/no."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return repr(value) if isinstance(value, float) else str(value)
