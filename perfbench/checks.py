"""Output checks for benchmark jobs, independent of the code under test.

Each check takes a job (as written by ``workloads.py``), the exit code and
the captured stdout, and returns ``(ok, reason)``.  They hold on any seed:

* enumerated decomposable, chi_f and arboricity objectives must match a
  HiGHS solve (``scipy.optimize.linprog``) of the same covering LP to 1e-9,
  with columns and part costs computed here, not by graphtail;
* a column-generation cover must be a valid exact forest cover whose cost,
  recomputed here, is the reported objective, and that is at least the
  independent-case value ``norm_sq``;
* every bound a Monte Carlo screen validates must print PASS;
* coupling deviations must be exactly 0 with ``ok: true``, and the wrong-graph
  dependency control must exit with code 3.

Fields that may legitimately change between versions are not compared: the
dependency check's ``worst_pair`` and the column-generation cover itself.
"""

import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from graphtail.covers import cover_from_json_dict, validate_cover
from graphtail.graph import build_graph

REL_TOL = 1e-9


def check_job(job: dict, code: int, stdout: str) -> tuple[bool, str | None]:
    if code != job["exit"]:
        return False, f"exit code {code}, expected {job['exit']}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return False, f"output is not JSON: {exc}"
    spec = job["check"]
    try:
        return _CHECKS[spec["kind"]](spec, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"output lacks an expected field or value: {exc!r}"


# ---------------------------------------------------------------------------
# Covering-LP oracle

def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _independent_sets(n: int, edges) -> list[int]:
    adj = _adjacency(n, edges)
    out: list[int] = []

    def extend(mask: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            out.append(mask | low)
            extend(mask | low, candidates & ~adj[low.bit_length() - 1])

    extend(0, (1 << n) - 1)
    return out


def _induced_forests(n: int, edges, coeffs: list[float]) -> tuple[list[int], list[float]]:
    """Every vertex set inducing a forest, with its part-cost radicand.

    The radicand is (c_u + c_v)^2 per induced edge plus the squared minimum
    coefficient of each tree; it is updated as each vertex joins.
    """
    adj = _adjacency(n, edges)
    masks: list[int] = []
    radicands: list[float] = []

    def extend(mask: int, trees: list[tuple[int, float]], radicand: float, start: int) -> None:
        for v in range(start, n):
            touching = [t for t in trees if t[0] & adj[v]]
            if any((t[0] & adj[v]).bit_count() > 1 for t in touching):
                continue  # two neighbours in one tree would close a cycle
            bit = 1 << v
            cv = coeffs[v]
            joined, low = bit, cv
            r = radicand
            for tmask, tmin in touching:
                u = (tmask & adj[v]).bit_length() - 1
                r += (cv + coeffs[u]) ** 2 - tmin * tmin
                joined |= tmask
                low = min(low, tmin)
            r += low * low
            rest = [t for t in trees if not t[0] & adj[v]]
            masks.append(mask | bit)
            radicands.append(r)
            extend(mask | bit, rest + [(joined, low)], r, v + 1)

    extend(0, [], 0.0, 0)
    return masks, radicands


def _cover_lp(n: int, masks: list[int], costs) -> float:
    a_ub = np.zeros((n, len(masks)))
    for j, mask in enumerate(masks):
        for v in range(n):
            if mask >> v & 1:
                a_ub[v, j] = -1.0
    res = linprog(costs, A_ub=a_ub, b_ub=-np.ones(n), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the oracle LP: {res.message}")
    return float(res.fun)


def _chi_f(n: int, edges) -> float:
    masks = _independent_sets(n, edges)
    return _cover_lp(n, masks, np.ones(len(masks)))


def _part_radicand(part: set[int], edges, c: dict[int, float]) -> float | None:
    """Radicand of a forest part, or None when the part induces a cycle."""
    inside = [(u, v) for u, v in edges if u in part and v in part]
    parent = {v: v for v in part}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in inside:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    mins: dict[int, float] = {}
    for v in part:
        r = find(v)
        mins[r] = min(mins.get(r, math.inf), c[v])
    return sum((c[u] + c[v]) ** 2 for u, v in inside) + sum(m * m for m in mins.values())


# ---------------------------------------------------------------------------
# Checks by job kind

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _check_bounds(spec: dict, reports: list) -> tuple[bool, str | None]:
    n, edges = spec["n"], spec["edges"]
    coeffs = [float(Fraction(c)) for c in spec["profile"]]
    by_method = {r["method"]: r for r in reports if r["applicable"]}
    for method in ("janson", "decomposable"):
        if method not in by_method:
            return False, f"{method} bound missing from the report"
    masks, radicands = _induced_forests(n, edges, coeffs)
    decomposable = _cover_lp(n, masks, np.sqrt(radicands)) ** 2
    if not _close(by_method["decomposable"]["denominator"], decomposable):
        return False, (f"decomposable denominator {by_method['decomposable']['denominator']}"
                       f" != HiGHS {decomposable}")
    chi = _chi_f(n, edges)
    janson = by_method["janson"]
    if not _close(janson["witness"]["objective"], chi):
        return False, f"chi_f {janson['witness']['objective']} != HiGHS {chi}"
    if not _close(janson["denominator"], chi * sum(c * c for c in coeffs)):
        return False, "janson denominator is not chi_f times the squared norm"
    if by_method["decomposable"]["denominator"] > janson["denominator"] * (1 + REL_TOL):
        return False, "decomposable denominator exceeds janson's"
    t = float(spec["t"])
    for r in by_method.values():
        if not _close(r["bound"], min(1.0, math.exp(-2 * t * t / r["denominator"]))):
            return False, f"{r['method']} bound is not exp(-2t^2/D)"
    return True, None


def _check_unit_cover(spec: dict, payload: dict) -> tuple[bool, str | None]:
    n, edges = spec["n"], spec["edges"]
    if spec["problem"] == "chi-f":
        expected = _chi_f(n, edges)
    else:
        masks, _ = _induced_forests(n, edges, [1.0] * n)
        expected = _cover_lp(n, masks, np.ones(len(masks)))
    if payload["optimality"] != "exact":
        return False, f"{spec['problem']} is labelled {payload['optimality']}, not exact"
    if not _close(payload["objective"], expected):
        return False, f"{spec['problem']} objective {payload['objective']} != HiGHS {expected}"
    if float(Fraction(payload["objective_exact"])) != payload["objective"]:
        return False, "objective_exact does not match objective"
    return True, None


def _check_colgen(spec: dict, payload: dict) -> tuple[bool, str | None]:
    n, edges = spec["n"], spec["edges"]
    c = {v: float(Fraction(x)) for v, x in enumerate(spec["profile"], start=1)}
    cover = cover_from_json_dict(payload["cover"])
    violations = validate_cover(build_graph(n, edges), cover)
    if violations:
        return False, f"column-generation cover is invalid: {violations[0].detail}"
    total = 0.0
    for part, w in cover.parts:
        radicand = _part_radicand(set(part), edges, c)
        if radicand is None:
            return False, f"part {sorted(part)} induces a cycle"
        total += float(w) * math.sqrt(radicand)
    if not _close(payload["objective"], total * total):
        return False, f"objective {payload['objective']} != recomputed cover cost {total * total}"
    norm_sq = sum(x * x for x in c.values())
    if payload["objective"] < norm_sq * (1 - REL_TOL):
        return False, f"objective {payload['objective']} below norm_sq {norm_sq}"
    if payload["optimality"] != "upper_bound":
        return False, "column generation must be labelled upper_bound"
    return True, None


def _check_validate(spec: dict, rows: list) -> tuple[bool, str | None]:
    if not rows:
        return False, "no validation rows"
    methods = {r["method"] for r in rows}
    if len(rows) != len(methods) * len(spec["t"]):
        return False, f"{len(rows)} rows for {len(methods)} methods x {len(spec['t'])} thresholds"
    for r in rows:
        if r["N"] != spec["samples"] or r["t"] not in spec["t"]:
            return False, f"row {r['method']} t={r['t']} has unexpected N or t"
        if r["verdict"] != "PASS":
            return False, f"{r['method']} at t={r['t']} printed {r['verdict']}"
    return True, None


def _check_coupling(spec: dict, payload: dict) -> tuple[bool, str | None]:
    for field in ("dependency_deviation", "coupling_marginal_deviation", "independence_deviation"):
        if payload[field] != 0:
            return False, f"{field} is {payload[field]}, not exactly 0"
    if payload.get("difference_bound_excess", 0) > 0:
        return False, "difference bound exceeded"
    if payload["ok"] is not True:
        return False, "ok is not true"
    return True, None


def _check_negative_dependency(spec: dict, payload: dict) -> tuple[bool, str | None]:
    if payload["ok"] is not False or not payload["deviation"] > 0:
        return False, "a false dependency declaration was accepted"
    return True, None


_CHECKS = {
    "bounds": _check_bounds,
    "unit_cover": _check_unit_cover,
    "colgen": _check_colgen,
    "validate": _check_validate,
    "coupling": _check_coupling,
    "negative_dependency": _check_negative_dependency,
}
