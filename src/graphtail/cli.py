"""Command-line front door.

Subcommands: ``bounds`` (denominator/bound reports for a graph and profile),
``covers`` (fractional cover LPs), ``simulate`` (tail estimation and bound
validation), ``verify`` (exact coupling / dependency checks).  Machine
output (JSON or CSV) goes to stdout or --out; diagnostics go to stderr.

Exit codes: 0 success, 1 input or usage error (or a standard output closed
before the report was written), 2 scale error, 3 verification
failure (a nonzero coupling or dependency deviation, an empirically violated
bound, or an internal exact check that failed), so pipelines can use the
tool as a test oracle.
"""

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds as boundsmod
from . import coupling as couplingmod
from . import covers as coversmod
from . import montecarlo as mcmod
from .covers import LipschitzProfile, Strategy, lipschitz_profile
from .errors import InputError, ScaleError, VerificationError
from .graph import Graph, check_positive, check_profile_length, graph_from_json_dict, parse_edge_list
from .graph import check_vertex, read_vertex_id, rooted_order

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCALE = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# Input parsing

def load_graph(path: str) -> Graph:
    text = _read(path)
    if text.lstrip().startswith("{"):
        return graph_from_json_dict(_json(path, text))
    return parse_edge_list(text)


def parse_profile_spec(spec: str, n: int) -> LipschitzProfile:
    """Either "uniform:X" or a comma-separated coefficient list of length n."""
    if spec.startswith("uniform:"):
        try:
            value = Fraction(spec.split(":", 1)[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad uniform coefficient {spec!r}: {exc}") from exc
        return lipschitz_profile([value] * n)
    try:
        values = [Fraction(part.strip()) for part in spec.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coefficient list {spec!r}: {exc}") from exc
    check_profile_length(len(values), n)
    return lipschitz_profile(values)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path} as text: {exc}") from exc


def _json(path: str, text: str | None = None):
    """The JSON document in ``text``, or else in the file at ``path``."""
    try:
        return json.loads(_read(path) if text is None else text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


def _fraction_value(x) -> Fraction:
    """``x`` read exactly, once a float can hold it: the engines also compute in floats.

    A decimal "a/b" string, as the specs write most probabilities, is read as
    two ints; anything else goes through ``Fraction``'s own parser.
    """
    num, slash, den = x.partition("/") if isinstance(x, str) else ("", "", "")
    try:
        if slash and num.isdecimal() and den.isdecimal():
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read {x!r} as an exact number") from exc
    if not mcmod.finite_number(value):
        raise InputError(f"{x!r} is beyond the range of a float")
    return value


def _typed(value, kind: type, what: str):
    """``value``, once it has the JSON type ``kind`` (dict or list); else ``InputError``."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise InputError(f"{what} must be {name}, got {value!r}")
    return value


def _dist_from_json(data) -> mcmod.Dist:
    kind = _typed(data, dict, "a latent distribution").get("kind")
    try:
        if kind == "uniform":
            return mcmod.uniform(_fraction_value(data["lo"]), _fraction_value(data["hi"]))
        if kind == "bernoulli":
            values = _symbols(data.get("values", [0, 1]), "Bernoulli 'values'")
            return mcmod.bernoulli(_fraction_value(data["p"]), values)
        if kind == "discrete":
            return mcmod.discrete(
                _symbols(data["values"], "discrete 'values'"),
                [_fraction_value(p) for p in _typed(data["probs"], list, "discrete 'probs'")],
            )
    except KeyError as exc:
        raise InputError(f"latent distribution {data!r} is missing field {exc}") from exc
    raise InputError(f"unknown latent distribution kind {kind!r}")


def _json_symbol(v, what: str):
    """A string, or a finite number with an integral float read as an int; else ``InputError``."""
    if not (isinstance(v, str) or mcmod.finite_number(v)):
        raise InputError(f"{what} holds {v!r}, which is neither a string nor a finite number")
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _symbols(value, what: str) -> list:
    """A JSON list of symbols; a string is an error, not split into characters."""
    return [_json_symbol(v, what) for v in _typed(value, list, what)]


def load_sampler_spec(path: str) -> mcmod.SamplerSpec:
    data = _typed(_json(path), dict, f"{path}: a sampler spec")
    model = data.get("model")
    try:
        if model == "block_factor":
            return mcmod.block_factor_spec(
                n=read_vertex_id(data["n"], "block_factor 'n'"),
                k=read_vertex_id(data["k"], "block_factor 'k'"),
                dist=_dist_from_json(data["dist"]),
                combine=data.get("combine", "sum"),
            )
        if model == "latent_graph":
            g = graph_from_json_dict(data["graph"])
            latents = []
            for item in _typed(data["latents"], list, "'latents'"):
                item = _typed(item, dict, "a latent entry")
                scope = _typed(item["scope"], list, "a latent 'scope'")
                latents.append((scope, _dist_from_json(item["dist"])))
            return mcmod.latent_graph_spec(g, latents, emit=_emit_rules(data.get("emit", "sum")))
    except KeyError as exc:
        raise InputError(f"{path}: sampler spec is missing field {exc}") from exc
    raise InputError(f"sampler spec needs model 'latent_graph' or 'block_factor', got {model!r}")


def _emit_rules(emit) -> str | dict[int, mcmod.EmitRule]:
    """A sampler spec's 'emit': one kind for every vertex, or per-vertex rules."""
    if isinstance(emit, str):
        return emit
    rules = {}
    for v, rule in _typed(emit, dict, "'emit', when not a kind name,").items():
        rule = _typed(rule, dict, f"emit rule {v!r}")
        clamp = None
        if "range" in rule:
            clamp = tuple(map(_fraction_value, _typed(rule["range"], list, "an emit 'range'")))
            if len(clamp) != 2:
                raise InputError(f"an emit 'range' must be [lo, hi], got {rule['range']!r}")
        rules[read_vertex_id(v, "emit key")] = mcmod.EmitRule(rule.get("kind", "sum"), clamp)
    return rules


def _emit_callable(kind: str, table, incident_edges: list) -> "_Emit":
    """A vertex's emit: ``kind`` combines its latent, then its edges' in sorted edge order."""
    parsed = {}
    if kind == "table":
        if table is None:
            raise InputError("table emit needs a 'map' entry")
        if not isinstance(table, dict):
            raise InputError(f"table emit 'map' must be an object, got {table!r}")
        for key, val in table.items():
            try:
                combo = tuple(int(p) for p in str(key).split(","))
            except ValueError as exc:
                raise InputError(f"emit table key {key!r} is not comma-separated integers") from exc
            parsed[combo] = _json_symbol(val, "emit 'map'")
    elif kind not in ("xor", "sum"):
        raise InputError(f"unknown emit kind {kind!r} (choose xor, sum or table)")
    return _Emit(kind, parsed, sorted(incident_edges))


class _Emit:
    """A vertex's emit rule, called per point as ``coupling.latent_tree_spec`` takes it.

    A sum is the latent plus the edges' sum, the edges added left to right
    from 0.  ``over`` gives the values at every point of a product of
    supports in one call, each the value the per-point call gives.
    """

    def __init__(self, kind: str, parsed: dict, edges: list):
        self.kind, self.parsed, self.edges = kind, parsed, edges

    def _combines(self, v) -> bool:
        return mcmod.finite_number(v) if self.kind == "sum" else isinstance(v, int)

    def __call__(self, xi, ev):
        key = (xi, *(ev[e] for e in self.edges))
        for v in key:
            if not self._combines(v):
                raise InputError(f"{self.kind} emit cannot combine the latent value {v!r}")
        if self.kind == "table":
            if key not in self.parsed:
                raise InputError(f"emit table has no entry for latent combination {key}")
            return self.parsed[key]
        if self.kind == "xor":
            value = functools.reduce(operator.xor, key)
        else:
            value = xi + functools.reduce(operator.add, key[1:], 0)
        if not mcmod.finite_number(value):
            raise InputError(f"{self.kind} emit of {tuple(map(float, key))} overflows a float")
        return value

    def over(self, supports) -> list:
        """The values at every point of the supports' product (the latent's, then the edges').

        A table is read per entry; xor and sum are one reduction over object
        arrays, which combine exactly as the per-point call does.  A value
        the rule refuses sends the product through the per-point call,
        which names the first refusal in product order.
        """
        if all(map(self._combines, itertools.chain(*supports))):
            if self.kind == "table":
                with contextlib.suppress(KeyError):
                    return [self.parsed[key] for key in itertools.product(*supports)]
            else:
                latent, *edges = np.ix_(*(np.array(s, dtype=object) for s in supports))
                if self.kind == "xor":
                    grid = functools.reduce(np.bitwise_xor, edges, latent)
                else:
                    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
                        grid = latent + functools.reduce(np.add, edges, 0)
                values = grid.ravel().tolist()
                if all(map(mcmod.finite_number, values)):
                    return values
        return [self(x[0], dict(zip(self.edges, x[1:]))) for x in itertools.product(*supports)]


def _support(dist: dict, what: str) -> list:
    dist = _typed(dist, dict, what)
    values = _symbols(dist["values"], f"{what} 'values'")
    probs = _typed(dist["probs"], list, f"{what} 'probs'")
    if len(values) != len(probs):
        raise InputError(f"{what} has {len(values)} 'values' but {len(probs)} 'probs'")
    return list(zip(values, map(_fraction_value, probs)))


def _pmf_point(x: list, members: list[dict]) -> tuple:
    """A raw pmf entry's ``x`` as a tuple of symbols.

    A value that is a member of its coordinate's alphabet, already read as
    symbols, is the symbol the alphabet holds; a bool never is, though
    True == 1.  Any other ``x`` is read by ``_symbols``, which refuses a bad
    value by name, and its arity and alphabets are left to ``finite_joint``.
    """
    if len(x) == len(members) and bool not in map(type, x):
        with contextlib.suppress(KeyError, TypeError):  # TypeError: an unhashable value
            return tuple(map(dict.__getitem__, members, x))
    return tuple(_symbols(x, "a pmf entry's 'x'"))


def _edge_key(text: str) -> tuple[int, ...]:
    ends = text.replace("-", ",").split(",")
    if len(ends) != 2:
        raise InputError(f"edge latent key {text!r} is not 'u-v'")
    return tuple(read_vertex_id(p, f"endpoint of edge latent key {text!r}") for p in ends)


def _latents_by_key(table: dict, read: Callable, what: str) -> dict:
    """The latents of ``table`` under their keys as ``read`` reads them.

    Two keys that read as one, such as "1" and "01", are an input error.
    """
    latents, first = {}, {}
    for key, dist in table.items():
        k = read(key)
        if k in first:
            raise InputError(f"{what} keys {first[k]!r} and {key!r} read as one key")
        first[k] = key
        latents[k] = _support(dist, f"{what} {key!r}")
    return latents


def load_joint_spec(path: str):
    """A joint and its rooted tree, from latent-tree or raw-pmf JSON.

    Returns (joint, tree); tree is None for a raw spec without a "tree".  A
    "profile" only picks the tree's root, so it needs a tree.  A field of the
    wrong JSON type is an input error, as is a missing one.
    """
    data = _typed(_json(path), dict, f"{path}: a joint spec")
    profile = None
    if "profile" in data:
        coefficients = _typed(data["profile"], list, f"{path}: 'profile'")
        profile = lipschitz_profile([_fraction_value(c) for c in coefficients])

    if "pmf" in data:
        try:
            spaces = [_symbols(s, "each of 'spaces'") for s in _typed(data["spaces"], list, "'spaces'")]
            members = [{v: v for v in s} for s in spaces]
            pmf, read = {}, {}  # read: each distinct probability string, read once
            for item in _typed(data["pmf"], list, "'pmf'"):
                item = _typed(item, dict, "a pmf entry")
                x = _pmf_point(_typed(item["x"], list, "a pmf entry's 'x'"), members)
                p = item["p"]
                if type(p) is not str:  # 1, 1.0 and True are one key, but not one reading
                    p = _fraction_value(p)
                else:
                    if p not in read:
                        read[p] = _fraction_value(p)
                    p = read[p]
                pmf[x] = pmf[x] + p if x in pmf else p
        except KeyError as exc:
            raise InputError(f"{path}: raw joint spec is missing field {exc}") from exc
        except TypeError as exc:  # a field of the wrong JSON type
            raise InputError(f"{path}: malformed raw joint spec: {exc}") from exc
        if "tree" not in data:
            if profile is not None:
                raise InputError(f"{path}: a 'profile' needs a 'tree' to root")
            return couplingmod.finite_joint(spaces, pmf), None
        dep = graph_from_json_dict(data["tree"])
        prof = profile if profile is not None else coversmod.uniform_profile(dep.n)
        return couplingmod.finite_joint(spaces, pmf, dependency=dep), rooted_order(dep, prof.values)

    if "tree" not in data:
        raise InputError(f"{path}: joint spec needs a 'tree' (or a raw 'pmf') entry")
    g = graph_from_json_dict(data["tree"])
    couplingmod.check_coordinates(g.n)  # before any per-vertex work
    try:
        vertex_latents = _latents_by_key(
            _typed(data["vertex_latents"], dict, "'vertex_latents'"),
            lambda v: read_vertex_id(v, "vertex latent key"),
            "vertex latent",
        )
        edges = _typed(data.get("edge_latents", {}), dict, "'edge_latents'")
        edge_latents = _latents_by_key(edges, _edge_key, "edge latent")
        rules = _typed(data.get("emit", {}), dict, "'emit'")
        vertex_of = {str(v): v for v in g.vertices}
        for key in sorted(rules):  # a key that is no vertex's decimal stays a string
            check_vertex(vertex_of.get(key, key), g.n, "emit rule for vertex")
        emit = {}
        for v in g.vertices:
            rule = _typed(rules.get(str(v), {"kind": "xor"}), dict, f"emit rule {str(v)!r}")
            incident = [e for e in g.edges if v in e]
            emit[v] = _emit_callable(rule.get("kind", "xor"), rule.get("map"), incident)
    except KeyError as exc:
        raise InputError(f"{path}: latent-tree spec is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a field of the wrong JSON type
        raise InputError(f"{path}: malformed latent-tree spec: {exc}") from exc
    spec = couplingmod.latent_tree_spec(g, vertex_latents, edge_latents, emit, profile=profile)
    joint = couplingmod.build_tree_joint(spec)
    if "alphabets" in data:
        try:
            alphabets = _typed(data["alphabets"], list, "'alphabets'")
            declared = [sorted(_symbols(s, "each of 'alphabets'")) for s in alphabets]
        except TypeError as exc:
            raise InputError(f"{path}: malformed 'alphabets': {exc}") from exc
        derived = [sorted(s) for s in joint.spaces]
        if declared != derived:
            raise InputError(
                f"{path}: declared alphabets {declared} do not match the emitted ones {derived}"
            )
    return joint, spec.tree


# ---------------------------------------------------------------------------
# Output

def _emit_output(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands

def _emit_rows(rows, args, to_json_dict, to_csv) -> None:
    if args.format == "csv":
        _emit_output(to_csv(rows), args.out)
    else:
        _emit_output(_json_dumps([to_json_dict(r) for r in rows]), args.out)


def _method_names(text: str | None) -> tuple[str, ...] | None:
    """A --methods list; None (from an empty value or "all") picks the default set."""
    if not text or text == "all":
        return None
    names = tuple(m.strip() for m in text.split(",") if m.strip())
    if not names:
        raise InputError(f"--methods lists no method: {text!r}")
    return names


def _cmd_bounds(args) -> int:
    g = load_graph(args.graph)
    profile = parse_profile_spec(args.c, g.n)
    reports = boundsmod.compare_bounds(
        g,
        profile,
        args.t,
        methods=_method_names(args.methods),
        m=args.m,
        include_mcdiarmid=args.include_mcdiarmid,
        strategy=Strategy(args.strategy),
    )
    _emit_rows(reports, args, boundsmod.report_to_json_dict, boundsmod.reports_to_csv)
    return EXIT_OK


def _cmd_covers(args) -> int:
    g = load_graph(args.graph)
    if args.problem == "chi-f":
        sol = coversmod.fractional_chromatic_number(g)
    elif args.problem == "arboricity":
        sol = coversmod.fractional_vertex_arboricity(g)
    else:
        profile = parse_profile_spec(args.c, g.n)
        sol = coversmod.optimize_decomposable_denominator(g, profile, strategy=Strategy(args.strategy))
    payload = {"problem": args.problem, **coversmod.solution_to_json_dict(sol)}
    _emit_output(_json_dumps(payload), args.out)
    return EXIT_OK


def _parse_t_grid(args) -> list[float]:
    if args.t_grid:
        try:
            start, stop, count = args.t_grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise InputError(f"--t-grid needs 'start:stop:count', got {args.t_grid!r}") from exc
        check_positive(count, "--t-grid count")
        mcmod.check_threshold_count(count)  # before the grid is built
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    try:
        t_grid = [float(x) for x in (args.t or "").split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"--t needs a comma list of numbers, got {args.t!r}") from exc
    if not t_grid:
        raise InputError("simulate needs --t or --t-grid")
    return t_grid


def _cmd_simulate(args) -> int:
    spec = load_sampler_spec(args.spec)
    t_grid = _parse_t_grid(args)
    if args.seed is None:
        raise InputError("simulate requires --seed for reproducibility")
    workers = args.workers if args.workers is not None else _default_workers()
    if not args.validate:
        estimates = mcmod.estimate_tails(
            spec, t_grid, seed=args.seed, n_samples=args.n, workers=workers
        )
        _emit_rows(estimates, args, mcmod.row_to_json_dict, mcmod.estimates_to_csv)
        return EXIT_OK
    rows = mcmod.validate_bounds(
        spec,
        t_grid,
        seed=args.seed,
        n_samples=args.n,
        methods=_method_names(args.methods),
        workers=workers,
    )
    _emit_rows(rows, args, mcmod.row_to_json_dict, mcmod.validation_to_csv)
    failed = [r for r in rows if r.verdict == "FAIL"]
    if failed:
        print(
            f"{len(failed)} bound violation(s), worst at method={failed[0].method}"
            f" t={failed[0].t}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _pair_json(pair) -> list | None:
    return [sorted(pair[0]), sorted(pair[1])] if pair else None


def _cmd_verify(args) -> int:
    joint, tree = load_joint_spec(args.spec)
    if args.what == "dependency":
        g = load_graph(args.graph) if args.graph else joint.dependency
        if g is None:
            raise InputError("verify dependency needs --graph or a spec with a tree")
        report = couplingmod.verify_dependency(joint, g)
        payload = {
            "check": "dependency",
            "deviation": float(report.deviation),
            "worst_pair": _pair_json(report.worst_pair),
            "ok": report.ok(),
        }
    elif tree is None:
        raise InputError("verify coupling needs a spec with a tree")
    else:
        payload = _coupling_payload(joint, tree)
    _emit_output(_json_dumps(payload), args.out)
    return EXIT_OK if payload["ok"] else EXIT_VERIFY


def _coupling_payload(joint, tree) -> dict:
    """Every exact coupling check; ``ok`` only when each deviation is exactly zero."""
    try:
        coupling_dev, indep_dev = couplingmod.verify_all_couplings(joint, tree)
    except couplingmod.DependencyViolation as exc:
        return {
            "check": "coupling",
            "dependency_deviation": float(exc.report.deviation),
            "worst_pair": _pair_json(exc.report.worst_pair),
            "ok": False,
        }
    payload = {
        "check": "coupling",
        "dependency_deviation": 0.0,  # verify_all_couplings raised otherwise
        "coupling_marginal_deviation": float(coupling_dev),
        "independence_deviation": float(indep_dev),
        "ok": coupling_dev == 0 and indep_dev == 0,
    }
    if all(mcmod.finite_number(v) for space in joint.spaces for v in space):
        # swing bound for the coordinate sum, on every numeric alphabet
        f = couplingmod.coordinate_sum(joint.spaces)
        diff_excess = couplingmod.verify_difference_bound(joint, tree, f)
        payload["difference_bound_excess"] = float(diff_excess)
        payload["ok"] = payload["ok"] and diff_excess <= 0
    return payload


# ---------------------------------------------------------------------------
# Parser

def _default_workers() -> int:
    """Worker count from GRAPHTAIL_WORKERS (results never depend on it)."""
    raw = os.environ.get("GRAPHTAIL_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"GRAPHTAIL_WORKERS needs an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``InputError`` (exit 1), not ``SystemExit(2)``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing reads it and never changes it."""
    parser = _Parser(
        prog="graphtail",
        description="Concentration bounds for Lipschitz functions of graph-dependent variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="denominator and tail-bound report")
    p_bounds.add_argument("--graph", required=True, help="graph JSON or edge-list file")
    p_bounds.add_argument("--c", default="uniform:1", help="'uniform:X' or comma list")
    p_bounds.add_argument("--t", type=float, required=True, help="deviation threshold")
    p_bounds.add_argument("--methods", default="all", help="comma list or 'all'")
    p_bounds.add_argument("--m", type=int, default=None, help="m-dependence gap, if any")
    p_bounds.add_argument("--include-mcdiarmid", action="store_true")
    p_bounds.add_argument("--strategy", default="enumerated_lp", choices=[s.value for s in Strategy])
    p_bounds.add_argument("--format", default="csv", choices=("csv", "json"))
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_covers = sub.add_parser("covers", help="fractional cover LPs")
    p_covers.add_argument("problem", choices=("chi-f", "arboricity", "decomposable"))
    p_covers.add_argument("--graph", required=True)
    p_covers.add_argument("--c", default="uniform:1")
    p_covers.add_argument("--strategy", default="enumerated_lp", choices=[s.value for s in Strategy])
    p_covers.add_argument("--out", default=None)
    p_covers.set_defaults(handler=_cmd_covers)

    p_sim = sub.add_parser("simulate", help="sample and estimate tail probabilities")
    p_sim.add_argument("--spec", required=True, help="sampler spec JSON")
    p_sim.add_argument("--t", default=None, help="comma list of thresholds")
    p_sim.add_argument("--t-grid", default=None, help="start:stop:count")
    p_sim.add_argument("--seed", type=int, default=None, required=False)
    p_sim.add_argument("--n", type=int, default=1_000_000)
    p_sim.add_argument("--workers", type=int, default=None, help="default: GRAPHTAIL_WORKERS or 1")
    p_sim.add_argument("--validate", action="store_true", help="compare against analytic bounds")
    p_sim.add_argument("--methods", default=None)
    p_sim.add_argument("--format", default="csv", choices=("csv", "json"))
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="exact coupling / dependency verification")
    p_verify.add_argument("what", choices=("coupling", "dependency"))
    p_verify.add_argument("--spec", required=True, help="joint spec JSON")
    p_verify.add_argument("--graph", default=None, help="graph to verify dependency against")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScaleError as exc:
        print(f"scale error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed stdout raises here, not at shutdown
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # point stdout at devnull, so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
