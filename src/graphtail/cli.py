"""Command-line front door.

Subcommands: ``bounds`` (denominator/bound reports for a graph and profile),
``covers`` (fractional cover LPs), ``simulate`` (tail estimation and bound
validation), ``verify`` (exact coupling / dependency checks).  Machine
output (JSON or CSV) goes to stdout or --out; diagnostics go to stderr.

Exit codes: 0 success, 1 input or usage error, 2 scale error, 3 verification
failure (a nonzero coupling or dependency deviation, an empirically violated
bound, or an internal exact check that failed), so pipelines can use the
tool as a test oracle.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as boundsmod
from . import coupling as couplingmod
from . import covers as coversmod
from . import montecarlo as mcmod
from .covers import LipschitzProfile, Strategy, lipschitz_profile
from .errors import InputError, ScaleError, VerificationError
from .graph import Graph, graph_from_json_dict, parse_edge_list, rooted_order

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCALE = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# Input parsing

def load_graph(path: str) -> Graph:
    text = _read(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: malformed JSON: {exc}") from exc
        return graph_from_json_dict(data)
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
    if len(values) != n:
        raise InputError(f"coefficient list has {len(values)} entries, graph has {n} vertices")
    return lipschitz_profile(values)


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    return p.read_text()


def _fraction_value(x) -> Fraction:
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read {x!r} as an exact number") from exc


def _dist_from_json(data: dict) -> mcmod.Dist:
    kind = data.get("kind")
    try:
        if kind == "uniform":
            return mcmod.uniform(_fraction_value(data["lo"]), _fraction_value(data["hi"]))
        if kind == "bernoulli":
            values = tuple(data.get("values", (0, 1)))
            return mcmod.bernoulli(_fraction_value(data["p"]), values)
        if kind == "discrete":
            return mcmod.discrete(
                [_json_symbol(v) for v in data["values"]],
                [_fraction_value(p) for p in data["probs"]],
            )
    except KeyError as exc:
        raise InputError(f"latent distribution {data!r} is missing field {exc}") from exc
    raise InputError(f"unknown latent distribution kind {kind!r}")


def _json_symbol(v):
    return int(v) if isinstance(v, (int, float)) and float(v).is_integer() else v


def load_sampler_spec(path: str) -> mcmod.SamplerSpec:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    model = data.get("model")
    try:
        if model == mcmod.BLOCK_FACTOR:
            return mcmod.block_factor_spec(
                n=int(data["n"]),
                k=int(data["k"]),
                dist=_dist_from_json(data["dist"]),
                combine=data.get("combine", "sum"),
            )
        if model == mcmod.LATENT_GRAPH:
            g = graph_from_json_dict(data["graph"])
            latents = [
                (tuple(int(v) for v in item["scope"]), _dist_from_json(item["dist"]))
                for item in data["latents"]
            ]
            emit = data.get("emit", "sum")
            if isinstance(emit, dict):
                emit = {
                    int(v): mcmod.EmitRule(
                        kind=rule.get("kind", "sum"),
                        clamp=(
                            (_fraction_value(rule["range"][0]), _fraction_value(rule["range"][1]))
                            if "range" in rule
                            else None
                        ),
                    )
                    for v, rule in emit.items()
                }
            return mcmod.latent_graph_spec(g, latents, emit=emit)
    except KeyError as exc:
        raise InputError(f"{path}: sampler spec is missing field {exc}") from exc
    raise InputError(f"sampler spec needs model 'latent_graph' or 'block_factor', got {model!r}")


def _emit_callable(kind: str, table: dict | None, incident_edges: list):
    edges = sorted(incident_edges)
    if kind == "xor":
        def fn(xi, ev):
            out = int(xi)
            for e in edges:
                out ^= int(ev[e])
            return out
        return fn
    if kind == "sum":
        def fn(xi, ev):
            return xi + sum(ev[e] for e in edges)
        return fn
    if kind == "table":
        if table is None:
            raise InputError("table emit needs a 'map' entry")
        parsed = {}
        for key, val in table.items():
            parts = tuple(int(p) for p in str(key).split(","))
            parsed[parts] = _json_symbol(val)
        def fn(xi, ev):
            key = (int(xi),) + tuple(int(ev[e]) for e in edges)
            if key not in parsed:
                raise InputError(f"emit table has no entry for latent combination {key}")
            return parsed[key]
        return fn
    raise InputError(f"unknown emit kind {kind!r} (choose xor, sum or table)")


def load_joint_spec(path: str):
    """A joint plus its tree and profile, from latent-tree or raw-pmf JSON.

    Returns (joint, tree, profile); tree/profile may be None for raw form
    without a "tree" entry.
    """
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc

    profile = None
    if "profile" in data:
        profile = lipschitz_profile([_fraction_value(c) for c in data["profile"]])

    if "pmf" in data:
        try:
            spaces = [[_json_symbol(v) for v in s] for s in data["spaces"]]
            pmf = {}
            for item in data["pmf"]:
                x = tuple(_json_symbol(v) for v in item["x"])
                pmf[x] = pmf.get(x, Fraction(0)) + _fraction_value(item["p"])
        except KeyError as exc:
            raise InputError(f"{path}: raw joint spec is missing field {exc}") from exc
        dep = graph_from_json_dict(data["tree"]) if "tree" in data else None
        joint = couplingmod.finite_joint(spaces, pmf, dependency=dep)
        tree = None
        if dep is not None:
            prof = profile if profile is not None else coversmod.uniform_profile(dep.n)
            tree = rooted_order(dep, dep.vertices, prof.values)
        return joint, tree, profile

    if "tree" not in data:
        raise InputError(f"{path}: joint spec needs a 'tree' (or a raw 'pmf') entry")
    g = graph_from_json_dict(data["tree"])
    if profile is None:
        profile = coversmod.uniform_profile(g.n)
    try:
        vertex_latents = {}
        for v_str, dist in data["vertex_latents"].items():
            vertex_latents[int(v_str)] = list(
                zip(
                    [_json_symbol(v) for v in dist["values"]],
                    [_fraction_value(p) for p in dist["probs"]],
                )
            )
        edge_latents = {}
        for e_str, dist in data.get("edge_latents", {}).items():
            u, w = (int(p) for p in e_str.replace("-", ",").split(","))
            key = (u, w) if u < w else (w, u)
            edge_latents[key] = list(
                zip(
                    [_json_symbol(v) for v in dist["values"]],
                    [_fraction_value(p) for p in dist["probs"]],
                )
            )
        emit = {}
        for v in g.vertices:
            rule = data.get("emit", {}).get(str(v), {"kind": "xor"})
            incident = [e for e in g.edges if v in e]
            emit[v] = _emit_callable(rule.get("kind", "xor"), rule.get("map"), incident)
    except KeyError as exc:
        raise InputError(f"{path}: latent-tree spec is missing field {exc}") from exc
    spec = couplingmod.latent_tree_spec(g, vertex_latents, edge_latents, emit, profile=profile)
    joint = couplingmod.build_tree_joint(spec)
    if "alphabets" in data:
        declared = [sorted(_json_symbol(v) for v in s) for s in data["alphabets"]]
        derived = [sorted(s) for s in joint.spaces]
        if declared != derived:
            raise InputError(
                f"{path}: declared alphabets {declared} do not match the emitted ones {derived}"
            )
    return joint, spec.tree, profile


# ---------------------------------------------------------------------------
# Output

def _emit_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
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
        cap=args.cap,
    )
    _emit_rows(reports, args, boundsmod.report_to_json_dict, boundsmod.reports_to_csv)
    return EXIT_OK


def _cmd_covers(args) -> int:
    g = load_graph(args.graph)
    if args.problem == "chi-f":
        sol = coversmod.fractional_chromatic_number(g, cap=args.cap)
    elif args.problem == "arboricity":
        sol = coversmod.fractional_vertex_arboricity(g, cap=args.cap)
    else:
        profile = parse_profile_spec(args.c, g.n)
        sol = coversmod.optimize_decomposable_denominator(
            g, profile, strategy=Strategy(args.strategy), cap=args.cap
        )
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
        if count < 1:
            raise InputError("--t-grid count must be >= 1")
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
    if not args.validate:
        estimates = mcmod.estimate_tails(
            spec, t_grid, seed=args.seed, n_samples=args.n, workers=args.workers
        )
        _emit_rows(estimates, args, mcmod.row_to_json_dict, mcmod.estimates_to_csv)
        return EXIT_OK
    rows = mcmod.validate_bounds(
        spec,
        t_grid,
        seed=args.seed,
        n_samples=args.n,
        methods=_method_names(args.methods),
        workers=args.workers,
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
    joint, tree, _ = load_joint_spec(args.spec)
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
        coupling_dev = couplingmod.verify_all_couplings(joint, tree)
    except couplingmod.DependencyViolation as exc:
        return {
            "check": "coupling",
            "dependency_deviation": float(exc.report.deviation),
            "worst_pair": _pair_json(exc.report.worst_pair),
            "ok": False,
        }
    indep_dev = max(
        (couplingmod.verify_independence_lemma(joint, tree, i) for i in range(1, joint.n)),
        default=Fraction(0),
    )
    payload = {
        "check": "coupling",
        "dependency_deviation": 0.0,  # verify_all_couplings raised otherwise
        "coupling_marginal_deviation": float(coupling_dev),
        "independence_deviation": float(indep_dev),
        "ok": coupling_dev == 0 and indep_dev == 0,
    }
    numeric = all(
        all(isinstance(v, (int, Fraction)) for v in space) for space in joint.spaces
    )
    if numeric:
        # swing bound for the coordinate sum (skipped for symbolic alphabets)
        f = couplingmod.lipschitz_function(
            joint.spaces, lambda x: sum(Fraction(v) for v in x), None
        )
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
        return max(1, int(raw))
    except ValueError:
        return 1


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``InputError`` (exit 1), not ``SystemExit(2)``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
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
    p_bounds.add_argument("--cap", type=int, default=coversmod.DEFAULT_COLUMN_CAP)
    p_bounds.add_argument("--format", default="csv", choices=("csv", "json"))
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_covers = sub.add_parser("covers", help="fractional cover LPs")
    p_covers.add_argument("problem", choices=("chi-f", "arboricity", "decomposable"))
    p_covers.add_argument("--graph", required=True)
    p_covers.add_argument("--c", default="uniform:1")
    p_covers.add_argument("--strategy", default="enumerated_lp", choices=[s.value for s in Strategy])
    p_covers.add_argument("--cap", type=int, default=coversmod.DEFAULT_COLUMN_CAP)
    p_covers.add_argument("--out", default=None)
    p_covers.set_defaults(handler=_cmd_covers)

    p_sim = sub.add_parser("simulate", help="sample and estimate tail probabilities")
    p_sim.add_argument("--spec", required=True, help="sampler spec JSON")
    p_sim.add_argument("--t", default=None, help="comma list of thresholds")
    p_sim.add_argument("--t-grid", default=None, help="start:stop:count")
    p_sim.add_argument("--seed", type=int, default=None, required=False)
    p_sim.add_argument("--n", type=int, default=1_000_000)
    p_sim.add_argument("--workers", type=int, default=_default_workers())
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
    sys.exit(run())


if __name__ == "__main__":
    main()
