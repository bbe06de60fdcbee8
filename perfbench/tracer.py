"""Boundary spans for the traced run, recorded from the benchmark's own code.

``Tracer.install()`` replaces each layer's public functions by a wrapper
that records a span: name, start, end, parent span and job id.  It patches
the name where callers look it up: the module attribute for calls written
``graphmod.is_acyclic_subset(...)``, the importing module's global for names
brought in with ``from .x import y``, and the class attribute for ``CoverLp``
methods.  ``uninstall()`` restores every original, so untraced runs execute
the program exactly as shipped.  Spans stay in memory until ``summarize``.

A span's layer is the part of its name before the first dot.  Its self time
is its duration minus the durations of its child spans; the program calls
every wrapped function from one thread, so children nest and never overlap.
"""

import functools
import gzip
import inspect
import json
import math
import time
from collections import Counter

import graphtail._simplex as simplexmod
import graphtail.bounds as boundsmod
import graphtail.cli as climod
import graphtail.coupling as couplingmod
import graphtail.covers as coversmod
import graphtail.graph as graphmod
import graphtail.montecarlo as mcmod

LAYERS = ("cli", "bounds", "covers", "simplex", "graph", "montecarlo", "coupling")

# (owner, attribute, span name) for every plain boundary.
BOUNDARIES = [
    (climod, "load_graph", "cli.load"),
    (climod, "parse_profile_spec", "cli.load"),
    (climod, "load_sampler_spec", "cli.load"),
    (climod, "load_joint_spec", "cli.load"),
    (climod, "graph_from_json_dict", "graph.graph_from_json_dict"),
    (climod, "parse_edge_list", "graph.parse_edge_list"),
    (climod, "rooted_order", "graph.rooted_order"),
    (boundsmod, "compare_bounds", "bounds.compare_bounds"),
    (boundsmod, "mcdiarmid_denominator", "bounds.mcdiarmid_denominator"),
    (boundsmod, "janson_denominator", "bounds.janson_denominator"),
    (boundsmod, "forest_denominator", "bounds.forest_denominator"),
    (boundsmod, "decomposable_denominator", "bounds.decomposable_denominator"),
    (boundsmod, "m_dependent_denominator", "bounds.m_dependent_denominator"),
    (boundsmod, "tail_bound", "bounds.tail_bound"),
    (boundsmod, "report_to_json_dict", "bounds.report_to_json_dict"),
    (boundsmod, "reports_to_csv", "bounds.reports_to_csv"),
    (coversmod, "part_cost_radicand", "covers.part_cost_radicand"),
    (coversmod, "fractional_vertex_arboricity", "covers.fractional_vertex_arboricity"),
    (coversmod, "greedy_forest_partition", "covers.greedy_forest_partition"),
    (coversmod, "cover_to_json_dict", "covers.cover_to_json_dict"),
    (coversmod, "solve_min_cover_lp", "simplex.solve_min_cover_lp"),
    (simplexmod.CoverLp, "__init__", "simplex.init"),
    (simplexmod.CoverLp, "add_column", "simplex.add_column"),
    (graphmod, "is_acyclic_subset", "graph.is_acyclic_subset"),
    (graphmod, "edges_within", "graph.edges_within"),
    (graphmod, "components_within", "graph.components_within"),
    (graphmod, "classify", "graph.classify"),
    (graphmod, "build_graph", "graph.build_graph"),
    (mcmod, "classify", "graph.classify"),
    (mcmod, "validate_bounds", "montecarlo.validate_bounds"),
    (mcmod, "resolve_methods", "montecarlo.resolve_methods"),
    (mcmod, "binomial_upper_ci", "montecarlo.binomial_upper_ci"),
    (mcmod, "validation_to_csv", "montecarlo.validation_to_csv"),
    (mcmod, "estimates_to_csv", "montecarlo.estimates_to_csv"),
    (couplingmod, "rooted_order", "graph.rooted_order"),
    (couplingmod, "finite_joint", "coupling.finite_joint"),
    (couplingmod, "latent_tree_spec", "coupling.latent_tree_spec"),
    (couplingmod, "build_tree_joint", "coupling.build_tree_joint"),
    (couplingmod, "verify_dependency", "coupling.verify_dependency"),
    (couplingmod, "verify_all_couplings", "coupling.verify_all_couplings"),
    (couplingmod, "build_coupling", "coupling.build_coupling"),
    (couplingmod, "verify_coupling_marginals", "coupling.verify_coupling_marginals"),
    (couplingmod, "relabel_joint", "coupling.relabel_joint"),
    (couplingmod, "verify_independence_lemma", "coupling.verify_independence_lemma"),
    (couplingmod, "verify_difference_bound", "coupling.verify_difference_bound"),
    (couplingmod, "lipschitz_function", "coupling.lipschitz_function"),
]

JOINT_BUILD = ("coupling.finite_joint", "coupling.latent_tree_spec", "coupling.build_tree_joint")
LEMMAS = (
    "coupling.verify_independence_lemma",
    "coupling.verify_difference_bound",
    "coupling.lipschitz_function",
)
COVERS_ITEMIZED = ("covers.enumerate", "covers.part_cost_radicand")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.chi_f_graphs: set = set()
        self.chunk_bytes = 0
        self._mean_estimated = False
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span around each call; hooks see the arguments and result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(token, result, rec)
            return result

        return traced

    def wrap_generator(self, name, fn, per_item):
        """A span around each step of a generator; the caller runs between steps."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                per_item()
                yield item

        return traced

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._install_counted()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install_counted(self) -> None:
        """Boundaries whose counters need the call's arguments."""
        counts = self.counts

        def count_columns(token, result, rec):
            counts["covers.columns"] += len(result)

        for attr in ("enumerate_induced_forests", "enumerate_independent_sets"):
            self._patch(coversmod, attr, self.wrap(
                "covers.enumerate", getattr(coversmod, attr), after=count_columns))

        def solve_before(args, kwargs):
            return args[0].iterations

        def solve_after(before, result, rec):
            counts["simplex.iterations"] += result.iterations - before

        self._patch(simplexmod.CoverLp, "solve", self.wrap(
            "simplex.solve", simplexmod.CoverLp.solve, solve_before, solve_after))

        chi_f = coversmod.fractional_chromatic_number

        def chi_f_before(args, kwargs):
            g = _bind(chi_f, args, kwargs)["g"]
            self.chi_f_graphs.add((self.job, g.n, g.edges))

        self._patch(coversmod, "fractional_chromatic_number",
                    self.wrap("covers.fractional_chromatic_number", chi_f, chi_f_before))

        optimize = coversmod.optimize_decomposable_denominator

        def optimize_before(args, kwargs):
            strategy = _bind(optimize, args, kwargs).get("strategy", coversmod.Strategy.ENUMERATED_LP)
            return strategy is coversmod.Strategy.COLUMN_GENERATION

        def optimize_after(colgen, result, rec):
            if colgen:
                counts["covers.colgen_s"] += rec[2] - rec[1]

        self._patch(coversmod, "optimize_decomposable_denominator", self.wrap(
            "covers.optimize_decomposable_denominator", optimize, optimize_before, optimize_after))

        estimate = mcmod.estimate_tails

        def estimate_before(args, kwargs):
            bound = _bind(estimate, args, kwargs)
            self._mean_estimated = False
            self.chunk_bytes = max(self.chunk_bytes, bound["spec"].n * mcmod.CHUNK * 8)
            return bound["n_samples"]

        def estimate_after(n_samples, result, rec):
            passes = [n_samples]
            if self._mean_estimated:
                passes.append(mcmod.MEAN_PASS_FACTOR * n_samples)
                counts["montecarlo.estimated_mean_jobs"] += 1
            counts["montecarlo.samples"] += sum(passes)
            counts["montecarlo.chunks"] += sum(math.ceil(m / mcmod.CHUNK) for m in passes)

        self._patch(mcmod, "estimate_tails", self.wrap(
            "montecarlo.estimate_tails", estimate, estimate_before, estimate_after))

        def mean_after(token, result, rec):
            if result is None:
                self._mean_estimated = True

        self._patch(mcmod, "analytic_mean", self.wrap(
            "montecarlo.analytic_mean", mcmod.analytic_mean, after=mean_after))

        def one_context():
            counts["coupling.contexts"] += 1

        self._patch(couplingmod, "all_coupling_contexts", self.wrap_generator(
            "coupling.all_coupling_contexts", couplingmod.all_coupling_contexts, one_context))

    def root(self, fn):
        """The per-job root span, around the benchmark's own call into the CLI."""
        return self.wrap("cli.run", fn)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)

    def summarize(self, job_wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics from the spans of one traced pass, and self time by layer."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        denominator_s = 0.0
        for k, (name, start, end, parent, job) in enumerate(self.spans):
            dur = end - start
            own = dur - child[k]
            calls[name] += 1
            total[name] += dur
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            if (name.startswith("bounds.") and parent >= 0
                    and self.spans[parent][0] == "montecarlo.validate_bounds"):
                denominator_s += dur
        all_self = sum(self_by_layer.values())
        counts = self.counts
        estimate_s = total["montecarlo.estimate_tails"]
        chi_f_calls = calls["covers.fractional_chromatic_number"]
        m = {
            "covers.enumerate_s": total["covers.enumerate"],
            "covers.columns": counts["covers.columns"],
            "covers.part_cost_s": total["covers.part_cost_radicand"],
            "covers.part_cost_calls": calls["covers.part_cost_radicand"],
            "covers.self_s": self_by_layer["covers"] - sum(self_by_name[k] for k in COVERS_ITEMIZED),
            "covers.colgen_s": counts["covers.colgen_s"],
            "covers.chi_f_calls": chi_f_calls,
            "covers.chi_f_useful_ratio": len(self.chi_f_graphs) / chi_f_calls if chi_f_calls else 0.0,
            "simplex.solve_s": total["simplex.solve"],
            "simplex.solves": calls["simplex.solve"],
            "simplex.iterations": counts["simplex.iterations"],
            "simplex.columns_added": calls["simplex.add_column"],
            "simplex.self_s": self_by_layer["simplex"],
            "graph.self_s": self_by_layer["graph"],
            "graph.acyclic_checks": calls["graph.is_acyclic_subset"],
            "bounds.self_s": self_by_layer["bounds"],
            "montecarlo.estimate_s": estimate_s,
            "montecarlo.samples": counts["montecarlo.samples"],
            "montecarlo.samples_per_s": counts["montecarlo.samples"] / estimate_s if estimate_s else 0.0,
            "montecarlo.chunks": counts["montecarlo.chunks"],
            "montecarlo.estimated_mean_jobs": counts["montecarlo.estimated_mean_jobs"],
            "montecarlo.chunk_bytes": self.chunk_bytes,
            "montecarlo.denominator_s": denominator_s,
            "montecarlo.ci_s": total["montecarlo.binomial_upper_ci"],
            "montecarlo.self_s": self_by_layer["montecarlo"],
            "coupling.contexts": counts["coupling.contexts"],
            "coupling.relabel_calls": calls["coupling.relabel_joint"],
            "coupling.relabel_s": total["coupling.relabel_joint"],
            "coupling.build_s": total["coupling.build_coupling"],
            "coupling.marginals_s": total["coupling.verify_coupling_marginals"],
            "coupling.dependency_checks": calls["coupling.verify_dependency"],
            "coupling.dependency_s": total["coupling.verify_dependency"],
            "coupling.joint_build_s": sum(total[k] for k in JOINT_BUILD),
            "coupling.lemma_s": sum(total[k] for k in LEMMAS),
            "coupling.self_s": self_by_layer["coupling"],
            "cli.load_s": self_by_name["cli.load"],
            "cli.self_s": self_by_name["cli.run"],
            # the root's own time is what no layer boundary explains
            "trace.coverage": (all_self - self_by_name["cli.run"]) / job_wall_s,
            "trace.spans": n,
        }
        return m, {layer: self_by_layer[layer] for layer in LAYERS}


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return bound.arguments
