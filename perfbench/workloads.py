"""Seeded inputs for the three benchmark workloads.

``write_workload(name, seed, directory)`` writes every graph, sampler-spec
and joint-spec file a workload needs, in the command line's documented
formats, and returns the job list: one entry per ``graphtail`` invocation,
with the exit code it must return and what the output check needs to know.
The same seed always gives byte-identical files.  The program under test
only ever sees these files.

Random graphs are drawn as G(n, m) with m = round(p * C(n, 2)): the
fixed-edge-count twin of G(n, p).  It keeps the size of the covering LPs
steadier from seed to seed, so the spread between seeds measures the
program rather than the luck of the draw.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb, sqrt
from pathlib import Path

WHY = {
    "cover-lp": (
        "LP-heavy: bounds on G(n,m) for n=12,14,16 plus chi-f, arboricity and column generation;"
        " exercises covers, _simplex and graph, bypasses montecarlo and coupling"
    ),
    "mc-screen": (
        "sampler-heavy: simulate --validate on four specs incl. threaded and estimated-mean routes;"
        " exercises montecarlo, bypasses the LP and coupling engines"
    ),
    "coupling-exact": (
        "exact engine: verify coupling on a ternary xor path and random tree joints, plus a wrong-graph"
        " negative control; exercises coupling only"
    ),
}
WORKLOADS = tuple(WHY)
# The layers each workload is built to load; the traced run reports their
# share of self time, and the share of the other workloads' target layers.
TARGET_LAYERS = {
    "cover-lp": ("covers", "simplex"),
    "mc-screen": ("montecarlo",),
    "coupling-exact": ("coupling",),
}

# cover-lp: (n, p, graphs per pass) for the bounds jobs.  n=16 is where the
# enumerated LP (about 25k forest columns) dominates; n=18 would take 11-16 s
# per job, too long for a repeatable run.  Pivot counts, and so job times,
# vary up to twofold between graphs of one size; four graphs at n=16 average
# that out better than repeating two.
BOUNDS_SIZES = ((12, 0.3, 2), (14, 0.3, 2), (16, 0.25, 4))
BOUNDS_T = 3
# Column generation on G(22, .2) with a uniform profile: many small
# warm-started re-solves of the exact master.  At n=26-30 (p=.15) about a
# third of the seeds send one re-solve into thousands of degenerate pivots
# (7-47 s per job), which no bound on the seed-to-seed spread could absorb.
COLGEN_SIZE = (22, 0.2)

MC_SAMPLES = 1_000_000
MC_CLAMPED_SAMPLES = 200_000
MC_WORKERS = 2
TREE_SIZE = 60

XOR_PATH_SIZE = 5  # n=6 takes about 200 s per job
RANDOM_JOINT_SIZES = (4, 5, 6)


def write_workload(name: str, seed: int, directory: Path) -> list[dict]:
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    # string seeds hash deterministically, unlike tuples of str under PYTHONHASHSEED
    rng = random.Random(f"{name}:{seed}")
    build = {"cover-lp": _cover_lp, "mc-screen": _mc_screen, "coupling-exact": _coupling_exact}
    jobs = build[name](rng, directory)
    for k, job in enumerate(jobs):
        job["id"] = f"{k:02d}-{job['label']}"
    return jobs


def _write(directory: Path, filename: str, payload) -> str:
    path = directory / filename
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# cover-lp

def _gnm(n: int, p: float, rng: random.Random) -> list[list[int]]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return sorted([list(e) for e in rng.sample(pairs, round(p * comb(n, 2)))])


def _random_profile(n: int, rng: random.Random) -> list[str]:
    """Coefficients k/d with k in 1..8 and d in 1..4, as in the test suite."""
    return [str(Fraction(rng.randint(1, 8), rng.randint(1, 4))) for _ in range(n)]


def _cover_lp(rng: random.Random, directory: Path) -> list[dict]:
    jobs = []
    first_16 = None
    for n, p, count in BOUNDS_SIZES:
        for k in range(count):
            edges = _gnm(n, p, rng)
            profile = _random_profile(n, rng)
            path = _write(directory, f"g{n}_{k}.json", {"n": n, "edges": edges})
            if n == 16 and first_16 is None:
                first_16 = (path, n, edges)
            jobs.append({
                "label": f"bounds-n{n}-{k}",
                "argv": ["bounds", "--graph", path, "--c", ",".join(profile),
                         "--t", str(BOUNDS_T), "--format", "json"],
                "exit": 0,
                "check": {"kind": "bounds", "n": n, "edges": edges, "profile": profile,
                          "t": BOUNDS_T},
            })
    path, n, edges = first_16
    for problem in ("chi-f", "arboricity"):
        jobs.append({
            "label": f"covers-{problem}-n{n}",
            "argv": ["covers", problem, "--graph", path],
            "exit": 0,
            "check": {"kind": "unit_cover", "problem": problem, "n": n, "edges": edges},
        })
    n, p = COLGEN_SIZE
    edges = _gnm(n, p, rng)
    path = _write(directory, f"g{n}_colgen.json", {"n": n, "edges": edges})
    jobs.append({
        "label": f"covers-colgen-n{n}",
        "argv": ["covers", "decomposable", "--graph", path, "--strategy", "column_generation"],
        "exit": 0,
        "check": {"kind": "colgen", "n": n, "edges": edges, "profile": ["1"] * n},
    })
    return jobs


# ---------------------------------------------------------------------------
# mc-screen

def _random_tree(n: int, rng: random.Random) -> list[list[int]]:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return sorted(sorted([order[i], order[rng.randrange(i)]]) for i in range(1, n))


def _forest_t_grid(edges: list[list[int]], coeffs: dict[int, Fraction]) -> list[float]:
    """Thresholds at 1/2, 1 and 3/2 times sqrt of the tree bound's denominator.

    The bound there is exp(-1/2), exp(-2) and exp(-9/2): far enough above the
    Clopper-Pearson limit of an empty sample that a correct program passes.
    """
    den = sum((coeffs[u] + coeffs[v]) ** 2 for u, v in edges) + min(coeffs.values()) ** 2
    return [round(a * sqrt(den), 6) for a in (0.5, 1.0, 1.5)]


def _simulate_job(label, path, t_grid, seed, samples, workers=1) -> dict:
    return {
        "label": label,
        "argv": ["simulate", "--spec", path, "--t", ",".join(repr(float(t)) for t in t_grid),
                 "--seed", str(seed), "--n", str(samples), "--validate",
                 "--workers", str(workers), "--format", "json"],
        "exit": 0,
        "check": {"kind": "validate", "t": [float(t) for t in t_grid], "samples": samples},
    }


def _mc_screen(rng: random.Random, directory: Path) -> list[dict]:
    jobs = []
    bf = _write(directory, "block_factor.json", {
        "model": "block_factor", "n": 200, "k": 3, "combine": "max",
        "dist": {"kind": "uniform", "lo": 0, "hi": 1},
    })
    # m-dependent denominator for n=200, k=3, max: 99 * (2+2)^2 + 2^2 = 1588
    jobs.append(_simulate_job("simulate-block-n200", bf, [10, 20, 40],
                              rng.randrange(2**31), MC_SAMPLES, MC_WORKERS))

    n = TREE_SIZE
    edges = _random_tree(n, rng)
    degree = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    graph = {"n": n, "edges": edges}
    latents = [{"scope": [v], "dist": {"kind": "uniform", "lo": 0, "hi": 1}}
               for v in range(1, n + 1)]
    latents += [{"scope": e, "dist": {"kind": "bernoulli", "p": f"{rng.randint(1, 7)}/8"}}
                for e in edges]
    tree = _write(directory, "tree.json",
                  {"model": "latent_graph", "graph": graph, "latents": latents, "emit": "sum"})
    natural = {v: Fraction(1 + degree[v]) for v in degree}
    jobs.append(_simulate_job(f"simulate-tree-n{n}", tree, _forest_t_grid(edges, natural),
                              rng.randrange(2**31), MC_SAMPLES))

    # Declared output ranges a quarter inside the natural ones: the clamp
    # disables the analytic mean, so the estimated-mean pass runs.
    emit = {str(v): {"kind": "sum", "range": ["1/4", str(degree[v] + Fraction(3, 4))]}
            for v in degree}
    clamped = _write(directory, "tree_clamped.json",
                     {"model": "latent_graph", "graph": graph, "latents": latents, "emit": emit})
    narrowed = {v: Fraction(degree[v]) + Fraction(1, 2) for v in degree}
    jobs.append(_simulate_job(f"simulate-tree-n{n}-clamped", clamped,
                              _forest_t_grid(edges, narrowed),
                              rng.randrange(2**31), MC_CLAMPED_SAMPLES))

    # The README's example: a triangle of dependent variables plus six free ones.
    uniform01 = {"kind": "uniform", "lo": 0, "hi": 1}
    triangle = _write(directory, "triangle9.json", {
        "model": "latent_graph",
        "graph": {"n": 9, "edges": [[1, 2], [1, 3], [2, 3]]},
        "latents": [{"scope": [1, 2, 3], "dist": uniform01}]
        + [{"scope": [v], "dist": uniform01} for v in range(4, 10)],
        "emit": "sum",
    })
    jobs.append(_simulate_job("simulate-triangle-n9", triangle, [1, 2, 3, 4],
                              rng.randrange(2**31), MC_SAMPLES))
    return jobs


# ---------------------------------------------------------------------------
# coupling-exact

def _finite_dist(size: int, rng: random.Random) -> list[tuple[int, Fraction]]:
    weights = [rng.randint(1, 4) for _ in range(size)]
    total = sum(weights)
    return [(v, Fraction(w, total)) for v, w in enumerate(weights)]


def _dist_json(dist) -> dict:
    return {"values": [v for v, _ in dist], "probs": [str(p) for _, p in dist]}


def _random_raw_joint(n: int, rng: random.Random) -> dict:
    """A latent-tree joint with random emit tables, written as an explicit pmf.

    Vertex and edge latents are independent, and each coordinate reads only
    its own vertex latent and the latents of its incident edges, so the
    joint is dependent along the tree by construction.
    """
    edges = _random_tree(n, rng)
    max_alphabet = 4 if n <= 4 else (3 if n == 5 else 2)
    vertex = {v: _finite_dist(rng.randint(2, 3), rng) for v in range(1, n + 1)}
    edge = {tuple(e): _finite_dist(rng.randint(2, 3), rng) for e in edges}
    incident = {v: [tuple(e) for e in edges if v in e] for v in vertex}
    tables = {}
    for v in vertex:
        out_size = rng.randint(2, max_alphabet)
        ranges = [range(len(vertex[v]))] + [range(len(edge[e])) for e in incident[v]]
        tables[v] = {key: rng.randrange(out_size) for key in itertools.product(*ranges)}
    edge_keys = list(edge)
    pmf: dict[tuple, Fraction] = {}
    for vs in itertools.product(*(vertex[v] for v in vertex)):
        for es in itertools.product(*(edge[e] for e in edge_keys)):
            p = Fraction(1)
            for _, q in vs + es:
                p *= q
            ev = {e: val for e, (val, _) in zip(edge_keys, es)}
            x = tuple(
                tables[v][(vs[v - 1][0],) + tuple(ev[e] for e in incident[v])] for v in vertex
            )
            pmf[x] = pmf.get(x, Fraction(0)) + p
    spaces = [sorted({x[k] for x in pmf}) for k in range(n)]
    return {
        "spaces": spaces,
        "pmf": [{"x": list(x), "p": str(p)} for x, p in sorted(pmf.items())],
        "tree": {"n": n, "edges": edges},
    }


def _ternary_eighths(rng: random.Random) -> dict:
    """Probabilities a/8, b/8, c/8 with a + b + c = 8, all positive.

    A common denominator keeps the exact arithmetic the same size on every
    seed, so the xor path's cost depends on its shape, not on the draw.
    """
    a, b = sorted(rng.sample(range(1, 8), 2))
    return _dist_json(list(enumerate(Fraction(w, 8) for w in (a, b - a, 8 - b))))


def _coupling_exact(rng: random.Random, directory: Path) -> list[dict]:
    n = XOR_PATH_SIZE
    path_edges = [[v, v + 1] for v in range(1, n)]
    xor_path = _write(directory, f"xor_path{n}.json", {
        "tree": {"n": n, "edges": path_edges},
        "vertex_latents": {str(v): _ternary_eighths(rng) for v in range(1, n + 1)},
        "edge_latents": {f"{u}-{v}": _ternary_eighths(rng) for u, v in path_edges},
        "emit": {str(v): {"kind": "xor"} for v in range(1, n + 1)},
    })
    jobs = [{
        "label": f"verify-coupling-xor{n}",
        "argv": ["verify", "coupling", "--spec", xor_path],
        "exit": 0,
        "check": {"kind": "coupling"},
    }]
    for k, size in enumerate(RANDOM_JOINT_SIZES):
        path = _write(directory, f"raw_joint{k}_n{size}.json", _random_raw_joint(size, rng))
        jobs.append({
            "label": f"verify-coupling-raw-n{size}",
            "argv": ["verify", "coupling", "--spec", path],
            "exit": 0,
            "check": {"kind": "coupling"},
        })
    # Negative control: the xor path's coordinates share edge latents, so an
    # edgeless dependency graph is a false declaration and must be rejected.
    empty = _write(directory, f"edgeless{n}.json", {"n": n, "edges": []})
    jobs.append({
        "label": f"verify-dependency-wrong-graph-n{n}",
        "argv": ["verify", "dependency", "--spec", xor_path, "--graph", empty],
        "exit": 3,
        "check": {"kind": "negative_dependency"},
    })
    return jobs
