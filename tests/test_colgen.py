"""Column generation, pinned: the columns it picks and the CLI output it prints.

For each seeded graph in ``CASES`` the recording holds the parts column
generation adds to the master, in order, and the stdout of
``covers decomposable --strategy column_generation``.  Rerun
``python tests/test_colgen.py`` to rewrite ``tests/data/colgen_pins.json``,
and only when a change to the picked columns is intended.

``per_part_pricing`` is the pricer as a plain loop over the parts, one
reduced cost at a time; the array pricer must pick what it picks, round by
round.
"""

import hashlib
import itertools
import json
import random
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from math import comb
from pathlib import Path

import pytest

from conftest import random_profile
from graphtail import cli, covers
from graphtail import graph as graphmod
from graphtail._simplex import CoverLp, members
from graphtail.covers import Strategy, optimize_decomposable_denominator
from graphtail.graph import build_graph

PINS = Path(__file__).resolve().parent / "data" / "colgen_pins.json"


def _gnm(n: int, p: float, rng: random.Random) -> list[list[int]]:
    """G(n, m) with m = round(p * C(n, 2)), edges sorted."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return sorted(list(e) for e in rng.sample(pairs, round(p * comb(n, 2))))


def _random_profile(n: int, rng: random.Random) -> str:
    return ",".join(f"{rng.randint(1, 8)}/{rng.randint(1, 4)}" for _ in range(n))


def _case(n: int, p: float, seed: int, random_profile: bool = False) -> tuple[int, list, str]:
    rng = random.Random(seed)
    edges = _gnm(n, p, rng)
    return n, edges, _random_profile(n, rng) if random_profile else "uniform:1"


CASES = {
    "g22-uniform": _case(22, 0.2, 22),
    "g16-random": _case(16, 0.3, 16, random_profile=True),
    "g30-uniform": _case(30, 0.15, 1),
    # ties everywhere: every vertex and every edge look alike
    "k44-uniform": (8, [[u, v] for u in range(1, 5) for v in range(5, 9)], "uniform:1"),
    "c8-uniform": (8, [[v, v % 8 + 1] for v in range(1, 9)], "uniform:1"),
}


def run_column_generation(name: str, directory: Path) -> tuple[list[list[int]], str, int]:
    """The parts added to the master in order, the stdout and the exit code of one case."""
    n, edges, profile = CASES[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    picks = []
    add_column = CoverLp.add_column

    def recorded(self, column, cost):
        picks.append(members(column))
        return add_column(self, column, cost)

    CoverLp.add_column = recorded
    try:
        out = StringIO()
        with redirect_stdout(out):
            code = cli.run(["covers", "decomposable", "--graph", str(path), "--c", profile,
                            "--strategy", "column_generation"])
    finally:
        CoverLp.add_column = add_column
    return picks, out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_picks_and_stdout_match_recording(name, tmp_path):
    pinned = json.loads(PINS.read_text())[name]
    picks, stdout, code = run_column_generation(name, tmp_path)
    assert code == 0
    assert picks == pinned["picks"]
    assert stdout == pinned["stdout"]


def test_wide_graph_picks_and_prints_as_recorded(tmp_path, monkeypatch):
    """Vertex 63 and up do not fit an int64 mask; 64 vertices still pick and print as recorded.

    The digest is the sha256 of the picks and stdout as the frozenset-column
    master recorded them, before columns were bitmasks.
    """
    monkeypatch.setitem(CASES, "g64-uniform", _case(64, 0.005, 64))
    picks, stdout, code = run_column_generation("g64-uniform", tmp_path)
    assert code == 0
    assert max(map(max, picks)) >= 63
    recorded = json.dumps({"picks": picks, "stdout": stdout}).encode()
    digest = "d36f8820f9097d11b1c7ecbf40bf65485ba28632a90f4dc3d0ee26fce4abb3f8"
    assert hashlib.sha256(recorded).hexdigest() == digest


def per_part_pricing(g, c, duals, cache):
    """The pricer as a loop: every part of up to 3 vertices, then local search from 3 seeds."""
    y = [float(d) for d in duals]

    def reduced(part):
        cost = cache.get(part)
        if cost is None:
            cost = cache[part] = covers._part_cost_float(g, part, c)
        return cost - sum(y[v - 1] for v in part)

    best = {}
    verts = list(g.vertices)
    for size in range(1, min(3, g.n) + 1):
        for combo in itertools.combinations(verts, size):
            part = frozenset(combo)
            if part in cache or graphmod.is_acyclic_subset(g, part):
                best[part] = reduced(part)
    seeds = sorted(best, key=lambda p: best[p])[:3]
    for seed in seeds:
        current, value = seed, best[seed]
        improved = True
        while improved:
            improved = False
            for v in g.vertices:
                if v in current:
                    cand = current - {v}
                    if not cand:
                        continue
                else:
                    cand = current | {v}
                    if not graphmod.is_acyclic_subset(g, cand):
                        continue
                r = reduced(cand)
                if r < value - 1e-12:
                    current, value, improved = cand, r, True
            best[current] = value
    winner = min(best, key=lambda p: best[p])
    return winner if best[winner] < -1e-9 else None


def _pricing_rounds(g, profile, monkeypatch):
    """(array pick, loop pick) per pricing round of one column-generation search."""
    price = covers._price_forest_column
    loop_cache = {}
    rounds = []

    def both(g, c, small, duals, cache):
        picked = price(g, c, small, duals, cache)
        rounds.append((picked, per_part_pricing(g, c, duals, loop_cache)))
        return picked

    monkeypatch.setattr(covers, "_price_forest_column", both)
    optimize_decomposable_denominator(g, profile, strategy=Strategy.COLUMN_GENERATION)
    monkeypatch.undo()
    return rounds


def _iteration_order(part):
    return None if part is None else tuple(part)


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_pricing_picks_what_the_loop_picks(name, monkeypatch):
    n, edges, profile = CASES[name]
    rounds = _pricing_rounds(build_graph(n, edges), cli.parse_profile_spec(profile, n), monkeypatch)
    assert rounds
    for picked, expected in rounds:
        assert _iteration_order(picked) == _iteration_order(expected)


@pytest.mark.parametrize("seed", range(6))
def test_array_pricing_matches_the_loop_on_random_graphs(seed, monkeypatch):
    # zero coefficients and repeated ones make ties among reduced costs
    rng = random.Random(seed)
    n = rng.randint(5, 18)
    g = build_graph(n, _gnm(n, rng.choice((0.15, 0.3, 0.5)), rng))
    for picked, expected in _pricing_rounds(g, random_profile(n, rng, allow_zero=True), monkeypatch):
        assert _iteration_order(picked) == _iteration_order(expected)


@pytest.mark.parametrize("seed", range(4))
def test_small_part_costs_are_the_float_part_costs(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    g = build_graph(n, _gnm(n, 0.4, rng))
    c = [float(x) for x in random_profile(n, rng, allow_zero=True)]
    small = covers._small_forest_parts(g, c)
    expected = [frozenset(combo) for size in (1, 2, 3)
                for combo in itertools.combinations(g.vertices, size)
                if graphmod.is_acyclic_subset(g, frozenset(combo))]
    assert small.parts == expected
    assert small.costs.tolist() == [covers._part_cost_float(g, p, c) for p in expected]
    by_size = [[tuple(v - 1 for v in p) for p in expected if len(p) == size] for size in (1, 2, 3)]
    assert [order.tolist() for order in small.orders] == [[list(t) for t in ts] for ts in by_size]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for case in sorted(CASES):
            picks, stdout, code = run_column_generation(case, Path(tmp))
            assert code == 0, case
            record[case] = {"picks": picks, "stdout": stdout}
    PINS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
