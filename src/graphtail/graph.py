"""Dependency-graph representation and the orderings the coupling machinery needs.

Vertices are labeled 1..n throughout (matching the reports and file formats).
All values are immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError, KindError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n."""

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v - 1]

    def degree(self, v: int) -> int:
        return len(self.adj[v - 1])

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Normalize an edge list into a Graph (deduplicated, unordered pairs).

    Rejects self-loops and out-of-range endpoints, naming the offending pair.
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    canon: set[Edge] = set()
    for pair in edges:
        u, v = pair
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise InputError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        canon.add((u, v) if u < v else (v, u))
    ordered = tuple(sorted(canon))
    adj = [set() for _ in range(n)]
    for u, v in ordered:
        adj[u - 1].add(v)
        adj[v - 1].add(u)
    return Graph(n=n, edges=ordered, adj=tuple(frozenset(s) for s in adj))


@dataclass(frozen=True)
class ForestClassification:
    """Connected components plus acyclicity verdict."""

    is_forest: bool
    components: tuple[frozenset[int], ...]
    tree_count: int | None  # len(components) when a forest, else None


def classify(g: Graph) -> ForestClassification:
    """Partition into connected components and decide whether g is a forest.

    A graph is a forest iff every component spans exactly |C| - 1 edges;
    components are reported sorted by their smallest vertex.
    """
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    acyclic = True
    for start in g.vertices:
        if start in seen:
            continue
        comp: set[int] = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        edge_count = sum(1 for (u, v) in g.edges if u in comp)
        if edge_count != len(comp) - 1:
            acyclic = False
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return ForestClassification(
        is_forest=acyclic,
        components=tuple(comps),
        tree_count=len(comps) if acyclic else None,
    )


@dataclass(frozen=True)
class OrderedTree:
    """A tree relabeled 1..size so that every descendant precedes its ancestors.

    ``order[k-1]`` is the original label of the vertex relabeled k; the root
    (a vertex of minimum Lipschitz coefficient within the tree) is relabeled
    last.  ``parent``, ``fringe`` and ``exposure_rest`` are all expressed in
    relabeled coordinates: ``fringe[i-1]`` is the vertex set of the subtree
    rooted at i, and ``exposure_rest[i-1]`` is [i+1, size] minus the parent
    of i (the coordinates a coupling at step i must copy verbatim).
    """

    order: tuple[int, ...]
    root: int
    parent: tuple[int, ...]  # parent[i-1] = relabeled parent of i; 0 for the root
    fringe: tuple[frozenset[int], ...]
    exposure_rest: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.order)

    def rank(self, original: int) -> int:
        """Relabel of an original vertex."""
        return self.order.index(original) + 1

    def original(self, relabeled: int) -> int:
        return self.order[relabeled - 1]


def rooted_order(g: Graph, tree_vertices: Iterable[int], coefficients: Sequence) -> OrderedTree:
    """Root a tree at its minimum-coefficient vertex and relabel it post-order.

    ``coefficients`` is indexed by original vertex label (entry v-1).  Ties on
    the minimum go to the smallest original label, and children are visited in
    ascending label order, so the result is deterministic.  Raises KindError
    when the induced subgraph is not a tree.
    """
    verts = sorted(set(tree_vertices))
    if not verts:
        raise KindError("cannot order an empty vertex set")
    for v in verts:
        if not (1 <= v <= g.n):
            raise InputError(f"vertex {v} outside 1..{g.n}")
    vset = set(verts)
    inner_edges = [(u, v) for (u, v) in g.edges if u in vset and v in vset]
    if len(inner_edges) != len(verts) - 1 or not _connected_within(g, vset):
        raise KindError(f"induced subgraph on {sorted(vset)} is not a tree")

    root = min(verts, key=lambda v: (coefficients[v - 1], v))

    # Iterative post-order, children ascending: descendants come out first,
    # which is exactly the required numbering (descendant j of i gets j < i).
    post: list[int] = []
    parent_orig: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            post.append(v)
            continue
        stack.append((v, True))
        children = sorted(w for w in g.neighbors(v) if w in vset and w != parent_orig.get(v))
        for w in reversed(children):
            parent_orig[w] = v
            stack.append((w, False))

    order = tuple(post)
    rank = {v: k + 1 for k, v in enumerate(order)}
    size = len(order)
    parent = [0] * size
    for child, par in parent_orig.items():
        parent[rank[child] - 1] = rank[par]

    fringe_sets: list[set[int]] = [{i} for i in range(1, size + 1)]
    for i in range(1, size):  # relabels below the root, ascending: children first
        fringe_sets[parent[i - 1] - 1] |= fringe_sets[i - 1]
    rest = [
        frozenset(range(i + 1, size + 1)) - {parent[i - 1]} if parent[i - 1] else frozenset()
        for i in range(1, size + 1)
    ]
    return OrderedTree(
        order=order,
        root=root,
        parent=tuple(parent),
        fringe=tuple(frozenset(s) for s in fringe_sets),
        exposure_rest=tuple(rest),
    )


def _connected_within(g: Graph, vset: set[int]) -> bool:
    start = next(iter(vset))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vset


def m_dependence_graph(n: int, m: int) -> Graph:
    """Graph joining i and j whenever 1 <= |i - j| <= m (the m-dependent pattern)."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if m < 1:
        raise InputError(f"need gap m >= 1, got {m}")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + m, n) + 1)]
    return build_graph(n, edges)


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive blocks of size m covering 1..n (last block may be shorter)."""

    n: int
    m: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def block_partition(n: int, m: int) -> BlockPartition:
    """Split 1..n into ceil(n/m) consecutive blocks of size m plus a remainder.

    When m divides n there is no (empty) remainder block: exactly n/m blocks
    are emitted.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if m < 1:
        raise InputError(f"need block size m >= 1, got {m}")
    blocks = []
    start = 1
    while start <= n:
        blocks.append(tuple(range(start, min(start + m, n + 1))))
        start += m
    return BlockPartition(n=n, m=m, blocks=tuple(blocks))


@dataclass(frozen=True)
class InducedSubgraph:
    """Induced subgraph relabeled to 1..|S|, keeping the map back to the source.

    ``original[k-1]`` is the source label of relabeled vertex k.
    """

    graph: Graph
    original: tuple[int, ...]


def induced_subgraph(g: Graph, subset: Iterable[int]) -> InducedSubgraph:
    verts = sorted(set(subset))
    for v in verts:
        if not (1 <= v <= g.n):
            raise InputError(f"vertex {v} outside 1..{g.n}")
    rank = {v: k + 1 for k, v in enumerate(verts)}
    vset = set(verts)
    edges = [(rank[u], rank[v]) for (u, v) in g.edges if u in vset and v in vset]
    return InducedSubgraph(graph=build_graph(len(verts), edges), original=tuple(verts))


# Subset helpers used heavily by the cover machinery; these stay in original labels.

def edges_within(g: Graph, subset: frozenset[int] | set[int]) -> list[Edge]:
    return [(u, v) for (u, v) in g.edges if u in subset and v in subset]


def is_acyclic_subset(g: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Whether the induced subgraph on ``subset`` is a forest (union-find)."""
    parent = {v: v for v in subset}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def components_within(g: Graph, subset: frozenset[int] | set[int]) -> list[frozenset[int]]:
    """Connected components of the induced subgraph, sorted by smallest vertex."""
    remaining = set(subset)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in remaining and w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        comps.append(frozenset(comp))
    return comps


# External formats: JSON object {"n": int, "edges": [[u, v], ...]} and a plain
# text form (first line "n", then one "u v" pair per line).

def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for (u, v) in g.edges]}


def graph_from_json_dict(data: dict) -> Graph:
    try:
        n = int(data["n"])
        edges = data.get("edges", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"graph JSON needs integer 'n' and an 'edges' list: {exc}") from exc
    if n < 1:
        raise InputError(f"graph JSON must have n >= 1, got {n}")
    pairs = []
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"edge entry {item!r} is not a pair")
        pairs.append((int(item[0]), int(item[1])))
    return build_graph(n, pairs)


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InputError(f"first line must be the vertex count, got {lines[0]!r}") from exc
    if n < 1:
        raise InputError(f"edge-list vertex count must be >= 1, got {n}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"edge line {ln!r} is not 'u v'")
        pairs.append((int(parts[0]), int(parts[1])))
    return build_graph(n, pairs)
