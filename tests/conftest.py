"""Shared small graphs, builders and test references for the test suite."""

from __future__ import annotations

import gc
import sys
import types
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from pathlib import Path

from mexlab.graphs import Graph, Pattern, complete

# perfbench/reference.py imports nothing of mexlab.  Every brute-force check
# of the suite calls it, so none shares code with what it checks.  It runs
# once, from its source: perfbench/ is not a package, and no bytecode is
# written beside it.
REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
ref = types.ModuleType("perfbench_reference")
exec(compile(REFERENCE_PATH.read_text(encoding="utf-8"), REFERENCE_PATH, "exec"),
     ref.__dict__)


def petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return Graph(10, outer + spokes + inner)


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def diamond() -> Graph:
    return complete(4).remove_edges([(0, 1)])


def paw() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def k4_minus_edge() -> Graph:
    return diamond()


def path(length: int) -> Graph:
    """Path on `length` vertices."""
    return Graph(length, [(v, v + 1) for v in range(length - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def complete_plus_matching(n: int, extra: int) -> Graph:
    """K_n plus `extra` disjoint edges."""
    g = complete(n)
    for _ in range(extra):
        g = disjoint_union(g, complete(2))
    return g


def hom_brute_force(f: Graph, t: Graph) -> bool:
    """Whether some map V(f) -> V(t) sends every edge of f to an edge of t."""
    fe, te = f.edges(), set(t.edges())
    return any(all((min(m[a], m[b]), max(m[a], m[b])) in te for a, b in fe)
               for m in product(range(t.n), repeat=f.n))


@lru_cache(maxsize=None)
def lemma_constant_recursive(u: int, r: int) -> float:
    """C(u, r), 1 <= u < r, by the base-and-step recursion instead of the
    closed form."""
    if (u, r) == (1, 2):
        return 0.5
    if r == u + 1:
        return u / (u + 1) * lemma_constant_recursive(u - 1, u) ** ((u - 1) / u)
    return lemma_constant_recursive(r - 1, r) * lemma_constant_recursive(u, r - 1) ** (r / (r - 1))


def label_ordered_edge_sets(m: int):
    """Every m-edge graph without isolated vertices whose lexicographically
    sorted edge list meets its vertices in the order 0, 1, 2, ...: each edge
    either joins two seen vertices, joins a seen vertex to the next label, or
    opens a new component on the next two labels.  A breadth-first labeling,
    one component after another, puts every graph in this form, so the sets
    cover every isomorphism class; no canonical form is involved."""
    edges: list[tuple[int, int]] = []

    def extend(after: tuple[int, int], seen: int):
        if len(edges) == m:
            yield Graph(seen, edges)
            return
        a, b = after
        for u in range(max(a, 0), seen + 1):
            if u == seen:
                heads = [seen + 1]
            else:
                heads = range(b + 1 if u == a else u + 1, seen + 1)
            for v in heads:
                edges.append((u, v))
                yield from extend((u, v), max(seen, v + 1))
                edges.pop()

    yield from extend((-1, -1), 0)


def mex_exhaustive_reference(m: int, target: Pattern, forbidden: Pattern) -> int:
    """Scan every label-ordered m-edge graph with no isomorph rejection at
    all, filter and maximize by the reference's brute force."""
    if m < 1:
        return 0
    best = 0
    for g in label_ordered_edge_sets(m):
        if not ref.contains(forbidden.graph.adj, g.adj):
            best = max(best, ref.count_copies(target.graph.adj, g.adj))
    return best


@contextmanager
def recursion_headroom(frames: int):
    """Lower Python's recursion limit to `frames` above the current depth,
    so a recursion as deep as a large clique fails fast."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def cyclic_garbage(call) -> int:
    """The number of objects that only the cyclic collector could free after
    one call(), made with the collector off, once an earlier call has
    filled any cached plans.  A ValueError from a call ends that call."""
    def once():
        try:
            call()
        except ValueError:
            pass

    once()
    gc.collect()
    gc.disable()
    try:
        once()
        return gc.collect()
    finally:
        gc.enable()
