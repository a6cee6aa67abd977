"""The embedding search as it was before twin-class symmetry breaking, kept
as the reference the differential tests compare mexlab.graphs against.

It visits every injective edge-preserving map f -> g, every automorphic
image of each copy included.
"""

from __future__ import annotations

from mexlab.graphs import Graph, bits


def embedding_plan(f: Graph):
    """Static vertex order for backtracking: most already-placed neighbors first.

    Returns (order, prev) where prev[i] lists the positions of earlier order
    entries adjacent to order[i] in f.
    """
    n = f.n
    degs = f.degrees()
    nbrs = [set(bits(f.adj[v])) for v in range(n)]
    order: list[int] = []
    chosen: set[int] = set()
    for _ in range(n):
        v = max((u for u in range(n) if u not in chosen),
                key=lambda u: (len(nbrs[u] & chosen), degs[u], -u))
        order.append(v)
        chosen.add(v)
    posof = {v: i for i, v in enumerate(order)}
    prev = [tuple(sorted(posof[w] for w in nbrs[v] if posof[w] < i))
            for i, v in enumerate(order)]
    return order, prev


def search_embeddings(f: Graph, g: Graph, visit) -> bool:
    """Enumerate the injective edge-preserving maps f -> g.

    visit(images) is called on each complete map (images[i] hosts plan
    position i); it returns True to continue or False to stop the search.
    Returns False iff a visit stopped the search.
    """
    prev = embedding_plan(f)[1]
    k = f.n
    if k == 0:
        return visit([])
    gadj = g.adj
    full = (1 << g.n) - 1
    images = [0] * k

    def rec(i: int, used: int) -> bool:
        if i == k:
            return visit(images)
        cand = full & ~used
        for j in prev[i]:
            cand &= gadj[images[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            if not rec(i + 1, used | low):
                return False
        return True

    return rec(0, 0)


def count_injective_maps(f: Graph, g: Graph) -> int:
    total = 0

    def visit(_):
        nonlocal total
        total += 1
        return True

    search_embeddings(f, g, visit)
    return total


def count_copies(f: Graph, g: Graph) -> int:
    return count_injective_maps(f, g) // count_injective_maps(f, f)


def is_free(f: Graph, g: Graph) -> bool:
    return search_embeddings(f, g, lambda _: False)


def copies(f: Graph, g: Graph) -> list:
    """Distinct copies as (vertex frozenset, edge frozenset) pairs, sorted."""
    order = embedding_plan(f)[0]
    posof = {v: i for i, v in enumerate(order)}
    key_edges = [(posof[x], posof[y]) for x, y in f.edges()]
    seen = set()

    def visit(images):
        seen.add((frozenset(images),
                  frozenset((min(images[x], images[y]), max(images[x], images[y]))
                            for x, y in key_edges)))
        return True

    search_embeddings(f, g, visit)
    return sorted(seen, key=lambda c: (sorted(c[0]), sorted(c[1])))
