"""Lower-bound witness generators: norm graphs over finite fields and a
random-graph deletion procedure, plus log-log scaling experiments."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import ConditionError, cor14_kst, integral, thm15_general
from .fields import FiniteField, is_prime
from .graphs import (EDGE_LIST_MAX_VERTICES, LITERAL_MAX_EDGES, Graph,
                     Pattern, _clique_counts, complete_multipartite,
                     count_cliques, gnp, iter_copies, pattern)

NORM_GRAPH_MAX_VERTICES = EDGE_LIST_MAX_VERTICES  # a built graph must load back
DELETION_MAX_N = 500
DELETION_MAX_R = 5
DELETION_MAX_COPIES = 10000
EXPERIMENT_MAX_INSTANCES = 32


def _norm_graph_order(q: int, s: int) -> int:
    """The vertex count of H(q, s), once q, s, the vertex count and the
    edge bound pass their checks; a ValueError names the first that fails."""
    # q^(s-1) (q-1) is at least q - 1 and 2^(s-1): bound q and s before the
    # trial-division primality test and the power
    if q - 1 > NORM_GRAPH_MAX_VERTICES or s > NORM_GRAPH_MAX_VERTICES.bit_length():
        raise ValueError(f"(q, s) = ({q}, {s}) has over "
                         f"{NORM_GRAPH_MAX_VERTICES} vertices")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if s < 2:
        raise ValueError("s must be >= 2")
    n = q ** (s - 1) * (q - 1)
    if n > NORM_GRAPH_MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds cap {NORM_GRAPH_MAX_VERTICES}")
    # every vertex has degree at most q^(s-1) - 1
    edges = n * (q ** (s - 1) - 1) // 2
    if edges > LITERAL_MAX_EDGES:
        raise ValueError(f"(q, s) = ({q}, {s}) has up to {edges} "
                         f"edges, above cap {LITERAL_MAX_EDGES}")
    return n


def norm_graph(q: int, s: int) -> Graph:
    """Graph on GF(q^(s-1)) x GF(q)* with (A,a) ~ (B,b) iff N(A+B) = a*b.

    N is the field norm down to GF(q) (identity when s = 2).  Vertex (A, a)
    gets index A_idx*(q-1) + (a-1) where A_idx enumerates GF(q^(s-1)) in
    base-q counting order of coefficient vectors.

    H(2, s) is the complete graph on 2^(s-1) vertices: GF(2)* = {1} and the
    norm of a nonzero A + B is 1, so every two vertices are adjacent.
    """
    n = _norm_graph_order(q, s)
    F = FiniteField(q, s - 1)
    elems = [F.from_index(i) for i in range(F.order)]
    index = {a: i for i, a in enumerate(elems)}
    norm_of = [None if a == F.zero else F.norm_to_base(a) for a in elems]
    inv_mod_q = [0] + [pow(a, q - 2, q) for a in range(1, q)]
    g = Graph(n)
    adj = g.adj
    for ai, A in enumerate(elems):
        for bi, B in enumerate(elems):
            c = norm_of[index[F.add(A, B)]]
            if c is None:  # A + B = 0; a nonzero element has a nonzero norm
                continue
            for a in range(1, q):
                b = c * inv_mod_q[a] % q
                i = ai * (q - 1) + (a - 1)
                j = bi * (q - 1) + (b - 1)
                if i != j:  # the edge is found again from j
                    adj[i] |= 1 << j
    return g


# ---------------------------------------------------------------------------
# Deletion method
# ---------------------------------------------------------------------------

@dataclass
class DeletionRun:
    pattern: str
    u: int
    r: int
    n: int
    seed: int
    c: float
    p: float
    clamped: bool
    ku_before: int
    kr_before: int
    ku_after: int
    kr_after: int
    copies_found: int
    edges_deleted: int
    f_free: bool


def deletion_method(f: Pattern, u: int, r: int, n: int, seed: int,
                    c: float = 1.0):
    """Sample G(n, p), then greedily delete the edge in the most surviving
    f-copies (lexicographic tie-break) until none remain.

    p = min(1, c * n^(-(v-2)/(e - r(r-1)/2))); the run refuses to start when
    the validity conditions on f fail, and stops with a ValueError once
    the host holds more than DELETION_MAX_COPIES copies.  Output is
    deterministic in (f, u, r, n, seed, c).

    f_free certifies the output from the copy list, without a second
    search: iter_copies lists every copy of f in the host, so the output is
    f-free if every listed copy holds a deleted edge and the output is the
    host minus exactly the deleted edges.  The post-deletion counts put the
    deleted edges back one by one, and that pass must end on the host's
    adjacency; an assert checks both facts.
    """
    report = thm15_general(u, r, f)
    failed = report.failed_conditions()
    if failed:
        raise ConditionError(failed[0].text)
    if not 1 <= n <= DELETION_MAX_N:
        raise ValueError(f"n must lie in 1..{DELETION_MAX_N}")
    if r > DELETION_MAX_R:
        raise ValueError(f"r exceeds cap {DELETION_MAX_R}")
    if not (finite_number(c) and c > 0):
        raise ValueError(f"c must be a finite positive number, got {c}")

    exponent = Fraction(f.order - 2, f.size - r * (r - 1) // 2)
    p_raw = c * n ** (-float(exponent))
    p = min(1.0, p_raw)
    clamped = p_raw > 1.0
    g = gnp(n, p, seed)

    copies = iter_copies(f, g, DELETION_MAX_COPIES)
    live: dict[tuple, set] = {}  # each edge's surviving copies
    for cid, es in enumerate(copies):
        for e in es:
            live.setdefault(e, set()).add(cid)
    # A lazy max-heap: an entry is current iff its count is the edge's.
    heap = [(-len(ids), e) for e, ids in live.items()]
    heapq.heapify(heap)
    deleted = []
    alive = len(copies)
    while alive:
        count, target = heapq.heappop(heap)
        if -count != len(live[target]):
            continue
        deleted.append(target)
        dying, live[target] = live[target], set()
        alive -= len(dying)
        touched = set()
        for cid in dying:
            es = copies[cid]
            touched.update(es)
            for e2 in es:
                live[e2].discard(cid)
        touched.discard(target)
        for e2 in touched:  # counts only fall: one current entry per edge
            heapq.heappush(heap, (-len(live[e2]), e2))

    out = g.remove_edges(deleted)
    before = count_cliques(g, r)  # r > u
    # Put the deleted edges back, last first.  A clique of g through deleted
    # edges is subtracted once, when the last of them goes back: the
    # k-cliques through ab are the (k-2)-cliques of its common neighbourhood.
    after = list(before.counts)
    adj = list(out.adj)
    for a, b in reversed(deleted):
        through = _clique_counts(adj, adj[a] & adj[b], r - 2)
        for k in range(2, r + 1):
            after[k] -= through[k - 2]
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
    gone = set(deleted)
    assert adj == g.adj and all(not gone.isdisjoint(es) for es in copies), \
        "deletion left a pattern copy intact"
    run = DeletionRun(f.name, u, r, n, seed, c, p, clamped,
                      before[u], before[r], after[u], after[r],
                      len(copies), len(deleted), True)
    return out, run


# ---------------------------------------------------------------------------
# Scaling experiments
# ---------------------------------------------------------------------------

TRIPARTITE_TRIANGLE_EXPONENT = Fraction(11, 9)


def finite_number(v) -> bool:
    """Whether v is a finite int, Fraction or float; a bool is not a number."""
    return (isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), summed over centred logs;
    degenerate, a ValueError, when the logs fitted (not the xs) are all equal."""
    if len(xs) < 3:
        raise ValueError("need at least 3 instances to fit a slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs positive counts")
    lx = [math.log(x) for x in xs]
    if len(set(lx)) < 2:
        raise ValueError("log-log fit needs at least two distinct x values")
    ly = [math.log(y) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    return math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def tripartite_parts(n: int) -> list[int]:
    """Parts n, floor(sqrt(n)), floor(n^(1/3)) of the complete tripartite
    instance.  As for a literal, an n above EDGE_LIST_MAX_VERTICES or an
    instance above LITERAL_MAX_EDGES edges is a ValueError; below the edge
    cap the instance has fewer than EDGE_LIST_MAX_VERTICES vertices."""
    if n < 1:
        raise ValueError(f"tripartite n = {n} must be a positive integer")
    if n > EDGE_LIST_MAX_VERTICES:  # also keeps n ** (1/3) in float range
        raise ValueError(f"tripartite n = {n} exceeds cap {EDGE_LIST_MAX_VERTICES}")
    b = math.isqrt(n)
    c = round(n ** (1 / 3))
    while c ** 3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    edges = n * b + b * c + c * n
    if edges > LITERAL_MAX_EDGES:
        raise ValueError(f"tripartite n = {n} has {edges} edges, above cap "
                         f"{LITERAL_MAX_EDGES}")
    return [n, b, c]


def run_experiment(obj):
    """Build the instances of a parsed JSON spec, count their cliques and
    fit log k_r against log k_u.  Returns (rows, predicted, slope): a dict
    per instance keyed by the CSV columns family, param, n, m, k2, k3, k4;
    the predicted exponent, cor14_kst(r, s), 11/9 or thm15_general(u, r,
    pattern), computed before any graph is built; and the fitted slope.

    Spec fields, with defaults (and the families that read them):
      family   norm_graph, tripartite or deletion; required
      u, r     2, 3 (all): each in 2..4; norm_graph needs u = 2, tripartite
               (u, r) = (2, 3)
      q, s     [], 2 (norm_graph): the primes q of the graphs H(q, s)
      n        [] (tripartite, deletion): part size, or host order
      pattern  required (deletion): the forbidden pattern, a literal or an
               edge-list path
      seeds    [] (deletion): one run per n and seed; [] means [0]
      c        1.0 (deletion): the factor of the edge probability
    """
    if not isinstance(obj, dict):
        raise ValueError("experiment spec must be a JSON object")
    family = obj.get("family")
    if family not in ("norm_graph", "tripartite", "deletion"):
        raise ValueError(f"unknown experiment family {family!r}")
    for key in ("q", "n", "seeds"):
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f"experiment spec field {key!r} must be a list")
    c = obj.get("c", 1.0)
    if not finite_number(c):
        raise ValueError(f"experiment spec: c must be a finite number, got {c!r}")
    try:
        u, r = integral(obj.get("u", 2)), integral(obj.get("r", 3))
        qs = [integral(x) for x in obj.get("q", [])]
        s = integral(obj.get("s", 2))
        ns = [integral(x) for x in obj.get("n", [])]
        seeds = [integral(x) for x in obj.get("seeds", [])] or [0]
        c = float(c)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. 32.9 or null
        # for an int, or 10 ** 400 for c
        raise ValueError(f"experiment spec: {exc}") from None

    if not {u, r} <= {2, 3, 4}:  # the clique sizes a row holds
        raise ValueError(f"u = {u} and r = {r} must lie in 2..4")
    instances = {"norm_graph": len(qs), "tripartite": len(ns),
                 "deletion": len(ns) * len(seeds)}[family]
    if not 3 <= instances <= EXPERIMENT_MAX_INSTANCES:  # before any graph is built
        raise ValueError(f"need 3..{EXPERIMENT_MAX_INSTANCES} instances to fit "
                         f"a slope, got {instances}")
    if family == "norm_graph" and u != 2:
        raise ValueError(f"norm_graph predicts k_r against k2 only: u = {u}")
    if family == "tripartite" and (u, r) != (2, 3):
        raise ValueError(f"tripartite predicts k3 against k2 only: u = {u}, r = {r}")
    # Each graph is built only when the loop below reaches it.
    if family == "norm_graph":
        predicted = cor14_kst(r, s).value
        for q in qs:  # caps first
            _norm_graph_order(q, s)
        graphs = ((f"q={q}", norm_graph(q, s)) for q in qs)
    elif family == "tripartite":
        predicted = float(TRIPARTITE_TRIANGLE_EXPONENT)
        parts = [tripartite_parts(n) for n in ns]  # caps first
        graphs = ((f"n={n}", complete_multipartite(p)) for n, p in zip(ns, parts))
    else:
        text = obj.get("pattern")
        if not isinstance(text, str) or not text:
            raise ValueError("experiment spec: pattern must be a literal or an "
                             f"edge-list path, got {text!r}")
        f = pattern(text)
        predicted = thm15_general(u, r, f).value
        graphs = ((f"n={n};seed={seed}", deletion_method(f, u, r, n, seed, c)[0])
                  for n in ns for seed in seeds)
    rows = []
    for param, g in graphs:
        cv = count_cliques(g, 4)
        rows.append({"family": family, "param": param, "n": g.n, "m": g.m,
                     "k2": cv[2], "k3": cv[3], "k4": cv[4]})
    slope = fit_loglog_slope([row[f"k{u}"] for row in rows],
                             [row[f"k{r}"] for row in rows])
    return rows, predicted, slope
