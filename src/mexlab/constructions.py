"""Lower-bound witness generators: norm graphs over finite fields and a
random-graph deletion procedure, plus log-log scaling experiments."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import ConditionError, cor14_kst, thm15_general
from .fields import FiniteField, is_prime
from .graphs import (EDGE_LIST_MAX_VERTICES, LITERAL_MAX_EDGES, Graph,
                     Pattern, complete_multipartite, count_cliques, gnp,
                     is_free, iter_copies, pattern)

NORM_GRAPH_MAX_VERTICES = EDGE_LIST_MAX_VERTICES  # a built graph must load back
DELETION_MAX_N = 500
DELETION_MAX_R = 5
DELETION_MAX_COPIES = 10000
EXPERIMENT_MAX_INSTANCES = 32


def norm_graph(q: int, s: int) -> Graph:
    """Graph on GF(q^(s-1)) x GF(q)* with (A,a) ~ (B,b) iff N(A+B) = a*b.

    N is the field norm down to GF(q) (identity when s = 2).  Vertex (A, a)
    gets index A_idx*(q-1) + (a-1) where A_idx enumerates GF(q^(s-1)) in
    base-q counting order of coefficient vectors.
    """
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
    F = FiniteField(q, s - 1)
    ext = F.order
    norm_of = [None] * ext
    for i in range(ext):
        a = F.from_index(i)
        if a != F.zero:
            norm_of[i] = F.norm_to_base(a)
    inv_mod_q = [0] + [pow(a, q - 2, q) for a in range(1, q)]
    g = Graph(n)
    adj = g.adj
    for ai in range(ext):
        A = F.from_index(ai)
        for bi in range(ext):
            s_idx = F.to_index(F.add(A, F.from_index(bi)))
            c = norm_of[s_idx]
            if c is None or c == 0:
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
        for cid in dying:
            for e2 in copies[cid]:
                if e2 != target:
                    live[e2].discard(cid)
                    heapq.heappush(heap, (-len(live[e2]), e2))

    out = g.remove_edges(deleted)
    before = count_cliques(g, max(u, r))
    after = count_cliques(out, max(u, r))
    free = is_free(f, out)
    assert free, "deletion left a pattern copy intact"
    run = DeletionRun(f.name, u, r, n, seed, c, p, clamped,
                      before[u], before[r], after[u], after[r],
                      len(copies), len(deleted), free)
    return out, run


# ---------------------------------------------------------------------------
# Scaling experiments
# ---------------------------------------------------------------------------

TRIPARTITE_TRIANGLE_EXPONENT = Fraction(11, 9)


def integral(v) -> int:
    """An integral finite value: 3, 3.0 or 6/2 (a Fraction); anything else,
    3.9, "3" or True included, is a ValueError rather than a truncation."""
    if (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, Fraction) and v.denominator == 1
            or isinstance(v, float) and v.is_integer()):
        return int(v)
    raise ValueError(f"must be an integer, got {v}")


def finite_number(v) -> bool:
    """Whether v is a finite int, Fraction or float; a bool is not a number."""
    return (isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


@dataclass
class ExperimentSpec:
    """A named instance family with target clique counts for a log-log fit."""

    family: str                      # norm_graph | tripartite | deletion
    u: int = 2
    r: int = 3
    q_list: list = field(default_factory=list)   # norm_graph
    s: int = 2                                   # norm_graph
    n_list: list = field(default_factory=list)   # tripartite / deletion
    pattern: str = ""                            # deletion
    seeds: list = field(default_factory=list)    # deletion
    c: float = 1.0                               # deletion

    @staticmethod
    def from_json(obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise ValueError("experiment spec must be a JSON object")
        fam = obj.get("family")
        if fam not in ("norm_graph", "tripartite", "deletion"):
            raise ValueError(f"unknown experiment family {fam!r}")
        for key in ("q", "n", "seeds"):
            if not isinstance(obj.get(key, []), list):
                raise ValueError(f"experiment spec field {key!r} must be a list")
        c = obj.get("c", 1.0)
        if not finite_number(c):
            raise ValueError(f"experiment spec: c must be a finite number, got {c!r}")
        try:
            return ExperimentSpec(
                family=fam,
                u=integral(obj.get("u", 2)),
                r=integral(obj.get("r", 3)),
                q_list=[integral(x) for x in obj.get("q", [])],
                s=integral(obj.get("s", 2)),
                n_list=[integral(x) for x in obj.get("n", [])],
                pattern=str(obj.get("pattern", "")),
                seeds=[integral(x) for x in obj.get("seeds", [])],
                c=float(c),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # e.g. 32.9 or null
            # for an int, or 10 ** 400 for c
            raise ValueError(f"experiment spec: {exc}") from None


@dataclass
class ExperimentRow:
    family: str
    param: str
    n: int
    m: int
    k2: int
    k3: int
    k4: int


@dataclass
class ExperimentResult:
    rows: list
    predicted_exponent: float
    fitted_slope: float

    def csv_rows(self):
        for row in self.rows:
            yield [row.family, row.param, row.n, row.m, row.k2, row.k3, row.k4,
                   repr(self.predicted_exponent), repr(self.fitted_slope)]


CSV_HEADER = ["family", "param", "n", "m", "k2", "k3", "k4",
              "predicted_exponent", "fitted_slope"]


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), summed over centred logs."""
    if len(xs) < 3:
        raise ValueError("need at least 3 instances to fit a slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs positive counts")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("log-log fit needs at least two distinct x values")
    return math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def _emit_row(spec, param: str, g: Graph) -> ExperimentRow:
    cv = count_cliques(g, 4)
    return ExperimentRow(spec.family, param, g.n, g.m, cv[2], cv[3], cv[4])


def tripartite_parts(n: int) -> list[int]:
    """Parts n, floor(sqrt(n)), floor(n^(1/3)) of the complete tripartite
    instance.  As for a K literal, an n above EDGE_LIST_MAX_VERTICES or an
    instance above LITERAL_MAX_EDGES edges is a ValueError; below the edge
    cap the instance has fewer than EDGE_LIST_MAX_VERTICES vertices."""
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


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    if not {spec.u, spec.r} <= {2, 3, 4}:  # the clique sizes a row holds
        raise ValueError(f"u = {spec.u} and r = {spec.r} must lie in 2..4")
    seeds = spec.seeds or [0]
    instances = {"norm_graph": len(spec.q_list), "tripartite": len(spec.n_list),
                 "deletion": len(spec.n_list) * len(seeds)}.get(spec.family)
    if instances is None:
        raise ValueError(f"unknown experiment family {spec.family!r}")
    if not 3 <= instances <= EXPERIMENT_MAX_INSTANCES:  # before any graph is built
        raise ValueError(f"need 3..{EXPERIMENT_MAX_INSTANCES} instances to fit "
                         f"a slope, got {instances}")
    if spec.family == "norm_graph" and spec.u != 2:
        raise ValueError(f"norm_graph predicts k_r against k2 only: u = {spec.u}")
    if spec.family == "tripartite" and (spec.u, spec.r) != (2, 3):
        raise ValueError(f"tripartite predicts k3 against k2 only: u = {spec.u}, r = {spec.r}")
    rows: list[ExperimentRow] = []
    if spec.family == "norm_graph":
        for q in spec.q_list:
            rows.append(_emit_row(spec, f"q={q}", norm_graph(q, spec.s)))
        predicted = cor14_kst(spec.r, spec.s).value
    elif spec.family == "tripartite":
        parts = [tripartite_parts(n) for n in spec.n_list]  # caps first
        for n, sizes in zip(spec.n_list, parts):
            rows.append(_emit_row(spec, f"n={n}", complete_multipartite(sizes)))
        predicted = float(TRIPARTITE_TRIANGLE_EXPONENT)
    else:
        f = pattern(spec.pattern)
        for n in spec.n_list:
            for seed in seeds:
                g, _ = deletion_method(f, spec.u, spec.r, n, seed, spec.c)
                rows.append(_emit_row(spec, f"n={n};seed={seed}", g))
        predicted = thm15_general(spec.u, spec.r, f).value

    counts = {2: [r.k2 for r in rows], 3: [r.k3 for r in rows],
              4: [r.k4 for r in rows]}
    slope = fit_loglog_slope(counts[spec.u], counts[spec.r])
    return ExperimentResult(rows, predicted, slope)
