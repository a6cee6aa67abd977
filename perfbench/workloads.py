"""The three workloads: seeded query lists, their input files, and checks.

A workload is a fixed list of mexlab CLI invocations.  The seed picks the
inputs (targets, hosts, relabelings, random graphs, query order) but keeps
the cost of every slot in the list nearly the same, so that runs on
different seeds measure the same amount of work.  Every query carries a
check that compares mexlab's report with `reference`, which shares no code
with mexlab.  A check returns the list of problems it found.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import reference as ref

# Nominal seconds per pass, near the corrected wall of one pass on a 2-core
# x86-64 container (Python 3.11); a run makes max(1, seconds //
# NOMINAL_PASS_S) passes, a count that depends on the run length alone, so
# both sides of a comparison make the same passes.
NOMINAL_PASS_S = {"oracle-enum": 8.0, "norm-witness": 5.0, "gnp-filter": 6.0}

FORBIDDEN = ["K3", "K4", "C4", "K2_3", "C5"]


@dataclass
class Query:
    kind: str
    argv: list[str]
    check: Callable[[dict], list[str]]


class Workload:
    """Queries plus the input files they read, all under one directory."""

    def __init__(self, name: str, seed: int, work: Path, root: Path):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.root = root
        self.queries: list[Query] = []
        self.inputs: list[Path] = []

    def path(self, name: str) -> str:
        """Argument form of a file in the work directory: relative to the
        checkout, so that argv is the same in every checkout."""
        return str((self.work / name).relative_to(self.root))

    def write_input(self, name: str, text: str) -> str:
        (self.work / name).write_text(text, encoding="ascii")
        self.inputs.append(self.work / name)
        return self.path(name)

    def read(self, arg: str) -> str:
        return (self.root / arg).read_text(encoding="ascii")

    def add(self, kind: str, argv, check) -> None:
        self.queries.append(Query(kind, [str(a) for a in argv], check))


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    wl = Workload(name, seed, work, root)
    WORKLOADS[name](wl)
    return wl


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# oracle-enum
# ---------------------------------------------------------------------------

def _oracle_enum(wl: Workload) -> None:
    """Exact mex / ex by isomorph-free enumeration: canonical labeling and
    edge augmentation dominate, with many tiny is_free calls."""
    rng = wl.rng
    labels = rng.sample(range(4), 4)
    files = {"2K2": wl.write_input("target_2K2.txt", ref.format_edge_list(
        4, [(labels[0], labels[1]), (labels[2], labels[3])]))}
    # At m = 7 the targets are connected: the vertex cap of mex_exact,
    # min(2m, 12), is below the 14 vertices of 7K2, so mex(7, 2K2, F) comes
    # out 19 instead of C(7, 2) = 21 (see tests/test_perfbench.py).  With
    # F = K3 the first slot enumerates the same graphs as mex(7, 2K2, K3).
    specs = [("mex", 7, rng.choice(["K2", "K3"]), "K3"),
             ("mex", 7, rng.choice(["K2", "K3"]), rng.choice(["K4", "C5"]))]
    for size in (4, 5, 6):
        specs += [("mex", size, rng.choice(["K2", "K3", "2K2"]), f)
                  for f in FORBIDDEN]
    for size in (5, 6):
        specs += [("ex", size, rng.choice(["K2", "K3", "2K2"]), f)
                  for f in FORBIDDEN]
    # The n = 7 slots are the costliest ex queries and set query_tail_ms;
    # the target changes their cost by up to 20%, so it is fixed there.
    specs += [("ex", 7, "2K2", f) for f in FORBIDDEN]
    rng.shuffle(specs)
    for mode, size, target, forb in specs:
        flag = "--m" if mode == "mex" else "--n"
        wl.add(f"oracle {mode} {flag[2:]}={size}",
               ["oracle", mode, flag, size, "--target", files.get(target, target),
                "--forbidden", forb],
               _oracle_check(mode, size, target, forb))


def _oracle_check(mode: str, size: int, target: str, forb: str):
    closed = (ref.mex_closed_form if mode == "mex" else ref.ex_closed_form)(
        size, target, forb)
    _, tadj = ref.literal(target)
    _, fadj = ref.literal(forb)

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        value = report["value"]
        wit = report["witness"]
        adj = ref.adj_from_edges(wit["n"], wit["edges"])
        if mode == "mex":
            _expect(problems, "witness edges", len(wit["edges"]), size)
            if not all(adj):
                problems.append("witness has an isolated vertex")
        else:
            _expect(problems, "witness order", wit["n"], size)
        if ref.contains(fadj, adj):
            problems.append(f"witness contains {forb}")
        _expect(problems, f"{target} copies in witness", ref.count_copies(tadj, adj), value)
        if closed is not None:
            _expect(problems, f"{mode}({size}, {target}, {forb})", value, closed)
        return problems

    return check


# ---------------------------------------------------------------------------
# norm-witness
# ---------------------------------------------------------------------------

# Patterns each norm graph contains, so a free-check exits early.
_PRESENT = {2: ["K3", "S3", "K1_2", "S4"], 3: ["K3", "C4", "K4", "S3"]}


def _norm_witness(wl: Workload) -> None:
    """Norm-graph witnesses: finite fields, edge-list I/O, sparse shallow
    clique counting and exhaustive embedding search on K_{s,t}-free hosts."""
    rng = wl.rng
    # The cost of a host grows like q^4, so each slot keeps its q; the seed
    # relabels the vertices, which leaves every count and every exhaustive
    # search the same size.
    for q, s in [(5, 3), (31, 2), (17, 2)]:
        n, edges = ref.norm_graph_edges(q, s)
        perm = list(range(n))
        rng.shuffle(perm)
        host_edges = [(perm[u], perm[v]) for u, v in edges]
        host = wl.write_input(f"norm_{q}_{s}.txt", ref.format_edge_list(n, host_edges))
        adj = ref.adj_from_edges(n, host_edges)
        t = math.factorial(s - 1) + 1
        present = rng.choice(_PRESENT[s])
        built = wl.path(f"built_{q}_{s}.txt")
        wl.add(f"construct norm-graph s={s}",
               ["construct", "norm-graph", "--q", q, "--s", s, "--out", built],
               _norm_build_check(wl, q, s, n, edges, built))
        wl.add(f"count norm s={s}", ["count", "--input", host, "--max-clique", 4],
               _norm_count_check(q, s, adj))
        wl.add(f"free-check K{s}_{t} norm",
               ["free-check", "--pattern", f"K{s}_{t}", "--input", host],
               _free_check(adj, s, t))
        wl.add("free-check present norm",
               ["free-check", "--pattern", present, "--input", host],
               _present_check(adj, present))
        wl.add("pattern-count C4 norm",
               ["pattern-count", "--pattern", "C4", "--input", host], _c4_check(adj))
    qs = [7, 11, 13, 17]
    spec = wl.write_input("norm_experiment.json",
                          json.dumps({"family": "norm_graph", "q": qs, "s": 2}))
    out_csv = wl.path("norm_experiment.csv")
    rows = []
    for q in qs:
        n, edges = ref.norm_graph_edges(q, 2)
        counts = ref.clique_counts(ref.adj_from_edges(n, edges), 4)
        rows.append((f"q={q}", n, len(edges), counts[2], counts[3], counts[4]))
    wl.add("experiment norm_graph", ["experiment", spec, "--csv", out_csv],
           _experiment_check(wl, out_csv, rows, float(ref.cor14_exponent(3, 2))))
    kst_s = rng.choice([2, 3])
    wl.add("bounds cor14_kst",
           ["bounds", "--formula", "cor14_kst", "--params", f"r=3,s={kst_s}"],
           _exponent_check("cor14_kst", ref.cor14_exponent(3, kst_s)))
    rng.shuffle(wl.queries)


def _norm_build_check(wl, q, s, n, edges, built):
    def check(report):
        problems = []
        _expect(problems, "n", report["n"], n)
        _expect(problems, "n = q^(s-1)(q-1)", report["n"], q ** (s - 1) * (q - 1))
        _expect(problems, "m", report["m"], len(edges))
        got_n, got_edges = ref.parse_edge_list(wl.read(built))
        _expect(problems, "written order", got_n, n)
        if sorted(got_edges) != edges:
            problems.append(f"H({q},{s}) edge set differs from the reference")
        return problems
    return check


def _norm_count_check(q, s, adj):
    def check(report):
        problems = []
        counts = ref.clique_counts(adj, 4)
        for r in range(1, 5):
            _expect(problems, f"k{r}", report.get(f"k{r}"), counts[r])
        if s == 2 and q <= 31:
            _expect(problems, "k3 = C(q-1, 3)", report.get("k3"), math.comb(q - 1, 3))
        return problems
    return check


def _free_check(adj, s, t):
    def check(report):
        problems = []
        # Kollar-Ronyai-Szabo / Alon-Ronyai-Szabo: H(q, s) is
        # K_{s,(s-1)!+1}-free; the bitset recheck guards the reference.
        if not ref.kst_free(adj, s, t):
            problems.append("reference host is not K_{s,t}-free")
        _expect(problems, "free", report["free"], True)
        return problems
    return check


def _present_check(adj, pattern):
    _, padj = ref.literal(pattern)

    def check(report):
        problems = []
        _expect(problems, f"free of {pattern}", report["free"],
                not ref.contains(padj, adj))
        return problems
    return check


def _c4_check(adj):
    def check(report):
        problems = []
        _expect(problems, "C4 copies", report["count"], ref.c4_copies(adj))
        return problems
    return check


def _exponent_check(formula, exact):
    def check(report):
        problems = []
        _expect(problems, "formulaId", report["formulaId"], formula)
        _expect(problems, "valueRational", report["valueRational"], str(exact))
        return problems
    return check


def _experiment_check(wl, out_csv, rows, predicted):
    """rows: (param, n, m, k2, k3, k4) per instance, in order."""
    def check(report):
        problems = []
        _expect(problems, "rows", report["rows"], len(rows))
        if not _close(report["predictedExponent"], predicted):
            problems.append(f"predictedExponent {report['predictedExponent']} != {predicted}")
        slope = ref.loglog_slope([r[3] for r in rows], [r[4] for r in rows])
        if not _close(report["fittedSlope"], slope):
            problems.append(f"fittedSlope {report['fittedSlope']} != {slope}")
        got = list(csv.reader(wl.read(out_csv).splitlines()))
        _expect(problems, "csv header", got[0][:7],
                ["family", "param", "n", "m", "k2", "k3", "k4"])
        _expect(problems, "csv rows",
                [tuple([r[1]] + [int(x) for x in r[2:7]]) for r in got[1:]],
                [tuple([r[0]] + list(r[1:])) for r in rows])
        return problems
    return check


# ---------------------------------------------------------------------------
# gnp-filter
# ---------------------------------------------------------------------------

# (n, p, max clique counted, participation r, extraction r) per dense host
_DENSE = [(150, 0.3, 8, 4, 4), (100, 0.5, 9, 5, 4), (70, 0.7, 10, 5, 5)]
# (pattern, n, c, copies) per deletion run; each pattern passes the thm15
# checks.  mexlab's time follows the number of pattern copies in the host,
# which varies by a factor of ~1.8 between G(n, p) samples, so a slot with
# a copies window keeps drawing gnp seeds until the host's count lies in
# it: a window around the median count.
_DELETION = [("K3_4", 300, 1.2, None), ("K2_2_2", 300, 1.3, (17, 21)),
             ("K2_2_2", 500, 1.5, (155, 175))]


def _deletion_host(rng, pat: str, n: int, c: float, window):
    """The first drawn gnp seed whose host has a copy count in window,
    with the host's probability, edges, adjacency and copy count."""
    fn, fadj = ref.literal(pat)
    fe = sum(a.bit_count() for a in fadj) // 2
    p = ref.deletion_probability(fn, fe, 3, n, c)
    while True:
        seed = rng.randrange(2 ** 32)
        edges = ref.splitmix_gnp(n, p, seed)
        adj = ref.adj_from_edges(n, edges)
        copies = ref.count_copies(fadj, adj)
        if window is None or window[0] <= copies <= window[1]:
            return seed, p, edges, adj, copies


def _gnp_filter(wl: Workload) -> None:
    """Random hosts: sparse G(n, p) with deletion (gnp, copy enumeration,
    greedy deletion), dense hosts with deep clique recursion, participation
    and extraction, plus complete and multipartite literals."""
    rng = wl.rng
    for i, (pat, n, c, window) in enumerate(_DELETION):
        seed, *host = _deletion_host(rng, pat, n, c, window)
        out = wl.path(f"deletion_{i}.txt")
        wl.add(f"construct deletion {pat}",
               ["construct", "deletion", "--pattern", pat, "--u", 2, "--r", 3,
                "--n", n, "--seed", seed, "--c", c, "--out", out],
               _deletion_check(wl, pat, n, out, *host))
    for i, (n, p, R, pr, er) in enumerate(_DENSE):
        # One fixed G(n, p) sample per slot, conditioned on its expected edge
        # count and relabeled by the seed: the clique counts of dense
        # G(n, p) vary by ~10% between samples, and with them the timings,
        # while relabeling keeps every clique enumeration the same size.
        pairs = list(combinations(range(n), 2))
        base = random.Random(f"dense:{n}:{p}").sample(pairs, round(p * len(pairs)))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in base]
        host = wl.write_input(f"dense_{i}.txt", ref.format_edge_list(n, edges))
        adj = ref.adj_from_edges(n, edges)
        alpha = rng.choice([0.8, 0.9, 1.0])
        # C puts the threshold at the expected participation of an edge
        mean_part = math.comb(n - 2, er - 2) * p ** (er * (er - 1) // 2 - 1)
        C = float(f"{2 * mean_part / len(edges) ** ((alpha * er - 2) / 2):.4g}")
        out = wl.path(f"extract_{i}.txt")
        wl.add(f"count dense p={p}", ["count", "--input", host, "--max-clique", R],
               _count_check(lambda adj=adj, R=R: ref.clique_counts(adj, R), R))
        wl.add(f"participation dense p={p}",
               ["participation", "--input", host, "--r", pr],
               _participation_check(adj, pr))
        wl.add(f"extract dense p={p}",
               ["extract", "--input", host, "--r", er, "--alpha", alpha,
                "--C", C, "--out", out],
               _extract_check(wl, adj, er, alpha, C, out))
    for k in (20, 21, 22):
        wl.add(f"count K{k}", ["count", "--input", f"K{k}", "--max-clique", k],
               _count_check(lambda k=k: [math.comb(k, r) for r in range(k + 1)], k))
    sizes = [rng.randint(4, 7) for _ in range(3)]
    lit = "K" + "_".join(map(str, sizes))
    wl.add("count multipartite", ["count", "--input", lit, "--max-clique", 3],
           _count_check(lambda: [ref.elementary_symmetric(sizes, r) for r in range(4)], 3))
    wl.add("participation multipartite", ["participation", "--input", lit, "--r", 3],
           _participation_check(ref.adj_from_edges(*ref.multipartite_edges(sizes)), 3))
    s, t = rng.choice([(3, 4), (3, 5), (4, 4)])
    wl.add("bounds thm15_general",
           ["bounds", "--formula", "thm15_general", "--params", f"u=2,r=3,f=K{s}_{t}"],
           _exponent_check("thm15_general", ref.kst_exponent(2, 3, s, t)))
    ns = sorted(rng.sample(range(8, 200), 4))
    spec = wl.write_input("tripartite_experiment.json",
                          json.dumps({"family": "tripartite", "n": ns}))
    out_csv = wl.path("tripartite_experiment.csv")
    rows = []
    for n in ns:
        parts = ref.tripartite_parts(n)
        e = [ref.elementary_symmetric(parts, k) for k in range(5)]
        rows.append((f"n={n}", sum(parts), e[2], e[2], e[3], e[4]))
    wl.add("experiment tripartite", ["experiment", spec, "--csv", out_csv],
           _experiment_check(wl, out_csv, rows, 11 / 9))
    rng.shuffle(wl.queries)


def _count_check(expected, R):
    def check(report):
        problems = []
        counts = expected()
        for r in range(1, R + 1):
            _expect(problems, f"k{r}", report.get(f"k{r}"), counts[r])
        return problems
    return check


def _participation_check(adj, r):
    def check(report):
        problems = []
        want = ref.participation(adj, r)
        got = {(u, v): c for u, v, c in report["participation"]}
        if got != want:
            wrong = sum(1 for e in want if got.get(e) != want[e])
            problems.append(f"participation differs on {wrong} of {len(want)} edges")
        # every r-clique has C(r, 2) edges
        kr = ref.clique_counts(adj, r)[r]
        _expect(problems, "sum of participation", sum(got.values()), math.comb(r, 2) * kr)
        return problems
    return check


def _extract_check(wl, adj, r, alpha, C, out):
    def check(report):
        problems = []
        part = ref.participation(adj, r)
        m = len(part)
        tau = 0.5 * C * m ** ((alpha * r - 2) / 2)
        kept = [e for e in sorted(part) if part[e] > tau]
        verts = sorted({v for e in kept for v in e})
        pos = {v: i for i, v in enumerate(verts)}
        out_edges = sorted((pos[u], pos[v]) for u, v in kept)
        if not _close(report["threshold"], tau):
            problems.append(f"threshold {report['threshold']} != {tau}")
        _expect(problems, "e2Count", report["e2Count"], len(kept))
        _expect(problems, "e1Count", report["e1Count"], m - len(kept))
        _expect(problems, "n0", report["n0"], len(verts))
        got_n, got_edges = ref.parse_edge_list(wl.read(out))
        if (got_n, sorted(got_edges)) != (len(verts), out_edges):
            problems.append("filtered edge list differs from the reference")
        counts = ref.clique_counts(ref.adj_from_edges(len(verts), out_edges), r)
        _expect(problems, "output cliques",
                report["cliques"], {f"k{i}": counts[i] for i in range(1, r + 1)})
        kr = ref.clique_counts(adj, r)[r]
        _expect(problems, "hypothesisMet", report["hypothesisMet"],
                kr >= C * m ** (alpha * r / 2))
        failed = [k for k, g in report["guarantees"].items()
                  if g["applicable"] and g["passed"] is not True]
        if failed:
            problems.append(f"guarantees failed: {failed}")
        return problems
    return check


def _deletion_check(wl, pat, n, out, p, edges, adj, copies):
    _, fadj = ref.literal(pat)

    def check(report):
        problems = []
        got_n, got_edges = ref.parse_edge_list(wl.read(out))
        out_adj = ref.adj_from_edges(got_n, got_edges)
        _expect(problems, "p", report["p"], p)
        _expect(problems, "output order", got_n, n)
        if not set(got_edges) <= set(edges):
            problems.append("output has edges outside G(n, p)")
        _expect(problems, "kuBefore", report["kuBefore"], len(edges))
        _expect(problems, "krBefore", report["krBefore"], ref.clique_counts(adj, 3)[3])
        _expect(problems, "kuAfter", report["kuAfter"], len(got_edges))
        _expect(problems, "krAfter", report["krAfter"], ref.clique_counts(out_adj, 3)[3])
        _expect(problems, "edgesDeleted", report["edgesDeleted"], len(edges) - len(got_edges))
        _expect(problems, "copiesFound", report["copiesFound"], copies)
        _expect(problems, "fFree", report["fFree"], True)
        if ref.contains(fadj, out_adj):
            problems.append(f"output still contains {pat}")
        return problems
    return check


WORKLOADS = {"oracle-enum": _oracle_enum, "norm-witness": _norm_witness,
            "gnp-filter": _gnp_filter}
