"""Check that a change leaves the output of every benchmark query as it was.

Usage, from the root of the repository, with the change staged:

    python3 scripts/same_outputs.py --parent HEAD --seeds 1-3

The two sides are prepared as `bench_pairs.py` prepares them: a `git
archive` of --parent and a `git checkout-index` of the staged tree.  For
each seed and each workload of `perfbench/workloads.py`, the workload's
inputs are written into both sides, and each query's argv runs once through
`python3 -m mexlab.cli` on each side.  After every query the exit code, the
stdout, the stderr and every file in the workload's directory must be the
same on both sides.  Then FIXED_QUERIES, which no workload reaches, run
the same way, once per comparison, in a directory of their own.  The
script prints the first argv that differs and exits 1, or prints how many
queries it compared and exits 0.  When the staged tree is --parent's own
tree, so that an unstaged change would go unrun, it exits 2 before it runs
anything.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, prepare, same_tree

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


PARTS = ("exit code", "stdout", "stderr", "files")

# Queries that no workload reaches, each under a second on either side.
# Their paths are relative to the root of a side, where every query runs.
FIXED_DIR = ".perfbench_work/same-fixed"
DELETION_SPEC = {"family": "deletion", "pattern": "K2_2_2", "n": [40, 60, 80],
                 "seeds": [1, 2], "c": 1.3}
FIXED_QUERIES = [
    # extract with the density hypothesis met, at alpha = 1 and alpha < 1
    ["extract", "--input", "K10", "--r", "3", "--alpha", "1", "--C", "0.2",
     "--out", f"{FIXED_DIR}/k10.el"],
    ["extract", "--input", "K12", "--r", "4", "--alpha", "0.8", "--C", "0.5"],
    # r = 4 on 209 vertices, above the packed path's order cap: the kernel path
    ["participation", "--input", "K3_3_3_200", "--r", "4",
     "--out", f"{FIXED_DIR}/participation.json"],
    ["bounds", "--formula", "lemma21_constant", "--params", "u=2,r=5"],
    ["bounds", "--formula", "cor17_classifier", "--params", "f=K2_2_2,t=2"],
    # bounds parameters given as a/b, as '+'-joined sizes and as a pattern
    ["bounds", "--formula", "thm13_f", "--params", "alpha=3/2,beta=5/4"],
    ["bounds", "--formula", "thm43_multipartite", "--params", "r=3,s=1+2+2"],
    ["bounds", "--formula", "thm15_general", "--params", "u=2,r=3,f=K3_4"],
    # the formula rows that no other query writes, cor44's Fraction aux and
    # thm46's tight branch among them
    ["bounds", "--formula", "cor12", "--params", "r=4,s=3/2"],
    ["bounds", "--formula", "thm41_kst_lower", "--params", "u=2,r=3,s=3,t=5"],
    ["bounds", "--formula", "remark42_one_part", "--params", "r=3,s=1+2+3"],
    ["bounds", "--formula", "cor44_tripartite_lower", "--params", "s1=2,s2=3,s3=4"],
    ["bounds", "--formula", "thm46_join_cycle", "--params", "r=4,s=1,l=5"],
    ["bounds", "--formula", "thm46_join_cycle", "--params", "r=3,s=2,l=4"],
    ["experiment", f"{FIXED_DIR}/deletion.json", "--csv", f"{FIXED_DIR}/deletion.csv"],
    # the oracle at n = 8 and m = 10, past every workload's sizes of 7
    ["oracle", "ex", "--n", "8", "--target", "K3", "--forbidden", "K4"],
    ["oracle", "mex", "--m", "10", "--target", "K3", "--forbidden", "K4"],
]


def run_query(side: Path, work: Path, argv: list[str]) -> tuple:
    """The PARTS of one CLI run on side, the files read from work."""
    proc = subprocess.run([sys.executable, "-m", "mexlab.cli", *argv], cwd=side,
                          env=dict(os.environ, PYTHONPATH=str(side / "src")),
                          capture_output=True)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def differ(label: str, sides: dict, works: dict, query: list[str]) -> bool:
    """Run query on both sides; if they differ, say where and return True."""
    got = {side: run_query(sides[side], work, query) for side, work in works.items()}
    parts = [part for part, a, b in zip(PARTS, got["parent"], got["change"]) if a != b]
    if parts:
        print(f"{label}: the sides differ in {', '.join(parts)} for\n  {' '.join(query)}")
    return bool(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--seeds", required=True, type=parse_seeds, metavar="A-B",
                    help="the workload seeds to compare")
    args = ap.parse_args(argv)
    if same_tree(args.parent):
        return 2
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = prepare(args.parent, Path(tmp))
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                built = {}
                for side, root in sides.items():
                    work = root / ".perfbench_work" / f"same-{name}-s{seed}"
                    work.mkdir(parents=True)
                    built[side] = work, workloads.build(name, seed, work, root)
                queries = [q.argv for q in built["change"][1].queries]
                if queries != [q.argv for q in built["parent"][1].queries]:
                    raise RuntimeError(f"{name} seed {seed}: the sides built different queries")
                works = {side: work for side, (work, _) in built.items()}
                for query in queries:
                    if differ(f"{name} seed {seed}", sides, works, query):
                        return 1
                    compared += 1
        works = {side: root / FIXED_DIR for side, root in sides.items()}
        for work in works.values():
            work.mkdir(parents=True)
            (work / "deletion.json").write_text(json.dumps(DELETION_SPEC))
        for query in FIXED_QUERIES:
            if differ("fixed", sides, works, query):
                return 1
    print(f"{compared} workload queries and {len(FIXED_QUERIES)} fixed queries: "
          "identical exit codes, stdout, stderr and files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
