"""Check that a change leaves the output of every benchmark query as it was.

Usage, from the root of the repository, with the change staged:

    python3 scripts/same_outputs.py --parent HEAD --seeds 1-3

The two sides are prepared as `bench_pairs.py` prepares them: a `git
archive` of --parent and a `git checkout-index` of the staged tree.  For
each seed and each workload of `perfbench/workloads.py`, the workload's
inputs are written into both sides, and each query's argv runs once through
`python3 -m mexlab.cli` on each side.  After every query the exit code, the
stdout, the stderr and every file in the workload's directory must be the
same on both sides.  The script prints the first argv that differs and
exits 1, or prints how many queries it compared and exits 0.  When the
staged tree is --parent's own tree, so that an unstaged change would go
unrun, it exits 2 before it runs anything.
"""

from __future__ import annotations

import argparse
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


def run_query(side: Path, work: Path, argv: list[str]) -> tuple:
    """The PARTS of one CLI run on side, the files read from work."""
    proc = subprocess.run([sys.executable, "-m", "mexlab.cli", *argv], cwd=side,
                          env=dict(os.environ, PYTHONPATH=str(side / "src")),
                          capture_output=True)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


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
                for query in queries:
                    got = {side: run_query(sides[side], work, query)
                           for side, (work, _) in built.items()}
                    if got["parent"] != got["change"]:
                        parts = [part for part, a, b in zip(PARTS, got["parent"], got["change"])
                                 if a != b]
                        print(f"{name} seed {seed}: the sides differ in {', '.join(parts)} for\n"
                              f"  {' '.join(query)}")
                        return 1
                    compared += 1
    print(f"{compared} queries: identical exit codes, stdout, stderr and files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
