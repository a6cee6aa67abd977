"""Record alternating parent/change benchmark pairs into a BENCH_<n>.json.

Usage, from the root of the repository, with the change staged:

    python3 scripts/bench_pairs.py --parent HEAD --run oracle-enum:401-405 \
        --run norm-witness:401-410 --claim norm-witness:wall_s --out BENCH_14.json

The parent side is a `git archive` of --parent and the change side is a
`git checkout-index` of the staged tree, each in its own directory.  For
every seed of a --run, both sides run `perfbench/run.py --trace 0` once; the
parent goes first on odd seeds and the change on even ones.  Before each run
every `__pycache__` and `.perfbench_work` of that side is removed, and the
run gets PYTHONDONTWRITEBYTECODE=1, so no side reuses a bytecode cache.  Per
end-to-end metric the file holds both sides' values, medians, inclusive
quartiles, the change/parent median ratio and the pairs the change won, and
whether every median stays within the bounds that BENCHMARK.json gives.  A
--claim names the workload and metric a gain is claimed on; the claim is met
when the change wins at least nine tenths of the pairs, and its median lies
past the parent's quartile range on the better side, away from the parent's
median by more than that range.  The file also records each side's source
size, the newline count of its src/mexlab/*.py, as `wc -l` gives it, in
total and per file.  It is rewritten after each workload.  When the staged
tree is --parent's own tree, so that both sides would run the same files,
the script exits 2 before it prepares either side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def same_tree(ref: str) -> bool:
    """Whether the staged tree is the tree of ref, so that both sides would
    run the same files; if so, say so on stderr."""
    if _git("write-tree") != _git("rev-parse", f"{ref}^{{tree}}"):
        return False
    print(f"the staged tree is the tree of {ref}: stage the change to compare",
          file=sys.stderr)
    return True


def prepare(ref: str, work: Path) -> dict[str, Path]:
    sides = {"parent": work / "parent", "change": work / "change"}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", ref))) as tar:
        tar.extractall(sides["parent"], filter="data")
    _git("checkout-index", "-a", f"--prefix={sides['change']}/")
    return sides


def src_lines(side: Path) -> dict[str, int]:
    return {f.name: f.read_bytes().count(b"\n")
            for f in sorted((side / "src" / "mexlab").glob("*.py"))}


def run_once(side: Path, workload: str, seed: int, bench: dict) -> dict:
    for junk in [*side.rglob("__pycache__"), side / ".perfbench_work"]:
        shutil.rmtree(junk, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                          cwd=side, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{side.name} {workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def quartiles(xs):
        q = statistics.quantiles(xs, n=4, method="inclusive")
        return [round(q[0], 4), round(q[2], 4)]

    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    return {"parent": parent, "change": change,
            "parent_median": round(pm, 4), "parent_quartiles": quartiles(parent),
            "change_median": round(cm, 4), "change_quartiles": quartiles(change),
            "ratio": round(cm / pm, 3) if pm else None,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change))}


def claim_met(entry: dict, spec: dict) -> bool:
    m = entry["metrics"][spec["name"]]
    q1, q3 = m["parent_quartiles"]
    sign = 1 if spec["better"] == "lower" else -1
    gain = sign * (m["parent_median"] - m["change_median"])
    past = sign * ((q1 if sign > 0 else q3) - m["change_median"]) > 0
    return past and gain > q3 - q1 and m["change_wins"] >= 0.9 * entry["pairs"]


def within_bounds(entry: dict, metrics: list[dict]) -> bool:
    if not entry["all_correct"] or entry["failed"]:
        return False
    for spec in metrics:
        m = entry["metrics"][spec["name"]]
        p, c = m["parent_median"], m["change_median"]
        if (c - p if spec["better"] == "lower" else p - c) > spec["bound"] * p:
            return False
    return True


def record(workload: str, seeds: list[int], sides: dict, bench: dict) -> dict:
    runs = {"parent": [], "change": []}
    first = {}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        first[str(seed)] = order[0]
        for name in order:
            runs[name].append(run_once(sides[name], workload, seed, bench))
            print(f"{workload} seed {seed} {name}: "
                  f"wall_s {runs[name][-1]['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr)
    every = runs["parent"] + runs["change"]
    return {"workload": workload, "seconds": bench["run_seconds"], "pairs": len(seeds),
            "seeds": seeds, "first_in_pair": first,
            "all_correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "attempted_per_run": sorted({r["attempted"] for r in every}),
            "metrics": {spec["name"]: summarize(
                *[[round(r["metrics"][spec["name"]]["value"], 4) for r in runs[s]]
                  for s in ("parent", "change")], spec["better"])
                for spec in bench["end_to_end"]}}


def parse_run(text: str) -> tuple[str, list[int]]:
    workload, _, span = text.partition(":")
    lo, _, hi = span.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:  # quartiles need two runs per side
        raise argparse.ArgumentTypeError(f"{text}: give at least two seeds")
    return workload, seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--run", action="append", required=True, type=parse_run,
                    metavar="WORKLOAD:FIRST-LAST", help="a workload and its seeds")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the workload and end-to-end metric a gain is claimed on")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = spec = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        spec = next((m for m in bench["end_to_end"] if m["name"] == metric), None)
        if spec is None or workload not in [w for w, _ in args.run]:
            ap.error(f"--claim {args.claim}: name a --run workload and an end-to-end metric")
        claim = {"workload": workload, "metric": metric}
    if same_tree(args.parent):
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sides = prepare(args.parent, Path(tmp))
        lines = {name: src_lines(side) for name, side in sides.items()}
        out = {"parent_commit": _git("rev-parse", args.parent).decode().strip(),
               "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                        "machine": platform.machine()},
               "src_lines": {name: sum(per_file.values()) for name, per_file in lines.items()},
               "src_lines_per_file": lines,
               "command": " ".join(bench["command"]) + " --workload W --seed S "
                          f"--seconds {bench['run_seconds']} --trace 0",
               "method": __doc__.split("\n\n")[-1].replace("\n", " ").strip(),
               "claim": claim, "claim_met": None, "workloads": {}}
        for workload, seeds in args.run:
            out["workloads"][workload] = record(workload, seeds, sides, bench)
            out["no_regression_beyond_bounds"] = all(
                within_bounds(e, bench["end_to_end"]) for e in out["workloads"].values())
            if claim and claim["workload"] == workload:
                out["claim_met"] = claim_met(out["workloads"][workload], spec)
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
