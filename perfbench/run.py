"""mexlab benchmark: one workload, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes its seeded inputs under .perfbench_work/, times fresh
interpreters for set-up, then starts a worker process that sends the
workload's queries to mexlab.cli.main one after another (a closed loop with
one client) for max(1, S // nominal pass time) passes over the list.  It
checks every output against the schema and against references that share
no code with mexlab, and prints a detail line (with the raw timings)
followed by the result line, whose timings are at the host's uncontended
speed (see speed.py):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker makes one untraced and one traced pass, and the metrics are the
per-layer ones (see README.md).  The run exits with 2 and prints no result
when the checkout has no mexlab source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import layers
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
SETUP_RUNS = 11
SETUP_ARGV = ["bounds", "--formula", "lemma21_constant", "--params", "u=2,r=3"]
TAIL_BEYOND = 10


def _sha_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fresh_cli(argv) -> subprocess.CompletedProcess:
    """mexlab as its console script runs it, in a new interpreter."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "from mexlab.cli import entry; entry()")
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def measure_setup(validate) -> tuple[list[float], list[float], list[str]]:
    """Seconds from spawn to exit of fresh interpreters that import
    mexlab.cli and run one trivial command, and the fresh-interpreter
    speed probes around them (one before each and one after the last); the
    first run only fills the bytecode cache and is not timed."""
    times, probes, problems = [], [], []
    for i in range(SETUP_RUNS + 1):
        if i:
            probes.append(speed.fresh_probe())
        t0 = perf_counter()
        proc = _fresh_cli(SETUP_ARGV)
        elapsed = perf_counter() - t0
        if i:
            times.append(elapsed)
        try:
            report = json.loads(proc.stdout)
            validate(report)
            ok = (proc.returncode == 0 and report["formulaId"] == "lemma21_constant"
                  and abs(report["value"] - 2 ** 1.5 / 6) <= 1e-12)
        except (ValueError, KeyError, TypeError) as exc:
            ok, report = False, exc
        if not ok:
            problems.append(f"setup command: exit {proc.returncode}, {report!r}")
    probes.append(speed.fresh_probe())
    return times, probes, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_worker(run_dir: Path, wl, passes: int, trace: bool, deadline: float) -> dict:
    plan = {"src": str(SRC), "io_dir": str(wl.work), "passes": passes,
            "trace": trace, "trace_path": str(run_dir / "trace.jsonl"),
            "queries": [q.argv for q in wl.queries]}
    (run_dir / "plan.json").write_text(json.dumps(plan))
    result_path = run_dir / "result.json"
    worker = Path(__file__).with_name("worker.py")
    proc = subprocess.run([sys.executable, str(worker), str(run_dir / "plan.json"),
                           str(result_path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(5.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def check_queries(wl, result: dict, validate) -> tuple[list[list[bool]], list[str], list]:
    """Per pass and query, whether the sample failed; the problems; and the
    parsed reports of the first pass."""
    problems, reports, first_ok = [], [], []
    first = result["passes"][0]
    for q, out, sample in zip(wl.queries, result["first_stdout"], first["queries"]):
        found = []
        report = None
        if sample["error"]:
            found.append("traceback: " + sample["error"].strip().splitlines()[-1])
        elif sample["exit"] != 0:
            found.append(f"exit code {sample['exit']}: {out.strip()[:200]}")
        else:
            try:
                report = json.loads(out)
                validate(report)
                found += q.check(report)
            except Exception as exc:  # a broken report must not stop the run
                found.append(f"{type(exc).__name__}: {exc}")
        reports.append(report)
        first_ok.append(not found)
        problems += [f"{q.kind} [{' '.join(q.argv)}]: {p}" for p in found]
    failed = []
    for p, pas in enumerate(result["passes"]):
        changed = {name for name, sha in pas["files"].items()
                   if first["files"].get(name) != sha}
        row = []
        for k, (q, sample) in enumerate(zip(wl.queries, pas["queries"])):
            same = (sample["stdout_sha"] == first["queries"][k]["stdout_sha"]
                    and sample["exit"] == first["queries"][k]["exit"]
                    and not any(name in arg for name in changed for arg in q.argv))
            if not same:
                problems.append(f"{q.kind}: pass {p} output differs from pass 0")
            row.append(not (first_ok[k] and same))
        failed.append(row)
    return failed, problems, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S
    if not (SRC / "mexlab" / "cli.py").is_file():
        print(f"perfbench: no mexlab source at {SRC}", file=sys.stderr)
        return 2
    import jsonschema

    schema = json.loads((SRC / "mexlab" / "report_schema.json").read_text())
    validate = jsonschema.Draft202012Validator(schema).validate

    trace = bool(args.trace)
    run_dir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "io").mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, run_dir / "io", ROOT)
    inputs = {str(p.relative_to(ROOT)): _sha_file(p) for p in wl.inputs}

    setup_times, setup_probes, problems = (
        ([], [], []) if trace else measure_setup(validate))
    passes = max(1, int(args.seconds // workloads.NOMINAL_PASS_S[args.workload]))
    result = run_worker(run_dir, wl, passes, trace, deadline)
    failed, query_problems, reports = check_queries(wl, result, validate)
    problems += query_problems

    attempted = sum(len(row) for row in failed) + len(setup_times)
    n_failed = sum(map(sum, failed)) + (len(problems) - len(query_problems))
    for p in result["passes"]:
        probes = [q["probe_s"] for q in p["queries"]] + [p["end_probe_s"]]
        p["slowdown"] = speed.slowdown(probes)
        p["corrected_s"] = speed.corrected([q["latency_s"] for q in p["queries"]], probes)
    untraced = [p for p in result["passes"] if not p["traced"]]
    raw = [q["latency_s"] for p in untraced for q in p["queries"]]
    samples = [t for p in untraced for t in p["corrected_s"]]
    walls = [sum(p["corrected_s"]) for p in untraced]
    tail_s, tail_pct = tail(samples)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mexlab": result["mexlab_file"],
        "passes": len(result["passes"]), "queries_per_pass": len(wl.queries),
        "latency_samples": len(samples),
        "query_tail": f"p{tail_pct:.2f}: rank {len(samples) - TAIL_BEYOND} "
                      f"of {len(samples)} untraced samples",
        "raw": {"pass_wall_s": [p["wall_s"] for p in result["passes"]],
                "query_p50_ms": 1e3 * statistics.median(raw),
                "query_tail_ms": 1e3 * tail(raw)[0],
                "setup_samples_s": setup_times,
                "setup_probes_s": setup_probes},
        "slowdown": [p["slowdown"] for p in result["passes"]],
        "fail_frac": n_failed / attempted,
        "problems": problems,
        "argv": [q.argv for q in wl.queries],
        "inputs_sha256": inputs,
    }
    if trace:
        spans = layers.read_spans(run_dir / "trace.jsonl")
        traced = next(p for p in result["passes"] if p["traced"])
        overhead = sum(traced["corrected_s"]) / walls[0] - 1.0
        metrics = layers.per_layer(spans, reports, traced["wall_s"], overhead)
        detail["spans"] = len(spans)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_ms": {"value": 1e3 * statistics.median(samples), "unit": "ms"},
            "query_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "setup_s": {"value": statistics.median(speed.corrected(
                setup_times, setup_probes, speed.FRESH_REF_S)), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
    (run_dir / "report.json").write_text(json.dumps({**detail, "metrics": metrics},
                                                    indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
