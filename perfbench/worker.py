"""Closed-loop client with one caller: runs a plan's query list through
`mexlab.cli.main` in this process, one query after another.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source directory, the argv of every query, how many
passes to make over the list, and whether to trace.  Before each query the
worker times `speed.probe()`, and once more after the last query; probe
time is left out of the pass wall.  A traced plan makes one untraced pass
and then one pass with the tracer installed, so the two wall times give
the tracing overhead.  The worker runs nothing but the
workload, so its peak resident memory is the workload's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_pass(cli, queries, tracer=None) -> tuple[float, float, list[dict], list[str]]:
    results, stdouts = [], []
    probes = 0.0
    start = perf_counter()
    for k, argv in enumerate(queries):
        probe_s = speed.probe()
        probes += probe_s
        if tracer is not None:
            tracer.query = k
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, error = cli.main(list(argv)), None
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        latency = perf_counter() - t0
        text = out.getvalue()
        stdouts.append(text)
        results.append({"latency_s": latency, "probe_s": probe_s, "exit": code,
                        "error": error, "stdout_sha": _sha(text.encode())})
    wall = perf_counter() - start - probes
    return wall, speed.probe(), results, stdouts


def _hash_files(io_dir: Path) -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(io_dir.iterdir())
            if p.is_file()}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import mexlab.cli as cli
    from tracer import Tracer

    io_dir = Path(plan["io_dir"])
    passes, first_stdout = [], None
    schedule = [False, True] if plan["trace"] else [False] * plan["passes"]
    for traced in schedule:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            wall, end_probe, results, stdouts = _run_pass(cli, plan["queries"], tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write_jsonl(plan["trace_path"])
        if first_stdout is None:
            first_stdout = stdouts
        passes.append({"wall_s": wall, "end_probe_s": end_probe, "traced": traced,
                       "queries": results,
                       "files": _hash_files(io_dir)})
    result = {"passes": passes, "first_stdout": first_stdout,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "mexlab_file": cli.__file__}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
