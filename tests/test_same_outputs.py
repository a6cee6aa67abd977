"""scripts/same_outputs.py refuses to compare a parent with itself, and runs
its fixed queries alike on two sides of one source."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                    "user.email=t@example.com", *args], check=True,
                   capture_output=True)


def same_outputs(repo, *args):
    return subprocess.run([sys.executable, "scripts/same_outputs.py", "--parent",
                           "HEAD", *args], cwd=repo, capture_output=True,
                          text=True, timeout=60)


def test_same_outputs_refuses_a_staged_tree_equal_to_the_parent(tmp_path):
    repo = tmp_path / "repo"
    for name in ("scripts/bench_pairs.py", "scripts/same_outputs.py",
                 "perfbench/workloads.py", "perfbench/reference.py"):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / name, repo / name)
    shutil.copytree(ROOT / "src" / "mexlab", repo / "src" / "mexlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    changed = repo / "scripts" / "bench_pairs.py"
    changed.write_text(changed.read_text() + "# changed\n")

    proc = same_outputs(repo, "--seeds", "1")  # the change is not staged
    assert proc.returncode == 2 and not proc.stdout
    assert "stage the change" in proc.stderr

    git(repo, "add", "-A")
    proc = same_outputs(repo, "--seeds", "1-0")  # no seed: the fixed queries only
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("0 workload queries and 11 fixed queries: identical "
                           "exit codes, stdout, stderr and files\n")
