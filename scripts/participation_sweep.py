"""Time both paths of per-edge clique participation over a G(n, p) grid.

Usage, from the root of the repository:

    python3 scripts/participation_sweep.py --n 50,100,150,200,250,300 \
        --p 0.05,0.1,0.2,0.3 --r 4,5 --repeat 3

For each (n, p, r) the script draws gnp(n, p, seed), runs
`graphs._kernel_participation` (one clique-kernel call per edge) and
`graphs._packed_participation` (packed neighbourhood matrices), exits 1
unless the two maps are equal, key order included, and prints the CPU time
of each, the minimum of --repeat runs, with packed/kernel.  The last lines give, per
n, the least p of the grid from which on the packed path is no slower than
the kernel at every larger p and every r: `graphs._PACKED_MAX_ORDER` and
`graphs._PACKED_MIN_DENSITY` are set from them.  Cells whose G(n, p) would
have more than --max-edges edges are skipped.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from mexlab import graphs  # noqa: E402


def cpu_ms(fn, g, r: int, repeat: int):
    """The map fn(g, r) and the least CPU time of repeat runs, in ms."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        out = fn(g, r)
        best = min(best, time.process_time() - start)
    return out, best * 1e3


def numbers(kind):
    return lambda text: [kind(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=numbers(int), default=[50, 100, 150, 200, 250, 300])
    ap.add_argument("--p", type=numbers(float), default=[0.05, 0.1, 0.2, 0.3])
    ap.add_argument("--r", type=numbers(int), default=[4, 5])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-edges", type=int, default=10000)
    args = ap.parse_args(argv)
    if not all(4 <= r <= graphs._PIVOT_DEPTH + 2 for r in args.r):
        ap.error(f"the packed path counts r in 4..{graphs._PIVOT_DEPTH + 2}")
    print(f"{'n':>5} {'p':>5} {'r':>2} {'m':>6} {'kernel_ms':>10} {'packed_ms':>10} {'ratio':>6}")
    wins = {}  # (n, p): the packed path was no slower at every r
    for n in args.n:
        for p in args.p:
            if p * n * (n - 1) / 2 > args.max_edges:
                continue
            g = graphs.gnp(n, p, args.seed)
            if g.m == 0:
                continue
            for r in args.r:
                want, kernel = cpu_ms(graphs._kernel_participation, g, r, args.repeat)
                got, packed = cpu_ms(graphs._packed_participation, g, r, args.repeat)
                if list(got.items()) != list(want.items()):
                    sys.exit(f"the two paths' maps differ at n={n}, p={p}, r={r}")
                wins[n, p] = wins.get((n, p), True) and packed <= kernel
                print(f"{n:>5} {p:>5} {r:>2} {g.m:>6} {kernel:>10.2f} {packed:>10.2f} "
                      f"{packed / kernel:>6.2f}")
    for n in args.n:
        ps = sorted(p for m, p in wins if m == n)
        floor = None
        for p in reversed(ps):
            if not wins[n, p]:
                break
            floor = p
        print(f"n = {n}: packed no slower from p = {floor} on" if floor is not None
              else f"n = {n}: packed slower at the densest p")
    return 0


if __name__ == "__main__":
    sys.exit(main())
