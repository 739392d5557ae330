"""Run every fixture config and collect the artifacts under out/.

Reproduces the full set of shipped experiments in one shot: analysis
reports, least-squares solutions, the feasibility table, continuous and
discrete trajectories, and the switching sweeps. Divergent runs are
expected for the large-step fixtures and are reported, not fatal.

After one line per fixture it prints one ``sha256  name`` line per file
in ``--out``, sorted by name: two source trees wrote the same artifacts
when ``diff`` finds no difference between their digest lines.

With ``--against DIR`` it then compares each CSV found both in ``--out``
and in DIR, the artifacts of another source tree, and prints one line
per file: whether the row counts and the ``t`` columns match, and the
largest change of a state component relative to the largest state
component of its row in DIR.

    python3 scripts/run_fixtures.py --out out
    python3 scripts/run_fixtures.py --out new --against out
"""

import argparse
import glob
import hashlib
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lsqflow import parse_config, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", default=os.path.join(os.path.dirname(__file__), "..", "fixtures"))
    parser.add_argument("--out", default="out")
    parser.add_argument("--against", help="directory of another tree's artifacts to compare CSVs with")
    args = parser.parse_args()

    paths = sorted(glob.glob(os.path.join(args.fixtures, "*.json")))
    failures = 0
    for path in paths:
        name = os.path.basename(path)
        if name == "pent_graph_pair.json":
            continue
        with open(path) as fh:
            config = parse_config(fh.read(), base_dir=os.path.dirname(path))
        t0 = time.perf_counter()
        status = run(config, out_dir=args.out)
        dt = time.perf_counter() - t0
        tag = {0: "ok", 2: "diverged"}.get(status, "ERROR")
        print(f"{name:32s} {tag:9s} {dt:7.2f}s")
        if status not in (0, 2):
            failures += 1
    for name in sorted(os.listdir(args.out)):
        path = os.path.join(args.out, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    if args.against:
        for name in sorted(os.listdir(args.out)):
            if name.endswith(".csv") and os.path.isfile(os.path.join(args.against, name)):
                print(compare_csv(os.path.join(args.out, name), os.path.join(args.against, name)))
    return 1 if failures else 0


def compare_csv(path: str, reference: str) -> str:
    """One line on a trajectory CSV against the same run's reference CSV:
    row counts, t columns, and the largest state change relative to the
    largest state component of its reference row."""
    name = os.path.basename(path)
    new, old = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (path, reference))
    if new.shape != old.shape:
        return f"{name:32s} rows {len(new)} vs {len(old)}: not comparable"
    same_t = np.array_equal(new[:, 0], old[:, 0])
    states = slice(1, -2)                       # t first, error and cost last
    scale = np.abs(old[:, states]).max(axis=1)
    a, b = new[:, states], old[:, states]
    change = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b)).max(axis=1)
    relative = np.max(change / np.where(scale > 0, scale, 1.0))
    return (f"{name:32s} rows {len(new)} match, t {'matches' if same_t else 'DIFFERS'}, "
            f"largest relative state change {relative:.3g}")


if __name__ == "__main__":
    sys.exit(main())
