"""Run every fixture config and collect the artifacts under out/.

Reproduces the full set of shipped experiments in one shot: analysis
reports, least-squares solutions, the feasibility table, continuous and
discrete trajectories, and the switching sweeps. Divergent runs are
expected for the large-step fixtures and are reported, not fatal.

After one line per fixture it prints one ``sha256  name`` line per file
in ``--out``, sorted by name: two source trees wrote the same artifacts
when ``diff`` finds no difference between their digest lines.
"""

import argparse
import glob
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lsqflow import parse_config, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", default=os.path.join(os.path.dirname(__file__), "..", "fixtures"))
    parser.add_argument("--out", default="out")
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
