"""Time the analysis stages against graph size, with BLAS on one thread.

For ring, star, complete and path graphs at N = 48, 100 and 200 (by
default), with seeded generic rows (m = 2), it times:

- ``assemble``: building the flow matrices;
- ``eigvals``: the dense eigen-solve of M (``m_spectrum``);
- ``verdict``: the condition verdict of method ``both`` from that
  spectrum, Laplacian eigen-solve included;
- ``analyze``: the whole ``build_spectral_report`` (eigen-solve, verdict,
  threshold and projector);
- ``support_report``: the minimum-support search of ``graph-feasibility``.

Each figure is the best of ``--repeats`` runs, in milliseconds. The table
comes first; the last line of stdout is one JSON object.

    python3 scripts/scale_sweep.py
    python3 scripts/scale_sweep.py --families ring --sizes 200 --repeats 5
"""

import argparse
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import lsqflow as lf
from lsqflow.spectral import _verdict

STAGES = ("assemble", "eigvals", "verdict", "analyze", "support_report")


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def sweep(family: str, n: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    problem = lf.NetworkLinearEquation(rng.standard_normal((n, 2)), rng.standard_normal(n))
    graph = lf.make_family(family, n)
    flow = lf.assemble(problem, graph)
    eigs = lf.m_spectrum(flow)

    def verdict():
        _verdict(problem, graph, lf.spectrum(lf.laplacian(graph)), eigs, "both")

    def support():
        lf.support_report(lf.spectrum(lf.laplacian(graph)), seed=0)

    return {
        "assemble": best_ms(lambda: lf.assemble(problem, graph), repeats),
        "eigvals": best_ms(lambda: lf.m_spectrum(flow), repeats),
        "verdict": best_ms(verdict, repeats),
        "analyze": best_ms(lambda: lf.build_spectral_report(flow), repeats),
        "support_report": best_ms(support, repeats),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", nargs="+", default=["ring", "star", "complete", "path"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[48, 100, 200])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    results = {}
    print(f"{'graph':14s}" + "".join(f"{s:>16s}" for s in STAGES) + "   (ms)")
    for family in args.families:
        for n in args.sizes:
            row = sweep(family, n, args.repeats)
            results[f"{family}-{n}"] = row
            print(f"{family + '-' + str(n):14s}" + "".join(f"{row[s]:16.1f}" for s in STAGES))
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
