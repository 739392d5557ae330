"""Time the analysis stages and the simulators against graph size, with
BLAS on one thread.

For ring, star, complete and path graphs at N = 48, 100 and 200 (by
default), with seeded generic rows (m = 2), it times:

- ``assemble``: what a simulator pays to set up a flow: ``assemble``
  and the first read of its system matrix M, which the analysis never
  builds;
- ``dual``: ``equilibrium_dual``, the n x n Laplacian solve for v*;
- ``eigvals``: M's spectrum (``m_spectrum``): the Laplacian eigen-solve,
  the rank pass over its eigenspaces and the dense eigen-solve of the
  damped block, the part of M that the rank pass does not give;
- ``verdict``: ``check_condition``, which decides from the Laplacian
  alone (its eigen-solve, the rank pass over its eigenspaces and, where
  the condition fails, the witness search); M and its eigen-solve take
  no part in this column;
- ``analyze``: the whole ``build_spectral_report`` (eigen-solve, verdict,
  threshold and projector);
- ``payload``: the analyze mode's JSON text of that report (its
  eigenvalue pairs and, where the condition holds, the projector W);
- ``support_report``: the minimum-support search of ``graph-feasibility``;
- ``dt_step_us`` and ``ct_step_us``: the cost per step, in microseconds,
  of a 3000-step ``simulate_dt`` run at 0.9 epsilon* and a 3000-step
  ``simulate_ct`` run at step epsilon* / 2 (the length of euler-sweep's
  bounded runs), step maps and lifting tables included;
- ``sw_step_us``: the same for a 3000-step ``simulate_switching`` run
  that alternates the graph with a ring (a path, for the ring family)
  every 50 steps, at step epsilon* / 2 of the faster pair member. All
  three record every 100th state. The engine's tables hold at most
  BLOCK_DOUBLES doubles, so with n = 4N state components their depth is
  at most BLOCK_DOUBLES // n^2 - 1: anchors every 4 steps at N = 48, and
  from N = 91 on (more than 362 components) depth 0, plain stepping;
- ``csv_ns_per_cell``: the cost per value, in nanoseconds, of
  ``write_trajectory_csv`` on that ``simulate_ct`` run recorded every
  CSV_RECORD_EVERY steps: 3000 / 10 + 1 rows of 4N + 3 values;
- ``ct_peak_x``: the tracemalloc peak of that recorded run, made once
  and untimed, over its state block of 3000 / 10 + 1 rows of 4N + 1
  doubles. The step map and its tables count in the peak, so the ratio
  grows with N.

The stage figures are the best of ``--repeats`` runs, in milliseconds
unless named otherwise. The table comes first; the last line of stdout
is one JSON object.

    python3 scripts/scale_sweep.py
    python3 scripts/scale_sweep.py --families ring --sizes 200 --repeats 5
    python3 scripts/scale_sweep.py --families path --sizes 4 8 16
"""

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import lsqflow as lf
from lsqflow.cli import _analyze_payload, _json_text

STAGES = ("assemble", "dual", "eigvals", "verdict", "analyze", "payload", "support_report",
          "csv_ns_per_cell", "ct_peak_x")
SIM_STAGES = ("dt_step_us", "ct_step_us", "sw_step_us")
SIM_STEPS = 3000
SW_DWELL = 50
CSV_RECORD_EVERY = 10


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def simulation_us(flow, eps: float, partner, repeats: int) -> dict:
    x0 = np.linspace(-1.0, 1.0, flow.state_dim)
    v0 = np.zeros(flow.state_dim)
    config = lf.DiscreteConfig(epsilon=0.9 * eps, max_steps=SIM_STEPS, record_every=100)
    h = 0.5 * eps
    h_sw = 0.5 * min(eps, lf.epsilon_star(lf.assemble(flow.problem, partner)))
    signal = lf.SwitchingSignal(period_T=SW_DWELL * h_sw, graphs=(flow.graph, partner))
    runs = {
        "dt_step_us": lambda: lf.simulate_dt(flow, x0, v0, config),
        "ct_step_us": lambda: lf.simulate_ct(flow, x0, v0, h, SIM_STEPS * h, record_every=100),
        "sw_step_us": lambda: lf.simulate_switching(flow.problem, signal, x0, v0, h_sw,
                                                    SIM_STEPS * h_sw, record_every=100),
    }
    return {stage: 1e3 * best_ms(run, repeats) / SIM_STEPS for stage, run in runs.items()}


def recorded_run(flow, eps: float, repeats: int) -> dict:
    """``ct_peak_x`` and ``csv_ns_per_cell`` of one recorded simulate_ct run."""
    x0 = np.linspace(-1.0, 1.0, flow.state_dim)
    h = 0.5 * eps
    tracemalloc.start()
    try:
        traj = lf.simulate_ct(flow, x0, np.zeros(flow.state_dim), h, SIM_STEPS * h,
                              record_every=CSV_RECORD_EVERY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(traj.t_or_k)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        ms = best_ms(lambda: lf.write_trajectory_csv(traj, path), repeats)
    return {"ct_peak_x": peak / (8 * rows * (1 + 2 * flow.state_dim)),
            "csv_ns_per_cell": 1e6 * ms / (rows * (3 + 2 * flow.state_dim))}


def sweep(family: str, n: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    problem = lf.NetworkLinearEquation(rng.standard_normal((n, 2)), rng.standard_normal(n))
    graph = lf.make_family(family, n)
    flow = lf.assemble(problem, graph)
    report = lf.build_spectral_report(flow)

    def support():
        lf.support_report(lf.spectrum(lf.laplacian(graph)))

    row = {
        "assemble": best_ms(lambda: lf.assemble(problem, graph).M, repeats),
        "dual": best_ms(lambda: lf.equilibrium_dual(flow), repeats),
        "eigvals": best_ms(lambda: lf.m_spectrum(flow), repeats),
        "verdict": best_ms(lambda: lf.check_condition(problem, graph), repeats),
        "analyze": best_ms(lambda: lf.build_spectral_report(flow), repeats),
        "payload": best_ms(lambda: _json_text(_analyze_payload(report)), repeats),
        "support_report": best_ms(support, repeats),
    }
    eps = report.epsilon_star
    row.update(recorded_run(flow, eps, repeats))
    partner = lf.make_family("path" if family == "ring" else "ring", n)
    row.update(simulation_us(flow, eps, partner, repeats))
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--families", nargs="+", default=["ring", "star", "complete", "path"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[48, 100, 200])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    columns = [*STAGES, *SIM_STAGES]
    results = {}
    print(f"{'graph':14s}" + "".join(f"{c:>16s}" for c in columns))
    for family in args.families:
        for n in args.sizes:
            row = sweep(family, n, args.repeats)
            results[f"{family}-{n}"] = row
            print(f"{family + '-' + str(n):14s}" + "".join(f"{row[c]:16.2f}" for c in columns),
                  flush=True)
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
