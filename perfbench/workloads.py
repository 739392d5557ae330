"""The benchmark's three workloads.

``jobs(p)`` builds the inputs of pass ``p`` from ``(seed, p)`` and returns
the pass's jobs; set-up is constructing the workload plus ``jobs(0)``.
Generated workloads draw fresh values every pass, so no pass repeats an
earlier pass's inputs; only their structure (families, sizes, row
patterns), and so their work, is fixed. A job's ``call`` is the timed
operation; its ``check`` compares the output against :mod:`oracles`
afterwards, untimed, and returns failure messages.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import shutil
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracles


class Job:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call      # () -> value; may raise
        self.check = check    # (value, exc) -> list of failure messages


def _captured(fn, *args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fn(*args, **kwargs)
    return code, out.getvalue(), err.getvalue()


def _unexpected(exc) -> list:
    return [] if exc is None else [f"unexpected {type(exc).__name__}: {exc}"]


def _edges(spec: dict) -> list:
    if spec["type"] == "custom":
        return [tuple(e) for e in spec["edges"]]
    return oracles.family_edges(spec["type"], spec["n"])


class FixtureCorpus:
    """Every job config under fixtures/, run through the CLI entry point.

    The corpus is fixed: the seed changes nothing, so every run does the
    same jobs in the same order.
    """

    name = "fixture-corpus"
    SKIP = ("pent_graph_pair.json",)   # an input of the switching fixtures, not a job
    DIVERGENT = ("chain4_dt_step004.json", "star4_dt_step001.json")

    def __init__(self, lf, seed: int, root: str, scratch: str):
        self.cli = sys.modules[lf.__name__ + ".cli"]
        self.scratch = scratch
        self.stats = Counter()
        self.digests = {}
        self.tails = {}
        self.fixtures = []
        for path in sorted(glob.glob(os.path.join(root, "fixtures", "*.json"))):
            name = os.path.basename(path)
            if name in self.SKIP:
                continue
            with open(path) as fh:
                text = fh.read()
            config = lf.parse_config(text, base_dir=os.path.dirname(path))
            self.fixtures.append((name, path, config.mode, json.loads(text)))
        if not self.fixtures:
            raise FileNotFoundError(f"no fixtures under {root}")

    def jobs(self, pass_index: int) -> list:
        return [self._job(*fixture) for fixture in self.fixtures]

    def _job(self, name, path, mode, raw):
        out_dir = os.path.join(self.scratch, name[:-5])

        def call():
            return _captured(self.cli.main, [mode, "--config", path, "--out", out_dir])

        def check(value, exc):
            try:
                failures = _unexpected(exc) or self._check(name, mode, raw, out_dir, *value)
                failures += self._digest(name, out_dir, value)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            return failures

        return Job(name, call, check)

    def _digest(self, name, out_dir, value) -> list:
        """Artifacts and printed payloads must repeat byte for byte."""
        digest = hashlib.sha256(repr(value).encode())
        for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
            digest.update(os.path.basename(path).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        hexdigest = digest.hexdigest()
        first = self.digests.setdefault(name, hexdigest)
        return [] if first == hexdigest else ["artifacts differ from an earlier pass"]

    def _check(self, name, mode, raw, out_dir, code, out, err) -> list:
        expected_code = 2 if name in self.DIVERGENT else 0
        if code != expected_code:
            return [f"exit {code}, expected {expected_code}: {err.strip()[:200]}"]
        problem = raw.get("problem")
        H = np.array(problem["H"], dtype=float) if problem else None
        z = np.array(problem["z"], dtype=float) if problem else None
        if mode == "analyze":
            spec = raw["graph"]
            return oracles.check_analyze(json.loads(out), H, spec["n"], _edges(spec))
        if mode == "solve-lsq":
            return self._check_lsq(json.loads(out), H, z)
        if mode == "epsilon-star":
            spec = raw["graph"]
            expected = oracles.epsilon_star(oracles.m_eigenvalues(H, spec["n"], _edges(spec)))
            got = float(out.strip())
            return [] if abs(got - expected) <= 1e-7 * expected else [
                f"epsilon* {got}, oracle {expected}"]
        if mode == "graph-feasibility":
            return _check_feasibility_table(out, [tuple(r) for r in raw["rows"]])
        return self._check_trajectory(name, mode, raw, out_dir, H, z, err)

    @staticmethod
    def _check_lsq(payload, H, z) -> list:
        y = oracles.least_squares(H, z)
        residual = H @ y - z
        gaps = (np.abs(np.array(payload["y_star"]) - y).max(),
                np.abs(np.array(payload["residual"]) - residual).max(),
                abs(payload["objective"] - float(residual @ residual)))
        return [] if max(gaps) <= 1e-10 else [f"least-squares payload off by {max(gaps):.3e}"]

    def _check_trajectory(self, name, mode, raw, out_dir, H, z, err) -> list:
        failures = []
        csv_path = os.path.join(out_dir, raw.get("out_csv") or f"{mode}.csv")
        header, data = oracles.read_csv(csv_path)
        n = len(H)
        y_star = oracles.least_squares(H, z)
        t = oracles.column(header, data, "t")
        self.stats["steps"] += int(round(t[-1] if mode == "simulate-dt" else t[-1] / raw["step_h"]))
        self.stats["samples"] += len(t)
        self.stats["csv_bytes"] += os.path.getsize(csv_path)
        if oracles.error_column_mismatch(header, data, y_star, n) > 1e-9:
            failures.append("error column disagrees with the x columns")
        plot = raw.get("plot")
        if plot and plot.get("path"):
            with open(os.path.join(out_dir, plot["path"])) as fh:
                if "<svg" not in fh.read(200):
                    failures.append("plot is not an SVG document")
        error = oracles.column(header, data, "error")
        if name == "chain4_ct.json":   # acceptance 04
            dev = oracles.final_node_deviation(header, data, y_star, n)
            if not (dev < 1e-2 and error[-1] < 1e-4):
                failures.append(f"no convergence: node deviation {dev:.2e}, error {error[-1]:.2e}")
        elif name == "chain4_dt_step003.json":   # acceptance 06, below the threshold
            if not error[-1] < 1e-2:
                failures.append(f"no convergence: final error {error[-1]:.2e}")
        elif name == "star4_ct.json":   # acceptance 05
            dev = max(abs(oracles.column(header, data, f"x_{i}_1")[-1] - y_star[0])
                      for i in range(1, n + 1))
            leaves = [oracles.oscillates(oracles.column(header, data, f"x_{i}_2"))
                      for i in range(1, n + 1)]
            if not (dev < 1e-2 and leaves == [False] + [True] * (n - 1)):
                failures.append(f"star oscillation: deviation {dev:.2e}, oscillating {leaves}")
        elif name in self.DIVERGENT:   # acceptance 06, above the threshold
            failures += self._check_divergence(name, raw, header, data, H, err)
        elif name.startswith("pent2d_switch"):   # acceptance 09
            T = raw["switching"]["period_T"]
            p = oracles.period(t, error, T, 3.0 * T)
            if abs(p - 2.0 * T) > 0.05 + 1e-9:
                failures.append(f"error period {p}, expected {2.0 * T}")
        elif name.startswith("pent3d_switch"):   # acceptance 10, checked per pass
            self.tails[raw["switching"]["period_T"]] = (name, oracles.tail_sup(error))
        return failures

    def _check_divergence(self, name, raw, header, data, H, err) -> list:
        """Exit 2 on components carried by a mode with |1 + eps lambda| > 1."""
        spec = raw["graph"]
        names = oracles.component_names(len(H), H.shape[1])
        growing = {names[i] for i in oracles.growing_components(
            H, spec["n"], _edges(spec), raw["epsilon"])}
        bad = set(json.loads(err)["details"]["bad_components"])
        last = data[-1, 1:-2]
        failures = []
        if not bad or not bad <= growing:
            failures.append(f"diverged on {sorted(bad)}, growing modes carry {sorted(growing)}")
        if name == "star4_dt_step001.json" and not bad <= {"x_2_2", "x_3_2", "x_4_2"}:
            failures.append(f"star diverged on {sorted(bad)}, not on leaf second components")
        if np.isfinite(last).all() and np.abs(last).max() <= oracles.DIVERGE_LIMIT:
            failures.append("last recorded state is inside the finite range")
        return failures

    def finish_pass(self) -> dict:
        """Cross-job check: tail error falls as switching gets faster (acceptance 10)."""
        tails = [self.tails[T] for T in sorted(self.tails, reverse=True)]
        self.tails = {}
        values = [v for _, v in tails]
        if len(values) > 1 and not all(a > b for a, b in zip(values, values[1:])):
            msg = f"tail sup error {values} does not fall with the period"
            return {name: [msg] for name, _ in tails}
        return {}

    def properties(self, passes: int) -> dict:
        return {"steps_per_sample": self.stats["steps"] / max(1, self.stats["samples"]),
                "csv_bytes_per_pass": self.stats["csv_bytes"] // passes}


def _check_feasibility_table(out: str, rows: list) -> list:
    lines = out.strip().splitlines()[1:]
    if len(lines) != len(rows):
        return [f"{len(lines)} table rows for {len(rows)} requested"]
    failures = []
    for line, (family, n) in zip(lines, rows):
        cells = line.split()
        expected = oracles.family_min_support(family, n)
        if cells[:2] != [family, str(n)] or int(cells[2]) != expected:
            failures.append(f"{family}-{n}: row {cells}, oracle min support {expected}")
    return failures


class FamilyScan:
    """analyze and graph-feasibility jobs over the four graph families.

    Three row patterns: generic rows (m = 2); generic rows with one
    parallel pair (m = 2); and m = 3 with every even node blind to the
    third axis. Together with the families' repeated eigenvalues this
    makes about half of the verdicts fail, so both the witness search and
    the support search run.
    """

    name = "family-scan"
    FAMILIES = ("path", "ring", "star", "complete")
    SIZES = (8, 12, 16, 24, 32, 48)
    PATTERNS = ("generic", "pair", "blind")

    def __init__(self, lf, seed: int, root: str, scratch: str):
        self.lf = lf
        self.seed = seed
        self.stats = Counter()

    def jobs(self, pass_index: int) -> list:
        lf = self.lf
        rng = np.random.default_rng([self.seed, pass_index])
        cases = []
        for family in self.FAMILIES:
            for n in self.SIZES:
                graph = lf.make_family(family, n)
                config = lf.RunConfig(mode="graph-feasibility", rows=[(family, n)])
                cases.append((f"{family}-{n}-feasibility", config, None))
                for pattern in self.PATTERNS:
                    H = self._rows(rng, pattern, n)
                    problem = lf.NetworkLinearEquation(H, rng.standard_normal(n))
                    config = lf.RunConfig(mode="analyze", problem=problem, graph=graph)
                    cases.append((f"{family}-{n}-{pattern}", config, H))
        return [self._job(*cases[i]) for i in rng.permutation(len(cases))]

    @staticmethod
    def _rows(rng, pattern: str, n: int) -> np.ndarray:
        if pattern == "blind":
            H = rng.standard_normal((n, 3))
            H[1::2, 2] = 0.0
            return H
        H = rng.standard_normal((n, 2))
        if pattern == "pair":
            a, b = rng.choice(n, size=2, replace=False)
            H[b] = rng.uniform(0.5, 2.0) * H[a]
        return H

    def _job(self, name, config, H):
        def call():
            out, err = io.StringIO(), io.StringIO()
            code = self.lf.run(config, out_dir=None, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        def check(value, exc):
            if exc is not None:
                return _unexpected(exc)
            code, out, err = value
            if code != 0:
                return [f"exit {code}: {err.strip()[:200]}"]
            family, n = config.graph.label.split("-") if H is not None else config.rows[0]
            n = int(n)
            w, _, groups = oracles.laplacian_spectrum(n, oracles.family_edges(family, n))
            self.stats["instances"] += 1
            self.stats["repeated"] += any(len(g) > 1 for g in groups)
            if H is None:
                return _check_feasibility_table(out, config.rows)
            payload = json.loads(out)
            self.stats["verdicts"] += 1
            self.stats["failing"] += not payload["condition"]["holds"]
            return oracles.check_analyze(payload, H, n, oracles.family_edges(family, n))

        return Job(name, call, check)

    def finish_pass(self) -> dict:
        return {}

    def properties(self, passes: int) -> dict:
        stats = self.stats
        return {"failing_verdict_share": stats["failing"] / max(1, stats["verdicts"]),
                "repeated_eigenvalue_share": stats["repeated"] / max(1, stats["instances"])}


class EulerSweep:
    """Per flow: assemble and epsilon_star, then Euler runs around the threshold.

    Two runs sit below the threshold (0.5 and 0.9 of it) for a fixed number
    of steps and must stay bounded. Two sit above it at steps solved from
    the oracle spectrum so that the growth rate rho = max |1 + eps lambda|
    predicts divergence near a fixed step; each must diverge before twice
    that step. Fixing the predicted step, not the factor, keeps the work of
    a run independent of the seed: at a fixed factor the divergence step
    ranges over orders of magnitude with the drawn rows.
    """

    name = "euler-sweep"
    FAMILIES = ("path", "ring")
    SIZES = tuple(8 + round(32 * k / 11) for k in range(12))   # 8 .. 40
    BELOW = (0.5, 0.9)
    BELOW_STEPS = 3000
    ABOVE_STEPS = (1000, 2000)   # predicted divergence steps
    RECORD_EVERY = 100

    def __init__(self, lf, seed: int, root: str, scratch: str):
        self.lf = lf
        self.seed = seed
        self.stats = Counter()
        self.state = {}

    def jobs(self, pass_index: int) -> list:
        lf = self.lf
        rng = np.random.default_rng([self.seed, pass_index])
        flows = []
        for family in self.FAMILIES:
            for n in self.SIZES:
                H = rng.standard_normal((n, 2))
                problem = lf.NetworkLinearEquation(H, rng.standard_normal(n))
                flows.append((f"{family}-{n}", problem, lf.make_family(family, n),
                              rng.standard_normal(2 * n), np.zeros(2 * n), H))
        jobs = []
        for i in rng.permutation(len(flows)):
            jobs.append(self._flow_job(*flows[i]))
            for factor in self.BELOW:
                jobs.append(self._run_job(flows[i], "below", factor))
            for k in range(len(self.ABOVE_STEPS)):
                jobs.append(self._run_job(flows[i], "above", k))
        return jobs

    def _flow_job(self, name, problem, graph, x0, v0, H):
        def call():
            flow = self.lf.assemble(problem, graph)
            return flow, self.lf.epsilon_star(flow)

        def check(value, exc):
            self.state.pop(name, None)
            if exc is not None:
                return _unexpected(exc)
            flow, eps = value
            n = len(H)
            eigs = oracles.m_eigenvalues(H, n, oracles.family_edges(graph.label.split("-")[0], n))
            expected = oracles.epsilon_star(eigs)
            self.stats["flows"] += 1
            above = []
            for steps in self.ABOVE_STEPS:
                rho = np.exp(np.log(oracles.DIVERGE_LIMIT) / steps)
                above.append((oracles.step_for_growth(eigs, expected, rho) / expected, 2 * steps))
            self.state[name] = (flow, eps, above)
            return [] if abs(eps - expected) <= 1e-7 * expected else [
                f"epsilon* {eps}, oracle {expected}"]

        return Job(f"{name}-flow", call, check)

    def _run_job(self, flow_inputs, side, which):
        name, problem, graph, x0, v0, H = flow_inputs

        def call():
            flow, eps, above = self.state[name]
            if side == "below":
                factor, cap = which, self.BELOW_STEPS
            else:
                factor, cap = above[which]
            config = self.lf.DiscreteConfig(epsilon=factor * eps, max_steps=cap,
                                            record_every=self.RECORD_EVERY)
            return self.lf.simulate_dt(flow, x0, v0, config), cap

        def check(value, exc):
            self.stats["runs"] += 1
            if side == "above":
                if not isinstance(exc, self.lf.DivergedError):
                    return _unexpected(exc) or ["no divergence before the step cap"]
                self.stats["diverged"] += 1
                self.stats["steps"] += int(exc.t_or_k)
                return []
            if exc is not None:
                return _unexpected(exc)
            traj, cap = value
            self.stats["steps"] += cap
            y_star = oracles.least_squares(H, problem.obs)
            failures = []
            if len(traj.t_or_k) != cap // self.RECORD_EVERY + 1 or not np.isfinite(traj.x).all():
                failures.append("below-threshold run did not stay bounded for its steps")
            if np.abs(traj.y_ref - y_star).max() > 1e-10:
                failures.append("consensus reference differs from the least-squares solution")
            return failures

        label = f"{which:g}" if side == "below" else f"k{self.ABOVE_STEPS[which]}"
        return Job(f"{name}-{side}-{label}", call, check)

    def finish_pass(self) -> dict:
        return {}

    def properties(self, passes: int) -> dict:
        return {"diverged_run_share": self.stats["diverged"] / max(1, self.stats["runs"]),
                "runs_per_flow": self.stats["runs"] / max(1, self.stats["flows"])}


WORKLOADS = {cls.name: cls for cls in (FixtureCorpus, FamilyScan, EulerSweep)}
