"""Run-configuration parsing with exhaustive schema validation.

``parse_config`` reports every violation it can find in one pass rather
than stopping at the first, so a config file can be fixed in a single
edit-run cycle.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigParseError, LsqflowError, SchemaError
from .graphs import FAMILIES, Graph, _graph_spec, _is_int, graph_from_dict
from .plotting import PlotSpec
from .problem import NetworkLinearEquation
# the engine and parse_config bound a run by the same MAX_STEPS and MAX_SAMPLES
from .simulate import (MAX_SAMPLES, MAX_STEPS, _checked_steps, _run_length,  # noqa: F401
                       component_names)
from .switching import SwitchingSignal

MODES = (
    "analyze", "solve-lsq", "simulate-ct", "simulate-dt",
    "simulate-switching", "epsilon-star", "graph-feasibility",
)

# Modes that need each input section.
_NEEDS_PROBLEM = tuple(m for m in MODES if m != "graph-feasibility")
_NEEDS_GRAPH = ("analyze", "simulate-ct", "simulate-dt", "epsilon-star")
_NEEDS_X0 = ("simulate-ct", "simulate-dt", "simulate-switching")

DEFAULT_STEP_H = 0.005
DEFAULT_T_END = 200.0
DEFAULT_MAX_STEPS = 40000
DEFAULT_RECORD_EVERY = 10

# graph-feasibility rows: family graphs need three nodes; the largest
# allowed graph bounds the support search of one row (ring-1000, the
# slowest family, takes about 11 s with BLAS on one thread).
MAX_FEASIBILITY_NODES = 1000


@dataclass(eq=False)
class RunConfig:
    mode: str
    problem: Optional[NetworkLinearEquation] = None
    graph: Optional[Graph] = None
    switching: Optional[SwitchingSignal] = None
    x0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    step_h: float = DEFAULT_STEP_H
    t_end: float = DEFAULT_T_END
    record_every: int = DEFAULT_RECORD_EVERY
    epsilon: Optional[float] = None
    max_steps: int = DEFAULT_MAX_STEPS
    alpha: float = 0.0
    rows: Optional[list] = None            # graph-feasibility (family, n) pairs
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    plot: Optional[PlotSpec] = None


def _is_number(v) -> bool:
    """A JSON number that is finite as a float; ``json.loads`` also accepts
    ``NaN``, ``Infinity`` and integers too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _numeric_matrix(v):
    if not isinstance(v, list) or not v:
        return None
    width = None
    for row in v:
        if not isinstance(row, list) or not row or not all(_is_number(x) for x in row):
            return None
        if width is None:
            width = len(row)
        elif len(row) != width:
            return None
    return np.array(v, dtype=float)


def _numeric_vector(v):
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        return None
    return np.array(v, dtype=float)


def _parse_problem(section, violations):
    if not isinstance(section, dict):
        violations.append(("problem", "must be an object with keys H and z"))
        return None
    H = None
    z = None
    if "H" not in section:
        violations.append(("H", "required"))
    else:
        H = _numeric_matrix(section["H"])
        if H is None:
            violations.append(("H", "must be a non-empty rectangular matrix of finite numbers"))
    if "z" not in section:
        violations.append(("z", "required"))
    else:
        z = _numeric_vector(section["z"])
        if z is None:
            violations.append(("z", "must be an array of finite numbers"))
    if H is None or z is None:
        return None
    try:
        return NetworkLinearEquation(H, z)
    except LsqflowError as exc:
        violations.append(("problem", str(exc)))
        return None


def _node_mismatch(section, n_nodes):
    """Why a graph section does not fit a problem with ``n_nodes`` nodes,
    or None. Read from the section's ``n`` before the graph is built, so
    that an oversized graph costs nothing."""
    n = section.get("n") if isinstance(section, dict) else None
    if n_nodes is not None and _is_int(n) and n != n_nodes:
        return f"has {n} nodes, problem has {n_nodes}"
    return None


def _parse_graph(section, violations, n_nodes, path="graph"):
    """The section's graph, or None. Without a problem (n_nodes None) its
    size cannot be judged, so only its type, n and edges are checked and
    the graph is not built."""
    try:
        if n_nodes is None:
            _graph_spec(section)
            return None
        return graph_from_dict(section)
    except (LsqflowError, ValueError) as exc:
        violations.append((path, str(exc)))
        return None


def _parse_switching(section, violations, n_nodes):
    if not isinstance(section, dict):
        violations.append(("switching", "must be an object"))
        return None
    ok = True
    period = section.get("period_T")
    if period is None:
        violations.append(("period_T", "required"))
        ok = False
    elif not _is_number(period) or period <= 0:
        violations.append(("period_T", "must be positive"))
        ok = False
    graph_specs = section.get("graphs")
    graphs = []
    if not isinstance(graph_specs, list) or not graph_specs:
        violations.append(("graphs", "must be a non-empty list of graph objects"))
        ok = False
    else:
        for k, gs in enumerate(graph_specs):
            mismatch = _node_mismatch(gs, n_nodes)
            if mismatch:
                violations.append(("switching", f"graphs[{k}] {mismatch}"))
                ok = False
                continue
            g = _parse_graph(gs, violations, n_nodes, path=f"graphs[{k}]")
            if g is None:
                ok = False
            else:
                graphs.append(g)
    if not ok:
        return None
    try:
        return SwitchingSignal(period_T=float(period), graphs=tuple(graphs))
    except LsqflowError as exc:
        violations.append(("switching", str(exc)))
        return None


def _parse_plot(section, violations, problem=None):
    """The plot section; with a problem, every series must name one of
    its components, ``error`` or ``cost``."""
    if not isinstance(section, dict):
        violations.append(("plot", "must be an object"))
        return None
    series = section.get("series")
    path = section.get("path")
    ok = True
    if not isinstance(series, list) or not all(isinstance(s, str) for s in series):
        violations.append(("series", "must be a list of component names"))
        ok = False
    elif not series:
        violations.append(("series", "must name at least one series"))
        ok = False
    elif problem is not None:
        known = {"error", "cost", *component_names(problem.n_nodes, problem.dim)}
        unknown = [s for s in series if s not in known]
        if unknown:
            violations.append(("series", f"unknown {', '.join(map(repr, unknown))}; expected "
                                         f"error, cost, x_i_j or v_i_j with i <= "
                                         f"{problem.n_nodes} and j <= {problem.dim}"))
            ok = False
    if path is not None and not isinstance(path, str):
        violations.append(("path", "must be a string path"))
        ok = False
    if not ok:
        return None
    return PlotSpec(
        series=tuple(series),
        xlabel=str(section.get("xlabel", "t")),
        ylabel=str(section.get("ylabel", "value")),
        path=path,
    )


def _positive(data, key, default, violations, integer=False):
    if key not in data:
        return default
    v = data[key]
    if integer:
        if not _is_int(v) or v < 1:
            violations.append((key, "must be a positive integer"))
            return default
        return v
    if not _is_number(v) or v <= 0:
        violations.append((key, "must be positive"))
        return default
    return float(v)


def _check_work(mode, step_h, t_end, max_steps, record_every, switching, violations) -> None:
    """The run's own checks, before it starts: work bounds, and a t_end
    that is a whole number of steps (of periods, for a switching run).
    Skipped when a value they read was rejected, so that they do not
    judge the default put in its place."""
    if mode == "simulate-dt":
        key, used = "max_steps", ("max_steps", "record_every")
    elif mode in ("simulate-ct", "simulate-switching"):
        key, used = "t_end", ("step_h", "t_end", "record_every")
        period = (switching.period_T if switching is not None and mode == "simulate-switching"
                  else None)
    else:
        return
    if any(path in used for path, _ in violations):
        return
    try:
        if mode == "simulate-dt":
            _checked_steps(max_steps, record_every)
        else:
            _run_length(step_h, t_end, record_every, period)
    except ValueError as exc:
        violations.append((getattr(exc, "key", key), str(exc)))


def parse_config(text: str, base_dir: Optional[str] = None,
                 default_mode: Optional[str] = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    ``base_dir`` resolves a relative ``problem_path``; ``default_mode``
    fills in a missing ``mode`` (the CLI passes its subcommand here).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(str(exc), exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise SchemaError([("$", "top level must be an object")])

    violations = []
    mode = data.get("mode", default_mode)
    if mode is None:
        violations.append(("mode", "required"))
    elif mode not in MODES:
        violations.append(("mode", f"must be one of {', '.join(MODES)}"))
    elif default_mode is not None and "mode" in data and data["mode"] != default_mode:
        violations.append(("mode", f"config says {data['mode']!r} but the "
                                   f"command requested {default_mode!r}"))

    problem = None
    if "problem_path" in data:
        path = data["problem_path"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path) as fh:
                problem = _parse_problem(json.load(fh), violations)
        except OSError as exc:
            violations.append(("problem_path", str(exc)))
        except json.JSONDecodeError as exc:
            violations.append(("problem_path", f"invalid JSON: {exc}"))
    elif "problem" in data:
        problem = _parse_problem(data["problem"], violations)
    elif mode in _NEEDS_PROBLEM:
        violations.append(("problem", "required"))

    n_nodes = problem.n_nodes if problem is not None else None
    graph = None
    if "graph" in data:
        mismatch = _node_mismatch(data["graph"], n_nodes)
        if mismatch:
            violations.append(("graph", mismatch))
        else:
            graph = _parse_graph(data["graph"], violations, n_nodes)
    elif mode in _NEEDS_GRAPH:
        violations.append(("graph", "required"))

    switching = None
    if "switching" in data:
        switching = _parse_switching(data["switching"], violations, n_nodes)
    elif mode == "simulate-switching":
        violations.append(("switching", "required"))

    step_h = _positive(data, "step_h", DEFAULT_STEP_H, violations)
    t_end = _positive(data, "t_end", DEFAULT_T_END, violations)
    record_every = _positive(data, "record_every", DEFAULT_RECORD_EVERY,
                             violations, integer=True)
    max_steps = _positive(data, "max_steps", DEFAULT_MAX_STEPS, violations, integer=True)
    _check_work(mode, step_h, t_end, max_steps, record_every, switching, violations)
    epsilon = None
    if "epsilon" in data:
        epsilon = _positive(data, "epsilon", None, violations)
    elif mode == "simulate-dt":
        violations.append(("epsilon", "required"))
    alpha = 0.0
    if "alpha" in data:
        v = data["alpha"]
        if not _is_number(v) or v < 0:
            violations.append(("alpha", "must be nonnegative"))
        else:
            alpha = float(v)

    x0 = v0 = None
    if "x0" in data:
        x0 = _numeric_vector(data["x0"])
        if x0 is None:
            violations.append(("x0", "must be an array of finite numbers"))
    elif mode in _NEEDS_X0:
        violations.append(("x0", "required"))
    if "v0" in data:
        v0 = _numeric_vector(data["v0"])
        if v0 is None:
            violations.append(("v0", "must be an array of finite numbers"))
    if problem is not None:
        nm = problem.n_nodes * problem.dim
        if x0 is not None and x0.shape != (nm,):
            violations.append(("x0", f"must have length {nm}"))
        if v0 is not None and v0.shape != (nm,):
            violations.append(("v0", f"must have length {nm}"))

    rows = None
    if "rows" in data:
        rows = []
        raw_rows = data["rows"]
        if not isinstance(raw_rows, list):
            violations.append(("rows", "must be a list of [family, n] pairs"))
            rows = None
        else:
            for k, item in enumerate(raw_rows):
                if (not isinstance(item, list) or len(item) != 2
                        or item[0] not in FAMILIES or not _is_int(item[1])):
                    violations.append((f"rows[{k}]", "must be [family, n] with a known family"))
                elif not 3 <= item[1] <= MAX_FEASIBILITY_NODES:
                    violations.append((f"rows[{k}]", f"n must be between 3 and "
                                                     f"{MAX_FEASIBILITY_NODES}"))
                else:
                    rows.append((item[0], item[1]))
    elif mode == "graph-feasibility":
        violations.append(("rows", "required"))

    plot = _parse_plot(data["plot"], violations, problem) if "plot" in data else None

    out_csv = data.get("out_csv")
    out_json = data.get("out_json")
    for key, val in (("out_csv", out_csv), ("out_json", out_json)):
        if val is not None and not isinstance(val, str):
            violations.append((key, "must be a string path"))

    if violations:
        raise SchemaError(violations)
    return RunConfig(
        mode=mode, problem=problem, graph=graph, switching=switching,
        x0=x0, v0=v0, step_h=step_h, t_end=t_end, record_every=record_every,
        epsilon=epsilon, max_steps=max_steps, alpha=alpha, rows=rows,
        out_csv=out_csv, out_json=out_json, plot=plot,
    )
