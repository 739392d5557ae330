"""Batch command-line interface.

One run per invocation: load a JSON config, dispatch on mode, write
artifacts (JSON report, trajectory CSV, optional SVG), and exit with
0 on success, 2 on divergence (partial trajectory still written), or
1 on any other error. Errors always carry a machine-readable JSON
envelope on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import MODES, RunConfig, _parse_plot, parse_config
from .errors import (DivergedError, LsqflowError, NoStableModesError, NotCharacterizedError,
                     SchemaError)
from .graphs import family_min_support, laplacian, make_family, spectrum, support_report
from .plotting import PlotSpec, emit_plot
from .problem import solve_least_squares
from .simulate import DiscreteConfig, simulate_damped, simulate_dt, write_trajectory_csv
from .spectral import assemble, build_spectral_report, epsilon_star
from .switching import simulate_switching

PROG = "lsqflow"


def _resolve(path: str, out_dir) -> str:
    if os.path.isabs(path) or out_dir is None:
        return path
    return os.path.join(out_dir, path)


def _bracketed(items, indent: str, brackets: str = "[]") -> str:
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for payloads of
    string-keyed dicts, lists, scalars and arrays (as their ``tolist()``).
    ``indent`` selects the pure-Python encoder, which is slow on the
    (n m)^2 floats of ``projector_W``. So a finite 2-D float64 array is
    checked once as a whole, and its floats are rendered here with
    ``float.__repr__``, as that encoder renders them, once per distinct
    row, keyed by its exact bits (so 0.0 and -0.0 stay apart): W has only
    m distinct rows.
    """
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        if not (value.ndim == 2 and value.size and value.dtype == np.float64
                and np.isfinite(value).all()):
            return _json_text(value.tolist(), indent)
        value = np.ascontiguousarray(value)
        keys = value.view(np.dtype((np.void, value.itemsize * value.shape[1]))).ravel().tolist()
        rendered = {}
        for k, key in enumerate(keys):
            if key not in rendered:
                rendered[key] = _bracketed(map(float.__repr__, value[k].tolist()), inner)
        return _bracketed(map(rendered.__getitem__, keys), indent)
    if isinstance(value, dict) and value:
        return _bracketed((f"{json.dumps(key)}: {_json_text(value[key], inner)}"
                           for key in sorted(value)), indent, "{}")
    if isinstance(value, (list, tuple)) and value:
        return _bracketed((_json_text(v, inner) for v in value), indent)
    return json.dumps(value)


def _json_out(payload: dict, config: RunConfig, out_dir, stdout=None) -> None:
    """Render the payload once if it goes anywhere: printed to ``stdout``
    when given, written to the config's ``out_json`` when set."""
    if stdout is None and config.out_json is None:
        return
    text = _json_text(payload)
    if stdout is not None:
        print(text, file=stdout)
    if config.out_json is not None:
        target = _resolve(config.out_json, out_dir)
        with open(target, "w") as fh:
            fh.write(text + "\n")


def _verdict_payload(verdict) -> dict:
    if verdict.witness is None:
        witness = None
    else:
        eigenvalue, direction = verdict.witness
        witness = {
            "eigenvalue": float(eigenvalue),
            "direction": [float(v) for v in direction],
        }
    return {
        "holds": verdict.holds,
        "method": "both",  # a fixed name, so payloads stay byte-stable
        "witness": witness,
        "witness_support": (None if verdict.witness_support is None
                            else sorted(verdict.witness_support)),
    }


def _analyze_payload(report) -> dict:
    """The analyze payload of a spectral report; its arrays stay arrays
    for :func:`_json_text`."""
    return {
        "condition": _verdict_payload(report.condition),
        "spectral": {
            "m_eigenvalues": np.column_stack([report.m_eigenvalues.real,
                                              report.m_eigenvalues.imag]),
            "epsilon_star": report.epsilon_star,
            "zero_space_dim": report.zero_space_dim,
            "projector_W": report.projector_W,
        },
    }


def _run_analyze(config: RunConfig, out_dir, stdout) -> int:
    report = build_spectral_report(assemble(config.problem, config.graph))
    _json_out(_analyze_payload(report), config, out_dir, stdout)
    return 0


def _run_solve_lsq(config: RunConfig, out_dir, stdout) -> int:
    sol = solve_least_squares(config.problem)
    payload = {
        "y_star": [float(v) for v in sol.y_star],
        "residual": [float(v) for v in sol.residual],
        "objective": float(sol.objective),
    }
    _json_out(payload, config, out_dir, stdout)
    return 0


def _run_epsilon_star(config: RunConfig, out_dir, stdout) -> int:
    try:
        value = epsilon_star(assemble(config.problem, config.graph))
    except NoStableModesError as exc:
        raise NoStableModesError("every system eigenvalue sits on the imaginary axis; "
                                 "no finite step threshold exists") from exc
    print(f"{value:.17g}", file=stdout)
    _json_out({"epsilon_star": value}, config, out_dir)
    return 0


def _run_feasibility(config: RunConfig, out_dir, stdout) -> int:
    rows = []
    for family, n in config.rows:
        graph = make_family(family, n)
        report = support_report(spectrum(laplacian(graph)))
        try:
            closed = family_min_support(family, n)
        except NotCharacterizedError:
            closed = None
        rows.append({"family": family, "n": n,
                     "min_support": report.min_support, "closed_form": closed})
    widths = (10, 4, 11, 11)
    header = ("family", "n", "min_support", "closed_form")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=stdout)
    for row in rows:
        cells = (row["family"], str(row["n"]), str(row["min_support"]),
                 "null" if row["closed_form"] is None else str(row["closed_form"]))
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)), file=stdout)
    _json_out({"rows": rows}, config, out_dir)
    return 0


def _emit_artifacts(traj, config: RunConfig, out_dir, default_csv: str) -> None:
    csv_path = _resolve(config.out_csv or default_csv, out_dir)
    write_trajectory_csv(traj, csv_path)
    if config.plot is not None:
        svg = emit_plot(traj, config.plot)
        svg_path = _resolve(config.plot.path or "plot.svg", out_dir)
        with open(svg_path, "w") as fh:
            fh.write(svg)


def _run_simulation(config: RunConfig, out_dir, stdout) -> int:
    mode = config.mode
    default_csv = f"{mode}.csv"
    v0 = config.v0
    if v0 is None:
        v0 = np.zeros_like(config.x0)
    try:
        if mode == "simulate-ct":
            traj = simulate_damped(assemble(config.problem, config.graph), config.alpha,
                                   config.x0, v0, config.step_h, config.t_end,
                                   record_every=config.record_every)
        elif mode == "simulate-dt":
            flow = assemble(config.problem, config.graph)
            dt_config = DiscreteConfig(epsilon=config.epsilon, max_steps=config.max_steps,
                                       record_every=config.record_every)
            traj = simulate_dt(flow, config.x0, v0, dt_config)
        else:
            traj = simulate_switching(config.problem, config.switching, config.x0, v0,
                                      config.step_h, config.t_end,
                                      record_every=config.record_every)
    except DivergedError as exc:
        if exc.trajectory is not None:
            _emit_artifacts(exc.trajectory, config, out_dir, default_csv)
        raise
    _emit_artifacts(traj, config, out_dir, default_csv)
    return 0


_DISPATCH = {
    "analyze": _run_analyze,
    "solve-lsq": _run_solve_lsq,
    "simulate-ct": _run_simulation,
    "simulate-dt": _run_simulation,
    "simulate-switching": _run_simulation,
    "epsilon-star": _run_epsilon_star,
    "graph-feasibility": _run_feasibility,
}


def error_envelope(exc: Exception) -> dict:
    details = {}
    if isinstance(exc, DivergedError):
        details = {"t_or_k": exc.t_or_k, "bad_components": list(exc.bad_components)}
    elif hasattr(exc, "violations"):
        details = {"violations": [[p, r] for p, r in exc.violations]}
    elif hasattr(exc, "line"):
        details = {"line": exc.line, "col": exc.col}
    return {"error": type(exc).__name__, "message": str(exc), "details": details}


def run(config: RunConfig, out_dir=None, stdout=None, stderr=None) -> int:
    """Execute one configured run; returns the process exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    try:
        return _DISPATCH[config.mode](config, out_dir, stdout)
    except DivergedError as exc:
        print(json.dumps(error_envelope(exc)), file=stderr)
        return 2


def _plot_override(raw: str, problem) -> PlotSpec:
    # --plot takes either an inline JSON object or a comma-separated
    # list of component names; both are checked like a config's plot,
    # series names against the problem's components.
    raw = raw.strip()
    if raw.startswith("{"):
        section = json.loads(raw)
    else:
        section = {"series": [s for s in raw.split(",") if s]}
    violations = []
    spec = _parse_plot(section, violations, problem)
    if violations:
        raise SchemaError(violations)
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Distributed least-squares network flows: analysis and simulation.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} job from a JSON config")
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--out", default=None, help="directory for output artifacts")
        p.add_argument("--plot", default=None,
                       help="plot override: inline JSON spec or comma-separated series names")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
        config = parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)),
                              default_mode=args.mode)
        if args.plot is not None:
            config.plot = _plot_override(args.plot, config.problem)
        return run(config, out_dir=args.out)
    except (LsqflowError, OSError, ValueError) as exc:
        print(json.dumps(error_envelope(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
