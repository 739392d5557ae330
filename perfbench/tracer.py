"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records one span (name, start, end, parent) in
in-memory arrays; nothing is written until :meth:`Tracer.dump`. Per-layer
figures are derived from the spans afterwards: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "problem", "graphs", "spectral", "simulate",
          "switching", "plotting")
LINALG = ("eigvals", "svd", "eigh", "lstsq")


def _trajectory_counts(traj) -> tuple:
    """(integrator steps, recorded samples) of a full or partial trajectory."""
    last = float(traj.t_or_k[-1])
    if traj.metadata.get("integrator") == "euler":
        steps = int(round(last))
    else:
        steps = int(round(last / traj.metadata["step"]))
    return steps, len(traj.t_or_k)


def _count_run(layer, function):
    def after(counts, args, kwargs, result, exc):
        traj = result if exc is None else getattr(exc, "trajectory", None)
        if exc is not None and type(exc).__name__ == "DivergedError":
            counts[f"{layer}.diverged"] += 1
        if traj is not None:
            steps, samples = _trajectory_counts(traj)
            counts[f"{layer}.steps"] += steps
            counts[f"{layer}.{function}.steps"] += steps
            counts[f"{layer}.samples"] += samples
    return after


def _count_csv_bytes(counts, args, kwargs, result, exc):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if exc is None and path is not None:
        counts["simulate.write_trajectory_csv.bytes"] += os.path.getsize(path)


def _count_svg_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["plotting.emit_plot.bytes"] += len(result.encode())


# Counters read off a wrapped call's arguments and result.
AFTER = {
    "simulate.simulate_ct": _count_run("simulate", "simulate_ct"),
    "simulate.simulate_dt": _count_run("simulate", "simulate_dt"),
    "switching.simulate_switching": _count_run("switching", "simulate_switching"),
    "simulate.write_trajectory_csv": _count_csv_bytes,
    "plotting.emit_plot": _count_svg_bytes,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if after is not None:
                    after(self.counts, args, kwargs, None, exc)
                raise
            self._close(idx)
            if after is not None:
                after(self.counts, args, kwargs, result, None)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every public function of each layer module, and the four
        numpy.linalg kernels, at every place the package binds them."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sys.modules.items() if name.startswith(prefix)]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        for attr in LINALG:
            self._patch(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: {"calls", "s", "self_s"}."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) * 1e-9
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                          "self_s": float(self_time[mask].sum())}
        return out

    def dump(self, path) -> None:
        base = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name),
                "parent": list(self.parent),
                "start_ns": [s - base for s in self.start],
                "end_ns": [e - base for e in self.end],
                "counts": dict(self.counts),
            }, fh)
