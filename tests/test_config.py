import contextlib
import io
import json
import os
import re

import numpy as np
import pytest

import lsqflow as lf

from _helpers import config_to_dict, serialize_config
from conftest import FIXTURES, fixture_path, load_fixture

CHAIN_PROBLEM = {
    "H": [[0, 1], [3, 0], [2, 0], [1, 0]],
    "z": [-1, 0, -2, 2],
}
CHAIN_GRAPH = {"type": "custom", "n": 4, "edges": [[1, 2], [1, 3], [3, 4]]}


def parse(data, **kw):
    return lf.parse_config(json.dumps(data), **kw)


def violations_of(data, **kw):
    with pytest.raises(lf.SchemaError) as excinfo:
        parse(data, **kw)
    return excinfo.value.violations


def paths_of(data, **kw):
    return [p for p, _ in violations_of(data, **kw)]


class TestJsonErrors:
    def test_parse_error_carries_position(self):
        with pytest.raises(lf.ConfigParseError) as excinfo:
            lf.parse_config('{\n  "mode": }')
        assert excinfo.value.line == 2
        assert excinfo.value.col == 11

    def test_top_level_must_be_object(self):
        with pytest.raises(lf.SchemaError) as excinfo:
            lf.parse_config("[1, 2, 3]")
        assert excinfo.value.violations == [("$", "top level must be an object")]


class TestModeHandling:
    def test_mode_required(self):
        assert ("mode", "required") in violations_of({})

    def test_unknown_mode(self):
        paths = dict(violations_of({"mode": "simulate"}))
        assert "mode" in paths
        assert "must be one of" in paths["mode"]

    def test_mode_of_another_json_type(self):
        # a list cannot key the table of required keys
        assert violations_of({"mode": ["analyze"]})[0][0] == "mode"

    def test_default_mode_fills_missing(self):
        cfg = parse({"problem": CHAIN_PROBLEM}, default_mode="solve-lsq")
        assert cfg.mode == "solve-lsq"

    def test_explicit_mode_must_match_default(self):
        data = {"mode": "analyze", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH}
        parse(data, default_mode="analyze")
        paths = dict(violations_of(data, default_mode="solve-lsq"))
        assert "analyze" in paths["mode"] and "solve-lsq" in paths["mode"]


class TestRequirementsByMode:
    def test_all_gaps_reported_at_once(self):
        paths = paths_of({"mode": "simulate-dt"})
        for missing in ("problem", "graph", "epsilon", "x0"):
            assert missing in paths

    def test_solve_lsq_needs_only_problem(self):
        cfg = parse({"mode": "solve-lsq", "problem": CHAIN_PROBLEM})
        assert cfg.graph is None and cfg.x0 is None

    def test_switching_mode_requirements(self):
        paths = paths_of({"mode": "simulate-switching"})
        assert "switching" in paths and "problem" in paths and "x0" in paths
        assert "graph" not in paths

    def test_feasibility_needs_rows_not_problem(self):
        paths = paths_of({"mode": "graph-feasibility"})
        assert paths == ["rows"]

    @pytest.mark.parametrize("mode, required", [
        ("analyze", ["problem", "graph"]),
        ("solve-lsq", ["problem"]),
        ("simulate-ct", ["problem", "graph", "x0"]),
        ("simulate-dt", ["problem", "graph", "epsilon", "x0"]),
        ("simulate-switching", ["problem", "switching", "x0"]),
        ("epsilon-star", ["problem", "graph"]),
        ("graph-feasibility", ["rows"]),
    ])
    def test_each_mode_reports_exactly_its_missing_keys(self, mode, required):
        assert paths_of({"mode": mode}) == required


class TestProblemSection:
    def test_missing_leaves_reported_individually(self):
        paths = paths_of({"mode": "solve-lsq", "problem": {}})
        assert ("H" in paths) and ("z" in paths)

    def test_ragged_matrix_rejected(self):
        bad = {"H": [[1, 2], [3]], "z": [0, 0]}
        viol = dict(violations_of({"mode": "solve-lsq", "problem": bad}))
        assert "rectangular" in viol["H"]

    def test_booleans_are_not_numbers(self):
        bad = {"H": [[True, 1], [1, 0], [0, 1]], "z": [0, 0, 0]}
        assert "H" in paths_of({"mode": "solve-lsq", "problem": bad})

    def test_z_must_be_numeric_array(self):
        bad = {"H": CHAIN_PROBLEM["H"], "z": "nope"}
        assert "z" in paths_of({"mode": "solve-lsq", "problem": bad})

    def test_rank_deficient_rows_rejected_at_parse(self):
        bad = {"H": [[1, 0], [2, 0], [3, 0]], "z": [0, 0, 0]}
        assert "problem" in paths_of({"mode": "solve-lsq", "problem": bad})

    def test_problem_path_resolved_against_base_dir(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(CHAIN_PROBLEM))
        cfg = parse({"mode": "solve-lsq", "problem_path": "prob.json"},
                    base_dir=str(tmp_path))
        assert cfg.problem.n_nodes == 4

    def test_problem_path_missing_file(self, tmp_path):
        data = {"mode": "solve-lsq", "problem_path": "absent.json"}
        assert "problem_path" in paths_of(data, base_dir=str(tmp_path))

    def test_problem_path_invalid_json(self, tmp_path):
        (tmp_path / "prob.json").write_text("{broken")
        viol = dict(violations_of({"mode": "solve-lsq", "problem_path": "prob.json"},
                                  base_dir=str(tmp_path)))
        assert "invalid JSON" in viol["problem_path"]

    @pytest.mark.parametrize("path", [None, 2.5, [], {}, 1, True], ids=repr)
    def test_problem_path_must_be_a_string(self, path, tmp_path):
        data = {"mode": "solve-lsq", "problem_path": path}
        for base_dir in (None, str(tmp_path)):
            assert violations_of(data, base_dir=base_dir) == [
                ("problem_path", "must be a string path")]

    def test_integer_problem_path_leaves_stdout_open(self, capfd):
        # open(1) would read file descriptor 1 and close it on the way out
        violations_of({"mode": "solve-lsq", "problem_path": 1})
        os.fstat(1)
        print("still open")
        assert capfd.readouterr().out == "still open\n"


class TestNumericFields:
    def test_positive_scalars(self):
        base = {"mode": "solve-lsq", "problem": CHAIN_PROBLEM}
        for key, bad in (("step_h", 0), ("step_h", -1), ("t_end", 0),
                         ("epsilon", 0), ("step_h", True)):
            assert key in paths_of({**base, key: bad})

    def test_positive_integers(self):
        base = {"mode": "solve-lsq", "problem": CHAIN_PROBLEM}
        for key, bad in (("record_every", 0), ("record_every", 2.5),
                         ("max_steps", -3), ("max_steps", True)):
            assert key in paths_of({**base, key: bad})

    def test_alpha_nonnegative(self):
        base = {"mode": "solve-lsq", "problem": CHAIN_PROBLEM}
        assert "alpha" in paths_of({**base, "alpha": -0.5})
        assert parse({**base, "alpha": 0}).alpha == 0.0
        assert parse({**base, "alpha": 1.5}).alpha == 1.5

    def test_non_finite_numbers_rejected(self):
        # json.loads accepts NaN, Infinity and -Infinity (and integers too
        # large for a float); each must come back as a SchemaError path,
        # never as divergence or as a failed SVD
        base = {"mode": "simulate-ct", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
                "x0": [0] * 8}
        H_bad = [row[:] for row in CHAIN_PROBLEM["H"]]
        H_bad[1][0] = float("nan")
        z_bad = CHAIN_PROBLEM["z"][:-1] + [float("inf")]
        x0_bad = [0] * 7 + [-float("inf")]
        cases = (
            ("H", {"problem": {"H": H_bad, "z": CHAIN_PROBLEM["z"]}}),
            ("z", {"problem": {"H": CHAIN_PROBLEM["H"], "z": z_bad}}),
            ("x0", {"x0": x0_bad}),
            ("step_h", {"step_h": float("inf")}),
            ("step_h", {"step_h": float("nan")}),
            ("t_end", {"t_end": 10 ** 400}),
        )
        for key, override in cases:
            assert key in paths_of({**base, **override}), (key, override)

    def test_non_finite_z_is_not_reported_as_divergence(self, tmp_path):
        data = {"mode": "simulate-ct", "problem": {"H": CHAIN_PROBLEM["H"],
                                                   "z": [-1, 0, -2, "INF"]},
                "graph": CHAIN_GRAPH, "x0": [0] * 8, "t_end": 0.1}
        text = json.dumps(data).replace('"INF"', "Infinity")
        path = tmp_path / "inf.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lf.main(["simulate-ct", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        env = json.loads(err.getvalue())
        assert env["error"] == "SchemaError"
        assert "z" in [p for p, _ in env["details"]["violations"]]

    def test_work_is_bounded_before_it_starts(self):
        ct = {"mode": "simulate-ct", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
              "x0": [0] * 8}
        dt = {**ct, "mode": "simulate-dt", "epsilon": 0.01}
        # beyond the step limit (t_end = 1e12 at step 1e-3 asks for 1e15)
        assert paths_of({**ct, "t_end": 1e12, "step_h": 1e-3}) == ["t_end"]
        assert paths_of({**ct, "t_end": 1e300, "step_h": 1e-300}) == ["t_end"]
        assert paths_of({**dt, "max_steps": lf.config.MAX_STEPS + 1,
                         "record_every": 1000}) == ["max_steps"]
        # within the step limit, beyond the sample limit
        assert paths_of({**dt, "max_steps": lf.config.MAX_SAMPLES,
                         "record_every": 1}) == ["max_steps"]
        assert paths_of({**ct, "t_end": 5000.0, "record_every": 1}) == ["t_end"]
        # at either limit
        parse({**dt, "max_steps": lf.config.MAX_STEPS, "record_every": 1000})
        parse({**dt, "max_steps": lf.config.MAX_SAMPLES - 1, "record_every": 1})
        parse({**ct, "t_end": 5000.0, "record_every": 1000})
        # modes that run no integrator ignore t_end
        parse({"mode": "solve-lsq", "problem": CHAIN_PROBLEM, "t_end": 1e12})

    def test_t_end_must_be_a_whole_number_of_steps(self):
        ct = {"mode": "simulate-ct", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
              "x0": [0] * 8, "t_end": 1.0}
        assert paths_of({**ct, "step_h": 0.3}) == ["t_end"]
        assert paths_of({**ct, "step_h": 0.4, "record_every": 1}) == ["t_end"]
        parse({**ct, "step_h": 0.25})
        # a rejected t_end is not judged again through its default, 200
        assert violations_of({**ct, "t_end": -1, "step_h": 0.3}) == [("t_end", "must be positive")]
        assert violations_of({**ct, "t_end": -1, "step_h": 1e-9}) == [("t_end", "must be positive")]
        # a switching run also needs whole periods, each a whole number of steps
        sw = {"mode": "simulate-switching", "problem": CHAIN_PROBLEM, "x0": [0] * 8,
              "switching": {"period_T": 1.0, "graphs": [CHAIN_GRAPH]}}
        assert paths_of({**sw, "step_h": 0.01, "t_end": 2.5}) == ["t_end"]
        assert paths_of({**sw, "step_h": 0.3, "t_end": 2.0}) == ["period_T"]
        parse({**sw, "step_h": 0.25, "t_end": 2.0})

    def test_defaults(self):
        cfg = parse({"mode": "solve-lsq", "problem": CHAIN_PROBLEM})
        assert cfg.step_h == 0.005
        assert cfg.t_end == 200.0
        assert cfg.record_every == 10
        assert cfg.max_steps == 40000
        assert cfg.epsilon is None
        assert cfg.alpha == 0.0


_RUNS = {"ct": "simulate-ct", "damped": "simulate-ct", "dt": "simulate-dt",
         "switching": "simulate-switching"}
_TIMED = ("ct", "damped", "switching")
# (run, config values, the key a config is blamed on, or None for a run that starts);
# switching runs have period_T = 1.0
RUN_LENGTH_CASES = [
    *((run, {"step_h": 0.25, "t_end": 2.0}, None) for run in _TIMED),
    *((run, {"step_h": 0}, "step_h") for run in _TIMED),
    *((run, {"step_h": -0.1}, "step_h") for run in _TIMED),
    *((run, {"t_end": -1.0}, "t_end") for run in _TIMED),
    *((run, {"t_end": float("inf")}, "t_end") for run in _TIMED),
    *((run, {"record_every": 0}, "record_every") for run in (*_TIMED, "dt")),
    # zero steps
    *((run, {"step_h": 0.01, "t_end": 0.001}, "t_end") for run in _TIMED),
    ("dt", {"max_steps": 0}, "max_steps"),
    # more than 10^8 steps, more than 10^6 samples
    *((run, {"step_h": 1e-9, "t_end": 1.0, "record_every": 1000}, "t_end") for run in _TIMED),
    *((run, {"step_h": 1e-3, "t_end": 2000.0, "record_every": 1}, "t_end") for run in _TIMED),
    ("dt", {"max_steps": 10**8 + 1, "record_every": 1000}, "max_steps"),
    ("dt", {"max_steps": 10**6, "record_every": 1}, "max_steps"),
    ("dt", {"max_steps": 10**6 - 1, "record_every": 1}, None),
    # beyond the float range: bounded before t_end / step_h can overflow
    ("dt", {"max_steps": 10**400}, "max_steps"),
    # t_end off the step grid, or not a whole number of periods
    *((run, {"step_h": 0.3, "t_end": 1.0}, "t_end") for run in ("ct", "damped")),
    ("switching", {"step_h": 0.01, "t_end": 2.5}, "t_end"),
    # a period off the step grid
    ("switching", {"step_h": 0.3, "t_end": 2.0}, "period_T"),
]


@pytest.mark.parametrize("run, values, key", RUN_LENGTH_CASES, ids=[
    f"{run}-{','.join(f'{k}={v}' for k, v in values.items())}"
    for run, values, _ in RUN_LENGTH_CASES])
def test_config_and_library_agree_on_run_length(monkeypatch, run, values, key):
    # a config is a violation on the key exactly when the library
    # simulator raises ValueError before its first step
    data = {"mode": _RUNS[run], "problem": CHAIN_PROBLEM, "x0": [0] * 8, **values}
    if run == "switching":
        data["switching"] = {"period_T": 1.0, "graphs": [CHAIN_GRAPH]}
    else:
        data["graph"] = CHAIN_GRAPH
    data.update({"damped": {"alpha": 1.0}, "dt": {"epsilon": 0.01}}.get(run, {}))
    if key is None:
        parse(data)
    else:
        assert paths_of(data) == [key]

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(lf.simulate, "_propagate", started)
    v = {"step_h": 0.005, "t_end": 200.0, "record_every": 10, "max_steps": 40000, **values}
    problem = lf.NetworkLinearEquation(np.array(CHAIN_PROBLEM["H"], dtype=float),
                                       np.array(CHAIN_PROBLEM["z"], dtype=float))
    graph = lf.graph_from_dict(CHAIN_GRAPH)
    flow = lf.assemble(problem, graph)
    zeros = np.zeros(8)
    timed = (zeros, zeros, v["step_h"], v["t_end"], v["record_every"])
    calls = {
        "ct": lambda: lf.simulate_ct(flow, *timed),
        "damped": lambda: lf.simulate_damped(flow, 1.0, *timed),
        "dt": lambda: lf.simulate_dt(flow, zeros, zeros, lf.DiscreteConfig(
            epsilon=0.01, max_steps=v["max_steps"], record_every=v["record_every"])),
        "switching": lambda: lf.simulate_switching(problem, lf.SwitchingSignal(1.0, (graph,)),
                                                   *timed),
    }
    with pytest.raises(ValueError if key else Started):
        calls[run]()


def test_a_count_beyond_the_float_range_names_the_step_limit():
    limit = f"{lf.simulate.MAX_STEPS:.0e}"
    with pytest.raises(ValueError, match=re.escape(limit)):
        lf.DiscreteConfig(0.1, max_steps=10**400)
    data = {"mode": "simulate-dt", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
            "epsilon": 0.01, "x0": [0] * 8, "max_steps": 10**400}
    [(key, message)] = violations_of(data)
    assert key == "max_steps" and limit in message


class TestViolationOrder:
    """One pass over the keys reports violations in the order of the keys."""

    def test_scalar_before_missing_keys(self):
        data = {"mode": "simulate-dt", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
                "step_h": -1}
        assert violations_of(data) == [("step_h", "must be positive"),
                                       ("epsilon", "required"), ("x0", "required")]

    def test_vector_types_before_lengths(self):
        data = {"mode": "simulate-ct", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH,
                "x0": [0] * 7, "v0": ["a"]}
        assert violations_of(data) == [("v0", "must be an array of finite numbers"),
                                       ("x0", "must have length 8")]

    def test_switching_keys_in_order(self):
        data = {"mode": "simulate-switching", "problem": CHAIN_PROBLEM,
                "t_end": -1, "alpha": -1}
        assert paths_of(data) == ["switching", "t_end", "alpha", "x0"]

    def test_null_outputs_are_absent(self):
        cfg = parse({"mode": "solve-lsq", "problem": CHAIN_PROBLEM,
                     "out_csv": None, "out_json": None})
        assert (cfg.out_csv, cfg.out_json) == (None, None)


class TestCrossChecks:
    BASE = {"mode": "simulate-ct", "problem": CHAIN_PROBLEM, "graph": CHAIN_GRAPH}

    def test_x0_length(self):
        viol = dict(violations_of({**self.BASE, "x0": [0] * 7}))
        assert viol["x0"] == "must have length 8"

    def test_v0_length(self):
        viol = dict(violations_of({**self.BASE, "x0": [0] * 8, "v0": [0] * 9}))
        assert viol["v0"] == "must have length 8"

    def test_graph_node_count(self):
        data = {**self.BASE, "x0": [0] * 8,
                "graph": {"type": "ring", "n": 5}}
        viol = dict(violations_of(data))
        assert "5 nodes" in viol["graph"]

    def test_switching_node_count(self):
        data = {"mode": "simulate-switching", "problem": CHAIN_PROBLEM,
                "x0": [0] * 8,
                "switching": {"period_T": 1.0,
                              "graphs": [{"type": "ring", "n": 5}]}}
        assert "switching" in paths_of(data)

    @pytest.mark.parametrize("section", ["graph", "switching", "problem-invalid",
                                         "problem-missing"])
    def test_node_count_checked_before_the_graph_is_built(self, monkeypatch, section):
        # a complete graph of 1000 nodes takes about a second to build;
        # without a valid problem its size cannot be judged, so it is not built
        def make_family(kind, n):
            raise AssertionError(f"built a {kind} graph of {n} nodes")

        monkeypatch.setattr(lf.graphs, "make_family", make_family)
        big = {"type": "complete", "n": 1000}
        data = {**self.BASE, "x0": [0] * 8}
        if section == "graph":
            data["graph"] = big
            expected = ("graph", "has 1000 nodes, problem has 4")
        elif section == "switching":
            data.update(mode="simulate-switching",
                        switching={"period_T": 1.0, "graphs": [CHAIN_GRAPH, big]})
            expected = ("switching", "graphs[1] has 1000 nodes, problem has 4")
        elif section == "problem-invalid":
            data.update(mode="analyze", graph=big, problem={"H": [[1, 0], [0, 1]], "z": [1]})
            expected = ("problem", "obs has shape (1,), expected (2,)")
        else:
            del data["problem"]
            data.update(mode="analyze", graph=big)
            expected = ("problem", "required")
        assert violations_of(data) == [expected]

    @pytest.mark.parametrize("problem", [None, {"H": [[1, 0], [0, 1]], "z": [1]}])
    def test_graph_shape_checked_without_a_problem(self, problem):
        # the same pass that reports the problem reports the graph's
        # type, n and edges, though the graph is not built
        data = {"mode": "analyze"} if problem is None else {"mode": "analyze", "problem": problem}
        cases = (
            ({"type": "moebius", "n": 4}, "graph type must be one of"),
            ({"type": "path", "n": 4.5}, "needs an integer 'n'"),
            ({"type": "custom", "n": 4}, "'edges' list"),
            ({"type": "custom", "n": 4, "edges": [[1, 2], [3]]}, "integer pairs"),
            ([1, 2], "must be an object"),
        )
        for graph, reason in cases:
            paths = dict(violations_of({**data, "graph": graph}))
            assert "problem" in paths and reason in paths["graph"], graph

    @pytest.mark.parametrize("edges", [[[None, 2]], [1, 2], [[1.5, 2]], [[True, 2]],
                                       [["1", 2]], [[1, 2, 3]]])
    def test_custom_edges_must_be_integer_pairs(self, edges):
        graph = {"type": "custom", "n": 4, "edges": edges}
        viol = dict(violations_of({**self.BASE, "x0": [0] * 8, "graph": graph}))
        assert viol == {"graph": "custom graph spec needs an 'edges' list of [i, j] "
                                 "integer pairs"}


class TestSwitchingSection:
    BASE = {"mode": "simulate-switching", "problem": CHAIN_PROBLEM, "x0": [0] * 8}

    def test_period_must_be_positive(self):
        data = {**self.BASE,
                "switching": {"period_T": 0, "graphs": [CHAIN_GRAPH]}}
        assert ("period_T", "must be positive") in violations_of(data)

    def test_period_required(self):
        data = {**self.BASE, "switching": {"graphs": [CHAIN_GRAPH]}}
        assert ("period_T", "required") in violations_of(data)

    def test_graphs_required(self):
        data = {**self.BASE, "switching": {"period_T": 1.0}}
        assert "graphs" in paths_of(data)

    def test_bad_inner_graph_reported_by_index(self):
        data = {**self.BASE,
                "switching": {"period_T": 1.0,
                              "graphs": [CHAIN_GRAPH, {"type": "moebius", "n": 4}]}}
        assert "graphs[1]" in paths_of(data)

    def test_valid_section_round_trips(self):
        data = {**self.BASE,
                "switching": {"period_T": 2.5, "graphs": [CHAIN_GRAPH, CHAIN_GRAPH]}}
        cfg = parse(data)
        assert cfg.switching.period_T == 2.5
        assert len(cfg.switching.graphs) == 2


class TestRowsSection:
    def test_rows_validated_per_item(self):
        data = {"mode": "graph-feasibility",
                "rows": [["path", 4], ["blob", 5], ["ring", "x"], "junk"]}
        paths = paths_of(data)
        assert "rows[1]" in paths and "rows[2]" in paths and "rows[3]" in paths
        assert "rows[0]" not in paths

    def test_rows_must_be_list(self):
        assert "rows" in paths_of({"mode": "graph-feasibility", "rows": 7})

    def test_valid_rows_parsed_as_tuples(self):
        cfg = parse({"mode": "graph-feasibility", "rows": [["star", 6]]})
        assert cfg.rows == [("star", 6)]

    def test_row_sizes_bounded_at_parse_time(self):
        # family graphs need three nodes; above the bound the support
        # search of one row would run unbounded on a dense n x n Laplacian
        bound = lf.config.MAX_FEASIBILITY_NODES
        data = {"mode": "graph-feasibility",
                "rows": [["path", 2], ["ring", 100000000], ["star", 3], ["complete", bound],
                         ["ring", bound + 1], ["path", -4]]}
        assert paths_of(data) == ["rows[0]", "rows[1]", "rows[4]", "rows[5]"]
        cfg = parse({"mode": "graph-feasibility", "rows": [["star", 3], ["ring", bound]]})
        assert cfg.rows == [("star", 3), ("ring", bound)]


class TestDocumentedSchema:
    """The documented run-config schema states the rules parse_config applies."""

    @pytest.fixture(scope="class")
    def schema(self):
        return json.loads(fixture_path("docs/run_config.schema.json").read_text())

    def test_modes_and_defaults(self, schema):
        props = schema["properties"]
        assert tuple(props["mode"]["enum"]) == lf.MODES
        cfg = parse({"mode": "graph-feasibility", "rows": []})
        for key in ("step_h", "t_end", "record_every", "max_steps"):
            assert props[key]["default"] == getattr(cfg, key), key

    def test_step_bound(self, schema):
        assert schema["properties"]["max_steps"]["maximum"] == lf.simulate.MAX_STEPS

    def test_row_bounds(self, schema):
        n = schema["properties"]["rows"]["items"]["items"][1]
        assert (n["minimum"], n["maximum"]) == (3, lf.config.MAX_FEASIBILITY_NODES)

    def test_graph_node_bounds(self, schema):
        # a custom graph may have two nodes, a family graph needs three
        graph = schema["definitions"]["graph"]
        assert graph["properties"]["n"]["minimum"] == 2
        assert tuple(graph["if"]["properties"]["type"]["enum"]) == lf.FAMILIES
        assert graph["then"]["properties"]["n"]["minimum"] == 3
        problem = {"H": [[1.0], [2.0]], "z": [1.0, 0.0]}
        cfg = parse({"mode": "analyze", "problem": problem,
                     "graph": {"type": "custom", "n": 2, "edges": [[1, 2]]}})
        assert lf.build_spectral_report(lf.assemble(cfg.problem, cfg.graph)).condition.holds
        assert "graph" in paths_of({"mode": "analyze", "problem": problem,
                                    "graph": {"type": "path", "n": 2}})


class TestPlotAndOutputs:
    BASE = {"mode": "solve-lsq", "problem": CHAIN_PROBLEM}

    def test_plot_series_required(self):
        assert "series" in paths_of({**self.BASE, "plot": {}})
        assert "plot" in paths_of({**self.BASE, "plot": "x_1_1"})

    def test_plot_series_must_name_components(self):
        # the chain problem has n = 4 and m = 2
        assert paths_of({**self.BASE, "plot": {"series": ["x_9_9"]}}) == ["series"]
        assert paths_of({**self.BASE, "plot": {"series": ["v_4_3"]}}) == ["series"]
        assert paths_of({**self.BASE, "plot": {"series": ["error", "nope"]}}) == ["series"]
        assert paths_of({**self.BASE, "plot": {"series": []}}) == ["series"]
        cfg = parse({**self.BASE, "plot": {"series": ["x_4_2", "v_1_1", "error", "cost"]}})
        assert cfg.plot.series == ("x_4_2", "v_1_1", "error", "cost")

    def test_plot_series_unchecked_without_problem(self):
        # no problem, no components to check the names against
        cfg = parse({"mode": "graph-feasibility", "rows": [["star", 6]],
                     "plot": {"series": ["x_9_9"]}})
        assert cfg.plot.series == ("x_9_9",)

    def test_plot_defaults(self):
        cfg = parse({**self.BASE, "plot": {"series": ["error"]}})
        assert cfg.plot.series == ("error",)
        assert cfg.plot.xlabel == "t"
        assert cfg.plot.path is None

    def test_output_paths_must_be_strings(self):
        assert "out_csv" in paths_of({**self.BASE, "out_csv": 3})
        assert "out_json" in paths_of({**self.BASE, "out_json": ["x"]})
        assert paths_of({**self.BASE, "plot": {"series": ["error"], "path": 5}}) == ["path"]


class TestRoundTrip:
    def fixture_names(self):
        return sorted(p.name for p in FIXTURES.glob("*.json")
                      if p.name != "pent_graph_pair.json")

    def test_every_fixture_round_trips(self):
        names = self.fixture_names()
        assert len(names) == 16
        for name in names:
            cfg = load_fixture(name)
            text = serialize_config(cfg)
            again = lf.parse_config(text)
            assert config_to_dict(again) == config_to_dict(cfg), name

    def test_serialization_is_deterministic(self):
        cfg1 = load_fixture("chain4_ct.json")
        cfg2 = load_fixture("chain4_ct.json")
        assert serialize_config(cfg1) == serialize_config(cfg2)

    def test_arrays_survive_exactly(self):
        cfg = load_fixture("pent3d_switch_T025.json")
        again = lf.parse_config(serialize_config(cfg))
        assert np.array_equal(again.x0, cfg.x0)
        assert np.array_equal(again.problem.rows, cfg.problem.rows)
        assert again.switching.period_T == cfg.switching.period_T
