import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsqflow as lf
from lsqflow import cli as cli_module
from lsqflow.cli import _json_text, build_parser, error_envelope, run
from lsqflow.spectral import _rank_pass

from _helpers import pattern_rows
from conftest import fixture_json, fixture_path, load_fixture


def invoke(config_name, out_dir):
    """In-process driver mirroring the console entry point."""
    cfg = load_fixture(config_name)
    out = io.StringIO()
    err = io.StringIO()
    code = run(cfg, out_dir=str(out_dir), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def cli(*args, cwd=None):
    # the child imports the same lsqflow as the tests, installed or not
    src = str(Path(lf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "lsqflow", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestAnalyzeMode:
    def test_payload_shape(self, tmp_path):
        code, out, err = invoke("chain4_analyze.json", tmp_path)
        assert code == 0 and err == ""
        payload = json.loads(out)
        cond = payload["condition"]
        assert cond["holds"] is True
        assert cond["method"] == "both"
        assert cond["witness"] is None
        spect = payload["spectral"]
        assert len(spect["m_eigenvalues"]) == 16
        assert all(len(pair) == 2 for pair in spect["m_eigenvalues"])
        assert abs(spect["epsilon_star"] - 0.0362) < 5e-4
        assert spect["zero_space_dim"] == 2
        W = np.array(spect["projector_W"])
        assert W.shape == (8, 8)
        assert np.abs(W @ W - W).max() < 1e-8

    def test_out_json_written(self, tmp_path):
        invoke("chain4_analyze.json", tmp_path)
        saved = json.loads((tmp_path / "chain4_analyze.json").read_text())
        assert saved["condition"]["holds"] is True

    def test_failing_graph_reports_witness(self, tmp_path):
        code, out, _ = invoke("star4_analyze.json", tmp_path)
        assert code == 0
        payload = json.loads(out)
        cond = payload["condition"]
        assert cond["holds"] is False
        assert cond["witness"] is not None
        assert cond["witness_support"] == [2, 3]
        assert payload["spectral"]["projector_W"] is None


class TestJsonText:
    """Payloads render byte-identically to ``json.dumps(indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("pattern", ["generic", "blind3"])   # m = 2, m = 3
    @pytest.mark.parametrize("family, holds", [("path", True), ("star", False)])
    def test_analyze_payload_matches_json_dumps(self, family, holds, pattern):
        n = 6
        problem = lf.NetworkLinearEquation(pattern_rows(pattern, n), np.arange(n, dtype=float))
        config = lf.RunConfig(mode="analyze", problem=problem, graph=lf.make_family(family, n))
        out = io.StringIO()
        assert run(config, stdout=out, stderr=io.StringIO()) == 0
        payload = json.loads(out.getvalue())
        assert payload["condition"]["holds"] is holds
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_edge_values_match_json_dumps(self):
        payload = {"b": [1.0, 2.5e-17, -0.0, 1e300], "a": [[0.25], [], {}], "c": None,
                   "d": True, "e": "x\u00e9\"", "f": [1, 2.0], "g": [float("nan"), 1.0],
                   "h": (1.0, -float("inf")), "i": {}, "j": np.float64(0.1)}
        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_repeated_rows_render_by_their_bits(self):
        # float rows are rendered once per distinct row: 0.0 and -0.0, an
        # int and a nan must not share a row's text
        rows = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0, 1.0], [-0.0, 1.0],
                (0.0, 1.0), [0.0, float("nan")], [0.0, 1.0, 2.0]]
        payload = {"W": rows, "nested": [rows, [[0.0, 1.0]]]}
        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_arrays_render_as_their_lists(self):
        # finite 2-D float64 arrays take the per-row path: 0.0 and -0.0
        # apart, repeated rows, extreme and subnormal values, strided views;
        # a nan row, other shapes and dtypes fall back to tolist()
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1e300, 5e-324],
                         [-0.0, 1.0], [0.1, -2.5], [-1e-300, 1.7976931348623157e308]])
        arrays = [rows, rows.T, rows[::2], rows[:, :1], rows[0],
                  np.kron(np.full((3, 3), 1.0 / 3), np.eye(2)),
                  np.vstack([rows, [[np.nan, 1.0]]]), np.vstack([rows, [[-np.inf, 0.0]]]),
                  np.array([[0.1, -0.0], [3.0, 0.1]], np.float32),
                  np.zeros((0, 2)), np.zeros((2, 0)),
                  np.arange(6).reshape(3, 2)]
        for a in arrays:
            assert _json_text(a) == json.dumps(a.tolist(), indent=2, sort_keys=True)
        payload = {"b": arrays[0], "a": [arrays[2], {"c": arrays[5]}]}
        expected = {"b": arrays[0].tolist(), "a": [arrays[2].tolist(), {"c": arrays[5].tolist()}]}
        assert _json_text(payload) == json.dumps(expected, indent=2, sort_keys=True)


class TestOneEigenSolve:
    """Each analysis runs one dense eigen-solve on one assembled flow: of M,
    or of the part of M a failing flow's null vectors leave."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"eigvals": 0, "assemble": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        original = lf.spectral.assemble
        wrapped = counted("assemble", original)
        for name, module in list(sys.modules.items()):
            if name == "lsqflow" or name.startswith("lsqflow."):
                for attr, obj in list(vars(module).items()):
                    if obj is original:
                        monkeypatch.setattr(module, attr, wrapped)
        return calls

    @pytest.mark.parametrize("name", ["chain4_analyze.json", "star4_analyze.json",
                                      "chain4_epsilon.json"])
    def test_one_solve_per_run(self, name, counts, tmp_path):
        code, _, _ = invoke(name, tmp_path)
        assert code == 0
        assert counts == {"eigvals": 1, "assemble": 1}

    def test_failing_flow_solves_what_its_null_vectors_leave(self, counts, monkeypatch):
        # star-24 fails at r = 1: each of the nu null vectors there is the
        # known pair +-i r of M and the kernel's k = m zeros are exact, so
        # the one solve, of the damped block, has 2nm - k - 2 nu rows
        n, m = 24, 2
        problem = lf.NetworkLinearEquation(pattern_rows("generic", n), np.ones(n))
        graph = lf.make_family("star", n)
        spect = lf.spectrum(lf.laplacian(graph))
        failing = _rank_pass(problem, spect, spect.eigenspace_groups)[1]
        nu = sum(len(X) for _, X in failing.values())
        shapes, counted = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or counted(a))
        config = lf.RunConfig(mode="analyze", problem=problem, graph=graph)
        assert run(config, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert counts == {"eigvals": 1, "assemble": 1}
        assert nu > 0 and shapes == [(2 * n * m - m - 2 * nu,) * 2]


class TestAnalysisBuildsNoM:
    """The analysis modes read the rows and the Laplacian; only a simulator
    builds the system matrix M."""

    @pytest.mark.parametrize("name", ["chain4_analyze.json", "star4_analyze.json",
                                      "chain4_epsilon.json"])
    def test_analysis_modes_exit_0_without_M(self, name, tmp_path, monkeypatch):
        def build(flow):
            raise AssertionError("M was built")

        monkeypatch.setattr(lf.spectral.AssembledFlow, "M", property(build))
        config = load_fixture(name)
        flow = lf.assemble(config.problem, config.graph)
        with pytest.raises(AssertionError, match="M was built"):  # a simulator reads M
            lf.simulate_ct(flow, np.zeros(8), np.zeros(8), 0.01, 0.01)
        code, _, err = invoke(name, tmp_path)
        assert code == 0, err


class TestSvdWorkGuard:
    """The verdict on a repeated spectrum takes O(n) SVD calls, none on M."""

    @pytest.mark.parametrize("family", ["complete", "star"])
    def test_svd_calls_linear_in_n(self, family, monkeypatch):
        n = 24
        rng = np.random.default_rng(0)
        problem = lf.NetworkLinearEquation(rng.standard_normal((n, 2)), rng.standard_normal(n))
        shapes = []
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        config = lf.RunConfig(mode="analyze", problem=problem, graph=lf.make_family(family, n))
        out = io.StringIO()
        assert run(config, stdout=out, stderr=io.StringIO()) == 0
        assert json.loads(out.getvalue())["condition"]["holds"] is False
        # two per chunk of n node pairs (confirm the pairs, test their
        # support rows), a few more for the other stages
        assert 0 < len(shapes) <= 2 * n
        assert all(shape[-2:] != (2 * n * 2, 2 * n * 2) for shape in shapes)


class TestSolveMode:
    def test_solution_payload(self, tmp_path):
        code, out, _ = invoke("chain4_lsq.json", tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["y_star"][0] - (-1.0 / 7.0)) < 1e-12
        assert abs(payload["y_star"][1] - (-1.0)) < 1e-12
        assert abs(payload["objective"] - 54.0 / 7.0) < 1e-12
        assert len(payload["residual"]) == 4


class TestEpsilonStarMode:
    def test_scalar_on_stdout(self, tmp_path):
        code, out, _ = invoke("chain4_epsilon.json", tmp_path)
        assert code == 0
        assert abs(float(out.strip()) - 0.0362) < 5e-4


class TestFeasibilityMode:
    def test_table_layout(self, tmp_path):
        code, out, _ = invoke("families_feasibility.json", tmp_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["family", "n", "min_support", "closed_form"]
        assert len(lines) == 1 + 26
        by_key = {tuple(ln.split()[:2]): ln.split()[2:] for ln in lines[1:]}
        assert by_key[("star", "7")] == ["2", "2"]
        assert by_key[("path", "8")] == ["8", "8"]
        # ring-12 is n/2, not 2n/3: measured and catalogued columns agree
        assert by_key[("ring", "12")] == ["6", "6"]

    def test_out_json_rows(self, tmp_path):
        invoke("families_feasibility.json", tmp_path)
        rows = json.loads((tmp_path / "families_feasibility.json").read_text())["rows"]
        assert {"family": "ring", "n": 12, "min_support": 6,
                "closed_form": 6} in rows
        assert len(rows) == 26

    def test_row_without_closed_form(self, tmp_path):
        # path-5 is neither a power of two nor a multiple of three
        config = lf.parse_config(json.dumps({"mode": "graph-feasibility", "rows": [["path", 5]],
                                             "out_json": "rows.json"}))
        out = io.StringIO()
        assert run(config, out_dir=str(tmp_path), stdout=out, stderr=io.StringIO()) == 0
        assert out.getvalue().splitlines()[1].split() == ["path", "5", "4", "null"]
        rows = json.loads((tmp_path / "rows.json").read_text())["rows"]
        assert rows == [{"family": "path", "n": 5, "min_support": 4, "closed_form": None}]


class TestSimulationModes:
    def test_ct_writes_csv_and_svg(self, tmp_path):
        code, out, _ = invoke("chain4_ct.json", tmp_path)
        assert code == 0
        csv = (tmp_path / "chain4_ct.csv").read_text().splitlines()
        assert csv[0].startswith("t,x_1_1")
        assert len(csv) == 1 + 4001  # header plus every 10th of 40000 steps
        svg = (tmp_path / "chain4_ct.svg").read_text()
        assert svg.count("<polyline") == 8
        assert svg.startswith("<svg") or "<svg" in svg

    def test_divergence_exit_code_and_partial_artifacts(self, tmp_path):
        code, out, err = invoke("chain4_dt_step004.json", tmp_path)
        assert code == 2
        envelope = json.loads(err)
        assert envelope["error"] == "DivergedError"
        details = envelope["details"]
        assert details["t_or_k"] > 0
        assert set(details["bad_components"]) <= set(
            lf.component_names(4, 2))
        csv = (tmp_path / "chain4_dt_step004.csv").read_text().splitlines()
        last = np.array([float(v) for v in csv[-1].split(",")])
        assert (~np.isfinite(last[1:17])).any() or np.abs(last[1:17]).max() > 1e9

    def test_repeated_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        invoke("chain4_dt_step003.json", a)
        invoke("chain4_dt_step003.json", b)
        fa = (a / "chain4_dt_step003.csv").read_bytes()
        fb = (b / "chain4_dt_step003.csv").read_bytes()
        assert fa == fb

    def test_switching_run_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        invoke("pent3d_switch_T010.json", a)
        invoke("pent3d_switch_T010.json", b)
        assert (a / "pent3d_switch_T010.csv").read_bytes() == \
            (b / "pent3d_switch_T010.csv").read_bytes()
        assert (a / "pent3d_switch_T010.svg").read_bytes() == \
            (b / "pent3d_switch_T010.svg").read_bytes()


    @pytest.mark.parametrize("alpha", [1.0, 0])
    def test_damped_run_through_the_cli(self, tmp_path, alpha):
        # alpha > 0 runs the damped flow; alpha = 0 is plain simulate_ct
        x0 = [-2.0, -0.5, -1.8, -1.5, 1.8, -0.6, 1.9, -1.4]
        data = {"problem": {"H": [[0, 1], [3, 0], [2, 0], [1, 0]], "z": [-1, 0, -2, 2]},
                "graph": {"type": "custom", "n": 4, "edges": [[1, 2], [1, 3], [3, 4]]},
                "x0": x0, "step_h": 0.01, "t_end": 2.0, "record_every": 5, "alpha": alpha}
        path = tmp_path / "damped.json"
        path.write_text(json.dumps(data))
        assert lf.main(["simulate-ct", "--config", str(path), "--out", str(tmp_path)]) == 0
        cfg = lf.parse_config(json.dumps({**data, "mode": "simulate-ct"}))
        flow = lf.assemble(cfg.problem, cfg.graph)
        args = (np.array(x0), np.zeros(8), 0.01, 2.0, 5)
        if alpha:
            expected = lf.simulate_damped(flow, alpha, *args)
        else:
            expected = lf.simulate_ct(flow, *args)
        lf.write_trajectory_csv(expected, tmp_path / "expected.csv")
        assert (tmp_path / "simulate-ct.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()
        if alpha:
            plain = lf.simulate_ct(flow, *args)
            assert not np.array_equal(plain.x, expected.x)


class TestErrorEnvelopes:
    def test_schema_error_envelope(self):
        try:
            lf.parse_config('{"mode": "simulate-dt"}')
        except lf.SchemaError as exc:
            env = error_envelope(exc)
        assert env["error"] == "SchemaError"
        assert ["epsilon", "required"] in [list(v) for v in env["details"]["violations"]]

    def test_parse_error_envelope(self):
        try:
            lf.parse_config("{bad json")
        except lf.ConfigParseError as exc:
            env = error_envelope(exc)
        assert env["error"] == "ConfigParseError"
        assert env["details"]["line"] == 1


class TestCommandLine:
    def test_parser_covers_all_modes(self):
        parser = build_parser()
        for mode in lf.MODES:
            ns = parser.parse_args([mode, "--config", "c.json"])
            assert ns.mode == mode

    def test_main_builds_the_parser_once(self, monkeypatch, tmp_path, capsys):
        built = []
        monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build_parser())
        cli_module._parser.cache_clear()
        try:
            for _ in range(3):
                assert cli_module.main(["solve-lsq", "--config",
                                        str(fixture_path("chain4_lsq.json")),
                                        "--out", str(tmp_path)]) == 0
        finally:
            cli_module._parser.cache_clear()
        assert len(built) == 1
        outputs = capsys.readouterr().out.split("}\n")
        assert len(outputs) == 4 and len(set(outputs[:3])) == 1

    def test_end_to_end_solve(self, tmp_path):
        res = cli("solve-lsq", "--config", str(fixture_path("chain4_lsq.json")),
                  "--out", str(tmp_path))
        assert res.returncode == 0
        assert abs(json.loads(res.stdout)["y_star"][1] + 1.0) < 1e-12

    def test_end_to_end_epsilon_star(self, tmp_path):
        res = cli("epsilon-star", "--config", str(fixture_path("chain4_epsilon.json")),
                  "--out", str(tmp_path))
        assert res.returncode == 0
        assert abs(float(res.stdout.strip()) - 0.0362) < 5e-4

    def test_mode_mismatch_is_schema_error(self, tmp_path):
        res = cli("analyze", "--config", str(fixture_path("chain4_lsq.json")),
                  "--out", str(tmp_path))
        assert res.returncode == 1
        env = json.loads(res.stderr)
        assert env["error"] == "SchemaError"
        assert any("mode" == p for p, _ in env["details"]["violations"])

    def test_count_beyond_the_float_range_is_schema_error(self, tmp_path):
        data = {**fixture_json("chain4_dt_step003.json"), "max_steps": "HUGE"}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace('"HUGE"', "1" + "0" * 400))
        res = cli("simulate-dt", "--config", str(path), "--out", str(tmp_path))
        assert res.returncode == 1, res.stderr
        env = json.loads(res.stderr)
        assert env["error"] == "SchemaError"
        assert [p for p, _ in env["details"]["violations"]] == ["max_steps"]

    def test_missing_config_file(self, tmp_path):
        res = cli("analyze", "--config", str(tmp_path / "ghost.json"))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] in ("FileNotFoundError", "OSError")

    def test_malformed_config_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "analyze",\n  "problem": }')
        res = cli("analyze", "--config", str(bad))
        assert res.returncode == 1
        env = json.loads(res.stderr)
        assert env["error"] == "ConfigParseError"
        assert env["details"]["line"] == 2

    def test_divergence_exit_code_two(self, tmp_path):
        res = cli("simulate-dt", "--config",
                  str(fixture_path("chain4_dt_step004.json")),
                  "--out", str(tmp_path))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "DivergedError"
        assert (tmp_path / "chain4_dt_step004.csv").exists()

    def test_plot_override_series_list(self, tmp_path):
        res = cli("simulate-dt", "--config",
                  str(fixture_path("chain4_dt_step003.json")),
                  "--out", str(tmp_path), "--plot", "error,cost")
        assert res.returncode == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.count("<polyline") == 2

    @pytest.mark.parametrize("spec, path", [
        ('{"series": 5}', "series"),
        ("{}", "series"),
        ('{"series": ["x_1_1"], "path": 5}', "path"),
        ("nope", "series"),
        (",", "series"),
        ('{"series": ["x_5_1"]}', "series"),
    ])
    def test_bad_plot_override_is_schema_error(self, tmp_path, spec, path):
        res = cli("simulate-dt", "--config",
                  str(fixture_path("chain4_dt_step003.json")),
                  "--out", str(tmp_path), "--plot", spec)
        assert res.returncode == 1
        env = json.loads(res.stderr)
        assert env["error"] == "SchemaError"
        assert [p for p, _ in env["details"]["violations"]] == [path]
        assert list(tmp_path.iterdir()) == []

    def test_bad_plot_path_in_config_writes_nothing(self, tmp_path):
        config = json.loads(fixture_path("chain4_dt_step003.json").read_text())
        config["plot"] = {"series": ["error"], "path": 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        res = cli("simulate-dt", "--config", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        env = json.loads(res.stderr)
        assert env["error"] == "SchemaError"
        assert [p for p, _ in env["details"]["violations"]] == ["path"]
        assert not (tmp_path / "out").exists()

    def test_unknown_series_in_config_writes_nothing(self, tmp_path):
        # chain-4 has m = 2: x_9_9 names no component
        config = json.loads(fixture_path("chain4_dt_step003.json").read_text())
        config["plot"] = {"series": ["error", "x_9_9"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        res = cli("simulate-dt", "--config", str(path), "--out", str(out))
        assert res.returncode == 1
        env = json.loads(res.stderr)
        assert env["error"] == "SchemaError"
        assert env["details"]["violations"] == [
            ["series", "unknown 'x_9_9'; expected error, cost, x_i_j or v_i_j "
                       "with i <= 4 and j <= 2"]]
        assert list(out.iterdir()) == []

    def test_plot_override_inline_json(self, tmp_path):
        spec = json.dumps({"series": ["x_1_1"], "path": "states.svg"})
        res = cli("simulate-dt", "--config",
                  str(fixture_path("chain4_dt_step003.json")),
                  "--out", str(tmp_path), "--plot", spec)
        assert res.returncode == 0
        assert (tmp_path / "states.svg").exists()
