"""The scripts under scripts/ still run against the package they import,
so that a renamed name breaks here rather than at their next use."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
WITH_ARGS = sorted(p.name for p in SCRIPTS.glob("*.py") if "argparse" in p.read_text())


def run(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_scripts_with_arguments_are_found():
    assert {"run_fixtures.py", "scale_sweep.py", "verdict_snapshot.py"} <= set(WITH_ARGS)


@pytest.mark.parametrize("name", WITH_ARGS)
def test_help_exits_cleanly(name):
    result = run(name, "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def test_scan_switching_pairs_finds_the_fixture_pairs():
    result = run("scan_switching_pairs.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "4 single-edge-swap pairs"


def test_scale_sweep_ends_with_json():
    result = run("scale_sweep.py", "--families", "path", "--sizes", "8", "--repeats", "1")
    assert result.returncode == 0, result.stderr
    assert {"verdict", "ct_peak_x"} <= json.loads(result.stdout.splitlines()[-1])["path-8"].keys()


def test_stepsize_sweep_brackets_the_threshold():
    config = SCRIPTS.parent / "fixtures" / "chain4_dt_step003.json"
    result = run("stepsize_sweep.py", "--config", str(config), "--max-steps", "2000")
    assert result.returncode == 0, result.stderr
    fates = {line.split("(")[1].split(")")[0]: line.split(": ")[1]
             for line in result.stdout.splitlines() if line.startswith("eps = ")}
    assert fates["0.5 x threshold"].startswith("converged")
    assert fates["2 x threshold"].startswith("diverged")


def snapshot_entry(holds, eigenvalues, epsilon_star):
    """A hand-made analyze entry of verdict_snapshot.py for a two-node,
    m = 1 flow."""
    return {"condition": {"holds": holds, "method": "both", "witness": None,
                          "witness_support": None},
            "spectral": {"m_eigenvalues": eigenvalues, "epsilon_star": epsilon_star,
                         "zero_space_dim": 1,
                         "projector_W": [[0.5, 0.5], [0.5, 0.5]] if holds else None}}


def test_verdict_snapshot_compare_reports_how_far_numbers_moved(tmp_path):
    # the failing entry's rows reorder where a real part of 1e-16 became 0:
    # matched, its eigenvalues moved by 4e-12 over a radius of 4
    holding = snapshot_entry(True, [[-2.0, 0.0], [-1.0, 0.0], [-0.5, 0.0], [0.0, 0.0]], 0.5)
    before = {"a/generic/analyze": holding,
              "b/generic/analyze": snapshot_entry(
                  False, [[-4.0, 0.0], [0.0, 0.0], [1e-16, -1.0], [1e-16, 1.0]], 0.5)}
    after = {"a/generic/analyze": holding,
             "b/generic/analyze": snapshot_entry(
                 False, [[-4.0 + 4e-12, 0.0], [0.0, -1.0], [0.0, 0.0], [0.0, 1.0]], 0.5000001)}
    paths = []
    for name, entries in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(entries))
    result = run("verdict_snapshot.py", "--compare", *map(str, paths))
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "2 entries"
    counts = dict(line.split() for line in lines if line[:1].isalpha() and len(line.split()) == 2)
    assert counts.pop("eigenvalues") == counts.pop("epsilon_star") == "1"
    assert set(counts.values()) == {"0"}
    assert "W max abs change: holding 0.000e+00, failing 0.000e+00" in lines
    assert "eigenvalue max change / radius: holding 0.000e+00, failing 1.000e-12" in lines
    assert "epsilon* max relative change: holding 0.000e+00, failing 2.000e-07" in lines
