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
