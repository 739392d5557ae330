import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lsqflow as lf

from _helpers import load_graph_pair

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Reference inputs used across the suite: a 4-node scalar-pair problem on
# two graphs (a custom-labeled 4-path and a star), and two 5-node problems
# (dims 2 and 3) driven over a switching graph pair.
CHAIN_H = np.array([[0.0, 1.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
CHAIN_Z = np.array([-1.0, 0.0, -2.0, 2.0])
CHAIN_EDGES = [(1, 2), (1, 3), (3, 4)]
CHAIN_X0 = np.array([-2.0, -0.5, -1.8, -1.5, 1.8, -0.6, 1.9, -1.4])
STAR_X0 = np.array([4.0, 1.0, 2.0, -2.0, -1.0, 1.0, -2.0, -1.0])

PENT2_H = np.array([[3.0, 2.0], [1.0, -3.0], [1.0, 1.0], [-1.5, 4.0], [2.5, 4.0]])
PENT2_Z = np.array([2.0, 1.0, 5.0, -2.5, 0.25])
PENT2_X0 = np.array([1.0, -0.5, 1.3, -0.8, 0.7, 0.6, 0.7, -1.4, -0.5, 1.0])

PENT3_H = np.array([[3.0, 2.0, 0.0], [1.0, -3.0, -1.0], [2.0, 1.0, 1.5],
                    [-7.0, -2.0, 3.0], [2.0, -0.5, 1.0]])
PENT3_Z = np.array([1.0, 5.0, 3.0, -1.0, 0.0])
PENT3_X0 = np.array([-1.0, -0.5, 1.0, 0.8, -0.75, 0.5, 0.7, -0.6, -0.3,
                     -0.8, -1.6, 0.25, 0.5, -1.0, 0.7])

STEP_H = 0.005
SWITCH2_HORIZONS = {100.0: 1200.0, 10.0: 400.0, 1.0: 300.0}
SWITCH3_PERIODS = (0.5, 0.25, 0.1)
SWITCH3_T_END = 400.0


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str) -> lf.RunConfig:
    path = fixture_path(name)
    return lf.parse_config(path.read_text(), base_dir=str(path.parent))


def fixture_json(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def chain_problem():
    return lf.NetworkLinearEquation(CHAIN_H, CHAIN_Z)


@pytest.fixture(scope="session")
def chain_graph():
    return lf.make_graph(4, CHAIN_EDGES)


@pytest.fixture(scope="session")
def star_graph():
    return lf.make_family("star", 4)


@pytest.fixture(scope="session")
def chain_flow(chain_problem, chain_graph):
    return lf.assemble(chain_problem, chain_graph)


@pytest.fixture(scope="session")
def star_flow(chain_problem, star_graph):
    return lf.assemble(chain_problem, star_graph)


@pytest.fixture(scope="session")
def pent2_problem():
    return lf.NetworkLinearEquation(PENT2_H, PENT2_Z)


@pytest.fixture(scope="session")
def pent3_problem():
    return lf.NetworkLinearEquation(PENT3_H, PENT3_Z)


@pytest.fixture(scope="session")
def switch_pair():
    return load_graph_pair(fixture_path("pent_graph_pair.json"))


@pytest.fixture(scope="session")
def chain_ct_traj(chain_flow):
    return lf.simulate_ct(chain_flow, CHAIN_X0, np.zeros(8), STEP_H, 200.0)


@pytest.fixture(scope="session")
def star_ct_traj(star_flow):
    return lf.simulate_ct(star_flow, STAR_X0, np.zeros(8), STEP_H, 200.0)


@pytest.fixture(scope="session")
def switch2_trajs(pent2_problem, switch_pair):
    out = {}
    for period, t_end in SWITCH2_HORIZONS.items():
        signal = lf.SwitchingSignal(period_T=period, graphs=switch_pair)
        out[period] = lf.simulate_switching(
            pent2_problem, signal, PENT2_X0, np.ones(10), STEP_H, t_end)
    return out


@pytest.fixture(scope="session")
def switch3_trajs(pent3_problem, switch_pair):
    out = {}
    for period in SWITCH3_PERIODS:
        signal = lf.SwitchingSignal(period_T=period, graphs=switch_pair)
        out[period] = lf.simulate_switching(
            pent3_problem, signal, PENT3_X0, np.ones(15), STEP_H, SWITCH3_T_END)
    return out
