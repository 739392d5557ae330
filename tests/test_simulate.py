import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lsqflow as lf
from lsqflow import simulate
from lsqflow.spectral import _costs
from lsqflow.simulate import (
    BLOCK_DOUBLES,
    DIVERGE_LIMIT,
    _affine,
    _format_17g,
    _Lift,
    _step_map,
    component_names,
    component_series,
)

from _helpers import (FlowState, ct_rhs, error_trajectory, oscillates, random_problem,
                      random_connected_graph, step_by_step)
from conftest import CHAIN_X0, PENT2_H, PENT2_X0, PENT3_X0, STAR_X0


def per_value_csv(values) -> bytes:
    """Reference CSV body: every value formatted on its own with '%.17g'."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(values).tolist()).encode()


def format_17g(values) -> bytes:
    """The CSV encoder, with a work space of its own."""
    return _format_17g(values, simulate._csv_work(values.size))


def adversarial_values() -> np.ndarray:
    """Values where a '%.17g' encoder can go wrong, about 10^6 of them."""
    rng = np.random.default_rng(17)
    decades = np.array([float(f"1e{k}") for k in range(-324, 309)])
    decades = decades[decades > 0]
    near = [decades]
    up, down = decades, decades
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    near = np.concatenate(near)
    # the 17-digit rounding carries into the next decade, or just does not
    carries = np.concatenate([decades * (1 - 2.0 ** -53), decades * (1 - 2.0 ** -52)])
    # exact decimal ties at the 18th digit: x.25 and x.75 around 2^50,
    # x.125 .. x.875 around 1e14, and k 2^-j for random k and j
    ties = np.concatenate([
        2.0 ** 50 + np.arange(2 ** 16) * 0.25,
        1e14 + np.arange(2 ** 16) * 0.125,
        np.ldexp(rng.integers(1, 2 ** 53, 100_000).astype(float),
                 -rng.integers(0, 80, 100_000)),
    ])
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, 1e-6, 1e17, 99999999999999999.0])
    big = np.concatenate([rng.uniform(1e16, 1e17, 50_000),
                          1e17 - 16.0 * np.arange(1, 5_000),
                          1e16 + 2.0 * np.arange(5_000)])
    bits = rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(100_000) * 10.0 ** rng.integers(-9, 19, 100_000)
    values = np.concatenate([near, carries, ties, subnormal, special, big, bits, scaled])
    return np.concatenate([values, -values])


def spy_on_per_value_path(monkeypatch) -> list:
    """Collect every value that reaches the encoder's per-value path."""
    seen = []
    each = simulate._format_each

    def spy(values):
        seen.extend(values.tolist())
        return each(values)

    monkeypatch.setattr(simulate, "_format_each", spy)
    return seen


def takes_per_value_path(value: float) -> bool:
    """The documented classes of the per-value path: 0, -0, nan, inf,
    subnormals and |v| beyond [10^-290, 10^291), or a near-tie: a 17-digit
    rounding that 2e-6 decides (the encoder flags 1e-6 at inexact scales)."""
    if not np.isfinite(value):
        return True
    a = Fraction(abs(value))
    if not Fraction(1, 10 ** 290) <= a < 10 ** 291:
        return True
    e = math.floor(math.log10(abs(value)))
    e += (a >= Fraction(10) ** (e + 1)) - (a < Fraction(10) ** e)
    x = a * Fraction(10) ** (16 - e)
    return abs(x - math.floor(x) - Fraction(1, 2)) < 2e-6


def synthetic_trajectory(series):
    series = np.asarray(series, dtype=float)
    n = len(series)
    return lf.Trajectory(
        t_or_k=np.arange(n, dtype=float),
        x=series.reshape(n, 1),
        v=np.zeros((n, 1)),
        error=np.zeros(n),
        cost=np.zeros(n),
        y_ref=np.zeros(1),
        metadata={"n_nodes": 1, "dim": 1},
    )


class TestComponents:
    def test_names_order(self):
        names = component_names(2, 2)
        assert names == ["x_1_1", "x_1_2", "x_2_1", "x_2_2",
                         "v_1_1", "v_1_2", "v_2_1", "v_2_2"]

    def test_series_lookup(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.arange(8.0), np.zeros(8), 0.01, 0.1)
        assert component_series(traj, "x_2_1")[0] == 2.0
        assert component_series(traj, "x_4_2")[0] == 7.0
        assert np.array_equal(component_series(traj, "error"), traj.error)
        assert np.array_equal(component_series(traj, "cost"), traj.cost)

    def test_series_rejects_unknown(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.01, 0.1)
        for bad in ("x_5_1", "x_1_3", "y_1_1", "x_0_1", "wibble",
                    "x_01_1", "x_+1_1", "x_1_1 ", "v_ 2_2", 5):
            with pytest.raises(lf.DimensionMismatchError):
                component_series(traj, bad)


class TestRhs:
    def test_matches_system_matrix(self, chain_flow, rng):
        for _ in range(5):
            x = rng.standard_normal(8)
            v = rng.standard_normal(8)
            dx, dv = ct_rhs(chain_flow, FlowState(0.0, x, v))
            u = np.concatenate([x, v])
            b = np.concatenate([chain_flow.z_H, np.zeros(8)])
            du = chain_flow.M @ u + b
            assert np.abs(dx - du[:8]).max() < 1e-14
            assert np.abs(dv - du[8:]).max() < 1e-14


class TestRk4Core:
    def test_single_step_equals_affine_taylor_polynomial(self, chain_flow, rng):
        # for u' = M u + b the classical four-stage step equals the
        # degree-4 Taylor polynomial sum_{k=1..4} h^k/k! M^(k-1) (M u + b)
        h = 0.01
        b = np.concatenate([chain_flow.z_H, np.zeros(8)])
        M = chain_flow.M
        P, c = _step_map(M, b, h)
        u = rng.standard_normal(16)
        got = P @ u + c
        f = M @ u + b
        expected = u.copy()
        term = f
        fact = 1.0
        for k in range(1, 5):
            fact *= k
            expected = expected + (h ** k / fact) * term
            term = M @ term
        assert np.abs(got - expected).max() < 1e-13

    def test_fourth_order_convergence(self, chain_flow):
        x0 = np.ones(8)
        v0 = np.zeros(8)
        t_end = 1.0
        ref = lf.simulate_ct(chain_flow, x0, v0, 0.000625, t_end, record_every=10 ** 6)
        errs = []
        for h in (0.01, 0.005):
            traj = lf.simulate_ct(chain_flow, x0, v0, h, t_end, record_every=10 ** 6)
            errs.append(np.abs(traj.x[-1] - ref.x[-1]).max())
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0


def _forcing(flow):
    return np.concatenate([flow.z_H, np.zeros(flow.state_dim)])


PATH15_X0 = np.linspace(-2.0, 2.0, 30)


@pytest.fixture(scope="module")
def path15_flow():
    # 2 N m = 60 state components: tables of up to 36 levels, so no run
    # here is capped, and uncertified spans of at most 36 (so 32) states
    # are enumerated
    rng = np.random.default_rng(15)
    problem = lf.NetworkLinearEquation(rng.standard_normal((15, 2)), rng.standard_normal(15))
    flow = lf.assemble(problem, lf.make_family("path", 15))
    assert BLOCK_DOUBLES // (2 * flow.state_dim) ** 2 == 36
    return flow


@pytest.fixture(scope="module")
def path40_flow():
    # 2 N m = 160 state components: tables capped at 5 levels, so anchors
    # every 16 steps, each from the one before
    rng = np.random.default_rng(40)
    problem = lf.NetworkLinearEquation(rng.standard_normal((40, 2)), rng.standard_normal(40))
    return lf.assemble(problem, lf.make_family("path", 40))


def _exact_path_only(monkeypatch):
    """Make the divergence certificate fail on every span, so that each
    span is enumerated or split and every state is checked; a queued
    certified state fails the test."""
    class Uncertified(_Lift):
        def __init__(self, *args):
            super().__init__(*args)
            self.gain = [np.inf] * len(self.gain)

        def resolve(self, run):
            assert not self.spans, "a span was certified"

    monkeypatch.setattr(simulate, "_Lift", Uncertified)


def _count_queued_spans(monkeypatch) -> list:
    """Count the certified spans with recorded states of the runs that
    follow, in a one-item list."""
    count = [0]
    resolve = _Lift.resolve

    def spy(self, run):
        count[0] += len(self.spans)
        return resolve(self, run)

    monkeypatch.setattr(_Lift, "resolve", spy)
    return count


def _assert_matches_reference(traj, steps, states, time_scale=1.0):
    assert np.array_equal(traj.t_or_k, steps * time_scale)
    got = np.hstack([traj.x, traj.v])
    assert got.shape == states.shape
    assert np.abs(got - states).max() <= 1e-10 * np.abs(states).max()


class TestBlockEngine:
    """The binary-lifting engine against a plain step-by-step loop."""

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_rk4_matches_step_by_step(self, chain_flow, record_every):
        # 1001 steps: many full blocks and a partial last one
        traj = lf.simulate_ct(chain_flow, CHAIN_X0, np.ones(8), 0.005, 5.005,
                              record_every=record_every)
        steps, states, bad, _ = step_by_step(
            [(chain_flow.M, 1001)], _forcing(chain_flow),
            np.concatenate([CHAIN_X0, np.ones(8)]), 0.005, record_every=record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states, 0.005)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_euler_matches_step_by_step(self, chain_flow, record_every):
        config = lf.DiscreteConfig(epsilon=0.03, max_steps=1003, record_every=record_every)
        traj = lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8), config)
        steps, states, bad, _ = step_by_step(
            [(chain_flow.M, 1003)], _forcing(chain_flow),
            np.concatenate([CHAIN_X0, np.zeros(8)]), 0.03, "euler", record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_switching_matches_step_by_step(self, pent2_problem, switch_pair,
                                            record_every):
        # six dwell intervals of 50 steps, alternating between the pair
        sig = lf.SwitchingSignal(period_T=0.5, graphs=switch_pair)
        traj = lf.simulate_switching(pent2_problem, sig, PENT2_X0, np.ones(10), 0.01, 3.0,
                                     record_every=record_every)
        flows = [lf.assemble(pent2_problem, g) for g in switch_pair]
        steps, states, bad, _ = step_by_step(
            [(flows[p % 2].M, 50) for p in range(6)], _forcing(flows[0]),
            np.concatenate([PENT2_X0, np.ones(10)]), 0.01, record_every=record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states, 0.01)

    @pytest.mark.parametrize("which, x0, epsilon, max_steps, every", [
        ("chain", CHAIN_X0, 0.04, 40000, 10),
        ("star", STAR_X0, 0.01, 500000, 100),
    ], ids=["chain4-eps0.04", "star4-eps0.01"])
    def test_divergence_step_and_components_match_step_by_step(
            self, chain_flow, star_flow, which, x0, epsilon, max_steps, every):
        flow = {"chain": chain_flow, "star": star_flow}[which]
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=max_steps, record_every=every)
        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(flow, x0, np.zeros(8), config)
        exc = excinfo.value
        steps, _, bad_step, bad = step_by_step(
            [(flow.M, max_steps)], _forcing(flow), np.concatenate([x0, np.zeros(8)]),
            epsilon, "euler", every)
        assert bad_step is not None
        assert exc.t_or_k == bad_step
        assert exc.bad_components == [component_names(4, 2)[i] for i in bad]
        assert np.array_equal(exc.trajectory.t_or_k, steps)

    def test_power_guard_keeps_zero_state_at_zero(self, chain_problem, star_graph):
        # epsilon = 1e6 makes P^j overflow within a few dozen steps; the
        # zero state must still map to zero (not to inf * 0 = nan) and the
        # run must end without a false divergence
        prob = lf.NetworkLinearEquation(chain_problem.rows, np.zeros(4))
        flow = lf.assemble(prob, star_graph)
        config = lf.DiscreteConfig(epsilon=1e6, max_steps=300, record_every=1)
        traj = lf.simulate_dt(flow, np.zeros(8), np.zeros(8), config)
        assert len(traj.t_or_k) == 301
        assert not traj.x.any() and not traj.v.any()

    # The same checks at 60 state components (the test_chunked_* names
    # date from an engine that advanced runs of this size in chunks).

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_chunked_rk4_matches_step_by_step(self, path15_flow, record_every):
        # 2501 steps: 69 full blocks and a partial one
        flow = path15_flow
        traj = lf.simulate_ct(flow, PATH15_X0, np.ones(30), 0.01, 25.01,
                              record_every=record_every)
        steps, states, bad, _ = step_by_step(
            [(flow.M, 2501)], _forcing(flow), np.concatenate([PATH15_X0, np.ones(30)]),
            0.01, record_every=record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states, 0.01)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_chunked_euler_matches_step_by_step(self, path15_flow, record_every):
        flow = path15_flow
        epsilon = 0.9 * lf.epsilon_star(flow)
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=2503, record_every=record_every)
        traj = lf.simulate_dt(flow, PATH15_X0, np.zeros(30), config)
        steps, states, bad, _ = step_by_step(
            [(flow.M, 2503)], _forcing(flow), np.concatenate([PATH15_X0, np.zeros(30)]),
            epsilon, "euler", record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states)

    @pytest.mark.parametrize("factor", [3.0, 20.0])
    def test_chunked_divergence_matches_step_by_step(self, path15_flow, factor):
        # diverges at step 3834 and at step 82
        flow = path15_flow
        epsilon = factor * lf.epsilon_star(flow)
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=6000, record_every=10)
        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(flow, PATH15_X0, np.zeros(30), config)
        exc = excinfo.value
        steps, _, bad_step, bad = step_by_step(
            [(flow.M, 6000)], _forcing(flow), np.concatenate([PATH15_X0, np.zeros(30)]),
            epsilon, "euler", 10)
        assert bad_step is not None
        assert exc.t_or_k == bad_step
        assert exc.bad_components == [component_names(15, 2)[i] for i in bad]
        assert np.array_equal(exc.trajectory.t_or_k, steps)

    def test_chunked_stride_does_not_change_dynamics(self, path15_flow, pent3_problem,
                                                     switch_pair):
        # a stride of 7 computes other states in each block than a stride
        # of 1; at 60 and 30 components (30 = 2 mod 4) the bits must agree
        pent3 = lf.SwitchingSignal(period_T=0.5, graphs=switch_pair)
        runs = [
            lambda every: lf.simulate_ct(path15_flow, PATH15_X0, np.zeros(30), 0.01, 14.0,
                                         record_every=every),
            lambda every: lf.simulate_switching(pent3_problem, pent3, PENT3_X0, np.ones(15),
                                                0.01, 14.0, record_every=every),
        ]
        for run in runs:
            dense, sparse = run(1), run(7)
            assert np.array_equal(dense.t_or_k[::7], sparse.t_or_k)
            assert np.array_equal(dense.x[::7], sparse.x)
            assert np.array_equal(dense.v[::7], sparse.v)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # path-15 as in path15_flow, every step recorded
        script = (
            "import sys, numpy as np, lsqflow as lf\n"
            "rng = np.random.default_rng(15)\n"
            "problem = lf.NetworkLinearEquation(rng.standard_normal((15, 2)),"
            " rng.standard_normal(15))\n"
            "flow = lf.assemble(problem, lf.make_family('path', 15))\n"
            "traj = lf.simulate_ct(flow, np.linspace(-2.0, 2.0, 30), np.zeros(30),"
            " 0.01, 20.0, record_every=1)\n"
            "lf.write_trajectory_csv(traj, sys.argv[1])\n"
        )
        src = str(Path(lf.__file__).resolve().parents[1])
        csvs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            path = tmp_path / f"threads{threads}.csv"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
            csvs.append(path.read_bytes())
        assert len(csvs[0].splitlines()) == 2002
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("every", [1, 7, 100])
    def test_exact_path_gives_the_certified_bytes(self, path15_flow, pent3_problem,
                                                  switch_pair, monkeypatch, every):
        pent3 = lf.SwitchingSignal(period_T=0.5, graphs=switch_pair)

        def runs():
            return [
                lf.simulate_ct(path15_flow, PATH15_X0, np.zeros(30), 0.01, 25.01,
                               record_every=every),
                lf.simulate_switching(pent3_problem, pent3, PENT3_X0, np.ones(15), 0.01,
                                      14.0, record_every=every),
                lf.simulate_dt(path15_flow, PATH15_X0, np.zeros(30),
                               lf.DiscreteConfig(0.9 * lf.epsilon_star(path15_flow),
                                                 2503, every)),
            ]

        spans = _count_queued_spans(monkeypatch)
        certified = runs()
        assert spans[0] > 0
        _exact_path_only(monkeypatch)
        for got, want in zip(runs(), certified):
            assert np.array_equal(got.t_or_k, want.t_or_k)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.v, want.v)

    @pytest.mark.parametrize("dwell", [36, 300, 1188, 1500])
    def test_chunked_switch_prefix_matches_one_graph_run(self, path15_flow, dwell):
        # the mixed run's tables are one level shallower than the fixed
        # run's, and its first segment ends on a step with 2 to 7 set bits
        problem, path = path15_flow.problem, path15_flow.graph
        ring = lf.make_family("ring", 15)
        signals = [lf.SwitchingSignal(period_T=0.01 * dwell, graphs=graphs)
                   for graphs in ((path, ring), (path,))]
        mixed, fixed = [lf.simulate_switching(problem, sig, PATH15_X0, np.zeros(30), 0.01,
                                              0.02 * dwell, record_every=1)
                        for sig in signals]
        assert np.array_equal(mixed.x[:dwell + 1], fixed.x[:dwell + 1])
        assert np.array_equal(mixed.v[:dwell + 1], fixed.v[:dwell + 1])
        assert not np.array_equal(mixed.x[dwell + 1:], fixed.x[dwell + 1:])

    @staticmethod
    def _count_products(flow, monkeypatch, dwell, every):
        """Run two dwells of ``dwell`` steps (path, then ring) recording
        every ``every``-th state; return the trajectory, the recorded
        steps, the number of states in each product, and the number of
        state products that the layout asks for. Tables of depth
        ``(dwell - 1).bit_length()`` hold each segment in one block, so
        each segment end costs one product per set bit of the dwell, and
        the recorded states inside a segment one per distinct prefix of
        their offsets from the segment's start that ends in a set bit:
        states that share high bits share the states on their way down."""
        products = []
        affine = simulate._affine

        def spy(A, w):
            products.append(1 if w.ndim == 1 else len(w))
            return affine(A, w)

        monkeypatch.setattr(simulate, "_affine", spy)
        signal = lf.SwitchingSignal(period_T=0.01 * dwell,
                                    graphs=(flow.graph, lf.make_family("ring", 15)))
        traj = lf.simulate_switching(flow.problem, signal, PATH15_X0, np.zeros(30),
                                     0.01, 0.02 * dwell, record_every=every)
        recorded = sorted(set(range(every, 2 * dwell, every)) | {2 * dwell})
        prefixes = {(k // dwell, i, k % dwell >> i) for k in recorded if k % dwell
                    for i in range(dwell.bit_length())}
        wanted = 2 * dwell.bit_count() + sum(prefix & 1 for *_, prefix in prefixes)
        return traj, recorded, products, wanted

    def test_certified_run_computes_only_recorded_states(self, path15_flow, monkeypatch):
        # two dwells of 1151 steps in tables of 11 levels: no anchor inside
        # a segment, and eight products for each segment end
        traj, recorded, products, wanted = self._count_products(
            path15_flow, monkeypatch, 1151, 100)
        assert np.array_equal(np.round(traj.t_or_k / 0.01), [0] + recorded)
        assert sum(products) == wanted
        assert max(products) <= BLOCK_DOUBLES // 60

    # Named for the chunked engine, which advanced a segment 32 blocks at a
    # time only when it held a whole chunk of 32 blocks; the cases keep its
    # parameters as segments of 1024 + surplus steps: 1023 steps end on a
    # step with ten set bits, 1024 steps on the anchor of the next block.
    @pytest.mark.parametrize("surplus, every", [(-1, 1), (0, 32)])
    def test_chunks_need_segments_of_a_whole_chunk(self, path15_flow, monkeypatch,
                                                   surplus, every):
        traj, recorded, products, wanted = self._count_products(
            path15_flow, monkeypatch, 1024 + surplus, every)
        assert np.array_equal(np.round(traj.t_or_k / 0.01), [0] + recorded)
        assert sum(products) == wanted
        assert max(products) <= BLOCK_DOUBLES // 60

    def test_chunked_power_guard_keeps_zero_state_at_zero(self, path15_flow):
        # epsilon = 1e80 puts P^2 past POWER_LIMIT: a table of one level,
        # plain stepping, instead of the eleven levels 1200 steps ask for
        prob = lf.NetworkLinearEquation(path15_flow.problem.rows, np.zeros(15))
        flow = lf.assemble(prob, path15_flow.graph)
        P, c = _step_map(flow.M, _forcing(flow), 1e80, "euler")
        assert _Lift(P, c, 11).depth == 0
        config = lf.DiscreteConfig(epsilon=1e80, max_steps=1200, record_every=1)
        traj = lf.simulate_dt(flow, np.zeros(30), np.zeros(30), config)
        assert len(traj.t_or_k) == 1201
        assert not traj.x.any() and not traj.v.any()

    @pytest.mark.parametrize("steps, components, depth", [
        (2501, 60, 12), (1024, 60, 10), (1, 60, 0), (3000, 160, 4)])
    def test_table_depth_covers_the_longest_segment(self, path15_flow, path40_flow,
                                                    monkeypatch, steps, components, depth):
        # the least depth b with 2^b >= steps, capped at BLOCK_DOUBLES doubles
        flow = {60: path15_flow, 160: path40_flow}[components]
        depths = []

        class Spy(_Lift):
            def __init__(self, *args):
                super().__init__(*args)
                depths.append(self.depth)

        monkeypatch.setattr(simulate, "_Lift", Spy)
        n = flow.state_dim
        lf.simulate_dt(flow, np.linspace(-1.0, 1.0, n), np.zeros(n),
                       lf.DiscreteConfig(0.5 * lf.epsilon_star(flow), steps, 100))
        assert depths == [depth]

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_capped_table_matches_step_by_step(self, path40_flow, record_every):
        # 160 components: anchors every 16 steps, 94 of them in a chain
        flow = path40_flow
        x0 = np.linspace(-2.0, 2.0, 80)
        epsilon = 0.9 * lf.epsilon_star(flow)
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=1507, record_every=record_every)
        traj = lf.simulate_dt(flow, x0, np.zeros(80), config)
        steps, states, bad, _ = step_by_step(
            [(flow.M, 1507)], _forcing(flow), np.concatenate([x0, np.zeros(80)]),
            epsilon, "euler", record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_certified_then_diverging_run_matches_step_by_step(self, path15_flow, monkeypatch,
                                                              record_every):
        # 3 epsilon*: certified spans first, then divergence at step 3834
        flow = path15_flow
        epsilon = 3.0 * lf.epsilon_star(flow)
        spans = _count_queued_spans(monkeypatch)
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=6000, record_every=record_every)
        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(flow, PATH15_X0, np.zeros(30), config)
        assert spans[0] > 0
        steps, states, bad_step, _ = step_by_step(
            [(flow.M, 6000)], _forcing(flow), np.concatenate([PATH15_X0, np.zeros(30)]),
            epsilon, "euler", record_every)
        assert excinfo.value.t_or_k == bad_step == 3834
        _assert_matches_reference(excinfo.value.trajectory, steps, states)

    def test_first_crossing_on_a_split_midpoint(self, path15_flow):
        # with z = 0 the run is linear in x0, which is scaled so that step
        # 512 is the first state beyond the limit: the midpoint at which
        # the uncertified first 1024 steps split, computed by the split
        flow = lf.assemble(lf.NetworkLinearEquation(path15_flow.problem.rows, np.zeros(15)),
                           path15_flow.graph)
        epsilon = 5.0 * lf.epsilon_star(flow)
        _, states, _, _ = step_by_step([(flow.M, 512)], _forcing(flow),
                                       np.concatenate([PATH15_X0, np.zeros(30)]), epsilon,
                                       "euler", limit=math.inf)
        peaks = np.abs(states).max(axis=1)
        assert peaks[512] > 1.01 * peaks[:512].max()
        u0 = np.concatenate([PATH15_X0 * DIVERGE_LIMIT / np.sqrt(peaks[512] * peaks[:512].max()),
                             np.zeros(30)])
        config = lf.DiscreteConfig(epsilon=epsilon, max_steps=1024, record_every=10)
        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(flow, u0[:30], u0[30:], config)
        steps, states, bad_step, bad = step_by_step(
            [(flow.M, 1024)], _forcing(flow), u0, epsilon, "euler", 10)
        assert excinfo.value.t_or_k == bad_step == 512
        assert excinfo.value.bad_components == [component_names(15, 2)[i] for i in bad]
        _assert_matches_reference(excinfo.value.trajectory, steps, states)

    @pytest.mark.parametrize("n", [16, 30, 60, 160])
    def test_one_state_and_stacked_products_agree_bitwise(self, n):
        # the engine's one product: a state's bits must not depend on
        # whether it is computed alone or in a batch, nor on its place there
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        W = rng.standard_normal((50, n)) * 10.0 ** rng.integers(-8, 8, (50, 1))
        stacked = _affine(A, W)
        assert np.array_equal(stacked, [_affine(A, w) for w in W])
        assert np.array_equal(stacked[1::3], _affine(A, W[1::3]))


class TestRecordedBlock:
    """A trajectory holds the engine's block of recorded states once."""

    def test_recorded_run_peaks_near_its_state_block(self):
        # path-50, m = 2: 100 x components and 20,001 rows; x and v view
        # one block of 201 doubles a row, and error and cost are computed
        # from it in blocks of about BLOCK_DOUBLES doubles
        rng = np.random.default_rng(50)
        problem = lf.NetworkLinearEquation(rng.standard_normal((50, 2)), rng.standard_normal(50))
        flow = lf.assemble(problem, lf.make_family("path", 50))
        x0 = np.linspace(-1.0, 1.0, flow.state_dim)
        tracemalloc.start()
        try:
            traj = lf.simulate_ct(flow, x0, np.zeros(flow.state_dim), 0.01, 200.0, record_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = len(traj.t_or_k) * (2 * flow.state_dim + 1) * 8
        assert len(traj.t_or_k) == 20001 and peak <= 1.3 * block
        assert traj.v.base is traj.x.base and traj.x.base.nbytes == block

    @pytest.mark.parametrize("block_doubles", [1, 90, 200])
    def test_blocked_error_and_cost_match_whole_arrays(self, path15_flow, monkeypatch,
                                                      block_doubles):
        # 30 x components: blocks of 1, 3 and 6 of the 101 rows
        flow, nm = path15_flow, path15_flow.state_dim
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", block_doubles)
        rng = np.random.default_rng(block_doubles)
        u = rng.standard_normal((101, 2 * nm)) * 10.0 ** rng.integers(-8, 8, (101, 1))
        traj = simulate._finish_trajectory(flow, u, np.arange(101), lambda k: k, {})
        x = u[:, :nm].copy()
        diff = x - np.tile(flow.y_ref, flow.problem.n_nodes)
        assert np.array_equal(traj.error, np.einsum("ij,ij->i", diff, diff))
        assert np.array_equal(traj.cost, _costs(flow.problem, x))
        assert traj.x.base is u and traj.v.base is u

    def test_diverging_run_keeps_its_partial_trajectory(self, chain_flow, tmp_path):
        def diverge(max_steps, record_every):
            config = lf.DiscreteConfig(epsilon=0.04, max_steps=max_steps,
                                       record_every=record_every)
            with pytest.raises(lf.DivergedError) as excinfo:
                lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8), config)
            return excinfo.value

        exc = diverge(40000, 10)
        traj, k = exc.trajectory, exc.t_or_k
        rows = -(-k // 10)
        # every row before the last, as a run that stops one step short
        # records it (both runs reach step k - 1 < 2^15 from step 0)
        short = lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8),
                               lf.DiscreteConfig(epsilon=0.04, max_steps=k - 1, record_every=10))
        assert 2 ** 14 < k - 1 < 2 ** 15
        assert np.array_equal(traj.t_or_k, np.append(short.t_or_k[:rows], k))
        assert np.array_equal(traj.x[:-1], short.x[:rows])
        assert np.array_equal(traj.v[:-1], short.v[:rows])
        # the last row: the state beyond the limit, as a run that records
        # every state ends
        every = diverge(k, 1).trajectory
        assert np.array_equal(traj.x[-1], every.x[-1]) and np.array_equal(traj.v[-1], every.v[-1])
        assert not np.abs(np.concatenate([traj.x[-1], traj.v[-1]])).max() <= DIVERGE_LIMIT
        # the CSV of the same rows held as separate arrays, with error and
        # cost from whole arrays
        x, v = traj.x.copy(), traj.v.copy()
        diff = x - np.tile(chain_flow.y_ref, 4)
        copied = lf.Trajectory(traj.t_or_k, x, v, np.einsum("ij,ij->i", diff, diff),
                               _costs(chain_flow.problem, x), traj.y_ref, traj.metadata)
        lf.write_trajectory_csv(traj, tmp_path / "view.csv")
        lf.write_trajectory_csv(copied, tmp_path / "copy.csv")
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


def _count_cycle_runs(monkeypatch) -> list:
    """Count the calls of the cycle engine of the runs that follow, in a
    one-item list."""
    count = [0]
    cycles = simulate._cycles

    def spy(*args):
        count[0] += 1
        return cycles(*args)

    monkeypatch.setattr(simulate, "_cycles", spy)
    return count


class TestCycleEngine:
    """Runs whose segments repeat one cycle: the cycle starts come from
    the cycle map's table, and each segment runs for all cycles at once."""

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("slots, dwells", [((0, 1, 0), 386), ((0, 1), 257),
                                               ((0, 1, 2), 385)],
                             ids=["g1-g2-g1", "odd-dwell-count", "three-graphs"])
    def test_cycles_match_step_by_step(self, pent2_problem, switch_pair, monkeypatch,
                                       slots, dwells, record_every):
        # dwells of 4 steps: (g1, g2, g1) merges dwells across cycles into
        # the segments 4 | (4, 8) x 128 | 4, and 257 dwells of (g1, g2) and
        # 385 of (g1, g2, ring) end on a partial cycle
        pool = switch_pair + (lf.make_family("ring", 5),)
        graphs = tuple(pool[s] for s in slots)
        calls = _count_cycle_runs(monkeypatch)
        traj = lf.simulate_switching(pent2_problem, lf.SwitchingSignal(0.04, graphs), PENT2_X0,
                                     np.ones(10), 0.01, 0.04 * dwells, record_every=record_every)
        assert calls[0] == 1
        flows = [lf.assemble(pent2_problem, g) for g in pool]
        steps, states, bad, _ = step_by_step(
            [(flows[slots[p % len(slots)]].M, 4) for p in range(dwells)], _forcing(flows[0]),
            np.concatenate([PENT2_X0, np.ones(10)]), 0.01, record_every=record_every)
        assert bad is None
        _assert_matches_reference(traj, steps, states, 0.01)

    @pytest.mark.parametrize("every", [7, 30])
    def test_stride_inside_a_cycle_does_not_change_dynamics(self, pent3_problem, switch_pair,
                                                            monkeypatch, every):
        # 128 cycles of 40 steps: which offsets a cycle records depends on
        # its start when the stride does not divide 40
        signal = lf.SwitchingSignal(period_T=0.2, graphs=switch_pair)
        calls = _count_cycle_runs(monkeypatch)
        dense, sparse = (lf.simulate_switching(pent3_problem, signal, PENT3_X0, np.ones(15),
                                               0.01, 51.2, record_every=e) for e in (1, every))
        assert calls[0] == 2
        rows = np.append(np.arange(0, 5120, every), 5120)
        assert np.array_equal(dense.t_or_k[rows], sparse.t_or_k)
        assert np.array_equal(dense.x[rows], sparse.x)
        assert np.array_equal(dense.v[rows], sparse.v)

    @pytest.mark.parametrize("every", [1, 7])
    def test_exact_path_gives_the_certified_bytes_on_cycles(self, pent3_problem, switch_pair,
                                                            monkeypatch, every):
        signal = lf.SwitchingSignal(period_T=0.2, graphs=switch_pair)

        def run():
            return lf.simulate_switching(pent3_problem, signal, PENT3_X0, np.ones(15), 0.01,
                                         51.2, record_every=every)

        spans, calls = _count_queued_spans(monkeypatch), _count_cycle_runs(monkeypatch)
        certified = run()
        assert spans[0] > 0 and calls[0] == 1
        _exact_path_only(monkeypatch)
        exact = run()
        assert calls[0] == 2
        assert np.array_equal(exact.x, certified.x)
        assert np.array_equal(exact.v, certified.v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_inside_a_cycle(self, pent2_problem, switch_pair, monkeypatch):
        # at h = 0.128 the RK4 step of g1 is unstable (spectral radius
        # 1.044) and that of g2 is not; each 40-step cycle grows about 2x
        h = 0.128
        signal = lf.SwitchingSignal(period_T=20 * h, graphs=switch_pair)

        def run():
            with pytest.raises(lf.DivergedError) as excinfo:
                lf.simulate_switching(pent2_problem, signal, PENT2_X0, np.ones(10), h,
                                      400 * 20 * h, record_every=7)
            return excinfo.value

        spans = _count_queued_spans(monkeypatch)
        certified = run()
        assert spans[0] > 0
        flows = [lf.assemble(pent2_problem, g) for g in switch_pair]
        steps, _, bad_step, bad = step_by_step(
            [(flows[p % 2].M, 20) for p in range(400)], _forcing(flows[0]),
            np.concatenate([PENT2_X0, np.ones(10)]), h, record_every=7)
        assert bad_step % 40 not in (0, 20)
        assert np.array_equal(np.round(certified.trajectory.t_or_k / h), steps)
        assert certified.bad_components == [component_names(5, 2)[i] for i in bad]
        _exact_path_only(monkeypatch)
        exact = run()
        assert exact.t_or_k == certified.t_or_k
        assert exact.bad_components == certified.bad_components
        assert np.array_equal(exact.trajectory.x, certified.trajectory.x)
        assert np.array_equal(exact.trajectory.v, certified.trajectory.v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_inside_a_cycle_before_a_cycle_start_within_the_limit(
            self, pent2_problem, switch_pair, monkeypatch):
        # from 4 times (x0, v0), at h = 0.128, the state first leaves the
        # limit 18 steps into cycle 29, inside its g1 segment, while cycle 30
        # starts within it: the cycle starts up to 30 are computed, and only
        # the cut after the divergence keeps the g2 segment from running
        # cycle 29 on, from a start that was never computed
        h = 0.128
        signal = lf.SwitchingSignal(period_T=20 * h, graphs=switch_pair)
        u0 = 4.0 * np.concatenate([PENT2_X0, np.ones(10)])
        starts, span = [], simulate._span

        def spy(*args):
            starts.append(args[5])
            return span(*args)

        def run():
            starts.clear()
            with pytest.raises(lf.DivergedError) as excinfo:
                lf.simulate_switching(pent2_problem, signal, u0[:10], u0[10:], h,
                                      400 * 20 * h, record_every=7)
            return excinfo.value

        monkeypatch.setattr(simulate, "_span", spy)
        calls = _count_cycle_runs(monkeypatch)
        certified = run()
        flows = [lf.assemble(pent2_problem, g) for g in switch_pair]
        dwells = [(flows[p % 2].M, 20) for p in range(400)]
        steps, states, bad_step, bad = step_by_step(dwells, _forcing(flows[0]), u0, h,
                                                    record_every=7)
        assert bad_step == 29 * 40 + 18
        _, cycle_starts, _, _ = step_by_step(dwells[:60], _forcing(flows[0]), u0, h,
                                             record_every=40, limit=math.inf)
        assert np.abs(cycle_starts[-1]).max() <= DIVERGE_LIMIT
        assert calls[0] == 1 and max(starts) < bad_step
        assert certified.t_or_k == bad_step * h
        assert certified.bad_components == [component_names(5, 2)[i] for i in bad]
        _assert_matches_reference(certified.trajectory, steps, states, h)
        _exact_path_only(monkeypatch)
        exact = run()
        assert calls[0] == 2 and max(starts) < bad_step
        assert exact.t_or_k == certified.t_or_k
        assert exact.bad_components == certified.bad_components
        assert np.array_equal(exact.trajectory.x, certified.trajectory.x)
        assert np.array_equal(exact.trajectory.v, certified.trajectory.v)

    @pytest.mark.parametrize("x0", [np.zeros(10), PENT2_X0], ids=["zero-state", "diverging"])
    def test_cycle_map_past_the_power_limit(self, switch_pair, monkeypatch, x0):
        # one-step dwells at h = 2^63: each RK4 map's entries are near 1e80,
        # so the cycle map of the two passes POWER_LIMIT; 100 cycles pass
        # the cost test, and the cycles run segment by segment instead
        h, problem = 2.0 ** 63, lf.NetworkLinearEquation(PENT2_H, np.zeros(5))
        flows = [lf.assemble(problem, g) for g in switch_pair]
        for flow in flows:
            assert 1e79 < np.abs(_step_map(flow.M, _forcing(flow), h)[0]).max() < 1e81
        calls = _count_cycle_runs(monkeypatch)
        try:
            traj = lf.simulate_switching(problem, lf.SwitchingSignal(h, switch_pair), x0,
                                         np.zeros(10), h, 200 * h, record_every=1)
            when, bad_names = None, None
        except lf.DivergedError as exc:
            traj, when, bad_names = exc.trajectory, exc.t_or_k, exc.bad_components
        assert calls[0] == 0
        steps, states, bad_step, bad = step_by_step(
            [(flows[p % 2].M, 1) for p in range(200)], _forcing(flows[0]),
            np.concatenate([x0, np.zeros(10)]), h)
        assert (when, bad_step) == ((None, None) if not x0.any() else (h, 1))
        if bad is not None:
            assert bad_names == [component_names(5, 2)[i] for i in bad]
        _assert_matches_reference(traj, steps, states, h)

    def test_cycles_cost_calls_per_segment_not_per_dwell(self, pent3_problem, switch_pair,
                                                         monkeypatch):
        # 4,000 dwells of 20 steps: 2,000 cycles of two segments
        calls, queued = [0], [0]
        span, resolve = simulate._span, _Lift.resolve

        def count_span(*args):
            calls[0] += 1
            return span(*args)

        def count_resolve(self, run):
            calls[0] += 1
            queued[0] += len(self.spans)
            return resolve(self, run)

        monkeypatch.setattr(simulate, "_span", count_span)
        monkeypatch.setattr(_Lift, "resolve", count_resolve)
        traj = lf.simulate_switching(pent3_problem, lf.SwitchingSignal(0.1, switch_pair),
                                     PENT3_X0, np.ones(15), 0.005, 400.0)
        assert len(traj.t_or_k) == 8001
        assert queued[0] >= 2000
        assert calls[0] <= 4 * (2 + (2000).bit_length())


class TestSimulateCt:
    def test_recording_grid(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.005, 1.0,
                              record_every=10)
        assert len(traj.t_or_k) == 21
        assert traj.t_or_k[0] == 0.0
        assert abs(traj.t_or_k[1] - 0.05) < 1e-15
        assert abs(traj.t_or_k[-1] - 1.0) < 1e-12

    def test_final_step_recorded_even_off_stride(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.005, 1.025,
                              record_every=10)
        assert len(traj.t_or_k) == 22
        assert abs(traj.t_or_k[-1] - 1.025) < 1e-12

    def test_t_end_must_be_a_whole_number_of_steps(self, chain_flow):
        with pytest.raises(lf.StepAlignmentError, match="t_end / step_h"):
            lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.4, 1.0, record_every=1)
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.25, 1.0, record_every=1)
        assert traj.t_or_k.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_stride_does_not_change_dynamics(self, chain_flow):
        dense = lf.simulate_ct(chain_flow, np.ones(8), np.zeros(8), 0.01, 0.5,
                               record_every=1)
        sparse = lf.simulate_ct(chain_flow, np.ones(8), np.zeros(8), 0.01, 0.5,
                                record_every=5)
        assert np.array_equal(dense.x[::5], sparse.x)
        assert np.array_equal(dense.v[::5], sparse.v)

    def test_error_column_definition(self, chain_flow, chain_problem):
        traj = lf.simulate_ct(chain_flow, np.ones(8), np.zeros(8), 0.01, 0.2)
        sol = lf.solve_least_squares(chain_problem)
        target = np.tile(sol.y_star, 4)
        manual = ((traj.x - target) ** 2).sum(axis=1)
        assert np.abs(traj.error - manual).max() < 1e-12

    def test_error_decreases_overall(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.ones(8) * 2.0, np.zeros(8), 0.005, 20.0)
        assert traj.error[-1] < 0.05 * traj.error[0]

    def test_input_validation(self, chain_flow):
        with pytest.raises(lf.DimensionMismatchError):
            lf.simulate_ct(chain_flow, np.zeros(7), np.zeros(8), 0.005, 1.0)
        with pytest.raises(ValueError):
            lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), -0.005, 1.0)
        with pytest.raises(ValueError):
            lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.005, 0.0)

    def test_lyapunov_non_increase_along_random_runs(self, rng):
        # distance to any equilibrium is non-increasing along the flow;
        # checked on 20 random connected instances
        for _ in range(20):
            n = int(rng.integers(4, 7))
            graph = random_connected_graph(rng, n)
            prob = random_problem(rng, n=n, m=int(rng.integers(1, 4)))
            flow = lf.assemble(prob, graph)
            nm = flow.state_dim
            v_star = lf.equilibrium_dual(flow)
            u_star = np.concatenate([np.tile(flow.y_ref, n), v_star])
            x0 = rng.standard_normal(nm) * 2.0
            v0 = rng.standard_normal(nm) * 2.0
            traj = lf.simulate_ct(flow, x0, v0, 0.005, 5.0, record_every=20)
            u = np.hstack([traj.x, traj.v])
            V = ((u - u_star) ** 2).sum(axis=1)
            drift = V[1:] - V[:-1]
            assert (drift <= 1e-8 * (1.0 + V[:-1])).all()

    def test_energy_conserved_without_measurements(self):
        # zero rows switch off the gradient part; the flow is then a
        # pure rotation and RK4 keeps the state norm to high accuracy
        H = np.zeros((4, 2))
        prob = lf.NetworkLinearEquation(H, np.zeros(4), check_rank=False)
        flow = lf.assemble(prob, lf.make_family("ring", 4))
        assert np.array_equal(flow.y_ref, np.zeros(2))
        x0 = np.array([1.0, -1.0, 0.5, 0.25, -0.5, 1.5, -0.25, 0.75])
        v0 = np.array([0.5, 0.5, -1.0, 0.25, 1.0, -0.75, 0.0, 0.5])
        traj = lf.simulate_ct(flow, x0, v0, 0.005, 10.0, record_every=1)
        norms = np.sqrt((np.hstack([traj.x, traj.v]) ** 2).sum(axis=1))
        assert np.abs(norms - norms[0]).max() < 1e-6 * norms[0]
        assert (np.diff(norms) <= 1e-12 * norms[0]).all()

    @pytest.mark.parametrize("H", [np.zeros((4, 2)),
                                   [[1.0, 0.0], [0.0, 2e-12], [0.0, 0.0], [0.0, 0.0]]])
    def test_rank_deficient_reference_is_origin(self, H):
        # the problem's rank alone decides the reference, in the flow, the
        # trajectory and its metadata alike
        prob = lf.NetworkLinearEquation(H, np.ones(4), check_rank=False)
        flow = lf.assemble(prob, lf.make_family("path", 4))
        traj = lf.simulate_ct(flow, np.ones(8), np.zeros(8), 0.01, 0.1)
        assert np.array_equal(flow.y_ref, np.zeros(2))
        assert np.array_equal(traj.y_ref, np.zeros(2))
        assert traj.metadata["reference"] == "origin"


class TestSimulateDt:
    def test_step_is_shifted_linear_system(self, chain_flow):
        eps = 0.01
        config = lf.DiscreteConfig(epsilon=eps, max_steps=5, record_every=1)
        traj = lf.simulate_dt(chain_flow, np.ones(8), np.zeros(8), config)
        A = np.eye(16) + eps * chain_flow.M
        b = eps * np.concatenate([chain_flow.z_H, np.zeros(8)])
        u = np.concatenate([np.ones(8), np.zeros(8)])
        for k in range(1, 6):
            u = A @ u + b
            got = np.concatenate([traj.x[k], traj.v[k]])
            assert np.abs(got - u).max() < 1e-12 * max(1.0, np.abs(u).max())

    def test_indices_are_iteration_counts(self, chain_flow):
        config = lf.DiscreteConfig(epsilon=0.01, max_steps=40, record_every=10)
        traj = lf.simulate_dt(chain_flow, np.zeros(8), np.zeros(8), config)
        assert np.array_equal(traj.t_or_k, [0, 10, 20, 30, 40])

    def test_small_step_converges(self, chain_flow):
        config = lf.DiscreteConfig(epsilon=0.01, max_steps=20000, record_every=500)
        traj = lf.simulate_dt(chain_flow, np.ones(8), np.zeros(8), config)
        assert traj.error[-1] < 1e-2

    def test_large_step_diverges_with_partial_trajectory(self, chain_flow):
        config = lf.DiscreteConfig(epsilon=0.08, max_steps=100000, record_every=10)
        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(chain_flow, np.ones(8), np.zeros(8), config)
        exc = excinfo.value
        assert exc.trajectory is not None
        assert len(exc.bad_components) > 0
        last = np.concatenate([exc.trajectory.x[-1], exc.trajectory.v[-1]])
        assert (~np.isfinite(last)).any() or np.abs(last).max() > DIVERGE_LIMIT
        names = component_names(4, 2)
        for name in exc.bad_components:
            assert name in names

    def test_config_validation(self):
        with pytest.raises(ValueError):
            lf.DiscreteConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            lf.DiscreteConfig(epsilon=0.01, max_steps=0)
        with pytest.raises(ValueError):
            lf.DiscreteConfig(epsilon=0.01, record_every=0)

    def test_euler_consistent_with_flow_at_first_order(self, chain_flow):
        # fixed horizon T = 1, decreasing step: the gap to the RK4
        # reference shrinks linearly in epsilon
        x0 = np.ones(8)
        v0 = np.zeros(8)
        ref = lf.simulate_ct(chain_flow, x0, v0, 0.0005, 1.0, record_every=10 ** 6)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            config = lf.DiscreteConfig(epsilon=eps, max_steps=int(round(1.0 / eps)),
                                       record_every=10 ** 6)
            traj = lf.simulate_dt(chain_flow, x0, v0, config)
            gaps.append(np.abs(traj.x[-1] - ref.x[-1]).max())
        assert 5.0 < gaps[0] / gaps[1] < 20.0
        assert 5.0 < gaps[1] / gaps[2] < 20.0


class TestDampedFlow:
    def test_zero_damping_is_bit_identical(self, chain_flow):
        x0 = np.arange(8.0)
        v0 = np.ones(8)
        a = lf.simulate_ct(chain_flow, x0, v0, 0.005, 2.0)
        b = lf.simulate_damped(chain_flow, 0.0, x0, v0, 0.005, 2.0)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.error, b.error)

    def test_damped_variant_still_converges(self, chain_flow):
        traj = lf.simulate_damped(chain_flow, 1.0, np.ones(8), np.zeros(8),
                                     0.005, 50.0)
        assert traj.error[-1] < 1e-4
        assert traj.metadata["alpha"] == 1.0

    def test_negative_damping_rejected(self, chain_flow):
        with pytest.raises(ValueError):
            lf.simulate_damped(chain_flow, -0.1, np.zeros(8), np.zeros(8), 0.005, 1.0)


NAN, INF = float("nan"), float("inf")
FINITE = np.zeros(8)
WITH_NAN = np.array([0.0] * 7 + [NAN])


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=NAN), id="dt-epsilon-nan"),
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=INF), id="dt-epsilon-inf"),
    pytest.param(lambda f: lf.simulate_damped(f, NAN, FINITE, FINITE, 0.005, 1.0),
                 id="damped-alpha-nan"),
    pytest.param(lambda f: lf.simulate_damped(f, INF, FINITE, FINITE, 0.005, 1.0),
                 id="damped-alpha-inf"),
    pytest.param(lambda f: lf.simulate_ct(f, WITH_NAN, FINITE, 0.005, 1.0), id="ct-x0-nan"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, WITH_NAN, 0.005, 1.0), id="ct-v0-nan"),
    pytest.param(lambda f: lf.simulate_dt(f, WITH_NAN, FINITE, lf.DiscreteConfig(epsilon=0.03)),
                 id="dt-x0-nan"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 0.005, INF), id="ct-t_end-inf"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, NAN, 1.0), id="ct-step-nan"),
    pytest.param(lambda f: lf.SwitchingSignal(period_T=NAN, graphs=(f.graph,)),
                 id="switch-period-nan"),
    pytest.param(lambda f: lf.SwitchingSignal(period_T=INF, graphs=(f.graph,)),
                 id="switch-period-inf"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, WITH_NAN, 0.005, 1.0),
                 id="switch-v0-nan"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, FINITE, 0.005, INF),
                 id="switch-t_end-inf"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, FINITE, NAN, 1.0),
                 id="switch-step-nan"),
    *(pytest.param(lambda f, every=every: lf.simulate_ct(f, FINITE, FINITE, 0.005, 1.0,
                                                         record_every=every),
                   id=f"ct-record_every-{every}") for every in (0, NAN, -1, 2.5)),
    *(pytest.param(lambda f, every=every: lf.DiscreteConfig(epsilon=0.03, record_every=every),
                   id=f"dt-record_every-{every}") for every in (0, NAN, -1, 2.5)),
    pytest.param(lambda f: lf.simulate_damped(f, 0.5, FINITE, FINITE, 0.005, 1.0,
                                              record_every=0), id="damped-record_every-0"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, FINITE, 0.005, 1.0, record_every=2.5),
                 id="switch-record_every-2.5"),
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=0.03, max_steps=NAN), id="dt-max_steps-nan"),
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=0.03, max_steps=2.5), id="dt-max_steps-2.5"),
    # a run that rounds to zero steps
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 0.01, 0.001), id="ct-zero-steps"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, FINITE, 0.005, 0.0),
                 id="switch-zero-steps"),
    # work beyond MAX_STEPS or MAX_SAMPLES
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 1e-300, 1.0), id="ct-1e300-steps"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 1e-12, 1.0, record_every=10**12),
                 id="ct-1e12-steps"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 1e-6, 2.0, record_every=1),
                 id="ct-2e6-samples"),
    pytest.param(lambda f: lf.simulate_damped(f, 0.5, FINITE, FINITE, 1e-300, 1.0),
                 id="damped-1e300-steps"),
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=0.03, max_steps=10**9), id="dt-1e9-steps"),
    pytest.param(lambda f: lf.DiscreteConfig(epsilon=0.03, max_steps=10**7, record_every=1),
                 id="dt-1e7-samples"),
    pytest.param(lambda f: lf.simulate_switching(f.problem, lf.SwitchingSignal(0.1, (f.graph,)),
                                                 FINITE, FINITE, 1e-320, 1.0),
                 id="switch-inf-steps"),
    # a t_end that is not a whole number of steps (StepAlignmentError)
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 0.4, 1.0, record_every=1),
                 id="ct-t_end-0.4-misaligned"),
    pytest.param(lambda f: lf.simulate_ct(f, FINITE, FINITE, 0.3, 1.0), id="ct-t_end-0.3-misaligned"),
    pytest.param(lambda f: lf.simulate_damped(f, 0.5, FINITE, FINITE, 0.3, 1.0),
                 id="damped-t_end-misaligned"),
])
def test_non_finite_parameters_rejected_before_any_step(chain_flow, monkeypatch, call):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(simulate, "_propagate", no_step)   # every simulator runs through it
    with pytest.raises(ValueError):
        call(chain_flow)


class TestOscillationDetector:
    def test_fires_on_sustained_sine(self):
        t = np.linspace(0.0, 40.0 * np.pi, 2000)
        assert oscillates(synthetic_trajectory(np.sin(t)), "x_1_1")

    def test_silent_on_decay(self):
        t = np.linspace(0.0, 40.0 * np.pi, 2000)
        s = np.exp(-t / 20.0) * np.sin(t)
        assert not oscillates(synthetic_trajectory(s), "x_1_1")

    def test_silent_on_constants(self):
        assert not oscillates(synthetic_trajectory(np.full(100, 3.7)), "x_1_1")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            oscillates(synthetic_trajectory(np.ones(5)), "x_1_1")


class TestErrorTrajectory:
    def test_matches_recorded_error_at_reference(self, chain_flow, chain_problem):
        traj = lf.simulate_ct(chain_flow, np.ones(8), np.zeros(8), 0.01, 1.0)
        sol = lf.solve_least_squares(chain_problem)
        pairs = error_trajectory(traj, sol.y_star)
        assert len(pairs) == len(traj.t_or_k)
        vals = np.array([e for _, e in pairs])
        assert np.abs(vals - traj.error).max() < 1e-12

    def test_alternate_target(self, chain_flow):
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.01, 0.1)
        pairs = error_trajectory(traj, np.zeros(2))
        assert pairs[0][1] == 0.0


class TestCsv:
    def test_round_trip_and_determinism(self, chain_flow, tmp_path):
        traj = lf.simulate_ct(chain_flow, np.ones(8) / 3.0, np.zeros(8), 0.005, 1.0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        lf.write_trajectory_csv(traj, p1)
        lf.write_trajectory_csv(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ("t," + ",".join(component_names(4, 2)) + ",error,cost")
        row = np.array([float(tok) for tok in lines[3].split(",")])
        k = 3 - 1  # header offset
        assert row[0] == traj.t_or_k[k]
        assert np.array_equal(row[1:9], traj.x[k])
        assert np.array_equal(row[9:17], traj.v[k])
        assert row[17] == traj.error[k]
        assert row[18] == traj.cost[k]

    def test_row_format_matches_per_value_format(self, chain_flow, tmp_path):
        # one '%' operation per row must give the bytes of formatting each
        # value on its own: float and integer times, diverged states, and
        # the special values nan, inf and -0.0
        def per_value(traj):
            lines = ["t," + ",".join(component_names(traj.n_nodes, traj.dim)) + ",error,cost"]
            for k in range(len(traj.t_or_k)):
                row = [traj.t_or_k[k], *traj.x[k], *traj.v[k], traj.error[k], traj.cost[k]]
                lines.append(",".join("%.17g" % val for val in row))
            return ("\n".join(lines) + "\n").encode()

        with pytest.raises(lf.DivergedError) as excinfo:
            lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8),
                           lf.DiscreteConfig(epsilon=0.04, max_steps=40000))
        special = synthetic_trajectory([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300,
                                        123456789012345678, 1.0 / 3.0, 0.1, -2.5])
        trajs = [
            lf.simulate_ct(chain_flow, CHAIN_X0, np.ones(8), 0.005, 1.0),
            lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8),
                           lf.DiscreteConfig(epsilon=0.03, max_steps=500)),
            excinfo.value.trajectory,
            special,
        ]
        for k, traj in enumerate(trajs):
            path = tmp_path / f"{k}.csv"
            lf.write_trajectory_csv(traj, path)
            assert path.read_bytes() == per_value(traj)

    def test_encoder_matches_per_value_format_on_adversarial_values(self):
        values = adversarial_values()
        values = values[:len(values) // 7 * 7].reshape(-1, 7)
        assert values.size >= 10 ** 6
        for start in range(0, len(values), 1024):
            chunk = values[start:start + 1024]
            assert format_17g(chunk) == per_value_csv(chunk)

    @pytest.mark.parametrize("toward", [0.0, np.inf])
    def test_encoder_finds_the_decade_at_every_power_of_ten(self, toward):
        # the decade comes from the binary exponent and one comparison with
        # the least double >= 10^(e+1): every power of ten of the table, one
        # past each end, values around each and the doubles next to each
        decades = np.array([float(f"1e{k}") for k in range(-292, 293)])
        near = [decades]
        for _ in range(4):
            near.append(np.nextafter(near[-1], toward))
        around = decades[:, None] * (1 + np.linspace(-5e-3, 5e-3, 201))
        values = np.concatenate([around.reshape(-1), *near]).reshape(-1, 5)
        for start in range(0, len(values), 1024):
            chunk = values[start:start + 1024]
            assert format_17g(chunk) == per_value_csv(chunk)

    def test_encoder_table_ends(self, monkeypatch):
        # 1e-290 and 1e291 are the least doubles >= 10^-290 and the largest
        # below 10^291, the ends of the table; the doubles past them, and
        # the exact tie 3 * 2^-24 = 1.78813934326171875e-07 at an inexact
        # scale, take the per-value path
        seen = spy_on_per_value_path(monkeypatch)
        least, largest = 1e-290, 1e291
        inside = [least, np.nextafter(largest, 0), largest, -1.5e-123, 2.5e123, 1.25e-123,
                  -9.87654321e123, 1e-100, 1e100, 5e-7, 1.0000000000000002e17]
        outside = [np.nextafter(least, 0), np.nextafter(largest, np.inf), -1e-291, 1e300,
                   3 * 2.0 ** -24]
        values = np.array([inside + outside])
        text = format_17g(values)
        assert text == per_value_csv(values)
        assert seen == outside
        fields = text.decode().split(",")
        assert fields[3].endswith("e-123") and fields[4].endswith("e+123")
        assert fields[:3] == ["1.0000000000000001e-290", "9.9999999999999982e+290",
                              "9.9999999999999996e+290"]

    def test_only_documented_values_take_the_per_value_path(self, monkeypatch, tmp_path):
        from conftest import load_fixture
        seen = spy_on_per_value_path(monkeypatch)
        config = load_fixture("chain4_dt_step003.json")
        assert lf.run(config, out_dir=str(tmp_path)) == 0
        assert len(seen) > 0
        assert all(map(takes_per_value_path, seen))

        rng = np.random.default_rng(290)
        values = rng.standard_normal((2000, 50)) * 10.0 ** rng.integers(-290, 291, (2000, 50))
        values[rng.random(values.shape) < 0.01] = 0.0
        seen.clear()
        for start in range(0, len(values), 160):
            chunk = values[start:start + 160]
            assert format_17g(chunk) == per_value_csv(chunk)
        assert all(map(takes_per_value_path, seen))
        assert 0.005 * values.size < len(seen) < 0.02 * values.size

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                      elements=st.floats()))
    @settings(max_examples=300)
    def test_encoder_matches_per_value_format_on_any_doubles(self, values):
        assert format_17g(values) == per_value_csv(values)

    def test_reused_work_space_keeps_the_bytes(self):
        # one work space serves every chunk of a file: stale bytes from a
        # larger chunk, or garbage, must not reach the text
        rng = np.random.default_rng(17)
        work = simulate._csv_work(600)
        work.fill(np.uint64(2 ** 64 - 1))
        for rows in (100, 37, 1):
            values = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
            values[::4, ::2] = -0.0
            assert _format_17g(values, work) == per_value_csv(values)

    @pytest.mark.parametrize("n_nodes, dim, n_rows, chunk_cells", [
        (4, 2, 3 * simulate.CSV_CHUNK_CELLS // 19 + 5, simulate.CSV_CHUNK_CELLS),
        (200, 2, 25, simulate.CSV_CHUNK_CELLS),     # 803 columns, 10 rows a chunk
        (200, 2, 7, 100),                           # wider than a chunk: one row each
    ])
    def test_long_and_wide_trajectories(self, tmp_path, monkeypatch, n_nodes, dim, n_rows,
                                        chunk_cells):
        monkeypatch.setattr(simulate, "CSV_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(n_rows)
        nm = n_nodes * dim
        x = rng.standard_normal((n_rows, nm)) * 10.0 ** rng.integers(-8, 18, (n_rows, nm))
        x[::5, ::3] = 0.0
        traj = lf.Trajectory(t_or_k=np.arange(n_rows), x=x, v=-x[:, ::-1], error=x[:, 0] ** 2,
                             cost=np.abs(x[:, 1]), y_ref=np.zeros(dim),
                             metadata={"n_nodes": n_nodes, "dim": dim})
        path = tmp_path / "t.csv"
        lf.write_trajectory_csv(traj, path)
        header, body = path.read_bytes().split(b"\n", 1)
        assert header.count(b",") == 2 * nm + 2
        columns = np.column_stack([traj.t_or_k, traj.x, traj.v, traj.error, traj.cost])
        assert body == per_value_csv(columns)

    def test_header_matches_documentation_fixture(self, chain_flow, tmp_path):
        from conftest import fixture_path
        doc = fixture_path("docs/csv_header.txt").read_text().splitlines()
        documented = [ln for ln in doc if ln and not ln.startswith("#")][-1]
        traj = lf.simulate_ct(chain_flow, np.zeros(8), np.zeros(8), 0.01, 0.1)
        out = tmp_path / "c.csv"
        lf.write_trajectory_csv(traj, out)
        assert out.read_text().splitlines()[0] == documented

