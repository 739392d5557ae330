import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqflow as lf
from lsqflow import simulate

from _helpers import (FingerprintMismatchError, check_support_fingerprint, dwell_segments,
                      load_graph_pair, oscillation_period, tail_sup_error)
from conftest import CHAIN_EDGES, PENT2_X0, fixture_path


def stub_trajectory(t, error):
    t = np.asarray(t, dtype=float)
    error = np.asarray(error, dtype=float)
    n = len(t)
    return lf.Trajectory(
        t_or_k=t,
        x=np.zeros((n, 1)),
        v=np.zeros((n, 1)),
        error=error,
        cost=np.zeros(n),
        y_ref=np.zeros(1),
        metadata={"n_nodes": 1, "dim": 1},
    )


class TestSwitchingSignal:
    def test_validation(self, switch_pair, chain_graph):
        with pytest.raises(ValueError):
            lf.SwitchingSignal(period_T=0.0, graphs=switch_pair)
        with pytest.raises(ValueError):
            lf.SwitchingSignal(period_T=1.0, graphs=())
        with pytest.raises(lf.DimensionMismatchError):
            lf.SwitchingSignal(period_T=1.0, graphs=(switch_pair[0], chain_graph))


class TestSimulateSwitching:
    def test_single_graph_signal_matches_fixed_run(self, chain_problem, chain_graph,
                                                   chain_flow):
        sig = lf.SwitchingSignal(period_T=1.0, graphs=(chain_graph,))
        x0 = np.ones(8)
        v0 = np.linspace(-1.0, 1.0, 8)
        a = lf.simulate_switching(chain_problem, sig, x0, v0, 0.005, 2.0)
        b = lf.simulate_ct(chain_flow, x0, v0, 0.005, 2.0)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.error, b.error)

    def test_state_continuous_and_dynamics_switch_at_period(self, pent2_problem,
                                                            switch_pair):
        g1, g2 = switch_pair
        h = 0.01
        T = 0.5
        x0 = np.ones(10)
        v0 = np.zeros(10)
        sig = lf.SwitchingSignal(period_T=T, graphs=(g1, g2))
        mixed = lf.simulate_switching(pent2_problem, sig, x0, v0, h, 2 * T,
                                      record_every=1)
        fixed = lf.simulate_switching(
            pent2_problem, lf.SwitchingSignal(period_T=T, graphs=(g1,)),
            x0, v0, h, 2 * T, record_every=1)
        k_switch = int(round(T / h))
        assert np.array_equal(mixed.x[:k_switch + 1], fixed.x[:k_switch + 1])
        assert not np.array_equal(mixed.x[k_switch + 1:], fixed.x[k_switch + 1:])
        jumps = np.abs(np.diff(mixed.x, axis=0)).max(axis=1)
        assert jumps.max() < 1.0  # continuous state, no resets at switches

    def test_consecutive_dwells_on_one_graph_form_one_segment(self, pent2_problem,
                                                              switch_pair, monkeypatch):
        # (g1, g2, g1) twice: the dwell slots 0 1 0 0 1 0 make five segments
        g1, g2 = switch_pair
        segments, propagate = [], simulate._propagate

        def spy(ref_flow, step_maps, schedule, *rest):
            head, cycle, K, tail = schedule
            maps, lengths = zip(*(head + cycle * K + tail))
            segments.append((len(step_maps), list(maps), list(lengths)))
            return propagate(ref_flow, step_maps, schedule, *rest)

        monkeypatch.setattr(simulate, "_propagate", spy)
        sig = lf.SwitchingSignal(period_T=0.5, graphs=(g1, g2, g1))
        lf.simulate_switching(pent2_problem, sig, np.zeros(10), np.zeros(10), 0.125, 3.0)
        assert segments == [(2, [0, 1, 0, 1, 0], [4, 4, 8, 4, 4])]

    def test_metadata_records_schedule(self, pent2_problem, switch_pair):
        sig = lf.SwitchingSignal(period_T=0.5, graphs=switch_pair)
        traj = lf.simulate_switching(pent2_problem, sig, np.zeros(10),
                                     np.zeros(10), 0.01, 1.0)
        assert traj.metadata["period_T"] == 0.5
        assert len(traj.metadata["graphs"]) == 2

    def test_graph_name_in_repr_and_metadata(self, pent2_problem, switch_pair):
        custom = lf.make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        graphs = (custom, lf.make_family("path", 5))
        assert [g.name for g in graphs] == ["custom-5", "path-5"]
        for g in graphs:
            assert repr(g).startswith(f"Graph({g.name}, ")
            traj = lf.simulate_ct(lf.assemble(pent2_problem, g), np.zeros(10), np.zeros(10),
                                  0.01, 0.1)
            assert traj.metadata["graph"] == g.name
        sig = lf.SwitchingSignal(period_T=0.05, graphs=graphs + switch_pair)
        traj = lf.simulate_switching(pent2_problem, sig, np.zeros(10), np.zeros(10), 0.01, 0.2)
        assert traj.metadata["graphs"] == [g.name for g in graphs + switch_pair]

    def test_alignment_preconditions(self, pent2_problem, switch_pair):
        sig = lf.SwitchingSignal(period_T=1.0, graphs=switch_pair)
        with pytest.raises(lf.StepAlignmentError):
            lf.simulate_switching(pent2_problem, sig, np.zeros(10), np.zeros(10),
                                  0.3, 2.0)  # 1.0 / 0.3 not integral
        with pytest.raises(lf.StepAlignmentError):
            lf.simulate_switching(pent2_problem, sig, np.zeros(10), np.zeros(10),
                                  0.01, 2.5)  # 2.5 / 1.0 not integral
        with pytest.raises(ValueError):
            lf.simulate_switching(pent2_problem, sig, np.zeros(10), np.zeros(10),
                                  -0.01, 2.0)


class TestSchedule:
    """The engine's schedule, built from one period of the signal."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(1, 60),
           st.integers(1, 4))
    def test_schedule_is_the_run_length_encoding_of_the_dwells(self, slots, dwells, dwell):
        head, cycle, K, tail = simulate._schedule(slots, dwells, dwell)
        assert head + cycle * K + tail == dwell_segments(slots, dwells, dwell)
        n = len(slots)
        period = next(p for p in range(1, n + 1)
                      if all(slots[i] == slots[(i + p) % n] for i in range(n)))
        assert sum(steps for _, steps in tail) < period * dwell
        if K:
            assert sum(steps for _, steps in cycle) == period * dwell
        if period > 1:       # the head is the part of a segment before the first cycle
            assert len(head) == (slots[0] == slots[-1])
            assert sum(steps for _, steps in head) < period * dwell
        else:
            assert (head, K, tail) == ([(slots[0], dwells * dwell)], 0, [])

    def test_memory_does_not_grow_with_the_dwell_count(self, pent2_problem, switch_pair):
        # 10^6 one-step dwells, 1,001 recorded rows
        signal = lf.SwitchingSignal(period_T=0.01, graphs=switch_pair)
        tracemalloc.start()
        try:
            traj = lf.simulate_switching(pent2_problem, signal, PENT2_X0, np.ones(10), 0.01,
                                         1e4, record_every=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.t_or_k) == 1001
        assert peak < 8e6


class TestLimitSets:
    # a fixed graph's dual limits form the affine set v* + range(W), the
    # predictions of predict_v_limit over all starts v0
    def test_geometry_of_fixed_graph_limit_set(self, chain_flow, rng):
        W = lf.build_spectral_report(chain_flow).projector_W
        v_star = lf.equilibrium_dual(chain_flow)
        base = lf.predict_v_limit(chain_flow, np.zeros(8))
        assert np.abs(base - (v_star - W @ v_star)).max() < 1e-12
        # range(W) is the consensus plane: m = 2 orthonormal directions
        assert np.linalg.matrix_rank(W) == 2
        v0 = rng.standard_normal(8)
        step = lf.predict_v_limit(chain_flow, v0) - base
        assert np.abs(step - W @ v0).max() < 1e-12
        assert np.abs(step.reshape(4, 2) - step[:2]).max() < 1e-12

    def test_limit_set_requires_convergence_condition(self, chain_problem,
                                                      star_graph):
        with pytest.raises(lf.ConditionViolatedError):
            lf.predict_v_limit(lf.assemble(chain_problem, star_graph), np.zeros(8))

    def test_pinned_pair_has_disjoint_limit_sets(self, pent2_problem, switch_pair, rng):
        # both sets are translates of range(W), so they are disjoint iff the
        # limits from one start differ, whatever the start
        flows = [lf.assemble(pent2_problem, g) for g in switch_pair]
        for v0 in (np.zeros(10), rng.standard_normal(10)):
            gap = lf.predict_v_limit(flows[0], v0) - lf.predict_v_limit(flows[1], v0)
            assert np.linalg.norm(gap) > 0.5

    def test_set_intersects_itself(self, pent2_problem, switch_pair, rng):
        # the limits from two starts lie in one set: they differ along range(W)
        flow = lf.assemble(pent2_problem, switch_pair[0])
        W = lf.build_spectral_report(flow).projector_W
        gap = (lf.predict_v_limit(flow, rng.standard_normal(10))
               - lf.predict_v_limit(flow, rng.standard_normal(10)))
        assert np.linalg.norm(gap) > 0.1
        assert np.abs(gap - W @ gap).max() < 1e-12


class TestTailSupError:
    def test_trailing_window_max(self):
        traj = stub_trajectory(np.arange(10.0),
                               [5.0, 4.0, 3.0, 2.0, 1.0, 9.0, 0.5, 0.25, 2.5, 0.125])
        assert tail_sup_error(traj) == 2.5
        assert tail_sup_error(traj, tail_fraction=0.5) == 9.0

    def test_validation(self):
        traj = stub_trajectory([0.0, 1.0], [1.0, 2.0])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                tail_sup_error(traj, tail_fraction=bad)
        with pytest.raises(ValueError):
            tail_sup_error(stub_trajectory([], []))


class TestOscillationPeriod:
    def test_recovers_synthetic_period(self):
        t = np.arange(0.0, 100.0, 0.1)
        traj = stub_trajectory(t, 2.0 + np.cos(2.0 * np.pi * t / 4.0))
        assert oscillation_period(traj, 1.0, 10.0) == pytest.approx(4.0, abs=0.1)

    def test_prefers_fundamental_over_multiples(self):
        t = np.arange(0.0, 100.0, 0.1)
        traj = stub_trajectory(t, 2.0 + np.cos(2.0 * np.pi * t / 4.0))
        # window starts above the fundamental: smallest matching lag is 8
        assert oscillation_period(traj, 6.0, 20.0) == pytest.approx(8.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillation_period(stub_trajectory(np.arange(5.0), np.ones(5)),
                               1.0, 2.0)
        t_bad = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        with pytest.raises(ValueError):
            oscillation_period(stub_trajectory(t_bad, np.ones(11)), 0.2, 0.4)
        t = np.arange(0.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            oscillation_period(stub_trajectory(t, np.ones(100)), 1.0, 50.0)

    @pytest.mark.parametrize("lag_min, lag_max", [(5.0, 1.0), (0.0, 0.0)])
    def test_empty_lag_window_rejected(self, chain_flow, lag_min, lag_max):
        # 0.01 apart, no lag of at least 2 samples lies in the window
        traj = lf.simulate_ct(chain_flow, np.ones(8), np.zeros(8), 0.01, 20.0, record_every=1)
        with pytest.raises(ValueError, match="no lag of at least 2 samples"):
            oscillation_period(traj, lag_min, lag_max)

    def test_switched_error_oscillates_at_full_cycle(self, switch2_trajs):
        traj = switch2_trajs[1.0]
        period = oscillation_period(traj, 1.0, 3.0)
        assert abs(period - 2.0) <= 0.05


class TestFingerprints:
    def test_pinned_graphs_pass_their_declared_supports(self, switch_pair):
        g1, g2 = switch_pair
        check_support_fingerprint(g1, [[1, 2], [1, 2, 3, 4, 5]])
        check_support_fingerprint(g2, [[1, 3], [1, 2, 3, 4, 5]])

    def test_wrong_declaration_rejected(self, switch_pair):
        with pytest.raises(FingerprintMismatchError):
            check_support_fingerprint(switch_pair[0], [[1, 3], [1, 2, 3, 4, 5]])
        with pytest.raises(FingerprintMismatchError):
            check_support_fingerprint(switch_pair[0], [[1, 2]])

    def test_declared_supports_take_integers_only(self, switch_pair):
        # [1.5, 2] used to be truncated to the support {1, 2} and pass
        for bad in ([[1.5, 2], [1, 2, 3, 4, 5]], [[True, 2], [1, 2, 3, 4, 5]],
                    [["1", 2], [1, 2, 3, 4, 5]]):
            with pytest.raises(lf.InvalidNodeError):
                check_support_fingerprint(switch_pair[0], bad)
        check_support_fingerprint(switch_pair[0], [np.array([1, 2]), [1, 2, 3, 4, 5]])

    def test_repeated_spectrum_rejected(self, star_graph):
        with pytest.raises(FingerprintMismatchError) as excinfo:
            check_support_fingerprint(star_graph, [[1, 2, 3, 4]])
        assert "repeated" in str(excinfo.value)


class TestLoadGraphPair:
    def test_fixture_loads_and_validates(self, switch_pair):
        g1, g2 = switch_pair
        assert g1.n_nodes == g2.n_nodes == 5
        assert len(g1.edges) == len(g2.edges) == 4
        # single-edge swap: symmetric difference is exactly one edge per side
        e1 = set(g1.edges)
        e2 = set(g2.edges)
        assert len(e1 - e2) == 1 and len(e2 - e1) == 1

    def test_tampered_supports_rejected(self, tmp_path):
        data = json.loads(fixture_path("pent_graph_pair.json").read_text())
        data["required_supports"][0], data["required_supports"][1] = (
            data["required_supports"][1], data["required_supports"][0])
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(FingerprintMismatchError):
            load_graph_pair(bad)

    def test_length_mismatch_rejected(self, tmp_path):
        data = json.loads(fixture_path("pent_graph_pair.json").read_text())
        data["required_supports"] = data["required_supports"][:1]
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(FingerprintMismatchError):
            load_graph_pair(bad)

    def test_chain_edges_are_not_the_switching_pair(self, switch_pair):
        # guard against fixture drift: the 4-node chain and the 5-node
        # switching graphs are distinct objects in every test context
        assert all(g.n_nodes == 5 for g in switch_pair)
        assert set(CHAIN_EDGES) not in (set(g.edges) for g in switch_pair)


class TestSwitchedConvergenceRegimes:
    def test_faster_switching_shrinks_error_when_condition_fails(self, pent3_problem,
                                                                 switch_pair,
                                                                 switch3_trajs):
        for g in switch_pair:
            assert not lf.check_condition(pent3_problem, g).holds
        tails = [tail_sup_error(switch3_trajs[T]) for T in (0.5, 0.25, 0.1)]
        assert tails[0] > tails[1] > tails[2]
