"""End-to-end checks, one per shipped guarantee, at the stated tolerances.

Each test prints exactly one ``[acceptance NN] PASS/FAIL`` line with the
measured numbers so a log scan shows where every guarantee stands.
"""

import io
import time

import numpy as np
import pytest

import lsqflow as lf
from lsqflow.cli import run
from lsqflow.simulate import component_series

from conftest import (
    CHAIN_X0,
    STAR_X0,
    SWITCH3_PERIODS,
    SWITCH3_T_END,
    load_fixture,
)
from _helpers import (build_state_expansion, flow_cost, flow_gradient, oscillates,
                      oscillation_period, random_problem, random_simple_spectrum_graph,
                      simple_spectrum_verdict, tail_sup_error)


def report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_01_least_squares_oracle(chain_problem):
    sol = lf.solve_least_squares(chain_problem)
    lf.solve_least_squares(chain_problem)  # warmup
    t0 = time.perf_counter()
    lf.solve_least_squares(chain_problem)
    elapsed = time.perf_counter() - t0
    err1 = abs(sol.y_star[0] + 1.0 / 7.0)
    err2 = abs(sol.y_star[1] + 1.0)
    ok = err1 <= 5e-5 and err2 <= 1e-10 and elapsed < 1e-3
    report(1, ok, f"|y1 + 1/7| = {err1:.2e}, |y2 + 1| = {err2:.2e}, "
                  f"runtime {elapsed * 1e3:.3f} ms")


def test_acceptance_02_condition_verdicts(chain_problem, chain_graph, star_graph):
    t0 = time.perf_counter()
    chain = lf.check_condition(chain_problem, chain_graph)
    chain_oracle = simple_spectrum_verdict(chain_problem, chain_graph)
    star = lf.check_condition(chain_problem, star_graph)
    elapsed = time.perf_counter() - t0
    leaf_rank = np.linalg.matrix_rank(chain_problem.rows[1:4])
    support = sorted(star.witness_support) if star.witness_support else []
    support_rank = (np.linalg.matrix_rank(
        chain_problem.rows[[i - 1 for i in support]]) if support else -1)
    ok = (chain.holds and chain_oracle.holds
          and not star.holds and star.witness is not None
          and set(support) <= {2, 3, 4}
          and leaf_rank == 1 and support_rank == 1
          and elapsed < 1.0)
    report(2, ok, f"path-4 holds (checker and row-span oracle), star-4 fails with witness "
                  f"support {support}, span dim {leaf_rank}, "
                  f"runtime {elapsed:.3f} s")


def test_acceptance_03_step_threshold(chain_flow):
    t0 = time.perf_counter()
    eps = lf.epsilon_star(chain_flow)
    elapsed = time.perf_counter() - t0
    ok = abs(eps - 0.0362) <= 5e-4 and elapsed < 1.0
    report(3, ok, f"epsilon* = {eps:.6f} (target 0.0362 +/- 5e-4), "
                  f"runtime {elapsed:.3f} s")


def test_acceptance_04_continuous_convergence(chain_flow):
    t0 = time.perf_counter()
    traj = lf.simulate_ct(chain_flow, CHAIN_X0, np.zeros(8), 0.005, 200.0)
    elapsed = time.perf_counter() - t0
    final_x = traj.x[-1].reshape(4, 2)
    node_sup = np.abs(final_x - traj.y_ref).max()
    final_err = traj.error[-1]
    ok = node_sup < 1e-2 and final_err < 1e-4 and elapsed < 5.0
    report(4, ok, f"max node deviation {node_sup:.2e}, final error "
                  f"{final_err:.2e}, runtime {elapsed:.2f} s")


def test_acceptance_05_continuous_oscillation(star_ct_traj):
    finals = [component_series(star_ct_traj, f"x_{i}_1")[-1] for i in range(1, 5)]
    first_dev = max(abs(v + 0.1429) for v in finals)
    fires = {i: oscillates(star_ct_traj, f"x_{i}_2") for i in range(1, 5)}
    ok = (first_dev < 1e-2
          and fires[2] and fires[3] and fires[4] and not fires[1])
    report(5, ok, f"first components within {first_dev:.2e} of -0.1429; "
                  f"oscillation fires for leaves {sorted(i for i, f in fires.items() if f)}, "
                  f"silent for hub")


def test_acceptance_06_discrete_dichotomy(chain_flow, star_flow):
    converged = lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8),
                               lf.DiscreteConfig(epsilon=0.03, max_steps=40000,
                                                 record_every=100))
    with pytest.raises(lf.DivergedError) as over:
        lf.simulate_dt(chain_flow, CHAIN_X0, np.zeros(8),
                       lf.DiscreteConfig(epsilon=0.04, max_steps=100000,
                                         record_every=100))
    blown = np.concatenate([over.value.trajectory.x[-1], over.value.trajectory.v[-1]])
    peak = np.abs(blown[np.isfinite(blown)]).max() if np.isfinite(blown).any() else np.inf
    with pytest.raises(lf.DivergedError) as star_over:
        lf.simulate_dt(star_flow, STAR_X0, np.zeros(8),
                       lf.DiscreteConfig(epsilon=0.01, max_steps=500000,
                                         record_every=1000))
    star_bad = set(star_over.value.bad_components)
    # the raising component is the first to cross the bound; the other
    # leaf second-components ride the same growing mode
    star_traj = star_over.value.trajectory
    growing = {name: np.abs(component_series(star_traj, name)).max()
               for name in ("x_2_2", "x_3_2", "x_4_2")}
    bounded = {name: np.abs(component_series(star_traj, name)).max()
               for name in ("x_1_1", "x_1_2", "x_2_1", "x_3_1", "x_4_1")}
    ok = (converged.error[-1] < 1e-2
          and (peak > 1e9 or not np.isfinite(blown).all())
          and star_bad <= {"x_2_2", "x_3_2", "x_4_2"} and star_bad
          and all(v > 1e8 for v in growing.values())
          and all(v < 1e2 for v in bounded.values()))
    report(6, ok, f"eps=0.03 error {converged.error[-1]:.2e} in 40000 steps; "
                  f"eps=0.04 diverged at k={over.value.t_or_k}; star eps=0.01 "
                  f"diverged at k={star_over.value.t_or_k} with leaf second "
                  f"components at {[f'{v:.1e}' for v in growing.values()]} "
                  f"and all others bounded")


def test_acceptance_07_graph_family_table():
    expected = (
        [("path", n, n) for n in (4, 8, 16)]
        + [("path", n, 2 * n // 3) for n in (6, 12)]
        + [("ring", n, n - 1) for n in (5, 7, 11)]
        + [("ring", n, 2 * n // 3) for n in (6,)]
        + [("ring", n, n // 2) for n in (8, 12, 16)]
        + [("star", n, 2) for n in range(4, 11)]
        + [("complete", n, 2) for n in range(4, 11)]
    )
    t0 = time.perf_counter()
    mismatches = []
    for family, n, closed_form in expected:
        graph = lf.make_family(family, n)
        spect = lf.spectrum(lf.laplacian(graph))
        measured = lf.support_report(spect).min_support
        if measured != closed_form:
            mismatches.append(f"{family}-{n}: measured {measured}, "
                              f"closed form {closed_form}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(7, ok, f"{len(expected)} rows in {elapsed:.2f} s"
                  + (f"; mismatches: {'; '.join(mismatches)}" if mismatches else
                     "; all match closed forms"))


def test_acceptance_08_dual_limit_prediction(chain_flow, chain_ct_traj):
    predicted = lf.predict_v_limit(chain_flow, np.zeros(8))
    gap = np.abs(predicted - chain_ct_traj.v[-1]).max()
    W = lf.build_spectral_report(chain_flow).projector_W
    idem = np.abs(W @ W - W).max()
    ok = gap < 1e-2 and idem <= 1e-8
    report(8, ok, f"||prediction - v(200)||_inf = {gap:.2e}, "
                  f"||W^2 - W||_inf = {idem:.2e}")


def test_acceptance_09_switching_period(pent2_problem, switch_pair, switch2_trajs):
    sample_dt = 0.05
    estimates = {}
    for T in (100.0, 10.0, 1.0):
        period = oscillation_period(switch2_trajs[T], T, 3.0 * T)
        estimates[T] = period
    # the limit sets v*_g + range(W) are disjoint iff the predicted limits
    # from one start differ, here beyond a relative tolerance of 1e-6
    limits = [lf.predict_v_limit(lf.assemble(pent2_problem, g), np.zeros(10))
              for g in switch_pair]
    distance = float(np.linalg.norm(limits[0] - limits[1]))
    ok = (all(abs(estimates[T] - 2.0 * T) <= sample_dt + 1e-9 for T in estimates)
          and distance > 1e-6 * (1.0 + distance))
    report(9, ok, f"periods {dict((int(T), round(p, 3)) for T, p in estimates.items())} "
                  f"vs 2T; limit sets disjoint at distance {distance:.4f}")


def test_acceptance_10_fast_switching_quenches_error(pent3_problem, switch_pair):
    verdicts = [lf.check_condition(pent3_problem, g) for g in switch_pair]
    t0 = time.perf_counter()
    tails = []
    for T in SWITCH3_PERIODS:
        sig = lf.SwitchingSignal(period_T=T, graphs=switch_pair)
        traj = lf.simulate_switching(pent3_problem, sig,
                                     np.array([-1.0, -0.5, 1.0, 0.8, -0.75,
                                               0.5, 0.7, -0.6, -0.3, -0.8,
                                               -1.6, 0.25, 0.5, -1.0, 0.7]),
                                     np.ones(15), 0.005, SWITCH3_T_END)
        tails.append(tail_sup_error(traj))
    elapsed = time.perf_counter() - t0
    ok = (not verdicts[0].holds and not verdicts[1].holds
          and tails[0] > tails[1] > tails[2]
          and elapsed < 30.0)
    report(10, ok, f"condition fails on both graphs; tail sup error "
                   f"{[round(v, 4) for v in tails]} strictly decreasing for "
                   f"T = {list(SWITCH3_PERIODS)}, runtime {elapsed:.1f} s")


def test_acceptance_11_property_suites(rng):
    # Lyapunov non-increase along 20 random continuous runs
    lyapunov_ok = 0
    for _ in range(20):
        n = int(rng.integers(4, 7))
        graph = random_simple_spectrum_graph(rng, n)
        prob = random_problem(rng, n=n, m=int(rng.integers(1, 4)))
        flow = lf.assemble(prob, graph)
        u_star = np.concatenate([np.tile(flow.y_ref, n), lf.equilibrium_dual(flow)])
        traj = lf.simulate_ct(flow, rng.standard_normal(flow.state_dim),
                              rng.standard_normal(flow.state_dim), 0.005, 5.0,
                              record_every=20)
        V = ((np.hstack([traj.x, traj.v]) - u_star) ** 2).sum(axis=1)
        if ((V[1:] - V[:-1]) <= 1e-8 * (1.0 + V[:-1])).all():
            lyapunov_ok += 1

    # analytic gradient vs central finite differences
    grad_ok = 0
    for _ in range(20):
        prob = random_problem(rng)
        graph = random_simple_spectrum_graph(rng, prob.n_nodes)
        flow = lf.assemble(prob, graph)
        x = rng.standard_normal(flow.state_dim)
        g = flow_gradient(flow, x)
        fd = np.zeros_like(g)
        h = 1e-6
        for k in range(len(x)):
            e = np.zeros_like(x)
            e[k] = h
            fd[k] = (flow_cost(flow, x + e) - flow_cost(flow, x - e)) / (2 * h)
        if np.abs(g - fd).max() <= 1e-5 * (1.0 + np.abs(g).max()):
            grad_ok += 1

    # the two checker routes agree on distinct-spectrum instances
    agree = 0
    for _ in range(100):
        n = int(rng.integers(4, 7))
        graph = random_simple_spectrum_graph(rng, n)
        prob = random_problem(rng, n=n, m=int(rng.integers(2, 4)))
        a = lf.check_condition(prob, graph)
        b = simple_spectrum_verdict(prob, graph)
        if a.holds == b.holds:
            agree += 1

    # random full-support instances on the 8-path always satisfy the condition
    path8 = lf.make_family("path", 8)
    prop1 = 0
    for _ in range(200):
        prob = random_problem(rng, n=8, m=3)
        if lf.check_condition(prob, path8).holds:
            prop1 += 1

    # augmented square system reproduces solution and residual
    expansion = 0
    for _ in range(100):
        prob = random_problem(rng)
        sol = lf.solve_least_squares(prob)
        w = build_state_expansion(prob).solve()
        m = prob.dim
        if (np.abs(w[:m] - sol.y_star).max() < 1e-9
                and np.abs(w[m:] - sol.residual).max() < 1e-9):
            expansion += 1

    ok = (lyapunov_ok == 20 and grad_ok == 20 and agree == 100
          and prop1 == 200 and expansion == 100)
    report(11, ok, f"Lyapunov {lyapunov_ok}/20, gradient-FD {grad_ok}/20, "
                   f"checker agreement {agree}/100, full-support rows "
                   f"{prop1}/200, state expansion {expansion}/100")


def test_acceptance_12_byte_identical_artifacts(tmp_path):
    def run_fixture(name, sub):
        out = tmp_path / sub
        cfg = load_fixture(name)
        sink = io.StringIO()
        code = run(cfg, out_dir=str(out), stdout=sink, stderr=sink)
        assert code == 0
        return out

    digests = {}
    for name, artifact in (("chain4_dt_step003.json", "chain4_dt_step003.csv"),
                           ("pent2d_switch_T1.json", "pent2d_switch_T1.csv")):
        a = run_fixture(name, f"a_{name}")
        b = run_fixture(name, f"b_{name}")
        digests[name] = (a / artifact).read_bytes() == (b / artifact).read_bytes()
    ok = all(digests.values())
    report(12, ok, f"repeated runs byte-identical: "
                   f"{', '.join(f'{k}={v}' for k, v in digests.items())}")
