"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion. Shared solves are module-scoped fixtures so the heavy
instances are computed once.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from remest import dp_iid
from remest.channel import ChannelFsm, energy_harvesting_fsm, workload_chain_fsm
from remest.dp_iid import (iid_backward_induction, iid_stage_cost,
                           optimize_symmetric_threshold)
from remest.dp_symmetric import (SolverSettings, backward_induction,
                                 check_growth_rate_bound, check_value_structure,
                                 solve_and_extract,
                                 threshold_optimality_condition)
from remest.oracle_sim import (DiscreteInstance, discrete_dp,
                               exhaustive_policy_search,
                               minimizer_has_interval_structure, simulate)
from remest.policy import TransmitPolicy
from remest.process import PlantModel, predicted_open_loop_cost
from remest.quadrature import (ErrorGrid, GaussianExpectationOperator,
                               is_symmetric_nondecreasing)

PLANT_20 = PlantModel(a=1.1, sigma2=1.0, x0=0.0, horizon=20)


def report(number, ok, label):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def energy_run():
    fsm = energy_harvesting_fsm(4, 2, 0.3)
    start = time.perf_counter()
    result = solve_and_extract(PLANT_20, fsm, SolverSettings(num_points=2001))
    elapsed = time.perf_counter() - start
    return fsm, result, elapsed


@pytest.fixture(scope="module")
def workload_run():
    fsm = workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])
    result = solve_and_extract(PLANT_20, fsm, SolverSettings(num_points=2001))
    return fsm, result


@pytest.fixture(scope="module")
def margin_sweep():
    """50 seeded instances inside the drop-probability margin."""
    runs = []
    for trial in range(50):
        rng = np.random.default_rng(31000 + trial)
        m = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 11))
        a = float(rng.uniform(0.5, 1.2))
        plant = PlantModel(a=a, sigma2=1.0, horizon=horizon)
        margin = 1.0 / (1.0 + 2 * a * a * horizon + a * a)
        transitions = tuple((int(rng.integers(0, m)), int(rng.integers(0, m)))
                            for _ in range(m))
        drops = tuple(float(p) for p in rng.uniform(0.0, 0.98 * margin, m))
        fsm = ChannelFsm(m, transitions, drops, int(rng.integers(0, m)),
                         tuple(True for _ in range(m)))
        assert threshold_optimality_condition(plant, fsm)[2]
        result = solve_and_extract(plant, fsm, SolverSettings(num_points=1201))
        structure = check_value_structure(result.table)
        runs.append((len(result.witnesses), structure))
    return runs


def test_criterion_01_energy_instance_thresholds(energy_run):
    fsm, result, elapsed = energy_run
    finite = all(math.isfinite(result.threshold_policy.intervals[n - 1, q, 1])
                 for n, q in result.reachable if q >= 2)
    ok = (elapsed < 60.0 and not result.witnesses and not result.asymmetric
          and finite)
    report(1, ok, "energy-harvesting solve: finite symmetric thresholds at all "
                  f"reachable transmit-capable states in {elapsed:.1f}s")


def test_criterion_02_workload_instance_thresholds(workload_run):
    fsm, result = workload_run
    witnessed = {(n, q) for n, q, _ in result.witnesses}
    threshold_form = all((n, q) not in witnessed for n, q in result.reachable)
    ok = (not result.witnesses and not result.asymmetric and threshold_form)
    report(2, ok, "workload-chain solve: threshold-form symmetric policies at "
                  "every reachable (stage, state)")


def test_presets_numerical_health(energy_run, workload_run):
    """The structure report's health fields on the two presets: the e = 0
    near-ties (energy's (19, 4) is a 1-ulp tie that transmits) and max |V|,
    far below the default value cap."""
    tables = {"energy": energy_run[1].table, "workload": workload_run[1].table}
    assert tables["energy"].near_ties() == [[19, 4, 0.0], [20, 2, 0.0], [20, 3, 0.0],
                                            [20, 4, 0.0]]
    assert tables["workload"].near_ties() == [[20, q, 0.0] for q in range(5)]
    for name, want in (("energy", 16299.86), ("workload", 16725.78)):
        assert float(np.abs(tables[name].values).max()) == pytest.approx(want, abs=0.01)


def test_criterion_03_margin_regime_has_no_witnesses(margin_sweep):
    witnesses = sum(w for w, _ in margin_sweep)
    report(3, witnesses == 0,
           f"50 seeded instances inside the drop margin: {witnesses} threshold "
           "witnesses (extraction tolerance one grid spacing)")


def test_criterion_04_value_slices_are_symmetric_unimodal(energy_run,
                                                          workload_run,
                                                          margin_sweep):
    reports = [check_value_structure(energy_run[1].table),
               check_value_structure(workload_run[1].table)]
    reports.extend(structure for _, structure in margin_sweep)
    bad = sum(len(r.violations) for r in reports)
    report(4, bad == 0,
           "every value slice is symmetric, non-decreasing in |e| (tol 1e-8 "
           f"relative) with its minimum at e=0: {bad} violations")


def test_criterion_05_growth_rate_bound(energy_run):
    _, result, _ = energy_run
    growth = check_growth_rate_bound(result.table)
    excess = float(np.max(growth.max_quotient - growth.bounds[:, None]))
    report(5, growth.ok,
           "difference quotients of smoothed values respect the "
           f"linear-in-horizon bound (+10 spacings): worst excess {excess:.2e}")


def test_criterion_06_expectation_preserves_shape():
    grid = ErrorGrid(9.0, 801)
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        op = GaussianExpectationOperator(grid, float(rng.uniform(0, 1.3)),
                                         float(rng.uniform(0.3, 2.0)))
        n_steps = int(rng.integers(1, 6))
        edges = np.sort(rng.uniform(0, 0.75 * grid.half_width, n_steps))
        levels = np.cumsum(rng.uniform(0.0, 2.0, n_steps + 1))
        f = levels[np.searchsorted(edges, np.abs(grid.points))]
        good, _ = is_symmetric_nondecreasing(grid, op.apply(f), 1e-8)
        ok = ok and good
        # min-closure on the same corpus, exact tolerance
        g_edges = np.sort(rng.uniform(0, 0.75 * grid.half_width, n_steps))
        g_levels = np.cumsum(rng.uniform(0.0, 2.0, n_steps + 1))
        g = g_levels[np.searchsorted(g_edges, np.abs(grid.points))]
        good, _ = is_symmetric_nondecreasing(grid, np.minimum(f, g), 0.0)
        ok = ok and good
    report(6, ok, "100 random symmetric step functions stay symmetric "
                  "non-decreasing after the Gaussian expectation (tol 1e-8); "
                  "pointwise minima stay shaped exactly")


def test_criterion_07_solver_simulator_agreement(energy_run, workload_run):
    start = time.perf_counter()
    gaps = []
    for fsm, result in ((energy_run[0], energy_run[1]),
                        (workload_run[0], workload_run[1])):
        sim = simulate(PLANT_20, fsm, result.threshold_policy,
                       trials=100000, seed=7)
        gaps.append(abs(sim.total - result.table.value_at_origin())
                    / max(sim.total_se, 1e-300))
    elapsed = time.perf_counter() - start
    ok = all(g <= 3.0 for g in gaps) and elapsed < 30.0
    report(7, ok, "Monte Carlo totals (1e5 trials) match solver values within "
                  f"3 standard errors: gaps {gaps[0]:.2f}, {gaps[1]:.2f} SE "
                  f"in {elapsed:.1f}s")


def test_criterion_08_discrete_oracles_agree():
    mismatches = 0
    unstructured = 0
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        k = int(rng.integers(1, 3))
        pos = np.sort(rng.uniform(0.3, 2.0, size=k))
        vals = np.concatenate([-pos[::-1], [0.0], pos])
        raw = rng.uniform(0.2, 1.0, size=k + 1)
        probs = np.concatenate([raw[1:][::-1], [raw[0]], raw[1:]])
        probs = probs / probs.sum()
        m = int(rng.integers(2, 4))
        transitions = tuple((int(rng.integers(0, m)), int(rng.integers(0, m)))
                            for _ in range(m))
        drops = tuple(float(p) for p in rng.uniform(0.0, 0.95, size=m))
        fsm = ChannelFsm(m, transitions, drops, 0, tuple(True for _ in range(m)))
        inst = DiscreteInstance(
            support=tuple((float(v), float(p)) for v, p in zip(vals, probs)),
            fsm=fsm, horizon=int(rng.integers(1, 3)))
        best, minimizers = exhaustive_policy_search(inst)
        dp_value, _ = discrete_dp(inst)
        if abs(best - dp_value) > 1e-12:
            mismatches += 1
        if not any(minimizer_has_interval_structure(inst, p) for p in minimizers):
            unstructured += 1
    report(8, mismatches == 0 and unstructured == 0,
           "100 discrete instances: backward induction equals exhaustive "
           f"search to 1e-12 ({mismatches} mismatches) and an "
           f"interval-complement optimizer exists ({unstructured} without)")


def _quad_stage_cost(sigma2, p_drop, lo, hi):
    sigma = math.sqrt(sigma2)
    scale = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    pdf = lambda x: scale * math.exp(-0.5 * (x / sigma) ** 2)

    def piece(fn, a, b):
        return integrate.quad(fn, a, b, epsabs=0, epsrel=1e-12)[0] if a < b else 0.0

    mass_in = piece(pdf, lo, hi)
    cost = 0.0
    if mass_in > 1e-14:
        mu0 = piece(lambda x: x * pdf(x), lo, hi) / mass_in
        cost += piece(lambda x: (x - mu0) ** 2 * pdf(x), lo, hi)
    mass_out = 1.0 - mass_in
    if mass_out > 1e-14:
        mu1 = (piece(lambda x: x * pdf(x), -np.inf, lo)
               + piece(lambda x: x * pdf(x), hi, np.inf)) / mass_out
        cost += p_drop * (piece(lambda x: (x - mu1) ** 2 * pdf(x), -np.inf, lo)
                          + piece(lambda x: (x - mu1) ** 2 * pdf(x), hi, np.inf))
    return cost


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_09_white_source_solver(monkeypatch):
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(1000):
        sigma2 = float(rng.uniform(0.25, 4.0))
        p = float(rng.uniform(0.0, 1.0))
        lo, hi = np.sort(rng.uniform(-3.5 * math.sqrt(sigma2),
                                     3.5 * math.sqrt(sigma2), 2))
        mine, _ = iid_stage_cost(sigma2, p, float(lo), float(hi))
        ref = _quad_stage_cost(sigma2, p, float(lo), float(hi))
        worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-12))
    cost_ok = worst < 1e-8

    fsm = energy_harvesting_fsm(4, 2, 0.3)
    base = iid_backward_induction(fsm, 1.0, 5)
    monkeypatch.setattr(dp_iid, "COARSE", 241)
    fine = iid_backward_induction(fsm, 1.0, 5)
    stable = float(np.max(np.abs(base.values - fine.values)))
    stable_ok = stable < 1e-4

    logged = {(n, q) for n, q, _, _ in base.asymmetry_log}
    log_ok = True
    for s in range(5):
        for q in range(2, 5):
            gap = base.values[s + 1, q - 2] - base.values[s + 1, min(q + 1, 4)]
            _, sym_obj = optimize_symmetric_threshold(1.0, 0.3, gap)
            obj = base.values[s, q] - base.values[s + 1, min(q + 1, 4)]
            if obj > sym_obj + 1e-9:
                log_ok = False
            if sym_obj - obj > 1e-7 and (s + 1, q) not in logged:
                log_ok = False
    report(9, cost_ok and stable_ok and log_ok,
           f"white-source solver: stage cost matches quadrature to {worst:.1e} "
           f"rel (<1e-8); doubled search resolution moves values {stable:.1e} "
           "(<1e-4); every genuine asymmetric improvement is logged")


def test_criterion_10_closed_form_checks():
    plant = PlantModel(a=1.0, sigma2=1.0, horizon=2)
    blocked = ChannelFsm(1, ((0, 0),), (1.0,), 0, (True,))
    table = backward_induction(plant, blocked, SolverSettings(num_points=2001))
    expected = predicted_open_loop_cost(plant)
    dp_ok = abs(table.value_at_origin() - expected) < 1e-4 * expected

    never = TransmitPolicy.symmetric(np.full((2, 1), math.inf))
    sim = simulate(plant, blocked, never, trials=100000, seed=13)
    sim_ok = abs(sim.total - expected) <= 3.0 * sim.total_se

    perfect = ChannelFsm(1, ((0, 0),), (0.0,), 0, (True,))
    white = PlantModel(a=0.0, sigma2=1.0, horizon=5)
    always = TransmitPolicy.interval(np.tile(np.array([0.0, 0.0]), (5, 1, 1)))
    zero = simulate(white, perfect, always, trials=20000, seed=17)
    zero_ok = zero.total == 0.0 and zero.total_se == 0.0

    report(10, dp_ok and sim_ok and zero_ok,
           f"never-transmit cost {expected} recovered by the blocked-channel "
           f"solve ({table.value_at_origin():.6f}) and simulation "
           f"({sim.total:.4f} +/- {sim.total_se:.4f}); always-transmit on a "
           "perfect channel simulates to exactly zero")
