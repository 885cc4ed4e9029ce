import dataclasses
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.stats import norm

from remest import oracle_sim, workers
from remest.channel import ChannelFsm, energy_harvesting_fsm, workload_chain_fsm
from remest.cli import _random_discrete_instance
from remest.dp_iid import conditional_estimates, iid_backward_induction
from remest.dp_symmetric import SolverSettings, solve_and_extract
from remest.oracle_sim import (BLOCK_TRIALS, DiscreteInstance,
                               EnumerationSizeError, SimSummary, check_policy_fits,
                               discrete_dp, exhaustive_policy_search,
                               minimizer_has_interval_structure, simulate,
                               write_trace_csv)
from remest.policy import TransmitPolicy, decide_many
from remest.process import PlantModel, predicted_open_loop_cost
from remest.quadrature import ErrorGrid, SolverOverflowError


def single_state(p_drop):
    return ChannelFsm(1, ((0, 0),), (p_drop,), 0, (True,))


def never_policy(horizon, states):
    return TransmitPolicy.symmetric(np.full((horizon, states), math.inf))


# ---------------------------------------------------------------------------
# Reference simulator: the two whole-table loops the blocked loop replaced,
# kept as they were. The blocked loop must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _draw_tables(seed: int, trials: int, stages: int, sigma: float):
    # One counter-based stream: all normals, then all uniforms, trial-major.
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = rng.normal(0.0, sigma, size=(trials, stages))
    uniforms = rng.random(size=(trials, stages))
    return noise, uniforms


def _simulate_chain(plant, fsm, policy, trials, seed, collect_trace):
    n_stages = plant.horizon
    m = fsm.num_states
    sigma = math.sqrt(plant.sigma2)
    noise, uniforms = _draw_tables(seed, trials, n_stages, sigma)
    trans = np.array([[t0, t1 if t1 is not None else 0] for t0, t1 in fsm.transitions],
                     dtype=np.intp)
    drop = np.asarray(fsm.drop_probs)
    allowed = np.asarray(fsm.transmit_allowed, dtype=bool)

    e = np.zeros(trials)
    q = np.full(trials, fsm.initial_state, dtype=np.intp)
    stage_costs = np.empty((trials, n_stages + 1))
    transmit_rate = np.empty(n_stages)
    occupancy = np.zeros(m, dtype=np.int64)
    trace = {"x": [], "xhat": [], "e": [], "r": [], "c": [], "q": []} if collect_trace else None
    if collect_trace:
        xhat = np.full(trials, plant.a * plant.x0)
        x = xhat + e

    for s in range(n_stages):
        occupancy += np.bincount(q, minlength=m)
        r = decide_many(policy, s + 1, q, e)
        r = r & allowed[q]
        success = uniforms[:, s] >= drop[q]
        delivered = r & success
        stage_costs[:, s] = np.where(delivered, 0.0, e * e)
        transmit_rate[s] = r.mean()
        if collect_trace:
            xhat = np.where(delivered, x, xhat)
            trace["x"].append(x.copy())
            trace["xhat"].append(xhat.copy())
            trace["e"].append(e.copy())
            trace["r"].append(r.copy())
            trace["c"].append(success.copy())
            trace["q"].append(q.copy())
            xhat = plant.a * xhat
            x = plant.a * x + noise[:, s]
        e = plant.a * np.where(delivered, 0.0, e) + noise[:, s]
        q = trans[q, r.astype(np.intp)]
    stage_costs[:, n_stages] = e * e

    return _summarize(stage_costs, transmit_rate, occupancy, trials, seed,
                      horizon_term=True, trace=trace)


def _simulate_white(plant, fsm, policy, trials, seed, collect_trace):
    n_stages = plant.horizon
    m = fsm.num_states
    sigma = math.sqrt(plant.sigma2)
    noise, uniforms = _draw_tables(seed, trials, n_stages, sigma)
    trans = np.array([[t0, t1 if t1 is not None else 0] for t0, t1 in fsm.transitions],
                     dtype=np.intp)
    drop = np.asarray(fsm.drop_probs)
    allowed = np.asarray(fsm.transmit_allowed, dtype=bool)

    xhat0 = np.empty((n_stages, m))
    xhat1 = np.empty((n_stages, m))
    for s in range(n_stages):
        for state in range(m):
            lo, hi = policy.intervals[s, state]
            xhat0[s, state], xhat1[s, state] = conditional_estimates(
                plant.sigma2, lo, hi)

    q = np.full(trials, fsm.initial_state, dtype=np.intp)
    stage_costs = np.empty((trials, n_stages))
    transmit_rate = np.empty(n_stages)
    occupancy = np.zeros(m, dtype=np.int64)
    trace = {"x": [], "xhat": [], "e": [], "r": [], "c": [], "q": []} if collect_trace else None

    for s in range(n_stages):
        occupancy += np.bincount(q, minlength=m)
        x = noise[:, s]
        r = decide_many(policy, s + 1, q, x)
        r = r & allowed[q]
        success = uniforms[:, s] >= drop[q]
        delivered = r & success
        estimate = np.where(delivered, x,
                            np.where(r, xhat1[s, q], xhat0[s, q]))
        err = x - estimate
        stage_costs[:, s] = err * err
        transmit_rate[s] = r.mean()
        if collect_trace:
            trace["x"].append(x.copy())
            trace["xhat"].append(estimate.copy())
            trace["e"].append(err.copy())
            trace["r"].append(r.copy())
            trace["c"].append(success.copy())
            trace["q"].append(q.copy())
        q = trans[q, r.astype(np.intp)]

    return _summarize(stage_costs, transmit_rate, occupancy, trials, seed,
                      horizon_term=False, trace=trace)


def _summarize(stage_costs, transmit_rate, occupancy, trials, seed,
               horizon_term, trace):
    stage_mse = stage_costs.mean(axis=0)
    stage_se = stage_costs.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 \
        else np.zeros(stage_costs.shape[1])
    totals = stage_costs.sum(axis=1)
    total_se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    if trace is not None:
        trace = {k: np.stack(v, axis=1) for k, v in trace.items()}
    return SimSummary(trials=trials, seed=seed, stage_mse=stage_mse,
                      stage_se=stage_se, total=float(stage_mse.sum()),
                      total_se=total_se, transmit_rate=transmit_rate,
                      occupancy=occupancy,
                      horizon_term_included=horizon_term, trace=trace)



def reference_simulate(plant, fsm, policy, trials, seed, collect_trace=False):
    if policy.kind == "interval_pair":
        return _simulate_white(plant, fsm, policy, trials, seed, collect_trace)
    return _simulate_chain(plant, fsm, policy, trials, seed, collect_trace)


class TestSimulatorBasics:
    def test_zero_trials_rejected(self):
        plant = PlantModel(a=1.0, sigma2=1.0, horizon=2)
        with pytest.raises(ValueError):
            simulate(plant, single_state(0.5), never_policy(2, 1), trials=0, seed=1)

    def test_asymmetric_with_coupled_plant_rejected(self):
        plant = PlantModel(a=1.0, sigma2=1.0, horizon=2)
        intervals = np.tile(np.array([-0.5, 1.5]), (2, 1, 1))
        policy = TransmitPolicy.interval(intervals)
        with pytest.raises(ValueError, match="gain 0"):
            simulate(plant, single_state(0.5), policy, trials=10, seed=1)

    # a cost past the float range is inf and its spread NaN; unrefused, numpy's
    # RuntimeWarnings fail these cases under pytest's error::RuntimeWarning
    @pytest.mark.parametrize("a, sigma2, policy", [
        (1e300, 1.0, never_policy(5, 1)),  # the carried error overflows on the chain
        (10.0 ** 30, 1.0, never_policy(5, 1)),
        (1.1, 1e308, never_policy(5, 1)),
        (0.0, 1e308, TransmitPolicy.interval(np.tile([-1.0, 1.0], (5, 1, 1)))),  # white
    ])
    def test_costs_past_the_float_range_are_refused(self, a, sigma2, policy):
        plant = PlantModel(a=a, sigma2=sigma2, horizon=5)
        with pytest.raises(SolverOverflowError, match=re.escape(
                f"simulated costs or their spread overflow a float (a = {a:.3g}, "
                f"sigma2 = {sigma2:.3g}, horizon 5)")):
            simulate(plant, single_state(0.5), policy, trials=1000, seed=1)

    def test_seed_determinism_is_bitwise(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        tau = np.full((6, 5), 1.0)
        tau[:, :2] = math.inf
        policy = TransmitPolicy.symmetric(tau)
        a = simulate(plant, fsm, policy, trials=400, seed=77)
        b = simulate(plant, fsm, policy, trials=400, seed=77)
        assert a.total == b.total and a.total_se == b.total_se
        assert np.array_equal(a.stage_mse, b.stage_mse)
        assert np.array_equal(a.occupancy, b.occupancy)
        c = simulate(plant, fsm, policy, trials=400, seed=78)
        assert c.total != a.total

    def test_summary_total_is_sum_of_stage_means(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=5)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        res = solve_and_extract(plant, fsm, SolverSettings(num_points=801))
        s = simulate(plant, fsm, res.threshold_policy, trials=3000, seed=5)
        assert s.total == pytest.approx(float(np.sum(s.stage_mse)), abs=1e-12)
        assert s.horizon_term_included
        assert len(s.stage_mse) == plant.horizon + 1
        assert len(s.transmit_rate) == plant.horizon
        assert s.occupancy.sum() == 3000 * plant.horizon

    def test_trace_columns_are_consistent(self, tmp_path):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=4)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        res = solve_and_extract(plant, fsm, SolverSettings(num_points=401))
        s = simulate(plant, fsm, res.threshold_policy, trials=20, seed=2,
                     collect_trace=True)
        tr = s.trace
        assert np.allclose(tr["x"] - tr["xhat"],
                           np.where(tr["r"] & tr["c"], 0.0, tr["e"]), atol=1e-12)
        path = tmp_path / "trace.csv"
        write_trace_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,n,x,xhat,e,r,c,q"
        assert len(lines) == 1 + 20 * 4
        untraced = simulate(plant, fsm, res.threshold_policy, trials=20, seed=2)
        with pytest.raises(ValueError, match="run without collect_trace"):
            write_trace_csv(untraced, path)


def _mirror_case(flip):
    """Gridded policy on the points -2..2 that transmits at |e| = 2, and at
    e = 1 of stage 2 as well when ``flip``."""
    indicator = np.zeros((2, 1, 5), dtype=bool)
    indicator[..., [0, 4]] = True
    indicator[1, 0, 3] = flip
    return TransmitPolicy.gridded(ErrorGrid(2.0, 5), indicator)


_INTERVAL = TransmitPolicy.interval(np.tile([-0.5, 1.5], (2, 1, 1)))
_THRESHOLD = TransmitPolicy.symmetric(np.ones((2, 1)))


@pytest.mark.parametrize("a, policy, error", [
    (1.1, TransmitPolicy.symmetric(np.ones((3, 1))), "policy shape does not match"),
    (1.1, _INTERVAL, "interval policies simulate only with plant gain 0"),
    (1.1, _mirror_case(False), None),
    (1.1, _mirror_case(True), "not symmetric at (n, q, e) = (2, 0, -1.0)"),
    (1.1, _THRESHOLD, None),
    (0.0, _INTERVAL, None),
    (0.0, _mirror_case(True), None),
    (0.0, _THRESHOLD, None),
], ids=["shape", "interval-gain", "gridded-mirror", "gridded-flipped", "threshold-gain",
        "interval-white", "gridded-flipped-white", "threshold-white"])
def test_check_policy_fits(a, policy, error):
    plant = PlantModel(a=a, sigma2=1.0, horizon=2)
    if error is None:
        check_policy_fits(plant, single_state(0.5), policy)
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            check_policy_fits(plant, single_state(0.5), policy)


class TestClosedFormAgreement:
    def test_blocked_channel_matches_open_loop_cost(self):
        plant = PlantModel(a=1.0, sigma2=1.0, horizon=2)
        s = simulate(plant, single_state(1.0), never_policy(2, 1),
                     trials=100000, seed=3)
        assert abs(s.total - predicted_open_loop_cost(plant)) <= 3 * s.total_se

    def test_always_transmit_on_perfect_channel_costs_nothing(self):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=5)
        always = TransmitPolicy.interval(np.tile(np.array([0.0, 0.0]), (5, 1, 1)))
        s = simulate(plant, single_state(0.0), always, trials=2000, seed=1)
        assert s.total == 0.0 and s.total_se == 0.0

    def test_chain_mode_matches_solver_value(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        res = solve_and_extract(plant, fsm, SolverSettings(num_points=1201))
        s = simulate(plant, fsm, res.threshold_policy, trials=40000, seed=11)
        assert abs(s.total - res.table.value_at_origin()) <= 3 * s.total_se

    def test_white_mode_matches_interval_solver_value(self):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=6)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 6)
        s = simulate(plant, fsm, table.policy(), trials=60000, seed=9)
        assert not s.horizon_term_included
        assert abs(s.total - table.value_at_start()) <= 3 * s.total_se

    def test_masked_states_never_attempt(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        # policy that would transmit everywhere; the mask must override it
        eager = TransmitPolicy.symmetric(np.zeros((6, 5)))
        s = simulate(plant, fsm, eager, trials=500, seed=4)
        assert np.all(s.transmit_rate <= 1.0)
        # after a send from full charge the chain passes through masked
        # states, so the attempt rate must dip below one
        assert s.transmit_rate.min() < 1.0


class TestDiscreteOracles:
    def test_dp_equals_exhaustive_on_random_instances(self):
        for trial in range(60):
            rng = np.random.default_rng(9000 + trial)
            inst = _random_discrete_instance(rng)
            best, minimizers = exhaustive_policy_search(inst)
            dp_value, _ = discrete_dp(inst)
            assert abs(best - dp_value) <= 1e-12
            assert minimizers

    def test_quantized_gaussian_example(self):
        edges = [-np.inf, -1.5, -0.5, 0.5, 1.5, np.inf]
        masses = [norm.cdf(edges[i + 1]) - norm.cdf(edges[i]) for i in range(5)]
        support = tuple((float(v), float(p))
                        for v, p in zip((-2, -1, 0, 1, 2), masses))
        fsm = ChannelFsm(2, ((1, 0), (1, 0)), (0.9, 0.3), initial_state=1,
                         transmit_allowed=(True, True))
        inst = DiscreteInstance(support=support, fsm=fsm, horizon=2)
        best, minimizers = exhaustive_policy_search(inst)
        dp_value, _ = discrete_dp(inst)
        assert abs(best - dp_value) <= 1e-12
        assert all(minimizer_has_interval_structure(inst, p) for p in minimizers)

    def test_single_support_point_costs_nothing(self):
        inst = DiscreteInstance(support=((0.0, 1.0),), fsm=single_state(0.8),
                                horizon=2)
        best, _ = exhaustive_policy_search(inst)
        assert best == pytest.approx(0.0, abs=1e-15)

    def test_two_point_free_channel_sends_both(self):
        inst = DiscreteInstance(support=((-1.0, 0.5), (1.0, 0.5)),
                                fsm=single_state(0.0), horizon=1)
        best, minimizers = exhaustive_policy_search(inst)
        assert best == pytest.approx(0.0, abs=1e-15)
        assert any(p[(1, 0)] == 0b11 for p in minimizers)

    def test_blocked_channel_value_is_support_variance_sum(self):
        support = ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))
        var = sum(p * v * v for v, p in support)
        # forced silence: the exact value is the per-stage variance summed
        muted = ChannelFsm(1, ((0, None),), (1.0,), 0, (False,))
        inst = DiscreteInstance(support=support, fsm=muted, horizon=2)
        dp_value, _ = discrete_dp(inst)
        best, _ = exhaustive_policy_search(inst)
        assert dp_value == pytest.approx(2 * var, rel=1e-12)
        assert best == pytest.approx(2 * var, rel=1e-12)
        # with attempts allowed the encoder signals through them even though
        # every packet drops, strictly beating silence
        open_inst = DiscreteInstance(support=support, fsm=single_state(1.0),
                                     horizon=2)
        signaling, _ = discrete_dp(open_inst)
        assert signaling < 2 * var - 1e-6

    def test_single_stage_matches_interval_stage_cost_analogue(self):
        # on a quantized source, enumeration over maps includes every
        # interval rule, so the best map cannot lose to the best interval
        edges = [-np.inf, -1.5, -0.5, 0.5, 1.5, np.inf]
        masses = [norm.cdf(edges[i + 1]) - norm.cdf(edges[i]) for i in range(5)]
        support = tuple((float(v), float(p))
                        for v, p in zip((-2, -1, 0, 1, 2), masses))
        inst = DiscreteInstance(support=support, fsm=single_state(0.4), horizon=1)
        best, _ = exhaustive_policy_search(inst)
        vals = np.array([v for v, _ in support])
        probs = np.array([p for _, p in support])

        def hand_cost(bits):
            send = np.array([(bits >> j) & 1 for j in range(5)], dtype=bool)
            total = 0.0
            for sel, weight in ((~send, 1.0), (send, 0.4)):
                mass = probs[sel].sum()
                if mass > 0:
                    mu = (probs[sel] * vals[sel]).sum() / mass
                    total += weight * (probs[sel] * (vals[sel] - mu) ** 2).sum()
            return total

        assert best == pytest.approx(min(hand_cost(b) for b in range(32)),
                                     abs=1e-14)

    def test_interval_structure_exists_on_random_instances(self):
        for trial in range(40):
            rng = np.random.default_rng(4000 + trial)
            inst = _random_discrete_instance(rng)
            _, minimizers = exhaustive_policy_search(inst)
            assert any(minimizer_has_interval_structure(inst, p)
                       for p in minimizers), trial

    @pytest.mark.parametrize("support, horizon, message", [
        (((1.0, 0.5), (-1.0, 0.5)), 1, "support values must be sorted ascending"),
        (((-1.0, 0.5), (1.0, 0.6)), 1, "support probabilities must be nonnegative and sum"),
        (((-1.0, -0.5), (1.0, 1.5)), 1, "support probabilities must be nonnegative and sum"),
        (((-1.0, 0.5), (1.0, 0.5)), 0, "horizon must be >= 1"),
        (((0.0, math.nan), (1.0, 0.5)), 1, "support values and probabilities must be finite"),
        (((0.0, 0.5), (math.nan, 0.5)), 1, "support values and probabilities must be finite"),
        (((0.0, 0.5), (math.inf, 0.5)), 1, "support values and probabilities must be finite"),
        (((-1e200, 0.5), (1e200, 0.5)), 1, "support second moment must be finite"),
    ], ids=["unsorted", "sum", "negative", "horizon", "nan-probability", "nan-value",
            "inf-value", "inf-square"])
    def test_invalid_instance_rejected(self, support, horizon, message):
        with pytest.raises(ValueError, match=message):
            DiscreteInstance(support=support, fsm=single_state(0.5), horizon=horizon)

    def test_large_finite_squares_still_solve(self):
        # squares of 1e300 are finite: the best policy sends at -1e150 and 0,
        # leaving half the sent variance per stage when the packet drops
        inst = DiscreteInstance(support=((-1e150, 0.25), (0.0, 0.5), (1e150, 0.25)),
                                fsm=single_state(0.5), horizon=2)
        sent_variance = 0.25e300 - (0.25e150) ** 2 / 0.75
        for value, _ in (exhaustive_policy_search(inst), discrete_dp(inst)):
            assert value == pytest.approx(2 * 0.5 * sent_variance, rel=1e-12)

    def test_enumeration_cap_enforced(self):
        support = tuple((float(v), 0.2) for v in (-2, -1, 0, 1, 2))
        fsm = ChannelFsm(3, ((0, 1), (1, 2), (2, 0)), (0.5, 0.5, 0.5), 0,
                         (True, True, True))
        inst = DiscreteInstance(support=support, fsm=fsm, horizon=5)
        with pytest.raises(EnumerationSizeError):
            exhaustive_policy_search(inst)

    def test_masked_states_pin_the_silent_map(self):
        fsm = ChannelFsm(2, ((1, 1), (0, None)), (0.4, 1.0), 0, (True, False))
        support = ((-1.0, 0.5), (1.0, 0.5))
        inst = DiscreteInstance(support=support, fsm=fsm, horizon=2)
        best, minimizers = exhaustive_policy_search(inst)
        dp_value, dp_policy = discrete_dp(inst)
        assert abs(best - dp_value) <= 1e-12
        assert all(p[(2, 1)] == 0 for p in minimizers if (2, 1) in p)


def assert_summaries_identical(got, want):
    for field in dataclasses.fields(SimSummary):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "trace":
            assert (a is None) == (b is None)
            if a is not None:
                assert a.keys() == b.keys()
                for key in a:
                    assert a[key].dtype == b[key].dtype, key
                    assert a[key].shape == b[key].shape, key
                    assert a[key].tobytes() == b[key].tobytes(), key
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.fixture(scope="module")
def policy_cases():
    """(plant, channel, policy) for each policy kind the simulator runs."""
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
    fsm = energy_harvesting_fsm(4, 2, 0.3)
    solved = solve_and_extract(plant, fsm, SolverSettings(num_points=401))
    white = PlantModel(a=0.0, sigma2=1.0, horizon=6)
    chain = workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])
    intervals = iid_backward_induction(chain, 1.0, 6).policy()
    return {"threshold": (plant, fsm, solved.threshold_policy),
            "gridded": (plant, fsm, solved.gridded_policy),
            "interval": (white, chain, intervals)}


class TestBlockedLoopMatchesReference:
    # at 3 threads the blocks have BLOCK_TRIALS // 3 = 10,922 trials, and the
    # last block of every trial count here is short
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["threshold", "gridded", "interval"])
    @pytest.mark.parametrize("trials", [1, 7, BLOCK_TRIALS - 1, BLOCK_TRIALS,
                                        BLOCK_TRIALS + 1, 3 * BLOCK_TRIALS + 5])
    def test_bit_identical_summary_and_trace(self, policy_cases, monkeypatch, kind,
                                             trials, threads):
        plant, fsm, policy = policy_cases[kind]
        monkeypatch.setattr(workers, "usable_cpus", lambda: threads)
        for seed in (0, 13):
            got = simulate(plant, fsm, policy, trials, seed, collect_trace=True)
            want = reference_simulate(plant, fsm, policy, trials, seed,
                                      collect_trace=True)
            assert_summaries_identical(got, want)

    # every case above has sigma2 = 1, where a dropped or misplaced scaling of
    # the normals goes unseen
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("kind", ["threshold", "interval"])
    @pytest.mark.parametrize("sigma2", [0.3, 2.0])
    @pytest.mark.parametrize("trials", [7, BLOCK_TRIALS + 1])
    def test_bit_identical_with_noise_variance(self, policy_cases, monkeypatch, kind,
                                               sigma2, trials, threads):
        plant, fsm, policy = policy_cases[kind]
        plant = dataclasses.replace(plant, sigma2=sigma2)
        if kind == "interval":
            policy = iid_backward_induction(fsm, sigma2, plant.horizon).policy()
        monkeypatch.setattr(workers, "usable_cpus", lambda: threads)
        got = simulate(plant, fsm, policy, trials, 5, collect_trace=True)
        assert_summaries_identical(
            got, reference_simulate(plant, fsm, policy, trials, 5, collect_trace=True))

    # one cost column (a horizon-1 white source), which numpy sums pairwise
    # rather than row by row
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("trials", [1, 7, BLOCK_TRIALS + 1])
    def test_bit_identical_at_horizon_one(self, monkeypatch, trials, threads):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=1)
        fsm = workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])
        policy = iid_backward_induction(fsm, 1.0, 1).policy()
        monkeypatch.setattr(workers, "usable_cpus", lambda: threads)
        got = simulate(plant, fsm, policy, trials, 2, collect_trace=True)
        assert_summaries_identical(
            got, reference_simulate(plant, fsm, policy, trials, 2, collect_trace=True))

    def test_bit_identical_without_trace(self, policy_cases):
        for kind, (plant, fsm, policy) in policy_cases.items():
            got = simulate(plant, fsm, policy, 2 * BLOCK_TRIALS + 3, 4)
            assert got.trace is None
            assert_summaries_identical(
                got, reference_simulate(plant, fsm, policy, 2 * BLOCK_TRIALS + 3, 4))

    @pytest.mark.parametrize("cpus, trials", [(1, 3 * BLOCK_TRIALS + 5), (4, BLOCK_TRIALS)],
                             ids=["one-cpu", "one-block"])
    def test_in_thread_run_starts_no_pool(self, policy_cases, monkeypatch, cpus, trials):
        plant, fsm, policy = policy_cases["threshold"]
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        with mock.patch("concurrent.futures.ThreadPoolExecutor",
                        side_effect=AssertionError("started a thread pool")):
            got = simulate(plant, fsm, policy, trials, 2)
        assert_summaries_identical(got, reference_simulate(plant, fsm, policy, trials, 2))

    def test_worker_error_reaches_the_caller(self, policy_cases, monkeypatch):
        plant, fsm, policy = policy_cases["threshold"]
        caller = threading.current_thread()

        def decide(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError(f"decision failed on {threading.current_thread().name}")
            return decide_many(*args)

        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        monkeypatch.setattr(oracle_sim, "decide_many", decide)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="decision failed on"):
            simulate(plant, fsm, policy, 3 * BLOCK_TRIALS, 2)
        assert threading.active_count() == before

    # more threads than cores, switching as often as the interpreter allows,
    # share one block counter and one generator over about 600 blocks: a
    # block stepped twice or not at all, or uniforms drawn out of block
    # order, change the summary
    @pytest.mark.parametrize("kind", ["threshold", "interval"])
    def test_many_threads_share_the_block_counter(self, policy_cases, monkeypatch, kind):
        plant, fsm, policy = policy_cases[kind]
        monkeypatch.setattr(workers, "MAX_WORKERS", 8)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        monkeypatch.setattr(oracle_sim, "BLOCK_TRIALS", 256)
        trials = 600 * (256 // 8)
        results = []
        runner = threading.Thread(target=lambda: results.append(
            simulate(plant, fsm, policy, trials, 3, collect_trace=True)), daemon=True)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(results) == 1
        assert threading.active_count() == before
        assert_summaries_identical(
            results[0], reference_simulate(plant, fsm, policy, trials, 3, collect_trace=True))


@pytest.mark.parametrize("trials, horizon", [(200_000, 20), (1_000_000, 2)])
def test_peak_memory_is_noise_and_cost_tables_plus_blocks(monkeypatch, trials, horizon):
    # the whole-table loops also held every uniform and per-stage temporaries
    # over all trials; the blocked loop holds only blocks of them, however
    # many threads share them. The normals live in the cost table's rows, the
    # uniforms replace them there and the summary's spreads are taken in
    # place, so the cost table, the per-trial totals (8 bytes a trial), one
    # stage-major buffer of one block over all threads and a slack of twelve
    # one-block vectors for the per-stage temporaries are all there is: a
    # second block buffer fails the first case, a second trials-sized vector
    # the second, and a second table both
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=horizon)
    fsm = energy_harvesting_fsm(4, 2, 0.3)
    policy = TransmitPolicy.symmetric(np.full((horizon, 5), 1.5))
    bound = (8 * trials * (horizon + 1) + 8 * trials + BLOCK_TRIALS * horizon * 8
             + 12 * BLOCK_TRIALS * 8)
    for threads in (1, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: threads)
        tracemalloc.start()
        try:
            simulate(plant, fsm, policy, trials, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{threads} threads: peak {peak / 1e6:.1f} MB over " \
                             f"{bound / 1e6:.1f} MB"
