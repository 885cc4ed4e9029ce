import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from remest.channel import ChannelFsm, energy_harvesting_fsm
from remest.dp_iid import (NEVER_TRANSMIT, _objective_vec, conditional_estimates,
                           iid_backward_induction, iid_stage_cost,
                           optimize_interval, optimize_symmetric_threshold)


def quad_stage_cost(sigma2, p_drop, lo, hi):
    """Adaptive-integration reference for the interval stage cost."""
    sigma = math.sqrt(sigma2)
    scale = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    pdf = lambda x: scale * math.exp(-0.5 * (x / sigma) ** 2)

    def piece(fn, a, b):
        if a >= b:
            return 0.0
        return integrate.quad(fn, a, b, epsabs=0, epsrel=1e-12)[0]

    mass_in = piece(pdf, lo, hi)
    cost = 0.0
    if mass_in > 1e-14:
        mu0 = piece(lambda x: x * pdf(x), lo, hi) / mass_in
        cost += piece(lambda x: (x - mu0) ** 2 * pdf(x), lo, hi)
    mass_out = 1.0 - mass_in
    if mass_out > 1e-14:
        m1 = (piece(lambda x: x * pdf(x), -np.inf, lo)
              + piece(lambda x: x * pdf(x), hi, np.inf))
        mu1 = m1 / mass_out
        v1 = (piece(lambda x: (x - mu1) ** 2 * pdf(x), -np.inf, lo)
              + piece(lambda x: (x - mu1) ** 2 * pdf(x), hi, np.inf))
        cost += p_drop * v1
    return cost


def dense_search(sigma2, p_drop, gap, span=6.0):
    """Independent interval optimizer: dense grid plus zooming refinement."""
    sigma = math.sqrt(sigma2)

    def objective(lo, hi):
        za, zb = lo / sigma, hi / sigma
        m0 = norm.cdf(zb) - norm.cdf(za)
        m1 = sigma * (norm.pdf(za) - norm.pdf(zb))
        m2 = sigma2 * (m0 + za * norm.pdf(za) - zb * norm.pdf(zb))
        m0c, m1c, m2c = 1 - m0, -m1, sigma2 - m2
        t_in = np.where(m0 > 1e-14, m2 - m1 ** 2 / np.maximum(m0, 1e-300), 0.0)
        t_out = np.where(m0c > 1e-14, m2c - m1c ** 2 / np.maximum(m0c, 1e-300), 0.0)
        return t_in + p_drop * t_out + gap * m0c

    axis = np.linspace(-span * sigma, span * sigma, 401)
    lo_m, hi_m = np.meshgrid(axis, axis, indexing="ij")
    vals = np.where(lo_m <= hi_m, objective(lo_m, hi_m), np.inf)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    lo, hi = lo_m[i, j], hi_m[i, j]
    width = axis[1] - axis[0]
    for _ in range(8):
        la = lo + np.linspace(-width, width, 41)
        ha = hi + np.linspace(-width, width, 41)
        lo_m, hi_m = np.meshgrid(la, ha, indexing="ij")
        vals = np.where(lo_m <= hi_m, objective(lo_m, hi_m), np.inf)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        lo, hi = lo_m[i, j], hi_m[i, j]
        width /= 10
    return float(lo), float(hi), float(vals[i, j])


class TestStageCost:
    def test_never_transmit_costs_source_variance(self):
        cost, p_tx = iid_stage_cost(1.7, 0.5, -math.inf, math.inf)
        assert cost == pytest.approx(1.7, rel=1e-14)
        assert p_tx == 0.0

    def test_always_transmit_costs_drop_weighted_variance(self):
        cost, p_tx = iid_stage_cost(2.0, 0.25, 0.0, 0.0)
        assert cost == pytest.approx(0.5, rel=1e-14)
        assert p_tx == 1.0

    def test_half_line_silence_closed_form(self):
        cost, p_tx = iid_stage_cost(1.0, 0.5, 0.0, math.inf)
        assert cost == pytest.approx(0.75 * (1 - 2 / math.pi), rel=1e-12)
        assert p_tx == pytest.approx(0.5)
        assert cost == pytest.approx(quad_stage_cost(1.0, 0.5, 0.0, np.inf), rel=1e-9)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_adaptive_integration(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            sigma2 = float(rng.uniform(0.25, 4.0))
            p = float(rng.uniform(0, 1))
            lo, hi = np.sort(rng.uniform(-3.5 * math.sqrt(sigma2),
                                         3.5 * math.sqrt(sigma2), 2))
            mine, _ = iid_stage_cost(sigma2, p, float(lo), float(hi))
            ref = quad_stage_cost(sigma2, p, float(lo), float(hi))
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            iid_stage_cost(1.0, 0.5, 2.0, -2.0)

    def test_optimizer_objective_uses_the_same_mass_floor(self):
        # a far-tail silence interval (mass about 6e-16) counts in both
        cost, _ = iid_stage_cost(1.0, 0.0, -9.0, -8.0)
        objective = _objective_vec(1.0, 0.0, 0.0, np.array([-9.0]), np.array([-8.0]))
        assert cost > 0.0
        assert objective[0] == cost

    def test_conditional_estimates(self):
        xin, xout = conditional_estimates(1.0, 0.0, math.inf)
        assert xin == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
        assert xout == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-12)
        xin, xout = conditional_estimates(1.0, 0.0, 0.0)
        assert xin == 0.0 and xout == 0.0


class TestOptimizeInterval:
    def test_free_channel_transmits_everything(self):
        lo, hi, obj = optimize_interval(1.0, 0.0, 0.0)
        assert (lo, hi) == (0.0, 0.0)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_certain_drops_favor_one_sided_signaling(self):
        # even a channel that drops everything carries information through
        # the attempt itself: a half-line silence region splits the source
        # into two announced slabs, beating silence-forever
        lo, hi, obj = optimize_interval(1.0, 1.0, 0.0)
        assert obj == pytest.approx(1 - 2 / math.pi, rel=1e-6)
        assert obj < 1.0
        assert min(abs(lo), abs(hi)) < 1e-4  # split lands at the mean
        _, sym_obj = optimize_symmetric_threshold(1.0, 1.0, 0.0)
        assert sym_obj == pytest.approx(1.0, rel=1e-12)  # symmetry buys nothing

    def test_certain_drops_with_heavy_future_penalty_stay_silent(self):
        lo, hi, obj = optimize_interval(1.0, 1.0, 1.5)
        assert obj <= 1.0 + 1e-12
        if (lo, hi) == NEVER_TRANSMIT:
            assert obj == pytest.approx(1.0)

    def test_moderate_drop_optimum_matches_dense_oracle_and_is_asymmetric(self):
        mine = optimize_interval(1.0, 0.3, 0.0)
        ref = dense_search(1.0, 0.3, 0.0)
        assert mine[2] == pytest.approx(ref[2], abs=1e-9)
        assert mine[2] < 0.3  # beats always-transmit
        # the optimizer is a one-tail slab, not a symmetric interval; the
        # mirrored slab is the equally good twin, so match either orientation
        assert abs(mine[0] + mine[1]) > 1.0
        direct = max(abs(mine[0] - ref[0]), abs(mine[1] - ref[1]))
        mirrored = max(abs(mine[0] + ref[1]), abs(mine[1] + ref[0]))
        assert min(direct, mirrored) < 1e-5

    def test_matches_dense_oracle_on_random_settings(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            sigma2 = float(rng.uniform(0.5, 2.0))
            p = float(rng.uniform(0.05, 0.95))
            gap = float(rng.uniform(0.0, 1.5))
            mine = optimize_interval(sigma2, p, gap)
            ref = dense_search(sigma2, p, gap)
            assert mine[2] == pytest.approx(ref[2], rel=1e-6, abs=1e-9)

    def test_large_gap_restores_symmetry(self):
        lo, hi, _ = optimize_interval(1.0, 0.1, 1.0)
        assert lo == pytest.approx(-hi, abs=1e-5)


class TestBackwardInduction:
    def test_terminal_values_are_zero(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 4)
        assert np.array_equal(table.values[-1], np.zeros(5))

    def test_single_stage_reduces_to_interval_optimization(self):
        fsm = ChannelFsm(1, ((0, 0),), (0.3,), 0, (True,))
        table = iid_backward_induction(fsm, 1.0, 1)
        _, _, obj = optimize_interval(1.0, 0.3, 0.0)
        assert table.values[0, 0] == pytest.approx(obj, rel=1e-12)

    def test_energy_instance_matches_handrolled_recursion(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 3)
        values = {q: 0.0 for q in range(5)}
        for _ in range(3):
            nxt = {}
            for q in range(5):
                q0 = min(q + 1, 4)
                if q < 2:
                    nxt[q] = 1.0 + values[q0]
                else:
                    gap = values[q - 2] - values[q0]
                    _, _, obj = dense_search(1.0, 0.3, gap)
                    nxt[q] = obj + values[q0]
            values = nxt
        for q in range(5):
            assert table.values[0, q] == pytest.approx(values[q], abs=1e-7)

    def test_never_transmit_bound(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.3, 5)
        for s in range(6):
            for q in range(5):
                assert table.values[s, q] <= 1.3 * (5 - s) + 1e-9

    def test_masked_states_never_transmit(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 3)
        for s in range(3):
            for q in (0, 1):
                assert tuple(table.intervals[s, q]) == NEVER_TRANSMIT
                assert table.p_transmit[s, q] == 0.0

    def test_asymmetric_improvements_are_logged(self):
        # zero continuation gaps at the last stage leave signaling
        # improvements on the table, which the log must record
        fsm = ChannelFsm(1, ((0, 0),), (0.6,), 0, (True,))
        table = iid_backward_induction(fsm, 1.0, 2)
        assert table.asymmetry_log
        for n, q, sym_obj, obj in table.asymmetry_log:
            assert sym_obj > obj + 1e-7

    def test_symmetric_restriction_never_wins(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 3)
        logged = {(n, q) for n, q, _, _ in table.asymmetry_log}
        for s in range(3):
            for q in range(2, 5):
                gap = table.values[s + 1, q - 2] - table.values[s + 1, min(q + 1, 4)]
                _, sym_obj = optimize_symmetric_threshold(1.0, 0.3, gap)
                obj = table.values[s, q] - table.values[s + 1, min(q + 1, 4)]
                assert obj <= sym_obj + 1e-9
                if sym_obj - obj > 1e-7:
                    assert (s + 1, q) in logged

    def test_search_refinement_stability(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        base = iid_backward_induction(fsm, 1.0, 3, coarse=121)
        fine = iid_backward_induction(fsm, 1.0, 3, coarse=241)
        assert np.max(np.abs(base.values - fine.values)) < 1e-4

    def test_policy_export_shape(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        table = iid_backward_induction(fsm, 1.0, 2)
        policy = table.policy()
        assert policy.kind == "interval_pair"
        assert policy.intervals.shape == (2, 5, 2)

    def test_quantized_oracle_converges_to_continuous_value(self):
        # exact solves on quantized sources approach the continuous solver's
        # value as the support refines; the residual is the quantization gap
        from remest.oracle_sim import DiscreteInstance, discrete_dp

        fsm = ChannelFsm(2, ((1, 0), (1, 0)), (0.7, 0.2), 0, (True, True))
        continuous = iid_backward_induction(fsm, 1.0, 2).value_at_start()
        gaps = []
        for k in (5, 9, 21):
            centers = np.linspace(-4.0, 4.0, k)
            edges = np.concatenate([[-np.inf],
                                    0.5 * (centers[1:] + centers[:-1]),
                                    [np.inf]])
            masses = norm.cdf(edges[1:]) - norm.cdf(edges[:-1])
            inst = DiscreteInstance(
                support=tuple((float(v), float(p))
                              for v, p in zip(centers, masses)),
                fsm=fsm, horizon=2)
            value, _ = discrete_dp(inst)
            gaps.append(abs(value - continuous))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2.5e-3
