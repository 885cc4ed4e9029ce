import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from remest.channel import ChannelFsm, energy_harvesting_fsm, workload_chain_fsm
from remest.dp_iid import (ASYMMETRY_TOL, NEVER_TRANSMIT, REFINE_TOL, SPAN,
                           IidValueTable, _interval_terms, conditional_estimates,
                           iid_backward_induction, iid_stage_cost,
                           optimize_interval, optimize_symmetric_threshold)
from remest.quadrature import MASS_FLOOR, gaussian_partial_moments
from test_channel import built_fsms


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
        term_in, term_out, m0c = _interval_terms(1.0, np.array([-9.0]), np.array([-8.0]))
        objective = term_in + 0.0 * term_out + 0.0 * m0c
        assert cost > 0.0
        assert objective[0] == cost

    def test_conditional_estimates(self):
        xin, xout = conditional_estimates(1.0, 0.0, math.inf)
        assert xin == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
        assert xout == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-12)
        xin, xout = conditional_estimates(1.0, 0.0, 0.0)
        assert xin == 0.0 and xout == 0.0


# interval ends in source standard deviations: finite ones out to the far
# tails, infinite ones, and lo == hi
_ends = st.one_of(st.floats(-12.0, 12.0), st.sampled_from([-math.inf, math.inf]))
_intervals = st.lists(st.tuples(_ends, _ends, st.booleans()), min_size=1, max_size=8).map(
    lambda rows: [(lo, lo) if same and math.isfinite(lo) else tuple(sorted((lo, hi)))
                  for lo, hi, same in rows])


class TestArrayKernels:
    """The array calls are the scalar calls, element by element, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(sigma2=st.floats(0.1, 4.0), p=st.floats(0.0, 1.0), intervals=_intervals)
    def test_array_calls_match_scalar_calls(self, sigma2, p, intervals):
        sigma = math.sqrt(sigma2)
        lo, hi = (np.array(ends) * sigma for ends in zip(*intervals))
        for kernel, args in ((gaussian_partial_moments, ()), (iid_stage_cost, (p,)),
                             (conditional_estimates, ())):
            arrays = kernel(sigma2, *args, lo, hi)
            for i in range(len(lo)):
                scalars = kernel(sigma2, *args, float(lo[i]), float(hi[i]))
                assert bits([a[i] for a in arrays]) == bits(scalars), (kernel.__name__, i)

    @settings(max_examples=200, deadline=None)
    @given(sigma2=st.floats(0.1, 4.0), p=st.floats(0.0, 1.0), intervals=_intervals)
    def test_mirror_intervals_cost_the_same(self, sigma2, p, intervals):
        sigma = math.sqrt(sigma2)
        lo, hi = (np.array(ends) * sigma for ends in zip(*intervals))
        cost, p_tx = iid_stage_cost(sigma2, p, lo, hi)
        mirror_cost, mirror_p_tx = iid_stage_cost(sigma2, p, -hi, -lo)
        np.testing.assert_allclose(cost, mirror_cost, rtol=0, atol=2e-15 * sigma2)
        np.testing.assert_allclose(p_tx, mirror_p_tx, rtol=0, atol=1e-15)
        # a region's mass carries an absolute rounding error of a few 1e-16,
        # which a narrow interval's mean divides by that mass
        mass_in = gaussian_partial_moments(sigma2, lo, hi)[0]
        for mean, mirror_mean, mass in zip(conditional_estimates(sigma2, lo, hi),
                                           conditional_estimates(sigma2, -hi, -lo),
                                           (mass_in, 1.0 - mass_in)):
            rtol = 1e-12 + 1e-15 / np.maximum(mass, MASS_FLOOR)
            assert np.all(np.abs(mean + mirror_mean) <= rtol * np.abs(mean))

    def test_far_tail_mirror_is_exact(self):
        # the right tail takes the reflected CDF difference, so it matches its
        # mirror bit for bit; the unreflected one gives a cost of 2.77e-15
        assert bits(iid_stage_cost(1.0, 0.0, 8.0, 9.0)) == bits(
            iid_stage_cost(1.0, 0.0, -9.0, -8.0))
        assert bits(conditional_estimates(1.0, 8.0, 9.0)) == bits(
            [-x for x in conditional_estimates(1.0, -9.0, -8.0)])
        assert 8e-18 < iid_stage_cost(1.0, 0.0, 8.0, 9.0)[0] < 1e-17

    @settings(max_examples=50, deadline=None)
    @given(intervals=_intervals.filter(lambda rows: rows[0][0] < rows[0][1]))
    def test_any_reversed_interval_raises(self, intervals):
        lo, hi = (np.array(ends) for ends in zip(*intervals))
        lo[0], hi[0] = hi[0], lo[0]
        for call in (lambda: gaussian_partial_moments(1.0, lo, hi),
                     lambda: iid_stage_cost(1.0, 0.5, lo, hi),
                     lambda: conditional_estimates(1.0, lo, hi)):
            with pytest.raises(ValueError, match="need lo <= hi"):
                call()


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
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            iid_backward_induction(fsm, 1.0, 0)

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


# --- the per-(stage, state) search the batched one replaced, kept as the
# reference it must reproduce bit for bit ------------------------------------

_SQRT2PI = math.sqrt(2.0 * math.pi)


def reference_objective(sigma2, p_drop, gap, lo, hi):
    sigma = math.sqrt(sigma2)
    za, zb = lo / sigma, hi / sigma
    m0 = ndtr(zb) - ndtr(za)
    pa = np.exp(-0.5 * za * za) / _SQRT2PI
    pb = np.exp(-0.5 * zb * zb) / _SQRT2PI
    m1 = sigma * (pa - pb)
    m2 = sigma2 * (m0 + za * pa - zb * pb)
    m0c, m1c, m2c = 1.0 - m0, -m1, sigma2 - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        term_in = np.where(m0 >= MASS_FLOOR, m2 - m1 * m1 / m0, 0.0)
        term_out = np.where(m0c >= MASS_FLOOR, m2c - m1c * m1c / m0c, 0.0)
    return term_in + p_drop * term_out + gap * m0c


def reference_grid_search(sigma2, p_drop, gap, lo_axis, hi_axis=None):
    if hi_axis is None:
        hi_axis = lo_axis
    lo_m, hi_m = np.meshgrid(lo_axis, hi_axis, indexing="ij")
    valid = lo_m <= hi_m
    obj = np.where(valid, reference_objective(sigma2, p_drop, gap, lo_m, hi_m), np.inf)
    best = float(obj.min())
    tied = np.argwhere(obj <= best + 1e-15)
    widths = hi_m[tied[:, 0], tied[:, 1]] - lo_m[tied[:, 0], tied[:, 1]]
    centers = np.abs(hi_m[tied[:, 0], tied[:, 1]] + lo_m[tied[:, 0], tied[:, 1]])
    i, j = tied[np.lexsort((centers, widths))[0]]
    return float(lo_m[i, j]), float(hi_m[i, j]), best


def reference_optimize_interval(sigma2, p_drop, gap, coarse=121):
    sigma = math.sqrt(sigma2)
    lo_best, hi_best, best = reference_grid_search(
        sigma2, p_drop, gap, np.linspace(-SPAN * sigma, SPAN * sigma, coarse))
    window = 2.0 * SPAN * sigma / (coarse - 1)
    while window > REFINE_TOL * sigma:
        lo_c, hi_c, cand = reference_grid_search(
            sigma2, p_drop, gap, lo_best + np.linspace(-window, window, 21),
            hi_best + np.linspace(-window, window, 21))
        if cand <= best:
            lo_best, hi_best, best = lo_c, hi_c, cand
        window /= 8.0
    if sigma2 < best:
        return NEVER_TRANSMIT[0], NEVER_TRANSMIT[1], sigma2
    return float(lo_best), float(hi_best), float(best)


def reference_optimize_symmetric(sigma2, p_drop, gap, coarse=121):
    sigma = math.sqrt(sigma2)
    axis = np.linspace(0.0, SPAN * sigma, coarse)
    obj = reference_objective(sigma2, p_drop, gap, -axis, axis)
    k = int(np.argmin(obj))
    tau_best, best = float(axis[k]), float(obj[k])
    window = SPAN * sigma / (coarse - 1)
    while window > REFINE_TOL * sigma:
        axis = np.maximum(tau_best + np.linspace(-window, window, 21), 0.0)
        obj = reference_objective(sigma2, p_drop, gap, -axis, axis)
        k = int(np.argmin(obj))
        if obj[k] <= best:
            tau_best, best = float(axis[k]), float(obj[k])
        window /= 8.0
    if sigma2 < best:
        return math.inf, sigma2
    return tau_best, best


def reference_backward_induction(fsm, sigma2, horizon, coarse=121):
    m = fsm.num_states
    values = np.zeros((horizon + 1, m))
    intervals = np.zeros((horizon, m, 2))
    p_transmit = np.zeros((horizon, m))
    log = []
    for s in range(horizon - 1, -1, -1):
        for q in range(m):
            q0, q1 = fsm.transitions[q]
            if not fsm.transmit_allowed[q]:
                values[s, q] = sigma2 + values[s + 1, q0]
                intervals[s, q] = NEVER_TRANSMIT
                continue
            gap = values[s + 1, q1] - values[s + 1, q0]
            lo, hi, obj = reference_optimize_interval(sigma2, fsm.drop_probs[q], gap, coarse)
            _, obj_sym = reference_optimize_symmetric(sigma2, fsm.drop_probs[q], gap, coarse)
            if obj_sym - obj > ASYMMETRY_TOL * sigma2:
                log.append((s + 1, q, obj_sym, obj))
            intervals[s, q] = (lo, hi)
            _, p_transmit[s, q] = iid_stage_cost(sigma2, fsm.drop_probs[q], lo, hi)
            values[s, q] = obj + values[s + 1, q0]
    return IidValueTable(fsm=fsm, sigma2=sigma2, values=values, intervals=intervals,
                         p_transmit=p_transmit, asymmetry_log=log)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_tables_identical(got, want):
    for name in ("values", "intervals", "p_transmit"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert len(got.asymmetry_log) == len(want.asymmetry_log)
    for g, w in zip(got.asymmetry_log, want.asymmetry_log):
        assert g[:2] == w[:2] and bits(g[2:]) == bits(w[2:])


class TestBatchedSearchMatchesReference:
    @pytest.mark.parametrize("fsm", [
        energy_harvesting_fsm(4, 2, 0.3),
        workload_chain_fsm(4, (0.1, 0.3, 0.5, 0.7, 0.9)),
    ], ids=["energy_harvesting", "workload_chain"])
    def test_presets_bit_identical(self, fsm):
        assert_tables_identical(iid_backward_induction(fsm, 1.0, 20),
                                reference_backward_induction(fsm, 1.0, 20))

    @settings(max_examples=50, deadline=None)
    @given(fsm=built_fsms(), sigma2=st.floats(0.1, 4.0), horizon=st.integers(1, 4),
           coarse=st.sampled_from([121, 241]))
    def test_built_fsms_bit_identical(self, fsm, sigma2, horizon, coarse):
        assert_tables_identical(iid_backward_induction(fsm, sigma2, horizon, coarse),
                                reference_backward_induction(fsm, sigma2, horizon, coarse))

    @settings(max_examples=50, deadline=None)
    @given(sigma2=st.floats(0.1, 4.0), p=st.floats(0.0, 1.0), gap=st.floats(-2.0, 4.0))
    def test_scalar_calls_return_the_reference_tuples(self, sigma2, p, gap):
        got = optimize_interval(sigma2, p, gap)
        want = reference_optimize_interval(sigma2, p, gap)
        assert all(type(v) is float for v in got) and bits(got) == bits(want)
        got = optimize_symmetric_threshold(sigma2, p, gap)
        want = reference_optimize_symmetric(sigma2, p, gap)
        assert all(type(v) is float for v in got) and bits(got) == bits(want)
