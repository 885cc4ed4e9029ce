import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remest.channel import (ChannelFsm, energy_harvesting_fsm, reachable_pairs,
                            workload_chain_fsm)
from remest.dp_iid import optimize_symmetric_threshold
from remest.dp_symmetric import (GROWTH_BOUNDARY_FRACTION, SolverSettings,
                                 SolverOverflowError, backward_induction,
                                 check_growth_rate_bound,
                                 check_value_structure, export_value_table_csv,
                                 growth_rate_bounds, provenance_hash,
                                 solve_and_extract,
                                 threshold_optimality_condition)
from remest.process import PlantModel, predicted_open_loop_cost
from remest import quadrature
from remest.quadrature import GaussianExpectationOperator


def single_state(p_drop):
    return ChannelFsm(1, ((0, 0),), (p_drop,), 0, (True,))


@pytest.fixture(scope="module")
def energy_solution():
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
    fsm = energy_harvesting_fsm(4, 2, 0.3)
    return plant, fsm, solve_and_extract(plant, fsm, SolverSettings(num_points=1201))


def _per_state_stages(plant, fsm, solver):
    """Reference for backward_induction's stage step: the loop over channel
    states it replaced, kept as it was. Returns (values, smoothed,
    cost_wait, cost_send, transmit)."""
    grid = solver.make_grid(plant)
    m, n_stages, center = fsm.num_states, plant.horizon, grid.center_index
    op = GaussianExpectationOperator(grid, plant.a, plant.sigma2)
    values = np.empty((n_stages + 1, m, grid.num_points))
    smoothed = np.empty_like(values)
    cost_wait = np.empty((n_stages, m, grid.num_points))
    cost_send = np.full((n_stages, m, grid.num_points), np.nan)
    transmit = np.zeros((n_stages, m, grid.num_points), dtype=bool)
    x_sq = grid.points ** 2
    values[n_stages, :, :] = x_sq[None, :]
    for s in range(n_stages - 1, -1, -1):
        h = smoothed[s + 1] = op.apply(values[s + 1])
        for q in range(m):
            q0, q1 = fsm.transitions[q]
            c0 = x_sq + h[q0]
            cost_wait[s, q] = c0
            if fsm.transmit_allowed[q]:
                p = fsm.drop_probs[q]
                reset_value = h[q1, center]
                c1 = p * (x_sq + h[q1]) + (1.0 - p) * reset_value
                if q1 == q0:
                    c1[center] = reset_value
                cost_send[s, q] = c1
                send = c1 < c0
                transmit[s, q] = send
                values[s, q] = np.where(send, c1, c0)
            else:
                values[s, q] = c0
    smoothed[0] = op.apply(values[0])
    return values, smoothed, cost_wait, cost_send, transmit


def _single_pass_stages(plant, fsm, solver):
    """Reference for backward_induction's two phases: the single pass they
    replaced, which held all five tables beside the operator's band, kept as
    it was. Returns (values, smoothed, cost_wait, cost_send, transmit)."""
    grid = solver.make_grid(plant)
    op = GaussianExpectationOperator(grid, plant.a, plant.sigma2)
    m = fsm.num_states
    n_stages = plant.horizon
    center = grid.center_index

    values = np.empty((n_stages + 1, m, grid.num_points))
    smoothed = np.empty_like(values)
    cost_wait = np.empty((n_stages, m, grid.num_points))
    cost_send = np.empty_like(cost_wait)
    transmit = np.empty(cost_wait.shape, dtype=bool)

    x_sq = grid.points ** 2
    values[n_stages, :, :] = x_sq[None, :]
    q0, q1 = fsm.successor.T
    p = fsm.drop[:, None]
    tie = np.flatnonzero(q0 == q1)  # an exact tie at e = 0, which must stay silent

    for s in range(n_stages - 1, -1, -1):
        h = smoothed[s + 1] = op.apply(values[s + 1])
        c0 = cost_wait[s] = x_sq + h[q0]
        reset = h[q1, center]
        c1 = p * (x_sq + h[q1]) + (1.0 - p) * reset[:, None]
        c1[tie, center] = reset[tie]
        c1[~fsm.allowed] = np.nan
        cost_send[s] = c1
        send = transmit[s] = c1 < c0
        values[s] = np.where(send, c1, c0)
        worst = np.max(np.abs(values[s]))
        if not worst <= solver.value_cap:  # growth; the operator refuses what overflows
            raise SolverOverflowError(
                f"stage {s + 1}: value magnitude {worst:.3g} exceeds cap "
                f"{solver.value_cap:.3g}; widen the grid")
    smoothed[0] = op.apply(values[0])
    return values, smoothed, cost_wait, cost_send, transmit


TABLE_NAMES = ("values", "smoothed", "cost_wait", "cost_send", "transmit")


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def channel_fsms(draw):
    """Random FSMs with masked states (some with an r=1 arc, some without),
    shared successors and drop probabilities 0 and 1 among the others."""
    m = draw(st.integers(1, 4))
    state = st.integers(0, m - 1)
    allowed = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    transitions = tuple((draw(state), draw(state if ok else st.none() | state))
                        for ok in allowed)
    drops = tuple(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) if ok else 1.0
                  for ok in allowed)
    return ChannelFsm(m, transitions, drops, draw(state), tuple(allowed))


class TestTerminalAndRecursion:
    @settings(max_examples=100, deadline=None)
    @given(fsm=channel_fsms(), a=st.floats(0.0, 1.3), horizon=st.integers(1, 6),
           num_points=st.sampled_from([5, 41, 101]))
    def test_array_stage_step_matches_the_per_state_loop_bitwise(self, fsm, a, horizon,
                                                                num_points):
        plant = PlantModel(a=a, sigma2=1.0, horizon=horizon)
        solver = SolverSettings(num_points=num_points)
        table = backward_induction(plant, fsm, solver)
        reference = _per_state_stages(plant, fsm, solver)
        for name, want in zip(TABLE_NAMES, reference):
            got = getattr(table, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # V is C1 where the table transmits and C0 elsewhere, masked states included
        chosen = np.where(table.transmit, table.cost_send, table.cost_wait)
        assert chosen.tobytes() == table.values[:horizon].tobytes()

    def test_terminal_slice_is_squared_error_bitwise(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=3)
        table = backward_induction(plant, single_state(0.4),
                                   SolverSettings(half_width=4.0, num_points=401))
        x = table.grid.points
        assert np.array_equal(table.values[-1, 0], x ** 2)
        assert table.values[-1, 0, table.grid.index_of(2.0)] == 4.0

    def test_blocked_channel_reduces_to_open_loop_cost(self):
        # certain drops make both actions equal, ties stay silent, and the
        # value at zero error is the closed-form never-transmit cost
        for a, n in ((1.0, 2), (1.1, 3), (0.7, 4)):
            plant = PlantModel(a=a, sigma2=1.0, horizon=n)
            table = backward_induction(plant, single_state(1.0),
                                       SolverSettings(num_points=2001))
            assert table.value_at_origin() == pytest.approx(
                predicted_open_loop_cost(plant), rel=1e-4)
            assert np.array_equal(table.cost_wait, table.cost_send)
            assert not table.transmit.any()

    def test_free_channel_single_stage_closed_form(self):
        # one stage, perfect channel: waiting costs 2 e^2 + 1, sending costs
        # exactly the fresh-noise variance, so transmit everywhere but zero
        plant = PlantModel(a=1.0, sigma2=1.0, horizon=1)
        table = backward_induction(plant, single_state(0.0),
                                   SolverSettings(num_points=2001))
        x = table.grid.points
        tol = table.grid.spacing ** 2  # interpolation-model bias scale
        assert np.max(np.abs(table.cost_wait[0, 0] - (2 * x ** 2 + 1))) < tol
        assert np.max(np.abs(table.cost_send[0, 0] - 1.0)) < tol
        assert np.max(np.abs(table.values[0, 0] - 1.0)) < tol
        center = table.grid.center_index
        assert not table.transmit[0, 0, center]
        assert table.transmit[0, 0, np.arange(x.size) != center].all()

    @pytest.mark.parametrize("p_drop", [0.3, 0.7, 0.9])
    def test_zero_error_tie_stays_silent(self, p_drop):
        # one state is both successors, so at e = 0 sending costs exactly
        # what staying silent does; rounding must not break the tie
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=10)
        table = backward_induction(plant, single_state(p_drop),
                                   SolverSettings(num_points=401))
        center = table.grid.center_index
        assert not table.transmit[:, :, center].any()
        assert np.array_equal(table.cost_send[:, :, center],
                              table.cost_wait[:, :, center])

    def test_value_table_arrays_are_read_only(self, energy_solution):
        table = energy_solution[2].table
        for arr in (table.values, table.smoothed, table.cost_wait, table.cost_send,
                    table.transmit):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = arr[0, 0, 0]

    def test_value_is_pointwise_minimum(self, energy_solution):
        _, fsm, result = energy_solution
        table = result.table
        for q in fsm.states():
            for s in range(table.horizon):
                if fsm.transmit_allowed[q]:
                    expected = np.minimum(table.cost_wait[s, q], table.cost_send[s, q])
                    assert np.array_equal(table.values[s, q], expected)
                    assert np.all(table.values[s, q] <= table.cost_send[s, q])
                else:
                    assert np.isnan(table.cost_send[s, q]).all()
                    assert np.array_equal(table.values[s, q], table.cost_wait[s, q])
                assert np.all(table.values[s, q] <= table.cost_wait[s, q])

    def test_adding_a_stage_never_reduces_cost(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        values = []
        for n in (3, 4, 5, 6):
            plant = PlantModel(a=1.1, sigma2=1.0, horizon=n)
            table = backward_induction(plant, fsm, SolverSettings(num_points=1201))
            values.append(table.value_at_origin())
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_value_cap_overflow(self):
        plant = PlantModel(a=2.0, sigma2=1.0, horizon=6)
        with pytest.raises(SolverOverflowError):
            backward_induction(plant, single_state(1.0),
                               SolverSettings(num_points=801, value_cap=1e3))

    def test_invalid_fsm_rejected(self):
        with pytest.raises(ValueError, match="dangling"):
            ChannelFsm(2, ((1, 1), (0, 2)), (0.5, 0.5), 0, (True, True))


class TestTwoPhaseSolve:
    """backward_induction keeps only the smoothed table and one value slice
    while the operator's band is held, and derives C0, C1, transmit and V
    after freeing it: the same bits as the single pass, less memory."""

    @staticmethod
    def assert_matches_the_single_pass(plant, fsm, solver):
        table = backward_induction(plant, fsm, solver)
        for name, want in zip(TABLE_NAMES, _single_pass_stages(plant, fsm, solver)):
            got = getattr(table, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        return table

    @pytest.mark.parametrize("a", [0.0, 0.6, 1.1, -0.9])
    @pytest.mark.parametrize("fsm", [energy_harvesting_fsm(4, 2, 0.3),
                                     workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])],
                             ids=["energy", "workload"])
    def test_presets_match_the_single_pass_bitwise(self, fsm, a):
        plant = PlantModel(a=a, sigma2=1.0, horizon=20)
        self.assert_matches_the_single_pass(plant, fsm, SolverSettings(num_points=401))

    def test_one_state_tie_matches_the_single_pass_bitwise(self):
        # q0 == q1, so sending ties staying silent exactly at e = 0
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=10)
        table = self.assert_matches_the_single_pass(plant, single_state(0.4),
                                                    SolverSettings(num_points=401))
        center = table.grid.center_index
        assert not table.transmit[:, :, center].any()

    def test_masked_states_match_the_single_pass_bitwise(self):
        # state 0 is masked with no r=1 arc, state 2 has q0 == q1 and never drops
        fsm = ChannelFsm(3, ((1, None), (2, 0), (2, 2)), (1.0, 0.4, 0.0), 0,
                         (False, True, True))
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
        table = self.assert_matches_the_single_pass(plant, fsm, SolverSettings(num_points=401))
        assert np.isnan(table.cost_send[:, 0]).all() and not table.transmit[:, 0].any()
        assert table.transmit[:, 1:].any()

    @pytest.mark.parametrize("cap", [1e3, 1e5])
    def test_value_cap_overflow_raises_at_the_same_stage(self, cap):
        plant = PlantModel(a=2.0, sigma2=1.0, horizon=6)
        solver = SolverSettings(num_points=801, value_cap=cap)
        with pytest.raises(SolverOverflowError) as want:
            _single_pass_stages(plant, single_state(1.0), solver)
        with pytest.raises(SolverOverflowError) as got:
            backward_induction(plant, single_state(1.0), solver)
        assert str(got.value) == str(want.value)
        assert re.match(r"stage [2-6]: value magnitude ", str(got.value))

    def test_solve_holds_the_band_beside_one_table(self, monkeypatch):
        """The peak is the larger of the band plus the smoothed table (the
        recursion) and the five tables (the derivation after the band is
        freed), plus a few stage slices of temporaries. The operator fill's
        chunk is cut so that its temporaries stay below one table: each row
        is filled on its own, so the chunk changes no bit. The single pass,
        which holds all five tables beside the band, does not fit."""
        monkeypatch.setattr(quadrature, "FILL_ENTRIES", 2 ** 12)
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        fsm, solver = energy_harvesting_fsm(4, 2, 0.3), SolverSettings(num_points=2001)
        op = GaussianExpectationOperator(solver.make_grid(plant), plant.a, plant.sigma2)
        band = op._tail_moments.nbytes + sum(
            arr.nbytes for w in op._shares for arr in (w.data, w.indices, w.indptr))
        del op
        stage = fsm.num_states * solver.num_points * 8
        table = (plant.horizon + 1) * stage
        bound = max(band + table, 5 * table) + 8 * stage
        assert 3 * table < band < 5 * table  # about 6.7 MB against 1.7 MB a table
        table_got, peak = _traced_peak(lambda: backward_induction(plant, fsm, solver))
        want, reference_peak = _traced_peak(lambda: _single_pass_stages(plant, fsm, solver))
        assert table_got.values.tobytes() == want[0].tobytes()
        assert peak <= bound
        assert reference_peak > bound


class TestNearTies:
    @pytest.mark.parametrize("fsm", [energy_harvesting_fsm(4, 2, 0.3), single_state(0.4)],
                             ids=["energy-masked", "one-state-tie"])
    def test_matches_a_per_point_scan(self, fsm):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
        table = backward_induction(plant, fsm, SolverSettings(num_points=101))
        want = [[s + 1, q, float(e)]
                for s in range(plant.horizon) for q in range(fsm.num_states)
                if fsm.transmit_allowed[q]
                for e, c0, c1 in zip(table.grid.points, table.cost_wait[s, q],
                                     table.cost_send[s, q])
                if abs(float(c1) - float(c0)) < 1e-9 * abs(float(c0))]
        assert table.near_ties() == want
        if fsm.num_states == 1:  # q0 == q1: C1 == C0 exactly at e = 0, every stage
            assert want == [[s + 1, 0, 0.0] for s in range(plant.horizon)]


class TestStructureChecks:
    def test_energy_instance_is_clean(self, energy_solution):
        plant, _, result = energy_solution
        report = check_value_structure(result.table)
        assert report.ok, report.violations[:3]

    # a NaN compares false and an inf makes the slice's tolerance infinite, so
    # only the finiteness test catches them
    @pytest.mark.parametrize("cells, corrupt, kind, e_index", [
        ((2, 2, -1), lambda v: v - 1.0, "asymmetry", -1),
        ((2, 2, 900), lambda v: math.nan, "non-finite", 900),
        ((2, 2), lambda v: math.nan, "non-finite", 0),
        ((2, 2, 600), lambda v: math.inf, "non-finite", 600),
        ((2, 2, 0), lambda v: -math.inf, "non-finite", 0),
    ], ids=["minus-one", "nan-cell", "nan-slice", "inf-center", "minus-inf-edge"])
    def test_planted_defect_is_located(self, energy_solution, cells, corrupt, kind, e_index):
        table = energy_solution[2].table
        values = table.values.copy()
        values[cells] = corrupt(values[cells])
        table = dataclasses.replace(table, values=values)
        report = check_value_structure(table)
        assert not report.ok
        hits = [v for v in report.violations if (v.n, v.q) == (3, 2)]
        assert hits and hits[0].e == pytest.approx(table.grid.points[e_index])
        assert [v.kind for v in hits] == [kind]

    def test_minimum_off_zero_is_reported(self):
        # the slice dips 0.5e-8 per step for 10 steps on each side of e = 0
        # and is 1.0 at both ends: every step is within the tolerance (1e-8
        # of the range), its 5e-8 total is not
        table = backward_induction(PlantModel(a=1.0, sigma2=1.0, horizon=1),
                                   single_state(0.5), SolverSettings(num_points=41))
        k = np.abs(np.arange(41) - 20)
        dip = np.where(k <= 10, 0.5e-8 * (10 - k), 0.0)
        dip[[0, -1]] = 1.0
        values = table.values.copy()
        values[0, 0] = dip
        report = check_value_structure(dataclasses.replace(table, values=values))
        # reported at the first lowest point
        assert [(v.n, v.q, v.kind, v.e) for v in report.violations] == [
            (1, 0, "argmin not at zero", float(table.grid.points[1]))]
        assert report.violations[0].magnitude == pytest.approx(5e-8, rel=1e-12)

    def test_terminal_slice_passes(self):
        plant = PlantModel(a=1.0, sigma2=1.0, horizon=1)
        table = backward_induction(plant, single_state(0.5),
                                   SolverSettings(num_points=401))
        report = check_value_structure(table)
        assert report.ok


class TestGrowthRateBound:
    def test_terminal_quotient_equals_squared_gain(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=2)
        table = backward_induction(plant, single_state(0.3),
                                   SolverSettings(num_points=1601))
        report = check_growth_rate_bound(table)
        assert report.bounds[-1] == pytest.approx(plant.a ** 2)
        assert report.max_quotient[-1, 0] == pytest.approx(plant.a ** 2, abs=1e-5)

    def test_bounds_formula(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        bounds = growth_rate_bounds(plant)
        assert bounds[0] == pytest.approx(49.61)
        assert bounds[-1] == pytest.approx(1.21)
        assert np.all(np.diff(bounds) < 0)

    def test_white_source_quotients_vanish(self):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=4)
        table = backward_induction(plant, single_state(0.5),
                                   SolverSettings(num_points=801))
        report = check_growth_rate_bound(table)
        assert report.ok
        assert np.all(report.bounds == 0.0)
        assert report.max_quotient.max() <= 1e-9

    def test_energy_instance_respects_bound(self, energy_solution):
        _, _, result = energy_solution
        report = check_growth_rate_bound(result.table)
        assert report.slack == 10.0 * result.table.grid.spacing
        assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("cells, value", [
        ((1, 2, 700), math.nan), ((1, 2, 700), math.inf), ((1, 2), math.inf)],
        ids=["nan", "inf", "inf-slice"])
    def test_non_finite_smoothing_is_a_violation(self, energy_solution, cells, value):
        table = energy_solution[2].table
        smoothed = table.smoothed.copy()
        smoothed[cells] = value
        report = check_growth_rate_bound(dataclasses.replace(table, smoothed=smoothed))
        assert not report.ok
        assert [(n, q) for n, q, _, _ in report.violations] == [(2, 2)]
        assert not math.isfinite(report.violations[0][2])

    @pytest.mark.parametrize("fsm", [energy_harvesting_fsm(4, 2, 0.3),
                                     workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])],
                             ids=["energy", "workload"])
    def test_max_quotient_matches_a_fresh_smoothing_bitwise(self, fsm):
        # the check as it ran before the table carried its smoothings: one
        # stacked apply of a fresh operator over every value slice, which
        # gives the smoothings the solve took five slices at a time, bit for bit
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        table = backward_induction(plant, fsm)
        grid, x = table.grid, table.grid.points
        center = grid.center_index
        last = grid.num_points - 1 - max(1, int(grid.num_points * GROWTH_BOUNDARY_FRACTION))
        denom = x[center + 1:last + 1] ** 2 - x[center:last] ** 2
        h = GaussianExpectationOperator(grid, plant.a, plant.sigma2).apply(table.values)
        assert h.tobytes() == table.smoothed.tobytes()
        expected = ((h[..., center + 1:last + 1] - h[..., center:last]) / denom).max(axis=-1)
        report = check_growth_rate_bound(table)
        assert report.max_quotient.tobytes() == expected.tobytes()


class TestOptimalityMargin:
    def test_reported_numbers(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        v, threshold, _ = threshold_optimality_condition(plant, single_state(0.0))
        assert v == pytest.approx(49.61)
        assert threshold == pytest.approx(1.0 / 50.61, rel=1e-12)

    def test_white_source_margin_is_one(self):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=9)
        v, threshold, satisfied = threshold_optimality_condition(
            plant, single_state(0.999))
        assert v == 0.0 and threshold == 1.0 and satisfied

    def test_energy_instance_fails_margin(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        _, threshold, satisfied = threshold_optimality_condition(plant, fsm)
        assert not satisfied and 0.3 > threshold


class TestExtraction:
    def test_energy_reachable_states_have_finite_symmetric_taus(self, energy_solution):
        plant, fsm, result = energy_solution
        assert not result.witnesses and not result.asymmetric
        for n, q in result.reachable:
            if fsm.transmit_allowed[q]:
                assert math.isfinite(result.threshold_policy.intervals[n - 1, q, 1])
        for n in range(1, plant.horizon + 1):
            for q in (0, 1):
                assert result.threshold_policy.intervals[n - 1, q, 1] == math.inf

    def test_workload_instance_thresholds_everywhere(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
        fsm = workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])
        result = solve_and_extract(plant, fsm, SolverSettings(num_points=1201))
        assert not result.witnesses and not result.asymmetric
        # every reachable pair is threshold-form; up the chain the optimum is
        # the never-transmit sentinel (attempts would climb to worse states),
        # while the low-drop states transmit at finite thresholds
        witnessed = {(n, q) for n, q, _ in result.witnesses}
        for n, q in result.reachable:
            assert (n, q) not in witnessed
        assert math.isfinite(result.threshold_policy.intervals[0, 0, 1])
        assert math.isfinite(result.threshold_policy.intervals[1, 1, 1])

    def test_reachability_bfs(self):
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        pairs = reachable_pairs(fsm, 4)
        assert (1, 4) in pairs and (1, 2) not in pairs
        assert (2, 2) in pairs and (2, 4) in pairs and (2, 3) not in pairs
        assert (3, 0) in pairs and (4, 1) in pairs


class TestGridRefinement:
    def test_origin_value_stable_under_doubling(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        coarse = backward_induction(plant, fsm, SolverSettings(num_points=1001))
        fine = backward_induction(plant, fsm, SolverSettings(num_points=2001))
        rel = abs(fine.value_at_origin() - coarse.value_at_origin())
        rel /= abs(coarse.value_at_origin())
        assert rel < 1e-3

    @pytest.mark.parametrize("fsm", [energy_harvesting_fsm(4, 2, 0.3),
                                     workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])],
                             ids=["energy", "workload"])
    def test_gain_zero_matches_the_white_source_recursion(self, fsm):
        """At a = 0 the error at stage s + 1 is fresh noise W ~ N(0, sigma2),
        so every smoothed slice is a constant J[s, q], with no operator in it:
        J[N] = sigma2, a masked q has J[s, q] = sigma2 + J[s+1, q0], and an
        unmasked q has J[s, q] = J[s+1, q0] + E min(W^2, p W^2 + gap) with
        gap = J[s+1, q1] - J[s+1, q0], the objective of
        optimize_symmetric_threshold at its closed-form optimum
        tau = sqrt(gap / (1 - p)): no search and no grid in the reference.

        Halving the spacing (1001 to 2001 points; the auto width is 8 sigma
        at a = 0) turns the grid error g = smoothed - J into g' = g / r.
        Richardson's estimate of g', exact for second-order error (r = 4),
        is E = (g - g') / 3, so g' = 3 E / (r - 1), and |g'| <= 3 |E| holds
        exactly when r >= 2 or r <= 0: the error at least halves with the
        spacing, or changes sign. An error that does not shrink, such as a
        misaligned stage or a wrong C1, has r near 1 and fails.
        """
        sigma2, horizon = 1.0, 20
        reference = np.empty((horizon + 1, fsm.num_states))
        reference[horizon] = sigma2
        for s in range(horizon - 1, -1, -1):
            nxt = reference[s + 1]
            for q, ((q0, q1), p, ok) in enumerate(zip(fsm.transitions, fsm.drop_probs,
                                                      fsm.transmit_allowed)):
                stage = (optimize_symmetric_threshold(sigma2, p, nxt[q1] - nxt[q0])[1]
                         if ok else sigma2)
                reference[s, q] = nxt[q0] + stage
        plant = PlantModel(a=0.0, sigma2=sigma2, horizon=horizon)
        gaps = []
        for num_points in (1001, 2001):
            table = backward_induction(plant, fsm, SolverSettings(num_points=num_points))
            assert np.all(table.smoothed == table.smoothed[..., :1])
            gaps.append(table.smoothed[..., 0] - reference)
        coarse, fine = gaps
        estimate = (coarse - fine) / 3.0
        assert np.all(np.abs(fine) <= 3.0 * np.abs(estimate))


class TestExports:
    def test_value_table_csv_round_trips_numbers(self, tmp_path, energy_solution):
        _, _, result = energy_solution
        path = tmp_path / "values.csv"
        export_value_table_csv(result.table, path)
        header = path.read_text().splitlines()
        assert header[0].startswith("# provenance=")
        assert header[1] == "n,q,e,V,C0,C1,transmit"
        n, q, e, v, c0, c1, t = header[2].split(",")
        i = result.table.grid.index_of(float(e))
        assert float(v) == result.table.values[0, 0, i]


class TestSolverSettings:
    @pytest.mark.parametrize("fields, message", [
        ({"num_points": 400}, "num_points must be odd"),
        ({"half_width": math.inf}, "half_width must be 'auto' or positive and finite"),
        ({"half_width": math.nan}, "half_width must be 'auto' or positive and finite"),
        ({"half_width": 0.0}, "half_width must be 'auto' or positive and finite"),
        ({"half_width": 1e308},
         "half_width 1e+308: the grid's span 2 * half_width overflows a float"),
        ({"value_cap": math.nan}, "value_cap must be positive and finite"),
        ({"value_cap": math.inf}, "value_cap must be positive and finite"),
        ({"value_cap": 0.0}, "value_cap must be positive and finite"),
        ({"num_points": 2001.0}, "num_points must be an integer, got 2001.0"),
        ({"num_points": "2001"}, "num_points must be an integer, got '2001'"),
        ({"num_points": True}, "num_points must be an integer, got True"),
        ({"half_width": "3.0"}, "half_width must be 'auto' or positive and finite, got '3.0'"),
        ({"half_width": None}, "half_width must be 'auto' or positive and finite, got None"),
        ({"value_cap": True}, "value_cap must be positive and finite, got True"),
        ({"value_cap": "1e12"}, "value_cap must be positive and finite, got '1e12'"),
    ])
    def test_invalid_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverSettings(**fields)

    def test_half_width_spellings_hash_the_same(self):
        # energy channel, a = 1.1, N = 4, 201 points: the digest of the float
        # spelling, which an integer half-width now shares
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=4)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        for spelling in (3, 3.0):
            settings = SolverSettings(half_width=spelling, num_points=201)
            assert type(settings.half_width) is float
            assert provenance_hash(plant, fsm, settings) == "4d2de6c9f5693554"


class TestProvenance:
    def test_explicit_grid_is_hashed(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=2)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        settings = SolverSettings(half_width=3.0, num_points=41)
        table = backward_induction(plant, fsm, settings)
        assert table.provenance == provenance_hash(plant, fsm, settings)
        assert table.provenance != provenance_hash(plant, fsm, SolverSettings(num_points=41))
