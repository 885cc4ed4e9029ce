import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remest.channel import (ChannelFsm, energy_harvesting_fsm, reachable_pairs,
                            workload_chain_fsm)
from remest.dp_symmetric import (GROWTH_BOUNDARY_FRACTION, SolverSettings,
                                 SolverOverflowError, backward_induction,
                                 check_growth_rate_bound,
                                 check_value_structure, export_value_table_csv,
                                 growth_rate_bounds, provenance_hash,
                                 solve_and_extract,
                                 threshold_optimality_condition)
from remest.process import PlantModel, predicted_open_loop_cost
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
        for name, want in zip(("values", "smoothed", "cost_wait", "cost_send", "transmit"),
                              reference):
            got = getattr(table, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

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


class TestStructureChecks:
    def test_energy_instance_is_clean(self, energy_solution):
        plant, _, result = energy_solution
        report = check_value_structure(result.table)
        assert report.ok, report.violations[:3]

    def test_planted_defect_is_located(self, energy_solution):
        plant, fsm, _ = energy_solution
        table = backward_induction(plant, fsm, SolverSettings(num_points=1201))
        values = table.values.copy()
        values[2, 2, -1] -= 1.0
        table = dataclasses.replace(table, values=values)
        report = check_value_structure(table)
        assert not report.ok
        hits = [v for v in report.violations if (v.n, v.q) == (3, 2)]
        assert hits and hits[0].e == pytest.approx(table.grid.half_width)

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

    def test_max_quotient_matches_a_fresh_smoothing_bitwise(self):
        # the check as it ran before the table carried its smoothings: one
        # stacked apply of a fresh operator over every value slice
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=20)
        table = backward_induction(plant, energy_harvesting_fsm(4, 2, 0.3))
        grid, x = table.grid, table.grid.points
        center = grid.center_index
        last = grid.num_points - 1 - max(1, int(grid.num_points * GROWTH_BOUNDARY_FRACTION))
        denom = x[center + 1:last + 1] ** 2 - x[center:last] ** 2
        h = GaussianExpectationOperator(grid, plant.a, plant.sigma2).apply(table.values)
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

    def test_margin_regime_sweep_has_no_witnesses(self):
        for trial in range(10):
            rng = np.random.default_rng(31000 + trial)
            m = int(rng.integers(1, 6))
            horizon = int(rng.integers(1, 11))
            a = float(rng.uniform(0.5, 1.2))
            plant = PlantModel(a=a, sigma2=1.0, horizon=horizon)
            _, margin, _ = threshold_optimality_condition(plant, single_state(0.0))
            transitions = tuple((int(rng.integers(0, m)), int(rng.integers(0, m)))
                                for _ in range(m))
            drops = tuple(float(p) for p in rng.uniform(0, 0.98 * margin, m))
            fsm = ChannelFsm(m, transitions, drops, int(rng.integers(0, m)),
                             tuple(True for _ in range(m)))
            result = solve_and_extract(plant, fsm, SolverSettings(num_points=1201))
            assert not result.witnesses, (trial, result.witnesses)


class TestGridRefinement:
    def test_origin_value_stable_under_doubling(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        coarse = backward_induction(plant, fsm, SolverSettings(num_points=1001))
        fine = backward_induction(plant, fsm, SolverSettings(num_points=2001))
        rel = abs(fine.value_at_origin() - coarse.value_at_origin())
        rel /= abs(coarse.value_at_origin())
        assert rel < 1e-3


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
            settings = SolverSettings.from_dict({"grid": {"half_width": spelling,
                                                          "num_points": 201}})
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
