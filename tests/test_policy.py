import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remest.channel import ChannelFsm, energy_harvesting_fsm
from remest.dp_iid import export_iid_table_csv, iid_backward_induction
from remest.dp_symmetric import SolverSettings, backward_induction, export_value_table_csv
from remest.oracle_sim import BLOCK_TRIALS, simulate, write_trace_csv
from remest.policy import (TransmitPolicy, decide_many, export_policy_csv,
                           extract_threshold, load_policy_csv)
from remest.process import PlantModel
from remest.quadrature import ErrorGrid


def decide_one(policy, n, q, e):
    """One decision through :func:`decide_many` on 1-element arrays."""
    return int(decide_many(policy, n, [q], [e])[0])


def reference_decide(policy, n, q, e):
    """Scalar reference for :func:`decide_many`: one point at a time."""
    if policy.kind == "symmetric_threshold":
        return int(abs(e) > policy.tau[n - 1, q])
    if policy.kind == "interval_pair":
        lo, hi = policy.intervals[n - 1, q]
        return int(e < lo or e > hi)
    idx = policy.grid.nearest_index(e)
    return int(policy.indicator[n - 1, q, idx])


class TestDecide:
    def test_symmetric_threshold(self):
        policy = TransmitPolicy.symmetric(np.array([[2.0]]))
        assert decide_one(policy, 1, 0, 3.0) == 1
        assert decide_one(policy, 1, 0, 1.0) == 0
        assert decide_one(policy, 1, 0, -2.5) == 1
        assert decide_one(policy, 1, 0, 2.0) == 0  # boundary stays silent

    def test_interval_pair(self):
        policy = TransmitPolicy.interval(np.array([[[-1.0, 4.0]]]))
        assert decide_one(policy, 1, 0, -2.0) == 1
        assert decide_one(policy, 1, 0, 0.0) == 0
        assert decide_one(policy, 1, 0, 5.0) == 1

    def test_masked_state_sentinel_never_transmits(self):
        tau = np.array([[math.inf, 1.0]])
        policy = TransmitPolicy.symmetric(tau)
        for e in (-100.0, 0.0, 1e6):
            assert decide_one(policy, 1, 0, e) == 0

    def test_gridded_nearest_point(self):
        grid = ErrorGrid(2.0, 5)  # points -2,-1,0,1,2
        indicator = np.zeros((1, 1, 5), dtype=bool)
        indicator[0, 0] = [True, False, False, False, True]
        policy = TransmitPolicy.gridded(grid, indicator, symmetric_flag=True)
        assert decide_one(policy, 1, 0, -1.9) == 1
        assert decide_one(policy, 1, 0, 0.4) == 0
        assert decide_one(policy, 1, 0, 1.51) == 1
        assert decide_one(policy, 1, 0, 50.0) == 1  # clips to the boundary point

    def test_vectorized_matches_scalar(self):
        tau = np.array([[0.5, 2.0], [1.0, math.inf]])
        grid = ErrorGrid(3.0, 31)
        rng = np.random.default_rng(3)
        e = rng.normal(scale=2.0, size=40)
        q = rng.integers(0, 2, size=40)
        for policy in (TransmitPolicy.symmetric(tau),
                       TransmitPolicy.interval(np.stack([-tau / 2, tau], axis=-1)),
                       TransmitPolicy.gridded(grid, np.abs(grid.points) > tau[..., None],
                                              symmetric_flag=True)):
            for n in (1, 2):
                vec = decide_many(policy, n, q, e)
                assert [int(v) for v in vec] == [
                    reference_decide(policy, n, int(qq), float(ee)) for qq, ee in zip(q, e)]

    @pytest.mark.parametrize("build", [
        lambda: TransmitPolicy.symmetric(np.array([[1.0, math.nan]])),
        lambda: TransmitPolicy.interval(np.array([[[math.nan, 1.0]]])),
        lambda: TransmitPolicy.interval(np.array([[[-1.0, math.nan]]])),
    ], ids=["tau", "tau_lo", "tau_hi"])
    def test_nan_thresholds_are_rejected(self, build):
        with pytest.raises(ValueError, match="nonnegative|tau_lo <= tau_hi"):
            build()

    def test_stage_bounds_checked(self):
        policy = TransmitPolicy.symmetric(np.array([[1.0]]))
        for n in (0, 2):
            with pytest.raises(ValueError, match="outside 1..1"):
                decide_many(policy, n, [0], [0.0])
        # a channel state outside the policy is caught where states come from
        two_states = ChannelFsm(2, ((1, 0), (0, 1)), (0.5, 0.5), 0, (True, True))
        with pytest.raises(ValueError, match="policy shape does not match"):
            simulate(PlantModel(a=1.0, sigma2=1.0, horizon=1), two_states, policy, 10, 0)


class TestExtractThreshold:
    def test_always_transmit_degenerates_to_zero(self):
        grid = ErrorGrid(2.0, 11)
        fit = extract_threshold(grid, np.ones(11, dtype=bool))
        assert fit.is_threshold and fit.tau == 0.0
        assert (fit.tau_lo, fit.tau_hi) == (0.0, 0.0)

    def test_never_transmit_gives_infinite_sentinel(self):
        grid = ErrorGrid(2.0, 11)
        fit = extract_threshold(grid, np.zeros(11, dtype=bool))
        assert fit.is_threshold and fit.tau == math.inf
        assert fit.tau_lo == -math.inf and fit.tau_hi == math.inf

    def test_planted_symmetric_rule_recovered(self):
        grid = ErrorGrid(4.0, 801)  # spacing 0.01
        transmit = np.abs(grid.points) > 1.5
        fit = extract_threshold(grid, transmit)
        assert fit.is_threshold and fit.tau is not None
        assert 1.49 <= fit.tau <= 1.51

    def test_planted_asymmetric_interval_recovered(self):
        grid = ErrorGrid(4.0, 801)
        transmit = (grid.points < -0.5) | (grid.points > 2.25)
        fit = extract_threshold(grid, transmit)
        assert fit.is_threshold
        assert fit.tau_lo == pytest.approx(-0.5, abs=grid.spacing)
        assert fit.tau_hi == pytest.approx(2.25, abs=grid.spacing)
        sym = extract_threshold(grid, transmit)
        assert sym.is_threshold and sym.tau is None  # interval, but not symmetric

    def test_structure_failure_yields_witness(self):
        grid = ErrorGrid(4.0, 9)
        transmit = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        fit = extract_threshold(grid, transmit)
        assert not fit.is_threshold
        e1, e2, e3 = fit.witness
        assert e1 < e2 < e3
        idx = [list(grid.points).index(e) for e in (e1, e2, e3)]
        assert not transmit[idx[0]] and transmit[idx[1]] and not transmit[idx[2]]

    def test_round_trip_reproduces_planted_sets(self):
        grid = ErrorGrid(3.0, 241)
        rng = np.random.default_rng(8)
        for _ in range(50):
            tau = float(rng.uniform(0.05, 2.5))
            planted = np.abs(grid.points) > tau
            fit = extract_threshold(grid, planted)
            assert fit.is_threshold and fit.tau is not None
            policy = TransmitPolicy.symmetric(np.array([[fit.tau]]))
            redecided = decide_many(policy, 1, np.zeros(grid.num_points, dtype=int),
                                    grid.points)
            assert np.array_equal(redecided, planted)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("kind", ["symmetric", "interval", "gridded"])
    def test_decisions_survive_export(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        if kind == "symmetric":
            tau = rng.uniform(0, 3, size=(3, 2))
            tau[0, 0] = math.inf
            policy = TransmitPolicy.symmetric(tau)
        elif kind == "interval":
            lo = rng.uniform(-3, 0, size=(3, 2, 1))
            hi = rng.uniform(0, 3, size=(3, 2, 1))
            policy = TransmitPolicy.interval(np.concatenate([lo, hi], axis=2))
        else:
            grid = ErrorGrid(3.0, 61)
            indicator = rng.uniform(size=(3, 2, 61)) < 0.4
            policy = TransmitPolicy.gridded(grid, indicator, symmetric_flag=False)
        path = tmp_path / "policy.csv"
        export_policy_csv(policy, path, metadata={"provenance": "abc123"})
        again, meta = load_policy_csv(path)
        assert meta["provenance"] == "abc123"
        assert again.kind == policy.kind
        errs = np.linspace(-4, 4, 101)
        for n in range(1, 4):
            for q in range(2):
                states = np.full(errs.size, q)
                want = decide_many(policy, n, states, errs)
                got = decide_many(again, n, states, errs)
                assert np.array_equal(want, got)


def _gridded_policy(seed=4):
    rng = np.random.default_rng(seed)
    grid = ErrorGrid(3.0, 61)
    return TransmitPolicy.gridded(grid, rng.uniform(size=(3, 2, 61)) < 0.4,
                                  symmetric_flag=False)


def _split_csv(path):
    """(comment and header lines, data rows) of an exported policy CSV."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:head], lines[head:]


def _assert_same_policy(a, b):
    assert (a.kind, a.horizon, a.num_states, a.symmetric_flag) == \
        (b.kind, b.horizon, b.num_states, b.symmetric_flag)
    for name in ("tau", "intervals", "indicator"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert a.grid == b.grid


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["symmetric", "interval", "gridded"]))
    horizon = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    flag = draw(st.booleans())
    cells = horizon * m
    bound = st.floats(-50.0, 50.0, allow_nan=False)
    if kind == "symmetric":
        tau = draw(st.lists(st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
                            min_size=cells, max_size=cells))
        return TransmitPolicy.symmetric(np.reshape(tau, (horizon, m)), flag)
    if kind == "interval":
        ends = draw(st.lists(st.tuples(st.one_of(bound, st.just(-math.inf)),
                                       st.one_of(bound, st.just(math.inf))),
                             min_size=cells, max_size=cells))
        iv = np.sort(np.reshape(ends, (horizon, m, 2)), axis=-1)
        return TransmitPolicy.interval(iv, flag)
    grid = ErrorGrid(draw(st.floats(0.1, 20.0)), 2 * draw(st.integers(1, 30)) + 1)
    bits = draw(st.lists(st.booleans(), min_size=cells * grid.num_points,
                         max_size=cells * grid.num_points))
    return TransmitPolicy.gridded(grid, np.reshape(bits, (horizon, m, -1)), flag)


class TestCsvLoading:
    @settings(max_examples=60, deadline=None)
    @given(policy=policies())
    def test_round_trip_property(self, policy):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.csv"
            export_policy_csv(policy, path)
            again, _ = load_policy_csv(path)
        _assert_same_policy(policy, again)

    def test_shuffled_gridded_rows_round_trip(self, tmp_path):
        policy = _gridded_policy()
        path = tmp_path / "policy.csv"
        export_policy_csv(policy, path)
        head, rows = _split_csv(path)
        np.random.default_rng(0).shuffle(rows)
        path.write_text("".join(head + rows))
        again, _ = load_policy_csv(path)
        _assert_same_policy(policy, again)

    @pytest.mark.parametrize("defect, message", [
        ("off_grid", "not a grid point"),
        ("infinite", "data row 6: inf is not a grid point"),
        ("duplicate", "repeats an earlier row"),
        ("missing", "1 points have no row, first n=1, q=0, e=-3.0"),
    ])
    def test_gridded_defects_are_rejected(self, tmp_path, defect, message):
        path = tmp_path / "policy.csv"
        export_policy_csv(_gridded_policy(), path)
        head, rows = _split_csv(path)
        if defect in ("off_grid", "infinite"):
            n, q, e, t = rows[5].strip().split(",")
            e = math.inf if defect == "infinite" else float(e) + 0.03
            rows[5] = f"{n},{q},{e!r},{t}\r\n"
        elif defect == "duplicate":
            rows.append(rows[0])
        else:
            del rows[0]
        path.write_text("".join(head + rows))
        with pytest.raises(ValueError, match=message):
            load_policy_csv(path)

    @pytest.mark.parametrize("policy, tau_lo, tau_hi, message", [
        (TransmitPolicy.symmetric(np.ones((2, 2))), "-100.0", "1.0",
         "data row 2: symmetric threshold row has tau_lo -100.0 != -tau_hi 1.0"),
        (TransmitPolicy.symmetric(np.ones((2, 2))), "nan", "nan",
         "data row 2: symmetric threshold row has tau_lo nan != -tau_hi nan"),
        (TransmitPolicy.interval(np.tile([-1.0, 1.0], (2, 2, 1))), "-1.0", "nan",
         "interval_pair requires tau_lo <= tau_hi"),
    ], ids=["symmetric-lo", "symmetric-nan", "interval-nan"])
    def test_threshold_row_contradicting_its_kind_is_rejected(self, tmp_path, policy,
                                                              tau_lo, tau_hi, message):
        path = tmp_path / "policy.csv"
        export_policy_csv(policy, path)
        head, rows = _split_csv(path)
        n, q, kind, _, _ = rows[1].strip().split(",")
        rows[1] = f"{n},{q},{kind},{tau_lo},{tau_hi}\r\n"
        path.write_text("".join(head + rows))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_policy_csv(path)

    def test_missing_threshold_row_is_rejected(self, tmp_path):
        path = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.ones((2, 2))), path)
        head, rows = _split_csv(path)
        path.write_text("".join(head + rows[:-1]))
        with pytest.raises(ValueError, match="first n=2, q=1"):
            load_policy_csv(path)

    @pytest.mark.parametrize("policy, key", [
        pytest.param(TransmitPolicy.symmetric(np.ones((2, 2))), key, id=key)
        for key in ("horizon", "num_states")] + [
        pytest.param(_gridded_policy(), key, id=key)
        for key in ("grid_half_width", "grid_num_points")])
    def test_missing_header_line_is_rejected(self, tmp_path, policy, key):
        path = tmp_path / "policy.csv"
        export_policy_csv(policy, path)
        head, rows = _split_csv(path)
        kept = [line for line in head if not line.startswith(f"# {key}=")]
        assert len(kept) == len(head) - 1
        path.write_text("".join(kept + rows))
        with pytest.raises(ValueError, match=f"missing header line '# {key}='"):
            load_policy_csv(path)


def _csv_writer_bytes(metadata, header, rows):
    """Reference bytes: ``# key=value`` lines, then the ``csv`` module's
    default dialect."""
    out = io.StringIO(newline="")
    out.write("".join(f"# {key}={value}\n" for key, value in metadata.items()))
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def _value_table_case(path):
    # masked battery levels give NaN send costs, and 0 is a grid point
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=3)
    table, _ = backward_induction(plant, energy_harvesting_fsm(4, 2, 0.3),
                                  SolverSettings(num_points=41))
    assert np.isnan(table.cost_send).any() and table.transmit.any()
    export_value_table_csv(table, path)
    rows = [[s + 1, q, repr(float(e)), repr(float(table.values[s, q, i])),
             repr(float(table.cost_wait[s, q, i])), repr(float(table.cost_send[s, q, i])),
             int(table.transmit[s, q, i])]
            for s in range(table.horizon) for q in range(table.fsm.num_states)
            for i, e in enumerate(table.grid.points)]
    return _csv_writer_bytes({"provenance": table.provenance},
                             ["n", "q", "e", "V", "C0", "C1", "transmit"], rows)


def _policy_case(policy):
    def case(path):
        metadata = {"provenance": "0123abcd", "dp_value": repr(2.5)}
        export_policy_csv(policy, path, metadata=metadata)
        metadata.update(kind=policy.kind, horizon=policy.horizon,
                        num_states=policy.num_states,
                        symmetric_flag=int(policy.symmetric_flag))
        cells = [(n, q) for n in range(policy.horizon) for q in range(policy.num_states)]
        if policy.kind == "gridded":
            metadata.update(grid_half_width=repr(policy.grid.half_width),
                            grid_num_points=policy.grid.num_points)
            rows = [[n + 1, q, repr(float(e)), int(t)] for n, q in cells
                    for e, t in zip(policy.grid.points, policy.indicator[n, q])]
            return _csv_writer_bytes(metadata, ["n", "q", "e", "transmit"], rows)
        if policy.kind == "symmetric_threshold":
            ends = [(-policy.tau[n, q], policy.tau[n, q]) for n, q in cells]
        else:
            ends = [tuple(policy.intervals[n, q]) for n, q in cells]
        rows = [[n + 1, q, policy.kind, repr(float(lo)), repr(float(hi))]
                for (n, q), (lo, hi) in zip(cells, ends)]
        return _csv_writer_bytes(metadata, ["n", "q", "kind", "tau_lo", "tau_hi"], rows)
    return case


def _iid_table_case(path):
    table = iid_backward_induction(energy_harvesting_fsm(4, 2, 0.3), 1.0, 3)
    export_iid_table_csv(table, path)
    rows = [[s + 1, q, "interval_pair", repr(float(table.intervals[s, q, 0])),
             repr(float(table.intervals[s, q, 1])), repr(float(table.values[s, q])),
             repr(float(table.p_transmit[s, q]))]
            for s in range(table.horizon) for q in range(table.fsm.num_states)]
    return _csv_writer_bytes(
        {}, ["n", "q", "kind", "tau_lo", "tau_hi", "value", "p_transmit"], rows)


def _trace_case(path):
    # more rows than the BLOCK_TRIALS of one write
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=8)
    fsm = energy_harvesting_fsm(4, 2, 0.3)
    trials = BLOCK_TRIALS // plant.horizon + 100
    summary = simulate(plant, fsm, TransmitPolicy.symmetric(np.ones((8, 5))),
                       trials=trials, seed=3, collect_trace=True)
    write_trace_csv(summary, path)
    tr = summary.trace
    rows = [[t, s + 1, repr(float(tr["x"][t, s])), repr(float(tr["xhat"][t, s])),
             repr(float(tr["e"][t, s])), int(tr["r"][t, s]), int(tr["c"][t, s]),
             int(tr["q"][t, s])] for t in range(trials) for s in range(plant.horizon)]
    return _csv_writer_bytes({}, ["trial", "n", "x", "xhat", "e", "r", "c", "q"], rows)


ARTIFACTS = {
    "value_table": _value_table_case,
    "threshold_policy": _policy_case(TransmitPolicy.symmetric(
        [[0.0, math.inf], [1.25, 1e-3]])),
    "interval_policy": _policy_case(TransmitPolicy.interval(
        [[[-math.inf, math.inf], [-0.5, 2.0]], [[0.0, 0.0], [-3.0, math.inf]]])),
    "gridded_policy": _policy_case(_gridded_policy()),
    "iid_table": _iid_table_case,
    "trace": _trace_case,
}


class TestWriteCsv:
    @pytest.mark.parametrize("artifact", list(ARTIFACTS))
    def test_artifact_matches_csv_writer_bytes(self, tmp_path, artifact):
        path = tmp_path / f"{artifact}.csv"
        expected = ARTIFACTS[artifact](path)
        assert path.read_bytes() == expected
