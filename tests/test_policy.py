import csv
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remest.channel import ChannelFsm, energy_harvesting_fsm, workload_chain_fsm
from remest.cli import main
from remest.dp_iid import export_iid_table_csv, iid_backward_induction
from remest.dp_symmetric import (SolverSettings, backward_induction, export_value_table_csv,
                                 solve_and_extract)
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
        return int(abs(e) > policy.intervals[n - 1, q, 1])
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
        policy = TransmitPolicy.gridded(grid, indicator)
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
                       TransmitPolicy.gridded(grid, np.abs(grid.points) > tau[..., None])):
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
        with pytest.raises(ValueError, match="tau_lo <= tau_hi"):
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

    def test_policy_is_its_kind_and_arrays(self):
        settable = [f.name for f in dataclasses.fields(TransmitPolicy) if f.init]
        assert settable == ["kind", "intervals", "grid", "indicator"]
        grid = ErrorGrid(2.0, 5)
        for policy in (TransmitPolicy.symmetric(np.ones((3, 2))),
                       TransmitPolicy.interval(np.zeros((3, 2, 2))),
                       TransmitPolicy.gridded(grid, np.zeros((3, 2, 5), dtype=bool))):
            assert (policy.horizon, policy.num_states) == (3, 2)

    @pytest.mark.parametrize("build, message", [
        (lambda: TransmitPolicy.interval(np.zeros((3, 2))), r"intervals shape \(3, 2\)"),
        (lambda: TransmitPolicy.interval(np.zeros((3, 2, 3))), r"intervals shape \(3, 2, 3\)"),
        (lambda: TransmitPolicy.symmetric(np.ones(3)), r"intervals shape \(3, 2\)"),
        (lambda: TransmitPolicy.gridded(ErrorGrid(2.0, 5), np.zeros((3, 5), dtype=bool)),
         r"indicator shape \(3, 5\) != \(N, m, 5\)"),
        (lambda: TransmitPolicy.gridded(ErrorGrid(2.0, 5), np.zeros((3, 2, 7), dtype=bool)),
         r"indicator shape \(3, 2, 7\) != \(N, m, 5\)"),
        (lambda: TransmitPolicy("circle", intervals=np.zeros((3, 2, 2))),
         "unknown policy kind 'circle'"),
        (lambda: TransmitPolicy("gridded", grid=ErrorGrid(2.0, 5)),
         "gridded policy needs grid and indicator"),
        (lambda: extract_threshold(ErrorGrid(2.0, 5), np.zeros((3, 7), dtype=bool)),
         "transmit set shape does not match grid"),
    ], ids=["intervals-2d", "intervals-last-axis", "symmetric-1d", "indicator-2d",
            "indicator-last-axis", "unknown-kind", "gridded-without-indicator",
            "transmit-sets"])
    def test_array_shape_is_checked(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestExtractThreshold:
    def test_always_transmit_degenerates_to_zero(self):
        grid = ErrorGrid(2.0, 11)
        (lo, hi), witness = extract_threshold(grid, np.ones(11, dtype=bool))
        assert (lo, hi) == (0.0, 0.0) and np.isnan(witness).all()

    def test_never_transmit_gives_infinite_sentinel(self):
        grid = ErrorGrid(2.0, 11)
        (lo, hi), witness = extract_threshold(grid, np.zeros(11, dtype=bool))
        assert lo == -math.inf and hi == math.inf and np.isnan(witness).all()

    def test_planted_symmetric_rule_recovered(self):
        grid = ErrorGrid(4.0, 801)  # spacing 0.01
        transmit = np.abs(grid.points) > 1.5
        (lo, hi), _ = extract_threshold(grid, transmit)
        assert lo == -hi  # the grid is exactly antisymmetric, so are the ends
        assert 1.49 <= hi <= 1.51

    def test_planted_asymmetric_interval_recovered(self):
        grid = ErrorGrid(4.0, 801)
        transmit = (grid.points < -0.5) | (grid.points > 2.25)
        (lo, hi), witness = extract_threshold(grid, transmit)
        assert np.isnan(witness).all()
        assert lo == pytest.approx(-0.5, abs=grid.spacing)
        assert hi == pytest.approx(2.25, abs=grid.spacing)
        assert abs(lo + hi) > grid.spacing  # interval, but not symmetric

    def test_structure_failure_yields_witness(self):
        grid = ErrorGrid(4.0, 9)
        transmit = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        interval, witness = extract_threshold(grid, transmit)
        assert np.isnan(interval).all()
        e1, e2, e3 = witness
        assert e1 < e2 < e3
        idx = [list(grid.points).index(e) for e in (e1, e2, e3)]
        assert not transmit[idx[0]] and transmit[idx[1]] and not transmit[idx[2]]

    def test_round_trip_reproduces_planted_sets(self):
        grid = ErrorGrid(3.0, 241)
        rng = np.random.default_rng(8)
        for _ in range(50):
            tau = float(rng.uniform(0.05, 2.5))
            planted = np.abs(grid.points) > tau
            (lo, hi), _ = extract_threshold(grid, planted)
            assert lo == -hi
            policy = TransmitPolicy.symmetric(np.array([[hi]]))
            redecided = decide_many(policy, 1, np.zeros(grid.num_points, dtype=int),
                                    grid.points)
            assert np.array_equal(redecided, planted)


@dataclasses.dataclass(frozen=True)
class ThresholdFit:
    """Reference result of the scalar extractor below."""

    is_threshold: bool
    tau_lo: float = math.nan
    tau_hi: float = math.nan
    tau: Optional[float] = None
    witness: Optional[Tuple[float, float, float]] = None


def reference_extract_threshold(grid, transmit):
    """Scalar reference for :func:`extract_threshold` on one transmit set,
    which also classifies the fit as :func:`solve_and_extract` does."""
    x = grid.points
    silent = np.flatnonzero(~transmit)
    if silent.size == 0:
        return ThresholdFit(True, tau_lo=0.0, tau_hi=0.0, tau=0.0)
    if silent.size == grid.num_points:
        return ThresholdFit(True, tau_lo=-math.inf, tau_hi=math.inf, tau=math.inf)
    i0, i1 = silent[0], silent[-1]
    inside = np.flatnonzero(transmit[i0:i1 + 1])
    if inside.size:
        j = i0 + inside[0]
        return ThresholdFit(False, witness=(float(x[i0]), float(x[j]), float(x[i1])))
    tau_lo = -math.inf if i0 == 0 else float(0.5 * (x[i0 - 1] + x[i0]))
    tau_hi = math.inf if i1 == grid.num_points - 1 else float(0.5 * (x[i1] + x[i1 + 1]))
    fit = ThresholdFit(True, tau_lo=tau_lo, tau_hi=tau_hi)
    if math.isfinite(tau_lo) and math.isfinite(tau_hi):
        if abs(tau_lo + tau_hi) <= grid.spacing * (1 + 1e-9):
            fit = ThresholdFit(True, tau_lo=tau_lo, tau_hi=tau_hi,
                               tau=0.5 * (tau_hi - tau_lo))
    return fit


@st.composite
def transmit_stacks(draw):
    """A grid and a (k, m, n) stack of transmit sets: always, never,
    one-sided, planted symmetric, one spacing off symmetric, planted
    asymmetric and broken sets, and random bits."""
    n = 2 * draw(st.integers(1, 12)) + 1
    grid = ErrorGrid(draw(st.floats(0.5, 10.0)), n)
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = grid.center_index
    index = st.integers(0, n - 1)
    sets = []
    for _ in range(k * m):
        kind = draw(st.sampled_from(["always", "never", "left", "right", "symmetric",
                                     "near-symmetric", "asymmetric", "broken", "random"]))
        silent = np.zeros(n, dtype=bool)
        if kind == "never":
            silent[:] = True
        elif kind == "left":
            silent[:draw(index) + 1] = True
        elif kind == "right":
            silent[draw(index):] = True
        elif kind in ("symmetric", "near-symmetric"):
            w = draw(st.integers(0, c - 1))
            silent[c - w:c + w + 1 + (kind == "near-symmetric")] = True
        elif kind == "asymmetric":
            i0, i1 = sorted((draw(index), draw(index)))
            silent[i0:i1 + 1] = True
        elif kind == "broken":
            i0 = draw(st.integers(0, n - 3))
            i1 = draw(st.integers(i0 + 2, n - 1))
            silent[i0:i1 + 1] = True
            silent[draw(st.integers(i0 + 1, i1 - 1))] = False
        elif kind == "random":
            silent[:] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sets.append(~silent)
    return grid, np.reshape(sets, (k, m, n))


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestExtractionMatchesScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(case=transmit_stacks())
    def test_array_call_matches_scalar_fits(self, case):
        grid, stack = case
        k, m, _ = stack.shape
        fits = [[reference_extract_threshold(grid, stack[s, q]) for q in range(m)]
                for s in range(k)]
        intervals, witnesses = extract_threshold(grid, stack)
        assert intervals.shape == (k, m, 2) and witnesses.shape == (k, m, 3)
        for s in range(k):
            for q in range(m):
                fit = fits[s][q]
                assert _same_float(intervals[s, q, 0], fit.tau_lo)
                assert _same_float(intervals[s, q, 1], fit.tau_hi)
                if fit.is_threshold:
                    assert np.isnan(witnesses[s, q]).all()
                else:
                    assert tuple(witnesses[s, q].tolist()) == fit.witness

        # the symmetric/asymmetric split and the taus of solve_and_extract,
        # with the solve replaced by the planted stack
        tau = np.full((k, m), math.inf)
        expected_witnesses, expected_asymmetric = [], []
        for s in range(k):
            for q in range(m):
                fit = fits[s][q]
                if not fit.is_threshold:
                    expected_witnesses.append((s + 1, q, fit.witness))
                elif fit.tau is not None:
                    tau[s, q] = fit.tau
                else:
                    expected_asymmetric.append((s + 1, q))
        fsm = ChannelFsm(m, tuple((0, 0) for _ in range(m)), (0.5,) * m, 0, (True,) * m)
        planted = SimpleNamespace(grid=grid, transmit=stack)
        with mock.patch("remest.dp_symmetric.backward_induction",
                        lambda *args, **kwargs: planted):
            result = solve_and_extract(PlantModel(a=1.0, sigma2=1.0, horizon=k), fsm)
        got = result.threshold_policy.intervals
        assert got[..., 1].tobytes() == tau.tobytes()
        assert got[..., 0].tobytes() == (-tau).tobytes()
        assert result.witnesses == expected_witnesses
        assert result.asymmetric == expected_asymmetric
        for n, q, witness in result.witnesses:
            assert type(n) is int and type(q) is int
            assert all(type(e) is float for e in witness)
        assert all(type(n) is int and type(q) is int for n, q in result.asymmetric)


class TestSymmetricDecisionsMatchAbsoluteValue:
    @settings(max_examples=200, deadline=None)
    @given(tau=st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, math.inf])),
                        min_size=1, max_size=4),
           picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                                    st.floats(allow_nan=True)), min_size=1, max_size=30))
    def test_interval_rule_is_the_absolute_threshold_bitwise(self, tau, picks):
        tau = np.array([tau])
        q = np.array([state % tau.shape[1] for state, _, _ in picks])
        # e is +-0, +-tau[q], +-inf or a free float
        e = np.array([(0.0, -0.0, t, -t, math.inf, -math.inf, free)[j]
                      for t, (_, j, free) in zip(tau[0, q], picks)])
        policy = TransmitPolicy.symmetric(tau)
        assert np.array_equal(decide_many(policy, 1, q, e), np.abs(e) > tau[0][q])

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
            policy = TransmitPolicy.gridded(grid, indicator)
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
    return TransmitPolicy.gridded(grid, rng.uniform(size=(3, 2, 61)) < 0.4)


def _split_csv(path):
    """(comment and header lines, data rows) of an exported policy CSV."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:head], lines[head:]


def _assert_same_policy(a, b):
    assert (a.kind, a.horizon, a.num_states) == (b.kind, b.horizon, b.num_states)
    for name in ("intervals", "indicator"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert a.grid == b.grid


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["symmetric", "interval", "gridded"]))
    horizon = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    cells = horizon * m
    bound = st.floats(-50.0, 50.0, allow_nan=False)
    if kind == "symmetric":
        tau = draw(st.lists(st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
                            min_size=cells, max_size=cells))
        return TransmitPolicy.symmetric(np.reshape(tau, (horizon, m)))
    if kind == "interval":
        ends = draw(st.lists(st.tuples(st.one_of(bound, st.just(-math.inf)),
                                       st.one_of(bound, st.just(math.inf))),
                             min_size=cells, max_size=cells))
        iv = np.sort(np.reshape(ends, (horizon, m, 2)), axis=-1)
        return TransmitPolicy.interval(iv)
    grid = ErrorGrid(draw(st.floats(0.1, 20.0)), 2 * draw(st.integers(1, 30)) + 1)
    bits = draw(st.lists(st.booleans(), min_size=cells * grid.num_points,
                         max_size=cells * grid.num_points))
    return TransmitPolicy.gridded(grid, np.reshape(bits, (horizon, m, -1)))


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
         "symmetric threshold at (n, q) = (1, 1) has tau_lo -100.0 != -tau_hi 1.0"),
        (TransmitPolicy.symmetric(np.ones((2, 2))), "nan", "nan",
         "symmetric_threshold requires tau_lo <= tau_hi"),
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

    @pytest.mark.parametrize("key, value", [
        ("horizon", "2.0"), ("horizon", "0"), ("num_states", "-1")] + [
        ("grid_half_width", value) for value in ("abc", "nan", "0", "-1", "inf")] + [
        ("kind", "circle")])
    def test_bad_header_value_is_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.gridded(ErrorGrid(3.0, 7), np.zeros((2, 5, 7), bool))
                          if key.startswith("grid_") else TransmitPolicy.symmetric(np.ones((2, 5))),
                          path)
        head, rows = _split_csv(path)
        head = [f"# {key}={value}\n" if line.startswith(f"# {key}=") else line
                for line in head]
        path.write_text("".join(head + rows))
        message = (f"unknown policy kind {value!r}" if key == "kind"
                   else f"header line '# {key}={value}'")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_policy_csv(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "plant": {"a": 1.1, "sigma2": 1.0, "horizon": 2},
            "channel": {"builder": "energy_harvesting",
                        "params": {"capacity": 4, "tx_cost": 2, "p_tx": 0.3}}}))
        assert main(["--config", str(config), "--out", str(tmp_path / "sim"),
                     "--trials", "10", "simulate", str(path)]) == 2
        assert message in capsys.readouterr().err


def _csv_writer_bytes(metadata, header, rows):
    """Reference bytes: ``# key=value`` lines, then the ``csv`` module's
    default dialect."""
    out = io.StringIO(newline="")
    out.write("".join(f"# {key}={value}\n" for key, value in metadata.items()))
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def _energy_table():
    # masked battery levels give NaN send costs, states 3 and 4 share the
    # silent successor 4 (so their C0 slices are bitwise equal), and 0 is a
    # grid point
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=3)
    table = backward_induction(plant, energy_harvesting_fsm(4, 2, 0.3),
                               SolverSettings(num_points=41))
    assert np.isnan(table.cost_send).any() and table.transmit.any()
    bits = table.cost_wait.view(np.int64)
    assert np.array_equal(bits[:, 3], bits[:, 4])
    return table


def _workload_table():
    # every state may transmit, and states 0 and 1 share the silent successor 0
    plant = PlantModel(a=1.1, sigma2=1.0, horizon=3)
    table = backward_induction(plant, workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9]),
                               SolverSettings(num_points=41))
    assert all(table.fsm.transmit_allowed) and not np.isnan(table.cost_send).any()
    bits = table.cost_wait.view(np.int64)
    assert np.array_equal(bits[:, 0], bits[:, 1])
    return table


def _edited_table():
    # V matches neither C0 nor C1 at one point: -0.0 against C0's 0.0, which
    # compare equal but print differently
    table = _energy_table()
    values, cost_wait = table.values.copy(), table.cost_wait.copy()
    values[1, 3, 7], cost_wait[1, 3, 7] = -0.0, 0.0
    assert table.cost_send[1, 3, 7] != 0.0
    return dataclasses.replace(table, values=values, cost_wait=cost_wait)


def _value_table_case(make_table):
    def case(path):
        table = make_table()
        export_value_table_csv(table, path)
        rows = [[s + 1, q, repr(float(e)), repr(float(table.values[s, q, i])),
                 repr(float(table.cost_wait[s, q, i])), repr(float(table.cost_send[s, q, i])),
                 int(table.transmit[s, q, i])]
                for s in range(table.horizon) for q in range(table.fsm.num_states)
                for i, e in enumerate(table.grid.points)]
        return _csv_writer_bytes({"provenance": table.provenance},
                                 ["n", "q", "e", "V", "C0", "C1", "transmit"], rows)
    return case


def _policy_case(policy):
    def case(path):
        metadata = {"provenance": "0123abcd", "dp_value": repr(2.5)}
        export_policy_csv(policy, path, metadata=metadata)
        metadata.update(kind=policy.kind, horizon=policy.horizon,
                        num_states=policy.num_states)
        cells = [(n, q) for n in range(policy.horizon) for q in range(policy.num_states)]
        if policy.kind == "gridded":
            metadata.update(grid_half_width=repr(policy.grid.half_width),
                            grid_num_points=policy.grid.num_points)
            rows = [[n + 1, q, repr(float(e)), int(t)] for n, q in cells
                    for e, t in zip(policy.grid.points, policy.indicator[n, q])]
            return _csv_writer_bytes(metadata, ["n", "q", "e", "transmit"], rows)
        if policy.kind == "symmetric_threshold":
            tau = policy.intervals[..., 1]
            ends = [(-tau[n, q], tau[n, q]) for n, q in cells]
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
    "value_table": _value_table_case(_energy_table),
    "value_table_workload": _value_table_case(_workload_table),
    "value_table_edited": _value_table_case(_edited_table),
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
