import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remest import channel
from remest.channel import (MAX_BUILT_STATES, ChannelFsm, energy_harvesting_fsm,
                            reachable_pairs, workload_chain_fsm)
from remest.oracle_sim import simulate
from remest.policy import TransmitPolicy
from remest.process import PlantModel
from test_dp_symmetric import channel_fsms


@pytest.fixture
def energy():
    return energy_harvesting_fsm(4, 2, 0.3)


class TestEnergyBuilder:
    def test_units_and_masks(self, energy):
        assert energy.num_states == 5
        assert energy.initial_state == 4
        assert energy.drop_probs == (1.0, 1.0, 0.3, 0.3, 0.3)
        assert energy.transmit_allowed == (False, False, True, True, True)

    def test_transition_examples(self, energy):
        assert energy.transitions[4][1] == 2
        assert energy.transitions[4][0] == 4
        assert energy.transitions[0][0] == 1
        assert energy.transitions[2][1] == 0

    def test_smallest_instance(self):
        fsm = energy_harvesting_fsm(1, 1, 0.5)
        assert fsm.transitions[0][0] == 1
        assert fsm.transitions[1][1] == 0

    def test_capacity_below_cost_rejected(self):
        with pytest.raises(ValueError):
            energy_harvesting_fsm(1, 2, 0.3)

    @pytest.mark.parametrize("args, message", [
        (("4", 2, 0.3), "capacity must be an integer, got '4'"),
        ((4, 2.0, 0.3), "tx_cost must be an integer, got 2.0"),
        ((4, True, 0.3), "tx_cost must be an integer, got True"),
        ((4, 2, "0.3"), "p_tx must be a number, got '0.3'"),
        ((4, 2, None), "p_tx must be a number, got None"),
    ], ids=["capacity-string", "tx_cost-float", "tx_cost-bool", "p_tx-string", "p_tx-null"])
    def test_mistyped_parameter_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            energy_harvesting_fsm(*args)

    @pytest.mark.parametrize("capacity", [2 ** 63, 10 ** 30])
    def test_state_count_over_cap_refused_before_building(self, capacity):
        # the build loops over every state in Python: this returned in no
        # reasonable time before the cap
        with pytest.raises(ValueError, match=f"^capacity {capacity} gives {capacity + 1} "
                                             f"states, more than the builders' cap of "
                                             f"{MAX_BUILT_STATES}$"):
            energy_harvesting_fsm(capacity, 2, 0.3)

    def test_battery_bookkeeping_along_trajectories(self, energy):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = energy.initial_state
            for _ in range(30):
                r = int(rng.integers(0, 2)) if energy.transmit_allowed[q] else 0
                nxt = energy.transitions[q][r]
                if r:
                    assert nxt == q - 2
                else:
                    assert nxt == min(q + 1, 4)
                q = nxt


class TestWorkloadBuilder:
    def test_chain_shape(self):
        fsm = workload_chain_fsm(4, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert fsm.num_states == 5
        assert fsm.initial_state == 0
        assert fsm.drop_probs[0] == 0.1 and fsm.drop_probs[1] == 0.3
        assert all(fsm.transmit_allowed)
        assert fsm.transitions[4][1] == 4  # saturates
        assert fsm.transitions[0][0] == 0

    def test_two_state_chain(self):
        fsm = workload_chain_fsm(1, [0.0, 1.0])
        assert fsm.transitions[0][1] == 1
        assert fsm.transitions[1][0] == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            workload_chain_fsm(4, [0.1, 0.3])

    @pytest.mark.parametrize("window, drop_probs, message", [
        (1.0, [0.5, 0.5], "window must be an integer, got 1.0"),
        ("1", [0.5, 0.5], "window must be an integer, got '1'"),
        (1, 0.5, "invalid channel FSM: drop_probs must be a list, got 0.5"),
    ], ids=["window-float", "window-string", "drop_probs-number"])
    def test_mistyped_parameter_named(self, window, drop_probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            workload_chain_fsm(window, drop_probs)

    @pytest.mark.parametrize("window", [2 ** 63, 10 ** 30])
    def test_state_count_over_cap_refused_before_building(self, window):
        with pytest.raises(ValueError, match=f"^window {window} gives {window + 1} states, "
                                             f"more than the builders' cap of "
                                             f"{MAX_BUILT_STATES}$"):
            workload_chain_fsm(window, [0.5])

    def test_state_count_at_cap_builds(self, monkeypatch):
        monkeypatch.setattr(channel, "MAX_BUILT_STATES", 3)
        assert workload_chain_fsm(2, [0.5] * 3).num_states == 3
        assert energy_harvesting_fsm(2, 2, 0.3).num_states == 3
        with pytest.raises(ValueError, match="^window 3 gives 4 states, more than the "
                                             "builders' cap of 3$"):
            workload_chain_fsm(3, [0.5] * 4)


def violations(*args, **kwargs):
    """The violations that building a ``ChannelFsm`` from the arguments raises."""
    with pytest.raises(ValueError, match="^invalid channel FSM: ") as exc:
        ChannelFsm(*args, **kwargs)
    return str(exc.value).removeprefix("invalid channel FSM: ").split("; ")


class TestValidation:
    def test_probability_out_of_range(self):
        problems = violations(2, ((1, 1), (0, 0)), (0.5, 1.2), 0, (True, True))
        assert any("probability out of range" in p for p in problems)

    def test_dangling_transition(self):
        problems = violations(2, ((1, 2), (0, 0)), (0.5, 0.5), 0, (True, True))
        assert any("dangling transition" in p for p in problems)

    def test_masked_state_needs_certain_drop(self):
        problems = violations(2, ((1, None), (0, 0)), (0.5, 0.5), 0, (False, True))
        assert any("drop probability 1" in p for p in problems)

    def test_step_never_leaves_state_set(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            fsm = ChannelFsm(
                m,
                tuple((int(rng.integers(0, m)), int(rng.integers(0, m)))
                      for _ in range(m)),
                tuple(rng.uniform(0, 1, m)),
                int(rng.integers(0, m)),
                tuple(True for _ in range(m)))
            for q in fsm.states():
                for r in (0, 1):
                    assert 0 <= fsm.transitions[q][r] < m


def channel_trace(fsm, horizon, trials, seed):
    """Trace of a simulated run: ``c[t, s]`` is the sampled fate (True = an
    attempt gets through) of trial t's channel use at stage s, drawn whether
    or not the policy attempts."""
    policy = TransmitPolicy.symmetric(np.zeros((horizon, fsm.num_states)))
    plant = PlantModel(a=1.0, sigma2=1.0, horizon=horizon)
    return simulate(plant, fsm, policy, trials, seed, collect_trace=True).trace


class TestSampling:
    def test_degenerate_drop_probabilities(self, energy):
        sure = ChannelFsm(1, ((0, 0),), (0.0,), 0, (True,))
        never = ChannelFsm(1, ((0, 0),), (1.0,), 0, (True,))
        assert channel_trace(sure, 4, 50, seed=1)["c"].all()
        assert not channel_trace(never, 4, 50, seed=1)["c"].any()

    def test_empirical_success_rate(self, energy):
        # one uniform per trial-stage; every trial starts in state 4
        n = 10 ** 6
        trace = channel_trace(energy, 1, n, seed=123)
        assert (trace["q"] == 4).all()
        rate = trace["c"].mean()
        se = (0.3 * 0.7 / n) ** 0.5
        assert abs(rate - 0.7) <= 3 * se

    def test_fixed_seed_reproducible(self, energy):
        seq1 = channel_trace(energy, 20, 5, seed=7)["c"]
        seq2 = channel_trace(energy, 20, 5, seed=7)["c"]
        assert np.array_equal(seq1, seq2)


def set_walk_reachable(fsm, horizon):
    """Reference for ``reachable_pairs``: a walk over sets of states that
    reads the FSM's fields, not its tables."""
    reachable = {(1, fsm.initial_state)}
    frontier = {fsm.initial_state}
    for n in range(2, horizon + 1):
        nxt = set()
        for q in frontier:
            nxt.add(fsm.transitions[q][0])
            if fsm.transmit_allowed[q]:
                nxt.add(fsm.transitions[q][1])
        reachable.update((n, q) for q in nxt)
        frontier = nxt
    return reachable


class TestTables:
    def test_tables_are_read_only_copies_of_the_fields(self, energy):
        assert energy.successor.dtype == np.intp
        # states 0 and 1 are masked: r=1 repeats r=0
        assert energy.successor.tolist() == [[1, 1], [2, 2], [3, 0], [4, 1], [4, 2]]
        assert energy.drop.tolist() == list(energy.drop_probs)
        assert energy.allowed.dtype == bool
        assert energy.allowed.tolist() == list(energy.transmit_allowed)
        for table in (energy.successor, energy.drop, energy.allowed):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_masked_r1_arc_is_not_a_successor(self):
        fsm = ChannelFsm(2, ((1, 0), (0, 1)), (1.0, 0.5), 0, (False, True))
        assert fsm.successor.tolist() == [[1, 1], [0, 1]]
        assert reachable_pairs(fsm, 3) == {(1, 0), (2, 1), (3, 0), (3, 1)}

    def test_tables_are_no_fields(self, energy):
        assert list(dataclasses.asdict(energy)) == [
            "num_states", "transitions", "drop_probs", "initial_state", "transmit_allowed"]
        twin = energy_harvesting_fsm(4, 2, 0.3)
        assert twin == energy and hash(twin) == hash(energy)
        assert twin.successor is not energy.successor

    def test_replace_rebuilds_the_tables(self, energy):
        changed = dataclasses.replace(
            energy, transitions=((1, None), (2, None), (3, 0), (4, 1), (3, 2)),
            drop_probs=(1.0, 1.0, 0.5, 0.5, 0.5))
        assert changed.successor[4].tolist() == [3, 2]
        assert changed.drop.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5]
        assert not (changed.successor.flags.writeable or changed.drop.flags.writeable)
        assert energy.successor[4].tolist() == [4, 2]

    @settings(max_examples=200, deadline=None)
    @given(fsm=channel_fsms(), horizon=st.integers(1, 8))
    def test_reachable_pairs_match_the_set_walk(self, fsm, horizon):
        assert reachable_pairs(fsm, horizon) == set_walk_reachable(fsm, horizon)


def json_round_trip(fsm):
    """The FSM a config's ``fsm`` section written from ``fsm`` reads back as."""
    return ChannelFsm(**json.loads(json.dumps(dataclasses.asdict(fsm))))


class TestJsonSchema:
    def test_round_trip(self, energy):
        assert json_round_trip(energy) == energy

    def test_null_transmit_target_only_when_masked(self, energy):
        data = json.dumps(dataclasses.asdict(energy))
        assert '"transitions": [[1, null], ' in data
        again = json_round_trip(energy)
        assert again.transitions[0][1] is None
        assert not again.transmit_allowed[0]

    def test_malformed_rejected(self):
        with pytest.raises(TypeError, match="missing 4 required positional arguments"):
            ChannelFsm(**json.loads('{"num_states": 2}'))

    @pytest.mark.parametrize("pair", [[1, 1, 7], [1], 1, None],
                             ids=["triple", "single", "int", "null"])
    def test_transition_that_is_no_pair_rejected(self, pair):
        assert violations(2, [pair, [0, 0]], [0.5, 0.5], 0, [True, True]) == [
            f"transitions[0] must be a 2-element list, got {pair!r}"]


@st.composite
def built_fsms(draw):
    """An FSM from either builder over random valid parameters."""
    if draw(st.booleans()):
        tx_cost = draw(st.integers(1, 5))
        return energy_harvesting_fsm(draw(st.integers(tx_cost, 8)), tx_cost,
                                     draw(st.floats(0.0, 1.0)))
    window = draw(st.integers(1, 6))
    return workload_chain_fsm(window, draw(st.lists(
        st.floats(0.0, 1.0), min_size=window + 1, max_size=window + 1)))


def with_state(fsm, q, **fields):
    """The violations of ``fsm`` with state q's entry of each named per-state
    field replaced."""
    changes = dataclasses.asdict(fsm)
    for name, value in fields.items():
        entries = list(getattr(fsm, name))
        entries[q] = value
        changes[name] = tuple(entries)
    return violations(**changes)


class TestBuilderProperties:
    @settings(max_examples=100, deadline=None)
    @given(fsm=built_fsms())
    def test_builders_validate_clean(self, fsm):
        # the builder's FSM was checked on construction; so is a copy
        assert dataclasses.replace(fsm) == fsm

    @settings(max_examples=100, deadline=None)
    @given(fsm=built_fsms())
    def test_dict_round_trip(self, fsm):
        assert json_round_trip(fsm) == fsm

    @settings(max_examples=100, deadline=None)
    @given(fsm=built_fsms(), data=st.data())
    def test_dangling_transition_reported(self, fsm, data):
        q = data.draw(st.integers(0, fsm.num_states - 1))
        r = data.draw(st.integers(0, 1))
        target = data.draw(st.one_of(st.integers(-20, -1),
                                     st.integers(fsm.num_states, fsm.num_states + 20)))
        arcs = list(fsm.transitions[q])
        arcs[r] = target
        problems = with_state(fsm, q, transitions=tuple(arcs))
        assert f"state {q}: dangling transition on r={r} to {target}" in problems

    @settings(max_examples=100, deadline=None)
    @given(fsm=built_fsms(), data=st.data())
    def test_out_of_range_probability_reported(self, fsm, data):
        q = data.draw(st.integers(0, fsm.num_states - 1))
        p = data.draw(st.floats().filter(lambda p: not 0.0 <= p <= 1.0))
        problems = with_state(fsm, q, drop_probs=p)
        assert f"state {q}: probability out of range ({p})" in problems

    @settings(max_examples=100, deadline=None)
    @given(fsm=built_fsms(), data=st.data())
    def test_masked_state_with_uncertain_drop_reported(self, fsm, data):
        q = data.draw(st.integers(0, fsm.num_states - 1))
        p = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        problems = with_state(fsm, q, transmit_allowed=False, drop_probs=p)
        assert any(f"state {q}: masked state must carry drop probability 1" in m
                   for m in problems)

    @settings(max_examples=25, deadline=None)
    @given(fsm=built_fsms(), horizon=st.integers(1, 4), trials=st.integers(1, 200),
           seed=st.integers(0, 2 ** 32 - 1), a=st.floats(0.0, 1.5), data=st.data())
    def test_simulate_repeats_bitwise(self, fsm, horizon, trials, seed, a, data):
        tau = data.draw(st.lists(st.one_of(st.floats(0.0, 5.0), st.just(math.inf)),
                                 min_size=horizon * fsm.num_states,
                                 max_size=horizon * fsm.num_states))
        policy = TransmitPolicy.symmetric(np.reshape(tau, (horizon, fsm.num_states)))
        plant = PlantModel(a=a, sigma2=1.0, horizon=horizon)
        first = simulate(plant, fsm, policy, trials, seed)
        second = simulate(plant, fsm, policy, trials, seed)
        # NaN standard errors (a single trial) compare equal as JSON text
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
