import json
import math

import numpy as np
import pytest

from remest.channel import ChannelFsm
from remest.oracle_sim import simulate
from remest.policy import TransmitPolicy
from remest.process import (PlantModel, plant_from_dict, plant_to_dict,
                            predicted_open_loop_cost)


def error_run(plant, tau, drop=0.5, trials=8, seed=0):
    """(trace, noise) of a simulated run on a one-state channel under the
    threshold ``tau`` at every stage. ``trace["e"][:, s]`` is the error the
    stage-(s + 1) decision sees; ``noise`` is the run's process noise, drawn
    first from the simulator's Philox(key=seed) stream."""
    fsm = ChannelFsm(1, ((0, 0),), (drop,), 0, (True,))
    policy = TransmitPolicy.symmetric(np.full((plant.horizon, 1), tau))
    trace = simulate(plant, fsm, policy, trials, seed, collect_trace=True).trace
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = rng.normal(0.0, math.sqrt(plant.sigma2), size=(trials, plant.horizon))
    return trace, noise


class TestPlantModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlantModel(a=1.0, sigma2=0.0, horizon=3)
        with pytest.raises(ValueError):
            PlantModel(a=1.0, sigma2=1.0, horizon=0)

    @pytest.mark.parametrize("field", ["a", "x0", "sigma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, field, value):
        fields = {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PlantModel(**fields)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 2.5, 3.0, "3", 0])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            plant_from_dict({"a": 1.1, "sigma2": 1.0, "horizon": horizon})

    def test_json_round_trip(self):
        plant = PlantModel(a=1.1, sigma2=2.0, x0=0.5, horizon=7)
        assert plant_from_dict(json.loads(json.dumps(plant_to_dict(plant)))) == plant


class TestErrorStep:
    def test_propagation(self):
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=4)
        trace, w = error_run(plant, tau=math.inf)
        assert not trace["r"].any()
        assert np.array_equal(trace["e"][:, 1:], plant.a * trace["e"][:, :-1] + w[:, :-1])

    def test_delivery_resets(self):
        # drop 0 and tau 0: every nonzero error is sent and delivered
        plant = PlantModel(a=3.0, sigma2=1.0, horizon=4)
        trace, w = error_run(plant, tau=0.0, drop=0.0)
        delivered = (trace["r"] & trace["c"])[:, :-1]
        assert delivered[:, 1:].all()
        assert np.array_equal(trace["e"][:, 1:][delivered], w[:, :-1][delivered])

    def test_white_source_forgets_error(self):
        plant = PlantModel(a=0.0, sigma2=1.0, horizon=4)
        trace, w = error_run(plant, tau=math.inf)
        assert np.array_equal(trace["e"][:, 1:], w[:, :-1])

    def test_telescopes_against_direct_plant_run(self):
        # with x0 = 0 the undelivered error path is the state path, bitwise
        plant = PlantModel(a=1.07, sigma2=1.0, x0=0.0, horizon=40)
        trace, w = error_run(plant, tau=math.inf, seed=21)
        x = np.zeros(w.shape[0])
        for s in range(plant.horizon):
            assert np.array_equal(trace["e"][:, s], x)
            x = plant.a * x + w[:, s]
        assert np.array_equal(trace["e"], trace["x"])


class TestOpenLoopCost:
    def test_random_walk(self):
        assert predicted_open_loop_cost(
            PlantModel(a=1.0, sigma2=1.0, horizon=2)) == pytest.approx(3.0)

    def test_white_source(self):
        assert predicted_open_loop_cost(
            PlantModel(a=0.0, sigma2=1.0, horizon=5)) == pytest.approx(5.0)

    def test_unstable_gain(self):
        assert predicted_open_loop_cost(
            PlantModel(a=1.1, sigma2=1.0, horizon=3)) == pytest.approx(6.8841)

