import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import remest
from remest import dp_symmetric, quadrature, workers
from remest.channel import energy_harvesting_fsm
from remest.cli import (_verify_properties, fsm_from_config, main, plant_from_config,
                        settings_from_config)
from remest.policy import TransmitPolicy, decide_many, export_policy_csv, load_policy_csv
from remest.process import PlantModel
from remest.quadrature import ErrorGrid


def write_config(tmp_path, **overrides):
    """A small energy-harvesting run config; a section overridden with None
    is left out."""
    config = {
        "plant": {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 6},
        "channel": {"builder": "energy_harvesting",
                    "params": {"capacity": 4, "tx_cost": 2, "p_tx": 0.3}},
        "solver": {"grid": {"half_width": "auto", "num_points": 801},
                   "value_cap": 1e12},
        "sim": {"trials": 5000, "seed": 3},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    return path


class TestSolveSymmetric:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "policy.csv", "structure_report.json", "value_table.csv"]
        report = json.loads((out / "structure_report.json").read_text())
        assert report["threshold_witnesses"] == []
        assert report["value_at_origin"] > 0
        # the run's inputs, with the grid the auto rule sized
        assert report["plant"] == {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 6}
        assert report["channel"]["num_states"] == 5
        assert report["grid"] == {"half_width": pytest.approx(8.0 * 1.1 ** 6),
                                  "num_points": 801}
        assert report["structure_ok"] and report["growth_bound_ok"]
        assert not report["drop_margin"]["satisfied"]
        assert report["policy_kind"] == "symmetric_threshold"
        # numerical health: the largest |V| and the points where the actions nearly tie
        config = json.loads(cfg.read_text())
        table = dp_symmetric.backward_induction(plant_from_config(config),
                                                fsm_from_config(config),
                                                settings_from_config(config))
        assert report["max_abs_value"] == float(np.abs(table.values).max())
        assert report["near_ties"] == table.near_ties() != []

    def test_invalid_fsm_exits_2_with_violations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={"fsm": {
            "num_states": 2, "transitions": [[1, 2], [0, 0]],
            "drop_probs": [0.5, 1.4], "initial_state": 0,
            "transmit_allowed": [True, True]}})
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"])
        assert code == 2
        err = capsys.readouterr().err
        assert "dangling transition" in err and "probability out of range" in err

    def test_builder_and_inline_are_exclusive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={})
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"])
        assert code == 2

    def test_grid_points_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out),
                     "--grid-points", "401", "solve-symmetric"]) == 0
        policy, meta = load_policy_csv(out / "policy.csv")
        assert policy.horizon == 6

    def test_too_small_config_grid_exits_2_unless_overridden(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"grid": {"half_width": "auto", "num_points": 3}})
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "solve-symmetric"]) == 2
        assert "solver settings: num_points must be >= 5" in capsys.readouterr().err
        assert main(["--config", str(cfg), "--out", str(out),
                     "--grid-points", "401", "solve-symmetric"]) == 0

    @pytest.mark.parametrize("grid, message", [
        ({"num_points": 2001.9},
         "solver settings: num_points must be an odd integer >= 3, got 2001.9"),
        ({"num_points": "2001"},
         "solver settings: num_points must be an odd integer >= 3, got '2001'"),
        ({"half_width": "3.0"}, "solver settings: half_width must be 'auto' or a number, "
                                "got '3.0'"),
    ], ids=["num_points-float", "num_points-string", "half_width-string"])
    def test_misspelled_grid_field_exits_2(self, tmp_path, capsys, grid, message):
        cfg = write_config(tmp_path, solver={"grid": grid})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"]) == 2
        assert message in capsys.readouterr().err

    def test_reachable_witnesses_export_the_gridded_policy(self, tmp_path, capsys):
        # outside the drop margin: non-threshold optima at q = 2, two of them
        # at reachable (stage, state) pairs
        cfg = write_config(
            tmp_path, plant={"a": 0.9, "sigma2": 1.0, "x0": 0.0, "horizon": 7},
            channel={"fsm": {"num_states": 4,
                             "transitions": [[1, 3], [2, 3], [0, 3], [3, 0]],
                             "drop_probs": [0.103, 0.617, 0.909, 0.432],
                             "initial_state": 0,
                             "transmit_allowed": [True, True, True, True]}})
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "solve-symmetric"]) == 0
        report = json.loads((out / "structure_report.json").read_text())
        witnesses = {(w["n"], w["q"]) for w in report["threshold_witnesses"]}
        reachable = {tuple(p) for p in report["reachable_pairs"]}
        assert witnesses & reachable
        assert report["policy_kind"] == "gridded"
        assert "# kind=gridded\n" in (out / "policy.csv").read_text()
        policy, meta = load_policy_csv(out / "policy.csv")
        assert meta["provenance"] == report["provenance"]
        assert main(["--config", str(cfg), "--out", str(out / "sim"),
                     "--trials", "20000", "--seed", "0", "simulate",
                     str(out / "policy.csv")]) == 0
        sim = json.loads((out / "sim" / "sim_summary.json").read_text())
        assert abs(sim["total"] - float(meta["dp_value"])) <= 5 * sim["total_se"]

    @pytest.mark.parametrize("solver", [
        {"grid": {"num_point": 8001}},
        {"grid": {"num_points": 801}, "max_half_width": 50.0},
    ], ids=["grid", "solver"])
    def test_unknown_solver_key_exits_2(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path, solver=solver)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"])
        assert code == 2
        assert "unknown solver" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("args, message", [
        (["--grid-points", "400", "solve-symmetric"],
         "--grid-points: num_points must be an odd integer >= 3, got 400"),
        (["--grid-points", "400", "verify"],
         "--grid-points: num_points must be an odd integer >= 3, got 400"),
        (["--grid-points", "3", "solve-symmetric"], "--grid-points: num_points must be >= 5"),
        (["--grid-points", "3", "verify"], "--grid-points: num_points must be >= 5"),
        (["--seed", "-1", "simulate", "policy.csv"], "seed must lie in [0, 2**128)"),
        # more points than numpy can index (an empty linspace raised IndexError):
        # the grid refuses them, in simulate when the provenance hash builds it
        (["--grid-points", str(2 ** 63 + 1), "solve-symmetric"],
         f"error: an error grid of {2 ** 63 + 1} points: {16 * (2 ** 63 + 1)} bytes, more than"),
        (["--grid-points", str(2 ** 63 + 1), "verify"],
         f"error: an error grid of {2 ** 63 + 1} points: {16 * (2 ** 63 + 1)} bytes, more than"),
        (["--grid-points", str(2 ** 63 + 1), "simulate", "policy.csv"],
         f"error: an error grid of {2 ** 63 + 1} points: {16 * (2 ** 63 + 1)} bytes, more than"),
    ], ids=["solve-symmetric", "verify", "solve-symmetric-3-points", "verify-3-points",
            "simulate", "solve-symmetric-2**63+1-points", "verify-2**63+1-points",
            "simulate-2**63+1-points"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, args, message):
        config = [] if "verify" in args else ["--config", str(write_config(tmp_path))]
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((6, 5))), policy)
        args = [str(policy) if arg == "policy.csv" else arg for arg in args]
        assert main(config + ["--out", str(tmp_path / "x")] + args) == 2
        assert message in capsys.readouterr().err

    # sizes that numpy can index but the host's memory cannot hold are refused
    # by what allocates them, before it does; the host's memory reads as 8 GiB
    # and its CPUs as 2 here, so the refusal is the same on any host. The
    # band's 136 bytes a block are 16 weights and an int64 block index; the
    # grid's 16 bytes a point are its points and their mirror; the
    # simulator's bytes are the cost table and the per-trial totals (22
    # floats a trial) and two threads' buffers of 16384 trials by 20 stages
    @pytest.mark.parametrize("args, message", [
        (["--grid-points", "1000001", "solve-symmetric"],
         "the expectation operator's band, 1000001 rows of 185824 weights: "
         f"{1000001 * 185824 // 16 * 136} bytes"),
        (["--grid-points", "1000001", "verify"],
         "the expectation operator's band, 1000001 rows of 583152 weights: "
         f"{1000001 * 583152 // 16 * 136} bytes"),
        (["--grid-points", "9999999999999999", "solve-symmetric"],
         f"an error grid of 9999999999999999 points: {16 * 9999999999999999} bytes"),
        (["--trials", "1000000000", "simulate"],
         "the simulator's tables for 1000000000 trials of 20 stages: "
         f"{8 * 10 ** 9 * 22 + 8 * 2 * 16384 * 20} bytes"),
    ], ids=["band-solve-symmetric", "band-verify", "grid-table", "cost-table"])
    def test_size_past_physical_memory_exits_2_before_allocating(self, tmp_path, capsys,
                                                                 monkeypatch, args, message):
        monkeypatch.setattr(workers, "physical_memory", lambda: 2 ** 33)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert main(["--out", str(tmp_path / "p"), "export-examples"]) == 0
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((20, 5))), policy)
        config = [] if "verify" in args else [
            "--config", str(tmp_path / "p" / "energy_harvesting.json")]
        extra = [str(policy)] if "simulate" in args else []
        out = tmp_path / "x"
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(config + ["--out", str(out)] + args + extra) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err == (f"error: {message}, more than the host's physical memory "
                       f"({2 ** 33} bytes)\n")
        assert peak < 2 ** 27  # the grid's few n-point vectors at most
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("memory, code", [(1_120_000, 0), (1_119_999, 2)])
    def test_a_cost_table_of_physical_memory_is_the_largest_allowed(
            self, tmp_path, capsys, monkeypatch, memory, code):
        # 10,000 trials at horizon 6, on one thread: the cost table and the
        # per-trial totals, 10000 * 8 floats, and one buffer of 10000 trials by
        # 6 stages are 1,120,000 bytes; the 101-point grid takes less
        monkeypatch.setattr(workers, "physical_memory", lambda: memory)
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((6, 5))), policy)
        assert main(["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "x"),
                     "--trials", "10000", "--grid-points", "101", "simulate", str(policy)]) == code
        if code == 2:
            assert capsys.readouterr().err == (
                "error: the simulator's tables for 10000 trials of 6 stages: 1120000 bytes, "
                "more than the host's physical memory (1119999 bytes)\n")

    # sizes whose one table the command line used to count fits, but not what
    # its owner allocates: the grid solver's five tables (33 bytes a cell
    # against 8), the simulator's trace (34 bytes a trial and stage besides its
    # cost table, totals and buffer) and the white-source search's objective
    # and one temporary over 121 x 121 intervals per state. The host's memory
    # reads as a few MB here, so each is refused on any host, while its real
    # size stays a few tens of MB
    @pytest.mark.parametrize("memory, overrides, args, message", [
        (2 ** 23, {"plant": {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 200}},
         ["--grid-points", "401", "solve-symmetric"],
         f"the grid solver's tables at (N, m, n) = (200, 5, 401): {(33 * 200 + 16) * 5 * 401}"),
        (2 ** 21, {}, ["--trials", "10000", "--grid-points", "101", "simulate", "--trace"],
         f"the simulator's tables for 10000 trials of 6 stages: {1_120_000 + 34 * 10000 * 6}"),
        (2 ** 24, {"plant": {"a": 0.0, "sigma2": 1.0, "x0": 0.0, "horizon": 3},
                   "channel": {"builder": "workload_chain",
                               "params": {"window": 99, "drop_probs": [0.5] * 100}}},
         ["solve-iid"], "the white-source solver's tables at (N, m) = (3, 100): "
                        f"{8 * (4 * 100 + 3 * 4 * 100 + 121 ** 2 * (3 + 2 * 100))}"),
    ], ids=["solve-horizon", "trace", "states"])
    def test_owner_refuses_the_peak_a_one_table_count_missed(self, tmp_path, capsys, monkeypatch,
                                                            memory, overrides, args, message):
        monkeypatch.setattr(workers, "physical_memory", lambda: memory)
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((6, 5))), policy)
        extra = [str(policy)] if "simulate" in args else []
        out = tmp_path / "x"
        assert main(["--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]
                    + args + extra) == 2
        assert capsys.readouterr().err == (
            f"error: {message} bytes, more than the host's physical memory ({memory} bytes)\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("plant.horizon", math.inf, "plant: horizon must be an integer >= 1, got inf"),
        ("plant.sigma2", math.inf, "plant: sigma2 must be finite, got inf"),
        ("sim.trials", math.inf, "sim.trials must be an integer, got inf"),
        ("plant.a", math.nan, "plant: a must be finite, got nan"),
        ("solver.grid.half_width", math.inf,
         "solver settings: half_width must be positive and finite, got inf"),
        ("plant.x0", math.nan, "plant: x0 must be finite, got nan"),
        ("solver.value_cap", math.nan, "solver settings: value_cap must be positive and "
                                       "finite, got nan"),
        ("solver.value_cap", math.inf, "solver settings: value_cap must be positive and "
                                       "finite, got inf"),
        ("policy.e", math.inf, "data row 1: inf is not a grid point"),
        # numbers of the wrong type
        ("plant.a", "1.1", "plant: a must be a number, got '1.1'"),
        ("plant.a", True, "plant: a must be a number, got True"),
        ("plant.x0", None, "plant: x0 must be a number, got None"),
        ("solver.value_cap", True, "solver settings: value_cap must be positive and "
                                   "finite, got True"),
        ("solver.value_cap", "1e12", "solver settings: value_cap must be positive and "
                                     "finite, got '1e12'"),
        ("solver.grid.half_width", None,
         "solver settings: half_width must be positive and finite, got None"),
        ("sim.trials", 2000.9, "sim.trials must be an integer, got 2000.9"),
        ("sim.trials", True, "sim.trials must be an integer, got True"),
        ("sim.seed", "7", "sim.seed must be an integer, got '7'"),
        ("policy.n", 5, "data row 1: (n, q) = (5, 0) is outside the policy shape"),
        # a grid whose span 2 * half_width overflows a float
        ("solver.grid.half_width", 1e308,
         "solver settings: half_width 1e+308: the grid's span 2 * half_width overflows "
         "a float"),
        # a JSON integer doubles exactly, but its float does not: this exited 3
        ("solver.grid.half_width", 10 ** 308,
         f"solver settings: half_width {10 ** 308}: the grid's span 2 * half_width "
         "overflows a float"),
        # tables past numpy's index range, and so past any host's memory: numpy
        # raised ValueError; the grid solver's tables are 33 bytes a cell
        ("plant.horizon", 2 ** 63, "the grid solver's tables at (N, m, n) = "
                                   f"({2 ** 63}, 5, 201): {(33 * 2 ** 63 + 16) * 5 * 201} "
                                   "bytes, more than"),
        ("plant.horizon", 10 ** 30, "the grid solver's tables at (N, m, n) = "
                                    f"({10 ** 30}, 5, 201): {(33 * 10 ** 30 + 16) * 5 * 201} "
                                    "bytes, more than"),
        ("sim.trials", 2 ** 63, f"the simulator's tables for {2 ** 63} trials of 4 stages: "),
        ("sim.trials", 10 ** 30, f"the simulator's tables for {10 ** 30} trials of 4 stages: "),
        # numpy indexes 5 * 2**58 elements, but not their 8 * 5 * 2**58 bytes
        ("sim.trials", 2 ** 58, f"the simulator's tables for {2 ** 58} trials of 4 stages: "),
    ], ids=["plant.horizon", "plant.sigma2", "sim.trials", "plant.a",
            "solver.grid.half_width", "plant.x0", "solver.value_cap-nan",
            "solver.value_cap-inf", "policy.e", "plant.a-string", "plant.a-bool",
            "plant.x0-null", "solver.value_cap-bool", "solver.value_cap-string",
            "solver.grid.half_width-null", "sim.trials-float", "sim.trials-bool",
            "sim.seed-string", "policy.n", "solver.grid.half_width-1e308",
            "solver.grid.half_width-10**308",
            "plant.horizon-2**63", "plant.horizon-10**30", "sim.trials-2**63",
            "sim.trials-10**30", "sim.trials-2**58"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, field, value, message):
        # JSON's NaN and Infinity literals, and a policy row off the grid
        config = json.loads(write_config(
            tmp_path, plant={"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 4}).read_text())
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.gridded(ErrorGrid(8.0, 201),
                                                 np.zeros((4, 5, 201), dtype=bool)),
                          policy_csv)
        section, key = field.rsplit(".", 1)
        if section == "policy":
            row = {"n": 1, "q": 0, "e": -8.0, "transmit": 0}
            row[key] = value
            text = policy_csv.read_text()
            policy_csv.write_text(text.replace(
                "\n1,0,-8.0,0\n", "\n" + ",".join(map(repr, row.values())) + "\n"))
        else:
            node = config
            for name in section.split("."):
                node = node[name]
            node[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        command = (["simulate", str(policy_csv)] if section in ("sim", "policy")
                   else ["solve-symmetric"])
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--grid-points", "201"] + command) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"plant": [1.1, 1.0]}, "config section 'plant' is not a JSON object"),
        ({"solver": {"grid": [2001]}}, "config section 'grid' is not a JSON object"),
        ({"sim": 5000}, "config section 'sim' is not a JSON object"),
        ({"channel": {"builder": "workload_chain", "params": [4]}},
         "config section 'params' is not a JSON object"),
        ({"channel": {"builder": ["energy_harvesting"]}}, "unknown channel builder"),
        ({"plant": None}, "config is missing the 'plant' section"),
        ({"plant": {"sigma2": 1.0, "horizon": 4}},
         "plant: PlantModel.__init__() missing 1 required positional argument: 'a'"),
        ({"plant": {"a": 1.1, "sigma2": 1.0}},
         "plant: PlantModel.__init__() missing 1 required keyword-only argument: 'horizon'"),
        ({"channel": {"fsm": {"num_states": 1, "transitions": [[0, 0]], "drop_probs": [0.5],
                              "initial_state": 0}}},
         "channel: ChannelFsm.__init__() missing 1 required positional argument: "
         "'transmit_allowed'"),
        ({"channel": {"fsm": [1]}}, "config section 'fsm' is not a JSON object"),
        ({"channel": {"builder": "workload_chain",
                      "params": {"window": 0, "drop_probs": [0.5]}}},
         "channel builder 'workload_chain': window must be >= 1, got 0"),
        ({"channel": {"builder": "workload_chain",
                      "params": {"window": 1.0, "drop_probs": [0.5, 0.5]}}},
         "channel builder 'workload_chain': window must be an integer, got 1.0"),
        ({"channel": {"builder": "workload_chain",
                      "params": {"window": 1, "drop_probs": 0.5}}},
         "channel builder 'workload_chain': invalid channel FSM: drop_probs must be a list, "
         "got 0.5"),
        ({"channel": {"builder": "energy_harvesting",
                      "params": {"capacity": "4", "tx_cost": 2, "p_tx": 0.3}}},
         "channel builder 'energy_harvesting': capacity must be an integer, got '4'"),
        ({"channel": {"builder": "energy_harvesting",
                      "params": {"capacity": 4, "tx_cost": 2.0, "p_tx": 0.3}}},
         "channel builder 'energy_harvesting': tx_cost must be an integer, got 2.0"),
        ({"channel": {"builder": "energy_harvesting",
                      "params": {"capacity": 4, "tx_cost": 2, "p_tx": True}}},
         "channel builder 'energy_harvesting': p_tx must be a number, got True"),
        ({"channel": {"builder": "energy_harvesting",
                      "params": {"capacity": 2 ** 63, "tx_cost": 2, "p_tx": 0.3}}},
         f"channel builder 'energy_harvesting': capacity {2 ** 63} gives {2 ** 63 + 1} "
         "states, more than the builders' cap of 100000"),
    ], ids=["plant", "grid", "sim", "params", "builder", "plant-missing", "plant.a-missing",
            "plant.horizon-missing", "fsm.transmit_allowed-missing", "fsm", "window",
            "window-float", "workload-drop_probs-number", "capacity-string", "tx_cost-float",
            "p_tx-bool", "capacity-2**63"])
    def test_malformed_section_exits_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"), "--trials", "10",
                     "simulate", str(tmp_path / "policy.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, message", [
        ("", "solvr", "unknown config keys ['solvr']"),
        ("plant", "x_0", "plant: PlantModel.__init__() got an unexpected keyword argument "
                         "'x_0'"),
        ("channel", "param", "unknown channel keys ['param']"),
        ("channel.fsm", "drop_prob", "channel: ChannelFsm.__init__() got an unexpected "
                                     "keyword argument 'drop_prob'"),
        ("sim", "trails", "unknown sim keys ['trails']"),
    ], ids=["top-level", "plant", "channel", "channel.fsm", "sim"])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, section, key, message):
        fsm = {"num_states": 1, "transitions": [[0, 0]], "drop_probs": [0.5],
               "initial_state": 0, "transmit_allowed": [True]}
        config = json.loads(write_config(
            tmp_path, plant={"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 3},
            channel={"fsm": fsm}).read_text())
        node = config
        for name in filter(None, section.split(".")):
            node = node[name]
        node[key] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((3, 1))), policy_csv)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "--trials", "10",
                     "simulate", str(policy_csv)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("num_states", 2.9, "num_states must be an integer, got 2.9"),
        ("initial_state", True, "initial_state must be an integer, got True"),
        ("transitions", [[1, 1.7], [0, 0]], "transitions must be integers, got 1.7"),
        ("transitions", [[1, 1, 7], [0, 0]],
         "transitions[0] must be a 2-element list, got [1, 1, 7]"),
        ("transitions", [[1], [0, 0]], "transitions[0] must be a 2-element list, got [1]"),
        ("drop_probs", ["0.5", True], "drop_probs must be numbers, got '0.5'"),
        ("drop_probs", [0.5, True], "drop_probs must be numbers, got True"),
        ("transmit_allowed", [True, "false"],
         "transmit_allowed must be true or false, got 'false'"),
        ("num_states", 0, "num_states must be >= 1, got 0"),
        ("initial_state", 2, "initial_state 2 outside 0..1"),
        ("transitions", [[1, None], [0, 0]],
         "state 0: missing r=1 transition at an unmasked state"),
        ("transitions", 1, "transitions must be a list, got 1"),
        ("drop_probs", 0.5, "drop_probs must be a list, got 0.5"),
        ("transmit_allowed", 1, "transmit_allowed must be a list, got 1"),
    ], ids=["num_states", "initial_state", "transitions", "transitions-triple",
            "transitions-single", "drop_probs-string", "drop_probs-bool", "transmit_allowed",
            "num_states-zero", "initial_state-outside", "transitions-unmasked-none",
            "transitions-number", "drop_probs-number", "transmit_allowed-number"])
    def test_mistyped_fsm_field_exits_2(self, tmp_path, capsys, field, value, message):
        fsm = {"num_states": 2, "transitions": [[1, 1], [0, 0]], "drop_probs": [0.5, 0.5],
               "initial_state": 0, "transmit_allowed": [True, True]}
        cfg = write_config(tmp_path, channel={"fsm": {**fsm, field: value}})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"]) == 2
        assert f"channel: invalid channel FSM: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code, message", [
        ("solve-symmetric", 2, "solver error: stage 102: value magnitude"),
        ("simulate", 0, "empirical total"),
    ])
    def test_horizon_past_the_float_range_caps_the_grid(self, tmp_path, capsys, command,
                                                         code, message):
        # 1000 ** 103 overflows a float; the auto grid width clips to the cap
        cfg = write_config(
            tmp_path, plant={"a": 1000.0, "sigma2": 1.0, "x0": 0.0, "horizon": 103},
            channel={"builder": "workload_chain",
                     "params": {"window": 1, "drop_probs": [0.1, 0.2]}})
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((103, 2))), policy_csv)
        args = ["--trials", "10", command, str(policy_csv)] if command == "simulate" \
            else [command]
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--grid-points", "101"] + args) == code
        out, err = capsys.readouterr()
        assert message in out + err

    @pytest.mark.parametrize("a, sigma2, message", [
        (1e10, 1.0, "stage 3: value magnitude"),
        (1e100, 1.0, "stage 3: value magnitude"),
        # past about 1e154 the operator's squared centers would overflow, and
        # with a tiny sigma2 its cell z^2 would at a smaller gain: the operator
        # refuses both before it computes a weight
        (1e200, 1.0, "gain 1e+200: ((|a| + 1) * half_width)^2 / sigma2 overflows"),
        (1e150, 1e-10, "gain 1e+150: ((|a| + 1) * half_width)^2 / sigma2 overflows")])
    def test_huge_gain_is_a_solver_error_with_no_artifact(self, tmp_path, capsys, a, sigma2,
                                                           message):
        cfg = write_config(tmp_path, plant={"a": a, "sigma2": sigma2, "x0": 0.0, "horizon": 3})
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg), "--out", str(out), "--grid-points", "101",
                         "solve-symmetric"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1 and message in err
        assert not out.exists() or not any(out.iterdir())
        assert not caught

    # below a half-width of about 1.2e-77 the operator refuses the grid: its
    # tail maps divide by the square of a twentieth of the half-width or more;
    # this test catches no warnings, so under pytest's error::RuntimeWarning a
    # grid that slipped past the check fails at once
    @pytest.mark.parametrize("sigma2, half_width, code", [
        (1e-300, "auto", 2), (1.0, 1e-90, 2), (1.0, 1e-300, 2), (1e-150, "auto", 0)],
        ids=["sigma2-1e-300", "half_width-1e-90", "half_width-1e-300", "sigma2-1e-150"])
    def test_grid_too_narrow_for_floats_is_a_solver_error(self, tmp_path, capsys, sigma2,
                                                          half_width, code):
        cfg = write_config(tmp_path, plant={"a": 1.1, "sigma2": sigma2, "x0": 0.0,
                                            "horizon": 3},
                           solver={"grid": {"half_width": half_width, "num_points": 101}})
        out = tmp_path / "x"
        assert main(["--config", str(cfg), "--out", str(out), "solve-symmetric"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and (out / "value_table.csv").exists()
        else:
            assert err.startswith("solver error: half_width ") and err.count("\n") == 1
            assert "underflows a float; sigma2 or half_width is too small" in err
            assert not out.exists() or not any(out.iterdir())

    # an explicit half-width below sigma / 100 solved to wrong values: the
    # tails amplify the fit's rounding by (sigma / half_width)^2
    @pytest.mark.parametrize("sigma2, half_width, code", [
        (1.0, 1e-6, 2), (1.0, 1e-4, 2), (1.0, 0.01, 0), (1e10, "auto", 2)],
        ids=["half_width-1e-6", "half_width-1e-4", "half_width-0.01", "sigma2-1e10-auto"])
    def test_grid_narrower_than_a_hundredth_of_sigma_is_a_solver_error(
            self, tmp_path, capsys, sigma2, half_width, code):
        cfg = write_config(tmp_path, plant={"a": 1.1, "sigma2": sigma2, "x0": 0.0, "horizon": 3},
                           solver={"grid": {"half_width": half_width, "num_points": 101}})
        out = tmp_path / "x"
        assert main(["--config", str(cfg), "--out", str(out), "solve-symmetric"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and (out / "value_table.csv").exists()
        else:
            assert re.fullmatch(r"solver error: half_width \S+ is below sigma / 100 = \S+; "
                                r"the tail fits would amplify rounding\n", err)
            assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("solve-symmetric", "--seed"), ("solve-symmetric", "--trials"),
        ("solve-iid", "--seed"), ("solve-iid", "--trials"), ("solve-iid", "--grid-points"),
        ("verify", "--seed"), ("verify", "--trials"),
        ("export-examples", "--config"), ("export-examples", "--seed"),
        ("export-examples", "--trials"), ("export-examples", "--grid-points")])
    def test_unread_global_flag_exits_2(self, tmp_path, capsys, command, flag):
        cfg = str(write_config(tmp_path))
        config = [] if command in ("verify", "export-examples") else ["--config", cfg]
        with pytest.raises(SystemExit) as exc:
            main(config + ["--out", str(tmp_path / "x"),
                           flag, cfg if flag == "--config" else "801", command])
        assert exc.value.code == 2
        assert f"{command} takes no {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve-symmetric", "solve-iid", "simulate"])
    def test_command_without_its_config_exits_2(self, tmp_path, capsys, command):
        args = [command] + (["policy.csv"] if command == "simulate" else [])
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "x")] + args)
        assert exc.value.code == 2
        assert f"{command} requires --config" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1.1, 1.0]")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-symmetric"]) == 2
        assert f"config {cfg} is not a JSON object" in capsys.readouterr().err

    # mkdir raised FileExistsError or NotADirectoryError, which exited 3 with
    # a traceback, and for the two solve commands only after the whole solve
    @pytest.mark.parametrize("command", ["export-examples", "solve-symmetric", "solve-iid",
                                         "simulate"])
    def test_out_that_is_or_lies_under_a_file_exits_2(self, tmp_path, capsys, command):
        plant = {"a": 0.0 if command == "solve-iid" else 1.1, "sigma2": 1.0, "x0": 0.0,
                 "horizon": 6}
        config = ([] if command == "export-examples"
                  else ["--config", str(write_config(tmp_path, plant=plant))])
        flags = ["--grid-points", "201"] if command == "solve-symmetric" else []
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((6, 5))), policy)
        extra = [str(policy)] if command == "simulate" else []
        a_file = tmp_path / "a_file"
        a_file.write_text("kept\n")
        for out in (a_file, a_file / "run"):
            capsys.readouterr()
            assert main(config + ["--out", str(out)] + flags + [command] + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --out: ") and f"'{out}'" in err
            assert err.count("\n") == 1
        assert a_file.read_text() == "kept\n"

    def test_internal_error_exits_3_with_traceback(self, tmp_path, capsys, monkeypatch):
        def planted(*args, **kwargs):
            raise ValueError("planted solver bug")

        monkeypatch.setattr(dp_symmetric, "backward_induction", planted)
        code = main(["--config", str(write_config(tmp_path)), "--out",
                     str(tmp_path / "x"), "solve-symmetric"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "ValueError: planted solver bug" in err


class TestSolveIid:
    def test_rejects_coupled_plant(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "solve-iid"])
        assert code == 2
        assert "solve-symmetric" in capsys.readouterr().err

    def test_white_plant_writes_intervals_and_log(self, tmp_path):
        cfg = write_config(tmp_path, plant={"a": 0.0, "sigma2": 1.0,
                                            "x0": 0.0, "horizon": 5})
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "solve-iid"]) == 0
        assert (out / "iid_table.csv").exists()
        assert (out / "asymmetry_log.json").exists()
        policy, meta = load_policy_csv(out / "policy.csv")
        assert policy.kind == "interval_pair"
        # masked battery levels never transmit
        assert not decide_many(policy, 1, [0], [100.0])[0]

    def test_malformed_solver_section_exits_2(self, tmp_path, capsys):
        # checked like every other section, though no setting shapes the intervals
        cfg = write_config(tmp_path, plant={"a": 0.0, "sigma2": 1.0, "x0": 0.0, "horizon": 5},
                           solver={"grid": {"num_point": 8001}})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "solve-iid"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_horizon_numpy_cannot_index_exits_2(self, tmp_path, capsys, monkeypatch):
        # a platform that reports no memory: numpy's index range is the limit
        monkeypatch.setattr(workers, "physical_memory", lambda: None)
        cfg = write_config(tmp_path, plant={"a": 0.0, "sigma2": 1.0, "horizon": 2 ** 63})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "solve-iid"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the white-source solver's tables at (N, m) = ({2 ** 63}, 5): ")
        assert err.endswith(f" bytes, more than numpy can index ({2 ** 63 - 1} bytes)\n")
        assert not (tmp_path / "x").exists()


class TestSimulate:
    def test_round_trip_decisions_and_agreement(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        code = main(["--config", str(cfg), "--out", str(out / "sim"),
                     "--trials", "20000", "--seed", "5", "simulate",
                     str(out / "policy.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "standard errors" in text
        sim = json.loads((out / "sim" / "sim_summary.json").read_text())
        report = json.loads((out / "structure_report.json").read_text())
        gap_se = abs(sim["total"] - float(report["value_at_origin"]))
        assert gap_se <= 4 * sim["total_se"]
        # reloaded policy reproduces the solver's decisions bit for bit
        policy, meta = load_policy_csv(out / "policy.csv")
        assert meta["provenance"] == report["provenance"]

    def test_costs_past_the_float_range_exit_2_with_one_line(self, tmp_path, capsys):
        # the policy's provenance does not match, but the run fails before the
        # warning, so its error is the one line on stderr
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((3, 5))), policy,
                          metadata={"provenance": "0"})
        cfg = write_config(tmp_path, plant={"a": 1e300, "sigma2": 1.0, "x0": 0.0, "horizon": 3})
        out = tmp_path / "x"
        assert main(["--config", str(cfg), "--out", str(out), "--trials", "100", "simulate",
                     str(policy)]) == 2
        assert capsys.readouterr().err == (
            "solver error: simulated costs or their spread overflow a float (a = 1e+300, "
            "sigma2 = 1, horizon 3)\n")
        assert not out.exists()

    # simulate printed "solver value nan | gap nan (nan standard errors)"
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_value_exits_2(self, tmp_path, capsys, value):
        policy = tmp_path / "policy.csv"
        export_policy_csv(TransmitPolicy.symmetric(np.zeros((6, 5))), policy,
                          metadata={"dp_value": value})
        out = tmp_path / "x"
        assert main(["--config", str(write_config(tmp_path)), "--out", str(out),
                     "--trials", "50", "simulate", str(policy)]) == 2
        assert capsys.readouterr().err == (
            f"error: policy {policy}: header line '# dp_value={value}' must be finite\n")
        assert not out.exists()

    def test_provenance_mismatch_warns(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        other = write_config(tmp_path, plant={"a": 1.05, "sigma2": 1.0,
                                              "x0": 0.0, "horizon": 6})
        code = main(["--config", str(other), "--out", str(out / "sim"),
                     "--trials", "50", "simulate", str(out / "policy.csv")])
        assert code == 0
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma2, solver, flags, warns", [
        (1.0, {}, [], False), (4.0, {}, [], True),
        (1.0, {}, ["--grid-points", "201"], False),
        (1.0, {"solver": {"grid": {"num_points": 4001}}}, [], False),
    ], ids=["matching", "mismatched", "grid-points", "solver-grid"])
    def test_interval_policy_provenance_is_checked(self, tmp_path, capsys, sigma2, solver,
                                                   flags, warns):
        # no solver setting shapes an interval policy, so none enters its provenance
        white = {"a": 0.0, "sigma2": 1.0, "x0": 0.0, "horizon": 5}
        out = tmp_path / "run"
        assert main(["--config", str(write_config(tmp_path, plant=white)), "--out", str(out),
                     "solve-iid"]) == 0
        cfg = write_config(tmp_path, plant={**white, "sigma2": sigma2}, **solver)
        capsys.readouterr()
        assert main(["--config", str(cfg), "--out", str(out / "sim"), "--trials", "50"]
                    + flags + ["simulate", str(out / "policy.csv")]) == 0
        assert ("does not match" in capsys.readouterr().err) == warns

    def test_one_trial_prints_the_gap_without_a_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, plant={"a": 0.0, "sigma2": 1.0, "x0": 0.0, "horizon": 3})
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "solve-iid"]) == 0
        for trials in ("1", "2"):
            capsys.readouterr()
            assert main(["--config", str(cfg), "--out", str(out / "sim"), "--trials", trials,
                         "simulate", str(out / "policy.csv")]) == 0
            line = capsys.readouterr().out
            assert re.fullmatch(r"empirical total \S+ \+/- \S+ \| solver value \S+ \| "
                                r"gap \S+( \(\S+ standard errors\))?\n", line)
            assert ("standard errors" in line) == (trials == "2")

    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        code = main(["--config", str(cfg), "--out", str(out / "sim"),
                     "--trials", "0", "simulate", str(out / "policy.csv")])
        assert code == 2

    def test_missing_header_line_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        policy_csv = out / "policy.csv"
        lines = policy_csv.read_text().splitlines(keepends=True)
        policy_csv.write_text("".join(line for line in lines
                                      if not line.startswith("# horizon=")))
        code = main(["--config", str(cfg), "--out", str(out / "sim"),
                     "--trials", "50", "simulate", str(policy_csv)])
        assert code == 2
        assert "missing header line '# horizon='" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("# kind=symmetric_threshold\n# horizon=x\n# num_states=5\n",
         "header line '# horizon=x' must be an integer >= 1"),
        (None, "No such file or directory"),
        ("# kind=gridded\n# horizon=1\n# num_states=1\n# grid_half_width=1.0\n"
         "# grid_num_points=2\nn,q,e,transmit\n1,0,-1.0,0\n1,0,1.0,0\n",
         "num_points must be an odd integer >= 3, got 2"),
        ("# kind=symmetric_threshold\n# horizon=1\n# num_states=1\n"
         "n,q,kind,tau_lo,tau_hi\n1,0,symmetric_threshold,-1.0,2.0\n",
         "symmetric threshold at (n, q) = (1, 0) has tau_lo -1.0 != -tau_hi 2.0"),
    ], ids=["bad-header", "missing-file", "even-grid", "asymmetric-row"])
    def test_policy_error_names_the_file_once(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path)
        policy_csv = tmp_path / "thr_bad.csv"
        if text is not None:
            policy_csv.write_text(text)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--trials", "50", "simulate", str(policy_csv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: policy: ") and message in err
        assert err.count(str(policy_csv)) == 1

    @pytest.mark.parametrize("kind, row, message", [
        ("symmetric", "-100.0,1.0",
         "symmetric threshold at (n, q) = (1, 0) has tau_lo -100.0 != -tau_hi 1.0"),
        ("symmetric", "nan,nan", "symmetric_threshold requires tau_lo <= tau_hi"),
        ("interval", "-1.0,nan", "interval_pair requires tau_lo <= tau_hi"),
    ], ids=["symmetric-lo", "symmetric-nan", "interval-nan"])
    def test_threshold_row_contradicting_its_kind_exits_2(self, tmp_path, capsys,
                                                          kind, row, message):
        cfg = write_config(tmp_path)
        tau = np.ones((6, 5))
        policy = (TransmitPolicy.symmetric(tau) if kind == "symmetric"
                  else TransmitPolicy.interval(np.stack([-tau, tau], axis=-1)))
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(policy, policy_csv)
        text = policy_csv.read_text()
        edited = text.replace(f",{policy.kind},-1.0,1.0\n", f",{policy.kind},{row}\n", 1)
        assert edited != text
        policy_csv.write_text(edited)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--trials", "50", "simulate", str(policy_csv)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code, message", [
        ("symmetric", 0, "empirical total"),
        ("gridded", 2, "gridded policy is not symmetric at (n, q, e) = (1, 0, -5.0)"),
    ])
    def test_symmetry_is_read_from_the_policy_not_its_header(self, tmp_path, capsys, kind,
                                                              code, message):
        # an older file's symmetric_flag line contradicts each policy; it is ignored
        cfg = write_config(tmp_path, channel={
            "builder": "workload_chain", "params": {"window": 1, "drop_probs": [0.1, 0.3]}})
        grid = ErrorGrid(5.0, 11)
        policy, flag = ((TransmitPolicy.symmetric(np.ones((6, 2))), 0) if kind == "symmetric"
                        else (TransmitPolicy.gridded(grid, np.tile(grid.points > 3, (6, 2, 1))), 1))
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(policy, policy_csv)
        policy_csv.write_text(f"# symmetric_flag={flag}\n" + policy_csv.read_text())
        assert main(["--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--trials", "50", "simulate", str(policy_csv)]) == code
        out, err = capsys.readouterr()
        assert message in out + err

    @pytest.mark.parametrize("policy, line, claim", [
        (TransmitPolicy.gridded(ErrorGrid(1.0, 3), np.zeros((1, 1, 3), dtype=bool)),
         "# grid_num_points=3", "# grid_num_points=400000001"),
        (TransmitPolicy.symmetric(np.ones((2, 1))), "# horizon=2", "# horizon=1000000000"),
    ], ids=["gridded", "threshold"])
    def test_oversized_header_exits_2_in_bounded_memory(self, tmp_path, capsys, policy,
                                                        line, claim):
        # the claimed shapes would take 3 GB and 75 GB; the few rows bound the memory
        cfg = write_config(tmp_path)
        policy_csv = tmp_path / "policy.csv"
        export_policy_csv(policy, policy_csv)
        text = policy_csv.read_text()
        assert line + "\n" in text
        policy_csv.write_text(text.replace(line + "\n", claim + "\n"))
        tracemalloc.start()
        try:
            code = main(["--config", str(cfg), "--out", str(tmp_path / "sim"),
                         "--trials", "50", "simulate", str(policy_csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "the header lines claim" in capsys.readouterr().err
        assert peak < 10e6

    def test_trace_flag_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        assert main(["--config", str(cfg), "--out", str(out / "sim"),
                     "--trials", "10", "simulate", "--trace",
                     str(out / "policy.csv")]) == 0
        trace = (out / "sim" / "trace.csv").read_text().splitlines()
        assert trace[0] == "trial,n,x,xhat,e,r,c,q"
        assert len(trace) == 1 + 10 * 6


class TestVerify:
    def test_suite_passes(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "verify"]) == 0
        assert "all properties verified" in capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", [lambda v: v - 1.0, lambda v: math.nan],
                             ids=["minus-one", "nan"])
    def test_injected_defect_names_the_check(self, tmp_path, capsys, monkeypatch, corrupt):
        solve = dp_symmetric.solve_and_extract

        def corrupted(*args, **kwargs):
            result = solve(*args, **kwargs)
            values = result.table.values.copy()
            values[2, 2, -1] = corrupt(values[2, 2, -1])
            return dataclasses.replace(
                result, table=dataclasses.replace(result.table, values=values))

        monkeypatch.setattr(dp_symmetric, "solve_and_extract", corrupted)
        code = main(["--out", str(tmp_path), "verify"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verification failed at: check_value_structure" in out

    def test_operator_properties_free_their_operator(self, monkeypatch):
        # the first two properties' 801-point operator is dense; held through
        # the suite, it adds its size to the solve's peak
        built = []
        init = quadrature.GaussianExpectationOperator.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(quadrature.GaussianExpectationOperator, "__init__", recording)
        plant, fsm = PlantModel(a=1.1, sigma2=1.0, horizon=8), energy_harvesting_fsm(4, 2, 0.3)
        properties = _verify_properties(plant, fsm, dp_symmetric.SolverSettings(num_points=801))
        try:
            for name, _, _ in properties:
                if name == "expectation operator preserves symmetric monotone shape":
                    theirs = list(built)
                if name == "check_value_structure":
                    alive = [ref for ref in theirs if ref() is not None]
                    break
        finally:
            properties.close()
        assert len(theirs) == 1 and alive == []

    def test_config_flag_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--out", str(tmp_path), "verify"])
        assert exc.value.code == 2
        assert "takes no --config" in capsys.readouterr().err


class TestExportExamples:
    def test_presets_are_solvable(self, tmp_path):
        out = tmp_path / "presets"
        assert main(["--out", str(out), "export-examples"]) == 0
        energy = json.loads((out / "energy_harvesting.json").read_text())
        assert energy["plant"]["a"] == 1.1
        workload = json.loads((out / "workload_chain.json").read_text())
        assert workload["channel"]["params"]["drop_probs"][:2] == [0.1, 0.3]
        run = tmp_path / "run"
        assert main(["--config", str(out / "workload_chain.json"), "--out",
                     str(run), "--grid-points", "401", "solve-symmetric"]) == 0


    @pytest.mark.parametrize("name, digest", [("energy_harvesting", "537628f7cf780676"),
                                              ("workload_chain", "1036377e692dbf6a")])
    def test_preset_provenance_is_pinned(self, tmp_path, name, digest):
        # the digests in the presets' policy.csv, also with integer spellings
        assert main(["--out", str(tmp_path), "export-examples"]) == 0
        config = json.loads((tmp_path / f"{name}.json").read_text())
        respelled = json.loads(json.dumps(config))
        respelled["plant"].update(sigma2=1, x0=0)
        respelled["solver"]["value_cap"] = 10 ** 12
        for cfg in (config, respelled):
            assert dp_symmetric.provenance_hash(
                plant_from_config(cfg), fsm_from_config(cfg),
                settings_from_config(cfg)) == digest


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where it is used, and concurrent.futures only when
    # workers.run_each or the value CSV starts a thread or process, so commands
    # that solve nothing (export-examples, simulating a threshold policy) never
    # pay for them
    code = ("import sys, remest.cli; print([m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')])")
    env = dict(os.environ, PYTHONPATH=str(Path(remest.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_white_source_commands_load_no_scipy(tmp_path):
    # solve-iid and simulating its interval policy take the normal CDF from
    # the numpy ndtr; only the grid solver's operator needs scipy
    cfg = write_config(tmp_path, plant={"a": 0.0, "sigma2": 1.0, "x0": 0.0, "horizon": 5})
    iid = tmp_path / "iid"
    commands = [["--config", str(cfg), "--out", str(iid), "solve-iid"],
                ["--config", str(cfg), "--out", str(tmp_path / "sim"), "--trials", "2000",
                 "simulate", str(iid / "policy.csv")]]
    code = ("import json, sys\nfrom remest.cli import main\nloaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "    loaded.append([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
            "print(json.dumps(loaded))")
    env = dict(os.environ, PYTHONPATH=str(Path(remest.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], []]
    assert load_policy_csv(iid / "policy.csv")[0].kind == "interval_pair"
