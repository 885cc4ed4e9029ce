import json

import pytest

from remest.cli import main
from remest.policy import decide_many, load_policy_csv


def write_config(tmp_path, **overrides):
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
    path.write_text(json.dumps(config))
    return path


class TestSolveSymmetric:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "solve-symmetric"])
        assert code == 0
        for name in ("value_table.csv", "policy.csv", "structure_report.json",
                     "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threshold_witnesses"] == 0
        assert summary["value_at_origin"] > 0
        report = json.loads((out / "structure_report.json").read_text())
        assert report["structure_ok"] and report["growth_bound_ok"]
        assert not report["drop_margin"]["satisfied"]

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
        gap_se = abs(sim["total"] - float(
            json.loads((out / "summary.json").read_text())["value_at_origin"]))
        assert gap_se <= 4 * sim["total_se"]
        # reloaded policy reproduces the solver's decisions bit for bit
        policy, meta = load_policy_csv(out / "policy.csv")
        assert meta["provenance"] == json.loads(
            (out / "summary.json").read_text())["provenance"]

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

    def test_injected_defect_names_the_check(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "verify",
                     "--inject-defect", "value-table"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verification failed at: check_value_structure" in out

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
