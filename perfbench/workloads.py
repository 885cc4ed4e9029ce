"""The four benchmark workloads: generated inputs, the command pass each one
times, and the output gate every command must pass.

A workload's inputs depend only on its seed, which reaches the simulator as
``--seed``. The solvers are deterministic, so their outputs are gated
against the reference values in ``reference.json`` whatever the seed.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("preset_solve", "fine_grid", "monte_carlo", "white_source")

# The two bundled application configs, as `remest export-examples` writes them.
PRESETS = {
    "energy_harvesting": {
        "plant": {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 20},
        "channel": {"builder": "energy_harvesting",
                    "params": {"capacity": 4, "tx_cost": 2, "p_tx": 0.3}},
        "solver": {"grid": {"half_width": "auto", "num_points": 2001},
                   "value_cap": 1e12},
        "sim": {"trials": 100000, "seed": 7},
    },
    "workload_chain": {
        "plant": {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 20},
        "channel": {"builder": "workload_chain",
                    "params": {"window": 4,
                               "drop_probs": [0.1, 0.3, 0.5, 0.7, 0.9]}},
        "solver": {"grid": {"half_width": "auto", "num_points": 2001},
                   "value_cap": 1e12},
        "sim": {"trials": 100000, "seed": 7},
    },
}

PRESET_TRIALS = 100_000
MONTE_CARLO_TRIALS = 1_000_000
FINE_GRID_POINTS = 8001
WHITE_HORIZON = 100
# Simulator totals off the recorded seeds must lie this many standard errors
# from the solver value; a correct run exceeds 5 with probability ~6e-7.
SIM_TOLERANCE_SE = 5.0
VALUE_RTOL = 1e-12


@dataclass(frozen=True)
class Command:
    key: str      # unique within the workload, names the reference entry
    kind: str     # the remest subcommand
    args: tuple   # arguments after `python -m remest.cli`
    out: Path     # the command's --out directory


def white_config(preset: str, horizon: int) -> dict:
    """A preset's channel and noise with a white source (a = 0)."""
    cfg = copy.deepcopy(PRESETS[preset])
    cfg["plant"].update(a=0.0, horizon=horizon)
    return cfg


def _cmd(key, kind, out: Path, *args, config=None):
    head = ("--config", str(config)) if config else ()
    return Command(key, kind, head + ("--out", str(out)) + args, out)


def write_inputs(workload: str, inputs: Path) -> None:
    """Write the configs a workload's commands read."""
    configs = {
        "preset_solve": {},
        "fine_grid": {"energy_harvesting": PRESETS["energy_harvesting"]},
        "monte_carlo": {"energy_harvesting": PRESETS["energy_harvesting"],
                        "white_chain": white_config("workload_chain", 20)},
        "white_source": {f"white_{p}": white_config(p, WHITE_HORIZON)
                         for p in PRESETS},
    }[workload]
    inputs.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        (inputs / f"{name}.json").write_text(json.dumps(cfg, indent=2))


def prep_commands(workload: str, inputs: Path) -> list[Command]:
    """Untimed commands that make the policies a workload simulates."""
    if workload != "monte_carlo":
        return []
    return [
        _cmd("prep:energy_harvesting", "solve-symmetric", inputs / "policy_energy",
             "solve-symmetric", config=inputs / "energy_harvesting.json"),
        _cmd("prep:white_chain", "solve-iid", inputs / "policy_white",
             "solve-iid", config=inputs / "white_chain.json"),
    ]


def pass_commands(workload: str, seed: int, inputs: Path, out: Path) -> list[Command]:
    """The commands of one timed pass, in order."""
    seed_args = ("--seed", str(seed))
    if workload == "preset_solve":
        presets = out / "presets"
        cmds = [_cmd("export-examples", "export-examples", presets, "export-examples")]
        for p in PRESETS:
            cmds.append(_cmd(f"solve-symmetric:{p}", "solve-symmetric", out / f"solve_{p}",
                             "solve-symmetric", config=presets / f"{p}.json"))
        for p in PRESETS:
            cmds.append(_cmd(f"simulate:{p}", "simulate", out / f"sim_{p}",
                             "--trials", str(PRESET_TRIALS), *seed_args, "simulate",
                             str(out / f"solve_{p}" / "policy.csv"),
                             config=presets / f"{p}.json"))
        cmds.append(_cmd("verify", "verify", out / "verify", "verify"))
        return cmds
    if workload == "fine_grid":
        return [_cmd("solve-symmetric:energy_harvesting", "solve-symmetric", out / "solve",
                     "--grid-points", str(FINE_GRID_POINTS), "solve-symmetric",
                     config=inputs / "energy_harvesting.json")]
    if workload == "monte_carlo":
        return [
            _cmd(f"simulate:{name}", "simulate", out / f"sim_{name}",
                 "--trials", str(MONTE_CARLO_TRIALS), *seed_args, "simulate",
                 str(inputs / policy / "policy.csv"), config=inputs / f"{name}.json")
            for name, policy in (("energy_harvesting", "policy_energy"),
                                 ("white_chain", "policy_white"))]
    if workload == "white_source":
        return [_cmd(f"solve-iid:white_{p}", "solve-iid", out / f"iid_{p}", "solve-iid",
                     config=inputs / f"white_{p}.json") for p in PRESETS]
    raise ValueError(f"unknown workload {workload!r}")


# --- observations and the gate ------------------------------------------------

def _metadata(policy_csv: Path) -> dict:
    meta = {}
    with open(policy_csv) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
    return meta


def _data_rows(csv_path: Path) -> int:
    """Rows after the header, skipping leading ``#`` comment lines."""
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.count(b"\n")
    start = 0
    while data.startswith(b"#", start):
        start = data.index(b"\n", start) + 1
        lines -= 1
    return lines - 1


def observe(cmd: Command, stdout: str) -> dict:
    """The gated facts of one command's outputs."""
    out = cmd.out
    if cmd.kind == "export-examples":
        return {"presets": {p: json.loads((out / f"{p}.json").read_text())
                            for p in PRESETS}}
    if cmd.kind == "solve-symmetric":
        report = json.loads((out / "structure_report.json").read_text())
        return {"dp_value": float(_metadata(out / "policy.csv")["dp_value"]),
                "structure_ok": report["structure_ok"],
                "growth_bound_ok": report["growth_bound_ok"],
                "witnesses": len(report["threshold_witnesses"]),
                "asymmetric_fits": len(report["asymmetric_fits"]),
                "value_csv_rows": _data_rows(out / "value_table.csv")}
    if cmd.kind == "solve-iid":
        return {"dp_value": float(_metadata(out / "policy.csv")["dp_value"]),
                "asymmetric_optima": len(json.loads(
                    (out / "asymmetry_log.json").read_text())),
                "iid_csv_rows": _data_rows(out / "iid_table.csv")}
    if cmd.kind == "simulate":
        summary = json.loads((out / "sim_summary.json").read_text())
        policy_csv = Path(cmd.args[cmd.args.index("simulate") + 1])
        return {"total": summary["total"], "total_se": summary["total_se"],
                "trials": summary["trials"],
                "dp_value": float(_metadata(policy_csv)["dp_value"])}
    if cmd.kind == "verify":
        lines = stdout.strip().splitlines()
        return {"verdict": lines[-1] if lines else ""}
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def reference_entry(cmd: Command, obs: dict, seed: int) -> dict:
    """What ``reference.json`` records for a command observed at ``seed``."""
    if cmd.kind == "simulate":
        return {"trials": obs["trials"], "totals": {str(seed): obs["total"]}}
    return obs


def check(cmd: Command, obs: dict, ref: dict, seed: int) -> list[str]:
    """Mismatches between a command's observations and its reference."""
    problems = []
    if cmd.kind == "simulate":
        if obs["trials"] != ref["trials"]:
            problems.append(f"trials {obs['trials']} != {ref['trials']}")
        recorded = ref["totals"].get(str(seed))
        if recorded is not None:
            if obs["total"] != recorded:
                problems.append(f"total {obs['total']!r} != recorded {recorded!r} "
                                f"at seed {seed}")
        else:
            gap = abs(obs["total"] - obs["dp_value"])
            if not gap <= SIM_TOLERANCE_SE * obs["total_se"]:
                problems.append(f"total {obs['total']!r} is {gap:.4g} from solver value "
                                f"{obs['dp_value']!r}, over {SIM_TOLERANCE_SE} "
                                f"standard errors ({obs['total_se']:.4g})")
        return problems
    for key, expected in ref.items():
        got = obs.get(key)
        if key == "dp_value":
            ok = got is not None and math.isclose(got, expected, rel_tol=VALUE_RTOL,
                                                  abs_tol=0.0)
        else:
            ok = got == expected
        if not ok:
            problems.append(f"{key} {got!r} != reference {expected!r}")
    return problems
