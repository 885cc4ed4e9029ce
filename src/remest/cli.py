"""Command-line front end: solve, simulate, verify, export presets.

Commands
--------
- ``solve-symmetric``: grid solver for the stage-coupled problem; writes the
  value-table CSV, the policy CSV and one structure report JSON, which also
  records the run's plant, channel and grid.
- ``solve-iid``: interval solver for a white source (plant gain must be 0);
  writes the interval table CSV, the policy CSV and the asymmetry log.
- ``simulate``: Monte Carlo run of a saved policy CSV against a config,
  printing the empirical total next to the solver value when available; it
  warns on stderr when the policy's provenance differs from the config's.
- ``verify``: bundled property suite (structure, growth bound, oracle
  agreement, solver/simulator agreement); exit 1 names the first failure.
- ``export-examples``: writes the two bundled application configs.

Exit codes: 0 success, 1 property failure, 2 usage or config error (bad
config, flag or policy CSV, a non-finite number or a table numpy cannot
index included, or solver overflow), 3 internal error (the traceback goes
to stderr). Plant, channel and solver settings check themselves when
built, an unknown plant or fsm key included; ``_read`` turns the error
into a :class:`ConfigError` that names the input. The other sections
(the top level, ``channel``, ``solver``, ``solver.grid`` and ``sim``) are
checked for unknown keys here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
import traceback
from pathlib import Path

import numpy as np

from . import channel as ch
from . import dp_iid
from . import dp_symmetric as dps
from . import oracle_sim
from .policy import export_policy_csv, load_policy_csv
from .process import PlantModel, is_number
from .quadrature import ErrorGrid


class ConfigError(ValueError):
    """Bad user input: the config, a flag or a policy CSV. Exit code 2."""


BUILDERS = {
    "energy_harvesting": ch.energy_harvesting_fsm,
    "workload_chain": ch.workload_chain_fsm,
}


def _read(what, reader, /, *args, **kwargs):
    """``reader(*args, **kwargs)``; an error that bad input makes it raise
    becomes a :class:`ConfigError` that begins with ``what``. The first two
    parameters are positional-only, so any config key can be a keyword."""
    try:
        return reader(*args, **kwargs)
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _section(parent: dict, name: str, required: bool = False) -> dict:
    """The JSON object under ``name``, or {} when it is optional and absent."""
    if required and name not in parent:
        raise ConfigError(f"config is missing the '{name}' section")
    section = parent.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' is not a JSON object")
    return section


def _check_keys(where: str, section: dict, keys) -> None:
    """A key of ``section`` outside ``keys`` is a :class:`ConfigError`."""
    if unknown := sorted(set(section) - set(keys)):
        raise ConfigError(f"unknown {where} keys {unknown}")


def _indexable(what: str, *factors: int) -> None:
    """Refuse, before any allocation, a table of ``math.prod(factors)``
    floats whose bytes numpy cannot index (it raises on allocating one);
    the error names the product."""
    if 8 * math.prod(factors) > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} = {' * '.join(map(str, factors))} floats, more bytes "
                          f"than numpy can index ({np.iinfo(np.intp).max})")


def _grid_table_fits(plant: PlantModel, fsm: ch.ChannelFsm, settings: dps.SolverSettings):
    _indexable("the grid solver's table (N+1)*m*n", plant.horizon + 1, fsm.num_states,
               settings.num_points)


def load_config(path) -> dict:
    config = _read(f"config {path}", lambda: json.loads(Path(path).read_text()))
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    _check_keys("config", config, ("plant", "channel", "solver", "sim"))
    return config


def plant_from_config(config: dict) -> PlantModel:
    return _read("plant", PlantModel, **_section(config, "plant", required=True))


def fsm_from_config(config: dict) -> ch.ChannelFsm:
    section = _section(config, "channel", required=True)
    if ("builder" in section) == ("fsm" in section):
        raise ConfigError("channel section needs exactly one of 'builder' or 'fsm'")
    if "fsm" in section:
        _check_keys("channel", section, ("fsm",))
        return _read("channel", ch.ChannelFsm, **_section(section, "fsm"))
    _check_keys("channel", section, ("builder", "params"))
    name = section["builder"]
    if not isinstance(name, str) or name not in BUILDERS:
        raise ConfigError(f"unknown channel builder {name!r}; "
                          f"available: {sorted(BUILDERS)}")
    params = _section(section, "params")
    return _read(f"channel builder {name!r}", BUILDERS[name], **params)


def settings_from_config(config: dict, grid_points=None) -> dps.SolverSettings:
    """Solver settings of the config, with ``--grid-points`` applied."""
    solver = _section(config, "solver")
    _check_keys("solver", solver, ("grid", "value_cap"))
    grid = _section(solver, "grid")
    _check_keys("solver.grid", grid, ("half_width", "num_points"))
    if grid_points is not None:
        grid = {**grid, "num_points": grid_points}
    cap = {"value_cap": solver["value_cap"]} if "value_cap" in solver else {}
    return _read("solver settings", dps.SolverSettings, **grid, **cap)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve_symmetric(args) -> int:
    config = load_config(args.config)
    plant = plant_from_config(config)
    fsm = fsm_from_config(config)
    settings = settings_from_config(config, args.grid_points)
    _grid_table_fits(plant, fsm, settings)
    out = _out_dir(args)

    result = dps.solve_and_extract(plant, fsm, settings=settings)
    table = result.table
    dps.export_value_table_csv(table, out / "value_table.csv")
    dp_value = table.value_at_origin()
    export_policy_csv(result.policy, out / "policy.csv",
                      metadata={"provenance": table.provenance,
                                "dp_value": repr(dp_value)})

    structure = dps.check_value_structure(table)
    growth = dps.check_growth_rate_bound(table)
    v, margin, satisfied = dps.threshold_optimality_condition(plant, fsm)
    report = {
        "provenance": table.provenance,
        "plant": dataclasses.asdict(plant),
        "channel": dataclasses.asdict(fsm),
        "grid": dataclasses.asdict(table.grid),
        "value_at_origin": dp_value,
        # max |V|, against the config's value_cap, with no table-sized temporary
        "max_abs_value": max(float(table.values.max()), -float(table.values.min())),
        "structure_ok": structure.ok,
        "structure_violations": len(structure.violations),
        "growth_bound_ok": growth.ok,
        "growth_bound_slack": growth.slack,
        "drop_margin": {"v": v, "threshold": margin, "satisfied": satisfied},
        "near_ties": table.near_ties(),
        "threshold_witnesses": [
            {"n": n, "q": q, "witness": list(w)} for n, q, w in result.witnesses],
        "asymmetric_fits": [{"n": n, "q": q} for n, q in result.asymmetric],
        "reachable_pairs": sorted([list(p) for p in result.reachable]),
        "policy_kind": result.policy.kind,
    }
    (out / "structure_report.json").write_text(json.dumps(report, indent=2))
    print(f"solved: value at origin {dp_value:.6f}, "
          f"{len(result.witnesses)} threshold witnesses, artifacts in {out}")
    return 0


def cmd_solve_iid(args) -> int:
    config = load_config(args.config)
    plant = plant_from_config(config)
    if plant.a != 0.0:
        raise ConfigError(
            f"solve-iid requires plant gain a = 0 (got a={plant.a}); "
            "use solve-symmetric for a coupled plant")
    fsm = fsm_from_config(config)
    _indexable("the white-source table (N+1)*m", plant.horizon + 1, fsm.num_states)
    settings_from_config(config)  # checked, though no setting shapes the intervals
    provenance = dps.provenance_hash(plant, fsm)
    out = _out_dir(args)
    table = dp_iid.iid_backward_induction(fsm, plant.sigma2, plant.horizon)
    dp_iid.export_iid_table_csv(table, out / "iid_table.csv")
    export_policy_csv(table.policy(), out / "policy.csv",
                      metadata={"provenance": provenance,
                                "dp_value": repr(table.value_at_start())})
    log = [{"n": n, "q": q, "symmetric_objective": s, "objective": o}
           for n, q, s, o in table.asymmetry_log]
    (out / "asymmetry_log.json").write_text(json.dumps(log, indent=2))
    print(f"solved: value at start {table.value_at_start():.6f}, "
          f"{len(log)} genuinely asymmetric optima, artifacts in {out}")
    return 0


def _sim_count(sim: dict, key: str, default: int) -> int:
    value = sim.get(key, default)
    if not is_number(value, numbers.Integral):
        raise ConfigError(f"sim.{key} must be an integer, got {value!r}")
    return value


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    plant = plant_from_config(config)
    fsm = fsm_from_config(config)
    sim = _section(config, "sim")
    _check_keys("sim", sim, ("trials", "seed"))
    trials = args.trials if args.trials is not None else _sim_count(sim, "trials", 10000)
    seed = args.seed if args.seed is not None else _sim_count(sim, "seed", 0)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise ConfigError(f"seed must lie in [0, 2**128), got {seed}")
    _indexable("the simulator's cost table trials*(N+1)", trials, plant.horizon + 1)
    settings = settings_from_config(config, args.grid_points)
    _grid_table_fits(plant, fsm, settings)  # the provenance hash builds its grid
    where = f"policy {args.policy}"
    policy, meta = _read("policy", load_policy_csv, args.policy)  # its errors name the path
    _read(where, oracle_sim.check_policy_fits, plant, fsm, policy)
    dp_value = _read(where, float, meta["dp_value"]) if "dp_value" in meta else None
    expected = dps.provenance_hash(plant, fsm,
                                   None if policy.kind == "interval_pair" else settings)
    if "provenance" in meta and meta["provenance"] != expected:
        print(f"warning: policy provenance {meta['provenance']} does not match "
              f"config ({expected})", file=sys.stderr)
    summary = oracle_sim.simulate(plant, fsm, policy, trials=trials, seed=seed,
                                  collect_trace=bool(args.trace))
    out = _out_dir(args)
    (out / "sim_summary.json").write_text(json.dumps(summary.to_dict(), indent=2))
    if args.trace:
        oracle_sim.write_trace_csv(summary, out / "trace.csv")
    line = f"empirical total {summary.total:.6f} +/- {summary.total_se:.6f}"
    if dp_value is not None:
        gap = abs(summary.total - dp_value)
        line += f" | solver value {dp_value:.6f} | gap {gap:.6f}"
        if summary.total_se > 0:  # one trial has no standard error
            line += f" ({gap / summary.total_se:.2f} standard errors)"
    print(line)
    return 0


def cmd_export_examples(args) -> int:
    out = _out_dir(args)
    channels = {
        "energy_harvesting.json": {"builder": "energy_harvesting",
                                   "params": {"capacity": 4, "tx_cost": 2, "p_tx": 0.3}},
        "workload_chain.json": {"builder": "workload_chain",
                                "params": {"window": 4,
                                           "drop_probs": [0.1, 0.3, 0.5, 0.7, 0.9]}},
    }
    for name, channel in channels.items():
        cfg = {
            "plant": {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 20},
            "channel": channel,
            "solver": {"grid": {"half_width": "auto", "num_points": 2001},
                       "value_cap": 1e12},
            "sim": {"trials": 100000, "seed": 7},
        }
        (out / name).write_text(json.dumps(cfg, indent=2))
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# verify: bundled property suite
# ---------------------------------------------------------------------------

def _verify_properties(plant: PlantModel, fsm: ch.ChannelFsm, settings: dps.SolverSettings):
    """Yield (name, ok, detail) for each bundled property; the solver's are
    checked on the solve of ``plant`` and ``fsm`` with ``settings``."""
    from .quadrature import GaussianExpectationOperator, is_symmetric_nondecreasing

    rng = np.random.default_rng(20240817)

    grid = ErrorGrid(10.0, 801)
    op = GaussianExpectationOperator(grid, 1.1, 1.0)
    const = op.apply(np.full(grid.num_points, 3.25))
    yield ("expectation operator constant invariance",
           bool(np.max(np.abs(const - 3.25)) < 1e-10), "")

    step_fns = []
    for _ in range(20):
        # keep step edges clear of the tail-fit band so the quadratic
        # extrapolation represents the function being transformed
        steps = np.sort(rng.uniform(0, 0.75 * grid.half_width, size=4))
        levels = np.cumsum(rng.uniform(0, 1, size=5))
        step_fns.append(levels[np.searchsorted(steps, np.abs(grid.points))])
    ok = all(is_symmetric_nondecreasing(grid, h, 1e-8)[0]
             for h in op.apply(np.array(step_fns)))
    yield ("expectation operator preserves symmetric monotone shape", ok, "")
    del op  # the solve below builds its own; the two need not share the peak

    result = dps.solve_and_extract(plant, fsm, settings=settings)
    table = result.table
    structure = dps.check_value_structure(table)
    yield ("check_value_structure", structure.ok,
           f"{len(structure.violations)} violations")
    growth = dps.check_growth_rate_bound(table)
    yield ("check_growth_rate_bound", growth.ok, f"{len(growth.violations)} violations")
    yield ("terminal slice is squared error",
           bool(np.array_equal(table.values[-1, 0], table.grid.points ** 2)), "")
    yield ("threshold extraction at reachable states",
           not result.witnesses, f"{len(result.witnesses)} witnesses")

    ok = True
    detail = ""
    for trial in range(10):
        inst_rng = np.random.default_rng(1000 + trial)
        inst = _random_discrete_instance(inst_rng)
        best, minimizers = oracle_sim.exhaustive_policy_search(inst)
        dp_val, _ = oracle_sim.discrete_dp(inst)
        if abs(best - dp_val) > 1e-12:
            ok = False
            detail = f"instance {trial}: exhaustive {best} vs dp {dp_val}"
            break
        if not any(oracle_sim.minimizer_has_interval_structure(inst, p)
                   for p in minimizers):
            ok = False
            detail = f"instance {trial}: no interval-structured minimizer"
            break
    yield ("oracle agreement on discrete instances", ok, detail)

    sim = oracle_sim.simulate(plant, fsm, result.threshold_policy,
                              trials=20000, seed=11)
    gap = abs(sim.total - table.value_at_origin())
    yield ("solver/simulator agreement",
           bool(gap <= 3.0 * sim.total_se),
           f"gap {gap:.4f} vs 3se {3 * sim.total_se:.4f}")


def _random_discrete_instance(rng) -> oracle_sim.DiscreteInstance:
    """Small symmetric-support instance with a random 2-3 state channel."""
    k = int(rng.integers(1, 3))
    pos = np.sort(rng.uniform(0.3, 2.0, size=k))
    vals = np.concatenate([-pos[::-1], [0.0], pos])
    raw = rng.uniform(0.2, 1.0, size=k + 1)
    probs = np.concatenate([raw[1:][::-1], [raw[0]], raw[1:]])
    probs = probs / probs.sum()
    m = int(rng.integers(2, 4))
    transitions = tuple((int(rng.integers(0, m)), int(rng.integers(0, m)))
                        for _ in range(m))
    drops = tuple(float(p) for p in rng.uniform(0.0, 0.95, size=m))
    fsm = ch.ChannelFsm(m, transitions, drops, initial_state=0,
                        transmit_allowed=tuple(True for _ in range(m)))
    support = tuple((float(v), float(p)) for v, p in zip(vals, probs))
    return oracle_sim.DiscreteInstance(support=support, fsm=fsm,
                                       horizon=int(rng.integers(1, 3)))


def cmd_verify(args) -> int:
    plant, fsm = PlantModel(a=1.1, sigma2=1.0, horizon=8), ch.energy_harvesting_fsm(4, 2, 0.3)
    settings = dps.SolverSettings(num_points=args.grid_points or 801)
    _grid_table_fits(plant, fsm, settings)
    failures = []
    for name, ok, detail in _verify_properties(plant, fsm, settings):
        status = "pass" if ok else "FAIL"
        print(f"{status}: {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)
    if failures:
        print(f"verification failed at: {failures[0]}")
        return 1
    print("all properties verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Transmission-policy synthesis for remote estimation over "
                    "packet-drop channels with transmission-dependent state")
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="simulation seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="simulation trial count")
    parser.add_argument("--grid-points", type=int, default=None,
                        help="override solver grid resolution")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve-symmetric",
                   help="solve the stage-coupled problem on the error grid")
    sub.add_parser("solve-iid", help="solve the white-source interval problem")
    p_sim = sub.add_parser("simulate", help="Monte Carlo run of a saved policy")
    p_sim.add_argument("policy", help="policy CSV produced by a solve command")
    p_sim.add_argument("--trace", action="store_true",
                       help="also write a per-trial trace CSV (large)")
    sub.add_parser("verify", help="run the bundled property suite")
    sub.add_parser("export-examples", help="write the bundled application configs")
    return parser


# Each command's handler and the global flags besides --out that it reads. A
# command that reads --config requires it; any other flag is a usage error.
COMMANDS = {
    "solve-symmetric": (cmd_solve_symmetric, {"config", "grid_points"}),
    "solve-iid": (cmd_solve_iid, {"config"}),
    "simulate": (cmd_simulate, {"config", "seed", "trials", "grid_points"}),
    "verify": (cmd_verify, {"grid_points"}),
    "export-examples": (cmd_export_examples, set()),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, reads = COMMANDS[args.command]
    if "config" in reads and not args.config:
        parser.error(f"{args.command} requires --config")
    for flag in ("config", "seed", "trials", "grid_points"):
        if getattr(args, flag) is not None and flag not in reads:
            parser.error(f"{args.command} takes no --{flag.replace('_', '-')}")
    try:
        if args.grid_points is not None:
            _read("--grid-points", dps.SolverSettings, num_points=args.grid_points)
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dps.SolverOverflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
