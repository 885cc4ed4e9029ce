"""One-field mutations of small run configs, through the command line.

Every JSON path of three small configs (the two bundled channels and an
inline FSM with a masked state, at horizon 5 on 101 points with 1,000
trials) is set, one path at a time, to each of 21 values: 0, +-1, 2, 0.5,
1e-300, 5e-324, 1e300, +-1e308, NaN, inf, 2**63, 10**30, true, null, "x",
[], [1], {} and 1.0000000001. Each mutated config runs ``solve-symmetric``,
``solve-iid`` and ``simulate`` (of the unmutated config's policy) through
``remest.cli.main`` in this process. Each command must exit 0 or 2, and on
exit 2 write exactly one line to stderr and no artifact. The mutations are
enumerated, not sampled, so every run checks the same cases.

The cases take minutes, so they are not tier-1 tests (``testpaths`` leaves
this directory out). Run them with ``python -m pytest -q fuzz``.
"""

import json
import math

import pytest

from remest.cli import main

PLANT = {"a": 1.1, "sigma2": 1.0, "x0": 0.0, "horizon": 5}
SETTINGS = {"solver": {"grid": {"half_width": "auto", "num_points": 101}, "value_cap": 1e12},
            "sim": {"trials": 1000, "seed": 7}}
CONFIGS = {
    "energy": {"plant": PLANT, "channel": {
        "builder": "energy_harvesting", "params": {"capacity": 4, "tx_cost": 2, "p_tx": 0.3}},
        **SETTINGS},
    "workload": {"plant": PLANT, "channel": {
        "builder": "workload_chain",
        "params": {"window": 4, "drop_probs": [0.1, 0.3, 0.5, 0.7, 0.9]}}, **SETTINGS},
    "inline": {"plant": PLANT, "channel": {"fsm": {
        "num_states": 2, "transitions": [[0, 1], [1, None]], "drop_probs": [0.2, 1.0],
        "initial_state": 0, "transmit_allowed": [True, False]}}, **SETTINGS},
}

VALUES = {"0": 0, "1": 1, "-1": -1, "2": 2, "0.5": 0.5, "1e-300": 1e-300, "5e-324": 5e-324,
          "1e300": 1e300, "1e308": 1e308, "-1e308": -1e308, "nan": math.nan, "inf": math.inf,
          "2**63": 2 ** 63, "10**30": 10 ** 30, "true": True, "null": None, "x": "x",
          "[]": [], "[1]": [1], "{}": {}, "1.0000000001": 1.0000000001}


def paths(node, prefix=()):
    """Every key and index path below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def mutated(config, path, value):
    config = json.loads(json.dumps(config))  # a deep copy
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


CASES = [pytest.param(name, path, value, id=f"{name}-{'.'.join(map(str, path))}-{label}")
         for name, config in CONFIGS.items() for path in paths(config)
         for label, value in VALUES.items()]


@pytest.fixture(scope="module")
def policies(tmp_path_factory):
    """The policy CSV of each unmutated config's grid solve."""
    out = {}
    for name, config in CONFIGS.items():
        run = tmp_path_factory.mktemp(name)
        (run / "config.json").write_text(json.dumps(config))
        assert main(["--config", str(run / "config.json"), "--out", str(run),
                     "solve-symmetric"]) == 0
        out[name] = run / "policy.csv"
    return out


@pytest.mark.parametrize("name, path, value", CASES)
def test_mutated_config_exits_0_or_2(tmp_path, capsys, policies, name, path, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mutated(CONFIGS[name], path, value)))
    for command in (["solve-symmetric"], ["solve-iid"], ["simulate", str(policies[name])]):
        out = tmp_path / command[0]
        code = main(["--config", str(config), "--out", str(out)] + command)
        err = capsys.readouterr().err
        assert code in (0, 2), (command[0], code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith(("error: ", "solver error: ")), \
                (command[0], err)
            assert not out.exists() or not any(out.iterdir()), command[0]
