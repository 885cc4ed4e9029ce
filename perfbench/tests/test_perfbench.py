"""Tests of the benchmark's own code: span arithmetic, the output gate, the
metric and workload names, and the seed plumbing.

Run with: python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference():
    return json.loads((BENCH / "reference.json").read_text())


# --- span arithmetic ------------------------------------------------------------

def test_covered_length_merges_overlaps_and_gaps():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert tracing.covered_length([(4, 4), (3, 2)]) == 0.0


def test_self_time_on_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, 0, None, "t"),
        Span("dp_symmetric.backward_induction", 1.0, 7.0, 1, 0, "t"),
        Span(tracing.OPERATOR_BUILD, 1.5, 2.5, 2, 1, "t"),
        Span(tracing.OPERATOR_APPLY, 3.0, 4.0, 3, 1, "t"),
        Span(tracing.OPERATOR_APPLY, 4.0, 5.5, 4, 1, "t"),
        Span("cli.load_config", 8.0, 8.5, 5, 0, "t"),
        # same ids in another trace must not be mixed in
        Span("cli.main", 0.0, 1.0, 0, None, "u"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[("t", 0)] == pytest.approx(10.0 - 6.0 - 0.5)
    assert selfs[("t", 1)] == pytest.approx(6.0 - 1.0 - 2.5)
    assert selfs[("t", 2)] == pytest.approx(1.0)
    assert selfs[("u", 0)] == pytest.approx(1.0)

    m = tracing.layer_metrics(spans)
    assert m["dp_symmetric.backward_induction_self_s"] == pytest.approx(2.5)
    assert m["quadrature.apply_s"] == pytest.approx(2.5)
    assert m["quadrature.apply_calls"] == 2
    assert m["quadrature.operator_builds"] == 1
    assert m["cli.config_load_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(3.5 + 1.0)
    assert m["oracle_sim.simulate_self_s"] == 0.0


def test_child_spans_clipped_to_parent():
    spans = [Span("a", 0.0, 2.0, 0, None, "t"), Span("b", 1.0, 3.0, 1, 0, "t")]
    assert tracing.self_times(spans)[("t", 0)] == pytest.approx(1.0)


def test_nested_spans_of_one_set_are_counted_once():
    names = tracing.ORACLES
    spans = [Span(names[2], 0.0, 4.0, 0, None, "t"),
             Span(names[2], 1.0, 2.0, 1, 0, "t"),
             Span(names[0], 5.0, 6.0, 2, None, "t")]
    assert tracing.layer_metrics(spans)["oracle_sim.oracle_s"] == pytest.approx(5.0)


def test_layer_metrics_cover_every_declared_name():
    metrics = tracing.layer_metrics([])
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]


def test_traced_child_records_nested_layer_spans(tmp_path):
    cfg = copy.deepcopy(wl.PRESETS["energy_harvesting"])
    cfg["plant"]["horizon"] = 3
    cfg["solver"]["grid"]["num_points"] = 101
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spans_path), "trace0",
         "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
         "solve-symmetric"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = tracing.load_spans(spans_path)
    by_id = {s.span_id: s for s in spans}
    assert {s.trace_id for s in spans} == {"trace0"}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    # extract_threshold is imported by name into dp_symmetric: the rebinding
    # must reach that copy too
    extracts = [s for s in spans if s.name == "policy.extract_threshold"]
    assert len(extracts) == 3 * 5
    assert "dp_symmetric.solve_and_extract" in ancestors(extracts[0])
    builds = [s for s in spans if s.name == tracing.OPERATOR_BUILD]
    assert len(builds) == 2
    assert builds[0].attrs["bytes"] == 8 * 101 * 101
    m = tracing.layer_metrics(spans)
    assert m["quadrature.apply_calls"] == 3 * 5 + 4 * 5
    assert m["dp_symmetric.value_csv_mb"] == pytest.approx(
        (tmp_path / "out" / "value_table.csv").stat().st_size / 1e6)
    for s in spans:
        assert s.start <= s.end


# --- the output gate ------------------------------------------------------------

def _cmd(workload, key):
    for cmd in wl.prep_commands(workload, Path("in")) + wl.pass_commands(
            workload, 0, Path("in"), Path("out")):
        if cmd.key == key:
            return cmd
    raise KeyError(key)


def test_gate_passes_reference_and_flags_corrupted_values():
    ref = _reference()["preset_solve"]["solve-symmetric:energy_harvesting"]
    cmd = _cmd("preset_solve", "solve-symmetric:energy_harvesting")
    assert wl.check(cmd, dict(ref), ref, seed=0) == []

    corrupted = dict(ref, dp_value=ref["dp_value"] * (1 + 1e-9))
    assert wl.check(cmd, corrupted, ref, seed=0)
    within = dict(ref, dp_value=ref["dp_value"] * (1 + 1e-13))
    assert wl.check(cmd, within, ref, seed=0) == []
    for key, bad in (("witnesses", 1), ("structure_ok", False),
                     ("growth_bound_ok", False), ("value_csv_rows", 200099)):
        assert wl.check(cmd, dict(ref, **{key: bad}), ref, seed=0), key

    # a corrupted reference is flagged just the same
    assert wl.check(cmd, dict(ref), dict(ref, asymmetric_fits=3), seed=0)


def test_gate_simulator_bit_for_bit_at_recorded_seed():
    ref = _reference()["monte_carlo"]["simulate:white_chain"]
    cmd = _cmd("monte_carlo", "simulate:white_chain")
    total = ref["totals"]["0"]
    obs = {"total": total, "total_se": 0.0026, "trials": ref["trials"],
           "dp_value": 4.625689966632462}
    assert wl.check(cmd, obs, ref, seed=0) == []
    nudged = dict(obs, total=total + 1e-15 * total)
    assert nudged["total"] != total
    assert wl.check(cmd, nudged, ref, seed=0)
    assert wl.check(cmd, dict(obs, trials=10), ref, seed=0)


def test_gate_simulator_within_standard_errors_elsewhere():
    ref = _reference()["monte_carlo"]["simulate:white_chain"]
    cmd = _cmd("monte_carlo", "simulate:white_chain")
    unrecorded = 987654
    assert str(unrecorded) not in ref["totals"]
    obs = {"total": 4.63, "total_se": 0.0026, "trials": ref["trials"],
           "dp_value": 4.625689966632462}
    assert wl.check(cmd, obs, ref, seed=unrecorded) == []
    assert wl.check(cmd, dict(obs, total=4.64), ref, seed=unrecorded)


def test_every_command_has_a_reference_entry():
    reference = _reference()
    for workload in wl.WORKLOADS:
        cmds = wl.prep_commands(workload, Path("in")) + wl.pass_commands(
            workload, 0, Path("in"), Path("out"))
        assert {c.key for c in cmds} == set(reference[workload])


# --- names and seed plumbing ----------------------------------------------------

def test_metric_and_workload_names():
    bench = _benchmark()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert tuple(w["name"] for w in bench["workloads"]) == wl.WORKLOADS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    declared = [(n, u, b) for n, u, b in (*tracing.LAYER_METRICS, run.TRACE_OVERHEAD)]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == declared


def test_seed_reaches_simulate_seed_flag():
    for workload in ("preset_solve", "monte_carlo"):
        sims = [c for c in wl.pass_commands(workload, 4242, Path("in"), Path("out"))
                if c.kind == "simulate"]
        assert sims
        for cmd in sims:
            i = cmd.args.index("--seed")
            assert cmd.args[i + 1] == "4242"
            assert i < cmd.args.index("simulate")


def test_same_seed_same_inputs(tmp_path):
    for workload in wl.WORKLOADS:
        for side in ("a", "b"):
            wl.write_inputs(workload, tmp_path / side / workload)
        a = sorted((tmp_path / "a" / workload).iterdir())
        b = sorted((tmp_path / "b" / workload).iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))
        assert (wl.pass_commands(workload, 3, Path("i"), Path("o"))
                == wl.pass_commands(workload, 3, Path("i"), Path("o")))
