"""Spans around the public functions of each remest layer, and the per-layer
metrics computed from them.

The wrappers are installed from the benchmark's own child script
(``child.py``) by rebinding module attributes at run time; the package
source is never edited. A span records its name, start, end, parent span
and trace id (one trace per CLI command). Spans stay in memory and are
written out once, when the command ends.

Metric names ending in ``_self_s`` are self times: span duration minus the
part of it covered by child spans. Other ``_s`` metrics are the full
duration of the named spans, counting only the outermost span when one
nests inside another of the same set. Byte figures marked ``computed`` come
from array sizes, not from hardware counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("quadrature", "dp_symmetric", "dp_iid", "oracle_sim", "policy", "cli")

# Public methods wrapped in addition to each layer's public functions.
METHODS = {
    "quadrature": {"GaussianExpectationOperator": ("__init__", "apply")},
}

OPERATOR_BUILD = "quadrature.GaussianExpectationOperator.__init__"
OPERATOR_APPLY = "quadrature.GaussianExpectationOperator.apply"
CONFIG_LOAD = ("cli.load_config", "cli.plant_from_config",
               "cli.fsm_from_config", "cli.settings_from_config")
ORACLES = ("oracle_sim.exhaustive_policy_search", "oracle_sim.discrete_dp",
           "oracle_sim.minimizer_has_interval_structure")


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    trace_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one single-threaded command."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` wrapped in a span; ``measure(bound_args, result)``
        adds attributes to spans of calls that return."""
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = measure(bound.arguments, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(name, start, end, span_id, parent,
                                       self.trace_id, attrs))

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**d) for d in json.load(fh)]


# --- computed sizes attached to spans ---------------------------------------

def _operator_bytes(args, _result):
    n = args["grid"].num_points
    return {"bytes": 8 * n * n}


def _apply_bytes(args, _result):
    # dense weights read once, the sample vector read and the result written
    n = args["self"].grid.num_points
    return {"bytes": 8 * n * n + 16 * n}


def _file_bytes(args, _result):
    return {"bytes": os.path.getsize(args["path"])}


def _simulate_sizes(args, _result):
    trial_stages = args["trials"] * args["plant"].horizon
    # one float64 noise table and one float64 uniform table
    return {"trial_stages": trial_stages, "draw_bytes": 16 * trial_stages}


def _asymmetric_wins(_args, result):
    return {"wins": len(result.asymmetry_log)}


MEASURES = {
    OPERATOR_BUILD: _operator_bytes,
    OPERATOR_APPLY: _apply_bytes,
    "dp_symmetric.export_value_table_csv": _file_bytes,
    "oracle_sim.simulate": _simulate_sizes,
    "dp_iid.iid_backward_induction": _asymmetric_wins,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind every reference to
    them held by a ``remest`` module (``from .x import f`` copies included)."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"remest.{layer}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, MEASURES.get(name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth),
                                               MEASURES.get(name)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "remest" and not mod_name.startswith("remest."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


# --- span arithmetic ----------------------------------------------------------

def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map (trace_id, span_id) to duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.trace_id, s.parent)].append(s)
    out = {}
    for s in spans:
        key = (s.trace_id, s.span_id)
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[key]]
        out[key] = s.duration - covered_length(clipped)
    return out


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {(s.trace_id, s.span_id): s for s in spans}
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None:
            p = by_id[(s.trace_id, parent)]
            if p.name in names:
                break
            parent = p.parent
        else:
            picked.append(s)
    return picked


def _total(spans, *names) -> float:
    return sum(s.duration for s in _outermost(spans, set(names)))


def _self(spans, selfs, predicate) -> float:
    return sum(selfs[(s.trace_id, s.span_id)] for s in spans if predicate(s.name))


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _attr(spans, name, key):
    return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (name, unit, better); the order is the order of the report
LAYER_METRICS = (
    ("quadrature.operator_build_s", "s", "lower"),
    ("quadrature.operator_builds", "count", "lower"),
    ("quadrature.apply_s", "s", "lower"),
    ("quadrature.apply_calls", "count", "lower"),
    ("quadrature.operator_mb_computed", "MB", "lower"),
    ("quadrature.apply_gb_computed", "GB", "lower"),
    ("quadrature.apply_gb_per_s", "GB/s", "higher"),
    ("quadrature.shape_check_s", "s", "lower"),
    ("dp_symmetric.backward_induction_self_s", "s", "lower"),
    ("dp_symmetric.extract_self_s", "s", "lower"),
    ("dp_symmetric.structure_check_s", "s", "lower"),
    ("dp_symmetric.growth_check_s", "s", "lower"),
    ("dp_symmetric.value_csv_s", "s", "lower"),
    ("dp_symmetric.value_csv_mb", "MB", "lower"),
    ("policy.extract_threshold_s", "s", "lower"),
    ("policy.extract_threshold_calls", "count", "lower"),
    ("policy.decide_many_s", "s", "lower"),
    ("policy.csv_write_s", "s", "lower"),
    ("policy.csv_load_s", "s", "lower"),
    ("oracle_sim.simulate_self_s", "s", "lower"),
    ("oracle_sim.trial_stages_per_s", "1/s", "higher"),
    ("oracle_sim.draw_table_mb_computed", "MB", "lower"),
    ("oracle_sim.oracle_s", "s", "lower"),
    ("dp_iid.optimize_interval_s", "s", "lower"),
    ("dp_iid.optimize_interval_calls", "count", "lower"),
    ("dp_iid.optimize_symmetric_s", "s", "lower"),
    ("dp_iid.optimize_symmetric_calls", "count", "lower"),
    ("dp_iid.asymmetric_win_ratio", "ratio", "higher"),
    ("dp_iid.backward_induction_self_s", "s", "lower"),
    ("dp_iid.csv_s", "s", "lower"),
    ("cli.config_load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)


def layer_metrics(spans) -> dict:
    """Every LAYER_METRICS value for the spans of one pass; idle layers read 0."""
    selfs = self_times(spans)
    apply_s = _total(spans, OPERATOR_APPLY)
    apply_gb = sum(_attr(spans, OPERATOR_APPLY, "bytes")) / 1e9
    simulate_s = _total(spans, "oracle_sim.simulate")
    sym_calls = _count(spans, "dp_iid.optimize_symmetric_threshold")
    values = {
        "quadrature.operator_build_s": _total(spans, OPERATOR_BUILD),
        "quadrature.operator_builds": _count(spans, OPERATOR_BUILD),
        "quadrature.apply_s": apply_s,
        "quadrature.apply_calls": _count(spans, OPERATOR_APPLY),
        "quadrature.operator_mb_computed":
            sum(_attr(spans, OPERATOR_BUILD, "bytes")) / 1e6,
        "quadrature.apply_gb_computed": apply_gb,
        "quadrature.apply_gb_per_s": _ratio(apply_gb, apply_s),
        "quadrature.shape_check_s": _total(spans, "quadrature.is_symmetric_nondecreasing"),
        "dp_symmetric.backward_induction_self_s":
            _self(spans, selfs, lambda n: n == "dp_symmetric.backward_induction"),
        "dp_symmetric.extract_self_s":
            _self(spans, selfs, lambda n: n == "dp_symmetric.solve_and_extract"),
        "dp_symmetric.structure_check_s": _total(spans, "dp_symmetric.check_value_structure"),
        "dp_symmetric.growth_check_s": _total(spans, "dp_symmetric.check_growth_rate_bound"),
        "dp_symmetric.value_csv_s": _total(spans, "dp_symmetric.export_value_table_csv"),
        "dp_symmetric.value_csv_mb":
            sum(_attr(spans, "dp_symmetric.export_value_table_csv", "bytes")) / 1e6,
        "policy.extract_threshold_s": _total(spans, "policy.extract_threshold"),
        "policy.extract_threshold_calls": _count(spans, "policy.extract_threshold"),
        "policy.decide_many_s": _total(spans, "policy.decide_many"),
        "policy.csv_write_s": _total(spans, "policy.export_policy_csv"),
        "policy.csv_load_s": _total(spans, "policy.load_policy_csv"),
        "oracle_sim.simulate_self_s":
            _self(spans, selfs, lambda n: n == "oracle_sim.simulate"),
        "oracle_sim.trial_stages_per_s":
            _ratio(sum(_attr(spans, "oracle_sim.simulate", "trial_stages")), simulate_s),
        "oracle_sim.draw_table_mb_computed":
            max(_attr(spans, "oracle_sim.simulate", "draw_bytes"), default=0) / 1e6,
        "oracle_sim.oracle_s": _total(spans, *ORACLES),
        "dp_iid.optimize_interval_s": _total(spans, "dp_iid.optimize_interval"),
        "dp_iid.optimize_interval_calls": _count(spans, "dp_iid.optimize_interval"),
        "dp_iid.optimize_symmetric_s":
            _total(spans, "dp_iid.optimize_symmetric_threshold"),
        "dp_iid.optimize_symmetric_calls": sym_calls,
        "dp_iid.asymmetric_win_ratio":
            _ratio(sum(_attr(spans, "dp_iid.iid_backward_induction", "wins")), sym_calls),
        "dp_iid.backward_induction_self_s":
            _self(spans, selfs, lambda n: n == "dp_iid.iid_backward_induction"),
        "dp_iid.csv_s": _total(spans, "dp_iid.export_iid_table_csv"),
        "cli.config_load_s": _total(spans, *CONFIG_LOAD),
        "cli.self_s": _self(spans, selfs,
                            lambda n: n.startswith("cli.") and n not in CONFIG_LOAD),
    }
    return values
