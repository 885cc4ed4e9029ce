"""Backward induction for the symmetric-policy transmission problem.

The solver works on the coupled state (estimation error, channel state).
One stage of the recursion, for error e observed at decision time in
channel state q with drop probability p, compares

    C0(e, q) = e^2 + E[V'(a e + W, q0)]                    (stay silent)
    C1(e, q) = p e^2 + p E[V'(a e + W, q1)]
             + (1 - p) E[V'(W, q1)]                        (transmit)

where q0, q1 are the silent/transmit successors and V' is the next-stage
value. The value is the pointwise minimum with ties resolved to staying
silent, the terminal slice is the squared error itself, and masked channel
states are forced silent. Gaussian expectations run through one
:class:`~remest.quadrature.GaussianExpectationOperator`, built per solve and
applied once per stage to all channel states. The value table keeps those
smoothed slices E[V(a e + W, q)], so the growth check reads them instead of
smoothing the values again. A stage's C0, C1, transmit set and V are
closed-form in them, so beside the operator's band the recursion keeps only
those and one value slice, and derives the other four tables once the band
is freed: a solve's peak is the band plus one table, or the five tables.

The module also houses the structure checks: symmetry/monotonicity of every
value slice, the linear-in-horizon bound on difference quotients of the
smoothed values, and the closed-form drop-probability margin under which
symmetric optima are guaranteed to be threshold rules.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .channel import ChannelFsm, reachable_pairs
from . import workers
from .policy import TransmitPolicy, _block_text, _write_texts, extract_threshold
from .process import PlantModel, is_number
from .quadrature import (ErrorGrid, GaussianExpectationOperator, SolverOverflowError,
                         is_symmetric_nondecreasing)


# Fewer grid points leave no difference quotient between the grid's center
# and the boundary band that check_growth_rate_bound excludes.
MIN_GRID_POINTS = 5


@dataclass(frozen=True)
class SolverSettings:
    """Grid sizing and overflow guard for the grid solver. Construction builds
    the grid the settings describe (half-width 1.0 for ``"auto"``), which checks
    both grid fields; the settings check ``"auto"``, ``MIN_GRID_POINTS`` and the cap."""

    half_width: object = "auto"  # "auto" or a positive number, kept as a float
    num_points: int = 2001
    value_cap: float = 1e12

    def __post_init__(self):
        auto = isinstance(self.half_width, str)
        if auto and self.half_width != "auto":
            raise ValueError(f"half_width must be 'auto' or a number, got {self.half_width!r}")
        grid = ErrorGrid(1.0 if auto else self.half_width, self.num_points)
        object.__setattr__(self, "half_width", "auto" if auto else grid.half_width)
        if self.num_points < MIN_GRID_POINTS:
            raise ValueError(f"num_points must be >= {MIN_GRID_POINTS} for the growth "
                             f"check, got {self.num_points}")
        if not (is_number(self.value_cap) and 0 < self.value_cap < math.inf):
            raise ValueError(f"value_cap must be positive and finite, got {self.value_cap!r}")
        object.__setattr__(self, "value_cap", float(self.value_cap))

    def make_grid(self, plant: PlantModel) -> ErrorGrid:
        if self.half_width == "auto":
            return ErrorGrid.auto(plant.a, plant.sigma2, plant.horizon,
                                  num_points=self.num_points)
        return ErrorGrid(self.half_width, self.num_points)

    def to_dict(self) -> dict:
        return {"grid": {"half_width": self.half_width, "num_points": self.num_points},
                "value_cap": self.value_cap}


def provenance_hash(plant: PlantModel, fsm: ChannelFsm,
                    settings: Optional[SolverSettings] = None) -> str:
    """Stable digest of everything that determines a solver's output: the
    plant and the channel, and for the grid solver its ``settings`` with the
    grid they resolve for ``plant`` (the white-source solver takes none)."""
    blob = {"plant": asdict(plant), "fsm": asdict(fsm)}
    if settings is not None:
        blob.update(settings=settings.to_dict(), grid=asdict(settings.make_grid(plant)))
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ValueTable:
    """Solved value functions and action costs on the error grid.

    ``values[s, q]`` is the stage-(s+1) value slice, s = 0..N (the last
    slice is the terminal squared error). ``cost_wait`` / ``cost_send``
    cover stages 1..N; ``cost_send`` is NaN at masked states where
    transmitting is undefined. ``transmit[s, q, i]`` is the optimal
    decision indicator (strict improvement required, so ties stay silent);
    ``values[:N]`` is ``np.where(transmit, cost_send, cost_wait)`` bit for bit.
    ``smoothed[s, q]`` is the Gaussian smoothing E[V(a e + W)] of
    ``values[s, q]``: the expectations backward induction took of every
    next-stage slice, plus one of the stage-1 slices. The growth check reads
    it, and the other four arrays are derived from it. The five arrays are
    read-only; corrupt a copy for a defect test.
    """

    grid: ErrorGrid
    values: np.ndarray
    smoothed: np.ndarray
    cost_wait: np.ndarray
    cost_send: np.ndarray
    transmit: np.ndarray
    plant: PlantModel
    fsm: ChannelFsm
    provenance: str

    def __post_init__(self):
        for arr in (self.values, self.smoothed, self.cost_wait, self.cost_send,
                    self.transmit):
            arr.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.plant.horizon

    def value_at_origin(self) -> float:
        """Optimal cost from zero initial error in the initial channel state."""
        return float(self.values[0, self.fsm.initial_state, self.grid.center_index])

    def near_ties(self) -> list:
        """The sorted [n, q, e] of transmit-allowed states where the actions
        nearly tie, |C1 - C0| < 1e-9 |C0| (C1 is NaN, never close, if masked).
        One stage at a time, so the temporaries stay one stage."""
        x, ties = self.grid.points.tolist(), []
        for s, (c0, c1) in enumerate(zip(self.cost_wait, self.cost_send)):
            close = (np.abs(c1 - c0) < 1e-9 * np.abs(c0)) & self.fsm.allowed[:, None]
            ties += [[s + 1, q, x[i]] for q, i in np.argwhere(close).tolist()]
        return ties


def backward_induction(plant: PlantModel, fsm: ChannelFsm,
                       settings: SolverSettings = SolverSettings()) -> ValueTable:
    """Solve the symmetric-policy recursion on the grid ``settings`` resolves
    for ``plant``.

    Returns the value table, whose ``transmit`` is the optimal gridded
    policy. Raises :class:`SolverOverflowError` when any value exceeds the
    cap, which signals that the grid half-width is too small for the
    instance, and before any work when the operator refuses the gain,
    variance and grid as outside the float range, or the five tables or the
    band pass the host's memory (:class:`workers.PastMemoryError`).

    The recursion holds the operator's band beside the smoothed table and
    one value slice, and checks each stage against the cap; once the band is
    freed, the same stage step fills the other four tables stage by stage.
    """
    grid = settings.make_grid(plant)
    m, n_stages, n, center = fsm.num_states, plant.horizon, grid.num_points, grid.center_index
    # smoothed and values, (N+1)*m*n floats; cost_wait, cost_send, transmit, N*m*n (bools)
    workers.refuse_past_memory(f"the grid solver's tables at (N, m, n) = ({n_stages}, {m}, {n})",
                               (16 * (n_stages + 1) + 17 * n_stages) * m * n)
    op = GaussianExpectationOperator(grid, plant.a, plant.sigma2)
    x_sq = grid.points ** 2
    q0, q1 = fsm.successor.T
    p = fsm.drop[:, None]
    tie = np.flatnonzero(q0 == q1)  # an exact tie at e = 0, which must stay silent

    def stage(h):
        """(C0, C1, transmit, V) of one stage from the smoothed next-stage slices h."""
        c0 = x_sq + h[q0]
        reset = h[q1, center]
        c1 = p * (x_sq + h[q1]) + (1.0 - p) * reset[:, None]
        c1[tie, center] = reset[tie]
        c1[~fsm.allowed] = np.nan
        send = c1 < c0
        return c0, c1, send, np.where(send, c1, c0)

    smoothed = np.empty((n_stages + 1, m, n))
    v = np.tile(x_sq, (m, 1))
    for s in range(n_stages - 1, -1, -1):
        smoothed[s + 1] = op.apply(v)
        v = stage(smoothed[s + 1])[3]
        worst = np.max(np.abs(v))
        if not worst <= settings.value_cap:  # growth; the operator refuses what overflows
            raise SolverOverflowError(
                f"stage {s + 1}: value magnitude {worst:.3g} exceeds cap "
                f"{settings.value_cap:.3g}; widen the grid")
    smoothed[0] = op.apply(v)
    del op, v  # the band is freed before the four derived tables are allocated

    values = np.empty_like(smoothed)
    values[n_stages] = x_sq
    cost_wait = np.empty((n_stages, m, n))
    cost_send = np.empty_like(cost_wait)
    transmit = np.empty(cost_wait.shape, dtype=bool)
    for s in range(n_stages):  # one stage at a time, so its temporaries stay one stage
        cost_wait[s], cost_send[s], transmit[s], values[s] = stage(smoothed[s + 1])

    return ValueTable(grid=grid, values=values, smoothed=smoothed,
                      cost_wait=cost_wait, cost_send=cost_send,
                      transmit=transmit, plant=plant, fsm=fsm,
                      provenance=provenance_hash(plant, fsm, settings))


@dataclass
class StructureViolation:
    n: int
    q: int
    kind: str
    e: float
    magnitude: float


@dataclass
class StructureReport:
    ok: bool
    violations: List[StructureViolation]


# Relative tolerance of check_value_structure, scaled by each slice's range.
STRUCTURE_TOL = 1e-8


def check_value_structure(table: ValueTable) -> StructureReport:
    """Verify each value slice is symmetric, non-decreasing in |e|, and
    minimized at e = 0.

    The tolerance is ``STRUCTURE_TOL`` times each slice's value range.
    Violations are reported per (stage, state) with the offending grid
    point; a NaN or infinite sample is one (kind "non-finite").
    """
    violations = []
    center = table.grid.center_index
    for s in range(table.values.shape[0]):
        for q in range(table.fsm.num_states):
            slice_vals = table.values[s, q]
            low = float(slice_vals.min())  # a Python float: -inf + inf is NaN, not a warning
            tol_abs = STRUCTURE_TOL * max(float(slice_vals.max()) - low, 1e-30)
            ok, viol = is_symmetric_nondecreasing(table.grid, slice_vals, tol_abs)
            if not ok:
                violations.append(StructureViolation(
                    s + 1, q, viol.kind, viol.e, viol.magnitude))
            if slice_vals[center] > low + tol_abs:
                violations.append(StructureViolation(
                    s + 1, q, "argmin not at zero",
                    float(table.grid.points[int(np.argmin(slice_vals))]),
                    float(slice_vals[center]) - low))
    return StructureReport(ok=not violations, violations=violations)


def growth_rate_bounds(plant: PlantModel) -> np.ndarray:
    """Stage-indexed bound 2 a^2 (N + 1 - n) + a^2 on the difference
    quotients of smoothed values, n = 1..N+1."""
    n = np.arange(1, plant.horizon + 2)
    return 2.0 * plant.a ** 2 * (plant.horizon + 1 - n) + plant.a ** 2


@dataclass
class GrowthRateReport:
    ok: bool
    bounds: np.ndarray
    max_quotient: np.ndarray  # per (stage, state)
    violations: List[Tuple[int, int, float, float]]  # (n, q, quotient, bound)
    slack: float  # allowance above each bound


# Outer fraction of grid points left out of the growth check: there the
# quadratic tail extrapolation, not the solved values, dominates.
GROWTH_BOUNDARY_FRACTION = 0.1


def check_growth_rate_bound(table: ValueTable) -> GrowthRateReport:
    """Check the difference quotients of smoothed value slices against the
    linear-in-horizon bound.

    For each stage n and state q the smoothed value slice h = E[V(a e + W)]
    (``table.smoothed``) has its forward difference quotient with respect
    to e^2 evaluated at every nonnegative grid point outside the boundary
    band (the outer ``GROWTH_BOUNDARY_FRACTION`` of points). Quotients must
    stay below the stage bound plus a slack of ten grid spacings; NaN fails.
    """
    grid = table.grid
    slack = 10.0 * grid.spacing
    bounds = growth_rate_bounds(table.plant)
    center = grid.center_index
    last = grid.num_points - 1 - max(1, int(grid.num_points * GROWTH_BOUNDARY_FRACTION))
    x = grid.points
    denom = x[center + 1:last + 1] ** 2 - x[center:last] ** 2
    h = table.smoothed
    with np.errstate(invalid="ignore"):  # inf - inf in a corrupt table; the NaN fails below
        max_quotient = ((h[..., center + 1:last + 1] - h[..., center:last]) / denom).max(axis=-1)
    violations = [(int(s) + 1, int(q), float(max_quotient[s, q]), float(bounds[s]))
                  for s, q in zip(*np.nonzero(~(max_quotient <= bounds[:, None] + slack)))]
    return GrowthRateReport(ok=not violations, bounds=bounds, max_quotient=max_quotient,
                            violations=violations, slack=slack)


def threshold_optimality_condition(plant: PlantModel, fsm: ChannelFsm):
    """Closed-form drop-probability margin for guaranteed threshold optima.

    Returns ``(v, threshold, satisfied)`` with ``v = 2 a^2 N + a^2`` (the
    stage-1 growth bound) and ``threshold = 1 / (1 + v)``. When every
    unmasked state drops with probability below the threshold, the optimal
    symmetric policy is a threshold rule at every (stage, state).
    """
    v = float(growth_rate_bounds(plant)[0])
    threshold = 1.0 / (1.0 + v)
    satisfied = bool(np.all(fsm.drop[fsm.allowed] < threshold))
    return v, threshold, satisfied


@dataclass
class ExtractionResult:
    table: ValueTable
    gridded_policy: TransmitPolicy
    threshold_policy: TransmitPolicy
    witnesses: List[Tuple[int, int, Tuple[float, float, float]]]
    asymmetric: List[Tuple[int, int]]  # interval fits that failed symmetry
    reachable: set

    @property
    def policy(self) -> TransmitPolicy:
        """The policy to export: the threshold policy, or the gridded one when
        a reachable (stage, state) has a witness or an asymmetric fit."""
        failed = {(n, q) for n, q, _ in self.witnesses}.union(self.asymmetric)
        return self.gridded_policy if failed & self.reachable else self.threshold_policy


def solve_and_extract(plant: PlantModel, fsm: ChannelFsm,
                      settings: SolverSettings = SolverSettings()) -> ExtractionResult:
    """Solve, then fit a symmetric threshold at every (stage, state).

    Masked states and never-transmit slices get the tau = +inf sentinel.
    Structure failures are collected as witnesses rather than raised; the
    returned threshold policy uses the fitted tau where extraction
    succeeded and the sentinel elsewhere, and ``result.policy`` falls back
    to the gridded policy when that matters at a reachable pair. A fit is
    symmetric when |tau_lo + tau_hi| is at most one grid spacing.
    """
    table = backward_induction(plant, fsm, settings=settings)
    intervals, witness_points = extract_threshold(table.grid, table.transmit)
    lo, hi = intervals[..., 0], intervals[..., 1]
    with np.errstate(invalid="ignore"):  # -inf + inf at never-transmit slices
        symmetric = (lo == -hi) | (np.abs(lo + hi) <= table.grid.spacing * (1 + 1e-9))
    tau = np.where(symmetric, 0.5 * (hi - lo), math.inf)
    broken = np.isnan(lo)
    return ExtractionResult(
        table=table,
        gridded_policy=TransmitPolicy.gridded(table.grid, table.transmit),
        threshold_policy=TransmitPolicy.symmetric(tau),
        witnesses=[(s + 1, q, tuple(witness_points[s, q].tolist()))
                   for s, q in np.argwhere(broken).tolist()],
        asymmetric=[(s + 1, q) for s, q in np.argwhere(~broken & ~symmetric).tolist()],
        reachable=reachable_pairs(fsm, plant.horizon))


# The value CSV's stages are formatted in workers.count(values //
# FORMAT_ENTRIES) worker processes, at most one per stage; below about this
# many values a pool's start costs more than its share of the work saves.
FORMAT_ENTRIES = 50_000


def export_value_table_csv(table: ValueTable, path):
    """Plot-ready dump: one row (n, q, e, V, C0, C1, transmit) per grid point.

    Each stage is one task of :func:`_stage_text`: its index, the grid
    points' strings and its C0, C1 and transmit slices. Formatting holds the
    GIL, so the tasks are mapped over ``workers.count(min(values.size //
    FORMAT_ENTRIES, horizon))`` forked processes and written in stage order:
    the bytes do not depend on the count. With one, without ``os.fork`` or
    from Python 3.12 on, this process maps them and starts none.
    """
    header = ("n", "q", "e", "V", "C0", "C1", "transmit")
    metadata = {"provenance": table.provenance}
    e = ",".join(map(repr, table.grid.points.tolist()))  # one string pickles fastest
    tasks = [(s, e, table.cost_wait[s], table.cost_send[s], table.transmit[s])
             for s in range(table.horizon)]
    processes = workers.count(min(table.values.size // FORMAT_ENTRIES, table.horizon))
    # Fork only before Python 3.12: from 3.12 on os.fork warns in any
    # multi-threaded process, OpenBLAS's threads make every numpy process one,
    # and pyproject.toml turns that warning into a test error.
    if processes > 1 and hasattr(os, "fork") and sys.version_info < (3, 12):
        import multiprocessing  # deferred: importing the CLI skips them
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(processes,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            _write_texts(path, header, metadata, pool.map(_stage_text, tasks))
    else:
        _write_texts(path, header, metadata, map(_stage_text, tasks))


def _stage_text(task):
    """The CSV rows of stage s + 1 from its task (s, the grid points' strings
    joined by commas, C0[s], C1[s], transmit[s])."""
    s, e, c0, c1, transmit = task
    e = e.split(",")
    unique = {c.tobytes(): c for c in (*c0, *c1)}
    text = {k: np.array(list(map(repr, c.tolist())), dtype=object) for k, c in unique.items()}
    rows = []
    for q, t in enumerate(transmit):
        s0, s1 = text[c0[q].tobytes()], text[c1[q].tobytes()]
        rows.append(_block_text((str(s + 1), str(q), e, np.where(t, s1, s0).tolist(),
                                 s0.tolist(), s1.tolist(), t)))
    return "".join(rows)
