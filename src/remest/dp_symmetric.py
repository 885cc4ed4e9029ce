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
smoothing the values again.

The module also houses the structure checks: symmetry/monotonicity of every
value slice, the linear-in-horizon bound on difference quotients of the
smoothed values, and the closed-form drop-probability margin under which
symmetric optima are guaranteed to be threshold rules.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .channel import ChannelFsm, fsm_to_dict, reachable_pairs
from .policy import TransmitPolicy, extract_threshold, write_csv
from .process import PlantModel, is_number, plant_to_dict
from .quadrature import (ErrorGrid, GaussianExpectationOperator,
                         is_symmetric_nondecreasing)


class SolverOverflowError(RuntimeError):
    """Values exceeded the configured cap; the grid half-width is too small
    for the gain-to-the-horizon growth of the instance."""


# Fewer grid points leave no difference quotient between the grid's center
# and the boundary band that check_growth_rate_bound excludes.
MIN_GRID_POINTS = 5


@dataclass(frozen=True)
class SolverSettings:
    """Grid sizing and overflow guard for the grid solver. Construction
    checks the grid :meth:`make_grid` will build and the cap."""

    half_width: object = "auto"  # "auto" or a positive float
    num_points: int = 2001
    value_cap: float = 1e12

    def __post_init__(self):
        if not is_number(self.num_points, numbers.Integral):
            raise ValueError(f"num_points must be an integer, got {self.num_points!r}")
        if self.num_points < MIN_GRID_POINTS:
            raise ValueError(f"num_points must be >= {MIN_GRID_POINTS} for the growth "
                             f"check, got {self.num_points}")
        if self.num_points % 2 == 0:
            raise ValueError(f"num_points must be odd, got {self.num_points}")
        if (hw := self.half_width) != "auto":
            if not (is_number(hw) and 0 < hw < math.inf):
                raise ValueError(f"half_width must be 'auto' or positive and finite, got {hw!r}")
            object.__setattr__(self, "half_width", float(hw))  # so 3 and 3.0 hash the same
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

    @classmethod
    def from_dict(cls, data: dict) -> "SolverSettings":
        """Settings from a config's ``solver`` section; unknown keys raise
        ``ValueError``."""
        grid = data.get("grid", {})
        unknown = sorted(set(data) - {"grid", "value_cap"}) + sorted(
            f"grid.{key}" for key in set(grid) - {"half_width", "num_points"})
        if unknown:
            raise ValueError(f"unknown solver keys {unknown}")
        return cls(half_width=grid.get("half_width", "auto"),
                   num_points=grid.get("num_points", 2001),
                   value_cap=data.get("value_cap", 1e12))


def provenance_hash(plant: PlantModel, fsm: ChannelFsm, settings: SolverSettings) -> str:
    """Stable digest of everything that determines solver output, including
    the grid ``settings`` resolves for ``plant``."""
    grid = settings.make_grid(plant)
    blob = json.dumps({"plant": plant_to_dict(plant), "fsm": fsm_to_dict(fsm),
                       "settings": settings.to_dict(),
                       "grid": {"half_width": grid.half_width,
                                "num_points": grid.num_points}}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ValueTable:
    """Solved value functions and action costs on the error grid.

    ``values[s, q]`` is the stage-(s+1) value slice, s = 0..N (the last
    slice is the terminal squared error). ``cost_wait`` / ``cost_send``
    cover stages 1..N; ``cost_send`` is NaN at masked states where
    transmitting is undefined. ``transmit[s, q, i]`` is the optimal
    decision indicator (strict improvement required, so ties stay silent).
    ``smoothed[s, q]`` is the Gaussian smoothing E[V(a e + W)] of
    ``values[s, q]``: the expectations backward induction took of every
    next-stage slice, plus one of the stage-1 slices. The growth check reads
    it. The five arrays are read-only; corrupt a copy for a defect test.
    """

    grid: ErrorGrid
    values: np.ndarray
    smoothed: np.ndarray
    cost_wait: np.ndarray
    cost_send: np.ndarray
    transmit: np.ndarray
    plant: PlantModel
    fsm: ChannelFsm
    settings: SolverSettings
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


def backward_induction(plant: PlantModel, fsm: ChannelFsm,
                       settings: SolverSettings = SolverSettings()) -> ValueTable:
    """Solve the symmetric-policy recursion on the grid ``settings`` resolves
    for ``plant``.

    Returns the value table, whose ``transmit`` is the optimal gridded
    policy. Raises :class:`SolverOverflowError` when any value exceeds the
    configured cap, which signals that the grid half-width is too small for
    the instance.
    """
    grid = settings.make_grid(plant)
    m = fsm.num_states
    n_stages = plant.horizon
    center = grid.center_index
    op = GaussianExpectationOperator(grid, plant.a, plant.sigma2)

    values = np.empty((n_stages + 1, m, grid.num_points))
    smoothed = np.empty_like(values)
    cost_wait = np.empty((n_stages, m, grid.num_points))
    cost_send = np.empty_like(cost_wait)
    transmit = np.empty(cost_wait.shape, dtype=bool)

    x_sq = grid.points ** 2
    values[n_stages, :, :] = x_sq[None, :]
    # a masked state's r=1 successor is any valid index: its C1 row becomes NaN
    q0, q1 = np.array([(t0, t0 if t1 is None else t1) for t0, t1 in fsm.transitions]).T
    p = np.array(fsm.drop_probs)[:, None]
    masked = ~np.array(fsm.transmit_allowed, dtype=bool)
    tie = np.flatnonzero(q0 == q1)  # an exact tie at e = 0, which must stay silent

    for s in range(n_stages - 1, -1, -1):
        h = smoothed[s + 1] = op.apply(values[s + 1])
        c0 = cost_wait[s] = x_sq + h[q0]
        reset = h[q1, center]
        c1 = p * (x_sq + h[q1]) + (1.0 - p) * reset[:, None]
        c1[tie, center] = reset[tie]
        c1[masked] = np.nan
        cost_send[s] = c1
        send = transmit[s] = c1 < c0
        values[s] = np.where(send, c1, c0)
        worst = np.max(np.abs(values[s]))
        if worst > settings.value_cap:
            raise SolverOverflowError(
                f"stage {s + 1}: value magnitude {worst:.3g} exceeds cap "
                f"{settings.value_cap:.3g}; widen the grid")
    smoothed[0] = op.apply(values[0])

    return ValueTable(grid=grid, values=values, smoothed=smoothed,
                      cost_wait=cost_wait, cost_send=cost_send,
                      transmit=transmit, plant=plant, fsm=fsm, settings=settings,
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
    point.
    """
    violations = []
    center = table.grid.center_index
    for s in range(table.values.shape[0]):
        for q in range(table.fsm.num_states):
            slice_vals = table.values[s, q]
            spread = float(slice_vals.max() - slice_vals.min())
            tol_abs = STRUCTURE_TOL * max(spread, 1e-30)
            ok, viol = is_symmetric_nondecreasing(table.grid, slice_vals, tol_abs)
            if not ok:
                violations.append(StructureViolation(
                    s + 1, q, viol.kind, viol.e, viol.magnitude))
            if slice_vals[center] > slice_vals.min() + tol_abs:
                violations.append(StructureViolation(
                    s + 1, q, "argmin not at zero",
                    float(table.grid.points[int(np.argmin(slice_vals))]),
                    float(slice_vals[center] - slice_vals.min())))
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
    stay below the stage bound plus a slack of ten grid spacings.
    """
    grid = table.grid
    slack = 10.0 * grid.spacing
    bounds = growth_rate_bounds(table.plant)
    center = grid.center_index
    last = grid.num_points - 1 - max(1, int(grid.num_points * GROWTH_BOUNDARY_FRACTION))
    x = grid.points
    denom = x[center + 1:last + 1] ** 2 - x[center:last] ** 2
    h = table.smoothed
    max_quotient = ((h[..., center + 1:last + 1] - h[..., center:last]) / denom).max(axis=-1)
    violations = [(int(s) + 1, int(q), float(max_quotient[s, q]), float(bounds[s]))
                  for s, q in zip(*np.nonzero(max_quotient > bounds[:, None] + slack))]
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
    satisfied = all(fsm.drop_probs[q] < threshold
                    for q in fsm.states() if fsm.transmit_allowed[q])
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


def export_value_table_csv(table: ValueTable, path):
    """Plot-ready dump: one row (n, q, e, V, C0, C1, transmit) per grid point. Each
    stage formats its bitwise-distinct C0/C1 slices once; V reuses their strings."""
    write_csv(path, ("n", "q", "e", "V", "C0", "C1", "transmit"),
              {"provenance": table.provenance}, _value_blocks(table))


def _value_blocks(table: ValueTable):
    e = list(map(repr, table.grid.points.tolist()))
    for s in range(table.horizon):  # strings live for one stage, so memory stays bounded
        v, c0, c1 = table.values[s], table.cost_wait[s], table.cost_send[s]
        unique = {c.tobytes(): c for c in (*c0, *c1)}
        text = {k: np.array(list(map(repr, c.tolist())), dtype=object) for k, c in unique.items()}
        for q, t in enumerate(table.transmit[s]):
            s0, s1 = text[c0[q].tobytes()], text[c1[q].tobytes()]
            bits, bits0, bits1 = v[q].view(np.int64), c0[q].view(np.int64), c1[q].view(np.int64)
            sv = np.where(bits == bits1, s1, s0)  # V's bits are C1's or C0's, or formatted here
            for i in np.flatnonzero((bits != bits1) & (bits != bits0)):
                sv[i] = repr(float(v[q, i]))
            yield str(s + 1), str(q), e, sv.tolist(), s0.tolist(), s1.tolist(), t
