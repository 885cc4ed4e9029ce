"""Transmit-policy representations and threshold-structure extraction.

A policy maps (stage, channel state, current error) to a binary transmit
decision. Three representations are supported: a raw per-grid-point
indicator (what a grid solver produces), a symmetric threshold (transmit
iff |e| > tau), and an interval rule (transmit iff e is outside
[tau_lo, tau_hi], not necessarily symmetric). The extractor recovers the
threshold form from an indicator when the no-transmit set is one interval,
and otherwise reports a three-point witness of the failure.

Orientation convention: the transmit set is always the outside of the
no-transmit interval. Never-transmit is encoded by tau = +inf (or the
interval (-inf, +inf)); masked channel states carry that sentinel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .quadrature import ErrorGrid

KINDS = ("gridded", "symmetric_threshold", "interval_pair")


@dataclass(frozen=True)
class TransmitPolicy:
    """Per-(stage, channel state) transmit rule.

    Stages are 1-based: ``n`` runs over 1..horizon. Exactly one of the
    parameter blocks is populated depending on ``kind``:

    - ``symmetric_threshold``: ``tau[n-1, q]``, transmit iff |e| > tau
    - ``interval_pair``: ``intervals[n-1, q] = (lo, hi)``, transmit iff
      e < lo or e > hi
    - ``gridded``: boolean ``indicator[n-1, q, i]`` over ``grid``, looked
      up at the nearest grid point
    """

    kind: str
    horizon: int
    num_states: int
    symmetric_flag: bool
    tau: Optional[np.ndarray] = None
    intervals: Optional[np.ndarray] = None
    grid: Optional[ErrorGrid] = None
    indicator: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "symmetric_threshold":
            tau = np.asarray(self.tau, dtype=float)
            if tau.shape != (self.horizon, self.num_states):
                raise ValueError(f"tau shape {tau.shape} != (N, m)")
            if np.any(tau < 0):
                raise ValueError("symmetric thresholds must be nonnegative")
            object.__setattr__(self, "tau", tau)
        elif self.kind == "interval_pair":
            iv = np.asarray(self.intervals, dtype=float)
            if iv.shape != (self.horizon, self.num_states, 2):
                raise ValueError(f"intervals shape {iv.shape} != (N, m, 2)")
            if np.any(iv[..., 0] > iv[..., 1]):
                raise ValueError("interval_pair requires tau_lo <= tau_hi")
            object.__setattr__(self, "intervals", iv)
        else:
            if self.grid is None or self.indicator is None:
                raise ValueError("gridded policy needs grid and indicator")
            ind = np.asarray(self.indicator, dtype=bool)
            expected = (self.horizon, self.num_states, self.grid.num_points)
            if ind.shape != expected:
                raise ValueError(f"indicator shape {ind.shape} != {expected}")
            object.__setattr__(self, "indicator", ind)

    @classmethod
    def symmetric(cls, tau, symmetric_flag=True):
        tau = np.asarray(tau, dtype=float)
        return cls("symmetric_threshold", tau.shape[0], tau.shape[1],
                   symmetric_flag, tau=tau)

    @classmethod
    def interval(cls, intervals, symmetric_flag=False):
        intervals = np.asarray(intervals, dtype=float)
        return cls("interval_pair", intervals.shape[0], intervals.shape[1],
                   symmetric_flag, intervals=intervals)

    @classmethod
    def gridded(cls, grid, indicator, symmetric_flag):
        indicator = np.asarray(indicator, dtype=bool)
        return cls("gridded", indicator.shape[0], indicator.shape[1],
                   symmetric_flag, grid=grid, indicator=indicator)


def decide(policy: TransmitPolicy, n: int, q: int, e: float) -> int:
    """Transmit decision at stage n (1-based), channel state q, error e."""
    if not 1 <= n <= policy.horizon:
        raise ValueError(f"stage {n} outside 1..{policy.horizon}")
    if not 0 <= q < policy.num_states:
        raise ValueError(f"invalid channel state {q}")
    if policy.kind == "symmetric_threshold":
        return int(abs(e) > policy.tau[n - 1, q])
    if policy.kind == "interval_pair":
        lo, hi = policy.intervals[n - 1, q]
        return int(e < lo or e > hi)
    idx = policy.grid.nearest_index(e)
    return int(policy.indicator[n - 1, q, idx])


def decide_many(policy: TransmitPolicy, n: int, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Vectorized :func:`decide` over aligned state and error arrays."""
    q = np.asarray(q, dtype=np.intp)
    e = np.asarray(e, dtype=float)
    if policy.kind == "symmetric_threshold":
        return np.abs(e) > policy.tau[n - 1][q]
    if policy.kind == "interval_pair":
        iv = policy.intervals[n - 1]
        return (e < iv[:, 0][q]) | (e > iv[:, 1][q])
    idx = policy.grid.nearest_index(e)
    return policy.indicator[n - 1][q, idx]


@dataclass(frozen=True)
class ThresholdFit:
    """Result of reconstructing a threshold rule from a transmit set.

    ``is_threshold`` is True when the no-transmit set is one interval (the
    transmit set is its outside). ``tau`` is set for fits that are
    symmetric within one grid spacing (``inf`` for never-transmit, 0.0 for
    transmit-everywhere). ``witness`` carries (e1, e2, e3) with transmit
    decisions (0, 1, 0) proving a structure failure.
    """

    is_threshold: bool
    tau_lo: float = math.nan
    tau_hi: float = math.nan
    tau: Optional[float] = None
    witness: Optional[Tuple[float, float, float]] = None

    @property
    def is_symmetric(self) -> bool:
        return self.tau is not None


def extract_threshold(grid: ErrorGrid, transmit: np.ndarray,
                      symmetric: bool = False) -> ThresholdFit:
    """Fit an interval (or symmetric threshold) rule to a transmit set.

    The no-transmit set must be contiguous on the grid for a fit to
    succeed; interval boundaries are placed halfway between the last
    no-transmit point and the first transmit point on each side. With
    ``symmetric=True`` the fit additionally requires |tau_lo + tau_hi| to
    be at most one grid spacing, and returns the symmetric tau.
    """
    transmit = np.asarray(transmit, dtype=bool)
    if transmit.shape != (grid.num_points,):
        raise ValueError("transmit set shape does not match grid")
    x = grid.points
    silent = np.flatnonzero(~transmit)
    if silent.size == 0:
        # always transmit: empty no-transmit interval, degenerate tau = 0
        return ThresholdFit(True, tau_lo=0.0, tau_hi=0.0, tau=0.0)
    if silent.size == grid.num_points:
        return ThresholdFit(True, tau_lo=-math.inf, tau_hi=math.inf, tau=math.inf)
    i0, i1 = silent[0], silent[-1]
    inside = np.flatnonzero(transmit[i0:i1 + 1])
    if inside.size:
        j = i0 + inside[0]
        return ThresholdFit(False, witness=(float(x[i0]), float(x[j]), float(x[i1])))
    tau_lo = -math.inf if i0 == 0 else float(0.5 * (x[i0 - 1] + x[i0]))
    tau_hi = math.inf if i1 == grid.num_points - 1 else float(0.5 * (x[i1] + x[i1 + 1]))
    fit = ThresholdFit(True, tau_lo=tau_lo, tau_hi=tau_hi)
    if symmetric and math.isfinite(tau_lo) and math.isfinite(tau_hi):
        if abs(tau_lo + tau_hi) <= grid.spacing * (1 + 1e-9):
            fit = ThresholdFit(True, tau_lo=tau_lo, tau_hi=tau_hi,
                               tau=0.5 * (tau_hi - tau_lo))
    return fit


def export_policy_csv(policy: TransmitPolicy, path, metadata: Optional[dict] = None):
    """Write a policy to CSV with full round-trip float precision.

    Threshold kinds write one row per (n, q); gridded policies fall back to
    one row per grid point. Metadata goes into leading ``# key=value``
    comment lines.
    """
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(f"# kind={policy.kind}\n")
        fh.write(f"# horizon={policy.horizon}\n")
        fh.write(f"# num_states={policy.num_states}\n")
        fh.write(f"# symmetric_flag={int(policy.symmetric_flag)}\n")
        writer = csv.writer(fh)
        if policy.kind == "gridded":
            fh.write(f"# grid_half_width={policy.grid.half_width!r}\n")
            fh.write(f"# grid_num_points={policy.grid.num_points}\n")
            writer.writerow(["n", "q", "e", "transmit"])
            for n in range(policy.horizon):
                for q in range(policy.num_states):
                    for e, t in zip(policy.grid.points, policy.indicator[n, q]):
                        writer.writerow([n + 1, q, repr(float(e)), int(t)])
            return
        writer.writerow(["n", "q", "kind", "tau_lo", "tau_hi"])
        for n in range(policy.horizon):
            for q in range(policy.num_states):
                if policy.kind == "symmetric_threshold":
                    t = policy.tau[n, q]
                    lo, hi = -t, t
                else:
                    lo, hi = policy.intervals[n, q]
                writer.writerow([n + 1, q, policy.kind, repr(float(lo)), repr(float(hi))])


def load_policy_csv(path):
    """Load a policy written by :func:`export_policy_csv`.

    Rows are placed by their (n, q) and, for gridded policies, by the grid
    index of their ``e``, so row order does not matter. An off-grid,
    duplicate or missing point raises ``ValueError``. Returns
    ``(policy, metadata)``.
    """
    meta = {}
    data = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                data.append(line)
    kind = meta.get("kind")
    if kind not in KINDS:
        raise ValueError(f"{path}: unknown policy kind {kind!r}")
    horizon = int(meta["horizon"])
    m = int(meta["num_states"])
    symmetric_flag = bool(int(meta.get("symmetric_flag", "0")))
    grid = None
    if kind == "gridded":
        grid = ErrorGrid(float(meta["grid_half_width"]), int(meta["grid_num_points"]))
        cells = np.zeros((horizon, m, grid.num_points), dtype=bool)
    else:
        cells = np.zeros((horizon, m, 2))
    seen = np.zeros(cells.shape if grid is not None else (horizon, m), dtype=bool)
    for index, row in enumerate(csv.DictReader(data), start=1):
        try:
            n, q = int(row["n"]), int(row["q"])
            if not (1 <= n <= horizon and 0 <= q < m):
                raise ValueError(f"(n, q) = ({n}, {q}) is outside the policy shape")
            point = (n - 1, q)
            if grid is not None:
                point += (grid.index_of(float(row["e"])),)
                value = bool(int(row["transmit"]))
            else:
                value = (float(row["tau_lo"]), float(row["tau_hi"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: data row {index}: {exc}") from exc
        if seen[point]:
            raise ValueError(f"{path}: data row {index} repeats an earlier row's point")
        seen[point] = True
        cells[point] = value
    if not seen.all():
        n, q, *i = np.argwhere(~seen)[0]
        first = f"n={n + 1}, q={q}" + (f", e={float(grid.points[i[0]])!r}" if i else "")
        raise ValueError(f"{path}: {int((~seen).sum())} points have no row, first {first}")
    if grid is not None:
        policy = TransmitPolicy.gridded(grid, cells, symmetric_flag)
    elif kind == "symmetric_threshold":
        policy = TransmitPolicy.symmetric(cells[..., 1], symmetric_flag=symmetric_flag)
    else:
        policy = TransmitPolicy.interval(cells, symmetric_flag=symmetric_flag)
    return policy, meta
