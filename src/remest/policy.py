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
import itertools
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


def decide_many(policy: TransmitPolicy, n: int, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Transmit decisions at stage n (1-based) over aligned channel-state and
    error arrays."""
    if not 1 <= n <= policy.horizon:
        raise ValueError(f"stage {n} outside 1..{policy.horizon}")
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


def write_csv(path, header, metadata, blocks):
    """Write ``# key=value`` lines, the header row and each block's rows in
    one ``write``, as the ``csv`` module's default dialect would. A block is
    a tuple of aligned columns: a ``str`` repeats, a float array (C order)
    prints as ``repr``, an int or bool array as integers, and a list of
    strings passes through. :func:`load_policy_csv` reads the format back."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in metadata.items()))
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write("\r\n".join(map(",".join, zip(*map(_fields, block)))) + "\r\n")


def _fields(column):
    """One block column as field strings (see :func:`write_csv`)."""
    if isinstance(column, str):
        return itertools.repeat(column)
    if isinstance(column, list):
        return column
    if column.dtype == bool:
        return np.where(column.ravel(), "1", "0").tolist()
    return list(map(repr, column.ravel().tolist()))


def export_policy_csv(policy: TransmitPolicy, path, metadata: Optional[dict] = None):
    """Write a policy to CSV with full round-trip float precision.

    Threshold kinds write one row per (n, q); gridded policies fall back to
    one row per grid point. Metadata goes into leading ``# key=value``
    comment lines.
    """
    meta = {**(metadata or {}), "kind": policy.kind, "horizon": policy.horizon,
            "num_states": policy.num_states, "symmetric_flag": int(policy.symmetric_flag)}
    if policy.kind == "gridded":
        meta.update(grid_half_width=repr(float(policy.grid.half_width)),
                    grid_num_points=policy.grid.num_points)
        e = list(map(repr, policy.grid.points.tolist()))
        write_csv(path, ("n", "q", "e", "transmit"), meta,
                  ((str(n + 1), str(q), e, policy.indicator[n, q])
                   for n in range(policy.horizon) for q in range(policy.num_states)))
        return
    lo, hi = ((-policy.tau, policy.tau) if policy.kind == "symmetric_threshold"
              else np.moveaxis(policy.intervals, -1, 0))
    n, q = np.indices(lo.shape)
    write_csv(path, ("n", "q", "kind", "tau_lo", "tau_hi"), meta,
              [(n + 1, q, policy.kind, lo, hi)])


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
    try:
        horizon = int(meta["horizon"])
        m = int(meta["num_states"])
        grid = None
        if kind == "gridded":
            grid = ErrorGrid(float(meta["grid_half_width"]), int(meta["grid_num_points"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing header line '# {exc.args[0]}='") from exc
    symmetric_flag = bool(int(meta.get("symmetric_flag", "0")))
    if grid is not None:
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
