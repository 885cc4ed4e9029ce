"""Transmit-policy representations and threshold-structure extraction.

A policy maps (stage, channel state, current error) to a binary transmit
decision. It is a raw per-grid-point indicator (what a grid solver
produces) or a rule "transmit iff e is outside [tau_lo, tau_hi]": a
symmetric threshold (tau_lo = -tau_hi = -tau, so transmit iff |e| > tau) or
an interval pair. The extractor recovers the rule from an indicator when
the no-transmit set is one interval, and otherwise reports a three-point
witness of the failure.

Orientation convention: the transmit set is always the outside of the
no-transmit interval. Never-transmit is encoded by the interval
(-inf, +inf) (tau = +inf); masked channel states carry that sentinel.

A policy is only its kind and its arrays: horizon and channel-state count
come from the array shape, and symmetry is read from the arrays where it
matters (``oracle_sim.check_policy_fits``), never stored beside them.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .quadrature import ErrorGrid

KINDS = ("gridded", "symmetric_threshold", "interval_pair")


@dataclass(frozen=True)
class TransmitPolicy:
    """Per-(stage, channel state) transmit rule.

    Stages are 1-based: ``n`` runs over 1..horizon. ``kind`` picks the
    populated array, whose first two axes are (horizon, channel states):

    - ``symmetric_threshold`` and ``interval_pair``: ``intervals[n-1, q] =
      (lo, hi)``, transmit iff e < lo or e > hi; a symmetric threshold has
      lo == -hi, so it transmits iff |e| > hi
    - ``gridded``: boolean ``indicator[n-1, q, i]`` over ``grid``, looked
      up at the nearest grid point
    """

    kind: str
    intervals: Optional[np.ndarray] = None
    grid: Optional[ErrorGrid] = None
    indicator: Optional[np.ndarray] = None
    horizon: int = field(init=False)
    num_states: int = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "gridded":
            if self.grid is None or self.indicator is None:
                raise ValueError("gridded policy needs grid and indicator")
            arr = np.asarray(self.indicator, dtype=bool)
            if arr.ndim != 3 or arr.shape[2] != self.grid.num_points:
                raise ValueError(f"indicator shape {arr.shape} != (N, m, {self.grid.num_points})")
            object.__setattr__(self, "indicator", arr)
        else:
            arr = np.asarray(self.intervals, dtype=float)
            if arr.ndim != 3 or arr.shape[2] != 2:
                raise ValueError(f"intervals shape {arr.shape} != (N, m, 2)")
            lo, hi = arr[..., 0], arr[..., 1]
            if not np.all(lo <= hi):  # also rejects NaN
                raise ValueError(f"{self.kind} requires tau_lo <= tau_hi")
            if self.kind == "symmetric_threshold" and not np.array_equal(lo, -hi):
                n, q = np.argwhere(lo != -hi)[0].tolist()
                raise ValueError(f"symmetric threshold at (n, q) = ({n + 1}, {q}) has tau_lo "
                                 f"{float(lo[n, q])!r} != -tau_hi {float(hi[n, q])!r}")
            object.__setattr__(self, "intervals", arr)
        object.__setattr__(self, "horizon", arr.shape[0])
        object.__setattr__(self, "num_states", arr.shape[1])

    @classmethod
    def symmetric(cls, tau):
        tau = np.asarray(tau, dtype=float)
        return cls("symmetric_threshold", intervals=np.stack([-tau, tau], -1))

    @classmethod
    def interval(cls, intervals):
        return cls("interval_pair", intervals=intervals)

    @classmethod
    def gridded(cls, grid, indicator):
        return cls("gridded", grid=grid, indicator=indicator)


def decide_many(policy: TransmitPolicy, n: int, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Transmit decisions at stage n (1-based) over aligned channel-state and
    error arrays."""
    if not 1 <= n <= policy.horizon:
        raise ValueError(f"stage {n} outside 1..{policy.horizon}")
    q = np.asarray(q, dtype=np.intp)
    e = np.asarray(e, dtype=float)
    if policy.kind == "gridded":
        idx = policy.grid.nearest_index(e)
        return policy.indicator[n - 1][q, idx]
    iv = policy.intervals[n - 1]
    return (e < iv[:, 0][q]) | (e > iv[:, 1][q])


def extract_threshold(grid: ErrorGrid, transmit: np.ndarray):
    """Fit an interval rule to every transmit set of a (..., n) stack over
    the grid's n points.

    Returns ``(intervals, witnesses)`` of shapes (..., 2) and (..., 3). A
    set whose no-transmit points are contiguous gets their interval, each
    end placed halfway between the last no-transmit point and the first
    transmit point on that side (an infinite end where the set reaches the
    grid's edge); transmit-everywhere gives (0, 0). Any other set gets a NaN
    interval and a witness (e1, e2, e3) of grid points with transmit
    decisions (0, 1, 0); fitted sets have NaN witnesses.
    """
    transmit = np.asarray(transmit, dtype=bool)
    if transmit.shape[-1:] != (grid.num_points,):
        raise ValueError("transmit set shape does not match grid")
    x = grid.points
    ends = np.concatenate([[-math.inf], 0.5 * (x[:-1] + x[1:]), [math.inf]])
    silent = ~transmit
    count = silent.sum(-1)
    i0 = silent.argmax(-1)  # first and last no-transmit points
    i1 = grid.num_points - 1 - silent[..., ::-1].argmax(-1)
    broken = (count > 0) & (count < i1 - i0 + 1)
    intervals = np.stack([ends[i0], ends[i1 + 1]], -1)
    intervals[count == 0] = 0.0
    intervals[broken] = math.nan
    j = (transmit & (np.arange(grid.num_points) > i0[..., None])).argmax(-1)
    witnesses = np.where(broken[..., None], x[np.stack([i0, j, i1], -1)], math.nan)
    return intervals, witnesses


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
            "num_states": policy.num_states}
    if policy.kind == "gridded":
        meta.update(grid_half_width=repr(float(policy.grid.half_width)),
                    grid_num_points=policy.grid.num_points)
        e = list(map(repr, policy.grid.points.tolist()))
        write_csv(path, ("n", "q", "e", "transmit"), meta,
                  ((str(n + 1), str(q), e, policy.indicator[n, q])
                   for n in range(policy.horizon) for q in range(policy.num_states)))
        return
    lo, hi = np.moveaxis(policy.intervals, -1, 0)
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
        horizon, m = _count(path, meta, "horizon"), _count(path, meta, "num_states")
        grid, cells = None, np.zeros((horizon, m, 2))
        if kind == "gridded":
            grid = ErrorGrid(_width(path, meta), _count(path, meta, "grid_num_points"))
            cells = np.zeros((horizon, m, grid.num_points), dtype=bool)
    except KeyError as exc:
        raise ValueError(f"{path}: missing header line '# {exc.args[0]}='") from exc
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
        return TransmitPolicy.gridded(grid, cells), meta
    return TransmitPolicy(kind, intervals=cells), meta


def _count(path, meta, key):
    """The integer >= 1 on the ``# key=`` header line."""
    text = meta[key]
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise ValueError(f"{path}: header line '# {key}={text}' must be an integer >= 1")
    return int(text)


def _width(path, meta):
    """The positive finite number on the ``# grid_half_width=`` header line."""
    text = meta["grid_half_width"]
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"{path}: header line '# grid_half_width={text}' must be a positive "
                     "finite number")
