"""Gaussian integration on uniform symmetric error grids.

Value functions and transmit sets in this package are sampled on a uniform
grid of estimation-error values that is symmetric about zero. The central
operation is the Gaussian expectation

    h(e) = E[f(a*e + W)],   W ~ N(0, sigma2),

applied by :class:`GaussianExpectationOperator` to a stack of sampled
slices at once. The module also provides the unnormalized truncated-normal
moments behind the operator's tails and the white-source solver, and the
symmetry/monotonicity check used to validate solver output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Probability mass below this is treated as an empty interval.
MASS_FLOOR = 1e-300


def _std_pdf(z):
    """Standard normal density, with 0 at infinite arguments."""
    return np.exp(-0.5 * z * z) / _SQRT2PI


def gaussian_partial_moments(sigma2, lo, hi):
    """Unnormalized moments of N(0, sigma2) restricted to [lo, hi].

    Returns ``(M0, M1, M2)`` with ``Mk = integral of x^k * pdf(x)`` over the
    interval. ``lo`` and ``hi`` are scalars or broadcastable arrays; either
    end may be infinite. Safe for intervals of zero mass (all three values
    underflow to 0 together). Raises ``ValueError`` unless sigma2 > 0 and
    lo <= hi everywhere.
    """
    from scipy.special import ndtr  # deferred: importing the CLI skips scipy

    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if np.any(np.greater(lo, hi)):
        raise ValueError(f"need lo <= hi, got ({lo}, {hi})")
    sigma = math.sqrt(sigma2)
    za, zb = np.divide(lo, sigma), np.divide(hi, sigma)
    # the CDF difference on the side with less cancellation
    m0 = np.where(za > 0, ndtr(-za) - ndtr(-zb), ndtr(zb) - ndtr(za))
    return _moments_given_mass(sigma2, za, zb, m0)


def _moments_given_mass(sigma2, za, zb, m0):
    """``(M0, M1, M2)`` of :func:`gaussian_partial_moments` on the standardized
    interval [za, zb], given its mass ``m0``; 0-d results become scalars."""
    pa, pb = _std_pdf(za), _std_pdf(zb)
    # z * pdf(z) is 0 at infinite z, where the product itself is inf * 0
    zpa = np.where(np.isfinite(za), za, 0.0) * pa
    zpb = np.where(np.isfinite(zb), zb, 0.0) * pb
    m1 = math.sqrt(sigma2) * (pa - pb)
    m2 = sigma2 * (m0 + zpa - zpb)
    return m0[()], m1[()], m2[()]


# Half-width cap of the grids ErrorGrid.auto sizes.
MAX_HALF_WIDTH = 100.0


@dataclass(frozen=True)
class ErrorGrid:
    """Uniform symmetric grid on [-half_width, half_width].

    ``num_points`` must be odd so that 0 is a grid point. Points are stored
    exactly antisymmetric (``points[i] == -points[-i-1]`` bitwise).
    """

    half_width: float
    num_points: int

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.num_points < 3 or self.num_points % 2 == 0:
            raise ValueError(f"num_points must be odd and >= 3, got {self.num_points}")
        pts = np.linspace(-self.half_width, self.half_width, self.num_points)
        pts = 0.5 * (pts - pts[::-1])  # force exact antisymmetry, 0 at center
        pts.flags.writeable = False
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.num_points - 1)

    @property
    def center_index(self) -> int:
        return self.num_points // 2

    @classmethod
    def auto(cls, a, sigma2, horizon, num_points=2001):
        """Grid sized for a horizon of Gaussian propagation steps.

        Width ``8 * sigma * max(1, |a|)**horizon`` covers the mass a gain-a
        recursion can spread over the horizon, clipped to ``MAX_HALF_WIDTH``
        to keep capped growth detectable by the solver's value cap instead
        of silently extrapolating.
        """
        try:
            hw = 8.0 * math.sqrt(sigma2) * max(1.0, abs(a)) ** horizon
        except OverflowError:  # a width past any float is past the cap
            hw = math.inf
        return cls(min(hw, MAX_HALF_WIDTH), num_points)

    def index_of(self, e: float) -> int:
        """Index of the grid point equal to e (raises if e is off-grid)."""
        if math.isfinite(e):
            i = int(round((e + self.half_width) / self.spacing))
            if 0 <= i < self.num_points and abs(self._points[i] - e) <= 1e-9 * max(1.0, abs(e)):
                return i
        raise ValueError(f"{e} is not a grid point of {self}")

    def nearest_index(self, e) -> np.ndarray:
        """Nearest grid index for arbitrary (vectorized) error values."""
        idx = np.rint((np.asarray(e, dtype=float) + self.half_width) / self.spacing)
        return np.clip(idx, 0, self.num_points - 1).astype(np.intp)


# Fraction of the grid's points on each side that its quadratic tail is
# least-squares fitted to.
TAIL_FRACTION = 0.1


def _fit_tails(x, values):
    """(left, right) quadratic least-squares fits to the outer samples on each
    side, along the last axis of ``values``: one column per stacked slice."""
    k = max(3, int(len(x) * TAIL_FRACTION))
    y = np.moveaxis(values, -1, 0)
    return np.polyfit(x[:k], y[:k], 2), np.polyfit(x[-k:], y[-k:], 2)


# Half-width of each operator row's band, in noise standard deviations.
# Phi(-10) ~ 7.6e-24, so the weights dropped outside the band change no value
# by more than about 1e-20 of the largest sample.
BAND_Z = 10.0


class GaussianExpectationOperator:
    """Precomputed linear map of grid samples f to h(e) = E[f(a*e + W)].

    The map integrates an interpolation model of f: the piecewise-linear
    interpolant of the samples inside the grid, extended beyond each end by
    the quadratic least-squares fitted to the outer ``TAIL_FRACTION`` of
    samples on that side. Row i integrates that model against the normal
    density centered at ``a * points[i]``, cell by cell in closed form, so
    the map is exact (up to rounding) for piecewise-linear data and for the
    quadratic tails. Sampled quadratics pick up only the interpolation bias
    of the model, about ``spacing**2 / 6`` in absolute terms, which cancels
    in difference quotients.

    The cells within ``BAND_Z`` standard deviations of the center are stored
    as a sparse matrix with a fixed band width per row, plus analytic
    integrals of the quadratic tails beyond the grid. The build costs
    O(n * band) rather than O(n^2), and one application is a sparse product
    over a stack of sample vectors. The stored arrays are read-only.
    """

    def __init__(self, grid: ErrorGrid, a: float, sigma2: float):
        # deferred so that commands without a grid solve skip the imports
        from scipy.sparse import csr_array
        from scipy.special import ndtr

        if not sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        self.grid = grid
        self.a = float(a)
        self.sigma2 = float(sigma2)
        sigma = math.sqrt(sigma2)
        xs, n, dx = grid.points, grid.num_points, grid.spacing
        centers = self.a * xs
        # every node within BAND_Z sigma of the center, the window slid back
        # inside the grid near its ends
        width = min(n, math.ceil(2.0 * BAND_Z * sigma / dx) + 2)
        first = np.floor((centers - BAND_Z * sigma + grid.half_width) / dx)
        first = np.clip(first, 0, n - width).astype(np.intp)
        index_dtype = np.int32 if n * width < 2 ** 31 else np.int64  # half the bytes
        data = np.zeros((n, width))
        indices = np.empty((n, width), dtype=index_dtype)
        for start in range(0, n, 256):  # row blocks keep the temporaries small
            rows = slice(start, start + 256)
            cols = first[rows, None] + np.arange(width)
            indices[rows] = cols
            u, c = xs[cols], centers[rows, None]
            z = (u - c) / sigma
            cdf = ndtr(z)
            dens = _std_pdf(z) / sigma
            p0 = cdf[:, 1:] - cdf[:, :-1]
            # integral of u * pdf over each cell
            p1 = c * p0 + sigma2 * (dens[:, :-1] - dens[:, 1:])
            block = data[rows]
            block[:, :-1] += (u[:, 1:] * p0 - p1) / dx
            block[:, 1:] += (p1 - u[:, :-1] * p0) / dx
        self._weights = csr_array(
            (data.reshape(-1), indices.reshape(-1),
             np.arange(n + 1, dtype=index_dtype) * width),
            shape=(n, n))
        # moments (x^2, x, 1) beyond the left grid end, then the right one (the
        # tail fit's order), from those of x - center ~ N(0, sigma2)
        hw = grid.half_width
        tails = []
        for lo, hi in ((-math.inf, -hw - centers), (hw - centers, math.inf)):
            m0, m1, m2 = gaussian_partial_moments(sigma2, lo, hi)
            tails += [m2 + 2.0 * centers * m1 + centers ** 2 * m0, m1 + centers * m0, m0]
        self._tail_moments = np.stack(tails)
        for arr in (self._weights.data, self._weights.indices,
                    self._weights.indptr, self._tail_moments):
            arr.flags.writeable = False

    def apply(self, values) -> np.ndarray:
        """h on the grid for each f sampled along the last axis of ``values``
        (one slice or a stack of any leading shape); same shape as ``values``."""
        v = np.asarray(values, dtype=float)
        n = self.grid.num_points
        if v.shape[-1:] != (n,):
            raise ValueError(f"values shape {v.shape} does not match grid (..., {n})")
        stack = v.reshape(-1, n)
        h = (self._weights @ stack.T).T
        h += np.concatenate(_fit_tails(self.grid.points, stack)).T @ self._tail_moments
        return h.reshape(v.shape)


class ShapeViolation(NamedTuple):
    kind: str  # "asymmetry" or "decrease"
    e: float
    magnitude: float


def is_symmetric_nondecreasing(grid: ErrorGrid, values, tol: float):
    """Check that the samples ``values`` on ``grid`` are symmetric and
    non-decreasing in |e|, up to tol.

    Returns ``(ok, violation)`` where ``violation`` is the first
    :class:`ShapeViolation` found scanning outward from the center
    (symmetry first, then monotonicity on each half), or None.
    """
    v = np.asarray(values, dtype=float)
    c = grid.center_index
    right, x_right = v[c:], grid.points[c:]
    left, x_left = v[c::-1], grid.points[c::-1]
    # each array runs outward from the center; a violation is reported at
    # the outer point of the first failing pair
    for kind, gap, x in (("asymmetry", np.abs(right[1:] - left[1:]), x_right),
                         ("decrease", right[:-1] - right[1:], x_right),
                         ("decrease", left[:-1] - left[1:], x_left)):
        bad = gap > tol
        if bad.any():
            i = int(np.argmax(bad))
            return False, ShapeViolation(kind, x[i + 1], gap[i])
    return True, None
