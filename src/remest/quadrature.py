"""Gaussian integration on uniform symmetric error grids.

Value functions and transmit sets in this package are sampled on a uniform
grid of estimation-error values that is symmetric about zero. The central
operation is the Gaussian expectation

    h(e) = E[f(a*e + W)],   W ~ N(0, sigma2),

applied by :class:`GaussianExpectationOperator` to a stack of sampled
slices at once; on fine grids it splits its rows over threads (see
:mod:`remest.workers`), bit for bit as one thread would compute them. The
module also provides the unnormalized truncated-normal moments behind the
operator's tails and the white-source solver, a numpy normal CDF equal bit
for bit to scipy's, so that the white-source solver and simulator import no
scipy, and the symmetry/monotonicity check used to validate solver output.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import workers
from .process import is_number

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Probability mass below this is treated as an empty interval.
MASS_FLOOR = 1e-300

# cephes ndtr.c's rational approximations, as scipy compiles them: erfc on
# 1 <= z < 8 (P/Q) and z >= 8 (R/S), erf on |x| < 1 (T/U). erfc is 0 where
# -z^2 < -MAXLOG, where exp(-z^2) underflows.
_ERFC_PQ = ((2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
             4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
             9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
            (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
             9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
             1.65666309194161350182E3, 5.57535340817727675546E2))
_ERFC_RS = ((5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
             6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0),
            (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
             1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0))
_ERF_TU = ((9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
            7.00332514112805075473E3, 5.55923013010394962768E4),
           (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
            2.26290000613890934246E4, 4.92673942608635921086E4))
_MAXLOG = 7.09782712893383996843E2


def _rational(scale, z, coefs):
    """cephes ``scale * polevl(z, num) / p1evl(z, den)`` for ``coefs = (num,
    den)``, in cephes' order of operations."""
    num, den = coefs
    p, q = num[0], z + den[0]
    for c in num[1:]:
        p = p * z + c
    for c in den[1:]:
        q = q * z + c
    return scale * p / q


def ndtr(a):
    """Standard normal CDF, bit for bit ``scipy.special.ndtr``.

    A numpy port of cephes ``ndtr``, ``erf`` and ``erfc`` with their branches
    and order of operations, for commands that need no other scipy function.
    It costs several times scipy's time per argument. 0-d inputs give a
    scalar; infinities give 0 and 1 and NaN gives NaN, without warnings.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * math.sqrt(0.5)
    z = np.abs(x)
    y = np.zeros_like(x)  # 0.5 * erfc(z) where exp(-z^2) underflows
    with np.errstate(over="ignore"):  # z * z past sqrt of the largest float
        inner, neg_sq = z < 1.0, -z * z
        xi = x[inner]
        y[inner] = 0.5 + 0.5 * _rational(xi, xi * xi, _ERF_TU)
        tail = ~inner & ~(neg_sq < -_MAXLOG)
        # libm's exp, as cephes calls it: numpy's SIMD exp differs from it by
        # 1 ulp on a few percent of arguments on AVX-512 CPUs
        exp = np.fromiter(map(math.exp, neg_sq[tail].tolist()), float)
        zt, y_tail = z[tail], np.empty_like(exp)
        near = zt < 8.0
        for rows, coefs in ((near, _ERFC_PQ), (~near, _ERFC_RS)):
            y_tail[rows] = 0.5 * _rational(exp[rows], zt[rows], coefs)
        y[tail] = y_tail
    y[x >= 1.0] = 1.0 - y[x >= 1.0]
    return y.reshape(a.shape)[()]


def _std_pdf(z):
    """Standard normal density, with 0 at infinite arguments."""
    return np.exp(-0.5 * z * z) / _SQRT2PI


def gaussian_partial_moments(sigma2, lo, hi):
    """Unnormalized moments of N(0, sigma2) restricted to [lo, hi].

    Returns ``(M0, M1, M2)`` with ``Mk = integral of x^k * pdf(x)`` over the
    interval. ``lo`` and ``hi`` are scalars or broadcastable arrays; either
    end may be infinite. Safe for intervals of zero mass (all three values
    underflow to 0 together). Raises ``ValueError`` unless 0 < sigma2 < inf
    and lo <= hi everywhere. The mass comes from :func:`ndtr`, without scipy.
    """
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if not np.all(np.less_equal(lo, hi)):  # NaN ends too
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
    """Uniform symmetric grid on [-half_width, half_width], and the one owner
    of the rule for a valid grid (the solver settings and the policy CSV
    loader check a grid by building it): ``half_width`` is a positive finite
    number, kept as a float, whose span ``2 * half_width`` is a float, and
    ``num_points`` an odd integer >= 3, so that 0 is a grid point; a bool is
    neither. Points are exactly antisymmetric (``points[i] == -points[-i-1]`` bitwise).
    """

    half_width: float
    num_points: int

    def __post_init__(self):
        hw, n = self.half_width, self.num_points
        if not (is_number(hw) and 0 < hw < math.inf):
            raise ValueError(f"half_width must be positive and finite, got {hw!r}")
        if not hw <= sys.float_info.max / 2:  # so that linspace's span is a float
            raise ValueError(f"half_width {hw!r}: the grid's span 2 * half_width overflows a float")
        if not (is_number(n, numbers.Integral) and n >= 3 and n % 2 == 1):
            raise ValueError(f"num_points must be an odd integer >= 3, got {n!r}")
        object.__setattr__(self, "half_width", float(hw))  # so 3 and 3.0 hash the same
        # 16 bytes a point: linspace's points, then their mirrored difference
        workers.refuse_past_memory(f"an error grid of {n} points", 16 * n)
        pts = np.linspace(-self.half_width, self.half_width, n)
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


# Half-width of each operator row's band, in noise standard deviations.
# Phi(-10) ~ 7.6e-24, so the weights dropped outside the band change no value
# by more than about 1e-20 of the largest sample.
BAND_Z = 10.0

# The band is stored in 1 x BAND_BLOCK blocks of columns, one column index
# per block rather than per weight.
BAND_BLOCK = 16

# A band of E entries is cut into workers.count(E // SHARE_ENTRIES) row shares.
SHARE_ENTRIES = 4_000_000

# Padded band entries the shares fill per chunk of rows, together: each fill
# temporary of all shares holds about this many (one row per share at least).
FILL_ENTRIES = 2 ** 15


class SolverOverflowError(RuntimeError):
    """A grid solve or a simulation left the float range:
    :class:`GaussianExpectationOperator` refused its gain, variance and grid,
    the solver's values passed its cap, or simulated costs or their spread
    overflowed."""


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
    in difference quotients. It raises :class:`SolverOverflowError` where its
    squared centers or cell z^2 would overflow a float, where the half-width's
    fourth power underflows one (the tail fits get no scale), and below a
    half-width of sigma / 100 (the tails amplify the fits' rounding).

    The cells within ``BAND_Z`` standard deviations of the center are stored
    as a sparse matrix with a fixed band width per row, plus analytic
    integrals of the quadratic tails beyond the grid, each side's fit a 3 x k
    map of its outer samples. The build costs O(n * band) rather than
    O(n^2), and one application is a sparse product over a stack of sample
    vectors. The stored arrays are read-only. A band past the host's memory
    is refused (:func:`workers.refuse_past_memory`) before it is allocated.
    The build fills chunks of rows of about ``FILL_ENTRIES`` band entries
    over all shares, so its temporaries stay a few MB however wide the rows
    are; each row is filled on its own, so the chunk changes no bit.

    The band is a block sparse (BSR) matrix of 1 x ``BAND_BLOCK`` blocks:
    each row holds its weights in a zero-padded run of whole blocks, with one
    int32 index per block, and the matrix has columns past the grid so that
    the last rows' blocks fit. It is cut into row shares, one BSR matrix per
    run of rows. Each build and each apply runs the shares through
    :func:`workers.run_each`: in the calling thread with one share, in
    parallel with more (``ndtr``, the numpy ufuncs and the BSR kernel release
    the GIL), and no thread outlives the call. The results are bit-identical
    for any number of shares and to a band of one column index per weight
    (CSR): each weight comes from the same elementwise ufuncs, each row's sum
    runs in column order through scipy's sequential kernel, which with
    one-row blocks adds the same products in the same order as its CSR
    kernel, the padding adds only exact zeros for finite samples, and each
    slice's tails are sums in a fixed order over the two maps. So a slice
    gets the same bits in any stack of two or more (a lone slice goes
    through scipy's one-vector kernel, which rounds differently).

    The cells take their CDFs from scipy's ``ndtr``: :func:`ndtr` gives the
    same values at about 8x the time per argument, and an 8001-point build
    evaluates about 12M of them. The sparse band needs scipy anyway.
    """

    def __init__(self, grid: ErrorGrid, a: float, sigma2: float):
        # deferred so that commands without a grid solve skip the imports
        from scipy.sparse import bsr_array
        from scipy.special import ndtr

        # a bad gain or variance would give garbage block indices, and the
        # BSR kernel reads the samples they point at unchecked
        if not math.isfinite(a):
            raise ValueError(f"a must be finite, got {a}")
        if not 0 < sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
        # bounds the squared centers and cell z^2; float products give inf, ** raises
        reach = (abs(a) + 1.0) * grid.half_width
        if not math.isfinite(reach * reach / sigma2):
            raise SolverOverflowError(
                f"gain {a:.3g}: ((|a| + 1) * half_width)^2 / sigma2 overflows a float")
        # the tail maps divide by half^2, where half, half the span of a side's
        # fitted samples, is about half_width / 20 or more: half^2 stays normal
        hw_sq = grid.half_width * grid.half_width
        if hw_sq * hw_sq < sys.float_info.min:
            raise SolverOverflowError(f"half_width {grid.half_width:.3g}: half_width^4 underflows "
                                      "a float; sigma2 or half_width is too small")
        # a constant slice's error at a = 1.1, sigma2 = 1, 101 (2001) points, measured:
        # 4.0e-12 (5.0e-12) at half_width 0.1 sigma, 8.1e-10 (2.3e-10) at 0.01 sigma, 3.7e-8
        # (6.5e-9) at 1e-3 sigma, 3.1e-2 (3.3e-2) at 1e-6 sigma; the tails scale the fit's
        # rounding by (sigma / half_width)^2. An auto grid gets here only at sigma > 1e4
        sigma = math.sqrt(sigma2)
        if grid.half_width < sigma / 100:
            raise SolverOverflowError(f"half_width {grid.half_width:.3g} is below sigma / 100 = "
                                      f"{sigma / 100:.3g}; the tail fits would amplify rounding")
        self.grid = grid
        xs, n, dx = grid.points, grid.num_points, grid.spacing
        centers = float(a) * xs
        # every node within BAND_Z sigma of the center, the window slid back
        # inside the grid near its ends
        width = min(n, math.ceil(2.0 * BAND_Z * sigma / dx) + 2)
        first = np.floor((centers - BAND_Z * sigma + grid.half_width) / dx)
        first = np.clip(first, 0, n - width).astype(np.intp)
        # row i's window lies in the per_row blocks from block start[i]; a grid
        # narrower than a row's blocks gets columns for all of them, so that
        # start stays >= 0
        per_row = -(-(width + BAND_BLOCK - 1) // BAND_BLOCK)
        col_blocks = max(-(-n // BAND_BLOCK), per_row)
        start = np.minimum(first // BAND_BLOCK, col_blocks - per_row)
        self._band_columns = col_blocks * BAND_BLOCK
        index_dtype = np.int32 if n * per_row < 2 ** 31 else np.int64  # half the bytes
        workers.refuse_past_memory(  # its weights and block indices
            f"the expectation operator's band, {n} rows of {per_row * BAND_BLOCK} weights",
            n * per_row * (BAND_BLOCK * 8 + np.dtype(index_dtype).itemsize))
        num_shares = workers.count(n * width // SHARE_ENTRIES)
        chunk = max(1, FILL_ENTRIES // (num_shares * per_row * BAND_BLOCK))

        def fill(share):
            share_first, share_start, share_centers, data = share
            pad = data.shape[1] - width  # no row pads more columns on either side
            for lo in range(0, len(data), chunk):
                rows = slice(lo, lo + chunk)
                # the padding repeats the window's end nodes, so its cells
                # have no mass and add exact zeros to the window's weights
                cols = share_start[rows, None] * BAND_BLOCK + np.arange(data.shape[1])
                left, right, ends = cols[:, :pad], cols[:, width:], share_first[rows, None]
                np.maximum(left, ends, out=left)
                np.minimum(right, ends + (width - 1), out=right)
                u, c = xs[cols], share_centers[rows, None]
                z = (u - c) / sigma
                cdf = ndtr(z)
                dens = _std_pdf(z) / sigma
                p0 = cdf[:, 1:] - cdf[:, :-1]
                # integral of u * pdf over each cell
                p1 = c * p0 + sigma2 * (dens[:, :-1] - dens[:, 1:])
                weights = data[rows]
                weights[:, :-1] += (u[:, 1:] * p0 - p1) / dx
                weights[:, 1:] += (p1 - u[:, :-1] * p0) / dx
            blocks = np.add.outer(share_start.astype(index_dtype),
                                  np.arange(per_row, dtype=index_dtype))
            return bsr_array(
                (data.reshape(-1, 1, BAND_BLOCK), blocks.reshape(-1),
                 np.arange(len(data) + 1, dtype=index_dtype) * per_row),
                shape=(len(data), self._band_columns))

        # each share owns its band, allocated in this thread: what a worker
        # allocates stays in that thread's malloc arena
        bounds = [n * k // num_shares for k in range(num_shares + 1)]
        self._shares = workers.run_each(fill, [
            (first[lo:hi], start[lo:hi], centers[lo:hi],
             np.zeros((hi - lo, per_row * BAND_BLOCK)))
            for lo, hi in zip(bounds, bounds[1:])])
        # each side's least-squares quadratic in ((x - mid)^2, x - mid, 1), a 3 x k
        # map solved in t = (x - mid) / half on [-1, 1]; those terms' moments past the end
        hw, k = grid.half_width, max(3, int(n * TAIL_FRACTION))
        fits, tails = [], []
        for lo, hi, x in ((-math.inf, -hw - centers, xs[:k]), (hw - centers, math.inf, xs[-k:])):
            mid, half = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0])
            fits.append(np.linalg.pinv(np.vander((x - mid) / half, 3)) / [[half ** 2], [half], [1]])
            m0, m1, m2 = gaussian_partial_moments(sigma2, lo, hi)
            shift = centers - mid
            tails += [m2 + 2.0 * shift * m1 + shift ** 2 * m0, m1 + shift * m0, m0]
        self._tail_fit, self._tail_moments = np.stack(fits), np.stack(tails)
        for arr in (self._tail_fit, self._tail_moments,
                    *(arr for w in self._shares for arr in (w.data, w.indices, w.indptr))):
            arr.flags.writeable = False

    def apply(self, values) -> np.ndarray:
        """h on the grid for each f sampled along the last axis of ``values``
        (one slice or a stack of any leading shape); same shape as ``values``."""
        v = np.asarray(values, dtype=float)
        n = self.grid.num_points
        if v.shape[-1:] != (n,):
            raise ValueError(f"values shape {v.shape} does not match grid (..., {n})")
        stack = v.reshape(-1, n)
        # one row per band column, zero past the grid; contiguous, else each
        # product copies it
        columns = np.zeros((self._band_columns, len(stack)))
        columns[:n] = stack.T
        h = np.concatenate(workers.run_each(lambda w: w @ columns, self._shares)).T
        (left, right), k = self._tail_fit, self._tail_fit.shape[-1]
        fit = [(stack[:, None, :k] * left).sum(-1), (stack[:, None, -k:] * right).sum(-1)]
        for coef, moments in zip(np.concatenate(fit, axis=1).T, self._tail_moments):
            h += coef[:, None] * moments  # each slice's tails, added in a fixed order
        return h.reshape(v.shape)


class ShapeViolation(NamedTuple):
    kind: str  # "non-finite", "asymmetry" or "decrease"
    e: float
    magnitude: float


def is_symmetric_nondecreasing(grid: ErrorGrid, values, tol: float):
    """Check that the samples ``values`` on ``grid`` are symmetric and
    non-decreasing in |e|, up to tol.

    Returns ``(ok, violation)``: the first NaN or infinite sample, else the
    first :class:`ShapeViolation` found scanning outward from the center
    (symmetry first, then monotonicity on each half); or ``(True, None)``.
    """
    v = np.asarray(values, dtype=float)
    bad = ~np.isfinite(v)  # NaN compares false, so the scan would pass it
    if bad.any():
        return False, ShapeViolation("non-finite", grid.points[bad][0], v[bad][0])
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
