import dataclasses
import math
import operator
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.sparse import csr_array
from scipy.special import ndtr
from scipy.stats import norm

from remest import quadrature, workers
from remest.channel import ChannelFsm, energy_harvesting_fsm
from remest.dp_symmetric import (SolverSettings, backward_induction,
                                 check_growth_rate_bound, solve_and_extract)
from remest.process import PlantModel
from remest.quadrature import (BAND_BLOCK, BAND_Z, MAX_HALF_WIDTH, TAIL_FRACTION,
                               BandTooLargeError, ErrorGrid, GaussianExpectationOperator,
                               ShapeViolation, SolverOverflowError,
                               gaussian_partial_moments,
                               is_symmetric_nondecreasing)


def random_step_function(grid, rng, edge_span=0.75):
    """Samples of a symmetric non-decreasing step function with edges clear
    of the tail-fit band (the quadratic extrapolation must represent the
    data)."""
    n_steps = int(rng.integers(1, 6))
    edges = np.sort(rng.uniform(0, edge_span * grid.half_width, n_steps))
    levels = np.cumsum(rng.uniform(0.0, 2.0, n_steps + 1))
    return levels[np.searchsorted(edges, np.abs(grid.points))]


def truncated_moments(sigma2, lo, hi):
    """Mass, mean and second moment of N(0, sigma2) conditioned on [lo, hi]."""
    m0, m1, m2 = gaussian_partial_moments(sigma2, lo, hi)
    return m0, m1 / m0, m2 / m0


class TestErrorGrid:
    def test_basic_shape(self):
        grid = ErrorGrid(4.0, 9)
        assert grid.points.shape == (9,)
        assert grid.points[grid.center_index] == 0.0
        assert grid.spacing == pytest.approx(1.0)
        # exact antisymmetry, bitwise
        assert np.array_equal(grid.points, -grid.points[::-1])

    def test_requires_odd_count(self):
        with pytest.raises(ValueError):
            ErrorGrid(4.0, 10)

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.inf, math.nan])
    def test_requires_finite_positive_half_width(self, half_width):
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            ErrorGrid(half_width, 11)

    # 1e308 is finite, but linspace's span 2 * 1e308 overflowed with RuntimeWarnings
    @pytest.mark.parametrize("half_width", [1e308, sys.float_info.max])
    def test_span_that_overflows_is_named(self, half_width):
        message = f"half_width {half_width}: the grid's span 2 * half_width overflows a float"
        with pytest.raises(ValueError, match=re.escape(message)):
            ErrorGrid(half_width, 11)

    def test_widest_grid_has_a_finite_span(self):
        grid = ErrorGrid(sys.float_info.max / 2, 5)
        assert grid.points[-1] == sys.float_info.max / 2 and grid.points[2] == 0.0

    @pytest.mark.parametrize("e", [math.inf, -math.inf, math.nan])
    def test_index_of_rejects_non_finite_points(self, e):
        with pytest.raises(ValueError, match="is not a grid point"):
            ErrorGrid(4.0, 9).index_of(e)

    def test_auto_rule(self):
        grid = ErrorGrid.auto(1.1, 1.0, 20)
        assert grid.half_width == pytest.approx(8.0 * 1.1 ** 20)
        capped = ErrorGrid.auto(1.2, 1.0, 40)
        assert capped.half_width == 100.0
        # gains below one do not shrink the window
        assert ErrorGrid.auto(0.5, 1.0, 10).half_width == pytest.approx(8.0)
        # a power past the float range is past the cap too
        assert ErrorGrid.auto(1.1, 1.0, 8000).half_width == MAX_HALF_WIDTH
        assert ErrorGrid.auto(1000.0, 1.0, 103).half_width == MAX_HALF_WIDTH


class TestTruncatedMoments:
    def test_full_support(self):
        mass, mean, second = truncated_moments(1.0, -math.inf, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-15)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert second == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_symmetric_interval_has_zero_mean(self, t):
        _, mean, _ = truncated_moments(1.0, -t, t)
        assert mean == pytest.approx(0.0, abs=1e-15)

    def test_half_line(self):
        mass, mean, second = truncated_moments(1.0, 0.0, math.inf)
        assert mass == pytest.approx(0.5, abs=1e-15)
        assert mean == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert second == pytest.approx(1.0, rel=1e-12)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sigma2 = rng.uniform(0.25, 4.0)
            lo, hi = np.sort(rng.uniform(-3.0 * math.sqrt(sigma2),
                                         3.0 * math.sqrt(sigma2), 2))
            if hi - lo < 1e-3:
                continue
            mass, mean, second = truncated_moments(sigma2, lo, hi)
            pdf = lambda x: norm.pdf(x, scale=math.sqrt(sigma2))
            m_ref = integrate.quad(pdf, lo, hi, epsabs=0, epsrel=1e-12)[0]
            mu_ref = integrate.quad(lambda x: x * pdf(x), lo, hi,
                                    epsabs=0, epsrel=1e-12)[0] / m_ref
            s_ref = integrate.quad(lambda x: x * x * pdf(x), lo, hi,
                                   epsabs=0, epsrel=1e-12)[0] / m_ref
            assert mass == pytest.approx(m_ref, rel=1e-10)
            assert mean == pytest.approx(mu_ref, rel=1e-8, abs=1e-10)
            assert second == pytest.approx(s_ref, rel=1e-8)

    def test_partition_of_unity(self):
        cuts = (-1.3, 0.4)
        pieces = [gaussian_partial_moments(2.0, -math.inf, cuts[0])[0],
                  gaussian_partial_moments(2.0, cuts[0], cuts[1])[0],
                  gaussian_partial_moments(2.0, cuts[1], math.inf)[0]]
        assert sum(pieces) == pytest.approx(1.0, abs=1e-12)


def ulp_neighbours(values, k):
    """Each value with its k nearest floats on either side."""
    out = []
    for v in values:
        up = down = v
        for _ in range(k):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
            out += [up, down]
        out.append(v)
    return np.array(out)


def assert_ndtr_matches_scipy(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quadrature.ndtr(a)
    want = ndtr(a)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    mismatched = got[finite].view(np.int64) != want[finite].view(np.int64)
    assert not mismatched.any(), np.asarray(a)[finite][mismatched][:5]


class TestNdtr:
    """The numpy ndtr is scipy's (cephes) bit for bit; a libm or scipy build
    that breaks the equivalence fails here first."""

    def test_seeded_arguments_at_many_scales(self):
        rng = np.random.default_rng(2016)
        for scale in (0.5, 1.0, 2.0, 6.0, 12.0, 40.0, 1e3, 1e200):
            assert_ndtr_matches_scipy(scale * rng.standard_normal(125_000))

    def test_branch_edges_and_their_neighbours(self):
        # |x| = 1 and 8 in x = a / sqrt(2), and where -x^2 passes -MAXLOG
        underflow = math.sqrt(2.0 * quadrature._MAXLOG)
        edges = [math.sqrt(2.0), 8.0 * math.sqrt(2.0), underflow]
        points = ulp_neighbours(edges + [-e for e in edges], 64)
        assert_ndtr_matches_scipy(points)
        # the neighbours of the underflow edge fall on both sides of it
        left_tail = quadrature.ndtr(ulp_neighbours([-underflow], 64))
        assert np.any(left_tail == 0.0) and np.any(left_tail > 0.0)

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, tiny, 1e-310, 2.2250738585072014e-308, 1e300, math.inf, 37.7]
        assert_ndtr_matches_scipy(np.array(special + [-v for v in special] + [math.nan]))
        assert quadrature.ndtr(-math.inf) == 0.0 and quadrature.ndtr(math.inf) == 1.0
        assert math.isnan(quadrature.ndtr(math.nan))

    @pytest.mark.parametrize("a", [0.3, -2.0, np.float64(9.0), np.array(-40.0)])
    def test_scalar_in_scalar_out(self, a):
        got = quadrature.ndtr(a)
        assert type(got) is np.float64 and got == ndtr(a)

    def test_shape_is_kept(self):
        a = np.linspace(-10.0, 10.0, 24).reshape(2, 3, 4)
        assert_ndtr_matches_scipy(a)
        assert_ndtr_matches_scipy(np.empty((0, 3)))


class TestGaussianExpectation:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: gaussian_partial_moments(0.0, -1.0, 1.0), ValueError,
         "sigma2 must be positive and finite, got 0.0"),
        (lambda: gaussian_partial_moments(math.inf, -1.0, 1.0), ValueError,
         "sigma2 must be positive and finite, got inf"),
        (lambda: gaussian_partial_moments(1.0, math.nan, 1.0), ValueError,
         r"need lo <= hi, got \(nan, 1.0\)"),
        (lambda: gaussian_partial_moments(1.0, np.array([-1.0, 0.0]), np.array([1.0, math.nan])),
         ValueError, "need lo <= hi"),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), 1.1, -1.0), ValueError,
         "sigma2 must be positive and finite, got -1.0"),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), 1.1, math.nan), ValueError,
         "sigma2 must be positive and finite, got nan"),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), 1.1, math.inf), ValueError,
         "sigma2 must be positive and finite, got inf"),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), math.nan, 1.0), ValueError,
         "a must be finite, got nan"),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), -math.inf, 1.0), ValueError,
         "a must be finite, got -inf"),
        (lambda: GaussianExpectationOperator(ErrorGrid(1e-90, 9), 1.1, 1.0), SolverOverflowError,
         r"half_width 1e-90: half_width\^4 underflows a float; sigma2 or half_width is too small"),
        # past about 1e154 the squared centers overflow, and with a tiny sigma2
        # the cell z^2 do at a smaller gain; unrefused, numpy's RuntimeWarnings
        # fail these under pytest's error::RuntimeWarning
        *((lambda a=a, sigma2=sigma2: GaussianExpectationOperator(ErrorGrid(53.8, 201), a, sigma2),
           SolverOverflowError,
           re.escape(f"gain {a:.3g}: ((|a| + 1) * half_width)^2 / sigma2 overflows a float"))
          for a, sigma2 in [(1e200, 1.0), (1e154, 1.0), (1e150, 1e-10)]),
        (lambda: GaussianExpectationOperator(ErrorGrid(4.0, 9), 1.1, 1.0).apply(
            np.zeros((2, 7))), ValueError,
         r"values shape \(2, 7\) does not match grid \(\.\.\., 9\)"),
    ], ids=["moments-sigma2", "moments-sigma2-inf", "moments-lo-nan", "moments-hi-nan",
            "operator-sigma2", "operator-sigma2-nan", "operator-sigma2-inf", "operator-a-nan",
            "operator-a-inf", "operator-narrow-grid", "operator-gain-1e200",
            "operator-gain-1e154", "operator-gain-1e150-sigma2-1e-10", "apply-shape"])
    def test_bad_input_is_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_gain_whose_squares_fit_builds(self):
        grid, a = ErrorGrid(53.8, 201), 1e100
        h = GaussianExpectationOperator(grid, a, 1.0).apply(grid.points ** 2)
        # the model's interpolation bias, spacing^2 / 6, as in the quadratic test
        assert np.allclose(h, a * a * grid.points ** 2 + 1.0, rtol=1e-9,
                           atol=grid.spacing ** 2 / 2)

    def test_constant_invariance(self):
        grid = ErrorGrid(8.0, 501)
        op = GaussianExpectationOperator(grid, 0.9, 1.3)
        h = op.apply(np.full(grid.num_points, 2.75))
        assert np.max(np.abs(h - 2.75)) < 1e-12

    @pytest.mark.parametrize("a,sigma2", [(1.1, 1.0), (0.0, 0.5), (0.7, 2.0)])
    def test_quadratic_maps_to_quadratic(self, a, sigma2):
        grid = ErrorGrid(8.0, 2001)
        h = GaussianExpectationOperator(grid, a, sigma2).apply(grid.points ** 2)
        expected = a * a * grid.points ** 2 + sigma2
        # piecewise-linear model bias is spacing^2 / 6, uniform over the grid
        assert np.max(np.abs(h - expected)) < grid.spacing ** 2 / 2

    def test_matches_fine_simpson_oracle_on_piecewise_linear(self):
        grid = ErrorGrid(14.0, 701)
        rng = np.random.default_rng(7)
        f = np.cumsum(rng.normal(size=grid.num_points)) * 0.1
        a, sigma2 = 0.8, 1.0
        h = GaussianExpectationOperator(grid, a, sigma2).apply(f)
        sigma = math.sqrt(sigma2)
        # ten subdivisions per cell keep the interpolant's kinks on Simpson
        # panel boundaries, where the oracle actually converges
        fine = np.linspace(-grid.half_width, grid.half_width,
                           10 * (grid.num_points - 1) + 1)
        f_fine = np.interp(fine, grid.points, f)
        checked = 0
        for i in range(0, grid.num_points, 23):
            e = grid.points[i]
            if abs(a * e) + 8 * sigma > grid.half_width:
                continue  # keep the kernel mass inside the grid
            ref = integrate.simpson(f_fine * norm.pdf(fine - a * e, scale=sigma),
                                    x=fine)
            assert h[i] == pytest.approx(ref, rel=1e-6, abs=1e-9)
            checked += 1
        assert checked > 10

    def test_linearity(self):
        grid = ErrorGrid(5.0, 401)
        rng = np.random.default_rng(3)
        op = GaussianExpectationOperator(grid, 1.05, 0.8)
        f = rng.normal(size=grid.num_points)
        g = rng.normal(size=grid.num_points)
        direct = op.apply(2.5 * f - 0.7 * g)
        split = 2.5 * op.apply(f) - 0.7 * op.apply(g)
        assert np.max(np.abs(direct - split)) < 1e-12

    def test_min_of_shapes_stays_shaped(self):
        grid = ErrorGrid(9.0, 401)
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = random_step_function(grid, rng)
            g = random_step_function(grid, rng)
            ok, violation = is_symmetric_nondecreasing(grid, np.minimum(f, g), 0.0)
            assert ok, violation

    def test_shapes_are_quasiconvex_on_sampled_triples(self):
        grid = ErrorGrid(9.0, 401)
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = random_step_function(grid, rng)
            pairs = rng.integers(0, grid.num_points, size=(300, 2))
            for i, j in pairs:
                i, j = min(i, j), max(i, j)
                k = int(rng.integers(i, j + 1))
                assert v[k] <= max(v[i], v[j]) + 1e-12


def exact_quadratic_fit(t, y):
    """Least-squares coefficients of (t^2, t, 1) to the samples y at t, solved
    in exact rational arithmetic on the floats' values and rounded once each."""
    cols = [[Fraction(v) ** p for v in t.tolist()] for p in (2, 1, 0)]
    ys = [Fraction(v) for v in y.tolist()]
    rows = [[sum(map(operator.mul, u, w)) for w in cols] + [sum(map(operator.mul, u, ys))]
            for u in cols]  # the normal equations, solved by Gauss-Jordan elimination
    for i in range(3):
        rows[i] = [r / rows[i][i] for r in rows[i]]
        for j in range(3):
            if j != i:
                rows[j] = [r - rows[j][i] * q for r, q in zip(rows[j], rows[i])]
    return np.array([float(row[3]) for row in rows])


def dense_expectation(grid, a, sigma2, values):
    """Reference h = E[f(a e + W)] from a dense matrix of every cell's
    closed-form weights plus the analytic tail moments, one slice at a time.
    Each tail is the exact least-squares quadratic in t = (x - mid) / half
    over its side's outer samples, against the moments of (t^2, t, 1) beyond
    that grid end."""
    sigma = math.sqrt(sigma2)
    xs, dx, hw = grid.points, grid.spacing, grid.half_width
    c = a * xs[:, None]
    cdf = ndtr((xs[None, :] - c) / sigma)
    dens = norm.pdf(xs[None, :], loc=c, scale=sigma)
    p0 = cdf[:, 1:] - cdf[:, :-1]
    p1 = c * p0 + sigma2 * (dens[:, :-1] - dens[:, 1:])
    weights = np.zeros((grid.num_points, grid.num_points))
    weights[:, :-1] += (xs[None, 1:] * p0 - p1) / dx
    weights[:, 1:] += (p1 - xs[None, :-1] * p0) / dx
    out = np.array([weights @ v for v in values])
    k = max(3, int(grid.num_points * TAIL_FRACTION))
    for side, sign in ((slice(None, k), -1.0), (slice(-k, None), 1.0)):
        x = xs[side]
        mid, half = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0])
        # s = x - mid ~ N(mu, sigma2), beyond the grid end at s = end
        mu, end = c[:, 0] - mid, sign * hw - mid
        m0 = norm.sf(end, loc=mu, scale=sigma) if sign > 0 else norm.cdf(end, loc=mu, scale=sigma)
        pdf = sign * sigma2 * norm.pdf(end, loc=mu, scale=sigma)
        moments = np.stack([((mu ** 2 + sigma2) * m0 + pdf * (mu + end)) / half ** 2,
                            (mu * m0 + pdf) / half, m0])
        for h, v in zip(out, values):
            h += exact_quadratic_fit((x - mid) / half, v[side]) @ moments
    return out


def reference_csr_band(grid, a, sigma2):
    """The operator's band as one CSR matrix with a column index per weight,
    filled 256 rows at a time, as the operator stored it before its 1 x 16
    blocks; returns it with the band's width."""
    sigma = math.sqrt(sigma2)
    xs, n, dx = grid.points, grid.num_points, grid.spacing
    centers = float(a) * xs
    width = min(n, math.ceil(2.0 * BAND_Z * sigma / dx) + 2)
    first = np.floor((centers - BAND_Z * sigma + grid.half_width) / dx)
    first = np.clip(first, 0, n - width).astype(np.intp)
    data, indices = np.zeros((n, width)), np.empty((n, width), dtype=np.int32)
    for start in range(0, n, 256):
        rows = slice(start, start + 256)
        cols = first[rows, None] + np.arange(width)
        indices[rows] = cols
        u, c = xs[cols], centers[rows, None]
        z = (u - c) / sigma
        cdf = ndtr(z)
        dens = quadrature._std_pdf(z) / sigma
        p0 = cdf[:, 1:] - cdf[:, :-1]
        p1 = c * p0 + sigma2 * (dens[:, :-1] - dens[:, 1:])
        weights = data[rows]
        weights[:, :-1] += (u[:, 1:] * p0 - p1) / dx
        weights[:, 1:] += (p1 - u[:, :-1] * p0) / dx
    band = csr_array((data.reshape(-1), indices.reshape(-1),
                      np.arange(n + 1, dtype=np.int32) * width), shape=(n, n))
    return band, width


def band_test_stack(grid):
    """Slices with negatives, exact zeros and interior samples of 1e300 (the
    tail fit sees ordinary values)."""
    n = grid.num_points
    stack = np.cumsum(np.random.default_rng(n).normal(size=(4, n)), axis=1)
    stack[1] = 0.0
    stack[2] = -grid.points ** 2
    inner = np.abs(grid.points) < 0.5 * grid.half_width
    stack[3, inner & (np.arange(n) % 3 == 0)] = 1e300
    return stack


class TestBandedOperator:
    @pytest.mark.parametrize("a", [0.0, 0.6, 1.1, -0.9])
    @pytest.mark.parametrize("half_width,num_points", [
        (3.0, 61),    # sigma = 1: every node lies inside each row's band
        (40.0, 801),  # a band a quarter of the grid wide, slid at both ends
    ])
    def test_matches_dense_reference(self, a, half_width, num_points):
        grid = ErrorGrid(half_width, num_points)
        rng = np.random.default_rng(17)
        values = np.cumsum(rng.normal(size=(4, grid.num_points)), axis=1)
        values[0] = grid.points ** 2
        h = GaussianExpectationOperator(grid, a, 1.0).apply(values)
        ref = dense_expectation(grid, a, 1.0, values)
        assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_stacked_apply_equals_row_by_row(self):
        grid = ErrorGrid(20.0, 401)
        op = GaussianExpectationOperator(grid, 1.1, 0.7)
        rng = np.random.default_rng(5)
        stack = np.cumsum(rng.normal(size=(3, 4, grid.num_points)), axis=-1)
        h = op.apply(stack)
        assert h.shape == stack.shape
        rows = np.array([[op.apply(v) for v in block] for block in stack])
        # scipy multiplies one slice with its one-vector kernel, which rounds
        # differently from its kernel for a stack
        assert np.max(np.abs(h - rows)) <= 1e-14 * np.max(np.abs(rows))

    @pytest.mark.parametrize("shares", [1, 3])
    def test_a_slice_is_bit_identical_in_stacks_of_2_and_35(self, monkeypatch, shares):
        force_shares(monkeypatch, shares)
        grid = ErrorGrid(20.0, 401)
        op = GaussianExpectationOperator(grid, 1.1, 0.7)
        stack = np.cumsum(np.random.default_rng(8).normal(size=(35, grid.num_points)), axis=-1)
        whole = op.apply(stack)
        for j in range(35):
            pair = op.apply(stack[[j, (j + 1) % 35]])
            assert pair[0].tobytes() == whole[j].tobytes(), j

    def test_solve_and_growth_check_build_the_operator_once(self, monkeypatch):
        builds = []
        real_init = GaussianExpectationOperator.__init__

        def counting_init(self, grid, a, sigma2):
            real_init(self, grid, a, sigma2)
            for share in self._shares:
                for arr in (share.data, share.indices, share.indptr):
                    assert not arr.flags.writeable
            assert not self._tail_fit.flags.writeable
            assert not self._tail_moments.flags.writeable
            builds.append(weakref.ref(self))

        monkeypatch.setattr(GaussianExpectationOperator, "__init__", counting_init)
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=4)
        result = solve_and_extract(plant, energy_harvesting_fsm(4, 2, 0.3),
                                   SolverSettings(num_points=401))
        assert len(builds) == 1
        assert builds[0]() is None  # nothing holds the operator past the solve
        check_growth_rate_bound(result.table)
        assert len(builds) == 1

    def test_results_are_bit_identical_for_any_share_count(self, monkeypatch):
        grid = ErrorGrid(20.0, 401)
        stack = np.cumsum(np.random.default_rng(5).normal(size=(3, 4, grid.num_points)),
                          axis=-1)
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=6)
        fsm = energy_harvesting_fsm(4, 2, 0.3)
        results = []
        for count in (1, 2, 3):
            with monkeypatch.context() as m:
                force_shares(m, count)
                op = GaussianExpectationOperator(grid, 1.1, 0.7)
                table = backward_induction(plant, fsm, SolverSettings(num_points=401))
            assert len(op._shares) == count
            assert sum(share.shape[0] for share in op._shares) == grid.num_points
            results.append([op.apply(stack)] + [
                getattr(table, name)
                for name in ("values", "smoothed", "cost_wait", "cost_send", "transmit")])
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("shares", [1, 2, 3])
    @pytest.mark.parametrize("half_width,num_points", [
        (3.0, 5), (3.0, 11), (3.0, 15), (3.0, 17), (3.0, 61),
        (45.0, 61),  # a band exactly one block wide at sigma2 = 1
        (40.0, 401), (60.0, 2001),
    ])
    def test_block_band_is_bit_identical_to_the_csr_band(self, monkeypatch, shares,
                                                          half_width, num_points):
        force_shares(monkeypatch, shares)
        grid = ErrorGrid(half_width, num_points)
        stack = band_test_stack(grid)
        for a in (0.0, 0.6, 1.1, -0.9):
            for sigma2 in (0.3, 1.0):
                op = GaussianExpectationOperator(grid, a, sigma2)
                band, width = reference_csr_band(grid, a, sigma2)
                want = (band @ np.ascontiguousarray(stack.T)).T
                # the tails from the operator's own map, in the order apply sums them
                (left, right), k = op._tail_fit, op._tail_fit.shape[-1]
                fit = np.concatenate([(stack[:, None, :k] * left).sum(-1),
                                      (stack[:, None, -k:] * right).sum(-1)], axis=1)
                for coef, moments in zip(fit.T, op._tail_moments):
                    want += coef[:, None] * moments
                got = op.apply(stack)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (a, sigma2)
                per_row = -(-(width + BAND_BLOCK - 1) // BAND_BLOCK)
                assert len(op._shares) == min(shares, num_points)
                for share in op._shares:
                    assert share.blocksize == (1, BAND_BLOCK)
                    assert share.indices.size == share.shape[0] * per_row
                    share.check_format(full_check=True)  # block indices in range

    @pytest.mark.parametrize("shares", [1, 3])
    @pytest.mark.parametrize("half_width,num_points", [
        (3.0, 61),    # every row spans the grid
        (10.0, 801),  # verify's operator: dense rows, 51 blocks each
        (60.0, 2001),
    ])
    def test_band_is_bit_identical_for_any_fill_chunk(self, monkeypatch, shares,
                                                       half_width, num_points):
        force_shares(monkeypatch, shares)
        grid = ErrorGrid(half_width, num_points)
        stack = band_test_stack(grid)
        pdf, calls = quadrature._std_pdf, []  # once per fill chunk, four times for the tails
        monkeypatch.setattr(quadrature, "_std_pdf", lambda z: calls.append(1) or pdf(z))
        builds, chunks = [], []
        # one row per chunk, some rows, the whole band in one chunk per share
        for entries in (1, 40 * num_points, 20 * num_points ** 2):
            monkeypatch.setattr(quadrature, "FILL_ENTRIES", entries)
            calls.clear()
            op = GaussianExpectationOperator(grid, 1.1, 1.0)
            chunks.append(len(calls) - 4)
            builds.append([op.apply(stack).view(np.int64)] + [
                arr for share in op._shares for arr in (share.data.view(np.int64),
                                                        share.indices)])
        assert chunks[0] == num_points and chunks[-1] == shares
        assert chunks[-1] < chunks[1] < chunks[0]
        for other in builds[1:]:
            assert len(other) == len(builds[0])
            for got, want in zip(other, builds[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("half_width,num_points", [
        (8.0 * 1.1 ** 20, 4001),
        (10.0, 801),  # verify's dense operator
    ])
    def test_build_holds_little_more_than_the_padded_band(self, monkeypatch, half_width,
                                                          num_points):
        """The band with one index per 16 weights, plus the fill's temporaries
        for one chunk of rows: an allowance of ten float arrays of
        ``FILL_ENTRIES``. The CSR band, with one index per weight and filled
        256 rows at a time, does not fit."""
        force_shares(monkeypatch, 1)
        grid, a, sigma2 = ErrorGrid(half_width, num_points), 1.1, 1.0
        GaussianExpectationOperator(ErrorGrid(4.0, 9), a, sigma2)  # imports scipy

        def traced_peak(build):
            tracemalloc.start()
            try:
                built = build()
                return built, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        op, peak = traced_peak(lambda: GaussianExpectationOperator(grid, a, sigma2))
        _, csr_peak = traced_peak(lambda: reference_csr_band(grid, a, sigma2))
        n, padded_width = grid.num_points, op._shares[0].data.size // grid.num_points
        band_bytes = n * padded_width * 8 + n * (padded_width // BAND_BLOCK) * 4 + (n + 1) * 4
        assert sum(w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
                   for w in op._shares) == band_bytes
        bound = band_bytes + 10 * quadrature.FILL_ENTRIES * 8
        assert peak <= bound
        assert csr_peak > bound

    @pytest.mark.parametrize("shares", [1, 3])
    def test_a_band_of_physical_memory_is_the_largest_allowed(self, monkeypatch, shares):
        force_shares(monkeypatch, shares)
        grid = ErrorGrid(20.0, 401)
        op = GaussianExpectationOperator(grid, 1.1, 0.7)
        nbytes = sum(share.data.nbytes for share in op._shares)
        monkeypatch.setattr(workers, "physical_memory", lambda: nbytes)
        GaussianExpectationOperator(grid, 1.1, 0.7)
        monkeypatch.setattr(workers, "physical_memory", lambda: nbytes - 1)
        fills = []
        monkeypatch.setattr(quadrature, "_std_pdf", lambda z: fills.append(z))
        with pytest.raises(BandTooLargeError, match=re.escape(
                f"the expectation operator's band, 401 rows of {nbytes // 401 // 8} weights, "
                f"is {nbytes} bytes, more than the host's physical memory ({nbytes - 1} bytes)")):
            GaussianExpectationOperator(grid, 1.1, 0.7)
        assert not fills  # refused before the fill

    def test_no_share_thread_outlives_a_build_or_an_apply(self, monkeypatch):
        force_shares(monkeypatch, 3)
        caller, seen = threading.current_thread(), []  # the threads that fill or apply
        pdf = quadrature._std_pdf
        monkeypatch.setattr(quadrature, "_std_pdf",
                            lambda z: seen.append(threading.current_thread()) or pdf(z))

        class RecordingShare:
            def __init__(self, share):
                self.share = share

            def __matmul__(self, columns):
                seen.append(threading.current_thread())
                return self.share @ columns

        before = set(threading.enumerate())
        op = GaussianExpectationOperator(ErrorGrid(20.0, 401), 1.1, 0.7)
        built_by = set(seen)
        assert not any(t.is_alive() for t in built_by - {caller})
        seen.clear()
        op._shares = [RecordingShare(share) for share in op._shares]
        op.apply(np.ones(401))
        applied_by = set(seen)
        assert not any(t.is_alive() for t in applied_by - {caller})
        for threads in (built_by, applied_by):
            assert caller in threads and len(threads) > 1  # the others took shares
        assert set(threading.enumerate()) == before


def force_shares(monkeypatch, count):
    """Make every operator band, however small, split into ``count`` row shares."""
    monkeypatch.setattr(quadrature, "SHARE_ENTRIES", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: count)


def scalar_shape_scan(grid, v, tol):
    """Point-by-point scan the vectorized checker must reproduce exactly."""
    x, c = grid.points, grid.center_index
    for i in range(1, c + 1):
        d = v[c + i] - v[c - i]
        if abs(d) > tol:
            return False, ShapeViolation("asymmetry", x[c + i], abs(d))
    for i in range(c, grid.num_points - 1):
        if v[i] - v[i + 1] > tol:
            return False, ShapeViolation("decrease", x[i + 1], v[i] - v[i + 1])
    for i in range(c, 0, -1):
        if v[i] - v[i - 1] > tol:
            return False, ShapeViolation("decrease", x[i - 1], v[i] - v[i - 1])
    return True, None


class TestShapeChecks:
    def test_square_is_shaped(self):
        grid = ErrorGrid(4.0, 101)
        ok, violation = is_symmetric_nondecreasing(grid, grid.points ** 2, 1e-12)
        assert ok and violation is None

    def test_identity_fails_at_first_nonzero_point(self):
        grid = ErrorGrid(4.0, 101)
        ok, violation = is_symmetric_nondecreasing(grid, grid.points, 1e-9)
        assert not ok
        assert violation.kind == "asymmetry"
        assert violation.e == pytest.approx(grid.spacing)


    def test_matches_scalar_scan(self):
        grid = ErrorGrid(4.0, 41)
        base = np.floor(np.abs(grid.points))  # symmetric steps with flat runs
        rng = np.random.default_rng(23)
        for trial in range(300):
            tol = float(rng.uniform(0.05, 0.2))
            noise = rng.uniform(-tol, tol, grid.num_points)
            sparse = 3.0 * noise * (rng.random(grid.num_points) < 0.1)
            v = [base + sparse,  # asymmetries
                 base + 0.5 * (sparse + sparse[::-1]),  # symmetric dips
                 base + np.where(grid.points < 0, noise, 0.0),  # left-only drops
                 ][trial % 3]
            assert (is_symmetric_nondecreasing(grid, v, tol)
                    == scalar_shape_scan(grid, v, tol))

    @pytest.mark.parametrize("tol,values,expected", [
        # the innermost asymmetry wins over a larger one further out
        (0.1, [25, 16, 9, 4, 1, 0, 1, 4.5, 9, 19, 25],
         ShapeViolation("asymmetry", 2.0, 0.5)),
        # symmetric dips: the right half is scanned before the left
        (0.1, [10, 16, 2, 4, 1, 0, 1, 4, 2, 16, 10],
         ShapeViolation("decrease", 3.0, 2.0)),
        # asymmetries and right-half drops all within tol
        (1.0, [-1.5, -1.5, -1.5, 0.75, 0.5, 0, 0, 0, -0.75, -0.75, -0.75],
         ShapeViolation("decrease", -3.0, 2.25)),
        # a NaN compares false and an infinite tolerance passes an inf: the
        # first non-finite sample in grid order, before any other violation
        (0.0, [math.nan] * 11, ShapeViolation("non-finite", -5.0, math.nan)),
        (0.0, [25, 16, 9, 4, 1, 0, 1, 4, 9, 16, math.inf],
         ShapeViolation("non-finite", 5.0, math.inf)),
        (math.inf, [25, 16, 9, 4, 1, math.inf, 1, 4, 9, 16, 25],
         ShapeViolation("non-finite", 0.0, math.inf)),
        (0.0, [25, 16, 9, 4, 1, -math.inf, 1, 4, 9, 16, 2],
         ShapeViolation("non-finite", 0.0, -math.inf)),
    ])
    def test_first_violation_of_each_kind(self, tol, values, expected):
        grid = ErrorGrid(5.0, 11)
        ok, violation = is_symmetric_nondecreasing(grid, values, tol)
        assert not ok
        assert violation.kind == expected.kind
        assert violation.e == expected.e
        assert violation.magnitude == pytest.approx(expected.magnitude, abs=1e-15, nan_ok=True)


def growth_quotient(smoothed_fn):
    """The growth check's largest forward quotient of ``smoothed_fn`` with
    respect to e^2, read from a one-state table carrying that smoothing."""
    plant = PlantModel(a=1.0, sigma2=1.0, horizon=1)
    fsm = ChannelFsm(1, ((0, 0),), (0.5,), 0, (True,))
    table = backward_induction(plant, fsm,
                               SolverSettings(half_width=4.0, num_points=161))
    smoothed = np.broadcast_to(smoothed_fn(table.grid.points), table.smoothed.shape)
    table = dataclasses.replace(table, smoothed=smoothed.copy())
    return check_growth_rate_bound(table).max_quotient


class TestDifferenceQuotient:
    def test_square_gives_one_exactly(self):
        assert np.all(growth_quotient(np.square) == 1.0)

    def test_constant_gives_zero(self):
        assert np.all(growth_quotient(lambda x: np.full_like(x, 5.0)) == 0.0)

    @pytest.mark.parametrize("a,sigma2", [(1.1, 1.0), (0.4, 2.0)])
    def test_scaled_square_gives_squared_gain(self, a, sigma2):
        quotient = growth_quotient(lambda x: a * a * x ** 2 + sigma2)
        assert quotient == pytest.approx(np.full(quotient.shape, a * a), rel=1e-12)
