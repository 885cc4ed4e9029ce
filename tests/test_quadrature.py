import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from remest.channel import energy_harvesting_fsm
from remest.dp_symmetric import (SolverSettings, check_growth_rate_bound,
                                 solve_and_extract)
from remest.process import PlantModel
from remest.quadrature import (DegenerateIntervalError, ErrorGrid,
                               GaussianExpectationOperator, GridFunction,
                               ShapeViolation, directional_difference_quotient,
                               expectation_operator, gaussian_partial_moments,
                               is_symmetric_nondecreasing, truncated_moments)


def grid_function(grid, fn):
    return GridFunction(grid, fn(grid.points))


def random_step_function(grid, rng, edge_span=0.75):
    """Symmetric non-decreasing step function with edges clear of the
    tail-fit band (the quadratic extrapolation must represent the data)."""
    n_steps = int(rng.integers(1, 6))
    edges = np.sort(rng.uniform(0, edge_span * grid.half_width, n_steps))
    levels = np.cumsum(rng.uniform(0.0, 2.0, n_steps + 1))
    return GridFunction(grid, levels[np.searchsorted(edges, np.abs(grid.points))])


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

    def test_auto_rule(self):
        grid = ErrorGrid.auto(1.1, 1.0, 20)
        assert grid.half_width == pytest.approx(8.0 * 1.1 ** 20)
        capped = ErrorGrid.auto(1.2, 1.0, 40, max_half_width=100.0)
        assert capped.half_width == 100.0
        # gains below one do not shrink the window
        assert ErrorGrid.auto(0.5, 1.0, 10).half_width == pytest.approx(8.0)


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

    def test_degenerate_interval_raises(self):
        with pytest.raises(DegenerateIntervalError):
            truncated_moments(1.0, 40.0, 41.0)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            truncated_moments(1.0, 1.0, -1.0)


class TestGaussianExpectation:
    def test_constant_invariance(self):
        grid = ErrorGrid(8.0, 501)
        h = expectation_operator(grid, 0.9, 1.3).apply(np.full(grid.num_points, 2.75))
        assert np.max(np.abs(h - 2.75)) < 1e-12

    @pytest.mark.parametrize("a,sigma2", [(1.1, 1.0), (0.0, 0.5), (0.7, 2.0)])
    def test_quadratic_maps_to_quadratic(self, a, sigma2):
        grid = ErrorGrid(8.0, 2001)
        h = expectation_operator(grid, a, sigma2).apply(grid.points ** 2)
        expected = a * a * grid.points ** 2 + sigma2
        # piecewise-linear model bias is spacing^2 / 6, uniform over the grid
        assert np.max(np.abs(h - expected)) < grid.spacing ** 2 / 2

    def test_matches_fine_simpson_oracle_on_piecewise_linear(self):
        grid = ErrorGrid(14.0, 701)
        rng = np.random.default_rng(7)
        f = GridFunction(grid, np.cumsum(rng.normal(size=grid.num_points)) * 0.1)
        a, sigma2 = 0.8, 1.0
        h = expectation_operator(grid, a, sigma2).apply(f.values)
        sigma = math.sqrt(sigma2)
        # ten subdivisions per cell keep the interpolant's kinks on Simpson
        # panel boundaries, where the oracle actually converges
        fine = np.linspace(-grid.half_width, grid.half_width,
                           10 * (grid.num_points - 1) + 1)
        f_fine = f(fine)
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
        f = GridFunction(grid, rng.normal(size=grid.num_points))
        g = GridFunction(grid, rng.normal(size=grid.num_points))
        combo = GridFunction(grid, 2.5 * f.values - 0.7 * g.values)
        direct = op.apply(combo.values)
        split = 2.5 * op.apply(f.values) - 0.7 * op.apply(g.values)
        assert np.max(np.abs(direct - split)) < 1e-12

    def test_preserves_symmetric_monotone_shape(self):
        grid = ErrorGrid(9.0, 801)
        for trial in range(30):
            rng = np.random.default_rng(500 + trial)
            op = GaussianExpectationOperator(grid, float(rng.uniform(0, 1.3)),
                                             float(rng.uniform(0.3, 2.0)))
            h = op.apply(random_step_function(grid, rng).values)
            ok, violation = is_symmetric_nondecreasing(GridFunction(grid, h), 1e-8)
            assert ok, violation

    def test_min_of_shapes_stays_shaped(self):
        grid = ErrorGrid(9.0, 401)
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = random_step_function(grid, rng)
            g = random_step_function(grid, rng)
            m = GridFunction(grid, np.minimum(f.values, g.values))
            ok, violation = is_symmetric_nondecreasing(m, 0.0)
            assert ok, violation

    def test_shapes_are_quasiconvex_on_sampled_triples(self):
        grid = ErrorGrid(9.0, 401)
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = random_step_function(grid, rng).values
            pairs = rng.integers(0, grid.num_points, size=(300, 2))
            for i, j in pairs:
                i, j = min(i, j), max(i, j)
                k = int(rng.integers(i, j + 1))
                assert v[k] <= max(v[i], v[j]) + 1e-12


def dense_expectation(grid, a, sigma2, values):
    """Reference h = E[f(a e + W)] from a dense matrix of every cell's
    closed-form weights plus the analytic tail moments, one slice at a time."""
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
    c = c[:, 0]
    sr, pr = norm.sf(hw, loc=c, scale=sigma), norm.pdf(hw, loc=c, scale=sigma)
    sl, pl = norm.cdf(-hw, loc=c, scale=sigma), norm.pdf(-hw, loc=c, scale=sigma)
    right = np.stack([(c ** 2 + sigma2) * sr + sigma2 * pr * (hw + c),
                      c * sr + sigma2 * pr, sr])
    left = np.stack([(c ** 2 + sigma2) * sl - sigma2 * pl * (c - hw),
                     c * sl - sigma2 * pl, sl])
    out = []
    for v in values:
        f = GridFunction(grid, v)
        out.append(weights @ v + f.tails[1] @ right + f.tails[0] @ left)
    return np.array(out)


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
        # the stacked tail fit differs from the one-slice fit only by rounding
        assert np.max(np.abs(h - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_solve_and_growth_check_build_the_operator_once(self, monkeypatch):
        builds = []
        real_init = GaussianExpectationOperator.__init__

        def counting_init(self, grid, a, sigma2):
            builds.append((grid, a, sigma2))
            real_init(self, grid, a, sigma2)

        monkeypatch.setattr(GaussianExpectationOperator, "__init__", counting_init)
        expectation_operator.cache_clear()
        plant = PlantModel(a=1.1, sigma2=1.0, horizon=4)
        result = solve_and_extract(plant, energy_harvesting_fsm(4, 2, 0.3),
                                   SolverSettings(num_points=401))
        check_growth_rate_bound(result.table, plant, slack=0.1)
        assert len(builds) == 1
        op = expectation_operator(result.table.grid, plant.a, plant.sigma2)
        assert not op._weights.data.flags.writeable


def scalar_shape_scan(f, tol):
    """Point-by-point scan the vectorized checker must reproduce exactly."""
    v, x, c = f.values, f.grid.points, f.grid.center_index
    for i in range(1, c + 1):
        d = v[c + i] - v[c - i]
        if abs(d) > tol:
            return False, ShapeViolation("asymmetry", x[c + i], abs(d))
    for i in range(c, f.grid.num_points - 1):
        if v[i] - v[i + 1] > tol:
            return False, ShapeViolation("decrease", x[i + 1], v[i] - v[i + 1])
    for i in range(c, 0, -1):
        if v[i] - v[i - 1] > tol:
            return False, ShapeViolation("decrease", x[i - 1], v[i] - v[i - 1])
    return True, None


class TestShapeChecks:
    def test_square_is_shaped(self):
        grid = ErrorGrid(4.0, 101)
        ok, violation = is_symmetric_nondecreasing(grid_function(grid, np.square), 1e-12)
        assert ok and violation is None

    def test_identity_fails_at_first_nonzero_point(self):
        grid = ErrorGrid(4.0, 101)
        ok, violation = is_symmetric_nondecreasing(
            grid_function(grid, lambda x: x), 1e-9)
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
            f = GridFunction(grid, v)
            assert is_symmetric_nondecreasing(f, tol) == scalar_shape_scan(f, tol)

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
    ])
    def test_first_violation_of_each_kind(self, tol, values, expected):
        grid = ErrorGrid(5.0, 11)
        ok, violation = is_symmetric_nondecreasing(GridFunction(grid, values), tol)
        assert not ok
        assert violation.kind == expected.kind
        assert violation.e == expected.e
        assert violation.magnitude == pytest.approx(expected.magnitude, abs=1e-15)


class TestDifferenceQuotient:
    def test_square_gives_one_exactly(self):
        grid = ErrorGrid(4.0, 161)
        f = grid_function(grid, np.square)
        assert directional_difference_quotient(f, 1.0) == 1.0
        assert directional_difference_quotient(f, 0.0) == 1.0

    def test_constant_gives_zero(self):
        grid = ErrorGrid(4.0, 161)
        f = grid_function(grid, lambda x: np.full_like(x, 5.0))
        assert directional_difference_quotient(f, 2.0) == 0.0

    @pytest.mark.parametrize("a,sigma2", [(1.1, 1.0), (0.4, 2.0)])
    def test_scaled_square_gives_squared_gain(self, a, sigma2):
        grid = ErrorGrid(4.0, 161)
        f = grid_function(grid, lambda x: a * a * x ** 2 + sigma2)
        for e in (0.0, 0.5, 1.0, 2.5):
            assert directional_difference_quotient(f, e) == pytest.approx(
                a * a, rel=1e-12)

    def test_boundary_raises(self):
        grid = ErrorGrid(4.0, 161)
        f = grid_function(grid, np.square)
        with pytest.raises(ValueError):
            directional_difference_quotient(f, 4.0)
        with pytest.raises(ValueError):
            directional_difference_quotient(f, -1.0)
        with pytest.raises(ValueError):
            directional_difference_quotient(f, 0.30001)
