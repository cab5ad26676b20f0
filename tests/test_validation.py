import numpy as np
import pytest

from dettree import (
    BuildConfig,
    Ensemble,
    build_tree,
    det_density_many,
    gaussian_pdf,
    grid_ise,
    ks_test,
    sample_gaussian,
    sample_moments,
)
from dettree.validation import kolmogorov_pvalue

from conftest import REF_COV


def uniform_cdf(x):
    return min(max(x, 0.0), 1.0)


class TestKsTest:
    def test_equioscillating_quantiles(self):
        n = 40
        samples = (np.arange(1, n + 1) - 0.5) / n
        res = ks_test(samples, uniform_cdf)
        assert res.statistic == pytest.approx(0.5 / n, abs=1e-15)
        assert res.sample_size == n

    def test_point_mass_at_median(self):
        samples = np.full(100, 0.5)
        res = ks_test(samples, uniform_cdf)
        assert res.statistic == pytest.approx(0.5, abs=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(7) / 7.0, uniform_cdf)

    def test_rejection_rate_calibrated(self):
        # under the null the asymptotic test should reject ~5% at level 0.05
        rejections = 0
        trials = 200
        for seed in range(trials):
            samples = np.random.default_rng(seed).random(1000)
            if ks_test(samples, uniform_cdf).p_value < 0.05:
                rejections += 1
        assert abs(rejections / trials - 0.05) <= 0.03

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(10)
        samples = rng.random(500)
        base = ks_test(samples, uniform_cdf)
        transformed = ks_test(np.exp(samples), lambda y: uniform_cdf(np.log(y)) if y > 0 else 0.0)
        assert transformed.statistic == pytest.approx(base.statistic, abs=1e-14)

    def test_pvalue_monotone_in_statistic(self):
        ts = np.linspace(0.1, 3.0, 30)
        ps = [kolmogorov_pvalue(t) for t in ts]
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))
        assert kolmogorov_pvalue(0.0) == 1.0


class TestSampleMoments:
    def test_two_points(self):
        mean, cov = sample_moments(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(mean, [1.0, 1.0])
        assert np.allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_repeated_point(self):
        mean, cov = sample_moments(np.tile([3.0, -1.0], (5, 1)))
        assert np.allclose(mean, [3.0, -1.0])
        assert np.allclose(cov, 0.0)

    def test_recovers_reference_covariance(self, ref_gaussian):
        pts = sample_gaussian(ref_gaussian, 19, 100_000)
        _, cov = sample_moments(pts)
        assert np.max(np.abs(cov - REF_COV)) < 0.02

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            sample_moments(np.array([[1.0, 2.0]]))


class TestGridIse:
    def test_identical_densities(self):
        f = lambda x: np.sum(x**2, axis=1)
        assert grid_ise(f, f, [(0.0, 1.0, 20), (0.0, 1.0, 20)]) == 0.0

    def test_unit_constant_difference(self):
        one = lambda x: np.ones(x.shape[0])
        zero = lambda x: np.zeros(x.shape[0])
        value = grid_ise(one, zero, [(0.0, 1.0, 101), (0.0, 1.0, 101)])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        a = lambda x: np.exp(-np.sum(x**2, axis=1))
        b = lambda x: np.abs(x).sum(axis=1)
        grid = [(-1.0, 2.0, 15), (-1.0, 2.0, 15)]
        ab = grid_ise(a, b, grid)
        ba = grid_ise(b, a, grid)
        assert ab == ba
        assert ab > 0.0

    def test_wrong_result_shape_rejected(self, ref_gaussian):
        grid = [(-2.0, 2.0, 9)] * 3
        batch = lambda pts: gaussian_pdf(ref_gaussian, pts)
        with pytest.raises(ValueError, match="shape"):
            grid_ise(batch, lambda x: 0.0, grid)
        with pytest.raises(ValueError, match="shape"):
            grid_ise(lambda x: batch(x)[:, None], batch, grid)

    def test_density_errors_propagate(self):
        def broken(x):
            raise ZeroDivisionError("broken density")

        with pytest.raises(ZeroDivisionError):
            grid_ise(broken, lambda x: np.zeros(x.shape[0]), [(0.0, 1.0, 4)])

    def test_det_error_decreases_with_sample_size(self, ref_gaussian):
        # median ISE against the generating density must drop from n=1e3 to 1e5
        grid = [(-3.0, 3.0, 41)] * 3
        ref = lambda pts: gaussian_pdf(ref_gaussian, pts)
        medians = []
        for n in (1000, 100_000):
            values = []
            for seed in range(5):
                data = sample_gaussian(ref_gaussian, 700 + seed, n)
                tree = build_tree(Ensemble(data), BuildConfig())
                values.append(grid_ise(lambda pts: det_density_many(tree, pts), ref, grid))
            medians.append(float(np.median(values)))
        assert medians[0] > medians[1] > 0.0
