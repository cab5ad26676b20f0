import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from dettree import (
    Condition,
    DirichletSpec,
    GaussianSpec,
    dirichlet_conditional_cdf,
    dirichlet_pdf,
    gaussian_conditional,
    gaussian_pdf,
    ks_test,
    sample_dirichlet,
    sample_gaussian,
)

from dettree.core import _BLOCK_ROWS
from dettree.reference import dirichlet_marginal_cdf

from conftest import REF_COV, reference_sample_dirichlet, reference_sample_gaussian

ALPHA = np.array([1.25, 2.0, 0.75])
# around one and two blocks of the generators; a one-row last block included
BLOCK_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]


def det3_cofactor(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class TestGaussianSpec:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_covariance_near_the_float64_maximum(self):
        # the symmetrized covariance is halved before it is summed where the sum overflows
        cov = [[1e308, -1e308], [-1e308, 1.5e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = GaussianSpec(mu=np.zeros(2), cov=cov)
            with pytest.raises(ValueError, match="symmetric"):
                GaussianSpec(mu=np.zeros(2), cov=[[1.0, 1e308], [-1e308, 1.0]])
        assert spec.cov.tolist() == cov

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGaussianPdf:
    def test_standard_normal_at_origin(self):
        spec = GaussianSpec(mu=np.zeros(1), cov=np.eye(1))
        assert gaussian_pdf(spec, np.zeros(1)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_peak_value_against_cofactor_determinant(self, ref_gaussian):
        det = det3_cofactor(REF_COV)
        expected = 1.0 / math.sqrt((2.0 * math.pi) ** 3 * det)
        assert gaussian_pdf(ref_gaussian, np.zeros(3)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_about_mean(self, ref_gaussian):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(3)
            assert gaussian_pdf(ref_gaussian, v) == pytest.approx(gaussian_pdf(ref_gaussian, -v), rel=1e-12)

    def test_integrates_to_one_1d(self):
        spec = GaussianSpec(mu=np.array([0.7]), cov=np.array([[2.0]]))
        mass, _ = quad(lambda x: gaussian_pdf(spec, np.array([x])), -20.0, 20.0)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_integrates_to_one_2d(self):
        spec = GaussianSpec(mu=np.zeros(2), cov=np.array([[1.0, 0.6], [0.6, 1.0]]))
        mass, _ = dblquad(lambda y, x: gaussian_pdf(spec, np.array([x, y])), -8.0, 8.0, -8.0, 8.0)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_integrates_to_one_3d_grid(self):
        spec = GaussianSpec(mu=np.zeros(3), cov=np.diag([1.0, 0.5, 2.0]))
        sigmas = np.sqrt(np.diag(spec.cov))
        cells = 61
        axes = []
        weight = 1.0
        for s in sigmas:
            h = 12.0 * s / cells
            axes.append(-6.0 * s + h * (np.arange(cells) + 0.5))
            weight *= h
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        mass = float(np.sum(gaussian_pdf(spec, pts))) * weight
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_batch_matches_single(self, ref_gaussian):
        pts = np.random.default_rng(3).standard_normal((10, 3))
        batch = gaussian_pdf(ref_gaussian, pts)
        for i in range(10):
            assert batch[i] == pytest.approx(gaussian_pdf(ref_gaussian, pts[i]), rel=1e-14)


class TestSampleGaussian:
    def test_zero_count(self):
        spec = GaussianSpec(mu=np.zeros(2), cov=np.eye(2))
        assert sample_gaussian(spec, 1, 0).shape == (0, 2)

    def test_identity_covariance_independence(self):
        spec = GaussianSpec(mu=np.zeros(3), cov=np.eye(3))
        pts = sample_gaussian(spec, 8, 100_000)
        cov = np.cov(pts, rowvar=False)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02

    def test_reference_covariance_recovered(self, ref_gaussian):
        pts = sample_gaussian(ref_gaussian, 9, 100_000)
        cov = np.cov(pts, rowvar=False)
        assert np.max(np.abs(cov - REF_COV)) < 0.02

    def test_deterministic(self, ref_gaussian):
        assert np.array_equal(sample_gaussian(ref_gaussian, 4, 100), sample_gaussian(ref_gaussian, 4, 100))

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_bytes_of_the_whole_array_draw(self, d, count):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        spec = GaussianSpec(mu=rng.standard_normal(d), cov=a @ a.T + 0.1 * np.eye(d))
        for seed in (0, 2**40 + 3):
            pts = sample_gaussian(spec, seed, count)
            assert pts.shape == (count, d) and pts.dtype == np.float64
            assert pts.tobytes() == reference_sample_gaussian(spec, seed, count).tobytes()

    def test_shift_in_place(self):
        spec = GaussianSpec(mu=np.array([1.5, -2.25, 0.1]), cov=REF_COV)
        sample_gaussian(spec, 0, 10)  # first-call allocations of the generator and matmul
        tracemalloc.start()
        try:
            pts = sample_gaussian(spec, 3, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.tobytes() == reference_sample_gaussian(spec, 3, 200_000).tobytes()
        # the output plus one block's draws
        assert peak <= pts.nbytes + 2**20


class TestGaussianConditional:
    def test_diagonal_independence(self):
        spec = GaussianSpec(mu=np.array([1.0, 2.0, 3.0]), cov=np.diag([1.0, 4.0, 9.0]))
        cond_spec = gaussian_conditional(spec, Condition([(2, 5.0)]))
        assert np.allclose(cond_spec.mu, [1.0, 2.0])
        assert np.allclose(cond_spec.cov, np.diag([1.0, 4.0]))

    def test_reference_conditional_at_zero(self, ref_gaussian):
        cond_spec = gaussian_conditional(ref_gaussian, Condition([(2, 0.0)]))
        # C' = C_ff - c c^T / C_33 with c = (0.5, 0.6)
        assert np.allclose(cond_spec.mu, [0.0, 0.0], atol=1e-15)
        assert np.allclose(cond_spec.cov, [[0.10, -0.05], [-0.05, 0.04]], atol=1e-15)

    def test_reference_conditional_at_two(self, ref_gaussian):
        cond_spec = gaussian_conditional(ref_gaussian, Condition([(2, 2.0)]))
        assert np.allclose(cond_spec.mu, [1.0, 1.2], atol=1e-15)

    @pytest.mark.parametrize("x3", [0.0, 2.0])
    def test_agrees_with_normalized_slice(self, ref_gaussian, x3):
        cond_spec = gaussian_conditional(ref_gaussian, Condition([(2, x3)]))
        sigmas = np.sqrt(np.diag(cond_spec.cov))
        cells = 101
        axes = []
        weight = 1.0
        for mu_i, s_i in zip(cond_spec.mu, sigmas):
            h = 12.0 * s_i / cells
            axes.append(mu_i - 6.0 * s_i + h * (np.arange(cells) + 0.5))
            weight *= h
        g1, g2 = np.meshgrid(*axes, indexing="ij")
        slice_pts = np.stack([g1.ravel(), g2.ravel(), np.full(g1.size, x3)], axis=-1)
        slice_vals = gaussian_pdf(ref_gaussian, slice_pts)
        normalized = slice_vals / (np.sum(slice_vals) * weight)
        direct = gaussian_pdf(cond_spec, slice_pts[:, :2])
        assert np.max(np.abs(normalized - direct)) < 1e-6

    def test_requires_strict_subset(self, ref_gaussian):
        with pytest.raises(ValueError):
            gaussian_conditional(ref_gaussian, Condition([(0, 0.0), (1, 0.0), (2, 0.0)]))
        with pytest.raises(ValueError):
            gaussian_conditional(ref_gaussian, Condition())


class TestDirichletPdf:
    def test_flat_case_is_two(self):
        spec = DirichletSpec(alpha=np.ones(3))
        assert dirichlet_pdf(spec, 0.2, 0.3) == pytest.approx(2.0, rel=1e-14)

    def test_outside_simplex_zero(self):
        spec = DirichletSpec(alpha=ALPHA)
        assert dirichlet_pdf(spec, 0.7, 0.5) == 0.0
        assert dirichlet_pdf(spec, -0.1, 0.5) == 0.0
        assert dirichlet_pdf(spec, 0.5, 0.0) == 0.0

    def test_value_against_quadrature_normalization(self):
        spec = DirichletSpec(alpha=ALPHA)
        unnorm = lambda x1, x2: x1**0.25 * x2**1.0 * (1.0 - x1 - x2) ** (-0.25)
        z, _ = dblquad(unnorm, 0.0, 1.0, 0.0, lambda x1: 1.0 - x1, epsabs=1e-12)
        expected = unnorm(0.3, 0.3) / z
        assert dirichlet_pdf(spec, 0.3, 0.3) == pytest.approx(expected, rel=1e-8)

    def test_integrates_to_one_over_simplex(self):
        spec = DirichletSpec(alpha=ALPHA)
        mass, _ = dblquad(
            lambda x2, x1: dirichlet_pdf(spec, x1, x2), 0.0, 1.0, 0.0, lambda x1: 1.0 - x1, epsabs=1e-10
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            DirichletSpec(alpha=np.array([1.0, -0.5, 1.0]))
        with pytest.raises(ValueError):
            DirichletSpec(alpha=np.array([1.0, 1.0]))


class TestSampleDirichlet:
    def test_zero_count(self):
        assert sample_dirichlet(DirichletSpec(alpha=ALPHA), 0, 0).shape == (0, 2)

    @pytest.mark.parametrize("count", BLOCK_COUNTS + [100_000])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_bytes_of_the_gamma_ratio(self, seed, count):
        spec = DirichletSpec(alpha=ALPHA)
        pts = sample_dirichlet(spec, seed, count)
        assert pts.shape == (count, 2) and pts.dtype == np.float64
        assert pts.tobytes() == reference_sample_dirichlet(spec, seed, count).tobytes()

    def test_peak_is_the_output_plus_one_block(self):
        spec = DirichletSpec(alpha=ALPHA)
        sample_dirichlet(spec, 0, 10)  # first-call allocations of the generator
        tracemalloc.start()
        try:
            pts = sample_dirichlet(spec, 3, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.tobytes() == reference_sample_dirichlet(spec, 3, 200_000).tobytes()
        assert peak <= pts.nbytes + 2**20

    @pytest.mark.parametrize("alpha", [[1e-300] * 3, [1e308] * 3])
    def test_alpha_beyond_the_sampler_raises(self, alpha):
        # tiny alphas draw all-zero gamma rows (0 / 0 is NaN); huge ones overflow the row total (x / inf is 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to 0 or overflow float64"):
                sample_dirichlet(DirichletSpec(alpha=alpha), 0, 4)

    def test_on_simplex(self):
        pts = sample_dirichlet(DirichletSpec(alpha=ALPHA), 14, 10000)
        assert np.all(pts > 0.0)
        assert np.all(pts.sum(axis=1) < 1.0)

    def test_flat_case_uniform_over_triangle_bins(self):
        # chi-square over the 16 congruent triangles of the k=4 subdivision
        pts = sample_dirichlet(DirichletSpec(alpha=np.ones(3)), 25, 10000)
        k = 4
        a = np.floor(k * pts[:, 0]).astype(int)
        b = np.floor(k * pts[:, 1]).astype(int)
        upward = (k * pts[:, 0] - a) + (k * pts[:, 1] - b) <= 1.0
        labels = {}
        counts = []
        for ai, bi, up in zip(a, b, upward):
            key = (ai, bi, up)
            if key not in labels:
                labels[key] = len(counts)
                counts.append(0)
            counts[labels[key]] += 1
        counts = np.array(counts, dtype=float)
        assert counts.size == k * k
        expected = pts.shape[0] / counts.size
        chi2_stat = float(np.sum((counts - expected) ** 2 / expected))
        from scipy.stats import chi2

        assert chi2.sf(chi2_stat, counts.size - 1) > 0.01

    def test_x2_marginal_beta(self):
        # aggregation: x2 ~ Beta(2, 2), whose CDF is the closed form 3t^2 - 2t^3
        pts = sample_dirichlet(DirichletSpec(alpha=ALPHA), 33, 10000)
        res = ks_test(pts[:, 1], lambda t: 3.0 * t**2 - 2.0 * t**3)
        assert res.p_value > 0.01

    def test_x1_marginal_beta(self):
        from scipy.stats import beta

        pts = sample_dirichlet(DirichletSpec(alpha=ALPHA), 34, 10000)
        res = ks_test(pts[:, 0], beta(1.25, 2.75).cdf)
        assert res.p_value > 0.01


@pytest.mark.parametrize("sample, spec", [(sample_gaussian, GaussianSpec(mu=np.zeros(2), cov=np.eye(2))),
                                          (sample_dirichlet, DirichletSpec(alpha=ALPHA))])
class TestCount:
    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), None, "3"])
    def test_non_integer_count_raises_type_error(self, sample, spec, count):
        with pytest.raises(TypeError, match="count must be an integer"):
            sample(spec, 0, count)

    def test_numpy_integer_count(self, sample, spec):
        assert sample(spec, 4, np.int64(5)).tobytes() == sample(spec, 4, 5).tobytes()
        assert sample(spec, 4, np.uint8(5)).tobytes() == sample(spec, 4, 5).tobytes()

    def test_negative_count_raises_value_error(self, sample, spec):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample(spec, 0, -1)


class TestDirichletMarginalCdf:
    def test_matches_beta_cdf(self):
        from scipy.stats import beta

        spec = DirichletSpec(alpha=ALPHA)
        xs = np.linspace(0.0, 1.0, 11)
        for dim in (0, 1):
            expected = beta(ALPHA[dim], ALPHA.sum() - ALPHA[dim]).cdf(xs)
            batch = dirichlet_marginal_cdf(spec, dim, xs)
            assert np.allclose(batch, expected, rtol=1e-12, atol=1e-14)
            assert [dirichlet_marginal_cdf(spec, dim, x) for x in xs] == batch.tolist()

    def test_scalar_in_scalar_out_and_clipped(self):
        spec = DirichletSpec(alpha=ALPHA)
        assert dirichlet_marginal_cdf(spec, 0, -0.5) == 0.0
        assert dirichlet_marginal_cdf(spec, 1, 1.5) == 1.0
        assert isinstance(dirichlet_marginal_cdf(spec, 0, 0.3), float)

    def test_dim_out_of_range(self):
        with pytest.raises(ValueError, match="dim"):
            dirichlet_marginal_cdf(DirichletSpec(alpha=ALPHA), 2, 0.5)


class TestDirichletConditionalCdf:
    def test_endpoints(self):
        spec = DirichletSpec(alpha=ALPHA)
        assert dirichlet_conditional_cdf(spec, 0.3, 0.0) == 0.0
        assert dirichlet_conditional_cdf(spec, 0.3, 0.7) == 1.0

    def test_symmetric_alphas_hit_half(self):
        spec = DirichletSpec(alpha=np.array([0.8, 1.5, 0.8]))
        x2 = 0.4
        assert dirichlet_conditional_cdf(spec, x2, (1.0 - x2) / 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_adaptive_quadrature(self):
        spec = DirichletSpec(alpha=ALPHA)
        x2 = 0.3
        width = 1.0 - x2
        unnorm = lambda x1: x1**0.25 * (width - x1) ** (-0.25)
        z, _ = quad(unnorm, 0.0, width, points=[0.0, width], epsabs=1e-13)
        num, _ = quad(unnorm, 0.0, 0.35, epsabs=1e-13)
        assert dirichlet_conditional_cdf(spec, x2, 0.35) == pytest.approx(num / z, abs=1e-8)

    def test_nondecreasing(self):
        spec = DirichletSpec(alpha=ALPHA)
        xs = np.linspace(0.0, 0.7, 200)
        values = dirichlet_conditional_cdf(spec, 0.3, xs)
        assert np.all(np.diff(values) >= 0.0)

    def test_x2_domain(self):
        with pytest.raises(ValueError):
            dirichlet_conditional_cdf(DirichletSpec(alpha=ALPHA), 1.0, 0.1)
