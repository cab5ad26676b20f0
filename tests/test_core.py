import numpy as np
import pytest
from scipy.integrate import quad

from dettree import (
    Cuboid,
    DetTree,
    DistributionElement,
    MarginalOrder,
    det_density_many,
    leaf_mass,
    marginal_cdf,
    marginal_density,
    marginal_quantile,
    validate_tree,
)
from dettree.core import DetNode

from conftest import build_random_tree, leaf_at, leaf_contains, leaf_density_sum, leafwise_quadrature_total

LIN = MarginalOrder.LINEAR
CONST = MarginalOrder.CONSTANT


def unit_element(d: int = 2, count: int = 1, thetas=None) -> DistributionElement:
    thetas = thetas if thetas is not None else [0.0] * d
    return DistributionElement(cuboid=Cuboid(np.zeros(d), np.ones(d)), count=count, theta=thetas)


def leaf_tree(de: DistributionElement, n: int, order=LIN) -> DetTree:
    return DetTree(root=DetNode(cuboid=de.cuboid, body=de), n=n, order=order)


def single_leaf_tree(d: int = 2, n: int = 1) -> DetTree:
    return leaf_tree(unit_element(d=d, count=n), n)


class TestMarginalModel:
    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            unit_element(d=1, thetas=[1.5])
        with pytest.raises(ValueError, match="theta"):
            unit_element(d=1, thetas=[-1.0000001])
        with pytest.raises(ValueError, match="theta"):
            unit_element(d=1, thetas=[np.nan])

    def test_constant_requires_zero_theta(self):
        validate_tree(leaf_tree(unit_element(d=2, count=4), 4, order=CONST))
        with pytest.raises(ValueError, match="constant-order"):
            validate_tree(leaf_tree(unit_element(d=2, count=4, thetas=[0.3, 0.0]), 4, order=CONST))

    def test_one_theta_per_dimension(self):
        with pytest.raises(ValueError):
            unit_element(d=2, thetas=[0.0])

    def test_theta_is_a_read_only_copy(self):
        thetas = np.array([0.25, -0.5])
        de = unit_element(d=2, thetas=thetas)
        thetas[0] = 0.75
        assert de.theta.tolist() == [0.25, -0.5]
        with pytest.raises(ValueError):
            de.theta[0] = 0.0


class TestMarginalDensity:
    def test_constant_is_one_over_width(self):
        assert marginal_density(0.0, 0.0, 2.0, 1.3) == 0.5

    def test_linear_at_center(self):
        assert marginal_density(1.0, 0.0, 1.0, 0.5) == 1.0

    def test_negative_slope_value(self):
        # (1 - 0.4*(2*0.75 - 1)) / 2; quadrature below confirms normalization
        value = marginal_density(-0.4, 1.0, 3.0, 2.5)
        assert value == pytest.approx(0.4, abs=1e-15)
        mass, _ = quad(lambda x: marginal_density(-0.4, 1.0, 3.0, x), 1.0, 3.0)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            marginal_density(0.0, 0.0, 1.0, 1.5)

    @pytest.mark.parametrize("theta", np.linspace(-1.0, 1.0, 9).tolist())
    def test_normalization_and_nonnegativity(self, theta):
        mass, _ = quad(lambda x: marginal_density(theta, -2.0, 5.0, x), -2.0, 5.0)
        assert mass == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(-2.0, 5.0, 201)
        values = [marginal_density(theta, -2.0, 5.0, x) for x in xs]
        assert min(values) >= 0.0
        if abs(theta) == 1.0:
            # vanishes exactly at one endpoint, nowhere else
            assert min(values) == 0.0
            assert sorted(values)[1] > 0.0
        else:
            assert min(values) > 0.0


class TestMarginalCdf:
    def test_uniform(self):
        assert marginal_cdf(0.0, 0.0, 1.0, 0.25) == 0.25

    def test_theta_one_is_t_squared(self):
        assert marginal_cdf(1.0, 0.0, 1.0, 0.5) == 0.25

    def test_against_quadrature(self):
        expected, _ = quad(lambda x: marginal_density(-0.6, 0.0, 1.0, x), 0.0, 0.5)
        assert expected == pytest.approx(0.65, abs=1e-12)
        assert marginal_cdf(-0.6, 0.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_endpoints_and_monotonicity(self, theta):
        model = theta
        assert marginal_cdf(model, 2.0, 3.0, 2.0) == 0.0
        assert marginal_cdf(model, 2.0, 3.0, 3.0) == 1.0
        xs = np.linspace(2.0, 3.0, 101)
        values = [marginal_cdf(model, 2.0, 3.0, x) for x in xs]
        assert np.all(np.diff(values) >= 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            marginal_cdf(0.0, 0.0, 1.0, -0.1)


class TestMarginalQuantile:
    def test_uniform_midpoint(self):
        assert marginal_quantile(0.0, 3.0, 5.0, 0.5) == 4.0

    def test_inverse_of_t_squared(self):
        assert marginal_quantile(1.0, 0.0, 1.0, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_against_bisection(self):
        model = -0.7
        target = 0.8
        lo, hi = 0.0, 1.0
        for _ in range(80):  # bisect marginal_cdf to ~1e-24
            mid = (lo + hi) / 2.0
            if marginal_cdf(model, 0.0, 1.0, mid) < target:
                lo = mid
            else:
                hi = mid
        assert marginal_quantile(model, 0.0, 1.0, target) == pytest.approx((lo + hi) / 2, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            marginal_quantile(0.0, 0.0, 1.0, 1.2)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            theta = rng.uniform(-1.0, 1.0)
            y = rng.uniform(0.0, 1.0)
            model = theta
            x = marginal_quantile(model, -1.0, 4.0, y)
            assert abs(marginal_cdf(model, -1.0, 4.0, x) - y) <= 1e-12

    def test_extreme_theta_endpoints(self):
        for theta in (-1.0, 1.0):
            model = theta
            assert 0.0 <= marginal_quantile(model, 0.0, 1.0, 0.0) <= 1.0
            assert 0.0 <= marginal_quantile(model, 0.0, 1.0, 1.0) <= 1.0

    def test_array_arguments_broadcast(self):
        theta = np.array([-1.0, -0.3, 0.0, 0.6, 1.0])
        y = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        x = marginal_quantile(theta, -1.0, 4.0, y)
        assert x.shape == (5,)
        assert np.all((x >= -1.0) & (x <= 4.0))
        assert np.max(np.abs(marginal_cdf(theta, -1.0, 4.0, x) - y)) <= 1e-12
        with pytest.raises(ValueError):
            marginal_quantile(theta, -1.0, 4.0, y + 0.5)


class TestElementDensity:
    def test_uniform_unit_square(self):
        tree = leaf_tree(unit_element(count=10), 10)
        assert det_density_many(tree, [[0.3, 0.7]])[0] == 1.0

    def test_outside_cuboid_is_zero(self):
        tree = leaf_tree(unit_element(count=10), 10)
        assert det_density_many(tree, [[1.5, 0.5]])[0] == 0.0

    def test_half_count_linear(self):
        tree = leaf_tree(unit_element(count=5, thetas=[1.0, 0.0]), 10)
        assert det_density_many(tree, [[0.5, 0.5]])[0] == 0.5
        assert leafwise_quadrature_total(tree) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            det_density_many(leaf_tree(unit_element(), 1), [[0.5, 0.5, 0.5]])

    def test_empty_element_requires_zero_theta(self):
        with pytest.raises(ValueError):
            unit_element(count=0, thetas=[0.5, 0.0])


class TestLeafMass:
    def test_ratio(self):
        assert leaf_mass(unit_element(count=250), 1000) == 0.25

    def test_empty(self):
        assert leaf_mass(unit_element(count=0), 1000) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_identity(self, seed):
        # Gauss-Legendre integration of any linear element recovers count/n
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-3.0, 0.0, size=3)
        upper = lower + rng.uniform(0.5, 2.0, size=3)
        de = DistributionElement(cuboid=Cuboid(lower, upper), count=313, theta=rng.uniform(-1.0, 1.0, size=3))
        assert leafwise_quadrature_total(leaf_tree(de, 1000)) == pytest.approx(leaf_mass(de, 1000), abs=1e-10)


class TestDetDensity:
    def test_single_leaf_uniform(self):
        tree = single_leaf_tree(d=2)
        assert det_density_many(tree, [[0.4, 0.9]])[0] == 1.0

    def test_outside_root(self):
        tree = single_leaf_tree(d=2)
        assert det_density_many(tree, [[1.4, 0.9]])[0] == 0.0

    def test_matches_exhaustive_leaf_sum(self, gaussian_tree_small):
        tree = gaussian_tree_small
        rng = np.random.default_rng(99)
        root = tree.root.cuboid
        points = np.vstack([np.zeros(3), rng.uniform(root.lower, root.upper, size=(50, 3)), root.upper])
        values = det_density_many(tree, points)
        for x, value in zip(points, values):
            assert value == leaf_density_sum(tree, x)

    def test_dimension_mismatch(self, gaussian_tree_small):
        with pytest.raises(ValueError):
            det_density_many(gaussian_tree_small, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            det_density_many(gaussian_tree_small, np.zeros(3))


class TestTreeInvariants:
    @pytest.mark.parametrize("seed,d", [(1, 1), (2, 2), (3, 3)])
    def test_partition_of_unity(self, seed, d):
        tree = build_random_tree(seed, n=1000, d=d)
        total = sum(leaf_mass(de, tree.n) for de in tree.iter_leaves())
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed,d", [(11, 1), (12, 2), (13, 3)])
    def test_point_in_exactly_one_leaf(self, seed, d):
        tree = build_random_tree(seed, n=1000, d=d)
        root = tree.root.cuboid
        rng = np.random.default_rng(seed)
        points = [rng.uniform(root.lower, root.upper) for _ in range(100)]
        # split-boundary points: every split position, other coordinates random
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                split = node.body
                x = rng.uniform(node.cuboid.lower, node.cuboid.upper)
                x[split.dim] = split.position
                points.append(x)
                stack.extend([split.lower_child, split.upper_child])
        points.append(root.upper.copy())  # root's closed top corner
        for x in points:
            holders = [de for de in tree.iter_leaves() if leaf_contains(tree, de, x)]
            assert len(holders) == 1
            assert leaf_at(tree, x) is holders[0]

    @pytest.mark.parametrize("seed,d", [(21, 1), (22, 2), (23, 3)])
    def test_per_leaf_quadrature_sums_to_one(self, seed, d):
        tree = build_random_tree(seed, n=1000, d=d)
        assert leafwise_quadrature_total(tree) == pytest.approx(1.0, abs=1e-10)

    def test_validate_tree_accepts_built_tree(self, gaussian_tree_small):
        validate_tree(gaussian_tree_small)

    def test_validate_tree_rejects_bad_count(self, gaussian_tree_small):
        tree = DetTree(
            root=gaussian_tree_small.root,
            n=gaussian_tree_small.n + 1,
            order=gaussian_tree_small.order,
            column_names=gaussian_tree_small.column_names,
        )
        with pytest.raises(ValueError):
            validate_tree(tree)


class TestCuboid:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Cuboid(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Cuboid(np.array([0.0]), np.array([np.inf]))

    def test_split_is_exact_partition(self):
        cub = Cuboid(np.array([0.0, -1.0]), np.array([1.0, 3.0]))
        position, lo, hi = cub.split(1)
        assert position == 1.0
        assert np.array_equal(lo.upper, np.array([1.0, 1.0]))
        assert np.array_equal(hi.lower, np.array([0.0, 1.0]))
