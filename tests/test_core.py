import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from dettree import (
    BuildConfig,
    DetTree,
    Ensemble,
    MarginalOrder,
    build_tree,
    det_density_many,
    leaf_mass,
    marginal_cdf,
    marginal_density,
    marginal_quantile,
    validate_tree,
)

from conftest import (
    build_random_tree,
    leaf_at,
    leaf_contains,
    leaf_density_sum,
    leaf_ids,
    leaf_tree,
    leafwise_quadrature_total,
)

LIN = MarginalOrder.LINEAR
CONST = MarginalOrder.CONSTANT


def unit_tree(d: int = 2, count: int = 1, n=None, thetas=None, order=LIN) -> DetTree:
    """One leaf on the unit cube holding ``count`` of ``n`` samples (default n = count)."""
    return leaf_tree(np.zeros(d), np.ones(d), count, count if n is None else n, thetas, order)


class TestMarginalModel:
    def test_theta_out_of_range_rejected(self):
        for theta in (1.5, -1.0000001, np.nan):
            with pytest.raises(ValueError, match="theta"):
                validate_tree(unit_tree(d=1, thetas=[theta]))

    def test_constant_requires_zero_theta(self):
        validate_tree(unit_tree(d=2, count=4, order=CONST))
        with pytest.raises(ValueError, match="constant-order"):
            validate_tree(unit_tree(d=2, count=4, thetas=[0.3, 0.0], order=CONST))

    def test_one_theta_per_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            validate_tree(unit_tree(d=2, thetas=[0.0]))

    def test_theta_is_a_read_only_copy(self):
        thetas = np.array([0.25, -0.5])
        tree = unit_tree(d=2, thetas=thetas)
        thetas[0] = 0.75
        assert tree.theta[0].tolist() == [0.25, -0.5]
        with pytest.raises(ValueError):
            tree.theta[0, 0] = 0.0


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
        assert det_density_many(unit_tree(count=10), [[0.3, 0.7]])[0] == 1.0

    def test_outside_cuboid_is_zero(self):
        assert det_density_many(unit_tree(count=10), [[1.5, 0.5]])[0] == 0.0

    def test_half_count_linear(self):
        tree = unit_tree(count=5, n=10, thetas=[1.0, 0.0])
        assert det_density_many(tree, [[0.5, 0.5]])[0] == 0.5
        assert leafwise_quadrature_total(tree) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            det_density_many(unit_tree(), [[0.5, 0.5, 0.5]])

    def test_empty_element_requires_zero_theta(self):
        with pytest.raises(ValueError, match="theta = 0"):
            validate_tree(unit_tree(count=0, n=1, thetas=[0.5, 0.0]))


class TestLeafMass:
    def test_ratio(self):
        assert leaf_mass(unit_tree(count=250, n=1000).root, 1000) == 0.25

    def test_empty(self):
        assert leaf_mass(unit_tree(count=0, n=1000).root, 1000) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_identity(self, seed):
        # Gauss-Legendre integration of any linear element recovers count/n
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-3.0, 0.0, size=3)
        upper = lower + rng.uniform(0.5, 2.0, size=3)
        tree = leaf_tree(lower, upper, 313, 1000, rng.uniform(-1.0, 1.0, size=3))
        assert leafwise_quadrature_total(tree) == pytest.approx(leaf_mass(tree.root, 1000), abs=1e-10)


class TestDetDensity:
    def test_single_leaf_uniform(self):
        tree = unit_tree(d=2)
        assert det_density_many(tree, [[0.4, 0.9]])[0] == 1.0

    def test_outside_root(self):
        tree = unit_tree(d=2)
        assert det_density_many(tree, [[1.4, 0.9]])[0] == 0.0

    def test_matches_exhaustive_leaf_sum(self, gaussian_tree_small):
        tree = gaussian_tree_small
        rng = np.random.default_rng(99)
        points = np.vstack([np.zeros(3), rng.uniform(tree.lower[0], tree.upper[0], size=(50, 3)), tree.upper[0]])
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
        rng = np.random.default_rng(seed)
        points = [rng.uniform(tree.lower[0], tree.upper[0]) for _ in range(100)]
        # split-boundary points: every split position, other coordinates random
        for node in np.flatnonzero(tree.split_dim >= 0):
            dim = tree.split_dim[node]
            x = rng.uniform(tree.lower[node], tree.upper[node])
            x[dim] = (tree.lower[node, dim] + tree.upper[node, dim]) / 2.0
            points.append(x)
        points.append(tree.upper[0].copy())  # root's closed top corner
        for x in points:
            holders = [leaf for leaf in leaf_ids(tree) if leaf_contains(tree, leaf, x)]
            assert holders == [leaf_at(tree, x)]

    @pytest.mark.parametrize("seed,d", [(21, 1), (22, 2), (23, 3)])
    def test_per_leaf_quadrature_sums_to_one(self, seed, d):
        tree = build_random_tree(seed, n=1000, d=d)
        assert leafwise_quadrature_total(tree) == pytest.approx(1.0, abs=1e-10)

    def test_validate_tree_accepts_built_tree(self, gaussian_tree_small):
        validate_tree(gaussian_tree_small)

    def test_validate_tree_rejects_bad_count(self, gaussian_tree_small):
        tree = dataclasses.replace(gaussian_tree_small, n=gaussian_tree_small.n + 1)
        with pytest.raises(ValueError, match="leaf counts sum"):
            validate_tree(tree)

    def test_node_arrays_are_read_only(self, gaussian_tree_small):
        for name in ("lower", "upper", "split_dim", "upper_child", "count", "theta"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(gaussian_tree_small, name)[0] = 0

    def test_handles_read_the_arrays(self, gaussian_tree_small):
        # the node-by-node reads of bench/workloads.py, served by handles
        tree = gaussian_tree_small
        root = tree.root
        assert np.array_equal(root.cuboid.lower, tree.lower[0]) and np.array_equal(root.cuboid.upper, tree.upper[0])
        assert not root.is_leaf
        assert root.body.lower_child.id == 1 and root.body.upper_child.id == tree.upper_child[0]
        leaves = list(tree.iter_leaves())
        assert [leaf.id for leaf in leaves] == leaf_ids(tree).tolist()
        assert all(leaf.is_leaf and leaf.body.count == tree.count[leaf.id] for leaf in leaves)
        assert sum(leaf_mass(leaf, tree.n) for leaf in leaves) == pytest.approx(1.0, abs=1e-12)


def _set(name: str, index, value):
    """Corruption writing ``value`` (or ``value(arrays)``) to one array entry."""
    def corrupt(a: dict) -> None:
        a[name][index] = value(a) if callable(value) else value
    return corrupt


def _empty_leaf_with_theta(a: dict) -> None:
    first, second = np.flatnonzero(a["split_dim"] < 0)[:2]
    a["count"][first] += a["count"][second]
    a["count"][second] = 0
    a["theta"][second, 0] = 0.5


def _move_cut_off_midpoint(a: dict) -> None:
    # a split whose children are both leaves: moving their shared face keeps the partition
    for node in np.flatnonzero(a["split_dim"] >= 0):
        hi = a["upper_child"][node]
        if a["split_dim"][node + 1] < 0 and a["split_dim"][hi] < 0:
            k = a["split_dim"][node]
            a["upper"][node + 1, k] = a["lower"][hi, k] = a["lower"][node, k] * 0.7 + a["upper"][node, k] * 0.3
            return
    raise AssertionError("no split with two leaf children")


def _append_unreachable_leaf(a: dict) -> None:
    for name in a:
        a[name] = np.concatenate([a[name], a[name][-1:]])
    a["count"][-1] = 0
    a["theta"][-1] = 0.0


CORRUPTIONS = {  # kind: (corruption of the node arrays, expected message)
    "non-finite bound": (_set("lower", (-1, 0), -np.inf), "finite"),
    "lower not below upper": (_set("upper", (-1, 0), lambda a: a["lower"][-1, 0]), "widths"),
    "theta above 1": (_set("theta", (-1, 0), 1.5), r"theta must lie in \[-1, 1\]"),
    "theta NaN": (_set("theta", (-1, 0), np.nan), r"theta must lie in \[-1, 1\]"),
    "theta in an empty leaf": (_empty_leaf_with_theta, "empty leaves"),
    "theta at a split": (_set("theta", (0, 0), 0.1), "empty leaves and split nodes"),
    "count at a split": (_set("count", 0, 1), "split nodes must carry count 0"),
    "negative count": (_set("count", -1, -1), "nonnegative"),
    "counts not summing to n": (_set("count", -1, lambda a: a["count"][-1] + 1), "leaf counts sum"),
    "split dimension out of range": (_set("split_dim", 0, 7), "split dimensions"),
    "child not partitioning its parent": (_set("upper", (1, 1), lambda a: a["upper"][1, 1] - 1e-3), "partition"),
    "off-midpoint split": (_move_cut_off_midpoint, "midpoint"),
    "upper child out of range": (_set("upper_child", 0, 10**6), "upper_child"),
    "upper child pointing backwards": (_set("upper_child", 1, 0), "upper_child"),
    "upper child at a leaf": (_set("upper_child", -1, 0), "upper_child"),
    "unreachable node": (_append_unreachable_leaf, "one tree"),
}


class TestValidateTreeRejectsCorruptArrays:
    @pytest.mark.parametrize("kind", list(CORRUPTIONS))
    def test_one_invariant_broken(self, kind):
        tree = build_random_tree(5, n=3000, d=2)
        assert tree.split_dim[1] >= 0, "need a split below the root for this seed"
        names = ("lower", "upper", "split_dim", "upper_child", "count", "theta")
        arrays = {name: getattr(tree, name).copy() for name in names}
        validate_tree(DetTree(**arrays, n=tree.n, order=tree.order))
        corrupt, message = CORRUPTIONS[kind]
        corrupt(arrays)
        with pytest.raises(ValueError, match=message):
            validate_tree(DetTree(**arrays, n=tree.n, order=tree.order))

    def test_theta_in_a_constant_order_tree(self):
        tree = build_random_tree(5, n=3000, d=2)
        with pytest.raises(ValueError, match="constant-order"):
            validate_tree(dataclasses.replace(tree, order=CONST))


class TestCuboid:
    """Boxes are rows of the node arrays; validate_tree checks them."""

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="widths"):
            validate_tree(leaf_tree([0.0, 0.0], [1.0, 0.0], 1, 1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            validate_tree(leaf_tree([0.0], [np.inf], 1, 1))

    def test_split_is_exact_partition(self):
        # x2 sits at both ends of [-1, 3], so the root splits along it at 1.0
        rng = np.random.default_rng(0)
        x1 = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 398)])
        x2 = np.repeat([-1.0, 3.0], 200)
        tree = build_tree(Ensemble(np.column_stack([x1, x2])), BuildConfig(bounds_padding_rel=0.0))
        hi = tree.upper_child[0]
        assert tree.split_dim[0] == 1
        assert tree.lower[0].tolist() == [0.0, -1.0] and tree.upper[0].tolist() == [1.0, 3.0]
        assert tree.lower[1].tolist() == [0.0, -1.0] and tree.upper[1].tolist() == [1.0, 1.0]
        assert tree.lower[hi].tolist() == [0.0, 1.0] and tree.upper[hi].tolist() == [1.0, 3.0]
