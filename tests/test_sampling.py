import numpy as np
import pytest

from dettree import (
    Condition,
    DetTree,
    MarginalOrder,
    categorical_pick,
    find_conditioned_leaves,
    gaussian_conditional,
    ks_test,
    sample_conditional,
    sample_moments,
    sample_unconditional,
)

from conftest import exhaustive_conditioned_leaves, leaf_at, leaf_ids, leaf_tree

LIN = MarginalOrder.LINEAR


def uniform_leaf_tree(d: int, n: int = 100) -> DetTree:
    return leaf_tree(np.zeros(d), np.ones(d), n, n)


def two_leaf_tree(count_lower: int, count_upper: int) -> DetTree:
    """Root [0,1]^2 (node 0) split along dim 0 at 0.5 into leaves 1 and 2."""
    return DetTree(lower=[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], upper=[[1.0, 1.0], [0.5, 1.0], [1.0, 1.0]],
                   split_dim=[0, -1, -1], upper_child=[2, -1, -1], count=[0, count_lower, count_upper],
                   theta=np.zeros((3, 2)), n=count_lower + count_upper, order=LIN)


class TestCategoricalPick:
    def test_all_mass_on_first(self):
        for u in (0.0, 0.3, 0.999999):
            assert categorical_pick([1.0, 0.0, 0.0], u) == 0

    def test_even_split(self):
        assert categorical_pick([1.0, 1.0], 0.75) == 1
        assert categorical_pick([1.0, 1.0], 0.25) == 0
        assert categorical_pick([1.0, 1.0], 0.5) == 1  # left-closed upper interval

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            categorical_pick([0.0, 0.0], 0.5)

    def test_u_domain(self):
        with pytest.raises(ValueError):
            categorical_pick([1.0], 1.0)

    def test_u_domain_checked_per_entry(self):
        with pytest.raises(ValueError):
            categorical_pick([1.0, 1.0], np.array([0.2, 1.0]))
        with pytest.raises(ValueError):
            categorical_pick([1.0, 1.0], np.array([-0.1, 0.5]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            categorical_pick([2.0, -1.0], 0.5)

    def test_zero_weight_entries_never_picked(self):
        u = np.linspace(0.0, 1.0, 1001)[:-1]
        idx = categorical_pick([0.0, 1.0, 0.0, 2.0, 0.0], u)
        assert set(idx.tolist()) == {1, 3}
        # a subnormal total makes u * total round up to the total itself:
        # that still lands in the last nonempty interval
        tiny = np.array([2.0, 1.0, 0.0]) * 5e-324
        assert np.nextafter(1.0, 0.0) * tiny.sum() == tiny.sum()
        assert categorical_pick(tiny, np.nextafter(1.0, 0.0)) == 1

    def test_empirical_frequencies(self):
        weights = np.array([0.2, 0.3, 0.5])
        rng = np.random.default_rng(123)
        idx = categorical_pick(weights, rng.random(1_000_000))
        freq = np.bincount(idx, minlength=3) / idx.size
        assert np.all(np.abs(freq - weights) < 0.002)
        # left-closed cumulative intervals, checked at their edges
        assert categorical_pick(weights, [0.0, 0.2, 0.5, 0.4999]).tolist() == [0, 1, 2, 1]


class TestSampleUnconditional:
    def test_single_leaf_uniform_ks(self):
        tree = uniform_leaf_tree(2)
        pts = sample_unconditional(tree, 31, 10000)
        for i in range(2):
            res = ks_test(pts[:, i], lambda x: min(max(x, 0.0), 1.0))
            assert res.p_value > 0.01

    def test_zero_count(self):
        pts = sample_unconditional(uniform_leaf_tree(2), 1, 0)
        assert pts.shape == (0, 2)

    def test_two_leaf_occupancy(self):
        tree = two_leaf_tree(25, 75)
        pts = sample_unconditional(tree, 77, 100_000)
        frac_lower = np.mean(pts[:, 0] < 0.5)
        assert abs(frac_lower - 0.25) < 0.01

    def test_support_and_determinism(self, gaussian_tree_small):
        tree = gaussian_tree_small
        pts = sample_unconditional(tree, 5, 2000)
        assert np.all(pts >= tree.lower[0]) and np.all(pts <= tree.upper[0])
        for x in pts[:100]:
            leaf = leaf_at(tree, x)
            assert np.all(x >= tree.lower[leaf]) and np.all(x <= tree.upper[leaf])
        assert np.array_equal(pts, sample_unconditional(tree, 5, 2000))

    def test_draw_order_contract(self):
        # documented order: leaf draw, then dimensions ascending, per sample
        tree = uniform_leaf_tree(2)
        pts = sample_unconditional(tree, 42, 5)
        u = np.random.default_rng(42).random((5, 3))
        assert np.array_equal(pts, u[:, 1:])

    def test_empty_tree_rejected(self):
        empty = leaf_tree(np.zeros(2), np.ones(2), 0, 1)
        with pytest.raises(ValueError):
            sample_unconditional(empty, 0, 10)


class TestFindConditionedLeaves:
    def test_single_leaf_weight(self):
        tree = uniform_leaf_tree(2)
        found = find_conditioned_leaves(tree, Condition([(1, 0.5)]))
        assert len(found.leaves) == 1
        assert found.weights[0] == 1.0  # mass 1 times uniform marginal 1

    def test_pruning_skips_excluded_branch(self):
        tree = two_leaf_tree(50, 50)
        visited = []
        find_conditioned_leaves(tree, Condition([(0, 0.75)]), on_visit=visited.append)
        # conditioned value in the upper half: lower subtree never visited
        assert visited == [0, 2]
        x = np.array([0.75, 0.5])
        assert all(np.all(tree.lower[node] <= x) and np.all(x <= tree.upper[node]) for node in visited)

    def test_boundary_value_goes_upper(self):
        tree = two_leaf_tree(50, 50)
        found = find_conditioned_leaves(tree, Condition([(0, 0.5)]))
        assert found.leaves.tolist() == [2]
        assert tree.lower[2, 0] == 0.5

    def test_matches_exhaustive_enumeration(self, gaussian_tree_small):
        tree = gaussian_tree_small
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = rng.integers(1, 3)
            dims = rng.choice(3, size=k, replace=False)
            values = rng.uniform(tree.lower[0, dims], tree.upper[0, dims])
            cond = Condition(list(zip(dims.tolist(), values.tolist())))
            found = find_conditioned_leaves(tree, cond)
            leaves, weights = exhaustive_conditioned_leaves(tree, cond)
            assert np.array_equal(found.leaves, leaves)
            assert np.array_equal(found.weights, weights)

    def test_leaf_arrays_follow_leaf_order(self, gaussian_tree_small):
        tree = gaussian_tree_small
        found = find_conditioned_leaves(tree, Condition([(1, 0.2)]))
        # leaf ids ascend, which is the depth-first leaf order; weights align with them
        assert np.all(np.diff(found.leaves) > 0)
        assert np.all(tree.split_dim[found.leaves] == -1)
        assert found.weights.shape == found.leaves.shape
        assert found.total == found.weights.sum()

    def test_visits_in_depth_first_order(self, gaussian_tree_small):
        tree = gaussian_tree_small
        visited = []
        found = find_conditioned_leaves(tree, Condition(), visited.append)
        expected = []
        stack = [0]
        while stack:
            node = stack.pop()
            expected.append(node)
            if tree.split_dim[node] >= 0:
                stack.extend([int(tree.upper_child[node]), node + 1])
        assert visited == expected == list(range(tree.split_dim.size))  # preorder ids
        assert np.array_equal(found.leaves, leaf_ids(tree))

    def test_value_outside_root_rejected(self, gaussian_tree_small):
        upper = gaussian_tree_small.upper[0]
        with pytest.raises(ValueError):
            find_conditioned_leaves(gaussian_tree_small, Condition([(0, float(upper[0]) + 1.0)]))

    def test_dim_out_of_range_rejected(self, gaussian_tree_small):
        with pytest.raises(ValueError):
            find_conditioned_leaves(gaussian_tree_small, Condition([(7, 0.0)]))


class TestConditionalMarginalEstimate:
    def test_uniform_square(self):
        tree = uniform_leaf_tree(2)
        found = find_conditioned_leaves(tree, Condition([(1, 0.5)]))
        assert found.total == 1.0

    def test_zero_mass_region(self):
        tree = two_leaf_tree(100, 0)
        found = find_conditioned_leaves(tree, Condition([(0, 0.9)]))
        assert found.total == 0.0

    def test_matches_slab_monte_carlo(self, gaussian_tree_small):
        # fraction of the tree's own unconditional draws in |x3| < h, over 2h
        tree = gaussian_tree_small
        h = 0.02
        pts = sample_unconditional(tree, 901, 100_000)
        frac = np.mean(np.abs(pts[:, 2]) < h)
        slab_density = frac / (2 * h)
        se = np.sqrt(frac * (1 - frac) / pts.shape[0]) / (2 * h)
        estimate = find_conditioned_leaves(tree, Condition([(2, 0.0)])).total
        assert abs(estimate - slab_density) <= 3 * se


class TestSampleConditional:
    def test_empty_condition_delegates(self, gaussian_tree_small):
        a = sample_conditional(gaussian_tree_small, Condition(), 9, 500)
        b = sample_unconditional(gaussian_tree_small, 9, 500)
        assert np.array_equal(a, b)

    def test_conditioned_column_bit_identical(self, gaussian_tree_small):
        value = 0.1234567890123456789  # rounds to a specific double
        pts = sample_conditional(gaussian_tree_small, Condition([(2, value)]), 3, 1000)
        assert np.all(pts[:, 2] == np.float64(value))

    def test_uniform_cube_free_dims_uniform(self):
        tree = uniform_leaf_tree(3)
        pts = sample_conditional(tree, Condition([(2, 0.2)]), 51, 10000)
        for i in (0, 1):
            res = ks_test(pts[:, i], lambda x: min(max(x, 0.0), 1.0))
            assert res.p_value > 0.01
        assert np.all(pts[:, 2] == 0.2)

    def test_all_dims_conditioned_rejected(self, gaussian_tree_small):
        with pytest.raises(ValueError):
            sample_conditional(gaussian_tree_small, Condition([(0, 0.0), (1, 0.0), (2, 0.0)]), 1, 10)

    def test_zero_density_condition_rejected(self):
        tree = two_leaf_tree(100, 0)
        with pytest.raises(ValueError, match="zero estimated density"):
            sample_conditional(tree, Condition([(0, 0.9)]), 1, 10)

    def test_samples_stay_in_their_leaves(self, gaussian_tree_small):
        tree = gaussian_tree_small
        cond = Condition([(0, 0.3)])
        pts = sample_conditional(tree, cond, 13, 2000)
        found = find_conditioned_leaves(tree, cond)
        boxes = [(tree.lower[leaf], tree.upper[leaf]) for leaf in found.leaves]
        for x in pts[:200]:
            assert any(np.all(x >= lo) and np.all(x <= hi) for lo, hi in boxes)

    def test_gaussian_conditional_mean(self, ref_gaussian):
        # desk-scale version of the large reproduction in the acceptance suite
        from dettree import BuildConfig, Ensemble, build_tree, sample_gaussian

        data = sample_gaussian(ref_gaussian, 88, 20000)
        tree = build_tree(Ensemble(data), BuildConfig())
        pts = sample_conditional(tree, Condition([(2, 0.0)]), 5, 5000)
        mean, _ = sample_moments(pts[:, :2])
        target = gaussian_conditional(ref_gaussian, Condition([(2, 0.0)]))
        assert np.all(np.abs(mean - target.mu) < 0.08)

    def test_determinism(self, gaussian_tree_small):
        cond = Condition([(1, 0.5)])
        a = sample_conditional(gaussian_tree_small, cond, 21, 1000)
        b = sample_conditional(gaussian_tree_small, cond, 21, 1000)
        assert np.array_equal(a, b)


class TestCondition:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            Condition([(1, 0.0), (1, 2.0)])

    def test_entries_sorted_by_dim(self):
        cond = Condition([(2, 5.0), (0, 1.0)])
        assert cond.dims == (0, 2)
        assert cond.values == (1.0, 5.0)

    def test_free_dims(self):
        assert Condition([(1, 0.0)]).free_dims(3) == (0, 2)
