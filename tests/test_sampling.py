import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dettree import (
    Condition,
    DetTree,
    MarginalOrder,
    categorical_pick,
    det_density_many,
    find_conditioned_leaves,
    gaussian_conditional,
    ks_test,
    sample_conditional,
    sample_moments,
    sample_unconditional,
    validate_tree,
)
from dettree.core import _BLOCK_ROWS
from dettree.sampling import _GUIDE_CELLS, _cumulative, _pick

from conftest import (
    assert_search_matches_oracles,
    base_chain,
    build_random_tree,
    leaf_at,
    leaf_ids,
    leaf_tree,
    pruned_search_conditioned_leaves,
    reference_sample_conditional,
)

LIN = MarginalOrder.LINEAR


def uniform_leaf_tree(d: int, n: int = 100) -> DetTree:
    return leaf_tree(np.zeros(d), np.ones(d), n, n)


def two_leaf_tree(count_lower: int, count_upper: int) -> DetTree:
    """Root [0,1]^2 (node 0) split along dim 0 at 0.5 into leaves 1 and 2."""
    return DetTree(lower=[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], upper=[[1.0, 1.0], [0.5, 1.0], [1.0, 1.0]],
                   split_dim=[0, -1, -1], count=[0, count_lower, count_upper],
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

    def test_keeps_the_shape_of_u(self):
        weights = [1.0, 0.0, 3.0]
        assert categorical_pick(weights, np.full((2, 3), 0.5)).tolist() == [[2, 2, 2], [2, 2, 2]]
        assert categorical_pick(weights, 0.1).shape == ()


# weights of a guided pick: runs of zeros, subnormals, and 1e-300 up to 1
_PICK_WEIGHT = st.one_of(st.just(0.0), st.just(5e-324), st.floats(5e-324, 1e-300), st.floats(1e-300, 1.0))
_LAST_U = 1.0 - 2.0**-53


class TestGuidedPick:
    """The guide-table pick must return the index of the plain cumulative
    search for every key, whatever the table's number of cells."""

    @staticmethod
    def assert_matches_search(weights, u, draws):
        weights, u = np.asarray(weights, dtype=np.float64), np.asarray(u, dtype=np.float64)
        cum, last, guide = _cumulative(weights, draws)
        expected = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), np.flatnonzero(weights > 0.0)[-1])
        assert np.array_equal(_pick(cum, last, guide, u), expected)

    @staticmethod
    def keys(cells: int, rng) -> np.ndarray:
        """Random keys, 0, the largest double below 1, and each cell's edges."""
        edges = np.arange(cells + 1) / cells
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        keys = np.concatenate([rng.random(500), [0.0, _LAST_U], near])
        return keys[(keys >= 0.0) & (keys < 1.0)]

    @pytest.mark.parametrize("exponent", range(13))
    def test_every_table_size(self, exponent):
        cells = 2**exponent
        rng = np.random.default_rng(exponent)
        weights = rng.random(1000) * (rng.random(1000) < 0.7)
        weights[100:300] = 0.0  # a run of empty intervals
        for draws in (cells, 2 * cells - 1):
            self.assert_matches_search(weights, self.keys(cells, rng), draws)
        assert _cumulative(weights, cells)[2].size == min(cells, _GUIDE_CELLS)

    def test_table_size_is_capped(self):
        assert _cumulative(np.ones(3), 10**6)[2].size == _GUIDE_CELLS

    @pytest.mark.parametrize("scale", [5e-324, 1e-320, 1e-300, 1.0, 1e300])
    def test_single_nonzero_weight(self, scale):
        weights = np.zeros(50)
        weights[17] = scale
        for cells in (1, 64, _GUIDE_CELLS):
            self.assert_matches_search(weights, self.keys(cells, np.random.default_rng(cells)), cells)

    def test_subnormal_total(self):
        weights = np.array([2.0, 0.0, 1.0, 0.0, 3.0, 0.0]) * 5e-324
        for cells in (1, 2, 8, _GUIDE_CELLS):
            self.assert_matches_search(weights, self.keys(cells, np.random.default_rng(cells)), cells)

    @settings(max_examples=300)
    @given(weights=st.lists(_PICK_WEIGHT, min_size=1, max_size=200).filter(lambda w: sum(w) > 0.0),
           exponent=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_cumulative_search(self, weights, exponent, seed):
        cells = 2**exponent
        self.assert_matches_search(weights, self.keys(cells, np.random.default_rng(seed)), cells)


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
        # no tree holds no sample: leaf counts must sum to n >= 1
        with pytest.raises(ValueError, match="leaf counts sum to 0"):
            leaf_tree(np.zeros(2), np.ones(2), 0, 1)
        with pytest.raises(ValueError, match="at least one sample"):
            leaf_tree(np.zeros(2), np.ones(2), 0, 0)


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
            assert_search_matches_oracles(tree, Condition(list(zip(dims.tolist(), values.tolist()))))

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
        expected = pruned_search_conditioned_leaves(tree, Condition())[2]
        assert visited == expected == list(range(tree.split_dim.size))  # preorder ids
        assert np.array_equal(found.leaves, leaf_ids(tree))

    def test_value_outside_root_rejected(self, gaussian_tree_small):
        upper = gaussian_tree_small.upper[0]
        with pytest.raises(ValueError):
            find_conditioned_leaves(gaussian_tree_small, Condition([(0, float(upper[0]) + 1.0)]))

    def test_dim_out_of_range_rejected(self, gaussian_tree_small):
        with pytest.raises(ValueError):
            find_conditioned_leaves(gaussian_tree_small, Condition([(7, 0.0)]))

    def test_zero_width_leaf_rejected(self):
        # the constructor refuses the tree, so no search can be made on it
        with pytest.raises(ValueError, match="widths must be strictly positive"):
            leaf_tree([0.0, 0.0], [1.0, 0.0], 1, 1)


@st.composite
def search_cases(draw, keep_free: bool = False):
    """(tree, condition) pairs: small generated trees in 1-3 dimensions,
    min_leaf_count=2 among them, conditioned on any subset of dimensions (a
    proper subset with ``keep_free``) at split midpoints, root faces or
    interior points."""
    d = draw(st.integers(1, 3))
    tree = build_random_tree(draw(st.integers(0, 2**32 - 1)), n=draw(st.integers(1, 500)), d=d,
                             min_leaf_count=draw(st.sampled_from([2, 10])), alpha=draw(st.sampled_from([0.01, 0.5])))
    entries = []
    for dim in draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d - 1 if keep_free else d)):
        lo, hi = float(tree.lower[0, dim]), float(tree.upper[0, dim])
        splits = np.flatnonzero(tree.split_dim == dim)
        kind = draw(st.sampled_from(["midpoint", "root face", "interior"]))
        if kind == "midpoint" and splits.size:
            node = splits[draw(st.integers(0, splits.size - 1))]
            value = (tree.lower[node, dim] + tree.upper[node, dim]) / 2.0
        elif kind == "interior":
            value = draw(st.floats(lo, hi))
        else:
            value = draw(st.sampled_from([lo, hi]))
        entries.append((dim, float(value)))
    return tree, Condition(entries)


class TestSearchProperty:
    @settings(max_examples=150)
    @given(case=search_cases())
    def test_equals_both_oracles(self, case):
        assert_search_matches_oracles(*case)


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

    def test_zero_width_leaf_rejected(self):
        # a free dimension of zero width: the constructor refuses the tree, so no draw can be made from it
        with pytest.raises(ValueError, match="widths must be strictly positive"):
            leaf_tree([0.0, 0.0], [1.0, 0.0], 1, 1)
        with pytest.raises(ValueError, match="widths must be strictly positive"):
            DetTree(lower=[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], upper=[[1.0, 1.0], [0.5, 1.0], [1.0, 0.0]],
                    split_dim=[0, -1, -1], count=[0, 1, 1], theta=np.zeros((3, 2)), n=2, order=LIN)

    def test_zero_density_condition_rejected(self):
        tree = two_leaf_tree(100, 0)
        with pytest.raises(ValueError, match="zero estimated density"):
            sample_conditional(tree, Condition([(0, 0.9)]), 1, 10)

    def test_samples_stay_in_their_leaves(self, gaussian_tree_small):
        # under the containment convention each sample lies in exactly one found leaf
        tree = gaussian_tree_small
        cond = Condition([(0, 0.3)])
        pts = sample_conditional(tree, cond, 13, 2000)
        leaves = find_conditioned_leaves(tree, cond).leaves
        lo, hi = tree.lower[leaves][None], tree.upper[leaves][None]
        x = pts[:, None, :]
        inside = np.all((x >= lo) & ((x < hi) | ((hi == tree.upper[0]) & (x <= hi))), axis=2)
        assert np.all(inside.sum(axis=1) == 1)

    def test_draw_stays_below_an_open_upper_face(self, monkeypatch):
        # root [0.25, 0.75] x [0, 1] split at x1 = 0.5; the upper leaf is empty. The
        # largest uniform maps onto 0.25 + top * 0.25, which rounds to the face 0.5
        # that belongs to the empty leaf.
        tree = DetTree(lower=[[0.25, 0.0], [0.25, 0.0], [0.5, 0.0]], upper=[[0.75, 1.0], [0.5, 1.0], [0.75, 1.0]],
                       split_dim=[0, -1, -1], count=[0, 10, 0], theta=np.zeros((3, 2)),
                       n=10, order=LIN)
        validate_tree(tree)
        top = np.nextafter(1.0, 0.0)
        assert 0.25 + top * 0.25 == 0.5

        class LargestUniform:
            def random(self, size):
                return np.full(size, top)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: LargestUniform())
        for pts in (sample_unconditional(tree, 0, 3), sample_conditional(tree, Condition([(1, 0.5)]), 0, 3)):
            assert np.all(pts[:, 0] < 0.5)
            assert np.all(det_density_many(tree, pts) > 0.0)
        # a face on the root's upper boundary is closed, so a draw may reach it
        assert np.all(sample_unconditional(tree, 0, 3)[:, 1] == top)

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


def fresh(tree: DetTree) -> DetTree:
    """A copy of ``tree`` that has made no search yet."""
    return dataclasses.replace(tree)


def search_bytes(found) -> tuple:
    return found.leaves.tobytes(), found.weights.tobytes(), found.total


class TestSearchSlot:
    """A tree keeps its last search result for an equal condition: a draw
    after the search of its condition searches once, and gives the bytes of a
    tree that has searched nothing."""

    def test_conditions_a_b_a_equal_fresh_calls(self, gaussian_tree_small):
        tree = fresh(gaussian_tree_small)
        a, b = Condition([(2, 0.3)]), Condition([(0, -0.2), (2, 0.1)])
        for k, cond in enumerate((a, b, a, a, b)):
            found = find_conditioned_leaves(tree, cond)
            assert find_conditioned_leaves(tree, cond) is found  # the kept result
            pts = sample_conditional(tree, cond, 40 + k, 700)
            other = fresh(gaussian_tree_small)
            assert search_bytes(found) == search_bytes(find_conditioned_leaves(other, cond))
            assert pts.tobytes() == sample_conditional(fresh(gaussian_tree_small), cond, 40 + k, 700).tobytes()
            assert pts.tobytes() == reference_sample_conditional(tree, cond, 40 + k, 700).tobytes()

    def test_one_condition_on_two_trees(self, gaussian_tree_small):
        first, second = fresh(gaussian_tree_small), build_random_tree(3, n=400, d=3)
        cond = Condition([(1, 0.25)])
        found = [find_conditioned_leaves(tree, cond) for tree in (first, second)]
        assert found[0].leaves.tobytes() != found[1].leaves.tobytes()
        for tree, leaf_set in zip((first, second), found):
            assert find_conditioned_leaves(tree, cond) is leaf_set
            assert search_bytes(leaf_set) == search_bytes(find_conditioned_leaves(fresh(tree), cond))
            assert sample_conditional(tree, cond, 8, 500).tobytes() == \
                reference_sample_conditional(tree, cond, 8, 500).tobytes()

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_conditions_keep_their_sign(self, gaussian_tree_small, first, second):
        tree = fresh(gaussian_tree_small)
        assert Condition([(2, first)]) == Condition([(2, second)])
        for seed, value in enumerate((first, second, first)):
            cond = Condition([(2, value)])
            pts = sample_conditional(tree, cond, seed, 600)
            assert np.all(np.signbit(pts[:, 2]) == np.signbit(value))
            assert pts.tobytes() == reference_sample_conditional(tree, cond, seed, 600).tobytes()

    def test_on_visit_bypasses_the_kept_result(self, gaussian_tree_small):
        tree = fresh(gaussian_tree_small)
        a, b = Condition([(2, 0.3)]), Condition([(0, 0.1)])
        kept = find_conditioned_leaves(tree, a)
        for cond in (a, b, Condition()):
            visited = []
            found = find_conditioned_leaves(tree, cond, visited.append)
            assert visited == pruned_search_conditioned_leaves(tree, cond)[2]  # preorder
            assert found is not kept
            assert find_conditioned_leaves(tree, a) is kept  # neither read nor written
        assert search_bytes(find_conditioned_leaves(tree, a, lambda node: None)) == search_bytes(kept)

    def test_leaf_sets_are_read_only(self, gaussian_tree_small):
        tree = fresh(gaussian_tree_small)
        for cond in (Condition([(1, 0.2)]), Condition()):
            for hook in (None, lambda node: None):
                found = find_conditioned_leaves(tree, cond, hook)
                for array in (found.weights, found.leaves):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1
                    with pytest.raises(ValueError, match="read-only"):
                        array *= 2
                    for link in base_chain(array):  # kept by the tree: no view of it may be made writeable
                        with pytest.raises(ValueError):
                            link.setflags(write=True)
        assert search_bytes(find_conditioned_leaves(tree, cond)) == \
            search_bytes(find_conditioned_leaves(fresh(tree), cond))

    @pytest.mark.parametrize("strands", [2, 4])
    def test_threads_drawing_alternating_conditions(self, gaussian_tree_small, strands):
        tree = fresh(gaussian_tree_small)
        conds = [Condition([(2, 0.3)]), Condition([(0, -0.2), (2, 0.1)]), Condition()]
        jobs = [(conds[k % 3], 200 + k) for k in range(60)]
        expected = [(search_bytes(find_conditioned_leaves(fresh(tree), c)),
                     reference_sample_conditional(tree, c, seed, 300).tobytes()) for c, seed in jobs]
        results = [[] for _ in range(strands)]
        start = threading.Barrier(strands)

        def draw(strand: int) -> None:
            start.wait()
            for cond, seed in jobs[strand:] + jobs[:strand]:  # the strands interleave different conditions
                found = find_conditioned_leaves(tree, cond)
                results[strand].append((search_bytes(found), sample_conditional(tree, cond, seed, 300).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(strand,)) for strand in range(strands)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for strand, result in enumerate(results):
            assert result == expected[strand:] + expected[:strand]

    def test_negative_zero_lower_bound(self):
        # root [-0.0, 1] x [0, 1] split at x1 = 0.5, linear leaves; draws that land
        # on the lower face, and a condition at -0.0 itself
        theta = np.array([[0.0, 0.0], [0.6, -0.4], [-1.0, 1.0]])
        tree = DetTree(lower=[[-0.0, 0.0], [-0.0, 0.0], [0.5, 0.0]], upper=[[1.0, 1.0], [0.5, 1.0], [1.0, 1.0]],
                       split_dim=[0, -1, -1], count=[0, 30, 70], theta=theta,
                       n=100, order=LIN)
        validate_tree(tree)
        for cond in (Condition(), Condition([(1, 0.5)]), Condition([(0, -0.0)]), Condition([(0, 0.0)])):
            for seed in range(3):
                pts = sample_conditional(tree, cond, seed, 2000)
                assert pts.tobytes() == reference_sample_conditional(tree, cond, seed, 2000).tobytes()
                for dim, value in cond.entries:
                    assert np.all(np.signbit(pts[:, dim]) == np.signbit(value))

    def test_negative_zero_lower_bound_at_the_smallest_uniform(self, monkeypatch):
        # every uniform 0.0: each free coordinate is its leaf's lower face, -0.0
        tree = DetTree(lower=[[-0.0, -0.0], [-0.0, -0.0], [0.5, -0.0]], upper=[[1.0, 1.0], [0.5, 1.0], [1.0, 1.0]],
                       split_dim=[0, -1, -1], count=[0, 10, 0],
                       theta=[[0.0, 0.0], [0.5, -1.0], [0.0, 0.0]], n=10, order=LIN)
        validate_tree(tree)

        class SmallestUniform:
            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: SmallestUniform())
        for cond in (Condition(), Condition([(1, -0.0)]), Condition([(0, 0.25)])):
            pts = sample_conditional(tree, cond, 0, 5)
            assert pts.tobytes() == reference_sample_conditional(tree, cond, 0, 5).tobytes()
            assert np.all(np.signbit(pts[:, cond.free_dims(2)]))


class TestBlockwiseSampler:
    @settings(max_examples=150)
    @given(case=search_cases(keep_free=True), seed=st.integers(0, 2**32 - 1),
           count=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]))
    def test_equals_whole_array_reference(self, case, seed, count):
        tree, cond = case
        assert_search_matches_oracles(tree, cond)
        if find_conditioned_leaves(tree, cond).total <= 0.0:
            with pytest.raises(ValueError, match="zero estimated density"):
                sample_conditional(tree, cond, seed, count)
            return
        expected = reference_sample_conditional(tree, cond, seed, count).tobytes()
        assert sample_conditional(tree, cond, seed, count).tobytes() == expected
        if not cond.entries:
            assert sample_unconditional(tree, seed, count).tobytes() == expected

    def test_peak_memory_is_the_output_plus_one_block(self, gaussian_tree_small):
        tree = gaussian_tree_small
        sample_unconditional(tree, 0, 10)  # builds the tree's derived tables
        tracemalloc.start()
        try:
            pts = sample_unconditional(tree, 1, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block's temporaries: at most ten float64 values per uniform it draws
        block_allowance = 10 * _BLOCK_ROWS * (1 + tree.dims) * 8
        assert peak <= 1.5 * pts.nbytes + block_allowance


class TestConditionalSampleProperties:
    @settings(max_examples=100)
    @given(case=search_cases(keep_free=True), seed=st.integers(0, 2**32 - 1))
    def test_conditioned_coordinates_exact_and_density_positive(self, case, seed):
        tree, cond = case
        if find_conditioned_leaves(tree, cond).total <= 0.0:
            return
        pts = sample_conditional(tree, cond, seed, 500)
        for dim, value in cond.entries:
            assert pts[:, dim].tobytes() == np.full(500, value).tobytes()
        assert np.all(det_density_many(tree, pts) > 0.0)


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

    @pytest.mark.parametrize("entries", [
        [(1.7, 0.5)], [(True, 0.5)], {1.9: 0.5}, [("1", 0.5)], {"a": 0.5}, [(np.float64(1.0), 0.5)],
        [(1, "0.5")], {1: "0.5"}, [(1, True)], [(1, np.bool_(False))], [(1, 1 + 2j)], [(1, None)],
        [(1, 10**400)], [(1,)], [1],
    ])
    def test_malformed_entries_rejected(self, entries):
        with pytest.raises(ValueError, match="condition entry"):
            Condition(entries)

    def test_integer_and_real_entries_accepted(self):
        cond = Condition([(np.int32(2), np.float32(0.5)), (0, 3), (np.int64(1), np.float64(-1.25))])
        assert cond.entries == ((0, 3.0), (1, -1.25), (2, 0.5))
        assert all(type(d) is int and type(v) is float for d, v in cond.entries)
        assert Condition({1: 2}).entries == ((1, 2.0),)
