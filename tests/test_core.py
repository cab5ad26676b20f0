import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dettree import (
    BuildConfig,
    Condition,
    DetTree,
    Ensemble,
    MarginalOrder,
    build_tree,
    det_density_many,
    find_conditioned_leaves,
    leaf_mass,
    marginal_cdf,
    marginal_density,
    marginal_quantile,
    read_tree,
    sample_conditional,
    sample_unconditional,
    validate_tree,
    write_tree,
)
from dettree.build import MAX_DEPTH_LIMIT
from dettree.core import _BLOCK_ROWS

from conftest import (
    assert_search_matches_oracles,
    base_chain,
    build_random_tree,
    leaf_at,
    leaf_contains,
    leaf_density_sum,
    leaf_ids,
    leaf_tree,
    leafwise_quadrature_total,
    reference_det_density_many,
    stack_walk_upper_child,
)

LIN = MarginalOrder.LINEAR
CONST = MarginalOrder.CONSTANT


def unit_tree(d: int = 2, count: int = 1, thetas=None, order=LIN) -> DetTree:
    """One leaf on the unit cube holding all ``count`` samples."""
    return leaf_tree(np.zeros(d), np.ones(d), count, count, thetas, order)


def share_tree(lower, upper, count: int, n: int, thetas=None) -> DetTree:
    """Two leaves: node 1 is the box [lower, upper] holding ``count`` of the
    ``n`` samples with slopes ``thetas``, the lower half of a root twice as
    wide along dimension 0, whose uniform upper half holds the rest."""
    lower, upper = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    shift = np.zeros_like(lower)
    shift[0] = upper[0] - lower[0]
    theta = np.zeros((3, lower.size))
    theta[1] = 0.0 if thetas is None else thetas
    return DetTree(lower=[lower, lower, lower + shift], upper=[upper + shift, upper, upper + shift],
                   split_dim=[0, -1, -1], count=[0, count, n - count], theta=theta, n=n, order=LIN)


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

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            marginal_density(0.0, 1.0, 1.0, 1.0)

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

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            marginal_cdf(0.0, 1.0, 1.0, 1.0)


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

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_support_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            marginal_quantile(0.0, lo, hi, 0.5)

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

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_signed_zero_keeps_its_sign(self, theta):
        # y = -0.0 lies in [0, 1]; at lo = -0.0 the [0, 1] clip of t must keep the sign, and the
        # result is lo itself, -0.0, for scalars and for arrays of every length
        assert np.signbit(marginal_quantile(theta, -0.0, 1.0, -0.0))
        for size in (1, 3, 17, 64):
            assert np.all(np.signbit(marginal_quantile(theta, -0.0, 1.0, np.full(size, -0.0))))
            assert not np.any(np.signbit(marginal_quantile(theta, 0.0, 1.0, np.full(size, -0.0))))


class TestMarginalThetaDomain:
    # outside [-1, 1] the density turns negative (1 + 2 * (2 * 0.1 - 1) = -0.6)
    # and the CDF and quantile leave [0, 1]; NaN is no slope at all
    @pytest.mark.parametrize("function", [marginal_density, marginal_cdf, marginal_quantile])
    @pytest.mark.parametrize("theta", [2.0, -1.0000000000000002, np.nan, np.inf, np.array([0.5, 1.5])])
    def test_theta_outside_unit_interval_rejected(self, function, theta):
        with pytest.raises(ValueError, match="theta"):
            function(theta, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("function", [marginal_density, marginal_cdf, marginal_quantile])
    def test_unit_interval_ends_accepted(self, function):
        values = function(np.array([-1.0, 1.0]), 0.0, 1.0, 0.1)
        assert np.all(values >= 0.0)


class TestElementDensity:
    def test_uniform_unit_square(self):
        assert det_density_many(unit_tree(count=10), [[0.3, 0.7]])[0] == 1.0

    def test_outside_cuboid_is_zero(self):
        assert det_density_many(unit_tree(count=10), [[1.5, 0.5]])[0] == 0.0

    def test_half_count_linear(self):
        tree = share_tree([0.0, 0.0], [1.0, 1.0], 5, 10, thetas=[1.0, 0.0])
        assert det_density_many(tree, [[0.5, 0.5]])[0] == 0.5
        assert leafwise_quadrature_total(tree, leaves=[1]) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            det_density_many(unit_tree(), [[0.5, 0.5, 0.5]])

    def test_empty_element_requires_zero_theta(self):
        with pytest.raises(ValueError, match="theta = 0"):
            share_tree([0.0, 0.0], [1.0, 1.0], 0, 1, thetas=[0.5, 0.0])


class TestLeafMass:
    def test_ratio(self):
        tree = share_tree([0.0, 0.0], [1.0, 1.0], 250, 1000)
        assert [leaf_mass(leaf, 1000) for leaf in tree.iter_leaves()] == [0.25, 0.75]

    def test_empty(self):
        tree = share_tree([0.0, 0.0], [1.0, 1.0], 0, 1000)
        assert [leaf_mass(leaf, 1000) for leaf in tree.iter_leaves()] == [0.0, 1.0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_identity(self, seed):
        # Gauss-Legendre integration of any linear element recovers count/n
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-3.0, 0.0, size=3)
        upper = lower + rng.uniform(0.5, 2.0, size=3)
        tree = share_tree(lower, upper, 313, 1000, rng.uniform(-1.0, 1.0, size=3))
        leaf = tree.root.lower_child
        assert leafwise_quadrature_total(tree, leaves=[leaf.id]) == pytest.approx(leaf_mass(leaf, 1000), abs=1e-10)


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

    def test_zero_width_leaf_rejected(self):
        # the constructor refuses the tree, so no density can be asked of it
        with pytest.raises(ValueError, match="widths must be strictly positive"):
            leaf_tree([0.0, 0.0], [1.0, 0.0], 1, 1)

    def test_dimension_mismatch(self, gaussian_tree_small):
        with pytest.raises(ValueError):
            det_density_many(gaussian_tree_small, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            det_density_many(gaussian_tree_small, np.zeros(3))


@st.composite
def density_cases(draw):
    """(tree, points) pairs: generated trees in 1-4 dimensions, and a count
    around the block size of points, each coordinate inside the root, at a
    split midpoint, on the root's lower or upper face, just outside the root
    or NaN, as a C-ordered, F-ordered or integer array."""
    d = draw(st.integers(1, 4))
    tree = build_random_tree(draw(st.integers(0, 2**32 - 1)), n=draw(st.integers(1, 500)), d=d,
                             min_leaf_count=draw(st.sampled_from([2, 10])), alpha=draw(st.sampled_from([0.01, 0.5])))
    count = draw(st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = tree.lower[0], tree.upper[0]
    points = rng.uniform(lo, hi, size=(count, d))
    kind = rng.integers(0, 10, size=(count, d))  # 0-4: inside, then one kind each
    splits = np.flatnonzero(tree.split_dim >= 0)
    for k in range(d):
        column = points[:, k]
        on_k = splits[tree.split_dim[splits] == k]
        if on_k.size:
            mids = (tree.lower[on_k, k] + tree.upper[on_k, k]) / 2.0
            column[kind[:, k] == 5] = rng.choice(mids, np.count_nonzero(kind[:, k] == 5))
        column[kind[:, k] == 6] = lo[k]
        column[kind[:, k] == 7] = hi[k]
        outside = kind[:, k] == 8
        column[outside] = np.where(rng.random(outside.sum()) < 0.5, np.nextafter(lo[k], -np.inf),
                                   np.nextafter(hi[k], np.inf))
        column[kind[:, k] == 9] = np.nan
    layout = draw(st.sampled_from(["C", "F", "integer"]))
    if layout == "F":
        points = np.asfortranarray(points)
    elif layout == "integer":
        points = np.rint(np.nan_to_num(points)).astype(np.int64)
    return tree, points


def spine_tree(depth: int) -> DetTree:
    """A 2-D tree ``depth`` splits deep on the unit square: split k halves
    dimension k % 2 of its box into node k + 1 below and leaf 2 depth - k
    above, and node ``depth``, the deepest leaf, holds the origin. Every leaf
    holds one sample and a nonzero theta."""
    nodes = 2 * depth + 1
    lower, upper = np.zeros((nodes, 2)), np.ones((nodes, 2))
    split_dim = np.full(nodes, -1)
    for k in range(depth):
        dim, above = k % 2, 2 * depth - k
        mid = (lower[k, dim] + upper[k, dim]) / 2.0
        split_dim[k] = dim
        lower[k + 1], upper[k + 1] = lower[k], upper[k]
        lower[above], upper[above] = lower[k], upper[k]
        upper[k + 1, dim] = lower[above, dim] = mid
    leaf = split_dim < 0
    theta = np.where(leaf[:, None], np.random.default_rng(depth).uniform(-1.0, 1.0, size=(nodes, 2)), 0.0)
    return DetTree(lower=lower, upper=upper, split_dim=split_dim, count=leaf.astype(int), theta=theta, n=depth + 1,
                   order=LIN)


def subnormal_tree():
    """A tree of 2,000 normal draws scaled to about 5e-322: valid, but its
    leaves are so narrow that their densities overflow float64."""
    data = np.random.default_rng(0).standard_normal((2000, 2)) * 5e-322
    tree = build_tree(Ensemble(data), BuildConfig())
    validate_tree(tree)
    return tree, data


class TestBlockwiseDensity:
    @settings(max_examples=100)
    @given(case=density_cases())
    def test_equals_reference_router(self, case):
        tree, points = case
        assert det_density_many(tree, points).tobytes() == reference_det_density_many(tree, points).tobytes()

    def test_max_depth_tree(self):
        tree = spine_tree(MAX_DEPTH_LIMIT)
        validate_tree(tree)
        rng = np.random.default_rng(7)
        splits = np.arange(MAX_DEPTH_LIMIT)
        at_mid = rng.uniform(tree.lower[splits], tree.upper[splits])
        at_mid[splits, splits % 2] = (tree.lower[splits, splits % 2] + tree.upper[splits, splits % 2]) / 2.0
        deepest = rng.uniform(tree.lower[MAX_DEPTH_LIMIT], tree.upper[MAX_DEPTH_LIMIT], size=(100, 2))
        points = np.vstack([rng.uniform(0.0, 1.0, size=(1000, 2)), at_mid, deepest, tree.lower, tree.upper])
        values = det_density_many(tree, points)
        assert values.tobytes() == reference_det_density_many(tree, points).tobytes()
        assert np.all(values > 0.0)

    def test_range_near_float_max(self):
        # the upper leaf's bound sum overflows, so no midpoint may be taken there
        big = np.finfo(np.float64).max
        one_leaf = leaf_tree([0.6 * big, -1.0], [0.95 * big, 1.0], 3, 3, [0.5, -0.25])
        split = DetTree(lower=[[0.0], [0.0], [0.45 * big]], upper=[[0.9 * big], [0.45 * big], [0.9 * big]],
                        split_dim=[0, -1, -1], count=[0, 1, 2],
                        theta=[[0.0], [0.5], [-0.5]], n=3, order=LIN)
        for tree in (one_leaf, split):
            validate_tree(tree)
            points = np.vstack([tree.lower, tree.upper, tree.lower / 2.0 + tree.upper / 2.0])
            points = np.vstack([points, np.full((1, tree.dims), np.nan), np.full((1, tree.dims), big)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = det_density_many(tree, points)
                assert values.tobytes() == reference_det_density_many(tree, points).tobytes()

    def test_peak_memory_is_the_output_plus_one_block(self, gaussian_tree_small):
        tree = gaussian_tree_small
        points = sample_unconditional(tree, 1, 200_000)
        points[::1000] = np.nan  # some blocks route only part of their rows
        det_density_many(tree, points[:10])  # builds the tree's derived tables
        # integer points are converted one block at a time too
        integers = np.where(np.isnan(points), 10**6, np.rint(points)).astype(np.int64)
        # a block's temporaries: at most ten float64 values per coordinate it routes
        block_allowance = 10 * _BLOCK_ROWS * (1 + tree.dims) * 8
        for batch in (points, integers):
            tracemalloc.start()
            try:
                values = det_density_many(tree, batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * values.nbytes + block_allowance


class TestDensityOverflow:
    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_density_raises(self):
        tree, data = subnormal_tree()
        with pytest.raises(ValueError, match="overflows float64"):
            det_density_many(tree, data[:5])
        assert det_density_many(tree, [[1.0, 1.0], [np.nan, 0.0]]).tolist() == [0.0, 0.0]

    def test_conditional_weights_raise(self):
        tree, data = subnormal_tree()
        cond = Condition([(0, float(data[0, 0]))])
        with pytest.raises(ValueError, match="overflows float64"):
            find_conditioned_leaves(tree, cond)
        with pytest.raises(ValueError, match="overflows float64"):
            sample_conditional(tree, cond, 1, 10)

    def test_marginal_density_raises(self):
        # a subnormal width: 1 / 5e-322 exceeds the float64 range
        with pytest.raises(ValueError, match="overflows float64"):
            marginal_density(0.0, 0.0, 5e-322, 1e-322)

    def test_overflowing_width(self):
        # finite bounds whose width overflows float64: the box is too wide to make a tree
        with pytest.raises(ValueError, match="widths must be finite"):
            leaf_tree([-0.9e308], [0.9e308], 1, 1)

    def test_unconditional_samples_stay_finite(self):
        tree, _ = subnormal_tree()
        points = sample_unconditional(tree, 1, 1000)
        assert np.all((points >= tree.lower[0]) & (points <= tree.upper[0]))

    def test_empty_leaf_density_is_zero(self):
        # root [0, 40 u] x [0, 1], u the smallest subnormal, split at 20 u:
        # an empty lower leaf and a one-sample upper leaf of width 20 u
        u = np.nextafter(0.0, 1.0)
        tree = DetTree(lower=[[0.0, 0.0], [0.0, 0.0], [20 * u, 0.0]],
                       upper=[[40 * u, 1.0], [20 * u, 1.0], [40 * u, 1.0]], split_dim=[0, -1, -1],
                       count=[0, 0, 1], theta=np.zeros((3, 2)), n=1, order=LIN)
        validate_tree(tree)
        assert det_density_many(tree, [[5 * u, 0.5], [0.0, 0.0]]).tolist() == [0.0, 0.0]
        assert find_conditioned_leaves(tree, Condition([(0, 5 * u)])).weights.tolist() == [0.0]
        with pytest.raises(ValueError, match="overflows float64"):
            det_density_many(tree, [[5 * u, 0.5], [25 * u, 0.5]])
        with pytest.raises(ValueError, match="overflows float64"):
            find_conditioned_leaves(tree, Condition([(0, 25 * u)]))


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

    def test_scalar_arrays_rejected(self):
        # the default column names once read the missing dimension axis: IndexError
        with pytest.raises(ValueError, match=r"lower must be an \(N, d\) array"):
            DetTree(lower=0.0, upper=1.0, split_dim=[-1], count=[1], theta=0.0, n=1, order=LIN)

    def test_validate_tree_rejects_bad_count(self, gaussian_tree_small):
        with pytest.raises(ValueError, match="leaf counts sum"):
            dataclasses.replace(gaussian_tree_small, n=gaussian_tree_small.n + 1)

    def test_node_arrays_are_read_only(self, gaussian_tree_small):
        # over immutable buffers: no array in the .base chain can be made writeable again, also after a
        # pickle round trip (as to a worker process), which would otherwise hand back arrays that own their data
        det_density_many(gaussian_tree_small, [[0.0, 0.0, 0.0]])  # the derived tables, pickled with the tree
        unpickled = pickle.loads(pickle.dumps(gaussian_tree_small))
        assert (unpickled.n, unpickled.order, unpickled.column_names) == \
            (gaussian_tree_small.n, gaussian_tree_small.order, gaussian_tree_small.column_names)
        for tree in (gaussian_tree_small, unpickled):
            for name in NODE_ARRAYS + ("upper_child",):
                assert getattr(tree, name).tobytes() == getattr(gaussian_tree_small, name).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    getattr(tree, name)[0] = 0
                for array in base_chain(getattr(tree, name)):
                    with pytest.raises(ValueError):
                        array.setflags(write=True)

    def test_a_count_cannot_be_rewritten_under_the_tables(self):
        # a one-leaf 2-D tree with count 5, whose density reads the count through the derived tables
        tree = unit_tree(d=2, count=5)
        assert det_density_many(tree, [[0.5, 0.5]]).tolist() == [1.0]
        with pytest.raises(ValueError):
            tree.count.setflags(write=True)
        assert det_density_many(tree, [[0.5, 0.5]]).tolist() == [1.0]

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
    "unreachable node": (_append_unreachable_leaf, "one tree"),
}


NODE_ARRAYS = ("lower", "upper", "split_dim", "count", "theta")


class TestValidateTreeRejectsCorruptArrays:
    @pytest.mark.parametrize("kind", list(CORRUPTIONS))
    def test_one_invariant_broken(self, kind):
        tree = build_random_tree(5, n=3000, d=2)
        assert tree.split_dim[1] >= 0, "need a split below the root for this seed"
        arrays = {name: getattr(tree, name).copy() for name in NODE_ARRAYS}
        DetTree(**arrays, n=tree.n, order=tree.order)
        corrupt, message = CORRUPTIONS[kind]
        corrupt(arrays)
        with pytest.raises(ValueError, match=message):
            DetTree(**arrays, n=tree.n, order=tree.order)

    def test_theta_in_a_constant_order_tree(self):
        tree = build_random_tree(5, n=3000, d=2)
        with pytest.raises(ValueError, match="constant-order"):
            dataclasses.replace(tree, order=CONST)


@st.composite
def preorder_flags(draw) -> list:
    """The split flags of a random binary tree in preorder: a split
    dimension in [0, 3) at a split, -1 at a leaf; at most 40 leaves."""
    splits_left = draw(st.integers(0, 39))
    flags, open_slots = [], 1
    while open_slots:
        if splits_left and draw(st.booleans()):
            flags.append(draw(st.integers(0, 2)))
            splits_left -= 1
            open_slots += 1
        else:
            flags.append(-1)
            open_slots -= 1
    return flags


@st.composite
def broken_flags(draw) -> list:
    """Split flags that are not one tree: a tree's flags truncated (to no
    node at all, too), with a node appended, or behind a leading leaf."""
    flags = draw(preorder_flags())
    kind = draw(st.sampled_from(["truncated", "extra node", "leading leaf"]))
    if kind == "truncated":
        return flags[:draw(st.integers(0, len(flags) - 1))]
    if kind == "extra node":
        return flags + [draw(st.integers(-1, 2))]
    return [-1] + flags


def flag_tree(flags: list) -> DetTree:
    """A 3-D tree on the unit cube with these split flags and one sample in
    each leaf: each split halves its box along its dimension, so where the
    flags form one tree every invariant holds. Nodes past the end of one
    tree get the whole cube."""
    nodes = len(flags)
    lower, upper = np.zeros((nodes, 3)), np.ones((nodes, 3))
    boxes = []  # the (lower, upper) boxes of the nodes still to come, next last
    for node, dim in enumerate(flags):
        if boxes:
            lower[node], upper[node] = boxes.pop()
        if dim >= 0:
            cut = (lower[node, dim] + upper[node, dim]) / 2.0
            below, above = upper[node].copy(), lower[node].copy()
            below[dim] = above[dim] = cut
            boxes += [(above, upper[node]), (lower[node], below)]
    count = (np.array(flags, dtype=int) < 0).astype(int)
    return DetTree(lower=lower, upper=upper, split_dim=np.array(flags, dtype=int),
                   count=count, theta=np.zeros((nodes, 3)), n=max(1, int(count.sum())), order=LIN)


class TestDerivedTopology:
    """``upper_child`` is derived from the split flags, not stored."""

    @settings(max_examples=200)
    @given(flags=preorder_flags())
    def test_equals_the_stack_walk(self, flags):
        tree = flag_tree(flags)
        assert tree.upper_child.tolist() == stack_walk_upper_child(flags)
        assert tree.upper_child.dtype == np.intp

    @settings(max_examples=100)
    @given(flags=broken_flags())
    def test_flags_that_are_not_a_tree_raise(self, flags):
        assert stack_walk_upper_child(flags) is None
        with pytest.raises(ValueError, match="one tree"):
            flag_tree(flags)

    def test_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="upper_child"):
            DetTree(lower=[[0.0]], upper=[[1.0]], split_dim=[-1], upper_child=[-1], count=[1], theta=[[0.0]], n=1,
                    order=LIN)


def off_midpoint_tree() -> tuple[DetTree, int]:
    """A built tree in which one split whose children are both leaves cuts
    at 3/10 of its box instead of the midpoint: the children's shared face
    is moved, which keeps the partition. Returns the tree and the split."""
    tree = build_random_tree(5, n=3000, d=2)
    arrays = {name: getattr(tree, name).copy() for name in NODE_ARRAYS}
    for node in np.flatnonzero(tree.split_dim >= 0):
        k, hi = tree.split_dim[node], tree.upper_child[node]
        if tree.split_dim[node + 1] < 0 and tree.split_dim[hi] < 0:
            cut = tree.lower[node, k] * 0.7 + tree.upper[node, k] * 0.3
            arrays["upper"][node + 1, k] = arrays["lower"][hi, k] = cut
            return DetTree(**arrays, n=tree.n, order=tree.order), int(node)
    raise AssertionError("no split with two leaf children")


class TestOffMidpointSplit:
    """Only the builder decides where a split cuts; every other operation
    reads the cut from the face the children share, so a tree cut off the
    midpoint works end to end."""

    def test_validates(self):
        tree, node = off_midpoint_tree()
        k = tree.split_dim[node]
        assert tree.upper[node + 1, k] != (tree.lower[node, k] + tree.upper[node, k]) / 2.0
        validate_tree(tree)

    def test_round_trips_byte_for_byte(self, tmp_path):
        tree, node = off_midpoint_tree()
        path = tmp_path / "tree.json"
        write_tree(path, tree)
        text = path.read_bytes()
        loaded = read_tree(path)
        for name in NODE_ARRAYS:
            assert getattr(loaded, name).tobytes() == getattr(tree, name).tobytes()
        write_tree(path, loaded)
        assert path.read_bytes() == text

    def test_density_follows_the_cut(self):
        tree, node = off_midpoint_tree()
        k, cut = tree.split_dim[node], tree.upper[node + 1, tree.split_dim[node]]
        rng = np.random.default_rng(3)
        near = rng.uniform(tree.lower[node], tree.upper[node], size=(300, 2))
        near[:100, k] = cut
        near[100:200, k] = np.nextafter(cut, -np.inf)
        points = np.vstack([near, rng.uniform(tree.lower[0], tree.upper[0], size=(300, 2))])
        values = det_density_many(tree, points)
        assert values.tobytes() == reference_det_density_many(tree, points).tobytes()
        assert values.tolist() == [leaf_density_sum(tree, x) for x in points]

    def test_search_follows_the_cut(self):
        tree, node = off_midpoint_tree()
        k, cut = tree.split_dim[node], tree.upper[node + 1, tree.split_dim[node]]
        midpoint = (tree.lower[node, k] + tree.upper[node, k]) / 2.0
        for value in (cut, np.nextafter(cut, -np.inf), midpoint, tree.lower[node, k]):
            assert_search_matches_oracles(tree, Condition([(int(k), float(value))]))
            assert_search_matches_oracles(tree, Condition([(int(k), float(value)), (1 - int(k), 0.0)]))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_draws_stay_inside_their_leaves(self, side):
        tree, node = off_midpoint_tree()
        leaf = node + 1 if side == "lower" else tree.upper_child[node]
        # all the mass in one leaf next to the moved face: every draw must lie in that leaf
        count, theta = np.zeros_like(tree.count), np.zeros_like(tree.theta)
        count[leaf], theta[leaf] = tree.n, [0.9, -0.9]
        one_leaf = dataclasses.replace(tree, count=count, theta=theta)
        validate_tree(one_leaf)
        other = 1 - int(tree.split_dim[node])
        fixed = Condition([(other, float(tree.lower[leaf, other]))])
        for draws in (sample_unconditional(one_leaf, 8, 5000), sample_conditional(one_leaf, fixed, 9, 5000)):
            assert all(leaf_contains(one_leaf, leaf, x) for x in draws)


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
