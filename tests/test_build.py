import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from dettree import (
    BuildConfig,
    DirichletSpec,
    Ensemble,
    MarginalOrder,
    build_tree,
    det_density_many,
    estimate_theta,
    leaf_mass,
    marginal_quantile,
    root_cuboid,
    sample_dirichlet,
    sample_unconditional,
    validate_tree,
)
from dettree.build import EXACT_BINOMIAL_LIMIT, MAX_DEPTH_LIMIT, _quartile_pvalue
from dettree.io import document_to_tree, tree_to_document

from conftest import _threshold_pvalue, fit_pvalue, leaf_at, leaf_ids, random_ensemble, reference_build_tree


def split_pvalue(values, lo, hi, theta):
    """The builder's half-mass test: count below the midpoint against the
    fitted marginal's lower-half mass F(1/2) = 1/2 - theta/4."""
    return _threshold_pvalue(values, lo, hi, theta, 0.5)


class TestEnsemble:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[0.0], [np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ensemble(np.empty((0, 2)))

    def test_default_names(self):
        ens = Ensemble(np.zeros((3, 2)) + np.arange(3)[:, None])
        assert ens.column_names == ("x1", "x2")


class TestRootCuboid:
    def test_no_padding(self):
        lower, upper = root_cuboid(Ensemble(np.array([[0.0], [1.0]])), 0.0)
        assert lower[0] == 0.0 and upper[0] == 1.0

    def test_degenerate_range(self):
        lower, upper = root_cuboid(Ensemble(np.array([[5.0], [5.0]])), 1e-9)
        assert lower[0] == pytest.approx(5.0 - 5e-9, rel=1e-12)
        assert upper[0] == pytest.approx(5.0 + 5e-9, rel=1e-12)

    @pytest.mark.parametrize("padding", [0.0, 1e-9])
    def test_overflowing_range_rejected_without_warnings(self, padding):
        # finite data whose range exceeds the float64 maximum
        ens = Ensemble(np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                root_cuboid(ens, padding)
            with pytest.raises(ValueError, match="overflows"):
                build_tree(ens, BuildConfig(bounds_padding_rel=padding))

    def test_relative_padding_per_dimension(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(-4.0, 7.0, size=(50, 2))
        lower, upper = root_cuboid(Ensemble(data), 0.01)
        for i in range(2):
            lo, hi = data[:, i].min(), data[:, i].max()
            assert lower[i] == pytest.approx(lo - 0.01 * (hi - lo))
            assert upper[i] == pytest.approx(hi + 0.01 * (hi - lo))
            assert upper[i] - lower[i] == pytest.approx(1.02 * (hi - lo))

    @staticmethod
    def expected_box(data: np.ndarray, padding: float) -> tuple[np.ndarray, np.ndarray]:
        """The box from ``data.min(axis=0)`` and ``data.max(axis=0)``,
        padded by the rule in ``root_cuboid``."""
        lo, hi = data.min(axis=0), data.max(axis=0)
        span = hi - lo
        pad = padding * np.where(span == 0.0, np.maximum(1.0, np.abs(lo)), span)
        lower, upper = lo - pad, hi + pad
        bad = ~(lower < upper)
        return np.where(bad, np.nextafter(lo, -np.inf), lower), np.where(bad, np.nextafter(hi, np.inf), upper)

    def assert_box_bits(self, data, padding):
        ens = Ensemble(data)
        lower, upper = self.expected_box(ens.data, padding)
        tree = build_tree(ens, BuildConfig(bounds_padding_rel=padding))
        for got_lower, got_upper in (root_cuboid(ens, padding), (tree.lower[0], tree.upper[0])):
            assert got_lower.tobytes() == lower.tobytes()
            assert got_upper.tobytes() == upper.tobytes()

    @pytest.mark.parametrize("padding", [0.0, 1e-9, 1e-320])
    def test_signed_zeros_keep_their_bits(self, padding):
        # columns opening with 0.0 and -0.0 in both orders, the zero at either
        # extreme; at padding 1e-320 the pad of the 1e-10 ranges underflows to 0
        columns = [first + [other] * 10 for first in ([0.0, -0.0], [-0.0, 0.0])
                   for other in (1.0, -1.0, 1e-10, -1e-10)]
        self.assert_box_bits(np.array(columns).T, padding)

    @settings(max_examples=200)
    @given(signs=st.lists(st.lists(st.booleans(), min_size=1, max_size=40), min_size=1, max_size=4),
           other=st.sampled_from([0.0, 1.0, -1.0, 1e-300]), padding=st.sampled_from([0.0, 1e-9]))
    def test_random_signed_zero_columns(self, signs, other, padding):
        n = max(len(column) for column in signs) + 1
        data = np.full((n, len(signs)), other)
        for i, column in enumerate(signs):
            data[:len(column), i] = np.where(column, 0.0, -0.0)
        if padding == 0.0 and np.any(data.min(axis=0) == data.max(axis=0)):
            return  # a degenerate column needs a positive padding
        self.assert_box_bits(data, padding)

    @pytest.mark.parametrize("padding", [1e-9, 0.5])
    def test_single_row(self, padding):
        self.assert_box_bits(np.array([[0.0, -0.0, 3.5, -1e300, 5e-324]]), padding)

    @pytest.mark.parametrize("padding", [0.0, 1e-9])
    def test_ranges_near_the_float64_limit(self, padding):
        data = np.array([[-8e307, 1e308, -1.7e308, 0.0], [8e307, 1.5e308, -1e308, -0.0],
                         [0.0, 1.2e308, -1.2e308, 1e308]])
        self.assert_box_bits(data, padding)


class TestEstimateTheta:
    def test_symmetric_values(self):
        assert estimate_theta(np.array([0.2, 0.8, 0.4, 0.6]), 0.0, 1.0) == 0.0

    def test_all_at_upper_bound_clamps(self):
        assert estimate_theta(np.array([2.0, 2.0, 2.0]), 0.0, 2.0) == 1.0

    def test_empty_input(self):
        assert estimate_theta(np.array([]), 0.0, 1.0) == 0.0

    def test_recovers_theta_from_draws(self):
        # E[t] = 1/2 + theta/6 (quadrature-checked); draws via the quantile
        theta = 0.5
        mean, _ = quad(lambda t: t * (1.0 + theta * (2.0 * t - 1.0)), 0.0, 1.0)
        assert mean == pytest.approx(0.5 + theta / 6.0, abs=1e-13)
        rng = np.random.default_rng(15)
        values = marginal_quantile(theta, 0.0, 1.0, rng.random(10000))
        assert estimate_theta(values, 0.0, 1.0) == pytest.approx(theta, abs=0.05)


class TestSplitPvalue:
    def test_central_outcome(self):
        values = np.concatenate([np.full(50, 0.25), np.full(50, 0.75)])
        assert split_pvalue(values, 0.0, 1.0, 0.0) >= 0.5

    def test_everything_below_midpoint(self):
        values = np.full(100, 0.1)
        assert split_pvalue(values, 0.0, 1.0, 0.0) < 1e-20

    def test_normal_approximation_close_to_exact(self):
        # exact doubled two-sided tail at n=50, k=32, p0=1/2
        exact = min(1.0, 2.0 * min(binom.cdf(32, 50, 0.5), binom.sf(31, 50, 0.5)))
        assert exact == pytest.approx(0.06490864707227217, abs=1e-12)
        values = np.concatenate([np.full(32, 0.25), np.full(18, 0.75)])
        assert split_pvalue(values, 0.0, 1.0, 0.0) == pytest.approx(exact, abs=0.005)

    @pytest.mark.parametrize("k,m,theta", [(3, 20, 0.0), (10, 30, -0.8), (0, 12, 0.4), (25, 30, 1.0)])
    def test_exact_branch_matches_direct_summation(self, k, m, theta):
        values = np.concatenate([np.full(k, 0.2), np.full(m - k, 0.8)])
        p0 = 0.5 - theta / 4.0
        expected = min(1.0, 2.0 * min(binom.cdf(k, m, p0), binom.sf(k - 1, m, p0)))
        assert split_pvalue(values, 0.0, 1.0, theta) == pytest.approx(expected, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            split_pvalue(np.array([]), 0.0, 1.0, 0.0)

    def test_fit_pvalue_never_exceeds_bonferroni_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, size=rng.integers(5, 200))
            theta = float(rng.uniform(-1.0, 1.0))
            combined = fit_pvalue(values, 0.0, 1.0, theta)
            assert 0.0 <= combined <= 1.0
            assert combined <= 3.0 * split_pvalue(values, 0.0, 1.0, theta) + 1e-15

    @settings(max_examples=300)
    @given(m=st.one_of(st.integers(1, 2 * EXACT_BINOMIAL_LIMIT), st.integers(1, 10**5)),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           theta=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)))
    def test_quartile_pvalue_equals_fit_pvalue(self, m, cuts, theta):
        counts = tuple(sorted(int(c * m) for c in cuts))
        # values that realise the counts below the cuts at 1/4, 1/2 and 3/4 of [0, 1]
        values = np.repeat([0.1, 0.3, 0.6, 0.9], np.diff((0,) + counts + (m,)))
        assert _quartile_pvalue(counts, m, theta) == fit_pvalue(values, 0.0, 1.0, theta)


class TestBuildTree:
    def test_too_few_samples_single_leaf(self):
        ens = Ensemble(np.array([[0.0, 0.0], [1.0, 1.0]]))
        tree = build_tree(ens, BuildConfig(min_leaf_count=10))
        assert tree.split_dim.tolist() == [-1]
        assert tree.count.tolist() == [2]

    def test_identical_samples_single_leaf(self):
        ens = Ensemble(np.full((100, 2), 3.25))
        tree = build_tree(ens, BuildConfig())
        assert tree.split_dim.tolist() == [-1]

    def test_uniform_data_stays_nearly_trivial(self):
        # the fit test should accept uniform data almost everywhere
        leaf_counts = []
        accept_fractions = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            ens = Ensemble(rng.uniform(0.0, 1.0, size=(10000, 2)))
            tree = build_tree(ens, BuildConfig(alpha=0.01))
            leaf_counts.append(leaf_ids(tree).size)
            accept_fractions.append(leaf_ids(tree).size / tree.split_dim.size)
        assert np.median(leaf_counts) <= 10
        assert np.median(accept_fractions) >= 0.5  # leaves dominate over splits

    def test_uniform_data_nodes_pass_fit_test(self):
        # at alpha = 0.01, at least 99% of nodes keep their fit (do not split)
        splits = 0
        examined = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            ens = Ensemble(rng.uniform(0.0, 1.0, size=(10000, 2)))
            tree = build_tree(ens, BuildConfig(alpha=0.01))
            examined += tree.split_dim.size
            splits += int(np.count_nonzero(tree.split_dim >= 0))
        assert 1.0 - splits / examined >= 0.99

    @pytest.mark.parametrize("seed,d", [(31, 1), (32, 2), (33, 3)])
    def test_counts_conserved_and_samples_assigned(self, seed, d):
        ens = random_ensemble(seed, 2000, d)
        tree = build_tree(ens, BuildConfig())
        assert tree.count.sum() == tree.n
        # reassign every sample through the finished tree and tally
        tally = np.zeros_like(tree.count)
        for x in ens.data:
            tally[leaf_at(tree, x)] += 1
        assert np.array_equal(tally, tree.count)

    def test_child_counts_sum_at_every_split(self):
        ens = random_ensemble(41, 3000, 2)
        tree = build_tree(ens, BuildConfig())
        for node in np.flatnonzero(tree.split_dim >= 0):
            dim, hi = tree.split_dim[node], tree.upper_child[node]
            assert _subtree_count(tree, node) == _subtree_count(tree, node + 1) + _subtree_count(tree, hi)
            cut = (tree.lower[node, dim] + tree.upper[node, dim]) / 2.0
            assert tree.upper[node + 1, dim] == cut == tree.lower[hi, dim]

    def test_depth_bound(self):
        ens = random_ensemble(51, 5000, 2)
        tree = build_tree(ens, BuildConfig(max_depth=3, min_leaf_count=1))
        assert _depths(tree).max() <= 3

    def test_deterministic(self):
        ens = random_ensemble(61, 2000, 3)
        t1 = build_tree(ens, BuildConfig())
        t2 = build_tree(ens, BuildConfig())
        for name in ("lower", "upper", "split_dim", "upper_child", "count", "theta"):
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()

    def test_ulp_wide_box_becomes_a_leaf(self):
        # the root box [0, 5e-324] has no midpoint strictly inside it
        data = np.concatenate([np.zeros(80), np.full(20, 5e-324)])[:, None]
        tree = build_tree(Ensemble(data), BuildConfig(min_leaf_count=1))
        validate_tree(tree)
        assert sum(leaf_mass(de, tree.n) for de in tree.iter_leaves()) == pytest.approx(1.0, abs=1e-12)

    def test_split_where_the_bound_sum_overflows(self):
        # x1's box has finite bounds whose sum overflows float64; with the cut at
        # (lo + hi) / 2 = inf every x1 counted as below it, x1 won the split choice
        # and the split was refused, so the tree stayed one leaf blind to x2's shape
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.uniform(1e308, 1.7e308, 20_000), rng.standard_normal(20_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = build_tree(Ensemble(data), BuildConfig())
            validate_tree(tree)
            draws = sample_unconditional(tree, 1, 10_000)
            assert np.all(np.isfinite(det_density_many(tree, draws)))
        assert leaf_ids(tree).size > 1 and np.any(tree.split_dim == 1)
        assert np.all(np.isfinite(draws))
        loaded = document_to_tree(json.loads(json.dumps(tree_to_document(tree))))
        assert loaded.upper.tobytes() == tree.upper.tobytes() and loaded.lower.tobytes() == tree.lower.tobytes()

    def test_max_depth_limit(self):
        with pytest.raises(ValueError, match="max_depth"):
            BuildConfig(max_depth=MAX_DEPTH_LIMIT + 1)
        # data that needs ~1000 halvings to separate reaches the limit
        data = np.concatenate([np.zeros(50), np.full(50, 1e-300), [1.0]])[:, None]
        tree = build_tree(Ensemble(data), BuildConfig(max_depth=MAX_DEPTH_LIMIT))
        validate_tree(tree)
        assert _depths(tree).max() == MAX_DEPTH_LIMIT

    def test_atoms_do_not_cascade_to_max_depth(self):
        # a 3-valued integer column next to a normal one: nodes on an atom
        # hold one value in that column, which no split can separate, so the
        # builder must not keep halving the box around it
        rng = np.random.default_rng(0)
        n = 5000
        data = np.column_stack([rng.integers(0, 3, n).astype(np.float64), rng.standard_normal(n)])
        tree = build_tree(Ensemble(data), BuildConfig())
        validate_tree(tree)
        leaves = leaf_ids(tree)
        assert leaves.size <= 30
        assert np.count_nonzero(tree.count[leaves] == 0) <= 2
        assert _depths(tree).max() <= 8

    def test_constant_dimension_is_never_split(self):
        rng = np.random.default_rng(1)
        data = np.column_stack([rng.standard_normal(3000), np.full(3000, 2.5)])
        tree = build_tree(Ensemble(data), BuildConfig())
        assert set(tree.split_dim.tolist()) <= {-1, 0}

    def test_constant_order_has_zero_theta(self):
        ens = random_ensemble(71, 2000, 2)
        tree = build_tree(ens, BuildConfig(order=MarginalOrder.CONSTANT))
        assert tree.order is MarginalOrder.CONSTANT
        assert np.all(tree.theta == 0.0)

    def test_peak_memory_is_two_copies_of_the_data(self):
        # besides the ensemble, the column blocks hold one copy of the data, two
        # while the root splits, and a block is freed once its node is split
        ens = random_ensemble(72, 200_000, 3)
        tracemalloc.start()
        try:
            build_tree(ens, BuildConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * ens.data.nbytes  # the rest: the root's midpoint masks


def _column(kind: str, rng, n: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if kind == "integer":
        return rng.integers(0, 3, n).astype(np.float64)
    if kind == "subnormal":
        return rng.integers(0, 4, n) * 5e-324
    if kind == "huge":
        return rng.standard_normal(n) * 1e306
    if kind == "overflowing_sum":  # bounds whose sum overflows, and stay finite under a 10 % pad
        return rng.uniform(1e308, 1.6e308, n)
    # dyadic values on [0, 1]: with no bounds padding they sit on split midpoints
    column = rng.integers(0, 17, n) / 16.0
    column[0], column[-1] = 0.0, 1.0
    return column


@st.composite
def build_cases(draw):
    """Adversarial (ensemble, config) pairs: 1-4 dims of normal, integer,
    subnormal, huge, overflowing-sum or dyadic columns, rows drawn with
    repetition from a base set, both marginal orders, small leaf counts and
    depths."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["normal", "integer", "subnormal", "huge", "overflowing_sum", "dyadic"]),
                          min_size=1, max_size=4))
    n_base = draw(st.integers(1, 200))
    base = np.column_stack([_column(kind, rng, n_base) for kind in kinds])
    data = base[rng.integers(0, n_base, draw(st.integers(1, 400)))]
    constant = bool(np.any(data.min(axis=0) == data.max(axis=0)))
    config = BuildConfig(
        order=draw(st.sampled_from(list(MarginalOrder))),
        alpha=draw(st.sampled_from([0.01, 0.2, 0.9])),
        min_leaf_count=draw(st.integers(1, 12)),
        max_depth=draw(st.integers(1, 30)),
        bounds_padding_rel=draw(st.sampled_from([1e-9, 0.1] if constant else [0.0, 1e-9, 0.1])),
    )
    return Ensemble(data), config


def _extreme_column(kind: str, rng, n: int) -> np.ndarray:
    if kind == "near_max":  # a range at the float64 maximum: the box width may overflow
        return rng.uniform(-1.0, 1.0, n) * np.finfo(np.float64).max
    if kind == "near_max_positive":  # a finite range whose bounds sit near the float64 maximum
        return 1e308 + rng.uniform(0.0, 7e307, n)
    if kind == "subnormal":  # values a few subnormal steps apart
        return rng.integers(-3, 4, n) * 5e-324
    if kind == "duplicates":  # a handful of values, each repeated many times
        return rng.choice(rng.standard_normal(3), n)
    if kind == "atom":  # one value repeated, plus a few outliers
        column = np.full(n, 2.5)
        column[rng.random(n) < 0.05] = rng.standard_normal() * 1e3
        return column
    return rng.standard_normal(n)


@st.composite
def extreme_cases(draw):
    """1-4 dims of data at the ends of the float64 range, at subnormal
    spacing, with heavy duplicates or atoms, and configs that let the tree
    grow deep."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["near_max", "near_max_positive", "subnormal", "duplicates", "atom",
                                           "normal"]), min_size=1, max_size=4))
    n = draw(st.integers(1, 600))
    data = np.column_stack([_extreme_column(kind, rng, n) for kind in kinds])
    config = BuildConfig(
        order=draw(st.sampled_from(list(MarginalOrder))),
        alpha=draw(st.sampled_from([0.01, 0.5])),
        min_leaf_count=draw(st.integers(1, 12)),
        max_depth=draw(st.sampled_from([5, 40, MAX_DEPTH_LIMIT])),
        bounds_padding_rel=draw(st.sampled_from([0.0, 1e-9, 0.5])),
    )
    return Ensemble(data), config


class TestBuildMatchesReference:
    @settings(max_examples=200)
    @given(case=build_cases())
    def test_same_tree_as_reference_builder(self, case):
        ens, config = case
        tree = build_tree(ens, config)
        expected = reference_build_tree(ens, config)
        # json.dumps writes floats by repr, so equal text means equal bits
        assert json.dumps(tree_to_document(tree)) == json.dumps(expected)
        validate_tree(tree)
        assert math.fsum(leaf_mass(de, tree.n) for de in tree.iter_leaves()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["mixed", "dirichlet"])
    def test_same_tree_at_benchmark_scale(self, kind):
        # 50,000 points reach what the small cases cannot: counts handed down
        # through nodes of 10^4 and more rows, and the normal approximation
        if kind == "mixed":
            ens = random_ensemble(5, 50_000, 3)
        else:
            ens = Ensemble(sample_dirichlet(DirichletSpec(alpha=np.array([1.25, 2.0, 0.75])), 6, 50_000))
        tree = build_tree(ens, BuildConfig())
        assert json.dumps(tree_to_document(tree)) == json.dumps(reference_build_tree(ens, BuildConfig()))
        splits = np.flatnonzero(tree.split_dim >= 0)
        below = np.array([_subtree_count(tree, node + 1) for node in splits])
        above = np.array([_subtree_count(tree, tree.upper_child[node]) for node in splits])
        # a split below the root of 10^4 or more rows, and one whose smaller child is the upper one
        assert np.any(below[1:] + above[1:] >= 10_000)
        assert np.any((above < below) & (above > 0))


class TestBuildProperties:
    """Right on every input: adversarial data either gets a clean ValueError
    from the builder, or a valid tree whose draws stay in the root box and
    whose densities there are finite, or the documented overflow error."""

    @settings(max_examples=150)
    @given(case=extreme_cases())
    def test_valid_tree_or_clean_error(self, case):
        ens, config = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                tree = build_tree(ens, config)
            except ValueError:
                return
            validate_tree(tree)
            draws = sample_unconditional(tree, 17, 200)
            assert np.all((draws >= tree.lower[0]) & (draws <= tree.upper[0]))
            try:
                density = det_density_many(tree, draws)
            except ValueError as exc:
                assert "overflows float64" in str(exc)
            else:
                assert np.all(np.isfinite(density) & (density >= 0.0))


def _depths(tree) -> np.ndarray:
    """Depth of every node; in preorder each parent precedes its children."""
    depth = np.zeros(tree.split_dim.size, dtype=np.intp)
    for node in np.flatnonzero(tree.split_dim >= 0):
        depth[node + 1] = depth[tree.upper_child[node]] = depth[node] + 1
    return depth


def _subtree_count(tree, node: int) -> int:
    total, stack = 0, [node]
    while stack:
        node = stack.pop()
        if tree.split_dim[node] < 0:
            total += int(tree.count[node])
        else:
            stack.extend([node + 1, tree.upper_child[node]])
    return total
