import math

import numpy as np
import pytest

from dettree import (
    BuildConfig,
    Condition,
    DetTree,
    Ensemble,
    GaussianSpec,
    MarginalOrder,
    build_tree,
    det_density_many,
    estimate_theta,
    find_conditioned_leaves,
    marginal_density,
    root_cuboid,
    sample_gaussian,
)
from dettree.build import fit_pvalue
from dettree.io import FORMAT_VERSION

REF_COV = np.array([[0.35, 0.25, 0.5], [0.25, 0.4, 0.6], [0.5, 0.6, 1.0]])


@pytest.fixture(scope="session")
def ref_gaussian():
    return GaussianSpec(mu=np.zeros(3), cov=REF_COV)


@pytest.fixture(scope="session")
def gaussian_tree_small(ref_gaussian):
    """Tree from 10^3 draws of the 3-D reference Gaussian."""
    data = sample_gaussian(ref_gaussian, 424, 1000)
    return build_tree(Ensemble(data), BuildConfig())


def random_ensemble(seed: int, n: int, d: int) -> Ensemble:
    """Mixed-shape test data: correlated Gaussian plus a uniform block."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    core = rng.standard_normal((n * 3 // 4, d)) @ (np.eye(d) + 0.5 * a)
    block = rng.uniform(-2.0, 2.0, size=(n - core.shape[0], d))
    return Ensemble(np.vstack([core, block]))


def build_random_tree(seed: int, n: int = 1000, d: int = 2, **config):
    return build_tree(random_ensemble(seed, n, d), BuildConfig(**config))


def leaf_ids(tree: DetTree) -> np.ndarray:
    """Ids of the leaves, in depth-first order."""
    return np.flatnonzero(tree.split_dim < 0)


def leaf_contains(tree: DetTree, leaf: int, x) -> bool:
    """Brute-force containment convention: leaf intervals are closed below
    and open above, except faces on the root box's upper boundary."""
    x = np.asarray(x, dtype=np.float64)
    lower, upper = tree.lower[leaf], tree.upper[leaf]
    closed = upper == tree.upper[0]
    return bool(np.all(x >= lower) and np.all((x < upper) | (closed & (x <= upper))))


def leaf_at(tree: DetTree, x) -> int:
    """Id of the leaf the conditioned-leaf search routes ``x`` to, conditioning
    on every coordinate; exactly one leaf contains a point of the root box."""
    (leaf,) = find_conditioned_leaves(tree, Condition(list(enumerate(x)))).leaves
    return int(leaf)


def leaf_density_sum(tree: DetTree, x) -> float:
    """Brute-force density oracle: sum over every leaf of (count/n) times its
    marginal densities, zero outside the leaf (same arithmetic order as the
    library)."""
    total = 0.0
    for leaf in leaf_ids(tree):
        if not leaf_contains(tree, leaf, x):
            continue
        value = int(tree.count[leaf]) / tree.n
        for i in range(tree.dims):
            value *= marginal_density(tree.theta[leaf, i], tree.lower[leaf, i], tree.upper[leaf, i], x[i])
        total += value
    return total


def exhaustive_conditioned_leaves(tree: DetTree, cond: Condition):
    """Brute-force oracle: a mask over every leaf's bounds under the
    containment convention, then the weight formula applied directly (same
    arithmetic order as the library). Returns leaf ids and weights."""
    leaves = leaf_ids(tree)
    keep = np.ones(leaves.size, dtype=bool)
    for dim, value in cond.entries:
        lo, hi = tree.lower[leaves, dim], tree.upper[leaves, dim]
        closed = hi == tree.upper[0, dim]
        keep &= (value >= lo) & ((value < hi) | (closed & (value <= hi)))
    leaves = leaves[keep]
    weights = tree.count[leaves] / tree.n
    for dim, value in cond.entries:
        weights *= marginal_density(tree.theta[leaves, dim], tree.lower[leaves, dim], tree.upper[leaves, dim], value)
    return leaves, weights


def leafwise_quadrature_total(tree: DetTree) -> float:
    """Independent mass oracle: 2-point tensor Gauss-Legendre per leaf (exact
    for the per-dimension linear densities), summed through det_density_many."""
    nodes = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    d = tree.dims
    combos = nodes[np.array(list(np.ndindex(*([2] * d))))]  # (2^d, d)
    leaves = leaf_ids(tree)
    lower, upper = tree.lower[leaves], tree.upper[leaves]
    half = (upper - lower) / 2.0
    center = (upper + lower) / 2.0
    points = center[:, None, :] + half[:, None, :] * combos[None, :, :]
    values = det_density_many(tree, points.reshape(-1, d)).reshape(len(leaves), -1)
    return float(np.sum(values.sum(axis=1) * np.prod(half, axis=1)))


def leaf_tree(lower, upper, count: int, n: int, theta=None, order=MarginalOrder.LINEAR) -> DetTree:
    """A one-node tree: the root box is a single leaf."""
    lower = np.asarray(lower, dtype=np.float64)
    theta = np.zeros_like(lower) if theta is None else theta
    return DetTree(lower=[lower], upper=[upper], split_dim=[-1], upper_child=[-1], count=[count], theta=[theta],
                   n=n, order=order)


def reference_build_tree(ensemble: Ensemble, config: BuildConfig) -> dict:
    """Plain reference builder: every node regathers its samples from the
    full data through an index array, and a dimension takes part in the fit
    test and the split choice only if some node value differs from the
    first. Returns the tree document, which must equal the library
    builder's bit for bit."""
    lower, upper = root_cuboid(ensemble, config.bounds_padding_rel)
    root = _reference_grow(ensemble.data, np.arange(ensemble.n), lower.tolist(), upper.tolist(), 0, config)
    return {"formatVersion": FORMAT_VERSION, "n": ensemble.n, "dims": ensemble.dims,
            "columnNames": list(ensemble.column_names), "order": config.order.value, "root": root}


def _reference_grow(data, idx, lower: list, upper: list, depth: int, config) -> dict:
    d = len(lower)
    count = int(idx.size)
    if config.order is MarginalOrder.LINEAR and count > 0:
        thetas = [estimate_theta(data[idx, i], lower[i], upper[i]) for i in range(d)]
    else:
        thetas = [0.0] * d
    if count > config.min_leaf_count and depth < config.max_depth:
        varying = [i for i in range(d) if np.any(data[idx, i] != data[idx[0], i])]
        if varying:
            pvalues = {i: fit_pvalue(data[idx, i], lower[i], upper[i], thetas[i]) for i in varying}
            best = min(varying, key=lambda i: (pvalues[i], i))
            position = (lower[best] + upper[best]) / 2.0
            if pvalues[best] < config.alpha and lower[best] < position < upper[best]:
                below = data[idx, best] < position
                lo_upper, hi_lower = list(upper), list(lower)
                lo_upper[best] = hi_lower[best] = position
                children = [_reference_grow(data, idx[below], lower, lo_upper, depth + 1, config),
                            _reference_grow(data, idx[~below], hi_lower, upper, depth + 1, config)]
                return {"lower": lower, "upper": upper, "split": {"dim": best, "position": position},
                        "children": children}
    return {"lower": lower, "upper": upper, "count": count, "theta": thetas}
