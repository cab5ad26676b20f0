import math

import numpy as np
import pytest

from dettree import (
    BuildConfig,
    Condition,
    DetNode,
    DetTree,
    DistributionElement,
    Ensemble,
    GaussianSpec,
    MarginalOrder,
    Split,
    build_tree,
    det_density_many,
    estimate_theta,
    find_conditioned_leaves,
    marginal_density,
    root_cuboid,
    sample_gaussian,
)
from dettree.build import fit_pvalue

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


def leaf_contains(tree: DetTree, de, x) -> bool:
    """Brute-force containment convention: leaf intervals are closed below
    and open above, except faces on the root cuboid's upper boundary."""
    x = np.asarray(x, dtype=np.float64)
    lower, upper = de.cuboid.lower, de.cuboid.upper
    closed = upper == tree.root.cuboid.upper
    return bool(np.all(x >= lower) and np.all((x < upper) | (closed & (x <= upper))))


def leaf_at(tree: DetTree, x):
    """The leaf the conditioned-leaf search routes ``x`` to, conditioning on
    every coordinate; exactly one leaf contains a point of the root cuboid."""
    (leaf,) = find_conditioned_leaves(tree, Condition(list(enumerate(x)))).leaves
    return leaf


def leaf_density_sum(tree: DetTree, x) -> float:
    """Brute-force density oracle: sum over every leaf of (count/n) times its
    marginal densities, zero outside the leaf (same arithmetic order as the
    library)."""
    total = 0.0
    for de in tree.iter_leaves():
        if not leaf_contains(tree, de, x):
            continue
        value = de.count / tree.n
        for i in range(tree.dims):
            value *= marginal_density(de.theta[i], de.cuboid.lower[i], de.cuboid.upper[i], x[i])
        total += value
    return total


def exhaustive_conditioned_leaves(tree: DetTree, cond: Condition):
    """Brute-force oracle: scan every leaf, apply the containment convention
    and the weight formula directly (same arithmetic order as the library)."""
    root_upper = tree.root.cuboid.upper
    leaves = []
    weights = []
    for de in tree.iter_leaves():
        ok = True
        for dim, value in cond.entries:
            lo = de.cuboid.lower[dim]
            hi = de.cuboid.upper[dim]
            closed = hi == root_upper[dim]
            if not (value >= lo and (value < hi or (closed and value <= hi))):
                ok = False
                break
        if not ok:
            continue
        w = de.count / tree.n
        for dim, value in cond.entries:
            w *= marginal_density(de.theta[dim], float(de.cuboid.lower[dim]), float(de.cuboid.upper[dim]), value)
        leaves.append(de)
        weights.append(w)
    return leaves, np.array(weights)


def leafwise_quadrature_total(tree: DetTree) -> float:
    """Independent mass oracle: 2-point tensor Gauss-Legendre per leaf (exact
    for the per-dimension linear densities), summed through det_density_many."""
    nodes = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    d = tree.dims
    combos = nodes[np.array(list(np.ndindex(*([2] * d))))]  # (2^d, d)
    leaves = list(tree.iter_leaves())
    lower = np.array([de.cuboid.lower for de in leaves])
    upper = np.array([de.cuboid.upper for de in leaves])
    half = (upper - lower) / 2.0
    center = (upper + lower) / 2.0
    points = center[:, None, :] + half[:, None, :] * combos[None, :, :]
    values = det_density_many(tree, points.reshape(-1, d)).reshape(len(leaves), -1)
    return float(np.sum(values.sum(axis=1) * np.prod(half, axis=1)))


def reference_build_tree(ensemble: Ensemble, config: BuildConfig) -> DetTree:
    """Plain reference builder: every node regathers its samples from the
    full data through an index array, and a dimension takes part in the fit
    test and the split choice only if some node value differs from the
    first. The library builder must produce the same tree bit for bit."""
    box = root_cuboid(ensemble, config.bounds_padding_rel)
    root = _reference_grow(ensemble.data, np.arange(ensemble.n), box, 0, config)
    return DetTree(root=root, n=ensemble.n, order=config.order, column_names=ensemble.column_names)


def _reference_grow(data, idx, box, depth, config) -> DetNode:
    d = box.dims
    count = int(idx.size)
    if config.order is MarginalOrder.LINEAR and count > 0:
        thetas = [estimate_theta(data[idx, i], float(box.lower[i]), float(box.upper[i])) for i in range(d)]
    else:
        thetas = [0.0] * d
    if count > config.min_leaf_count and depth < config.max_depth:
        varying = [i for i in range(d) if np.any(data[idx, i] != data[idx[0], i])]
        if varying:
            pvalues = {
                i: fit_pvalue(data[idx, i], float(box.lower[i]), float(box.upper[i]), thetas[i]) for i in varying
            }
            best = min(varying, key=lambda i: (pvalues[i], i))
            if pvalues[best] < config.alpha and box.lower[best] < box.midpoint(best) < box.upper[best]:
                position, lo_box, up_box = box.split(best)
                below = data[idx, best] < position
                lower_child = _reference_grow(data, idx[below], lo_box, depth + 1, config)
                upper_child = _reference_grow(data, idx[~below], up_box, depth + 1, config)
                return DetNode(cuboid=box, body=Split(best, position, lower_child, upper_child))
    return DetNode(cuboid=box, body=DistributionElement(cuboid=box, count=count, theta=thetas))
