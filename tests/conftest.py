import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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
from dettree.build import EXACT_BINOMIAL_LIMIT, _binomial_two_sided_exact
from dettree.core import THETA_TINY
from dettree.io import FORMAT_VERSION, CsvFormatError

# Run time varies by up to 2x on shared CI machines, so examples get no deadline.
settings.register_profile("dettree", deadline=None)
settings.load_profile("dettree")

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


def base_chain(array: np.ndarray):
    """``array`` and every array in its ``.base`` chain."""
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


def stack_walk_upper_child(split_dim):
    """Reference topology: the preorder nodes fill, one by one, the child
    slot on top of a stack of open slots, and a split opens its upper slot
    and then its lower one. Returns each split's upper child (-1 at a
    leaf), or None where the flags are not one tree: a node arrives with no
    slot open, or slots stay open after the last node."""
    upper_child = [-1] * len(split_dim)
    slots = [-1]  # the split whose upper child fills the slot; -1 for the root or a lower child
    for node, dim in enumerate(split_dim):
        if not slots:
            return None
        parent = slots.pop()
        if parent >= 0:
            upper_child[parent] = node
        if dim >= 0:
            slots += [node, -1]
    return None if slots else upper_child


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


def pruned_search_conditioned_leaves(tree: DetTree, cond: Condition):
    """Reference root-to-leaf search: a depth-first walk, lower child first,
    that at a split on a conditioned dimension visits only the side holding
    the value (the upper side from the cut on, the lower child's upper
    bound). Returns the leaf ids,
    their weights (same arithmetic order as the library) and the visited
    node ids in visit order."""
    fixed = dict(cond.entries)
    leaves, visited = [], []
    stack = [0]
    while stack:
        node = stack.pop()
        visited.append(node)
        dim = int(tree.split_dim[node])
        if dim < 0:
            leaves.append(node)
            continue
        value = fixed.get(dim)
        upper_child = int(tree.upper_child[node])
        if value is None:
            stack.extend([upper_child, node + 1])
        elif value >= tree.upper[node + 1, dim]:
            stack.append(upper_child)
        else:
            stack.append(node + 1)
    leaves = np.array(leaves, dtype=np.intp)
    weights = tree.count[leaves] / tree.n
    for dim, value in cond.entries:
        weights *= marginal_density(tree.theta[leaves, dim], tree.lower[leaves, dim], tree.upper[leaves, dim], value)
    return leaves, weights, visited


def assert_search_matches_oracles(tree: DetTree, cond: Condition) -> None:
    """The library search must equal both the exhaustive leaf mask and the
    pruned depth-first search: leaf ids, weight bits and visit sequence."""
    visited = []
    found = find_conditioned_leaves(tree, cond, visited.append)
    dfs_leaves, dfs_weights, dfs_visited = pruned_search_conditioned_leaves(tree, cond)
    for leaves, weights in (exhaustive_conditioned_leaves(tree, cond), (dfs_leaves, dfs_weights)):
        assert np.array_equal(found.leaves, leaves)  # the same leaf ids in the same order
        assert found.weights.tobytes() == weights.tobytes()
    assert visited == dfs_visited
    assert found.total == found.weights.sum()


def reference_sample_conditional(tree: DetTree, cond: Condition, seed: int, count: int) -> np.ndarray:
    """Whole-array reference sampler: every uniform drawn at once, the leaves
    picked against the exhaustive oracle's weights, the (leaves, free)
    theta/lo/hi tables gathered per sample, the quantile written out with
    its uniform branch, and each draw capped below an open upper face. The
    library's block-wise sampler must equal it byte for byte."""
    d = tree.dims
    free = np.array(cond.free_dims(d), dtype=np.intp)
    leaves, weights = exhaustive_conditioned_leaves(tree, cond)
    if count == 0:
        return np.empty((0, d))
    u = np.random.default_rng(seed).random((count, 1 + free.size))
    cum = np.cumsum(weights)
    idx = np.minimum(np.searchsorted(cum, u[:, 0] * cum[-1], side="right"), np.flatnonzero(weights > 0.0)[-1])
    rows = np.ix_(leaves[idx], free)
    theta, lo, hi = tree.theta[rows], tree.lower[rows], tree.upper[rows]
    y = u[:, 1:]
    denom = (1.0 - theta) + np.sqrt(np.maximum((1.0 - theta) ** 2 + 4.0 * theta * y, 0.0))
    uniform_like = (np.abs(theta) < THETA_TINY) | (denom <= 0.0)
    t = np.clip(np.where(uniform_like, y, 2.0 * y / np.where(uniform_like, 1.0, denom)), 0.0, 1.0)
    cap = np.where(hi == tree.upper[0, free], hi, np.nextafter(hi, lo))
    out = np.empty((count, d))
    out[:, free] = np.clip(lo + t * (hi - lo), lo, cap)
    for dim, value in cond.entries:
        out[:, dim] = value
    return out


def reference_det_density_many(tree: DetTree, points) -> np.ndarray:
    """Reference density router: one stack descent over node ids, in which
    each node holds its points as a (d, m) block of columns that a split
    partitions stably into the child blocks at its cut (the lower child's
    upper bound), then each leaf's count/n times
    its marginal densities. The library's block-wise router must equal it
    byte for byte."""
    pts = np.asarray(points, dtype=np.float64)
    cols = np.array(pts.T, order="C")
    inside = np.all(cols >= tree.lower[0, :, None], axis=0) & np.all(cols <= tree.upper[0, :, None], axis=0)
    stack = [(0, np.compress(inside, cols, axis=1), np.flatnonzero(inside))]
    out = np.zeros(pts.shape[0])
    while stack:
        node, cols, idx = stack.pop()
        if idx.size == 0:
            continue
        dim = int(tree.split_dim[node])
        if dim >= 0:
            below = cols[dim] < tree.upper[node + 1, dim]
            stack.append((int(tree.upper_child[node]), np.compress(~below, cols, axis=1), idx[~below]))
            stack.append((node + 1, np.compress(below, cols, axis=1), idx[below]))
        elif tree.count[node] > 0:
            values = np.full(idx.size, int(tree.count[node]) / tree.n)
            lo, hi = tree.lower[node, :, None], tree.upper[node, :, None]
            for factor in (1.0 + tree.theta[node, :, None] * (2.0 * ((cols - lo) / (hi - lo)) - 1.0)) / (hi - lo):
                values *= factor
            out[idx] = values
    return out


def leafwise_quadrature_total(tree: DetTree, leaves=None) -> float:
    """Independent mass oracle: 2-point tensor Gauss-Legendre per leaf (exact
    for the per-dimension linear densities), summed through det_density_many
    over ``leaves`` (default every leaf)."""
    nodes = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    d = tree.dims
    combos = nodes[np.array(list(np.ndindex(*([2] * d))))]  # (2^d, d)
    leaves = leaf_ids(tree) if leaves is None else np.asarray(leaves)
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
    return DetTree(lower=[lower], upper=[upper], split_dim=[-1], count=[count], theta=[theta],
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
            position = reference_midpoint(lower[best], upper[best])
            if pvalues[best] < config.alpha and lower[best] < position < upper[best]:
                below = data[idx, best] < position
                lo_upper, hi_lower = list(upper), list(lower)
                lo_upper[best] = hi_lower[best] = position
                children = [_reference_grow(data, idx[below], lower, lo_upper, depth + 1, config),
                            _reference_grow(data, idx[~below], hi_lower, upper, depth + 1, config)]
                return {"lower": lower, "upper": upper, "split": {"dim": best, "position": position},
                        "children": children}
    return {"lower": lower, "upper": upper, "count": count, "theta": thetas}


def reference_midpoint(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi] as the builder cuts it: (lo + hi) / 2, or
    where that sum leaves the float64 range, the sum of the halves."""
    lo, hi = float(lo), float(hi)  # Python floats overflow to inf without a numpy warning
    total = lo + hi
    return total / 2.0 if -math.inf < total < math.inf else lo / 2.0 + hi / 2.0


def fit_pvalue(values: np.ndarray, lo: float, hi: float, theta: float) -> float:
    """Per-dimension goodness-of-fit p-value used by the builder: binomial
    threshold tests at the normalized quartile points 1/4, 1/2, 3/4,
    Bonferroni-combined (so the false-split rate stays below alpha). Strictly
    more sensitive than the half-mass test alone.
    """
    ps = (
        _threshold_pvalue(values, lo, hi, theta, 0.25),
        _threshold_pvalue(values, lo, hi, theta, 0.5),
        _threshold_pvalue(values, lo, hi, theta, 0.75),
    )
    return min(1.0, 3.0 * min(ps))


def _threshold_pvalue(values: np.ndarray, lo: float, hi: float, theta: float, t: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    # the midpoint form must match the split-assignment arithmetic exactly
    cut = reference_midpoint(lo, hi) if t == 0.5 else lo + t * (hi - lo)
    k = int(np.count_nonzero(values < cut))
    m = int(values.size)
    p0 = t * (1.0 + theta * (t - 1.0))  # fitted marginal's mass below t
    if m <= EXACT_BINOMIAL_LIMIT:
        return _binomial_two_sided_exact(k, m, p0)
    return _binomial_two_sided_normal(k, m, p0)


def _binomial_two_sided_normal(k: int, m: int, p0: float) -> float:
    mean = m * p0
    sd = math.sqrt(m * p0 * (1.0 - p0))
    lower = _norm_cdf((k + 0.5 - mean) / sd)
    upper = _norm_cdf(-(k - 0.5 - mean) / sd)
    return min(1.0, 2.0 * min(lower, upper))


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def reference_read_csv(path) -> Ensemble:
    """The list-based reader ``read_csv`` replaced: the whole file as a list
    of rows, then one whole-array parse and a row scan on failure. Kept
    unchanged as the oracle of the streaming reader's bits, names and
    messages."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows or all(len(r) == 0 for r in rows):
        raise CsvFormatError(f"{path}: file is empty")

    first = rows[0]
    names = None
    body_start = 0
    if _reference_parse_row(first) is None:
        names = tuple(field.strip() for field in first)
        body_start = 1
    body = rows[body_start:]
    if not body:
        raise CsvFormatError(f"{path}: no data rows after the header")

    width = len(first)
    data = None
    if not any(len(r) != width for r in body):
        try:
            data = np.fromiter(map(float, itertools.chain.from_iterable(body)), dtype=np.float64,
                               count=len(body) * width)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        _reference_raise_first_bad_row(path, body, body_start + 1, width)
    return Ensemble(data=data.reshape(len(body), width), column_names=names or ())


def _reference_raise_first_bad_row(path: Path, body: list[list[str]], first_line: int, width: int):
    for line_no, row in enumerate(body, start=first_line):
        if len(row) != width:
            raise CsvFormatError(f"{path}: row {line_no} has {len(row)} fields, expected {width}")
        values = _reference_parse_row(row)
        if values is None:
            raise CsvFormatError(f"{path}: row {line_no} contains a non-numeric field")
        if not all(np.isfinite(values)):
            raise CsvFormatError(f"{path}: row {line_no} contains a non-finite value")
    raise AssertionError("the whole-array parse failed but no row is malformed")


def _reference_parse_row(row: list[str]):
    try:
        return [float(field) for field in row]
    except ValueError:
        return None
