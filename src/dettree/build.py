"""Tree construction: equal-size splitting driven by a local goodness-of-fit
test.

At each node the marginal model is fitted per dimension (moment-matched
theta for linear order, theta = 0 for constant order) and compared with the
samples through two-sided binomial tests of the observed cell counts below
the normalized quartile points 1/4, 1/2, 3/4 against the mass the fitted
marginal puts there, Bonferroni-combined into one per-dimension p-value.
The half-mass statistic alone is blind to misfit that is symmetric about
the midpoint (a centered bell inside a cell matches its lower-half mass
exactly), so the quartile thresholds are what let refinement reach regions
where the density is curved but balanced. The node is split along the least
compatible dimension when the combined test rejects; otherwise it becomes a
leaf. Construction is a pure function of (ensemble, config), so rebuilding
from identical input yields a bit-identical tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DetTree, MarginalOrder

__all__ = [
    "Ensemble",
    "BuildConfig",
    "root_cuboid",
    "estimate_theta",
    "fit_pvalue",
    "build_tree",
]

# Node sizes up to this use the exact binomial tail; larger ones use the
# normal approximation with continuity correction.
EXACT_BINOMIAL_LIMIT = 30

# Deepest tree the builder may grow. Tree documents nest one record level
# per tree level and ``json.load`` recurses twice per record level, so
# Python's default recursion limit (1000) must leave room for the caller.
MAX_DEPTH_LIMIT = 400


@dataclass(frozen=True, eq=False)
class Ensemble:
    """n x d matrix of samples plus column names (default x1..xd)."""

    data: np.ndarray
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("ensemble data must be a 2-D array")
        n, d = data.shape
        if n < 1 or d < 1:
            raise ValueError("ensemble needs at least one sample and one dimension")
        if not np.all(np.isfinite(data)):
            raise ValueError("ensemble data must be finite")
        data.setflags(write=False)
        names = tuple(self.column_names)
        if not names:
            names = tuple(f"x{i + 1}" for i in range(d))
        if len(names) != d:
            raise ValueError("need one column name per dimension")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BuildConfig:
    order: MarginalOrder = MarginalOrder.LINEAR
    alpha: float = 0.01
    min_leaf_count: int = 10
    max_depth: int = 40
    bounds_padding_rel: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.min_leaf_count < 1:
            raise ValueError("min_leaf_count must be at least 1")
        if not 1 <= self.max_depth <= MAX_DEPTH_LIMIT:
            raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH_LIMIT}], got {self.max_depth}")
        if not self.bounds_padding_rel >= 0.0:
            raise ValueError("bounds_padding_rel must be nonnegative")


# A range beyond the float64 maximum overflows to inf (and zero padding times
# inf gives NaN); the width check rejects it, so no numpy warning is raised.
@np.errstate(over="ignore", invalid="ignore")
def root_cuboid(ensemble: Ensemble, padding_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box ``(lower, upper)`` of the data, each side padded by
    ``padding_rel`` times the per-dimension range. A zero-range dimension is
    padded by ``padding_rel * max(1, |value|)`` so every width is strictly
    positive. Raises ValueError if a bound or a width is not a finite
    float64.
    """
    lo = ensemble.data.min(axis=0)
    hi = ensemble.data.max(axis=0)
    span = hi - lo
    degenerate = span == 0.0
    pad = padding_rel * np.where(degenerate, np.maximum(1.0, np.abs(lo)), span)
    if np.any(degenerate) and padding_rel == 0.0:
        raise ValueError("degenerate data range needs a positive bounds padding")
    lower = lo - pad
    upper = hi + pad
    # Guard against padding that vanishes in rounding on a degenerate range.
    bad = ~(lower < upper)
    if np.any(bad):
        lower = np.where(bad, np.nextafter(lo, -np.inf), lower)
        upper = np.where(bad, np.nextafter(hi, np.inf), upper)
    if not np.all(np.isfinite(upper - lower)):  # also false for infinite or NaN bounds
        raise ValueError("the padded data range overflows: box bounds and widths must be finite")
    return lower, upper


def estimate_theta(values: np.ndarray, lo: float, hi: float) -> float:
    """Moment-matched slope: E[t] = 1/2 + theta/6 for the linear marginal, so
    theta_hat = 6*(mean(t) - 1/2), clamped into [-1, 1]. Empty input gives 0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    t = (values - lo) / (hi - lo)
    theta = 6.0 * (float(t.mean()) - 0.5)
    return min(max(theta, -1.0), 1.0)


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
    cut = (lo + hi) / 2.0 if t == 0.5 else lo + t * (hi - lo)
    k = int(np.count_nonzero(values < cut))
    m = int(values.size)
    p0 = t * (1.0 + theta * (t - 1.0))  # fitted marginal's mass below t
    if m <= EXACT_BINOMIAL_LIMIT:
        return _binomial_two_sided_exact(k, m, p0)
    return _binomial_two_sided_normal(k, m, p0)


def build_tree(ensemble: Ensemble, config: BuildConfig) -> DetTree:
    """Subdivision: fit marginals, test per-dimension compatibility, split the
    least compatible dimension at its midpoint (ties to the lowest index)
    while the node holds more than ``min_leaf_count`` samples, is shallower
    than ``max_depth``, and some p-value falls below ``alpha``; otherwise
    emit a leaf.

    Samples on a split position go to the upper child (closed-below
    convention), so each sample lands in exactly one leaf. A dimension whose
    node values are all identical takes no part in the test or the split
    choice: no split can separate them, and the box-halving cascade around
    such an atom would otherwise run to max_depth. A node where no dimension
    varies becomes a leaf, and so does a node whose box is too narrow to halve.

    Nodes are appended in preorder from a stack of pending nodes, lower child
    on top. Each pending node holds its samples as one C-contiguous (d, m)
    block of columns, so every statistic reads contiguous rows. A split
    partitions the block stably into the two child blocks, and the next pop
    drops it, so outside a split the live blocks hold at most one copy of the
    data.
    """
    d = ensemble.dims
    root_lower, root_upper = root_cuboid(ensemble, config.bounds_padding_rel)
    nodes, upper_child = [], []  # nodes: (lower, upper, split dim, count, theta) in preorder
    # pending nodes: (column block, lower, upper, depth, id of the parent whose upper child it is)
    stack = [(np.ascontiguousarray(ensemble.data.T), root_lower.tolist(), root_upper.tolist(), 0, -1)]
    while stack:
        cols, lower, upper, depth, parent = stack.pop()
        if parent >= 0:
            upper_child[parent] = len(nodes)
        upper_child.append(-1)
        if config.order is MarginalOrder.LINEAR and cols.shape[1] > 0:
            thetas = [estimate_theta(cols[i], lower[i], upper[i]) for i in range(d)]
        else:
            thetas = [0.0] * d
        best = _split_choice(cols, lower, upper, thetas, depth, config)
        if best < 0:
            nodes.append((lower, upper, -1, cols.shape[1], thetas))
            continue
        nodes.append((lower, upper, best, 0, [0.0] * d))
        position = (lower[best] + upper[best]) / 2.0
        below = cols[best] < position
        lo_upper, hi_lower = upper.copy(), lower.copy()
        lo_upper[best] = hi_lower[best] = position
        # compress keeps C order and the points' order; cols[:, below] would be F-ordered
        stack.append((np.compress(~below, cols, axis=1), hi_lower, upper, depth + 1, len(nodes) - 1))
        stack.append((np.compress(below, cols, axis=1), lower, lo_upper, depth + 1, -1))
    lower, upper, split_dim, count, theta = zip(*nodes)
    return DetTree(lower=lower, upper=upper, split_dim=split_dim, upper_child=upper_child, count=count, theta=theta,
                   n=ensemble.n, order=config.order, column_names=ensemble.column_names)


def _split_choice(cols: np.ndarray, lower: list, upper: list, thetas: list, depth: int, config: BuildConfig) -> int:
    """The dimension to split a node along, or -1 to make it a leaf."""
    if cols.shape[1] <= config.min_leaf_count or depth >= config.max_depth:
        return -1
    varying = [i for i in range(len(lower)) if cols[i].min() < cols[i].max()]
    pvalues = {i: fit_pvalue(cols[i], lower[i], upper[i], thetas[i]) for i in varying}
    best = min(varying, key=lambda i: (pvalues[i], i), default=None)
    if best is None or not pvalues[best] < config.alpha:
        return -1
    # a box one ulp wide has no midpoint strictly inside and cannot split
    return best if lower[best] < (lower[best] + upper[best]) / 2.0 < upper[best] else -1


def _binomial_two_sided_exact(k: int, m: int, p0: float) -> float:
    q0 = 1.0 - p0
    pmf = [math.comb(m, j) * p0**j * q0 ** (m - j) for j in range(m + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))


def _binomial_two_sided_normal(k: int, m: int, p0: float) -> float:
    mean = m * p0
    sd = math.sqrt(m * p0 * (1.0 - p0))
    lower = _norm_cdf((k + 0.5 - mean) / sd)
    upper = _norm_cdf(-(k - 0.5 - mean) / sd)
    return min(1.0, 2.0 * min(lower, upper))


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
