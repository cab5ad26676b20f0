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
compatible dimension (at ``_split_position``) when the combined test rejects;
otherwise it becomes a leaf. Construction is a pure function of (ensemble,
config), so rebuilding from identical input yields a bit-identical tree.

What a node computes: the three counts below the quartile cuts of each
dimension, whether each dimension varies, theta per dimension, and from
these the p-values. What it inherits: a split halves one dimension and
keeps the others' boxes, and so their cuts, so the children get their
counts there from the parent; a node counts only the dimension its parent
split. ``estimate_theta`` states theta on a plain array of values;
``build_tree`` computes the same bits with fewer passes.

The passes that are not statistics are kept short too. The root box takes
each dimension's extremes from one contiguous row of the (d, n) block the
build starts from (``root_cuboid``), and the quartile test writes out its
normal-approximation tails in one function body instead of three Python
calls per cut.
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
    "build_tree",
]

# Node sizes up to this use the exact binomial tail; larger ones use the
# normal approximation with continuity correction.
EXACT_BINOMIAL_LIMIT = 30

# math.comb(m, j) as floats for m up to the limit; each is below 2**53, so
# exact, and int * float converts the int the same way
_BINOMIAL = [[float(math.comb(m, j)) for j in range(m + 1)] for m in range(EXACT_BINOMIAL_LIMIT + 1)]

# The normalized cuts of the quartile test, and sqrt(2) for the normal tails.
_QUARTILES = (0.25, 0.5, 0.75)
_SQRT2 = math.sqrt(2.0)

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


def root_cuboid(ensemble: Ensemble, padding_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box ``(lower, upper)`` of the data, each side padded by
    ``padding_rel`` times the per-dimension range. A zero-range dimension is
    padded by ``padding_rel * max(1, |value|)`` so every width is strictly
    positive. Raises ValueError if a bound or a width is not a finite
    float64.

    Each dimension's extremes come from one reduction over its column;
    ``data.min(axis=0)`` runs an inner loop of length d per row and costs
    about ten times as much. The values are the same, but where a column
    mixes 0.0 and -0.0 the two reductions may return different signed
    zeros. The sign can reach the box only where the pad is 0, so where a
    zero extreme meets a zero pad the extremes come from
    ``data.min(axis=0)`` and ``data.max(axis=0)``, and the box keeps the
    bits that those give.
    """
    return _padded_box(ensemble.data, ensemble.data.T, padding_rel)


# A range beyond the float64 maximum overflows to inf (and zero padding times
# inf gives NaN); the width check rejects it, so no numpy warning is raised.
@np.errstate(over="ignore", invalid="ignore")
def _padded_box(data: np.ndarray, columns: np.ndarray, padding_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """``root_cuboid`` of the (n, d) ``data``; ``columns`` is the same data
    as a (d, n) array, in any memory layout."""
    lo = np.array([column.min() for column in columns])
    hi = np.array([column.max() for column in columns])
    span = hi - lo
    degenerate = span == 0.0
    pad = padding_rel * np.where(degenerate, np.maximum(1.0, np.abs(lo)), span)
    if np.any(degenerate) and padding_rel == 0.0:
        raise ValueError("degenerate data range needs a positive bounds padding")
    # neither the span nor the pad depends on the sign of a zero extreme
    if np.any((pad == 0.0) & ((lo == 0.0) | (hi == 0.0))):
        lo, hi = data.min(axis=0), data.max(axis=0)
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

    A tested node reads its block only for what its parent could not hand
    down. The parent hands down the counts below the quartile cuts of every
    dimension but its split dimension, where the child's box and cuts are
    the parent's: it counts the smaller child's block and gives the other
    child the differences. So a node counts only its parent's split
    dimension (the root counts all of them), and a split along that
    dimension partitions by the midpoint mask of the count. A min/max pass
    runs only for a dimension whose counts are all 0 or m; any other count
    shows that the values differ. Theta is fitted for the varying
    dimensions, and for the others only if the node becomes a leaf.
    """
    d = ensemble.dims
    linear = config.order is MarginalOrder.LINEAR
    root = np.ascontiguousarray(ensemble.data.T)
    root_lower, root_upper = _padded_box(ensemble.data, root, config.bounds_padding_rel)
    nodes = []  # (lower, upper, split dim, count, theta) in preorder
    # pending nodes: (column block, lower, upper, depth, per dimension the handed-down quartile counts or None)
    stack = [(root, root_lower.tolist(), root_upper.tolist(), 0, [None] * d)]
    del root  # the stack holds the only reference, so the root split frees the block
    while stack:
        cols, lower, upper, depth, counts = stack.pop()
        m = cols.shape[1]
        thetas = [None] * d if linear and m > 0 else [0.0] * d
        best, masks = -1, {}
        if m > config.min_leaf_count and depth < config.max_depth:
            for i in range(d):
                if counts[i] is None:
                    counts[i], masks[i] = _quartile_counts(cols[i], lower[i], upper[i])
            varying = [i for i in range(d) if any(0 < k < m for k in counts[i]) or cols[i].min() < cols[i].max()]
            for i in varying:
                if thetas[i] is None:
                    thetas[i] = _theta(cols[i], lower[i], upper[i])
            # ties to the lowest index; with no varying dimension p = 1 is never below alpha
            pvalue, best = min(((_quartile_pvalue(counts[i], m, thetas[i]), i) for i in varying), default=(1.0, -1))
            position = _split_position(lower[best], upper[best])
            # a box one ulp wide has no midpoint strictly inside and cannot split
            if not (pvalue < config.alpha and lower[best] < position < upper[best]):
                best = -1
        if best < 0:
            thetas = [_theta(cols[i], lower[i], upper[i]) if theta is None else theta for i, theta in enumerate(thetas)]
            nodes.append((lower, upper, -1, m, thetas))
            continue
        nodes.append((lower, upper, best, 0, [0.0] * d))
        below = masks[best] if best in masks else cols[best] < position
        lo_upper, hi_lower = upper.copy(), lower.copy()
        lo_upper[best] = hi_lower[best] = position
        # compress keeps C order and the points' order; cols[:, below] would be F-ordered
        lo_cols, hi_cols = np.compress(below, cols, axis=1), np.compress(~below, cols, axis=1)
        lo_counts, hi_counts = [None] * d, [None] * d
        if max(lo_cols.shape[1], hi_cols.shape[1]) > config.min_leaf_count and depth + 1 < config.max_depth:
            small, small_counts, other_counts = ((lo_cols, lo_counts, hi_counts) if lo_cols.shape[1] <= hi_cols.shape[1]
                                                 else (hi_cols, hi_counts, lo_counts))
            for i in range(d):
                if i != best:
                    small_counts[i] = _quartile_counts(small[i], lower[i], upper[i])[0]
                    other_counts[i] = tuple(k - s for k, s in zip(counts[i], small_counts[i]))
        stack.append((hi_cols, hi_lower, upper, depth + 1, hi_counts))
        stack.append((lo_cols, lower, lo_upper, depth + 1, lo_counts))
    lower, upper, split_dim, count, theta = zip(*nodes)
    return DetTree(lower=lower, upper=upper, split_dim=split_dim, count=count, theta=theta, n=ensemble.n,
                   order=config.order, column_names=ensemble.column_names)


def _quartile_counts(row: np.ndarray, lo: float, hi: float) -> tuple[tuple[int, int, int], np.ndarray]:
    """The counts of ``row`` below the cuts at 1/4, 1/2 and 3/4 of [lo, hi],
    and the mask below the midpoint. The midpoint cut is the split position,
    so the mask partitions a split node."""
    mid = row < _split_position(lo, hi)
    counts = (int(np.count_nonzero(row < lo + 0.25 * (hi - lo))), int(np.count_nonzero(mid)),
              int(np.count_nonzero(row < lo + 0.75 * (hi - lo))))
    return counts, mid


def _split_position(lo: float, hi: float) -> float:
    """The one place a cut is decided: the midpoint, from the halves where lo + hi overflows."""
    mid = (lo + hi) / 2.0
    return mid if abs(mid) < math.inf else lo / 2.0 + hi / 2.0


def _quartile_pvalue(counts: tuple[int, int, int], m: int, theta: float) -> float:
    """The quartile test's p-value for m values with these counts below the
    cuts, Bonferroni-combined over the three cuts. Above
    ``EXACT_BINOMIAL_LIMIT`` each cut's two-sided tail is the normal
    approximation with continuity correction, written out here with the
    float operations of ``0.5 * erfc(-z / sqrt(2))`` in their order."""
    if m <= EXACT_BINOMIAL_LIMIT:
        return min(1.0, 3.0 * min(_binomial_two_sided_exact(k, m, t * (1.0 + theta * (t - 1.0)))
                                  for k, t in zip(counts, _QUARTILES)))
    least = math.inf
    for k, t in zip(counts, _QUARTILES):
        p0 = t * (1.0 + theta * (t - 1.0))  # the fitted marginal's mass below t
        mean = m * p0
        sd = math.sqrt(m * p0 * (1.0 - p0))
        lower = 0.5 * math.erfc(-((k + 0.5 - mean) / sd) / _SQRT2)
        upper = 0.5 * math.erfc(-(-(k - 0.5 - mean) / sd) / _SQRT2)
        least = min(least, min(1.0, 2.0 * min(lower, upper)))
    return min(1.0, 3.0 * least)


def _theta(row: np.ndarray, lo: float, hi: float) -> float:
    """``estimate_theta`` of a nonempty row, with one temporary: the sum
    divided by the size is the bits of ``mean``."""
    t = row - lo
    t /= hi - lo
    return min(max(6.0 * (float(np.add.reduce(t)) / t.size - 0.5), -1.0), 1.0)


def _binomial_two_sided_exact(k: int, m: int, p0: float) -> float:
    q0 = 1.0 - p0
    pmf = [c * p0**j * q0 ** (m - j) for j, c in enumerate(_BINOMIAL[m])]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))
