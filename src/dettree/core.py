"""The distribution element tree and exact density/CDF/quantile evaluation.

A distribution element (DE) is an axis-aligned box carrying a sample count
and, per dimension, a constant or linear marginal density. A tree of
equal-size box splits whose leaves are DEs defines the density estimate: the
sum of the leaf densities, which at any point reduces to the single
containing leaf.

Array layout. A tree of N nodes in d dimensions stores its nodes in
preorder, lower child first, as read-only arrays. Node 0 is the root, the
lower child of split node i is node i + 1 and its upper child is node
``upper_child[i]``; leaves in ascending id order are the depth-first leaf
order.

    lower, upper   (N, d) float64   the node's box
    split_dim      (N,)   intp      split dimension, -1 at a leaf
    upper_child    (N,)   intp      id of the upper child, -1 at a leaf
    count          (N,)   int64     samples in a leaf, 0 at a split
    theta          (N, d) float64   a leaf's marginal slopes, 0 at a split

A split halves its box at the midpoint of ``split_dim``, so the position is
not stored: it is ``(lower[i, k] + upper[i, k]) / 2``.

Containment convention: leaf intervals are closed below and open above,
[l, u), except that a face lying on the root box's upper boundary is closed.
This makes the leaves an exact partition of the root box, so every point
(including split boundaries) belongs to exactly one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "MarginalOrder",
    "DetNode",
    "DetTree",
    "marginal_density",
    "marginal_cdf",
    "marginal_quantile",
    "det_density_many",
    "leaf_mass",
    "validate_tree",
]

# Below this, the linear quantile formula degrades to the uniform one.
THETA_TINY = 1e-10

_NODE_ARRAYS = (
    ("lower", np.float64),
    ("upper", np.float64),
    ("split_dim", np.intp),
    ("upper_child", np.intp),
    ("count", np.int64),
    ("theta", np.float64),
)


class MarginalOrder(Enum):
    """Polynomial order of the per-dimension marginal densities."""

    CONSTANT = "constant"
    LINEAR = "linear"


@dataclass(frozen=True, eq=False, repr=False)
class DetTree:
    """Distribution element tree: the node arrays of the module docstring,
    the sample count ``n``, the marginal order and one name per dimension
    (default x1..xd).

    In normalized coordinates t = (x - lo)/(hi - lo) a leaf's dimension i has
    the marginal density p(t | theta_i) = 1 + theta_i * (2t - 1), with
    theta_i in [-1, 1]: theta = 0 is the uniform model, |theta| <= 1 keeps
    the density nonnegative and the family is self-normalizing on [0, 1].

    The constructor stores read-only copies of the arrays and checks nothing
    else; ``validate_tree`` checks the invariants. Density evaluation is pure,
    so any number of threads may read concurrently.
    """

    lower: np.ndarray
    upper: np.ndarray
    split_dim: np.ndarray
    upper_child: np.ndarray
    count: np.ndarray
    theta: np.ndarray
    n: int
    order: MarginalOrder
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            # same_kind casting refuses a float count or dimension instead of truncating it
            value = np.asarray(getattr(self, name)).astype(dtype, casting="same_kind")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        names = tuple(self.column_names) or tuple(f"x{i + 1}" for i in range(self.dims))
        object.__setattr__(self, "column_names", names)

    @property
    def dims(self) -> int:
        return self.lower.shape[-1]

    @property
    def root(self) -> "DetNode":
        return DetNode(self, 0)

    def iter_leaves(self) -> Iterator["DetNode"]:
        """Leaves in depth-first order, lower child before upper child."""
        return (DetNode(self, node) for node in np.flatnonzero(self.split_dim < 0).tolist())


class DetNode(NamedTuple):
    """Read-only handle on node ``id`` of ``tree``, made on access: it holds
    no data and every field reads the tree's arrays. It serves the reads of
    a node-by-node tree walk, and is its own ``cuboid`` (box) and ``body``
    (leaf element or split)."""

    tree: DetTree
    id: int

    lower = property(lambda self: self.tree.lower[self.id])
    upper = property(lambda self: self.tree.upper[self.id])
    count = property(lambda self: int(self.tree.count[self.id]))
    is_leaf = property(lambda self: bool(self.tree.split_dim[self.id] < 0))
    lower_child = property(lambda self: DetNode(self.tree, self.id + 1))
    upper_child = property(lambda self: DetNode(self.tree, int(self.tree.upper_child[self.id])))
    cuboid = body = property(lambda self: self)


def marginal_density(theta, lo, hi, x):
    """Density p[x | theta] = (1 + theta*(2t - 1)) / (hi - lo) with
    t = (x - lo)/(hi - lo). Nonnegative on [lo, hi] and integrates to one.
    Every argument may be a float or an array (broadcast elementwise).
    """
    t = _normalize(lo, hi, x)
    return (1.0 + theta * (2.0 * t - 1.0)) / (hi - lo)


def marginal_cdf(theta, lo, hi, x):
    """CDF of the marginal: F(t) = (1 - theta)*t + theta*t^2, evaluated as
    t*(1 + theta*(t - 1)) so the endpoints land on exactly 0 and 1.
    """
    t = _normalize(lo, hi, x)
    return t * (1.0 + theta * (t - 1.0))


def marginal_quantile(theta, lo, hi, y):
    """Inverse CDF. Solves theta*t^2 + (1 - theta)*t = y via the
    cancellation-stable root t = 2y / ((1 - theta) + sqrt((1-theta)^2 + 4*theta*y));
    near theta = 0 this degrades to the uniform quantile t = y. The result is
    clipped into [lo, hi] against roundoff.
    """
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")
    if not np.all(lo < hi):
        raise ValueError("need lo < hi")
    denom = (1.0 - theta) + np.sqrt(np.maximum((1.0 - theta) ** 2 + 4.0 * theta * y, 0.0))
    # denom vanishes only at theta = 1, y = 0, where t = y = 0 is exact
    uniform_like = (np.abs(theta) < THETA_TINY) | (denom <= 0.0)
    t = np.where(uniform_like, y, 2.0 * y / np.where(uniform_like, 1.0, denom))
    del denom, uniform_like  # release before the result is formed: samplers pass large arrays
    t = np.clip(t, 0.0, 1.0)
    return np.clip(lo + t * (hi - lo), lo, hi)


def det_density_many(tree: DetTree, points) -> np.ndarray:
    """Estimated density at each row of an (m, d) batch: the containing
    leaf's (count/n) times its marginal densities, 0 outside the root box.

    One descent over node ids routes every point to its leaf under the
    containment convention. Each node holds its points as one C-contiguous
    (d, m) block of columns, which a split partitions stably into the child
    blocks, so every leaf factor reads contiguous memory.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != tree.dims:
        raise ValueError(f"points must have shape (m, {tree.dims})")
    cols = np.array(pts.T, order="C")
    inside = np.all(cols >= tree.lower[0, :, None], axis=0) & np.all(cols <= tree.upper[0, :, None], axis=0)
    if not inside.all():  # copy only to drop points outside the root box
        cols = np.compress(inside, cols, axis=1)
    stack = [(0, cols, np.flatnonzero(inside))]
    out = np.zeros(pts.shape[0])
    while stack:
        node, cols, idx = stack.pop()
        if idx.size == 0:
            continue
        dim = int(tree.split_dim[node])
        if dim >= 0:
            below = cols[dim] < (tree.lower[node, dim] + tree.upper[node, dim]) / 2.0
            stack.append((int(tree.upper_child[node]), np.compress(~below, cols, axis=1), idx[~below]))
            stack.append((node + 1, np.compress(below, cols, axis=1), idx[below]))
        elif tree.count[node] > 0:
            values = np.full(idx.size, int(tree.count[node]) / tree.n)
            lo, hi = tree.lower[node, :, None], tree.upper[node, :, None]
            for factor in marginal_density(tree.theta[node, :, None], lo, hi, cols):
                values *= factor
            out[idx] = values
    return out


def leaf_mass(leaf: DetNode, n: int) -> float:
    """Probability mass of a leaf, count/n: the marginals integrate to one,
    so the leaf's integral over its box is just its sample share.
    """
    if n < 1:
        raise ValueError("total sample count must be at least 1")
    return leaf.count / n


def validate_tree(tree: DetTree) -> None:
    """Check every invariant of the node arrays once, over whole arrays;
    raises ValueError on the first violation.

    Shapes; n >= 1 and one column name per dimension; finite bounds and
    strictly positive widths; |theta| <= 1; nonnegative counts summing to n;
    count 0 at splits and theta 0 wherever the count is 0 (splits, empty
    leaves) and everywhere in a constant-order tree; the topology (one tree
    in preorder, lower child at i + 1, upper child just past the lower
    subtree); children that partition their parent's box exactly at its
    midpoint.
    """
    lower, upper, theta, count, split_dim = tree.lower, tree.upper, tree.theta, tree.count, tree.split_dim
    if lower.ndim != 2 or 0 in lower.shape:
        raise ValueError("lower must be an (N, d) array with N, d >= 1")
    nodes, d = lower.shape
    if upper.shape != lower.shape or theta.shape != lower.shape:
        raise ValueError(f"upper and theta must have the shape {lower.shape} of lower")
    if any(a.shape != (nodes,) for a in (split_dim, tree.upper_child, count)):
        raise ValueError(f"split_dim, upper_child and count need one entry per node ({nodes})")
    if tree.n < 1:
        raise ValueError("tree must be built from at least one sample")
    if len(tree.column_names) != d:
        raise ValueError("need one column name per dimension")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("box bounds must be finite")
    if not np.all(lower < upper):
        raise ValueError("box widths must be strictly positive")
    bad = ~(np.abs(theta) <= 1.0)  # also catches NaN and infinities
    if np.any(bad):
        raise ValueError(f"theta must lie in [-1, 1], got {theta[bad][0]}")
    if np.any(count < 0):
        raise ValueError("counts must be nonnegative")
    if np.any((split_dim < -1) | (split_dim >= d)):
        raise ValueError(f"split dimensions must lie in [-1, {d})")
    is_split = split_dim >= 0
    if np.any(count[is_split] != 0):
        raise ValueError("split nodes must carry count 0")
    if np.any(theta[count == 0] != 0.0):
        raise ValueError("empty leaves and split nodes must carry theta = 0")
    if tree.order is MarginalOrder.CONSTANT and np.any(theta != 0.0):
        raise ValueError("constant-order tree requires theta = 0 in every leaf")
    total = sum(count.tolist())  # exact: an int64 sum could wrap
    if total != tree.n:
        raise ValueError(f"leaf counts sum to {total}, expected n = {tree.n}")

    # In preorder the split flags alone fix the shape: the running balance of
    # splits (+1) and leaves (-1) stays nonnegative before the last node and
    # reaches -1 there exactly when the nodes form one tree, each reached once.
    balance = np.cumsum(np.where(is_split, 1, -1))
    if balance[-1] != -1 or np.any(balance[:-1] < 0):
        raise ValueError("the nodes do not form one tree in preorder")
    # The lower subtree of split i ends at the first node after i whose
    # balance is balance[i] - 1; sorting (balance, id) keys finds it.
    splits = np.flatnonzero(is_split)
    keys = np.sort((balance + 1) * nodes + np.arange(nodes))
    expected = np.full(nodes, -1)
    expected[splits] = keys[np.searchsorted(keys, balance[splits] * nodes + splits + 1)] % nodes + 1
    if not np.array_equal(tree.upper_child, expected):
        raise ValueError("upper_child must point just past the lower child's subtree, and be -1 at leaves")

    lo_child, hi_child, k = splits + 1, expected[splits], split_dim[splits]
    rows = np.arange(splits.size)
    cut = upper[lo_child, k]
    lo_upper, hi_lower = upper[splits], lower[splits]
    lo_upper[rows, k] = cut
    hi_lower[rows, k] = cut
    if not (
        np.array_equal(lower[lo_child], lower[splits])
        and np.array_equal(upper[lo_child], lo_upper)
        and np.array_equal(lower[hi_child], hi_lower)
        and np.array_equal(upper[hi_child], upper[splits])
    ):
        raise ValueError("children do not exactly partition their parent box")
    if not np.array_equal(cut, (lower[splits, k] + upper[splits, k]) / 2.0):
        raise ValueError("a split is not at the midpoint of its box")


def _normalize(lo, hi, x):
    if not np.all(lo < hi):
        raise ValueError("need lo < hi")
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError("x lies outside the marginal support [lo, hi]")
    return (x - lo) / (hi - lo)
