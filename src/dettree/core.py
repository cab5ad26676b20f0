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
    count          (N,)   int64     samples in a leaf, 0 at a split
    theta          (N, d) float64   a leaf's marginal slopes, 0 at a split
    upper_child    (N,)   intp      derived: id of the upper child, -1 at a leaf

In preorder the split flags fix the shape, so ``upper_child`` is derived
from ``split_dim``, not stored. The constructor runs ``validate_tree``, so
every tree, however it was made, satisfies every invariant, and no operation
checks the tree again. Every array a tree hands out sits over an immutable
``bytes`` buffer, so none in its ``.base`` chain can be made writeable.

A split's cut lies strictly inside its box and is stored once, as the face
its children share, ``upper[i + 1, split_dim[i]]``; the builder places it.

Containment convention: leaf intervals are closed below and open above,
[l, u), except that a face lying on the root box's upper boundary is closed.
This makes the leaves an exact partition of the root box, so every point
(including split boundaries) belongs to exactly one leaf.

Derived tables. The search, the sampler and the density read one set of
tables that a tree derives from its node arrays on first use
(``DetTree._tables``). Per dimension, one contiguous row per table: the node
lower bounds and widths; the upper bounds, with each face on the root's
upper boundary stored as +inf so a box holds v exactly when
lower <= v < upper_open; theta; and the sampler's quantile coefficients, of
which the lower bounds and widths are the first two planes. Per node: the
leaf flag and leaf mass count/n, and the density router's split dimension
and cut, with at 2i and 2i + 1 the lower and upper child of node i (i twice
at a leaf, so a leaf routes to itself). Per leaf: its id, and per dimension
one contiguous row of its lower bounds and one of its ``upper_open``, which
the search masks. The node arrays never change, so the set never goes stale.

Blocks. Density and sampling work through their rows in blocks of
``_BLOCK_ROWS``, so a call holds its output plus O(block) temporaries
whatever its size; the block size does not change a single output bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
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
# The quantile's denominator vanishes only at theta = 1, y = 0, where this
# floor makes t = 0 / floor = y exact without a division by zero.
_DENOM_FLOOR = np.nextafter(0.0, 1.0)

# Rows per block of the block-wise density and sampling loops: 4,096-16,384
# measured best, small enough for a block's temporaries to stay in cache and
# large enough to amortize the per-block calls.
_BLOCK_ROWS = 8192

_NODE_ARRAYS = (
    ("lower", np.float64),
    ("upper", np.float64),
    ("split_dim", np.intp),
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

    The constructor takes the five stored arrays, keeps permanently
    read-only copies and raises ValueError unless they pass
    ``validate_tree``. Density evaluation is pure, so any number of threads
    may read concurrently.
    """

    lower: np.ndarray
    upper: np.ndarray
    split_dim: np.ndarray
    count: np.ndarray
    theta: np.ndarray
    n: int
    order: MarginalOrder
    column_names: tuple[str, ...] = field(default=())
    _last_search = None  # not a field: the last (Condition, WeightedLeafSet) of the search

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            # same_kind casting refuses a float count or dimension instead of truncating it
            value = np.asarray(getattr(self, name)).astype(dtype, casting="same_kind", copy=False)
            object.__setattr__(self, name, _sealed(value))
        names = tuple(self.column_names) or tuple(f"x{i + 1}" for i in range(self.dims if self.lower.ndim else 0))
        object.__setattr__(self, "column_names", names)
        validate_tree(self)

    def __reduce__(self):  # through the constructor: unpickled arrays would own writeable data
        return DetTree, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dims(self) -> int:
        return self.lower.shape[-1]

    @property
    def root(self) -> "DetNode":
        return DetNode(self, 0)

    def iter_leaves(self) -> Iterator["DetNode"]:
        """Leaves in depth-first order, lower child before upper child."""
        return (DetNode(self, node) for node in np.flatnonzero(self.split_dim < 0).tolist())

    @cached_property
    def upper_child(self) -> np.ndarray:
        """Id of each split's upper child, -1 at a leaf: split i's lower
        subtree ends at the first later node whose running balance of splits
        (+1) and leaves (-1) is balance[i] - 1. The nodes form one tree (else
        ValueError) exactly when the balance first reaches -1 at the last node."""
        is_split = self.split_dim >= 0
        nodes = is_split.size
        balance = np.cumsum(np.where(is_split, 1, -1))
        if is_split.ndim != 1 or nodes == 0 or balance[-1] != -1 or np.any(balance[:-1] < 0):
            raise ValueError("the nodes do not form one tree in preorder")
        splits = np.flatnonzero(is_split)
        keys = np.sort((balance + 1) * nodes + np.arange(nodes))
        upper_child = np.full(nodes, -1, dtype=np.intp)
        upper_child[splits] = keys[np.searchsorted(keys, balance[splits] * nodes + splits + 1)] % nodes + 1
        return _sealed(upper_child)

    @cached_property
    def _tables(self) -> "_NodeTables":
        """The derived tables of the module docstring, built on first use."""
        lower, upper, theta = (np.ascontiguousarray(x.T) for x in (self.lower, self.upper, self.theta))
        root_face = upper == upper[:, :1]
        # a draw is capped below an open upper face, which belongs to the neighbour
        cap = np.where(root_face, upper, np.nextafter(upper, lower))
        quantile = _quantile_coefficients(theta, lower, upper, cap)
        nodes, is_leaf = np.arange(self.split_dim.size), self.split_dim < 0
        leaves = nodes[is_leaf]
        upper_open = np.where(root_face, np.inf, upper)
        dim = np.maximum(self.split_dim, 0)
        child = np.where(is_leaf[:, None], nodes[:, None], np.column_stack([nodes + 1, self.upper_child])).ravel()
        tables = _NodeTables(
            quantile=quantile,
            lower=quantile[0],
            width=quantile[1],
            upper_open=upper_open,
            theta=theta,
            is_leaf=is_leaf,
            leaves=leaves,
            leaf_lower=lower[:, leaves],
            leaf_upper_open=upper_open[:, leaves],
            mass=self.count / self.n,
            dim=dim,
            cut=self.upper[(nodes + 1) % nodes.size, dim],  # a leaf routes to itself whatever it reads
            child=child,
        )
        return _NodeTables._make(map(_sealed, tables))


class _NodeTables(NamedTuple):
    """The (6, d, N) ``quantile`` planes lo, width, cap, a, a^2 and b that
    the sampler passes to ``_quantile``; per-dimension node rows: (d, N)
    ``lower`` and ``width`` (the first two planes), ``upper_open``
    and ``theta``; per node: (N,) ``is_leaf`` and ``mass``, and the router's
    (N,) ``dim`` and ``cut`` and (2N,) ``child``; per leaf: the (L,) ids
    ``leaves`` and (d, L) rows ``leaf_lower`` and ``leaf_upper_open``."""

    quantile: np.ndarray
    lower: np.ndarray
    width: np.ndarray
    upper_open: np.ndarray
    theta: np.ndarray
    is_leaf: np.ndarray
    leaves: np.ndarray
    leaf_lower: np.ndarray
    leaf_upper_open: np.ndarray
    mass: np.ndarray
    dim: np.ndarray
    cut: np.ndarray
    child: np.ndarray


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


def _sealed(array: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``array`` over an immutable ``bytes`` buffer:
    read-only, and no array in its ``.base`` chain can be made writeable."""
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def marginal_density(theta, lo, hi, x):
    """Density p[x | theta] = (1 + theta*(2t - 1)) / (hi - lo) with
    t = (x - lo)/(hi - lo). Nonnegative on [lo, hi] and integrates to one.
    Every argument may be a float or an array (broadcast elementwise).
    Raises ValueError for a theta outside [-1, 1], and where the density
    overflows float64, as it does for a subnormal width.
    """
    _check_theta(theta)
    _check_support(lo, hi, x)
    width = np.subtract(hi, lo)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        density = _density(theta, lo, width, x)
    if not np.isfinite(density).all():
        raise ValueError("the density overflows float64")
    return density


def marginal_cdf(theta, lo, hi, x):
    """CDF of the marginal: F(t) = (1 - theta)*t + theta*t^2, evaluated as
    t*(1 + theta*(t - 1)) so the endpoints land on exactly 0 and 1.
    """
    _check_theta(theta)
    _check_support(lo, hi, x)
    t = (x - lo) / (hi - lo)
    return t * (1.0 + theta * (t - 1.0))


def marginal_quantile(theta, lo, hi, y):
    """Inverse CDF. Solves theta*t^2 + (1 - theta)*t = y via the
    cancellation-stable root t = 2y / ((1 - theta) + sqrt((1-theta)^2 + 4*theta*y));
    near theta = 0 this degrades to the uniform quantile t = y. The result is
    clipped into [lo, hi] against roundoff.
    """
    _check_theta(theta)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")
    _check_widths(lo, hi)
    theta, lo, hi, y = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (theta, lo, hi, y)))
    x = y.flatten()  # a 1-D copy: the kernel works in place, and not on 0-d arrays
    _quantile(_quantile_coefficients(theta.ravel(), lo.ravel(), hi.ravel(), hi.ravel()), x)
    return x.reshape(y.shape)[()]


# Unchecked arithmetic of marginal_density and marginal_quantile, for callers
# whose tree, routing or RNG already guarantees the arguments: lo < hi and
# |theta| <= 1 by the tree's constructor, x inside [lo, hi] by the
# containment convention, y in [0, 1) by the generator.


def _density(theta, lo, width, x):
    t = (x - lo) / width
    return (1.0 + theta * (2.0 * t - 1.0)) / width


def _quantile_coefficients(theta, lo, hi, cap) -> np.ndarray:
    """The (6, ...) planes lo, width = hi - lo, cap, a = 1 - theta, a^2 and
    b = 4 theta that ``_quantile`` reads. A uniform-like theta gets a = 1,
    b = 0, for which the root formula returns t = 2y / 2 = y exactly."""
    uniform = np.abs(theta) < THETA_TINY
    a = np.where(uniform, 1.0, 1.0 - theta)
    return np.stack([lo, hi - lo, cap, a, a * a, np.where(uniform, 0.0, 4.0 * theta)])


def _quantile(coef, y) -> None:
    """Map uniforms ``y`` in place to lo + t * width, with t the root of
    (1 - theta) t + theta t^2 = y in the stable form 2y / (a + sqrt(a^2 + b y)),
    clipped into [0, 1] and then into [lo, cap] against roundoff."""
    lo, width, cap, a, a2, b = coef
    denom = b * y
    denom += a2
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    denom += a
    np.maximum(denom, _DENOM_FLOOR, out=denom)
    y *= 2.0
    y /= denom
    np.maximum(0.0, y, out=y)  # a tie returns y, as np.clip does: a -0.0 keeps its sign
    np.minimum(y, 1.0, out=y)
    y *= width
    y += lo
    np.clip(y, lo, cap, out=y)


def det_density_many(tree: DetTree, points) -> np.ndarray:
    """Estimated density at each row of an (m, d) batch: the containing
    leaf's (count/n) times its marginal densities, 0 outside the root box and
    at NaN. Raises ValueError where a nonempty leaf's density overflows
    float64.

    Rows go in blocks of ``_BLOCK_ROWS``, each converted to float64 on its
    own. A block keeps its rows inside the root box and routes them one tree
    level per array step, ``node = child[2 node + (x[dim[node]] >= cut[node])]``,
    so each row stops at the leaf that holds it under the containment
    convention. A leaf routes to itself; every few levels the rows that sit
    at a leaf leave the routing, so a row costs its own leaf's depth rather
    than the tree's height. ``_leaf_density`` then evaluates each row's leaf
    at the row. A call holds its output plus O(block) temporaries, whatever
    the dtype of ``points``.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != tree.dims:
        raise ValueError(f"points must have shape (m, {tree.dims})")
    tables = tree._tables
    out = np.zeros(pts.shape[0])
    for start in range(0, out.size, _BLOCK_ROWS):
        block = np.asarray(pts[start:start + _BLOCK_ROWS], dtype=np.float64)
        values = out[start:start + _BLOCK_ROWS]
        inside = np.ones(block.shape[0], dtype=bool)
        for k in range(tree.dims):  # per column: a reduction along a short row is slow
            inside &= block[:, k] >= tree.lower[0, k]
            inside &= block[:, k] <= tree.upper[0, k]
        partial = not inside.all()
        if partial:  # route only the rows inside the root box
            block = np.compress(inside, block, axis=0)
            values = np.empty(block.shape[0])
        # row r's coordinate k sits at r * d + k of the flat C-ordered block
        flat = np.ascontiguousarray(block).reshape(-1)
        # the rows still routing, their coordinates' offset in flat, their nodes
        rows = np.arange(block.shape[0])
        row_start, current = rows * tree.dims, np.zeros_like(rows)
        node = np.empty_like(rows)
        level = 0
        while rows.size:
            at = tables.dim.take(current)
            at += row_start
            bit = flat.take(at) >= tables.cut.take(current)
            current *= 2
            current += bit
            current = tables.child.take(current)
            level += 1
            if level % 4 == 0:  # 2-8 levels measured alike; each check costs a pass
                done = tables.is_leaf.take(current)
                if done.any():
                    node[rows[done]] = current[done]
                    keep = ~done
                    rows, row_start, current = rows[keep], row_start[keep], current[keep]
        _leaf_density(tables, node, enumerate(block.T), values)
        if partial:
            out[start:start + _BLOCK_ROWS][inside] = values
    return out


def _leaf_density(tables: _NodeTables, leaves, columns, out) -> np.ndarray:
    """Fill and return ``out``: each leaf's mass times its marginal densities
    at the (dim, coordinates) pairs ``columns``, which must lie in the leaf's
    box. 0 stands at an empty leaf however narrow its box (0 times an
    overflowed factor is NaN); a nonempty leaf whose density overflows
    float64 raises ValueError."""
    tables.mass.take(leaves, out=out)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for dim, x in columns:
            out *= _density(tables.theta[dim].take(leaves), tables.lower[dim].take(leaves),
                            tables.width[dim].take(leaves), x)
    if not np.isfinite(out).all():
        out[tables.mass.take(leaves) == 0.0] = 0.0
        if not np.isfinite(out).all():
            raise ValueError("the density overflows float64 in a nonempty leaf")
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

    Split flags that form one tree in preorder, which deriving
    ``upper_child`` checks; shapes; n >= 1 and one column name per
    dimension; finite bounds and strictly positive, finite widths;
    |theta| <= 1; nonnegative counts summing to n; count 0 at splits and
    theta 0 wherever the count is 0 (splits, empty leaves) and everywhere in
    a constant-order tree; children that partition their parent's box
    exactly, which with positive widths puts each cut strictly inside it.
    """
    upper_child = tree.upper_child
    lower, upper, theta, count, split_dim = tree.lower, tree.upper, tree.theta, tree.count, tree.split_dim
    if lower.ndim != 2 or 0 in lower.shape:
        raise ValueError("lower must be an (N, d) array with N, d >= 1")
    nodes, d = lower.shape
    if upper.shape != lower.shape or theta.shape != lower.shape:
        raise ValueError(f"upper and theta must have the shape {lower.shape} of lower")
    if split_dim.shape != (nodes,) or count.shape != (nodes,):
        raise ValueError(f"split_dim and count need one entry per node ({nodes})")
    if tree.n < 1:
        raise ValueError("tree must be built from at least one sample")
    if len(tree.column_names) != d:
        raise ValueError("need one column name per dimension")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("box bounds must be finite")
    if not np.all(lower < upper):
        raise ValueError("box widths must be strictly positive")
    with np.errstate(over="ignore"):  # the overflow is the finding
        wide = not np.all(np.isfinite(upper - lower))
    if wide:
        raise ValueError("box widths must be finite: a bound range overflows float64")
    bad = ~(np.abs(theta) <= 1.0)  # also catches NaN and infinities
    if np.any(bad):
        raise ValueError(f"theta must lie in [-1, 1], got {theta[bad][0]}")
    if np.any(count < 0):
        raise ValueError("counts must be nonnegative")
    if np.any((split_dim < -1) | (split_dim >= d)):
        raise ValueError(f"split dimensions must lie in [-1, {d})")
    splits = np.flatnonzero(split_dim >= 0)
    if np.any(count[splits] != 0):
        raise ValueError("split nodes must carry count 0")
    if np.any(theta[count == 0] != 0.0):
        raise ValueError("empty leaves and split nodes must carry theta = 0")
    if tree.order is MarginalOrder.CONSTANT and np.any(theta != 0.0):
        raise ValueError("constant-order tree requires theta = 0 in every leaf")
    total = sum(count.tolist())  # exact: an int64 sum could wrap
    if total != tree.n:
        raise ValueError(f"leaf counts sum to {total}, expected n = {tree.n}")

    lo_child, hi_child, k = splits + 1, upper_child[splits], split_dim[splits]
    rows = np.arange(splits.size)
    lo_upper, hi_lower = upper[splits], lower[splits]
    lo_upper[rows, k] = hi_lower[rows, k] = upper[lo_child, k]  # the cut: the face the children share
    children = np.concatenate([lower[lo_child], upper[lo_child], lower[hi_child], upper[hi_child]])
    if not np.array_equal(children, np.concatenate([lower[splits], lo_upper, hi_lower, upper[splits]])):
        raise ValueError("children do not exactly partition their parent box")


def _check_theta(theta) -> None:
    # outside [-1, 1] the marginal density turns negative somewhere in its support
    if not np.all(np.abs(theta) <= 1.0):  # also false for NaN
        raise ValueError("theta must lie in [-1, 1]")


def _check_widths(lo, hi) -> None:
    if not np.all(lo < hi):
        raise ValueError("need lo < hi")


def _check_support(lo, hi, x) -> None:
    _check_widths(lo, hi)
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError("x lies outside the marginal support [lo, hi]")
