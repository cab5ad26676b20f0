"""Domain types and exact density/CDF/quantile evaluation for distribution
element trees.

A distribution element (DE) is an axis-aligned cuboid carrying a sample count
and, per dimension, a constant or linear marginal density. A tree of equal-size
cuboid splits whose leaves are DEs defines the density estimate: the sum of the
leaf densities, which at any point reduces to the single containing leaf.

Containment convention: leaf intervals are closed below and open above,
[l, u), except that a face lying on the root cuboid's upper boundary is
closed. This makes the leaves an exact partition of the root cuboid, so every
point (including split boundaries) belongs to exactly one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

import numpy as np

__all__ = [
    "MarginalOrder",
    "Cuboid",
    "DistributionElement",
    "Split",
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


class MarginalOrder(Enum):
    """Polynomial order of the per-dimension marginal densities."""

    CONSTANT = "constant"
    LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class Cuboid:
    """Axis-aligned box with strictly positive widths and finite bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.ascontiguousarray(self.lower, dtype=np.float64)
        upper = np.ascontiguousarray(self.upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("cuboid bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("cuboid widths must be strictly positive")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dims(self) -> int:
        return self.lower.shape[0]

    def midpoint(self, dim: int) -> float:
        return (float(self.lower[dim]) + float(self.upper[dim])) / 2.0

    def split(self, dim: int) -> tuple[float, "Cuboid", "Cuboid"]:
        """Equal-size split: two children partitioning this cuboid at the
        midpoint of ``dim``. Bound arrays are shared except along ``dim``, so
        boundary coordinates stay bit-identical across levels.
        """
        position = self.midpoint(dim)
        lo_upper = self.upper.copy()
        lo_upper[dim] = position
        hi_lower = self.lower.copy()
        hi_lower[dim] = position
        return position, Cuboid(self.lower, lo_upper), Cuboid(hi_lower, self.upper)


@dataclass(frozen=True, eq=False)
class DistributionElement:
    """Atom of the estimator: a cuboid, the number of samples it received,
    and one marginal slope per dimension. In normalized coordinates
    t = (x - lo)/(hi - lo) dimension i has the marginal density

        p(t | theta_i) = 1 + theta_i * (2t - 1),   theta_i in [-1, 1].

    theta = 0 is the uniform model; |theta| <= 1 keeps the density
    nonnegative, and the family is self-normalizing on [0, 1]. ``theta`` is a
    read-only array; empty elements carry theta = 0 everywhere and zero mass.
    """

    cuboid: Cuboid
    count: int
    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        if theta.shape != (self.cuboid.dims,):
            raise ValueError("need exactly one theta per dimension")
        if not np.all(np.abs(theta) <= 1.0):  # also rejects NaN and infinities
            raise ValueError(f"theta must lie in [-1, 1], got {theta.tolist()}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.count == 0 and np.any(theta != 0.0):
            raise ValueError("empty element must have theta = 0 in every dimension")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class Split:
    """Internal-node payload: dimension, midpoint position, two children."""

    dim: int
    position: float
    lower_child: "DetNode"
    upper_child: "DetNode"


@dataclass(frozen=True, eq=False)
class DetNode:
    """Binary-tree node: either a leaf holding a DistributionElement or an
    equal-size split with two children."""

    cuboid: Cuboid
    body: Union[DistributionElement, Split]

    @property
    def is_leaf(self) -> bool:
        return isinstance(self.body, DistributionElement)


@dataclass(frozen=True, eq=False)
class DetTree:
    """Distribution element tree over a root cuboid.

    Immutable after construction; density evaluation is pure, so any number
    of threads may read concurrently.
    """

    root: DetNode
    n: int
    order: MarginalOrder
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tree must be built from at least one sample")
        names = tuple(self.column_names)
        if not names:
            names = tuple(f"x{i + 1}" for i in range(self.dims))
        if len(names) != self.dims:
            raise ValueError("need one column name per dimension")
        object.__setattr__(self, "column_names", names)

    @property
    def dims(self) -> int:
        return self.root.cuboid.dims

    def iter_leaves(self) -> Iterator[DistributionElement]:
        """Leaves in depth-first order, lower child before upper child."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.body
            else:
                stack.append(node.body.upper_child)
                stack.append(node.body.lower_child)


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
    leaf's (count/n) times its marginal densities, 0 outside the root cuboid.
    One tree descent with index partitioning routes every point to its leaf
    under the containment convention.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != tree.dims:
        raise ValueError(f"points must have shape (m, {tree.dims})")
    # one contiguous row per dimension keeps every inner loop m long
    cols = np.array(pts.T, order="C")
    out = np.zeros(pts.shape[0])
    root = tree.root
    box = root.cuboid
    inside = np.all(cols >= box.lower[:, None], axis=0) & np.all(cols <= box.upper[:, None], axis=0)
    stack: list[tuple[DetNode, np.ndarray]] = [(root, np.flatnonzero(inside))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            de = node.body
            if de.count == 0:
                continue
            lower, upper = de.cuboid.lower[:, None], de.cuboid.upper[:, None]
            values = np.full(idx.size, de.count / tree.n)
            for factor in marginal_density(de.theta[:, None], lower, upper, cols[:, idx]):
                values *= factor
            out[idx] = values
        else:
            split = node.body
            below = cols[split.dim, idx] < split.position
            stack.append((split.lower_child, idx[below]))
            stack.append((split.upper_child, idx[~below]))
    return out


def leaf_mass(de: DistributionElement, n: int) -> float:
    """Probability mass of an element, count/n: the marginals integrate to
    one, so the element's integral over its cuboid is just its sample share.
    """
    if n < 1:
        raise ValueError("total sample count must be at least 1")
    return de.count / n


def validate_tree(tree: DetTree) -> None:
    """Check the structural invariants; raises ValueError on violation.

    Verifies split positions are exact midpoints, children exactly partition
    their parent, leaf counts sum to n, and a constant-order tree carries
    theta = 0 in every leaf (the DistributionElement constructor checks the
    range of theta and that empty leaves carry zero theta).
    """
    total = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        cub = node.cuboid
        if node.is_leaf:
            de = node.body
            if de.cuboid is not cub and not (
                np.array_equal(de.cuboid.lower, cub.lower) and np.array_equal(de.cuboid.upper, cub.upper)
            ):
                raise ValueError("leaf element cuboid differs from its node cuboid")
            if tree.order is MarginalOrder.CONSTANT and np.any(de.theta != 0.0):
                raise ValueError("constant-order tree requires theta = 0 in every leaf")
            total += de.count
        else:
            split = node.body
            if not 0 <= split.dim < tree.dims:
                raise ValueError(f"split dimension {split.dim} out of range")
            if split.position != cub.midpoint(split.dim):
                raise ValueError("split position is not the cuboid midpoint")
            lo_c, up_c = split.lower_child.cuboid, split.upper_child.cuboid
            expect_lo_upper = cub.upper.copy()
            expect_lo_upper[split.dim] = split.position
            expect_hi_lower = cub.lower.copy()
            expect_hi_lower[split.dim] = split.position
            if not (
                np.array_equal(lo_c.lower, cub.lower)
                and np.array_equal(lo_c.upper, expect_lo_upper)
                and np.array_equal(up_c.lower, expect_hi_lower)
                and np.array_equal(up_c.upper, cub.upper)
            ):
                raise ValueError("children do not exactly partition their parent cuboid")
            stack.append(split.lower_child)
            stack.append(split.upper_child)
    if total != tree.n:
        raise ValueError(f"leaf counts sum to {total}, expected n = {tree.n}")


def _normalize(lo, hi, x):
    if not np.all(lo < hi):
        raise ValueError("need lo < hi")
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError("x lies outside the marginal support [lo, hi]")
    return (x - lo) / (hi - lo)
