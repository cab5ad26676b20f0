"""Unconditional and conditional sample generation from a fitted tree.

One two-stage scheme serves both cases: pick a leaf by probability mass
(categorical draw), then draw each remaining coordinate by inverse transform
through the leaf's closed-form marginal quantiles. Conditioning restricts the
categorical stage to the leaves whose boxes contain the prescribed values
and reweights them by the marginal densities at those values; the prescribed
coordinates pass through bit-identically. The unconditional case is the empty
condition.

RNG contract: one ``numpy.random.default_rng(seed)`` stream per call; each
sample consumes its leaf draw first, then one uniform per free dimension in
ascending dimension order. Fixed seed implies an identical output sequence.
Concurrent sampling is safe when each strand owns its own stream (trees are
immutable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from .core import DetTree, marginal_density, marginal_quantile

__all__ = [
    "Condition",
    "WeightedLeafSet",
    "categorical_pick",
    "sample_unconditional",
    "find_conditioned_leaves",
    "sample_conditional",
]


@dataclass(frozen=True)
class Condition:
    """Prescribed values for a subset of coordinates: (dim, value) pairs with
    pairwise-distinct 0-based dims, stored sorted by dim. Empty means
    unconditional.
    """

    entries: tuple[tuple[int, float], ...]

    def __init__(self, entries: Union[Mapping[int, float], Iterable[tuple[int, float]]] = ()):
        if isinstance(entries, Mapping):
            pairs = list(entries.items())
        else:
            pairs = [(int(d), float(v)) for d, v in entries]
        dims = [d for d, _ in pairs]
        if len(set(dims)) != len(dims):
            raise ValueError("conditioned dimensions must be pairwise distinct")
        if any(d < 0 for d in dims):
            raise ValueError("dimension indices must be nonnegative")
        if any(not np.isfinite(v) for _, v in pairs):
            raise ValueError("conditioning values must be finite")
        object.__setattr__(self, "entries", tuple(sorted((int(d), float(v)) for d, v in pairs)))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def free_dims(self, d: int) -> tuple[int, ...]:
        fixed = set(self.dims)
        return tuple(i for i in range(d) if i not in fixed)


@dataclass(frozen=True, eq=False)
class WeightedLeafSet:
    """Ids of the leaves compatible with a condition, in lower-first
    depth-first (ascending) order, with their unnormalized selection weights
    mass_k * prod_i p_i(value_i). The free dimensions integrate to one inside
    each leaf, so ``total`` is the tree's estimate of the marginal density at
    the conditioning point.
    """

    leaves: np.ndarray
    weights: np.ndarray
    total: float


def categorical_pick(weights, u) -> np.ndarray:
    """Index k, for each entry of ``u``, such that u * sum(weights) falls in
    the k-th left-closed cumulative interval [c_{k-1}, c_k). Zero-weight
    entries span empty intervals and are never picked.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("u must lie in [0, 1)")
    weights = np.asarray(weights, dtype=np.float64)
    cum = np.cumsum(weights)
    if cum.size == 0 or cum[-1] <= 0.0 or np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative with a positive sum")
    idx = np.searchsorted(cum, u * cum[-1], side="right")
    # a subnormal total can make u * total round to the total: the last nonempty interval
    return np.minimum(idx, np.flatnonzero(weights > 0.0)[-1])


def sample_unconditional(tree: DetTree, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` points from the tree density. Returns a (count, d)
    array; every row lies inside the leaf that produced it. This is
    ``sample_conditional`` with an empty condition.
    """
    return sample_conditional(tree, Condition(), seed, count)


def find_conditioned_leaves(
    tree: DetTree,
    cond: Condition,
    on_visit: Optional[Callable[[int], None]] = None,
) -> WeightedLeafSet:
    """Collect exactly the leaves whose boxes contain every conditioned
    value (under the containment convention), weighted by leaf mass times the
    marginal densities at those values.

    The root-to-leaf search prunes every branch whose box excludes a
    conditioned value: at a split on a conditioned dimension only the side
    containing the value is visited. ``on_visit`` is a diagnostics hook called
    with the id of each visited node, in depth-first order.
    """
    lower, upper, split_dim, upper_child = tree.lower, tree.upper, tree.split_dim, tree.upper_child
    for dim, value in cond.entries:
        if not 0 <= dim < tree.dims:
            raise ValueError(f"conditioned dimension {dim} out of range for a {tree.dims}-D tree")
        if value < lower[0, dim] or value > upper[0, dim]:
            raise ValueError(f"conditioning value {value} for dimension {dim} lies outside the root cuboid")

    fixed = dict(cond.entries)
    leaves = []
    stack = [0]
    while stack:
        node = stack.pop()
        if on_visit is not None:
            on_visit(node)
        dim = split_dim.item(node)
        if dim < 0:
            leaves.append(node)
            continue
        value = fixed.get(dim)
        if value is None:
            stack.append(upper_child.item(node))
            stack.append(node + 1)
        elif value >= (lower.item(node, dim) + upper.item(node, dim)) / 2.0:
            stack.append(upper_child.item(node))
        else:
            stack.append(node + 1)

    leaves = np.array(leaves, dtype=np.intp)
    weights = tree.count[leaves] / tree.n
    for dim, value in cond.entries:
        weights *= marginal_density(tree.theta[leaves, dim], lower[leaves, dim], upper[leaves, dim], value)
    return WeightedLeafSet(leaves, weights, float(weights.sum()))


def sample_conditional(tree: DetTree, cond: Condition, seed: int, count: int) -> np.ndarray:
    """Draw points with the conditioned coordinates fixed at the prescribed
    values (bit-identical in the output) and the free coordinates drawn by
    inverse transform through the selected leaf's marginal quantiles. An
    empty condition draws from the full tree density.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    d = tree.dims
    if len(cond) >= d:
        raise ValueError("conditional sampling needs at least one free dimension")
    leaf_set = find_conditioned_leaves(tree, cond)
    if leaf_set.total <= 0.0:
        raise ValueError("condition has zero estimated density")
    free = np.array(cond.free_dims(d), dtype=np.intp)
    rng = np.random.default_rng(seed)
    if count == 0:
        return np.empty((0, d))
    # One row per sample: leaf draw first, then one draw per free dimension
    # in ascending order (C-order fill matches sequential consumption).
    u = rng.random((count, 1 + free.size))
    idx = categorical_pick(leaf_set.weights, u[:, 0])
    # contiguous (count, free) operands keep the quantile's inner loops long
    coord_u = np.ascontiguousarray(u[:, 1:])
    del u
    leaves = leaf_set.leaves
    coords = marginal_quantile(
        tree.theta[leaves][:, free][idx], tree.lower[leaves][:, free][idx], tree.upper[leaves][:, free][idx], coord_u
    )
    # allocated after the quantile's temporaries are gone, to lower the peak
    out = np.empty((count, d))
    out[:, free] = coords
    for dim, value in cond.entries:
        out[:, dim] = value
    return out
