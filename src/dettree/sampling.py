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

The search masks the tree's per-leaf rows of lower and open upper bounds
and maps the ranks of the leaves that hold the condition to leaf ids; the
result keeps the ranks too, for the sampler's table gather. A tree keeps
its last search result, read-only, for an equal condition, so a draw after
the search of its condition (find, then draw) searches once.
Samples are made in blocks of ``_BLOCK_ROWS`` rows. Once per call the
quantile coefficients of the candidate leaves' free dimensions are gathered
into a leaf-local table; each block draws its rows' uniforms from the
stream, picks their leaves, takes their rows of that table and maps the
uniforms in place into the output. The generator fills arrays in C order,
so the blocks consume the stream in the same order as one whole-array draw
and the output does not depend on the block size. A draw holds its output
plus O(block + candidate leaves) temporaries.

A leaf is picked by a guide table (Chen's indexed search): once per call,
the cumulative leaf weights are searched at G + 1 evenly spaced fractions
j/G of their total, G a power of two up to the draw count and at most
4,096, so the table takes at most 64 KB. A uniform u lies in cell
j = floor(u * G), which is exact for a power of two, between the fractions
j/G and (j+1)/G; rounding u * total is monotone, so the cumulative search
at u * total returns an index between the table's entries at j and j + 1.
Where the two are equal, that entry is the answer and no search runs; only
the other keys are searched. The picked leaves are those of the plain
search, so the output does not depend on G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from .core import _BLOCK_ROWS, DetTree, _checked_count, _leaf_density, _quantile, _sealed

__all__ = [
    "Condition",
    "WeightedLeafSet",
    "categorical_pick",
    "sample_unconditional",
    "find_conditioned_leaves",
    "sample_conditional",
]

# Most cells a guide table has: its bounds and indices take at most 64 KB.
_GUIDE_CELLS = 4096
# j / _GUIDE_CELLS; every (_GUIDE_CELLS // cells)-th entry is exactly j / cells
_GUIDE_FRACTIONS = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS


@dataclass(frozen=True)
class Condition:
    """Prescribed values for a subset of coordinates: (dim, value) pairs with
    pairwise-distinct 0-based dims, stored sorted by dim. Empty means
    unconditional.
    """

    entries: tuple[tuple[int, float], ...]

    def __init__(self, entries: Union[Mapping[int, float], Iterable[tuple[int, float]]] = ()):
        pairs = [_checked_entry(entry) for entry in (entries.items() if isinstance(entries, Mapping) else entries)]
        dims = [d for d, _ in pairs]
        if len(set(dims)) != len(dims):
            raise ValueError("conditioned dimensions must be pairwise distinct")
        if any(d < 0 for d in dims):
            raise ValueError("dimension indices must be nonnegative")
        if any(not np.isfinite(v) for _, v in pairs):
            raise ValueError("conditioning values must be finite")
        object.__setattr__(self, "entries", tuple(sorted(pairs)))

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


def _checked_entry(entry) -> tuple[int, float]:
    """A (dim, value) pair as (int, float). The dimension must be an integer
    and the value a real number; neither may be a bool or a string, which
    int() and float() would otherwise parse."""
    try:
        dim, value = entry
    except (TypeError, ValueError):
        raise ValueError(f"condition entry {entry!r} is not a (dimension, value) pair") from None
    if isinstance(dim, (bool, np.bool_)) or not isinstance(dim, (int, np.integer)):
        raise ValueError(f"condition entry {entry!r}: the dimension must be an integer")
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"condition entry {entry!r}: the value must be a real number")
    try:
        return int(dim), float(value)
    except OverflowError:
        raise ValueError(f"condition entry {entry!r}: the value must be finite") from None


@dataclass(frozen=True, eq=False)
class WeightedLeafSet:
    """Ids of the leaves compatible with a condition, in lower-first
    depth-first (ascending) order, with their unnormalized selection weights
    mass_k * prod_i p_i(value_i); both arrays are read-only. The free
    dimensions integrate to one inside each leaf, so ``total`` is the tree's
    estimate of the marginal density at the conditioning point.
    """

    leaves: np.ndarray
    weights: np.ndarray
    total: float
    # the leaves' ranks in the tree's derived tables, set by the search for the sampler
    _ranks: Optional[np.ndarray] = field(default=None, repr=False)


def categorical_pick(weights, u) -> np.ndarray:
    """Index k, for each entry of ``u``, such that u * sum(weights) falls in
    the k-th left-closed cumulative interval [c_{k-1}, c_k). Zero-weight
    entries span empty intervals and are never picked.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("u must lie in [0, 1)")
    idx = _pick(*_cumulative(np.asarray(weights, dtype=np.float64), u.size), u.reshape(-1))
    return idx.reshape(u.shape)[()]  # a scalar for a 0-d u, as from searchsorted


def _cumulative(weights: np.ndarray, draws: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Checked cumulative weights, the index of the last nonzero weight and
    the guide table for ``draws`` picks: the number of cells G is the largest
    power of two up to ``draws``, at most ``_GUIDE_CELLS``, and cell j holds
    the index that the cumulative search returns for every key of
    [j/G, (j+1)/G), or -1 where the keys of that cell may get different
    indices."""
    # array methods rather than np functions: a call costs less without the dispatch
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or infinite sum raises below
        cum = weights.cumsum()
    if cum.size == 0 or not 0.0 < cum[-1] < np.inf or (weights < 0.0).any():
        raise ValueError("weights must be nonnegative with a positive, finite sum")
    cells = 1 << (min(max(draws, 1), _GUIDE_CELLS).bit_length() - 1)
    bounds = _GUIDE_FRACTIONS[::_GUIDE_CELLS // cells] * cum[-1]
    guide = cum.searchsorted(bounds, side="right")
    guide = np.where(guide[:-1] == guide[1:], guide[:-1], -1)
    return cum, np.flatnonzero(weights > 0.0)[-1], guide


def _pick(cum: np.ndarray, last: int, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    # categorical_pick without the per-draw check of u, for generator output;
    # u * G is exact for a power of two G and its floor is the key's cell
    idx = guide.take((u * guide.size).astype(np.intp))
    open_cells = (idx < 0).nonzero()[0]
    idx[open_cells] = cum.searchsorted(u.take(open_cells) * cum[-1], side="right")
    # a subnormal total can make u * total round to the total: the last nonempty interval
    return np.minimum(idx, last, out=idx)


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

    One boolean mask per conditioned dimension over the leaf boxes keeps the
    leaves whose interval [lower, upper) holds the value, closed on the root's
    upper face. The tree keeps the result for the next call with an equal
    condition (+0.0 equals -0.0, which select the same leaves and weights).
    ``on_visit`` is a diagnostics hook, called with the id of each node a
    root-to-leaf search visits when it prunes every branch whose box excludes
    a value, in ascending order, which is the depth-first preorder; the empty
    condition visits every node. A call with it masks every node box and
    bypasses the kept result. Raises ValueError where a nonempty leaf's
    weight, or the sum of the weights, overflows float64.
    """
    tables = tree._tables
    for dim, value in cond.entries:
        if not 0 <= dim < tree.dims:
            raise ValueError(f"conditioned dimension {dim} out of range for a {tree.dims}-D tree")
        if value < tree.lower[0, dim] or value > tree.upper[0, dim]:
            raise ValueError(f"conditioning value {value} for dimension {dim} lies outside the root cuboid")
    last = tree._last_search if on_visit is None else None
    if last is not None and last[0] == cond:
        return last[1]

    if on_visit is None:
        ranks = _holding(tables.quantile[0], tables.upper_open, cond.entries)
    else:
        visited = _holding(tree.lower.T, tree._upper_open(tree.upper.T), cond.entries)
        ranks = tables.rank.take(visited.compress(tables.is_leaf.take(visited)))
        for node in visited.tolist():
            on_visit(node)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in _leaf_density or below
        weights = _leaf_density(tables, ranks, cond.entries, np.empty(ranks.size))
        total = float(weights.sum())
    if total == np.inf:  # finite, nonnegative weights: the only way their sum fails
        raise ValueError("the conditional density estimate overflows float64")
    # kept by the tree, so the public arrays sit over immutable buffers: no array in their .base
    # chains can be made writeable; the ranks are private to the sampler
    found = WeightedLeafSet(_sealed(tables.leaves.take(ranks)), _sealed(weights), total, ranks)
    if on_visit is None:
        object.__setattr__(tree, "_last_search", (cond, found))  # one assignment: safe between threads
    return found


def _holding(lower: np.ndarray, upper_open: np.ndarray, entries) -> np.ndarray:
    """The columns of the (d, M) box rows ``lower`` and ``upper_open`` that hold every value."""
    keep = np.empty(lower.shape[1], dtype=bool)
    keep.fill(True)  # np.ones, a Python-level wrapper, costs more on a small array
    for dim, value in entries:
        keep &= lower[dim] <= value
        keep &= value < upper_open[dim]
    return keep.nonzero()[0]


def sample_conditional(tree: DetTree, cond: Condition, seed: int, count: int) -> np.ndarray:
    """Draw points with the conditioned coordinates fixed at the prescribed
    values (bit-identical in the output) and the free coordinates drawn by
    inverse transform through the selected leaf's marginal quantiles. An
    empty condition draws from the full tree density. Raises TypeError
    unless ``count`` is an integer.
    """
    count = _checked_count(count)
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
    cum, last, guide = _cumulative(leaf_set.weights, count)
    # the leaf-local table: the (6, k, free) quantile coefficients of the k candidate
    # leaves, by (leaf, free dimension) pair; the generator keeps every uniform in [0, 1)
    coefficients = tree._tables.quantile
    local = coefficients.reshape(len(coefficients), -1).take(free * coefficients.shape[2] + leaf_set._ranks[:, None], 1)
    out = np.empty((count, d))
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        # one row per sample: leaf draw first, then one draw per free
        # dimension in ascending order (C-order fill matches sequential consumption)
        u = rng.random((stop - start, 1 + free.size))
        coef = local.take(_pick(cum, last, guide, u[:, 0]), axis=1)
        # unconditional blocks map in place in the output, conditional ones in a contiguous buffer
        # then scattered to the free columns; column by column, as a strided 2-D copy costs more
        y = np.empty((stop - start, free.size)) if cond.entries else out[start:stop]
        for j in range(free.size):
            y[:, j] = u[:, 1 + j]
        _quantile(coef, y)
        for j, dim in enumerate(free.tolist() if cond.entries else ()):
            out[start:stop, dim] = y[:, j]
        del u, coef, y  # free this block's temporaries before the next block's are made
    for dim, value in cond.entries:
        out[:, dim] = value
    return out
