"""Statistical comparison utilities: one-sample Kolmogorov-Smirnov test,
sample moments, and a grid-based integrated-square-error metric between two
densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["KsResult", "ks_test", "kolmogorov_pvalue", "sample_moments", "grid_ise"]

MIN_KS_SAMPLES = 8
KOLMOGOROV_TERMS = 100


@dataclass(frozen=True)
class KsResult:
    statistic: float  # sup |F_n - F|
    p_value: float
    sample_size: int


def ks_test(samples, cdf: Callable[[float], float]) -> KsResult:
    """One-sample KS test of ``samples`` against a reference CDF.

    The statistic is the sup-distance between the empirical CDF and ``cdf``;
    the p-value uses the asymptotic Kolmogorov series, adequate at the sample
    sizes this library works with.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.shape[0]
    if n < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples, got {n}")
    f = np.array([float(cdf(x)) for x in xs])
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(f - (grid - 1.0 / n)), np.max(grid - f)))
    return KsResult(statistic=d, p_value=kolmogorov_pvalue(math.sqrt(n) * d), sample_size=n)


def kolmogorov_pvalue(t: float) -> float:
    """Asymptotic tail 2 * sum_k (-1)^(k-1) exp(-2 k^2 t^2), first
    KOLMOGOROV_TERMS terms, clipped into [0, 1]."""
    if t <= 0.0:
        return 1.0
    ks = np.arange(1, KOLMOGOROV_TERMS + 1)
    total = 2.0 * float(np.sum((-1.0) ** (ks - 1) * np.exp(-2.0 * ks**2 * t**2)))
    return min(1.0, max(0.0, total))


def sample_moments(points) -> tuple[np.ndarray, np.ndarray]:
    """Column means and unbiased (n-1) sample covariance of an (n, d) array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    mean = pts.mean(axis=0)
    cov = np.atleast_2d(np.cov(pts, rowvar=False, ddof=1))
    return mean, cov


def grid_ise(
    density_a: Callable[[np.ndarray], np.ndarray],
    density_b: Callable[[np.ndarray], np.ndarray],
    grid: Sequence[tuple[float, float, int]],
) -> float:
    """Riemann-sum integral of (A - B)^2 over a cell-centered lattice.

    ``grid`` gives (lo, hi, cells) per dimension; evaluation points sit at the
    cell centers with weight prod((hi - lo)/cells), so constants integrate
    exactly. Symmetric in A and B, nonnegative, zero iff equal on the grid.

    Each density is called once with the (m, d) batch of lattice points and
    must return m values; any other result shape raises ValueError.
    """
    axes = []
    weight = 1.0
    for lo, hi, cells in grid:
        if not (hi > lo and cells >= 1):
            raise ValueError("each grid axis needs hi > lo and at least one cell")
        h = (hi - lo) / cells
        axes.append(lo + h * (np.arange(cells) + 0.5))
        weight *= h
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    diff = _eval_density(density_a, pts) - _eval_density(density_b, pts)
    return float(np.sum(diff * diff)) * weight


def _eval_density(density, pts: np.ndarray) -> np.ndarray:
    values = np.asarray(density(pts), dtype=np.float64)
    if values.shape != (pts.shape[0],):
        raise ValueError(f"density returned shape {values.shape}, expected ({pts.shape[0]},)")
    return values
