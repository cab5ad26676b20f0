"""Reference distributions used to validate the estimator: a multivariate
Gaussian and a bivariate Dirichlet, with exact densities, seeded samplers,
and the analytic conditionals that serve as oracles.

This is the one module that uses scipy, and it imports it inside the
functions that need it, so building, sampling and density evaluation never
load scipy.

The two samplers fill a preallocated output in blocks of ``_BLOCK_ROWS``
rows, so a draw holds its output plus O(block) temporaries. numpy's
generator fills arrays in C order, so the blocks consume the stream in the
order one whole-array draw would. The Gaussian's product with the Cholesky
factor rounds alike in any block of two or more rows, and a lone last row
joins the block before it, so the output does not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import _BLOCK_ROWS, _checked_count

if TYPE_CHECKING:  # an annotation only: generating reference data loads no sampler
    from .sampling import Condition

__all__ = [
    "GaussianSpec",
    "DirichletSpec",
    "gaussian_pdf",
    "sample_gaussian",
    "gaussian_conditional",
    "dirichlet_pdf",
    "sample_dirichlet",
    "dirichlet_marginal_cdf",
    "dirichlet_conditional_cdf",
]


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Mean vector and symmetric positive-definite covariance; the Cholesky
    factor is computed once at construction (and doubles as the PD check).
    """

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        cov = np.ascontiguousarray(self.cov, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        d = mu.shape[0]
        if cov.shape != (d, d):
            raise ValueError("cov must be a d x d matrix")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(cov)):
            raise ValueError("mu and cov must be finite")
        half = cov / 2.0  # halved first: two entries near the float64 maximum sum beyond it
        if np.max(np.abs(half - half.T)) > 0.5e-9 * max(1.0, float(np.max(np.abs(cov)))):
            raise ValueError("cov must be symmetric")
        cov = half + half.T
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc
        for a in (mu, cov, chol):
            a.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dims(self) -> int:
        return self.mu.shape[0]

    @property
    def chol(self) -> np.ndarray:
        return self._chol


def gaussian_pdf(spec: GaussianSpec, x) -> "np.ndarray | float":
    """Gaussian density exp(-(x-mu)' C^-1 (x-mu) / 2) / sqrt((2 pi)^d det C),
    evaluated through the Cholesky factor. Accepts one point (d,) or a batch
    (m, d).
    """
    from scipy.linalg import solve_triangular

    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != spec.dims:
        raise ValueError(f"points have {pts.shape[1]} components, expected {spec.dims}")
    L = spec.chol
    z = solve_triangular(L, (pts - spec.mu).T, lower=True)
    quad = np.sum(z * z, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    log_norm = -0.5 * (spec.dims * math.log(2.0 * math.pi) + log_det)
    out = np.exp(log_norm - 0.5 * quad)
    return float(out[0]) if single else out


def sample_gaussian(spec: GaussianSpec, seed: int, count: int) -> np.ndarray:
    """x = mu + L z with z standard normal, one row of draws per sample."""
    count = _checked_count(count)
    rng = np.random.default_rng(seed)
    out = np.empty((count, spec.dims))
    start = 0
    while start < count:
        # a one-row product runs through BLAS gemv, whose bits differ from the
        # gemm of more rows: a lone last row joins the block before it
        stop = count if count - start <= _BLOCK_ROWS + 1 else start + _BLOCK_ROWS
        block = out[start:stop]
        np.matmul(rng.standard_normal(block.shape), spec.chol.T, out=block)
        block += spec.mu  # addition commutes, so the bits match mu + z L'
        start = stop
    return out


def gaussian_conditional(spec: GaussianSpec, cond: Condition) -> GaussianSpec:
    """Gaussian over the free dimensions given prescribed values:
    mu' = mu_f + C_fc C_cc^-1 (v - mu_c), C' = C_ff - C_fc C_cc^-1 C_cf.
    """
    fixed = np.array(cond.dims, dtype=np.intp)
    if fixed.size == 0:
        raise ValueError("condition must prescribe at least one dimension")
    if np.any(fixed >= spec.dims):
        raise ValueError("conditioned dimension out of range")
    if fixed.size >= spec.dims:
        raise ValueError("conditioned dimensions must be a strict subset")
    free = np.array(cond.free_dims(spec.dims), dtype=np.intp)
    values = np.array(cond.values)

    c_ff = spec.cov[np.ix_(free, free)]
    c_fc = spec.cov[np.ix_(free, fixed)]
    c_cc = spec.cov[np.ix_(fixed, fixed)]
    try:
        gain = np.linalg.solve(c_cc, c_fc.T).T  # C_fc C_cc^-1
    except np.linalg.LinAlgError as exc:
        raise ValueError("conditioned block of cov is singular") from exc
    mu = spec.mu[free] + gain @ (values - spec.mu[fixed])
    cov = c_ff - gain @ c_fc.T
    cov = (cov + cov.T) / 2.0
    return GaussianSpec(mu=mu, cov=cov)


@dataclass(frozen=True, eq=False)
class DirichletSpec:
    """Three positive concentration parameters of the bivariate Dirichlet."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        if alpha.shape != (3,):
            raise ValueError("alpha must have exactly three entries")
        if not np.all(np.isfinite(alpha)) or not np.all(alpha > 0.0):
            raise ValueError("alpha entries must be positive and finite")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)


def dirichlet_pdf(spec: DirichletSpec, x1, x2) -> "np.ndarray | float":
    """Bivariate Dirichlet density
    x1^(a1-1) x2^(a2-1) (1-x1-x2)^(a3-1) Gamma(a1+a2+a3)/(Gamma(a1)Gamma(a2)Gamma(a3))
    on the open simplex {x1 > 0, x2 > 0, 1 - x1 - x2 > 0}; zero outside.
    """
    a1, a2, a3 = spec.alpha
    norm = math.gamma(a1 + a2 + a3) / (math.gamma(a1) * math.gamma(a2) * math.gamma(a3))
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    single = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(x2))
    rest = 1.0 - x1 - x2
    inside = (x1 > 0.0) & (x2 > 0.0) & (rest > 0.0)
    out = np.zeros(x1.shape)
    out[inside] = (
        x1[inside] ** (a1 - 1.0) * x2[inside] ** (a2 - 1.0) * rest[inside] ** (a3 - 1.0) * norm
    )
    return float(out[0]) if single else out


def sample_dirichlet(spec: DirichletSpec, seed: int, count: int) -> np.ndarray:
    """(x1, x2) = (g1, g2)/(g1+g2+g3) with g_i ~ Gamma(alpha_i, 1); the
    generator's gamma variates use rejection schemes valid for shapes below
    and above one. Returns a (count, 2) array on the simplex; ValueError where
    a row's variates sum to 0 or overflow float64 (tiny or huge alphas).
    """
    count = _checked_count(count)
    rng = np.random.default_rng(seed)
    out = np.empty((count, 2))
    for start in range(0, count, _BLOCK_ROWS):
        block = out[start:start + _BLOCK_ROWS]
        g = rng.standard_gamma(spec.alpha, size=(block.shape[0], 3))  # the stream and bits of gamma() with scale 1
        with np.errstate(over="ignore"):  # an overflowed total is refused below
            total = g.sum(axis=1)
        if not np.all((total > 0.0) & (total < np.inf)):
            raise ValueError("alpha is out of the sampler's range: a row's gamma variates sum to 0 or overflow float64")
        for j in range(2):  # column by column: a broadcast division over (rows, 2) costs more
            np.divide(g[:, j], total, out=block[:, j])
    return out


def dirichlet_marginal_cdf(spec: DirichletSpec, dim: int, x) -> "np.ndarray | float":
    """CDF at x of the marginal of x1 (dim 0) or x2 (dim 1) under the
    bivariate Dirichlet: Beta(a_dim, a1 + a2 + a3 - a_dim), via the
    regularized incomplete beta function.
    """
    from scipy.special import betainc

    if dim not in (0, 1):
        raise ValueError(f"dim must be 0 or 1, got {dim}")
    a = float(spec.alpha[dim])
    b = float(spec.alpha.sum()) - a
    if np.ndim(x) == 0:
        # a KS test calls this once per sample, where numpy's overhead on a
        # 0-d array would cost more than the betainc evaluation itself
        return float(betainc(a, b, min(max(float(x), 0.0), 1.0)))
    return betainc(a, b, np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0))


def dirichlet_conditional_cdf(spec: DirichletSpec, x2: float, x1) -> "np.ndarray | float":
    """CDF at x1 of p(x1 | x2) for the bivariate Dirichlet: a Beta(a1, a3)
    density rescaled to [0, 1 - x2], via the regularized incomplete beta
    function.
    """
    from scipy.special import betainc

    if not 0.0 < x2 < 1.0:
        raise ValueError(f"x2 must lie in (0, 1), got {x2}")
    a1, _, a3 = spec.alpha
    width = 1.0 - x2
    x1 = np.asarray(x1, dtype=np.float64)
    single = x1.ndim == 0
    t = np.clip(np.atleast_1d(x1) / width, 0.0, 1.0)
    out = betainc(a1, a3, t)
    return float(out[0]) if single else out
