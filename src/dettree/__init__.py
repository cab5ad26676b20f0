"""Distribution element trees: adaptive piecewise-constant/linear density
estimation over binary cuboid partitions, with unconditional and conditional
smooth-bootstrap sample generation.
"""

from .build import BuildConfig, Ensemble, build_tree, estimate_theta, root_cuboid
from .core import (
    Cuboid,
    DetNode,
    DetTree,
    DistributionElement,
    MarginalOrder,
    Split,
    det_density_many,
    leaf_mass,
    marginal_cdf,
    marginal_density,
    marginal_quantile,
    validate_tree,
)
from .io import read_csv, read_tree, write_csv, write_tree
from .reference import (
    DirichletSpec,
    GaussianSpec,
    dirichlet_conditional_cdf,
    dirichlet_pdf,
    gaussian_conditional,
    gaussian_pdf,
    sample_dirichlet,
    sample_gaussian,
)
from .sampling import (
    Condition,
    WeightedLeafSet,
    categorical_pick,
    find_conditioned_leaves,
    sample_conditional,
    sample_unconditional,
)
from .validation import KsResult, grid_ise, ks_test, sample_moments

__version__ = "0.1.0"

__all__ = [
    "BuildConfig",
    "Condition",
    "Cuboid",
    "DetNode",
    "DetTree",
    "DirichletSpec",
    "DistributionElement",
    "Ensemble",
    "GaussianSpec",
    "KsResult",
    "MarginalOrder",
    "Split",
    "WeightedLeafSet",
    "build_tree",
    "categorical_pick",
    "det_density_many",
    "dirichlet_conditional_cdf",
    "dirichlet_pdf",
    "estimate_theta",
    "find_conditioned_leaves",
    "gaussian_conditional",
    "gaussian_pdf",
    "grid_ise",
    "ks_test",
    "leaf_mass",
    "marginal_cdf",
    "marginal_density",
    "marginal_quantile",
    "read_csv",
    "read_tree",
    "root_cuboid",
    "sample_conditional",
    "sample_dirichlet",
    "sample_gaussian",
    "sample_moments",
    "sample_unconditional",
    "validate_tree",
    "write_csv",
    "write_tree",
]
