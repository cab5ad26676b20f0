"""Distribution element trees: adaptive piecewise-constant/linear density
estimation over binary cuboid partitions, with unconditional and conditional
smooth-bootstrap sample generation.
"""

import importlib

# the module that defines each exported name; a name, like a submodule
# attribute such as ``dettree.io``, is imported on first access (PEP 562),
# so ``import dettree`` loads no submodule and a CLI command only those it runs
_HOME = {
    "build": ("BuildConfig", "Ensemble", "build_tree", "estimate_theta", "root_cuboid"),
    "core": ("DetNode", "DetTree", "MarginalOrder", "det_density_many", "leaf_mass", "marginal_cdf",
             "marginal_density", "marginal_quantile", "validate_tree"),
    "io": ("read_csv", "read_tree", "write_csv", "write_tree"),
    "reference": ("DirichletSpec", "GaussianSpec", "dirichlet_conditional_cdf", "dirichlet_pdf",
                  "gaussian_conditional", "gaussian_pdf", "sample_dirichlet", "sample_gaussian"),
    "sampling": ("Condition", "WeightedLeafSet", "categorical_pick", "find_conditioned_leaves",
                 "sample_conditional", "sample_unconditional"),
    "validation": ("KsResult", "grid_ise", "ks_test", "sample_moments"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}
_SUBMODULES = frozenset(_HOME) | {"cli"}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
