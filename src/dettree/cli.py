"""Command-line surface: build trees from CSV ensembles, draw (conditional)
samples, export density slices, generate reference-distribution ensembles,
and validate a tree against a reference.

Dimension indices on the command line are 1-based (x1..xd); internally
everything is 0-based. Exit codes: 0 success, 1 usage error, 2 data or
validation error.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from pathlib import Path

import numpy as np

# The library names the handlers call, by defining module. Each handler
# binds the names of the modules it runs with _load, so a command imports
# only those: build and density never load reference, validation or scipy.
_LIBRARY = {
    "build": ("BuildConfig", "build_tree"),
    "core": ("MarginalOrder", "det_density_many"),
    "io": ("read_csv", "read_tree", "write_csv", "write_tree"),
    "reference": ("DirichletSpec", "GaussianSpec", "dirichlet_marginal_cdf", "dirichlet_pdf", "gaussian_pdf",
                  "sample_dirichlet", "sample_gaussian"),
    "sampling": ("Condition", "sample_conditional", "sample_unconditional"),
    "validation": ("grid_ise", "ks_test", "sample_moments"),
}

__all__ = ["main", "UsageError"]

VALIDATE_MEAN_TOL = 0.05
VALIDATE_COV_TOL = 0.05
VALIDATE_KS_TOL = 0.05


class UsageError(Exception):
    """Bad flags, malformed argument syntax, or missing input files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def main(argv=None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # data errors, unwritable outputs, impossible sizes
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load(*modules: str) -> None:
    """Bind the library names of ``modules`` here, keeping a binding that is
    already made (a caller may have put a wrapper in a name's place)."""
    for module in modules:
        library = importlib.import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
            globals().setdefault(name, getattr(library, name))


def __getattr__(name: str):  # a library name read from outside before any handler ran
    for module, names in _LIBRARY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    return args.handler(args)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dettree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="build a tree from a CSV ensemble")
    p.add_argument("--in", dest="in_path", required=True, help="input CSV ensemble")
    p.add_argument("--out", required=True, help="output tree document (JSON)")
    p.add_argument("--order", choices=["constant", "linear"], default="linear")
    p.add_argument("--alpha", type=float, default=0.01, help="split-test significance level")
    p.add_argument("--min-leaf", type=int, default=10, help="do not split nodes at or below this count")
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("--padding", type=float, default=1e-9, help="relative bounding-box padding")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("sample", help="draw (conditionally) from a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--cond", action="append", default=[], metavar="I=V",
                   help="prescribe dimension I (1-based) to value V; repeatable")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("density", help="export density values on a grid slice")
    p.add_argument("--tree", required=True)
    p.add_argument("--grid", required=True, metavar="I:LO:HI:N[,...]",
                   help="per-dimension grid spec, 1-based dims, N inclusive points")
    p.add_argument("--fix", action="append", default=[], metavar="I=V",
                   help="fix remaining dimensions; repeatable")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("gen", help="generate a reference-distribution ensemble")
    gen_sub = p.add_subparsers(dest="dist", required=True, parser_class=_Parser)
    g = gen_sub.add_parser("gaussian")
    g.add_argument("--mu", required=True, help="comma-separated mean vector")
    g.add_argument("--cov", required=True, help="covariance rows separated by ';' or '|'")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_gaussian)
    g = gen_sub.add_parser("dirichlet")
    g.add_argument("--alpha", required=True, help="three comma-separated concentrations")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_dirichlet)

    p = sub.add_parser("validate", help="compare tree resamples against a reference")
    p.add_argument("--tree", required=True)
    p.add_argument("--against", choices=["gaussian", "dirichlet"], required=True)
    p.add_argument("--params", required=True,
                   help="';'-separated key=value pairs, matrix rows joined by '|' "
                        "(gaussian: mu=..;cov=..  dirichlet: alpha=..)")
    p.add_argument("--report", required=True, help="output report path")
    p.add_argument("--n", type=int, default=10000, help="resample size for the checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_validate)

    return parser


def _cmd_build(args) -> int:
    _load("build", "core", "io")
    config = BuildConfig(
        order=MarginalOrder(args.order),
        alpha=args.alpha,
        min_leaf_count=args.min_leaf,
        max_depth=args.max_depth,
        bounds_padding_rel=args.padding,
    )
    ensemble = read_csv(_existing(args.in_path))
    tree = build_tree(ensemble, config)
    write_tree(args.out, tree)
    return 0


def _cmd_sample(args) -> int:
    _load("io", "sampling")
    tree = read_tree(_existing(args.tree))
    cond = _parse_conditions(args.cond, tree.dims)
    for dim, value in cond.entries:  # checked before the library, which names 0-based dimensions
        if not tree.lower[0, dim] <= value <= tree.upper[0, dim]:
            raise ValueError(f"conditioning value {value} for dimension {dim + 1} lies outside the root cuboid")
    points = sample_conditional(tree, cond, args.seed, _nonneg(args.n))
    write_csv(args.out, points, tree.column_names)
    return 0


def _cmd_density(args) -> int:
    _load("core", "io", "sampling")
    tree = read_tree(_existing(args.tree))
    specs = _parse_grid(args.grid, tree.dims)
    fixed = _parse_conditions(args.fix, tree.dims)
    grid_dims = [dim for dim, _, _, _ in specs]
    covered = set(grid_dims) | set(fixed.dims)
    if len(covered) != len(grid_dims) + len(fixed.dims):
        raise UsageError("grid and fixed dimensions must not overlap")
    if covered != set(range(tree.dims)):
        raise UsageError("grid plus fixed dimensions must cover every tree dimension")

    axes = [np.linspace(lo, hi, num) for _, lo, hi, num in specs]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.empty((mesh[0].size, tree.dims))
    for dim, value in fixed.entries:
        points[:, dim] = value
    for dim, coords in zip(grid_dims, mesh):
        points[:, dim] = coords.ravel()
    values = det_density_many(tree, points)
    names = [tree.column_names[dim] for dim in grid_dims] + ["density"]
    write_csv(args.out, np.column_stack([points[:, grid_dims], values]), names)
    return 0


def _cmd_gen_gaussian(args) -> int:
    _load("io", "reference")
    spec = GaussianSpec(mu=_parse_vector(args.mu, "--mu"), cov=_parse_matrix(args.cov, "--cov"))
    points = sample_gaussian(spec, args.seed, _nonneg(args.n))
    write_csv(args.out, points, [f"x{i + 1}" for i in range(spec.dims)])
    return 0


def _cmd_gen_dirichlet(args) -> int:
    _load("io", "reference")
    spec = DirichletSpec(alpha=_parse_vector(args.alpha, "--alpha"))
    points = sample_dirichlet(spec, args.seed, _nonneg(args.n))
    write_csv(args.out, points, ["x1", "x2"])
    return 0


def _cmd_validate(args) -> int:
    _load("core", "io", "reference", "sampling", "validation")
    tree = read_tree(_existing(args.tree))
    params = _parse_params(args.params)
    if args.against == "gaussian":
        ref = _gaussian_reference(params, tree.dims)
    else:
        ref = _dirichlet_reference(params, tree.dims)

    points = sample_unconditional(tree, args.seed, _nonneg(args.n))
    mean, cov = sample_moments(points)

    lines = [
        f"tree: {args.tree} (n={tree.n}, dims={tree.dims}, leaves={np.count_nonzero(tree.split_dim < 0)})",
        f"reference: {args.against} {args.params}",
        f"resamples: {args.n} (seed {args.seed})",
        "",
    ]
    ok = True

    for i in range(tree.dims):
        diff = abs(float(mean[i]) - float(ref["mean"][i]))
        good = diff <= VALIDATE_MEAN_TOL
        ok &= good
        lines.append(f"mean[{i + 1}]: {mean[i]:+.4f} vs {ref['mean'][i]:+.4f} "
                     f"|diff| {diff:.4f} <= {VALIDATE_MEAN_TOL} {_verdict(good)}")
    for i in range(tree.dims):
        for j in range(i, tree.dims):
            diff = abs(float(cov[i, j]) - float(ref["cov"][i][j]))
            good = diff <= VALIDATE_COV_TOL
            ok &= good
            lines.append(f"cov[{i + 1},{j + 1}]: {cov[i, j]:+.4f} vs {ref['cov'][i][j]:+.4f} "
                         f"|diff| {diff:.4f} <= {VALIDATE_COV_TOL} {_verdict(good)}")
    for i in range(tree.dims):
        result = ks_test(points[:, i], ref["marginal_cdfs"][i])
        good = result.statistic <= VALIDATE_KS_TOL
        ok &= good
        lines.append(f"ks[{tree.column_names[i]}]: D {result.statistic:.4f} <= {VALIDATE_KS_TOL} "
                     f"(p {result.p_value:.4f}) {_verdict(good)}")

    tree_density = lambda pts: det_density_many(tree, pts)
    ref_density = ref["pdf"]
    mask = ref.get("mask")
    if mask is not None:
        tree_density = _masked(tree_density, mask)
        ref_density = _masked(ref_density, mask)
    ise = grid_ise(tree_density, ref_density, ref["grid"])
    lines.append(f"grid-ise: {ise:.6f} (informational{ref.get('mask_note', '')})")
    lines.append("")
    lines.append("RESULT: " + ("PASS" if ok else "FAIL"))

    Path(args.report).write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 2


def _gaussian_reference(params: dict, dims: int) -> dict:
    if set(params) != {"mu", "cov"}:
        raise UsageError("gaussian reference needs exactly mu=... and cov=...")
    spec = GaussianSpec(mu=_parse_vector(params["mu"], "mu"), cov=_parse_matrix(params["cov"], "cov"))
    if spec.dims != dims:
        raise UsageError(f"reference has {spec.dims} dimensions, tree has {dims}")
    sigmas = np.sqrt(np.diag(spec.cov))

    def marginal_cdf(i):
        mu_i, s_i = float(spec.mu[i]), float(sigmas[i])
        return lambda x: 0.5 * math.erfc(-(x - mu_i) / (s_i * math.sqrt(2.0)))

    return {
        "mean": spec.mu,
        "cov": spec.cov,
        "marginal_cdfs": [marginal_cdf(i) for i in range(dims)],
        "pdf": lambda x: gaussian_pdf(spec, x),
        "grid": [(float(spec.mu[i] - 3 * sigmas[i]), float(spec.mu[i] + 3 * sigmas[i]), 21) for i in range(dims)],
    }


def _dirichlet_reference(params: dict, dims: int) -> dict:
    if set(params) != {"alpha"}:
        raise UsageError("dirichlet reference needs exactly alpha=...")
    if dims != 2:
        raise UsageError("dirichlet reference applies to 2-D trees")
    spec = DirichletSpec(alpha=_parse_vector(params["alpha"], "alpha"))
    a = spec.alpha
    a0 = float(a.sum())
    mean = np.array([a[0] / a0, a[1] / a0])
    denom = a0 * a0 * (a0 + 1.0)
    cov = np.array(
        [
            [a[0] * (a0 - a[0]) / denom, -a[0] * a[1] / denom],
            [-a[0] * a[1] / denom, a[1] * (a0 - a[1]) / denom],
        ]
    )

    return {
        "mean": mean,
        "cov": cov,
        "marginal_cdfs": [lambda x: dirichlet_marginal_cdf(spec, 0, x), lambda x: dirichlet_marginal_cdf(spec, 1, x)],
        "pdf": lambda x: dirichlet_pdf(spec, x[..., 0], x[..., 1]),
        "grid": [(0.0, 1.0, 41), (0.0, 1.0, 41)],
        # a sub-unit concentration makes the density blow up along the
        # simplex edge; keep the report metric finite by skirting it
        "mask": lambda x: 1.0 - x[..., 0] - x[..., 1] >= 0.01,
        "mask_note": ", on 1-x1-x2 >= 0.01",
    }


def _verdict(good: bool) -> str:
    return "PASS" if good else "FAIL"


def _masked(density, mask):
    return lambda pts: np.asarray(density(pts)) * mask(pts)


def _existing(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"file not found: {path}")
    return path


def _nonneg(n: int) -> int:
    if n < 0:
        raise UsageError("--n must be nonnegative")
    return n


def _parse_conditions(pairs: list[str], dims: int) -> Condition:
    entries = []
    seen = set()
    for text in pairs:
        dim, value = _parse_dim_value(text)
        if dim in seen:
            raise UsageError(f"dimension {dim + 1} conditioned twice")
        if not 0 <= dim < dims:
            raise UsageError(f"dimension out of range: {dim + 1} (tree has {dims} dimensions)")
        seen.add(dim)
        entries.append((dim, value))
    return Condition(entries)


def _parse_dim_value(text: str) -> tuple[int, float]:
    parts = text.split("=")
    if len(parts) != 2:
        raise UsageError(f"expected I=V, got {text!r}")
    try:
        dim = int(parts[0])
        value = float(parts[1])
    except ValueError:
        raise UsageError(f"expected integer=real, got {text!r}") from None
    if dim < 1:
        raise UsageError(f"dimension indices are 1-based, got {dim}")
    return dim - 1, value


def _parse_grid(text: str, dims: int) -> list[tuple[int, float, float, int]]:
    specs = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 4:
            raise UsageError(f"expected I:LO:HI:N, got {part!r}")
        try:
            dim, lo, hi, num = int(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])
        except ValueError:
            raise UsageError(f"malformed grid spec {part!r}") from None
        if not 1 <= dim <= dims:
            raise UsageError(f"dimension out of range: {dim} (tree has {dims} dimensions)")
        if not (lo < hi and hi - lo < math.inf and num >= 2):  # lo < hi is false for NaN
            raise UsageError(f"grid spec {part!r} needs finite lo < hi, a finite hi - lo and at least 2 points")
        specs.append((dim - 1, lo, hi, num))
    return specs


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated reals, got {text!r}") from None


def _parse_matrix(text: str, flag: str) -> np.ndarray:
    rows = text.replace("|", ";").split(";")
    try:
        mat = [[float(v) for v in row.split(",")] for row in rows]
    except ValueError:
        raise UsageError(f"{flag}: expected rows of comma-separated reals, got {text!r}") from None
    if any(len(r) != len(mat[0]) for r in mat):
        raise UsageError(f"{flag}: rows have unequal lengths")
    return np.array(mat)


def _parse_params(text: str) -> dict:
    params = {}
    for pair in text.split(";"):
        if "=" not in pair:
            raise UsageError(f"--params: expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key in params:
            raise UsageError(f"--params: duplicate key {key!r}")
        params[key] = value.strip()
    return params


if __name__ == "__main__":
    sys.exit(main())
