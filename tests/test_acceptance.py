"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is fixed here, not tuned at runtime.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from dettree import (
    BuildConfig,
    Condition,
    DirichletSpec,
    Ensemble,
    GaussianSpec,
    build_tree,
    det_density_many,
    dirichlet_conditional_cdf,
    find_conditioned_leaves,
    gaussian_conditional,
    grid_ise,
    ks_test,
    leaf_mass,
    marginal_cdf,
    marginal_quantile,
    sample_conditional,
    sample_dirichlet,
    sample_gaussian,
    sample_unconditional,
)
from dettree.cli import main as cli_main

from conftest import (
    REF_COV,
    exhaustive_conditioned_leaves,
    leafwise_quadrature_total,
    random_ensemble,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def gaussian_spec():
    return GaussianSpec(mu=np.zeros(3), cov=REF_COV)


@pytest.fixture(scope="module")
def gaussian_tree_100k(gaussian_spec):
    data = sample_gaussian(gaussian_spec, 42, 100_000)
    return build_tree(Ensemble(data), BuildConfig())


@pytest.fixture(scope="module")
def dirichlet_tree_100k():
    spec = DirichletSpec(alpha=np.array([1.25, 2.0, 0.75]))
    data = sample_dirichlet(spec, 11, 100_000)
    return spec, build_tree(Ensemble(data), BuildConfig())


def test_criterion_1_mass_conservation():
    worst_mass = 0.0
    worst_quad = 0.0
    for case in range(20):
        d = case % 3 + 1
        tree = build_tree(random_ensemble(100 + case, 1000, d), BuildConfig())
        mass_err = abs(sum(leaf_mass(de, tree.n) for de in tree.iter_leaves()) - 1.0)
        quad_err = abs(leafwise_quadrature_total(tree) - 1.0)
        worst_mass = max(worst_mass, mass_err)
        worst_quad = max(worst_quad, quad_err)
    ok = worst_mass <= 1e-12 and worst_quad <= 1e-10
    _report(1, "mass conservation", ok,
            f"20 trees (d in 1..3, n=1000): max |sum(mass)-1| = {worst_mass:.2e} (tol 1e-12), "
            f"max |quadrature-1| = {worst_quad:.2e} (tol 1e-10)")


def test_criterion_2_quantile_round_trip():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        theta = float(rng.uniform(-1.0, 1.0))
        y = float(rng.uniform(0.0, 1.0))
        x = marginal_quantile(theta, -2.0, 3.0, y)
        worst = max(worst, abs(marginal_cdf(theta, -2.0, 3.0, x) - y))
    _report(2, "quantile round-trip", worst <= 1e-12,
            f"1000 random (theta, y): max |CDF(Q(y)) - y| = {worst:.2e} (tol 1e-12)")


def test_criterion_3_conditioned_leaf_search(gaussian_spec):
    rng = np.random.default_rng(303)
    pairs = 0
    for t in range(10):
        data = sample_gaussian(gaussian_spec, 9000 + t, 1000)
        tree = build_tree(Ensemble(data), BuildConfig())
        for _ in range(5):
            k = int(rng.integers(1, 3))
            dims = rng.choice(3, size=k, replace=False)
            values = rng.uniform(tree.lower[0, dims], tree.upper[0, dims])
            cond = Condition(list(zip(dims.tolist(), values.tolist())))
            found = find_conditioned_leaves(tree, cond)
            leaves, weights = exhaustive_conditioned_leaves(tree, cond)
            assert np.array_equal(found.leaves, leaves)  # the same leaf ids in the same order
            assert np.array_equal(found.weights, weights)
            pairs += 1
    _report(3, "pruned search equals exhaustive enumeration", pairs == 50,
            f"{pairs} random (tree, condition) pairs: identical leaf sets, bit-equal weights")


def test_criterion_4_leaf_occupancy_chi_square(gaussian_spec):
    data = sample_gaussian(gaussian_spec, 404, 2000)
    tree = build_tree(Ensemble(data), BuildConfig(min_leaf_count=40))
    leaves = list(tree.iter_leaves())
    assert len(leaves) <= 100, f"need <= 100 leaves, got {len(leaves)}"
    n_draws = 100_000
    pts = sample_unconditional(tree, 405, n_draws)
    occupancy = _leaf_occupancy(tree, pts)
    masses = np.array([leaf_mass(de, tree.n) for de in leaves])
    assert np.all(occupancy[masses == 0.0] == 0)
    live = masses > 0.0
    expected = masses[live] * n_draws
    stat = float(np.sum((occupancy[live] - expected) ** 2 / expected))
    p = float(chi2.sf(stat, int(live.sum()) - 1))
    _report(4, "leaf-occupancy consistency", p >= 0.01,
            f"{len(leaves)} leaves, {n_draws} draws: chi-square p = {p:.3f} (significance 0.01)")


def test_criterion_5_gaussian_conditional_reproduction(gaussian_spec, gaussian_tree_100k):
    tree = gaussian_tree_100k
    checks = []

    cond0 = Condition([(2, 0.0)])
    target0 = gaussian_conditional(gaussian_spec, cond0)
    pts0 = sample_conditional(tree, cond0, 7, 10_000)
    mean0 = pts0[:, :2].mean(axis=0)
    cov0 = np.cov(pts0[:, :2], rowvar=False, ddof=1)
    mean_err0 = float(np.max(np.abs(mean0 - target0.mu)))
    cov_err0 = float(np.max(np.abs(cov0 - target0.cov)))
    checks.append(mean_err0 <= 0.05)
    checks.append(cov_err0 <= 0.03)

    cond2 = Condition([(2, 2.0)])
    target2 = gaussian_conditional(gaussian_spec, cond2)
    pts2 = sample_conditional(tree, cond2, 8, 10_000)
    mean2 = pts2[:, :2].mean(axis=0)
    mean_err2 = float(np.max(np.abs(mean2 - target2.mu)))
    checks.append(mean_err2 <= 0.10)

    _report(5, "Gaussian conditional reproduction", all(checks),
            f"x3=0: |mean err| {mean_err0:.3f} (tol 0.05), |cov err| {cov_err0:.3f} (tol 0.03); "
            f"x3=2: |mean err| {mean_err2:.3f} (tol 0.10); analytic targets mu'=(0,0)/(1,1.2), "
            f"C'=((0.10,-0.05),(-0.05,0.04))")


def test_criterion_6_dirichlet_conditional_reproduction(dirichlet_tree_100k):
    spec, tree = dirichlet_tree_100k
    results = {}
    for x2, seed in ((0.3, 21), (0.7, 22)):
        pts = sample_conditional(tree, Condition([(1, x2)]), seed, 10_000)
        results[x2] = ks_test(pts[:, 0], lambda v: dirichlet_conditional_cdf(spec, x2, v)).statistic
    ok = results[0.3] <= 0.05 and results[0.7] <= 0.08
    _report(6, "Dirichlet conditional reproduction", ok,
            f"KS distance of resampled x1: {results[0.3]:.3f} at x2=0.3 (tol 0.05), "
            f"{results[0.7]:.3f} at x2=0.7 (tol 0.08)")


def test_criterion_7_resampling_emulates_source():
    spec = GaussianSpec(mu=np.zeros(2), cov=np.array([[0.35, 0.25], [0.25, 0.4]]))
    n_src = 20_000
    source = build_tree(Ensemble(sample_gaussian(spec, 5, n_src)), BuildConfig())
    rebuilt = build_tree(Ensemble(sample_unconditional(source, 101, 100_000)), BuildConfig())
    fresh1 = build_tree(Ensemble(sample_gaussian(spec, 6, n_src)), BuildConfig())
    fresh2 = build_tree(Ensemble(sample_gaussian(spec, 7, n_src)), BuildConfig())
    grid = [(float(source.lower[0, i]), float(source.upper[0, i]), 41) for i in range(2)]
    density = lambda tree: (lambda pts: det_density_many(tree, pts))
    fidelity = grid_ise(density(rebuilt), density(source), grid)
    baseline = grid_ise(density(fresh1), density(fresh2), grid)
    _report(7, "resampling emulates the source estimator", fidelity <= 2.0 * baseline,
            f"grid-ISE(rebuild, source) = {fidelity:.5f} vs 2 x ISE(fresh, fresh) = {2 * baseline:.5f} "
            f"(41x41 probe grid, 1e5 resamples)")


def test_criterion_8_cli_byte_determinism(tmp_path):
    cov_flag = "0.35,0.25,0.5;0.25,0.4,0.6;0.5,0.6,1"
    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        data, tree = base / "data.csv", base / "tree.json"
        samples, grid = base / "samples.csv", base / "grid.csv"
        assert cli_main(["gen", "gaussian", "--mu", "0,0,0", "--cov", cov_flag,
                         "--n", "100000", "--seed", "42", "--out", str(data)]) == 0
        assert cli_main(["build", "--in", str(data), "--out", str(tree)]) == 0
        assert cli_main(["sample", "--tree", str(tree), "--n", "10000", "--seed", "7",
                         "--out", str(samples), "--cond", "3=0"]) == 0
        assert cli_main(["density", "--tree", str(tree), "--grid", "1:-3:3:61,2:-3:3:61",
                         "--fix", "3=0", "--out", str(grid)]) == 0
        outputs.append(tuple(p.read_bytes() for p in (data, tree, samples, grid)))
    identical = outputs[0] == outputs[1]
    sizes = [len(b) for b in outputs[0]]
    _report(8, "CLI byte-determinism", identical,
            f"two identical pipeline runs: data/tree/samples/grid files byte-identical ({sizes} bytes)")


def _leaf_occupancy(tree, pts: np.ndarray) -> np.ndarray:
    """Points per leaf, in depth-first leaf order, routed down the split
    structure (position = box midpoint, ties to the upper child)."""
    order = {leaf: k for k, leaf in enumerate(np.flatnonzero(tree.split_dim < 0).tolist())}
    counts = np.zeros(len(order), dtype=np.int64)
    stack = [(0, np.arange(pts.shape[0]))]
    while stack:
        node, idx = stack.pop()
        dim = int(tree.split_dim[node])
        if idx.size == 0:
            continue
        if dim < 0:
            counts[order[node]] += idx.size
        else:
            below = pts[idx, dim] < (tree.lower[node, dim] + tree.upper[node, dim]) / 2.0
            stack.append((node + 1, idx[below]))
            stack.append((int(tree.upper_child[node]), idx[~below]))
    return counts
