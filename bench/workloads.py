"""The benchmark's three workloads. Each is closed-loop and single-client:
one pass runs after the previous one has finished, in one process at a time.

Every workload makes its inputs from the run's seed, times its pass, checks
the outputs untimed after each timed operation, and computes its quality
metrics and exact counts untimed after the last pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter as clock
from types import SimpleNamespace

import numpy as np

import dettree as dt
import dettree.io
import dettree.sampling

REF_COV = np.array([[0.35, 0.25, 0.5], [0.25, 0.4, 0.6], [0.5, 0.6, 1.0]])
REF_COV_FLAG = "0.35,0.25,0.5;0.25,0.4,0.6;0.5,0.6,1"
GAUSSIAN = dt.GaussianSpec(mu=np.zeros(3), cov=REF_COV)
DIRICHLET = dt.DirichletSpec(alpha=np.array([1.25, 2.0, 0.75]))
CONFIG = dt.BuildConfig()

# The grids `dettree validate` scores ISE on: +-3 sigma with 21 cells per
# axis for the Gaussian; the unit square with 41 cells per axis for the
# Dirichlet, masked to 1 - x1 - x2 >= 0.01 where the density stays finite.
GAUSSIAN_GRID = [(-3.0 * s, 3.0 * s, 21) for s in np.sqrt(np.diag(REF_COV))]
DIRICHLET_GRID = [(0.0, 1.0, 41), (0.0, 1.0, 41)]

# Conditioning points of the cond_sweep quality metric (0-based dims).
KS_POINTS = (((2, -1.0),), ((2, 0.0),), ((2, 1.0),), ((0, -0.3), (2, -0.5)), ((0, 0.3), (2, 0.5)))

SIZES = {
    "full": {
        "cli_pipeline": {"n": 100_000, "cond_samples": 10_000, "grid": 61},
        "fit_resample": {"n_gaussian": 1_000_000, "n_dirichlet": 1_000_000, "draws": 1_000_000},
        "cond_sweep": {"n": 100_000, "queries": 2_000, "draws_per_query": 1_000, "ks_draws": 20_000},
    },
    "smoke": {
        "cli_pipeline": {"n": 2_000, "cond_samples": 200, "grid": 11},
        "fit_resample": {"n_gaussian": 5_000, "n_dirichlet": 5_000, "draws": 5_000},
        "cond_sweep": {"n": 2_000, "queries": 50, "draws_per_query": 100, "ks_draws": 500},
    },
}

API_NAMES = (
    "build_tree",
    "write_tree",
    "read_tree",
    "sample_unconditional",
    "det_density_many",
    "sample_gaussian",
    "sample_dirichlet",
    "find_conditioned_leaves",
    "sample_conditional",
)

PLAIN_API = SimpleNamespace(**{name: getattr(dt, name) for name in API_NAMES})


@contextmanager
def traced_api(tracer):
    """The public functions wrapped to record spans, plus the two calls the
    package makes internally that the layer metrics need: validate_tree
    inside read_tree and the search inside sample_conditional."""
    inner = [(dettree.io, "validate_tree"), (dettree.sampling, "find_conditioned_leaves")]
    saved = [(module, name, getattr(module, name)) for module, name in inner]
    for module, name, fn in saved:
        setattr(module, name, tracer.wrap(fn))
    try:
        yield SimpleNamespace(**{name: tracer.wrap(getattr(dt, name)) for name in API_NAMES})
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


class Tally:
    """Attempted and failed operations and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1
        return ok


class HashLog:
    """SHA-256 of each output per pass; every later pass must match the first."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.first: dict[str, str] = {}

    def record(self, name: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        expected = self.first.setdefault(name, digest)
        self.tally.check(f"{name} identical across passes", digest == expected)


def tree_stats(trees) -> dict:
    nodes = leaves = empty = visits = max_depth = 0
    for tree in trees:
        stack = [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            nodes += 1
            if node.is_leaf:
                count = node.body.count
                leaves += 1
                empty += count == 0
                visits += count * (depth + 1)
                max_depth = max(max_depth, depth)
            else:
                stack.append((node.body.lower_child, depth + 1))
                stack.append((node.body.upper_child, depth + 1))
    return {
        "build.nodes": nodes,
        "build.leaves": leaves,
        "build.max_depth": max_depth,
        "build.empty_leaf_frac": empty / leaves,
        "build.point_visits": visits,
    }


def check_tree(tally: Tally, what: str, tree) -> None:
    try:
        dt.validate_tree(tree)
        valid = True
    except ValueError:
        valid = False
    tally.check(f"{what} passes validate_tree", valid)
    mass = math.fsum(dt.leaf_mass(leaf, tree.n) for leaf in tree.iter_leaves())
    tally.check(f"{what} leaf masses sum to 1", abs(mass - 1.0) <= 1e-9)


def check_inside(tally: Tally, what: str, tree, points: np.ndarray) -> None:
    box = tree.root.cuboid
    inside = np.all(points >= box.lower, axis=1) & np.all(points <= box.upper, axis=1)
    tally.check(f"{what} inside the root cuboid", bool(inside.all()))


def check_conditioned(tally: Tally, what: str, points: np.ndarray, cond) -> None:
    ok = all(np.all(points[:, dim].view(np.uint64) == np.float64(value).view(np.uint64))
             for dim, value in cond.entries)
    tally.check(f"{what} conditioned coordinates bit-identical", bool(ok))


def gaussian_ise(tree) -> float:
    return dt.grid_ise(lambda p: dt.det_density_many(tree, p), lambda p: dt.gaussian_pdf(GAUSSIAN, p),
                       GAUSSIAN_GRID)


def dirichlet_ise(tree) -> float:
    def masked(density):
        return lambda p: density(p) * (1.0 - p[..., 0] - p[..., 1] >= 0.01)

    return dt.grid_ise(masked(lambda p: dt.det_density_many(tree, p)),
                       masked(lambda p: dt.dirichlet_pdf(DIRICHLET, p[..., 0], p[..., 1])), DIRICHLET_GRID)


def largest_conditional_ks(tree, conditions, seed: int, draws: int) -> float:
    worst = 0.0
    for k, entries in enumerate(conditions):
        cond = dt.Condition(entries)
        points = dt.sample_conditional(tree, cond, seed + k, draws)
        ref = dt.gaussian_conditional(GAUSSIAN, cond)
        for j, dim in enumerate(cond.free_dims(tree.dims)):
            mu, sd = float(ref.mu[j]), math.sqrt(float(ref.cov[j, j]))
            cdf = lambda x, mu=mu, sd=sd: 0.5 * math.erfc(-(x - mu) / (sd * math.sqrt(2.0)))
            worst = max(worst, dt.ks_test(points[:, dim], cdf).statistic)
    return worst


def search_counts(tree, conditions) -> dict:
    visited = 0
    found = 0
    for cond in conditions:
        counter = VisitCounter()
        found += len(dt.find_conditioned_leaves(tree, cond, counter).leaves)
        visited += counter.count
    return {
        "sampling.nodes_visited_per_query": visited / len(conditions),
        "sampling.leaves_per_query": found / len(conditions),
        "sampling.prune_ratio": found / visited,
    }


class VisitCounter:
    """``on_visit`` hook of find_conditioned_leaves counting visited nodes."""

    def __init__(self):
        self.count = 0

    def __call__(self, node) -> None:
        self.count += 1


class Workload:
    """Interface of a workload; the defaults suit the in-process ones."""

    name = why = ""

    def __init__(self, root: Path, seed: int, sizes: dict, work: Path, tally: Tally):
        self.root, self.seed, self.sizes, self.work, self.tally = root, seed, sizes, work, tally
        self.hashes = HashLog(tally)

    def setup(self, api) -> None:
        """Make the inputs; timed."""

    def check_setup(self) -> None:
        """Check what setup made; untimed."""

    def run_pass(self, api, tracer) -> dict:
        """One timed pass, then its untimed checks. Returns the pass's
        end-to-end timings; ``tracer`` is None in an untraced pass."""
        raise NotImplementedError

    def quality(self) -> dict:
        return {}

    def counts(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def outputs(self) -> dict:
        return dict(self.hashes.first)

    def density_points(self) -> int:
        return 0


class CliPipeline(Workload):
    """Acceptance criterion 8's four CLI steps, each a fresh process."""

    name = "cli_pipeline"
    why = "what a CLI user pays: interpreter start, imports and CSV text I/O dominate"
    steps = ("gen", "build", "sample", "density")

    def __init__(self, root: Path, seed: int, sizes: dict, work: Path, tally: Tally):
        super().__init__(root, seed, sizes, work, tally)
        self.child = root / "bench" / "cli_child.py"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.files = {name: work / name for name in ("data.csv", "tree.json", "cond.csv", "slice.csv")}
        self.tree = None

    def argv(self, step: str) -> list[str]:
        f, s = {k: str(v) for k, v in self.files.items()}, self.sizes
        grid = f"1:-3:3:{s['grid']},2:-3:3:{s['grid']}"
        return {
            "gen": ["gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG, "--n", str(s["n"]),
                    "--seed", str(self.seed), "--out", f["data.csv"]],
            "build": ["build", "--in", f["data.csv"], "--out", f["tree.json"]],
            "sample": ["sample", "--tree", f["tree.json"], "--n", str(s["cond_samples"]),
                       "--seed", str(self.seed + 1), "--out", f["cond.csv"], "--cond", "3=0"],
            "density": ["density", "--tree", f["tree.json"], "--grid", grid, "--fix", "3=0",
                        "--out", f["slice.csv"]],
        }[step]

    def launch(self, args: list[str], spans: str = "-") -> int:
        try:
            proc = subprocess.run([sys.executable, str(self.child), spans, "--", *args], cwd=self.work,
                                  env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=150)
        except subprocess.TimeoutExpired:
            print(f"cli step timed out: {args[:2]}", file=sys.stderr)
            return -1
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def launch_probe(self, code: str) -> float:
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)
        return clock() - t0

    def setup(self, api) -> None:
        """Scratch directory plus one CLI start, which writes the byte-code
        caches a fresh checkout lacks and warms the file cache."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.tally.check("warm-up CLI start exits 0", self.launch(["--help"]) == 0)

    def run_pass(self, api, tracer) -> dict:
        times = {}
        children = []
        t_pass = clock()
        with tracer.span("bench.op") if tracer else nullcontext():
            for step in self.steps:
                spans = str(self.work / f"spans-{step}.json") if tracer else "-"
                with tracer.span(f"cli.step.{step}") if tracer else nullcontext() as record:
                    t0 = clock()
                    code = self.launch(self.argv(step), spans)
                    times[f"{step}_cmd_s"] = clock() - t0
                if self.tally.check(f"{step} step exits 0", code == 0) and tracer:
                    children.append((record, spans))
        times["wall_s"] = clock() - t_pass
        for record, spans in children:
            with open(spans) as fh:
                tracer.adopt(json.load(fh), record)
        self.check_outputs()
        return times

    def check_outputs(self) -> None:
        for name, path in self.files.items():
            self.hashes.record(name, path.read_bytes() if path.exists() else b"")
        try:
            self.tree = dt.read_tree(self.files["tree.json"])
        except (OSError, ValueError):
            self.tally.check("tree.json loads", False)
            return
        check_tree(self.tally, "CLI tree", self.tree)
        try:
            points = np.loadtxt(self.files["cond.csv"], delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError):
            self.tally.check("cond.csv loads", False)
            return
        check_inside(self.tally, "CLI conditional samples", self.tree, points)
        check_conditioned(self.tally, "CLI conditional samples", points, dt.Condition([(2, 0.0)]))

    def quality(self) -> dict:
        return {"fit_ise": gaussian_ise(self.tree) if self.tree else float("nan")}

    def counts(self) -> dict:
        if self.tree is None:
            return {}
        return {**tree_stats([self.tree]), **search_counts(self.tree, [dt.Condition([(2, 0.0)])])}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def density_points(self) -> int:
        return self.sizes["grid"] ** 2


class FitResample(Workload):
    """Library smooth bootstrap at scale: two large builds, a tree JSON round
    trip, one large unconditional draw and density at the drawn points."""

    name = "fit_resample"
    why = "library fit-and-resample at scale: build dominates, a few large vectorized calls"

    def __init__(self, root: Path, seed: int, sizes: dict, work: Path, tally: Tally):
        super().__init__(root, seed, sizes, work, tally)
        self.tree_path = work / "fit_tree.json"
        self.trees = ()

    def setup(self, api) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.gaussian = dt.Ensemble(api.sample_gaussian(GAUSSIAN, self.seed, self.sizes["n_gaussian"]))
        self.dirichlet = dt.Ensemble(api.sample_dirichlet(DIRICHLET, self.seed + 1, self.sizes["n_dirichlet"]))

    def run_pass(self, api, tracer) -> dict:
        with tracer.span("bench.op") if tracer else nullcontext():
            t0 = clock()
            gaussian_tree = api.build_tree(self.gaussian, CONFIG)
            dirichlet_tree = api.build_tree(self.dirichlet, CONFIG)
            t1 = clock()
            api.write_tree(self.tree_path, gaussian_tree)
            loaded = api.read_tree(self.tree_path)
            t2 = clock()
            points = api.sample_unconditional(loaded, self.seed + 2, self.sizes["draws"])
            t3 = clock()
            api.det_density_many(loaded, points)
            t4 = clock()
        for what, tree in (("Gaussian tree", gaussian_tree), ("Dirichlet tree", dirichlet_tree),
                           ("loaded tree", loaded)):
            check_tree(self.tally, what, tree)
        check_inside(self.tally, "unconditional samples", loaded, points)
        self.hashes.record("fit_tree.json", self.tree_path.read_bytes())
        self.hashes.record("samples", points.tobytes())
        self.trees = (gaussian_tree, dirichlet_tree)
        return {"wall_s": t4 - t0, "build_s": t1 - t0, "resample_s": t3 - t2, "density_s": t4 - t3}

    def quality(self) -> dict:
        return {"fit_ise": gaussian_ise(self.trees[0]) + dirichlet_ise(self.trees[1])}

    def counts(self) -> dict:
        return tree_stats(self.trees)

    def density_points(self) -> int:
        return self.sizes["draws"]


class CondSweep(Workload):
    """Many small conditional queries against one tree, each the README's
    library sequence: search, marginal estimate, conditional draw."""

    name = "cond_sweep"
    why = "the conditional bootstrap: many small calls, so per-call overhead dominates"

    def __init__(self, root: Path, seed: int, sizes: dict, work: Path, tally: Tally):
        super().__init__(root, seed, sizes, work, tally)
        self.setup_stats = None

    def setup(self, api) -> None:
        n = self.sizes["n"]
        data = api.sample_gaussian(GAUSSIAN, self.seed, n)
        self.tree = api.build_tree(dt.Ensemble(data), CONFIG)
        # Conditioning values are rows of the generated ensemble, so they are
        # draws of the reference Gaussian and lie in a leaf that holds data.
        rows = np.random.default_rng(self.seed + 1).integers(n, size=self.sizes["queries"])
        self.conditions = [
            dt.Condition([(0, data[r, 0]), (2, data[r, 2])] if i % 4 == 3 else [(2, data[r, 2])])
            for i, r in enumerate(rows)
        ]

    def check_setup(self) -> None:
        check_tree(self.tally, "cond_sweep tree", self.tree)
        stats = tree_stats([self.tree])
        if self.setup_stats is not None:
            self.tally.check("set-up tree counts identical across set-ups", stats == self.setup_stats)
        self.setup_stats = stats

    def run_pass(self, api, tracer) -> dict:
        tree, draws = self.tree, self.sizes["draws_per_query"]
        latencies = np.empty(len(self.conditions))
        for i, cond in enumerate(self.conditions):
            with tracer.span("bench.op") if tracer else nullcontext():
                t0 = clock()
                leaf_set = api.find_conditioned_leaves(tree, cond)
                estimate = leaf_set.total
                points = api.sample_conditional(tree, cond, self.seed + 2 + i, draws)
                latencies[i] = clock() - t0
            self.tally.check("marginal estimate positive", estimate > 0.0)
            check_inside(self.tally, "conditional samples", tree, points)
            check_conditioned(self.tally, "conditional samples", points, cond)
        return {
            "wall_s": float(latencies.sum()),
            "cond_query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "cond_query_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        }

    def quality(self) -> dict:
        draws = self.sizes["ks_draws"]
        return {"cond_ks": largest_conditional_ks(self.tree, KS_POINTS, self.seed + 3, draws)}

    def counts(self) -> dict:
        return {**self.setup_stats, **search_counts(self.tree, self.conditions)}


WORKLOADS = {cls.name: cls for cls in (CliPipeline, FitResample, CondSweep)}

