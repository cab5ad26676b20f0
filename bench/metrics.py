"""Every metric the benchmark reports: name, unit, direction and meaning.

``GATED`` are the end-to-end metrics every workload reports in an untraced
run; BENCHMARK.json lists them with their regression bounds. ``REPORTED``
are the workload-specific end-to-end metrics: printed in the report and
kept in the run's record file, not gated (see README.md for why).
``PER_LAYER`` are the traced run's metrics; every traced run reports every
one of them, 0 where the workload does not call that layer.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("cli_pipeline", "fit_resample", "cond_sweep")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    workloads: tuple[str, ...] = ALL
    bound: float | None = None


GATED = (
    Metric("setup_s", "s", "lower", "median set-up time over the run's set-ups", bound=0.25),
    Metric("wall_s", "s", "lower", "median time of one pass", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the process doing the work", bound=0.1),
)

REPORTED = (
    Metric("fail_frac", "ratio", "lower", "failed operations and checks / attempted"),
    Metric("gen_cmd_s", "s", "lower", "`dettree gen gaussian` process wall", ("cli_pipeline",)),
    Metric("build_cmd_s", "s", "lower", "`dettree build` process wall", ("cli_pipeline",)),
    Metric("sample_cmd_s", "s", "lower", "`dettree sample --cond 3=0` process wall", ("cli_pipeline",)),
    Metric("density_cmd_s", "s", "lower", "`dettree density` process wall", ("cli_pipeline",)),
    Metric("build_s", "s", "lower", "both build_tree calls", ("fit_resample",)),
    Metric("resample_s", "s", "lower", "sample_unconditional of the pass's draws", ("fit_resample",)),
    Metric("density_s", "s", "lower", "det_density_many at the drawn points", ("fit_resample",)),
    Metric("cond_query_p50_ms", "ms", "lower", "median conditional query latency", ("cond_sweep",)),
    Metric("cond_query_p99_ms", "ms", "lower", "99th-percentile conditional query latency", ("cond_sweep",)),
    Metric("fit_ise", "ise", "lower", "grid ISE of the fitted tree(s) against the analytic density",
           ("cli_pipeline", "fit_resample")),
    Metric("cond_ks", "D", "lower", "largest KS D of conditional samples against gaussian_conditional",
           ("cond_sweep",)),
)

PER_LAYER = (
    Metric("cli.interp_s", "s", "lower", "bare `python3 -c pass`, the interpreter floor"),
    Metric("cli.import_s", "s", "lower", "`import dettree.cli` in a CLI process, mean over a pass's steps"),
    Metric("cli.scipy_modules", "count", "lower", "scipy modules loaded by `import dettree.cli`"),
    Metric("cli.self_s", "s", "lower", "CLI step walls minus import, wrapped calls and the interpreter floor"),
    Metric("io.read_csv_s", "s", "lower", "read_csv time"),
    Metric("io.write_csv_s", "s", "lower", "write_csv time"),
    Metric("io.read_csv_mb_s", "MB/s", "higher", "read_csv throughput"),
    Metric("io.write_csv_mb_s", "MB/s", "higher", "write_csv throughput"),
    Metric("io.csv_bytes", "bytes", "lower", "CSV bytes read plus written"),
    Metric("io.write_tree_s", "s", "lower", "write_tree time"),
    Metric("io.read_tree_s", "s", "lower", "read_tree time, validate_tree included"),
    Metric("io.tree_bytes", "bytes", "lower", "bytes of tree documents written"),
    Metric("io.self_s", "s", "lower", "self time of the io layer"),
    Metric("build.build_tree_s", "s", "lower", "build_tree time"),
    Metric("build.nodes", "count", "lower", "nodes of the trees built"),
    Metric("build.leaves", "count", "lower", "leaves of the trees built"),
    Metric("build.max_depth", "count", "lower", "deepest leaf"),
    Metric("build.empty_leaf_frac", "ratio", "lower", "leaves with no sample / leaves"),
    Metric("build.point_visits", "count", "lower", "sum over nodes of the node's sample count"),
    Metric("build.ns_per_point_visit", "ns", "lower", "build_tree time / point_visits"),
    Metric("build.self_s", "s", "lower", "self time of the build layer"),
    Metric("core.det_density_many_s", "s", "lower", "det_density_many time"),
    Metric("core.density_ns_per_pt", "ns", "lower", "det_density_many time per point"),
    Metric("core.validate_tree_s", "s", "lower", "validate_tree time inside read_tree"),
    Metric("core.self_s", "s", "lower", "self time of the core layer"),
    Metric("sampling.sample_unconditional_s", "s", "lower", "sample_unconditional time"),
    Metric("sampling.uncond_ns_per_sample", "ns", "lower", "sample_unconditional time per draw"),
    Metric("sampling.find_us_p50", "us", "lower", "median conditioned-leaf search inside sample_conditional"),
    Metric("sampling.cond_overhead_us_p50", "us", "lower", "median sample_conditional time minus its search"),
    Metric("sampling.nodes_visited_per_query", "count", "lower", "nodes the pruned search visits per query"),
    Metric("sampling.leaves_per_query", "count", "lower", "leaves the search returns per query"),
    Metric("sampling.prune_ratio", "ratio", "higher", "leaves found / nodes visited"),
    Metric("sampling.self_s", "s", "lower", "self time of the sampling layer"),
    Metric("reference.sample_gaussian_s", "s", "lower", "sample_gaussian time"),
    Metric("reference.self_s", "s", "lower", "self time of the reference layer"),
    Metric("trace.wall_s", "s", "lower", "median traced pass time"),
    Metric("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s in the same run"),
    Metric("trace.accounted_s", "s", "lower", "layer self times + CLI imports + interpreter floor"),
    Metric("trace.unaccounted_s", "s", "lower", "traced pass time no layer accounts for"),
)

# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = (
    "cli.scipy_modules",
    "build.nodes",
    "build.leaves",
    "build.max_depth",
    "build.empty_leaf_frac",
    "build.point_visits",
    "sampling.nodes_visited_per_query",
    "sampling.leaves_per_query",
    "io.csv_bytes",
    "io.tree_bytes",
)

LAYERS = ("cli", "io", "build", "core", "sampling", "reference")
