"""dettree benchmark: three closed-loop workloads, end-to-end metrics from
untraced runs, per-layer metrics from traced runs.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1   # everything
    python3 bench/run.py --smoke                                          # tiny sizes, a few seconds

Run it from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report. The run's
full record (provenance, every metric, output hashes) and, when traced, its
spans are written under ``.bench_out/``. The exit code is 0 only when every
operation and check succeeded. See bench/README.md for the metrics.
"""

from __future__ import annotations

import os

# Thread settings the benchmark gives itself and every process it starts;
# set before numpy loads its BLAS.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter as clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
INTERP_PROBES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["cli_pipeline", "fit_resample", "cond_sweep", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up, one untraced and one traced pass; all workloads by default")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    if not (ROOT / "src" / "dettree" / "__init__.py").is_file():
        print(f"error: no dettree sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.workload in (None, "all"):
        return run_all(args, out_dir)
    return run_one(args, out_dir)


def record_path(out_dir: Path, workload: str, seed: int, traced: bool, smoke: bool) -> Path:
    return out_dir / f"{workload}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}.json"


def run_one(args, out_dir: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import workloads

    traced = args.smoke or bool(args.trace)
    sizes = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, 0.0 if args.smoke else args.seconds,
                          traced, sizes, 1 if args.smoke else SETUPS, out_dir)
    result["provenance"] = provenance(args.seed, traced, {args.workload: sizes})
    path = record_path(out_dir, args.workload, args.seed, traced, args.smoke)
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")
    print_report(result, metrics, traced)

    values = result["metrics"]
    chosen = metrics.PER_LAYER if traced else metrics.GATED
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen if m.name in values},
    }))
    return 0 if correct else 1


def run_all(args, out_dir: Path) -> int:
    """Each workload in its own process, so peak memory and caches start
    fresh; the last line combines them, every metric of the records named
    ``<workload>:<metric>``."""
    import metrics

    traced = args.smoke or bool(args.trace)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in metrics.ALL:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(traced))] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
            record = json.loads(record_path(out_dir, name, args.seed, traced, args.smoke).read_text())
        except (IndexError, ValueError, OSError):
            summary["correct"] = False
            continue
        summary["correct"] &= proc.returncode == 0 and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in record["metrics"].items():
            summary["metrics"][f"{name}:{metric}"] = {"value": value, "unit": unit_of(metrics, metric)}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def unit_of(metrics, name: str) -> str:
    for m in metrics.GATED + metrics.REPORTED + metrics.PER_LAYER:
        if m.name == name:
            return m.unit
    raise KeyError(name)


def run_workload(cls, seed: int, seconds: float, traced_run: bool, sizes: dict, setups: int,
                 out_dir: Path) -> dict:
    from spans import Tracer
    from workloads import PLAIN_API, Tally, traced_api

    tally = Tally()
    tracer = Tracer()
    work = out_dir / f"work-{os.getpid()}"
    workload = cls(ROOT, seed, sizes, work, tally)
    result = {"workload": cls.name, "why": cls.why, "seed": seed, "seconds": seconds, "sizes": sizes}

    def api_for(traced: bool):
        return traced_api(tracer) if traced else nullcontext(PLAIN_API)

    try:
        setup_times = []
        for k in range(setups):
            tracer.pass_id = f"s{k}"
            with api_for(traced_run) as api:
                t0 = clock()
                workload.setup(api)
                setup_times.append(clock() - t0)
            workload.check_setup()
        interp = []
        if traced_run and cls.name == "cli_pipeline":
            interp = [workload.launch_probe("pass") for _ in range(INTERP_PROBES)]

        # Passes alternate untraced and traced in a traced run, so the
        # tracing overhead is measured under the same conditions.
        passes = {False: [], True: []}
        pass_ids = []
        spent = []
        start = clock()
        while True:
            traced = traced_run and len(spent) % 2 == 1
            tracer.pass_id = f"p{len(spent)}"
            t0 = clock()
            try:
                with api_for(traced) as api:
                    passes[traced].append(workload.run_pass(api, tracer if traced else None))
                if traced:
                    pass_ids.append(tracer.pass_id)
            except Exception:
                traceback.print_exc()
                tally.check("pass completes", False)
            spent.append(clock() - t0)
            minimum = 2 if traced_run else 1
            if len(spent) >= minimum and clock() - start + statistics.median(spent) > seconds:
                break

        quality = workload.quality()
        counts = workload.counts()
    except Exception:
        traceback.print_exc()
        tally.check("run completes", False)
        result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures, metrics={})
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = passes[False]
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": workload.peak_rss_mb(),
        "fail_frac": tally.failed / max(tally.attempted, 1),
        **quality,
    }
    for key in untraced[0] if untraced else ():
        values[key] = statistics.median(p[key] for p in untraced)
    if traced_run:
        values.update(layer_metrics(tracer, pass_ids, setups, counts, interp, workload))
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        tracer.dump(out_dir / f"spans-{cls.name}-seed{seed}.json")
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        passes={"untraced": len(untraced), "traced": len(passes[True])},
        setup_times=setup_times,
        pass_values=untraced,
        outputs=workload.outputs(),
        metrics=values,
    )
    return result


def layer_metrics(tracer, pass_ids: list[str], setups: int, counts: dict, interp: list[float],
                  workload) -> dict:
    """Per-layer metrics from the spans of the traced passes: for each pass,
    time per public function, self time per layer and the unaccounted rest;
    the median over passes is reported. A function the workload calls only
    in set-up (build_tree and sample_gaussian in cond_sweep) is reported per
    set-up instead."""
    from metrics import LAYERS
    from spans import layer_of, self_times

    interp_s = statistics.median(interp) if interp else 0.0
    by_pass = defaultdict(list)
    for record in tracer.spans:
        by_pass[record["pass"]].append(record)

    def per_unit(unit_spans):
        own = self_times(unit_spans)
        names = {s["id"]: s["name"] for s in unit_spans}
        u = defaultdict(float)
        finds, overheads, steps = [], [], 0
        for s in unit_spans:
            name, dur = s["name"], s["end"] - s["start"]
            u["t:" + name] += dur
            u["b:" + name] += s["attrs"].get("bytes", 0)
            if name == "bench.op":
                u["wall"] += dur
                u["unaccounted"] += own[s["id"]]
            elif name == "cli.import":
                u["import"] += dur
                u["imports"] += 1
                u["scipy_modules"] = s["attrs"]["scipy_modules"]
            else:
                u["self:" + layer_of(name)] += own[s["id"]]
            if name.startswith("cli.step."):
                steps += 1
            if name == "sampling.find_conditioned_leaves" and names.get(s["parent"]) == "sampling.sample_conditional":
                finds.append(dur)
            if name == "sampling.sample_conditional":  # its only child span is the search
                overheads.append(own[s["id"]])
        u["self:cli"] -= steps * interp_s
        u["interp"] = steps * interp_s
        u["accounted"] = sum(u["self:" + layer] for layer in LAYERS) + u["import"] + u["interp"]
        u["find_p50"] = statistics.median(finds) if finds else 0.0
        u["overhead_p50"] = statistics.median(overheads) if overheads else 0.0
        return u

    def within_ops(unit_spans):
        """Spans of the timed operations; drops those the untimed checks made."""
        kept = set()
        for s in unit_spans:  # parents precede their children
            if s["name"] == "bench.op" or s["parent"] in kept:
                kept.add(s["id"])
        return [s for s in unit_spans if s["id"] in kept]

    passes = [per_unit(within_ops(by_pass[p])) for p in pass_ids]
    setup_units = [per_unit(by_pass[f"s{k}"]) for k in range(setups)]

    def med(key, units=passes):
        return statistics.median(u[key] for u in units) if units else 0.0

    def fn_time(name):
        """Time in one function per pass, or per set-up if no pass calls it."""
        key = "t:" + name
        return med(key) if med(key) > 0.0 else med(key, setup_units)

    def rate(num, den):
        return num / den if den > 0.0 else 0.0

    build_s = fn_time("build.build_tree")
    density_s = fn_time("core.det_density_many")
    uncond_s = fn_time("sampling.sample_unconditional")
    read_csv_s, write_csv_s = fn_time("io.read_csv"), fn_time("io.write_csv")
    read_bytes, write_bytes = med("b:io.read_csv"), med("b:io.write_csv")
    values = {
        "cli.interp_s": interp_s,
        "cli.import_s": rate(med("import"), med("imports")),
        "cli.scipy_modules": med("scipy_modules"),
        "io.read_csv_s": read_csv_s,
        "io.write_csv_s": write_csv_s,
        "io.read_csv_mb_s": rate(read_bytes / 1e6, read_csv_s),
        "io.write_csv_mb_s": rate(write_bytes / 1e6, write_csv_s),
        "io.csv_bytes": read_bytes + write_bytes,
        "io.write_tree_s": fn_time("io.write_tree"),
        "io.read_tree_s": fn_time("io.read_tree"),
        "io.tree_bytes": med("b:io.write_tree"),
        "build.build_tree_s": build_s,
        "build.ns_per_point_visit": rate(build_s * 1e9, counts.get("build.point_visits", 0)),
        "core.det_density_many_s": density_s,
        "core.density_ns_per_pt": rate(density_s * 1e9, workload.density_points()),
        "core.validate_tree_s": fn_time("core.validate_tree"),
        "sampling.sample_unconditional_s": uncond_s,
        "sampling.uncond_ns_per_sample": rate(uncond_s * 1e9, workload.sizes.get("draws", 0)),
        "sampling.find_us_p50": med("find_p50") * 1e6,
        "sampling.cond_overhead_us_p50": med("overhead_p50") * 1e6,
        "reference.sample_gaussian_s": fn_time("reference.sample_gaussian"),
        "trace.wall_s": med("wall"),
        "trace.unaccounted_s": med("unaccounted"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = med("self:" + layer)
    for key in ("build.nodes", "build.leaves", "build.max_depth", "build.empty_leaf_frac", "build.point_visits",
                "sampling.nodes_visited_per_query", "sampling.leaves_per_query", "sampling.prune_ratio"):
        values[key] = counts.get(key, 0)
    values["trace.accounted_s"] = med("accounted")
    return values


def provenance(seed: int, traced: bool, sizes: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain checkout must not pick up an enclosing repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dettree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": _last_level_cache(),
        "seed": seed,
        "traced": traced,
        "thread_env": THREAD_ENV,
        "input_sizes": sizes,
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def print_report(result: dict, metrics, traced: bool) -> None:
    name = result["workload"]
    prov = result.get("provenance", {})
    print(f"== {name}: {result['why']}")
    print(f"   seed {result['seed']}, inputs {result['sizes']}, passes {result.get('passes')}")
    print(f"   commit {prov.get('git_commit')} src {str(prov.get('src_sha256'))[:16]} "
          f"python {prov.get('python')} numpy {prov.get('numpy')} scipy {prov.get('scipy')} "
          f"nproc {prov.get('nproc')} cpu {prov.get('cpu_model')!r} llc {prov.get('llc')} "
          f"threads {prov.get('thread_env')}")
    values = result["metrics"]
    shown = [m for m in metrics.GATED + metrics.REPORTED if name in m.workloads]
    if traced:
        shown += list(metrics.PER_LAYER)
    for m in shown:
        if m.name in values:
            tag = f"bound {m.bound}" if m.bound is not None else ""
            print(f"   {m.name:34s} {values[m.name]:>16.6g} {m.unit:6s} {m.better:6s} {tag}")
    if traced and "trace.accounted_s" in values:
        print(f"   accounting: traced wall {values['trace.wall_s']:.4f} s = layer self times, CLI imports "
              f"and interpreter floor {values['trace.accounted_s']:.4f} s "
              f"+ unaccounted {values['trace.unaccounted_s']:.4f} s; "
              f"tracing overhead {values['trace.overhead_s']:+.4f} s")
    for output, digest in result.get("outputs", {}).items():
        print(f"   sha256 {output}: {digest}")
    print(f"   checks: {result['attempted']} attempted, {result['failed']} failed {result['failures'] or ''}")


if __name__ == "__main__":
    sys.exit(main())
