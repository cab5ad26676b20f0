"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/paired_bench.py --base HEAD~1 --workload fit_resample --seeds 201-210
    python3 tools/paired_bench.py --base HEAD~1 --workload all --seeds 201-210
    python3 tools/paired_bench.py --smoke --base HEAD

The base side is the committed files of ``--base`` (``git archive``),
unpacked in a temporary directory that is removed at exit; the change side
is the checkout that holds this script. ``--workload`` takes one workload, a
comma-separated list or ``all``. For each workload in turn and each seed,
both sides run ``bench/run.py --workload W --seed N --seconds S --trace 0``,
and the side that runs first alternates from pair to pair. The script
prints one block per workload: every pair, each side's quartiles per gated
metric of BENCHMARK.json, the change's wins, and whether a gain can be
claimed: at least nine tenths of at least ten pairs won (ties count for
neither) and a median gap, in the better direction, larger than the base's
interquartile range. Next to it stands a regression verdict against the
metric's BENCHMARK.json bound, a fraction of the base median: "worse" where
the change's median is worse than the base median by more than the bound,
"unresolved" where the base's interquartile range exceeds the bound (unless
every change run beats every base run), and "no worse" otherwise. It exits 1
if a run fails.

``--smoke`` runs ``bench/run.py --smoke`` once on each side instead, and
one fresh process per side that hashes reference draws across block
boundaries and a tree's faces, densities and conditional draws made by
that side's library (``LIBRARY_DIGEST``), which the benchmark does not hash.
It exits 1 if an output hash, an exact count, ``fit_ise``, ``cond_ks`` or
that digest differs between the sides. It also prints each side's
simplicity surface (``simplicity_surface``), for information only: the
surface does not change the exit code.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# metrics of a smoke run that must repeat bit for bit on both sides, besides the exact counts
SMOKE_QUALITY = ("fit_ise", "cond_ks")
# Builds ``tree`` from ``data``, 10^4 draws of the README Gaussian, through the public API.
LIBRARY_TREE = """
import numpy as np
import dettree as dt
cov = np.array([[0.35, 0.25, 0.5], [0.25, 0.4, 0.6], [0.5, 0.6, 1.0]])
data = dt.sample_gaussian(dt.GaussianSpec(mu=np.zeros(3), cov=cov), 7, 10_000)
tree = dt.build_tree(dt.Ensemble(data), dt.BuildConfig())
"""

# Prints a SHA-256 of a Gaussian and a Dirichlet draw of 2 * 8,192 + 1 rows
# each, which cross the reference generators' blocks of 8,192 rows and end
# on a lone row, then of that tree's node boxes (every face and the root's
# upper corner), the density at 10^4 unconditional draws, and the README's
# conditional sequence (search, marginal estimate, conditional draw) for 50
# conditions on x3 and 50 on x1 and x3, 1,000 draws each.
LIBRARY_DIGEST = LIBRARY_TREE + """
import hashlib
rows = np.random.default_rng(8).integers(data.shape[0], size=100)
digest = hashlib.sha256(dt.sample_gaussian(dt.GaussianSpec(mu=np.ones(3), cov=cov), 10, 2 * 8192 + 1).tobytes())
digest.update(dt.sample_dirichlet(dt.DirichletSpec(alpha=np.array([1.25, 2.0, 0.75])), 11, 2 * 8192 + 1).tobytes())
digest.update(tree.lower.tobytes() + tree.upper.tobytes())
digest.update(dt.det_density_many(tree, dt.sample_unconditional(tree, 9, 10_000)).tobytes())
for i, r in enumerate(rows.tolist()):
    cond = dt.Condition([(2, data[r, 2])] if i < 50 else [(0, data[r, 0]), (2, data[r, 2])])
    found = dt.find_conditioned_leaves(tree, cond)
    digest.update(found.leaves.astype(np.int64).tobytes() + found.weights.tobytes() + np.float64(found.total).tobytes())
    digest.update(dt.sample_conditional(tree, cond, 100 + i, 1000).tobytes())
print(digest.hexdigest())
"""

# Prints [len(dettree.__all__), number of BuildConfig fields, bytes of the
# LIBRARY_TREE tree's derived tables (None where the tree has none)].
SURFACE = LIBRARY_TREE + """
import dataclasses, json
tables = getattr(tree, "_tables", None)
table_bytes = None if tables is None else sum(a.nbytes for a in tables)
print(json.dumps([len(dt.__all__), len(dataclasses.fields(dt.BuildConfig)), table_bytes]))
"""

def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    parser.add_argument("--workload", default="fit_resample",
                        help=f"one of {', '.join(names)}, a comma-separated list, or all (default fit_resample)")
    parser.add_argument("--seeds", default="1-10", help="seeds as FIRST-LAST or comma-separated (default 1-10)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]), help="measuring time per run")
    parser.add_argument("--smoke", action="store_true", help="compare the outputs of one smoke run per side")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = names if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(names)} or all")

    label = git("rev-parse", "--short", args.base).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="paired_bench-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=git("archive", args.base, text=False).stdout, check=True)
        if args.smoke:
            return compare_smoke(base, ROOT, label)
        failed = 0
        for k, workload in enumerate(workloads):
            print("\n" * (k > 0) + f"== {workload}", flush=True)
            failed |= paired_runs(base, ROOT, label, workload, seeds, args.seconds, spec["end_to_end"])
        return failed


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def git(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=text)


def run_bench(checkout: Path, *args: str) -> tuple[bool, dict]:
    """One ``bench/run.py`` process in ``checkout``: whether every operation
    and check succeeded, and its last line."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return False, {}
    return proc.returncode == 0 and last.get("correct") is True, last


def paired_runs(base: Path, change: Path, label: str, workload: str, seeds: list[int], seconds: float,
                gated: list) -> int:
    sides = {"base": base, "change": change}
    values = {side: {m["name"]: [] for m in gated} for side in sides}
    ok = True
    for k, seed in enumerate(seeds):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        line = []
        for side in order:
            good, last = run_bench(sides[side], "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0")
            ok &= good
            for m in gated:
                values[side][m["name"]].append(last.get("metrics", {}).get(m["name"], {}).get("value", float("nan")))
            line.append(f"{side}{'' if good else ' FAILED'}")
        cells = [f"{m['name']} {values['base'][m['name']][-1]:.6g} -> {values['change'][m['name']][-1]:.6g}"
                 for m in gated]
        print(f"pair {k + 1} seed {seed} ({' first, '.join(line)} second): {'; '.join(cells)}", flush=True)

    print(f"\n{workload}: {len(seeds)} pairs, base {label} against the working tree")
    for m in gated:
        name, lower_better = m["name"], m["better"] == "lower"
        b, c = values["base"][name], values["change"][name]
        wins = sum((after < before) if lower_better else (after > before) for before, after in zip(b, c))
        bq, cq = quartiles(b), quartiles(c)
        gap = (bq[1] - cq[1]) if lower_better else (cq[1] - bq[1])
        iqr = bq[2] - bq[0]
        holds = len(b) >= 10 and wins >= 0.9 * len(b) and gap > iqr
        print(f"  {name:12s} base q1/med/q3 {fmt(bq)}  change {fmt(cq)}  {m['unit']}; "
              f"change wins {wins}/{len(b)}, median gap {gap:+.6g} vs base IQR {iqr:.6g}, "
              f"median change {100.0 * (cq[1] - bq[1]) / bq[1]:+.1f}%; gain claimable: {'yes' if holds else 'no'}; "
              f"regression: {regression_verdict(b, c, lower_better, m['bound'])} "
              f"(bound {100.0 * m['bound']:.0f}%, base IQR {100.0 * iqr / abs(bq[1]):.1f}% of its median)")
    return 0 if ok else 1


def regression_verdict(base: list[float], change: list[float], lower_better: bool, bound: float) -> str:
    """"no worse", "worse" or "unresolved" for one gated metric: the change's
    median against the base median, with ``bound`` a fraction of the base
    median; unresolved where the base's interquartile range exceeds the bound,
    unless every change run beats every base run."""
    (b1, b_med, b3), c_med = quartiles(base), quartiles(change)[1]
    if (max(change) < min(base)) if lower_better else (min(change) > max(base)):
        return "no worse"
    if b3 - b1 > bound * abs(b_med):
        return "unresolved"
    worse_by = (c_med - b_med) if lower_better else (b_med - c_med)
    return "worse" if worse_by > bound * abs(b_med) else "no worse"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(q) -> str:
    return "/".join(f"{x:.6g}" for x in q)


def compare_smoke(base: Path, change: Path, label: str) -> int:
    """Smoke runs on both sides; 1 if an output or exact metric differs."""
    sys.path.insert(0, str(change / "bench"))
    import metrics

    records = {}
    for side, checkout in (("base", base), ("change", change)):
        good, last = run_bench(checkout, "--smoke")
        if not good:
            print(f"{side}: the smoke run failed")
            return 1
        records[side] = {
            "metrics": last["metrics"],
            "outputs": {w: json.loads((checkout / ".bench_out" / f"{w}-seed1-trace1-smoke.json").read_text())
                        .get("outputs", {}) for w in metrics.ALL},
        }
    differ = []
    digests = [library_digest(checkout) for checkout in (base, change)]
    if "failed" in digests or digests[0] != digests[1]:
        differ.append(f"library sha256: {digests[0]} -> {digests[1]}")
    for workload in metrics.ALL:
        for name in metrics.EXACT_COUNTS + SMOKE_QUALITY:
            key = f"{workload}:{name}"
            b, c = (records[side]["metrics"].get(key, {}).get("value") for side in ("base", "change"))
            if b != c:
                differ.append(f"{key}: {b} -> {c}")
        b, c = (records[side]["outputs"][workload] for side in ("base", "change"))
        differ += [f"{workload} sha256 {name}: {b.get(name)} -> {c.get(name)}"
                   for name in sorted(set(b) | set(c)) if b.get(name) != c.get(name)]
    print(f"smoke outputs, base {label} against the working tree: "
          f"{'identical' if not differ else f'{len(differ)} differ'}")
    for line in differ:
        print(f"  {line}")
    for side, checkout in (("base", base), ("change", change)):
        print(f"simplicity surface, {side}: {format_surface(simplicity_surface(checkout))}")
    return 1 if differ else 0


def simplicity_surface(checkout: Path) -> dict:
    """The size of ``checkout``'s library: the lines of ``src/dettree``
    (as ``wc -l`` counts them), the names in ``dettree.__all__``, the
    ``add_argument`` calls in ``cli.py``, the ``BuildConfig`` fields and the
    bytes of the derived tables (``DetTree._tables``) of the
    ``LIBRARY_TREE`` tree. The names, the fields and the bytes are counted in
    a fresh process on that side's library, and are None where it fails."""
    src = checkout / "src" / "dettree"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    arguments = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument" for node in ast.walk(ast.parse((src / "cli.py").read_text())))
    proc = run_library(checkout, SURFACE)
    exported, fields, table_bytes = json.loads(proc.stdout) if proc.returncode == 0 else (None, None, None)
    return {"src/dettree lines": lines, "dettree.__all__ names": exported, "cli.py add_argument calls": arguments,
            "BuildConfig fields": fields, "derived table bytes": table_bytes}


def format_surface(surface: dict) -> str:
    return ", ".join(f"{name} {value}" for name, value in surface.items())


def run_library(checkout: Path, code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh process on ``checkout``'s library."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def library_digest(checkout: Path) -> str:
    """``LIBRARY_DIGEST`` run in a fresh process on ``checkout``'s library."""
    proc = run_library(checkout, LIBRARY_DIGEST)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return "failed"
    return proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(main())
