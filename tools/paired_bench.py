"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/paired_bench.py --base HEAD~1 --workload fit_resample --seeds 201-210
    python3 tools/paired_bench.py --smoke --base HEAD

The base side is a ``git worktree`` of ``--base`` in a temporary directory,
removed at exit; the change side is the checkout that holds this script.
For each seed both sides run ``bench/run.py --workload W --seed N --seconds S
--trace 0``, and the side that runs first alternates from pair to pair. The
script prints every pair, each side's quartiles per gated metric of
BENCHMARK.json, the change's wins, and whether a gain can be claimed: at
least nine tenths of at least ten pairs won (ties count for neither) and a
median gap, in the better direction, larger than the base's interquartile
range. It exits 1 if a run fails.

``--smoke`` runs ``bench/run.py --smoke`` once on each side instead and
exits 1 if an output hash, an exact count, ``fit_ise`` or ``cond_ks``
differs between the sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# metrics of a smoke run that must repeat bit for bit on both sides, besides the exact counts
SMOKE_QUALITY = ("fit_ise", "cond_ks")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    parser.add_argument("--workload", default="fit_resample", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="seeds as FIRST-LAST or comma-separated (default 1-10)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]), help="measuring time per run")
    parser.add_argument("--smoke", action="store_true", help="compare the outputs of one smoke run per side")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    with tempfile.TemporaryDirectory(prefix="paired_bench-") as tmp:
        base = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base), args.base)
        try:
            if args.smoke:
                return compare_smoke(base, ROOT)
            return paired_runs(base, ROOT, args.workload, seeds, args.seconds, spec["end_to_end"])
        finally:
            git("worktree", "remove", "--force", str(base))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True)


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


def paired_runs(base: Path, change: Path, workload: str, seeds: list[int], seconds: float, gated: list) -> int:
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

    print(f"\n{workload}: {len(seeds)} pairs, base {base_label(base)} against the working tree")
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
              f"median change {100.0 * (cq[1] - bq[1]) / bq[1]:+.1f}%; gain claimable: {'yes' if holds else 'no'}")
    return 0 if ok else 1


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(q) -> str:
    return "/".join(f"{x:.6g}" for x in q)


def base_label(base: Path) -> str:
    return subprocess.run(["git", "-C", str(base), "rev-parse", "--short", "HEAD"], capture_output=True,
                          text=True).stdout.strip()


def compare_smoke(base: Path, change: Path) -> int:
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
    for workload in metrics.ALL:
        for name in metrics.EXACT_COUNTS + SMOKE_QUALITY:
            key = f"{workload}:{name}"
            b, c = (records[side]["metrics"].get(key, {}).get("value") for side in ("base", "change"))
            if b != c:
                differ.append(f"{key}: {b} -> {c}")
        b, c = (records[side]["outputs"][workload] for side in ("base", "change"))
        differ += [f"{workload} sha256 {name}: {b.get(name)} -> {c.get(name)}"
                   for name in sorted(set(b) | set(c)) if b.get(name) != c.get(name)]
    print(f"smoke outputs, base {base_label(base)} against the working tree: "
          f"{'identical' if not differ else f'{len(differ)} differ'}")
    for line in differ:
        print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
