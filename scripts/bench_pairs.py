"""Alternating parent/change pairs of the benchmark, written as one ``BENCH_<n>.json`` file.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py PARENT CHANGE OUT

PARENT and CHANGE are git refs of this checkout. Each is extracted with
``git archive`` into a sibling directory of a temporary directory,
``parent`` and ``change``, whose paths have equal length. Then, for seeds
0-9 and seed by seed over the workloads of CHANGE's ``BENCHMARK.json``,
each tree runs ``perfbench/run.py --workload W --seed S --trace 0`` in
turn, with PYTHONDONTWRITEBYTECODE=1 so that every child compiles the
package; the parent runs first on even seeds, the change on odd ones, and
both sides of a pair use the same seed. OUT gets ``description``,
``summary`` (per workload and end-to-end metric: each side's median and
quartiles and how many pairs the change is lower or higher in) and
``runs`` (one record per run), and is rewritten after every pair.
``perfbench`` is only run, never imported. At a 30 s run length, one
seed's pairs of four workloads take 4-5 minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEEDS = 10  # pairs per workload


def order(seed: int) -> tuple[str, str]:
    """The sides of one pair in the order they run: the parent first on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def _stats(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1
              else values * 2)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: Sequence[dict], metrics: Sequence[str]) -> dict:
    """Per workload: for each metric, both sides' statistics over the pairs where both report it,
    the change's median relative to the parent's, and the pairs the change is lower or higher in;
    then each side's failed and attempted operations and whether all its runs were correct."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs: dict[int, dict[str, dict]] = {}
        for run in mine:
            pairs.setdefault(run["seed"], {})[run["side"]] = run
        entry = {}
        for name in metrics:
            both = [(pair["parent"]["metrics"][name]["value"], pair["change"]["metrics"][name]["value"])
                    for pair in pairs.values()
                    if all(name in pair.get(side, {}).get("metrics", {}) for side in SIDES)]
            if not both:
                continue
            parent, change = _stats([p for p, _ in both]), _stats([c for _, c in both])
            entry[name] = {
                "parent": parent,
                "change": change,
                "median_change_over_parent": change["median"] / parent["median"] - 1,
                "change_lower_in_pairs": sum(c < p for p, c in both),
                "change_higher_in_pairs": sum(c > p for p, c in both),
                "pairs": len(both),
            }
        for key in ("failed", "attempted"):
            entry[key] = {side: sum(run[key] for run in mine if run["side"] == side) for side in SIDES}
        entry["correct"] = {side: all(run["correct"] for run in mine if run["side"] == side)
                            for side in SIDES}
        summary[workload] = entry
    return summary


def extract(ref: str, into: Path) -> str:
    """``git archive`` ref into the directory; returns the commit it names."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return sha


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in the tree: its exit status and its last line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"returncode": proc.returncode, "correct": result.get("correct", False),
            "attempted": result.get("attempted", 0), "failed": result.get("failed", 0),
            "metrics": result.get("metrics", {}),
            **({} if result else {"stderr": proc.stderr.strip().splitlines()[-1:]})}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        shas = {side: extract(ref, trees[side]) for side, ref in zip(SIDES, (args.parent, args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = [m["name"] for m in spec["end_to_end"]]
        description = (
            f"Alternating parent ({shas['parent'][:7]}) / change ({shas['change'][:7]}) pairs of "
            f"`python3 perfbench/run.py --workload W --seed S --trace 0` (run length from BENCHMARK.json, "
            f"{spec['run_seconds']} s), made by scripts/bench_pairs.py. Each tree was extracted with "
            "`git archive` into its own directory of equal path length (`parent`, `change`) and run "
            "without bytecode caches (PYTHONDONTWRITEBYTECODE=1, so every child compiles the package); "
            "pairs alternate which side runs first (even seeds parent first) and both sides of a pair "
            f"use the same seed. {SEEDS} pairs (seeds 0-{SEEDS - 1}) of each of "
            f"{', '.join(workloads)}, run seed by seed over the workloads on a "
            f"{len(os.sched_getaffinity(0))}-CPU host "
            f"(Python {platform.python_version()}, numpy {version('numpy')}). Quartiles: "
            "statistics.quantiles(method='inclusive')."
        )
        runs: list[dict] = []
        for seed in range(SEEDS):
            for workload in workloads:
                for side in order(seed):
                    run = {"first": order(seed)[0], "side": side, "workload": workload, "seed": seed,
                           "trace": 0, **bench(trees[side], workload, seed)}
                    runs.append(run)
                    wall = run["metrics"].get("wall_s", {}).get("value")
                    print(f"seed {seed} {workload:10s} {side:6s} exit {run['returncode']} wall_s {wall}",
                          flush=True)
                out = {"description": description, "summary": summarize(runs, metrics), "runs": runs}
                args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
