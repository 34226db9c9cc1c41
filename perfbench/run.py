"""truncshor benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

Each CLI invocation of a workload pass runs in a fresh child interpreter
(``child.py``), one child at a time. The outputs of untraced and traced
passes alike are compared byte for byte (by SHA-256) with ``refs.json``,
so tracing cannot change them unnoticed. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` from untraced passes. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
taken from spans that ``spans.py`` records around calls into each module.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one CLI invocation; it fails if it raises, exits with a code other than
0 or 3, or writes output that differs from the references.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFS = HERE / "refs.json"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 8  # import-only children per run, besides one per invocation
MIN_PASSES = 2  # untraced passes per --trace 0 run, even past --seconds
RUN_LIMIT_S = 165  # no child is started or kept running past this point
# The program does no linear algebra; a single BLAS thread keeps numpy's
# import from starting idle threads that compete for the two cores. A fixed
# hash seed gives every child the same str hashing, so passes do equal work.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 PYTHONHASHSEED="0")
OK_STATUS = (0, 3)  # 3: no factors within the retry cap, a valid outcome


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, spec or references)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def check_layout() -> None:
    if not (SRC / "truncshor" / "cli.py").is_file():
        raise BenchError(f"no truncshor sources under {SRC}")
    if not REFS.is_file():
        raise BenchError(f"{REFS} not found")


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under WORK, removed on exit together with WORK once empty."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file an invocation left in its output directory."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class Runner:
    """Spawns children one at a time under a deadline, inside one work directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, cli_args: list[str], traced: bool = False) -> dict:
        """Run one child; returns its result with setup_s, or an "error" entry."""
        self.count += 1
        tag = self.work / f"c{self.count}"
        out = tag / "out"
        out.mkdir(parents=True)
        result_path, spans_path = tag / "result.json", tag / "spans.jsonl"
        argv = [sys.executable, str(CHILD), str(SRC), str(result_path),
                str(spans_path) if traced else "-", *cli_args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "run time limit reached", "dir": tag}
        with open(tag / "stdout.txt", "wb") as so, open(tag / "stderr.txt", "wb") as se:
            start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(argv, cwd=out, stdout=so, stderr=se, env=CHILD_ENV)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"error": "timed out", "dir": tag}
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or not result_path.is_file():
            err = (tag / "stderr.txt").read_text(errors="replace").strip().splitlines()
            return {"error": f"child exited {code}: {err[-1] if err else ''}", "dir": tag}
        res = json.loads(result_path.read_text())
        res["setup_s"] = (res["import_done_ns"] - start_ns) / 1e9
        res["dir"] = tag
        if not Path(res["module_file"]).resolve().is_relative_to(SRC.resolve()):
            res["error"] = f"imported truncshor from {res['module_file']}, not {SRC}"
        if traced and "error" not in res:
            res["spans"] = spans.load(str(spans_path))
        return res


class Check:
    """Counts operations and failures; compares each output with the references."""

    def __init__(self, refs: dict) -> None:
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, cli_args: list[str], res: dict) -> None:
        self.attempted += 1
        key = " ".join(cli_args)
        problem = res.get("error")
        if problem is None and res["status"] not in OK_STATUS:
            problem = f"exit status {res['status']}"
        if problem is None and digest(res["dir"] / "out") != self.refs.get(key):
            problem = "output differs from the references"
        if problem is not None:
            self.failed += 1
            self.messages.append(f"{key}: {problem}")


def run_pass(runner: Runner, check: Check, invocations: list[list[str]], traced: bool) -> dict:
    """One workload pass: every invocation in its own child, in order."""
    t0 = time.monotonic()
    walls, cpus, rss, setups, pass_spans = [], [], [], [], []
    for cli_args in invocations:
        res = runner.spawn(cli_args, traced)
        check.record(cli_args, res)
        if "wall_s" in res:
            walls.append(res["wall_s"])
            cpus.append(res["cpu_s"])
            rss.append(res["maxrss_kb"] / 1024)
            setups.append(res["setup_s"])
        offset = len(pass_spans)  # span ids restart in every child
        for s in res.get("spans", []):
            s["id"] += offset
            if s["parent"] >= 0:
                s["parent"] += offset
            pass_spans.append(s)
        shutil.rmtree(res["dir"])
    complete = len(walls) == len(invocations)
    return {
        "wall_s": sum(walls) if complete else None,
        "cpu_s": sum(cpus) if complete else None,
        "rss_mb": max(rss) if complete else None,
        "setups": setups,
        "layers": spans.layer_metrics(pass_spans) if traced and complete else None,
        "elapsed": time.monotonic() - t0,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    invocations = workloads.invocations(workload, seed)
    start = time.monotonic()
    check = Check(refs)
    with work_dir(f"{workload}-{os.getpid()}") as work:
        runner = Runner(work, start + RUN_LIMIT_S)
        setups = []
        for i in range(1 + SETUP_SAMPLES):
            res = runner.spawn([])
            if "error" in res:
                raise BenchError(f"cannot import truncshor: {res['error']}")
            if i:  # the first import compiles bytecode and fills the file cache
                setups.append(res["setup_s"])
            shutil.rmtree(res["dir"])

        plain, traced = [], []
        while True:
            want_trace = trace and len(traced) < len(plain)
            p = run_pass(runner, check, invocations, want_trace)
            (traced if want_trace else plain).append(p)
            setups.extend(p["setups"])
            elapsed = time.monotonic() - start  # set-up counts against --seconds
            next_cost = p["elapsed"]
            enough = len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
            if time.monotonic() + next_cost > start + RUN_LIMIT_S:
                break
            if enough and elapsed + next_cost > seconds:
                break

    plain_walls = [p["wall_s"] for p in plain if p["wall_s"] is not None]
    layer_samples = [p["layers"] for p in traced if p["layers"] is not None]
    # Passes alternate untraced, traced: pair each traced pass with the
    # untraced one just before it, so slow drift of the machine cancels.
    overheads = [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)
                 if t["wall_s"] is not None and u["wall_s"] is not None]
    if not plain_walls or (trace and not overheads):
        raise BenchError("no pass completed: " + "; ".join(check.messages[:3]))
    q1, q3 = quartiles(plain_walls)
    out = {
        "wall_s": statistics.median(plain_walls),
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "wall_s_n": len(plain_walls),
        "wall_s_all": plain_walls,
        "cpu_s": statistics.median(p["cpu_s"] for p in plain if p["cpu_s"] is not None),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain if p["rss_mb"] is not None),
        "setup_s": statistics.median(setups),
        "setup_s_n": len(setups),
        "attempted": check.attempted,
        "failed": check.failed,
        "messages": check.messages,
    }
    if trace:
        out["layers"] = spans.median_metrics(layer_samples)
        out["layers"]["trace.overhead_s"] = statistics.median(overheads)
        out["traced_n"] = len(layer_samples)
    return out


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def provenance(driver_seed: int, workload_seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "truncshor").rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "driver_seed": driver_seed,
        "workload_seed": workload_seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        check_layout()
        refs = json.loads(REFS.read_text())
        wseed = workloads.workload_seed(args.seed)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        m = measure(args.workload, wseed, seconds, bool(args.trace), refs)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    fail_frac = m["failed"] / m["attempted"]
    print(f"workload {args.workload}, seed {args.seed} (workload seed {wseed}), trace {args.trace}")
    for msg in m["messages"]:
        print(f"FAILED {msg}")
    print(f"wall_s       {m['wall_s']:.4f} s  (q1 {m['wall_s_q1']:.4f}, q3 {m['wall_s_q3']:.4f}, "
          f"n {m['wall_s_n']})")
    print(f"peak_rss_mb  {m['peak_rss_mb']:.1f} MiB")
    print(f"setup_s      {m['setup_s']:.4f} s  (n {m['setup_s_n']})")
    print(f"fail_frac    {fail_frac:.4f}  ({m['failed']}/{m['attempted']} operations)")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = m["layers"] if args.trace else m
    if args.trace:
        for name in sorted(values):
            print(f"  {name:45s} {values[name]:.6g}")
        for row in workloads.LAYER_MAP:
            steady = f", not on {', '.join(row['steady'])}" if row["steady"] else ""
            print(f"  map: {', '.join(row['metrics'])} -> {row['moves']} on "
                  f"{', '.join(row['on'])}{steady}")
    detail = {k: v for k, v in m.items() if k not in ("layers", "messages")}
    detail["fail_frac"] = fail_frac
    detail["provenance"] = provenance(args.seed, wseed)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
