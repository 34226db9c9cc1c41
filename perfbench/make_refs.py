"""Write refs.json: the SHA-256 of every output file of every workload invocation.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

References freeze the outputs of the commit that defined the benchmark.
Run this only on that commit's sources: regenerating them on a later
commit would hide any change in what the program computes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    refs: dict[str, dict[str, str]] = {}
    with run.work_dir("refs") as work:
        runner = run.Runner(work, deadline=time.monotonic() + 3600)
        for name in workloads.WORKLOADS:
            for seed in workloads.SEED_POOL:
                for cli_args in workloads.invocations(name, seed):
                    key = " ".join(cli_args)
                    if key in refs:
                        continue
                    t0 = time.monotonic()
                    res = runner.spawn(cli_args)
                    if "error" in res or res["status"] != 0:
                        print(f"{key}: {res.get('error') or res['status']}", file=sys.stderr)
                        return 1
                    refs[key] = run.digest(res["dir"] / "out")
                    shutil.rmtree(res["dir"])
                    print(f"{time.monotonic() - t0:6.1f} s  {key}", flush=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
