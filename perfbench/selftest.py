"""Self-test of the output check behind fail_frac.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs one histogram pass (the cheapest workload) against the intact
references, then against references with one digest corrupted. The
first must record no failure, the second fail_frac > 0. Exits 0 when
both hold.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run
import workloads


def fail_frac(refs: dict, invocations: list[list[str]]) -> float:
    check = run.Check(refs)
    with run.work_dir("selftest") as work:
        run.run_pass(run.Runner(work, time.monotonic() + 170), check, invocations, traced=False)
    for msg in check.messages:
        print(f"  {msg}")
    return check.failed / check.attempted


def main() -> int:
    run.check_layout()
    refs = json.loads(run.REFS.read_text())
    invocations = workloads.invocations("histogram", workloads.SEED_POOL[0])
    key = " ".join(invocations[0])
    corrupted = copy.deepcopy(refs)
    fname = sorted(corrupted[key])[0]
    digest = corrupted[key][fname]
    corrupted[key][fname] = ("0" if digest[0] != "0" else "1") + digest[1:]

    intact = fail_frac(refs, invocations)
    print(f"intact references:    fail_frac {intact}")
    broken = fail_frac(corrupted, invocations)
    print(f"corrupted reference:  fail_frac {broken}")
    ok = intact == 0 and broken > 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
