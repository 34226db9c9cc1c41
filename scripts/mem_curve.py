"""Wall time, CPU time, peak RSS and minor faults of ``run`` against the control width m.

Usage (from the root of a checkout):

    python3 scripts/mem_curve.py

Runs ``run --N 4087 --a 3 --trnc-lv 50`` and ``run --N 1001 --a 2
--trnc-lv 10`` at m = 16..20, each writing its CSV with ``--out`` into a
temporary directory, one child interpreter at a time on this checkout's
``src`` (``scripts/fresh_child.py``). For each run it prints the wall time,
the child's own CPU seconds (``ru_utime + ru_stime`` from ``wait4``, all its
threads), peak RSS (``ru_maxrss``) and minor page faults (``ru_minflt``),
the CSV size, and then the peak RSS per control value. Memory that is mapped
and faulted in afresh on every call, such as FFT scratch, shows in the
faults. At m = 20 the runs take about half a minute and 170 MiB each; it is
not part of the tests.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import fresh_child

RUNS = (["--N", "4087", "--a", "3", "--trnc-lv", "50"],
        ["--N", "1001", "--a", "2", "--trnc-lv", "10"])
WIDTHS = range(16, 21)


def measure(args: list[str], out: Path) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MiB and minor faults of one ``truncshor run`` child."""
    wall, usage = fresh_child.run(["run", *args, "--out", str(out)])
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, usage.ru_minflt


def main() -> None:
    print("run                          m   wall s   CPU s  peak MiB   faults  CSV MiB  B per value")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "h.csv"
        for base in RUNS:
            for m in WIDTHS:
                wall, cpu, peak, faults = measure([*base, "--m", str(m)], out)
                size = out.stat().st_size / (1 << 20)
                out.unlink()
                label = f"N={base[1]} a={base[3]} trnc-lv={base[5]}"
                print(f"{label:<28} {m:2d} {wall:8.2f} {cpu:7.2f} {peak:9.1f} {faults:8d} {size:8.1f} "
                      f"{peak * (1 << 20) / (1 << m):12.0f}")


if __name__ == "__main__":
    main()
