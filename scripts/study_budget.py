"""Peak RSS of ``study`` against its iteration count: the slopes behind the study budget.

Usage (from the root of a checkout):

    python3 scripts/study_budget.py

Runs ``study --N 143 --a 5 --seed 1905`` at fixed points, one child
interpreter at a time on this checkout's ``src`` (``scripts/fresh_child.py``),
each writing its CSV and JSON with ``--out`` into a temporary directory: one
cell (``--m 8 --trnc 0``) at 150 and 100,000 iterations, and 40 cells
(``--m 8,10 --trnc 0:19``) at 3,000 and 30,000. For each run it prints the
wall time and the child's peak RSS (``ru_maxrss``). Each series gives a
slope, peak bytes per iteration; the line a + b * cells through the two
slopes gives the coefficients that ``cli._STUDY_BYTES_PER_IT`` (a) and
``cli._STUDY_BYTES_PER_CELL_IT`` (b) are set from, and the script prints
both. The 40-cell run at 30,000 iterations takes the longest, about 10 s;
it is not part of the tests.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import fresh_child

BASE = ["--N", "143", "--a", "5", "--seed", "1905"]
SERIES = ((1, ["--m", "8", "--trnc", "0"], (150, 100_000)),
          (40, ["--m", "8,10", "--trnc", "0:19"], (3_000, 30_000)))


def measure(args: list[str], out: Path) -> tuple[float, int]:
    """Wall seconds and peak RSS in bytes of one ``truncshor study`` child."""
    wall, usage = fresh_child.run(["study", *BASE, *args, "--out", str(out)])
    return wall, usage.ru_maxrss * 1024


def main() -> None:
    print("cells  iterations   wall s  peak MiB")
    slopes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cells, args, (low, high) in SERIES:
            peaks = []
            for num_it in (low, high):
                wall, peak = measure([*args, "--num-it", str(num_it)], Path(tmp) / "study.csv")
                peaks.append(peak)
                print(f"{cells:5d} {num_it:11,d} {wall:8.2f} {peak / (1 << 20):9.1f}")
            slopes[cells] = (peaks[1] - peaks[0]) / (high - low)
    per_cell = (slopes[40] - slopes[1]) / 39
    print(f"peak bytes per iteration: {slopes[1]:.0f} at one cell, {slopes[40]:.0f} at 40 cells")
    print(f"per iteration (a): {slopes[1] - per_cell:.0f}; per iteration and cell (b): {per_cell:.0f}")


if __name__ == "__main__":
    main()
