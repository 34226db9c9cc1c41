"""One ``truncshor.cli`` command in a fresh child interpreter, measured by ``os.wait4``.

``scripts/mem_curve.py`` and ``scripts/study_budget.py`` import ``run`` from
here; it runs the child on this checkout's ``src``, ahead of any PYTHONPATH
already set.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv: list[str]) -> tuple[float, resource.struct_rusage]:
    """Wall seconds and the child's resource usage of ``python -m truncshor.cli --quiet *argv``.

    The child's stdout is discarded. A nonzero exit raises SystemExit naming the command.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "truncshor.cli", "--quiet", *argv], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    return wall, usage
