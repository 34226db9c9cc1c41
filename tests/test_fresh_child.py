"""The fresh-child runner that scripts/mem_curve.py and scripts/study_budget.py measure with."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "fresh_child.py"
_SPEC = importlib.util.spec_from_file_location("fresh_child", _PATH)
fresh_child = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fresh_child)


def test_run_measures_one_child():
    wall, usage = fresh_child.run(["orbit", "--N", "21", "--a", "2"])
    assert wall > 0 and usage.ru_maxrss > 0 and usage.ru_utime > 0


def test_a_failing_child_names_its_command():
    with pytest.raises(SystemExit, match="^orbit --N 20 --a 3 exited 2$"):
        fresh_child.run(["orbit", "--N", "20", "--a", "3"])
