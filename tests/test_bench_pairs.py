"""The pair summary of scripts/bench_pairs.py, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(workload, seed, side, wall=None, rss=None, failed=0, attempted=4, correct=True):
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit in (("wall_s", wall, "s"), ("peak_rss_mb", rss, "MiB"))
               if value is not None}
    return {"first": bench_pairs.order(seed)[0], "side": side, "workload": workload, "seed": seed,
            "trace": 0, "returncode": 0 if metrics else 2, "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def test_order_puts_the_parent_first_on_even_seeds():
    assert [bench_pairs.order(s) for s in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")
    ]


def test_summarize_compares_pairs_by_seed():
    walls = {"parent": [0.20, 0.16, 0.18, 0.17, 0.30], "change": [0.15, 0.17, 0.12, 0.14, 0.10]}
    runs = [_run("synth", seed, side, wall=walls[side][seed], rss=33.0)
            for seed in range(5) for side in bench_pairs.order(seed)]
    # a change run that failed to report: its pair counts for neither side's statistics
    runs += [_run("synth", 5, "parent", wall=9.0, rss=33.0), _run("synth", 5, "change", correct=False)]
    runs += [_run("wide", 0, side, wall=1.0, rss=70.0, failed=int(side == "change"))
             for side in bench_pairs.SIDES]
    summary = bench_pairs.summarize(runs, ["wall_s", "peak_rss_mb", "setup_s"])

    assert list(summary) == ["synth", "wide"]
    wall = summary["synth"]["wall_s"]
    assert wall["parent"] == pytest.approx({"median": 0.18, "q1": 0.17, "q3": 0.20, "n": 5})
    assert wall["change"] == pytest.approx({"median": 0.14, "q1": 0.12, "q3": 0.15, "n": 5})
    assert wall["median_change_over_parent"] == pytest.approx(0.14 / 0.18 - 1)
    assert (wall["change_lower_in_pairs"], wall["change_higher_in_pairs"], wall["pairs"]) == (4, 1, 5)
    rss = summary["synth"]["peak_rss_mb"]
    assert (rss["change_lower_in_pairs"], rss["change_higher_in_pairs"], rss["pairs"]) == (0, 0, 5)
    assert "setup_s" not in summary["synth"]  # no run reported it
    assert summary["synth"]["attempted"] == {"parent": 24, "change": 24}
    assert summary["synth"]["failed"] == {"parent": 0, "change": 0}
    assert summary["synth"]["correct"] == {"parent": True, "change": False}

    wide = summary["wide"]
    assert wide["wall_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
    assert wide["failed"] == {"parent": 0, "change": 1}
