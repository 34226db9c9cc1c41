"""Out-of-process span recorder and the per-layer metrics derived from it.

The recorder wraps public functions of the ``truncshor`` modules from
outside the package: every module namespace that binds a listed function
gets the wrapper, so calls through re-exports (``shor.analyze_measurement``,
``cli.tries_until_factor``) are caught too. Spans stay in memory and are
written as JSON-lines when the traced process ends. Size counters are
computed from kept return values at that point, outside every timed span.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs to wrap; the span name is "<module>.<function>".
TRACED = {
    "modmath": ["build_orbit", "cycle_decomposition", "analyze_measurement"],
    "synth": ["synth_all_powers", "synth_me_operator", "synth_level", "minimize_controls"],
    "circuit": [
        "apply_to_basis_array", "permutation_table", "lower_negative_controls", "to_json",
    ],
    "qasm": ["to_qasm3"],
    "shor": ["work_images", "exact_distribution", "sample", "histogram_csv"],
    "experiments": [
        "resolution_study", "truncation_sweep", "tries_until_factor", "peak_presence",
        "study_csv", "study_json",
    ],
    "cli": ["cmd_orbit", "cmd_synth", "cmd_run", "cmd_factor", "cmd_study"],
}

# Return values kept until exit, for the size counters.
_KEEP_RESULT = {
    "synth.synth_all_powers",
    "synth.synth_me_operator",
    "shor.work_images",
    "experiments.tries_until_factor",
}


def _attrs(name, result) -> dict:
    if name == "synth.synth_me_operator":
        return {"gates": result.gate_count()}
    if name == "synth.synth_all_powers":
        return {"powers": len(result)}
    if name == "shor.work_images":
        return {"distinct": int(len(np.unique(result))), "M": int(len(result))}
    if name == "experiments.tries_until_factor":
        return {"tries": result.tries, "capped": bool(result.capped)}
    return {}


class Recorder:
    """Records (id, parent, name, start_ns, end_ns) for each wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.results: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, results, stack = self.spans, self.results, self._stack
        clock = time.perf_counter_ns
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else -1, name, clock(), 0]
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep:
                results[span_id] = result
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every truncshor namespace that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "truncshor" or n.startswith("truncshor.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"truncshor.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                rec = {"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                if span_id in self.results:
                    rec["attrs"] = _attrs(name, self.results[span_id])
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self time of a span is its duration minus the durations of its direct
    children; wrapped calls nest strictly, so children never overlap.
    """
    by_id = {s["id"]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s["name"]] += 1
        self_ns[s["name"]] += s["end_ns"] - s["start_ns"] - child_ns[s["id"]]

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in spans if s["name"] == name)

    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        out[f"{layer}.self_s"] = sum(self_ns[f"{layer}.{f}"] for f in names) / 1e9
        for f in names:
            out[f"{layer}.{f}.calls"] = calls[f"{layer}.{f}"]
            out[f"{layer}.{f}.self_s"] = self_ns[f"{layer}.{f}"] / 1e9

    # Powers requested: m per synth_all_powers call, plus one certificate
    # per power that cmd_synth writes. Distinct circuits: synth_me_operator calls.
    cert_in_synth_cmd = sum(
        1 for s in spans
        if s["name"] == "circuit.permutation_table"
        and s["parent"] >= 0 and by_id[s["parent"]]["name"] == "cli.cmd_synth"
    )
    requested = attr_sum("synth.synth_all_powers", "powers") + cert_in_synth_cmd
    distinct = calls["synth.synth_me_operator"]
    out["synth.gates"] = attr_sum("synth.synth_me_operator", "gates")
    out["synth.share_ratio"] = distinct / requested if requested else 0.0

    images = [s["attrs"] for s in spans if s["name"] == "shor.work_images"]
    out["shor.distinct_images"] = sum(a["distinct"] for a in images)
    out["shor.fft_bytes_computed"] = sum(a["distinct"] * a["M"] * 16 for a in images)

    outcomes = [s["attrs"] for s in spans if s["name"] == "experiments.tries_until_factor"]
    draws = sum(a["tries"] for a in outcomes)
    out["experiments.draws"] = draws
    out["experiments.success_ratio"] = (
        sum(1 for a in outcomes if not a["capped"]) / draws if draws else 0.0
    )
    out["trace.spans"] = len(spans)
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
