"""The public API surface, and the names the benchmark's span recorder wraps."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import truncshor

import oracles

# Test-only reference implementations: they live in tests/oracles.py, not in the library.
REFERENCES = {
    "circuit": [
        "DimensionMismatchError", "_apply_gate_dense", "apply_to_statevector",
        "concatenate_power", "restricted_equal",
    ],
    "shor": [
        "TooLargeError", "control_image", "analytic_amplitude", "eigenstate_vector",
        "run_shor_dense",
    ],
}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> dict:
    """``TRACED`` from perfbench/spans.py, read as a literal without importing the file."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED assignment in {SPANS}")


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in REFERENCES.items() for name in names]
)
def test_reference_implementations_are_test_side(layer, name):
    assert not hasattr(truncshor, name)
    assert not hasattr(importlib.import_module(f"truncshor.{layer}"), name)
    assert callable(getattr(oracles, name))


def test_phase_bits_is_gone():
    assert not hasattr(truncshor, "phase_bits")
    assert not hasattr(truncshor.shor, "phase_bits")


def test_leveled_circuit_table_is_gone():
    # the gate kernel over the states a caller needs is the one compiled form
    assert not hasattr(truncshor.LeveledCircuit, "table")
    assert not hasattr(truncshor.circuit, "_basis_states")
    assert not hasattr(truncshor.circuit, "_low_halves")


def test_one_distribution_type():
    # sample returns shot counts, not a second kind of PhaseDistribution
    assert [f.name for f in dataclasses.fields(truncshor.PhaseDistribution)] == ["m", "probabilities"]
    assert not hasattr(truncshor, "EigenphaseSet")
    assert not hasattr(truncshor.shor, "EigenphaseSet")


# Each pipeline stage takes the previous stage's output and nothing that would redo it.
STAGES = {
    "synth_me_operator": ["orbit", "p"],
    "synth_powers": ["orbit", "powers"],
    "synth_all_powers": ["orbit", "m"],
    "truncate": ["circuits", "trnc_lv"],
    "work_images": ["circuits", "M"],
    "exact_distribution": ["instance", "images"],
    "tries_until_factor": ["instance", "dist", "seed", "max_tries"],
    "tries_ensemble": ["cells", "seeds", "max_tries"],
    "sample": ["dist", "shots", "seed"],
    "histogram_csv": ["instance", "dist", "counts"],
}


@pytest.mark.parametrize("name", sorted(STAGES))
def test_pipeline_stage_parameters(name):
    assert list(inspect.signature(getattr(truncshor, name)).parameters) == STAGES[name]


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in traced_names().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"truncshor.{layer}"), name))
