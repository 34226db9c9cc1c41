"""The direct JSON and QASM writers against ``json.dumps`` and the lower-then-print loop."""

import json

import pytest

from truncshor import (
    Control,
    Gate,
    LeveledCircuit,
    from_json,
    to_json,
    to_json_dict,
    to_qasm3,
    truncate,
)

from conftest import CASES
from oracles import to_qasm3_lowered

NEGATED = Gate(target=3, controls=(Control(0, negated=True), Control(1), Control(2, negated=True),
                                   Control(4, negated=True), Control(5)))

HAND_BUILT = [
    LeveledCircuit(n_qubits=4, power=1, levels=()),
    LeveledCircuit(n_qubits=4, power=2, levels=((), (), ())),
    LeveledCircuit(n_qubits=3, power=1, levels=((Gate(0), Gate(2)), (), (Gate(1),))),
    LeveledCircuit(n_qubits=6, power=8, levels=((NEGATED, Gate(0)), (Gate(4, (Control(5),)),))),
    LeveledCircuit(n_qubits=6, power=4, levels=((NEGATED,), (), ()), trnc_lv=2,
                   version="truncated"),
]


@pytest.fixture(scope="module")
def circuits(circuit_sets):
    """The hand-built circuits, every CASES circuit, and each modulus's U half truncated."""
    out = list(HAND_BUILT)
    for N in CASES:
        out += circuit_sets[N]
        out.append(truncate(circuit_sets[N][:1], circuit_sets[N][0].num_levels // 2)[0])
    return out


@pytest.mark.parametrize("indent", [None, 0, 2, 4, "\t"])
def test_to_json_is_json_dumps_of_the_schema(circuits, indent):
    for circuit in circuits:
        text = to_json(circuit, indent=indent)
        assert text == json.dumps(to_json_dict(circuit), indent=indent)
        assert from_json(text) == circuit


def test_to_qasm3_matches_lower_then_print(circuits):
    for circuit in circuits:
        assert to_qasm3(circuit) == to_qasm3_lowered(circuit)


def test_to_qasm3_sandwiches_each_negated_control():
    text = to_qasm3(LeveledCircuit(n_qubits=6, power=1, levels=((NEGATED,),)))
    flips = ["x q[0];", "x q[2];", "x q[4];"]
    assert text.splitlines()[3:] == flips + ["ctrl(5) @ x q[0], q[1], q[2], q[4], q[5], q[3];"] + flips
