"""OpenQASM 3 text export for leveled circuits.

Each negated control is written as an X on its qubit on both sides of
the positively controlled gate, as ``lower_negative_controls`` would
lower it, but straight from the circuit's own gates: the text of each
qubit's operand and X is made once, and a gate's lines are joined from
them. The output uses only ``x`` and ``ctrl(k) @ x``. One barrier
separates consecutive levels.
"""

from __future__ import annotations

from .circuit import LeveledCircuit


def to_qasm3(circuit: LeveledCircuit) -> str:
    n = circuit.n_qubits
    wire = [f"q[{q}]" for q in range(n)]
    flip = [f"x {w};" for w in wire]
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{n}] q;"]
    last = circuit.num_levels - 1
    for i, level in enumerate(circuit.levels):
        for gate in level:
            k = len(gate.controls)
            if not k:
                lines.append(flip[gate.target])
                continue
            flips = [flip[c.qubit] for c in gate.controls if c.negated]
            operands = ", ".join([wire[c.qubit] for c in gate.controls] + [wire[gate.target]])
            modifier = "ctrl @" if k == 1 else f"ctrl({k}) @"
            lines.extend(flips)
            lines.append(f"{modifier} x {operands};")
            lines.extend(flips)
        if i != last:
            lines.append("barrier q;")
    return "\n".join(lines) + "\n"
