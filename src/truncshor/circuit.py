"""Gate-level IR for reversible circuits.

A circuit is an ordered list of levels, each an ordered list of NOT /
multi-controlled-NOT gates. Controls carry polarity: a negated control
fires on 0 instead of 1 and stands for the usual X-conjugation, which
``lower_negative_controls`` expands when a polarity-free circuit is needed.

``Gate.apply`` is the reference semantics; ``apply_gates`` evaluates gates
bit-sliced: bit i of plane q is bit q of state i, and a gate is an AND per
control and an XOR on its target's plane. It is the one compiled form: work
images and certificates run it, each on the states they need alone, never
on all 2^n.

``to_json_dict`` is the JSON schema. ``to_json`` writes the same text
``json.dumps`` makes of it, but directly, from per-control and per-gate strings.

Bit convention: qubit k is bit k of the basis integer, so qubit 0 is the
least significant bit (the OpenQASM/Qiskit ordering). That convention is
used everywhere, including serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


VERSION_CONCATENATED = "concatenated"
VERSION_PER_POWER = "per_power"
VERSION_TRUNCATED = "truncated"
_VERSIONS = (VERSION_CONCATENATED, VERSION_PER_POWER, VERSION_TRUNCATED)
MAX_WIDTH = 63  # widest register: the bit planes and the basis-state arrays are int64


@dataclass(frozen=True, order=True, slots=True)
class Control:
    """A control qubit; ``negated`` means the gate fires when the bit is 0."""

    qubit: int
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Gate:
    """NOT on ``target`` when every control matches; no controls = plain X."""

    target: int
    controls: tuple[Control, ...] = ()

    def __post_init__(self) -> None:
        qubits = [c.qubit for c in self.controls]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate control qubits in {qubits}")
        if self.target in qubits:
            raise ValueError(f"target {self.target} is also a control")
        if self.target < 0 or min(qubits, default=0) < 0:
            raise ValueError(f"negative qubit in gate on {self.target} with controls {qubits}")
        # the qubits are distinct, so sorting by qubit is the order of Control's own comparison
        object.__setattr__(self, "controls", tuple(sorted(self.controls, key=lambda c: c.qubit)))

    def fires(self, w: int) -> bool:
        return all(((w >> c.qubit) & 1 == 0) == c.negated for c in self.controls)

    def apply(self, w: int) -> int:
        return w ^ (1 << self.target) if self.fires(w) else w


def _trusted_gate(target: int, controls: tuple[Control, ...]) -> Gate:
    """A Gate built without ``__post_init__``: its controls are distinct, ascending and off the target."""
    gate = object.__new__(Gate)
    object.__setattr__(gate, "target", target)
    object.__setattr__(gate, "controls", controls)
    return gate


@dataclass(frozen=True)
class LeveledCircuit:
    """An operator as levels of gates; trailing ``trnc_lv`` levels are empty.

    ``power`` records which composite power this circuit realizes;
    ``version`` is one of "concatenated", "per_power", "truncated".
    """

    n_qubits: int
    power: int
    levels: tuple[tuple[Gate, ...], ...]
    trnc_lv: int = 0
    version: str = VERSION_PER_POWER

    def __post_init__(self) -> None:
        if self.version not in _VERSIONS:
            raise ValueError(f"unknown version {self.version!r}")
        if not 0 <= self.trnc_lv <= len(self.levels):
            raise ValueError(f"trnc_lv={self.trnc_lv} out of range")
        if (width := _width(self.gates())) > self.n_qubits:
            raise ValueError(f"a gate on qubit {width - 1} is outside {self.n_qubits} qubits")
        for level in self.levels[len(self.levels) - self.trnc_lv :]:
            if level:
                raise ValueError("truncated levels must be empty")
        object.__setattr__(self, "levels", tuple(tuple(level) for level in self.levels))

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def gates(self) -> Iterator[Gate]:
        return chain.from_iterable(self.levels)

    def gate_count(self) -> int:
        return sum(len(level) for level in self.levels)


def _width(gates: Iterable[Gate]) -> int:
    """The qubits the gates span: one more than the highest qubit any of them touches."""
    # a gate's controls are sorted by qubit, so the last one is its highest
    return 1 + max((max(g.target, g.controls[-1].qubit) if g.controls else g.target
                    for g in gates), default=-1)


def _check_width(n_qubits: int) -> None:
    """A ValueError for a register whose basis states int64 cannot hold."""
    if n_qubits > MAX_WIDTH:
        raise ValueError(f"{n_qubits}-qubit register: basis states are int64, at most {MAX_WIDTH} qubits")


def _planes(values: Iterable[int] | np.ndarray, n_qubits: int) -> list[int]:
    """Bit planes over value slots: bit i of ``planes[q]`` is bit q of ``values[i]``."""
    values = np.ascontiguousarray(values, dtype="<i8")
    bits = np.unpackbits(values.view(np.uint8).reshape(-1, 8), axis=1,
                         count=n_qubits, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(bits.T, axis=1, bitorder="little")]


def _apply_planes(gates: Iterable[Gate], planes: list[int], full: int) -> None:
    """The gate kernel, in place on bit planes over the slots (bits) of ``full``."""
    for gate in gates:
        fires = full
        for c in gate.controls:
            fires &= ~planes[c.qubit] if c.negated else planes[c.qubit]
            if not fires:
                break
        else:
            planes[gate.target] ^= fires


def apply_gates(gates: Iterable[Gate], values: np.ndarray) -> np.ndarray:
    """Apply the gates in order to every basis state of an int64 array, in place; returns it.

    Bits above every gate's qubits pass through unchanged. The changed planes
    are unpacked together and weighted by their bits into one int64 of flips
    per state, so the extra memory is about 8 bytes per state and changed plane.
    """
    gates = tuple(gates)
    count = len(values)
    planes = _planes(values, _width(gates))
    start = list(planes)
    _apply_planes(gates, planes, (1 << count) - 1)
    changed = [q for q, (before, after) in enumerate(zip(start, planes)) if before != after]
    if changed:
        size = (count + 7) // 8
        deltas = b"".join((start[q] ^ planes[q]).to_bytes(size, "little") for q in changed)
        bits = np.unpackbits(np.frombuffer(deltas, dtype=np.uint8).reshape(len(changed), size),
                             axis=1, count=count, bitorder="little")
        values ^= np.left_shift(1, changed, dtype=np.int64) @ bits
    return values


def apply_to_basis_array(circuit: LeveledCircuit, values: Iterable[int] | np.ndarray) -> np.ndarray:
    """The circuit's image of each basis state, as a new int64 array: ``apply_gates`` on them alone."""
    _check_width(circuit.n_qubits)
    values = np.array(values, dtype=np.int64)
    if values.size and not (0 <= values.min() and values.max() < 1 << circuit.n_qubits):
        raise ValueError(f"basis states outside {circuit.n_qubits} qubits")
    return apply_gates(circuit.gates(), values)


def permutation_table(circuit: LeveledCircuit, domain: Iterable[int]) -> dict:
    """The certificate JSON object ``{"domain": [...], "image": [...]}``, evaluated over the domain alone."""
    dom = list(domain)
    return {"domain": dom, "image": apply_to_basis_array(circuit, dom).tolist()}


def lower_negative_controls(circuit: LeveledCircuit) -> LeveledCircuit:
    """Expand each negated control into an X-sandwich around a positive control."""
    new_levels = []
    for level in circuit.levels:
        new_level: list[Gate] = []
        for gate in level:
            flips = [Gate(target=c.qubit) for c in gate.controls if c.negated]
            positive = tuple(Control(qubit=c.qubit) for c in gate.controls)
            new_level += [*flips, Gate(target=gate.target, controls=positive), *flips]
        new_levels.append(tuple(new_level))
    return replace(circuit, levels=tuple(new_levels))


def to_json_dict(circuit: LeveledCircuit) -> dict:
    """Normative JSON schema: zero-control gates serialize as "x", others "mcx"."""
    levels = [[{"gate": "mcx", "target": gate.target,
                "controls": [{"q": c.qubit, "neg": c.negated} for c in gate.controls]}
               if gate.controls else {"gate": "x", "target": gate.target} for gate in level]
              for level in circuit.levels]
    return {
        "n_qubits": circuit.n_qubits,
        "power": circuit.power,
        "trnc_lv": circuit.trnc_lv,
        "version": circuit.version,
        "levels": levels,
    }


def from_json_dict(data: dict) -> LeveledCircuit:
    levels = []
    for level in data["levels"]:
        gates = []
        for g in level:
            if g["gate"] not in ("x", "mcx"):
                raise ValueError(f"unknown gate kind {g['gate']!r}")
            controls = g.get("controls", ()) if g["gate"] == "mcx" else ()
            gates.append(Gate(target=g["target"], controls=tuple(
                Control(qubit=c["q"], negated=c["neg"]) for c in controls)))
        levels.append(tuple(gates))
    return LeveledCircuit(
        n_qubits=data["n_qubits"],
        power=data["power"],
        levels=tuple(levels),
        trnc_lv=data["trnc_lv"],
        version=data["version"],
    )


def to_json(circuit: LeveledCircuit, indent: int | str | None = None) -> str:
    """The text of ``json.dumps(to_json_dict(circuit), indent=indent)``, written directly.

    With ``indent`` set, ``json`` encodes in pure Python, object by object.
    Here the text of each of the 2n possible controls is made once, and so
    are the strings around a gate's target and controls, so each gate is
    one f-string. ``breaks[d]`` starts a line at depth d (the top-level
    fields are at depth 1, a gate's fields at 4, a control's at 6), and
    ``commas[d]`` separates items at that depth, as ``json`` lays them out.
    ``indent`` may be a number of spaces or a string, as for ``json.dumps``.
    """
    if indent is None:
        breaks, commas = [""] * 7, [", "] * 7
    else:
        if not isinstance(indent, str):
            indent = " " * indent
        breaks = ["\n" + indent * depth for depth in range(7)]
        commas = ["," + b for b in breaks]

    def container(brackets: str, items: list[str], depth: int) -> str:
        if not items:
            return brackets
        return (brackets[0] + breaks[depth] + commas[depth].join(items)
                + breaks[depth - 1] + brackets[1])

    control_text = {negated: [container("{}", [f'"q": {q}', f'"neg": {json.dumps(negated)}'], 6)
                              for q in range(circuit.n_qubits)] for negated in (False, True)}
    # a gate is its head, target and tail; an "mcx" gate's controls go between a middle and the tail
    x_head, mcx_head = (f'{{{breaks[4]}"gate": "{kind}"{commas[4]}"target": ' for kind in ("x", "mcx"))
    middle, x_tail = f'{commas[4]}"controls": [{breaks[5]}', breaks[3] + "}"
    mcx_tail = breaks[4] + "]" + x_tail
    levels = []
    for level in circuit.levels:
        gates = [f"{mcx_head}{gate.target}{middle}"
                 f"{commas[5].join([control_text[c.negated][c.qubit] for c in gate.controls])}{mcx_tail}"
                 if gate.controls else f"{x_head}{gate.target}{x_tail}" for gate in level]
        levels.append(container("[]", gates, 3))
    fields = [f'"{key}": {json.dumps(getattr(circuit, key))}'
              for key in ("n_qubits", "power", "trnc_lv", "version")]
    return container("{}", fields + ['"levels": ' + container("[]", levels, 2)], 1)


def from_json(text: str) -> LeveledCircuit:
    return from_json_dict(json.loads(text))
