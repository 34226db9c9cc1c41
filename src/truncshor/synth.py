"""Automated level-by-level synthesis of modular-exponentiation operators.

Each composite power U**p is laid out as r levels, one per orbit
transition, in cycle-decomposition order. The level for transition
f(y) -> f(y + p mod r) is synthesized against the *trajectory* of its
source through the already-built prefix: earlier levels are free to move
states that have not yet been consumed, and the tracker follows them.

Two constraint tiers govern gate construction:

* hard: basis values already sealed as earlier outputs must never move;
  the bit-flip path is routed around them.
* soft: all other live trajectories should not move either, so control
  sets are kept tight enough to exclude them - except for the flip
  partner of the current step, which a NOT gate unavoidably swaps with
  the running value. That displacement is tracked, never lost.

Truncation then simply empties the last ``trnc_lv`` levels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable, Optional

import numpy as np

from .circuit import (
    Control,
    Gate,
    LeveledCircuit,
    VERSION_TRUNCATED,
    apply_gates,
)
from .modmath import CycleDecomposition, Orbit, cycle_decomposition


class ProtectedCollisionError(RuntimeError):
    """No bit-flip path around the protected set; valid input can reach it (N=19, a=2, p=1)."""


def minimize_controls(
    fire_value: int,
    forbidden: Iterable[int],
    n_qubits: int,
    target: int,
) -> tuple[Control, ...]:
    """Smallest greedy control set that matches fire_value but no forbidden value.

    Starts from all n-1 non-target qubits with polarity matching
    fire_value's bits, then drops controls in descending qubit order,
    keeping a drop only if the relaxed pattern still matches nothing
    forbidden. Deterministic; with nothing to distinguish, the result is
    the empty control set.
    """
    # a (care, fire_value) pattern matches v iff v ^ fire_value has no care bit set
    differs = np.fromiter(forbidden, dtype=np.int64) ^ fire_value
    care = ((1 << n_qubits) - 1) & ~(1 << target)
    for bit in (1 << q for q in reversed(range(n_qubits)) if q != target):
        if not ((differs & (care ^ bit)) == 0).any():
            care ^= bit
    return tuple(Control(qubit=q, negated=not (fire_value >> q) & 1)
                 for q in range(n_qubits) if (care >> q) & 1)


def _flip_path(current: int, target: int, blocked: frozenset[int], n_qubits: int) -> list[int]:
    """Shortest single-bit-flip path from current to target avoiding blocked values.

    BFS with neighbors expanded in ascending bit order returns the
    lexicographically least shortest path, so when the path that flips the
    differing bits in ascending index order is unobstructed, it is the answer.
    """
    path = [current]
    for b in range(n_qubits):
        if (current ^ target) >> b & 1:
            path.append(path[-1] ^ (1 << b))
    if blocked.isdisjoint(path[1:]):
        return path
    prev: dict[int, int] = {current: -1}
    queue: deque[int] = deque([current])
    while queue:
        u = queue.popleft()
        for b in range(n_qubits):
            v = u ^ (1 << b)
            if v in prev or v in blocked:
                continue
            prev[v] = u
            if v == target:
                path = [v]
                while path[-1] != current:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(v)
    raise ProtectedCollisionError(
        f"no path {current} -> {target} around {len(blocked)} protected values"
    )


def synth_level(
    current: int,
    target: int,
    protected: Iterable[int],
    n_qubits: int,
    avoid: Optional[Iterable[int]] = None,
) -> list[Gate]:
    """Gates mapping current -> target while fixing every protected value.

    ``avoid`` lists additional basis values the controls should exclude
    where possible (defaults to the protected set). Each step's flip
    partner is exempt: a NOT gate always swaps the running value with its
    single-bit twin, so a twin inside ``avoid`` is displaced and the
    caller's trajectory tracking picks it up. Returns [] when current
    already equals target (an automatic blank level).
    """
    protected = frozenset(protected)
    if current in protected or target in protected:
        raise ValueError("endpoints may not be protected")
    avoid_set = set(protected if avoid is None else avoid)
    gates: list[Gate] = []
    path = _flip_path(current, target, protected, n_qubits)
    for u, v in zip(path, path[1:]):
        bit = (u ^ v).bit_length() - 1
        soft = avoid_set - {u, v}
        gates.append(Gate(target=bit, controls=minimize_controls(u, soft, n_qubits, bit)))
        if v in avoid_set:
            avoid_set.discard(v)
            avoid_set.add(u)
    return gates


def transition_order(decomp: CycleDecomposition) -> list[tuple[int, int]]:
    """Level assignment: cycles concatenated in head order, one transition each."""
    out: list[tuple[int, int]] = []
    for cycle in decomp.cycles:
        L = len(cycle)
        for i in range(L):
            out.append((cycle[i], cycle[(i + 1) % L]))
    return out


def truncate(circuit: LeveledCircuit, trnc_lv: int) -> LeveledCircuit:
    """The circuit with its last trnc_lv levels emptied (0 gives it back as is)."""
    r = circuit.num_levels
    if not 0 <= trnc_lv < r:
        raise ValueError(f"trnc_lv={trnc_lv} outside [0, {r})")
    if not trnc_lv:
        return circuit
    return replace(
        circuit,
        levels=circuit.levels[: r - trnc_lv] + ((),) * trnc_lv,
        trnc_lv=trnc_lv,
        version=VERSION_TRUNCATED,
    )


def synth_me_operator(orbit: Orbit, p: int, trnc_lv: int = 0) -> LeveledCircuit:
    """Synthesize U**p on the orbit, then empty the last trnc_lv levels."""
    n = orbit.instance.n
    decomp = cycle_decomposition(orbit, p)
    position = {s: i for i, s in enumerate(orbit.states)}
    frontier = np.array(orbit.states, dtype=np.int64)  # trajectories of the orbit states
    protected: set[int] = set()
    levels: list[tuple[Gate, ...]] = []
    for src, tgt in transition_order(decomp):
        cur = int(frontier[position[src]])
        gates = synth_level(cur, tgt, protected, n, avoid=frontier.tolist())
        levels.append(tuple(gates))
        apply_gates(gates, frontier)
        protected.add(tgt)
    full = LeveledCircuit(n_qubits=n, power=p, levels=tuple(levels))
    return truncate(full, trnc_lv)


def synth_powers(
    orbit: Orbit, powers: Iterable[int], trnc_lv: int = 0
) -> list[LeveledCircuit]:
    """One circuit per power; powers congruent mod r share one circuit object.

    They act identically on the orbit, so each residue is synthesized once, at its first power.
    """
    cache: dict[int, LeveledCircuit] = {}
    out = []
    for p in powers:
        key = p % orbit.r
        if key not in cache:
            cache[key] = synth_me_operator(orbit, p, trnc_lv)
        out.append(cache[key])
    return out


def synth_all_powers(orbit: Orbit, m: int, trnc_lv: int = 0) -> list[LeveledCircuit]:
    """Circuits for p = 2**0 ... 2**(m-1), shared as in ``synth_powers``."""
    return synth_powers(orbit, [1 << q for q in range(m)], trnc_lv)
