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

One trajectory state per operator gives every orbit state's trajectory a
slot in n bit planes (bit i of plane q is bit q of the value in slot i),
built once and updated gate by gate, so a step's greedy control search is
a few ORs over the planes. A displaced twin's slot moves with it; the
source's own slot keeps its starting value, still avoided, until the level
ends. A blocked direct path is rerouted by a depth-first search over walks
of growing length, which holds only the values its walks visit, never a
set sized by 2^n.

``truncate`` then empties the last ``trnc_lv`` levels of synthesized circuits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from .circuit import VERSION_TRUNCATED, Control, Gate, LeveledCircuit, _check_width, _planes, _trusted_gate
from .modmath import Orbit, cycle_decomposition


class ProtectedCollisionError(RuntimeError):
    """No bit-flip path around the protected set; valid input can reach it (N=19, a=2, p=1)."""


def _greedy_controls(
    planes: list[int], slots: int, fire_value: int, interned: Sequence[tuple[Control, Control]],
    target: int,
) -> tuple[Control, ...]:
    """The greedy control search against the values in the ``slots`` mask of ``planes``.

    A pattern matches a value iff the value agrees with fire_value on every
    care bit, so the values a care set excludes are the union of the
    per-bit "differs" masks. Dropping bit q leaves the kept bits above q
    and every bit below it, and is allowed iff that union still covers
    every forbidden slot.
    """
    differs, below, union = [], [], 0  # below[q]: union of differs over the bits under q
    for q, plane in enumerate(planes):
        below.append(union)
        differs.append(0 if q == target else plane & slots ^ (slots if fire_value >> q & 1 else 0))
        union |= differs[q]
    kept, controls = 0, []
    for q in reversed(range(len(planes))):
        if kept == slots:  # every forbidden slot is excluded: no further bit is kept
            break
        if q != target and kept | below[q] != slots:
            kept |= differs[q]
            controls.append(interned[q][not fire_value >> q & 1])
    return tuple(reversed(controls))


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
    state = _Trajectories(forbidden, (), n_qubits)
    return _greedy_controls(state.planes, state.slots, fire_value, state.controls, target)


class _Trajectories:
    """One synthesis state: avoided values as slots in n bit planes, and the sealed values.

    Bit i of ``planes[q]`` is bit q of the value in ``slot``-numbered slot i.
    ``controls[q][negated]`` are the register's 2n controls, made once; they
    are immutable, so every gate the state builds shares them.
    """

    def __init__(self, values: Iterable[int], sealed: Iterable[int], n_qubits: int) -> None:
        self.slot = {v: i for i, v in enumerate(dict.fromkeys(values))}
        self.planes = _planes(list(self.slot), n_qubits)
        self.slots = (1 << len(self.slot)) - 1
        self.sealed = set(sealed)
        self.n_qubits = n_qubits
        self.controls = tuple((Control(q), Control(q, negated=True)) for q in range(n_qubits))

    def path(self, current: int, target: int) -> list[int]:
        """Shortest single-bit-flip path from current to target avoiding sealed values.

        The result is the lexicographically least shortest path (by flipped
        bit), the one a breadth-first search from current with neighbors in
        ascending bit order returns. When the path that flips the differing
        bits in ascending index order is unobstructed, it is the answer.
        Otherwise walks of h, h + 2, ... flips (h the Hamming distance) are
        searched depth first, lowest bit first, skipping any value further
        from target than the flips left and any (value, flips left) pair that
        failed before; the first walk found is that path. There is none when
        two successive lengths reach the same values (along a path, distance
        from current plus distance to target grows by 0 or 2 per step, so
        every value of current's side is reached by then), or when the
        target's side, flooded one layer per length, closes without
        bordering current (which may itself be sealed).
        """
        sealed, flips = self.sealed, [1 << b for b in range(self.n_qubits)]
        path = [current]
        for f in flips:
            if (current ^ target) & f:
                path.append(path[-1] ^ f)
        if sealed.isdisjoint(path[1:]):
            return path
        steps = len(path) - 1
        failed: set[tuple[int, int]] = set()  # (value, flips left) with no walk to target
        seen, before = {current}, 0  # the values walks reached, and their count one length ago
        side: Optional[set[int]] = {target} - sealed  # the target's side, until it borders current
        edge = side
        no_path = ProtectedCollisionError(
            f"no path {current} -> {target} around {len(sealed)} protected values"
        )
        while True:
            if side is not None:
                edge = {w ^ f for w in edge for f in flips} - side - sealed
                side |= edge
                if any((w ^ current).bit_count() == 1 for w in edge):
                    side = None
                elif not edge:
                    raise no_path
            walk, untried = [current], [iter(flips)]  # untried[i]: flips yet to try at walk[i]
            while walk:
                left = steps - len(walk)  # flips left after the next one
                f = next(untried[-1], 0)
                if not f:
                    failed.add((walk.pop(), left + 1))
                    untried.pop()
                    continue
                v = walk[-1] ^ f
                if v in sealed or (v ^ target).bit_count() > left or (v, left) in failed:
                    continue
                if not left:  # v is target
                    return walk + [v]
                seen.add(v)
                walk.append(v)
                untried.append(iter(flips))
            if len(seen) == before:
                raise no_path
            before = len(seen)
            steps += 2

    def level(self, current: int, target: int) -> list[Gate]:
        """The gates of one level, current -> target, moving each displaced slot with its value.

        Each step's controls exclude every slot but those of the running
        value u and its flip partner v. The NOT swaps u and v, so a slot at v
        moves to u. The slot at current, the source's own, keeps that value
        for the whole level and stays avoided after the first step.
        """
        planes, slot, interned = self.planes, self.slot, self.controls
        gates: list[Gate] = []
        path = self.path(current, target)
        for u, v in zip(path, path[1:]):
            bit = (u ^ v).bit_length() - 1
            slots = self.slots
            for w in (u, v):
                if w in slot:
                    slots &= ~(1 << slot[w])
            gates.append(_trusted_gate(bit, _greedy_controls(planes, slots, u, interned, bit)))
            if v in slot:
                i = slot[u] = slot.pop(v)
                planes[bit] ^= 1 << i
        return gates

    def settle(self, i: int, current: int, target: int) -> None:
        """End a level: slot i, its source, moves from current to target, which is sealed."""
        if self.slot[current] == i:  # no twin was displaced onto current
            del self.slot[current]
        for q in range(self.n_qubits):
            if (current ^ target) >> q & 1:
                self.planes[q] ^= 1 << i
        self.slot[target] = i
        self.sealed.add(target)


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

    One level of ``_Trajectories`` over the avoided values.
    """
    protected = frozenset(protected)
    if current in protected or target in protected:
        raise ValueError("endpoints may not be protected")
    avoid = protected if avoid is None else avoid
    return _Trajectories(avoid, protected, n_qubits).level(current, target)


def transition_order(cycles: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Level assignment: cycles concatenated in head order, one transition each."""
    out: list[tuple[int, int]] = []
    for cycle in cycles:
        L = len(cycle)
        for i in range(L):
            out.append((cycle[i], cycle[(i + 1) % L]))
    return out


def check_trnc_lv(trnc_lv: int, r: int) -> None:
    """Raise ValueError unless 0 <= trnc_lv < r, so that at least one level is kept."""
    if not 0 <= trnc_lv < r:
        raise ValueError(f"trnc_lv={trnc_lv} outside [0, {r})")


def truncate(circuits: Sequence[LeveledCircuit], trnc_lv: int) -> list[LeveledCircuit]:
    """The circuits with their last trnc_lv levels emptied (0 gives them back as they are).

    Each distinct circuit object is truncated once, so powers that shared a circuit still do.
    """
    done: dict[int, LeveledCircuit] = {}
    for c in circuits:
        r = c.num_levels
        check_trnc_lv(trnc_lv, r)
        if trnc_lv and id(c) not in done:
            done[id(c)] = replace(c, levels=c.levels[: r - trnc_lv] + ((),) * trnc_lv,
                                  trnc_lv=trnc_lv, version=VERSION_TRUNCATED)
    return [done.get(id(c), c) for c in circuits]


def synth_me_operator(orbit: Orbit, p: int) -> LeveledCircuit:
    """Synthesize U**p on the orbit, one level per transition; slot i follows orbit.states[i]."""
    n = orbit.instance.n
    _check_width(n)
    position = {s: i for i, s in enumerate(orbit.states)}
    state = _Trajectories(orbit.states, (), n)
    levels: list[tuple[Gate, ...]] = []
    for src, tgt in transition_order(cycle_decomposition(orbit, p)):
        i = position[src]
        current = sum((plane >> i & 1) << q for q, plane in enumerate(state.planes))
        levels.append(tuple(state.level(current, tgt)))
        state.settle(i, current, tgt)
    return LeveledCircuit(n_qubits=n, power=p, levels=tuple(levels))


def synth_powers(orbit: Orbit, powers: Iterable[int]) -> list[LeveledCircuit]:
    """One circuit per power; powers congruent mod r share one circuit object.

    They act identically on the orbit, so each residue is synthesized once, at its first power.
    """
    cache: dict[int, LeveledCircuit] = {}
    out = []
    for p in powers:
        key = p % orbit.r
        if key not in cache:
            cache[key] = synth_me_operator(orbit, p)
        out.append(cache[key])
    return out


def synth_all_powers(orbit: Orbit, m: int) -> list[LeveledCircuit]:
    """Circuits for p = 2**0 ... 2**(m-1), shared as in ``synth_powers``."""
    return synth_powers(orbit, [1 << q for q in range(m)])
