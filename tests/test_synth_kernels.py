"""The bit-plane control search and the depth-first flip-path search against their oracles.

``minimize_controls`` and every synthesis level run on integer bit planes,
kept once per operator, and the path search (``_Trajectories.path``, run on
its own through ``oracles._flip_path``) routes around blocked values by a
depth-first search over walks of growing length, with no set of 2^n values;
the oracles in ``tests/oracles.py`` are the scalar greedy search, the
breadth-first search and the set-based level loop.
"""

import random
import tracemalloc

import pytest

import truncshor.circuit
import truncshor.synth
from truncshor import (
    Control,
    FactoringInstance,
    ProtectedCollisionError,
    build_orbit,
    minimize_controls,
    synth_all_powers,
    synth_level,
    synth_me_operator,
)

from conftest import CASES
from oracles import (
    _flip_path,
    apply_to_basis,
    bfs_flip_path_oracle,
    greedy_controls_oracle,
    synth_level_oracle,
)


def test_flip_path_matches_bfs_oracle_n9_to_12():
    rng = random.Random(8)
    detours = collisions = 0
    for _ in range(240):
        n = rng.randrange(9, 13)
        size = 1 << n
        current, target = rng.randrange(size), rng.randrange(size)
        density = rng.choice((0.02, 0.2, 0.45, 0.7, 0.85))
        blocked = frozenset(v for v in range(size) if rng.random() < density)
        expected = bfs_flip_path_oracle(current, target, blocked, n)
        if expected is None:
            collisions += 1
            with pytest.raises(ProtectedCollisionError, match=rf"^no path {current} -> {target} "
                               rf"around {len(blocked)} protected values$"):
                _flip_path(current, target, blocked, n)
            continue
        flips = [u ^ v for u, v in zip(expected, expected[1:])]
        detours += flips != sorted(set(flips))
        assert _flip_path(current, target, blocked, n) == expected
    assert detours > 40 and collisions > 20


def test_flip_path_edge_cases():
    n = 10
    ring = frozenset(5 ^ (1 << b) for b in range(n))  # every neighbor of 5
    # a blocked start is still a start, on the direct path and on a detour
    assert _flip_path(0, 3, frozenset({0}), n) == [0, 1, 3]
    assert _flip_path(0, 3, frozenset({0, 1}), n) == [0, 2, 3]
    detour = _flip_path(0, 6, ring | {0, 2}, n)
    assert detour == bfs_flip_path_oracle(0, 6, ring | {0, 2}, n) and len(detour) > 3
    # an isolated or blocked target cannot be reached
    with pytest.raises(ProtectedCollisionError):
        _flip_path(0, 5, ring, n)
    with pytest.raises(ProtectedCollisionError):
        _flip_path(0, 6, frozenset({6, 2}), n)
    # the target's free component {0, 1} is walled off from current
    wall = frozenset((w ^ (1 << b) for w in (0, 1) for b in range(n))) - {0, 1}
    assert bfs_flip_path_oracle(15, 0, wall, n) is None
    with pytest.raises(ProtectedCollisionError):
        _flip_path(15, 0, wall, n)
    # current == target is the empty path, blocked or not
    assert _flip_path(7, 7, frozenset({7}), n) == [7]
    assert _flip_path(7, 7, ring, n) == [7]


def test_flip_path_detour_deeper_than_the_recursion_limit():
    n = 1030  # 1031 values on the path: a recursive search would pass Python's limit
    path = _flip_path(0, (1 << n) - 1, frozenset({1}), n)
    assert path == [0, 2, 3] + [(1 << k) - 1 for k in range(3, n + 1)]


@pytest.mark.parametrize("enclosed", ["target", "current"])
def test_enclosed_end_is_proved_unreachable_without_searching_the_other_side(enclosed):
    n = 20  # the other side is all but 21 of the 2^20 values
    ring = frozenset(1 << b for b in range(n))  # every neighbor of 0
    ends = ((1 << n) - 1, 0) if enclosed == "target" else (0, (1 << n) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ProtectedCollisionError):
            _flip_path(*ends, ring, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wide_blocked_operator_allocates_nothing_of_size_2_to_the_n():
    N = (1 << 40) + 1  # a = 2: r = 80 on n = 41 qubits, a 2^41-bit set is 256 GiB
    orbit = build_orbit(FactoringInstance(N=N, a=2, m=1))
    tracemalloc.start()
    try:
        circuit = synth_me_operator(orbit, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [apply_to_basis(circuit, s) for s in orbit.states] == [
        orbit.states[(k + 2) % orbit.r] for k in range(orbit.r)
    ]


def test_minimize_controls_matches_greedy_oracle_to_n12():
    rng = random.Random(12)
    full = 0
    for _ in range(400):
        n = rng.randrange(2, 13)
        fire = rng.randrange(1 << n)
        target = rng.randrange(n)
        count = rng.randrange(0, min(150, 1 << n) + 1)
        forbidden = [rng.randrange(1 << n) for _ in range(count)]
        if rng.random() < 0.25:
            forbidden.append(rng.choice((fire, fire ^ (1 << target))))
        controls = minimize_controls(fire, forbidden, n, target)
        assert controls == greedy_controls_oracle(fire, forbidden, n, target)
        full += len(controls) == n - 1
    assert full > 100


@pytest.mark.parametrize("twin", [False, True])
def test_minimize_controls_keeps_every_control_for_an_indistinguishable_value(twin):
    n, fire, target = 12, 0b101101001110, 4
    same = fire ^ (1 << target) if twin else fire
    expected = tuple(Control(q, negated=not fire >> q & 1) for q in range(n) if q != target)
    assert minimize_controls(fire, [3, same, 77], n, target) == expected


def test_synth_level_displaces_avoided_twins_like_the_set_loop():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(3, 11)
        values = rng.sample(range(1 << n), k=min(1 << n, rng.randrange(3, 60)))
        current, target = values[0], values[1]
        protected = set(values[2:6])
        avoid = values[:2] + values[2:] + [v ^ 1 for v in values[6:]]
        try:
            expected = synth_level_oracle(current, target, protected, n, avoid)
        except ProtectedCollisionError:
            with pytest.raises(ProtectedCollisionError):
                synth_level(current, target, protected, n, avoid)
            continue
        assert synth_level(current, target, protected, n, avoid) == expected


LEVEL_CASES = CASES | {1001: (2, 12), 4087: (3, 12)}


def _slot_values(state):
    """The value in every slot of a synthesis state, read from its bit planes."""
    return [sum((plane >> i & 1) << q for q, plane in enumerate(state.planes))
            for i in range(state.slots.bit_length())]


@pytest.mark.parametrize("N", sorted(LEVEL_CASES))
def test_every_synthesized_level_matches_set_oracle(monkeypatch, N):
    a, m = LEVEL_CASES[N]
    orbit = build_orbit(FactoringInstance(N=N, a=a, m=1))
    level = truncshor.synth._Trajectories.level
    compared = []

    def both(state, current, target):
        avoid, protected = _slot_values(state), set(state.sealed)
        gates = level(state, current, target)
        compared.append(gates == synth_level_oracle(current, target, protected,
                                                    state.n_qubits, avoid))
        return gates

    monkeypatch.setattr(truncshor.synth._Trajectories, "level", both)
    circuits = synth_all_powers(orbit, m)
    distinct = {id(c): c for c in circuits}.values()
    assert len(compared) == orbit.r * len(distinct)
    assert all(compared)


def test_synthesis_builds_planes_once_per_operator_and_never_replays(monkeypatch):
    orbit = build_orbit(FactoringInstance(N=4087, a=3, m=1))
    planes = truncshor.synth._planes
    builds = []

    def counting(values, n_qubits):
        builds.append(len(values))
        return planes(values, n_qubits)

    def replay(*args):
        raise AssertionError("synthesis replayed a level through _apply_planes")

    monkeypatch.setattr(truncshor.synth, "_planes", counting)
    monkeypatch.setattr(truncshor.circuit, "_apply_planes", replay)
    assert not hasattr(truncshor.synth, "_apply_planes")
    for p in (1, 2, 8):
        synth_me_operator(orbit, p)
    assert builds == [orbit.r] * 3


def test_unblocked_wide_operator_never_builds_the_free_mask():
    orbit = build_orbit(FactoringInstance(N=16777215, a=2, m=1))  # n = 24, r = 24
    tracemalloc.start()
    try:
        circuit = synth_me_operator(orbit, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circuit.num_levels == orbit.r
    assert peak < 1 << 20  # a 2^24-bit set alone is 2 MiB
