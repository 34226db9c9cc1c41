import random
import re

import pytest

from truncshor import (
    Control,
    FactoringInstance,
    Gate,
    LeveledCircuit,
    ProtectedCollisionError,
    apply_to_basis,
    apply_to_basis_array,
    build_orbit,
    cycle_decomposition,
    minimize_controls,
    synth_all_powers,
    synth_level,
    synth_me_operator,
    synth_powers,
    transition_order,
    truncate,
    work_images,
)

from truncshor.synth import _flip_path

from conftest import CASES
from oracles import (
    bfs_flip_path_oracle,
    concatenate_power,
    greedy_controls_oracle,
    restricted_equal,
)


def apply_gates(gates, w):
    for g in gates:
        w = g.apply(w)
    return w


def test_minimize_controls_examples():
    assert minimize_controls(1, {2, 4, 8, 16}, 5, target=1) == (Control(0),)
    assert minimize_controls(9, (), 5, target=2) == ()
    assert minimize_controls(0b011, {0b001}, 3, target=2) == (Control(1),)


def test_minimize_controls_never_matches_forbidden():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(2, 8)
        fire = rng.randrange(1 << n)
        target = rng.randrange(n)
        forbidden = set()
        twin = fire ^ (1 << target)
        while len(forbidden) < rng.randrange(0, 6):
            v = rng.randrange(1 << n)
            if v not in (fire, twin):
                forbidden.add(v)
        controls = minimize_controls(fire, forbidden, n, target)
        probe = Gate(target=target, controls=controls)
        assert probe.fires(fire)
        assert not any(probe.fires(v) for v in forbidden)


def test_minimize_controls_matches_greedy_oracle():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(2, 9)
        fire = rng.randrange(1 << n)
        target = rng.randrange(n)
        forbidden = {rng.randrange(1 << n) for _ in range(rng.randrange(0, 12))}
        assert minimize_controls(fire, forbidden, n, target) == greedy_controls_oracle(
            fire, forbidden, n, target
        )


def test_synth_level_examples():
    gates = synth_level(1, 11, {2, 4, 8, 16}, 5)
    assert gates == [
        Gate(target=1, controls=(Control(0),)),
        Gate(target=3, controls=(Control(0),)),
    ]
    assert apply_gates(gates, 1) == 11
    for v in (2, 4, 8, 16):
        assert apply_gates(gates, v) == v

    assert synth_level(16, 16, (), 5) == []

    gates = synth_level(1, 2, (), 5)
    assert apply_gates(gates, 1) == 2
    images = sorted(apply_gates(gates, w) for w in range(32))
    assert images == list(range(32))


def test_synth_level_fixes_protected():
    rng = random.Random(17)
    routed = 0
    for _ in range(200):
        n = rng.randrange(3, 8)
        dim = 1 << n
        values = rng.sample(range(dim), k=min(dim, rng.randrange(2, 8)))
        current, target = values[0], values[1]
        protected = set(values[2:])
        try:
            gates = synth_level(current, target, protected, n)
        except ProtectedCollisionError:
            continue  # protected set happened to disconnect the endpoints
        routed += 1
        assert apply_gates(gates, current) == target
        for v in protected:
            assert apply_gates(gates, v) == v
    assert routed > 150


def test_synth_level_rejects_protected_endpoints():
    with pytest.raises(ValueError):
        synth_level(1, 2, {1}, 3)
    with pytest.raises(ValueError):
        synth_level(1, 2, {2}, 3)


def test_protected_collision_when_no_path():
    # both 2-step routes from 0 to 3 pass through a protected value
    with pytest.raises(ProtectedCollisionError):
        synth_level(0, 3, {1, 2}, 2)


def test_flip_path_matches_bfs_oracle():
    rng = random.Random(5)
    detours = collisions = 0
    for _ in range(3000):
        n = rng.randrange(1, 9)
        current, target = rng.randrange(1 << n), rng.randrange(1 << n)
        blocked = frozenset(rng.sample(range(1 << n), rng.randrange(0, (1 << n) // 2 + 1)))
        expected = bfs_flip_path_oracle(current, target, blocked, n)
        if expected is None:
            collisions += 1
            with pytest.raises(ProtectedCollisionError):
                _flip_path(current, target, blocked, n)
            continue
        flips = [u ^ v for u, v in zip(expected, expected[1:])]
        detours += flips != sorted(set(flips))  # not the direct, ascending-bit path
        assert _flip_path(current, target, blocked, n) == expected
    assert detours > 100 and collisions > 100


@pytest.mark.parametrize("N", sorted(CASES))
def test_synthesis_exhaustive_correctness(orbits, N):
    orbit = orbits[N]
    m = CASES[N][1]
    r = orbit.r
    for q in range(m):
        p = 1 << q
        circuit = synth_me_operator(orbit, p)
        assert circuit.num_levels == r
        assert circuit.power == p
        for k in range(r):
            assert apply_to_basis(circuit, orbit.states[k]) == orbit.states[(k + p) % r]


@pytest.mark.parametrize("N", sorted(CASES))
def test_prefix_invariant(orbits, N):
    """After level x is sealed, inputs of levels <= x land on their targets."""
    orbit = orbits[N]
    for p in (1, 2, 4):
        circuit = synth_me_operator(orbit, p)
        transitions = transition_order(cycle_decomposition(orbit, p))
        for x in range(orbit.r):
            prefix = [g for level in circuit.levels[: x + 1] for g in level]
            for src, tgt in transitions[: x + 1]:
                assert apply_gates(prefix, src) == tgt


@pytest.mark.parametrize("N", sorted(CASES))
def test_matches_concatenation_oracle(orbits, N):
    orbit = orbits[N]
    m = CASES[N][1]
    u = synth_me_operator(orbit, 1)
    for q in range(m):
        p = 1 << q
        assert restricted_equal(
            synth_me_operator(orbit, p), concatenate_power(u, p), orbit.states
        )


def test_truncation_consistency(orbits):
    orbit = orbits[21]
    full = synth_me_operator(orbit, 1)
    assert full.version == "per_power"
    for k in range(1, orbit.r):
        trunc = truncate([full], k)[0]
        assert trunc.version == "truncated"
        assert trunc.trnc_lv == k
        assert trunc.levels[: orbit.r - k] == full.levels[: orbit.r - k]
        assert all(level == () for level in trunc.levels[orbit.r - k :])


def test_truncation_keeps_first_transition(orbits):
    circuit = truncate([synth_me_operator(orbits[21], 1)], 5)[0]
    assert sum(1 for level in circuit.levels if level) == 1
    assert circuit.levels[0]
    assert apply_to_basis(circuit, 1) == 2


def test_truncation_validation(orbits):
    circuits = [synth_me_operator(orbits[21], 1)]
    for t in (6, -1):
        with pytest.raises(ValueError, match=re.escape(f"trnc_lv={t} outside [0, 6)")):
            truncate(circuits, t)


def test_truncate_keeps_shared_circuits_shared(orbits):
    circuits = synth_all_powers(orbits[21], 5)  # U^2 is U^8 and U^4 is U^16 (r = 6)
    truncated = truncate(circuits, 2)
    assert truncated[1] is truncated[3] and truncated[2] is truncated[4]
    assert len({id(c) for c in truncated}) == 3
    for full, trunc in zip(circuits, truncated):
        assert trunc.levels == full.levels[:4] + ((), ())
        assert (trunc.trnc_lv, trunc.version, trunc.power) == (2, "truncated", full.power)
    assert all(a is b for a, b in zip(truncate(circuits, 0), circuits))
    assert truncate([circuits[0]], 5)[0].levels == circuits[0].levels[:1] + ((),) * 5


def test_synth_all_powers_shares_duplicates(orbits):
    circuits = synth_all_powers(orbits[21], 5)
    assert len(circuits) == 5
    assert circuits[1] is circuits[3]  # U^2 and U^8
    assert circuits[2] is circuits[4]  # U^4 and U^16
    assert circuits[0] is not circuits[1]

    circuits33 = synth_all_powers(orbits[33], 6)
    assert circuits33[1] is circuits33[5]  # U^2 and U^32


def test_identity_power_is_blank(orbits):
    # p a multiple of r acts as the identity: every level comes out blank
    circuit = synth_me_operator(orbits[21], 6)
    assert circuit.gate_count() == 0
    assert circuit.num_levels == 6
    assert all(apply_to_basis(circuit, w) == w for w in range(32))


def test_register_wider_than_int64_is_a_value_error():
    orbit = build_orbit(FactoringInstance(N=2**63 + 1, a=2, m=1))
    with pytest.raises(ValueError, match="64-qubit register: basis states are int64, at most 63 qubits"):
        synth_me_operator(orbit, 1)
    wide = LeveledCircuit(n_qubits=64, power=1, levels=((),))
    with pytest.raises(ValueError, match="64-qubit register"):
        apply_to_basis_array(wide, [1])
    with pytest.raises(ValueError, match="64-qubit register"):
        work_images([wide], 2)
    narrow = LeveledCircuit(n_qubits=63, power=1, levels=((),))
    assert apply_to_basis_array(narrow, [(1 << 63) - 1]).tolist() == [(1 << 63) - 1]


@pytest.mark.parametrize("N", sorted(CASES))
def test_gate_count_envelope(orbits, N):
    orbit = orbits[N]
    m = CASES[N][1]
    n = orbit.instance.n
    total = sum(
        c.gate_count() for c in {id(x): x for x in synth_all_powers(orbit, m)}.values()
    )
    assert total <= m * n * orbit.r


@pytest.mark.parametrize("N", sorted(CASES))
def test_synthesized_gates_equal_checked_gates(orbits, N):
    """Synthesis builds its gates unchecked; each equals, and hashes as, the checked Gate."""
    orbit = orbits[N]
    circuits = synth_powers(orbit, [1 << q for q in range(2 * orbit.instance.n + 1)])
    for circuit in {id(c): c for c in circuits}.values():
        for g in circuit.gates():
            qubits = [c.qubit for c in g.controls]
            assert type(g.controls) is tuple
            assert qubits == sorted(set(qubits)) and g.target not in qubits
            checked = Gate(g.target, g.controls)
            assert checked == g and hash(checked) == hash(g)


def test_synthesis_runs_no_gate_checks(orbits, monkeypatch):
    def no_checks(self):
        raise AssertionError("synthesis checked a gate")

    monkeypatch.setattr(Gate, "__post_init__", no_checks)
    with pytest.raises(AssertionError, match="synthesis checked a gate"):
        Gate(0)
    circuit = synth_me_operator(orbits[143], 1)
    assert circuit.gate_count() > 0
    monkeypatch.undo()
    for k, state in enumerate(orbits[143].states):
        assert apply_to_basis(circuit, state) == orbits[143].states[(k + 1) % orbits[143].r]
