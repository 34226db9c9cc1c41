import math
import random

import numpy as np
import pytest

from truncshor import (
    Control,
    Gate,
    LeveledCircuit,
    apply_gates,
    apply_to_basis,
    apply_to_basis_array,
    from_json,
    from_json_dict,
    lower_negative_controls,
    permutation_table,
    to_json,
    to_json_dict,
)

from oracles import (
    DimensionMismatchError,
    apply_to_statevector,
    concatenate_power,
    restricted_equal,
)


def random_circuit(rng: random.Random, n_qubits: int, num_levels: int = 4) -> LeveledCircuit:
    levels = []
    for _ in range(num_levels):
        gates = []
        for _ in range(rng.randrange(0, 4)):
            target = rng.randrange(n_qubits)
            others = [q for q in range(n_qubits) if q != target]
            rng.shuffle(others)
            k = rng.randrange(0, len(others) + 1)
            controls = tuple(
                Control(qubit=q, negated=rng.random() < 0.5) for q in others[:k]
            )
            gates.append(Gate(target=target, controls=controls))
        levels.append(tuple(gates))
    return LeveledCircuit(n_qubits=n_qubits, power=1, levels=tuple(levels))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(target=0, controls=(Control(0),))
    with pytest.raises(ValueError):
        Gate(target=1, controls=(Control(0), Control(0, negated=True)))


@pytest.mark.parametrize("target, controls", [
    (-1, ()),
    (-1, (Control(0),)),
    (0, (Control(-1),)),
    (2, (Control(-3, negated=True), Control(1))),
])
def test_gate_rejects_negative_qubits(target, controls):
    with pytest.raises(ValueError, match="negative qubit"):
        Gate(target=target, controls=controls)


def test_gate_controls_sorted():
    g = Gate(target=0, controls=(Control(3), Control(1, negated=True)))
    assert [c.qubit for c in g.controls] == [1, 3]


def test_unsorted_json_controls_are_stored_ascending():
    data = {"n_qubits": 6, "power": 1, "trnc_lv": 0, "version": "per_power", "levels": [[
        {"gate": "mcx", "target": 2, "controls": [
            {"q": 5, "neg": False}, {"q": 0, "neg": True}, {"q": 3, "neg": False}]},
        {"gate": "mcx", "target": 4, "controls": [{"q": 1, "neg": True}, {"q": 2, "neg": False}]},
    ]]}
    first, second = from_json_dict(data).levels[0]
    assert first.controls == (Control(0, negated=True), Control(3), Control(5))
    assert second.controls == (Control(1, negated=True), Control(2))
    # ascending controls given as a list are kept in their order, as a tuple
    assert Gate(target=0, controls=[Control(1), Control(4)]).controls == (Control(1), Control(4))


@pytest.mark.parametrize("target, controls, message", [
    (1, (Control(3), Control(0), Control(3, negated=True)), "duplicate control qubits in [3, 0, 3]"),
    (1, (Control(0), Control(0)), "duplicate control qubits in [0, 0]"),
    (2, (Control(4), Control(2)), "target 2 is also a control"),
    (2, (Control(1), Control(2)), "target 2 is also a control"),
    (0, (Control(3), Control(-1)), "negative qubit in gate on 0 with controls [3, -1]"),
    (-1, (Control(1), Control(3)), "negative qubit in gate on -1 with controls [1, 3]"),
])
def test_gate_errors_do_not_depend_on_control_order(target, controls, message):
    with pytest.raises(ValueError) as exc:
        Gate(target=target, controls=controls)
    assert str(exc.value) == message


def test_mcx_truth_table():
    # fires when q0 = 1 and q2 = 0
    g = Gate(target=1, controls=(Control(0), Control(2, negated=True)))
    assert g.apply(0b001) == 0b011
    assert g.apply(0b011) == 0b001
    assert g.apply(0b101) == 0b101  # negative control blocks
    assert g.apply(0b000) == 0b000  # positive control blocks


def test_empty_circuit_identity():
    c = LeveledCircuit(n_qubits=4, power=1, levels=((),))
    assert apply_to_basis(c, 13) == 13


def test_circuit_validation():
    with pytest.raises(ValueError):
        LeveledCircuit(n_qubits=2, power=1, levels=((Gate(target=2),),))
    with pytest.raises(ValueError):
        LeveledCircuit(
            n_qubits=2, power=1, levels=((), (Gate(target=0),)), trnc_lv=1
        )
    with pytest.raises(ValueError):
        LeveledCircuit(n_qubits=2, power=1, levels=((),), version="bogus")


def test_gate_involution():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 7)
        c = random_circuit(rng, n, num_levels=1)
        single = [g for level in c.levels for g in level][:1]
        if not single:
            continue
        one = LeveledCircuit(n_qubits=n, power=1, levels=((single[0],),))
        for w in range(1 << n):
            assert apply_to_basis(one, apply_to_basis(one, w)) == w


def test_every_circuit_is_a_bijection():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 7)
        c = random_circuit(rng, n)
        images = [apply_to_basis(c, w) for w in range(1 << n)]
        assert sorted(images) == list(range(1 << n))


def test_synthesized_circuits_bijective_on_full_domain(circuit_sets):
    """Exhaustive permutation check up to the n = 8 operators."""
    for circuits in circuit_sets.values():
        for c in {id(x): x for x in circuits}.values():
            dim = 1 << c.n_qubits
            images = apply_to_basis_array(c, np.arange(dim))
            assert sorted(images) == list(range(dim))


def test_zero_control_mcx_equals_not():
    # an mcx with an empty control list deserializes to a plain NOT
    c = from_json_dict(
        {
            "n_qubits": 2,
            "power": 1,
            "trnc_lv": 0,
            "version": "per_power",
            "levels": [[{"gate": "mcx", "target": 0, "controls": []}]],
        }
    )
    assert apply_to_basis(c, 0) == 1
    assert apply_to_basis(c, 3) == 2
    assert to_json_dict(c)["levels"][0][0] == {"gate": "x", "target": 0}


def test_apply_to_basis_array_matches_scalar():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(2, 8)
        c = random_circuit(rng, n)
        values = np.arange(1 << n)
        vec = apply_to_basis_array(c, values)
        assert [apply_to_basis(c, int(w)) for w in values] == list(vec)


def test_apply_gates_matches_gate_apply_in_place():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 8)
        gates = list(random_circuit(rng, n).gates())
        values = np.array([rng.randrange(1 << n) for _ in range(40)], dtype=np.int64)
        expected = []
        for w in values.tolist():
            for gate in gates:
                w = gate.apply(w)
            expected.append(w)
        assert apply_gates(gates, values) is values
        assert values.tolist() == expected


def test_apply_to_basis_array_rejects_out_of_range(circuit_sets):
    u = circuit_sets[21][0]
    for bad in ([-1], [0, 32]):
        with pytest.raises(ValueError):
            apply_to_basis_array(u, np.array(bad))
    assert apply_to_basis_array(u, np.array([], dtype=np.int64)).shape == (0,)


def test_statevector_on_me_operator(orbits, circuit_sets):
    u = circuit_sets[21][0]
    e16 = np.zeros(32, dtype=complex)
    e16[16] = 1.0
    out = apply_to_statevector(u, e16)
    assert abs(out[11] - 1.0) < 1e-12
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    zero = np.zeros(32, dtype=complex)
    assert np.all(apply_to_statevector(u, zero) == 0)

    superpos = np.zeros(32, dtype=complex)
    superpos[1] = superpos[2] = 1 / math.sqrt(2)
    out = apply_to_statevector(u, superpos)
    expect = np.zeros(32, dtype=complex)
    expect[2] = expect[4] = 1 / math.sqrt(2)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_statevector_dimension_mismatch(circuit_sets):
    with pytest.raises(DimensionMismatchError):
        apply_to_statevector(circuit_sets[21][0], np.zeros(31, dtype=complex))


def test_backends_agree_on_random_basis_states(circuit_sets):
    rng = random.Random(13)
    for N, circuits in circuit_sets.items():
        c = circuits[0]
        dim = 1 << c.n_qubits
        # 1000 draws, deduplicated: repeat inputs add nothing
        draws = [rng.randrange(dim) for _ in range(1000)]
        for w in set(draws):
            e = np.zeros(dim, dtype=complex)
            e[w] = 1.0
            out = apply_to_statevector(c, e)
            image = apply_to_basis(c, w)
            assert abs(out[image] - 1.0) < 1e-12
            assert np.sum(np.abs(out)) == pytest.approx(1.0, abs=1e-12)


def test_permutation_table_examples(orbits, circuit_sets):
    u = circuit_sets[21][0]
    table = permutation_table(u, (1, 2, 4, 8, 16, 11))
    assert table == {"domain": [1, 2, 4, 8, 16, 11], "image": [2, 4, 8, 16, 11, 1]}

    empty = LeveledCircuit(n_qubits=5, power=1, levels=((),))
    assert permutation_table(empty, [3, 9])["image"] == [3, 9]

    u2 = circuit_sets[21][1]
    assert permutation_table(u2, [1, 4, 16])["image"] == [4, 16, 1]


def test_concatenate_power(orbits, circuit_sets):
    u = circuit_sets[21][0]
    assert apply_to_basis(concatenate_power(u, 2), 1) == 4
    assert concatenate_power(u, 1).levels == u.levels
    # 16 applications of U wrap around the orbit: f(16 mod 6) = f(4) = 16
    assert apply_to_basis(concatenate_power(u, 16), 1) == 16
    assert concatenate_power(u, 2).version == "concatenated"


def test_restricted_equal(orbits, circuit_sets):
    domain = orbits[21].states
    u, u2, _, u8, _ = circuit_sets[21]
    assert restricted_equal(u2, u8, domain)
    assert not restricted_equal(u, u2, domain)


def test_lowering_equivalence():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 7)
        c = random_circuit(rng, n)
        lowered = lower_negative_controls(c)
        assert all(not ctl.negated for g in lowered.gates() for ctl in g.controls)
        dom = range(1 << n)
        assert permutation_table(c, dom) == permutation_table(lowered, dom)


def test_json_schema_shape(circuit_sets):
    u = circuit_sets[21][0]
    d = to_json_dict(u)
    assert set(d) == {"n_qubits", "power", "trnc_lv", "version", "levels"}
    assert d["version"] == "per_power"
    for level in d["levels"]:
        for g in level:
            if g["gate"] == "x":
                assert set(g) == {"gate", "target"}
            else:
                assert g["gate"] == "mcx"
                assert set(g) == {"gate", "target", "controls"}
                for ctl in g["controls"]:
                    assert set(ctl) == {"q", "neg"}


def test_json_round_trip(circuit_sets):
    for N, circuits in circuit_sets.items():
        for c in {id(x): x for x in circuits}.values():
            back = from_json(to_json(c))
            assert back == c
            dom = range(1 << c.n_qubits)
            assert permutation_table(back, dom) == permutation_table(c, dom)


def test_json_rejects_unknown_gate():
    with pytest.raises(ValueError):
        from_json_dict(
            {
                "n_qubits": 2,
                "power": 1,
                "trnc_lv": 0,
                "version": "per_power",
                "levels": [[{"gate": "h", "target": 0}]],
            }
        )


@pytest.mark.parametrize("gate", [
    Gate(target=3),
    Gate(target=0, controls=(Control(3),)),
    Gate(target=1, controls=(Control(0, negated=True), Control(3, negated=True))),
])
def test_gate_on_qubit_n_is_rejected(gate):
    with pytest.raises(ValueError, match="qubit 3 is outside 3 qubits"):
        LeveledCircuit(n_qubits=3, power=1, levels=((Gate(target=0),), (gate,)))
    data = to_json_dict(LeveledCircuit(n_qubits=4, power=1, levels=((gate,),)))
    data["n_qubits"] = 3
    with pytest.raises(ValueError, match="qubit 3 is outside 3 qubits"):
        from_json_dict(data)
