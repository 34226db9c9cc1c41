"""The bit-sliced gate kernel: ``apply_gates``, domain-only certificates and work images.

``Gate.apply`` is the oracle. Every caller evaluates the states it needs
alone, so no CLI path allocates anything of size 2^n, even at n = 24.
"""

import random
import tracemalloc

import numpy as np

from truncshor import Control, Gate, LeveledCircuit, apply_gates, permutation_table
from truncshor.cli import main

from oracles import basis_images


def random_gates(rng, n_qubits, count):
    gates = []
    for _ in range(count):
        target = rng.randrange(n_qubits)
        others = [q for q in range(n_qubits) if q != target]
        k = rng.choice((0, 0, rng.randrange(len(others) + 1)))  # plain X gates too
        controls = [Control(q, negated=rng.random() < 0.5) for q in rng.sample(others, k)]
        gates.append(Gate(target=target, controls=tuple(controls)))
    return gates


def scalar(gates, w):
    for gate in gates:
        w = gate.apply(w)
    return w


def test_apply_gates_matches_gate_apply_n1_to_12():
    rng = random.Random(9)
    for n in range(1, 13):
        for _ in range(6):
            gates = random_gates(rng, n, rng.randrange(0, 40))
            values = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 70))]
            values += values[: len(values) // 3]  # duplicates
            values += [v | rng.randrange(1, 1 << 20) << n for v in values[:5]]  # bits above
            array = np.array(values, dtype=np.int64)
            assert apply_gates(gates, array) is array
            assert array.tolist() == [scalar(gates, w) for w in values]


def test_apply_gates_edge_cases():
    values = np.array([5, 1 << 40 | 3, 5], dtype=np.int64)
    assert apply_gates([], values).tolist() == [5, 1 << 40 | 3, 5]
    empty = np.array([], dtype=np.int64)
    assert apply_gates(random_gates(random.Random(1), 4, 10), empty) is empty
    assert empty.shape == (0,)
    assert apply_gates([Gate(target=2), Gate(target=0)], values).tolist() == [0, 1 << 40 | 6, 0]
    negated = Gate(target=1, controls=(Control(0, negated=True),))
    assert apply_gates(iter([negated]), values).tolist() == [2, 1 << 40 | 4, 2]


def test_apply_gates_over_all_2_to_16_states():
    # the changed planes are unpacked together and weighted as int64: about 8 bytes
    # per state per changed plane, plus the flips
    n = 16
    rng = random.Random(16)
    gates = random_gates(rng, n, 400)
    values = np.arange(1 << n, dtype=np.int64)
    tracemalloc.start()
    try:
        apply_gates(gates, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + 8) * (1 << n)
    sample = rng.sample(range(1 << n), 300)
    assert values[sample].tolist() == [scalar(gates, w) for w in sample]


def test_run_at_n24_allocates_nothing_of_size_2_to_the_n(tmp_path, capsys):
    # N = 2^24 - 1, a = 2: r = 24 orbit states on 24 qubits; a 2^24 table is 128 MiB
    out = tmp_path / "hist.csv"
    tracemalloc.start()
    try:
        code = main(["run", "--N", "16777215", "--a", "2", "--m", "16", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 << 20
    assert out.read_text().count("\n") == 1 + (1 << 16)
    capsys.readouterr()


def test_permutation_table_builds_no_table():
    rng = random.Random(3)
    circuit = LeveledCircuit(n_qubits=10, power=1, levels=(tuple(random_gates(rng, 10, 50)),))
    domain = rng.sample(range(1 << 10), 40)
    cert = permutation_table(circuit, domain)
    assert not hasattr(circuit, "table")
    assert cert["domain"] == domain
    assert cert["image"] == [scalar(list(circuit.gates()), w) for w in domain]
    assert cert["image"] == basis_images(circuit, domain)


def test_synth_at_n24_allocates_nothing_of_size_2_to_the_n(tmp_path, capsys):
    # N = 2^24 - 1, a = 2: r = 24 orbit states on 24 qubits; a 2^24 table is 128 MiB
    tracemalloc.start()
    try:
        code = main(["synth", "--N", "16777215", "--a", "2", "--powers", "1",
                     "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 << 20
    cert = (tmp_path / "me_N16777215_a2_p1_trnc0_cert.json").read_text()
    domain = [1 << k for k in range(24)]
    assert cert == ('{\n  "domain": [\n' + ",\n".join(f"    {v}" for v in domain)
                    + '\n  ],\n  "image": [\n'
                    + ",\n".join(f"    {v}" for v in domain[1:] + domain[:1]) + "\n  ]\n}\n")
    capsys.readouterr()
