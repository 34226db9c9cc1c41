"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The stochastic truncation-cliff bands (criterion 7) use a fixed
ensemble seed; everything else is exact or tolerance-bounded.
"""

import math

import numpy as np

from truncshor import (
    FactoringInstance,
    Orbit,
    analyze_measurement,
    apply_to_basis,
    build_orbit,
    cycle_decomposition,
    exact_distribution,
    from_json,
    lower_negative_controls,
    peak_presence,
    permutation_table,
    synth_all_powers,
    synth_me_operator,
    to_json,
    to_qasm3,
    truncation_sweep,
    work_images,
)

from conftest import CASES
from oracles import (
    analytic_amplitude,
    apply_to_statevector,
    concatenate_power,
    eigenstate_vector,
    restricted_equal,
    run_shor_dense,
)
from qasm_grammar import validate_qasm3
from reference_data import (
    CYCLES,
    CYCLES_UNORDERED,
    ORBITS,
    TABLE_N21_L5,
    TABLE_N21_L27,
)

BASE_SEED = 1905


def _ok(msg):
    print(f"PASS  {msg}")


def test_c01_orbit_goldens(orbits):
    for N, expected in ORBITS.items():
        assert list(orbits[N].states) == expected
    assert orbits[21].r == 6
    assert orbits[33].r == 10
    assert orbits[35].r == 6
    assert orbits[143].r == 20
    assert orbits[247].r == 36
    _ok("criterion 1: orbit goldens (N=21, 33, 35, 143, 247)")


def test_c02_cycle_goldens(orbits):
    for (N, p), expected in CYCLES.items():
        got = [list(c) for c in cycle_decomposition(orbits[N], p)]
        if (N, p) in CYCLES_UNORDERED:
            assert sorted(got) == sorted(expected), (N, p)
        else:
            assert got == expected, (N, p)
    _ok(f"criterion 2: {len(CYCLES)} cycle-structure goldens reproduced")


def test_c03_synthesis_correctness(orbits):
    for N in (21, 33, 143, 247):
        orbit = orbits[N]
        m = CASES[N][1]
        r = orbit.r
        u1 = synth_me_operator(orbit, 1)
        for q in range(m):
            p = 1 << q
            circuit = synth_me_operator(orbit, p)
            for k in range(r):
                assert apply_to_basis(circuit, orbit.states[k]) == orbit.states[(k + p) % r]
            assert restricted_equal(circuit, concatenate_power(u1, p), orbit.states)
    duplicate_pairs = {
        21: [(2, 8), (4, 16)],
        33: [(2, 32)],
        143: [(4, 64), (8, 128), (16, 256), (32, 512)],
        247: [(4, 256), (8, 512)],
    }
    for N, pairs in duplicate_pairs.items():
        orbit = orbits[N]
        for p1, p2 in pairs:
            assert restricted_equal(
                synth_me_operator(orbit, p1), synth_me_operator(orbit, p2), orbit.states
            ), (N, p1, p2)
    _ok("criterion 3: synthesis exact for all powers; concatenation and duplicate identities hold")


def test_c04_table_golden():
    inst = FactoringInstance(N=21, a=2, m=5)
    assert analyze_measurement(inst, 5).to_text(frequency=466) == TABLE_N21_L5
    assert analyze_measurement(inst, 27).to_text(frequency=458) == TABLE_N21_L27
    _ok("criterion 4: byte-level analysis blocks for l=5 and l=27")


def test_c05_distribution_oracle(instances, orbits, circuit_sets):
    for N in CASES:
        inst = instances[N]
        r = orbits[N].r
        M = inst.M
        dist = exact_distribution(inst, work_images(circuit_sets[N], inst.M)).probabilities
        oracle = np.array(
            [
                sum(abs(analytic_amplitude(s, r, l, M)) ** 2 for s in range(r))
                for l in range(M)
            ]
        )
        assert np.max(np.abs(dist - oracle)) < 1e-9, N
    for N in (21, 33):
        inst = instances[N]
        dense = run_shor_dense(inst, circuit_sets[N]).probabilities
        fast = exact_distribution(inst, work_images(circuit_sets[N], inst.M)).probabilities
        assert np.max(np.abs(dense - fast)) < 1e-9, N
    _ok("criterion 5: closed-form amplitudes and dense backend agree within 1e-9")


def test_c06_degenerate_exact_phases():
    inst = FactoringInstance(N=15, a=2, m=5)
    orbit = build_orbit(inst)
    assert orbit.r == 4
    p = exact_distribution(inst, work_images(synth_all_powers(orbit, 5), inst.M)).probabilities
    for l in range(32):
        expect = 0.25 if l in (0, 8, 16, 24) else 0.0
        assert abs(p[l] - expect) < 1e-12, l
    _ok("criterion 6: N=15 distribution is exactly 1/4 on the four m-bit phases")


def test_c07_truncation_cliffs(instances):
    # N=21, m=5: shallow levels factor quickly, the last level collapses
    means21 = {
        res.trnc_lv: res.mean
        for res in truncation_sweep(instances[21], range(6), num_it=150, base_seed=BASE_SEED)
    }
    for t in range(5):
        assert means21[t] <= 15, (t, means21[t])
    assert means21[5] >= 40, means21[5]

    # N=33, m=6: still factorable with only 4 of 10 levels
    (res33,) = truncation_sweep(instances[33], [6], num_it=150, base_seed=BASE_SEED)
    assert res33.mean <= 20, res33.mean

    # N=143, m=10: flat and low through level 14, cliff located at 15..17
    means143 = {
        res.trnc_lv: res.mean
        for res in truncation_sweep(instances[143], range(18), num_it=150, base_seed=BASE_SEED)
    }
    for t in range(15):
        assert means143[t] <= 10, (t, means143[t])
    first_exceed = min(t for t, mean in means143.items() if mean > 25)
    assert 15 <= first_exceed <= 17, (first_exceed, means143)

    # N=247, m=10: still factorable with 25 of 36 levels dropped
    (res247,) = truncation_sweep(instances[247], [25], num_it=150, base_seed=BASE_SEED)
    assert res247.mean <= 20, res247.mean
    _ok(
        "criterion 7: cliffs at N=21 level 5 "
        f"(mean {means21[5]:.1f}), N=143 level {first_exceed}, "
        f"N=33 mean {res33.mean:.1f} at 6, N=247 mean {res247.mean:.1f} at 25"
    )


def test_c08_resolution_peaks(instances, orbits):
    expectations = {
        (143, 8): {1, 3, 9, 11, 17, 19},
        (143, 10): {1, 3, 7, 9, 11, 13, 17, 19},
        (247, 8): {1, 17, 19, 35},
        (247, 10): {1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35},
    }
    for (N, m), expected in expectations.items():
        inst = FactoringInstance(N=N, a=instances[N].a, m=m)
        orbit = Orbit(inst, orbits[N].states)
        dist = exact_distribution(inst, work_images(synth_all_powers(orbit, m), inst.M))
        peaks = peak_presence(orbit, dist)
        present = {s for s, ok in peaks.items() if ok}
        assert present == expected, (N, m, present)
    _ok("criterion 8: peak tables (143: 6 vs 8 peaks; 247: 4 vs 12 peaks)")


def test_c09_eigenstructure(orbits, circuit_sets):
    for N in CASES:
        orbit = orbits[N]
        u = circuit_sets[N][0]
        r = orbit.r
        for s in range(r):
            vec = eigenstate_vector(orbit, s)
            out = apply_to_statevector(u, vec)
            assert np.max(np.abs(out - np.exp(2j * np.pi * s / r) * vec)) < 1e-9, (N, s)
        e1 = np.zeros(1 << orbit.instance.n, dtype=complex)
        e1[1] = 1.0
        total = sum(eigenstate_vector(orbit, s) for s in range(r)) / math.sqrt(r)
        assert np.max(np.abs(total - e1)) < 1e-9, N
    _ok("criterion 9: eigenvalue relations and eigenstate resolution of |1>")


def test_c10_serialization_round_trip(circuit_sets):
    for N, circuits in circuit_sets.items():
        for c in {id(x): x for x in circuits}.values():
            full_domain = range(1 << c.n_qubits)
            back = from_json(to_json(c))
            assert permutation_table(back, full_domain) == permutation_table(c, full_domain)
            validate_qasm3(to_qasm3(c))
            lowered = lower_negative_controls(c)
            assert permutation_table(lowered, full_domain) == permutation_table(c, full_domain)
    _ok("criterion 10: JSON round-trip, QASM grammar, and lowering all preserve action")
