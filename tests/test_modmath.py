import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

import truncshor.modmath
from truncshor import (
    FactoringInstance,
    NotCoprimeError,
    Orbit,
    TrivialFactorError,
    analyze_measurement,
    build_orbit,
    check_period,
    continued_fraction,
    convergents,
    cycle_decomposition,
    extract_factors,
    mod_pow,
)
from truncshor.shor import nearest_phase_bin

from conftest import CASES
from oracles import cycle_decomposition_scan, factor_mask_oracle
from reference_data import ORBITS


def test_mod_pow_examples():
    assert mod_pow(2, 5, 21) == 11
    assert mod_pow(7, 0, 33) == 1
    assert mod_pow(5, 10, 143) == 12


def test_mod_pow_validation():
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, -1, 21)


def test_mod_pow_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(200):
        N = rng.randrange(2, 1000)
        a = rng.randrange(0, N)
        x = rng.randrange(0, 50)
        expect = 1 % N
        for _ in range(x):
            expect = (expect * a) % N
        assert mod_pow(a, x, N) == expect


def test_instance_validation():
    with pytest.raises(ValueError):
        FactoringInstance(N=14, a=3, m=3)  # even
    with pytest.raises(ValueError):
        FactoringInstance(N=9, a=2, m=3)  # too small
    with pytest.raises(ValueError):
        FactoringInstance(N=21, a=1, m=3)  # base too small
    with pytest.raises(ValueError):
        FactoringInstance(N=21, a=21, m=3)  # base too large
    with pytest.raises(ValueError):
        FactoringInstance(N=21, a=2, m=12)  # m > 2n + 1
    with pytest.raises(ValueError):
        FactoringInstance(N=21, a=2, m=0)


def test_instance_derived_widths():
    inst = FactoringInstance(N=21, a=2, m=5)
    assert inst.n == 5
    assert inst.M == 32
    assert FactoringInstance(N=33, a=7, m=6).n == 6
    assert FactoringInstance(N=247, a=2, m=10).n == 8


def test_not_coprime_carries_factor():
    with pytest.raises(NotCoprimeError) as exc:
        FactoringInstance(N=21, a=7, m=5)
    assert exc.value.common == 7


@pytest.mark.parametrize("N", sorted(ORBITS))
def test_build_orbit_goldens(orbits, N):
    assert list(orbits[N].states) == ORBITS[N]


@pytest.mark.parametrize("cap, ok", [(6, True), (5, False)])  # N=21, a=2 has r = 6
def test_build_orbit_caps_the_period(monkeypatch, cap, ok):
    monkeypatch.setattr(truncshor.modmath, "MAX_PERIOD", cap)
    inst = FactoringInstance(N=21, a=2, m=1)
    if ok:
        assert build_orbit(inst).r == 6
    else:
        with pytest.raises(ValueError, match="period of a=2 mod N=21 exceeds the cap of 5 states"):
            build_orbit(inst)


def test_build_orbit_n35(orbits):
    assert orbits[35].r == 6
    assert orbits[35].states[0] == 1


def test_orbit_invariants(orbits):
    for orbit in orbits.values():
        N, a = orbit.instance.N, orbit.instance.a
        states = orbit.states
        assert len(set(states)) == orbit.r
        assert all(1 <= s < N for s in states)
        for i in range(orbit.r):
            assert states[(i + 1) % orbit.r] == (a * states[i]) % N
        # r is minimal: no smaller exponent returns to 1
        for d in range(1, orbit.r):
            assert mod_pow(a, d, N) != 1
        assert mod_pow(a, orbit.r, N) == 1


def test_cycle_decomposition_examples(orbits):
    assert [list(c) for c in cycle_decomposition(orbits[21], 2)] == [
        [1, 4, 16],
        [2, 8, 11],
    ]
    assert [list(c) for c in cycle_decomposition(orbits[21], 1)] == [
        [1, 2, 4, 8, 16, 11]
    ]
    heads = [c[0] for c in cycle_decomposition(orbits[143], 4)]
    assert heads == [1, 5, 25, 125]


def test_cycle_decomposition_identity_power(orbits):
    cycles = cycle_decomposition(orbits[21], 6)
    assert cycles == tuple((s,) for s in orbits[21].states)
    assert cycle_decomposition(orbits[21], 12) == cycles


@pytest.mark.parametrize("N", range(15, 64, 2))
def test_cycle_decomposition_equals_scan(N):
    for a in range(2, N):
        if gcd(a, N) != 1:
            continue
        inst = FactoringInstance(N=N, a=a, m=1)
        orbit = build_orbit(inst)
        for p in {*range(1, orbit.r + 2), *(1 << q for q in range(2 * inst.n + 1))}:
            assert cycle_decomposition(orbit, p) == cycle_decomposition_scan(orbit, p)


@pytest.mark.parametrize("N", [21, 33, 35, 143, 247])
@pytest.mark.parametrize("q", range(10))
def test_cycle_decomposition_properties(orbits, N, q):
    orbit = orbits[N]
    p = 1 << q
    r = orbit.r
    cycles = cycle_decomposition(orbit, p)
    flat = [s for c in cycles for s in c]
    assert sorted(flat) == sorted(orbit.states)
    step = p % r
    if step == 0:
        assert len(cycles) == r
    else:
        g = gcd(step, r)
        assert len(cycles) == g
        assert all(len(c) == r // g for c in cycles)
    # following the step map reproduces each cycle as a rotation
    index = {s: i for i, s in enumerate(orbit.states)}
    for cycle in cycles:
        for i, s in enumerate(cycle):
            succ = orbit.states[(index[s] + p) % r]
            assert cycle[(i + 1) % len(cycle)] == succ


def test_continued_fraction_examples():
    assert continued_fraction(5, 32) == [0, 6, 2, 2]
    assert continued_fraction(27, 32) == [0, 1, 5, 2, 2]
    assert continued_fraction(0, 32) == [0]


def test_convergents_examples():
    assert convergents([0, 6, 2, 2]) == [(0, 1), (1, 6), (2, 13), (5, 32)]
    assert convergents([0, 1, 5, 2, 2]) == [(0, 1), (1, 1), (5, 6), (11, 13), (27, 32)]
    assert convergents([0]) == [(0, 1)]


def test_convergents_validation():
    with pytest.raises(ValueError):
        convergents([])
    with pytest.raises(ValueError):
        convergents([1, 2])


def test_continued_fraction_exhaustive_small_denominators():
    """Every l/M with M a power of two up to 2^12."""
    for k in range(1, 13):
        M = 1 << k
        for l in range(M):
            cf = continued_fraction(l, M)
            convs = convergents(cf)
            # last convergent is the input in lowest terms
            frac = Fraction(l, M)
            assert convs[-1] == (frac.numerator, frac.denominator)
            # every convergent is reduced; denominators never decrease and
            # are strictly increasing beyond the second entry
            dens = [d for _, d in convs]
            for s, d in convs:
                assert gcd(s, d) == 1 or (s == 0 and d == 1)
            assert all(d2 >= d1 for d1, d2 in zip(dens, dens[1:]))
            assert all(d2 > d1 for d1, d2 in zip(dens[1:], dens[2:]))
            # the coefficients really encode l/M
            value = Fraction(0)
            for a in reversed(cf[1:]):
                value = 1 / (a + value)
            assert value == frac


def test_check_period_examples():
    inst = FactoringInstance(N=21, a=2, m=5)
    assert check_period(inst, 6).accepted
    chk13 = check_period(inst, 13)
    assert not chk13.accepted and chk13.reason == "odd"
    chk32 = check_period(inst, 32)
    assert not chk32.accepted and chk32.reason == "not-period"


def test_check_period_trivial_sqrt():
    # 14^2 = 1 mod 15 with 14 = -1: the square root is trivial
    inst = FactoringInstance(N=15, a=14, m=3)
    chk = check_period(inst, 2)
    assert not chk.accepted and chk.reason == "trivial-sqrt"


def test_extract_factors_examples():
    assert extract_factors(FactoringInstance(N=21, a=2, m=5), 6) == (7, 3)
    assert extract_factors(FactoringInstance(N=143, a=5, m=10), 20) == (11, 13)
    f1, f2 = extract_factors(FactoringInstance(N=247, a=2, m=10), 36)
    assert {f1, f2} == {13, 19} and f1 * f2 == 247


def test_extract_factors_trivial():
    # r = 12 passes the even/period checks for N=21, a=2 but 2^6 = 1 mod 21
    inst = FactoringInstance(N=21, a=2, m=5)
    assert check_period(inst, 12).accepted
    with pytest.raises(TrivialFactorError):
        extract_factors(inst, 12)


def test_extract_factors_multiply_to_N(orbits):
    for orbit in orbits.values():
        inst = orbit.instance
        if check_period(inst, orbit.r).accepted:
            f1, f2 = extract_factors(inst, orbit.r)
            assert f1 * f2 == inst.N
            assert 1 < f1 < inst.N and 1 < f2 < inst.N


def test_analyze_measurement_table_cases():
    inst = FactoringInstance(N=21, a=2, m=5)
    rep5 = analyze_measurement(inst, 5)
    assert rep5.factors == (7, 3)
    assert rep5.convergents == ((0, 1), (1, 6), (2, 13), (5, 32))
    assert [v.verdict for v in rep5.verdicts] == [
        "rejected-odd",
        "factors",
        "rejected-odd",
        "rejected-check",
    ]
    rep27 = analyze_measurement(inst, 27)
    assert rep27.factors == (7, 3)
    assert rep27.verdicts[2].convergent == (5, 6)
    rep0 = analyze_measurement(inst, 0)
    assert rep0.factors is None
    assert rep0.convergents == ((0, 1),)


def test_analyze_measurement_validation():
    inst = FactoringInstance(N=21, a=2, m=5)
    with pytest.raises(ValueError):
        analyze_measurement(inst, 32)
    with pytest.raises(ValueError):
        analyze_measurement(inst, -1)


def test_analyze_measurement_recovers_period(orbits):
    """Measuring the bin nearest M*s/r recovers r for every coprime s at m = 2n+1."""
    for N, orbit in orbits.items():
        base = orbit.instance
        inst = FactoringInstance(N=N, a=base.a, m=2 * base.n + 1)
        r = orbit.r
        for s in range(1, r):
            if gcd(s, r) != 1:
                continue
            l = nearest_phase_bin(s, r, inst.M)
            report = analyze_measurement(inst, l)
            assert (s, r) in report.convergents
            assert report.factors is not None
            f1, f2 = report.factors
            assert f1 * f2 == N


# The studied instances, then unlucky bases (odd r: N=21, a=4; a**(r/2) = -1:
# N=15, a=14 and the prime power N=25, a=2) and one wide register.
MASK_CASES = [(N, a, m) for N, (a, m) in CASES.items()] + [
    (21, 4, 11),
    (15, 14, 9),
    (25, 2, 11),
    (143, 5, 13),
]


@pytest.mark.parametrize("N, a, m", MASK_CASES)
def test_factor_mask_matches_analysis(N, a, m):
    inst = FactoringInstance(N=N, a=a, m=m)
    expected = [analyze_measurement(inst, l).factors is not None for l in range(inst.M)]
    assert build_orbit(inst).factor_mask.tolist() == expected


@pytest.mark.parametrize("block, max_m", [(1, 10), (3, 10), (truncshor.modmath._EUCLID_BLOCK, 13)])
def test_blocked_factor_mask_equals_one_pass(monkeypatch, block, max_m):
    # Every odd N in 15..63, every coprime a and every m in 1..min(2n+1, max_m): blocks
    # of 1 and 3 values cost about 50 and 20 us per l, so they stop at M = 1024. The
    # mask depends on (N, a) only through r and whether check_period accepts it, so
    # each block size runs once per (r, accepted, m); every accepted r is in 2..20.
    monkeypatch.setattr(truncshor.modmath, "_EUCLID_BLOCK", block)
    seen = set()
    for N in range(15, 64, 2):
        for a in (a for a in range(2, N) if gcd(a, N) == 1):
            base = build_orbit(FactoringInstance(N=N, a=a, m=1))
            accepted = check_period(base.instance, base.r).accepted
            for m in range(1, min(2 * base.instance.n + 1, max_m) + 1):
                if (base.r, accepted, m) in seen:
                    continue
                seen.add((base.r, accepted, m))
                orbit = Orbit(FactoringInstance(N=N, a=a, m=m), base.states)
                assert orbit.factor_mask.tolist() == factor_mask_oracle(orbit).tolist(), (N, a, m)
    assert {r for r, accepted, _ in seen if accepted} == {2, 4, 6, 8, 10, 12, 16, 18, 20}


@pytest.mark.parametrize("N, a, m", [(143, 5, 17), (247, 2, 16)])
def test_factor_mask_over_several_blocks_equals_one_pass(N, a, m):
    orbit = build_orbit(FactoringInstance(N=N, a=a, m=m))
    assert orbit.instance.M >= 4 * truncshor.modmath._EUCLID_BLOCK
    assert orbit.factor_mask.any()
    assert orbit.factor_mask.tolist() == factor_mask_oracle(orbit).tolist()


def test_factor_mask_temporaries_are_one_block():
    # one pass over all 2^20 values of l held five int64 arrays and their
    # compressed copies: an 82.9 MiB peak
    orbit = build_orbit(FactoringInstance(N=1001, a=2, m=20))
    tracemalloc.start()
    try:
        mask = orbit.factor_mask
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert mask.shape == (1 << 20,) and mask.any()


def test_report_json_round_trip():
    inst = FactoringInstance(N=21, a=2, m=5)
    rep = analyze_measurement(inst, 5)
    data = json.loads(rep.to_json(frequency=466))
    assert data["l_measured"] == 5
    assert data["frequency"] == 466
    assert data["phi_phase_bin"] == "0.00101"
    assert data["phi_phase_frc"] == [5, 32]
    assert data["cont_frc_of_phi"] == [0, 6, 2, 2]
    assert data["convergents_of_phi"][1] == [1, 6]
    assert data["verdicts"][1]["factors"] == [7, 3]


def test_report_phase_fields_reduced():
    inst = FactoringInstance(N=21, a=2, m=5)
    rep = analyze_measurement(inst, 4)
    assert rep.phase_fraction == (1, 8)
    assert rep.phase_binary == "00100"
    assert rep.phase_decimal == 0.125
