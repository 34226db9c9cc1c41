import csv
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import truncshor
import truncshor.experiments
import truncshor.modmath
from truncshor import (
    FactoringInstance,
    PhaseDistribution,
    TryOutcome,
    build_orbit,
    derive_seed,
    exact_distribution,
    histogram_csv,
    peak_presence,
    resolution_study,
    study_csv,
    study_json,
    analyze_measurement,
    extract_factors,
    synth_all_powers,
    tries_ensemble,
    tries_until_factor,
    truncate,
    truncation_sweep,
    work_images,
)

from conftest import CASES
from oracles import tries_until_factor_oracle


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(7, t, i) for t in range(20) for i in range(200)}
    assert len(seen) == 20 * 200
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert all(0 <= s < (1 << 64) for s in list(seen)[:10])


def test_tries_until_factor_point_mass(orbits):
    p = np.zeros(32)
    p[5] = 1.0
    dist = PhaseDistribution(m=5, probabilities=p)
    outcome = tries_until_factor(orbits[21], dist, seed=0)
    assert outcome.tries == 1
    assert not outcome.capped
    assert outcome.l == 5
    assert outcome.factors == (7, 3)


def test_tries_until_factor_caps(orbits):
    p = np.zeros(32)
    p[0] = 1.0  # barren outcome: only convergent is (0, 1)
    dist = PhaseDistribution(m=5, probabilities=p)
    outcome = tries_until_factor(orbits[21], dist, seed=3, max_tries=25)
    assert outcome.tries == 25
    assert outcome.capped
    assert outcome.factors is None


def one_call_oracle(orbit, dist, seed, max_tries):
    """Test-side oracle: all max_tries outcomes drawn in one call; the first factor-producing one wins."""
    draws = dist.cdf.searchsorted(np.random.default_rng(seed).random(max_tries), side="right")
    hits = np.flatnonzero(orbit.factor_mask[draws])
    if hits.size == 0:
        return max_tries, None, True
    return int(hits[0]) + 1, int(draws[hits[0]]), False


def test_chunked_draws_match_one_call(monkeypatch, orbits):
    """Chunks of 16, 32, 64, ... up to _CHUNK give the one-call stream and stop at the chunk that wins."""
    orbit = orbits[21]
    inst = orbit.instance
    p = np.zeros(inst.M)
    p[0], p[5] = 299.0, 1.0  # l = 5 wins once in 300 tries, l = 0 never
    dist = PhaseDistribution(m=inst.m, probabilities=p)
    sizes = []
    uniforms = truncshor.experiments._uniforms

    def recording(state, inc, size):
        sizes.append(size)
        return uniforms(state, inc, size)

    monkeypatch.setattr(truncshor.experiments, "_uniforms", recording)

    def run(seed, max_tries):
        sizes.clear()
        outcome = tries_until_factor(orbit, dist, seed=seed, max_tries=max_tries)
        assert sizes.pop(0) == 1  # seeding: _streams steps once from s + inc
        chunks = [min(c, truncshor.experiments._CHUNK) for c in (16, 32, 64, 128, 256, 512)]
        chunks = [min(c, max_tries - sum(chunks[:k])) for k, c in enumerate(chunks)]
        assert sizes == chunks[: len(sizes)]
        if outcome.capped:
            assert sum(sizes) == max_tries
        else:
            assert sum(sizes[:-1]) < outcome.tries <= sum(sizes)
        return outcome.tries, outcome.l, outcome.capped

    # chunk bounds at 500 tries: 16, 48, 112, 240, 496, 500
    wanted = {1, 16, 17, 48, 49, 112, 113, 240, 241, 496, 497, 499, 500, "capped"}
    seen = set()
    for seed in range(20000):
        expected = one_call_oracle(orbit, dist, seed, 500)
        assert run(seed, 500) == expected
        seen.add("capped" if expected[2] else expected[0])
        if wanted <= seen:
            break
    assert wanted <= seen
    with monkeypatch.context() as patch:  # chunks stop doubling at _CHUNK
        patch.setattr(truncshor.experiments, "_CHUNK", 32)
        for seed in range(40):
            assert run(seed, 100) == one_call_oracle(orbit, dist, seed, 100)
    p[0], p[5] = 3.0, 1.0
    dist = PhaseDistribution(m=inst.m, probabilities=p)
    for max_tries in (1, 15, 16, 17, 30, 48, 49):
        for seed in range(100):
            assert run(seed, max_tries) == one_call_oracle(orbit, dist, seed, max_tries)


def test_streams_give_the_default_rng_streams():
    # Edge seeds: word-count boundaries of SeedSequence's uint32 entropy (4 words fill
    # its pool; more take its extra-word mixing), and the top bits of PCG64's 128-bit words.
    edges = [0, 1, 5, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127, 2**128 - 1, 2**128, 2**160 + 3]
    randoms = np.random.default_rng(20).integers(0, 2**64, 300, dtype=np.uint64).tolist()
    seeds = edges + randoms + edges
    state, inc = truncshor.experiments._streams(seeds)
    assert state.shape == inc.shape == (len(seeds), 4) and state.dtype == inc.dtype == np.uint64
    assert state.max() < 2**32 and inc.max() < 2**32  # 32-bit limbs
    references = [np.random.default_rng(seed) for seed in seeds]
    for size in (16, 32, 40, 1, 4, 4096):  # the last, 1.4M draws, to meet rare carries
        drawn, state = truncshor.experiments._uniforms(state, inc, size)
        for row, seed, reference in zip(drawn, seeds, references, strict=True):
            assert np.array_equal(row, reference.random(size)), (seed, size)
    with pytest.raises(ValueError, match="non-negative"):
        truncshor.experiments._streams([3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        tries_until_factor(build_orbit(FactoringInstance(N=21, a=2, m=5)), PhaseDistribution(5, np.full(32, 1 / 32)), -1)


@pytest.mark.parametrize("size", [16, 256])
def test_uniforms_at_a_full_block_hold_at_most_four_blocks(size):
    # three (seeds, size) uint64 arrays live at once, and 16 limbs a seed: a chunk's worth at 16
    state, inc = truncshor.experiments._streams(range(truncshor.experiments._BLOCK // size))
    truncshor.experiments._uniforms(state[:1], inc[:1], size)  # the jump table, grown once
    tracemalloc.start()
    try:
        drawn, _ = truncshor.experiments._uniforms(state, inc, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn.shape == (len(state), size) and drawn.size == truncshor.experiments._BLOCK
    assert peak <= 4 * drawn.nbytes


@pytest.mark.parametrize("N, a", [(21, 4), (25, 2)])  # odd r; a**(r/2) = -1 mod N
def test_instance_without_factor_outcomes_draws_nothing(monkeypatch, N, a):
    orbit = build_orbit(FactoringInstance(N=N, a=a, m=5))
    assert not orbit.factor_mask.any()
    dist = PhaseDistribution(m=5, probabilities=np.full(32, 1 / 32))

    def no_streams(seeds):
        raise AssertionError("streams seeded")

    monkeypatch.setattr(truncshor.experiments, "_streams", no_streams)
    outcome = tries_until_factor(orbit, dist, seed=1, max_tries=77)
    assert outcome == TryOutcome(tries=77, capped=True)


def test_mismatched_distribution_width_is_rejected(orbits):
    # l = 5 of 2^4 yields no factors; read as l = 5 of 2^5 it would give (7, 3)
    orbit = orbits[21]
    p = np.zeros(16)
    p[5] = 1.0
    dist = PhaseDistribution(m=4, probabilities=p)
    with pytest.raises(ValueError, match="m=4"):
        tries_until_factor(orbit, dist, seed=0)
    with pytest.raises(ValueError, match="m=4"):
        histogram_csv(orbit, dist)


def test_tries_until_factor_untruncated(instances, orbits, circuit_sets):
    inst = instances[21]
    dist = exact_distribution(inst, work_images(circuit_sets[21], inst.M))
    outcome = tries_until_factor(orbits[21], dist, seed=derive_seed(12, 0, 0))
    assert not outcome.capped
    assert outcome.factors == (7, 3)
    assert 1 <= outcome.tries <= 100


def test_sweep_determinism(instances):
    a = truncation_sweep(instances[21], [0, 2], num_it=10, base_seed=13)
    b = truncation_sweep(instances[21], [0, 2], num_it=10, base_seed=13)
    assert [(x.tries, x.capped) for x in a] == [(y.tries, y.capped) for y in b]
    c = truncation_sweep(instances[21], [0, 2], num_it=10, base_seed=14)
    assert [x.tries for x in a] != [x.tries for x in c]


def test_sweep_shape_and_mean(instances):
    results = truncation_sweep(instances[21], range(3), num_it=8, base_seed=5)
    assert [r.trnc_lv for r in results] == [0, 1, 2]
    for r in results:
        assert r.num_it == 8
        assert len(r.tries) == 8
        assert len(r.capped) == 8
        assert r.mean == pytest.approx(sum(r.tries) / 8)
        assert all(1 <= t <= 500 for t in r.tries)


def test_single_iteration_mean(instances):
    results = truncation_sweep(instances[21], [0], num_it=1, base_seed=77)
    assert results[0].mean == results[0].tries[0]


def test_untruncated_no_worse_than_fully_truncated(instances):
    """Means are not asserted monotone, but the extremes must order."""
    for N in (21, 33, 35, 143, 247):
        inst = instances[N]
        r = build_orbit(inst).r
        results = truncation_sweep(inst, [0, r - 1], num_it=12, base_seed=101)
        assert results[0].mean <= results[1].mean


def test_peak_presence_n21(instances, circuit_sets, orbits):
    dist = exact_distribution(instances[21], work_images(circuit_sets[21], instances[21].M))
    peaks = peak_presence(orbits[21], dist)
    assert peaks == {1: True, 5: True}


def test_peak_presence_n33(instances, circuit_sets, orbits):
    dist = exact_distribution(instances[33], work_images(circuit_sets[33], instances[33].M))
    peaks = peak_presence(orbits[33], dist)
    assert peaks == {1: True, 3: True, 7: True, 9: True}


def test_peak_presence_keys():
    # the eigenphases s/r with gcd(s, r) = 1, the ones that can produce factors
    uniform = PhaseDistribution(m=6, probabilities=np.full(64, 1 / 64))
    for N, a, keys in ((21, 2, {1, 5}), (15, 4, {1}), (33, 2, {1, 3, 7, 9}), (35, 2, {1, 5, 7, 11})):
        inst = FactoringInstance(N=N, a=a, m=6)
        orbit = build_orbit(inst)
        assert keys == {s for s in range(orbit.r) if math.gcd(s, orbit.r) == 1}
        assert set(peak_presence(orbit, uniform)) == keys


def test_sweep_checks_each_level_as_it_goes():
    # the range is never listed: the first level outside [0, r) stops it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^trnc_lv=6 outside \[0, 6\)$"):
            truncation_sweep(FactoringInstance(N=21, a=2, m=5), range(0, 3_000_000),
                             num_it=1, base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resolution_study_shape(instances):
    cells = resolution_study(
        instances[21], m_values=[4, 5], trnc_range=[0, 1], num_it=3, base_seed=9
    )
    assert set(cells) == {(4, 0), (4, 1), (5, 0), (5, 1)}
    for (m, t), result in cells.items():
        assert result.orbit.instance.m == m
        assert result.trnc_lv == t


def test_study_csv_and_json(instances):
    results = truncation_sweep(instances[21], [0, 1], num_it=4, base_seed=3)
    text = study_csv(results)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["N"] == "21" and rows[0]["a"] == "2"
    assert rows[0]["r"] == "6" and rows[0]["n"] == "5" and rows[0]["m"] == "5"
    assert rows[0]["trnc_lv"] == "0" and rows[1]["trnc_lv"] == "1"
    assert float(rows[0]["mean_tries"]) == results[0].mean

    data = json.loads(study_json(results))
    assert len(data["rows"]) == 2
    assert data["rows"][0]["tries"] == list(results[0].tries)
    assert data["rows"][0]["capped"] == list(results[0].capped)
    assert data["rows"][0]["mean_tries"] == results[0].mean


def test_seed_required_semantics():
    with pytest.raises(ValueError):
        truncation_sweep(FactoringInstance(N=21, a=2, m=5), [0], num_it=0, base_seed=1)


def test_resolution_study_synthesizes_once_per_residue(synth_calls):
    # N=21 has r = 6; powers 1..16 fall on the residues 1, 2, 4
    cells = resolution_study(
        FactoringInstance(N=21, a=2, m=5), [4, 5], range(3), num_it=2, base_seed=3
    )
    assert len(cells) == 6
    assert synth_calls == [1, 2, 4]


def test_resolution_study_checks_levels_before_any_cell(monkeypatch):
    calls = []
    monkeypatch.setattr(truncshor.experiments, "exact_distribution", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="trnc_lv=6"):
        resolution_study(FactoringInstance(N=21, a=2, m=5), [5], [0, 6], num_it=1, base_seed=0)
    assert calls == []


def test_resolution_study_checks_widths_before_any_synthesis(monkeypatch):
    calls = []
    monkeypatch.setattr(truncshor.experiments, "synth_all_powers", lambda *a: calls.append(a))
    monkeypatch.setattr(truncshor.experiments, "exact_distribution", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="m=0"):
        resolution_study(FactoringInstance(N=21, a=2, m=5), [5, 0], [0], num_it=1, base_seed=0)
    assert calls == []


def test_study_rows_compute_period_once_per_instance(monkeypatch):
    m_values = [4, 5]
    cells = resolution_study(FactoringInstance(N=21, a=2, m=5), m_values, range(4), 3, 7)
    results = list(cells.values())
    calls = []
    original = truncshor.modmath.build_orbit

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(truncshor.modmath, "build_orbit", counting)
    monkeypatch.setattr(truncshor.experiments, "build_orbit", counting)
    study_csv(results)
    study_json(results)
    assert len(calls) == 0


@pytest.mark.parametrize("N", sorted(CASES))
def test_every_winning_outcome_gives_the_instance_factor_pair(orbits, N):
    orbit = orbits[N]
    inst = orbit.instance
    pair = extract_factors(inst, orbit.r)
    winners = np.flatnonzero(orbit.factor_mask)
    assert winners.size
    for l in winners:
        assert analyze_measurement(inst, int(l)).factors == pair


def test_tries_until_factor_builds_no_report_and_makes_no_generator(monkeypatch, instances, circuit_sets):
    def no_report(*args, **kwargs):
        raise AssertionError("analyze_measurement called")

    def no_generator(*args, **kwargs):
        raise AssertionError("numpy.random generator made")

    for module in (truncshor, truncshor.modmath, truncshor.experiments):
        monkeypatch.setattr(module, "analyze_measurement", no_report, raising=False)
    for name in ("Generator", "default_rng", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, no_generator)
    inst = instances[143]
    orbit = build_orbit(inst)
    circuits = truncate(synth_all_powers(orbit, inst.m), 11)
    outcome = tries_until_factor(orbit, exact_distribution(inst, work_images(circuits, inst.M)), seed=9)
    assert not outcome.capped
    assert outcome.factors == (11, 13)
    assert orbit.factor_mask[outcome.l]


def test_resolution_study_truncates_each_distinct_circuit_once(monkeypatch):
    # N=143, a=5 has r = 20: of the powers 2^0 .. 2^9 only 6 residues mod 20 are distinct
    # Each level's work images are computed once, at the widest m, for both widths.
    seen = []
    original = truncshor.experiments.work_images

    def recording(circuits, M):
        seen.append((circuits, M))
        return original(circuits, M)

    monkeypatch.setattr(truncshor.experiments, "work_images", recording)
    resolution_study(FactoringInstance(N=143, a=5, m=10), [8, 10], [0, 11, 19], 1, 3)
    assert [(circuits[0].trnc_lv, M) for circuits, M in seen] == [(0, 1024), (11, 1024), (19, 1024)]
    for circuits, _ in seen:
        residues = [(1 << q) % 20 for q in range(len(circuits))]
        for i, j in itertools.combinations(range(len(circuits)), 2):
            assert (circuits[i] is circuits[j]) == (residues[i] == residues[j])


def ensemble_cells():
    """N=21, a=4, which never wins, then N=143 at m = 8 and 10, truncated to 19 and 11 levels."""
    uniform = PhaseDistribution(m=5, probabilities=np.full(32, 1 / 32))
    cells = [(build_orbit(FactoringInstance(N=21, a=4, m=5)), uniform)]
    full = synth_all_powers(build_orbit(FactoringInstance(N=143, a=5, m=10)), 10)
    for t in (19, 11):
        images = work_images(truncate(full, t), 1024)
        for m in (8, 10):
            inst = FactoringInstance(N=143, a=5, m=m)
            cells.append((build_orbit(inst), exact_distribution(inst, images[: inst.M])))
    return cells


ENSEMBLE_SEEDS = [derive_seed(3, 19, i) for i in range(150)]


def oracle_outcomes(cells, seeds, max_tries):
    """``tries_until_factor_oracle`` for every cell and seed: ``tries_ensemble``'s two arrays, and the outcomes."""
    outcomes = [[tries_until_factor_oracle(orbit, dist, seed, max_tries) for seed in seeds] for orbit, dist in cells]
    tries = np.array([[o.tries for o in row] for row in outcomes], np.int64).reshape(len(cells), len(seeds))
    l = np.array([[-1 if o.capped else o.l for o in row] for row in outcomes], np.int64).reshape(tries.shape)
    return tries, l, outcomes


@pytest.mark.parametrize("max_tries", [1, 15, 16, 17, 48, 49, 500])
def test_tries_ensemble_matches_one_seed_at_a_time(max_tries):
    cells = ensemble_cells()
    tries, l = tries_ensemble(cells, ENSEMBLE_SEEDS, max_tries)
    expected_tries, expected_l, outcomes = oracle_outcomes(cells, ENSEMBLE_SEEDS, max_tries)
    assert tries.dtype == l.dtype == np.int64
    assert tries.shape == l.shape == (len(cells), len(ENSEMBLE_SEEDS))
    np.testing.assert_array_equal(tries, expected_tries)
    np.testing.assert_array_equal(l, expected_l)
    won = np.array([[not o.capped for o in row] for row in outcomes])
    np.testing.assert_array_equal(l >= 0, won)
    for (orbit, _), row_won in zip(cells, won):
        assert not row_won.any() or extract_factors(orbit.instance, orbit.r) == (11, 13)
    capped = (~won).sum(axis=1)
    assert capped[0] == len(ENSEMBLE_SEEDS)  # N=21, a=4 accepts no outcome
    assert 0 < capped[1] < len(ENSEMBLE_SEEDS)  # N=143, m=8, 19 levels truncated: some never win


def test_tries_ensemble_in_blocks_of_few_seeds(monkeypatch):
    # 64 doubles a block: chunks of 16 and 32 draw 4 and 2 seeds at a time, larger chunks 1
    monkeypatch.setattr(truncshor.experiments, "_BLOCK", 64)
    cells = ensemble_cells()
    tries, l = tries_ensemble(cells, ENSEMBLE_SEEDS, 500)
    expected_tries, expected_l, _ = oracle_outcomes(cells, ENSEMBLE_SEEDS, 500)
    np.testing.assert_array_equal(tries, expected_tries)
    np.testing.assert_array_equal(l, expected_l)


def test_tries_ensemble_checks_every_cell_before_any_generator(monkeypatch):
    def no_streams(seeds):
        raise AssertionError("streams seeded")

    monkeypatch.setattr(truncshor.experiments, "_streams", no_streams)
    uniform = PhaseDistribution(m=5, probabilities=np.full(32, 1 / 32))
    barren = [(build_orbit(FactoringInstance(N=21, a=4, m=5)), uniform),
              (build_orbit(FactoringInstance(N=25, a=2, m=5)), uniform)]
    tries, l = tries_ensemble(barren, [1, 2, 3], 9)
    assert tries.shape == l.shape == (2, 3)
    assert (tries == 9).all() and (l == -1).all()
    orbit = build_orbit(FactoringInstance(N=21, a=2, m=5))
    winning = (orbit, uniform)
    with pytest.raises(ValueError, match="max_tries must be >= 1, got 0"):
        tries_ensemble([winning], [1], 0)
    narrow = PhaseDistribution(m=4, probabilities=np.full(16, 1 / 16))
    with pytest.raises(ValueError, match="m=4"):
        tries_ensemble([winning, (orbit, narrow)], [1], 5)


def test_resolution_study_seeds_one_stream_per_seed_and_level(monkeypatch):
    # both widths of a level read the same seeds, so one stream serves them
    seeds, calls = [], []
    streams = truncshor.experiments._streams

    def recording(level_seeds):
        calls.append(len(level_seeds))
        seeds.extend(level_seeds)
        return streams(level_seeds)

    monkeypatch.setattr(truncshor.experiments, "_streams", recording)
    resolution_study(FactoringInstance(N=143, a=5, m=10), [8, 10], [0, 11, 19], 5, 3)
    assert seeds == [derive_seed(3, t, i) for t in (0, 11, 19) for i in range(5)]
    assert calls == [5, 5, 5]  # one pass per level
