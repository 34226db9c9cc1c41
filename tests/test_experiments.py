import csv
import io
import itertools
import json
import math

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


def test_tries_until_factor_point_mass(instances):
    inst = instances[21]
    p = np.zeros(32)
    p[5] = 1.0
    dist = PhaseDistribution(m=5, probabilities=p)
    outcome = tries_until_factor(inst, dist, seed=0)
    assert outcome.tries == 1
    assert not outcome.capped
    assert outcome.l == 5
    assert outcome.factors == (7, 3)


def test_tries_until_factor_caps(instances):
    inst = instances[21]
    p = np.zeros(32)
    p[0] = 1.0  # barren outcome: only convergent is (0, 1)
    dist = PhaseDistribution(m=5, probabilities=p)
    outcome = tries_until_factor(inst, dist, seed=3, max_tries=25)
    assert outcome.tries == 25
    assert outcome.capped
    assert outcome.factors is None


def one_call_oracle(inst, dist, seed, max_tries):
    """Test-side oracle: all max_tries outcomes drawn in one call; the first factor-producing one wins."""
    draws = dist.cdf.searchsorted(np.random.default_rng(seed).random(max_tries), side="right")
    hits = np.flatnonzero(inst.factor_mask[draws])
    if hits.size == 0:
        return max_tries, None, True
    return int(hits[0]) + 1, int(draws[hits[0]]), False


def test_chunked_draws_match_one_call(monkeypatch, instances):
    """Chunks of 16, 32, 64, ... give the one-call stream and stop at the chunk that wins."""
    inst = instances[21]
    p = np.zeros(inst.M)
    p[0], p[5] = 299.0, 1.0  # l = 5 wins once in 300 tries, l = 0 never
    dist = PhaseDistribution(m=inst.m, probabilities=p)
    sizes = []
    default_rng = np.random.default_rng

    class RecordingGenerator(np.random.Generator):
        def random(self, size):
            sizes.append(size)
            return super().random(size)

    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RecordingGenerator(default_rng(seed).bit_generator)
    )

    def run(seed, max_tries):
        sizes.clear()
        outcome = tries_until_factor(inst, dist, seed=seed, max_tries=max_tries)
        chunks = [16, 32, 64, 128, 256, 512]
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
        expected = one_call_oracle(inst, dist, seed, 500)
        assert run(seed, 500) == expected
        seen.add("capped" if expected[2] else expected[0])
        if wanted <= seen:
            break
    assert wanted <= seen
    p[0], p[5] = 3.0, 1.0
    dist = PhaseDistribution(m=inst.m, probabilities=p)
    for max_tries in (1, 15, 16, 17, 30, 48, 49):
        for seed in range(100):
            assert run(seed, max_tries) == one_call_oracle(inst, dist, seed, max_tries)


@pytest.mark.parametrize("N, a", [(21, 4), (25, 2)])  # odd r; a**(r/2) = -1 mod N
def test_instance_without_factor_outcomes_draws_nothing(monkeypatch, N, a):
    inst = FactoringInstance(N=N, a=a, m=5)
    assert not inst.factor_mask.any()
    dist = PhaseDistribution(m=5, probabilities=np.full(32, 1 / 32))

    def no_rng(seed):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    outcome = tries_until_factor(inst, dist, seed=1, max_tries=77)
    assert outcome == TryOutcome(tries=77, capped=True)


def test_mismatched_distribution_width_is_rejected(instances):
    # l = 5 of 2^4 yields no factors; read as l = 5 of 2^5 it would give (7, 3)
    inst = instances[21]
    p = np.zeros(16)
    p[5] = 1.0
    dist = PhaseDistribution(m=4, probabilities=p)
    with pytest.raises(ValueError, match="m=4"):
        tries_until_factor(inst, dist, seed=0)
    with pytest.raises(ValueError, match="m=4"):
        histogram_csv(inst, dist)


def test_tries_until_factor_untruncated(instances, circuit_sets):
    inst = instances[21]
    dist = exact_distribution(inst, work_images(circuit_sets[21], inst.M))
    outcome = tries_until_factor(inst, dist, seed=derive_seed(12, 0, 0))
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
    peaks = peak_presence(instances[21], orbits[21], dist)
    assert peaks == {1: True, 5: True}


def test_peak_presence_n33(instances, circuit_sets, orbits):
    dist = exact_distribution(instances[33], work_images(circuit_sets[33], instances[33].M))
    peaks = peak_presence(instances[33], orbits[33], dist)
    assert peaks == {1: True, 3: True, 7: True, 9: True}


def test_peak_presence_keys():
    # the eigenphases s/r with gcd(s, r) = 1, the ones that can produce factors
    uniform = PhaseDistribution(m=6, probabilities=np.full(64, 1 / 64))
    for N, a, keys in ((21, 2, {1, 5}), (15, 4, {1}), (33, 2, {1, 3, 7, 9}), (35, 2, {1, 5, 7, 11})):
        inst = FactoringInstance(N=N, a=a, m=6)
        orbit = build_orbit(inst)
        assert keys == {s for s in range(orbit.r) if math.gcd(s, orbit.r) == 1}
        assert set(peak_presence(inst, orbit, uniform)) == keys


def test_resolution_study_shape(instances):
    cells = resolution_study(
        instances[21], m_values=[4, 5], trnc_range=[0, 1], num_it=3, base_seed=9
    )
    assert set(cells) == {(4, 0), (4, 1), (5, 0), (5, 1)}
    for (m, t), cell in cells.items():
        assert cell.result.instance.m == m
        assert cell.result.trnc_lv == t
        assert set(cell.peaks) == {1, 5}


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
    results = [cell.result for cell in cells.values()]
    calls = []
    original = truncshor.modmath.build_orbit

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(truncshor.modmath, "build_orbit", counting)
    monkeypatch.setattr(truncshor.experiments, "build_orbit", counting)
    study_csv(results)
    study_json(results)
    assert len(calls) <= len(m_values)


@pytest.mark.parametrize("N", sorted(CASES))
def test_every_winning_outcome_gives_the_instance_factor_pair(instances, N):
    inst = instances[N]
    pair = extract_factors(inst, inst.r)
    winners = np.flatnonzero(inst.factor_mask)
    assert winners.size
    for l in winners:
        assert analyze_measurement(inst, int(l)).factors == pair


def test_tries_until_factor_builds_no_report_and_calls_no_choice(monkeypatch, instances, circuit_sets):
    class NoChoice(np.random.Generator):
        def choice(self, *args, **kwargs):
            raise AssertionError("Generator.choice called")

    def no_report(*args, **kwargs):
        raise AssertionError("analyze_measurement called")

    for module in (truncshor, truncshor.modmath, truncshor.experiments):
        monkeypatch.setattr(module, "analyze_measurement", no_report, raising=False)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoChoice(np.random.PCG64(seed)))
    inst = instances[143]
    circuits = truncate(synth_all_powers(build_orbit(inst), inst.m), 11)
    outcome = tries_until_factor(inst, exact_distribution(inst, work_images(circuits, inst.M)), seed=9)
    assert not outcome.capped
    assert outcome.factors == (11, 13)
    assert inst.factor_mask[outcome.l]


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
    cells = [(FactoringInstance(N=21, a=4, m=5), uniform)]
    full = synth_all_powers(build_orbit(FactoringInstance(N=143, a=5, m=10)), 10)
    for t in (19, 11):
        images = work_images(truncate(full, t), 1024)
        for m in (8, 10):
            inst = FactoringInstance(N=143, a=5, m=m)
            cells.append((inst, exact_distribution(inst, images[: inst.M])))
    return cells


ENSEMBLE_SEEDS = [derive_seed(3, 19, i) for i in range(150)]


@pytest.mark.parametrize("max_tries", [1, 15, 16, 17, 48, 49, 500])
def test_tries_ensemble_matches_one_seed_at_a_time(max_tries):
    cells = ensemble_cells()
    outcomes = tries_ensemble(cells, ENSEMBLE_SEEDS, max_tries)
    assert outcomes == [
        [tries_until_factor_oracle(inst, dist, seed, max_tries) for seed in ENSEMBLE_SEEDS]
        for inst, dist in cells
    ]
    for o in (o for row in outcomes for o in row):
        assert type(o.tries) is int and (o.l is None or type(o.l) is int)
        assert o.capped or o.factors == (11, 13)
    capped = [sum(o.capped for o in row) for row in outcomes]
    assert capped[0] == len(ENSEMBLE_SEEDS)  # N=21, a=4 accepts no outcome
    assert 0 < capped[1] < len(ENSEMBLE_SEEDS)  # N=143, m=8, 19 levels truncated: some never win


def test_tries_ensemble_in_blocks_of_few_seeds(monkeypatch):
    # 64 doubles a block: chunks of 16 and 32 draw 4 and 2 seeds at a time, larger chunks 1
    monkeypatch.setattr(truncshor.experiments, "_BLOCK", 64)
    cells = ensemble_cells()
    assert tries_ensemble(cells, ENSEMBLE_SEEDS, 500) == [
        [tries_until_factor_oracle(inst, dist, seed, 500) for seed in ENSEMBLE_SEEDS]
        for inst, dist in cells
    ]


def test_tries_ensemble_checks_every_cell_before_any_generator(monkeypatch):
    def no_rng(seed):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    uniform = PhaseDistribution(m=5, probabilities=np.full(32, 1 / 32))
    barren = [(FactoringInstance(N=21, a=4, m=5), uniform), (FactoringInstance(N=25, a=2, m=5), uniform)]
    assert tries_ensemble(barren, [1, 2, 3], 9) == [[TryOutcome(tries=9, capped=True)] * 3] * 2
    winning = (FactoringInstance(N=21, a=2, m=5), uniform)
    with pytest.raises(ValueError, match="max_tries must be >= 1, got 0"):
        tries_ensemble([winning], [1], 0)
    narrow = PhaseDistribution(m=4, probabilities=np.full(16, 1 / 16))
    with pytest.raises(ValueError, match="m=4"):
        tries_ensemble([winning, (FactoringInstance(N=21, a=2, m=5), narrow)], [1], 5)


def test_resolution_study_makes_one_generator_per_seed_and_level(monkeypatch):
    # both widths of a level read the same seeds, so one generator serves them
    seeds = []
    default_rng = np.random.default_rng

    def recording(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    resolution_study(FactoringInstance(N=143, a=5, m=10), [8, 10], [0, 11, 19], 5, 3)
    assert seeds == [derive_seed(3, t, i) for t in (0, 11, 19) for i in range(5)]
