import csv
import io
import json

import numpy as np
import pytest

import truncshor.experiments
from truncshor import (
    FactoringInstance,
    PhaseDistribution,
    build_orbit,
    derive_seed,
    exact_distribution,
    histogram_csv,
    peak_presence,
    resolution_study,
    study_csv,
    study_json,
    tries_until_factor,
    truncation_sweep,
)


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(7, t, i) for t in range(20) for i in range(200)}
    assert len(seen) == 20 * 200
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert all(0 <= s < (1 << 64) for s in list(seen)[:10])


def test_tries_until_factor_point_mass(instances, circuit_sets):
    inst = instances[21]
    p = np.zeros(32)
    p[5] = 1.0
    dist = PhaseDistribution(m=5, probabilities=p, provenance="exact")
    outcome = tries_until_factor(inst, circuit_sets[21], seed=0, dist=dist)
    assert outcome.tries == 1
    assert not outcome.capped
    assert outcome.l == 5
    assert outcome.factors == (7, 3)


def test_tries_until_factor_caps(instances, circuit_sets):
    inst = instances[21]
    p = np.zeros(32)
    p[0] = 1.0  # barren outcome: only convergent is (0, 1)
    dist = PhaseDistribution(m=5, probabilities=p, provenance="exact")
    outcome = tries_until_factor(inst, circuit_sets[21], seed=3, max_tries=25, dist=dist)
    assert outcome.tries == 25
    assert outcome.capped
    assert outcome.factors is None


def test_mismatched_distribution_width_is_rejected(instances, circuit_sets):
    # l = 5 of 2^4 yields no factors; read as l = 5 of 2^5 it would give (7, 3)
    inst = instances[21]
    p = np.zeros(16)
    p[5] = 1.0
    dist = PhaseDistribution(m=4, probabilities=p, provenance="exact")
    with pytest.raises(ValueError, match="m=4"):
        tries_until_factor(inst, circuit_sets[21], seed=0, dist=dist)
    with pytest.raises(ValueError, match="m=4"):
        histogram_csv(inst, dist)


def test_tries_until_factor_untruncated(instances, circuit_sets):
    inst = instances[21]
    outcome = tries_until_factor(inst, circuit_sets[21], seed=derive_seed(12, 0, 0))
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
    dist = exact_distribution(instances[21], circuit_sets[21])
    peaks = peak_presence(instances[21], orbits[21], dist)
    assert peaks == {1: True, 5: True}


def test_peak_presence_n33(instances, circuit_sets, orbits):
    dist = exact_distribution(instances[33], circuit_sets[33])
    peaks = peak_presence(instances[33], orbits[33], dist)
    assert peaks == {1: True, 3: True, 7: True, 9: True}


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
    assert synth_calls == [(1, 0), (2, 0), (4, 0)]


def test_resolution_study_checks_levels_before_any_cell(monkeypatch):
    calls = []
    monkeypatch.setattr(truncshor.experiments, "exact_distribution", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="trnc_lv=6"):
        resolution_study(FactoringInstance(N=21, a=2, m=5), [5], [0, 6], num_it=1, base_seed=0)
    assert calls == []
