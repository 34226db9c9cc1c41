"""histogram_csv against the per-outcome loop in oracles.histogram_csv_loop."""

import numpy as np
import pytest

from truncshor import (
    FactoringInstance,
    PhaseDistribution,
    build_orbit,
    exact_distribution,
    histogram_csv,
    sample,
    synth_all_powers,
    truncate,
    work_images,
)

from oracles import histogram_csv_loop


@pytest.mark.parametrize(
    "N, a, m, trnc_lv, shots",
    [
        (21, 2, 5, 0, None),
        (21, 2, 5, 0, 4096),
        (15, 2, 6, 0, 100),
        (143, 5, 10, 11, 4096),
        (143, 5, 13, 10, 4096),
        (247, 2, 13, 10, None),
    ],
)
def test_histogram_csv_equals_loop(N, a, m, trnc_lv, shots):
    inst = FactoringInstance(N=N, a=a, m=m)
    circuits = truncate(synth_all_powers(build_orbit(inst), m), trnc_lv)
    dist = exact_distribution(inst, work_images(circuits, inst.M))
    counts = sample(dist, shots, 7) if shots else None
    assert histogram_csv(inst, dist, counts) == histogram_csv_loop(inst, dist, counts)


def test_histogram_csv_keeps_counted_outcomes_of_negligible_probability():
    inst = FactoringInstance(N=21, a=2, m=5)
    p = np.zeros(32)
    p[[1, 3, 5, 9, 27]] = [1e-15, 1e-15, 0.5, 2e-16, 0.5]
    counts = np.zeros(32, dtype=np.int64)
    counts[[3, 5, 9]] = [2, 7, 1]
    dist = PhaseDistribution(m=5, probabilities=p)
    text = histogram_csv(inst, dist, counts)
    assert text == histogram_csv_loop(inst, dist, counts)
    assert [int(row.split(",")[0]) for row in text.splitlines()[1:]] == [3, 5, 9, 27]
    # without counts, only the outcomes above 1e-15 are kept
    assert [int(row.split(",")[0]) for row in histogram_csv(inst, dist).splitlines()[1:]] == [5, 27]


def test_histogram_csv_other_dtypes_equal_loop():
    inst = FactoringInstance(N=21, a=2, m=5)
    dist = PhaseDistribution(m=5, probabilities=np.arange(32) % 3)
    for counts in (None, (np.arange(32) % 4).astype(float), np.arange(32, dtype=np.int32) % 2):
        assert histogram_csv(inst, dist, counts) == histogram_csv_loop(inst, dist, counts)
