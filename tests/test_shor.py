import cmath
import concurrent.futures
import itertools
import math
import os
import platform
import sys

import numpy as np
import pytest

import truncshor.shor
from truncshor import (
    FactoringInstance,
    LeveledCircuit,
    PhaseDistribution,
    apply_to_basis_array,
    build_orbit,
    exact_distribution,
    histogram_csv,
    nearest_phase_bin,
    sample,
    synth_all_powers,
    tries_until_factor,
    truncate,
    work_images,
)

from conftest import CASES, run_fresh
from oracles import (
    TooLargeError,
    analytic_amplitude,
    apply_to_statevector,
    control_image,
    eigenstate_vector,
    run_shor_dense,
    work_images_oracle,
)
from reference_data import P5_N21_EXACT


def amplitude_by_direct_sum(s, r, l, M):
    """Independent oracle: the defining k-sum, term by term."""
    total = sum(cmath.exp(2j * cmath.pi * k * (s / r - l / M)) for k in range(M))
    return total / (math.sqrt(r) * M)


def analytic_distribution(r, M):
    """Independent oracle: P(l) = sum_s |A_l(s/r)|^2 from the closed form."""
    return np.array(
        [sum(abs(analytic_amplitude(s, r, l, M)) ** 2 for s in range(r)) for l in range(M)]
    )


def test_control_image_examples(circuit_sets):
    circuits = circuit_sets[21]
    assert control_image(circuits, 5) == 11
    assert control_image(circuits, 0) == 1
    assert control_image(circuits, 9) == 8  # f(9 mod 6) = f(3)


def test_work_images_match_scalar(circuit_sets, instances):
    for N in (21, 33):
        circuits = circuit_sets[N]
        M = instances[N].M
        vec = work_images(circuits, M)
        assert [control_image(circuits, k) for k in range(M)] == list(vec)
    cases = [(circuit_sets[N], instances[N].M) for N in CASES]
    # every truncation of the study (N = 143) and wide (N = 247) benchmark sweeps
    for N, a, widths, levels in ((143, 5, (8, 10), range(20)), (247, 2, (17,), range(10, 13))):
        full = synth_all_powers(build_orbit(FactoringInstance(N=N, a=a, m=1)), max(widths))
        for t in levels:
            circuits = truncate(full, t)
            cases += [(circuits, 1 << m) for m in widths]
    # n = 20 and 24, where a table of all 2^n states would be 8 and 128 MiB per circuit
    for N in (1048575, 16777215):
        cases.append((synth_all_powers(build_orbit(FactoringInstance(N=N, a=2, m=16)), 16), 1 << 16))
    for circuits, M in cases:
        vec = work_images(circuits, M)
        assert vec.dtype == np.int64 and vec.shape == (M,)
        assert vec.tolist() == work_images_oracle(circuits, M)


def test_work_images_reject_too_few_circuits(circuit_sets):
    with pytest.raises(ValueError, match=r"need circuits for powers 2\^0 \.\. 2\^9, got 9"):
        work_images(circuit_sets[143][:9], 1 << 10)
    assert work_images(circuit_sets[143][:9], 1 << 9).shape == (512,)


def test_exact_distribution_n21(instances, circuit_sets):
    dist = exact_distribution(instances[21], work_images(circuit_sets[21], instances[21].M))
    p = dist.probabilities
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[5] == pytest.approx(P5_N21_EXACT, abs=1e-12)
    assert p[27] == pytest.approx(P5_N21_EXACT, abs=1e-12)
    # 466 of 4096 sampled shots at l=5 sits well inside the sampling band
    assert abs(p[5] - 466 / 4096) < 0.005
    # s = 0 and s = 3 are exact 5-bit phases and carry at least 1/r each;
    # among the remaining bins the factor-producing pair dominates
    assert p[0] >= 1 / 6 - 1e-12
    assert p[16] >= 1 / 6 - 1e-12
    spread_top = max((l for l in range(32) if l not in (0, 16)), key=lambda l: p[l])
    assert spread_top in (5, 27)


def test_exact_distribution_degenerate_n15():
    inst = FactoringInstance(N=15, a=2, m=5)
    from truncshor import build_orbit, synth_all_powers

    orbit = build_orbit(inst)
    assert orbit.r == 4
    dist = exact_distribution(inst, work_images(synth_all_powers(orbit, 5), inst.M))
    p = dist.probabilities
    for l in range(32):
        expect = 0.25 if l % 8 == 0 else 0.0
        assert abs(p[l] - expect) < 1e-12


def test_exact_distribution_identity_case():
    inst = FactoringInstance(N=15, a=4, m=1)
    identity = LeveledCircuit(n_qubits=4, power=1, levels=((),))
    dist = exact_distribution(inst, work_images([identity], inst.M))
    assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probabilities[1] == pytest.approx(0.0, abs=1e-12)


def test_exact_distribution_reads_a_wider_registers_image_prefix(instances, circuit_sets):
    # the first 2^m work images depend on circuits[:m] alone
    wide = work_images(circuit_sets[143], instances[143].M)
    for m in (1, 6, 9):
        inst = FactoringInstance(N=143, a=5, m=m)
        own = exact_distribution(inst, work_images(circuit_sets[143][:m], inst.M)).probabilities
        shared = exact_distribution(inst, wide[: 1 << m]).probabilities
        assert own.tobytes() == shared.tobytes()
    with pytest.raises(ValueError, match=r"shape \(1024,\), need \(512,\) for m=9"):
        exact_distribution(inst, wide)


def dense_indicator_distribution(circuits, m):
    """Oracle: the full U x M indicator matrix of the work images, one FFT, rows summed."""
    M = 1 << m
    ks = np.arange(M)
    images = np.ones(M, dtype=np.int64)
    for q in range(m):
        fire = ((ks >> q) & 1) == 1
        images[fire] = apply_to_basis_array(circuits[q], images[fire])
    uniq, inverse = np.unique(images, return_inverse=True)
    indicators = np.zeros((len(uniq), M))
    indicators[inverse, np.arange(M)] = 1.0
    spectra = np.fft.fft(indicators, axis=1)
    return (np.abs(spectra) ** 2).sum(axis=0) / M**2


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the thread pools started while the test runs."""
    started = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return started


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so a workspace reused too early shows in the bits."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def fft_rows(monkeypatch):
    """Rows of every ``np.fft.fft`` call made while the test runs."""
    calls = []
    fft = np.fft.fft

    def counting_fft(a, *args, **kwargs):
        calls.append(len(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    return calls


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


# What one worker holds per outcome at 1 and at 4 rows per call: 16 B per complex
# row, an 8 B float row, and numpy's FFT scratch (16 B for 1 row, 64 B for more).
WORKER_BYTES = {1: 40, 4: 136}


@pytest.mark.parametrize("N, a, m, trnc_lv", [
    (21, 2, 5, 0), (21, 2, 5, 3), (143, 5, 12, 0), (143, 5, 12, 10), (247, 2, 13, 18),
    (143, 5, 14, 18),
])
def test_exact_distribution_matches_dense_indicators_bitwise(
    monkeypatch, pools, fast_switching, fft_rows, N, a, m, trnc_lv
):
    """Every worker count (1..4), at 1 and at 4 rows per call, gives the oracle's bits."""
    inst = FactoringInstance(N=N, a=a, m=m)
    circuits = truncate(synth_all_powers(build_orbit(inst), m), trnc_lv)
    expected = dense_indicator_distribution(circuits, m)
    images = work_images(circuits, inst.M)
    distinct = len(np.unique(images))
    monkeypatch.setattr(truncshor.shor, "_POOL_MIN_M", 1)
    for cpus in range(1, 5):
        use_cpus(monkeypatch, cpus)
        # 4 rows only when all cpus workers fit at 4 rows; otherwise 1 row per worker
        four = cpus * WORKER_BYTES[4] * inst.M
        one = [(w * WORKER_BYTES[1] * inst.M, w, 1) for w in range(1, cpus + 1)]
        for budget, workers, size in [(four, cpus, 4), (four - 1, cpus, 1), *one]:
            monkeypatch.setattr(truncshor.shor, "_FFT_BUDGET", budget)
            pools.clear()
            fft_rows.clear()
            assert np.array_equal(exact_distribution(inst, images).probabilities, expected)
            assert len(pools) == (workers > 1 and distinct > size)
            assert all(w <= workers for w in pools)
            assert max(fft_rows) == min(size, distinct)


def test_exact_distribution_one_row_in_flight_uses_no_pool(monkeypatch, pools):
    inst = FactoringInstance(N=143, a=5, m=14)
    circuits = truncate(synth_all_powers(build_orbit(inst), 14), 4)
    images = work_images(circuits, inst.M)
    expected = dense_indicator_distribution(circuits, 14)
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(truncshor.shor, "_POOL_MIN_M", inst.M)
    assert np.array_equal(exact_distribution(inst, images).probabilities, expected)
    assert pools == [4]
    pools.clear()
    monkeypatch.setattr(truncshor.shor, "_FFT_BUDGET", WORKER_BYTES[1] * inst.M - 1)
    assert np.array_equal(exact_distribution(inst, images).probabilities, expected)
    assert pools == []


@pytest.mark.parametrize("m, rows", [(17, 4), (19, 1)])
def test_exact_distribution_calls_fft_on_4_rows_or_1(monkeypatch, fft_rows, m, rows):
    # numpy's FFT takes 4 rows' scratch for any call of 2 or more rows and is fastest at 4;
    # two workers' 4-row workspaces fit the budget at m = 17, not at m = 19
    use_cpus(monkeypatch, 2)
    inst = FactoringInstance(N=4087, a=3, m=m)
    dist = exact_distribution(inst, np.arange(inst.M) % 12)
    assert fft_rows == [rows] * (12 // rows)
    assert dist.probabilities.sum() == pytest.approx(1.0)


def test_exact_distribution_below_pool_size_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    use_cpus(monkeypatch, 4)
    for N, a, m, trnc_lv in [(143, 5, 12, 10), (247, 2, 13, 18)]:
        inst = FactoringInstance(N=N, a=a, m=m)
        circuits = truncate(synth_all_powers(build_orbit(inst), m), trnc_lv)
        dist = exact_distribution(inst, work_images(circuits, inst.M))
        assert np.array_equal(dist.probabilities, dense_indicator_distribution(circuits, m))
    inst = FactoringInstance(N=143, a=5, m=16)  # the largest M below the pool size
    circuits = truncate(synth_all_powers(build_orbit(inst), 16), 10)
    dist = exact_distribution(inst, work_images(circuits, inst.M))
    assert dist.probabilities.sum() == pytest.approx(1.0)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the scratch faults come from glibc's mmap threshold",
)
def test_first_exact_distribution_keeps_fft_scratch_mapped():
    # 177 distinct images, the histogram workload's count at m = 16: 45 blocks of 4 rows.
    # Faulting each block's ~4 MiB of FFT scratch in afresh comes to about 46,000 faults.
    probe = """
import resource
import numpy as np
from truncshor import FactoringInstance, exact_distribution
inst = FactoringInstance(N=143, a=5, m=16)
images = np.arange(inst.M) % 177
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
exact_distribution(inst, images)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(run_fresh(probe)) < 15_000


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the scratch faults come from glibc's mmap threshold",
)
def test_one_row_exact_distribution_keeps_fft_scratch_mapped():
    # One 1-row worker on the calling thread, 24 rows at m = 17. numpy asks for a little
    # more than 16 M bytes of scratch per call; mapped afresh each time, that is ~26,000 faults.
    probe = """
import resource
import numpy as np
import truncshor.shor
from truncshor import FactoringInstance, exact_distribution
inst = FactoringInstance(N=247, a=2, m=17)
truncshor.shor._cpu_count = lambda: 1
truncshor.shor._FFT_BUDGET = 40 * inst.M
images = np.arange(inst.M) % 24
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
exact_distribution(inst, images)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(run_fresh(probe)) < 10_000


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="VmHWM is read from /proc; the bound assumes glibc's malloc",
)
def test_one_row_exact_distribution_peak_memory():
    # m = 19 on two workers at 1 row: 2 x 20 MiB of workspace, float row and FFT scratch,
    # plus the argsort, P(l) and the FFT plan. 2-row calls took 4-row scratch: a 134 MiB rise.
    probe = """
import numpy as np
import truncshor.shor
from truncshor import FactoringInstance, exact_distribution

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024

truncshor.shor._cpu_count = lambda: 2
inst = FactoringInstance(N=4087, a=3, m=19)
images = np.arange(inst.M) % 12
before = peak()
exact_distribution(inst, images)
print(peak() - before)
"""
    assert float(run_fresh(probe)) < 90


def test_analytic_amplitude_examples():
    a = analytic_amplitude(1, 4, 8, 32)
    assert abs(a) == pytest.approx(0.5, abs=1e-12)
    assert analytic_amplitude(0, 4, 0, 32) == pytest.approx(0.5, abs=1e-12)
    # removable singularity handled exactly, even for non-reduced s/r
    assert abs(analytic_amplitude(3, 6, 16, 32)) == pytest.approx(1 / math.sqrt(6), abs=1e-12)


def test_analytic_amplitude_against_direct_sum():
    for (s, r, l, M) in [(1, 6, 5, 32), (5, 6, 27, 32), (2, 6, 11, 32), (7, 20, 90, 256)]:
        closed = analytic_amplitude(s, r, l, M)
        direct = amplitude_by_direct_sum(s, r, l, M)
        assert closed == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("N", sorted(CASES))
def test_distribution_matches_analytic(instances, circuit_sets, orbits, N):
    inst = instances[N]
    dist = exact_distribution(inst, work_images(circuit_sets[N], inst.M))
    oracle = analytic_distribution(orbits[N].r, inst.M)
    assert np.max(np.abs(dist.probabilities - oracle)) < 1e-9


def test_dense_backend_matches_fast(instances, circuit_sets):
    for N in (21, 33, 35):
        dense = run_shor_dense(instances[N], circuit_sets[N])
        fast = exact_distribution(instances[N], work_images(circuit_sets[N], instances[N].M))
        assert np.max(np.abs(dense.probabilities - fast.probabilities)) < 1e-9
        assert dense.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_dense_backend_cap(instances, circuit_sets):
    with pytest.raises(TooLargeError):
        run_shor_dense(instances[143], circuit_sets[143], max_qubits=12)


def test_dense_backend_identity_case():
    inst = FactoringInstance(N=15, a=4, m=1)
    identity = LeveledCircuit(n_qubits=4, power=1, levels=((),))
    dense = run_shor_dense(inst, [identity])
    assert dense.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert dense.probabilities[1] == pytest.approx(0.0, abs=1e-12)


def test_peak_bins(instances, circuit_sets, orbits):
    """The r largest probabilities sit at the bins nearest each eigenphase."""
    for N in (21, 33):
        inst = instances[N]
        r = orbits[N].r
        p = exact_distribution(inst, work_images(circuit_sets[N], inst.M)).probabilities
        top = set(np.argsort(p)[-r:])
        expected = {nearest_phase_bin(s, r, inst.M) for s in range(r)}
        assert top == expected


@pytest.mark.parametrize("N", sorted(CASES))
def test_eigenstate_relations(orbits, circuit_sets, N):
    orbit = orbits[N]
    u = circuit_sets[N][0]
    r = orbit.r
    for s in range(r):
        vec = eigenstate_vector(orbit, s)
        out = apply_to_statevector(u, vec)
        phase = np.exp(2j * np.pi * s / r)
        assert np.max(np.abs(out - phase * vec)) < 1e-9
    total = sum(eigenstate_vector(orbit, s) for s in range(r)) / math.sqrt(r)
    e1 = np.zeros(1 << orbit.instance.n, dtype=complex)
    e1[1] = 1.0
    assert np.max(np.abs(total - e1)) < 1e-9


def test_eigenstate_s0_uniform(orbits):
    vec = eigenstate_vector(orbits[21], 0)
    for state in orbits[21].states:
        assert vec[state] == pytest.approx(1 / math.sqrt(6), abs=1e-12)


def test_sample_determinism(instances, circuit_sets):
    dist = exact_distribution(instances[21], work_images(circuit_sets[21], instances[21].M))
    s1 = sample(dist, 4096, seed=99)
    s2 = sample(dist, 4096, seed=99)
    assert np.array_equal(s1, s2)
    assert s1.shape == (dist.M,) and s1.dtype == np.int64
    assert s1.sum() == 4096
    # count at l=5 within 5 sigma of 4096 * P(5)
    expect = 4096 * dist.probabilities[5]
    sigma = math.sqrt(4096 * dist.probabilities[5] * (1 - dist.probabilities[5]))
    assert abs(s1[5] - expect) < 5 * sigma


def test_sample_point_mass():
    dist_probs = np.zeros(8)
    dist_probs[3] = 1.0
    from truncshor import PhaseDistribution

    dist = PhaseDistribution(m=3, probabilities=dist_probs)
    out = sample(dist, 100, seed=1)
    assert out[3] == 100


def test_sample_uniform_binomial_band():
    from truncshor import PhaseDistribution

    dist = PhaseDistribution(m=2, probabilities=np.full(4, 0.25))
    out = sample(dist, 4096, seed=7)
    sigma = math.sqrt(4096 * 0.25 * 0.75)
    for c in out:
        assert abs(int(c) - 1024) < 5 * sigma


def test_histogram_csv(instances, orbits, circuit_sets):
    inst = instances[21]
    dist = exact_distribution(inst, work_images(circuit_sets[21], inst.M))
    counts = sample(dist, 4096, seed=5)
    text = histogram_csv(orbits[21], dist, counts)
    lines = text.strip().splitlines()
    assert lines[0] == "ell,phase_binary,phase_decimal,probability,counts,produces_factors"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert rows[5][1] == "0.00101"
    assert rows[5][5] == "1"
    assert rows[27][5] == "1"
    producers = [l for l, row in rows.items() if row[5] == "1"]
    assert sorted(producers) == [5, 27]
    # counts column carries the sampled counts
    assert int(rows[5][4]) == int(counts[5])


@pytest.mark.parametrize("sample_m", [4, 6])
def test_histogram_csv_rejects_sample_of_other_width(instances, orbits, circuit_sets, sample_m):
    inst = instances[21]
    dist = exact_distribution(inst, work_images(circuit_sets[21], inst.M))
    other_inst = FactoringInstance(N=21, a=2, m=sample_m)
    other_images = work_images(synth_all_powers(build_orbit(other_inst), sample_m), other_inst.M)
    other = sample(exact_distribution(other_inst, other_images), 100, seed=1)
    with pytest.raises(ValueError, match=rf"counts of shape \({1 << sample_m},\), need \(32,\)"):
        histogram_csv(orbits[21], dist, other)


def choice_draws(dist, k, seed):
    """Test-side oracle: what Generator.choice draws from dist."""
    p = dist.probabilities / dist.probabilities.sum()
    return np.random.default_rng(seed).choice(dist.M, size=k, p=p)


@pytest.mark.parametrize("N, trnc_lv", [(21, 0), (33, 5), (143, 0), (143, 11), (247, 30)])
def test_cdf_draws_equal_choice_on_exact(instances, orbits, N, trnc_lv):
    inst = instances[N]
    circuits = truncate(synth_all_powers(orbits[N], inst.m), trnc_lv)
    dist = exact_distribution(inst, work_images(circuits, inst.M))
    for seed in range(60):
        draws = dist.cdf.searchsorted(np.random.default_rng(seed).random(300), side="right")
        assert np.array_equal(draws, choice_draws(dist, 300, seed))


def test_cdf_draws_equal_choice_on_point_mass_and_uniform():
    point = np.zeros(64)
    point[37] = 2.5  # unnormalized on purpose
    uniform = np.full(1024, 1.0 / 1024)
    for m, p in ((6, point), (10, uniform), (3, np.full(8, 3.0))):
        dist = PhaseDistribution(m=m, probabilities=p)
        for seed in range(200):
            draws = dist.cdf.searchsorted(np.random.default_rng(seed).random(50), side="right")
            assert np.array_equal(draws, choice_draws(dist, 50, seed))


def test_cdf_is_built_once_and_read_only():
    dist = PhaseDistribution(m=2, probabilities=np.array([1.0, 0.0, 3.0, 0.0]))
    assert dist.cdf is dist.cdf
    assert list(dist.cdf) == [0.25, 0.25, 1.0, 1.0]
    with pytest.raises(ValueError):
        dist.cdf[0] = 0.5


def test_phase_distribution_keeps_no_writable_alias():
    caller = np.array([1.0, 0.0, 3.0, 0.0])
    dist = PhaseDistribution(m=2, probabilities=caller)
    cdf = dist.cdf.copy()
    caller[:] = [0.0, 4.0, 0.0, 0.0]
    assert list(dist.probabilities) == [1.0, 0.0, 3.0, 0.0]
    assert np.array_equal(dist.cdf, cdf)
    with pytest.raises(ValueError):
        dist.probabilities[0] = 0.5
    view = caller.view()
    view.flags.writeable = False
    for given in (view, np.broadcast_to(caller[1:2], (4,))):
        dist = PhaseDistribution(m=2, probabilities=given)
        kept, cdf = given.copy(), dist.cdf.copy()
        caller[1] += 1.0
        assert np.array_equal(dist.probabilities, kept)
        assert np.array_equal(dist.cdf, cdf)
    frozen = np.full(4, 0.25)
    frozen.flags.writeable = False
    assert PhaseDistribution(m=2, probabilities=frozen).probabilities is frozen


def test_exact_and_sampled_probabilities_are_read_only(instances, circuit_sets):
    dist = exact_distribution(instances[21], work_images(circuit_sets[21], instances[21].M))
    assert not dist.probabilities.flags.writeable
    assert not sample(dist, 100, seed=1).flags.writeable


BAD_PROBABILITIES = {
    "wrong length": np.full(16, 1 / 16),
    "nan": np.array([0.5, np.nan] + [0.5 / 30] * 30),
    "negative": np.array([0.75, -0.25] + [0.5 / 30] * 30),
    "zero sum": np.zeros(32),
}


@pytest.mark.parametrize("case", sorted(BAD_PROBABILITIES))
def test_phase_distribution_rejects_bad_probabilities(orbits, case):
    def bad():
        return PhaseDistribution(m=5, probabilities=BAD_PROBABILITIES[case])

    with pytest.raises(ValueError, match="probabilities"):
        bad()
    with pytest.raises(ValueError, match="probabilities"):
        sample(bad(), 100, seed=1)
    with pytest.raises(ValueError, match="probabilities"):
        tries_until_factor(orbits[21], bad(), seed=1)
