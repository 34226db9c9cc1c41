"""Phase-estimation pipeline: work images, the exact distribution and shot counts.

The inverse QFT is never materialized as gates. Work images w(k) are
computed for all control values k, grouped, and the control-register
distribution follows from one length-M DFT per distinct image:

    P(l) = (1/M^2) * sum_w | sum_{k: w(k)=w} exp(-2*pi*i*k*l/M) |^2

The tests check this against independent references in ``tests/oracles.py``:
a dense statevector backend over all m+n qubits and the closed-form
eigenphase amplitudes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .circuit import LeveledCircuit, apply_to_basis_array
from .modmath import FactoringInstance, Orbit


@dataclass(frozen=True)
class PhaseDistribution:
    """Probabilities over the M control outcomes; checked once, when made.

    ``probabilities`` is a read-only array of its own: an input that is writable
    or a view is copied, so later writes to the caller's array change neither it
    nor ``cdf``.
    """

    m: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = self.probabilities
        if p.base is not None or p.flags.writeable:
            p = p.copy()
            p.flags.writeable = False
            object.__setattr__(self, "probabilities", p)
        if np.shape(p) != (self.M,):
            raise ValueError(f"probabilities of shape {np.shape(p)}, need ({self.M},) for m={self.m}")
        if not (np.isfinite(p).all() and (p >= 0).all() and p.sum() > 0):
            raise ValueError("probabilities must be finite, non-negative and not all zero")

    @property
    def M(self) -> int:
        return 1 << self.m

    @cached_property
    def cdf(self) -> np.ndarray:
        """Built on first use, read-only: ``cdf.searchsorted(rng.random(k), side="right")``
        draws what ``rng.choice(M, size=k, p=probabilities / probabilities.sum())`` would."""
        cdf = (self.probabilities / self.probabilities.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf


def work_images(circuits: Sequence[LeveledCircuit], M: int) -> np.ndarray:
    """Work image of every control value k in [0, M) from work state 1.

    Applies U**(2**q) for each set bit q of k, by doubling: w(k + 2**q) = U**(2**q) w(k).
    Each U**(2**q) runs on the states reached by k < 2**q alone: ``slot`` numbers them by
    first arrival, ``idx[k]`` is the slot of w(k), and idx[k + 2**q] that of its image.
    """
    m = M.bit_length() - 1
    if len(circuits) < m:
        raise ValueError(f"need circuits for powers 2^0 .. 2^{m - 1}, got {len(circuits)}")
    slot = {1: 0}
    idx = np.zeros(1 << m, dtype=np.intp)
    for q in range(m):
        images = apply_to_basis_array(circuits[q], list(slot)).tolist()
        moved = np.array([slot.setdefault(w, len(slot)) for w in images], dtype=np.intp)
        idx[1 << q : 2 << q] = moved[idx[: 1 << q]]
    return np.array(list(slot), dtype=np.int64)[idx]


# Bytes all FFT workers may hold together (``_worker_bytes`` each), the rows one
# workspace transforms per call where that budget allows (2 or 3 rows would take
# the scratch of 4), and the smallest M whose transforms are spread over threads.
_FFT_BUDGET = 80 << 20
_WORKSPACE_ROWS = 4
_POOL_MIN_M = 1 << 17


def _fft_scratch_bytes(rows: int, M: int) -> int:
    """numpy's FFT scratch for one call over ``rows`` rows of M: 4 rows' worth for 2 or more."""
    return (64 if rows > 1 else 16) * M


def _worker_bytes(size: int, M: int) -> int:
    """One worker's complex rows, float row for |c| and FFT scratch, at ``size`` rows per call."""
    return (16 * size + 8) * M + _fft_scratch_bytes(size, M)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _indicator_power(
    space: np.ndarray, order: np.ndarray, bounds: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """|DFT|^2 of indicator rows start..stop-1, as a view into the float workspace ``space``.

    Row u is 1 at the control values order[bounds[u]:bounds[u + 1]], 0 elsewhere.
    The rows are transformed in place as complex rows at the start of ``space``;
    each row's |c| goes through the float row at its end, and its square over the
    first half of that row's own memory.
    """
    M = len(order)
    c = space[: 2 * (stop - start) * M].view(complex).reshape(-1, M)
    c[:] = 0
    for row, u in zip(c, range(start, stop)):
        row[order[bounds[u] : bounds[u + 1]]] = 1
    np.fft.fft(c, axis=1, out=c)
    power = c.view(float)[:, :M]
    for row, out in zip(c, power):
        np.square(np.abs(row, out=space[-M:]), out=out)
    return power


def _power_blocks(order: np.ndarray, bounds: np.ndarray, M: int, workers: int, size: int):
    """Yield the indicator rows' |DFT|^2 in blocks of ``size`` rows, in image order.

    Block i is computed in workspace i % workers. With several workers the
    blocks run on a thread pool with at most one outstanding per workspace,
    and a workspace is refilled only after the caller has consumed its block.
    """
    distinct = len(bounds) - 1
    # One allocation per worker: ``size`` complex rows, then one float row.
    spaces = [np.empty((2 * size + 1) * M) for _ in range(workers)]
    # numpy's FFT allocates its scratch afresh on every call. Until a chunk that
    # large has been freed, glibc maps each one afresh and unmaps it on free, so
    # every call faults its scratch in again. Dropping one untouched chunk a float
    # row larger than the scratch (numpy asks for a little more than
    # ``_fft_scratch_bytes``) before the first transform raises glibc's mmap and
    # trim thresholds (up to their 32 MiB cap), and the scratch stays mapped.
    np.empty(_fft_scratch_bytes(size, M) + 8 * M, np.uint8)
    jobs = [
        (spaces[i % workers], order, bounds, start, min(start + size, distinct))
        for i, start in enumerate(range(0, distinct, size))
    ]
    if workers == 1:
        for job in jobs:
            yield _indicator_power(*job)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = [pool.submit(_indicator_power, *job) for job in jobs[:workers]]
        for job in jobs[workers:]:
            yield pending.pop(0).result()
            pending.append(pool.submit(_indicator_power, *job))
        for future in pending:
            yield future.result()


def exact_distribution(instance: FactoringInstance, images: np.ndarray) -> PhaseDistribution:
    """Exact control-register distribution via grouped DFT over ``work_images(circuits, M)``.

    The images may be the prefix of a wider register's. The indicator rows of
    the distinct images are transformed in blocks, in reused workspaces of 4
    rows, or of 1 where every worker's 4-row ``_worker_bytes`` would pass
    ``_FFT_BUDGET`` (from m = 19 on 2 CPUs): numpy's FFT takes 4 rows' scratch
    for any call of 2 or more rows. From M = 2**17 the blocks are shared by up
    to 4 threads, one per usable CPU and no more than the budget holds, each
    with its own workspace. The calling thread adds each row's power to P(l)
    one row at a time in image order, which fixes the last bits of P(l)
    whatever the layout.
    """
    m, M = instance.m, instance.M
    if images.shape != (M,):
        raise ValueError(f"work images of shape {images.shape}, need ({M},) for m={m}")
    order = images.argsort()
    # Distinct image u (ascending) is the image of order[bounds[u]:bounds[u + 1]].
    bounds = np.append(np.flatnonzero(np.diff(images[order], prepend=-1)), M)
    distinct = len(bounds) - 1
    workers = min(_cpu_count(), 4) if M >= _POOL_MIN_M else 1
    size = _WORKSPACE_ROWS if workers * _worker_bytes(_WORKSPACE_ROWS, M) <= _FFT_BUDGET else 1
    workers = max(1, min(workers, _FFT_BUDGET // _worker_bytes(size, M)))
    size = min(size, distinct)
    workers = min(workers, math.ceil(distinct / size))
    probs = np.zeros(M)
    for block in _power_blocks(order, bounds, M, workers, size):
        for power in block:
            probs += power
    probs /= M**2
    probs.flags.writeable = False
    return PhaseDistribution(m=m, probabilities=probs)


def sample(dist: PhaseDistribution, shots: int, seed: int) -> np.ndarray:
    """Shot counts over the M outcomes, read-only int64: one multinomial draw, deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = np.random.default_rng(seed).multinomial(
        shots, dist.probabilities / dist.probabilities.sum()
    )
    counts.flags.writeable = False
    return counts


def nearest_phase_bin(s: int, r: int, M: int) -> int:
    """Control bin closest to eigenphase s/r: round(M*s/r), half rounded up."""
    return ((2 * M * s + r) // (2 * r)) % M


def histogram_outcomes(dist: PhaseDistribution, counts: Optional[np.ndarray] = None) -> np.ndarray:
    """The outcomes ``histogram_csv`` writes, ascending: probability above 1e-15 or a nonzero count."""
    kept = dist.probabilities > 1e-15
    if counts is not None:
        if np.shape(counts) != (dist.M,):
            raise ValueError(f"counts of shape {np.shape(counts)}, need ({dist.M},) for m={dist.m}")
        kept |= counts.astype(np.int64, copy=False) != 0
    return np.flatnonzero(kept)


def histogram_chunks(
    orbit: Orbit, dist: PhaseDistribution, counts: Optional[np.ndarray] = None
) -> Iterator[str]:
    """The text of ``histogram_csv``: its header, then its rows 4096 at a time.

    The arguments are checked when this is called, before the first chunk. The
    Python values and row strings held at once are one chunk's, not all M rows'.
    """
    m, M = orbit.instance.m, orbit.instance.M
    if dist.m != m:
        raise ValueError(f"distribution over m={dist.m} bits, instance has m={m}")
    keep = histogram_outcomes(dist, counts)
    p = dist.probabilities.astype(float, copy=False)
    if counts is not None:
        counts = counts.astype(np.int64, copy=False)

    def chunks() -> Iterator[str]:
        yield "ell,phase_binary,phase_decimal,probability,counts,produces_factors\n"
        for start in range(0, len(keep), 4096):
            ks = keep[start : start + 4096]
            cs = [0] * len(ks) if counts is None else counts[ks].tolist()
            rows = zip(ks.tolist(), p[ks].tolist(), cs, orbit.factor_mask[ks].tolist())
            yield "".join(f"{l},0.{l:0{m}b},{l / M!r},{q!r},{c},{int(f)}\n" for l, q, c, f in rows)

    return chunks()


def histogram_csv(
    orbit: Orbit, dist: PhaseDistribution, counts: Optional[np.ndarray] = None
) -> str:
    """CSV with one row per outcome whose probability exceeds 1e-15 or whose count is nonzero.

    Columns: ell, phase_binary, phase_decimal, probability, counts (``counts``,
    e.g. from ``sample``; zeros when None), produces_factors (``orbit.factor_mask``).
    """
    return "".join(histogram_chunks(orbit, dist, counts))
