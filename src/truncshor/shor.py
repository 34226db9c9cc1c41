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
from typing import Optional, Sequence

import numpy as np

from .circuit import LeveledCircuit, apply_to_basis_array
from .modmath import FactoringInstance


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


# Bytes of FFT workspace for all rows in flight (a complex128 and a float64
# row each), and the smallest M whose transforms are spread over threads.
_FFT_BUDGET = 64 << 20
_POOL_MIN_M = 1 << 17


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _indicator_power(
    c: np.ndarray, p: np.ndarray, order: np.ndarray, bounds: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """|DFT|^2 of indicator rows start..stop-1 into p, with c as the transform's workspace.

    Row u is 1 at the control values order[bounds[u]:bounds[u + 1]], 0 elsewhere.
    """
    c, p = c[: stop - start], p[: stop - start]
    c[:] = 0
    for row, u in zip(c, range(start, stop)):
        row[order[bounds[u] : bounds[u + 1]]] = 1
    np.fft.fft(c, axis=1, out=c)
    np.abs(c, out=p)
    return np.square(p, out=p)


def _power_blocks(order: np.ndarray, bounds: np.ndarray, M: int, workers: int, size: int):
    """Yield the indicator rows' |DFT|^2 in blocks of ``size`` rows, in image order.

    Block i is computed in workspace i % workers. With several workers the
    blocks run on a thread pool with at most one outstanding per workspace,
    and a workspace is refilled only after the caller has consumed its block.
    """
    distinct = len(bounds) - 1
    spaces = [(np.empty((size, M), complex), np.empty((size, M))) for _ in range(workers)]
    jobs = [
        (*spaces[i % workers], order, bounds, start, min(start + size, distinct))
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
    the distinct images are transformed in blocks, in reused workspaces of 8
    rows in all (fewer from m = 19, where 24 * M bytes per row would pass
    ``_FFT_BUDGET``). From M = 2**17 the blocks are shared by up to 4 threads,
    one per usable CPU. The calling thread adds each row's power to P(l) one
    row at a time in image order, which fixes the last bits of P(l) whatever
    the thread count.
    """
    m, M = instance.m, instance.M
    if images.shape != (M,):
        raise ValueError(f"work images of shape {images.shape}, need ({M},) for m={m}")
    order = images.argsort()
    # Distinct image u (ascending) is the image of order[bounds[u]:bounds[u + 1]].
    bounds = np.append(np.flatnonzero(np.diff(images[order], prepend=-1)), M)
    distinct = len(bounds) - 1
    rows = min(8, max(1, _FFT_BUDGET // (24 * M)))
    workers = min(_cpu_count(), 4, rows) if M >= _POOL_MIN_M else 1
    size = min(rows // workers, distinct)
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


def histogram_csv(
    instance: FactoringInstance, dist: PhaseDistribution, counts: Optional[np.ndarray] = None
) -> str:
    """CSV with one row per outcome whose probability exceeds 1e-15 or whose count is nonzero.

    Columns: ell, phase_binary, phase_decimal, probability, counts (``counts``,
    e.g. from ``sample``; zeros when None), produces_factors (``instance.factor_mask``).
    """
    if dist.m != instance.m:
        raise ValueError(f"distribution over m={dist.m} bits, instance has m={instance.m}")
    m, M = instance.m, instance.M
    p = dist.probabilities.astype(float, copy=False)
    if counts is None:
        counts = np.zeros(M, dtype=np.int64)
    elif np.shape(counts) != (M,):
        raise ValueError(f"counts of shape {np.shape(counts)}, need ({M},) for m={m}")
    counts = counts.astype(np.int64, copy=False)
    keep = np.flatnonzero((p > 1e-15) | (counts != 0))
    parts = ["ell,phase_binary,phase_decimal,probability,counts,produces_factors\n"]
    # 4096 rows at a time: the Python values and row strings of all M rows at
    # once would take about twice the memory of the CSV text itself.
    for start in range(0, len(keep), 4096):
        ks = keep[start : start + 4096]
        rows = zip(ks.tolist(), p[ks].tolist(), counts[ks].tolist(), instance.factor_mask[ks].tolist())
        parts.append("".join(f"{l},0.{l:0{m}b},{l / M!r},{q!r},{c},{int(f)}\n" for l, q, c, f in rows))
    return "".join(parts)
