"""Truncation sweeps and tries-until-factor ensembles.

A "try" is one sampled measurement l of the control register; it succeeds
when continued fractions on l yield factors (``orbit.factor_mask[l]``), and
barren draws (l = 0 and friends) fail. An ensemble is two (cells, seeds) int64
arrays, the tries and the winning l (-1 where capped). Seeds pass a fixed
avalanche mixer, and a seed's draws are ``np.random.default_rng(seed)``'s,
computed for all seeds at once without numpy.random: reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass, replace
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .modmath import FactoringInstance, Orbit, build_orbit, extract_factors
from .shor import PhaseDistribution, exact_distribution, nearest_phase_bin, work_images
from .synth import check_trnc_lv, synth_all_powers, truncate

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 18  # doubles per block of draws, however many seeds are open: 2 MiB, and 6-6.5 MiB at _uniforms' peak
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # SplitMix64 finalizer.
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, *parts: int) -> int:
    """Mix (base_seed, *parts) into one 64-bit seed.

    Sequential SplitMix64 absorption; the exact function is a compatibility
    contract, since per-iteration seeds (and therefore all sweep results)
    depend on it.
    """
    x = base_seed & _MASK64
    for part in parts:
        x = _mix64(x ^ ((part & _MASK64) + _GAMMA))
    return x


# numpy's SeedSequence hashing (after O'Neill's seed_seq): pool, mixing and output constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; each call advances the shared constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        return value ^ (value >> 16)

    return hashmix


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each row of a seed's uint32
    words (least significant first, at least ``_POOL`` of them), all rows at once."""

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    output = _hasher(_INIT_B, _MULT_B)
    words = [output(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], axis=1)


def _split(limbs: np.ndarray, bits: int) -> np.ndarray:
    """Each row's limbs cut into limbs of ``bits`` bits, low first."""
    out = np.empty((*limbs.shape, 2), np.uint64)
    np.bitwise_and(limbs, (1 << bits) - 1, out=out[..., 0])
    np.right_shift(limbs, bits, out=out[..., 1])
    return out.reshape(len(limbs), -1)


def _streams(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's PCG64 state and increment as ``np.random.default_rng(seed)`` sets them, in
    (seeds, 4) arrays of 32-bit limbs, low first: SeedSequence's hashing for all seeds at once.

    A seed's entropy is its uint32 words; a seed below 2**128 is zero-padded to
    ``_POOL`` words, as SeedSequence fills missing pool words with hashmix(0).
    Longer seeds are hashed in groups of equal word count. The four state words give
    s = w0:w1 and i = w2:w3, high first; inc = 2i + 1, and the state is one step from s + inc.
    """
    seeds = [operator.index(seed) for seed in seeds]
    groups: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        groups.setdefault(max(_POOL, -(-seed.bit_length() // 32)), []).append(i)
    words = np.empty((len(seeds), 4), np.uint64)
    for width, members in groups.items():
        blob = b"".join(seeds[i].to_bytes(4 * width, "little") for i in members)
        words[members] = _pcg64_states(np.frombuffer(blob, dtype="<u4").reshape(-1, width))
    s_hi, s_lo, i_hi, i_lo = words.T
    inc = _split(np.stack([i_lo << 1 | 1, i_hi << 1 | i_lo >> 63], axis=1), 32)
    start = _split(np.stack([s_lo, s_hi], axis=1), 32) + inc  # limbs of up to 33 bits
    return _uniforms(start, inc, 1)[1], inc


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 1 << 12  # draws per seed and chunk at most: the jump table keeps 192 B per draw
_jump_table = np.empty((24, 0), np.uint64)


def _uniforms(state: np.ndarray, inc: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``size`` doubles of each row's PCG64 stream, (rows, size), and the states after them.

    Draw j's state is A_j * state + B_j * inc mod 2**128 (A_j = MULT**j, B_j = MULT**(j-1) + ... + 1),
    its double (rotr64(hi ^ lo, state >> 122) >> 11) * 2**-53. On 16-bit limbs s_q of state and inc
    (17 bits are fine), each word is a uint64 matmul with the words of A_j << 16q and B_j << 16q; the
    low word's 32-bit halves, summed exactly, carry into the high word. Three (rows, size) arrays live.
    """
    global _jump_table  # grown to the largest size asked for and sliced
    if _jump_table.shape[1] < size:
        a, b, rows = 1, 0, []
        for _ in range(size):
            a, b = a * _PCG_MULT % 2**128, (b * _PCG_MULT + 1) % 2**128
            shifted = [(x << 16 * q) % 2**128 for half in (0, 4) for x in (a, b) for q in range(half, half + 4)]
            rows.append([z & _MASK64 for z in shifted[:8]] + [z >> 64 for z in shifted])
        _jump_table = np.array(rows, np.uint64).T
    low, high = _jump_table[:8, :size], _jump_table[8:, :size]
    # limbs 0-3 of state and inc, the ones a low word takes, then limbs 4-7
    seeds = _split(np.concatenate([state[:, :2], inc[:, :2], state[:, 2:], inc[:, 2:]], axis=1), 16)
    carry = seeds[:, :8] @ (low & 0xFFFFFFFF) >> 32
    carry += seeds[:, :8] @ (low >> 32)
    carry >>= 32
    carry += seeds @ high  # the high words
    x = seeds[:, :8] @ low  # the low words
    del seeds
    ends = _split(np.stack([x[:, -1], carry[:, -1]], axis=1), 32)
    x ^= carry
    carry >>= 58  # the rotation
    limb = x >> carry
    x <<= np.bitwise_and(np.negative(carry, out=carry), 63, out=carry)
    x |= limb
    del carry, limb
    return (x >> 11) * 2.0**-53, ends


@dataclass(frozen=True)
class TryOutcome:
    """Result of one tries-until-factor run."""

    tries: int
    capped: bool
    l: Optional[int] = None
    factors: Optional[tuple[int, int]] = None


def tries_ensemble(
    cells: Sequence[tuple[Orbit, PhaseDistribution]],
    seeds: Sequence[int],
    max_tries: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Tries until factor for every (orbit, dist) cell and seed: ``(tries, l)``, (cells, seeds) int64.

    Seed i's one stream serves every cell, read in chunks of 16, 32, ..., 4096, 4096, ...
    up to max_tries in all (the same doubles as one call) until each cell has won
    on it: fewer than 2 * tries + 16 values for its slowest cell. A cell wins at
    the first ``dist.cdf`` outcome l its ``factor_mask`` accepts; a cell whose mask
    accepts none (odd r, or a**(r/2) = -1 mod N) draws nothing. Seeds a cell never
    wins on read tries = max_tries and l = -1.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    for orbit, dist in cells:
        if dist.m != orbit.instance.m:
            raise ValueError(f"distribution over m={dist.m} bits, instance has m={orbit.instance.m}")
    tries = np.zeros((len(cells), len(seeds)), np.int64)  # 0 while the (cell, seed) still draws
    tries[[not orbit.factor_mask.any() for orbit, _ in cells]] = max_tries
    l = np.full_like(tries, -1)
    state, inc = (None, None) if tries.all() else _streams(seeds)
    offset, size = 0, 16
    while offset < max_tries and (drawn := np.flatnonzero((tries == 0).any(axis=0))).size:
        size = min(size, max_tries - offset)
        step = max(1, _BLOCK // size)  # seeds per block: at most _BLOCK doubles, or one chunk
        for group in (drawn[start : start + step] for start in range(0, drawn.size, step)):
            block, state[group] = _uniforms(state[group], inc[group], size)
            for c, (orbit, dist) in enumerate(cells):
                rows = tries[c, group] == 0
                draws = dist.cdf.searchsorted(block[rows], side="right")
                hits = orbit.factor_mask[draws]
                first = hits.argmax(axis=1)
                won = hits.any(axis=1)
                winners = group[rows][won]
                tries[c, winners] = offset + first[won] + 1
                l[c, winners] = draws[won, first[won]]
        offset, size = offset + size, min(2 * size, _CHUNK)
    tries[tries == 0] = max_tries
    return tries, l


def tries_until_factor(
    orbit: Orbit, dist: PhaseDistribution, seed: int, max_tries: int = 500
) -> TryOutcome:
    """``tries_ensemble`` of one cell and seed, as a ``TryOutcome`` with N's one factor pair."""
    tries, l = (int(x[0, 0]) for x in tries_ensemble([(orbit, dist)], [seed], max_tries))
    if l < 0:
        return TryOutcome(tries, capped=True)
    return TryOutcome(tries, False, l, extract_factors(orbit.instance, orbit.r))


@dataclass(frozen=True)
class TriesResult:
    """Ensemble of tries-until-factor counts for one truncation level."""

    orbit: Orbit
    trnc_lv: int
    tries: tuple[int, ...]
    capped: tuple[bool, ...]

    @property
    def num_it(self) -> int:
        return len(self.tries)

    @property
    def mean(self) -> float:
        return sum(self.tries) / len(self.tries)

    @property
    def capped_fraction(self) -> float:
        return sum(self.capped) / len(self.capped)


def truncation_sweep(
    instance: FactoringInstance,
    trnc_range: Iterable[int],
    num_it: int,
    base_seed: int,
    max_tries: int = 500,
) -> list[TriesResult]:
    """Ensemble means across truncation levels: a resolution study at instance.m.

    One result per distinct level, in the order of ``trnc_range``; iteration
    i at level t uses seed derive_seed(base_seed, t, i).
    """
    cells = resolution_study(instance, [instance.m], trnc_range, num_it, base_seed, max_tries)
    return list(cells.values())


def peak_presence(orbit: Orbit, dist: PhaseDistribution) -> dict[int, bool]:
    """Which factor-producing eigenphases carry above-uniform mass.

    For each s coprime to r, the neighborhood is the bins within +-1 of
    round(M*s/r); the peak counts as present when the summed probability of
    the neighborhood bins whose analysis actually yields factors exceeds
    twice the uniform floor 1/M.
    """
    r, M = orbit.r, orbit.instance.M
    out: dict[int, bool] = {}
    for s in (k for k in range(r) if gcd(k, r) == 1):
        center = nearest_phase_bin(s, r, M)
        bins = [(center + d) % M for d in (-1, 0, 1)]
        out[s] = sum(float(dist.probabilities[l]) for l in bins if orbit.factor_mask[l]) > 2.0 / M
    return out


def resolution_study(
    instance: FactoringInstance,
    m_values: Iterable[int],
    trnc_range: Iterable[int],
    num_it: int,
    base_seed: int,
    max_tries: int = 500,
) -> dict[tuple[int, int], TriesResult]:
    """Truncation sweep at several control widths: the tries result of each (m, trnc_lv).

    The powers are synthesized once, at the largest m: the circuit for
    2**q does not depend on m, and truncation only empties trailing levels.
    Each level's work images are computed once, at the largest m, and each
    width reads their prefix; all widths share one orbit. ``num_it``, ``max_tries``
    and every width are checked before it is built, and every level before anything
    is synthesized. Iteration i at level t uses seed derive_seed(base_seed, t, i).
    """
    if num_it < 1:
        raise ValueError(f"num_it must be >= 1, got {num_it}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    instances = [replace(instance, m=m) for m in m_values]
    orbit = build_orbit(instance)
    orbits = [Orbit(inst_m, orbit.states) for inst_m in instances]
    trnc_levels = []
    for t in trnc_range:
        check_trnc_lv(t, orbit.r)
        trnc_levels.append(t)
    full = synth_all_powers(orbit, max((inst.m for inst in instances), default=0))
    out: dict[tuple[int, int], TriesResult] = {}
    for trnc_lv in trnc_levels:
        images = work_images(truncate(full, trnc_lv), 1 << len(full))
        dists = [exact_distribution(inst_m, images[: inst_m.M]) for inst_m in instances]
        seeds = [derive_seed(base_seed, trnc_lv, it) for it in range(num_it)]
        tries, l = tries_ensemble(list(zip(orbits, dists)), seeds, max_tries)
        for orbit_m, row, capped in zip(orbits, tries, l < 0):
            out[(orbit_m.instance.m, trnc_lv)] = TriesResult(
                orbit_m, trnc_lv, tuple(row.tolist()), tuple(capped.tolist()))
    return {(inst.m, t): out[(inst.m, t)] for inst in instances for t in trnc_levels}


_STUDY_COLUMNS = ("N", "a", "r", "n", "m", "trnc_lv", "num_it", "mean_tries", "capped_fraction")


def _study_row(res: TriesResult) -> dict:
    inst = res.orbit.instance
    values = (
        inst.N, inst.a, res.orbit.r, inst.n, inst.m,
        res.trnc_lv, res.num_it, res.mean, res.capped_fraction,
    )
    return dict(zip(_STUDY_COLUMNS, values))


def study_csv(results: Sequence[TriesResult]) -> str:
    """CSV rows keyed by (m, trnc_lv): N,a,r,n,m,trnc_lv,num_it,mean_tries,capped_fraction."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_STUDY_COLUMNS)
    for res in results:
        writer.writerow(_study_row(res).values())
    return buf.getvalue()


def study_json(results: Sequence[TriesResult]) -> str:
    """JSON mirror of study_csv including the per-iteration arrays."""
    rows = [
        {**_study_row(res), "tries": list(res.tries), "capped": list(res.capped)}
        for res in results
    ]
    return json.dumps({"rows": rows}, indent=2)
