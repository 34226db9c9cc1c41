"""Truncation sweeps and tries-until-factor ensembles.

A "try" is one sampled measurement l of the control register; it succeeds
when continued fractions on l yield factors (``instance.factor_mask[l]``),
and barren draws (l = 0 and friends) count as failed tries. All randomness
flows from explicit seeds through a fixed avalanche mixer, so every result
is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .modmath import FactoringInstance, Orbit, build_orbit, extract_factors
from .shor import PhaseDistribution, exact_distribution, nearest_phase_bin, work_images
from .synth import check_trnc_lv, synth_all_powers, truncate

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 18  # doubles per block of draws: 2 MiB, however many seeds are open
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


@dataclass(frozen=True)
class TryOutcome:
    """Result of one tries-until-factor run."""

    tries: int
    capped: bool
    l: Optional[int] = None
    factors: Optional[tuple[int, int]] = None


def tries_ensemble(
    cells: Sequence[tuple[FactoringInstance, PhaseDistribution]],
    seeds: Sequence[int],
    max_tries: int = 500,
) -> list[list[TryOutcome]]:
    """Tries until factor for every (instance, dist) cell and seed: ``outcomes[c][i]``.

    Seed i makes one generator for every cell, read in chunks of 16, 32, 64, ...
    up to max_tries in all (the same doubles as one call) until each cell has won
    on it: fewer than 2 * tries + 16 values for its slowest cell. A cell wins at
    the first ``dist.cdf`` outcome its ``factor_mask`` accepts, which splits N as
    gcd(a**(r/2) -+ 1, N); a cell whose mask accepts none (odd r, or
    a**(r/2) = -1 mod N) draws nothing. Seeds a cell never wins on are capped at max_tries.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    for instance, dist in cells:
        if dist.m != instance.m:
            raise ValueError(f"distribution over m={dist.m} bits, instance has m={instance.m}")
    outcomes = [[TryOutcome(tries=max_tries, capped=True)] * len(seeds) for _ in cells]
    pending = np.array([[inst.factor_mask.any()] * len(seeds) for inst, _ in cells], dtype=bool)
    rngs = [np.random.default_rng(seed) for seed in seeds] if pending.any() else []
    pairs: dict[int, tuple[int, int]] = {}
    offset, size = 0, 16
    while offset < max_tries and (drawn := np.flatnonzero(pending.any(axis=0))).size:
        size = min(size, max_tries - offset)
        step = max(1, _BLOCK // size)  # seeds per block: at most _BLOCK doubles, or one chunk
        for group in (drawn[start : start + step] for start in range(0, drawn.size, step)):
            block = np.stack([rngs[i].random(size) for i in group])
            for c, (instance, dist) in enumerate(cells):
                rows = pending[c, group]
                draws = dist.cdf.searchsorted(block[rows], side="right")
                hits = instance.factor_mask[draws]
                first = hits.argmax(axis=1)
                won = hits[np.arange(first.size), first]
                winners = group[rows][won]
                for i, j, l in zip(winners, first[won], draws[won, first[won]]):
                    if c not in pairs:
                        pairs[c] = extract_factors(instance, instance.r)
                    outcomes[c][i] = TryOutcome(offset + int(j) + 1, False, int(l), pairs[c])
                pending[c, winners] = False
        offset, size = offset + size, 2 * size
    return outcomes


def tries_until_factor(
    instance: FactoringInstance, dist: PhaseDistribution, seed: int, max_tries: int = 500
) -> TryOutcome:
    """Draw measurements until one yields factors: ``tries_ensemble`` for one cell and seed."""
    return tries_ensemble([(instance, dist)], [seed], max_tries)[0][0]


@dataclass(frozen=True)
class TriesResult:
    """Ensemble of tries-until-factor counts for one truncation level."""

    instance: FactoringInstance
    trnc_lv: int
    num_it: int
    tries: tuple[int, ...]
    capped: tuple[bool, ...]

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

    Iteration i at level t uses seed derive_seed(base_seed, t, i).
    """
    trnc_levels = list(trnc_range)
    cells = resolution_study(instance, [instance.m], trnc_levels, num_it, base_seed, max_tries)
    return [cells[(instance.m, t)].result for t in trnc_levels]


def peak_presence(
    instance: FactoringInstance, orbit: Orbit, dist: PhaseDistribution
) -> dict[int, bool]:
    """Which factor-producing eigenphases carry above-uniform mass.

    For each s coprime to r, the neighborhood is the bins within +-1 of
    round(M*s/r); the peak counts as present when the summed probability of
    the neighborhood bins whose analysis actually yields factors exceeds
    twice the uniform floor 1/M.
    """
    r = orbit.r
    M = instance.M
    out: dict[int, bool] = {}
    for s in (k for k in range(r) if gcd(k, r) == 1):
        center = nearest_phase_bin(s, r, M)
        bins = [(center + d) % M for d in (-1, 0, 1)]
        out[s] = sum(float(dist.probabilities[l]) for l in bins if instance.factor_mask[l]) > 2.0 / M
    return out


@dataclass(frozen=True)
class ResolutionCell:
    """One (m, trnc_lv) cell of a resolution study."""

    result: TriesResult
    peaks: dict[int, bool]


def resolution_study(
    instance: FactoringInstance,
    m_values: Iterable[int],
    trnc_range: Iterable[int],
    num_it: int,
    base_seed: int,
    max_tries: int = 500,
) -> dict[tuple[int, int], ResolutionCell]:
    """Truncation sweep at several control widths, with peak-presence tables.

    The powers are synthesized once, at the largest m: the circuit for
    2**q does not depend on m, and truncation only empties trailing levels.
    Each level's work images are computed once, at the largest m, and each
    width reads their prefix. Every width, every level, ``num_it`` and
    ``max_tries`` are checked before anything is synthesized. Iteration i at
    level t uses seed derive_seed(base_seed, t, i).
    """
    if num_it < 1:
        raise ValueError(f"num_it must be >= 1, got {num_it}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    instances = [replace(instance, m=m) for m in m_values]
    orbit = build_orbit(instance)
    trnc_levels = []
    for t in trnc_range:
        check_trnc_lv(t, orbit.r)
        trnc_levels.append(t)
    full = synth_all_powers(orbit, max((inst.m for inst in instances), default=0))
    truncated = {t: truncate(full, t) for t in trnc_levels}
    out: dict[tuple[int, int], ResolutionCell] = {}
    for trnc_lv in trnc_levels:
        images = work_images(truncated[trnc_lv], 1 << len(full))
        dists = [exact_distribution(inst_m, images[: inst_m.M]) for inst_m in instances]
        seeds = [derive_seed(base_seed, trnc_lv, it) for it in range(num_it)]
        ensemble = tries_ensemble(list(zip(instances, dists)), seeds, max_tries)
        for inst_m, dist, outcomes in zip(instances, dists, ensemble):
            result = TriesResult(
                instance=inst_m,
                trnc_lv=trnc_lv,
                num_it=num_it,
                tries=tuple(o.tries for o in outcomes),
                capped=tuple(o.capped for o in outcomes),
            )
            out[(inst_m.m, trnc_lv)] = ResolutionCell(
                result=result, peaks=peak_presence(inst_m, orbit, dist)
            )
    return {(inst.m, t): out[(inst.m, t)] for inst in instances for t in trnc_levels}


_STUDY_COLUMNS = ("N", "a", "r", "n", "m", "trnc_lv", "num_it", "mean_tries", "capped_fraction")


def _study_row(res: TriesResult) -> dict:
    inst = res.instance
    values = (
        inst.N, inst.a, inst.r, inst.n, inst.m,
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
