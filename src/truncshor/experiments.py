"""Truncation sweeps and tries-until-factor ensembles.

A "try" is one sampled measurement of the control register followed by the
full continued-fractions analysis; barren draws (l = 0 and friends) count
as failed tries. All randomness flows from explicit seeds through a fixed
avalanche mixer, so every result is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .circuit import LeveledCircuit
from .modmath import FactoringInstance, Orbit, analyze_measurement, build_orbit
from .shor import EigenphaseSet, PhaseDistribution, exact_distribution, nearest_phase_bin
from .synth import synth_all_powers, truncate

_MASK64 = (1 << 64) - 1
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


def tries_until_factor(
    instance: FactoringInstance,
    circuits: Sequence[LeveledCircuit],
    seed: int,
    max_tries: int = 500,
    dist: Optional[PhaseDistribution] = None,
) -> TryOutcome:
    """Draw measurements until one yields factors; report the 1-based count.

    Draws come from the exact distribution of the given circuits (pass
    ``dist`` to reuse a precomputed one; they are drawn in a single batched
    call, which fixes the stream for a given seed). Returns max_tries with
    capped=True when no draw succeeds.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    if dist is None:
        dist = exact_distribution(instance, circuits)
    if dist.m != instance.m:
        raise ValueError(f"distribution over m={dist.m} bits, instance has m={instance.m}")
    rng = np.random.default_rng(seed)
    draws = rng.choice(dist.M, size=max_tries, p=dist.probabilities / dist.probabilities.sum())
    hits = instance.factor_mask[draws]
    if not hits.any():
        return TryOutcome(tries=max_tries, capped=True)
    i = int(hits.argmax())
    report = analyze_measurement(instance, int(draws[i]))
    return TryOutcome(tries=i + 1, capped=False, l=report.l_measured, factors=report.factors)


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
    for s in EigenphaseSet.from_period(r).factor_producing:
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
    Iteration i at level t uses seed derive_seed(base_seed, t, i).
    """
    if num_it < 1:
        raise ValueError(f"num_it must be >= 1, got {num_it}")
    m_values = list(m_values)
    trnc_levels = list(trnc_range)
    orbit = build_orbit(instance)
    full = synth_all_powers(orbit, max(m_values, default=0))
    truncated = {t: [truncate(c, t) for c in full] for t in trnc_levels}
    out: dict[tuple[int, int], ResolutionCell] = {}
    for m in m_values:
        inst_m = replace(instance, m=m)
        for trnc_lv in trnc_levels:
            circuits = truncated[trnc_lv][:m]
            dist = exact_distribution(inst_m, circuits)
            outcomes = [
                tries_until_factor(
                    inst_m,
                    circuits,
                    seed=derive_seed(base_seed, trnc_lv, it),
                    max_tries=max_tries,
                    dist=dist,
                )
                for it in range(num_it)
            ]
            result = TriesResult(
                instance=inst_m,
                trnc_lv=trnc_lv,
                num_it=num_it,
                tries=tuple(o.tries for o in outcomes),
                capped=tuple(o.capped for o in outcomes),
            )
            out[(m, trnc_lv)] = ResolutionCell(
                result=result, peaks=peak_presence(inst_m, orbit, dist)
            )
    return out


_STUDY_COLUMNS = ("N", "a", "r", "n", "m", "trnc_lv", "num_it", "mean_tries", "capped_fraction")


def _study_row(res: TriesResult) -> dict:
    inst = res.instance
    values = (
        inst.N, inst.a, build_orbit(inst).r, inst.n, inst.m,
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
