"""Modular arithmetic, orbits, cycle structure, and continued-fractions analysis.

Everything here is exact integer arithmetic: the orbit of the base under
multiplication mod N, the cycle structure of composite powers acting on that
orbit, and the continued-fractions machinery that turns a measured phase
into candidate periods and factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

import numpy as np


class NotCoprimeError(ValueError):
    """The base shares a nontrivial factor with the modulus.

    The shared gcd is itself a factor of N, so callers should report
    ``common`` as a found factor rather than treating this as a failure.
    """

    def __init__(self, a: int, N: int, common: int):
        super().__init__(f"gcd({a}, {N}) = {common}; {common} is a factor of {N}")
        self.a = a
        self.N = N
        self.common = common


class TrivialFactorError(ValueError):
    """An accepted period yielded gcd 1 or N (unlucky base); caller retries."""


def mod_pow(a: int, x: int, N: int) -> int:
    """a**x mod N via square-and-multiply (the built-in three-argument pow)."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    if x < 0:
        raise ValueError(f"exponent must be non-negative, got {x}")
    return pow(a, x, N)


# Control values per vectorized Euclid pass in ``Orbit.factor_mask``.
_EUCLID_BLOCK = 1 << 14


@dataclass(frozen=True)
class FactoringInstance:
    """One factoring problem: odd modulus N, coprime base a, control width m.

    The work-register width n = ceil(log2 N) and the control-state count
    M = 2**m are derived. m may be anything from 1 up to 2n + 1; the upper
    end gives enough resolution for continued fractions to recover any
    period, smaller values trade resolution for qubits.
    """

    N: int
    a: int
    m: int

    def __post_init__(self) -> None:
        if self.N < 15 or self.N % 2 == 0:
            raise ValueError(f"N must be an odd integer >= 15, got {self.N}")
        if not 1 < self.a < self.N:
            raise ValueError(f"base must satisfy 1 < a < N, got a={self.a}")
        common = gcd(self.a, self.N)
        if common != 1:
            raise NotCoprimeError(self.a, self.N, common)
        if not 1 <= self.m <= 2 * self.n + 1:
            raise ValueError(
                f"control width m={self.m} outside [1, {2 * self.n + 1}] for N={self.N}"
            )

    @property
    def n(self) -> int:
        """Work-register width: ceil(log2 N)."""
        return (self.N - 1).bit_length()

    @property
    def M(self) -> int:
        """Number of control-register states, 2**m."""
        return 1 << self.m


@dataclass(frozen=True)
class Orbit:
    """The closed sequence [f(0), f(1), ..., f(r-1)] with f(x) = a**x mod N."""

    instance: FactoringInstance
    states: tuple[int, ...]

    @property
    def r(self) -> int:
        """Period of the orbit."""
        return len(self.states)

    @cached_property
    def factor_mask(self) -> np.ndarray:
        """Built on first use: ``factor_mask[l]`` says whether analyzing outcome l yields factors.

        A convergent denominator q splits N iff the period r is even, a**(r/2) != -1
        mod N and q is an odd multiple of r, so a vectorized Euclid pass decides each
        block of ``_EUCLID_BLOCK`` values of l, and its temporaries are one block's.
        """
        r, M = self.r, self.instance.M
        mask = np.zeros(M, dtype=bool)
        if check_period(self.instance, r).accepted:
            for start in range(1, M, _EUCLID_BLOCK):  # l = 0 has the single denominator 1
                l = np.arange(start, min(start + _EUCLID_BLOCK, M))
                u, v, q, q_prev = np.full_like(l, M), l, np.ones_like(l), np.zeros_like(l)
                while l.size:
                    u, v, q, q_prev = v, u % v, (u // v) * q + q_prev, q
                    hit = q % (2 * r) == r
                    mask[l[hit]] = True
                    keep = ~hit & (v != 0)
                    l, u, v, q, q_prev = l[keep], u[keep], v[keep], q[keep], q_prev[keep]
        mask.flags.writeable = False
        return mask


# Longest orbit build_orbit stores. Storing all 2**20 states peaks about 56 MiB above the
# import at a 61-bit N and about 175 MiB at 1,000 bits: the cost grows with N's bit length.
MAX_PERIOD = 1 << 20


def build_orbit(instance: FactoringInstance) -> Orbit:
    """Iterate f(x+1) = a*f(x) mod N from f(0) = 1 until 1 recurs.

    This doubles as the brute-force period oracle: r is found by direct
    iteration, never assumed. A period above MAX_PERIOD raises ValueError
    once MAX_PERIOD states are stored.
    """
    N, a = instance.N, instance.a
    states = [1]
    v = a % N
    while v != 1:
        if len(states) == MAX_PERIOD:
            raise ValueError(f"period of a={a} mod N={N} exceeds the cap of {MAX_PERIOD} states")
        states.append(v)
        v = (v * a) % N
    return Orbit(instance=instance, states=tuple(states))


def cycle_decomposition(orbit: Orbit, p: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of the map f(k) -> f(k + p mod r) on the orbit states.

    The cycles are the cosets of s = p mod r in Z_r, g = gcd(s, r) of them:
    cycle c, for c = 0 .. g-1, is f(c), f(c + s), f(c + 2s), ... (r/g states,
    indices mod r). Each cycle is headed by its first state in orbit order,
    and the cycles come in the order of their heads f(0) .. f(g-1). A
    multiple of r (s = 0, g = r) gives r singleton cycles, the identity.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    states, r = orbit.states, orbit.r
    step = p % r
    g = gcd(step, r)
    return tuple(tuple(states[(c + j * step) % r] for j in range(r // g)) for c in range(g))


def continued_fraction(l: int, M: int) -> list[int]:
    """Continued-fraction coefficients of l/M, leading integer part 0."""
    if M < 1:
        raise ValueError(f"denominator must be >= 1, got {M}")
    if not 0 <= l < M:
        raise ValueError(f"need 0 <= l < M, got l={l}, M={M}")
    terms = [0]
    u, v = M, l
    while v:
        q, u, v = u // v, v, u % v
        terms.append(q)
    return terms


def convergents(cf: Sequence[int]) -> list[tuple[int, int]]:
    """All convergents (s, r) of a continued fraction, starting from (0, 1).

    Each pair is automatically in lowest terms; the last equals the input
    fraction reduced.
    """
    if not cf:
        raise ValueError("continued fraction must be nonempty")
    if cf[0] != 0:
        raise ValueError(f"leading coefficient must be 0, got {cf[0]}")
    out: list[tuple[int, int]] = []
    p1, p2 = 1, 0
    q1, q2 = 0, 1
    for a in cf:
        p = a * p1 + p2
        q = a * q1 + q2
        out.append((p, q))
        p2, p1 = p1, p
        q2, q1 = q1, q
    return out


@dataclass(frozen=True)
class PeriodCheck:
    """Outcome of testing one candidate period."""

    accepted: bool
    reason: Optional[str] = None  # "odd" | "not-period" | "trivial-sqrt"


def check_period(instance: FactoringInstance, r: int) -> PeriodCheck:
    """Accept r iff it is even, a**r = 1 mod N, and a**(r/2) != -1 mod N."""
    if r < 1:
        raise ValueError(f"candidate period must be >= 1, got {r}")
    N, a = instance.N, instance.a
    if r % 2 == 1:
        return PeriodCheck(accepted=False, reason="odd")
    if mod_pow(a, r, N) != 1:
        return PeriodCheck(accepted=False, reason="not-period")
    if mod_pow(a, r // 2, N) == N - 1:
        return PeriodCheck(accepted=False, reason="trivial-sqrt")
    return PeriodCheck(accepted=True)


def extract_factors(instance: FactoringInstance, r: int) -> tuple[int, int]:
    """Split N via gcd(a**(r/2) -+ 1, N) for an accepted even period r.

    Returns (gcd(x - 1, N), gcd(x + 1, N)) with x = a**(r/2); for N = 21,
    a = 2, r = 6 that is (7, 3). Raises TrivialFactorError when either gcd
    is 1 or N, which happens when r is an even multiple of the true period.
    """
    N, a = instance.N, instance.a
    x = mod_pow(a, r // 2, N)
    f1 = gcd(x - 1, N)
    f2 = gcd(x + 1, N)
    if f1 in (1, N) or f2 in (1, N):
        raise TrivialFactorError(f"trivial split ({f1}, {f2}) for N={N}, a={a}, r={r}")
    return f1, f2


REJECTED_ODD = "rejected-odd"
REJECTED_CHECK = "rejected-check"
FACTORS = "factors"


@dataclass(frozen=True)
class ConvergentVerdict:
    """Per-convergent outcome of the period checks."""

    convergent: tuple[int, int]
    verdict: str  # REJECTED_ODD | REJECTED_CHECK | FACTORS
    factors: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class ConvergentReport:
    """Full continued-fractions analysis of one measured control value."""

    instance: FactoringInstance
    l_measured: int
    phase_binary: str
    phase_fraction: tuple[int, int]
    cf_terms: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    verdicts: tuple[ConvergentVerdict, ...]

    @property
    def phase_decimal(self) -> float:
        return self.l_measured / self.instance.M

    @property
    def factors(self) -> Optional[tuple[int, int]]:
        """First factor pair found, or None."""
        for v in self.verdicts:
            if v.factors is not None:
                return v.factors
        return None

    def to_text(self, frequency: Optional[int] = None) -> str:
        """Render the analysis as a fixed-format text block.

        Field labels and spacing are part of the output contract; pass a
        shot count as ``frequency`` to include it on the first line.
        """
        head = f"l_measured   : {self.phase_binary} {self.l_measured}"
        if frequency is not None:
            head += f" frequency: {frequency}"
        lines = [
            head,
            f"phi_phase_bin: 0.{self.phase_binary}",
            f"phi_phase_dec: {self.phase_decimal!r}",
            f"phi_phase_frc: {self.phase_fraction}",
            f"cont frc of phi  : {list(self.cf_terms)}",
            f"convergents of phi: {list(self.convergents)}",
        ]
        for v in self.verdicts:
            s, r = v.convergent
            if v.verdict == FACTORS and v.factors is not None:
                lines.append(f"conv: ({s}, {r}) r = {r} : factors")
                lines.append(f"factor1: {v.factors[0]}")
                lines.append(f"factor2: {v.factors[1]}")
            else:
                lines.append(f"conv: ({s}, {r}) r = {r} : no factors found")
        return "\n".join(lines)

    def to_json_dict(self, frequency: Optional[int] = None) -> dict:
        """JSON form mirroring the text block's field names."""
        d: dict = {
            "l_measured": self.l_measured,
            "phi_phase_bin": f"0.{self.phase_binary}",
            "phi_phase_dec": self.phase_decimal,
            "phi_phase_frc": list(self.phase_fraction),
            "cont_frc_of_phi": list(self.cf_terms),
            "convergents_of_phi": [list(c) for c in self.convergents],
            "verdicts": [
                {
                    "conv": list(v.convergent),
                    "r": v.convergent[1],
                    "verdict": v.verdict,
                    "factors": list(v.factors) if v.factors else None,
                }
                for v in self.verdicts
            ],
        }
        if frequency is not None:
            d["frequency"] = frequency
        return d

    def to_json(self, frequency: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(frequency=frequency), indent=2)


def analyze_measurement(instance: FactoringInstance, l: int) -> ConvergentReport:
    """Run the continued-fractions pipeline on a measured control value.

    Every convergent denominator is tested, including composite multiples
    of the true period; no early exit, so the report records all verdicts.
    A report with no factors is a valid outcome.
    """
    M = instance.M
    if not 0 <= l < M:
        raise ValueError(f"measured value must be in [0, {M}), got {l}")
    g = gcd(l, M) if l else M
    cf = continued_fraction(l, M)
    convs = convergents(cf)
    verdicts = []
    for s, r in convs:
        chk = check_period(instance, r)
        if not chk.accepted:
            verdict = REJECTED_ODD if chk.reason == "odd" else REJECTED_CHECK
            verdicts.append(ConvergentVerdict(convergent=(s, r), verdict=verdict))
            continue
        try:
            f = extract_factors(instance, r)
        except TrivialFactorError:
            verdicts.append(ConvergentVerdict(convergent=(s, r), verdict=REJECTED_CHECK))
            continue
        verdicts.append(ConvergentVerdict(convergent=(s, r), verdict=FACTORS, factors=f))
    return ConvergentReport(
        instance=instance,
        l_measured=l,
        phase_binary=format(l, f"0{instance.m}b"),
        phase_fraction=(l // g, M // g),
        cf_terms=tuple(cf),
        convergents=tuple(convs),
        verdicts=tuple(verdicts),
    )
