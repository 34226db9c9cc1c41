"""Phase-estimation pipeline: control images, exact and sampled distributions.

The inverse QFT is never materialized as gates. Work images w(k) are
computed for all control values k, grouped, and the control-register
distribution follows from one length-M DFT per distinct image:

    P(l) = (1/M^2) * sum_w | sum_{k: w(k)=w} exp(-2*pi*i*k*l/M) |^2

A dense statevector backend over all m+n qubits provides an independent
cross-check, and the closed-form eigenphase amplitudes provide another.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .circuit import (
    Control,
    Gate,
    LeveledCircuit,
    VERSION_PER_POWER,
    apply_to_basis,
    apply_to_basis_array,
    apply_to_statevector,
)
from .modmath import FactoringInstance, Orbit


class TooLargeError(ValueError):
    """Dense backend would need more qubits than the configured cap."""


@dataclass(frozen=True)
class EigenphaseSet:
    """The r eigenphases s/r; those with gcd(s, r) = 1 can produce factors."""

    r: int
    phases: tuple[Fraction, ...]
    factor_producing: tuple[int, ...]

    @classmethod
    def from_period(cls, r: int) -> "EigenphaseSet":
        if r < 1:
            raise ValueError(f"period must be >= 1, got {r}")
        return cls(
            r=r,
            phases=tuple(Fraction(s, r) for s in range(r)),
            factor_producing=tuple(s for s in range(r) if gcd(s, r) == 1),
        )


@dataclass
class PhaseDistribution:
    """Probabilities over the M control outcomes, exact or sampled."""

    m: int
    probabilities: np.ndarray
    provenance: str  # "exact" | "sampled"
    shots: Optional[int] = None
    seed: Optional[int] = None
    counts: Optional[np.ndarray] = None

    @property
    def M(self) -> int:
        return 1 << self.m


def control_image(circuits: Sequence[LeveledCircuit], k: int) -> int:
    """Work image of control value k, starting from work state 1.

    Applies U**(2**q) for each set bit q of k in ascending order. For
    untruncated circuits this is f(k mod r); truncated circuits produce
    whatever their gate-level permutations give.
    """
    if k < 0:
        raise ValueError(f"control value must be non-negative, got {k}")
    w = 1
    q = 0
    while k >> q:
        if (k >> q) & 1:
            w = apply_to_basis(circuits[q], w)
        q += 1
    return w


def work_images(circuits: Sequence[LeveledCircuit], M: int) -> np.ndarray:
    """Vectorized control_image for every k in [0, M)."""
    m = M.bit_length() - 1
    ks = np.arange(M)
    images = np.ones(M, dtype=np.int64)
    for q in range(m):
        fire = ((ks >> q) & 1) == 1
        images[fire] = apply_to_basis_array(circuits[q], images[fire])
    return images


def exact_distribution(
    instance: FactoringInstance, circuits: Sequence[LeveledCircuit]
) -> PhaseDistribution:
    """Exact control-register distribution via grouped DFT over work images."""
    m, M = instance.m, instance.M
    if len(circuits) < m:
        raise ValueError(f"need circuits for powers 2^0 .. 2^{m - 1}, got {len(circuits)}")
    images = work_images(circuits, M)
    uniq, inverse = np.unique(images, return_inverse=True)
    indicators = np.zeros((len(uniq), M))
    indicators[inverse, np.arange(M)] = 1.0
    spectra = np.fft.fft(indicators, axis=1)
    probs = (np.abs(spectra) ** 2).sum(axis=0) / M**2
    return PhaseDistribution(m=m, probabilities=probs, provenance="exact")


def analytic_amplitude(s: int, r: int, l: int, M: int) -> complex:
    """Closed-form amplitude of outcome l for eigenphase s/r.

    A_l = (1/(sqrt(r)*M)) * (1 - e^(2*pi*i*d*M)) / (1 - e^(2*pi*i*d)) with
    d = s/r - l/M; the removable singularity at integer d evaluates to
    1/sqrt(r). The singularity test is exact integer arithmetic.
    """
    if r < 1 or M < 1:
        raise ValueError("r and M must be positive")
    if not 0 <= l < M:
        raise ValueError(f"need 0 <= l < M, got l={l}")
    num = s * M - l * r
    if num % (r * M) == 0:
        return complex(1.0 / math.sqrt(r))
    delta = num / (r * M)
    numerator = 1.0 - np.exp(2j * np.pi * delta * M)
    denominator = 1.0 - np.exp(2j * np.pi * delta)
    return complex(numerator / denominator / (math.sqrt(r) * M))


def eigenstate_vector(orbit: Orbit, s: int) -> np.ndarray:
    """Eigenvector u_s = (1/sqrt(r)) * sum_k e^(-2*pi*i*k*s/r) |f(k)>."""
    r = orbit.r
    if not 0 <= s < r:
        raise ValueError(f"need 0 <= s < r={r}, got {s}")
    n = orbit.instance.n
    vec = np.zeros(1 << n, dtype=np.complex128)
    for k, state in enumerate(orbit.states):
        vec[state] = np.exp(-2j * np.pi * k * s / r) / math.sqrt(r)
    return vec


def sample(dist: PhaseDistribution, shots: int, seed: int) -> PhaseDistribution:
    """Multinomial draw from an exact distribution; deterministic per seed."""
    if dist.provenance != "exact":
        raise ValueError("can only sample from an exact distribution")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    p = np.clip(dist.probabilities, 0.0, None)
    counts = rng.multinomial(shots, p / p.sum())
    return PhaseDistribution(
        m=dist.m,
        probabilities=counts / shots,
        provenance="sampled",
        shots=shots,
        seed=seed,
        counts=counts,
    )


def run_shor_dense(
    instance: FactoringInstance,
    circuits: Sequence[LeveledCircuit],
    max_qubits: int = 22,
) -> PhaseDistribution:
    """Reference backend over the full 2**(m+n) statevector.

    Prepares the uniform control register against work state 1, applies
    each controlled power gate by gate, takes the inverse QFT on the
    control register analytically, and reads off |amplitude|^2.
    """
    m, n, M = instance.m, instance.n, instance.M
    total = m + n
    if total > max_qubits:
        raise TooLargeError(f"{total} qubits exceeds the dense cap of {max_qubits}")
    if len(circuits) < m:
        raise ValueError(f"need circuits for powers 2^0 .. 2^{m - 1}, got {len(circuits)}")
    # Control bits occupy global positions 0..m-1, work bit j sits at m+j,
    # so the flat index is k + M*w.
    state = np.zeros(1 << total, dtype=np.complex128)
    state[M : 2 * M] = 1.0 / math.sqrt(M)
    controlled_levels = []
    for q in range(m):
        gates = []
        for gate in circuits[q].gates():
            gates.append(
                Gate(
                    target=m + gate.target,
                    controls=(Control(qubit=q),)
                    + tuple(Control(qubit=m + c.qubit, negated=c.negated) for c in gate.controls),
                )
            )
        controlled_levels.append(tuple(gates))
    global_circuit = LeveledCircuit(
        n_qubits=total,
        power=1,
        levels=tuple(controlled_levels),
        version=VERSION_PER_POWER,
    )
    state = apply_to_statevector(global_circuit, state)
    # Inverse QFT on the control register: one forward DFT per work row.
    rows = state.reshape(1 << n, M)
    transformed = np.fft.fft(rows, axis=1) / math.sqrt(M)
    probs = (np.abs(transformed) ** 2).sum(axis=0)
    return PhaseDistribution(m=m, probabilities=probs, provenance="exact")


def nearest_phase_bin(s: int, r: int, M: int) -> int:
    """Control bin closest to eigenphase s/r: round(M*s/r), half rounded up."""
    return ((2 * M * s + r) // (2 * r)) % M


def phase_bits(l: int, m: int) -> str:
    """The m-bit binary expansion of l as a string."""
    return format(l, f"0{m}b")


def histogram_csv(
    instance: FactoringInstance,
    dist: PhaseDistribution,
    sampled: Optional[PhaseDistribution] = None,
) -> str:
    """CSV with one row per outcome carrying nonzero probability or count.

    Columns: ell, phase_binary, phase_decimal, probability, counts,
    produces_factors (``instance.factor_mask``).
    """
    if dist.m != instance.m:
        raise ValueError(f"distribution over m={dist.m} bits, instance has m={instance.m}")
    M = instance.M
    counts = sampled.counts if sampled is not None and sampled.counts is not None else None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["ell", "phase_binary", "phase_decimal", "probability", "counts", "produces_factors"]
    )
    for l in range(M):
        p = float(dist.probabilities[l])
        c = int(counts[l]) if counts is not None else 0
        if p <= 1e-15 and c == 0:
            continue
        writer.writerow(
            [
                l,
                "0." + phase_bits(l, instance.m),
                repr(l / M),
                repr(p),
                c,
                int(instance.factor_mask[l]),
            ]
        )
    return buf.getvalue()
