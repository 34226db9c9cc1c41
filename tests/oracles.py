"""Reference implementations the tests check the library against.

None of these runs in the CLI or the pipeline. Each computes its result a
second, independent way: the orbit's cycles under U^p by scanning, a
brute-force concatenated U^p, the dense
2^(m+n) statevector backend, the scalar control image, the work images
by doubling over ``Gate.apply`` alone, the closed-form
eigenphase amplitudes and eigenvectors, the factor mask in one Euclid
pass over every control value, the histogram CSV written one
outcome at a time, the tries-until-factor run one seed at a time, the
greedy control search over ``Control`` objects and as numpy reductions,
the breadth-first flip-path search, the set-based synthesis level, and
the QASM text printed from the lowered circuit.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from truncshor.circuit import (
    Control,
    Gate,
    LeveledCircuit,
    VERSION_CONCATENATED,
    VERSION_PER_POWER,
    apply_to_basis,
    lower_negative_controls,
    permutation_table,
)
from truncshor.experiments import TryOutcome
from truncshor.modmath import (
    FactoringInstance,
    Orbit,
    check_period,
    extract_factors,
)
from truncshor.shor import PhaseDistribution
from truncshor.synth import ProtectedCollisionError


class DimensionMismatchError(ValueError):
    """State vector length does not match the circuit's qubit count."""


class TooLargeError(ValueError):
    """Dense backend would need more qubits than the configured cap."""


def _apply_gate_dense(state: np.ndarray, gate_target: int,
                      controls: Sequence[tuple[int, bool]]) -> None:
    """Swap amplitude pairs (w, w^target) wherever the controls match, in place."""
    idx = np.arange(state.shape[0])
    mask = ((idx >> gate_target) & 1) == 0
    for qubit, negated in controls:
        bit = (idx >> qubit) & 1
        mask &= (bit == 0) if negated else (bit == 1)
    src = idx[mask]
    dst = src | (1 << gate_target)
    state[src], state[dst] = state[dst].copy(), state[src].copy()


def apply_to_statevector(circuit: LeveledCircuit, state: np.ndarray) -> np.ndarray:
    """Dense reference backend: same action as apply_to_basis, extended linearly.

    All gates are basis permutations, so the 2-norm is preserved exactly.
    """
    dim = 1 << circuit.n_qubits
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (dim,):
        raise DimensionMismatchError(
            f"expected state of length {dim}, got shape {state.shape}"
        )
    out = state.copy()
    for gate in circuit.gates():
        _apply_gate_dense(out, gate.target, [(c.qubit, c.negated) for c in gate.controls])
    return out


def cycle_decomposition_scan(orbit: Orbit, p: int) -> tuple[tuple[int, ...], ...]:
    """Partition the orbit under stepping by p.

    Cycle order: candidates f(0), f(1), ... are scanned in orbit order and
    each not-yet-covered candidate heads the next cycle; within a cycle,
    states follow the step map. Stepping by a multiple of r gives r
    singleton cycles (the identity).
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    states = orbit.states
    r = orbit.r
    step = p % r
    if step == 0:
        return tuple((s,) for s in states)
    index = {s: i for i, s in enumerate(states)}
    covered: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for head in states:
        if head in covered:
            continue
        cycle = [head]
        k = (index[head] + step) % r
        while states[k] != head:
            cycle.append(states[k])
            k = (k + step) % r
        cycles.append(tuple(cycle))
        covered.update(cycle)
    return tuple(cycles)


def concatenate_power(u: LeveledCircuit, p: int) -> LeveledCircuit:
    """Repeat u's levels p times: the brute-force composite operator.

    Used as a correctness oracle against per-power synthesis, not in the
    production pipeline (it wastes a factor r of gates).
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    return LeveledCircuit(
        n_qubits=u.n_qubits,
        power=u.power * p,
        levels=u.levels * p,
        trnc_lv=u.trnc_lv,
        version=VERSION_CONCATENATED,
    )


def restricted_equal(c1: LeveledCircuit, c2: LeveledCircuit,
                     domain: Iterable[int]) -> bool:
    """True iff the two circuits act identically on the given domain."""
    if c1.n_qubits != c2.n_qubits:
        raise ValueError("circuits must have the same qubit count")
    dom = tuple(domain)
    return permutation_table(c1, dom) == permutation_table(c2, dom)


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


def basis_images(circuit: LeveledCircuit, values: Iterable[int]) -> list[int]:
    """apply_to_basis on every value, each distinct value evaluated once."""
    memo: dict[int, int] = {}
    return [memo[w] if w in memo else memo.setdefault(w, apply_to_basis(circuit, w))
            for w in values]


def work_images_oracle(circuits: Sequence[LeveledCircuit], M: int) -> list[int]:
    """Work images of k in [0, M) by doubling over Python ints, through ``Gate.apply`` only."""
    images = [1]
    for q in range(M.bit_length() - 1):
        images += basis_images(circuits[q], images)
    return images


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
    return PhaseDistribution(m=m, probabilities=probs)


def factor_mask_oracle(orbit: Orbit) -> np.ndarray:
    """``Orbit.factor_mask`` as one vectorized Euclid pass over all of l."""
    instance, r = orbit.instance, orbit.r
    mask = np.zeros(instance.M, dtype=bool)
    if check_period(instance, r).accepted:
        l = np.arange(1, instance.M)  # l = 0 has the single denominator 1
        u, v, q, q_prev = np.full_like(l, instance.M), l, np.ones_like(l), np.zeros_like(l)
        while l.size:
            u, v, q, q_prev = v, u % v, (u // v) * q + q_prev, q
            hit = q % (2 * r) == r
            mask[l[hit]] = True
            keep = ~hit & (v != 0)
            l, u, v, q, q_prev = l[keep], u[keep], v[keep], q[keep], q_prev[keep]
    return mask


def histogram_csv_loop(
    orbit: Orbit,
    dist: PhaseDistribution,
    counts: Optional[np.ndarray] = None,
) -> str:
    """``histogram_csv`` one outcome at a time through ``csv.writer``."""
    instance = orbit.instance
    M = instance.M
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
                "0." + format(l, f"0{instance.m}b"),
                repr(l / M),
                repr(p),
                c,
                int(orbit.factor_mask[l]),
            ]
        )
    return buf.getvalue()


def tries_until_factor_oracle(
    orbit: Orbit, dist: PhaseDistribution, seed: int, max_tries: int = 500
) -> TryOutcome:
    """Draw measurements until one yields factors; report the 1-based count.

    Draws come from ``dist.cdf``, in chunks of 16, 32, 64, ... up to max_tries
    in all: the same stream as one call for all of them, and fewer than
    2 * tries + 16 values drawn.
    Every winning l splits N as gcd(a**(r/2) -+ 1, N), since ``factor_mask``
    accepts only odd multiples of r; when it accepts no outcome at all (odd r,
    or a**(r/2) = -1 mod N) nothing is drawn. Returns max_tries with
    capped=True when no draw succeeds.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    instance = orbit.instance
    if dist.m != instance.m:
        raise ValueError(f"distribution over m={dist.m} bits, instance has m={instance.m}")
    mask = orbit.factor_mask
    if not mask.any():
        return TryOutcome(tries=max_tries, capped=True)
    rng = np.random.default_rng(seed)
    offset, size = 0, 16
    while offset < max_tries:
        size = min(size, max_tries - offset)
        draws = dist.cdf.searchsorted(rng.random(size), side="right")
        hits = mask[draws]
        if hits.any():
            i = int(hits.argmax())
            return TryOutcome(
                tries=offset + i + 1,
                capped=False,
                l=int(draws[i]),
                factors=extract_factors(instance, orbit.r),
            )
        offset, size = offset + size, 2 * size
    return TryOutcome(tries=max_tries, capped=True)


def greedy_controls_oracle(fire_value, forbidden, n_qubits, target):
    """The greedy search over Control objects, one scalar pattern test per value."""
    controls = {
        q: Control(qubit=q, negated=(fire_value >> q) & 1 == 0)
        for q in range(n_qubits)
        if q != target
    }
    for q in sorted(controls, reverse=True):
        dropped = controls.pop(q)
        probe = Gate(target=target, controls=tuple(controls.values()))
        if any(probe.fires(v) for v in forbidden):
            controls[q] = dropped
    return tuple(sorted(controls.values()))



def bfs_flip_path_oracle(current, target, blocked, n_qubits):
    """The breadth-first search alone: neighbors in ascending bit order, None if no path."""
    if current == target:
        return [current]
    prev = {current: -1}
    queue = deque([current])
    while queue:
        u = queue.popleft()
        for b in range(n_qubits):
            v = u ^ (1 << b)
            if v in prev or v in blocked:
                continue
            prev[v] = u
            if v == target:
                path = [v]
                while path[-1] != current:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(v)
    return None


def minimize_controls_numpy(
    fire_value: int,
    forbidden: Iterable[int],
    n_qubits: int,
    target: int,
) -> tuple[Control, ...]:
    """The greedy control search as numpy reductions over all forbidden values per drop."""
    # a (care, fire_value) pattern matches v iff v ^ fire_value has no care bit set
    differs = np.fromiter(forbidden, dtype=np.int64) ^ fire_value
    care = ((1 << n_qubits) - 1) & ~(1 << target)
    for bit in (1 << q for q in reversed(range(n_qubits)) if q != target):
        if not ((differs & (care ^ bit)) == 0).any():
            care ^= bit
    return tuple(Control(qubit=q, negated=not (fire_value >> q) & 1)
                 for q in range(n_qubits) if (care >> q) & 1)


def synth_level_oracle(
    current: int,
    target: int,
    protected: Iterable[int],
    n_qubits: int,
    avoid: Optional[Iterable[int]] = None,
) -> list[Gate]:
    """One synthesis level, tracking the avoided values in a set and searching controls per step."""
    protected = frozenset(protected)
    if current in protected or target in protected:
        raise ValueError("endpoints may not be protected")
    avoid_set = set(protected if avoid is None else avoid)
    gates: list[Gate] = []
    path = bfs_flip_path_oracle(current, target, protected, n_qubits)
    if path is None:
        raise ProtectedCollisionError(f"no path {current} -> {target}")
    for u, v in zip(path, path[1:]):
        bit = (u ^ v).bit_length() - 1
        soft = avoid_set - {u, v}
        gates.append(Gate(target=bit, controls=minimize_controls_numpy(u, soft, n_qubits, bit)))
        if v in avoid_set:
            avoid_set.discard(v)
            avoid_set.add(u)
    return gates


def to_qasm3_lowered(circuit: LeveledCircuit) -> str:
    """OpenQASM 3 text printed gate by gate from ``lower_negative_controls(circuit)``."""
    lowered = lower_negative_controls(circuit)
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{lowered.n_qubits}] q;",
    ]
    last = lowered.num_levels - 1
    for i, level in enumerate(lowered.levels):
        for gate in level:
            if not gate.controls:
                lines.append(f"x q[{gate.target}];")
            else:
                operands = ", ".join(
                    f"q[{c.qubit}]" for c in gate.controls
                ) + f", q[{gate.target}]"
                k = len(gate.controls)
                modifier = "ctrl @" if k == 1 else f"ctrl({k}) @"
                lines.append(f"{modifier} x {operands};")
        if i != last:
            lines.append("barrier q;")
    return "\n".join(lines) + "\n"
