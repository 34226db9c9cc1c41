"""Scan synthesis over every coprime base of small moduli.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/synth_scan.py

Runs ``synth_all_powers(build_orbit(inst), 2n+1)`` for every base 1 < a < N
coprime to N, over every odd N in 15..157 and every composite, non-prime-power
odd N in 15..199. For each of the two sets of N, the composite set first (its
moduli are the ones worth factoring), it prints the number of bases per N
that raise ``ProtectedCollisionError``, worst first, and their total. Then it
prints one SHA-256 over the JSON of every synthesized circuit (and a marker
per failing base), and the wall time. A synthesis change that keeps its
output bytes keeps the digest. Takes minutes; it is not part of the tests.
"""

from __future__ import annotations

import hashlib
import time
from math import gcd

from truncshor import FactoringInstance, ProtectedCollisionError, build_orbit, synth_all_powers
from truncshor.circuit import to_json


def _prime_power(N: int) -> bool:
    p = next(d for d in range(2, N + 1) if N % d == 0)
    while N % p == 0:
        N //= p
    return N == 1


def main() -> None:
    odd = range(15, 158, 2)
    composite = [N for N in range(15, 200, 2) if not _prime_power(N)]
    start = time.perf_counter()
    digest = hashlib.sha256()
    failures: dict[int, int] = {}
    bases: dict[int, int] = {}
    for N in sorted(set(odd) | set(composite)):
        failures[N] = 0
        bases[N] = 0
        for a in range(2, N):
            if gcd(a, N) != 1:
                continue
            bases[N] += 1
            inst = FactoringInstance(N=N, a=a, m=1)
            try:
                circuits = synth_all_powers(build_orbit(inst), 2 * inst.n + 1)
            except ProtectedCollisionError:
                failures[N] += 1
                digest.update(f"{N} {a} error\n".encode())
                continue
            for c in circuits:
                digest.update(to_json(c).encode())
    wall = time.perf_counter() - start
    for label, Ns in (("composite, non-prime-power N in 15..199", composite),
                      ("odd N in 15..157", odd)):
        print(f"{label}, worst first:")
        for N in sorted(Ns, key=lambda N: (-failures[N], N)):
            if failures[N]:
                print(f"  N={N}: {failures[N]} of {bases[N]} bases fail")
        print(f"  total: {sum(failures[N] for N in Ns)} of {sum(bases[N] for N in Ns)} fail")
    print(f"sha256 {digest.hexdigest()}")
    print(f"wall {wall:.1f} s")


if __name__ == "__main__":
    main()
