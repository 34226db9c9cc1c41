import os
import subprocess
import sys
from pathlib import Path

import pytest

import truncshor.synth
from truncshor import FactoringInstance, build_orbit, synth_all_powers

# (base, control width) per modulus studied here.
CASES = {
    21: (2, 5),
    33: (7, 6),
    35: (4, 6),
    143: (5, 10),
    247: (2, 10),
}


@pytest.fixture(scope="session")
def instances():
    return {N: FactoringInstance(N=N, a=a, m=m) for N, (a, m) in CASES.items()}


@pytest.fixture(scope="session")
def orbits(instances):
    return {N: build_orbit(inst) for N, inst in instances.items()}


@pytest.fixture(scope="session")
def circuit_sets(orbits):
    """Untruncated circuits for p = 2^0 .. 2^(m-1), per modulus."""
    return {N: synth_all_powers(orbits[N], CASES[N][1]) for N in CASES}


@pytest.fixture
def synth_calls(monkeypatch):
    """The power p of every synth_me_operator call made while the test runs."""
    calls = []
    original = truncshor.synth.synth_me_operator

    def counting(orbit, p):
        calls.append(p)
        return original(orbit, p)

    monkeypatch.setattr(truncshor.synth, "synth_me_operator", counting)
    return calls


def run_fresh(probe: str) -> str:
    """Standard output of ``probe`` run in a fresh interpreter that imports this checkout's truncshor."""
    src = str(Path(truncshor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return out.stdout.strip()
