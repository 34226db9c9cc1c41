"""Workload commands, the reference-seed pool and the layer map.

A workload is a list of CLI invocations that together form one pass;
why each was chosen is recorded in BENCHMARK.json. ``{seed}`` in an
invocation is replaced by the workload seed. Each invocation runs in its
own empty output directory, and every file it leaves there is compared
byte for byte against ``refs.json``.
"""

from __future__ import annotations

# The driver seed picks a workload seed from this pool, so every run is
# checked against references made at the commit that defined the
# benchmark. Index 0 is the default workload seed (the paper's ensemble
# seed).
SEED_POOL = tuple(1905 + i for i in range(16))

WORKLOADS = {
    "study": [
        "study --N 143 --a 5 --m 8,10 --trnc 0:19 --num-it 150 --seed {seed} --out study.csv",
    ],
    "wide": [
        "study --N 247 --a 2 --m 17 --trnc 10:12 --num-it 150 --seed {seed} --out study.csv",
    ],
    "histogram": [
        "run --N 143 --a 5 --m 16 --trnc-lv 10 --shots 4096 --seed {seed} --out hist.csv",
    ],
    "synth": [
        "synth --N 4087 --a 3 --powers 1:2048 --format json --out circuits",
        "synth --N 1001 --a 2 --powers 1:2048 --format qasm3 --out circuits",
    ],
}

# Which end-to-end metric each layer metric should move, and on which
# workloads; "steady" lists workloads where it should not move.
LAYER_MAP = [
    {
        "metrics": [
            "synth.synth_me_operator.calls", "synth.synth_me_operator.self_s",
            "synth.minimize_controls.calls", "synth.minimize_controls.self_s",
            "synth.gates", "synth.share_ratio",
        ],
        "moves": "wall_s", "on": ["study", "synth"], "steady": ["histogram"],
    },
    {
        "metrics": [
            "circuit.apply_to_basis_array.calls", "circuit.apply_to_basis_array.self_s",
            "shor.work_images.self_s",
        ],
        "moves": "wall_s", "on": ["wide"], "steady": ["study"],
    },
    {
        "metrics": [
            "shor.exact_distribution.self_s", "shor.distinct_images", "shor.fft_bytes_computed",
        ],
        "moves": "wall_s, peak_rss_mb", "on": ["wide"], "steady": [],
    },
    {
        "metrics": [
            "modmath.analyze_measurement.calls", "modmath.analyze_measurement.self_s",
            "shor.histogram_csv.self_s", "modmath.build_orbit.calls",
        ],
        "moves": "wall_s", "on": ["histogram"], "steady": ["synth"],
    },
    {
        "metrics": [
            "experiments.tries_until_factor.calls", "experiments.tries_until_factor.self_s",
            "experiments.draws", "experiments.success_ratio", "experiments.peak_presence.self_s",
        ],
        "moves": "wall_s", "on": ["study", "wide"], "steady": [],
    },
    {
        "metrics": [
            "circuit.to_json.self_s", "qasm.to_qasm3.self_s",
            "circuit.permutation_table.self_s", "cli.self_s",
        ],
        "moves": "wall_s", "on": ["synth"], "steady": [],
    },
]


def workload_seed(driver_seed: int) -> int:
    return SEED_POOL[driver_seed % len(SEED_POOL)]


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv of each CLI invocation in one pass of the workload."""
    return [cmd.format(seed=seed).split() for cmd in WORKLOADS[workload]]
