"""Byte contracts pinned as SHA-256 digests of the outputs of the unchanged code.

Circuit JSON is the serialized form the ``synth`` command writes; the study
CSV/JSON pair is what ``study`` writes; the histogram CSV is what ``run`` writes. Any change to synthesis, truncation,
sampling or the row schema shows up here as a digest mismatch.
"""

import hashlib

import pytest

from truncshor import (
    FactoringInstance,
    build_orbit,
    exact_distribution,
    histogram_csv,
    resolution_study,
    sample,
    study_csv,
    study_json,
    synth_all_powers,
    to_json,
    truncation_sweep,
)

from conftest import CASES

# sha256 of the "\n"-joined to_json(c, indent=2) over synth_all_powers(orbit, m, t),
# keyed by (N, t) for t in {0, r // 2, r - 1}.
CIRCUIT_DIGESTS = {
    (21, 0): "661a2d0610682e1ee079fa83b013433b96e92c9a5ad1e7728b9abcca6fa38cbf",
    (21, 3): "9889bb41bfff610dd1e8c445a7611ce1ba887aaaa82225a7c721704a91fed6cb",
    (21, 5): "b12ebf2ae07de6f97739aacc82be9719e4b12377fb386af9a74d32c72cecf2a3",
    (33, 0): "48d22de03637bf213ed4b294750ff00ced6873bda699aac450898a659046d0ec",
    (33, 5): "c58fcc2d436792bd7c287dd29c113fdcd05e994f70b577e739da32349d7296c2",
    (33, 9): "21d96cc23e715377c0ba6006a24bdd4ec1cfeeea17ed94a6d2eebabe822c107f",
    (35, 0): "b4f0d635cc6e9ed6a7f24d7c4863214e87422d00eac2cd414966e6b3df37d0de",
    (35, 3): "82f330d6354400f243a1f2f57216f85bafeaef5f1db21559c496f3b47aafaa72",
    (35, 5): "86a8d791e634b55e0a30cc78a19d91dd271b5a52cd2b8b7ec1d5dab3cf4fddca",
    (143, 0): "99d7b7308a74ab016721fc69203148987be9eed9c820ae856b5bd017b69681c7",
    (143, 10): "7859860a069adac548117f8a90251dbdf37af0ce84301c2cca6e97d28c36e1d5",
    (143, 19): "a813e0234c3932fe334fbf9e80a17b5fa8bf9bfa821d3cb4831462d83fa3f2f4",
    (247, 0): "58693703ec075281892961f9aed4ca26ccf89208362ce5970075c422063fc21c",
    (247, 18): "07e2e06b66b575af5b924ad853c047ebf3363804fdcd91b5e0cfeeffabc191fe",
    (247, 35): "2e558b6d84f805c32fce7e1781bc93f1163930f48602a3b678bcf4570aca1c4a",
}

# (csv, json) digests of the study outputs.
STUDY_143_DIGESTS = (
    "486925707e31ecb7758811907feddecde1292d3349fadea71996f0b6cc585613",
    "8ed5de415f19b07709549bad6102b3869c55cff2e05d969798069b4d9a8b8067",
)
SWEEP_21_DIGESTS = (
    "8697a7df3b136ef9e3423418e67b932fd6028566bf4553b91a60926b53f3c2e2",
    "bb4c4fe105bb152bbc99842adaa658513cdfc948bb1722eb064ec09b58b075f2",
)

# histogram_csv for N=143, a=5, m=12, trnc_lv=10 with 4096 shots at seed 1905.
HISTOGRAM_143_DIGEST = "5637929643b9214fff2bd368e28473de268986dc8c8e637bd0aa9594cf171973"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("N, t", sorted(CIRCUIT_DIGESTS))
def test_circuit_json_bytes(orbits, N, t):
    circuits = synth_all_powers(orbits[N], CASES[N][1], t)
    text = "\n".join(to_json(c, indent=2) for c in circuits)
    assert sha256(text) == CIRCUIT_DIGESTS[(N, t)]


def test_resolution_study_bytes():
    cells = resolution_study(
        FactoringInstance(N=143, a=5, m=10), [8, 10], [0, 10, 19], num_it=20, base_seed=1905
    )
    results = [cells[(m, t)].result for m in (8, 10) for t in (0, 10, 19)]
    assert (sha256(study_csv(results)), sha256(study_json(results))) == STUDY_143_DIGESTS


def test_truncation_sweep_bytes():
    results = truncation_sweep(
        FactoringInstance(N=21, a=2, m=5), range(6), num_it=20, base_seed=1905
    )
    assert (sha256(study_csv(results)), sha256(study_json(results))) == SWEEP_21_DIGESTS


def test_histogram_csv_bytes():
    inst = FactoringInstance(N=143, a=5, m=12)
    dist = exact_distribution(inst, synth_all_powers(build_orbit(inst), 12, 10))
    text = histogram_csv(inst, dist, sample(dist, 4096, 1905))
    assert sha256(text) == HISTOGRAM_143_DIGEST
