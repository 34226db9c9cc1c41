"""Byte contracts pinned as SHA-256 digests of the outputs of the unchanged code.

Circuit JSON and QASM are the serialized forms the ``synth`` command writes;
the study CSV/JSON pair is what ``study`` writes; the histogram CSVs are what
``run`` writes, one of them at n = 24; the n = 27 files are what ``synth``
writes; the JSON lines of ``--quiet factor`` pin the tries stream
(``tries`` and ``l_measured``) and the exit codes. Any change to synthesis, truncation, sampling or the row
schema shows up here as a digest mismatch. The n = 10-12 moduli (N = 1001,
N = 4087, N = 3127) reach control patterns the five small moduli do not.
"""

import contextlib
import hashlib
import io

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
    synth_powers,
    to_json,
    to_qasm3,
    truncate,
    truncation_sweep,
    work_images,
)
from truncshor.cli import main

from conftest import CASES

# sha256 of the "\n"-joined to_json(c, indent=2) over truncate(synth_all_powers(orbit, m), t),
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

# sha256 of to_json(c, indent=2) for N=4087, a=3 (n=12, r=110), keyed by power.
CIRCUIT_4087_DIGESTS = {
    1: "a57f6747ac66fe84af7a242c6051eeca288cbe039a602254bcbf381e0238125f",
    64: "7ef98ce097f2cdeea008db0ee9f498c32a1983c3cac869ff0fdd73586e56b0b6",
    2048: "2295d3e2de96704406bc0b180162377d66dbfd3b405039f6bf1254e60b4aea36",
}

# sha256 of to_json(c, indent=2) for N=3127, a=2, p=1 (n=12, r=1508): 810 of its levels
# take the blocked-path search, which the r <= 110 digests above barely reach.
CIRCUIT_3127_DIGEST = "ee7d10ecec8439f668cf0692dc006fd5545d520f5ffc9a19a17e55680847b278"

# sha256 of the concatenated to_qasm3 text for N=1001, a=2 (n=10, r=60), p = 2^0 .. 2^11.
QASM_1001_DIGEST = "182164c5c1b760804aad069ae6c801d3d6b815d21c20786616b7c82e16ec9853"

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

# The CSV of `run --N 16777215 --a 2 --m 16` (n = 24, r = 24), as written by the
# code that still read a 2^24-entry table per circuit.
RUN_N24_DIGEST = "be9d72df559e51771454e8101a2c50d23aee3508f04bc1f2fadf64c2600a6677"

# The circuit JSON and certificate `synth --N 134217729 --a 2 --powers 2` writes
# (n = 27, r = 54, two blocked levels), as written by the code that grew 2^27-bit
# distance layers for them.
SYNTH_N27_DIGESTS = (
    "a3f225ae1e3848cdbd4843cc26113aeb56fee29f8ebeb92716a8efc66bf20398",
    "1bc71a9f715ff944318baef7b529a9c7a5dcff2d7fb19d3ba27979a80bd056e3",
)

# sha256 of "<exit code> <stdout>" of `--quiet factor <config> --seed s`, joined over
# seeds 1..8 (1..2 for the m = 17 configuration). The max-tries configurations
# mix exit 0 with capped runs that exit 3.
FACTOR_DIGESTS = {
    "--N 21 --a 2 --m 5": "b4c6a8b41bfd5adf40f75312565cdfec620f5aff372a3e2799cde80b8e90d204",
    "--N 33 --a 7 --m 6 --trnc-lv 5": "9939796d80884153633c36e89a885f23081f6f23977b6a8123e72970e3249738",
    "--N 35 --a 4 --m 6 --trnc-lv 3": "a8dd91b833dfeba25d172929257a32b4f102b44667641e5592e29418f8da998d",
    "--N 143 --a 5 --m 10 --trnc-lv 11": "f60b6c27155e8ebd675c103078d3ddf53b7dd27c4329469940c35dba85f0c800",
    "--N 143 --a 5 --m 8 --trnc-lv 17 --max-tries 40": "7ee07f261ce502821b1770a61a845cd43345b0deb23f31b5fd9240226b32242e",
    "--N 247 --a 2 --m 10 --trnc-lv 30 --max-tries 60": "d65fe83b09e32183c161777ba9a201eae37765ae8127ba71730240983a7ec154",
    "--N 247 --a 2 --m 17 --trnc-lv 20": "8ee956c19776dfedc25c76a75f89c7c935366f2fcf8b2afc37736945741c9049",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("N, t", sorted(CIRCUIT_DIGESTS))
def test_circuit_json_bytes(orbits, N, t):
    circuits = truncate(synth_all_powers(orbits[N], CASES[N][1]), t)
    text = "\n".join(to_json(c, indent=2) for c in circuits)
    assert sha256(text) == CIRCUIT_DIGESTS[(N, t)]


@pytest.mark.parametrize("p", sorted(CIRCUIT_4087_DIGESTS))
def test_circuit_json_bytes_n12(p):
    (circuit,) = synth_powers(build_orbit(FactoringInstance(N=4087, a=3, m=1)), [p])
    assert sha256(to_json(circuit, indent=2)) == CIRCUIT_4087_DIGESTS[p]


def test_circuit_json_bytes_long_orbit():
    (circuit,) = synth_powers(build_orbit(FactoringInstance(N=3127, a=2, m=1)), [1])
    assert sha256(to_json(circuit, indent=2)) == CIRCUIT_3127_DIGEST


def test_qasm_bytes_n10():
    orbit = build_orbit(FactoringInstance(N=1001, a=2, m=1))
    circuits = synth_powers(orbit, [1 << q for q in range(12)])
    assert sha256("".join(to_qasm3(c) for c in circuits)) == QASM_1001_DIGEST


def test_resolution_study_bytes():
    cells = resolution_study(
        FactoringInstance(N=143, a=5, m=10), [8, 10], [0, 10, 19], num_it=20, base_seed=1905
    )
    results = [cells[(m, t)] for m in (8, 10) for t in (0, 10, 19)]
    assert (sha256(study_csv(results)), sha256(study_json(results))) == STUDY_143_DIGESTS


def test_truncation_sweep_bytes():
    results = truncation_sweep(
        FactoringInstance(N=21, a=2, m=5), range(6), num_it=20, base_seed=1905
    )
    assert (sha256(study_csv(results)), sha256(study_json(results))) == SWEEP_21_DIGESTS


def test_histogram_csv_bytes():
    inst = FactoringInstance(N=143, a=5, m=12)
    orbit = build_orbit(inst)
    circuits = truncate(synth_all_powers(orbit, 12), 10)
    dist = exact_distribution(inst, work_images(circuits, inst.M))
    text = histogram_csv(orbit, dist, sample(dist, 4096, 1905))
    assert sha256(text) == HISTOGRAM_143_DIGEST


def test_run_csv_bytes_n24(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    assert main(["run", "--N", "16777215", "--a", "2", "--m", "16", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_N24_DIGEST
    capsys.readouterr()


def test_synth_file_bytes_n27(tmp_path, capsys):
    assert main(["synth", "--N", "134217729", "--a", "2", "--powers", "2",
                 "--out", str(tmp_path)]) == 0
    names = ("me_N134217729_a2_p2_trnc0.json", "me_N134217729_a2_p2_trnc0_cert.json")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in names) == SYNTH_N27_DIGESTS
    capsys.readouterr()


@pytest.mark.parametrize("config", sorted(FACTOR_DIGESTS))
def test_factor_quiet_lines(config):
    text = ""
    for seed in range(1, 3 if "--m 17" in config else 9):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--quiet", "factor", *config.split(), "--seed", str(seed)])
        text += f"{code} {out.getvalue()}"
    assert sha256(text) == FACTOR_DIGESTS[config]
