import csv
import errno
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import truncshor
from truncshor import FactoringInstance, PhaseDistribution, build_orbit, cli, histogram_csv
from truncshor.cli import _parse_powers, _parse_range, main

from conftest import run_fresh
from qasm_grammar import validate_qasm3


def test_parse_range():
    assert _parse_range("0:5") == range(0, 6)
    assert _parse_range("7") == range(7, 8)
    with pytest.raises(ValueError):
        _parse_range("5:2")


@pytest.mark.parametrize("argv, code, err", [
    (["study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:3000000", "--seed", "1",
      "--out", "s.csv"], 2, "error: trnc_lv=6 outside [0, 6)\n"),
    (["synth", "--N", "21", "--a", "2", "--powers", "1:3000000", "--out", "circuits"], 0, ""),
])
def test_wide_ranges_take_no_memory_per_value(capsys, monkeypatch, tmp_path, argv, code, err):
    # a list of the three million values alone would take about 100 MB
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert main(["--quiet", *argv]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == err
    assert peak < 8 << 20


def test_parse_powers():
    assert _parse_powers("1:16") == [1, 2, 4, 8, 16]
    assert _parse_powers("4:512") == [4, 8, 16, 32, 64, 128, 256, 512]
    assert _parse_powers("8") == [8]
    with pytest.raises(ValueError):
        _parse_powers("3")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--N", "21", "--a", "2")
    assert code == 0
    assert "r = 6" in out
    assert "[1, 2, 4, 8, 16, 11, 1]" in out


def test_orbit_non_coprime_reports_factor(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--N", "21", "--a", "7")
    assert code == 0
    assert "7 x 3" in out


def test_orbit_quiet_json(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "orbit", "--N", "33", "--a", "7")
    assert code == 0
    record = json.loads(out.strip())
    assert record["event"] == "orbit"
    assert record["r"] == 10


def test_quiet_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--N", "33", "--a", "7", "--quiet")
    assert code == 0
    assert json.loads(out.strip())["r"] == 10


def test_synth_writes_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "synth", "--N", "21", "--a", "2", "--powers", "1:16",
        "--trnc-lv", "0", "--out", str(tmp_path),
    )
    assert code == 0
    circuit_files = sorted(tmp_path.glob("me_*_p*_trnc0.json"))
    cert_files = sorted(tmp_path.glob("*_cert.json"))
    assert len(circuit_files) == 5
    assert len(cert_files) == 5
    # duplicate powers share gate content: U^2 file equals U^8 file except power
    d2 = json.loads((tmp_path / "me_N21_a2_p2_trnc0.json").read_text())
    d8 = json.loads((tmp_path / "me_N21_a2_p8_trnc0.json").read_text())
    assert d2["levels"] == d8["levels"]
    assert d2["power"] == 2
    assert d8["power"] == 8
    cert = json.loads((tmp_path / "me_N21_a2_p1_trnc0_cert.json").read_text())
    assert cert["domain"] == [1, 2, 4, 8, 16, 11]
    assert cert["image"] == [2, 4, 8, 16, 11, 1]


@pytest.mark.parametrize("spec, synthesized", [("1:16", 3), ("2048", 1)])
def test_synth_shares_congruent_powers(tmp_path, capsys, synth_calls, spec, synthesized):
    # N=21 has r = 6: 1, 2, 4 are distinct mod 6 and 8, 16 repeat 2, 4
    code, _, _ = run_cli(
        capsys, "synth", "--N", "21", "--a", "2", "--powers", spec, "--out", str(tmp_path)
    )
    assert code == 0
    assert len(synth_calls) == synthesized


def test_synth_certificates_encode_orbit_action(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "--quiet", "synth", "--N", "247", "--a", "2", "--powers", "4",
        "--out", str(tmp_path),
    )
    assert code == 0
    cert = json.loads((tmp_path / "me_N247_a2_p4_trnc0_cert.json").read_text())
    states = cert["domain"]
    index = {s: i for i, s in enumerate(states)}
    assert states[0] == 1 and len(states) == 36
    for s, image in zip(states, cert["image"]):
        assert image == states[(index[s] + 4) % 36]


def test_synth_qasm_format(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "synth", "--N", "21", "--a", "2", "--powers", "1",
        "--format", "qasm3", "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "me_N21_a2_p1_trnc0.qasm").read_text()
    validate_qasm3(text)


def test_synth_truncated_single_level(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "synth", "--N", "21", "--a", "2", "--powers", "1",
        "--trnc-lv", "5", "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads((tmp_path / "me_N21_a2_p1_trnc5.json").read_text())
    populated = [level for level in data["levels"] if level]
    assert len(populated) == 1
    assert data["trnc_lv"] == 5
    assert data["version"] == "truncated"


@pytest.mark.parametrize("trnc_lv", ["-1", "6"])
def test_synth_bad_level_creates_no_directory(tmp_path, capsys, trnc_lv):
    out_dir = tmp_path / "circuits"
    code, _, err = run_cli(
        capsys, "synth", "--N", "21", "--a", "2", "--powers", "1",
        "--trnc-lv", trnc_lv, "--out", str(out_dir),
    )
    assert code == 2
    assert err.startswith("error: ") and f"trnc_lv={trnc_lv}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--N", "19", "--a", "2", "--powers", "1"],
    ["factor", "--N", "25", "--a", "2", "--m", "5", "--seed", "1"],
])
def test_synthesis_collision_is_validation_error(tmp_path, capsys, argv):
    # no bit-flip path around the sealed outputs: N=19 at p=1, N=25 at p=4
    out_dir = tmp_path / "circuits"
    extra = ["--out", str(out_dir)] if argv[0] == "synth" else []
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2
    assert err.startswith("error: no path") and "Traceback" not in err
    assert out == ""
    assert not out_dir.exists()


def test_run_command_stdout(capsys):
    code, out, _ = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    producers = [r["ell"] for r in rows if r["produces_factors"] == "1"]
    assert producers == ["5", "27"]


def test_run_command_with_shots(tmp_path, capsys):
    out_file = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys,
        "run", "--N", "21", "--a", "2", "--m", "5",
        "--shots", "4096", "--seed", "11", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert sum(int(r["counts"]) for r in rows) == 4096


def test_run_takes_shots_up_to_the_int64_cap(capsys):
    code, out, _ = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5",
                           "--shots", str((1 << 63) - 1), "--seed", "1")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 32
    assert sum(int(r["counts"]) for r in rows) == (1 << 63) - 1


def _histogram_inputs(m, rows, with_counts):
    """A distribution (and counts) over m bits whose histogram has exactly ``rows`` rows.

    Outcomes outside the rows have probability 0, 2e-16 or exactly 1e-15. With
    counts, every third row is kept for its count alone, at such a probability.
    """
    rng = np.random.default_rng(rows)
    M = 1 << m
    kept = np.sort(rng.choice(M, rows, replace=False))
    p = rng.choice([0.0, 2e-16, 1e-15], M)
    probable = kept
    counts = None
    if with_counts:
        counts = np.zeros(M, dtype=np.int64)
        counts[kept[::3]] = rng.integers(1, 1000, len(kept[::3]))
        counts[kept[1::3]] = rng.integers(0, 2, len(kept[1::3]))
        probable = np.setdiff1d(kept, kept[::3])
    p[probable] = rng.random(len(probable)) + 1e-9
    return PhaseDistribution(m=m, probabilities=p), counts


@pytest.mark.parametrize("with_counts", [False, True], ids=["no counts", "counts"])
@pytest.mark.parametrize("rows", [4095, 4096, 4097, 8193])
def test_run_streams_the_bytes_of_histogram_csv(tmp_path, capsys, monkeypatch, rows, with_counts):
    # 4096-row chunks: one short of a chunk, one chunk, one past it, two chunks and one row
    dist, counts = _histogram_inputs(14, rows, with_counts)
    monkeypatch.setattr(cli, "exact_distribution", lambda instance, images: dist)
    monkeypatch.setattr(cli, "sample", lambda dist, shots, seed: counts)
    expected = histogram_csv(build_orbit(FactoringInstance(N=143, a=5, m=14)), dist, counts)
    assert expected.count("\n") == 1 + rows
    argv = ["run", "--N", "143", "--a", "5", "--m", "14"]
    if with_counts:
        argv += ["--shots", "4096", "--seed", "1"]
    out_file = tmp_path / "hist.csv"
    code, out, err = run_cli(capsys, "--quiet", *argv, "--out", str(out_file))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"event": "run", "out": str(out_file), "rows": rows}
    assert out_file.read_bytes() == expected.encode()
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_run_counts_shape_error_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample", lambda dist, shots, seed: np.ones(31, dtype=np.int64))
    argv = ["run", "--N", "21", "--a", "2", "--m", "5", "--shots", "10", "--seed", "1"]
    message = "error: counts of shape (31,), need (32,) for m=5\n"
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "hist.csv")) == (2, "", message)
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv) == (2, "", message)


def test_run_failing_after_its_first_chunk_leaves_the_target_alone(tmp_path, capsys, monkeypatch):
    target = tmp_path / "hist.csv"
    target.write_text("old\n")

    def failing_chunks(instance, dist, counts):
        yield "ell,phase_binary,phase_decimal,probability,counts,produces_factors\n"
        raise ValueError("no second chunk")

    monkeypatch.setattr(cli, "histogram_chunks", failing_chunks)
    code, _, err = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--out", str(target))
    assert (code, err) == (2, "error: no second chunk\n")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"

    def interrupted_chunks():
        yield "new\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cli._write_atomic(target, interrupted_chunks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


def test_run_writes_its_csv_within_about_one_chunk(tmp_path, capsys, monkeypatch):
    # The m = 16 histogram is 65,536 rows, 4.5 MB of text, which the CLI used to hold
    # twice (its chunks and their join). Streamed, what it allocates beyond the
    # distribution and counts is one chunk (290 kB of text, about 1 MB of Python
    # values), the kept outcomes (0.5 MiB) and one Euclid block of factor_mask.
    sample = cli.sample
    held = []

    def sample_then_reset_peak(dist, shots, seed):
        counts = sample(dist, shots, seed)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return counts

    monkeypatch.setattr(cli, "sample", sample_then_reset_peak)
    out_file = tmp_path / "hist.csv"
    tracemalloc.start()
    try:
        code = main(["--quiet", "run", "--N", "143", "--a", "5", "--m", "16", "--trnc-lv", "10",
                     "--shots", "4096", "--seed", "1905", "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 1 << 16
    assert out_file.stat().st_size > 4 << 20
    assert peak - held[0] < 3 << 20


def test_run_requires_seed_for_shots(capsys):
    code, _, err = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--shots", "10")
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("extra, message", [
    (["--shots", "10"], "error: --seed is required when --shots > 0\n"),
    (["--shots", "-5"], "error: --shots must be >= 0, got -5\n"),
    (["--shots", "-5", "--seed", "1"], "error: --shots must be >= 0, got -5\n"),
    (["--shots", "10", "--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
    (["--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
    (["--shots", str(1 << 63), "--seed", "1"], f"error: --shots must be < 2^63, got {1 << 63}\n"),
])
def test_run_checks_shots_before_any_synthesis(capsys, monkeypatch, extra, message):
    calls = []
    monkeypatch.setattr(cli, "synth_all_powers", lambda *a: calls.append(a))
    code, out, err = run_cli(capsys, "run", "--N", "247", "--a", "2", "--m", "17", *extra)
    assert (code, out, err) == (2, "", message)
    assert calls == []


@pytest.mark.parametrize("command, extra, message", [
    ("factor", ["--max-tries", "0", "--seed", "1"], "error: --max-tries must be >= 1, got 0\n"),
    ("study", ["--max-tries", "0", "--trnc", "10:12", "--seed", "1", "--out", "s.csv"],
     "error: --max-tries must be >= 1, got 0\n"),
    ("study", ["--num-it", "0", "--trnc", "10:12", "--seed", "1", "--out", "s.csv"],
     "error: --num-it must be >= 1, got 0\n"),
    ("factor", ["--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
])
def test_max_tries_is_checked_before_any_synthesis(
    capsys, monkeypatch, tmp_path, command, extra, message
):
    calls = []
    for module in (cli, truncshor.experiments):
        monkeypatch.setattr(module, "synth_all_powers", lambda *a: calls.append(a))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--N", "247", "--a", "2", "--m", "17", *extra]
    assert run_cli(capsys, *argv) == (2, "", message)
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_factor_command(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--N", "21", "--a", "2", "--m", "5", "--seed", "1"
    )
    assert code == 0
    assert "21 = " in out and "7" in out and "3" in out


@pytest.mark.parametrize("seed, out", [
    (2**64, "143 = 11 x 13 (l = 359, tries = 2)\n"),  # 3 uint32 words
    (2**128 + 1, "143 = 11 x 13 (l = 461, tries = 1)\n"),  # 5 words: past SeedSequence's pool
], ids=["2**64", "2**128+1"])
def test_factor_seeds_past_64_bits(capsys, seed, out):
    assert run_cli(capsys, "factor", "--N", "143", "--a", "5", "--m", "10", "--seed", str(seed)) == (0, out, "")


def test_factor_non_coprime(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--N", "21", "--a", "7", "--m", "5", "--seed", "1"
    )
    assert code == 0
    assert "7 x 3" in out


def test_factor_no_factors_exit_code(capsys):
    # deep truncation with a tiny retry cap: no factors, distinct exit code
    code, out, _ = run_cli(
        capsys,
        "--quiet", "factor", "--N", "21", "--a", "2", "--m", "5",
        "--trnc-lv", "5", "--seed", "4", "--max-tries", "3",
    )
    assert code == 3
    record = json.loads(out.strip())
    assert record["factors"] is None


def test_factor_deep_truncation_n247(capsys):
    code, out, _ = run_cli(
        capsys,
        "--quiet", "factor", "--N", "247", "--a", "2", "--m", "10",
        "--trnc-lv", "25", "--seed", "5",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert sorted(record["factors"]) == [13, 19]


def test_study_command(tmp_path, capsys):
    out_file = tmp_path / "study.csv"
    code, out, _ = run_cli(
        capsys,
        "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:2",
        "--num-it", "5", "--seed", "42", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert len(rows) == 3
    assert [r["trnc_lv"] for r in rows] == ["0", "1", "2"]
    mirror = json.loads(out_file.with_suffix(".json").read_text())
    assert len(mirror["rows"]) == 3
    assert len(mirror["rows"][0]["tries"]) == 5


def test_study_multi_m(tmp_path, capsys):
    out_file = tmp_path / "study.csv"
    code, out, _ = run_cli(
        capsys,
        "--quiet", "study", "--N", "21", "--a", "2", "--m", "4,5", "--trnc", "0:1",
        "--num-it", "3", "--seed", "2", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert [(r["m"], r["trnc_lv"]) for r in rows] == [
        ("4", "0"), ("4", "1"), ("5", "0"), ("5", "1"),
    ]
    for line in out.strip().splitlines():
        json.loads(line)


def test_study_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(
            capsys,
            "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:1",
            "--num-it", "4", "--seed", "8", "--out", str(f),
        )
        assert code == 0
    assert f1.read_text() == f2.read_text()


@pytest.mark.parametrize("num_it", ["0", "-1"])
def test_study_rejects_nonpositive_num_it(tmp_path, capsys, num_it):
    out_file = tmp_path / "study.csv"
    code, _, err = run_cli(
        capsys,
        "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:1",
        "--num-it", num_it, "--seed", "1", "--out", str(out_file),
    )
    assert code == 2
    assert err == f"error: --num-it must be >= 1, got {num_it}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("num_it, code", [(3, 0), (4, 2)])
def test_study_checks_iterations_against_the_budget_first(tmp_path, capsys, monkeypatch, num_it, code):
    # 2 widths x 2 levels: a budget of 3 iterations' estimated bytes
    per_it = cli._STUDY_BYTES_PER_IT + 4 * cli._STUDY_BYTES_PER_CELL_IT
    monkeypatch.setattr(cli, "STUDY_BUDGET", 3 * per_it)
    if code:
        def no_orbit(instance):
            raise AssertionError("orbit built")

        for module in (truncshor.modmath, truncshor.experiments, cli):
            monkeypatch.setattr(module, "build_orbit", no_orbit)
    out_file = tmp_path / "study.csv"
    result = run_cli(
        capsys,
        "study", "--N", "21", "--a", "2", "--m", "4,5", "--trnc", "0:1",
        "--num-it", str(num_it), "--seed", "1", "--out", str(out_file),
    )
    err = f"error: --num-it 4 needs {4 * per_it:,} bytes; the study budget is {3 * per_it:,}\n"
    assert (result[0], result[2]) == ((2, err) if code else (0, ""))
    assert out_file.exists() == (code == 0)


def test_study_rejects_out_of_range_level(tmp_path, capsys):
    out_file = tmp_path / "study.csv"
    code, _, err = run_cli(
        capsys,
        "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:6",
        "--num-it", "2", "--seed", "1", "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("error: ") and "trnc_lv=6" in err
    assert not out_file.exists()


def test_atomic_write_ignores_stale_temp_name(tmp_path, capsys):
    # a leftover "<out>.tmp" directory must not block the write
    out_file = tmp_path / "hist.csv"
    blocker = tmp_path / "hist.csv.tmp"
    blocker.mkdir()
    code, _, _ = run_cli(
        capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--out", str(out_file)
    )
    assert code == 0
    _, expected, _ = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5")
    assert out_file.read_text() == expected
    assert sorted(tmp_path.glob("*.tmp")) == [blocker]
    reference = tmp_path / "reference.csv"
    reference.write_text(expected)
    assert stat.S_IMODE(out_file.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_atomic_write_failure_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run_cli(
        capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--out", str(target)
    )
    assert code == 2 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [target]


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(capsys, "orbit", "--N", "14", "--a", "3")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(
        capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--trnc-lv", "6"
    )
    assert code == 2


def test_missing_seed_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--N", "21", "--a", "2", "--m", "5"])
    assert exc.value.code == 2


def test_cli_import_loads_no_thread_pool():
    """The exact distribution imports concurrent.futures only when it starts a pool."""
    probe = "import sys, truncshor.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    assert run_fresh(probe) == "[]"


def test_cli_import_loads_no_numpy_random():
    """numpy.random is imported only by ``shor.sample``, for ``run --shots``: loaded at
    start-up it would add to every command's set-up time and peak RSS."""
    probe = "import sys, truncshor.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    assert run_fresh(probe) == "[]"


def test_tries_load_no_numpy_random_and_only_shots_do(tmp_path):
    """``factor`` and ``study`` draw their tries without numpy.random; ``run --shots`` loads it,
    so ``sample`` is its one user."""
    commands = [
        ["factor", "--N", "21", "--a", "2", "--m", "5", "--seed", "1"],
        ["study", "--N", "21", "--a", "2", "--m", "4,5", "--trnc", "0:2", "--num-it", "3",
         "--seed", "1", "--out", str(tmp_path / "study.csv")],
        None,  # report what is loaded
        ["run", "--N", "21", "--a", "2", "--m", "5", "--shots", "10", "--seed", "1",
         "--out", str(tmp_path / "h.csv")],
        None,
    ]
    probe = (
        "import sys, truncshor.cli as cli\n"
        f"for argv in {commands!r}:\n"
        "    if argv: assert cli.main(['--quiet', *argv]) == 0\n"
        "    else: print('loaded', sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    loaded = [line for line in run_fresh(probe).splitlines() if line.startswith("loaded ")]
    assert loaded[0] == "loaded []"
    assert "'numpy.random'" in loaded[1]


@pytest.mark.parametrize("where", ["missing directory", "directory in the way"])
def test_write_error_names_the_requested_path(tmp_path, capsys, where):
    out_file = tmp_path / "missing" / "h.csv" if where == "missing directory" else tmp_path / "h.csv"
    if where == "directory in the way":
        out_file.mkdir()
    code, _, err = run_cli(capsys, "run", "--N", "21", "--a", "2", "--m", "5", "--out", str(out_file))
    assert code == 2 and err.startswith("error: ")
    assert repr(str(out_file)) in err and ".tmp" not in err


def _no_work(*args, **kwargs):
    raise AssertionError("the pipeline ran before the output directory was checked")


@pytest.mark.parametrize("argv", [
    ["run", "--N", "247", "--a", "2", "--m", "17", "--trnc-lv", "10"],
    ["study", "--N", "143", "--a", "5", "--m", "8,10", "--trnc", "0:19", "--num-it", "3000", "--seed", "1"],
], ids=["run", "study"])
@pytest.mark.parametrize("where, code", [("missing", errno.ENOENT), ("file", errno.ENOTDIR)],
                         ids=["missing directory", "file in the way"])
def test_output_directory_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, where, code):
    for stage in ("build_orbit", "resolution_study"):
        monkeypatch.setattr(cli, stage, _no_work)
    (tmp_path / "file").touch()
    out_file = tmp_path / where / "d" / "out.csv"
    assert run_cli(capsys, *argv, "--out", str(out_file)) == (
        2, "", f"error: [Errno {code}] {os.strerror(code)}: {str(out_file)!r}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("argv, directory", [
    (["run", "--N", "247", "--a", "2", "--m", "17", "--trnc-lv", "10"], "s.csv"),
    (["study", "--N", "143", "--a", "5", "--m", "8,10", "--trnc", "0:19", "--seed", "1"], "s.csv"),
    (["study", "--N", "143", "--a", "5", "--m", "8,10", "--trnc", "0:19", "--seed", "1"], "s.json"),
], ids=["run", "study csv", "study json mirror"])
def test_a_directory_at_an_output_path_is_found_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                                 directory):
    for stage in ("build_orbit", "resolution_study"):
        monkeypatch.setattr(cli, stage, _no_work)
    (tmp_path / directory).mkdir()
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "s.csv")) == (
        2, "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path / directory)!r}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == [directory]
    assert list((tmp_path / directory).iterdir()) == []


def test_synth_makes_its_directory_before_it_synthesizes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "synth_powers", _no_work)
    (tmp_path / "file").touch()
    out_dir = tmp_path / "file" / "circuits"
    assert run_cli(capsys, "synth", "--N", "21", "--a", "2", "--powers", "1", "--out", str(out_dir)) == (
        2, "", f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {str(out_dir)!r}\n"
    )


def test_synthesis_collision_removes_only_the_directories_it_made(tmp_path, capsys):
    kept = tmp_path / "kept"
    kept.mkdir()
    code, out, err = run_cli(
        capsys, "synth", "--N", "19", "--a", "2", "--powers", "1", "--out", str(kept / "a" / "b")
    )
    assert (code, out) == (2, "") and err.startswith("error: no path")
    assert list(tmp_path.iterdir()) == [kept] and list(kept.iterdir()) == []


@pytest.mark.parametrize("spec, message", [
    ("3:3", "error: no powers of two in range '3:3'\n"),
    ("3", "error: power must be a positive power of two, got 3\n"),
], ids=["range", "single"])
def test_synth_powers_errors_name_what_was_given(tmp_path, capsys, spec, message):
    out_dir = tmp_path / "circuits"
    code, out, err = run_cli(
        capsys, "synth", "--N", "21", "--a", "2", "--powers", spec, "--out", str(out_dir)
    )
    assert (code, out, err) == (2, "", message)
    assert not out_dir.exists()


def test_synth_single_power_range(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--quiet", "synth", "--N", "21", "--a", "2", "--powers", "4:4", "--out", str(tmp_path)
    )
    assert code == 0
    assert [json.loads(line)["power"] for line in out.splitlines()] == [4]


CLI_STDOUT = json.loads((Path(__file__).parent / "cli_stdout.json").read_text())


@pytest.mark.parametrize("argv, stdout", [(c["argv"], c["stdout"]) for c in CLI_STDOUT],
                         ids=[" ".join(c["argv"]) for c in CLI_STDOUT])
def test_stdout_bytes_are_frozen(tmp_path, monkeypatch, capsys, argv, stdout):
    # recorded from the CLI before its orbit and run output went through _emit
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, stdout, "")
