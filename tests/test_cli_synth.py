"""synth: certificates come from the shared circuits, --powers names itself when malformed, and
an out-of-range truncation level exits before any synthesis, in every command that takes one."""

import json

import pytest

import truncshor.circuit
import truncshor.cli
import truncshor.experiments
from truncshor import FactoringInstance, build_orbit
from truncshor.cli import main


def test_synth_certificates_build_one_table_per_distinct_circuit(tmp_path, capsys, monkeypatch):
    builds = []
    apply_gates = truncshor.circuit.apply_gates

    def counting(gates, values):
        builds.append(len(values))
        return apply_gates(gates, values)

    monkeypatch.setattr(truncshor.circuit, "apply_gates", counting)
    code = main(["synth", "--N", "21", "--a", "2", "--powers", "1:16", "--out", str(tmp_path)])
    assert code == 0
    # r = 6: U^2 and U^8, U^4 and U^16 share a circuit, so 3 circuits for 5 powers
    assert builds == [6] * 3
    states = build_orbit(FactoringInstance(N=21, a=2, m=1)).states
    for p in (1, 2, 4, 8, 16):
        cert = {"domain": list(states), "image": [states[(i + p) % 6] for i in range(6)]}
        text = (tmp_path / f"me_N21_a2_p{p}_trnc0_cert.json").read_text()
        assert text == json.dumps(cert, indent=2) + "\n"
    capsys.readouterr()


def _no_synthesis(*args):
    raise AssertionError("synthesis ran before the truncation level was checked")


def test_synth_rejects_out_of_range_truncation_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(truncshor.cli, "synth_powers", _no_synthesis)
    out_dir = tmp_path / "circuits"
    argv = ["synth", "--N", "21", "--a", "2", "--powers", "1:16", "--out", str(out_dir)]
    for t in ("6", "-1"):
        assert main([*argv, "--trnc-lv", t]) == 2
        assert capsys.readouterr().err == f"error: trnc_lv={t} outside [0, 6)\n"
        assert not out_dir.exists()
    argv = ["synth", "--N", "4087", "--a", "3", "--powers", "1:2048", "--out", str(out_dir)]
    assert main([*argv, "--trnc-lv", "500"]) == 2
    assert capsys.readouterr().err == "error: trnc_lv=500 outside [0, 110)\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("t", ["6", "-1"])
@pytest.mark.parametrize("command, extra", [
    ("run", ["--m", "5", "--trnc-lv"]),
    ("factor", ["--m", "5", "--seed", "1", "--trnc-lv"]),
    ("study", ["--m", "5", "--seed", "1", "--out", "s.csv", "--trnc"]),
])
def test_out_of_range_truncation_exits_before_any_synthesis(
    tmp_path, capsys, monkeypatch, command, extra, t
):
    for module in (truncshor.cli, truncshor.experiments):
        monkeypatch.setattr(module, "synth_all_powers", _no_synthesis)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--N", "21", "--a", "2", *extra, t]) == 2
    assert capsys.readouterr() == ("", f"error: trnc_lv={t} outside [0, 6)\n")
    assert list(tmp_path.iterdir()) == []


def test_synth_rejects_non_integer_power(tmp_path, capsys):
    out_dir = tmp_path / "circuits"
    code = main(["synth", "--N", "21", "--a", "2", "--powers", "1:x", "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == "error: --powers takes integers, got '1:x'\n"
    assert not out_dir.exists()


def _no_orbit(*args):
    raise AssertionError("the orbit was built before the modulus width was checked")


@pytest.mark.parametrize("command, extra", [
    ("synth", ["--powers", "1", "--out", "circuits"]),
    ("run", ["--m", "3"]),
    ("factor", ["--m", "3", "--seed", "1"]),
    ("study", ["--m", "3", "--trnc", "0", "--seed", "1", "--out", "s.csv"]),
    ("orbit", []),
])
def test_a_modulus_wider_than_63_bits_exits_before_the_orbit(
    tmp_path, capsys, monkeypatch, command, extra
):
    # the bit planes and the work images are int64
    for module in (truncshor.cli, truncshor.experiments):
        monkeypatch.setattr(module, "build_orbit", _no_orbit)
    monkeypatch.chdir(tmp_path)
    N = (1 << 63) + 1
    assert main([command, "--N", str(N), "--a", "2", *extra]) == 2
    assert capsys.readouterr() == ("", f"error: --N must be < 2^63, got {N}\n")
    assert list(tmp_path.iterdir()) == []


def test_factor_reports_a_common_factor_of_a_wide_modulus_first(capsys, monkeypatch):
    monkeypatch.setattr(truncshor.cli, "build_orbit", _no_orbit)
    N = (1 << 63) + 1  # divisible by 3
    assert main(["factor", "--N", str(N), "--a", "3", "--m", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out == f"gcd(3, {N}) = 3: factors 3 x {N // 3}\n"
    assert main(["orbit", "--N", str(N), "--a", "3"]) == 0
    assert capsys.readouterr().out == f"gcd(3, {N}) = 3: factors 3 x {N // 3}\n"


def test_63_bits_bound_orbit_too_and_62_bits_still_synthesize(tmp_path, capsys):
    N = (1 << 63) + 1
    assert main(["--quiet", "orbit", "--N", str(N), "--a", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: --N must be < 2^63, got {N}\n")
    N = str((1 << 62) + 1)
    assert main(["--quiet", "orbit", "--N", N, "--a", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 124
    assert main(["--quiet", "synth", "--N", N, "--a", "2", "--powers", "1",
                 "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["gates"] == 245
    assert main(["--quiet", "run", "--N", N, "--a", "2", "--m", "3",
                 "--out", str(tmp_path / "h.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 8
