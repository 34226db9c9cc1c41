"""study --m: the control widths are parsed once and must be a non-empty list of distinct values."""

import pytest

from truncshor.cli import main


def run_study(capsys, tmp_path, widths):
    out_file = tmp_path / "study.csv"
    code = main([
        "study", "--N", "21", "--a", "2", "--m", widths, "--trnc", "0:1",
        "--num-it", "2", "--seed", "1", "--out", str(out_file),
    ])
    return code, capsys.readouterr().err, out_file


@pytest.mark.parametrize("widths", [",", ""])
def test_study_rejects_empty_width_list(tmp_path, capsys, widths):
    code, err, out_file = run_study(capsys, tmp_path, widths)
    assert code == 2
    assert err.startswith("error: --m needs at least one control width")
    assert not out_file.exists()


@pytest.mark.parametrize("widths", ["5,5", "4,5,4"])
def test_study_rejects_repeated_width(tmp_path, capsys, widths):
    code, err, out_file = run_study(capsys, tmp_path, widths)
    assert code == 2
    assert err.startswith("error: --m lists a control width twice")
    assert not out_file.exists()


def test_study_rejects_non_integer_width(tmp_path, capsys):
    code, err, out_file = run_study(capsys, tmp_path, "5,x")
    assert code == 2
    assert err == "error: --m takes integers, got '5,x'\n"
    assert not out_file.exists()


def test_study_rejects_non_integer_truncation_level(tmp_path, capsys):
    out_file = tmp_path / "study.csv"
    code = main([
        "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:x",
        "--num-it", "2", "--seed", "1", "--out", str(out_file),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --trnc takes integers, got '0:x'\n"
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["s.json", "s.csv.json"])
def test_study_rejects_out_that_is_its_own_json_mirror(tmp_path, capsys, synth_calls, name):
    out_file = tmp_path / name
    code = main([
        "study", "--N", "21", "--a", "2", "--m", "5", "--trnc", "0:1",
        "--num-it", "2", "--seed", "1", "--out", str(out_file),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out_file} ends in .json")
    assert synth_calls == [] and list(tmp_path.iterdir()) == []
