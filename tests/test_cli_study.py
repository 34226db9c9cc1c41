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
