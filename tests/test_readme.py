"""README's library tour runs as written, so a change to the API it shows breaks a test."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(7, 3)"  # report.factors, then its text block
    assert [line.split()[0] for line in out[-6:]] == ["0", "1", "2", "3", "4", "5"]  # the sweep
