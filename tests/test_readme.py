"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "__readme__"})
    lines = capsys.readouterr().out.splitlines()
    # scenario a: 5 schemes x 13 powers, one line per curve point
    assert len(lines) == 65
    scheme, power, rate = lines[0].split()
    assert scheme == "benchmark" and float(power) == -10.0 and float(rate) > 0.0
