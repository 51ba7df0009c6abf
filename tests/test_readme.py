"""The README's examples run as written, and its config table is the
config surface `parse_config` accepts."""

import re
from pathlib import Path

from conftest import EVERY_KEY

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


def _schema_rows():
    """(keys, scenarios) of each row of the README's config table."""
    text = README.read_text()
    table = text[text.index("| key | read by | meaning |"):].split("\n\n")[0]
    for line in table.splitlines()[2:]:
        keys, read_by = line.split("|")[1:3]
        yield re.findall(r"`([^`]+)`", keys), set(re.findall(r"\b[abcd]\b", read_by))


def test_config_table_names_the_accepted_keys(accepted_keys):
    rows = list(_schema_rows())
    listed = [key for keys, _ in rows for key in keys]
    assert sorted(listed) == sorted(EVERY_KEY)  # each key once
    for code in "abcd":
        read = [key for keys, scenarios in rows if code in scenarios for key in keys]
        assert sorted(read) == sorted(accepted_keys[code]), code
